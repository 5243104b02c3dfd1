//! Replay-plane integration tests (DESIGN.md §5i).
//!
//! The replay contract under test: a recorded call stream, re-driven
//! through a fresh session, reproduces the recording byte-for-byte
//! (every present's framebuffer digest) and nanosecond-for-nanosecond
//! (every call's virtual timestamp and the metered totals); recording is
//! invisible to the simulation (recorded runs equal unrecorded runs);
//! the `.cyt` encoding is stable (same run → same bytes); and a forced
//! divergence ddmin-shrinks to a minimal trace that still reproduces.

use cycada::{AppGl, CycadaError};
use cycada_fleet::{solo_outcome, FleetConfig};
use cycada_gles::{GlesVersion, Primitive};
use cycada_gpu::raster::Rect;
use cycada_integration::fuzz::{wrong_clear_color, StreamBuilder};
use cycada_replay::{
    corpus, f64_arg, replay_stream, shrink_divergence, DivergenceKind, Recording,
    ReplayError, ReplayOptions, MARK_SESSION,
};
use cycada_sim::replay::{op, Stream};
use cycada_sim::{clock, Platform};
use cycada_workloads::scenario::Scenario;

const SEED: u64 = 0x5EED;
const FRAMES: u32 = 3;
const DISPLAY: (u32, u32) = (48, 32);

/// Every recordable scenario replays clean under the full contract:
/// byte-identical frames and nanosecond-identical virtual time, call by
/// call and at the metered-region markers.
#[test]
fn every_scenario_round_trips_with_full_checks() {
    for scenario in Scenario::CORPUS {
        let stream = cycada_replay::record_scenario(scenario, SEED, FRAMES, DISPLAY)
            .expect("record must succeed");
        assert!(!stream.calls.is_empty(), "{}: empty recording", scenario.label());
        let outcome = replay_stream(&stream, &ReplayOptions::default())
            .unwrap_or_else(|e| panic!("{}: replay diverged: {e}", scenario.label()));
        assert!(outcome.presents > 0, "{}: no presents replayed", scenario.label());
        assert_eq!(outcome.calls, stream.calls.len());
    }
}

/// Recording is a pure observer: the recorded run's final digest and
/// metered virtual time equal an unrecorded solo run of the same
/// workload, and the replayed run lands on the same numbers again.
#[test]
fn recording_does_not_perturb_the_simulation() {
    for scenario in [Scenario::Passmark, Scenario::AssetChurn] {
        let (solo_hash, solo_ns) = solo_outcome(scenario, SEED, FRAMES, DISPLAY)
            .expect("solo run must succeed");
        let stream = cycada_replay::record_scenario(scenario, SEED, FRAMES, DISPLAY)
            .expect("record must succeed");
        let outcome = replay_stream(&stream, &ReplayOptions::default())
            .unwrap_or_else(|e| panic!("{}: replay diverged: {e}", scenario.label()));
        assert_eq!(outcome.digest, solo_hash, "{}: digest", scenario.label());
        assert_eq!(outcome.metered_ns, solo_ns, "{}: metered ns", scenario.label());
    }
}

/// The `.cyt` encoding is a pure function of the run: recording the same
/// workload twice yields byte-identical files, and decode inverts
/// encode exactly.
#[test]
fn two_recordings_encode_identical_bytes() {
    let a = cycada_replay::record_scenario(Scenario::Browser, SEED, FRAMES, DISPLAY)
        .expect("first recording");
    let b = cycada_replay::record_scenario(Scenario::Browser, SEED, FRAMES, DISPLAY)
        .expect("second recording");
    let bytes = a.encode();
    assert_eq!(bytes, b.encode(), "same run must serialize identically");
    assert_eq!(Stream::decode(&bytes).expect("decode"), a);
}

/// Replaying with re-recording on produces a stream that serializes
/// byte-identically to the original — record → replay → record is a
/// fixed point.
#[test]
fn rerecorded_replay_is_byte_identical() {
    for scenario in [Scenario::MultiGles, Scenario::ContextLoss] {
        let stream = cycada_replay::record_scenario(scenario, SEED, FRAMES, DISPLAY)
            .expect("record must succeed");
        let opts = ReplayOptions { rerecord: true, ..Default::default() };
        let outcome = replay_stream(&stream, &opts)
            .unwrap_or_else(|e| panic!("{}: replay diverged: {e}", scenario.label()));
        let rerec = outcome.rerecording.expect("rerecording requested");
        assert_eq!(
            rerec.encode(),
            stream.encode(),
            "{}: rerecorded stream must serialize identically",
            scenario.label()
        );
    }
}

/// A V1 header session plus a V2 session attached by `cyt:session`,
/// drawing and presenting in turn.
fn two_session_stream() -> Stream {
    let tri = [-0.7, -0.7, 0.0, 0.7, -0.7, 0.0, 0.0, 0.7, 0.0];
    let mut b = StreamBuilder::new(SEED, &[GlesVersion::V1, GlesVersion::V2]);
    b.clear([0.2, 0.3, 0.4, 1.0]).draw(Primitive::Triangles, &tri, [1.0, 0.5, 0.0, 1.0]);
    b.on(1).clear([0.0, 0.0, 0.5, 1.0]).draw(Primitive::TriangleFan, &tri, [0.0, 1.0, 0.0, 1.0]);
    b.call(op::PRESENT, &[0], &[]);
    b.on(0).call(op::ROTATE, &[cycada_replay::f32_arg(45.0)], &[]);
    b.draw(Primitive::Triangles, &tri, [0.0, 0.5, 1.0, 1.0]).call(op::PRESENT, &[0], &[]);
    b.finish()
}

/// Multi-session streams keep the full contract: a recording of a V1
/// header session that attaches a V2 session via `cyt:session` replays
/// with every digest and nanosecond checked, and re-records to the same
/// bytes.
#[test]
fn attached_session_stream_replays_and_rerecords_identically() {
    // Built streams carry no digests or timestamps; a first replay
    // records them.
    let probe = ReplayOptions {
        check_digests: false,
        check_timestamps: false,
        rerecord: true,
    };
    let recorded = replay_stream(&two_session_stream(), &probe)
        .expect("first replay")
        .rerecording
        .expect("rerecording requested");
    assert!(recorded.names.iter().any(|n| n == MARK_SESSION));
    assert!(recorded.calls.iter().any(|c| c.vts > 0), "recording carries timestamps");

    let opts = ReplayOptions { rerecord: true, ..Default::default() };
    let outcome = replay_stream(&recorded, &opts).expect("full-contract replay");
    assert_eq!(outcome.presents, 2);
    assert_eq!(outcome.frags.len(), 3, "one fragment count per draw");
    let rerec = outcome.rerecording.expect("rerecording requested");
    assert_eq!(rerec.encode(), recorded.encode(), "record -> replay -> record is a fixed point");
}

/// `cyt:session` needs a Cycada device to attach to: on any other
/// platform it is a typed session error, not a panic.
#[test]
fn session_marker_off_cycada_is_a_session_error() {
    let mut stream = two_session_stream();
    stream.meta.platform = Platform::StockAndroid;
    match replay_stream(&stream, &ReplayOptions::digests_only()) {
        Err(ReplayError::Session(msg)) => assert!(msg.contains(MARK_SESSION), "{msg}"),
        other => panic!("expected a session error, got {other:?}"),
    }
}

/// A wrong clear colour under the recorded digests forces a pixel
/// divergence, and ddmin shrinks the diverging trace to a minimal (≤ 3
/// call) trace that still reproduces it.
#[test]
fn fault_diverges_and_shrinks_to_minimal_trace() {
    let stream = cycada_replay::record_scenario(Scenario::Passmark, SEED, FRAMES, DISPLAY)
        .expect("record must succeed");

    let faulted = wrong_clear_color(&stream);
    let opts = ReplayOptions::default();

    let err = replay_stream(&faulted, &opts).expect_err("faulted replay must diverge");
    match &err {
        ReplayError::Diverged(d) => assert_eq!(d.kind, DivergenceKind::Pixels, "{err}"),
        other => panic!("expected a pixel divergence, got: {other}"),
    }

    let minimal = shrink_divergence(&faulted, &opts);
    assert!(
        minimal.calls.len() <= 3,
        "ddmin must reach a ≤3-call trace, got {} calls",
        minimal.calls.len()
    );
    assert!(!minimal.calls.is_empty(), "minimal trace cannot be empty");

    // The minimal trace still reproduces, and survives a codec round
    // trip (it is a committable .cyt).
    let probe = ReplayOptions { check_timestamps: false, ..opts.clone() };
    assert!(
        matches!(replay_stream(&minimal, &probe), Err(ReplayError::Diverged(_))),
        "minimal trace must still diverge"
    );
    let decoded = Stream::decode(&minimal.encode()).expect("minimal trace must encode/decode");
    assert_eq!(decoded, minimal);

    // The unperturbed stream replays clean — the divergence was the
    // fault's, not the recorder's.
    replay_stream(&stream, &ReplayOptions::default()).expect("unfaulted replay is clean");
}

/// Golden-file lock: every committed corpus trace replays clean under
/// the full contract, and re-recording it from source produces the
/// committed bytes exactly. A legitimate behaviour change regenerates
/// the corpus via `record_corpus` and reviews the diff.
#[test]
fn committed_corpus_replays_clean_and_matches_source() {
    for entry in &corpus::ENTRIES {
        let path = corpus::path(entry);
        let committed = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("{}: missing corpus file ({e}); run record_corpus", entry.file));
        let stream = Stream::decode(&committed)
            .unwrap_or_else(|e| panic!("{}: corpus decode failed: {e}", entry.file));
        assert_eq!(stream.meta.label, entry.scenario.label(), "{}: label", entry.file);
        replay_stream(&stream, &ReplayOptions::default())
            .unwrap_or_else(|e| panic!("{}: committed trace diverged: {e}", entry.file));
        let fresh = corpus::record_entry(entry)
            .unwrap_or_else(|e| panic!("{}: re-recording failed: {e}", entry.file));
        assert_eq!(
            fresh.encode(),
            committed,
            "{}: fresh recording differs from committed corpus — regenerate via record_corpus and review",
            entry.file
        );
    }
}

/// The fleet's fifth scenario kind: `replay:<path>` fans a corpus trace
/// out across shared devices. Every session must reproduce the
/// recording's pixels and metered virtual time exactly — warm-up wall
/// costs differ per session, determinism doesn't.
/// `CYCADA_REPLAY_FLEET_SESSIONS` scales the fan-out (nightly uses 512).
#[test]
fn fleet_fans_out_corpus_replay() {
    let sessions = std::env::var("CYCADA_REPLAY_FLEET_SESSIONS")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(8);
    for entry in &corpus::ENTRIES {
        let path = corpus::path(entry);
        let committed = std::fs::read(&path).expect("corpus file (run record_corpus)");
        let stream = Stream::decode(&committed).expect("corpus decode");
        let solo = replay_stream(&stream, &ReplayOptions::default()).expect("solo replay");

        let spec = format!("replay:{}", path.display());
        let cfg = FleetConfig::new(&format!("replay_{}", entry.scenario.label()), 2, sessions)
            .with_scenario_spec(&spec)
            .expect("replay spec must load");
        let report = cycada_fleet::run_fleet(&cfg).expect("replay fleet must run");

        assert_eq!(report.outcomes.len(), sessions);
        for o in &report.outcomes {
            assert_eq!(o.scenario.label(), "replay");
            assert_eq!(
                o.fb_hash, solo.digest,
                "{} session {}: pixels must match the recording",
                entry.file, o.session
            );
            assert_eq!(
                o.virtual_ns, solo.metered_ns,
                "{} session {}: metered ns must match",
                entry.file, o.session
            );
        }
    }

    // Spec parsing: "mix" keeps the scripted mix, junk is rejected.
    assert!(FleetConfig::new("mix", 1, 1).with_scenario_spec("mix").unwrap().replay.is_none());
    assert!(FleetConfig::new("bad", 1, 1).with_scenario_spec("nonsense").is_err());
    assert!(FleetConfig::new("gone", 1, 1).with_scenario_spec("replay:/no/such.cyt").is_err());
}

/// A one-session stream on `platform` running `calls` after a clear.
fn stream_on(platform: Platform, calls: &[(&str, Vec<u64>)]) -> Stream {
    let mut b = StreamBuilder::new(SEED, &[GlesVersion::V2]);
    b.clear([0.2, 0.3, 0.4, 1.0]);
    for (name, args) in calls {
        b.call(name, args, &[]);
    }
    let mut stream = b.finish();
    stream.meta.platform = platform;
    stream
}

fn assert_invalid_argument(result: Result<cycada_replay::ReplayOutcome, ReplayError>, what: &str) {
    match result {
        Err(ReplayError::Session(m)) if m.contains("invalid argument") => {}
        Err(e) => panic!("{what}: expected an invalid-argument session error, got {e}"),
        Ok(_) => panic!("{what}: replayed without an error"),
    }
}

/// Replayed arguments the device cannot honour are typed errors, not
/// virtual-clock overflows: a layer of `u32::MAX`² (the flinger charges
/// the logical destination area at the next present) on every backend,
/// and a CPU charge of +inf or 1e30 ns.
#[test]
fn out_of_range_replayed_arguments_are_typed_errors() {
    let max = u64::from(u32::MAX);
    for platform in Platform::ALL {
        let layer = stream_on(
            platform,
            &[
                (op::DISPLAY_LAYER, vec![0, 0, max, max]),
                (op::PRESENT, vec![0]),
            ],
        );
        assert_invalid_argument(
            replay_stream(&layer, &ReplayOptions::digests_only()),
            &format!("{platform:?} display layer"),
        );
    }
    for ns in [f64::INFINITY, 1e30] {
        let charge = stream_on(Platform::CycadaIos, &[(op::CHARGE_CPU, vec![f64_arg(ns)])]);
        assert_invalid_argument(
            replay_stream(&charge, &ReplayOptions::digests_only()),
            &format!("charge-cpu {ns}"),
        );
    }
}

/// The argument checks run before anything is charged or recorded, on
/// every backend.
#[test]
fn rejected_arguments_charge_and_record_nothing() {
    for platform in Platform::ALL {
        let app = AppGl::boot_with_display(platform, GlesVersion::V2, Some(DISPLAY))
            .unwrap_or_else(|e| panic!("{platform:?}: boot failed: {e}"));
        let recording = Recording::new(stream_on(platform, &[]).meta);
        let guard = recording.attach();
        let before = clock::now_ns();
        let layer = Rect {
            x: 0,
            y: 0,
            w: 2049,
            h: 1,
        };
        assert!(matches!(
            app.set_display_layer(layer),
            Err(CycadaError::InvalidArgument(_))
        ));
        for ns in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.5e9] {
            assert!(matches!(
                app.charge_cpu(ns),
                Err(CycadaError::InvalidArgument(_))
            ));
        }
        assert_eq!(
            clock::now_ns(),
            before,
            "{platform:?}: a rejected call charged time"
        );
        drop(guard);
        assert_eq!(
            recording.len(),
            0,
            "{platform:?}: a rejected call was recorded"
        );
    }
}

/// A `.cyt` header cannot ask for an impossible display: a side of 0 or
/// above 2048 is a typed error on every platform, through
/// `replay_stream` and through a fleet's `replay:<path>` spec.
#[test]
fn impossible_display_headers_are_typed_errors() {
    for (w, h) in [(0, 32), (2049, 32), (u32::MAX, u32::MAX)] {
        for platform in Platform::ALL {
            let mut stream = stream_on(platform, &[]);
            (stream.meta.width, stream.meta.height) = (w, h);
            assert_invalid_argument(
                replay_stream(&stream, &ReplayOptions::default()),
                &format!("{platform:?} {w}x{h}"),
            );
        }
        let mut stream = stream_on(Platform::CycadaIos, &[]);
        (stream.meta.width, stream.meta.height) = (w, h);
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
        let path = dir.join(format!("display-{w}x{h}.cyt"));
        std::fs::write(&path, stream.encode()).expect("write trace");
        let cfg = FleetConfig::new("bad-display", 1, 1)
            .with_scenario_spec(&format!("replay:{}", path.display()))
            .expect("spec loads");
        let err = cycada_fleet::run_fleet(&cfg).expect_err("boot must fail");
        assert!(err.contains("invalid argument"), "{w}x{h}: {err}");
    }
}
