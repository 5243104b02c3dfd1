//! Micro-benchmarks of the replay plane's cost contract.
//!
//! The disabled-path number is the price every instrumented `AppGl`
//! entry point pays in production with recording off — one relaxed
//! atomic load and a branch, which must stay at low single-digit
//! nanoseconds for the hooks to be safe to leave compiled in. The
//! recording numbers put a price on running with a recording attached
//! (full passmark frames, recorded vs not), and the replay numbers
//! compare re-driving a recorded stream against running the scripted
//! scenario it came from — replay should cost about the same wall time
//! as the workload itself, since it executes the same stack.
//!
//! Run with `CRITERION_JSON_OUT=BENCH_replay.json cargo bench --bench
//! replay` to emit the committed results file.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};

use cycada::AppGl;
use cycada_replay::{record_scenario, replay_stream, ReplayOptions};
use cycada_sim::replay::{self, Recording, StreamMeta};
use cycada_sim::Platform;
use cycada_workloads::scenario::{self, Scenario};

const SEED: u64 = 0xBE7C;
const FRAMES: u32 = 4;
const DISPLAY: (u32, u32) = (48, 32);

/// The disabled call-site gate: what every instrumented facade method
/// pays per call when no recording is attached.
fn bench_disabled_gate(c: &mut Criterion) {
    c.bench_function("replay/disabled_call_site_gate", |b| {
        b.iter(|| black_box(replay::active()))
    });
}

/// Attaching and detaching a recording (scope setup cost per recorded
/// session).
fn bench_attach_detach(c: &mut Criterion) {
    let meta = StreamMeta {
        platform: Platform::CycadaIos,
        gles: 1,
        width: DISPLAY.0,
        height: DISPLAY.1,
        seed: SEED,
        label: "bench".to_owned(),
    };
    c.bench_function("replay/recording_attach_detach", |b| {
        b.iter(|| {
            let rec = Recording::new(meta.clone());
            let guard = rec.attach();
            black_box(&guard);
        })
    });
}

/// One full passmark frame set with recording off — the baseline the
/// recording overhead is measured against.
fn scripted_frames(app: &mut AppGl, state: &mut scenario::ScenarioState) {
    for f in 0..FRAMES {
        scenario::frame(app, state, SEED, f).expect("frame");
    }
}

fn bench_record_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay/record_overhead");
    let mut app = AppGl::boot_with_display(
        Platform::CycadaIos,
        Scenario::Passmark.gles_version(),
        Some(DISPLAY),
    )
    .expect("boot");
    let mut state = scenario::setup(&mut app, Scenario::Passmark, SEED).expect("setup");

    group.bench_function("passmark_frames_unrecorded", |b| {
        b.iter(|| scripted_frames(&mut app, &mut state))
    });
    group.bench_function("passmark_frames_recorded", |b| {
        let meta = StreamMeta {
            platform: Platform::CycadaIos,
            gles: 1,
            width: DISPLAY.0,
            height: DISPLAY.1,
            seed: SEED,
            label: "bench".to_owned(),
        };
        b.iter(|| {
            let rec = Recording::new(meta.clone());
            let _g = rec.attach();
            scripted_frames(&mut app, &mut state);
            black_box(rec.len());
        })
    });
    group.finish();
}

/// Replay wall cost vs the scripted workload it was recorded from, plus
/// the codec's encode/decode throughput on a real trace.
fn bench_replay_vs_scripted(c: &mut Criterion) {
    let stream =
        record_scenario(Scenario::Passmark, SEED, FRAMES, DISPLAY).expect("record passmark");
    let bytes = stream.encode();
    let mut group = c.benchmark_group("replay/replay_vs_scripted");

    group.bench_function("scripted_passmark_session", |b| {
        b.iter(|| {
            let mut app = AppGl::boot_with_display(
                Platform::CycadaIos,
                Scenario::Passmark.gles_version(),
                Some(DISPLAY),
            )
            .expect("boot");
            let mut state = scenario::setup(&mut app, Scenario::Passmark, SEED).expect("setup");
            let _scope = app.session_scope();
            scripted_frames(&mut app, &mut state);
            black_box(app.session_virtual_ns());
        })
    });
    group.bench_function("replayed_passmark_session", |b| {
        b.iter(|| {
            let outcome =
                replay_stream(&stream, &ReplayOptions::default()).expect("replay passmark");
            black_box(outcome.metered_ns);
        })
    });
    group.bench_function("decode_passmark_trace", |b| {
        b.iter(|| black_box(cycada_sim::replay::Stream::decode(black_box(&bytes)).expect("decode")))
    });
    group.bench_function("encode_passmark_trace", |b| {
        b.iter(|| black_box(stream.encode()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_disabled_gate,
    bench_attach_detach,
    bench_record_overhead,
    bench_replay_vs_scripted,
);
criterion_main!(benches);
