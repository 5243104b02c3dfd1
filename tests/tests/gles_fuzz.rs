//! Differential GLES conformance fuzzing: seeded `.cyt` call streams
//! replayed through the full diplomat path must match the reference
//! rasterizer's digest at every present and its per-draw fragment
//! counts, and a full-contract rerun of the re-recorded stream must
//! repeat pixels, scanout, per-call and metered virtual time.
//! Failures shrink to a minimal stream, written out as a `.cyt` file,
//! before the test panics.
//!
//! Case count: 24 under `cargo test` (debug), 200 in release CI;
//! `CYCADA_FUZZ_CASES` overrides both (the nightly long run sets it to
//! several thousand).

use std::path::Path;

use cycada_gles::{Capability, GlesVersion, Primitive, TexFormat};
use cycada_integration::fuzz::{check_stream, generate, StreamBuilder};
use cycada_replay::{f32_arg, i32_arg, shrink_calls, Fault, ReplayStream as Stream};
use cycada_sim::replay::op;

/// Base seed for the sweep; shifting it re-randomizes every case while
/// keeping each CI run reproducible from the test log alone.
const BASE_SEED: u64 = 0xD1FF_2026;

fn case_count() -> u64 {
    if let Ok(v) = std::env::var("CYCADA_FUZZ_CASES") {
        return v.parse().expect("CYCADA_FUZZ_CASES must be an integer");
    }
    if cfg!(debug_assertions) {
        24
    } else {
        200
    }
}

#[test]
fn differential_seeded_sweep() {
    for i in 0..case_count() {
        let seed = BASE_SEED + i;
        let stream = generate(seed);
        if let Err(err) = check_stream(&stream, None) {
            let shrunk = shrink_calls(&stream, |s| check_stream(s, None).is_err());
            let final_err = check_stream(&shrunk, None).expect_err("shrunk stream must still fail");
            let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("fuzz-failures");
            let path = dir.join(format!("seed-{seed}.cyt"));
            std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&path, shrunk.encode()))
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            panic!(
                "seed {seed} diverged: {err}\n\
                 minimal failing stream ({} of {} calls, error: {final_err}) written to {}",
                shrunk.calls.len(),
                stream.calls.len(),
                path.display(),
            );
        }
    }
}

/// A hand-minimized stream exercising every op class across a V1 and a
/// V2 session — the shape the shrinker's output takes, proving minimal
/// streams check through the same entry point as fuzz cases.
#[test]
fn minimal_committed_script_replays_clean() {
    let mut b = StreamBuilder::new(0, &[GlesVersion::V1, GlesVersion::V2]);
    b.clear([0.1, 0.2, 0.3, 1.0]);
    b.on(1).clear([0.9, 0.6, 0.0, 1.0]);
    b.on(0)
        .create_texture(TexFormat::Rgba)
        .call(op::ROTATE, &[f32_arg(30.0)], &[])
        .call(op::PUSH, &[], &[])
        .call(op::SCALE, &[f32_arg(0.5), f32_arg(0.75), f32_arg(1.0)], &[])
        .draw(
            Primitive::Triangles,
            &[-0.8, -0.8, 0.0, 0.8, -0.8, 0.0, 0.0, 0.9, 0.0],
            [1.0, 0.0, 0.25, 1.0],
        )
        .call(op::POP, &[], &[])
        .tex_quad(1, [-0.5, -0.5, 0.5, 0.5], false);
    b.on(1)
        .call(op::TRANSLATE, &[f32_arg(0.25), f32_arg(-0.25), f32_arg(0.0)], &[])
        .draw(
            Primitive::TriangleFan,
            &[0.0, 0.0, 0.0, 0.7, 0.0, 0.0, 0.5, 0.5, 0.0, 0.0, 0.7, 0.0],
            [0.0, 0.5, 1.0, 0.75],
        );
    b.on(0)
        .update_texture(1, 2, 2, 4, 4)
        .tex_quad(1, [0.0, 0.0, 0.9, 0.9], true)
        .call(op::PRESENT, &[0], &[]);
    b.on(1).call(op::PRESENT, &[0], &[]);
    // Partial redraw: scissored clear then a second present — the
    // damage journals carry only this frame's dirty region down the
    // present chain to the tile compositor.
    let scissor = u64::from(Capability::ScissorTest.code());
    b.on(0)
        .call(op::CAPABILITY, &[scissor, 1], &[])
        .call(op::SCISSOR, &[i32_arg(8), i32_arg(8), 16, 12], &[])
        .clear([0.0, 1.0, 0.2, 1.0])
        .call(op::CAPABILITY, &[scissor, 0], &[])
        .call(op::PRESENT, &[0], &[]);
    check_stream(&b.finish(), None).expect("committed minimal stream must replay clean");
}

/// Every fuzz regression committed under `tests/corpus/fuzz/` passes
/// the full differential check.
#[test]
fn committed_fuzz_regressions_replay_clean() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus/fuzz");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "cyt"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no .cyt files in {}", dir.display());
    for path in files {
        let bytes = std::fs::read(&path).expect("read regression");
        let stream = Stream::decode(&bytes)
            .unwrap_or_else(|e| panic!("{}: decode failed: {e}", path.display()));
        check_stream(&stream, None).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
}

/// A deliberately wrong clear color on the diplomat side fails the check
/// on a generated stream, and the failure shrinks to a ≤ 3-call stream
/// that still fails after a `.cyt` round trip (and passes without the
/// fault).
#[test]
fn injected_fault_fails_and_shrinks_to_a_minimal_stream() {
    let fault = Some(Fault::WrongClearColor);
    let stream = generate(BASE_SEED);
    assert!(check_stream(&stream, fault).is_err(), "faulted diplomat side must diverge");
    let shrunk = shrink_calls(&stream, |s| check_stream(s, fault).is_err());
    assert!(shrunk.calls.len() <= 3, "shrunk to {} calls", shrunk.calls.len());
    let decoded = Stream::decode(&shrunk.encode()).expect("shrunk stream decodes");
    assert_eq!(decoded, shrunk);
    assert!(check_stream(&decoded, fault).is_err(), "round-tripped stream must still fail");
    check_stream(&decoded, None).expect("the divergence is the fault's");
}
