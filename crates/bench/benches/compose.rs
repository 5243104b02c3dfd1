//! Wall-time benchmarks of the damage-tracked tile compositor
//! (DESIGN.md §5g).
//!
//! Each scene from [`cycada_workloads::partial_update`] runs against a
//! warm tile memo (clean skips, occlusion culling): badge-update frames
//! are ~99% clean, split-screen frames are ~97% clean, and the occluded
//! scene's animating lower layer is never composed at all. Output bytes
//! and charged virtual time equal those of a memo-free compositor —
//! asserted by the crate's differential tests.
//!
//! Run `CRITERION_JSON_OUT=$(pwd)/BENCH_compose.json cargo bench
//! --bench compose` from the repo root to refresh the committed results
//! file (the shim resolves relative paths against the package
//! directory).

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};

use cycada_workloads::partial_update::{Scene, SceneRun};

/// Frames per iteration: enough that the warm-up present (which always
/// fully composes) is amortized away.
const FRAMES: u64 = 8;

fn bench_compose(c: &mut Criterion) {
    for scene in Scene::ALL {
        // Scene construction (image allocation, static content painting)
        // stays outside the measurement: each iteration is FRAMES
        // steady-state present cycles against a warm tile memo.
        let mut run = SceneRun::new(scene);
        c.bench_function(&format!("compose/{}", scene.label()), |b| {
            b.iter(|| black_box(run.run(FRAMES).frames));
        });
    }
}

criterion_group!(benches, bench_compose);
criterion_main!(benches);
