//! Wall-time benchmarks of the damage-tracked tile compositor
//! (DESIGN.md §5g).
//!
//! Each scene from [`cycada_workloads::partial_update`] runs with the
//! damage plane on (tile memo, clean skips, occlusion culling) and off
//! (full recomposition of every blit, every frame). Output bytes and
//! charged virtual time are identical in both modes — asserted by the
//! crate's differential tests and the GLES fuzzer — so the *_damage_on
//! vs *_damage_off ratio here is pure wall-time win on redundant frame
//! content: badge-update frames are ~99% clean, split-screen frames are
//! ~97% clean, and the occluded scene's animating lower layer is never
//! composed at all.
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

fn bench_scene(c: &mut Criterion, scene: Scene, damage: bool) {
    let name = format!(
        "compose/{}_damage_{}",
        scene.label(),
        if damage { "on" } else { "off" }
    );
    // Scene construction (image allocation, static content painting)
    // stays outside the measurement: each iteration is FRAMES
    // steady-state present cycles against a warm tile memo.
    let mut run = SceneRun::new(scene);
    cycada_sim::damage::set_tracking(damage);
    c.bench_function(&name, |b| {
        b.iter(|| black_box(run.run(FRAMES).frames));
    });
    cycada_sim::damage::set_tracking(true);
}

fn bench_compose(c: &mut Criterion) {
    for scene in Scene::ALL {
        bench_scene(c, scene, true);
        bench_scene(c, scene, false);
    }
}

criterion_group!(benches, bench_compose);
criterion_main!(benches);
