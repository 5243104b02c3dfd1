//! Concurrent gralloc churn: N sessions hammering the sharded buffer
//! registry with alloc / lock / write / unlock / free cycles
//! (DESIGN.md §5f).
//!
//! The stress test checks the invariants a table-wide mutex used to
//! give for free — handles are never reused while live, freed slots
//! really disappear, and no neighbor's writes leak into a buffer — and
//! the property test checks that a concurrent run is byte-identical to
//! running the same per-session scripts serially.

use std::collections::HashSet;
use std::sync::Arc;
use std::thread;

use cycada_gpu::PixelFormat;
use cycada_gralloc::{GraphicBuffer, GraphicBufferAllocator, GrallocDriver};
use cycada_kernel::{Kernel, Persona, SimTid};
use cycada_sim::Platform;
use proptest::prelude::*;

fn stack() -> (Arc<Kernel>, Arc<GrallocDriver>, Arc<GraphicBufferAllocator>, SimTid) {
    let kernel = Arc::new(Kernel::for_platform(Platform::CycadaAndroid));
    let driver = GrallocDriver::new();
    kernel.register_driver(driver.clone());
    let main = kernel.spawn_process_main(Persona::Android).unwrap();
    let alloc = Arc::new(GraphicBufferAllocator::new(kernel.clone(), driver.clone()));
    (kernel, driver, alloc, main)
}

/// One session's deterministic write script against its own buffer:
/// lock, scatter the op bytes, unlock. Index scattering makes the final
/// bytes order-sensitive within the script, so any cross-session
/// interference (or a lost write) changes the observable result.
fn apply_script(buf: &GraphicBuffer, ops: &[u8]) {
    buf.lock_cpu().unwrap();
    buf.image().buffer().write(|bytes| {
        for (i, &v) in ops.iter().enumerate() {
            let idx = (i.wrapping_mul(131).wrapping_add(v as usize * 7)) % bytes.len();
            bytes[idx] = v;
        }
    });
    buf.unlock_cpu().unwrap();
}

/// Runs one churn script — scratch alloc, real alloc, scratch free (so
/// every worker exercises free-while-neighbors-allocate), write script,
/// snapshot, free — and returns the buffer's final bytes.
fn churn_worker(
    alloc: &GraphicBufferAllocator,
    tid: SimTid,
    width: u32,
    height: u32,
    ops: &[u8],
) -> Vec<u8> {
    let scratch = alloc.allocate(tid, 1, 1, PixelFormat::Alpha8).unwrap();
    let buf = alloc.allocate(tid, width, height, PixelFormat::Rgba8888).unwrap();
    alloc.free(tid, scratch.handle()).unwrap();
    apply_script(&buf, ops);
    let out = buf.image().buffer().to_vec();
    alloc.free(tid, buf.handle()).unwrap();
    out
}

#[test]
fn concurrent_churn_never_reuses_live_handles_or_leaks() {
    const WORKERS: usize = 8;
    const ROUNDS: usize = 60;
    let (kernel, driver, alloc, main) = stack();
    let joins: Vec<_> = (0..WORKERS)
        .map(|w| {
            let tid = kernel.spawn_thread(main, Persona::Android).unwrap();
            let alloc = alloc.clone();
            let driver = driver.clone();
            thread::spawn(move || {
                let mut seen = Vec::with_capacity(ROUNDS);
                for round in 0..ROUNDS {
                    let width = 1 + ((w + round) % 8) as u32;
                    let buf = alloc.allocate(tid, width, 4, PixelFormat::Rgba8888).unwrap();
                    seen.push(buf.handle());
                    let tag = (w * ROUNDS + round) as u8;
                    buf.lock_cpu().unwrap();
                    buf.image().buffer().write(|b| b.fill(tag));
                    assert!(
                        buf.image().buffer().read(|b| b.iter().all(|&x| x == tag)),
                        "worker {w} round {round}: bytes corrupted by a neighbor"
                    );
                    buf.unlock_cpu().unwrap();
                    // The driver-side slot must alias this allocation, not a
                    // recycled one.
                    assert!(
                        driver.lookup(buf.handle()).unwrap().same_buffer(&buf),
                        "worker {w} round {round}: registry slot aliases a stranger"
                    );
                    alloc.free(tid, buf.handle()).unwrap();
                }
                seen
            })
        })
        .collect();
    let mut all = Vec::new();
    for join in joins {
        all.extend(join.join().expect("churn worker panicked"));
    }
    let unique: HashSet<u64> = all.iter().copied().collect();
    assert_eq!(
        unique.len(),
        WORKERS * ROUNDS,
        "a handle was issued twice under concurrent churn"
    );
    assert_eq!(driver.live_buffers(), 0, "churn leaked buffers");
}

#[test]
fn sessions_torn_down_mid_present_never_wedge_or_panic() {
    // Presenters post layered buffers through the compositor lock while
    // churn threads concurrently tear sessions down around them:
    // freeing buffers, clearing layer assignments, and reassigning the
    // same handle ranges. Every present must latch (no wedge), nothing
    // may panic, and the registry must end empty.
    use cycada_gpu::{GpuDevice, Rgba};
    use cycada_gralloc::SurfaceFlinger;
    use cycada_kernel::Display;
    use cycada_sim::GpuCostModel;

    const PRESENTERS: usize = 4;
    const CHURNERS: usize = 3;
    const ROUNDS: usize = 40;

    let (kernel, driver, alloc, main) = stack();
    let gpu = Arc::new(GpuDevice::new(GpuCostModel::tegra3()));
    let sf = Arc::new(SurfaceFlinger::new(Display::new(32, 32), gpu));

    let presenters: Vec<_> = (0..PRESENTERS)
        .map(|p| {
            let tid = kernel.spawn_thread(main, Persona::Android).unwrap();
            let alloc = alloc.clone();
            let sf = sf.clone();
            thread::spawn(move || {
                for round in 0..ROUNDS {
                    // A short-lived session: allocate, assign a layer,
                    // present a few frames, tear everything down. The
                    // teardown of this session races the presents of
                    // every other session sharing the flinger.
                    let buf = alloc.allocate(tid, 8, 8, PixelFormat::Rgba8888).unwrap();
                    buf.lock_cpu().unwrap();
                    buf.image().fill(Rgba::RED);
                    buf.unlock_cpu().unwrap();
                    let rect = cycada_gpu::raster::Rect {
                        x: (p as u32 % 2) * 16,
                        y: (p as u32 / 2) * 16,
                        w: 16,
                        h: 16,
                    };
                    sf.assign_layer(buf.handle(), rect);
                    for _ in 0..3 {
                        sf.post_buffer(&buf);
                    }
                    sf.clear_layer(buf.handle());
                    alloc.free(tid, buf.handle()).unwrap();
                    // Interleave shapes across rounds.
                    if round % 8 == p % 8 {
                        thread::yield_now();
                    }
                }
            })
        })
        .collect();

    let churners: Vec<_> = (0..CHURNERS)
        .map(|c| {
            let tid = kernel.spawn_thread(main, Persona::Android).unwrap();
            let alloc = alloc.clone();
            let sf = sf.clone();
            thread::spawn(move || {
                for round in 0..ROUNDS {
                    let buf = alloc
                        .allocate(tid, 1 + (round % 4) as u32, 4, PixelFormat::Rgba8888)
                        .unwrap();
                    // Assign and immediately clear a layer for a handle
                    // that presenters may race reads of.
                    sf.assign_layer(
                        buf.handle(),
                        cycada_gpu::raster::Rect { x: c as u32, y: c as u32, w: 4, h: 4 },
                    );
                    sf.clear_layer(buf.handle());
                    alloc.free(tid, buf.handle()).unwrap();
                }
            })
        })
        .collect();

    for join in presenters.into_iter().chain(churners) {
        join.join().expect("a thread panicked under mid-present teardown");
    }
    assert_eq!(
        sf.display().frames_presented(),
        (PRESENTERS * ROUNDS * 3) as u64,
        "every present latched despite concurrent teardown"
    );
    assert_eq!(driver.live_buffers(), 0, "teardown churn leaked buffers");
}

proptest! {
    // Each case spawns real threads; a few dozen cases keeps the suite
    // fast while still exploring script shapes.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sessions own disjoint buffers, so running their scripts on
    /// concurrent threads must produce exactly the bytes a serial run
    /// produces — the sharded registry may reorder slot traffic but
    /// never mix it.
    #[test]
    fn concurrent_churn_is_byte_identical_to_serial(
        scripts in prop::collection::vec(
            (1u32..12, 1u32..12, prop::collection::vec(any::<u8>(), 1..24)),
            1..5,
        ),
    ) {
        let (kernel, driver, alloc, main) = stack();
        let serial: Vec<Vec<u8>> = scripts
            .iter()
            .map(|(w, h, ops)| {
                let tid = kernel.spawn_thread(main, Persona::Android).unwrap();
                churn_worker(&alloc, tid, *w, *h, ops)
            })
            .collect();
        prop_assert_eq!(driver.live_buffers(), 0);

        let (kernel2, driver2, alloc2, main2) = stack();
        let joins: Vec<_> = scripts
            .iter()
            .cloned()
            .map(|(w, h, ops)| {
                let tid = kernel2.spawn_thread(main2, Persona::Android).unwrap();
                let alloc2 = alloc2.clone();
                thread::spawn(move || churn_worker(&alloc2, tid, w, h, &ops))
            })
            .collect();
        let concurrent: Vec<Vec<u8>> = joins
            .into_iter()
            .map(|j| j.join().expect("churn worker panicked"))
            .collect();
        prop_assert_eq!(driver2.live_buffers(), 0);
        prop_assert_eq!(serial, concurrent);
    }
}
