//! Model suite for `cycada_check`: sanity models proving the explorer
//! finds (and replays) schedule bugs, plus the project-protocol models —
//! the PR 4 `ImpersonationGuard::end` partial-restore bug on its pre-fix
//! code shape, the trace ring's drain, `SlotTable` chunk-boundary churn,
//! and the DESIGN.md §5f parallel-plane seams (sharded kernel thread
//! table, sharded gralloc registry, the flinger present lock, GPU fence
//! slots and racing clears).

use std::sync::Arc;

use cycada_check::{Checker, Model};
use cycada_kernel::Kernel;
use cycada_linker::DynamicLinker;
use cycada_sim::slots::SlotTable;
use cycada_sim::trace::model::Ring;
use cycada_sim::{Persona, Platform};
use parking_lot::Mutex;

// ---------------------------------------------------------------------
// Explorer sanity: find a known race, replay it, pass a correct model
// ---------------------------------------------------------------------

/// The classic lost update: each thread reads the counter under one lock
/// acquisition and writes back under another. Some interleaving loses an
/// increment; bound-1 exhaustive search must find it.
fn lost_update_model() -> Model {
    let counter = Arc::new(Mutex::new(0u32));
    let (a, b, c) = (counter.clone(), counter.clone(), counter);
    Model::new()
        .thread(move || {
            let v = *a.lock();
            *a.lock() = v + 1;
        })
        .thread(move || {
            let v = *b.lock();
            *b.lock() = v + 1;
        })
        .post(move || assert_eq!(*c.lock(), 2, "an increment was lost"))
}

#[test]
fn exhaustive_finds_lost_update_and_token_replays_it() {
    let checker = Checker::new().preemption_bound(1);
    let failure = checker
        .exhaustive(lost_update_model)
        .expect_err("the lost update must be found");
    assert!(
        failure.message.contains("an increment was lost"),
        "unexpected failure: {failure}"
    );
    assert!(!failure.token.is_empty(), "failure must carry a replay token");

    // The printed token reproduces the same failure deterministically.
    let replayed = checker
        .replay(&failure.token, lost_update_model)
        .expect_err("replaying the failure token must reproduce the failure");
    assert!(
        replayed.message.contains("an increment was lost"),
        "replay produced a different failure: {replayed}"
    );
}

#[test]
fn exhaustive_passes_atomic_increment() {
    let report = Checker::new()
        .preemption_bound(2)
        .exhaustive(|| {
            let counter = Arc::new(Mutex::new(0u32));
            let (a, b, c) = (counter.clone(), counter.clone(), counter);
            Model::new()
                .thread(move || *a.lock() += 1)
                .thread(move || *b.lock() += 1)
                .post(move || assert_eq!(*c.lock(), 2))
        })
        .expect("single-lock increments cannot lose updates");
    assert!(report.complete, "small model must be fully explored");
    assert!(report.executions > 1, "more than one schedule exists");
}

#[test]
fn exhaustive_detects_lock_order_deadlock() {
    let failure = Checker::new()
        .preemption_bound(1)
        .exhaustive(|| {
            let x = Arc::new(Mutex::new(0u32));
            let y = Arc::new(Mutex::new(0u32));
            let (x1, y1) = (x.clone(), y.clone());
            Model::new()
                .thread(move || {
                    let _gx = x.lock();
                    let _gy = y.lock();
                })
                .thread(move || {
                    let _gy = y1.lock();
                    let _gx = x1.lock();
                })
        })
        .expect_err("AB-BA locking must deadlock under some schedule");
    assert!(
        failure.message.contains("deadlock"),
        "unexpected failure: {failure}"
    );
}

#[test]
fn random_mode_finds_lost_update() {
    let failure = Checker::new()
        .random(0xC1CADA, 200, lost_update_model)
        .expect_err("200 random schedules must hit the lost update");
    assert!(failure.message.contains("an increment was lost"));
    // And the recorded schedule replays.
    let replayed = Checker::new()
        .replay(&failure.token, lost_update_model)
        .expect_err("random-mode token must replay");
    assert!(replayed.message.contains("an increment was lost"));
}

// ---------------------------------------------------------------------
// Satellite: the PR 4 ImpersonationGuard::end partial-restore bug,
// deterministically reproduced on the pre-fix code shape
// ---------------------------------------------------------------------

const ANDROID_SLOT: usize = 10;
const IOS_SLOT: usize = 11;
const OWN_ANDROID: u64 = 0x111;
const OWN_IOS: u64 = 0x222;

fn persona_slots(persona: Persona) -> Vec<usize> {
    match persona {
        Persona::Android => vec![ANDROID_SLOT],
        Persona::Ios => vec![IOS_SLOT],
    }
}

/// The impersonation *begin* syscall sequence (save own TLS, adopt the
/// target's), exactly as `DiplomatEngine::impersonate` issues it. Returns
/// the saved TLS per persona, or `None` if a step failed (target died
/// before the guard existed — nothing to assert about teardown then).
#[allow(clippy::type_complexity)]
fn begin_impersonation(
    kernel: &Kernel,
    running: cycada_kernel::SimTid,
    target: cycada_kernel::SimTid,
) -> Option<[Vec<Option<cycada_kernel::TlsValue>>; 2]> {
    let mut saved: [Vec<Option<cycada_kernel::TlsValue>>; 2] = [Vec::new(), Vec::new()];
    for persona in Persona::ALL {
        let slots = persona_slots(persona);
        let own = kernel.locate_tls(running, running, persona, &slots).ok()?;
        let theirs = kernel.locate_tls(running, target, persona, &slots).ok()?;
        kernel
            .propagate_tls(running, running, persona, &slots, &theirs)
            .ok()?;
        saved[persona.index()] = own;
    }
    Some(saved)
}

/// The PRE-FIX `ImpersonationGuard::end` shape: `?` on every step, so the
/// first failing persona aborts the walk and later personas are left
/// wearing the target's TLS. (PR 4 replaced this with attempt-everything,
/// collect-errors.)
fn buggy_end(
    kernel: &Kernel,
    running: cycada_kernel::SimTid,
    target: cycada_kernel::SimTid,
    saved: &[Vec<Option<cycada_kernel::TlsValue>>; 2],
) -> Result<(), String> {
    for persona in Persona::ALL {
        let slots = persona_slots(persona);
        let current = kernel
            .locate_tls(running, running, persona, &slots)
            .map_err(|e| e.to_string())?;
        // Write updates back to the target — the step that fails when the
        // target exited mid-guard. The `?` is the bug: it skips the
        // restore below AND every later persona.
        kernel
            .propagate_tls(running, target, persona, &slots, &current)
            .map_err(|e| e.to_string())?;
        kernel
            .propagate_tls(running, running, persona, &slots, &saved[persona.index()])
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// The invariant the fixed teardown guarantees: whatever else happened,
/// the running thread wears its own graphics TLS in every persona.
fn assert_own_tls_restored(kernel: &Kernel, running: cycada_kernel::SimTid) {
    assert_eq!(
        kernel.tls_get_raw(running, Persona::Android, ANDROID_SLOT).unwrap(),
        Some(OWN_ANDROID),
        "running thread left wearing foreign Android-persona TLS"
    );
    assert_eq!(
        kernel.tls_get_raw(running, Persona::Ios, IOS_SLOT).unwrap(),
        Some(OWN_IOS),
        "running thread left wearing foreign iOS-persona TLS"
    );
}

/// The saved-TLS snapshot an impersonation guard holds: one slot vector
/// per persona.
type SavedTls = [Vec<Option<cycada_kernel::TlsValue>>; 2];

/// Builds the 2-thread impersonation-vs-thread-exit model. `end` is the
/// teardown under test (buggy pre-fix shape or the fixed engine path).
fn impersonation_exit_model(
    end: fn(&Kernel, cycada_kernel::SimTid, cycada_kernel::SimTid, &SavedTls),
) -> Model {
    let kernel = Arc::new(Kernel::for_platform(Platform::CycadaIos));
    let target = kernel.spawn_process_main(Persona::Ios).unwrap();
    let running = kernel.spawn_thread(target, Persona::Ios).unwrap();
    kernel
        .tls_set_raw(running, Persona::Android, ANDROID_SLOT, Some(OWN_ANDROID))
        .unwrap();
    kernel
        .tls_set_raw(running, Persona::Ios, IOS_SLOT, Some(OWN_IOS))
        .unwrap();
    let k1 = kernel.clone();
    let k2 = kernel;
    Model::new()
        .thread(move || {
            let Some(saved) = begin_impersonation(&k1, running, target) else {
                // Target exited before the guard existed; no teardown to
                // check on this schedule.
                return;
            };
            end(&k1, running, target, &saved);
            assert_own_tls_restored(&k1, running);
        })
        .thread(move || {
            let _ = k2.exit_thread(target);
        })
}

#[test]
fn prefix_impersonation_end_bug_found_and_replayed() {
    let checker = Checker::new().preemption_bound(1);
    let mk = || {
        impersonation_exit_model(|kernel, running, target, saved| {
            let _ = buggy_end(kernel, running, target, saved);
        })
    };
    let failure = checker
        .exhaustive(mk)
        .expect_err("pre-fix end must leave a persona foreign under some schedule");
    assert!(
        failure.message.contains("foreign"),
        "expected the partial-restore assertion, got: {failure}"
    );
    // Deterministic replay from the printed token.
    let replayed = checker
        .replay(&failure.token, mk)
        .expect_err("token must reproduce the partial restore");
    assert!(replayed.message.contains("foreign"));
}

#[test]
fn fixed_impersonation_end_passes_exhaustively() {
    // Same model, but teardown attempts write-back and restore for every
    // persona (the PR 4 fix, re-implemented over raw syscalls so the
    // schedule shape matches the buggy variant).
    let report = Checker::new()
        .preemption_bound(1)
        .exhaustive(|| {
            impersonation_exit_model(|kernel, running, target, saved| {
                for persona in Persona::ALL {
                    let slots = persona_slots(persona);
                    if let Ok(current) = kernel.locate_tls(running, running, persona, &slots) {
                        let _ = kernel.propagate_tls(running, target, persona, &slots, &current);
                    }
                    let _ = kernel.propagate_tls(
                        running,
                        running,
                        persona,
                        &slots,
                        &saved[persona.index()],
                    );
                }
            })
        })
        .expect("fixed teardown must restore every persona under every schedule");
    assert!(report.complete);
}

#[test]
fn real_impersonation_guard_passes_exhaustively() {
    // The actual engine path: DiplomatEngine::impersonate + finish,
    // racing the target thread's exit.
    let report = Checker::new()
        .preemption_bound(1)
        .exhaustive(|| {
            let kernel = Arc::new(Kernel::for_platform(Platform::CycadaIos));
            let linker = Arc::new(DynamicLinker::new());
            let engine = cycada_diplomat::DiplomatEngine::new(kernel.clone(), linker);
            engine
                .graphics_tls()
                .register_well_known(Persona::Android, ANDROID_SLOT);
            engine.graphics_tls().register_well_known(Persona::Ios, IOS_SLOT);
            let target = kernel.spawn_process_main(Persona::Ios).unwrap();
            let running = kernel.spawn_thread(target, Persona::Ios).unwrap();
            kernel
                .tls_set_raw(running, Persona::Android, ANDROID_SLOT, Some(OWN_ANDROID))
                .unwrap();
            kernel
                .tls_set_raw(running, Persona::Ios, IOS_SLOT, Some(OWN_IOS))
                .unwrap();
            let k1 = kernel.clone();
            let k2 = kernel;
            Model::new()
                .thread(move || {
                    let Ok(guard) = engine.impersonate(running, target) else {
                        return;
                    };
                    let _ = guard.finish();
                    assert_own_tls_restored(&k1, running);
                })
                .thread(move || {
                    let _ = k2.exit_thread(target);
                })
        })
        .expect("the shipped ImpersonationGuard must restore every persona");
    assert!(report.complete);
}

// ---------------------------------------------------------------------
// Satellite: trace ring — a drain racing appends takes each event once
// ---------------------------------------------------------------------

#[test]
fn trace_drain_takes_each_event_exactly_once() {
    // A writer appends three events while a reader drains twice; the
    // post-condition drains what is left. Under every schedule the drains
    // together return each event exactly once, in append order.
    let report = Checker::new()
        .preemption_bound(2)
        .exhaustive(|| {
            let ring = Arc::new(Ring::default());
            // A std mutex, so collecting the results adds no schedule
            // points of its own.
            let drained = Arc::new(std::sync::Mutex::new(Vec::new()));
            let (w, r, out) = (ring.clone(), ring.clone(), drained.clone());
            Model::new()
                .thread(move || {
                    for arg in 0..3u64 {
                        w.push(arg);
                    }
                })
                .thread(move || {
                    for _ in 0..2 {
                        let got = r.drain();
                        out.lock().unwrap().extend(got);
                    }
                })
                .post(move || {
                    let mut all = drained.lock().unwrap().clone();
                    all.extend(ring.drain());
                    assert_eq!(all, [0, 1, 2], "an event was lost, duplicated or reordered");
                })
        })
        .expect("every event must be drained exactly once under every schedule");
    assert!(report.complete, "trace ring model must be fully explored");
    assert!(
        report.executions > 10,
        "appends vs drains must expose many schedules (got {})",
        report.executions
    );
}

// The two models below keep the names they had when the ring was a
// seqlock; the property they check is the same for the locked ring: a
// drain racing a writer that wraps the ring returns only whole events.

#[test]
fn seqlock_snapshot_never_tears_under_wrapping_writer() {
    // Capacity-2 ring, 3 pushes: the writer wraps mid-drain on some
    // schedules. Every event a drain returns must satisfy the synthetic
    // consistency relation (an event mixed out of two breaks it), appear
    // in push order, and number at most `capacity`. The drain and what
    // is left afterwards never share an event, and the newest event,
    // which nothing overwrites, is always in one of them.
    let report = Checker::new()
        .preemption_bound(2)
        .exhaustive(|| {
            let ring = Arc::new(Ring::with_capacity(2));
            let drained = Arc::new(std::sync::Mutex::new(Vec::new()));
            let (w, r, out) = (ring.clone(), ring.clone(), drained.clone());
            Model::new()
                .thread(move || {
                    for arg in 0..3u64 {
                        w.push(arg);
                    }
                })
                .thread(move || {
                    let pairs = r.drain_pairs();
                    assert!(
                        pairs.len() <= r.capacity(),
                        "drain returned more events than the ring holds"
                    );
                    for &(arg, wall) in &pairs {
                        assert!(arg < 3, "drain surfaced an event never pushed");
                        assert_eq!(wall, arg * 3 + 1, "torn read: mixed two events");
                    }
                    for w2 in pairs.windows(2) {
                        assert!(w2[0].0 < w2[1].0, "drain order must follow push order");
                    }
                    out.lock().unwrap().extend(pairs.iter().map(|&(arg, _)| arg));
                })
                .post(move || {
                    let mut all = drained.lock().unwrap().clone();
                    all.extend(ring.drain());
                    assert!(all.windows(2).all(|w2| w2[0] < w2[1]), "an event was returned twice");
                    assert_eq!(all.last(), Some(&2), "the newest event was lost");
                })
        })
        .expect("a drain must never return a torn event under every schedule");
    assert!(report.complete, "wrapping ring model must be fully explored");
    assert!(
        report.executions > 10,
        "wrapping writer vs drain must expose many schedules (got {})",
        report.executions
    );
}

#[test]
fn seqlock_writer_overwrite_mid_snapshot_is_discarded() {
    // Tighter variant: the reader drains while the writer overwrites the
    // one slot there is (capacity 1 forces every push onto it). The drain
    // may return nothing or a whole event, never a mix; the overwritten
    // event is gone for good and the newest survives exactly once.
    let report = Checker::new()
        .preemption_bound(2)
        .exhaustive(|| {
            let ring = Arc::new(Ring::with_capacity(1));
            let drained = Arc::new(std::sync::Mutex::new(Vec::new()));
            let (w, r, out) = (ring.clone(), ring.clone(), drained.clone());
            Model::new()
                .thread(move || {
                    w.push(1);
                    w.push(2);
                })
                .thread(move || {
                    for (arg, wall) in r.drain_pairs() {
                        assert_eq!(wall, arg * 3 + 1, "torn read escaped the drain");
                        out.lock().unwrap().push(arg);
                    }
                })
                .post(move || {
                    let mut all = drained.lock().unwrap().clone();
                    all.extend(ring.drain());
                    assert!(
                        all == [2] || all == [1, 2],
                        "the newest event must survive exactly once (got {all:?})"
                    );
                })
        })
        .expect("single-slot overwrite races must never leak torn events");
    assert!(report.complete);
}

// ---------------------------------------------------------------------
// Satellite: SlotTable concurrent churn at the chunk boundary
// ---------------------------------------------------------------------

// ---------------------------------------------------------------------
// Parallel-plane seams (DESIGN.md §5f): sharded kernel thread table,
// sharded gralloc registry, flinger present lock, GPU fences and
// racing clears
// ---------------------------------------------------------------------

#[test]
fn kernel_thread_table_spawn_exit_churn() {
    // Two workers churn the sharded thread table (spawn → persona flips →
    // exit) while sharing it with the main thread's slot. Distinct tids,
    // consistent persona reads and exact double-exit errors must hold
    // under every schedule of the per-slot publication points.
    let report = Checker::new()
        .preemption_bound(1)
        .exhaustive(|| {
            let kernel = Arc::new(Kernel::for_platform(Platform::CycadaIos));
            let main = kernel.spawn_process_main(Persona::Ios).unwrap();
            let tids = Arc::new(Mutex::new(Vec::new()));
            let worker = |kernel: Arc<Kernel>, tids: Arc<Mutex<Vec<cycada_kernel::SimTid>>>| {
                move || {
                    let tid = kernel.spawn_thread(main, Persona::Ios).unwrap();
                    tids.lock().push(tid);
                    kernel.set_persona(tid, Persona::Android).unwrap();
                    assert_eq!(kernel.current_persona(tid).unwrap(), Persona::Android);
                    kernel.exit_thread(tid).unwrap();
                    assert!(kernel.exit_thread(tid).is_err(), "double exit must fail");
                }
            };
            let (k1, k2, k3) = (kernel.clone(), kernel.clone(), kernel);
            let (t1, t2, t3) = (tids.clone(), tids.clone(), tids);
            Model::new()
                .thread(worker(k1, t1))
                .thread(worker(k2, t2))
                .post(move || {
                    let tids = t3.lock();
                    assert_ne!(tids[0], tids[1], "a tid was issued twice");
                    assert_eq!(
                        k3.current_persona(main).unwrap(),
                        Persona::Ios,
                        "churn perturbed an unrelated thread's slot"
                    );
                })
        })
        .expect("sharded thread table must survive spawn/exit churn");
    assert!(report.complete);
}

#[test]
fn gralloc_registry_slot_churn() {
    // Two sessions alloc/lookup/free through the real ioctl path against
    // the sharded buffer registry: handles stay unique, freed slots stop
    // resolving, nothing leaks.
    use cycada_gpu::PixelFormat;
    use cycada_gralloc::{GraphicBufferAllocator, GrallocDriver};

    let report = Checker::new()
        .preemption_bound(1)
        .exhaustive(|| {
            let kernel = Arc::new(Kernel::for_platform(Platform::CycadaAndroid));
            let driver = GrallocDriver::new();
            kernel.register_driver(driver.clone());
            let main = kernel.spawn_process_main(Persona::Android).unwrap();
            let alloc = Arc::new(GraphicBufferAllocator::new(kernel.clone(), driver.clone()));
            let handles = Arc::new(Mutex::new(Vec::new()));
            let worker = |tid: cycada_kernel::SimTid| {
                let alloc = alloc.clone();
                let driver = driver.clone();
                let handles = handles.clone();
                move || {
                    let buf = alloc.allocate(tid, 2, 2, PixelFormat::Rgba8888).unwrap();
                    handles.lock().push(buf.handle());
                    assert!(
                        driver.lookup(buf.handle()).unwrap().same_buffer(&buf),
                        "registry slot aliases a stranger"
                    );
                    alloc.free(tid, buf.handle()).unwrap();
                    assert!(driver.lookup(buf.handle()).is_err(), "freed slot still resolves");
                }
            };
            let t1 = kernel.spawn_thread(main, Persona::Android).unwrap();
            let t2 = kernel.spawn_thread(main, Persona::Android).unwrap();
            let (d, h) = (driver.clone(), handles.clone());
            Model::new()
                .thread(worker(t1))
                .thread(worker(t2))
                .post(move || {
                    let h = h.lock();
                    assert_ne!(h[0], h[1], "a handle was issued twice");
                    assert_eq!(d.live_buffers(), 0, "churn leaked a buffer");
                })
        })
        .expect("sharded gralloc registry must survive alloc/free churn");
    assert!(report.complete);
}

#[test]
fn flinger_present_latches_disjoint_layers() {
    // Two presenters with disjoint layer rects race for the compositor
    // lock. Each composes its own frame under it, so the schedule space
    // is bounded and explored exhaustively.
    use cycada_gpu::raster::Rect;
    use cycada_gpu::{GpuDevice, PixelFormat, Rgba};
    use cycada_gralloc::{GraphicBuffer, SurfaceFlinger};
    use cycada_kernel::Display;
    use cycada_sim::GpuCostModel;

    let report = Checker::new().preemption_bound(2).exhaustive(|| {
        let gpu = Arc::new(GpuDevice::new(GpuCostModel::tegra3()));
        let sf = Arc::new(SurfaceFlinger::new(Display::new(4, 2), gpu));
        let presenter = |handle: u64, x: u32, color: Rgba| {
            let sf = sf.clone();
            move || {
                let buf = GraphicBuffer::new(handle, 2, 2, PixelFormat::Rgba8888).unwrap();
                buf.image().fill(color);
                sf.assign_layer(handle, Rect { x, y: 0, w: 2, h: 2 });
                sf.post_buffer(&buf);
            }
        };
        let sf2 = sf.clone();
        Model::new()
            .thread(presenter(1, 0, Rgba::RED))
            .thread(presenter(2, 2, Rgba::GREEN))
            .post(move || {
                assert_eq!(sf2.display().frames_presented(), 2, "a frame was dropped");
                assert_eq!(sf2.display().pixel(0, 0), [255, 0, 0, 255]);
                assert_eq!(sf2.display().pixel(3, 1), [0, 255, 0, 255]);
            })
    });
    let report = report.expect("disjoint presenters must both latch under every schedule");
    assert!(report.complete);
}

#[test]
fn flinger_overlapping_presents_latch_in_lock_order() {
    // Racy multi-presenter model for the compositor (DESIGN.md §5g):
    // two presenters post overlapping, panel-cropped layers, and one
    // repaints its source between its two posts, all racing for the
    // compositor lock. Post-condition: replaying the same posts serially
    // in the latched order (a fresh flinger per post) yields
    // byte-identical scanout under every schedule.
    use cycada_gpu::raster::Rect;
    use cycada_gpu::{GpuDevice, Image, PixelFormat, Rgba};
    use cycada_gralloc::SurfaceFlinger;
    use cycada_kernel::Display;
    use cycada_sim::GpuCostModel;

    const A_DST: Rect = Rect { x: 0, y: 0, w: 4, h: 2 };
    // Layer B overlaps the right half and hangs one column past the
    // panel edge (clip must crop it).
    const B_DST: Rect = Rect { x: 2, y: 0, w: 3, h: 2 };
    const DAB: Rect = Rect { x: 0, y: 0, w: 1, h: 1 };

    let report = Checker::new().preemption_bound(2).exhaustive(|| {
        let gpu = Arc::new(GpuDevice::new(GpuCostModel::tegra3()));
        let sf = Arc::new(SurfaceFlinger::new(Display::new(4, 2), gpu));
        let a = Image::new(4, 2, PixelFormat::Rgba8888);
        a.fill(Rgba::RED);
        let b = Image::new(3, 2, PixelFormat::Rgba8888);
        b.fill(Rgba::GREEN);
        // Posts serialize through the order log, so the log records
        // latch order and each post's latch-time source bytes are a
        // pure function of the log prefix — exactly what the serial
        // oracle replays below.
        let order: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        let sf2 = sf.clone();
        let order2 = order.clone();
        Model::new()
            .thread({
                let (sf, order, a) = (sf.clone(), order.clone(), a.clone());
                move || {
                    {
                        let mut log = order.lock();
                        sf.composite(&[(&a, A_DST)]);
                        log.push(0);
                    }
                    // Repaint one corner and post again: the corner must
                    // reach the panel no matter how B's post
                    // interleaved.
                    let mut log = order.lock();
                    a.fill_rect(DAB, Rgba::BLUE);
                    sf.composite(&[(&a, A_DST)]);
                    log.push(2);
                }
            })
            .thread({
                let (sf, order, b) = (sf.clone(), order.clone(), b.clone());
                move || {
                    let mut log = order.lock();
                    sf.composite(&[(&b, B_DST)]);
                    log.push(1);
                }
            })
            .post(move || {
                assert_eq!(sf2.display().frames_presented(), 3, "a frame was dropped");
                // Replay the latched order with fresh source images, each
                // post on a fresh flinger over one display.
                let gpu = Arc::new(GpuDevice::new(GpuCostModel::tegra3()));
                let display = Display::new(4, 2);
                let oracle = |stack: &[(&Image, Rect)]| {
                    SurfaceFlinger::new(display.clone(), gpu.clone()).composite(stack)
                };
                let oa = Image::new(4, 2, PixelFormat::Rgba8888);
                oa.fill(Rgba::RED);
                let ob = Image::new(3, 2, PixelFormat::Rgba8888);
                ob.fill(Rgba::GREEN);
                for tag in order2.lock().iter() {
                    match tag {
                        0 => oracle(&[(&oa, A_DST)]),
                        1 => oracle(&[(&ob, B_DST)]),
                        _ => {
                            oa.fill_rect(DAB, Rgba::BLUE);
                            oracle(&[(&oa, A_DST)]);
                        }
                    }
                }
                let got = sf2.display().scanout().read(|s| s.to_vec());
                let want = display.scanout().read(|s| s.to_vec());
                assert_eq!(got, want, "scanout diverged from the serial replay");
            })
    });
    let report = report.expect("overlapping presents must latch in lock order");
    assert!(report.complete);
}

#[test]
fn gpu_clear_is_target_atomic() {
    // Two clears of the same target race. Each fill happens under one
    // buffer-guard acquisition, so the final image is uniformly one of
    // the two colors — a torn mix means a clear broke per-target
    // atomicity.
    use cycada_gpu::{DrawClass, GpuDevice, Image, PixelFormat, Rgba};
    use cycada_sim::GpuCostModel;

    let report = Checker::new()
        .preemption_bound(2)
        .exhaustive(|| {
            let gpu = Arc::new(GpuDevice::new(GpuCostModel::tegra3()));
            let target = Image::new(2, 2, PixelFormat::Rgba8888);
            let clearer = |color: Rgba| {
                let gpu = gpu.clone();
                let target = target.clone();
                move || gpu.clear(&target, color, DrawClass::TwoD)
            };
            let t = target.clone();
            Model::new()
                .thread(clearer(Rgba::RED))
                .thread(clearer(Rgba::GREEN))
                .post(move || {
                    let bytes = t.to_rgba_vec();
                    let red: Vec<u8> = [255, 0, 0, 255].repeat(4);
                    let green: Vec<u8> = [0, 255, 0, 255].repeat(4);
                    assert!(
                        bytes == red || bytes == green,
                        "racing clears tore the target: {bytes:?}"
                    );
                })
        })
        .expect("clears must stay per-target atomic");
    assert!(report.complete);
}

#[test]
fn gpu_fence_slot_churn_keeps_fences_independent() {
    // Two threads churn distinct fences through the sharded fence table:
    // gen → set → flush → test → delete. Ids must never collide and each
    // thread's fence must signal regardless of the neighbor's schedule.
    use cycada_gpu::{FenceCondition, GpuDevice};
    use cycada_sim::GpuCostModel;

    let report = Checker::new()
        .preemption_bound(1)
        .exhaustive(|| {
            let gpu = Arc::new(GpuDevice::new(GpuCostModel::tegra3()));
            let ids = Arc::new(Mutex::new(Vec::new()));
            let worker = || {
                let gpu = gpu.clone();
                let ids = ids.clone();
                move || {
                    let f = gpu.gen_fence();
                    ids.lock().push(f);
                    assert!(gpu.set_fence(f, FenceCondition::AllCompleted));
                    gpu.flush();
                    assert_eq!(gpu.test_fence(f), Some(true), "fence failed to signal");
                    gpu.delete_fence(f);
                    assert!(!gpu.is_fence(f), "deleted fence still live");
                }
            };
            let (w1, w2) = (worker(), worker());
            let ids2 = ids.clone();
            Model::new().thread(w1).thread(w2).post(move || {
                let ids = ids2.lock();
                assert_ne!(ids[0], ids[1], "a fence id was issued twice");
            })
        })
        .expect("fence slot churn must keep fences independent");
    assert!(report.complete);
}

#[test]
fn slot_table_chunk_boundary_churn() {
    // Ids 63 and 64 straddle the first chunk boundary (CHUNK = 64): the
    // two threads race chunk publication, per-slot writes and removals.
    let report = Checker::new()
        .preemption_bound(2)
        .exhaustive(|| {
            let table: Arc<SlotTable<u64>> = Arc::new(SlotTable::new());
            let (t1, t2, t3) = (table.clone(), table.clone(), table);
            Model::new()
                .thread(move || {
                    t1.set(63, Some(1));
                    t1.set(64, Some(2));
                    let v = t1.get(63);
                    assert!(
                        v == Some(1) || v == Some(3),
                        "slot 63 must hold one of the two written values, got {v:?}"
                    );
                })
                .thread(move || {
                    t2.set(63, Some(3));
                    let v = t2.get(64);
                    assert!(
                        v.is_none() || v == Some(2),
                        "slot 64 must be empty or hold thread 1's value, got {v:?}"
                    );
                    t2.set(64, None);
                })
                .post(move || {
                    let v63 = t3.get(63);
                    assert!(v63 == Some(1) || v63 == Some(3), "slot 63 lost both writes: {v63:?}");
                    let v64 = t3.get(64);
                    assert!(
                        v64.is_none() || v64 == Some(2),
                        "slot 64 resurrected a removed value: {v64:?}"
                    );
                    assert!(t3.len() <= 2, "churn left phantom occupied slots");
                })
        })
        .expect("chunk-boundary churn must preserve per-slot atomicity");
    assert!(report.complete);
}
