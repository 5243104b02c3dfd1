//! Session-plane stress tests: N app sessions on ONE shared Cycada device,
//! driven from N host threads concurrently.
//!
//! The determinism contract (DESIGN.md §5c): concurrency may interleave
//! *host* wall time only, never simulated accounting. Concretely, for every
//! session in an N-way concurrent run:
//!
//! (a) the final framebuffer is byte-identical to the same workload run
//!     solo on a private device, and
//! (b) the virtual-time total metered inside the session's scope is
//!     identical to the solo run — i.e. independent of interleaving, and
//! (c) so is its per-function stats ranking, while the device's
//!     engine-wide collector gains exactly the sum of all sessions' calls
//!     and time.

use std::collections::BTreeSet;
use std::sync::{Arc, Barrier};

use cycada::{AndroidDevice, AppGl, CycadaDevice, IosDevice};
use cycada_gles::{GlesVersion, Primitive, TexFormat};
use cycada_sim::stats::FunctionShare;
use cycada_sim::trace::{self, Counter};
use cycada_sim::{clock, Nanos, Platform};

const W: u32 = 48;
const H: u32 = 32;
const FRAMES: u32 = 3;

fn seed(i: usize) -> u64 {
    0xC0FFEE + i as u64 * 17
}

/// Per-session setup: a small texture plus one warm-up frame. The warm-up
/// resolves every diplomat symbol the metered frames will use — symbol
/// resolution is charged once per *device*, so which session pays it is
/// interleaving-dependent and must stay outside the metered scope.
fn drive_setup(app: &mut AppGl, seed: u64) -> u32 {
    let tex_data: Vec<u8> = (0..16u8)
        .flat_map(|i| {
            let v = (seed as u8).wrapping_mul(31).wrapping_add(i.wrapping_mul(5));
            [v, v ^ 0x3c, 128, 255]
        })
        .collect();
    let tex = app.create_texture(2, 2, TexFormat::Rgba, &tex_data).unwrap();
    drive_frames(app, tex, seed, 1);
    tex
}

/// The metered workload: `frames` frames of clear + rotated triangle +
/// textured quad + present, all parameterised by the session's seed.
fn drive_frames(app: &mut AppGl, tex: u32, seed: u64, frames: u32) {
    let tri = [-0.8f32, -0.6, 0.0, 0.8, -0.6, 0.0, 0.0, 0.9, 0.0];
    for f in 0..frames {
        let r = ((seed * 37 + u64::from(f) * 11) % 255) as f32 / 255.0;
        app.clear(r, 0.25, 1.0 - r, 1.0).unwrap();
        app.rotate((seed as f32 * 13.0 + f as f32 * 7.0) % 360.0).unwrap();
        app.draw(Primitive::Triangles, &tri, [r, 0.8, 0.3, 1.0]).unwrap();
        app.draw_textured_quad(tex, -0.5, -0.5, 0.5, 0.5).unwrap();
        app.present().unwrap();
    }
}

/// What one session's metered frames leave behind: the final framebuffer
/// bytes, the metered virtual-time total and the per-function stats.
type Outcome = (Vec<u8>, Nanos, Vec<FunctionShare>);

fn outcome(app: &AppGl) -> Outcome {
    (
        app.render_target().unwrap().to_rgba_vec(),
        app.session_virtual_ns(),
        app.session_stats().unwrap().ranked_by_total(),
    )
}

/// Runs the workload solo — one session on a private device.
fn solo_run(seed: u64) -> Outcome {
    let mut app =
        AppGl::boot_with_display(Platform::CycadaIos, GlesVersion::V1, Some((W, H))).unwrap();
    let tex = drive_setup(&mut app, seed);
    {
        let _scope = app.session_scope();
        drive_frames(&mut app, tex, seed, FRAMES);
    }
    outcome(&app)
}

#[test]
fn concurrent_sessions_match_solo_runs() {
    // Solo baselines, one per distinct workload.
    let solos: Vec<Outcome> = (0..8).map(|i| solo_run(seed(i))).collect();
    assert!(solos[0].1 > 0, "the meter must actually accumulate");
    assert!(!solos[0].2.is_empty(), "the sessions must record diplomat calls");

    for &n in &[1usize, 2, 4, 8] {
        let device = CycadaDevice::boot_with_display(Some((W, H))).unwrap();
        // N sessions plus this thread, met twice: once when every session
        // has finished set-up, so the engine snapshot below excludes it,
        // and once to release the metered frames together.
        let barrier = Arc::new(Barrier::new(n + 1));
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let mut app = AppGl::attach_cycada(&device, GlesVersion::V1).unwrap();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    let tex = drive_setup(&mut app, seed(i));
                    barrier.wait();
                    // Line every session up so the metered frames really
                    // interleave on the shared device.
                    barrier.wait();
                    {
                        let _scope = app.session_scope();
                        drive_frames(&mut app, tex, seed(i), FRAMES);
                    }
                    (i, outcome(&app))
                })
            })
            .collect();
        barrier.wait();
        let before = device.engine().stats();
        barrier.wait();
        let mut sessions = Vec::new();
        for handle in handles {
            let (i, (rgba, virtual_ns, ranked)) = handle.join().unwrap();
            assert_eq!(
                rgba, solos[i].0,
                "N={n}: session {i} framebuffer differs from its solo run"
            );
            assert_eq!(
                virtual_ns, solos[i].1,
                "N={n}: session {i} virtual-time total differs from its solo run"
            );
            assert_eq!(
                ranked, solos[i].2,
                "N={n}: session {i} per-function stats differ from its solo run"
            );
            sessions.push(ranked);
        }
        // The engine-wide collector gains exactly the sessions' sum.
        let after = device.engine().stats();
        let rows = || sessions.iter().flatten();
        let names: BTreeSet<&str> = rows().map(|r| r.name.as_str()).collect();
        for name in names {
            let now = after.get(name).unwrap();
            let then = before.get(name).unwrap_or_default();
            let sum = rows()
                .filter(|r| r.name == name)
                .fold((0, 0), |(c, ns), r| (c + r.record.calls, ns + r.record.total_ns));
            assert_eq!(
                (now.calls - then.calls, now.total_ns - then.total_ns),
                sum,
                "N={n}: {name}: the engine-wide delta must equal the sessions' sum"
            );
        }
    }
}

#[test]
fn sessions_share_one_device_but_not_figures() {
    // Two sessions on one device driven by one thread: the thread's
    // ledger totals both, but each session's scope only ever sees its own
    // charges.
    let device = CycadaDevice::boot_with_display(Some((W, H))).unwrap();
    let mut a = AppGl::attach_cycada(&device, GlesVersion::V1).unwrap();
    let mut b = AppGl::attach_cycada(&device, GlesVersion::V1).unwrap();
    let tex_a = drive_setup(&mut a, seed(0));
    let tex_b = drive_setup(&mut b, seed(0));
    let start = clock::now_ns();
    {
        let _scope = a.session_scope();
        drive_frames(&mut a, tex_a, seed(0), FRAMES);
    }
    {
        let _scope = b.session_scope();
        drive_frames(&mut b, tex_b, seed(0), FRAMES);
    }
    assert_eq!(a.session_virtual_ns(), b.session_virtual_ns(),
        "identical call sequences cost the same regardless of session");
    assert_eq!(
        clock::now_ns() - start,
        a.session_virtual_ns() + b.session_virtual_ns(),
        "the driving thread's ledger totals exactly both sessions' metered work"
    );
    // Session stats stay private: each session recorded its own present
    // calls, not its neighbour's.
    let stats_a = a.session_stats().unwrap();
    let stats_b = b.session_stats().unwrap();
    let swaps = |s: &cycada_sim::stats::FunctionStats| {
        s.get("eglSwapBuffers").map(|r| r.calls).unwrap_or(0)
    };
    assert_eq!(swaps(&stats_a), u64::from(FRAMES));
    assert_eq!(swaps(&stats_b), u64::from(FRAMES));
}

#[test]
fn attach_reuses_the_shared_stack() {
    let device = CycadaDevice::boot_with_display(Some((W, H))).unwrap();
    let before = clock::now_ns();
    let session = device.attach_session().unwrap();
    let attach_cost = clock::now_ns() - before;
    assert!(session.main_tid() != device.main_tid());
    // Attaching spawns a process; it must not re-boot the platform stack
    // (library loads, service registration), which costs milliseconds of
    // virtual time at boot.
    assert!(
        attach_cost < 1_000_000,
        "attach charged {attach_cost} ns — did it re-boot the stack?"
    );
}

#[test]
fn dropped_sessions_release_their_device_resources() {
    // Regression: a dropped AppGl used to leave its EAGL record, drawable
    // IOSurface, EGL window surface and replica connection on the shared
    // device forever (~72 KiB per 48x32 session, ~12 MiB at 1024x768).
    // Counts, not RSS: every attach -> present -> drop cycle must return
    // the device's live-object counts to their baseline.
    let errors_before = trace::counter(Counter::SessionTeardownErrors);

    let device = CycadaDevice::boot_with_display(Some((W, H))).unwrap();
    let counts = || {
        (
            device.eagl().live_contexts(),
            device.gralloc().live_buffers(),
            device.iosurface_bridge().live_surfaces(),
            device.egl().connection_count(),
            device.linker().replica_count(),
        )
    };
    // Each cycle also re-stores its drawable once: the replaced IOSurface
    // must be released, not orphaned.
    let cycle = |i: usize| {
        let mut app = AppGl::attach_cycada(&device, GlesVersion::V1).unwrap();
        let tex = drive_setup(&mut app, seed(i));
        drive_frames(&mut app, tex, seed(i), 1);
        device
            .eagl()
            .renderbuffer_storage_from_drawable(app.tid(), app.eagl_context().unwrap(), W, H)
            .unwrap();
        app
    };
    // One warm-up cycle: the device creates its default EGL connection
    // lazily, on first use, and keeps it.
    drop(cycle(0));
    let baseline = counts();
    for i in 1..=100 {
        let app = cycle(i);
        assert_ne!(counts(), baseline, "a live session holds device resources");
        drop(app);
        assert_eq!(
            counts(),
            baseline,
            "cycle {i} leaked (eagl contexts, gralloc buffers, iosurfaces, connections, replicas)"
        );
    }

    let android = AndroidDevice::boot_with_display(Platform::StockAndroid, Some((W, H))).unwrap();
    let baseline = android.gralloc().live_buffers();
    for i in 0..10 {
        let mut app = AppGl::attach_android(&android, GlesVersion::V1).unwrap();
        let tex = drive_setup(&mut app, seed(i));
        drive_frames(&mut app, tex, seed(i), 1);
        drop(app);
        assert_eq!(
            android.gralloc().live_buffers(),
            baseline,
            "android cycle {i} leaked buffers"
        );
    }

    let ios = IosDevice::boot_with_display(Some((W, H))).unwrap();
    let baseline = ios.stack().coresurface().live_surfaces();
    for i in 0..10 {
        let mut app = AppGl::attach_native_ios(&ios, GlesVersion::V1).unwrap();
        let tex = drive_setup(&mut app, seed(i));
        drive_frames(&mut app, tex, seed(i), 1);
        ios.stack()
            .renderbuffer_storage_from_drawable(app.tid(), app.eagl_context().unwrap(), W, H)
            .unwrap();
        drop(app);
        assert_eq!(
            ios.stack().coresurface().live_surfaces(),
            baseline,
            "native iOS cycle {i} leaked IOSurfaces"
        );
    }

    assert_eq!(
        trace::counter(Counter::SessionTeardownErrors),
        errors_before,
        "teardown must not fail on healthy sessions"
    );
}
