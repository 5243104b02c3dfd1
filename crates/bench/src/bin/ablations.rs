//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! Each ablation removes or varies one Cycada mechanism and reports the
//! virtual-time consequence, quantifying *why* the design is the way it
//! is:
//!
//! 1. prelude/postlude kinds (the Table 3 ladder, per-call);
//! 2. diplomat coalescing — libEGLbridge's "pay the overhead of one
//!    diplomat" vs. issuing each Android call through its own diplomat;
//! 3. the present path — the unoptimized full-screen-quad EAGL present vs.
//!    a hypothetical direct-post path;
//! 4. DLR replica cost — per-EAGLContext replication vs. reusing one
//!    connection (what correctness would forbid);
//! 5. iOS-binary draw batching — the complex-3D win as a function of
//!    batch size.

use cycada::{AppGl, CycadaDevice};
use cycada_bench::{fmt_ratio, rule};
use cycada_diplomat::{DiplomatEntry, DiplomatPattern, HookKind};
use cycada_gles::{GlesVersion, Primitive};
use cycada_sim::{clock, Platform};

fn main() {
    ablation_hooks();
    ablation_coalescing();
    ablation_present_path();
    ablation_dlr_cost();
    ablation_batching();
}

/// Prelude/postlude ladder (per call, virtual ns).
fn ablation_hooks() {
    println!("Ablation 1: diplomat prelude/postlude kinds (per call)");
    rule(56);
    let device = CycadaDevice::boot_with_display(Some((64, 48))).expect("boot");
    let tid = device.main_tid();
    for (label, hooks) in [
        ("no hooks", HookKind::None),
        ("empty hooks", HookKind::Empty),
        ("GLES hooks", HookKind::Gles),
    ] {
        let entry = DiplomatEntry::new(
            format!("ablation_{label}"),
            cycada_egl::loadout::VENDOR_GLES_LIB,
            "glFlush",
            DiplomatPattern::Direct,
            hooks,
        );
        device.engine().call(tid, &entry, || {}).expect("warm");
        let before = clock::now_ns();
        for _ in 0..100 {
            device.engine().call(tid, &entry, || {}).expect("call");
        }
        let per_call = (clock::now_ns() - before) / 100;
        println!("  {label:<14} {per_call} ns");
    }
    println!();
}

/// One coalesced diplomat vs. N separate diplomats for an N-step job.
fn ablation_coalescing() {
    println!("Ablation 2: multi-diplomat coalescing (libEGLbridge rationale)");
    rule(56);
    let device = CycadaDevice::boot_with_display(Some((64, 48))).expect("boot");
    let tid = device.main_tid();
    let entry = DiplomatEntry::new(
        "ablation_coalesced",
        cycada_egl::loadout::VENDOR_GLES_LIB,
        "glFlush",
        DiplomatPattern::Multi,
        HookKind::Gles,
    );
    device.engine().call(tid, &entry, || {}).expect("warm");
    for steps in [2u64, 5, 10] {
        // Coalesced: one diplomat wrapping all N domestic steps.
        let before = clock::now_ns();
        device
            .engine()
            .call(tid, &entry, || {
                for _ in 0..steps {
                    clock::charge_ns(9); // domestic call
                }
            })
            .expect("coalesced");
        let coalesced = clock::now_ns() - before;

        // Separate: one diplomat per domestic step.
        let before = clock::now_ns();
        for _ in 0..steps {
            device
                .engine()
                .call(tid, &entry, || {
                    clock::charge_ns(9);
                })
                .expect("separate");
        }
        let separate = clock::now_ns() - before;
        println!(
            "  {steps:>2} Android calls: coalesced {coalesced} ns, separate {separate} ns ({}x)",
            fmt_ratio(separate as f64 / coalesced as f64)
        );
    }
    println!();
}

/// The EAGL present path vs. a direct post of the drawable.
fn ablation_present_path() {
    println!("Ablation 3: EAGL present path (full-screen quad + swap vs direct post)");
    rule(56);
    let app = AppGl::boot_with_display(Platform::CycadaIos, GlesVersion::V1, None).expect("boot");
    app.clear(0.3, 0.3, 0.3, 1.0).expect("clear");
    // The real (unoptimized, §5) path.
    let before = clock::now_ns();
    app.present().expect("present");
    let quad_path = clock::now_ns() - before;

    // Hypothetical optimized path: post the drawable straight to the
    // compositor (what "more complicated management of underlying graphics
    // memory" could achieve, §5).
    let device = app.cycada_device().expect("cycada");
    let drawable = app.render_target().expect("drawable");
    let before = clock::now_ns();
    device.flinger().post_image(&drawable);
    let direct_path = clock::now_ns() - before;
    println!("  quad+swap present: {} us", quad_path / 1000);
    println!("  direct post:       {} us", direct_path / 1000);
    println!(
        "  the unoptimized path costs {}x (the simple-3D overhead of Fig. 6)",
        fmt_ratio(quad_path as f64 / direct_path as f64)
    );
    println!();
}

/// Cost of the per-EAGLContext DLR replica.
fn ablation_dlr_cost() {
    println!("Ablation 4: DLR replica cost per EAGLContext");
    rule(56);
    let device = CycadaDevice::boot_with_display(Some((64, 48))).expect("boot");
    let tid = device.main_tid();
    device.egl().initialize(tid).expect("init");
    let before = clock::now_ns();
    let n = 8;
    for _ in 0..n {
        device.eagl().init_with_api(tid, GlesVersion::V2).expect("ctx");
    }
    let per_ctx = (clock::now_ns() - before) / n;
    println!(
        "  context creation incl. replica: {} us (libui_wrapper + vendor EGL/GLES + deps)",
        per_ctx / 1000
    );
    println!(
        "  replicas alive: {} (one isolated library tree per context)",
        device.linker().replica_count()
    );
    println!("  without DLR: the second GLES version would be refused (EGL_BAD_MATCH).");
    println!();
}

/// The complex-3D batching sweep.
fn ablation_batching() {
    println!("Ablation 5: draw-call batching (the complex-3D crossover)");
    rule(56);
    const TRIS: usize = 2400;
    for batch in [10usize, 40, 100, 400] {
        let app =
            AppGl::boot_with_display(Platform::CycadaIos, GlesVersion::V1, Some((320, 200)))
                .expect("boot");
        let start = clock::now_ns();
        let mut drawn = 0;
        app.clear(0.1, 0.1, 0.15, 1.0).expect("clear");
        while drawn < TRIS {
            let mut xyz = Vec::with_capacity(batch * 9);
            for i in 0..batch {
                let t = (drawn + i) as f32;
                let a = t * 0.61803;
                let r = 0.1 + (t % 97.0) / 97.0 * 0.8;
                xyz.extend_from_slice(&[
                    a.cos() * r,
                    a.sin() * r,
                    0.0,
                    a.cos() * r + 0.02,
                    a.sin() * r,
                    0.0,
                    a.cos() * r,
                    a.sin() * r + 0.02,
                    0.0,
                ]);
            }
            app.draw(Primitive::Triangles, &xyz, [0.3, 0.9, 0.5, 1.0])
                .expect("draw");
            drawn += batch;
        }
        app.present().expect("present");
        let frame_us = (clock::now_ns() - start) / 1000;
        println!(
            "  batch {batch:>3} ({:>3} draws): frame {frame_us} us",
            TRIS / batch
        );
    }
    println!("  larger batches amortize the ~14 us per-draw driver cost — the");
    println!("  iOS frameworks' batching is why Cycada iOS wins complex 3D.");
}
