//! Failure-injection tests: dead threads, missing libraries, broken
//! services, misuse — the compatibility layer must fail loudly and
//! recover cleanly, never corrupt shared state.

use std::sync::Arc;

use cycada::{AppGl, CycadaDevice};
use cycada_diplomat::{DiplomatEngine, DiplomatEntry, DiplomatError, DiplomatPattern, HookKind};
use cycada_gles::GlesVersion;
use cycada_kernel::{IpcMessage, IpcReply, Kernel, KernelError, KernelService, Persona, SimTid};
use cycada_linker::DynamicLinker;
use cycada_sim::{trace, Platform};

fn device() -> CycadaDevice {
    CycadaDevice::boot_with_display(Some((64, 48))).unwrap()
}

#[test]
fn diplomat_call_on_exited_thread_fails_cleanly() {
    let dev = device();
    let victim = dev.spawn_ios_thread().unwrap();
    dev.kernel().exit_thread(victim).unwrap();
    let entry = DiplomatEntry::new(
        "probe",
        cycada_egl::loadout::VENDOR_GLES_LIB,
        "glFlush",
        DiplomatPattern::Direct,
        HookKind::None,
    );
    let err = dev.engine().call(victim, &entry, || {}).unwrap_err();
    assert!(matches!(err, DiplomatError::PersonaSwitch(_)));
    // The engine and other threads remain fully usable.
    dev.engine().call(dev.main_tid(), &entry, || {}).unwrap();
}

#[test]
fn diplomat_against_unregistered_library_fails_without_poisoning() {
    let kernel = Arc::new(Kernel::for_platform(Platform::CycadaIos));
    let linker = Arc::new(DynamicLinker::new());
    let engine = DiplomatEngine::new(kernel.clone(), linker);
    let tid = kernel.spawn_process_main(Persona::Ios).unwrap();
    let entry = DiplomatEntry::new(
        "ghost",
        "libghost.so",
        "ghost_fn",
        DiplomatPattern::Direct,
        HookKind::None,
    );
    for _ in 0..3 {
        assert!(matches!(
            engine.call(tid, &entry, || {}),
            Err(DiplomatError::Resolution(_))
        ));
    }
    // The failed resolution never switched personas.
    assert_eq!(kernel.current_persona(tid).unwrap(), Persona::Ios);
    assert_eq!(kernel.syscall_counts().set_persona, 0);
}

#[test]
fn broken_kernel_service_surfaces_errors_not_panics() {
    struct Flaky;
    impl KernelService for Flaky {
        fn service_name(&self) -> &str {
            "FlakyService"
        }
        fn handle(&self, msg: IpcMessage) -> Result<IpcReply, KernelError> {
            if msg.selector == 0 {
                Err(KernelError::ServiceFailure("injected fault".into()))
            } else {
                Ok(IpcReply::empty())
            }
        }
    }
    let kernel = Kernel::for_platform(Platform::CycadaIos);
    kernel.register_service(Arc::new(Flaky));
    let tid = kernel.spawn_process_main(Persona::Ios).unwrap();
    let err = kernel
        .mach_ipc_call(tid, "FlakyService", IpcMessage::new(0, []))
        .unwrap_err();
    assert!(matches!(err, KernelError::ServiceFailure(_)));
    // Subsequent good calls still work.
    kernel
        .mach_ipc_call(tid, "FlakyService", IpcMessage::new(1, []))
        .unwrap();
}

#[test]
fn unbalanced_iosurface_unlock_is_rejected() {
    let dev = device();
    let tid = dev.main_tid();
    let eagl = dev.eagl();
    let ctx = eagl.init_with_api(tid, GlesVersion::V2).unwrap();
    eagl.set_current_context(tid, Some(ctx)).unwrap();
    let iosb = dev.iosurface_bridge();
    let surface = iosb
        .create(tid, cycada_iosurface::SurfaceProps::bgra(4, 4))
        .unwrap();
    // Unlock without lock: the GraphicBuffer layer refuses.
    assert!(iosb.unlock(tid, &surface).is_err());
    // A proper lock/unlock still works afterwards.
    iosb.lock(tid, &surface).unwrap();
    iosb.unlock(tid, &surface).unwrap();
}

#[test]
fn double_lock_is_rejected_and_state_recovers() {
    let dev = device();
    let tid = dev.main_tid();
    let eagl = dev.eagl();
    let ctx = eagl.init_with_api(tid, GlesVersion::V2).unwrap();
    eagl.set_current_context(tid, Some(ctx)).unwrap();
    let iosb = dev.iosurface_bridge();
    let surface = iosb
        .create(tid, cycada_iosurface::SurfaceProps::bgra(4, 4))
        .unwrap();
    iosb.lock(tid, &surface).unwrap();
    assert!(iosb.lock(tid, &surface).is_err(), "double lock refused");
    iosb.unlock(tid, &surface).unwrap();
    iosb.lock(tid, &surface).unwrap();
    iosb.unlock(tid, &surface).unwrap();
}

#[test]
fn releasing_an_mc_connection_in_use_keeps_other_contexts_working() {
    let dev = device();
    let tid = dev.main_tid();
    let eagl = dev.eagl();
    let a = eagl.init_with_api(tid, GlesVersion::V2).unwrap();
    let b = eagl.init_with_api(tid, GlesVersion::V1).unwrap();
    // Tear down context A's replica connection out from under it.
    let conn_a = eagl.connection(a).unwrap();
    dev.egl().release_mc_connection(conn_a).unwrap();
    // Context B is unaffected.
    eagl.set_current_context(tid, Some(b)).unwrap();
    let bridge = dev.bridge();
    bridge.clear_color(tid, 1.0, 0.0, 0.0, 1.0).unwrap();
    assert_eq!(
        bridge.get_error(tid).unwrap(),
        cycada_gles::GlError::NoError
    );
}

#[test]
fn gl_errors_propagate_but_do_not_stick_across_contexts() {
    let dev = device();
    let tid = dev.main_tid();
    let eagl = dev.eagl();
    let bridge = dev.bridge();
    let v2 = eagl.init_with_api(tid, GlesVersion::V2).unwrap();
    let v1 = eagl.init_with_api(tid, GlesVersion::V1).unwrap();

    eagl.set_current_context(tid, Some(v2)).unwrap();
    bridge.rotatef(tid, 10.0, 0.0, 0.0, 1.0).unwrap(); // v1 call on v2 ctx
    assert_eq!(
        bridge.get_error(tid).unwrap(),
        cycada_gles::GlError::InvalidOperation
    );

    // The error was per-context: the v1 context is clean.
    eagl.set_current_context(tid, Some(v1)).unwrap();
    assert_eq!(
        bridge.get_error(tid).unwrap(),
        cycada_gles::GlError::NoError
    );
}

#[test]
fn calls_with_no_current_context_are_counted_noops() {
    let dev = device();
    let tid = dev.main_tid();
    // Initialize EGL so the vendor library exists, but bind nothing.
    dev.egl().initialize(tid).unwrap();
    let bridge = dev.bridge();
    bridge.clear_color(tid, 1.0, 1.0, 1.0, 1.0).unwrap();
    let gles = dev.egl().gles_for_thread(tid).unwrap();
    assert!(gles.calls_without_context() > 0);
}

#[test]
fn app_boot_on_wrong_platform_is_a_clean_error() {
    let err = cycada::AndroidDevice::boot(Platform::NativeIos).unwrap_err();
    assert!(err.to_string().contains("unsupported"));
}

#[test]
fn present_recovers_after_transient_gl_misuse() {
    let app = AppGl::boot_with_display(Platform::CycadaIos, GlesVersion::V2, Some((64, 48)))
        .unwrap();
    let device = app.cycada_device().unwrap();
    let bridge = device.bridge();
    // Misuse: draw without attribs via the raw bridge.
    bridge
        .draw_arrays(app.tid(), cycada_gles::Primitive::Triangles, 0, 3)
        .unwrap();
    assert_eq!(
        bridge.get_error(app.tid()).unwrap(),
        cycada_gles::GlError::InvalidOperation
    );
    // The frame pipeline still functions.
    app.clear(0.0, 1.0, 0.0, 1.0).unwrap();
    app.present().unwrap();
    assert_eq!(app.display().pixel(5, 5), [0, 255, 0, 255]);
}

#[test]
fn impersonation_guard_drop_during_panic_restores_tls() {
    let dev = device();
    let main = dev.main_tid();
    let worker = dev.spawn_ios_thread().unwrap();
    let engine = dev.engine().clone();
    engine
        .graphics_tls()
        .register_well_known(Persona::Android, 30);
    dev.kernel()
        .tls_set_raw(worker, Persona::Android, 30, Some(0x111))
        .unwrap();

    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _guard = engine.impersonate(worker, main).unwrap();
        panic!("injected panic mid-impersonation");
    }));
    assert!(result.is_err());
    // The guard's Drop restored the worker's own TLS.
    assert_eq!(
        dev.kernel()
            .tls_get_raw(worker, Persona::Android, 30)
            .unwrap(),
        Some(0x111)
    );
}

// --------------------------------------------------------------------
// Impersonation-under-thread-death matrix: either endpoint of a live
// impersonation may die before teardown. Every cell must produce a clean
// error (never a panic), leave surviving threads with their own TLS, and
// make swallowed drop-path errors visible through the trace counter.
// --------------------------------------------------------------------

#[test]
fn impersonation_target_exits_before_finish_restores_all_personas() {
    let dev = device();
    let main = dev.main_tid();
    let worker = dev.spawn_ios_thread().unwrap();
    let engine = dev.engine().clone();
    engine.graphics_tls().register_well_known(Persona::Ios, 31);
    engine.graphics_tls().register_well_known(Persona::Android, 30);
    dev.kernel()
        .tls_set_raw(worker, Persona::Ios, 31, Some(0xA))
        .unwrap();
    dev.kernel()
        .tls_set_raw(worker, Persona::Android, 30, Some(0xB))
        .unwrap();

    let guard = engine.impersonate(worker, main).unwrap();
    // The impersonated target dies before the guard finishes: the
    // write-back of every persona fails, but finish must still restore
    // the running thread's own TLS in both personas and report cleanly.
    dev.kernel().exit_thread(main).unwrap();
    let err = guard.finish();
    assert!(matches!(err, Err(DiplomatError::TlsMigration(_))));
    assert_eq!(
        dev.kernel().tls_get_raw(worker, Persona::Ios, 31).unwrap(),
        Some(0xA),
        "iOS persona restored despite dead target"
    );
    assert_eq!(
        dev.kernel()
            .tls_get_raw(worker, Persona::Android, 30)
            .unwrap(),
        Some(0xB),
        "Android persona restored despite dead target"
    );
}

#[test]
fn impersonation_running_thread_exits_finish_errors_cleanly() {
    let dev = device();
    let main = dev.main_tid();
    let worker = dev.spawn_ios_thread().unwrap();
    let engine = dev.engine().clone();
    engine.graphics_tls().register_well_known(Persona::Android, 33);

    let guard = engine.impersonate(worker, main).unwrap();
    // The running (impersonating) thread itself dies: every teardown
    // syscall fails, finish reports the first error without panicking.
    dev.kernel().exit_thread(worker).unwrap();
    assert!(matches!(
        guard.finish(),
        Err(DiplomatError::TlsMigration(_))
    ));
    // The device is still healthy: the target thread kept its own TLS and
    // the engine serves fresh impersonations between live threads.
    let other = dev.spawn_ios_thread().unwrap();
    let g = engine.impersonate(other, main).unwrap();
    g.finish().unwrap();
}

#[test]
fn impersonation_dropped_guard_after_running_exit_counts_swallowed_error() {
    let dev = device();
    let main = dev.main_tid();
    let worker = dev.spawn_ios_thread().unwrap();
    let engine = dev.engine().clone();
    engine.graphics_tls().register_well_known(Persona::Android, 34);
    let before = trace::counter(trace::Counter::ImpersonationDropSwallowedErrors);
    {
        let _guard = engine.impersonate(worker, main).unwrap();
        // Live guard dropped (not finished) after its running thread died:
        // the restore error has no caller to reach.
        dev.kernel().exit_thread(worker).unwrap();
    }
    assert!(
        trace::counter(trace::Counter::ImpersonationDropSwallowedErrors) > before,
        "the drop path must surface the swallowed error via the trace counter"
    );
}

#[test]
fn exited_threads_do_not_break_gcd_queues() {
    let dev = device();
    let main = dev.main_tid();
    let eagl = dev.eagl();
    let ctx = eagl.init_with_api(main, GlesVersion::V2).unwrap();
    eagl.set_current_context(main, Some(ctx)).unwrap();

    let queue = cycada::DispatchQueue::new(&dev, "flaky");
    // First job learns its worker tid; we then kill that worker.
    let worker = queue.dispatch_sync(main, |w| w).unwrap();
    dev.kernel().exit_thread(worker).unwrap();
    // The queue notices the dead pooled worker at next dispatch and fails
    // cleanly (context adoption error) — then a fresh dispatch recovers
    // with a new worker.
    let second = queue.dispatch_sync(main, |w| w);
    match second {
        Ok(w) => assert_ne!(w, worker, "dead worker must not be reused silently"),
        Err(_) => {
            let third = queue.dispatch_sync(main, |w| w).unwrap();
            assert_ne!(third, worker);
        }
    }
}

/// Helper used by the dead-worker test above.
#[allow(dead_code)]
fn tid_of(t: SimTid) -> u64 {
    t.as_u64()
}
