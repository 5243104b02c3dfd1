//! Thread impersonation (§7.1).
//!
//! "A thread impersonating another thread temporarily takes on the identity
//! of another thread to perform an action that may be thread-dependent."
//! For graphics, an iOS thread invoking a GLES function on a context it did
//! not create impersonates the Android thread that did: the running
//! thread's graphics-related TLS — in *both* its iOS and Android personas —
//! is saved and replaced with the target thread's, updates made while
//! executing are reflected back, and the original TLS is restored on
//! return. Only the kernel knows both TLS areas, so the migration uses the
//! `locate_tls` / `propagate_tls` syscalls.

use std::fmt;
use std::sync::Arc;

use cycada_kernel::{SimTid, TlsValue};
use cycada_sim::{trace, Persona};

use crate::engine::DiplomatEngine;
use crate::error::DiplomatError;
use crate::Result;

/// RAII state of one impersonation: created by
/// [`DiplomatEngine::impersonate`], ended by [`ImpersonationGuard::finish`]
/// (or best-effort on drop).
pub struct ImpersonationGuard {
    engine: Arc<DiplomatEngine>,
    running: SimTid,
    target: SimTid,
    slots: [Vec<usize>; 2],
    saved: [Vec<Option<TlsValue>>; 2],
    finished: bool,
}

impl DiplomatEngine {
    /// Begins impersonation: `running` (the thread invoking a GLES
    /// function) assumes the graphics TLS of `target` (the thread that
    /// created the GLES context), across both personas.
    ///
    /// # Errors
    ///
    /// Returns [`DiplomatError::TlsMigration`] if either thread is gone.
    pub fn impersonate(
        self: &Arc<Self>,
        running: SimTid,
        target: SimTid,
    ) -> Result<ImpersonationGuard> {
        let kernel = self.kernel();
        let mut slots_arr: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
        let mut saved_arr: [Vec<Option<TlsValue>>; 2] = [Vec::new(), Vec::new()];
        for persona in Persona::ALL {
            // One schedule point per persona step: the checker interleaves
            // competitor threads (e.g. the target exiting) between the
            // per-persona TLS migrations.
            cycada_sim::schedule_point!(
                "impersonation.begin",
                running.as_u64() as usize,
                cycada_sim::check::Access::Write
            );
            let slots = self.graphics_tls().slots(persona);
            // (3) Save the running thread's graphics TLS...
            let saved = kernel
                .locate_tls(running, running, persona, &slots)
                .map_err(migration_err)?;
            // ...and replace it with the TLS associated with the context's
            // creating thread.
            let target_vals = kernel
                .locate_tls(running, target, persona, &slots)
                .map_err(migration_err)?;
            kernel
                .propagate_tls(running, running, persona, &slots, &target_vals)
                .map_err(migration_err)?;
            slots_arr[persona.index()] = slots;
            saved_arr[persona.index()] = saved;
        }
        trace::bump(trace::Counter::ImpersonationsBegun);
        trace::instant(
            trace::Category::Impersonation,
            "impersonation_begin",
            running.as_u64(),
        );
        Ok(ImpersonationGuard {
            engine: self.clone(),
            running,
            target,
            slots: slots_arr,
            saved: saved_arr,
            finished: false,
        })
    }
}

impl ImpersonationGuard {
    /// The thread doing the impersonating.
    pub fn running(&self) -> SimTid {
        self.running
    }

    /// The thread being impersonated.
    pub fn target(&self) -> SimTid {
        self.target
    }

    fn end(&mut self) -> Result<()> {
        if self.finished {
            return Ok(());
        }
        self.finished = true;
        let kernel = self.engine.kernel();
        // A failing step must not abort the rest of the teardown: the
        // running thread must never be left wearing another thread's TLS
        // in *any* persona. Attempt the target write-back and the
        // self-restore for every persona, collect failures, report the
        // first. (A dead target fails only the write-back; the running
        // thread's own restore still succeeds.)
        let mut first_err: Option<DiplomatError> = None;
        for persona in Persona::ALL {
            cycada_sim::schedule_point!(
                "impersonation.end",
                self.running.as_u64() as usize,
                cycada_sim::check::Access::Write
            );
            let slots = &self.slots[persona.index()];
            // (4) Updates made while impersonating are reflected back into
            // the TLS associated with the GLES context (the target thread).
            let write_back = kernel
                .locate_tls(self.running, self.running, persona, slots)
                .and_then(|current| {
                    kernel.propagate_tls(self.running, self.target, persona, slots, &current)
                });
            if let Err(e) = write_back {
                first_err.get_or_insert_with(|| migration_err(e));
            }
            // (5) Restore the running thread's original graphics TLS —
            // unconditionally, even after a failed write-back.
            let restore = kernel.propagate_tls(
                self.running,
                self.running,
                persona,
                slots,
                &self.saved[persona.index()],
            );
            if let Err(e) = restore {
                first_err.get_or_insert_with(|| migration_err(e));
            }
        }
        match first_err {
            None => {
                trace::bump(trace::Counter::ImpersonationsFinished);
                trace::instant(
                    trace::Category::Impersonation,
                    "impersonation_finish",
                    self.running.as_u64(),
                );
                Ok(())
            }
            Some(e) => Err(e),
        }
    }

    /// Ends the impersonation: writes updates back to the target and
    /// restores the running thread's own TLS.
    ///
    /// # Errors
    ///
    /// Returns [`DiplomatError::TlsMigration`] if a thread died mid-way.
    pub fn finish(mut self) -> Result<()> {
        self.end()
    }
}

impl Drop for ImpersonationGuard {
    fn drop(&mut self) {
        // Best effort; failures here mean a thread already exited. There
        // is no caller to report to, so the error is counted (always, even
        // with tracing off) and recorded as a trace event — each swallowed
        // error is a thread that may have run with partially foreign TLS.
        if self.end().is_err() {
            trace::bump(trace::Counter::ImpersonationDropSwallowedErrors);
            trace::instant(
                trace::Category::Impersonation,
                "impersonation_drop_swallowed",
                self.running.as_u64(),
            );
        }
    }
}

impl fmt::Debug for ImpersonationGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ImpersonationGuard")
            .field("running", &self.running)
            .field("target", &self.target)
            .field("finished", &self.finished)
            .finish()
    }
}

fn migration_err(e: cycada_kernel::KernelError) -> DiplomatError {
    DiplomatError::TlsMigration(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycada_kernel::Kernel;
    use cycada_linker::DynamicLinker;
    use cycada_sim::Platform;

    fn setup() -> (Arc<Kernel>, Arc<DiplomatEngine>, SimTid, SimTid) {
        let kernel = Arc::new(Kernel::for_platform(Platform::CycadaIos));
        let linker = Arc::new(DynamicLinker::new());
        let engine = DiplomatEngine::new(kernel.clone(), linker);
        let target = kernel.spawn_process_main(Persona::Ios).unwrap();
        let running = kernel.spawn_thread(target, Persona::Ios).unwrap();
        (kernel, engine, running, target)
    }

    #[test]
    fn impersonation_adopts_and_restores_tls() {
        let (kernel, engine, running, target) = setup();
        // A graphics slot in each persona.
        engine.graphics_tls().register_well_known(Persona::Android, 10);
        engine.graphics_tls().register_well_known(Persona::Ios, 11);
        kernel.tls_set_raw(target, Persona::Android, 10, Some(0xAAA)).unwrap();
        kernel.tls_set_raw(target, Persona::Ios, 11, Some(0xBBB)).unwrap();
        kernel.tls_set_raw(running, Persona::Android, 10, Some(0x111)).unwrap();

        let guard = engine.impersonate(running, target).unwrap();
        // The running thread now sees the target's graphics TLS in both
        // personas.
        assert_eq!(
            kernel.tls_get_raw(running, Persona::Android, 10).unwrap(),
            Some(0xAAA)
        );
        assert_eq!(
            kernel.tls_get_raw(running, Persona::Ios, 11).unwrap(),
            Some(0xBBB)
        );
        guard.finish().unwrap();
        // Originals restored.
        assert_eq!(
            kernel.tls_get_raw(running, Persona::Android, 10).unwrap(),
            Some(0x111)
        );
        assert_eq!(kernel.tls_get_raw(running, Persona::Ios, 11).unwrap(), None);
    }

    #[test]
    fn updates_reflect_back_to_target() {
        let (kernel, engine, running, target) = setup();
        engine.graphics_tls().register_well_known(Persona::Android, 10);
        kernel.tls_set_raw(target, Persona::Android, 10, Some(1)).unwrap();

        let guard = engine.impersonate(running, target).unwrap();
        // The impersonating thread updates the context's TLS value.
        kernel.tls_set_raw(running, Persona::Android, 10, Some(2)).unwrap();
        guard.finish().unwrap();
        // The update lives on in the target thread's TLS.
        assert_eq!(
            kernel.tls_get_raw(target, Persona::Android, 10).unwrap(),
            Some(2)
        );
    }

    #[test]
    fn drop_restores_best_effort() {
        let (kernel, engine, running, target) = setup();
        engine.graphics_tls().register_well_known(Persona::Android, 10);
        kernel.tls_set_raw(running, Persona::Android, 10, Some(7)).unwrap();
        {
            let _guard = engine.impersonate(running, target).unwrap();
            assert_eq!(
                kernel.tls_get_raw(running, Persona::Android, 10).unwrap(),
                None,
                "target had no value; running sees none"
            );
        }
        assert_eq!(
            kernel.tls_get_raw(running, Persona::Android, 10).unwrap(),
            Some(7)
        );
    }

    #[test]
    fn impersonating_dead_thread_errors() {
        let (kernel, engine, running, target) = setup();
        kernel.exit_thread(target).unwrap();
        assert!(matches!(
            engine.impersonate(running, target),
            Err(DiplomatError::TlsMigration(_))
        ));
    }

    #[test]
    fn end_restores_every_persona_when_target_dies_mid_guard() {
        let (kernel, engine, running, target) = setup();
        engine.graphics_tls().register_well_known(Persona::Ios, 11);
        engine.graphics_tls().register_well_known(Persona::Android, 10);
        kernel.tls_set_raw(running, Persona::Ios, 11, Some(0x222)).unwrap();
        kernel.tls_set_raw(running, Persona::Android, 10, Some(0x111)).unwrap();

        let guard = engine.impersonate(running, target).unwrap();
        // The target exits mid-guard: the persona-iOS write-back (the
        // first teardown step) now fails with NoSuchThread.
        kernel.exit_thread(target).unwrap();
        let err = guard.finish();
        assert!(matches!(err, Err(DiplomatError::TlsMigration(_))));
        // Despite the iOS-persona error, the running thread's own TLS must
        // be restored in BOTH personas — the old `end` returned at the
        // first failure and left everything after it foreign.
        assert_eq!(
            kernel.tls_get_raw(running, Persona::Ios, 11).unwrap(),
            Some(0x222),
            "iOS persona restored after its own write-back failed"
        );
        assert_eq!(
            kernel.tls_get_raw(running, Persona::Android, 10).unwrap(),
            Some(0x111),
            "Android persona still restored after the iOS persona errored"
        );
    }

    #[test]
    fn drop_with_dead_target_counts_swallowed_error() {
        let (kernel, engine, running, target) = setup();
        engine.graphics_tls().register_well_known(Persona::Android, 10);
        kernel.tls_set_raw(running, Persona::Android, 10, Some(0x42)).unwrap();
        let before = trace::counter(trace::Counter::ImpersonationDropSwallowedErrors);
        {
            let _guard = engine.impersonate(running, target).unwrap();
            kernel.exit_thread(target).unwrap();
        } // drop: write-back fails, error has nowhere to go
        assert!(
            trace::counter(trace::Counter::ImpersonationDropSwallowedErrors) > before,
            "swallowed drop error must be observable via the trace counter"
        );
        // And the running thread still got its own TLS back.
        assert_eq!(
            kernel.tls_get_raw(running, Persona::Android, 10).unwrap(),
            Some(0x42)
        );
    }

    #[test]
    fn impersonation_uses_tls_syscalls() {
        let (kernel, engine, running, target) = setup();
        engine.graphics_tls().register_well_known(Persona::Android, 10);
        let before = kernel.syscall_counts();
        let guard = engine.impersonate(running, target).unwrap();
        guard.finish().unwrap();
        let after = kernel.syscall_counts();
        assert!(after.locate_tls > before.locate_tls);
        assert!(after.propagate_tls > before.propagate_tls);
    }
}
