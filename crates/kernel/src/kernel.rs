//! The kernel object: thread table, Cycada syscalls, service registries.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use cycada_sim::check::{self, Access};
use cycada_sim::slots::SlotTable;
use cycada_sim::{clock, DeviceProfile, Nanos, Persona, Platform};

use crate::display::Display;
use crate::error::KernelError;
use crate::ipc::{IoctlDriver, IpcMessage, IpcReply, KernelService};
use crate::thread::{SimTid, ThreadGroup, ThreadState};
use crate::tls::{TlsKey, TlsKeyEvent, TlsValue};
use crate::Result;

/// Fixed extra cost of a Mach IPC round trip beyond the kernel trap
/// (message copy, port lookup, reply).
const MACH_IPC_EXTRA_NS: Nanos = 320;
/// Fixed extra cost of an opaque ioctl beyond the kernel trap.
const IOCTL_EXTRA_NS: Nanos = 180;

/// Snapshot of how many times each kernel entry point has been invoked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyscallCounts {
    /// `null` syscalls (the lmbench micro-benchmark).
    pub null: u64,
    /// `set_persona` syscalls (two per diplomat).
    pub set_persona: u64,
    /// `locate_tls` syscalls (thread impersonation).
    pub locate_tls: u64,
    /// `propagate_tls` syscalls (thread impersonation).
    pub propagate_tls: u64,
    /// Mach IPC round trips (iOS-side kernel services).
    pub mach_ipc: u64,
    /// Opaque ioctls (Android-side drivers).
    pub ioctl: u64,
}

#[derive(Debug, Default)]
struct AtomicCounts {
    null: AtomicU64,
    set_persona: AtomicU64,
    locate_tls: AtomicU64,
    propagate_tls: AtomicU64,
    mach_ipc: AtomicU64,
    ioctl: AtomicU64,
}

#[derive(Debug, Default)]
struct KeySpace {
    next_slot: usize,
    live: HashSet<usize>,
}

type TlsHook = Box<dyn Fn(TlsKeyEvent) + Send + Sync>;

/// The simulated Cycada (or stock) kernel.
///
/// One `Kernel` models one booted device. All mutating entry points take
/// `&self`; the kernel is internally synchronized so simulated threads can
/// run on real host threads.
pub struct Kernel {
    profile: DeviceProfile,
    display: Display,
    /// Thread table, sharded per-tid: lookups touch only the target
    /// thread's slot, so syscalls from different simulated threads never
    /// contend on a table-wide lock (DESIGN.md §5f). Each entry carries its
    /// own `Mutex` because `ThreadState` is mutated in place.
    threads: SlotTable<Arc<Mutex<ThreadState>>>,
    next_tid: AtomicU64,
    services: RwLock<HashMap<String, Arc<dyn KernelService>>>,
    drivers: RwLock<HashMap<String, Arc<dyn IoctlDriver>>>,
    tls_keys: Mutex<[KeySpace; 2]>,
    tls_hooks: Mutex<Vec<(u64, TlsHook)>>,
    next_hook_id: AtomicU64,
    counts: AtomicCounts,
}

impl Kernel {
    /// Boots a kernel configured for one of the paper's platform
    /// configurations, with the device's native display attached.
    pub fn for_platform(platform: Platform) -> Self {
        Self::with_profile(DeviceProfile::for_platform(platform))
    }

    /// Boots a kernel with an explicit profile (used by tests that want a
    /// tiny display).
    pub fn with_profile(profile: DeviceProfile) -> Self {
        let display = Display::new(profile.display_width, profile.display_height);
        Kernel {
            profile,
            display,
            threads: SlotTable::new(),
            next_tid: AtomicU64::new(1),
            services: RwLock::new(HashMap::new()),
            drivers: RwLock::new(HashMap::new()),
            tls_keys: Mutex::new([KeySpace::default(), KeySpace::default()]),
            tls_hooks: Mutex::new(Vec::new()),
            next_hook_id: AtomicU64::new(1),
            counts: AtomicCounts::default(),
        }
    }

    /// The device cost profile this kernel was booted with.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// The device display.
    pub fn display(&self) -> &Display {
        &self.display
    }

    // ------------------------------------------------------------------
    // Threads
    // ------------------------------------------------------------------

    /// Creates a new process: a thread-group leader starting in `persona`.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnsupportedPersona`] if this kernel has no ABI
    /// personality for `persona` (e.g. iOS on stock Android).
    pub fn spawn_process_main(&self, persona: Persona) -> Result<SimTid> {
        self.check_persona(persona)?;
        let tid = SimTid(self.next_tid.fetch_add(1, Ordering::Relaxed));
        let group = ThreadGroup { leader: tid };
        self.insert_thread(ThreadState::new(tid, group, persona));
        Ok(tid)
    }

    /// Spawns an additional thread into the thread group of `group_member`,
    /// starting in `persona`.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchThread`] if `group_member` is gone, or
    /// [`KernelError::UnsupportedPersona`] if `persona` is unsupported.
    pub fn spawn_thread(&self, group_member: SimTid, persona: Persona) -> Result<SimTid> {
        self.check_persona(persona)?;
        let group = self.with_thread(group_member, |t| t.group)?;
        let tid = SimTid(self.next_tid.fetch_add(1, Ordering::Relaxed));
        self.insert_thread(ThreadState::new(tid, group, persona));
        Ok(tid)
    }

    /// Terminates a thread, releasing its kernel state.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchThread`] if the thread does not exist.
    pub fn exit_thread(&self, tid: SimTid) -> Result<()> {
        check::schedule_point("kernel.thread", tid.0 as usize, Access::Write);
        self.threads
            .set(tid.0, None)
            .map(|_| ())
            .ok_or(KernelError::NoSuchThread(tid))
    }

    /// The persona a thread is currently executing in.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchThread`] if the thread does not exist.
    pub fn current_persona(&self, tid: SimTid) -> Result<Persona> {
        self.with_thread(tid, |t| t.current)
    }

    /// The thread group a thread belongs to.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchThread`] if the thread does not exist.
    pub fn thread_group(&self, tid: SimTid) -> Result<ThreadGroup> {
        self.with_thread(tid, |t| t.group)
    }

    /// Whether `tid` is its thread group's leader (the "main" thread).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchThread`] if the thread does not exist.
    pub fn is_group_leader(&self, tid: SimTid) -> Result<bool> {
        self.with_thread(tid, |t| t.is_group_leader())
    }

    /// Whether the thread has ever executed in `persona`.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchThread`] if the thread does not exist.
    pub fn has_visited(&self, tid: SimTid, persona: Persona) -> Result<bool> {
        self.with_thread(tid, |t| t.visited[persona.index()])
    }

    // ------------------------------------------------------------------
    // Syscalls
    // ------------------------------------------------------------------

    /// The lmbench null syscall: traps into the kernel and does nothing.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchThread`] if the thread does not exist.
    pub fn null_syscall(&self, tid: SimTid) -> Result<()> {
        let persona = self.current_persona(tid)?;
        self.charge_trap(persona);
        self.counts.null.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The Cycada `set_persona` syscall: switches the calling thread's
    /// kernel ABI personality and TLS area pointer (§3 steps 4 and 8).
    ///
    /// The trap is paid at the cost of the persona the thread is *currently*
    /// in (the syscall is "invoked from the foreign persona" on entry and
    /// "from the domestic persona" on return).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchThread`] or
    /// [`KernelError::UnsupportedPersona`].
    pub fn set_persona(&self, tid: SimTid, persona: Persona) -> Result<()> {
        self.check_persona(persona)?;
        let from = self.with_thread_mut(tid, |thread| {
            let from = thread.current;
            thread.current = persona;
            thread.visited[persona.index()] = true;
            from
        })?;
        self.charge_trap(from);
        self.counts.set_persona.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The Cycada `locate_tls` syscall: extracts TLS slot values from any
    /// persona of any thread the caller can name (§7.1). Only the kernel
    /// has knowledge of both TLS areas, hence a syscall.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchThread`] if `caller` or `target` is gone.
    pub fn locate_tls(
        &self,
        caller: SimTid,
        target: SimTid,
        persona: Persona,
        slots: &[usize],
    ) -> Result<Vec<Option<TlsValue>>> {
        let caller_persona = self.current_persona(caller)?;
        let values = self.with_thread(target, |t| t.tls(persona).snapshot(slots))?;
        self.charge_trap(caller_persona);
        self.counts.locate_tls.fetch_add(1, Ordering::Relaxed);
        Ok(values)
    }

    /// The Cycada `propagate_tls` syscall: pushes TLS slot values into any
    /// persona of any thread (§7.1).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchThread`] if `caller` or `target` is gone.
    ///
    /// # Panics
    ///
    /// Panics if `slots` and `values` have different lengths (a corrupted
    /// migration).
    pub fn propagate_tls(
        &self,
        caller: SimTid,
        target: SimTid,
        persona: Persona,
        slots: &[usize],
        values: &[Option<TlsValue>],
    ) -> Result<()> {
        let caller_persona = self.current_persona(caller)?;
        self.with_thread_mut(target, |t| {
            t.tls_mut(persona).restore(slots, values);
        })?;
        self.charge_trap(caller_persona);
        self.counts.propagate_tls.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    // ------------------------------------------------------------------
    // User-space TLS (libc level — no kernel trap)
    // ------------------------------------------------------------------

    /// Simulated `pthread_key_create` in `persona`'s libc: reserves a
    /// globally-unique slot and fires the Cycada creation hook.
    pub fn tls_key_create(&self, persona: Persona) -> TlsKey {
        let mut spaces = self.tls_keys.lock();
        let space = &mut spaces[persona.index()];
        let slot = crate::tls::RESERVED_SLOTS + space.next_slot;
        space.next_slot += 1;
        space.live.insert(slot);
        drop(spaces);
        let key = TlsKey::new(persona, slot);
        self.fire_tls_hooks(TlsKeyEvent::Created(key));
        key
    }

    /// Simulated `pthread_key_delete`: releases a slot and fires the
    /// deletion hook.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::InvalidTlsKey`] if the key is not live.
    pub fn tls_key_delete(&self, key: TlsKey) -> Result<()> {
        let mut spaces = self.tls_keys.lock();
        if !spaces[key.persona().index()].live.remove(&key.slot()) {
            return Err(KernelError::InvalidTlsKey {
                persona: key.persona(),
                slot: key.slot(),
            });
        }
        drop(spaces);
        self.fire_tls_hooks(TlsKeyEvent::Deleted(key));
        Ok(())
    }

    /// Simulated `pthread_getspecific` for `tid` in the key's persona.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchThread`] or
    /// [`KernelError::InvalidTlsKey`].
    pub fn tls_get(&self, tid: SimTid, key: TlsKey) -> Result<Option<TlsValue>> {
        self.check_key(key)?;
        self.with_thread(tid, |t| t.tls(key.persona()).get(key.slot()))
    }

    /// Simulated `pthread_setspecific`.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchThread`] or
    /// [`KernelError::InvalidTlsKey`].
    pub fn tls_set(&self, tid: SimTid, key: TlsKey, value: TlsValue) -> Result<()> {
        self.check_key(key)?;
        self.with_thread_mut(tid, |t| t.tls_mut(key.persona()).set(key.slot(), value))
    }

    /// Reads a thread's errno in the given persona's TLS area.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchThread`] if the thread does not exist.
    pub fn errno(&self, tid: SimTid, persona: Persona) -> Result<u64> {
        self.with_thread(tid, |t| t.tls(persona).errno())
    }

    /// Writes a thread's errno in the given persona's TLS area.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchThread`] if the thread does not exist.
    pub fn set_errno(&self, tid: SimTid, persona: Persona, errno: u64) -> Result<()> {
        self.with_thread_mut(tid, |t| t.tls_mut(persona).set_errno(errno))
    }

    /// Reads an arbitrary raw TLS slot (used by impersonation to migrate
    /// reserved slots alongside app keys).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchThread`] if the thread does not exist.
    pub fn tls_get_raw(
        &self,
        tid: SimTid,
        persona: Persona,
        slot: usize,
    ) -> Result<Option<TlsValue>> {
        self.with_thread(tid, |t| t.tls(persona).get(slot))
    }

    /// Writes an arbitrary raw TLS slot.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchThread`] if the thread does not exist.
    pub fn tls_set_raw(
        &self,
        tid: SimTid,
        persona: Persona,
        slot: usize,
        value: Option<TlsValue>,
    ) -> Result<()> {
        self.with_thread_mut(tid, |t| match value {
            Some(v) => t.tls_mut(persona).set(slot, v),
            None => t.tls_mut(persona).clear(slot),
        })
    }

    /// Registers a hook fired on every TLS key creation/deletion (the
    /// Cycada Bionic patch). Returns an ID for [`Kernel::remove_tls_hook`].
    pub fn add_tls_hook(&self, hook: impl Fn(TlsKeyEvent) + Send + Sync + 'static) -> u64 {
        let id = self.next_hook_id.fetch_add(1, Ordering::Relaxed);
        self.tls_hooks.lock().push((id, Box::new(hook)));
        id
    }

    /// Removes a previously registered TLS hook. Unknown IDs are ignored.
    pub fn remove_tls_hook(&self, id: u64) {
        self.tls_hooks.lock().retain(|(hid, _)| *hid != id);
    }

    // ------------------------------------------------------------------
    // Opaque kernel channels
    // ------------------------------------------------------------------

    /// Registers an I/O Kit-style service reachable via Mach IPC.
    pub fn register_service(&self, service: Arc<dyn KernelService>) {
        self.services
            .write()
            .insert(service.service_name().to_owned(), service);
    }

    /// Registers a proprietary driver reachable via opaque ioctls.
    pub fn register_driver(&self, driver: Arc<dyn IoctlDriver>) {
        self.drivers
            .write()
            .insert(driver.driver_name().to_owned(), driver);
    }

    /// Sends an opaque Mach IPC message to a named service, charging the
    /// caller a kernel trap plus the IPC round-trip cost.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchService`] for unknown services,
    /// [`KernelError::NoSuchThread`] for dead callers, or whatever error the
    /// service produces.
    pub fn mach_ipc_call(
        &self,
        tid: SimTid,
        service: &str,
        msg: IpcMessage,
    ) -> Result<IpcReply> {
        let persona = self.current_persona(tid)?;
        let handler = self
            .services
            .read()
            .get(service)
            .cloned()
            .ok_or_else(|| KernelError::NoSuchService(service.to_owned()))?;
        self.charge_trap(persona);
        clock::charge_ns(MACH_IPC_EXTRA_NS);
        self.counts.mach_ipc.fetch_add(1, Ordering::Relaxed);
        handler.handle(msg)
    }

    /// Issues an opaque ioctl against a named driver, charging the caller a
    /// kernel trap plus the ioctl dispatch cost.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchDriver`] for unknown drivers,
    /// [`KernelError::NoSuchThread`] for dead callers, or whatever error
    /// the driver produces.
    pub fn ioctl(
        &self,
        tid: SimTid,
        driver: &str,
        cmd: u32,
        arg: IpcMessage,
    ) -> Result<IpcReply> {
        let persona = self.current_persona(tid)?;
        let handler = self
            .drivers
            .read()
            .get(driver)
            .cloned()
            .ok_or_else(|| KernelError::NoSuchDriver(driver.to_owned()))?;
        self.charge_trap(persona);
        clock::charge_ns(IOCTL_EXTRA_NS);
        self.counts.ioctl.fetch_add(1, Ordering::Relaxed);
        handler.ioctl(cmd, arg)
    }

    /// Snapshot of the syscall counters.
    pub fn syscall_counts(&self) -> SyscallCounts {
        SyscallCounts {
            null: self.counts.null.load(Ordering::Relaxed),
            set_persona: self.counts.set_persona.load(Ordering::Relaxed),
            locate_tls: self.counts.locate_tls.load(Ordering::Relaxed),
            propagate_tls: self.counts.propagate_tls.load(Ordering::Relaxed),
            mach_ipc: self.counts.mach_ipc.load(Ordering::Relaxed),
            ioctl: self.counts.ioctl.load(Ordering::Relaxed),
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn check_persona(&self, persona: Persona) -> Result<()> {
        if self.profile.supports_persona(persona) {
            Ok(())
        } else {
            Err(KernelError::UnsupportedPersona(persona))
        }
    }

    fn check_key(&self, key: TlsKey) -> Result<()> {
        if self.tls_keys.lock()[key.persona().index()]
            .live
            .contains(&key.slot())
        {
            Ok(())
        } else {
            Err(KernelError::InvalidTlsKey {
                persona: key.persona(),
                slot: key.slot(),
            })
        }
    }

    fn charge_trap(&self, persona: Persona) {
        clock::charge_ns(self.profile.trap_ns(persona));
    }

    fn fire_tls_hooks(&self, event: TlsKeyEvent) {
        for (_, hook) in self.tls_hooks.lock().iter() {
            hook(event);
        }
    }

    fn insert_thread(&self, state: ThreadState) {
        let tid = state.tid;
        check::schedule_point("kernel.thread", tid.0 as usize, Access::Write);
        self.threads
            .set(tid.0, Some(Arc::new(Mutex::new(state))));
    }

    /// Looks up a thread's slot. The returned `Arc` keeps the state alive
    /// even if the thread exits concurrently — mirroring a real kernel,
    /// where an in-flight syscall pins the task struct it already resolved.
    fn thread_slot(&self, tid: SimTid) -> Result<Arc<Mutex<ThreadState>>> {
        check::schedule_point("kernel.thread", tid.0 as usize, Access::Read);
        self.threads
            .get(tid.0)
            .ok_or(KernelError::NoSuchThread(tid))
    }

    fn with_thread<R>(&self, tid: SimTid, f: impl FnOnce(&ThreadState) -> R) -> Result<R> {
        Ok(f(&self.thread_slot(tid)?.lock()))
    }

    fn with_thread_mut<R>(
        &self,
        tid: SimTid,
        f: impl FnOnce(&mut ThreadState) -> R,
    ) -> Result<R> {
        Ok(f(&mut self.thread_slot(tid)?.lock()))
    }
}

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kernel")
            .field("platform", &self.profile.platform)
            .field("threads", &self.threads.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycada_sim::Platform;

    fn cycada() -> Kernel {
        Kernel::for_platform(Platform::CycadaIos)
    }

    #[test]
    fn spawn_and_groups() {
        let k = cycada();
        let main = k.spawn_process_main(Persona::Ios).unwrap();
        let worker = k.spawn_thread(main, Persona::Ios).unwrap();
        assert!(k.is_group_leader(main).unwrap());
        assert!(!k.is_group_leader(worker).unwrap());
        assert_eq!(k.thread_group(worker).unwrap().leader, main);

        // A thread spawned from a non-leader still joins the same group.
        let w2 = k.spawn_thread(worker, Persona::Android).unwrap();
        assert_eq!(k.thread_group(w2).unwrap().leader, main);
    }

    #[test]
    fn stock_android_rejects_ios_processes() {
        let k = Kernel::for_platform(Platform::StockAndroid);
        assert_eq!(
            k.spawn_process_main(Persona::Ios),
            Err(KernelError::UnsupportedPersona(Persona::Ios))
        );
        assert!(k.spawn_process_main(Persona::Android).is_ok());
    }

    #[test]
    fn set_persona_switches_and_charges_entry_cost() {
        let k = cycada();
        let tid = k.spawn_process_main(Persona::Ios).unwrap();
        let before = clock::now_ns();
        k.set_persona(tid, Persona::Android).unwrap();
        // Trap paid at the iOS (calling persona) rate: 305 ns.
        assert_eq!(clock::now_ns() - before, 305);
        assert_eq!(k.current_persona(tid).unwrap(), Persona::Android);
        assert!(k.has_visited(tid, Persona::Android).unwrap());

        let before = clock::now_ns();
        k.set_persona(tid, Persona::Ios).unwrap();
        // Return trap paid at the Android rate: 244 ns.
        assert_eq!(clock::now_ns() - before, 244);
        assert_eq!(k.syscall_counts().set_persona, 2);
    }

    #[test]
    fn null_syscall_costs_match_table3() {
        for (platform, persona, expect) in [
            (Platform::StockAndroid, Persona::Android, 225),
            (Platform::CycadaAndroid, Persona::Android, 244),
            (Platform::CycadaIos, Persona::Ios, 305),
            (Platform::NativeIos, Persona::Ios, 575),
        ] {
            let k = Kernel::for_platform(platform);
            let tid = k.spawn_process_main(persona).unwrap();
            let before = clock::now_ns();
            k.null_syscall(tid).unwrap();
            assert_eq!(clock::now_ns() - before, expect, "{platform:?}");
        }
    }

    #[test]
    fn tls_keys_are_per_persona_and_hooked() {
        let k = cycada();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        let hook = k.add_tls_hook(move |e| seen2.lock().push(e));

        let ka = k.tls_key_create(Persona::Android);
        let ki = k.tls_key_create(Persona::Ios);
        assert_eq!(ka.persona(), Persona::Android);
        assert_eq!(ki.persona(), Persona::Ios);
        k.tls_key_delete(ka).unwrap();
        assert_eq!(
            *seen.lock(),
            vec![
                TlsKeyEvent::Created(ka),
                TlsKeyEvent::Created(ki),
                TlsKeyEvent::Deleted(ka)
            ]
        );

        // Deleted keys are invalid.
        assert!(matches!(
            k.tls_key_delete(ka),
            Err(KernelError::InvalidTlsKey { .. })
        ));
        k.remove_tls_hook(hook);
        let _ = k.tls_key_create(Persona::Android);
        assert_eq!(seen.lock().len(), 3, "removed hooks do not fire");
    }

    #[test]
    fn tls_get_set_respects_persona_areas() {
        let k = cycada();
        let tid = k.spawn_process_main(Persona::Ios).unwrap();
        let key = k.tls_key_create(Persona::Android);
        assert_eq!(k.tls_get(tid, key).unwrap(), None);
        k.tls_set(tid, key, 0xdead).unwrap();
        assert_eq!(k.tls_get(tid, key).unwrap(), Some(0xdead));
        // The iOS area is untouched.
        assert_eq!(
            k.tls_get_raw(tid, Persona::Ios, key.slot()).unwrap(),
            None
        );
    }

    #[test]
    fn locate_and_propagate_tls() {
        let k = cycada();
        let a = k.spawn_process_main(Persona::Ios).unwrap();
        let b = k.spawn_thread(a, Persona::Ios).unwrap();
        let key = k.tls_key_create(Persona::Android);
        k.tls_set(a, key, 7).unwrap();

        let vals = k
            .locate_tls(b, a, Persona::Android, &[key.slot()])
            .unwrap();
        assert_eq!(vals, vec![Some(7)]);
        k.propagate_tls(b, b, Persona::Android, &[key.slot()], &vals)
            .unwrap();
        assert_eq!(k.tls_get(b, key).unwrap(), Some(7));

        let counts = k.syscall_counts();
        assert_eq!(counts.locate_tls, 1);
        assert_eq!(counts.propagate_tls, 1);
    }

    #[test]
    fn errno_per_persona() {
        let k = cycada();
        let tid = k.spawn_process_main(Persona::Ios).unwrap();
        k.set_errno(tid, Persona::Android, 11).unwrap();
        assert_eq!(k.errno(tid, Persona::Android).unwrap(), 11);
        assert_eq!(k.errno(tid, Persona::Ios).unwrap(), 0);
    }

    #[test]
    fn unknown_service_and_driver() {
        let k = cycada();
        let tid = k.spawn_process_main(Persona::Ios).unwrap();
        assert!(matches!(
            k.mach_ipc_call(tid, "IOCoreSurface", IpcMessage::default()),
            Err(KernelError::NoSuchService(_))
        ));
        assert!(matches!(
            k.ioctl(tid, "gralloc", 1, IpcMessage::default()),
            Err(KernelError::NoSuchDriver(_))
        ));
    }

    #[test]
    fn service_round_trip_charges_and_counts() {
        struct Echo;
        impl KernelService for Echo {
            fn service_name(&self) -> &str {
                "echo"
            }
            fn handle(&self, msg: IpcMessage) -> Result<IpcReply> {
                Ok(IpcReply::with_words(msg.words))
            }
        }
        let k = cycada();
        let tid = k.spawn_process_main(Persona::Ios).unwrap();
        k.register_service(Arc::new(Echo));
        let before = clock::now_ns();
        let reply = k
            .mach_ipc_call(tid, "echo", IpcMessage::new(1, [42]))
            .unwrap();
        assert_eq!(reply.word(0).unwrap(), 42);
        assert_eq!(clock::now_ns() - before, 305 + 320);
        assert_eq!(k.syscall_counts().mach_ipc, 1);
    }

    #[test]
    fn driver_round_trip() {
        struct Null;
        impl IoctlDriver for Null {
            fn driver_name(&self) -> &str {
                "null"
            }
            fn ioctl(&self, cmd: u32, _arg: IpcMessage) -> Result<IpcReply> {
                Ok(IpcReply::with_words([u64::from(cmd)]))
            }
        }
        let k = cycada();
        let tid = k.spawn_process_main(Persona::Android).unwrap();
        k.register_driver(Arc::new(Null));
        let reply = k.ioctl(tid, "null", 9, IpcMessage::default()).unwrap();
        assert_eq!(reply.word(0).unwrap(), 9);
        assert_eq!(k.syscall_counts().ioctl, 1);
    }

    #[test]
    fn concurrent_thread_churn_is_race_free() {
        // N host threads hammer the sharded thread table: spawn, switch
        // personas, touch TLS, and exit. Counts must come out exact and no
        // slot may be corrupted by a neighbor.
        let k = Arc::new(cycada());
        let root = k.spawn_process_main(Persona::Ios).unwrap();
        const WORKERS: usize = 8;
        const ROUNDS: usize = 100;
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| {
                let k = k.clone();
                std::thread::spawn(move || {
                    for _ in 0..ROUNDS {
                        let tid = k.spawn_thread(root, Persona::Ios).unwrap();
                        k.set_persona(tid, Persona::Android).unwrap();
                        k.set_errno(tid, Persona::Android, 7).unwrap();
                        assert_eq!(k.errno(tid, Persona::Android).unwrap(), 7);
                        k.set_persona(tid, Persona::Ios).unwrap();
                        assert!(k.has_visited(tid, Persona::Android).unwrap());
                        k.exit_thread(tid).unwrap();
                        assert_eq!(
                            k.exit_thread(tid),
                            Err(KernelError::NoSuchThread(tid))
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let spawned = (WORKERS * ROUNDS) as u64;
        assert_eq!(k.syscall_counts().set_persona, 2 * spawned);
        // Every worker thread exited; only the root process remains.
        assert_eq!(k.current_persona(root).unwrap(), Persona::Ios);
        assert!(format!("{k:?}").contains("threads: 1"), "{k:?}");
    }

    #[test]
    fn exit_thread_removes_state() {
        let k = cycada();
        let tid = k.spawn_process_main(Persona::Android).unwrap();
        k.exit_thread(tid).unwrap();
        assert_eq!(
            k.current_persona(tid),
            Err(KernelError::NoSuchThread(tid))
        );
        assert_eq!(k.exit_thread(tid), Err(KernelError::NoSuchThread(tid)));
    }
}
