//! The diplomat engine: the 11-step call procedure.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use cycada_kernel::{bsd_errno_from_linux, Kernel, SimTid};
use cycada_linker::{DynamicLinker, SymbolAddr};
use cycada_sim::{intern::FnId, stats::FunctionStats, trace, Nanos, Persona};

use crate::tls::GraphicsTls;
use crate::Result;

// --- Step costs, calibrated so Table 3 reproduces exactly -------------
// bare diplomat   = 69+305+40+9+30+244+70+49            = 816 ns
// + empty pre/post= 816 + 6 + 6                         = 828 ns
// + GLES pre/post = 828 + 52 + 53                       = 933 ns
// (305/244 are the Cycada iOS/Android kernel-trap costs charged by the
// kernel's set_persona; 9 ns is the plain function call.)

/// Step 3: arguments stored on the stack.
const ARG_SAVE_NS: Nanos = 69;
/// Step 5: arguments restored from the stack.
const ARG_RESTORE_NS: Nanos = 40;
/// Step 6: the plain function-call cost of invoking the domestic symbol.
const FUNCTION_CALL_NS: Nanos = 9;
/// Step 7: return value saved on the stack.
const RET_SAVE_NS: Nanos = 30;
/// Step 9: domestic TLS values (errno) converted into the foreign area.
const ERRNO_CONVERT_NS: Nanos = 70;
/// Step 11: return value restored, control returned.
const RET_RESTORE_NS: Nanos = 49;
/// Dispatching a (possibly empty) prelude or postlude.
const HOOK_DISPATCH_NS: Nanos = 6;
/// Body of the GLES prelude (TLS gate open + bookkeeping).
const GLES_PRELUDE_NS: Nanos = 52;
/// Body of the GLES postlude (gate close + TLS write-back).
const GLES_POSTLUDE_NS: Nanos = 53;

/// The four diplomat usage patterns of §4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiplomatPattern {
    /// Directly invokes the corresponding Android function.
    Direct,
    /// A small foreign-side wrapper redirects to a similar Android API
    /// (e.g. `APPLE_fence` → `NV_fence`) or re-arranges inputs.
    Indirect,
    /// Input-dependent logic runs first and may skip the Android call
    /// entirely (e.g. `glGetString` with Apple's proprietary parameter).
    DataDependent,
    /// Coalesces several Android functions behind one diplomat (the
    /// libEGLbridge EAGL/IOSurface machinery).
    Multi,
}

impl fmt::Display for DiplomatPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            DiplomatPattern::Direct => "direct",
            DiplomatPattern::Indirect => "indirect",
            DiplomatPattern::DataDependent => "data-dependent",
            DiplomatPattern::Multi => "multi",
        };
        f.write_str(name)
    }
}

/// Which prelude/postlude pair a diplomat carries. "This function is
/// common to all diplomats and specified at compile time" (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HookKind {
    /// No prelude/postlude (the basic Cycada diplomat).
    #[default]
    None,
    /// Empty prelude/postlude (dispatch cost only).
    Empty,
    /// The GLES prelude/postlude: opens/closes the TLS-key gate and
    /// performs graphics TLS bookkeeping.
    Gles,
}

/// One diplomat: a foreign-callable entry that invokes a domestic symbol.
///
/// Holds the lazily resolved symbol "in a locally-scoped static variable
/// for efficient reuse" (§3 step 1).
pub struct DiplomatEntry {
    fn_id: FnId,
    domestic_library: String,
    domestic_symbol: String,
    pattern: DiplomatPattern,
    hooks: HookKind,
    resolved: OnceLock<SymbolAddr>,
    calls: AtomicU64,
}

impl DiplomatEntry {
    /// Defines a diplomat named `name` targeting `symbol` in `library`.
    /// Interns `name`, so the entry is addressable by [`FnId`] everywhere
    /// downstream (dense dispatch tables, stats accounting).
    pub fn new(
        name: impl AsRef<str>,
        library: impl Into<String>,
        symbol: impl Into<String>,
        pattern: DiplomatPattern,
        hooks: HookKind,
    ) -> Self {
        Self::with_id(
            FnId::intern(name.as_ref()),
            library,
            symbol,
            pattern,
            hooks,
        )
    }

    /// Defines a diplomat for an already-interned function id.
    pub fn with_id(
        fn_id: FnId,
        library: impl Into<String>,
        symbol: impl Into<String>,
        pattern: DiplomatPattern,
        hooks: HookKind,
    ) -> Self {
        DiplomatEntry {
            fn_id,
            domestic_library: library.into(),
            domestic_symbol: symbol.into(),
            pattern,
            hooks,
            resolved: OnceLock::new(),
            calls: AtomicU64::new(0),
        }
    }

    /// The diplomat's (foreign-visible) name.
    pub fn name(&self) -> &'static str {
        self.fn_id.name()
    }

    /// The interned id of the diplomat's foreign-visible name.
    pub fn fn_id(&self) -> FnId {
        self.fn_id
    }

    /// The usage pattern classification.
    pub fn pattern(&self) -> DiplomatPattern {
        self.pattern
    }

    /// The hook pair specified at compile time.
    pub fn hooks(&self) -> HookKind {
        self.hooks
    }

    /// How many times the diplomat has been invoked.
    pub fn call_count(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// The resolved domestic symbol, if the diplomat has been called.
    pub fn resolved_symbol(&self) -> Option<SymbolAddr> {
        self.resolved.get().copied()
    }
}

impl fmt::Debug for DiplomatEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiplomatEntry")
            .field("name", &self.name())
            .field("pattern", &self.pattern)
            .field("hooks", &self.hooks)
            .field("calls", &self.call_count())
            .finish()
    }
}

/// Stripes of the engine-wide stats collector. Every host thread driving a
/// session on the device records every bridged call there, so each thread
/// writes its own stripe (assigned round-robin at its first call) and
/// concurrent sessions do not share a stats lock; readers merge the stripes.
const STATS_STRIPES: usize = 16;

/// The calling host thread's stripe of the engine-wide collector.
fn stats_stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STATS_STRIPES;
    }
    STRIPE.with(|s| *s)
}

/// The engine executing diplomat calls for one Cycada process.
pub struct DiplomatEngine {
    kernel: Arc<Kernel>,
    linker: Arc<DynamicLinker>,
    foreign: Persona,
    domestic: Persona,
    stats: [FunctionStats; STATS_STRIPES],
    graphics_tls: Arc<GraphicsTls>,
    gate_depth: Arc<AtomicUsize>,
    hook_id: u64,
}

impl DiplomatEngine {
    /// Creates an engine bridging foreign iOS code onto domestic Android
    /// libraries (the Cycada configuration). Installs the gated libc TLS
    /// hooks.
    pub fn new(kernel: Arc<Kernel>, linker: Arc<DynamicLinker>) -> Arc<Self> {
        let graphics_tls = Arc::new(GraphicsTls::new());
        let gate_depth = Arc::new(AtomicUsize::new(0));
        let (hook_tls, hook_gate) = (graphics_tls.clone(), gate_depth.clone());
        let hook_id = kernel.add_tls_hook(move |event| {
            // Only record keys reserved while a graphics diplomat's
            // prelude holds the gate open (§7.1).
            if hook_gate.load(Ordering::Acquire) > 0 {
                hook_tls.apply_event(event);
            }
        });
        Arc::new(DiplomatEngine {
            kernel,
            linker,
            foreign: Persona::Ios,
            domestic: Persona::Android,
            stats: Default::default(),
            graphics_tls,
            gate_depth,
            hook_id,
        })
    }

    /// The foreign persona (iOS).
    pub fn foreign(&self) -> Persona {
        self.foreign
    }

    /// The domestic persona (Android).
    pub fn domestic(&self) -> Persona {
        self.domestic
    }

    /// The kernel this engine drives.
    pub fn kernel(&self) -> &Arc<Kernel> {
        &self.kernel
    }

    /// The linker used for step-1 symbol resolution.
    pub fn linker(&self) -> &Arc<DynamicLinker> {
        &self.linker
    }

    /// A snapshot of the per-diplomat virtual-time statistics recorded so
    /// far by every host thread (Figures 7–10).
    pub fn stats(&self) -> FunctionStats {
        let snapshot = FunctionStats::new();
        for stripe in &self.stats {
            snapshot.merge(stripe);
        }
        snapshot
    }

    /// The graphics TLS slot registry.
    pub fn graphics_tls(&self) -> &Arc<GraphicsTls> {
        &self.graphics_tls
    }

    /// Whether the TLS-key gate is currently open (diagnostics).
    pub fn gate_open(&self) -> bool {
        self.gate_depth.load(Ordering::Acquire) > 0
    }

    /// Executes a diplomat call: the full 11-step procedure of §3. The
    /// `domestic` closure is the Android function body; it runs with the
    /// calling thread switched to its Android persona.
    ///
    /// # Errors
    ///
    /// Returns [`crate::DiplomatError::Resolution`] if the domestic symbol
    /// cannot be resolved, or [`crate::DiplomatError::PersonaSwitch`] if the
    /// kernel refuses the persona change.
    pub fn call<R>(
        &self,
        tid: SimTid,
        entry: &DiplomatEntry,
        domestic: impl FnOnce() -> R,
    ) -> Result<R> {
        let clock = self.kernel.clock();
        // Measure the thread's own charges, not global clock movement:
        // under concurrent sessions the shared clock advances from other
        // host threads mid-call, and recording that would make per-call
        // figures depend on interleaving.
        let span = clock.thread_span();
        // One relaxed load when tracing is off; when on, the span records
        // the whole 11-step procedure with the diplomat's name, pattern,
        // and this thread's wall/virtual durations. The per-call counters
        // are gated on the span so the disabled path has zero shared
        // atomic traffic.
        let mut tspan = trace::span(trace::Category::Diplomat, entry.name());
        if tspan.is_active() {
            tspan.set_arg(entry.pattern as u64);
            trace::bump(trace::Counter::DiplomatCalls);
        }
        entry.calls.fetch_add(1, Ordering::Relaxed);

        // (1) Lazy symbol resolution, cached for efficient reuse.
        if entry.resolved.get().is_none() {
            let lib = self.linker.dlopen(&entry.domestic_library)?;
            let addr = self.linker.dlsym(&lib, &entry.domestic_symbol)?;
            let _ = entry.resolved.set(addr);
        }

        // (2) Prelude in the foreign persona.
        match entry.hooks {
            HookKind::None => {}
            HookKind::Empty => {
                clock.charge_ns(HOOK_DISPATCH_NS);
            }
            HookKind::Gles => {
                clock.charge_ns(HOOK_DISPATCH_NS + GLES_PRELUDE_NS);
                self.gate_depth.fetch_add(1, Ordering::AcqRel);
            }
        }

        // (3) Arguments stored on the stack.
        clock.charge_ns(ARG_SAVE_NS);

        // (4) set_persona: foreign -> domestic.
        self.kernel.set_persona(tid, self.domestic)?;
        if tspan.is_active() {
            trace::bump(trace::Counter::PersonaSwitches);
        }

        // (5) Arguments restored; (6) direct invocation via the stored
        // symbol.
        clock.charge_ns(ARG_RESTORE_NS + FUNCTION_CALL_NS);
        let result = domestic();

        // (7) Return value saved.
        clock.charge_ns(RET_SAVE_NS);

        // (8) set_persona: domestic -> foreign.
        self.kernel.set_persona(tid, self.foreign)?;
        if tspan.is_active() {
            trace::bump(trace::Counter::PersonaSwitches);
        }

        // (9) Domestic TLS values (errno) converted into the foreign area.
        clock.charge_ns(ERRNO_CONVERT_NS);
        let linux_errno = self.kernel.errno(tid, self.domestic)?;
        self.kernel
            .set_errno(tid, self.foreign, bsd_errno_from_linux(linux_errno))?;

        // (10) Postlude in the foreign persona.
        match entry.hooks {
            HookKind::None => {}
            HookKind::Empty => {
                clock.charge_ns(HOOK_DISPATCH_NS);
            }
            HookKind::Gles => {
                clock.charge_ns(HOOK_DISPATCH_NS + GLES_POSTLUDE_NS);
                self.gate_depth.fetch_sub(1, Ordering::AcqRel);
            }
        }

        // (11) Return value restored; control returns to foreign code.
        clock.charge_ns(RET_RESTORE_NS);
        self.record_call(entry.fn_id, span.elapsed_ns());
        Ok(result)
    }

    /// Records one call's elapsed time in the engine-wide stats and in any
    /// session stats scopes installed on the calling thread. Bridge-side
    /// foreign-only paths use this so their calls are attributed the same
    /// way diplomat calls are.
    pub fn record_call(&self, id: FnId, elapsed: Nanos) {
        self.stats[stats_stripe()].record_id(id, elapsed);
        STATS_SCOPES.with(|scopes| {
            for scoped in scopes.borrow().iter() {
                scoped.record_id(id, elapsed);
            }
        });
    }

    /// Installs `stats` as an additional per-call sink for diplomat calls
    /// made *by the calling host thread* until the guard drops. Sessions use
    /// this to keep their own function-time breakdown on a shared engine.
    pub fn enter_stats_scope(stats: FunctionStats) -> StatsScopeGuard {
        STATS_SCOPES.with(|scopes| scopes.borrow_mut().push(stats));
        StatsScopeGuard { _not_send: std::marker::PhantomData }
    }
}

thread_local! {
    /// Per-thread stack of extra stats sinks (session scopes).
    static STATS_SCOPES: std::cell::RefCell<Vec<FunctionStats>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Live stats scope on one host thread; dropping it uninstalls the sink.
#[must_use = "the scope only records while the guard is alive"]
#[derive(Debug)]
pub struct StatsScopeGuard {
    // Scope entries are per-thread; keep the guard on the installing thread.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for StatsScopeGuard {
    fn drop(&mut self) {
        STATS_SCOPES.with(|scopes| {
            scopes.borrow_mut().pop();
        });
    }
}

impl Drop for DiplomatEngine {
    fn drop(&mut self) {
        self.kernel.remove_tls_hook(self.hook_id);
    }
}

impl fmt::Debug for DiplomatEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiplomatEngine")
            .field("foreign", &self.foreign)
            .field("domestic", &self.domestic)
            .field("graphics_tls", &self.graphics_tls)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DiplomatError;
    use cycada_linker::LibraryImage;
    use cycada_sim::Platform;

    fn setup() -> (Arc<Kernel>, Arc<DiplomatEngine>, SimTid) {
        let kernel = Arc::new(Kernel::for_platform(Platform::CycadaIos));
        let linker = Arc::new(DynamicLinker::new(kernel.clock().clone()));
        linker.register_image(
            LibraryImage::builder("libGLESv2_tegra.so")
                .symbols(["glFlush"])
                .build(),
        );
        let engine = DiplomatEngine::new(kernel.clone(), linker);
        let tid = kernel.spawn_process_main(Persona::Ios).unwrap();
        (kernel, engine, tid)
    }

    fn entry(hooks: HookKind) -> DiplomatEntry {
        DiplomatEntry::new(
            "glFlush",
            "libGLESv2_tegra.so",
            "glFlush",
            DiplomatPattern::Direct,
            hooks,
        )
    }

    #[test]
    fn table3_bare_diplomat_costs_816ns() {
        let (kernel, engine, tid) = setup();
        let e = entry(HookKind::None);
        engine.call(tid, &e, || {}).unwrap(); // first call resolves symbols
        let before = kernel.clock().now_ns();
        engine.call(tid, &e, || {}).unwrap();
        assert_eq!(kernel.clock().now_ns() - before, 816);
    }

    #[test]
    fn table3_empty_hooks_cost_828ns() {
        let (kernel, engine, tid) = setup();
        let e = entry(HookKind::Empty);
        engine.call(tid, &e, || {}).unwrap();
        let before = kernel.clock().now_ns();
        engine.call(tid, &e, || {}).unwrap();
        assert_eq!(kernel.clock().now_ns() - before, 828);
    }

    #[test]
    fn table3_gles_hooks_cost_933ns() {
        let (kernel, engine, tid) = setup();
        let e = entry(HookKind::Gles);
        engine.call(tid, &e, || {}).unwrap();
        let before = kernel.clock().now_ns();
        engine.call(tid, &e, || {}).unwrap();
        assert_eq!(kernel.clock().now_ns() - before, 933);
    }

    #[test]
    fn persona_round_trips_and_syscalls_counted() {
        let (kernel, engine, tid) = setup();
        let e = entry(HookKind::None);
        let observed = engine
            .call(tid, &e, || kernel.current_persona(tid).unwrap())
            .unwrap();
        assert_eq!(observed, Persona::Android, "domestic body runs as Android");
        assert_eq!(kernel.current_persona(tid).unwrap(), Persona::Ios);
        // "A GLES diplomatic call costs almost the same as three system
        // calls" — two of them are the persona switches.
        assert_eq!(kernel.syscall_counts().set_persona, 2);
    }

    #[test]
    fn errno_translated_into_foreign_tls() {
        let (kernel, engine, tid) = setup();
        let e = entry(HookKind::None);
        let k = kernel.clone();
        engine
            .call(tid, &e, || {
                // The domestic function sets Linux EAGAIN (11).
                k.set_errno(tid, Persona::Android, 11).unwrap();
            })
            .unwrap();
        // The foreign (BSD) view must read 35.
        assert_eq!(kernel.errno(tid, Persona::Ios).unwrap(), 35);
    }

    #[test]
    fn symbol_resolution_is_lazy_and_cached() {
        let (_kernel, engine, tid) = setup();
        let e = entry(HookKind::None);
        assert!(e.resolved_symbol().is_none());
        engine.call(tid, &e, || {}).unwrap();
        let first = e.resolved_symbol().unwrap();
        engine.call(tid, &e, || {}).unwrap();
        assert_eq!(e.resolved_symbol().unwrap(), first);
        assert_eq!(e.call_count(), 2);
        // The library was loaded exactly once.
        assert_eq!(engine.linker().constructor_runs("libGLESv2_tegra.so"), 1);
    }

    #[test]
    fn unresolvable_symbol_errors() {
        let (_kernel, engine, tid) = setup();
        let e = DiplomatEntry::new(
            "glNope",
            "libGLESv2_tegra.so",
            "glNope",
            DiplomatPattern::Direct,
            HookKind::None,
        );
        assert!(matches!(
            engine.call(tid, &e, || {}),
            Err(DiplomatError::Resolution(_))
        ));
    }

    #[test]
    fn gles_gate_captures_keys_created_during_call() {
        let (kernel, engine, tid) = setup();
        // A key created outside any diplomat is NOT graphics-related.
        let outside = kernel.tls_key_create(Persona::Android);
        assert!(!engine
            .graphics_tls()
            .contains(Persona::Android, outside.slot()));

        // A key created inside a GLES diplomat (gate open) IS recorded.
        let e = entry(HookKind::Gles);
        let k = kernel.clone();
        let inside = engine
            .call(tid, &e, || k.tls_key_create(Persona::Android))
            .unwrap();
        assert!(engine
            .graphics_tls()
            .contains(Persona::Android, inside.slot()));
        assert!(!engine.gate_open(), "gate closed after postlude");
    }

    #[test]
    fn nested_result_returned() {
        let (_kernel, engine, tid) = setup();
        let e = entry(HookKind::None);
        let v = engine.call(tid, &e, || 40 + 2).unwrap();
        assert_eq!(v, 42);
    }

    #[test]
    fn stats_record_whole_call_time() {
        let (_kernel, engine, tid) = setup();
        let e = entry(HookKind::None);
        engine.call(tid, &e, || {}).unwrap();
        let rec = engine.stats().get("glFlush").unwrap();
        assert_eq!(rec.calls, 1);
        assert!(rec.total_ns >= 816);
    }

    #[test]
    fn pattern_display() {
        assert_eq!(DiplomatPattern::DataDependent.to_string(), "data-dependent");
        assert_eq!(DiplomatPattern::Multi.to_string(), "multi");
    }
}
