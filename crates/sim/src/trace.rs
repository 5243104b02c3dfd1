//! The trace plane: per-host-thread ring-buffer span/event recording plus
//! typed counters, for observing the hot seams of the stack (diplomat
//! calls, impersonations, DLR replica loads, EGL/EAGL lifecycle, IOSurface
//! locking, composition) without perturbing the simulation.
//!
//! # Determinism contract
//!
//! The trace plane **never interacts with the virtual clock**: recording an
//! event reads the calling thread's charge ledger
//! ([`crate::VirtualClock::thread_charged_ns`]) but charges nothing, so all
//! figure/table regenerators produce byte-identical output whether tracing
//! is disabled or force-enabled (`CYCADA_TRACE=1`). Wall-clock timestamps
//! appear only in trace output, never in any figure.
//!
//! # Cost contract
//!
//! * **Disabled** (the default): every instrumented call site performs one
//!   relaxed atomic load and a predictable branch — low single-digit
//!   nanoseconds (`benches/trace.rs`, `BENCH_trace.json`).
//! * **Enabled**: an event is one append into the calling thread's own
//!   ring buffer (a seqlock-protected slot write — no locks, no waiting,
//!   no allocation after the ring exists).
//! * **Counters** on failure and lifecycle paths are *always on* (one
//!   relaxed `fetch_add`), so a swallowed [`ImpersonationGuard`] drop
//!   error or a skipped TLS-teardown eviction is observable even with
//!   tracing off. The two per-call hot counters
//!   ([`Counter::DiplomatCalls`], [`Counter::PersonaSwitches`]) only count
//!   while tracing is enabled, keeping the disabled diplomat path free of
//!   shared-cache-line traffic.
//!
//! # Ring buffer layout
//!
//! Each host thread owns one fixed-capacity ring ([`RING_CAPACITY`] slots)
//! registered in a global list on first use; the ring outlives its thread
//! so events recorded during thread teardown (the interesting ones) are
//! still drained. Appends are single-producer: only the owning thread
//! writes, guarded by a per-slot sequence word (odd = write in progress,
//! even = slot holds the event whose index the word encodes). Snapshots
//! from any thread validate the sequence word around the copy and drop
//! torn slots, so a drain concurrent with tracing loses at most the events
//! being overwritten — it never blocks the traced thread.
//!
//! [`ImpersonationGuard`]: crate::trace#impersonation

use std::cell::{OnceCell, RefCell};
use std::fmt;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;

use crate::{Nanos, VirtualClock};

/// Events kept per host thread before the oldest is overwritten.
pub const RING_CAPACITY: usize = 4096;

// ----------------------------------------------------------------------
// Global gate
// ----------------------------------------------------------------------

const GATE_UNINIT: u8 = 0;
const GATE_OFF: u8 = 1;
const GATE_ON: u8 = 2;

/// Tri-state so the first check can consult `CYCADA_TRACE` without adding
/// cost to every later check (a single relaxed load).
static GATE: AtomicU8 = AtomicU8::new(GATE_UNINIT);

/// Whether event recording is enabled. One relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    match GATE.load(Ordering::Relaxed) {
        GATE_ON => true,
        GATE_OFF => false,
        _ => init_gate(),
    }
}

#[cold]
fn init_gate() -> bool {
    let on = std::env::var("CYCADA_TRACE")
        .map(|v| v == "1" || v.eq_ignore_ascii_case("true") || v.eq_ignore_ascii_case("on"))
        .unwrap_or(false);
    let target = if on { GATE_ON } else { GATE_OFF };
    // Only transition out of UNINIT: an explicit set_enabled racing the
    // first check must win.
    let _ = GATE.compare_exchange(GATE_UNINIT, target, Ordering::Relaxed, Ordering::Relaxed);
    GATE.load(Ordering::Relaxed) == GATE_ON
}

/// Turns event recording on or off process-wide. Overrides `CYCADA_TRACE`.
pub fn set_enabled(on: bool) {
    GATE.store(if on { GATE_ON } else { GATE_OFF }, Ordering::Relaxed);
}

// ----------------------------------------------------------------------
// Typed counters
// ----------------------------------------------------------------------

/// The typed trace counters. Failure/lifecycle counters count always;
/// the starred hot-path counters count only while tracing is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Diplomat calls executed (*hot: counts only while tracing*).
    DiplomatCalls,
    /// Persona switches performed (*hot: counts only while tracing*).
    PersonaSwitches,
    /// Impersonations begun.
    ImpersonationsBegun,
    /// Impersonations ended cleanly (finish or drop, all TLS restored).
    ImpersonationsFinished,
    /// Impersonation restore errors swallowed by `Drop` — every one of
    /// these is a thread that may have run with partially foreign TLS.
    ImpersonationDropSwallowedErrors,
    /// `dlforce` replica namespaces created.
    ReplicaLoads,
    /// Namespace-scoped (`Replica::dlopen`) opens.
    NamespacedDlopens,
    /// Namespace-scoped (`Replica::dlsym`) symbol lookups.
    NamespacedDlsyms,
    /// EGL contexts created.
    EglContextsCreated,
    /// EGL contexts destroyed.
    EglContextsDestroyed,
    /// EGL window surfaces created.
    EglSurfacesCreated,
    /// EGL window surfaces destroyed.
    EglSurfacesDestroyed,
    /// EAGL `presentRenderbuffer:` frames.
    EaglPresents,
    /// IOSurface CPU locks.
    IoSurfaceLocks,
    /// IOSurface CPU unlocks.
    IoSurfaceUnlocks,
    /// SurfaceFlinger compositions (full-screen posts and layer composes).
    Compositions,
    /// Bridge row-bytes eviction skipped because the thread-local was
    /// already torn down (thread exit) — each one is a scan entry that
    /// outlives its bridge until the host thread dies.
    RowBytesTeardownSkips,
    /// GPU device contention: a command-list execution found its target
    /// buffer's guard held and had to wait (DESIGN.md §5f). Zero when
    /// sessions render to disjoint buffers.
    DeviceLockWaits,
    /// Gralloc contention: a CPU lock/unlock of a GraphicBuffer found the
    /// pixel guard held by another thread.
    GrallocLockWaits,
    /// SurfaceFlinger contention: a present found the compositor lock
    /// held by another presenter and blocked until it was free.
    FlingerLockWaits,
    /// Compositor tiles skipped because no queued blit's damage
    /// intersected them — their scanout bytes were provably already
    /// correct (DESIGN.md §5g).
    TilesSkippedClean,
    /// Compositor tiles where occlusion culling dropped at least one
    /// lower layer because a later blit fully covered the tile.
    TilesSkippedOccluded,
    /// Damage queries on the present path that fell back to full
    /// damage (journal history exhausted, unprovable write set, or a
    /// scaled blit whose source damage cannot be mapped precisely).
    DamageFullFallbacks,
    /// Journal overflow merges that found a degenerate history shape
    /// (fewer than two entries at the overflow threshold) and fell back
    /// to conservative full damage instead of panicking. Always on:
    /// every bump is a journal whose bounded-history invariant was
    /// violated, answered soundly.
    DamageMergeFallbacks,
    /// Charge-ledger deltas observed to run backwards: a `ThreadSpan`
    /// or `MeterGuard` was read or dropped on a different host thread
    /// than the one that created it, making its ledger delta
    /// meaningless. Always on — each bump is a metered span whose
    /// virtual time was silently lost (credited as zero).
    MeterLedgerInversions,
    /// Fleet tasks executed by a worker other than the one they were
    /// initially queued on (work-stealing migrations).
    FleetTasksStolen,
    /// Fleet tasks that finished after their per-task wall deadline.
    FleetDeadlineMisses,
    /// Teardown errors swallowed when a session's `AppGl` drops. Always
    /// on: there is no caller to report to, and each bump is a context,
    /// surface or drawable the shared device may still be holding.
    SessionTeardownErrors,
}

impl Counter {
    /// Every counter, in declaration order.
    pub const ALL: [Counter; 28] = [
        Counter::DiplomatCalls,
        Counter::PersonaSwitches,
        Counter::ImpersonationsBegun,
        Counter::ImpersonationsFinished,
        Counter::ImpersonationDropSwallowedErrors,
        Counter::ReplicaLoads,
        Counter::NamespacedDlopens,
        Counter::NamespacedDlsyms,
        Counter::EglContextsCreated,
        Counter::EglContextsDestroyed,
        Counter::EglSurfacesCreated,
        Counter::EglSurfacesDestroyed,
        Counter::EaglPresents,
        Counter::IoSurfaceLocks,
        Counter::IoSurfaceUnlocks,
        Counter::Compositions,
        Counter::RowBytesTeardownSkips,
        Counter::DeviceLockWaits,
        Counter::GrallocLockWaits,
        Counter::FlingerLockWaits,
        Counter::TilesSkippedClean,
        Counter::TilesSkippedOccluded,
        Counter::DamageFullFallbacks,
        Counter::DamageMergeFallbacks,
        Counter::MeterLedgerInversions,
        Counter::FleetTasksStolen,
        Counter::FleetDeadlineMisses,
        Counter::SessionTeardownErrors,
    ];

    /// Stable kebab-case name (used in summaries and exports).
    pub fn name(self) -> &'static str {
        match self {
            Counter::DiplomatCalls => "diplomat-calls",
            Counter::PersonaSwitches => "persona-switches",
            Counter::ImpersonationsBegun => "impersonations-begun",
            Counter::ImpersonationsFinished => "impersonations-finished",
            Counter::ImpersonationDropSwallowedErrors => "impersonation-drop-swallowed-errors",
            Counter::ReplicaLoads => "replica-loads",
            Counter::NamespacedDlopens => "namespaced-dlopens",
            Counter::NamespacedDlsyms => "namespaced-dlsyms",
            Counter::EglContextsCreated => "egl-contexts-created",
            Counter::EglContextsDestroyed => "egl-contexts-destroyed",
            Counter::EglSurfacesCreated => "egl-surfaces-created",
            Counter::EglSurfacesDestroyed => "egl-surfaces-destroyed",
            Counter::EaglPresents => "eagl-presents",
            Counter::IoSurfaceLocks => "iosurface-locks",
            Counter::IoSurfaceUnlocks => "iosurface-unlocks",
            Counter::Compositions => "compositions",
            Counter::RowBytesTeardownSkips => "row-bytes-teardown-skips",
            Counter::DeviceLockWaits => "device-lock-waits",
            Counter::GrallocLockWaits => "gralloc-lock-waits",
            Counter::FlingerLockWaits => "flinger-lock-waits",
            Counter::TilesSkippedClean => "tiles-skipped-clean",
            Counter::TilesSkippedOccluded => "tiles-skipped-occluded",
            Counter::DamageFullFallbacks => "damage-full-fallbacks",
            Counter::DamageMergeFallbacks => "damage-merge-fallbacks",
            Counter::MeterLedgerInversions => "meter-ledger-inversions",
            Counter::FleetTasksStolen => "fleet-tasks-stolen",
            Counter::FleetDeadlineMisses => "fleet-deadline-misses",
            Counter::SessionTeardownErrors => "session-teardown-errors",
        }
    }
}

const COUNTER_COUNT: usize = Counter::ALL.len();

static COUNTERS: [AtomicU64; COUNTER_COUNT] =
    [const { AtomicU64::new(0) }; COUNTER_COUNT];

/// Increments a counter by one.
#[inline]
pub fn bump(counter: Counter) {
    COUNTERS[counter as usize].fetch_add(1, Ordering::Relaxed);
}

/// Increments a counter by `n`.
#[inline]
pub fn add(counter: Counter, n: u64) {
    COUNTERS[counter as usize].fetch_add(n, Ordering::Relaxed);
}

/// The current value of a counter.
pub fn counter(counter: Counter) -> u64 {
    COUNTERS[counter as usize].load(Ordering::Relaxed)
}

/// Every counter with its current value, in declaration order.
pub fn counters() -> Vec<(&'static str, u64)> {
    Counter::ALL.iter().map(|c| (c.name(), counter(*c))).collect()
}

// ----------------------------------------------------------------------
// Events
// ----------------------------------------------------------------------

/// Which subsystem an event belongs to (the Chrome `cat` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Diplomat engine: the 11-step call procedure.
    Diplomat,
    /// Thread impersonation lifecycle.
    Impersonation,
    /// Dynamic linker: loads, `dlforce`, namespace-scoped lookups.
    Linker,
    /// Android EGL front: context/surface lifecycle, swaps.
    Egl,
    /// EAGL reimplementation: presents.
    Eagl,
    /// IOSurface service traffic.
    IoSurface,
    /// Gralloc / SurfaceFlinger composition.
    Gralloc,
    /// Bridge-side foreign state management.
    Bridge,
    /// App-level markers.
    App,
}

impl Category {
    /// Stable lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            Category::Diplomat => "diplomat",
            Category::Impersonation => "impersonation",
            Category::Linker => "linker",
            Category::Egl => "egl",
            Category::Eagl => "eagl",
            Category::IoSurface => "iosurface",
            Category::Gralloc => "gralloc",
            Category::Bridge => "bridge",
            Category::App => "app",
        }
    }
}

/// Span (Chrome `ph:"X"`) or instant (`ph:"i"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A duration: wall/virtual start plus wall/virtual duration.
    Span,
    /// A point event.
    Instant,
}

/// One recorded event. Plain `Copy` data so ring slots can be snapshotted
/// under the seqlock protocol.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// Static event name (for diplomat spans, the diplomat's name).
    pub name: &'static str,
    /// Subsystem category.
    pub cat: Category,
    /// Span or instant.
    pub kind: EventKind,
    /// Trace-plane id of the recording host thread (assigned on first
    /// event, from 1).
    pub tid: u64,
    /// Wall-clock nanoseconds since the process trace epoch.
    pub wall_start_ns: u64,
    /// Wall-clock duration (0 for instants).
    pub wall_dur_ns: u64,
    /// The recording thread's charge-ledger position at span start
    /// ([`VirtualClock::thread_charged_ns`]): deterministic virtual time.
    pub virt_start_ns: Nanos,
    /// Virtual nanoseconds the recording thread charged during the span
    /// (0 for instants).
    pub virt_dur_ns: Nanos,
    /// Trace id of the innermost live [`crate::SessionMeter`] scope on the
    /// recording thread (0 = none).
    pub meter: u64,
    /// Event-specific payload (ids, pattern indices, ...).
    pub arg: u64,
}

// ----------------------------------------------------------------------
// Per-thread rings
// ----------------------------------------------------------------------

struct Slot {
    /// Odd = a write is in progress; even value `2*(idx+1)` = the slot
    /// holds the completed event with ring index `idx`.
    seq: AtomicU64,
    data: std::cell::UnsafeCell<MaybeUninit<TraceEvent>>,
}

struct ThreadRing {
    tid: u64,
    /// Next write index (monotonically increasing; slot = head % capacity).
    head: AtomicU64,
    /// Indices below this were logically cleared by `clear()`.
    cleared: AtomicU64,
    slots: Box<[Slot]>,
}

// SAFETY: `data` is only written by the owning thread (single producer via
// the thread-local handle); concurrent readers validate `seq` around the
// copy and discard torn reads, seqlock-style.
unsafe impl Sync for ThreadRing {}
unsafe impl Send for ThreadRing {}

impl ThreadRing {
    fn new(tid: u64) -> Self {
        Self::with_capacity(tid, RING_CAPACITY)
    }

    /// Capacity-parametric constructor: production rings use
    /// [`RING_CAPACITY`]; model-checker tests use tiny rings (see
    /// [`model::RawRing`]) so wraparound interleavings stay explorable.
    fn with_capacity(tid: u64, capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be nonzero");
        ThreadRing {
            tid,
            head: AtomicU64::new(0),
            cleared: AtomicU64::new(0),
            slots: (0..capacity)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    data: std::cell::UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect(),
        }
    }

    /// Schedule-point identity of this ring.
    fn obj(&self) -> usize {
        std::ptr::from_ref(self) as usize
    }

    /// Owner-thread-only append.
    ///
    /// The `trace.push.*` schedule points expose each seqlock state a
    /// concurrent snapshot can observe: before the odd (write-in-progress)
    /// seq store, between the seq store and the data write, between the
    /// data write and the completing even store, and before the head
    /// publish.
    fn push(&self, ev: TraceEvent) {
        let obj = self.obj();
        let idx = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(idx as usize) % self.slots.len()];
        crate::check::schedule_point("trace.push", obj, crate::check::Access::Write);
        slot.seq.store(idx * 2 + 1, Ordering::Release);
        crate::check::schedule_point("trace.push.wip", obj, crate::check::Access::Write);
        // SAFETY: single producer — only the owning thread calls push, and
        // the odd seq word warns readers off while the write is in flight.
        unsafe { (*slot.data.get()).write(ev) };
        crate::check::schedule_point("trace.push.seal", obj, crate::check::Access::Write);
        slot.seq.store((idx + 1) * 2, Ordering::Release);
        crate::check::schedule_point("trace.push.publish", obj, crate::check::Access::Write);
        self.head.store(idx + 1, Ordering::Release);
    }

    /// Copies out every valid, uncleared event. Safe from any thread.
    ///
    /// Work is bounded by construction: one pass over at most
    /// `slots.len()` indices, no retry loop — a torn slot is skipped, not
    /// re-read (the `trace.snap.*` points let the model checker interleave
    /// a writer at both racy windows and confirm the reject-don't-retry
    /// discipline).
    fn snapshot_into(&self, out: &mut Vec<TraceEvent>) {
        let obj = self.obj();
        crate::check::schedule_point("trace.snap.begin", obj, crate::check::Access::Read);
        let head = self.head.load(Ordering::Acquire);
        let floor = self.cleared.load(Ordering::Acquire);
        let start = head.saturating_sub(self.slots.len() as u64).max(floor);
        for idx in start..head {
            let slot = &self.slots[(idx as usize) % self.slots.len()];
            crate::check::schedule_point("trace.snap.read", obj, crate::check::Access::Read);
            let seq1 = slot.seq.load(Ordering::Acquire);
            if seq1 != (idx + 1) * 2 {
                continue; // overwritten by a newer event or mid-write
            }
            // SAFETY: seqlock read — copy the bytes, fence, then re-check
            // the sequence word; a torn copy is discarded un-inspected.
            let ev = unsafe { std::ptr::read(slot.data.get()) };
            fence(Ordering::Acquire);
            crate::check::schedule_point("trace.snap.verify", obj, crate::check::Access::Read);
            if slot.seq.load(Ordering::Relaxed) == seq1 {
                // SAFETY: seq unchanged across the copy, so the slot held
                // a fully initialized event the whole time.
                out.push(unsafe { ev.assume_init() });
            }
        }
    }
}

/// Test-only handles over the trace internals for the `cycada_check`
/// model suite. Hidden: not part of the crate's supported API.
#[doc(hidden)]
pub mod model {
    use super::*;

    /// A standalone seqlock ring with a tiny, explicit capacity, NOT
    /// registered in the global ring registry (so model executions do not
    /// leak rings or perturb real trace output). Synthetic events encode a
    /// self-consistency relation (`wall_start_ns == arg * 3 + 1`) so a
    /// torn read that mixes two events is detectable.
    #[derive(Debug)]
    pub struct RawRing(ThreadRing);

    impl std::fmt::Debug for ThreadRing {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("ThreadRing")
                .field("tid", &self.tid)
                .field("capacity", &self.slots.len())
                .finish()
        }
    }

    impl RawRing {
        /// A ring with `capacity` slots (tid 0, unregistered).
        pub fn with_capacity(capacity: usize) -> Self {
            RawRing(ThreadRing::with_capacity(0, capacity))
        }

        /// Single-producer append of a synthetic event carrying `arg`.
        /// Callers must uphold the owner-thread-only discipline: exactly
        /// one thread of a model may push.
        pub fn push_synthetic(&self, arg: u64) {
            self.0.push(TraceEvent {
                name: "model",
                cat: Category::App,
                kind: EventKind::Instant,
                tid: 0,
                wall_start_ns: arg * 3 + 1,
                wall_dur_ns: 0,
                virt_start_ns: 0,
                virt_dur_ns: 0,
                meter: 0,
                arg,
            });
        }

        /// Snapshot from any thread; returns `(arg, wall_start_ns)` pairs
        /// so tests can assert the torn-read consistency relation.
        pub fn snapshot_pairs(&self) -> Vec<(u64, u64)> {
            let mut out = Vec::new();
            self.0.snapshot_into(&mut out);
            out.iter().map(|ev| (ev.arg, ev.wall_start_ns)).collect()
        }

        /// Ring capacity (snapshot can never return more events).
        pub fn capacity(&self) -> usize {
            self.0.slots.len()
        }
    }
}

static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadRing>>>> = OnceLock::new();
static NEXT_TRACE_TID: AtomicU64 = AtomicU64::new(1);

fn registry() -> &'static Mutex<Vec<Arc<ThreadRing>>> {
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static THREAD_RING: OnceCell<Arc<ThreadRing>> = const { OnceCell::new() };
    /// Stack of live SessionMeter trace ids on this thread (see clock.rs).
    static METER_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn with_ring(f: impl FnOnce(&ThreadRing)) {
    // try_with: recording must stay safe from Drop impls that run during
    // thread TLS teardown (exactly when the interesting events fire); if
    // this thread's ring handle is already destroyed the event is lost,
    // never a panic.
    let _ = THREAD_RING.try_with(|cell| {
        let ring = cell.get_or_init(|| {
            let ring = Arc::new(ThreadRing::new(
                NEXT_TRACE_TID.fetch_add(1, Ordering::Relaxed),
            ));
            registry().lock().push(ring.clone());
            ring
        });
        f(ring);
    });
}

pub(crate) fn push_meter_scope(id: u64) {
    let _ = METER_STACK.try_with(|s| s.borrow_mut().push(id));
}

pub(crate) fn pop_meter_scope() {
    let _ = METER_STACK.try_with(|s| {
        s.borrow_mut().pop();
    });
}

/// Trace id of the innermost live [`crate::SessionMeter`] scope on the
/// calling thread (0 = none).
pub fn current_meter() -> u64 {
    METER_STACK
        .try_with(|s| s.borrow().last().copied().unwrap_or(0))
        .unwrap_or(0)
}

fn wall_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn wall_now_ns() -> u64 {
    wall_epoch().elapsed().as_nanos() as u64
}

// ----------------------------------------------------------------------
// Recording API
// ----------------------------------------------------------------------

/// Records an instant event (no duration). No-op while disabled.
#[inline]
pub fn instant(cat: Category, name: &'static str, arg: u64) {
    if !enabled() {
        return;
    }
    instant_slow(cat, name, arg);
}

#[cold]
fn instant_slow(cat: Category, name: &'static str, arg: u64) {
    with_ring(|ring| {
        ring.push(TraceEvent {
            name,
            cat,
            kind: EventKind::Instant,
            tid: ring.tid,
            wall_start_ns: wall_now_ns(),
            wall_dur_ns: 0,
            virt_start_ns: VirtualClock::thread_charged_ns(),
            virt_dur_ns: 0,
            meter: current_meter(),
            arg,
        });
    });
}

/// Live span state (present only while tracing is enabled).
struct SpanStart {
    cat: Category,
    name: &'static str,
    wall_start_ns: u64,
    virt_start_ns: Nanos,
    arg: u64,
}

/// RAII span: records one [`EventKind::Span`] event covering its lifetime.
/// When tracing is disabled the guard is empty and drop is a no-op branch.
#[must_use = "a span records on drop; binding to _ drops immediately"]
pub struct SpanGuard {
    active: Option<SpanStart>,
}

impl SpanGuard {
    /// Whether this span is live (tracing was enabled at creation).
    /// Use to gate optional extra work (hot counters, arg computation).
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active.is_some()
    }

    /// Sets the span's payload word.
    #[inline]
    pub fn set_arg(&mut self, arg: u64) {
        if let Some(s) = self.active.as_mut() {
            s.arg = arg;
        }
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.active.take() {
            finish_span(start);
        }
    }
}

impl fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpanGuard")
            .field("active", &self.is_active())
            .finish()
    }
}

#[cold]
fn finish_span(start: SpanStart) {
    let wall_end = wall_now_ns();
    let virt_end = VirtualClock::thread_charged_ns();
    with_ring(|ring| {
        ring.push(TraceEvent {
            name: start.name,
            cat: start.cat,
            kind: EventKind::Span,
            tid: ring.tid,
            wall_start_ns: start.wall_start_ns,
            wall_dur_ns: wall_end.saturating_sub(start.wall_start_ns),
            virt_start_ns: start.virt_start_ns,
            virt_dur_ns: virt_end.saturating_sub(start.virt_start_ns),
            meter: current_meter(),
            arg: start.arg,
        });
    });
}

/// Opens a span. One relaxed load when disabled.
#[inline]
pub fn span(cat: Category, name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: None };
    }
    SpanGuard {
        active: Some(SpanStart {
            cat,
            name,
            wall_start_ns: wall_now_ns(),
            virt_start_ns: VirtualClock::thread_charged_ns(),
            arg: 0,
        }),
    }
}

// ----------------------------------------------------------------------
// Draining, clearing, exporting
// ----------------------------------------------------------------------

/// Copies out every buffered event across all threads, oldest first
/// (sorted by wall start, then thread). Does not clear.
pub fn snapshot() -> Vec<TraceEvent> {
    let rings: Vec<Arc<ThreadRing>> = registry().lock().clone();
    let mut out = Vec::new();
    for ring in rings {
        ring.snapshot_into(&mut out);
    }
    out.sort_by_key(|e| (e.wall_start_ns, e.tid));
    out
}

/// Logically clears every thread's buffered events (threads may keep
/// appending concurrently; their new events survive).
pub fn clear() {
    for ring in registry().lock().iter() {
        let head = ring.head.load(Ordering::Acquire);
        ring.cleared.store(head, Ordering::Release);
    }
}

/// [`snapshot`] then [`clear`]: take the buffered events exactly once.
pub fn drain() -> Vec<TraceEvent> {
    let events = snapshot();
    clear();
    events
}

/// Clears events **and** zeroes every counter (test isolation).
pub fn reset() {
    clear();
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
}

/// Exports events as Chrome `trace_event` JSON (load in `chrome://tracing`
/// or Perfetto). Timestamps are microseconds with nanosecond precision;
/// virtual times ride in `args`.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(events.len() * 160 + 64);
    out.push_str("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ts = e.wall_start_ns as f64 / 1_000.0;
        match e.kind {
            EventKind::Span => {
                let dur = e.wall_dur_ns as f64 / 1_000.0;
                write!(
                    out,
                    "{{\"name\":{:?},\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                     \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"virt_start_ns\":{},\
                     \"virt_dur_ns\":{},\"meter\":{},\"arg\":{}}}}}",
                    e.name,
                    e.cat.as_str(),
                    e.tid,
                    ts,
                    dur,
                    e.virt_start_ns,
                    e.virt_dur_ns,
                    e.meter,
                    e.arg,
                )
                .expect("write to String cannot fail");
            }
            EventKind::Instant => {
                write!(
                    out,
                    "{{\"name\":{:?},\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\
                     \"tid\":{},\"ts\":{:.3},\"args\":{{\"virt_ns\":{},\"meter\":{},\
                     \"arg\":{}}}}}",
                    e.name,
                    e.cat.as_str(),
                    e.tid,
                    ts,
                    e.virt_start_ns,
                    e.meter,
                    e.arg,
                )
                .expect("write to String cannot fail");
            }
        }
    }
    out.push_str("]}");
    out
}

/// A plain-text per-function summary: one line per distinct event name
/// with call count, total wall time, and total virtual time, sorted by
/// total virtual time (descending), ties by name — deterministic for a
/// deterministic event set.
pub fn summary(events: &[TraceEvent]) -> String {
    use std::collections::BTreeMap;
    use std::fmt::Write;

    #[derive(Default)]
    struct Row {
        cat: &'static str,
        count: u64,
        wall_ns: u64,
        virt_ns: u64,
    }
    let mut rows: BTreeMap<&'static str, Row> = BTreeMap::new();
    for e in events {
        let row = rows.entry(e.name).or_default();
        row.cat = e.cat.as_str();
        row.count += 1;
        row.wall_ns += e.wall_dur_ns;
        row.virt_ns += e.virt_dur_ns;
    }
    let mut sorted: Vec<(&'static str, Row)> = rows.into_iter().collect();
    sorted.sort_by(|a, b| b.1.virt_ns.cmp(&a.1.virt_ns).then(a.0.cmp(b.0)));

    let mut out = String::new();
    writeln!(
        out,
        "{:<40} {:>13} {:>8} {:>14} {:>14}",
        "name", "category", "count", "virt total ns", "wall total ns"
    )
    .expect("write to String cannot fail");
    for (name, row) in &sorted {
        writeln!(
            out,
            "{:<40} {:>13} {:>8} {:>14} {:>14}",
            name, row.cat, row.count, row.virt_ns, row.wall_ns
        )
        .expect("write to String cannot fail");
    }

    // Typed counters ride along under the per-function rows so one
    // export carries both planes (zero counters are elided; the order
    // is declaration order, hence deterministic).
    let nonzero: Vec<(&'static str, u64)> =
        counters().into_iter().filter(|(_, v)| *v != 0).collect();
    if !nonzero.is_empty() {
        writeln!(out, "\n{:<40} {:>13}", "counter", "value")
            .expect("write to String cannot fail");
        for (name, value) in nonzero {
            writeln!(out, "{:<40} {:>13}", name, value).expect("write to String cannot fail");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// The trace plane is process-global, so tests that toggle the gate
    /// serialize on this lock to stay independent of test threading.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_is_default_and_span_is_inert() {
        let _l = TEST_LOCK.lock();
        set_enabled(false);
        let before = snapshot().len();
        {
            let mut s = span(Category::App, "noop");
            assert!(!s.is_active());
            s.set_arg(7);
        }
        instant(Category::App, "noop-instant", 1);
        assert_eq!(snapshot().len(), before, "disabled recording buffers nothing");
    }

    #[test]
    fn span_records_wall_and_virtual_durations() {
        let _l = TEST_LOCK.lock();
        set_enabled(true);
        clear();
        let clock = VirtualClock::new();
        {
            let mut s = span(Category::Diplomat, "trace_test_span");
            s.set_arg(42);
            clock.charge_ns(123);
        }
        set_enabled(false);
        let events = drain();
        let ev = events
            .iter()
            .find(|e| e.name == "trace_test_span")
            .expect("span recorded");
        assert_eq!(ev.kind, EventKind::Span);
        assert_eq!(ev.virt_dur_ns, 123);
        assert_eq!(ev.arg, 42);
        assert_eq!(ev.cat, Category::Diplomat);
    }

    #[test]
    fn instants_capture_meter_scope() {
        let _l = TEST_LOCK.lock();
        set_enabled(true);
        clear();
        let meter = crate::SessionMeter::new();
        {
            let _scope = meter.enter();
            instant(Category::App, "trace_test_metered", 0);
        }
        instant(Category::App, "trace_test_unmetered", 0);
        set_enabled(false);
        let events = drain();
        let metered = events.iter().find(|e| e.name == "trace_test_metered").unwrap();
        let unmetered = events
            .iter()
            .find(|e| e.name == "trace_test_unmetered")
            .unwrap();
        assert_eq!(metered.meter, meter.trace_id());
        assert_eq!(unmetered.meter, 0);
    }

    #[test]
    fn ring_overwrites_oldest_but_keeps_capacity_newest() {
        let _l = TEST_LOCK.lock();
        set_enabled(true);
        clear();
        // Overfill this thread's ring; arg marks the order.
        let total = RING_CAPACITY + 100;
        for i in 0..total {
            instant(Category::App, "trace_test_wrap", i as u64);
        }
        set_enabled(false);
        let events: Vec<_> = drain()
            .into_iter()
            .filter(|e| e.name == "trace_test_wrap")
            .collect();
        assert_eq!(events.len(), RING_CAPACITY);
        assert_eq!(events.last().unwrap().arg, total as u64 - 1);
        // The survivors are exactly the newest RING_CAPACITY.
        assert!(events.iter().all(|e| (e.arg as usize) >= total - RING_CAPACITY));
    }

    #[test]
    fn cross_thread_events_are_collected_with_distinct_tids() {
        let _l = TEST_LOCK.lock();
        set_enabled(true);
        clear();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                thread::spawn(move || {
                    instant(Category::App, "trace_test_mt", i);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        instant(Category::App, "trace_test_mt", 99);
        set_enabled(false);
        let events: Vec<_> = drain()
            .into_iter()
            .filter(|e| e.name == "trace_test_mt")
            .collect();
        assert_eq!(events.len(), 5, "dead threads' rings are still drained");
        let tids: std::collections::HashSet<u64> = events.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 5, "each thread has its own trace tid");
    }

    #[test]
    fn counters_bump_and_reset() {
        let before = counter(Counter::ReplicaLoads);
        bump(Counter::ReplicaLoads);
        add(Counter::ReplicaLoads, 2);
        assert_eq!(counter(Counter::ReplicaLoads), before + 3);
        let all = counters();
        assert_eq!(all.len(), Counter::ALL.len());
        assert!(all.iter().any(|(n, _)| *n == "replica-loads"));
    }

    #[test]
    fn chrome_json_is_wellformed_enough() {
        let events = [
            TraceEvent {
                name: "glFlush",
                cat: Category::Diplomat,
                kind: EventKind::Span,
                tid: 1,
                wall_start_ns: 1500,
                wall_dur_ns: 2500,
                virt_start_ns: 0,
                virt_dur_ns: 933,
                meter: 3,
                arg: 0,
            },
            TraceEvent {
                name: "impersonation_drop_swallowed",
                cat: Category::Impersonation,
                kind: EventKind::Instant,
                tid: 2,
                wall_start_ns: 9000,
                wall_dur_ns: 0,
                virt_start_ns: 10,
                virt_dur_ns: 0,
                meter: 0,
                arg: 7,
            },
        ];
        let json = chrome_trace_json(&events);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"virt_dur_ns\":933"));
        assert!(json.contains("\"cat\":\"impersonation\""));
        assert_eq!(json.matches("{\"name\"").count(), 2);
    }

    #[test]
    fn summary_aggregates_by_name() {
        let mk = |name, virt| TraceEvent {
            name,
            cat: Category::Egl,
            kind: EventKind::Span,
            tid: 1,
            wall_start_ns: 0,
            wall_dur_ns: 5,
            virt_start_ns: 0,
            virt_dur_ns: virt,
            meter: 0,
            arg: 0,
        };
        let text = summary(&[mk("b", 10), mk("a", 100), mk("b", 20)]);
        let lines: Vec<&str> = text.lines().collect();
        // Header + two rows, then (only if any process-global typed
        // counter is nonzero) a blank line and a counter section.
        assert!(lines.len() >= 3, "header + two rows at minimum");
        assert!(lines.len() == 3 || lines[3].is_empty(), "counters separated by blank line");
        assert!(lines[1].starts_with('a'), "sorted by virtual total desc");
        assert!(lines[2].starts_with('b'));
        assert!(lines[2].contains("30"), "durations aggregate");
    }
}
