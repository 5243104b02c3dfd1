//! Virtual time: the calling host thread's charge ledger.
//!
//! Every simulated call runs synchronously on the host thread that issued
//! it, so the ledger attributes costs exactly: a thread's virtual time is
//! what that thread charged, independent of how concurrent sessions
//! interleave on a shared device. Components call [`charge_ns`] to model
//! the cost of an operation; measurements read [`now_ns`] deltas on the
//! same thread, or scope a [`SessionMeter`].
//!
//! # Examples
//!
//! ```
//! use cycada_sim::clock;
//!
//! let start = clock::now_ns();
//! clock::charge_ns(100);
//! clock::charge_ns(25);
//! assert_eq!(clock::now_ns() - start, 125);
//! ```

use std::cell::Cell;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::Nanos;

thread_local! {
    /// Total virtual nanoseconds charged by this host thread.
    static THREAD_CHARGED_NS: Cell<Nanos> = const { Cell::new(0) };
}

/// Charges `ns` nanoseconds to the calling thread's ledger.
#[inline]
pub fn charge_ns(ns: Nanos) {
    THREAD_CHARGED_NS.with(|c| c.set(c.get() + ns));
}

/// Charges a floating-point nanosecond cost, rounded to the nearest
/// nanosecond. Costs scaled by a [`crate::DeviceProfile`] are fractional;
/// rounding per charge keeps totals stable.
pub fn charge_ns_f64(ns: f64) {
    charge_ns(ns.max(0.0).round() as Nanos);
}

/// Total virtual nanoseconds charged by the calling host thread since it
/// started. Only deltas taken on one thread are meaningful.
///
/// # Examples
///
/// ```
/// use cycada_sim::clock;
///
/// let start = clock::now_ns();
/// clock::charge_ns(42);
/// assert_eq!(clock::now_ns() - start, 42);
/// ```
#[inline]
pub fn now_ns() -> Nanos {
    THREAD_CHARGED_NS.with(Cell::get)
}

/// An accumulator of virtual time attributed to one *session* (or any other
/// scope) across host threads.
///
/// A meter is entered on the thread about to drive simulated work; the guard
/// snapshots the thread's charge ledger and, when dropped, credits the delta
/// to the meter. Because charges are attributed per host thread, the metered
/// total for a session is identical whether it runs solo or interleaved with
/// other sessions on the same device.
///
/// Guards of *different* meters may nest (both accumulate the inner charges);
/// re-entering the *same* meter while a guard is live on the same thread
/// would double-count and must be avoided by the caller.
///
/// # Examples
///
/// ```
/// use cycada_sim::{clock, SessionMeter};
///
/// let meter = SessionMeter::new();
/// {
///     let _scope = meter.enter();
///     clock::charge_ns(30);
/// }
/// clock::charge_ns(99); // outside the scope: not metered
/// assert_eq!(meter.total_ns(), 30);
/// ```
#[derive(Clone)]
pub struct SessionMeter {
    ns: Arc<AtomicU64>,
    /// Process-unique id stamped onto trace events recorded inside this
    /// meter's scopes (see [`crate::trace`]). Clones share it.
    trace_id: u64,
}

impl Default for SessionMeter {
    fn default() -> Self {
        static NEXT_METER_TRACE_ID: AtomicU64 = AtomicU64::new(1);
        SessionMeter {
            ns: Arc::new(AtomicU64::new(0)),
            trace_id: NEXT_METER_TRACE_ID.fetch_add(1, Ordering::Relaxed),
        }
    }
}

impl SessionMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// The id trace events use to attribute work to this meter's scope.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Total virtual nanoseconds credited to this meter so far.
    pub fn total_ns(&self) -> Nanos {
        self.ns.load(Ordering::Relaxed)
    }

    /// Credits `ns` nanoseconds directly.
    pub fn add_ns(&self, ns: Nanos) {
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Enters the meter on the calling thread; the returned guard credits
    /// everything this thread charges until it is dropped.
    pub fn enter(&self) -> MeterGuard {
        crate::trace::push_meter_scope(self.trace_id);
        MeterGuard {
            meter: self.clone(),
            start: now_ns(),
            _not_send: PhantomData,
        }
    }

    /// Returns `true` if two handles refer to the same meter.
    pub fn same_meter(&self, other: &SessionMeter) -> bool {
        Arc::ptr_eq(&self.ns, &other.ns)
    }
}

impl fmt::Debug for SessionMeter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionMeter")
            .field("total_ns", &self.total_ns())
            .finish()
    }
}

/// Live scope of a [`SessionMeter`] on one host thread. Dropping the guard
/// credits the thread's charges made during the scope to the meter.
///
/// The guard reads the ledger of the thread that entered the meter, so it
/// cannot leave that thread:
///
/// ```compile_fail
/// use cycada_sim::SessionMeter;
///
/// let guard = SessionMeter::new().enter();
/// std::thread::spawn(move || drop(guard)).join().unwrap();
/// ```
#[must_use = "the meter only accumulates while the guard is alive"]
#[derive(Debug)]
pub struct MeterGuard {
    meter: SessionMeter,
    start: Nanos,
    _not_send: PhantomData<*const ()>,
}

impl MeterGuard {
    /// Nanoseconds charged by this thread since the scope opened (not yet
    /// credited to the meter — that happens on drop).
    pub fn pending_ns(&self) -> Nanos {
        now_ns() - self.start
    }
}

impl Drop for MeterGuard {
    fn drop(&mut self) {
        self.meter.add_ns(self.pending_ns());
        crate::trace::pop_meter_scope();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn starts_at_zero() {
        assert_eq!(thread::spawn(now_ns).join().unwrap(), 0);
    }

    #[test]
    fn charge_accumulates() {
        let start = now_ns();
        charge_ns(10);
        assert_eq!(now_ns() - start, 10);
        charge_ns(5);
        assert_eq!(now_ns() - start, 15);
    }

    #[test]
    fn fractional_charge_rounds() {
        let start = now_ns();
        charge_ns_f64(1.4);
        assert_eq!(now_ns() - start, 1);
        charge_ns_f64(1.5);
        assert_eq!(now_ns() - start, 3);
        charge_ns_f64(-7.0);
        assert_eq!(now_ns() - start, 3, "negative costs clamp to zero");
    }

    #[test]
    fn clones_share_time() {
        let a = SessionMeter::new();
        let b = a.clone();
        {
            let _scope = a.enter();
            charge_ns(7);
        }
        assert_eq!(b.total_ns(), 7);
        assert!(a.same_meter(&b));
        assert!(!a.same_meter(&SessionMeter::new()));
    }

    #[test]
    fn span_measures_elapsed() {
        let base = now_ns();
        charge_ns(100);
        let start = now_ns();
        assert_eq!(start - base, 100);
        charge_ns(50);
        assert_eq!(now_ns() - start, 50);
    }

    #[test]
    fn ledger_ignores_other_threads() {
        let start = now_ns();
        charge_ns(10);
        thread::spawn(|| charge_ns(1_000_000)).join().unwrap();
        charge_ns(5);
        assert_eq!(now_ns() - start, 15, "only this thread's charges count");
    }

    #[test]
    fn meter_credits_scoped_charges_only() {
        let meter = SessionMeter::new();
        charge_ns(100);
        {
            let guard = meter.enter();
            charge_ns(30);
            assert_eq!(guard.pending_ns(), 30);
            assert_eq!(meter.total_ns(), 0, "credited only on drop");
        }
        charge_ns(50);
        assert_eq!(meter.total_ns(), 30);
        {
            let _guard = meter.enter();
            charge_ns(12);
        }
        assert_eq!(meter.total_ns(), 42, "scopes accumulate");
    }

    #[test]
    fn meter_totals_independent_of_interleaving() {
        let meters: Vec<SessionMeter> = (0..4).map(|_| SessionMeter::new()).collect();
        let handles: Vec<_> = meters
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let meter = m.clone();
                thread::spawn(move || {
                    let _scope = meter.enter();
                    for _ in 0..1000 {
                        charge_ns(i as Nanos + 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for (i, m) in meters.iter().enumerate() {
            assert_eq!(m.total_ns(), 1000 * (i as Nanos + 1));
        }
    }

    #[test]
    fn nested_distinct_meters_both_accumulate() {
        let outer = SessionMeter::new();
        let inner = SessionMeter::new();
        assert!(!outer.same_meter(&inner));
        {
            let _o = outer.enter();
            charge_ns(5);
            {
                let _i = inner.enter();
                charge_ns(7);
            }
            charge_ns(2);
        }
        assert_eq!(outer.total_ns(), 14);
        assert_eq!(inner.total_ns(), 7);
    }

    #[test]
    fn concurrent_charges_total_correctly() {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                thread::spawn(|| {
                    let start = now_ns();
                    for _ in 0..1000 {
                        charge_ns(3);
                    }
                    now_ns() - start
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 1000 * 3);
        }
    }
}
