//! Per-function virtual-time accounting.
//!
//! Figures 7–10 of the paper report, for the top GLES/EAGL-bridge
//! functions, the percentage of total graphics time consumed and the
//! average time per call. [`FunctionStats`] is the instrumentation that
//! collects exactly those two quantities for every named function in the
//! simulated graphics stack.
//!
//! # Sharded accumulator
//!
//! Recording sits on the per-call diplomat dispatch path, so it must not
//! serialize the simulated stack. Storage is a set of cache-line-padded
//! shards (boxed lazily on first record, so an idle collector — and thus
//! `attach_session` — costs a few hundred bytes, not tens of kilobytes),
//! each a dense table of atomic `(calls, ns)` slots keyed by
//! [`FnId`]; every thread is assigned a shard round-robin and records with
//! two relaxed `fetch_add`s plus two running-total bumps on its own shard.
//! No locks, no hashing, no allocation in the steady state.
//!
//! Totals stay exact and deterministic: per-function sums are `u64`
//! additions, which commute, so any interleaving of recording threads
//! yields byte-identical snapshots — the property the figure regenerators
//! rely on. Names are re-attached from the intern table only at snapshot
//! time ([`FunctionStats::ranked_by_total`]).

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::intern::{CachePadded, FnDense, FnId};
use crate::Nanos;

/// Number of shards; a small power of two well above typical simulated
/// thread counts.
const SHARDS: usize = 16;

/// Accumulated measurements for one named function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FunctionRecord {
    /// Number of calls observed.
    pub calls: u64,
    /// Total virtual nanoseconds attributed to the function.
    pub total_ns: Nanos,
}

impl FunctionRecord {
    /// Average virtual nanoseconds per call (0 when never called).
    pub fn avg_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

/// A named function's share of the total recorded time.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionShare {
    /// The function name as recorded.
    pub name: String,
    /// The raw record.
    pub record: FunctionRecord,
    /// Percentage of the total recorded time (0–100).
    pub percent_of_total: f64,
}

/// One per-function counter slot. Zero-initialized; bumped with relaxed
/// atomics from the recording thread's shard.
#[derive(Debug, Default)]
struct Slot {
    calls: AtomicU64,
    ns: AtomicU64,
}

/// One shard: a dense slot table plus running totals so `total_ns()` /
/// `total_calls()` are O(shards) reads instead of a full-table scan.
#[derive(Debug, Default)]
struct Shard {
    slots: FnDense<Slot>,
    total_calls: AtomicU64,
    total_ns: AtomicU64,
}

/// Shards are allocated on a thread's first record, not up front: every
/// session carries its own collector, and `attach_session` must stay a
/// sub-microsecond operation. An eager `[Shard; SHARDS]` is ~65 KiB of
/// `OnceLock` arrays per collector; allocating and freeing that block on
/// every attach fragments the heap badly enough to turn attach from ~10 µs
/// into milliseconds once a device has churned a few thousand sessions.
/// Lazily boxed shards make an idle collector a couple of hundred bytes and
/// a recording session pay only for the shards its threads actually touch.
#[derive(Debug, Default)]
struct Storage {
    shards: [OnceLock<Box<CachePadded<Shard>>>; SHARDS],
}

impl Storage {
    /// The calling thread's home shard index (round-robin at first use).
    fn home_shard() -> usize {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        thread_local! {
            static HOME: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
        }
        HOME.with(|h| *h)
    }

    fn add(&self, id: FnId, calls: u64, ns: Nanos) {
        let shard = self.shards[Self::home_shard()]
            .get_or_init(|| Box::new(CachePadded::new(Shard::default())));
        let slot = shard.slots.slot(id);
        slot.calls.fetch_add(calls, Ordering::Relaxed);
        slot.ns.fetch_add(ns, Ordering::Relaxed);
        shard.total_calls.fetch_add(calls, Ordering::Relaxed);
        shard.total_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// The shards that have been touched so far.
    fn live_shards(&self) -> impl Iterator<Item = &Shard> {
        self.shards.iter().filter_map(|s| s.get().map(|b| &***b))
    }

    /// Sums one function's record across all shards.
    fn record_for(&self, id: FnId) -> FunctionRecord {
        let mut rec = FunctionRecord::default();
        for shard in self.live_shards() {
            if let Some(slot) = shard.slots.peek(id) {
                rec.calls += slot.calls.load(Ordering::Relaxed);
                rec.total_ns += slot.ns.load(Ordering::Relaxed);
            }
        }
        rec
    }
}

/// Thread-safe registry of per-function call counts and virtual time.
///
/// Cloning is cheap and shares the underlying storage, so one collector can
/// be threaded through the whole simulated graphics stack.
///
/// # Examples
///
/// ```
/// use cycada_sim::stats::FunctionStats;
///
/// let stats = FunctionStats::new();
/// stats.record("glClear", 939_000);
/// stats.record("glFlush", 506_000);
/// stats.record("glFlush", 494_000);
/// let top = stats.ranked_by_total();
/// assert_eq!(top[0].name, "glFlush");
/// assert_eq!(top[0].record.calls, 2);
/// ```
#[derive(Clone, Default)]
pub struct FunctionStats {
    inner: Arc<Storage>,
}

impl FunctionStats {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one call to `name` costing `ns` virtual nanoseconds.
    ///
    /// Interns `name` on every call; dispatch paths that already hold a
    /// [`FnId`] (or can cache one with [`crate::fn_id!`]) should use
    /// [`FunctionStats::record_id`] instead.
    pub fn record(&self, name: &str, ns: Nanos) {
        self.record_id(FnId::intern(name), ns);
    }

    /// Records one call to the interned function `id` costing `ns` virtual
    /// nanoseconds. Lock-free: two relaxed counter bumps on the calling
    /// thread's shard plus its running totals.
    pub fn record_id(&self, id: FnId, ns: Nanos) {
        self.inner.add(id, 1, ns);
    }

    /// Returns the record for `name`, if it was ever called.
    pub fn get(&self, name: &str) -> Option<FunctionRecord> {
        self.get_id(FnId::lookup(name)?)
    }

    /// Returns the record for the interned function `id`, if it was ever
    /// called on this collector.
    pub fn get_id(&self, id: FnId) -> Option<FunctionRecord> {
        let record = self.inner.record_for(id);
        if record.calls == 0 && record.total_ns == 0 {
            None
        } else {
            Some(record)
        }
    }

    /// Total virtual time across all recorded functions. O(shards): sums
    /// the running per-shard totals, no table scan.
    pub fn total_ns(&self) -> Nanos {
        self.inner
            .live_shards()
            .map(|s| s.total_ns.load(Ordering::Relaxed))
            .sum()
    }

    /// Total number of recorded calls across all functions. O(shards).
    pub fn total_calls(&self) -> u64 {
        self.inner
            .live_shards()
            .map(|s| s.total_calls.load(Ordering::Relaxed))
            .sum()
    }

    /// Number of distinct functions with at least one recorded call or
    /// pre-aggregated record.
    pub fn function_count(&self) -> usize {
        FnId::all()
            .filter(|&id| {
                let r = self.inner.record_for(id);
                r.calls != 0 || r.total_ns != 0
            })
            .count()
    }

    /// All functions ranked by descending total time, each annotated with
    /// its share of the grand total — the layout of Figures 7 and 8.
    pub fn ranked_by_total(&self) -> Vec<FunctionShare> {
        let total = self.total_ns();
        let mut rows: Vec<FunctionShare> = FnId::all()
            .filter_map(|id| {
                let record = self.inner.record_for(id);
                if record.calls == 0 && record.total_ns == 0 {
                    return None;
                }
                Some(FunctionShare {
                    name: id.name().to_owned(),
                    record,
                    percent_of_total: if total == 0 {
                        0.0
                    } else {
                        100.0 * record.total_ns as f64 / total as f64
                    },
                })
            })
            .collect();
        rows.sort_by(|a, b| {
            b.record
                .total_ns
                .cmp(&a.record.total_ns)
                .then_with(|| a.name.cmp(&b.name))
        });
        rows
    }

    /// The top `n` functions by total time.
    pub fn top_n(&self, n: usize) -> Vec<FunctionShare> {
        let mut rows = self.ranked_by_total();
        rows.truncate(n);
        rows
    }

    /// Adds a pre-aggregated record (used when merging collectors).
    pub fn add_record(&self, name: &str, record: FunctionRecord) {
        self.add_record_id(FnId::intern(name), record);
    }

    /// Adds a pre-aggregated record under an already-interned id.
    pub fn add_record_id(&self, id: FnId, record: FunctionRecord) {
        self.inner.add(id, record.calls, record.total_ns);
    }

    /// Merges another collector's records into this one.
    pub fn merge(&self, other: &FunctionStats) {
        for id in FnId::all() {
            let record = other.inner.record_for(id);
            if record.calls != 0 || record.total_ns != 0 {
                self.add_record_id(id, record);
            }
        }
    }

    /// Clears all recorded data.
    pub fn reset(&self) {
        for shard in self.inner.live_shards() {
            for id in FnId::all() {
                if let Some(slot) = shard.slots.peek(id) {
                    slot.calls.store(0, Ordering::Relaxed);
                    slot.ns.store(0, Ordering::Relaxed);
                }
            }
            shard.total_calls.store(0, Ordering::Relaxed);
            shard.total_ns.store(0, Ordering::Relaxed);
        }
    }
}

impl fmt::Debug for FunctionStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FunctionStats")
            .field("functions", &self.function_count())
            .field("total_ns", &self.total_ns())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats() {
        let s = FunctionStats::new();
        assert_eq!(s.total_ns(), 0);
        assert_eq!(s.total_calls(), 0);
        assert_eq!(s.function_count(), 0);
        assert!(s.ranked_by_total().is_empty());
        assert!(s.get("stats_test_glClear_never").is_none());
    }

    #[test]
    fn record_accumulates_per_function() {
        let s = FunctionStats::new();
        s.record("stats_test_a", 10);
        s.record("stats_test_a", 30);
        s.record("stats_test_b", 5);
        let a = s.get("stats_test_a").unwrap();
        assert_eq!(a.calls, 2);
        assert_eq!(a.total_ns, 40);
        assert_eq!(a.avg_ns(), 20.0);
        assert_eq!(s.total_ns(), 45);
        assert_eq!(s.total_calls(), 3);
        assert_eq!(s.function_count(), 2);
    }

    #[test]
    fn record_id_matches_record_by_name() {
        let s = FunctionStats::new();
        let id = FnId::intern("stats_test_by_id");
        s.record_id(id, 21);
        s.record("stats_test_by_id", 21);
        assert_eq!(
            s.get("stats_test_by_id"),
            Some(FunctionRecord {
                calls: 2,
                total_ns: 42
            })
        );
    }

    #[test]
    fn ranking_and_shares() {
        let s = FunctionStats::new();
        s.record("stats_test_hot", 75);
        s.record("stats_test_cold", 25);
        let rows = s.ranked_by_total();
        assert_eq!(rows[0].name, "stats_test_hot");
        assert!((rows[0].percent_of_total - 75.0).abs() < 1e-9);
        assert!((rows[1].percent_of_total - 25.0).abs() < 1e-9);
    }

    #[test]
    fn ranking_ties_break_by_name() {
        let s = FunctionStats::new();
        s.record("stats_test_zeta", 10);
        s.record("stats_test_alpha", 10);
        let rows = s.ranked_by_total();
        assert_eq!(rows[0].name, "stats_test_alpha");
    }

    #[test]
    fn top_n_truncates() {
        let s = FunctionStats::new();
        for (i, name) in [
            "stats_test_t_a",
            "stats_test_t_b",
            "stats_test_t_c",
            "stats_test_t_d",
        ]
        .iter()
        .enumerate()
        {
            s.record(name, (i as u64 + 1) * 10);
        }
        let top = s.top_n(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].name, "stats_test_t_d");
    }

    #[test]
    fn clones_share_storage_and_reset_clears() {
        let s = FunctionStats::new();
        let t = s.clone();
        t.record("stats_test_x", 1);
        assert_eq!(s.total_calls(), 1);
        s.reset();
        assert_eq!(t.total_calls(), 0);
    }

    #[test]
    fn merge_combines_collectors() {
        let a = FunctionStats::new();
        let b = FunctionStats::new();
        a.record("stats_test_m", 10);
        b.record("stats_test_m", 5);
        b.record("stats_test_n", 1);
        a.merge(&b);
        assert_eq!(a.get("stats_test_m").unwrap().total_ns, 15);
        assert_eq!(a.get("stats_test_n").unwrap().calls, 1);
        // b is untouched by the merge.
        assert_eq!(b.total_calls(), 2);
    }

    #[test]
    fn multithreaded_totals_are_exact() {
        let s = FunctionStats::new();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        s.record("stats_test_mt", 3);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let rec = s.get("stats_test_mt").unwrap();
        assert_eq!(rec.calls, 8_000);
        assert_eq!(rec.total_ns, 24_000);
        assert_eq!(s.total_calls(), 8_000);
        assert_eq!(s.total_ns(), 24_000);
    }

    #[test]
    fn zero_call_record_avg_is_zero() {
        assert_eq!(FunctionRecord::default().avg_ns(), 0.0);
    }
}
