//! Per-function virtual-time accounting.
//!
//! Figures 7–10 of the paper report, for the top GLES/EAGL-bridge
//! functions, the percentage of total graphics time consumed and the
//! average time per call. [`FunctionStats`] is the instrumentation that
//! collects exactly those two quantities for every named function in the
//! simulated graphics stack.
//!
//! # One locked table per collector
//!
//! Storage is a single `Mutex<Vec<FunctionRecord>>` indexed by
//! [`FnId::index`] and grown on first record of an id. The lock is meant
//! to be uncontended: a session's collector is written by the one host
//! thread that drives it, and a device's engine-wide collector is striped
//! per host thread by its owner (`cycada-diplomat`'s `DiplomatEngine`),
//! which merges the stripes for readers. A collector that never records
//! allocates nothing beyond its `Arc`, which keeps `attach_session` cheap.
//!
//! Totals stay exact and deterministic: per-function sums are `u64`
//! additions, which commute, so any interleaving of recording threads
//! yields byte-identical snapshots — the property the figure regenerators
//! rely on. Names are re-attached from the intern table only at snapshot
//! time ([`FunctionStats::ranked_by_total`]).

use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::intern::FnId;
use crate::Nanos;

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

    /// True for a slot no call or pre-aggregated record has touched.
    fn is_zero(&self) -> bool {
        self.calls == 0 && self.total_ns == 0
    }

    /// Adds `calls` and `ns`, wrapping on overflow instead of panicking in
    /// debug builds: accounting must never abort the call it records.
    fn add(&mut self, calls: u64, ns: Nanos) {
        self.calls = self.calls.wrapping_add(calls);
        self.total_ns = self.total_ns.wrapping_add(ns);
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
    /// One record per [`FnId::index`]; ids past the end were never recorded.
    inner: Arc<Mutex<Vec<FunctionRecord>>>,
}

impl FunctionStats {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `calls` and `ns` to `id`'s record, growing the table to reach it.
    fn add(&self, id: FnId, calls: u64, ns: Nanos) {
        let mut table = self.inner.lock();
        let i = id.index();
        if i >= table.len() {
            table.resize(i + 1, FunctionRecord::default());
        }
        table[i].add(calls, ns);
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
    /// nanoseconds: one lock, one indexed add.
    pub fn record_id(&self, id: FnId, ns: Nanos) {
        self.add(id, 1, ns);
    }

    /// Returns the record for `name`, if it was ever called.
    pub fn get(&self, name: &str) -> Option<FunctionRecord> {
        self.get_id(FnId::lookup(name)?)
    }

    /// Returns the record for the interned function `id`, if it was ever
    /// called on this collector.
    pub fn get_id(&self, id: FnId) -> Option<FunctionRecord> {
        let record = *self.inner.lock().get(id.index())?;
        (!record.is_zero()).then_some(record)
    }

    /// Total virtual time across all recorded functions.
    pub fn total_ns(&self) -> Nanos {
        self.inner.lock().iter().map(|r| r.total_ns).sum()
    }

    /// Total number of recorded calls across all functions.
    pub fn total_calls(&self) -> u64 {
        self.inner.lock().iter().map(|r| r.calls).sum()
    }

    /// Number of distinct functions with at least one recorded call or
    /// pre-aggregated record.
    pub fn function_count(&self) -> usize {
        self.inner.lock().iter().filter(|r| !r.is_zero()).count()
    }

    /// All functions ranked by descending total time, each annotated with
    /// its share of the grand total — the layout of Figures 7 and 8.
    pub fn ranked_by_total(&self) -> Vec<FunctionShare> {
        let table = self.inner.lock().clone();
        let total: Nanos = table.iter().map(|r| r.total_ns).sum();
        let mut rows: Vec<FunctionShare> = FnId::all()
            .zip(table)
            .filter(|(_, record)| !record.is_zero())
            .map(|(id, record)| FunctionShare {
                name: id.name().to_owned(),
                record,
                percent_of_total: if total == 0 {
                    0.0
                } else {
                    100.0 * record.total_ns as f64 / total as f64
                },
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
        self.add(id, record.calls, record.total_ns);
    }

    /// Merges another collector's records into this one.
    ///
    /// `other`'s table is copied out before `self` is locked, so merging a
    /// clone of this very collector doubles it instead of deadlocking.
    pub fn merge(&self, other: &FunctionStats) {
        let theirs = other.inner.lock().clone();
        let mut table = self.inner.lock();
        if theirs.len() > table.len() {
            table.resize(theirs.len(), FunctionRecord::default());
        }
        for (mine, record) in table.iter_mut().zip(theirs) {
            mine.add(record.calls, record.total_ns);
        }
    }

    /// Clears all recorded data.
    pub fn reset(&self) {
        self.inner.lock().clear();
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
    fn merging_a_clone_of_itself_doubles_every_record() {
        let s = FunctionStats::new();
        s.record("stats_test_self_a", 10);
        s.record("stats_test_self_a", 20);
        s.record("stats_test_self_b", 7);
        // Run the merge off-thread so a self-deadlock fails the test
        // instead of hanging it.
        let (done, finished) = std::sync::mpsc::channel();
        let t = s.clone();
        std::thread::spawn(move || {
            t.merge(&t.clone());
            done.send(()).unwrap();
        });
        finished
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("merging a collector with its own clone must return");
        assert_eq!(
            s.get("stats_test_self_a"),
            Some(FunctionRecord {
                calls: 4,
                total_ns: 60
            })
        );
        assert_eq!(
            s.get("stats_test_self_b"),
            Some(FunctionRecord {
                calls: 2,
                total_ns: 14
            })
        );
        assert_eq!(s.total_calls(), 6);
        assert_eq!(s.total_ns(), 74);
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
