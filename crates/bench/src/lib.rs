//! Shared helpers for the table/figure regenerator binaries.
//!
//! Each `src/bin/*.rs` binary regenerates one artifact of the paper's
//! evaluation (`table1`..`table3`, `fig5`..`fig10`, `functionality`); this
//! library holds the formatting helpers they share, plus
//! [`LegacyStringStats`], the baseline side of the `dispatch` bench.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::Arc;

use cycada_sim::stats::FunctionRecord;
use cycada_sim::Nanos;
use parking_lot::Mutex;

/// The pre-refactor accumulator: one mutex-guarded `String`-keyed map.
///
/// Kept only as the baseline side of the `dispatch` micro-benchmark's
/// "legacy" rows. Not used by any dispatch path.
#[derive(Clone, Default, Debug)]
pub struct LegacyStringStats {
    inner: Arc<Mutex<HashMap<String, FunctionRecord>>>,
}

impl LegacyStringStats {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one call to `name` costing `ns` virtual nanoseconds by
    /// locking the map and hashing the name — the old per-call cost.
    pub fn record(&self, name: &str, ns: Nanos) {
        let mut map = self.inner.lock();
        let entry = map.entry(name.to_owned()).or_default();
        entry.calls += 1;
        entry.total_ns += ns;
    }

    /// Total virtual time across all recorded functions (O(n) scan).
    pub fn total_ns(&self) -> Nanos {
        self.inner.lock().values().map(|r| r.total_ns).sum()
    }

    /// Total recorded calls across all functions (O(n) scan).
    pub fn total_calls(&self) -> u64 {
        self.inner.lock().values().map(|r| r.calls).sum()
    }
}

/// Prints a rule line of the given width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Formats a nanosecond value the way the paper's tables do.
pub fn fmt_ns(ns: u64) -> String {
    format!("{ns} ns")
}

/// Formats a nanosecond value as microseconds (Figures 9 and 10).
pub fn fmt_us(ns: f64) -> String {
    format!("{:.0}", ns / 1_000.0)
}

/// Formats a ratio with two decimals.
pub fn fmt_ratio(r: f64) -> String {
    format!("{r:.2}")
}

/// A simple fixed-width row printer.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (cell, width) in cells.iter().zip(widths) {
        line.push_str(&format!("{cell:<width$}  "));
    }
    println!("{}", line.trim_end());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(fmt_ns(225), "225 ns");
        assert_eq!(fmt_us(933_000.0), "933");
        assert_eq!(fmt_ratio(4.4219), "4.42");
    }

    #[test]
    fn legacy_stats_match_semantics() {
        let s = LegacyStringStats::new();
        s.record("stats_test_legacy", 10);
        s.record("stats_test_legacy", 20);
        assert_eq!(s.total_ns(), 30);
        assert_eq!(s.total_calls(), 2);
    }
}
