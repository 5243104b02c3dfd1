//! Shared helpers for the table/figure regenerator binaries.
//!
//! Each `src/bin/*.rs` binary regenerates one artifact of the paper's
//! evaluation (`table1`..`table3`, `fig5`..`fig10`, `functionality`); this
//! library holds the formatting helpers they share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

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
}
