//! Latency aggregation and the `BENCH_fleet.json` writer.

use crate::{FleetReport, SessionOutcome};

/// p50/p95/p99 of a latency sample set, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Percentiles {
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

/// Nearest-rank percentiles over `samples` (empty input is all zeros).
///
/// Nearest-rank on the sorted sample set is exact and deterministic —
/// the right choice for a report asserted byte-stable across reruns of
/// the same fleet (modulo the wall-clock fields themselves).
pub fn percentiles(samples: &[u64]) -> Percentiles {
    if samples.is_empty() {
        return Percentiles::default();
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = |p: u64| -> u64 {
        let idx = (p as usize * sorted.len()).div_ceil(100).max(1) - 1;
        sorted[idx.min(sorted.len() - 1)]
    };
    Percentiles { p50: rank(50), p95: rank(95), p99: rank(99) }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn percentiles_json(p: Percentiles) -> String {
    format!("{{\"p50\":{},\"p95\":{},\"p99\":{}}}", p.p50, p.p95, p.p99)
}

/// Renders one fleet report as a JSON object (see `BENCH_fleet.json`).
pub fn report_json(report: &FleetReport) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(1024);
    let attach: Vec<u64> = report.outcomes.iter().map(|o| o.attach_wall_ns).collect();
    let frames: Vec<u64> =
        report.outcomes.iter().flat_map(|o| o.frame_wall_ns.iter().copied()).collect();
    write!(
        out,
        "{{\"name\":\"{}\",\"devices\":{},\"sessions\":{},\"workers\":{},\
         \"frames_per_session\":{},\"seed\":{},\"display\":[{},{}],\
         \"wall_ms\":{:.3},\"frames_total\":{},\"throughput_fps\":{:.1},\
         \"attach_ns\":{},\"frame_ns\":{},\"deadline_misses\":{}",
        json_escape(&report.name),
        report.devices.len(),
        report.outcomes.len(),
        report.workers,
        report.frames_per_session,
        report.seed,
        report.display.0,
        report.display.1,
        report.wall_ns as f64 / 1e6,
        frames.len(),
        frames.len() as f64 / (report.wall_ns as f64 / 1e9),
        percentiles_json(percentiles(&attach)),
        percentiles_json(percentiles(&frames)),
        report.deadline_misses,
    )
    .expect("write to String cannot fail");

    out.push_str(",\"per_device\":[");
    for (i, d) in report.devices.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(
            out,
            "{{\"device\":{},\"sessions\":{},\"virtual_ms\":{:.3},\"efficiency\":{:.2}}}",
            d.device,
            d.sessions,
            d.virtual_ns as f64 / 1e6,
            d.virtual_ns as f64 / report.wall_ns as f64,
        )
        .expect("write to String cannot fail");
    }
    out.push_str("],\"counters\":{");
    let mut first = true;
    for (name, delta) in &report.counter_deltas {
        if *delta == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        write!(out, "\"{}\":{}", json_escape(name), delta).expect("write to String cannot fail");
    }
    out.push_str("}}");
    out
}

/// Renders the committed `BENCH_fleet.json` document from several fleet
/// shapes' reports, under `host`, a JSON object naming the measuring host.
pub fn fleet_json(host: &str, reports: &[FleetReport]) -> String {
    let mut out = format!("{{\"bench\":\"fleet\",\"host\":{host},\"fleets\":[\n");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&report_json(r));
    }
    out.push_str("\n]}\n");
    out
}

/// Per-session determinism digest: the fields two runs of the same seed
/// and config must agree on exactly (wall-clock fields excluded).
pub fn determinism_digest(outcomes: &[SessionOutcome]) -> Vec<(usize, u64, u64)> {
    let mut digest: Vec<(usize, u64, u64)> =
        outcomes.iter().map(|o| (o.session, o.fb_hash, o.virtual_ns)).collect();
    digest.sort_unstable();
    digest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        let p = percentiles(&samples);
        assert_eq!(p.p50, 50);
        assert_eq!(p.p95, 95);
        assert_eq!(p.p99, 99);
        assert_eq!(percentiles(&[]), Percentiles::default());
        let one = percentiles(&[42]);
        assert_eq!((one.p50, one.p95, one.p99), (42, 42, 42));
    }

    #[test]
    fn percentiles_are_order_independent() {
        let a = percentiles(&[5, 1, 9, 3, 7]);
        let b = percentiles(&[9, 7, 5, 3, 1]);
        assert_eq!(a, b);
    }
}
