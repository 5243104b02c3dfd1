//! Metric computation and the JSON lines a run prints.

use std::fmt::Write;
use std::time::Duration;

use cycada_sim::trace::Counter;
use cycada_workloads::scenario::Scenario;

use crate::harness::{pct_us, setup_median, Layer, Samples, SetupTimes, TracedRun};
use crate::stats::{median, percentile};
use crate::Args;

/// End-to-end metrics, with units, in output order. Attach wall is not
/// among them: every attach touches fresh memory (the program keeps what
/// each session allocated), so it swings with the host's page-fault cost
/// by more than any bound allows. It is reported per layer instead, as
/// `core.attach_p50_us`, and it is part of `session_p50_us`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("frames_per_s", "1/s"),
    ("frame_p50_us", "us"),
    ("frame_tail_us", "us"),
    ("session_p50_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, with units, in output order. `{s}` stands for
/// each corpus scenario's label.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("diplomat.self_us_per_frame", "us"),
    ("diplomat.calls_per_frame", "count"),
    ("kernel.persona_switches_per_frame", "count"),
    ("eagl.present_self_us_per_frame", "us"),
    ("egl.swap_self_us_per_frame", "us"),
    ("gralloc.post_self_us_per_frame", "us"),
    ("gralloc.composite_self_us_per_frame", "us"),
    ("gralloc.compositions_per_frame", "count"),
    ("gralloc.tiles_skipped_clean_per_frame", "count"),
    ("gralloc.tiles_skipped_occluded_per_frame", "count"),
    ("gralloc.damage_full_fallbacks_per_frame", "count"),
    ("gralloc.flinger_lock_waits_per_frame", "count"),
    ("gralloc.lock_waits_per_frame", "count"),
    ("gpu.device_lock_waits_per_frame", "count"),
    ("linker.dlforce_self_us_per_session", "us"),
    ("linker.replica_loads_per_session", "count"),
    ("egl.contexts_created_per_session", "count"),
    ("core.attach_p50_us", "us"),
    ("core.boot_us", "us"),
    ("core.unspanned_us_per_frame", "us"),
    ("replay.decode_us", "us"),
    ("replay.encode_us_per_session", "us"),
    ("record.frame_ratio", "ratio"),
    ("fleet.tasks_stolen_frac", "ratio"),
    ("fleet.deadline_misses", "count"),
    ("workloads.{s}.frame_p50_us", "us"),
    ("mem.retained_kib_per_session", "KiB"),
    ("trace.covered_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Workload parameters recorded in the host block.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Display of every device.
    pub display: (u32, u32),
    /// Devices the workload drives.
    pub devices: usize,
    /// Threads that drive sessions.
    pub workers: usize,
    /// The percentile `frame_tail_us` reports: the highest of p99 and
    /// p90 that leaves at least ten of a run's frames beyond it.
    pub tail_pct: u32,
}

/// What one run (or one segment of a run) measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// Host block, sample counts and extra figures, as a JSON object.
    pub detail: String,
    /// Sessions attempted.
    pub attempted: u64,
    /// Sessions failed.
    pub failed: u64,
    /// `(name, unit, value)` of every metric, in output order.
    pub metrics: Vec<(String, String, f64)>,
}

impl Output {
    fn new(
        detail: String,
        attempted: u64,
        failed: u64,
        metrics: Vec<(String, &str, f64)>,
    ) -> Output {
        let metrics = metrics
            .into_iter()
            .map(|(n, u, v)| (n, u.to_owned(), v))
            .collect();
        Output {
            detail,
            attempted,
            failed,
            metrics,
        }
    }

    /// The result object: the last line the benchmark prints.
    pub fn result_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics_json(&self.metrics)
        )
    }
}

/// A metric value as JSON (non-finite values, which no measurement
/// should produce, print as 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn metrics_json<U: AsRef<str>>(metrics: &[(String, U, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                num(*v),
                unit.as_ref()
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    // `struct rusage` on Linux: two `struct timeval`s, then fourteen
    // longs starting with `ru_maxrss` (KiB).
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        longs: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut usage = Rusage {
        times: [0; 4],
        longs: [0; 14],
    };
    // SAFETY: `usage` is a writable, correctly sized and aligned
    // `struct rusage`; RUSAGE_SELF (0) is always a valid `who`.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc == 0 {
        usage.longs[0] as f64 / 1024.0
    } else {
        0.0
    }
}

fn host_json(args: &Args, params: &Params) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_owned());
    format!(
        "{{\"cores\": {}, \"profile\": \"{}\", \"git_rev\": \"{}\", \"rustc\": \"{}\", \
         \"os\": \"{}\", \"arch\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \
         \"display\": [{}, {}], \"devices\": {}, \"workers\": {}, \"tail_pct\": {}}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        env("PERFBENCH_GIT_REV"),
        env("PERFBENCH_RUSTC"),
        std::env::consts::OS,
        std::env::consts::ARCH,
        args.workload,
        args.seed,
        args.seconds.as_secs_f64(),
        params.display.0,
        params.display.1,
        params.devices,
        params.workers,
        params.tail_pct,
    )
}

/// Peak resident set when warm-up ended, and at the end of the run.
#[derive(Debug, Clone, Copy)]
pub struct Memory {
    /// MiB after set-up and the fixed warm-up.
    pub warm_mb: f64,
    /// MiB at the end of the measured phase.
    pub end_mb: f64,
}

/// End-to-end metric `name` of samples `s` taken over `wall`.
fn end_to_end_value(
    name: &str,
    s: &Samples,
    wall: Duration,
    setups: &[SetupTimes],
    mem: Memory,
    params: &Params,
) -> f64 {
    match name {
        "frames_per_s" => s.frames_ns.len() as f64 / wall.as_secs_f64(),
        "frame_p50_us" => pct_us(&s.frames_ns, 50),
        "frame_tail_us" => pct_us(&s.frames_ns, params.tail_pct),
        "session_p50_us" => pct_us(&s.sessions_ns, 50),
        "setup_s" => setup_median(setups, |t| t.total_ns) / 1e9,
        // Taken when warm-up ends: the program retains memory per
        // session, so a later reading would scale with the host's speed.
        "peak_rss_mb" => mem.warm_mb,
        other => unreachable!("end-to-end metric {other} has no formula"),
    }
}

fn end_to_end_metrics(
    s: &Samples,
    wall: Duration,
    setups: &[SetupTimes],
    mem: Memory,
    params: &Params,
) -> Vec<(String, &'static str, f64)> {
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            (
                name.to_owned(),
                unit,
                end_to_end_value(name, s, wall, setups, mem, params),
            )
        })
        .collect()
}

fn counts_json(s: &Samples) -> String {
    format!(
        "{{\"frames\": {}, \"sessions\": {}, \"attaches\": {}, \"attempted\": {}, \"failed\": {}}}",
        s.frames_ns.len(),
        s.sessions_ns.len(),
        s.attach_ns.len(),
        s.attempted,
        s.failed
    )
}

/// The untraced run's output.
pub fn end_to_end(
    args: &Args,
    params: &Params,
    setups: &[SetupTimes],
    s: &Samples,
    wall: Duration,
    mem: Memory,
) -> Output {
    let metrics = end_to_end_metrics(s, wall, setups, mem, params);
    let detail = format!(
        "{{\"host\": {}, \"setups\": {}, \"samples\": {}}}",
        host_json(args, params),
        setups.len(),
        counts_json(s)
    );
    Output::new(detail, s.attempted, s.failed, metrics)
}

/// The traced run's output: every per-layer metric (0 where the
/// workload does not exercise the layer).
pub fn traced(
    args: &Args,
    params: &Params,
    setups: &[SetupTimes],
    run: &TracedRun,
    mem: Memory,
) -> Output {
    let t = &run.totals;
    let frames = t.frames.max(1) as f64;
    let sessions = t.sessions.max(1) as f64;
    let layer_us = |l: Layer| t.self_ns.get(&l).copied().unwrap_or(0) as f64 / 1e3;
    let per_frame = |c: Counter| t.counter(c) as f64 / frames;
    let busy = t.busy_ns.max(1) as f64;
    let program = t.program_self_ns() as f64;
    let plain_p50 = percentile(&run.plain.frames_ns, 50) as f64;
    let traced_p50 = percentile(&run.traced.frames_ns, 50) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let record_ratio = ratio(plain_p50, percentile(&run.unrecorded.frames_ns, 50) as f64);
    let encode: Vec<f64> = run.plain.encode_ns.iter().map(|&n| n as f64).collect();
    let fleet = [&run.plain, &run.traced];
    let fleet_tasks: u64 = fleet.iter().map(|s| s.fleet_tasks).sum();
    let stolen: u64 = fleet.iter().map(|s| s.fleet_stolen).sum();

    let mut metrics: Vec<(String, &str, f64)> = Vec::new();
    for (name, unit) in PER_LAYER {
        let value = match name {
            "diplomat.self_us_per_frame" => layer_us(Layer::Diplomat) / frames,
            "diplomat.calls_per_frame" => per_frame(Counter::DiplomatCalls),
            "kernel.persona_switches_per_frame" => per_frame(Counter::PersonaSwitches),
            "eagl.present_self_us_per_frame" => layer_us(Layer::EaglPresent) / frames,
            "egl.swap_self_us_per_frame" => layer_us(Layer::EglSwap) / frames,
            "gralloc.post_self_us_per_frame" => layer_us(Layer::GrallocPost) / frames,
            "gralloc.composite_self_us_per_frame" => layer_us(Layer::GrallocComposite) / frames,
            "gralloc.compositions_per_frame" => per_frame(Counter::Compositions),
            "gralloc.tiles_skipped_clean_per_frame" => per_frame(Counter::TilesSkippedClean),
            "gralloc.tiles_skipped_occluded_per_frame" => per_frame(Counter::TilesSkippedOccluded),
            "gralloc.damage_full_fallbacks_per_frame" => per_frame(Counter::DamageFullFallbacks),
            "gralloc.flinger_lock_waits_per_frame" => per_frame(Counter::FlingerLockWaits),
            "gralloc.lock_waits_per_frame" => per_frame(Counter::GrallocLockWaits),
            "gpu.device_lock_waits_per_frame" => per_frame(Counter::DeviceLockWaits),
            "linker.dlforce_self_us_per_session" => layer_us(Layer::Dlforce) / sessions,
            "linker.replica_loads_per_session" => {
                t.counter(Counter::ReplicaLoads) as f64 / sessions
            }
            "egl.contexts_created_per_session" => {
                t.counter(Counter::EglContextsCreated) as f64 / sessions
            }
            "core.attach_p50_us" => pct_us(&run.plain.attach_ns, 50),
            "core.boot_us" => setup_median(setups, |s| s.boot_ns) / 1e3,
            "core.unspanned_us_per_frame" => (busy - program).max(0.0) / 1e3 / frames,
            "replay.decode_us" => setup_median(setups, |s| s.decode_ns) / 1e3,
            "replay.encode_us_per_session" => median(&encode) / 1e3,
            "record.frame_ratio" => record_ratio,
            "fleet.tasks_stolen_frac" => ratio(stolen as f64, fleet_tasks as f64),
            "fleet.deadline_misses" => {
                fleet.iter().map(|s| s.fleet_deadline_misses).sum::<u64>() as f64
            }
            "workloads.{s}.frame_p50_us" => {
                for scenario in Scenario::CORPUS {
                    let label = scenario.label();
                    let ns = run
                        .plain
                        .scenario_frames_ns
                        .get(label)
                        .map_or(&[][..], |v| v);
                    metrics.push((
                        format!("workloads.{label}.frame_p50_us"),
                        unit,
                        pct_us(ns, 50),
                    ));
                }
                continue;
            }
            "mem.retained_kib_per_session" => {
                let all = [&run.plain, &run.unrecorded, &run.traced];
                let sessions: u64 = all.iter().map(|s| s.attempted).sum();
                ratio((mem.end_mb - mem.warm_mb) * 1024.0, sessions as f64)
            }
            "trace.covered_frac" => program / busy,
            "trace.overhead_frac" => ratio(traced_p50, plain_p50) - 1.0,
            other => unreachable!("per-layer metric {other} has no formula"),
        };
        metrics.push((name.to_owned(), unit, value));
    }

    let untraced = end_to_end_metrics(&run.plain, run.plain_wall, setups, mem, params);
    let mut detail = String::new();
    write!(
        detail,
        "{{\"host\": {}, \"setups\": {}, \"traced_units\": {}, \"overflowed_units\": {}, \
         \"samples_untraced\": {}, \"samples_traced\": {}, \"end_to_end_untraced\": {}}}",
        host_json(args, params),
        setups.len(),
        t.units,
        t.overflowed_units,
        counts_json(&run.plain),
        counts_json(&run.traced),
        metrics_json(&untraced),
    )
    .expect("write to String cannot fail");
    let all = [&run.plain, &run.unrecorded, &run.traced];
    let attempted = all.iter().map(|s| s.attempted).sum();
    let failed = all.iter().map(|s| s.failed).sum();
    Output::new(detail, attempted, failed, metrics)
}

/// Child-process wire form of an [`Output`]: tab-separated lines.
pub fn to_wire(out: &Output) -> String {
    let mut w = format!(
        "detail\t{}\ncount\t{}\t{}\n",
        out.detail, out.attempted, out.failed
    );
    for (name, unit, v) in &out.metrics {
        writeln!(w, "metric\t{name}\t{unit}\t{v}").expect("write to String cannot fail");
    }
    w
}

/// Parses [`to_wire`]'s form.
pub fn from_wire(text: &str) -> Result<Output, String> {
    let mut out = Output {
        detail: String::new(),
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    let mut counted = false;
    for line in text.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        let bad = || format!("bad segment line {line:?}");
        let int = |s: &str| s.parse::<u64>().map_err(|_| bad());
        match f.as_slice() {
            ["detail", d] => out.detail = (*d).to_owned(),
            ["count", a, b] => {
                (out.attempted, out.failed) = (int(a)?, int(b)?);
                counted = true;
            }
            ["metric", name, unit, v] => {
                let v = v.parse::<f64>().map_err(|_| bad())?;
                out.metrics
                    .push(((*name).to_owned(), (*unit).to_owned(), v));
            }
            _ => return Err(bad()),
        }
    }
    if !counted || out.metrics.is_empty() {
        return Err("segment printed no result".into());
    }
    Ok(out)
}

/// Combines the segments of one run: counts add up, each metric is the
/// median of its segments' values, and the detail lists every
/// segment's.
pub fn combine(segments: &[Output]) -> Output {
    let details: Vec<&str> = segments.iter().map(|o| o.detail.as_str()).collect();
    let metrics = segments
        .first()
        .map(|first| {
            first
                .metrics
                .iter()
                .map(|(name, unit, _)| {
                    let values: Vec<f64> = segments
                        .iter()
                        .filter_map(|o| o.metrics.iter().find(|m| &m.0 == name).map(|m| m.2))
                        .collect();
                    (name.clone(), unit.clone(), median(&values))
                })
                .collect()
        })
        .unwrap_or_default();
    Output {
        detail: format!("{{\"segments\": [{}]}}", details.join(", ")),
        attempted: segments.iter().map(|o| o.attempted).sum(),
        failed: segments.iter().map(|o| o.failed).sum(),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn output(attempted: u64, failed: u64, values: [f64; 2]) -> Output {
        Output {
            detail: "{}".into(),
            attempted,
            failed,
            metrics: vec![
                ("frame_p50_us".into(), "us".into(), values[0]),
                ("setup_s".into(), "s".into(), values[1]),
            ],
        }
    }

    #[test]
    fn wire_round_trip() {
        let o = output(12, 1, [123.456789, 0.000_012_5]);
        assert_eq!(from_wire(&to_wire(&o)).expect("parses"), o);
        assert!(from_wire("detail\t{}\n").is_err());
        assert!(from_wire("count\t1\tx\n").is_err());
    }

    #[test]
    fn combine_takes_medians_and_sums() {
        let c = combine(&[
            output(10, 0, [3.0, 1.0]),
            output(10, 1, [1.0, 2.0]),
            output(10, 0, [2.0, 9.0]),
        ]);
        assert_eq!((c.attempted, c.failed), (30, 1));
        assert_eq!(c.metrics[0].2, 2.0);
        assert_eq!(c.metrics[1].2, 2.0);
        assert!(c
            .result_json()
            .starts_with("{\"correct\": false, \"attempted\": 30, \"failed\": 1,"));
    }
}
