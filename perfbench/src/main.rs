//! The repository benchmark: end-to-end host wall time of the Cycada
//! stack on four closed-loop workloads, and a traced run that splits it
//! into per-layer self time. See `perfbench/README.md`.
//!
//! ```text
//! cycada-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cycada-perfbench --print-golden
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The line before it
//! holds, for every segment, the host block, the sample counts and, for
//! a traced run, the untraced end-to-end figures measured next to it.
//!
//! A run is cut into segments of at most [`segment_seconds`], each in a
//! child process of its own (`--segment`), and every metric is the
//! median of its segments' values. The program retains memory for every
//! session it attaches, so one process per segment keeps a run's memory
//! bounded whatever its length.

mod corpus;
mod fleet;
mod harness;
mod hd;
mod report;
mod selftime;
mod stats;

use std::process::ExitCode;
use std::time::Duration;

use harness::{set_up, timed_phase, traced_phase, warm_up, SetupTimes, Workload};

/// The workloads, by name.
pub const WORKLOADS: [&str; 4] = ["corpus-replay", "corpus-record", "fleet-churn", "hd-scenes"];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured wall per run.
    pub seconds: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Whether this process measures one segment for a parent process.
    pub segment: bool,
}

/// The longest segment of a workload, in seconds, chosen so that no
/// process passes about 700 MiB. `hd-scenes` retains 16 MiB per app
/// session but attaches only six per panel session of about 2.5 s, and
/// each segment repeats a panel session as warm-up, so its segments are
/// longer.
pub fn segment_seconds(workload: &str) -> f64 {
    if workload == "hd-scenes" {
        12.0
    } else {
        2.5
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut segment) = (None, None, false, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--segment" => segment = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        segment,
    })
}

/// Refuses environment settings that would change what a workload does.
fn check_env() -> Result<(), String> {
    if std::env::var_os("CYCADA_REPLAY_FAULT").is_some_and(|v| !v.is_empty()) {
        return Err("CYCADA_REPLAY_FAULT is set: replays would diverge on purpose".into());
    }
    if !cycada_sim::replay::master_enabled() {
        return Err(
            "CYCADA_RECORD turns the recorder off: corpus-record would record nothing".into(),
        );
    }
    Ok(())
}

/// Sets up the named workload [`harness::SETUP_REPS`] times.
fn build(args: &Args) -> Result<(Box<dyn Workload>, Vec<SetupTimes>), String> {
    fn boxed<W: Workload + 'static>(
        r: Result<(W, Vec<SetupTimes>), String>,
    ) -> Result<(Box<dyn Workload>, Vec<SetupTimes>), String> {
        r.map(|(w, t)| (Box::new(w) as Box<dyn Workload>, t))
    }
    let seed = args.seed;
    match args.workload.as_str() {
        "corpus-replay" => boxed(set_up(|| corpus::CorpusReplay::setup(seed))),
        "corpus-record" => boxed(set_up(|| corpus::CorpusRecord::setup(seed))),
        "fleet-churn" => boxed(set_up(|| fleet::FleetChurn::setup(seed))),
        _ => boxed(set_up(|| hd::HdScenes::setup(seed))),
    }
}

/// The named workload's parameters, for the host block.
fn params(workload: &str) -> report::Params {
    match workload {
        "corpus-replay" | "corpus-record" => report::Params {
            display: cycada_replay::corpus::ENTRIES[0].display,
            devices: 1,
            workers: 1,
            tail_pct: 99,
        },
        "fleet-churn" => report::Params {
            display: (48, 32),
            devices: 1,
            workers: fleet::workers(),
            tail_pct: 99,
        },
        // About a hundred refreshes a run: too few for p99.
        _ => report::Params {
            display: hd::DISPLAY,
            devices: 1,
            workers: 1,
            tail_pct: 90,
        },
    }
}

fn run(args: &Args) -> Result<report::Output, String> {
    check_env()?;
    let (mut w, setups) = build(args)?;
    let params = params(&args.workload);
    let (warm_attempted, warm_failed) = warm_up(w.as_mut());
    let warm_mb = report::peak_rss_mb();
    let mut out = if args.trace {
        let traced = traced_phase(w.as_mut(), args.seconds);
        let mem = report::Memory {
            warm_mb,
            end_mb: report::peak_rss_mb(),
        };
        report::traced(args, &params, &setups, &traced, mem)
    } else {
        let (samples, wall) = timed_phase(w.as_mut(), args.seconds);
        let mem = report::Memory {
            warm_mb,
            end_mb: report::peak_rss_mb(),
        };
        report::end_to_end(args, &params, &setups, &samples, wall, mem)
    };
    out.attempted += warm_attempted;
    out.failed += warm_failed;
    Ok(out)
}

/// Runs every segment of a run in a child process, one after another,
/// and combines them.
fn coordinate(args: &Args) -> Result<report::Output, String> {
    check_env()?;
    let total = args.seconds.as_secs_f64();
    let count = (total / segment_seconds(&args.workload)).ceil().max(1.0) as u32;
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut segments = Vec::new();
    for _ in 0..count {
        let child = std::process::Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &(total / f64::from(count)).to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }, "--segment"])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("starting a segment: {e}"))?;
        if !child.status.success() {
            return Err(format!("a segment failed ({})", child.status));
        }
        segments.push(report::from_wire(&String::from_utf8_lossy(&child.stdout))?);
    }
    Ok(report::combine(&segments))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--print-golden") {
        return match hd::golden_text() {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.segment {
        run(&args)
    } else {
        coordinate(&args)
    };
    match result {
        Ok(out) if args.segment => {
            print!("{}", report::to_wire(&out));
            ExitCode::SUCCESS
        }
        Ok(out) => {
            println!("{}", out.detail);
            println!("{}", out.result_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "hd-scenes",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload, "hd-scenes");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, Duration::from_secs(10));
        assert!(a.trace);
        assert!(args(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "hd-scenes", "--seconds", "1"]).is_err());
        assert!(args(&[
            "--workload",
            "hd-scenes",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
    }

    /// Every workload, briefly, with every check on: untraced then traced.
    /// Run with `cargo test --release` (debug builds are slow).
    #[test]
    fn smoke_every_workload() {
        for name in WORKLOADS {
            for trace in [false, true] {
                let a = Args {
                    workload: name.to_owned(),
                    seed: 11,
                    seconds: Duration::from_millis(200),
                    trace,
                    segment: true,
                };
                let out = run(&a).unwrap_or_else(|e| panic!("{name}: {e}"));
                let result = out.result_json();
                assert!(result.starts_with("{\"correct\": true"), "{name}: {result}");
                assert_eq!(out.failed, 0, "{name}");
                let names: &[(&str, &str)] = if trace {
                    &report::PER_LAYER
                } else {
                    &report::END_TO_END
                };
                for (metric, _) in names {
                    let metric = metric.replace("{s}", "passmark");
                    assert!(
                        out.metrics.iter().any(|m| m.0 == metric),
                        "{name}: no {metric}"
                    );
                }
            }
        }
    }
}
