//! Offline stand-in for the `criterion` crate.
//!
//! The build environment for this repository cannot reach crates.io, so this
//! crate vendors the subset of the Criterion API the workspace's benches
//! use: `Criterion::bench_function`, `Bencher::iter` / `iter_batched`,
//! `BatchSize`, `black_box`, and the `criterion_group!` /
//! `criterion_main!` macros.
//!
//! Measurement model: after a short warm-up the routine is run in batches
//! sized so one batch takes roughly a millisecond of wall-clock time; each
//! batch yields one ns/iter sample. The mean, median and standard deviation
//! over the samples are printed in a Criterion-like line.
//!
//! Extra over real Criterion (used by this repo's perf-baseline tooling):
//! when the `CRITERION_JSON_OUT` environment variable names a file,
//! `criterion_main!` writes every benchmark's summary there as JSON,
//! under a `host` block naming the core count, build profile and git
//! revision the numbers were measured on.
//!
//! Under `cargo test` (cargo passes `--test` to harness-less bench
//! binaries) each benchmark runs a single iteration as a smoke test.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How batched-iteration setup output is grouped (accepted, ignored).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One input per batch.
    PerIteration,
}

/// Summary of one benchmark.
#[derive(Debug, Clone)]
pub struct BenchSummary {
    /// Benchmark id as passed to `bench_function`.
    pub name: String,
    /// Mean nanoseconds per iteration.
    pub mean_ns: f64,
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
    /// Standard deviation of the per-batch samples, in nanoseconds.
    pub std_dev_ns: f64,
    /// Number of measurement samples taken.
    pub samples: usize,
    /// Total iterations measured.
    pub iterations: u64,
}

/// The benchmark driver.
#[derive(Debug)]
pub struct Criterion {
    test_mode: bool,
    measurement: Duration,
    results: Vec<BenchSummary>,
}

impl Default for Criterion {
    fn default() -> Self {
        let test_mode = std::env::args().any(|a| a == "--test");
        Criterion {
            test_mode,
            measurement: Duration::from_millis(250),
            results: Vec::new(),
        }
    }
}

impl Criterion {
    /// Sets the per-benchmark measurement time.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement = d;
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher {
            test_mode: self.test_mode,
            measurement: self.measurement,
            samples: Vec::new(),
            iterations: 0,
        };
        f(&mut bencher);
        if self.test_mode {
            println!("test {id} ... ok (criterion shim smoke run)");
            return self;
        }
        let summary = bencher.summarize(id);
        println!(
            "{:<40} time: [{:>10.2} ns {:>10.2} ns ±{:>8.2} ns]  ({} samples, {} iters)",
            summary.name,
            summary.mean_ns,
            summary.median_ns,
            summary.std_dev_ns,
            summary.samples,
            summary.iterations,
        );
        self.results.push(summary);
        self
    }

    /// Starts a named benchmark group; member benchmarks are reported as
    /// `group/name`, mirroring Criterion's ids.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_owned(),
        }
    }

    /// All summaries measured so far.
    pub fn summaries(&self) -> &[BenchSummary] {
        &self.results
    }

    /// Writes summaries as JSON to `CRITERION_JSON_OUT` (if set). Called by
    /// `criterion_main!`.
    pub fn final_summary(&self) {
        let Ok(path) = std::env::var("CRITERION_JSON_OUT") else {
            return;
        };
        if path.is_empty() || self.test_mode {
            return;
        }
        let mut out = format!("{{\n  \"host\": {},\n  \"benchmarks\": [\n", host_json());
        for (i, s) in self.results.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"mean_ns\": {:.2}, \"median_ns\": {:.2}, \"std_dev_ns\": {:.2}, \"samples\": {}, \"iterations\": {}}}{}\n",
                s.name,
                s.mean_ns,
                s.median_ns,
                s.std_dev_ns,
                s.samples,
                s.iterations,
                if i + 1 == self.results.len() { "" } else { "," },
            ));
        }
        out.push_str("  ]\n}\n");
        if let Err(e) = std::fs::write(&path, out) {
            eprintln!("criterion shim: could not write {path}: {e}");
        }
    }
}

/// The measuring host: available cores, build profile, and the short
/// git revision of the working directory ("unknown" outside a checkout).
fn host_json() -> String {
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned());
    format!(
        "{{\"cores\": {}, \"profile\": \"{}\", \"git_rev\": \"{}\"}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        rev,
    )
}

/// A named group of benchmarks (`Criterion::benchmark_group`).
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs one benchmark inside the group.
    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{id}", self.name);
        self.criterion.bench_function(&full, f);
        self
    }

    /// Ends the group (accepted for API compatibility; nothing to flush).
    pub fn finish(self) {}
}

/// Per-benchmark iteration driver.
#[derive(Debug)]
pub struct Bencher {
    test_mode: bool,
    measurement: Duration,
    samples: Vec<f64>,
    iterations: u64,
}

impl Bencher {
    /// Benchmarks `routine` directly.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        if self.test_mode {
            black_box(routine());
            return;
        }
        // Warm-up + batch sizing: aim for ~1 ms per batch.
        let batch = Self::calibrate(&mut || {
            black_box(routine());
        });
        let deadline = Instant::now() + self.measurement;
        while Instant::now() < deadline {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            let elapsed = start.elapsed();
            self.push_sample(elapsed, batch);
        }
    }

    /// Benchmarks `routine` over fresh inputs from `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        if self.test_mode {
            black_box(routine(setup()));
            return;
        }
        let deadline = Instant::now() + self.measurement;
        while Instant::now() < deadline {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            let elapsed = start.elapsed();
            self.push_sample(elapsed, 1);
        }
    }

    /// Finds a batch size whose run takes roughly a millisecond.
    fn calibrate(routine: &mut impl FnMut()) -> u64 {
        let mut batch = 1u64;
        loop {
            let start = Instant::now();
            for _ in 0..batch {
                routine();
            }
            let elapsed = start.elapsed();
            if elapsed >= Duration::from_micros(500) || batch >= 1 << 24 {
                return batch;
            }
            batch *= 4;
        }
    }

    fn push_sample(&mut self, elapsed: Duration, iters: u64) {
        self.samples.push(elapsed.as_nanos() as f64 / iters as f64);
        self.iterations += iters;
    }

    fn summarize(mut self, name: &str) -> BenchSummary {
        if self.samples.is_empty() {
            self.samples.push(0.0);
        }
        self.samples.sort_by(|a, b| a.total_cmp(b));
        let n = self.samples.len();
        let mean = self.samples.iter().sum::<f64>() / n as f64;
        let median = if n % 2 == 1 {
            self.samples[n / 2]
        } else {
            (self.samples[n / 2 - 1] + self.samples[n / 2]) / 2.0
        };
        let variance =
            self.samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        BenchSummary {
            name: name.to_owned(),
            mean_ns: mean,
            median_ns: median,
            std_dev_ns: variance.sqrt(),
            samples: n,
            iterations: self.iterations,
        }
    }
}

/// Declares a benchmark group function, mirroring Criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Declares the bench binary's `main`, mirroring Criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::default();
            $($group(&mut c);)+
            c.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summaries_are_recorded() {
        let mut c = Criterion {
            test_mode: false,
            measurement: Duration::from_millis(5),
            results: Vec::new(),
        };
        c.bench_function("noop", |b| b.iter(|| black_box(1u64 + 1)));
        assert_eq!(c.summaries().len(), 1);
        let s = &c.summaries()[0];
        assert_eq!(s.name, "noop");
        assert!(s.iterations > 0);
        assert!(s.mean_ns >= 0.0);
    }

    #[test]
    fn batched_iteration_runs() {
        let mut c = Criterion {
            test_mode: false,
            measurement: Duration::from_millis(5),
            results: Vec::new(),
        };
        c.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 16], |v| v.len(), BatchSize::SmallInput)
        });
        assert!(c.summaries()[0].samples > 0);
    }
}
