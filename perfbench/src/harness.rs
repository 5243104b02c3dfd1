//! The closed-loop harness every workload shares: repeated set-up, a
//! warm-up, the timed phase and the traced phase.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cycada_sim::trace::{self, Category, Counter, EventKind, TraceEvent, RING_CAPACITY};

use crate::selftime::{self_times, Interval};
use crate::stats::{median, percentile};

/// Wall-time samples and outcome counts a workload records.
#[derive(Debug, Default)]
pub struct Samples {
    /// One entry per timed frame (for `hd-scenes`, per panel refresh).
    pub frames_ns: Vec<u64>,
    /// One entry per session: attach, frames, teardown.
    pub sessions_ns: Vec<u64>,
    /// One entry per session attach.
    pub attach_ns: Vec<u64>,
    /// Timed frames of each scenario (one app's `scenario::frame` or one
    /// replayed present), keyed by scenario label.
    pub scenario_frames_ns: BTreeMap<&'static str, Vec<u64>>,
    /// `Stream::encode` wall per recorded session.
    pub encode_ns: Vec<u64>,
    /// Sessions attempted.
    pub attempted: u64,
    /// Sessions that failed: an error, or an output that disagreed with
    /// its expected value.
    pub failed: u64,
    /// Fleet tasks run.
    pub fleet_tasks: u64,
    /// Fleet tasks stolen by another worker.
    pub fleet_stolen: u64,
    /// Fleet tasks past their deadline.
    pub fleet_deadline_misses: u64,
}

impl Samples {
    /// Records one failed session with its reason (the first few reasons
    /// go to standard error).
    pub fn fail(&mut self, why: impl std::fmt::Display) {
        if self.failed < 5 {
            eprintln!("perfbench: session failed: {why}");
        }
        self.failed += 1;
    }

    /// Records one timed frame of `scenario`.
    pub fn scenario_frame(&mut self, scenario: &'static str, ns: u64) {
        self.scenario_frames_ns
            .entry(scenario)
            .or_default()
            .push(ns);
    }
}

/// A benchmark workload after set-up.
pub trait Workload {
    /// Runs one closed-loop unit of work — a session, a panel session or
    /// a fleet batch — and records it into `s`.
    fn unit(&mut self, s: &mut Samples);

    /// Units that take every input once (the corpus workloads cycle
    /// through six traces). The traced phase runs whole cycles in each
    /// mode so that every mode sees the same mix.
    fn cycle(&self) -> u64 {
        1
    }

    /// Threads a unit keeps busy: the client thread, or the fleet's
    /// workers.
    fn threads(&self) -> u64 {
        1
    }

    /// Units the untimed warm-up runs. A count, not a time: the program
    /// retains memory per session, and the memory figures taken after
    /// warm-up must not scale with the host's speed.
    fn warmup_units(&self) -> u64;

    /// Presents that make up one frame.
    fn presents_per_frame(&self) -> u64 {
        1
    }

    /// Prepares the next units for tracing (`on`) or for timing. A
    /// unit must fit the trace rings, which hold [`RING_CAPACITY`]
    /// events per thread.
    fn set_traced(&mut self, _on: bool) {}

    /// Traced units a run may make at most.
    fn max_traced_units(&self) -> u64 {
        u64::MAX
    }

    /// Switches the recorder on or off, for workloads that record.
    /// Returns whether the workload records at all.
    fn set_recording(&mut self, _on: bool) -> bool {
        false
    }
}

/// Wall times of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// The whole set-up.
    pub total_ns: u64,
    /// `CycadaDevice::boot_with_display`.
    pub boot_ns: u64,
    /// `Stream::decode` of every corpus trace (0 when none is decoded).
    pub decode_ns: u64,
}

/// Times `f` into `ns`.
pub fn timed<T>(ns: &mut u64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *ns = t.elapsed().as_nanos() as u64;
    out
}

/// Runs `f` inside a harness span named `name`.
pub fn spanned<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = trace::span(Category::App, name);
    f()
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Runs `setup` [`SETUP_REPS`] times, keeping the last workload.
pub fn set_up<W>(
    mut setup: impl FnMut() -> Result<(W, SetupTimes), String>,
) -> Result<(W, Vec<SetupTimes>), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous workload first so set-ups do not overlap.
        drop(last.take());
        let t = Instant::now();
        let (w, mut st) = setup()?;
        st.total_ns = t.elapsed().as_nanos() as u64;
        times.push(st);
        last = Some(w);
    }
    Ok((last.expect("SETUP_REPS > 0"), times))
}

/// Runs the workload's warm-up units untimed. Returns the sessions
/// attempted and failed: warm-up output is checked like any other.
pub fn warm_up(w: &mut dyn Workload) -> (u64, u64) {
    let mut warm = Samples::default();
    for _ in 0..w.warmup_units() {
        w.unit(&mut warm);
    }
    (warm.attempted, warm.failed)
}

/// Runs units with tracing off until `seconds` of wall have passed.
/// Returns the samples and the timed wall.
pub fn timed_phase(w: &mut dyn Workload, seconds: Duration) -> (Samples, Duration) {
    trace::set_enabled(false);
    let mut s = Samples::default();
    let t = Instant::now();
    while t.elapsed() < seconds {
        w.unit(&mut s);
    }
    (s, t.elapsed())
}

/// Layers the per-layer metrics name, keyed by the program span that
/// stands for each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// Every diplomat call (with the bridge, vendor GLES and raster
    /// beneath it, which have no spans of their own).
    Diplomat,
    /// The EAGL `presentRenderbuffer:`.
    EaglPresent,
    /// `eglSwapBuffers`.
    EglSwap,
    /// The flinger's full-screen post.
    GrallocPost,
    /// The flinger's layer composition.
    GrallocComposite,
    /// The linker's `dlforce` replica load.
    Dlforce,
    /// A program span the list above does not name.
    Other,
}

impl Layer {
    /// The layer of a span, or `None` for a harness span.
    pub fn of(ev: &TraceEvent) -> Option<Layer> {
        Some(match (ev.cat, ev.name) {
            (Category::App, _) => return None,
            (Category::Diplomat, _) => Layer::Diplomat,
            (Category::Eagl, "presentRenderbuffer:") => Layer::EaglPresent,
            (Category::Egl, "eglSwapBuffers") => Layer::EglSwap,
            (Category::Gralloc, "flinger_post_image") => Layer::GrallocPost,
            (Category::Gralloc, "flinger_composite") => Layer::GrallocComposite,
            (Category::Linker, "dlforce") => Layer::Dlforce,
            _ => Layer::Other,
        })
    }
}

/// What the traced units added up to.
#[derive(Debug, Default)]
pub struct TraceTotals {
    /// Self time of each layer's spans.
    pub self_ns: BTreeMap<Layer, u64>,
    /// Thread-wall the traced units kept busy.
    pub busy_ns: u64,
    /// Counter deltas, in [`Counter::ALL`] order.
    pub counters: Vec<u64>,
    /// Frames executed, set-up frames included.
    pub frames: u64,
    /// Sessions attempted.
    pub sessions: u64,
    /// Units counted.
    pub units: u64,
    /// Units left out because a thread's trace ring filled up and may
    /// have dropped events.
    pub overflowed_units: u64,
}

impl TraceTotals {
    /// The delta of `c` across the counted units.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters.get(c as usize).copied().unwrap_or(0)
    }

    /// Self time of every program span.
    pub fn program_self_ns(&self) -> u64 {
        self.self_ns.values().sum()
    }

    fn add_unit(
        &mut self,
        trace: &Drained,
        busy_ns: u64,
        deltas: &[u64],
        frames: u64,
        sessions: u64,
    ) {
        let events = &trace.events;
        if trace.overflowed {
            self.overflowed_units += 1;
            eprintln!(
                "perfbench: a traced unit filled a {RING_CAPACITY}-slot trace ring; left out"
            );
            return;
        }
        let spans: Vec<&TraceEvent> = events
            .iter()
            .filter(|ev| ev.kind == EventKind::Span)
            .collect();
        let intervals: Vec<Interval> = spans
            .iter()
            .map(|ev| Interval {
                tid: ev.tid,
                start: ev.wall_start_ns,
                end: ev.wall_start_ns + ev.wall_dur_ns,
            })
            .collect();
        for (ev, own) in spans.iter().zip(self_times(&intervals)) {
            if let Some(layer) = Layer::of(ev) {
                *self.self_ns.entry(layer).or_default() += own;
            }
        }
        if self.counters.len() < deltas.len() {
            self.counters.resize(deltas.len(), 0);
        }
        for (sum, d) in self.counters.iter_mut().zip(deltas) {
            *sum += d;
        }
        self.busy_ns += busy_ns;
        self.frames += frames;
        self.sessions += sessions;
        self.units += 1;
    }
}

/// Trace events drained so far in the running traced unit.
#[derive(Debug, Default)]
struct Drained {
    events: Vec<TraceEvent>,
    /// Some thread's ring filled up between two drains, so it may have
    /// dropped events.
    overflowed: bool,
}

thread_local! {
    static DRAINED: RefCell<Drained> = RefCell::new(Drained::default());
}

fn drain_now() {
    let events = trace::drain();
    let mut per_thread: BTreeMap<u64, usize> = BTreeMap::new();
    for ev in &events {
        *per_thread.entry(ev.tid).or_default() += 1;
    }
    let overflowed = per_thread.values().any(|&n| n >= RING_CAPACITY);
    DRAINED.with(|d| {
        let mut d = d.borrow_mut();
        d.overflowed |= overflowed;
        d.events.extend(events);
    });
}

/// Drains the trace rings into the running traced unit. A unit too long
/// for one ring calls this between its steps. Does nothing while tracing
/// is off.
pub fn drain_trace() {
    if trace::enabled() {
        drain_now();
    }
}

fn counter_values() -> Vec<u64> {
    Counter::ALL.iter().map(|&c| trace::counter(c)).collect()
}

/// What the traced phase measured.
#[derive(Debug, Default)]
pub struct TracedRun {
    /// Units with tracing off, interleaved with the traced ones.
    pub plain: Samples,
    /// Wall of the `plain` units.
    pub plain_wall: Duration,
    /// Units with tracing off and the recorder off (recording workloads
    /// only).
    pub unrecorded: Samples,
    /// Outcome counts of the traced units.
    pub traced: Samples,
    /// Layer totals of the traced units.
    pub totals: TraceTotals,
}

/// Alternates whole cycles of untraced and traced units for `seconds`.
/// Traced units run with `trace::set_enabled(true)`, and the trace is
/// drained after every unit so the per-thread rings never wrap.
pub fn traced_phase(w: &mut dyn Workload, seconds: Duration) -> TracedRun {
    let mut run = TracedRun::default();
    trace::set_enabled(false);
    trace::drain();
    let t = Instant::now();
    while t.elapsed() < seconds {
        for _ in 0..w.cycle() {
            let plain_t = Instant::now();
            w.unit(&mut run.plain);
            run.plain_wall += plain_t.elapsed();
        }
        if w.set_recording(false) {
            for _ in 0..w.cycle() {
                w.unit(&mut run.unrecorded);
            }
            w.set_recording(true);
        }
        for _ in 0..w.cycle() {
            if run.totals.units + run.totals.overflowed_units < w.max_traced_units() {
                traced_unit(w, &mut run);
            }
        }
    }
    run
}

/// Runs one unit with tracing on and adds its trace to `run.totals`.
fn traced_unit(w: &mut dyn Workload, run: &mut TracedRun) {
    w.set_traced(true);
    let before = counter_values();
    let attempted = run.traced.attempted;
    trace::set_enabled(true);
    let unit_t = Instant::now();
    w.unit(&mut run.traced);
    let busy_ns = unit_t.elapsed().as_nanos() as u64 * w.threads();
    trace::set_enabled(false);
    w.set_traced(false);
    drain_now();
    let drained = DRAINED.with(|d| std::mem::take(&mut *d.borrow_mut()));
    let deltas: Vec<u64> = counter_values()
        .iter()
        .zip(&before)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    let presents = deltas[Counter::EaglPresents as usize];
    run.totals.add_unit(
        &drained,
        busy_ns,
        &deltas,
        presents / w.presents_per_frame(),
        run.traced.attempted - attempted,
    );
}

/// Median of the set-ups' `field`, in nanoseconds.
pub fn setup_median(times: &[SetupTimes], field: impl Fn(&SetupTimes) -> u64) -> f64 {
    let v: Vec<f64> = times.iter().map(|t| field(t) as f64).collect();
    median(&v)
}

/// Nearest-rank `p` of `ns` samples, in microseconds.
pub fn pct_us(ns: &[u64], p: u32) -> f64 {
    percentile(ns, p) as f64 / 1e3
}
