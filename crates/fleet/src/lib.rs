//! The fleet plane: many shared Cycada devices under thousands of
//! churning app sessions (DESIGN.md §5h).
//!
//! The paper's end state is many iOS apps running concurrently on shared
//! Android graphics infrastructure; this crate is the standing harness
//! that drives the whole stack at that scale. A [`run_fleet`] call boots
//! a configurable fleet of shared devices ([`cycada::CycadaDevice`]),
//! then executes one *task* per session: attach to the session's device,
//! set up its [`Scenario`], and drive its metered frames to completion —
//! recording attach and per-frame wall latency, the session's
//! deterministic framebuffer hash, and its metered virtual-time total.
//!
//! The batch of tasks is closed, so distributing it takes one shared
//! atomic cursor: each worker (a scoped thread, no async runtime) claims
//! the next session index with `fetch_add` until the cursor passes the
//! last session. A task runs *entirely on one worker thread*, and virtual
//! time is that thread's charge ledger, so a device's total is the sum
//! of its tasks' ledger deltas, whichever workers ran them.
//!
//! # Determinism contract
//!
//! Sessions churn (each task attaches a fresh session and tears it down)
//! and interleave freely across workers and devices, but per-session
//! *results* are pure functions of `(scenario, seed, frames, display)`:
//! identical to a solo run of the same workload on a private device
//! ([`solo_outcome`]), byte-for-byte (framebuffer hash) and
//! nanosecond-for-nanosecond (metered virtual time). Only the wall-clock
//! fields (attach/frame latency, throughput, efficiency) vary between
//! runs — those are the measurements, not the simulation.

#![forbid(unsafe_code)]

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cycada::{AppGl, CycadaDevice};
use cycada_replay::{replay_on_device, ReplayOptions};
use cycada_sim::replay::Stream;
use cycada_sim::{clock, trace, Nanos, SimRng};

pub mod metrics;

pub use cycada_workloads::scenario::{
    frame as scenario_frame, setup as scenario_setup, Scenario, ScenarioState,
};
pub use metrics::{determinism_digest, fleet_json, percentiles, report_json, Percentiles};

/// Shape and knobs of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Report label (e.g. `"d2_s16"`).
    pub name: String,
    /// Shared devices to boot.
    pub devices: usize,
    /// Total sessions (tasks) across the fleet.
    pub sessions: usize,
    /// Metered frames per session (one extra warm-up frame runs
    /// unmetered during setup).
    pub frames: u32,
    /// Worker threads driving tasks.
    pub workers: usize,
    /// Fleet seed; per-session seeds derive from it ([`session_seed`]).
    pub seed: u64,
    /// Display size of every device.
    pub display: (u32, u32),
    /// Per-task wall deadline: a task finishing later counts as a
    /// deadline miss (`fleet-deadline-misses`). Misses are reported,
    /// never enforced by abort — determinism forbids cancelling work.
    pub deadline_ns: u64,
    /// The fifth scenario kind (`replay:<path>`): when set, every task
    /// replays this recorded trace instead of drawing from the scripted
    /// scenario mix. See [`FleetConfig::with_scenario_spec`].
    pub replay: Option<ReplayTask>,
}

/// A recorded `.cyt` trace fanned out as fleet load.
#[derive(Debug, Clone)]
pub struct ReplayTask {
    /// Report label (the trace file stem, e.g. `"passmark"`).
    pub label: String,
    /// The decoded call stream, shared by every task.
    pub stream: Arc<Stream>,
}

impl FleetConfig {
    /// A small fleet with sensible defaults for `devices`/`sessions`.
    pub fn new(name: &str, devices: usize, sessions: usize) -> FleetConfig {
        FleetConfig {
            name: name.to_owned(),
            devices: devices.max(1),
            sessions,
            frames: 4,
            // At least 4 workers even on small hosts: the orchestrator
            // is about interleaving, and oversubscribed workers still
            // time-slice — collapsing to 1 would test nothing.
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .clamp(4, 8),
            seed: 0xC1CADA,
            display: (48, 32),
            deadline_ns: 2_000_000_000,
            replay: None,
        }
    }

    /// Resolves a scenario spec. `"mix"` (or `""`) keeps the scripted
    /// four-scenario mix; `"replay:<path>"` — the fifth scenario kind —
    /// loads a recorded `.cyt` trace and fans it out to every session,
    /// adopting the recording's display size so digests stay comparable.
    pub fn with_scenario_spec(mut self, spec: &str) -> Result<FleetConfig, String> {
        match spec {
            "" | "mix" => {
                self.replay = None;
                Ok(self)
            }
            _ => {
                let path = spec.strip_prefix("replay:").ok_or_else(|| {
                    format!("unknown scenario spec {spec:?} (expected \"mix\" or \"replay:<path>\")")
                })?;
                let bytes = std::fs::read(path)
                    .map_err(|e| format!("reading replay trace {path}: {e}"))?;
                let stream = Stream::decode(&bytes)
                    .map_err(|e| format!("decoding replay trace {path}: {e}"))?;
                let label = Path::new(path)
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_else(|| path.to_owned());
                self.display = (stream.meta.width, stream.meta.height);
                self.replay = Some(ReplayTask { label, stream: Arc::new(stream) });
                Ok(self)
            }
        }
    }

    /// Applies the `CYCADA_FLEET_DEVICES` / `CYCADA_FLEET_SESSIONS`
    /// environment knobs (nightly full-scale sweeps) over this config.
    pub fn with_env(mut self) -> FleetConfig {
        if let Some(d) = env_usize("CYCADA_FLEET_DEVICES") {
            self.devices = d.max(1);
        }
        if let Some(s) = env_usize("CYCADA_FLEET_SESSIONS") {
            self.sessions = s;
        }
        self
    }
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// The deterministic per-session seed for session `index` of a fleet
/// seeded with `fleet_seed`.
pub fn session_seed(fleet_seed: u64, index: usize) -> u64 {
    SimRng::new(fleet_seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// The device session `index` runs on under `devices` devices.
pub fn session_device(index: usize, devices: usize) -> usize {
    index % devices.max(1)
}

/// One completed fleet task.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// Fleet-wide session index.
    pub session: usize,
    /// Device the session attached to.
    pub device: usize,
    /// Workload flavor.
    pub scenario: Scenario,
    /// The session's derived seed.
    pub seed: u64,
    /// FNV hash of the final framebuffer bytes — must equal the solo
    /// run's ([`solo_outcome`]).
    pub fb_hash: u64,
    /// Metered virtual nanoseconds — must equal the solo run's.
    pub virtual_ns: Nanos,
    /// Wall nanoseconds to attach the session.
    pub attach_wall_ns: u64,
    /// Wall nanoseconds per metered frame.
    pub frame_wall_ns: Vec<u64>,
    /// Whether the task finished past its deadline.
    pub deadline_missed: bool,
}

/// Per-device rollup of one fleet run.
#[derive(Debug, Clone)]
pub struct DeviceReport {
    /// Device index.
    pub device: usize,
    /// Sessions that ran on it.
    pub sessions: usize,
    /// Virtual nanoseconds its sessions charged during the run, attach
    /// to teardown: the sum of each worker's ledger delta around each of
    /// the device's tasks. Divided by the fleet's wall time this is the
    /// device's virtual-vs-wall efficiency (how much simulated time one
    /// wall second buys).
    pub virtual_ns: Nanos,
}

/// Everything a fleet run produced.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Config label.
    pub name: String,
    /// Worker threads used.
    pub workers: usize,
    /// Metered frames per session.
    pub frames_per_session: u32,
    /// Fleet seed.
    pub seed: u64,
    /// Device display size.
    pub display: (u32, u32),
    /// Wall nanoseconds for the whole run (boot to last task).
    pub wall_ns: u64,
    /// Per-session results, sorted by session index.
    pub outcomes: Vec<SessionOutcome>,
    /// Per-device rollups, sorted by device index.
    pub devices: Vec<DeviceReport>,
    /// Always 0: workers claim tasks from one shared cursor, so no task
    /// migrates. Kept only because the benchmark report reads it; remove
    /// with the next benchmark change.
    pub tasks_stolen: u64,
    /// Tasks that finished past their deadline.
    pub deadline_misses: u64,
    /// Trace-plane counter deltas across the run (name, delta), in
    /// declaration order, zeros included.
    pub counter_deltas: Vec<(&'static str, u64)>,
}

impl FleetReport {
    /// Total metered frames per wall second.
    pub fn throughput_fps(&self) -> f64 {
        let frames: usize = self.outcomes.iter().map(|o| o.frame_wall_ns.len()).sum();
        frames as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }

    /// p50/p95/p99 of session attach wall latency.
    pub fn attach_percentiles(&self) -> Percentiles {
        let samples: Vec<u64> = self.outcomes.iter().map(|o| o.attach_wall_ns).collect();
        percentiles(&samples)
    }

    /// p50/p95/p99 of per-frame wall latency.
    pub fn frame_percentiles(&self) -> Percentiles {
        let samples: Vec<u64> =
            self.outcomes.iter().flat_map(|o| o.frame_wall_ns.iter().copied()).collect();
        percentiles(&samples)
    }
}

/// Runs one fleet task: attach, set up, drive metered frames, tear the
/// session down (drop). Runs entirely on the calling worker thread.
fn run_task(cfg: &FleetConfig, devices: &[CycadaDevice], index: usize) -> Result<SessionOutcome, String> {
    if let Some(task) = &cfg.replay {
        return run_replay_task(cfg, devices, index, task);
    }
    let device_idx = session_device(index, devices.len());
    let scenario = Scenario::mix(index);
    let seed = session_seed(cfg.seed, index);
    let started = Instant::now();

    let mut app = AppGl::attach_cycada(&devices[device_idx], scenario.gles_version())
        .map_err(|e| format!("session {index}: attach failed: {e}"))?;
    let attach_wall_ns = started.elapsed().as_nanos() as u64;

    let mut state = scenario_setup(&mut app, scenario, seed)
        .map_err(|e| format!("session {index} ({}): setup failed: {e}", scenario.label()))?;

    let mut frame_wall_ns = Vec::with_capacity(cfg.frames as usize);
    {
        let _scope = app.session_scope();
        for f in 0..cfg.frames {
            let t = Instant::now();
            scenario_frame(&mut app, &mut state, seed, f).map_err(|e| {
                format!("session {index} ({}): frame {f} failed: {e}", scenario.label())
            })?;
            frame_wall_ns.push(t.elapsed().as_nanos() as u64);
        }
    }

    let fb_hash = app
        .render_hash()
        .map_err(|e| format!("session {index}: render_hash failed: {e}"))?;
    let virtual_ns = app.session_virtual_ns();
    let deadline_missed = started.elapsed().as_nanos() as u64 > cfg.deadline_ns;
    if deadline_missed {
        trace::bump(trace::Counter::FleetDeadlineMisses);
    }
    Ok(SessionOutcome {
        session: index,
        device: device_idx,
        scenario,
        seed,
        fb_hash,
        virtual_ns,
        attach_wall_ns,
        frame_wall_ns,
        deadline_missed,
    })
}

/// Runs one replay task: attach a fresh session to the shared device and
/// re-drive the recorded trace through it. Digest checks stay on — every
/// session must reproduce the recording's frames byte-for-byte — but
/// per-call timestamp checks are off: device-global warm-up costs land
/// on whichever session touches a symbol first, shifting per-call
/// charge points on shared devices (the same relaxation the scripted
/// mix gets from its unmetered warm-up frame).
fn run_replay_task(
    cfg: &FleetConfig,
    devices: &[CycadaDevice],
    index: usize,
    task: &ReplayTask,
) -> Result<SessionOutcome, String> {
    let device_idx = session_device(index, devices.len());
    let seed = session_seed(cfg.seed, index);
    let started = Instant::now();
    let outcome = replay_on_device(&devices[device_idx], &task.stream, &ReplayOptions::digests_only())
        .map_err(|e| format!("session {index} (replay:{}): {e}", task.label))?;
    let deadline_missed = started.elapsed().as_nanos() as u64 > cfg.deadline_ns;
    if deadline_missed {
        trace::bump(trace::Counter::FleetDeadlineMisses);
    }
    Ok(SessionOutcome {
        session: index,
        device: device_idx,
        scenario: Scenario::Replay,
        seed,
        fb_hash: outcome.digest,
        virtual_ns: outcome.metered_ns,
        attach_wall_ns: outcome.attach_wall_ns,
        frame_wall_ns: outcome.present_wall_ns,
        deadline_missed,
    })
}

/// Boots the fleet and drives every session task to completion.
///
/// Returns an error if any device fails to boot or any task fails; the
/// remaining workers finish the batch before the error is surfaced,
/// so a failure never leaves detached threads behind (scoped threads).
pub fn run_fleet(cfg: &FleetConfig) -> Result<FleetReport, String> {
    let counters_before: Vec<(&'static str, u64)> = trace::counters();
    let started = Instant::now();

    let devices: Vec<CycadaDevice> = (0..cfg.devices)
        .map(|d| {
            CycadaDevice::boot_with_display(Some(cfg.display))
                .map_err(|e| format!("device {d}: boot failed: {e}"))
        })
        .collect::<Result<_, String>>()?;

    let workers = cfg.workers.max(1);
    // The index publishes no data, so relaxed claims suffice.
    let next = AtomicUsize::new(0);
    let mut results: Vec<Result<SessionOutcome, String>> = Vec::with_capacity(cfg.sessions);
    // Virtual ns each device's sessions charged, teardown included.
    let mut device_ns: Vec<Nanos> = vec![0; devices.len()];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (next, devices) = (&next, &devices);
                s.spawn(move || {
                    let mut mine = Vec::new();
                    let mut ns: Vec<Nanos> = vec![0; devices.len()];
                    loop {
                        let session = next.fetch_add(1, Ordering::Relaxed);
                        if session >= cfg.sessions {
                            return (mine, ns);
                        }
                        let start = clock::now_ns();
                        mine.push(run_task(cfg, devices, session));
                        ns[session_device(session, devices.len())] += clock::now_ns() - start;
                    }
                })
            })
            .collect();
        for h in handles {
            let (mine, ns) = h.join().expect("fleet worker panicked");
            results.extend(mine);
            for (total, n) in device_ns.iter_mut().zip(ns) {
                *total += n;
            }
        }
    });
    let wall_ns = started.elapsed().as_nanos() as u64;

    let mut outcomes = results.into_iter().collect::<Result<Vec<_>, String>>()?;
    outcomes.sort_by_key(|o| o.session);

    let device_reports: Vec<DeviceReport> = device_ns
        .into_iter()
        .enumerate()
        .map(|(d, virtual_ns)| DeviceReport {
            device: d,
            sessions: outcomes.iter().filter(|o| o.device == d).count(),
            virtual_ns,
        })
        .collect();

    let deadline_misses = outcomes.iter().filter(|o| o.deadline_missed).count() as u64;
    let counter_deltas: Vec<(&'static str, u64)> = trace::counters()
        .into_iter()
        .zip(counters_before)
        .map(|((name, after), (_, before))| (name, after.saturating_sub(before)))
        .collect();

    Ok(FleetReport {
        name: cfg.name.clone(),
        workers,
        frames_per_session: cfg.frames,
        seed: cfg.seed,
        display: cfg.display,
        wall_ns,
        outcomes,
        devices: device_reports,
        tasks_stolen: 0,
        deadline_misses,
        counter_deltas,
    })
}

/// Runs one session's workload solo — a private device, no fleet, no
/// concurrency — returning the framebuffer hash and metered virtual
/// total a fleet run of the same `(scenario, seed, frames, display)`
/// must reproduce exactly.
pub fn solo_outcome(
    scenario: Scenario,
    seed: u64,
    frames: u32,
    display: (u32, u32),
) -> Result<(u64, Nanos), String> {
    let mut app = AppGl::boot_with_display(
        cycada_sim::Platform::CycadaIos,
        scenario.gles_version(),
        Some(display),
    )
    .map_err(|e| format!("solo boot failed: {e}"))?;
    let mut state = scenario_setup(&mut app, scenario, seed)
        .map_err(|e| format!("solo setup failed: {e}"))?;
    {
        let _scope = app.session_scope();
        for f in 0..frames {
            scenario_frame(&mut app, &mut state, seed, f)
                .map_err(|e| format!("solo frame {f} failed: {e}"))?;
        }
    }
    let hash = app.render_hash().map_err(|e| format!("solo render_hash failed: {e}"))?;
    Ok((hash, app.session_virtual_ns()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_seeds_are_distinct_and_stable() {
        let a = session_seed(7, 0);
        let b = session_seed(7, 1);
        assert_ne!(a, b);
        assert_eq!(a, session_seed(7, 0), "seeds are pure functions");
        assert_eq!(session_device(5, 2), 1);
    }

    #[test]
    fn tiny_fleet_runs_and_reports() {
        let mut cfg = FleetConfig::new("unit", 1, 4);
        cfg.frames = 2;
        cfg.workers = 2;
        cfg.display = (32, 32);
        let report = run_fleet(&cfg).expect("tiny fleet must run");
        assert_eq!(report.outcomes.len(), 4);
        assert!(report.outcomes.iter().all(|o| o.virtual_ns > 0));
        assert!(report.outcomes.iter().all(|o| o.frame_wall_ns.len() == 2));
        assert_eq!(report.devices.len(), 1);
        assert!(report.devices[0].virtual_ns > 0);
        assert!(report.throughput_fps() > 0.0);
        // Each scenario appears once in a 4-session mix.
        let labels: Vec<&str> = report.outcomes.iter().map(|o| o.scenario.label()).collect();
        assert_eq!(labels, ["passmark", "browser", "multi-gles", "partial-update"]);
    }

    #[test]
    fn env_knobs_override_shape() {
        // Serialized by using unique names no other test touches.
        std::env::set_var("CYCADA_FLEET_DEVICES", "3");
        std::env::set_var("CYCADA_FLEET_SESSIONS", "9");
        let cfg = FleetConfig::new("env", 1, 2).with_env();
        assert_eq!(cfg.devices, 3);
        assert_eq!(cfg.sessions, 9);
        std::env::remove_var("CYCADA_FLEET_DEVICES");
        std::env::remove_var("CYCADA_FLEET_SESSIONS");
    }
}
