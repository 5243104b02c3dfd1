//! `fleet-churn`: `run_fleet` over one shared 48×32 device, the default
//! four-scenario scripted mix, many short sessions and at most two
//! workers (never more than the host's cores).

use cycada_fleet::{run_fleet, session_seed, solo_outcome, FleetConfig, Scenario};
use cycada_sim::{Nanos, SimRng};

use crate::harness::{spanned, Samples, SetupTimes, Workload};

/// Sessions per `run_fleet` batch.
pub const SESSIONS_PER_BATCH: usize = 96;

/// Sessions per traced batch: few enough that no worker's trace ring
/// wraps before the batch ends and the trace is drained.
const TRACED_SESSIONS_PER_BATCH: usize = 16;

/// Sessions of every batch checked against a solo run.
const SAMPLE: [usize; 8] = [0, 1, 2, 3, 45, 46, 94, 95];

/// The worker count: two, or fewer on a smaller host.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// The fleet shape and the outcomes it must reproduce.
#[derive(Debug)]
pub struct FleetChurn {
    cfg: FleetConfig,
    /// `(session, framebuffer hash, metered ns)` of each sampled session,
    /// from `solo_outcome`.
    solo: Vec<(usize, u64, Nanos)>,
}

impl FleetChurn {
    /// Fixes the fleet shape and computes the sampled sessions' solo
    /// outcomes.
    pub fn setup(seed: u64) -> Result<(FleetChurn, SetupTimes), String> {
        let mut cfg = FleetConfig::new("fleet-churn", 1, SESSIONS_PER_BATCH);
        cfg.workers = workers();
        cfg.seed = SimRng::new(seed).next_u64();
        cfg.display = (48, 32);
        let solo = SAMPLE
            .iter()
            .map(|&i| {
                let (hash, ns) = spanned("solo_outcome", || {
                    solo_outcome(
                        Scenario::mix(i),
                        session_seed(cfg.seed, i),
                        cfg.frames,
                        cfg.display,
                    )
                })?;
                Ok((i, hash, ns))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok((FleetChurn { cfg, solo }, SetupTimes::default()))
    }
}

impl Workload for FleetChurn {
    fn warmup_units(&self) -> u64 {
        4
    }

    fn unit(&mut self, s: &mut Samples) {
        let sessions = self.cfg.sessions as u64;
        s.attempted += sessions;
        let result = spanned("run_fleet", || run_fleet(&self.cfg));
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                s.fail(format_args!("run_fleet: {e}"));
                s.failed += sessions - 1;
                return;
            }
        };
        s.fleet_tasks += sessions;
        s.fleet_stolen += report.tasks_stolen;
        s.fleet_deadline_misses += report.deadline_misses;
        for o in &report.outcomes {
            if let Some(&(_, hash, ns)) = self.solo.iter().find(|(i, ..)| *i == o.session) {
                if (o.fb_hash, o.virtual_ns) != (hash, ns) {
                    s.fail(format_args!(
                        "fleet session {} ({}): differs from its solo run",
                        o.session,
                        o.scenario.label()
                    ));
                    continue;
                }
            }
            for &ns in &o.frame_wall_ns {
                s.frames_ns.push(ns);
                s.scenario_frame(o.scenario.label(), ns);
            }
            s.attach_ns.push(o.attach_wall_ns);
            // run_fleet exposes only attach and frame walls per session.
            s.sessions_ns
                .push(o.attach_wall_ns + o.frame_wall_ns.iter().sum::<u64>());
        }
        if report.outcomes.len() as u64 != sessions {
            s.fail(format_args!(
                "run_fleet returned {} of {sessions} sessions",
                report.outcomes.len()
            ));
        }
    }

    fn threads(&self) -> u64 {
        self.cfg.workers as u64
    }

    fn set_traced(&mut self, on: bool) {
        self.cfg.sessions = if on {
            TRACED_SESSIONS_PER_BATCH
        } else {
            SESSIONS_PER_BATCH
        };
    }

    /// Every batch spawns fresh worker threads, and each traced thread
    /// keeps its trace ring for the rest of the process.
    fn max_traced_units(&self) -> u64 {
        60
    }
}
