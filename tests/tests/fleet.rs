//! Fleet-plane correctness: the orchestrator (`cycada-fleet`) must not
//! perturb the session plane's determinism contract, no matter how
//! sessions interleave across workers and shared devices.
//!
//! Three angles:
//!  * small-fleet-matches-solo — every session's framebuffer hash and
//!    metered virtual total equals a solo run of the same
//!    `(scenario, seed, frames, display)` on a private device;
//!  * two-run determinism — the full per-session digest of a fleet run
//!    is identical across two runs of the same seed and config, even
//!    though scheduling (which worker claims which session) differs,
//!    and per-device virtual totals are identical for 1 and 4 workers;
//!  * oversubscription — sessions ≫ workers ≫ devices completes with
//!    every session accounted for and no starvation.

use cycada_fleet::{
    determinism_digest, run_fleet, session_seed, solo_outcome, FleetConfig, Scenario,
};

const DISPLAY: (u32, u32) = (48, 32);
const FRAMES: u32 = 3;

fn small_config(name: &str, devices: usize, sessions: usize, workers: usize) -> FleetConfig {
    let mut cfg = FleetConfig::new(name, devices, sessions);
    cfg.frames = FRAMES;
    cfg.workers = workers;
    cfg.display = DISPLAY;
    cfg
}

#[test]
fn small_fleet_sessions_match_solo_runs_exactly() {
    // 8 sessions = the 4-scenario mix twice over, on 2 shared devices
    // with enough workers that sessions genuinely run concurrently.
    let cfg = small_config("solo-parity", 2, 8, 4);
    let report = run_fleet(&cfg).expect("fleet run must succeed");
    assert_eq!(report.outcomes.len(), 8);

    for outcome in &report.outcomes {
        let scenario = Scenario::mix(outcome.session);
        let seed = session_seed(cfg.seed, outcome.session);
        assert_eq!(outcome.seed, seed, "session {} seed drifted", outcome.session);
        let (solo_hash, solo_virtual_ns) =
            solo_outcome(scenario, seed, FRAMES, DISPLAY).expect("solo run must succeed");
        assert_eq!(
            outcome.fb_hash, solo_hash,
            "session {} ({}) framebuffer differs from its solo run",
            outcome.session,
            scenario.label()
        );
        assert_eq!(
            outcome.virtual_ns, solo_virtual_ns,
            "session {} ({}) metered virtual time differs from its solo run",
            outcome.session,
            scenario.label()
        );
    }
}

#[test]
fn same_seed_and_config_reproduce_the_same_digest() {
    let cfg = small_config("repro", 2, 12, 4);
    let first = run_fleet(&cfg).expect("first fleet run must succeed");
    let second = run_fleet(&cfg).expect("second fleet run must succeed");
    assert_eq!(
        determinism_digest(&first.outcomes),
        determinism_digest(&second.outcomes),
        "per-session (hash, virtual_ns) digest must be schedule-independent"
    );
    // Per-device totals are sums of per-task ledger deltas, so they must
    // not depend on how many workers shared the devices' tasks.
    let device_ns = |workers| -> Vec<u64> {
        let report =
            run_fleet(&small_config("workers", 2, 24, workers)).expect("fleet run must succeed");
        report.devices.iter().map(|d| d.virtual_ns).collect()
    };
    assert_eq!(
        device_ns(1),
        device_ns(4),
        "per-device virtual ns must be worker-independent"
    );
}

#[test]
fn different_seeds_change_the_digest() {
    // Guards against the digest being vacuously stable (e.g. hashing
    // nothing): a different fleet seed must actually change results.
    let cfg_a = small_config("seed-a", 1, 4, 2);
    let mut cfg_b = small_config("seed-b", 1, 4, 2);
    cfg_b.seed = cfg_a.seed ^ 0xDEAD_BEEF;
    let a = run_fleet(&cfg_a).expect("fleet run must succeed");
    let b = run_fleet(&cfg_b).expect("fleet run must succeed");
    assert_ne!(determinism_digest(&a.outcomes), determinism_digest(&b.outcomes));
}

#[test]
fn oversubscribed_fleet_completes_every_session() {
    // Sessions ≫ workers ≫ devices: 48 sessions churn through 3 workers
    // on 2 shared devices. Every session completes (no starvation), the
    // device rollups account for all of them, and with this many
    // sessions per worker the load stays meaningfully spread.
    let cfg = small_config("oversub", 2, 48, 3);
    let report = run_fleet(&cfg).expect("oversubscribed fleet must complete");
    assert_eq!(report.outcomes.len(), 48, "every session must finish");
    let mut sessions: Vec<usize> = report.outcomes.iter().map(|o| o.session).collect();
    sessions.sort_unstable();
    assert_eq!(sessions, (0..48).collect::<Vec<_>>(), "no session lost or duplicated");
    assert!(report.outcomes.iter().all(|o| o.frame_wall_ns.len() == FRAMES as usize));
    let rollup: usize = report.devices.iter().map(|d| d.sessions).sum();
    assert_eq!(rollup, 48, "device rollups must account for every session");
    assert!(
        report.devices.iter().all(|d| d.sessions > 0 && d.virtual_ns > 0),
        "both shared devices must have done real work"
    );
}
