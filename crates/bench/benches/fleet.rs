//! Fleet-plane load benchmark: boots fleets of shared Cycada devices,
//! churns sessions through them via the `cycada-fleet` orchestrator,
//! and writes the committed `BENCH_fleet.json` — total frame throughput,
//! p50/p95/p99 attach and frame wall latency, per-device
//! virtual-vs-wall efficiency, and trace-plane counter rollups (deadline
//! misses, lock waits) for each fleet shape.
//!
//! Shapes scale from one device up to thousands of devices and sessions;
//! every session still runs the full stack (attach → scenario setup →
//! metered frames → teardown). The orchestrator's determinism contract
//! is asserted by `tests/tests/fleet.rs`, not here — this harness only
//! measures.
//!
//! Usage:
//!   cargo bench --bench fleet               # all shapes, writes BENCH_fleet.json
//!   cargo bench --bench fleet -- --test     # one tiny smoke shape and its
//!                                           # per-device virtual ms, no file
//!   CYCADA_FLEET_DEVICES=64 CYCADA_FLEET_SESSIONS=4096 \
//!       cargo bench --bench fleet           # override the sweep shape
//!   CYCADA_FLEET_JSON_OUT=/tmp/f.json cargo bench --bench fleet
//!
//! `CYCADA_FLEET_DEVICES`/`CYCADA_FLEET_SESSIONS` apply to the final
//! (sweep) shape only, so nightly full-scale runs can push it without
//! losing the comparable smaller shapes.

use cycada_fleet::{fleet_json, run_fleet, FleetConfig, FleetReport};

/// The committed result file, resolved from the package directory so the
/// bench works from any cwd.
const DEFAULT_OUT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");

const DISPLAY: (u32, u32) = (64, 48);
const FRAMES: u32 = 4;

fn shape(name: &str, devices: usize, sessions: usize) -> FleetConfig {
    let mut cfg = FleetConfig::new(name, devices, sessions);
    cfg.frames = FRAMES;
    cfg.display = DISPLAY;
    cfg
}

fn run_shape(cfg: &FleetConfig) -> FleetReport {
    let report = run_fleet(cfg).unwrap_or_else(|e| panic!("fleet shape {}: {e}", cfg.name));
    let attach = report.attach_percentiles();
    let frame = report.frame_percentiles();
    println!(
        "fleet/{:<12} {:>5} devices {:>6} sessions {:>2} workers | \
         {:>9.1} frames/s | attach p50/p95/p99 {}/{}/{} us | \
         frame p50/p95/p99 {}/{}/{} us | {} deadline misses",
        report.name,
        report.devices.len(),
        report.outcomes.len(),
        report.workers,
        report.throughput_fps(),
        attach.p50 / 1_000,
        attach.p95 / 1_000,
        attach.p99 / 1_000,
        frame.p50 / 1_000,
        frame.p95 / 1_000,
        frame.p99 / 1_000,
        report.deadline_misses,
    );
    report
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    if smoke {
        // Bench-target smoke mode (`cargo bench -- --test`): one tiny
        // fleet proves the harness end to end, no file written.
        let report = run_shape(&shape("smoke_d2_s8", 2, 8));
        assert_eq!(report.outcomes.len(), 8);
        for d in &report.devices {
            println!(
                "fleet/smoke_d2_s8 device {}: {} sessions, {:.3} virtual ms",
                d.device,
                d.sessions,
                d.virtual_ns as f64 / 1e6
            );
        }
        println!("fleet bench smoke ok");
        return;
    }

    let shapes = [
        // Baseline: every session contends for one shared device.
        shape("d1_s32", 1, 32),
        // Mid-size fleet: sessions spread over 8 devices.
        shape("d8_s256", 8, 256),
        // Wide fleet: many devices, few sessions each (attach-heavy).
        shape("d256_s1024", 256, 1024),
        // Full-scale sweep: thousands of devices and sessions. Nightly
        // can push this further via the env knobs.
        shape("sweep_d1024_s4096", 1024, 4096).with_env(),
    ];
    let reports: Vec<_> = shapes.iter().map(run_shape).collect();

    let out = std::env::var("CYCADA_FLEET_JSON_OUT").unwrap_or_else(|_| DEFAULT_OUT.to_owned());
    std::fs::write(&out, fleet_json(&criterion::host_json(), &reports))
        .unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("wrote {out}");
}
