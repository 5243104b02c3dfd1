//! `hd-scenes`: six app sessions split-screen on one 1024×768 device
//! (the paper's iPad mini panel), presenting round-robin. A frame is
//! one panel refresh: every app presents once.

use std::time::Instant;

use cycada::{AppGl, CycadaDevice};
use cycada_gpu::raster::Rect;
use cycada_replay::corpus;
use cycada_sim::Nanos;
use cycada_workloads::scenario::{frame, setup, Scenario, ScenarioState};

use crate::harness::{drain_trace, spanned, timed, Samples, SetupTimes, Workload};

/// The panel.
pub const DISPLAY: (u32, u32) = (1024, 768);

/// Refreshes per panel session.
pub const REFRESHES: u32 = 16;

/// Tile grid: three columns by two rows.
const COLS: u32 = 3;
const ROWS: u32 = 2;

/// Golden `(scenario, final digest, metered ns)` per app after
/// [`REFRESHES`] frames, one line each (see [`golden_text`]).
const GOLDEN: &str = include_str!("../golden/hd-scenes.txt");

/// The apps: the six corpus scenarios with their corpus seeds.
fn apps() -> Vec<(Scenario, u64)> {
    corpus::ENTRIES
        .iter()
        .map(|e| (e.scenario, e.seed))
        .collect()
}

/// The golden file's text: one panel session's outcomes. Each app's
/// final digest must also equal a solo run's on a private full-screen
/// device (the metered ns differ from solo: composition into a tile
/// costs less virtual time than a full-screen post).
pub fn golden_text() -> Result<String, String> {
    let (hd, _) = HdScenes::setup(0)?;
    let outcomes = hd.panel_session(&mut Samples::default())?;
    let mut out = String::from(
        "# scenario digest metered_ns (written by: cycada-perfbench --print-golden)\n",
    );
    for ((scenario, seed), (digest, ns)) in apps().into_iter().zip(outcomes) {
        let (solo, _) = cycada_fleet::solo_outcome(scenario, seed, REFRESHES, DISPLAY)?;
        if solo != digest {
            return Err(format!(
                "{}: split-screen digest differs from solo",
                scenario.label()
            ));
        }
        out.push_str(&format!("{} {digest:#018x} {ns}\n", scenario.label()));
    }
    Ok(out)
}

fn parse_golden(text: &str) -> Result<Vec<(String, u64, Nanos)>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|line| {
            let bad = || format!("bad golden line {line:?}");
            let mut f = line.split_whitespace();
            let label = f.next().ok_or_else(bad)?.to_owned();
            let digest = f
                .next()
                .and_then(|d| u64::from_str_radix(d.trim_start_matches("0x"), 16).ok())
                .ok_or_else(bad)?;
            let ns = f.next().and_then(|n| n.parse().ok()).ok_or_else(bad)?;
            Ok((label, digest, ns))
        })
        .collect()
}

/// The shared panel device, each app's tile and the expected outcomes.
#[derive(Debug)]
pub struct HdScenes {
    device: CycadaDevice,
    /// Rotation the seed picks: app `k` takes tile `(k + shift) % 6`,
    /// and app `shift` presents first in every refresh.
    shift: usize,
    golden: Vec<(String, u64, Nanos)>,
}

impl HdScenes {
    /// Boots the panel device and reads the golden outcomes.
    pub fn setup(seed: u64) -> Result<(HdScenes, SetupTimes), String> {
        let mut st = SetupTimes::default();
        let golden = parse_golden(GOLDEN)?;
        let apps = apps();
        if golden.len() != apps.len()
            || golden
                .iter()
                .zip(&apps)
                .any(|(g, (sc, _))| g.0 != sc.label())
        {
            return Err("golden file does not list the six corpus scenarios in order".into());
        }
        let device = spanned("boot", || {
            timed(&mut st.boot_ns, || {
                CycadaDevice::boot_with_display(Some(DISPLAY))
            })
        })
        .map_err(|e| format!("boot failed: {e}"))?;
        let shift = (seed % apps.len() as u64) as usize;
        Ok((
            HdScenes {
                device,
                shift,
                golden,
            },
            st,
        ))
    }

    fn tile(index: usize) -> Rect {
        let (w, h) = (DISPLAY.0 / COLS, DISPLAY.1 / ROWS);
        let (col, row) = (index as u32 % COLS, index as u32 / COLS);
        Rect {
            x: col * w,
            y: row * h,
            w,
            h,
        }
    }

    /// Attaches and sets up every app, runs the refreshes, and returns
    /// each app's final digest and metered ns.
    fn panel_session(&self, s: &mut Samples) -> Result<Vec<(u64, Nanos)>, String> {
        let apps = apps();
        let mut live: Vec<(AppGl, ScenarioState)> = Vec::with_capacity(apps.len());
        for (k, &(scenario, seed)) in apps.iter().enumerate() {
            let label = scenario.label();
            let mut ns = 0;
            let mut app = spanned("attach", || {
                timed(&mut ns, || {
                    AppGl::attach_cycada(&self.device, scenario.gles_version())
                })
            })
            .map_err(|e| format!("{label}: attach failed: {e}"))?;
            s.attach_ns.push(ns);
            spanned("set_display_layer", || {
                app.set_display_layer(Self::tile((k + self.shift) % apps.len()))
            })
            .map_err(|e| format!("{label}: set_display_layer failed: {e}"))?;
            let state = spanned("setup", || setup(&mut app, scenario, seed))
                .map_err(|e| format!("{label}: setup failed: {e}"))?;
            live.push((app, state));
        }
        for r in 0..REFRESHES {
            let t = Instant::now();
            let refresh = cycada_sim::trace::span(cycada_sim::trace::Category::App, "refresh");
            for j in 0..live.len() {
                let k = (self.shift + j) % live.len();
                let (scenario, seed) = apps[k];
                let (app, state) = &mut live[k];
                let _scope = app.session_scope();
                let mut ns = 0;
                spanned("frame", || timed(&mut ns, || frame(app, state, seed, r)))
                    .map_err(|e| format!("{}: refresh {r} failed: {e}", scenario.label()))?;
                s.scenario_frame(scenario.label(), ns);
            }
            s.frames_ns.push(t.elapsed().as_nanos() as u64);
            // A traced panel session outgrows one trace ring.
            drop(refresh);
            drain_trace();
        }
        let outcomes = live
            .iter()
            .map(|(app, _)| {
                let digest = spanned("render_hash", || app.render_hash())
                    .map_err(|e| format!("render_hash failed: {e}"))?;
                Ok((digest, app.session_virtual_ns()))
            })
            .collect::<Result<Vec<_>, String>>()?;
        spanned("teardown", || drop(live));
        Ok(outcomes)
    }
}

impl Workload for HdScenes {
    fn warmup_units(&self) -> u64 {
        1
    }

    fn unit(&mut self, s: &mut Samples) {
        let apps = self.golden.len() as u64;
        s.attempted += apps;
        let t = Instant::now();
        let result = self.panel_session(s);
        let session_ns = t.elapsed().as_nanos() as u64;
        let outcomes = match result {
            Ok(o) => o,
            Err(e) => {
                s.fail(format_args!("panel session: {e}"));
                s.failed += apps - 1;
                return;
            }
        };
        for ((label, digest, ns), got) in self.golden.iter().zip(outcomes) {
            if got != (*digest, *ns) {
                s.fail(format_args!(
                    "{label}: digest {:#x} / {} ns, golden {digest:#x} / {ns} ns",
                    got.0, got.1
                ));
            }
        }
        s.sessions_ns.push(session_ns);
    }

    fn presents_per_frame(&self) -> u64 {
        self.golden.len() as u64
    }
}
