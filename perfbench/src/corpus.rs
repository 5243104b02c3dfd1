//! The two `.cyt` corpus workloads: `corpus-replay` (the read side) and
//! `corpus-record` (the write side). Both run one client thread over
//! one shared 48×32 device, taking the six committed traces' scenarios
//! round-robin in corpus order, starting at the trace the seed picks.

use std::time::Instant;

use cycada::{AppGl, CycadaDevice};
use cycada_gles::GlesVersion;
use cycada_replay::corpus::{self, CorpusEntry};
use cycada_replay::{replay_on_device, ReplayOptions};
use cycada_sim::replay::{
    mark, op, Recording, Stream, StreamMeta, MARK_END, MARK_METER_BEGIN, MARK_METER_END,
};
use cycada_sim::Platform;
use cycada_workloads::scenario::{frame, setup};

use crate::harness::{spanned, timed, Samples, SetupTimes, Workload};

/// The end markers a session of one corpus trace must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndMarkers {
    /// `cyt:meter-end`: metered virtual ns when the metered scope closed.
    pub meter_end_ns: u64,
    /// `cyt:end`: final framebuffer digest.
    pub digest: u64,
    /// `cyt:end`: final metered virtual ns.
    pub end_ns: u64,
}

impl EndMarkers {
    /// The last `cyt:meter-end` and `cyt:end` markers of `stream`.
    pub fn of(stream: &Stream) -> Result<EndMarkers, String> {
        let last = |name: &str| {
            stream
                .calls
                .iter()
                .rev()
                .find(|c| stream.name_of(c) == name)
                .map(|c| c.args.clone())
                .ok_or_else(|| format!("{}: no {name} marker", stream.meta.label))
        };
        let meter_end = last(MARK_METER_END)?;
        let end = last(MARK_END)?;
        match (meter_end.as_slice(), end.as_slice()) {
            ([meter_end_ns], [digest, end_ns]) => Ok(EndMarkers {
                meter_end_ns: *meter_end_ns,
                digest: *digest,
                end_ns: *end_ns,
            }),
            _ => Err(format!("{}: malformed end markers", stream.meta.label)),
        }
    }
}

/// One committed trace, decoded.
#[derive(Debug)]
struct Trace {
    entry: CorpusEntry,
    stream: Stream,
    /// Presents before `cyt:meter-begin`: the session's set-up frames.
    setup_presents: usize,
    expected: EndMarkers,
}

/// The corpus trace a run with `seed` starts at. The seed rotates the
/// round-robin rather than shuffling it, so every run replays the same
/// cycle and runs differ only in phase.
fn first(seed: u64) -> usize {
    (seed % corpus::ENTRIES.len() as u64) as usize
}

/// The display every corpus trace was recorded on.
fn corpus_display() -> (u32, u32) {
    corpus::ENTRIES[0].display
}

/// Reads and decodes every committed trace, timing the decodes.
fn load_corpus(decode_ns: &mut u64) -> Result<Vec<Trace>, String> {
    let mut traces = Vec::new();
    for entry in corpus::ENTRIES {
        let path = corpus::path(&entry);
        let bytes = spanned("read", || std::fs::read(&path))
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let mut ns = 0;
        let stream = spanned("decode", || timed(&mut ns, || Stream::decode(&bytes)))
            .map_err(|e| format!("decoding {}: {e}", path.display()))?;
        *decode_ns += ns;
        if entry.display != corpus_display() {
            return Err(format!(
                "{}: display differs from the rest of the corpus",
                entry.file
            ));
        }
        let meter_begin = stream
            .calls
            .iter()
            .position(|c| stream.name_of(c) == MARK_METER_BEGIN)
            .ok_or_else(|| format!("{}: no {MARK_METER_BEGIN} marker", entry.file))?;
        let setup_presents = stream.calls[..meter_begin]
            .iter()
            .filter(|c| stream.name_of(c) == op::PRESENT)
            .count();
        let expected = EndMarkers::of(&stream)?;
        traces.push(Trace {
            entry,
            stream,
            setup_presents,
            expected,
        });
    }
    Ok(traces)
}

fn boot_shared(boot_ns: &mut u64) -> Result<CycadaDevice, String> {
    spanned("boot", || {
        timed(boot_ns, || {
            CycadaDevice::boot_with_display(Some(corpus_display()))
        })
    })
    .map_err(|e| format!("boot failed: {e}"))
}

/// `corpus-replay`: each session replays one committed trace with
/// digest checks on, as a fresh session on the shared device.
#[derive(Debug)]
pub struct CorpusReplay {
    device: CycadaDevice,
    traces: Vec<Trace>,
    next: usize,
}

impl CorpusReplay {
    /// Decodes the corpus and boots the shared device.
    pub fn setup(seed: u64) -> Result<(CorpusReplay, SetupTimes), String> {
        let mut st = SetupTimes::default();
        let traces = load_corpus(&mut st.decode_ns)?;
        let device = boot_shared(&mut st.boot_ns)?;
        Ok((
            CorpusReplay {
                device,
                traces,
                next: first(seed),
            },
            st,
        ))
    }
}

/// Warm-up sessions of each corpus workload: fifty rounds of the six
/// traces.
const WARMUP_SESSIONS: u64 = 300;

impl Workload for CorpusReplay {
    fn warmup_units(&self) -> u64 {
        WARMUP_SESSIONS
    }

    fn cycle(&self) -> u64 {
        corpus::ENTRIES.len() as u64
    }

    fn unit(&mut self, s: &mut Samples) {
        let trace = &self.traces[self.next % self.traces.len()];
        self.next += 1;
        s.attempted += 1;
        let t = Instant::now();
        let result = spanned("replay_on_device", || {
            replay_on_device(&self.device, &trace.stream, &ReplayOptions::digests_only())
        });
        let session_ns = t.elapsed().as_nanos() as u64;
        let label = trace.entry.scenario.label();
        let out = match result {
            Ok(out) => out,
            Err(e) => return s.fail(format_args!("replay {label}: {e}")),
        };
        let want = trace.expected;
        if out.metered_ns != want.meter_end_ns || out.metered_ns != want.end_ns {
            return s.fail(format_args!(
                "replay {label}: metered {} ns, trace says {} ns",
                out.metered_ns, want.meter_end_ns
            ));
        }
        if out.digest != want.digest {
            return s.fail(format_args!(
                "replay {label}: final digest differs from cyt:end"
            ));
        }
        // The first present interval of a replay covers session set-up;
        // only presents inside the metered region are frames.
        for &ns in out.present_wall_ns.iter().skip(trace.setup_presents) {
            s.frames_ns.push(ns);
            s.scenario_frame(label, ns);
        }
        s.attach_ns.push(out.attach_wall_ns);
        s.sessions_ns.push(session_ns);
    }
}

/// `corpus-record`: each session runs one corpus scenario scripted,
/// with its seed, frames and display, on the shared device with a
/// `Recording` attached, then encodes the stream.
#[derive(Debug)]
pub struct CorpusRecord {
    device: CycadaDevice,
    entries: Vec<(CorpusEntry, EndMarkers)>,
    next: usize,
    record: bool,
}

impl CorpusRecord {
    /// Reads the committed traces' end markers and boots the shared
    /// device.
    pub fn setup(seed: u64) -> Result<(CorpusRecord, SetupTimes), String> {
        let mut st = SetupTimes::default();
        let entries = load_corpus(&mut st.decode_ns)?
            .into_iter()
            .map(|t| (t.entry, t.expected))
            .collect::<Vec<_>>();
        let device = boot_shared(&mut st.boot_ns)?;
        Ok((
            CorpusRecord {
                device,
                entries,
                next: first(seed),
                record: true,
            },
            st,
        ))
    }

    /// One scripted session; returns the recorded stream (when
    /// recording) and the session's own end markers.
    fn session(
        &self,
        entry: &CorpusEntry,
        s: &mut Samples,
    ) -> Result<(Option<Stream>, EndMarkers), String> {
        let scenario = entry.scenario;
        let label = scenario.label();
        let mut attach_ns = 0;
        let mut app = spanned("attach", || {
            timed(&mut attach_ns, || {
                AppGl::attach_cycada(&self.device, scenario.gles_version())
            })
        })
        .map_err(|e| format!("attach failed: {e}"))?;
        let recording = self.record.then(|| {
            Recording::new(StreamMeta {
                platform: Platform::CycadaIos,
                gles: match scenario.gles_version() {
                    GlesVersion::V1 => 1,
                    GlesVersion::V2 => 2,
                },
                width: entry.display.0,
                height: entry.display.1,
                seed: entry.seed,
                label: label.to_owned(),
            })
        });
        let guard = recording.as_ref().map(Recording::attach);
        let mut state = spanned("setup", || setup(&mut app, scenario, entry.seed))
            .map_err(|e| format!("setup failed: {e}"))?;
        mark(MARK_METER_BEGIN, &[]);
        {
            let _scope = app.session_scope();
            for f in 0..entry.frames {
                let mut ns = 0;
                spanned("frame", || {
                    timed(&mut ns, || frame(&mut app, &mut state, entry.seed, f))
                })
                .map_err(|e| format!("frame {f} failed: {e}"))?;
                s.frames_ns.push(ns);
                s.scenario_frame(label, ns);
            }
        }
        let meter_end_ns = app.session_virtual_ns();
        mark(MARK_METER_END, &[meter_end_ns]);
        let digest = spanned("render_hash", || app.render_hash())
            .map_err(|e| format!("render_hash failed: {e}"))?;
        let end_ns = app.session_virtual_ns();
        mark(MARK_END, &[digest, end_ns]);
        drop(guard);
        let stream = recording.map(|rec| {
            let stream = rec.stream();
            let mut ns = 0;
            let bytes = spanned("encode", || timed(&mut ns, || stream.encode()));
            std::hint::black_box(bytes);
            s.encode_ns.push(ns);
            stream
        });
        spanned("teardown", || drop(app));
        s.attach_ns.push(attach_ns);
        Ok((
            stream,
            EndMarkers {
                meter_end_ns,
                digest,
                end_ns,
            },
        ))
    }
}

impl Workload for CorpusRecord {
    fn warmup_units(&self) -> u64 {
        WARMUP_SESSIONS
    }

    fn cycle(&self) -> u64 {
        corpus::ENTRIES.len() as u64
    }

    fn unit(&mut self, s: &mut Samples) {
        let (entry, want) = self.entries[self.next % self.entries.len()];
        self.next += 1;
        s.attempted += 1;
        let label = entry.scenario.label();
        let t = Instant::now();
        let result = self.session(&entry, s);
        let session_ns = t.elapsed().as_nanos() as u64;
        let (stream, live) = match result {
            Ok(r) => r,
            Err(e) => return s.fail(format_args!("record {label}: {e}")),
        };
        if live != want {
            return s.fail(format_args!(
                "record {label}: session {live:?}, committed trace {want:?}"
            ));
        }
        if let Some(stream) = stream {
            // Compare markers, not bytes: set-up timestamps shift on a
            // shared device once its symbols are resolved.
            match EndMarkers::of(&stream) {
                Ok(got) if got == want => {}
                Ok(got) => {
                    return s.fail(format_args!(
                        "record {label}: recorded {got:?}, committed {want:?}"
                    ))
                }
                Err(e) => return s.fail(format_args!("record {label}: {e}")),
            }
        }
        s.sessions_ns.push(session_ns);
    }

    fn set_recording(&mut self, on: bool) -> bool {
        self.record = on;
        true
    }
}
