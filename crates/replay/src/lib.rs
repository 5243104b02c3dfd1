//! The replay plane, replay side (DESIGN.md §5i).
//!
//! `cycada_sim::replay` records per-session call streams at the app
//! facade; this crate drives them back. [`replay_stream`] boots a fresh
//! session congruent with the stream's header (platform, GLES version,
//! display) and re-issues every recorded call through the same `AppGl`
//! entry points — so the whole diplomat/EAGL/EGL stack under the facade
//! executes again — asserting, call by call:
//!
//! * **Pixels** — every recorded present carries the post-present
//!   framebuffer digest; the replayed frame must hash byte-identically.
//! * **Virtual time** — every recorded call carries the calling thread's
//!   charge-ledger delta; the replayed call must land on exactly the same
//!   nanosecond. The metered-region markers additionally pin
//!   `session_virtual_ns` at meter close and stream end.
//!
//! A divergence is reported as a typed [`ReplayError::Diverged`] and can
//! be ddmin-shrunk ([`shrink_divergence`], a predicate over the one
//! shrinker, [`shrink_calls`]) into a minimal `.cyt` that still
//! reproduces it.
//!
//! [`replay_on_device`] replays onto an *existing shared device* instead
//! — the fleet plane's fifth scenario kind (`replay:<path>`), fanning a
//! recorded trace out across thousands of sessions. Shared devices
//! legitimately shift per-call timestamps (device-global symbol
//! resolution is charged once per device, to whichever session warms it
//! up), so fleet replay keeps the digest checks and drops the per-call
//! timestamp checks, exactly mirroring the fleet determinism contract.
//!
//! # Texture-name mapping
//!
//! Recorded texture names are whatever the recording run's allocator
//! returned; the replaying session gets its own. `create-texture` calls
//! carry the recorded name, and the replayer maintains a recorded→live
//! map. A call referencing an unknown recorded name is skipped rather
//! than failed, so every subsequence of a stream stays executable, which
//! is what lets ddmin converge.
//!
//! # Sessions
//!
//! A stream drives its header session (id 0) until a [`MARK_SESSION`]
//! marker selects another. An id not seen before attaches a new session
//! with the marker's GLES version on the same Cycada device — the same
//! unknown-name convention, so dropping any marker leaves an executable
//! stream. Each session keeps its own texture map and metered region;
//! only the selected session's scope is open.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use cycada::{AppGl, CycadaDevice, SessionScope};
use cycada_gles::{Capability, GlesVersion, Primitive, TexFormat};
use cycada_gpu::DrawClass;
use cycada_sim::replay::{
    arg_f32, arg_f64, arg_i32, mark, op, Call, Stream, MARK_END, MARK_METER_BEGIN, MARK_METER_END,
};
use cycada_sim::{Nanos, Platform, VirtualClock};

pub use cycada_sim::replay::{
    f32_arg, f64_arg, i32_arg, platform_code, platform_from_code, CodecError, Recording,
    StreamMeta, FORMAT_VERSION, MAGIC,
};
pub use cycada_sim::replay::{Call as ReplayCall, Stream as ReplayStream};

pub mod corpus;

/// Marker call: the calls that follow go to session `args[0]`, attached
/// on first use as a new `AppGl::attach_cycada` session of GLES version
/// `args[1]` on the replay device. The header session is id 0.
pub const MARK_SESSION: &str = "cyt:session";

// ----------------------------------------------------------------------
// Options and errors
// ----------------------------------------------------------------------

/// Deliberate faults a replay can inject (regression tests for the
/// divergence machinery itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Perturbs the red channel of every replayed `clear`, forcing a
    /// pixel divergence at the next present.
    WrongClearColor,
}

/// What a replay checks and how it runs.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// Compare per-present and end-of-stream framebuffer digests.
    pub check_digests: bool,
    /// Compare per-call virtual timestamps and metered totals. Turn off
    /// when replaying onto shared fleet devices (see module docs) or
    /// while shrinking (removing calls shifts every later timestamp).
    pub check_timestamps: bool,
    /// Deliberate fault to inject.
    pub fault: Option<Fault>,
    /// Re-record the replayed session into a fresh [`Stream`], returned
    /// in [`ReplayOutcome::rerecording`]. A faithful replay re-records
    /// byte-identically — the strongest round-trip check.
    pub rerecord: bool,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            check_digests: true,
            check_timestamps: true,
            fault: None,
            rerecord: false,
        }
    }
}

impl ReplayOptions {
    /// Digest checks only — the shared-device (fleet) contract.
    pub fn digests_only() -> Self {
        ReplayOptions { check_timestamps: false, ..Default::default() }
    }
}

/// Which determinism contract a divergence broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// Framebuffer digest mismatch.
    Pixels,
    /// Per-call virtual timestamp or metered-total mismatch.
    VirtualTime,
}

/// A replayed call whose result disagreed with the recording.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Index of the diverging call in the stream.
    pub index: usize,
    /// Operation name of the diverging call.
    pub call: String,
    /// Contract broken.
    pub kind: DivergenceKind,
    /// Recorded value (digest or nanoseconds).
    pub expected: u64,
    /// Replayed value.
    pub actual: u64,
}

/// Why a replay failed.
#[derive(Debug)]
pub enum ReplayError {
    /// Reading the `.cyt` file failed.
    Io(std::io::Error),
    /// The `.cyt` bytes failed to decode.
    Codec(CodecError),
    /// Booting or attaching the replay session failed.
    Session(String),
    /// The stream names an operation this replayer doesn't know.
    UnknownCall {
        /// Call index.
        index: usize,
        /// The unknown operation name.
        name: String,
    },
    /// A call's arguments or payload are malformed for its operation.
    Malformed {
        /// Call index.
        index: usize,
        /// Operation name.
        name: String,
        /// What was wrong.
        detail: String,
    },
    /// The replay ran but disagreed with the recording.
    Diverged(Divergence),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Io(e) => write!(f, "replay I/O failure: {e}"),
            ReplayError::Codec(e) => write!(f, "replay decode failure: {e}"),
            ReplayError::Session(m) => write!(f, "replay session failure: {m}"),
            ReplayError::UnknownCall { index, name } => {
                write!(f, "call {index}: unknown operation {name:?}")
            }
            ReplayError::Malformed { index, name, detail } => {
                write!(f, "call {index} ({name}): malformed: {detail}")
            }
            ReplayError::Diverged(d) => write!(
                f,
                "call {} ({}) diverged [{:?}]: recorded {:#x}, replayed {:#x}",
                d.index, d.call, d.kind, d.expected, d.actual
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<CodecError> for ReplayError {
    fn from(e: CodecError) -> Self {
        ReplayError::Codec(e)
    }
}

impl From<std::io::Error> for ReplayError {
    fn from(e: std::io::Error) -> Self {
        ReplayError::Io(e)
    }
}

/// What a completed (non-diverging) replay produced.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Final framebuffer digest of the header session.
    pub digest: u64,
    /// Final metered virtual nanoseconds of the header session.
    pub metered_ns: Nanos,
    /// Calls executed.
    pub calls: usize,
    /// Presents executed.
    pub presents: usize,
    /// Wall nanoseconds to attach/boot the replay session.
    pub attach_wall_ns: u64,
    /// Wall nanoseconds between consecutive presents.
    pub present_wall_ns: Vec<u64>,
    /// Fragments shaded by each executed draw call, in stream order.
    pub frags: Vec<u64>,
    /// The re-recorded stream when [`ReplayOptions::rerecord`] was set.
    pub rerecording: Option<Stream>,
}

// ----------------------------------------------------------------------
// Replay entry points
// ----------------------------------------------------------------------

/// The `.cyt` wire code of a GLES version (header and `cyt:session`).
pub fn gles_code(version: GlesVersion) -> u8 {
    match version {
        GlesVersion::V1 => 1,
        GlesVersion::V2 => 2,
    }
}

/// The GLES version a `.cyt` wire code names, if any.
pub fn gles_from_code(code: u64) -> Option<GlesVersion> {
    match code {
        1 => Some(GlesVersion::V1),
        2 => Some(GlesVersion::V2),
        _ => None,
    }
}

fn gles_version(stream: &Stream) -> Result<GlesVersion, ReplayError> {
    gles_from_code(u64::from(stream.meta.gles)).ok_or_else(|| {
        ReplayError::Session(format!("bad GLES version code {}", stream.meta.gles))
    })
}

/// Replays `stream` on a freshly booted private device per its header —
/// the full-fidelity contract (pixels *and* per-call nanoseconds).
pub fn replay_stream(stream: &Stream, opts: &ReplayOptions) -> Result<ReplayOutcome, ReplayError> {
    let version = gles_version(stream)?;
    let started = Instant::now();
    let app = AppGl::boot_with_display(
        stream.meta.platform,
        version,
        Some((stream.meta.width, stream.meta.height)),
    )
    .map_err(|e| ReplayError::Session(format!("boot failed: {e}")))?;
    let attach_wall_ns = started.elapsed().as_nanos() as u64;
    drive(app, stream, opts, attach_wall_ns)
}

/// Replays `stream` as a fresh session attached to an existing shared
/// Cycada device — the fleet fan-out path. Callers should use
/// [`ReplayOptions::digests_only`]: shared devices shift per-call
/// timestamps (module docs) while pixels stay exact.
pub fn replay_on_device(
    device: &CycadaDevice,
    stream: &Stream,
    opts: &ReplayOptions,
) -> Result<ReplayOutcome, ReplayError> {
    if stream.meta.platform != Platform::CycadaIos {
        return Err(ReplayError::Session(format!(
            "stream platform {:?} cannot attach to a Cycada device",
            stream.meta.platform
        )));
    }
    let version = gles_version(stream)?;
    let started = Instant::now();
    let app = AppGl::attach_cycada(device, version)
        .map_err(|e| ReplayError::Session(format!("attach failed: {e}")))?;
    let attach_wall_ns = started.elapsed().as_nanos() as u64;
    if (app.width(), app.height()) != (stream.meta.width, stream.meta.height) {
        return Err(ReplayError::Session(format!(
            "device display {}x{} does not match recording {}x{}",
            app.width(),
            app.height(),
            stream.meta.width,
            stream.meta.height
        )));
    }
    drive(app, stream, opts, attach_wall_ns)
}

/// Reads, decodes, and [`replay_stream`]s a `.cyt` file.
pub fn replay_file(path: &Path, opts: &ReplayOptions) -> Result<ReplayOutcome, ReplayError> {
    let bytes = std::fs::read(path)?;
    let stream = Stream::decode(&bytes)?;
    replay_stream(&stream, opts)
}

fn diverged(
    index: usize,
    name: &str,
    kind: DivergenceKind,
    expected: u64,
    actual: u64,
) -> ReplayError {
    ReplayError::Diverged(Divergence {
        index,
        call: name.to_owned(),
        kind,
        expected,
        actual,
    })
}

fn malformed(index: usize, name: &str, detail: impl Into<String>) -> ReplayError {
    ReplayError::Malformed { index, name: name.to_owned(), detail: detail.into() }
}

fn payload_f32s(call: &Call, index: usize, name: &str) -> Result<Vec<f32>, ReplayError> {
    if !call.payload.len().is_multiple_of(4) {
        return Err(malformed(index, name, "payload is not a multiple of 4 bytes"));
    }
    Ok(call
        .payload
        .chunks_exact(4)
        .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().expect("len 4"))))
        .collect())
}

fn payload_u32s(call: &Call, index: usize, name: &str) -> Result<Vec<u32>, ReplayError> {
    if !call.payload.len().is_multiple_of(4) {
        return Err(malformed(index, name, "payload is not a multiple of 4 bytes"));
    }
    Ok(call
        .payload
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("len 4")))
        .collect())
}

/// One replayed session: the header session (recorded id 0) or one a
/// `cyt:session` marker attached.
struct Session {
    /// Recorded session id.
    id: u64,
    app: AppGl,
    /// Recorded→live texture names.
    texmap: HashMap<u64, u32>,
    /// Inside this session's `cyt:meter-begin`…`cyt:meter-end`.
    metering: bool,
}

impl Session {
    fn new(id: u64, app: AppGl) -> Session {
        Session { id, app, texmap: HashMap::new(), metering: false }
    }
}

/// Drives every call of `stream` through `app` (the header session) and
/// any sessions the stream's `cyt:session` markers attach. The session
/// and scope discipline mirrors the recording harness exactly; see
/// module docs for what is checked when.
fn drive(
    app: AppGl,
    stream: &Stream,
    opts: &ReplayOptions,
    attach_wall_ns: u64,
) -> Result<ReplayOutcome, ReplayError> {
    let session_err = |e: cycada::CycadaError| ReplayError::Session(e.to_string());
    // Re-recording attaches after session setup, exactly like the
    // recording harness, so timestamp bases line up.
    let rerec = opts.rerecord.then(|| Recording::new(stream.meta.clone()));
    let _guard = rerec.as_ref().map(|r| r.attach());

    let base = VirtualClock::thread_charged_ns();
    let mut sessions = vec![Session::new(0, app)];
    let mut cur = 0usize;
    let mut scope: Option<SessionScope> = None;
    let mut presents = 0usize;
    let mut frags = Vec::new();
    let mut present_wall_ns = Vec::new();
    let mut last_present = Instant::now();

    for (index, call) in stream.calls.iter().enumerate() {
        let name = stream.name_of(call);
        let a = |k: usize| call.args.get(k).copied().unwrap_or(0);
        if name == MARK_SESSION {
            let device = match sessions[0].app.cycada_device() {
                Some(device) if stream.meta.platform == Platform::CycadaIos => device.clone(),
                _ => {
                    return Err(ReplayError::Session(format!(
                        "call {index}: {MARK_SESSION} needs a Cycada iOS stream, not {:?}",
                        stream.meta.platform
                    )))
                }
            };
            scope = None;
            cur = match sessions.iter().position(|s| s.id == a(0)) {
                Some(i) => i,
                None => {
                    let version = gles_from_code(a(1))
                        .ok_or_else(|| malformed(index, name, "bad GLES version code"))?;
                    let app = AppGl::attach_cycada(&device, version).map_err(session_err)?;
                    sessions.push(Session::new(a(0), app));
                    sessions.len() - 1
                }
            };
            if sessions[cur].metering {
                scope = Some(sessions[cur].app.session_scope());
            }
            mark(MARK_SESSION, &[a(0), a(1)]);
        }
        let Session { app, texmap, metering, .. } = &mut sessions[cur];
        match name {
            MARK_SESSION => {} // switched above
            op::CLEAR => {
                let mut r = arg_f32(a(0));
                if opts.fault == Some(Fault::WrongClearColor) {
                    r = (r + 0.5) % 1.0;
                }
                app.clear(r, arg_f32(a(1)), arg_f32(a(2)), arg_f32(a(3)))
                    .map_err(session_err)?;
            }
            op::SCISSOR => {
                app.set_scissor(arg_i32(a(0)), arg_i32(a(1)), a(2) as u32, a(3) as u32)
                    .map_err(session_err)?;
            }
            op::CAPABILITY => {
                let cap = Capability::from_code(a(0) as u8)
                    .ok_or_else(|| malformed(index, name, "bad capability code"))?;
                app.set_capability(cap, a(1) != 0).map_err(session_err)?;
            }
            op::PUSH => app.push_transform().map_err(session_err)?,
            op::POP => app.pop_transform().map_err(session_err)?,
            op::ROTATE => app.rotate(arg_f32(a(0))).map_err(session_err)?,
            op::TRANSLATE => app
                .translate(arg_f32(a(0)), arg_f32(a(1)), arg_f32(a(2)))
                .map_err(session_err)?,
            op::SCALE => app
                .scale(arg_f32(a(0)), arg_f32(a(1)), arg_f32(a(2)))
                .map_err(session_err)?,
            op::IDENTITY => app.load_identity().map_err(session_err)?,
            op::DRAW => {
                let mode = Primitive::from_code(a(0) as u8)
                    .ok_or_else(|| malformed(index, name, "bad primitive code"))?;
                let xyz = payload_f32s(call, index, name)?;
                let color = [arg_f32(a(1)), arg_f32(a(2)), arg_f32(a(3)), arg_f32(a(4))];
                frags.push(app.draw(mode, &xyz, color).map_err(session_err)?);
            }
            op::CREATE_TEXTURE => {
                let format = TexFormat::from_code(a(2) as u8)
                    .ok_or_else(|| malformed(index, name, "bad texture format code"))?;
                let tex = app
                    .create_texture(a(0) as u32, a(1) as u32, format, &call.payload)
                    .map_err(session_err)?;
                texmap.insert(a(3), tex);
            }
            op::UPDATE_TEXTURE => {
                if let Some(&tex) = texmap.get(&a(0)) {
                    let format = TexFormat::from_code(a(5) as u8)
                        .ok_or_else(|| malformed(index, name, "bad texture format code"))?;
                    app.update_texture(
                        tex,
                        a(1) as u32,
                        a(2) as u32,
                        a(3) as u32,
                        a(4) as u32,
                        format,
                        &call.payload,
                    )
                    .map_err(session_err)?;
                }
            }
            op::TEX_QUAD => {
                if let Some(&tex) = texmap.get(&a(0)) {
                    frags.push(app.draw_textured_quad(
                        tex,
                        arg_f32(a(1)),
                        arg_f32(a(2)),
                        arg_f32(a(3)),
                        arg_f32(a(4)),
                    )
                    .map_err(session_err)?);
                }
            }
            op::TEX_QUAD_INDEXED => {
                if let Some(&tex) = texmap.get(&a(0)) {
                    frags.push(app.draw_textured_quad_indexed(
                        tex,
                        arg_f32(a(1)),
                        arg_f32(a(2)),
                        arg_f32(a(3)),
                        arg_f32(a(4)),
                    )
                    .map_err(session_err)?);
                }
            }
            op::FLUSH => app.flush().map_err(session_err)?,
            op::DELETE_TEXTURES => {
                let recorded = payload_u32s(call, index, name)?;
                let live: Vec<u32> = recorded
                    .iter()
                    .filter_map(|n| texmap.remove(&u64::from(*n)))
                    .collect();
                if !live.is_empty() {
                    app.delete_textures(&live).map_err(session_err)?;
                }
            }
            op::EXTENSIONS => {
                app.extensions().map_err(session_err)?;
            }
            op::DISPLAY_LAYER => {
                app.set_display_layer(cycada_gpu::raster::Rect {
                    x: a(0) as u32,
                    y: a(1) as u32,
                    w: a(2) as u32,
                    h: a(3) as u32,
                })
                .map_err(session_err)?;
            }
            op::PRESENT => {
                app.present().map_err(session_err)?;
                presents += 1;
                present_wall_ns.push(last_present.elapsed().as_nanos() as u64);
                last_present = Instant::now();
                if opts.check_digests {
                    let digest = app.render_hash().map_err(session_err)?;
                    if digest != a(0) {
                        return Err(diverged(index, name, DivergenceKind::Pixels, a(0), digest));
                    }
                }
            }
            op::CHARGE_CPU => app.charge_cpu(arg_f64(a(0))),
            op::DRAW_CLASS => {
                let class = DrawClass::from_code(a(0) as u8)
                    .ok_or_else(|| malformed(index, name, "bad draw-class code"))?;
                app.set_draw_class(class);
            }
            MARK_METER_BEGIN => {
                mark(MARK_METER_BEGIN, &[]);
                *metering = true;
                scope = Some(app.session_scope());
            }
            MARK_METER_END => {
                *metering = false;
                scope = None;
                let ns = app.session_virtual_ns();
                mark(MARK_METER_END, &[ns]);
                if opts.check_timestamps && ns != a(0) {
                    return Err(diverged(index, name, DivergenceKind::VirtualTime, a(0), ns));
                }
            }
            MARK_END => {
                let digest = app.render_hash().map_err(session_err)?;
                let ns = app.session_virtual_ns();
                mark(MARK_END, &[digest, ns]);
                if opts.check_digests && digest != a(0) {
                    return Err(diverged(index, name, DivergenceKind::Pixels, a(0), digest));
                }
                if opts.check_timestamps && ns != a(1) {
                    return Err(diverged(index, name, DivergenceKind::VirtualTime, a(1), ns));
                }
            }
            other => {
                return Err(ReplayError::UnknownCall { index, name: other.to_owned() });
            }
        }
        if opts.check_timestamps {
            let vts = VirtualClock::thread_charged_ns().saturating_sub(base);
            if vts != call.vts {
                return Err(diverged(
                    index,
                    name,
                    DivergenceKind::VirtualTime,
                    call.vts,
                    vts,
                ));
            }
        }
    }
    drop(scope);

    let header = &sessions[0].app;
    let digest = header.render_hash().map_err(session_err)?;
    let metered_ns = header.session_virtual_ns();
    drop(_guard);
    Ok(ReplayOutcome {
        digest,
        metered_ns,
        calls: stream.calls.len(),
        presents,
        attach_wall_ns,
        present_wall_ns,
        frags,
        rerecording: rerec.map(|r| r.stream()),
    })
}

// ----------------------------------------------------------------------
// Recording harness
// ----------------------------------------------------------------------

/// Runs `scenario` solo on a fresh private device, recording every
/// facade call plus the metered-region and end-of-stream markers. The
/// resulting stream replays with full checks: same frames, same
/// nanoseconds.
pub fn record_scenario(
    scenario: cycada_workloads::scenario::Scenario,
    seed: u64,
    frames: u32,
    display: (u32, u32),
) -> Result<Stream, String> {
    use cycada_workloads::scenario::{frame as scenario_frame, setup as scenario_setup};

    let mut app = AppGl::boot_with_display(
        Platform::CycadaIos,
        scenario.gles_version(),
        Some(display),
    )
    .map_err(|e| format!("record boot failed: {e}"))?;
    let meta = StreamMeta {
        platform: Platform::CycadaIos,
        gles: gles_code(scenario.gles_version()),
        width: display.0,
        height: display.1,
        seed,
        label: scenario.label().to_owned(),
    };
    let rec = Recording::new(meta);
    {
        let _g = rec.attach();
        let mut state = scenario_setup(&mut app, scenario, seed)
            .map_err(|e| format!("record setup failed: {e}"))?;
        mark(MARK_METER_BEGIN, &[]);
        {
            let _scope = app.session_scope();
            for f in 0..frames {
                scenario_frame(&mut app, &mut state, seed, f)
                    .map_err(|e| format!("record frame {f} failed: {e}"))?;
            }
        }
        mark(MARK_METER_END, &[app.session_virtual_ns()]);
        let digest = app.render_hash().map_err(|e| format!("record hash failed: {e}"))?;
        mark(MARK_END, &[digest, app.session_virtual_ns()]);
    }
    Ok(rec.stream())
}

// ----------------------------------------------------------------------
// Shrinking
// ----------------------------------------------------------------------

/// Delta-debugging shrink (ddmin): repeatedly removes call chunks,
/// halving the chunk size down to single calls, while `fails` still
/// holds, then compacts the string table. The result is 1-minimal:
/// removing any single remaining call makes `fails` false. Returns the
/// input unchanged when it does not fail to begin with.
///
/// Candidates stay executable because replay skips calls naming unknown
/// textures and attaches sessions on first use (module docs).
pub fn shrink_calls(stream: &Stream, fails: impl Fn(&Stream) -> bool) -> Stream {
    if !fails(stream) {
        return stream.clone();
    }
    let mut cur = stream.clone();
    let mut chunk = cur.calls.len().max(1);
    loop {
        let mut i = 0;
        while i < cur.calls.len() {
            let mut cand = cur.clone();
            cand.calls.drain(i..(i + chunk).min(cand.calls.len()));
            if fails(&cand) {
                cur = cand;
            } else {
                i += chunk;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
    cur.compact();
    cur
}

/// [`shrink_calls`] with a pixel-divergence predicate: a candidate fails
/// while its replay still reports a [`DivergenceKind::Pixels`]
/// divergence. Timestamp checks are off while shrinking — removing calls
/// legitimately shifts every later timestamp — and the same fault (if
/// any) is injected into every candidate replay.
pub fn shrink_divergence(stream: &Stream, opts: &ReplayOptions) -> Stream {
    let probe = ReplayOptions {
        check_timestamps: false,
        rerecord: false,
        ..opts.clone()
    };
    shrink_calls(stream, |cand| {
        matches!(
            replay_stream(cand, &probe),
            Err(ReplayError::Diverged(Divergence { kind: DivergenceKind::Pixels, .. }))
        )
    })
}
