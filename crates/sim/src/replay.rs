//! Record side of the replay plane (DESIGN.md §5i).
//!
//! The trace plane observes; this module makes call streams *drive*.
//! While a [`Recording`] is attached to the calling host thread, every
//! instrumented app-facade call site appends one [`Call`] — an interned
//! operation name, packed scalar arguments, a bulk-data payload, and the
//! call's virtual timestamp — to the recording. The finished [`Stream`]
//! serializes to the compact length-prefixed `.cyt` binary format and is
//! replayed by the `cycada-replay` crate, which re-drives a fresh session
//! through the same entry points and asserts byte-identical framebuffer
//! digests and exactly-repeated metered virtual time.
//!
//! # Determinism contract
//!
//! Recording **never interacts with the virtual clock**: a call site reads
//! the calling thread's charge ledger
//! ([`crate::clock::now_ns`]) but charges nothing, so a
//! session records the same framebuffer bytes and metered nanoseconds it
//! produces with recording off (the trace plane's contract, §5d, applies
//! verbatim).
//!
//! # Cost contract
//!
//! Mirrors the trace plane: with no recording attached anywhere in the
//! process, every instrumented call site is one relaxed atomic load and a
//! predictable branch (`benches/replay.rs`, `BENCH_replay.json`).
//!
//! # Virtual timestamps
//!
//! A call's `vts` is the calling thread's charge-ledger delta since the
//! recording was attached, read *after* the operation executed. Replay
//! re-reads the same ledger at the same points; equality call-by-call is
//! the strongest determinism check the plane offers (and the first thing
//! relaxed when replaying onto shared fleet devices, where device-global
//! warm-up costs legitimately differ — see `cycada-replay`).
//!
//! # Name stability
//!
//! Interned [`crate::intern::FnId`]s are stable *within* a process run but
//! depend on interning order across runs, so `.cyt` never stores raw ids:
//! the header carries the recording's own first-use-ordered string table
//! and calls reference table indices. Decoding never touches the process
//! intern table.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::clock::now_ns;
use crate::{Nanos, Platform};

/// `.cyt` file magic.
pub const MAGIC: [u8; 4] = *b"CYT1";
/// Current `.cyt` format version; decoders reject anything else.
pub const FORMAT_VERSION: u16 = 1;

/// Marker call: the metered region (the session scope) opens after this.
pub const MARK_METER_BEGIN: &str = "cyt:meter-begin";
/// Marker call: the metered region closed; `args[0]` is the session's
/// metered virtual nanoseconds at that point.
pub const MARK_METER_END: &str = "cyt:meter-end";
/// Marker call: end of stream; `args[0]` is the final framebuffer digest,
/// `args[1]` the final metered virtual nanoseconds.
pub const MARK_END: &str = "cyt:end";

// ----------------------------------------------------------------------
// Gate
// ----------------------------------------------------------------------

/// Number of currently attached recordings, process-wide. The disabled
/// fast path at every call site is a single relaxed load of this.
static ACTIVE: AtomicU32 = AtomicU32::new(0);

/// Whether any recording is attached anywhere in the process. One relaxed
/// atomic load; instrumented call sites branch on this before doing any
/// argument marshalling.
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

/// Always `true`: recording has no off switch. Kept only because the
/// benchmark calls it; remove with the next benchmark change.
pub fn master_enabled() -> bool {
    true
}

thread_local! {
    /// Stack of recordings attached to this host thread; call sites
    /// append to the topmost.
    static ATTACHED: RefCell<Vec<Arc<Mutex<Inner>>>> = const { RefCell::new(Vec::new()) };
}

// ----------------------------------------------------------------------
// Stream model
// ----------------------------------------------------------------------

/// Session-identifying header of a recorded stream: what to boot so the
/// replayed session is congruent with the recorded one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamMeta {
    /// Platform configuration the session ran on.
    pub platform: Platform,
    /// GLES version code: 1 or 2.
    pub gles: u8,
    /// Display width the device booted with.
    pub width: u32,
    /// Display height the device booted with.
    pub height: u32,
    /// Workload seed (informational; the calls are already concrete).
    pub seed: u64,
    /// Human-readable workload label.
    pub label: String,
}

/// One recorded call: an index into the stream's string table, the
/// post-call virtual timestamp, packed scalar args, and bulk payload
/// bytes (pixel data, vertex arrays, texture-name lists).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// Index into [`Stream::names`].
    pub name: u32,
    /// Calling thread's charge-ledger delta since attach, read after the
    /// operation executed.
    pub vts: Nanos,
    /// Packed scalar arguments (`f32` as widened bits, `i32`
    /// sign-extended — see [`f32_arg`] / [`i32_arg`]).
    pub args: Vec<u64>,
    /// Bulk data the operation consumed.
    pub payload: Vec<u8>,
}

/// A complete recorded call stream plus its string table and header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stream {
    /// Session header.
    pub meta: StreamMeta,
    /// Interned operation names in first-use order.
    pub names: Vec<String>,
    /// The calls, in issue order.
    pub calls: Vec<Call>,
}

impl Stream {
    /// The operation name of `call`, or `"<bad-name-index>"` for an index
    /// outside the table (decoded streams are always in range).
    pub fn name_of(&self, call: &Call) -> &str {
        self.names
            .get(call.name as usize)
            .map_or("<bad-name-index>", |s| s.as_str())
    }

    /// Rebuilds the string table to contain only names the remaining
    /// calls reference, preserving first-use order (the shrinker's final
    /// compaction step, so a minimal trace is minimal in the header too).
    pub fn compact(&mut self) {
        let mut remap: HashMap<u32, u32> = HashMap::new();
        let mut names = Vec::new();
        for call in &mut self.calls {
            let next = names.len() as u32;
            let new = *remap.entry(call.name).or_insert_with(|| {
                names.push(
                    self.names
                        .get(call.name as usize)
                        .cloned()
                        .unwrap_or_else(|| "<bad-name-index>".to_owned()),
                );
                next
            });
            call.name = new;
        }
        self.names = names;
    }
}

// ----------------------------------------------------------------------
// Argument packing
// ----------------------------------------------------------------------

/// Packs an `f32` argument as its bit pattern (bit-exact round trip).
#[inline]
pub fn f32_arg(v: f32) -> u64 {
    u64::from(v.to_bits())
}

/// Unpacks an [`f32_arg`]-packed argument.
#[inline]
pub fn arg_f32(a: u64) -> f32 {
    f32::from_bits(a as u32)
}

/// Packs an `i32` argument (sign-extended so negatives survive).
#[inline]
pub fn i32_arg(v: i32) -> u64 {
    v as i64 as u64
}

/// Unpacks an [`i32_arg`]-packed argument.
#[inline]
pub fn arg_i32(a: u64) -> i32 {
    a as i32
}

/// Packs an `f64` argument as its bit pattern.
#[inline]
pub fn f64_arg(v: f64) -> u64 {
    v.to_bits()
}

/// Unpacks an [`f64_arg`]-packed argument.
#[inline]
pub fn arg_f64(a: u64) -> f64 {
    f64::from_bits(a)
}

/// The stable wire code for `platform` (raw enum order is not a format).
pub fn platform_code(platform: Platform) -> u8 {
    match platform {
        Platform::StockAndroid => 0,
        Platform::CycadaAndroid => 1,
        Platform::CycadaIos => 2,
        Platform::NativeIos => 3,
    }
}

/// Inverse of [`platform_code`].
pub fn platform_from_code(code: u8) -> Option<Platform> {
    match code {
        0 => Some(Platform::StockAndroid),
        1 => Some(Platform::CycadaAndroid),
        2 => Some(Platform::CycadaIos),
        3 => Some(Platform::NativeIos),
        _ => None,
    }
}

// ----------------------------------------------------------------------
// Instrumented operation names
// ----------------------------------------------------------------------

/// The operation-name vocabulary the app facade records. Replay matches
/// on these strings (via the stream's own table, never raw ids).
pub mod op {
    /// `AppGl::clear` — args `[r, g, b, a]` as [`super::f32_arg`].
    pub const CLEAR: &str = "app:clear";
    /// `AppGl::set_scissor` — args `[x, y, w, h]` (`x`/`y` as [`super::i32_arg`]).
    pub const SCISSOR: &str = "app:scissor";
    /// `AppGl::set_capability` — args `[capability code, on]`.
    pub const CAPABILITY: &str = "app:capability";
    /// `AppGl::push_transform` — no args.
    pub const PUSH: &str = "app:push";
    /// `AppGl::pop_transform` — no args.
    pub const POP: &str = "app:pop";
    /// `AppGl::rotate` — args `[degrees]`.
    pub const ROTATE: &str = "app:rotate";
    /// `AppGl::translate` — args `[x, y, z]`.
    pub const TRANSLATE: &str = "app:translate";
    /// `AppGl::scale` — args `[x, y, z]`.
    pub const SCALE: &str = "app:scale";
    /// `AppGl::load_identity` — no args.
    pub const IDENTITY: &str = "app:identity";
    /// `AppGl::draw` — args `[primitive code, r, g, b, a]`, payload the
    /// `xyz` vertex array as little-endian `f32` bits.
    pub const DRAW: &str = "app:draw";
    /// `AppGl::create_texture` — args `[w, h, format code, returned
    /// texture name]`, payload the pixel data.
    pub const CREATE_TEXTURE: &str = "app:create-texture";
    /// `AppGl::update_texture` — args `[tex, x, y, w, h, format code]`,
    /// payload the pixel data.
    pub const UPDATE_TEXTURE: &str = "app:update-texture";
    /// `AppGl::draw_textured_quad` — args `[tex, x0, y0, x1, y1]`.
    pub const TEX_QUAD: &str = "app:tex-quad";
    /// `AppGl::draw_textured_quad_indexed` — args `[tex, x0, y0, x1, y1]`.
    pub const TEX_QUAD_INDEXED: &str = "app:tex-quad-indexed";
    /// `AppGl::flush` — no args.
    pub const FLUSH: &str = "app:flush";
    /// `AppGl::delete_textures` — payload the texture names as
    /// little-endian `u32`s.
    pub const DELETE_TEXTURES: &str = "app:delete-textures";
    /// `AppGl::extensions` — no args.
    pub const EXTENSIONS: &str = "app:extensions";
    /// `AppGl::set_display_layer` — args `[x, y, w, h]`.
    pub const DISPLAY_LAYER: &str = "app:display-layer";
    /// `AppGl::present` — args `[post-present framebuffer digest]`.
    pub const PRESENT: &str = "app:present";
    /// `AppGl::charge_cpu` — args `[base_ns]` as [`super::f64_arg`].
    pub const CHARGE_CPU: &str = "app:charge-cpu";
    /// `AppGl::set_draw_class` — args `[draw-class code]`.
    pub const DRAW_CLASS: &str = "app:draw-class";
}

// ----------------------------------------------------------------------
// Recording
// ----------------------------------------------------------------------

#[derive(Debug)]
struct Inner {
    meta: StreamMeta,
    names: Vec<String>,
    index: HashMap<String, u32>,
    calls: Vec<Call>,
    /// Thread charge-ledger value at attach; call timestamps are deltas
    /// from this.
    base: Nanos,
}

/// An in-progress recording. Attach it to the calling host thread with
/// [`Recording::attach`]; instrumented call sites append to the topmost
/// attached recording while the guard lives.
#[derive(Debug, Clone)]
pub struct Recording {
    inner: Arc<Mutex<Inner>>,
}

impl Recording {
    /// Creates an empty recording for the session described by `meta`.
    pub fn new(meta: StreamMeta) -> Recording {
        Recording {
            inner: Arc::new(Mutex::new(Inner {
                meta,
                names: Vec::new(),
                index: HashMap::new(),
                calls: Vec::new(),
                base: 0,
            })),
        }
    }

    /// Attaches this recording to the calling host thread and arms the
    /// process-wide gate. Timestamps are measured from the attach point.
    pub fn attach(&self) -> RecordGuard {
        self.inner.lock().base = now_ns();
        ATTACHED.with(|t| t.borrow_mut().push(self.inner.clone()));
        ACTIVE.fetch_add(1, Ordering::Relaxed);
        RecordGuard { _private: () }
    }

    /// Snapshot of everything recorded so far as an immutable [`Stream`].
    pub fn stream(&self) -> Stream {
        let inner = self.inner.lock();
        Stream {
            meta: inner.meta.clone(),
            names: inner.names.clone(),
            calls: inner.calls.clone(),
        }
    }

    /// Calls recorded so far.
    pub fn len(&self) -> usize {
        self.inner.lock().calls.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Detaches the recording from the thread (and disarms the gate when the
/// last attached recording anywhere detaches) on drop. Not `Send`: the
/// recording is bound to the attaching thread's ledger.
#[derive(Debug)]
pub struct RecordGuard {
    _private: (),
}

impl Drop for RecordGuard {
    fn drop(&mut self) {
        ATTACHED.with(|t| {
            t.borrow_mut().pop();
        });
        ACTIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Appends one call to the recording attached to this thread (topmost if
/// several). No-op — and no allocation — when none is attached; call
/// sites should still branch on [`active`] first so the disabled path
/// never marshals arguments.
pub fn record(name: &str, args: &[u64], payload: &[u8]) {
    ATTACHED.with(|t| {
        let stack = t.borrow();
        let Some(inner) = stack.last() else { return };
        let mut inner = inner.lock();
        let vts = now_ns().saturating_sub(inner.base);
        let idx = match inner.index.get(name).copied() {
            Some(i) => i,
            None => {
                let i = inner.names.len() as u32;
                inner.names.push(name.to_owned());
                inner.index.insert(name.to_owned(), i);
                i
            }
        };
        inner.calls.push(Call {
            name: idx,
            vts,
            args: args.to_vec(),
            payload: payload.to_vec(),
        });
    });
}

/// Records a marker call (no payload). Used by record/replay harnesses
/// for the metered-region and end-of-stream checkpoints.
pub fn mark(name: &str, args: &[u64]) {
    if active() {
        record(name, args, &[]);
    }
}

// ----------------------------------------------------------------------
// Codec
// ----------------------------------------------------------------------

/// Why a `.cyt` byte stream failed to decode. Decoding malformed input
/// returns one of these — it never panics and never over-allocates
/// (every length is validated against the bytes actually remaining).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before a field it promised.
    Truncated {
        /// Byte offset at which more input was needed.
        at: usize,
    },
    /// The first four bytes are not [`MAGIC`].
    BadMagic,
    /// The format version is not [`FORMAT_VERSION`].
    Version {
        /// The version the input claimed.
        found: u16,
    },
    /// The platform code is unknown.
    BadPlatform {
        /// The code the input carried.
        code: u8,
    },
    /// The GLES version code is not 1 or 2.
    BadGlesVersion {
        /// The code the input carried.
        code: u8,
    },
    /// A string field is not valid UTF-8.
    BadString {
        /// Byte offset of the string.
        at: usize,
    },
    /// A call references a string-table index past the table.
    BadNameIndex {
        /// Call index.
        call: usize,
        /// The out-of-range table index.
        index: u32,
    },
    /// A call's declared body length disagrees with its contents.
    BadCallLength {
        /// Call index.
        call: usize,
    },
    /// Bytes remain after the last call.
    TrailingBytes {
        /// How many.
        extra: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { at } => write!(f, "truncated .cyt input at byte {at}"),
            CodecError::BadMagic => write!(f, "not a .cyt stream (bad magic)"),
            CodecError::Version { found } => {
                write!(f, ".cyt version {found} (expected {FORMAT_VERSION})")
            }
            CodecError::BadPlatform { code } => write!(f, "unknown platform code {code}"),
            CodecError::BadGlesVersion { code } => write!(f, "unknown GLES version code {code}"),
            CodecError::BadString { at } => write!(f, "invalid UTF-8 string at byte {at}"),
            CodecError::BadNameIndex { call, index } => {
                write!(f, "call {call} references string-table index {index} past the table")
            }
            CodecError::BadCallLength { call } => {
                write!(f, "call {call} body length disagrees with its contents")
            }
            CodecError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the last call")
            }
        }
    }
}

impl std::error::Error for CodecError {}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.bytes.len() - self.pos < n {
            return Err(CodecError::Truncated { at: self.bytes.len() });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    fn string(&mut self, len: usize) -> Result<String, CodecError> {
        let at = self.pos;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadString { at })
    }
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    out.extend_from_slice(&(bytes.len().min(u16::MAX as usize) as u16).to_le_bytes());
    out.extend_from_slice(&bytes[..bytes.len().min(u16::MAX as usize)]);
}

impl Stream {
    /// Serializes to `.cyt` bytes (little-endian, length-prefixed).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.calls.len() * 32);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.push(platform_code(self.meta.platform));
        out.push(self.meta.gles);
        out.extend_from_slice(&self.meta.width.to_le_bytes());
        out.extend_from_slice(&self.meta.height.to_le_bytes());
        out.extend_from_slice(&self.meta.seed.to_le_bytes());
        push_str(&mut out, &self.meta.label);
        out.extend_from_slice(&(self.names.len() as u32).to_le_bytes());
        for name in &self.names {
            push_str(&mut out, name);
        }
        out.extend_from_slice(&(self.calls.len() as u32).to_le_bytes());
        for call in &self.calls {
            let body_len = 4 + 8 + 2 + call.args.len() * 8 + 4 + call.payload.len();
            out.extend_from_slice(&(body_len as u32).to_le_bytes());
            out.extend_from_slice(&call.name.to_le_bytes());
            out.extend_from_slice(&call.vts.to_le_bytes());
            out.extend_from_slice(&(call.args.len().min(u16::MAX as usize) as u16).to_le_bytes());
            for a in call.args.iter().take(u16::MAX as usize) {
                out.extend_from_slice(&a.to_le_bytes());
            }
            out.extend_from_slice(&(call.payload.len() as u32).to_le_bytes());
            out.extend_from_slice(&call.payload);
        }
        out
    }

    /// Decodes `.cyt` bytes. Malformed input — truncation, corrupt
    /// header, version mismatch, out-of-range indices, trailing garbage —
    /// returns a [`CodecError`]; this function never panics.
    pub fn decode(bytes: &[u8]) -> Result<Stream, CodecError> {
        let mut c = Cursor { bytes, pos: 0 };
        if c.take(4)? != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = c.u16()?;
        if version != FORMAT_VERSION {
            return Err(CodecError::Version { found: version });
        }
        let platform_code = c.u8()?;
        let platform = platform_from_code(platform_code)
            .ok_or(CodecError::BadPlatform { code: platform_code })?;
        let gles = c.u8()?;
        if !matches!(gles, 1 | 2) {
            return Err(CodecError::BadGlesVersion { code: gles });
        }
        let width = c.u32()?;
        let height = c.u32()?;
        let seed = c.u64()?;
        let label_len = c.u16()? as usize;
        let label = c.string(label_len)?;

        let name_count = c.u32()? as usize;
        let mut names = Vec::new();
        for _ in 0..name_count {
            let len = c.u16()? as usize;
            names.push(c.string(len)?);
        }

        let call_count = c.u32()? as usize;
        let mut calls = Vec::new();
        for i in 0..call_count {
            let body_len = c.u32()? as usize;
            let body_end = c
                .pos
                .checked_add(body_len)
                .filter(|&e| e <= bytes.len())
                .ok_or(CodecError::Truncated { at: bytes.len() })?;
            let name = c.u32()?;
            if name as usize >= names.len() {
                return Err(CodecError::BadNameIndex { call: i, index: name });
            }
            let vts = c.u64()?;
            let argc = c.u16()? as usize;
            if body_end.saturating_sub(c.pos) < argc * 8 {
                return Err(CodecError::BadCallLength { call: i });
            }
            let mut args = Vec::with_capacity(argc);
            for _ in 0..argc {
                args.push(c.u64()?);
            }
            let payload_len = c.u32()? as usize;
            if c.pos + payload_len != body_end {
                return Err(CodecError::BadCallLength { call: i });
            }
            let payload = c.take(payload_len)?.to_vec();
            calls.push(Call { name, vts, args, payload });
        }
        if c.pos != bytes.len() {
            return Err(CodecError::TrailingBytes { extra: bytes.len() - c.pos });
        }
        Ok(Stream {
            meta: StreamMeta { platform, gles, width, height, seed, label },
            names,
            calls,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Stream {
        let rec = Recording::new(StreamMeta {
            platform: Platform::CycadaIos,
            gles: 1,
            width: 48,
            height: 32,
            seed: 7,
            label: "unit".to_owned(),
        });
        {
            let _g = rec.attach();
            record(op::CLEAR, &[f32_arg(0.25), 0, 0, f32_arg(1.0)], &[]);
            record(op::DRAW, &[1, 2], &[9, 9, 9]);
            record(op::CLEAR, &[0, 0, 0, 0], &[]);
            mark(MARK_END, &[0xFEED, 123]);
        }
        rec.stream()
    }

    #[test]
    fn record_interns_names_in_first_use_order() {
        let s = sample();
        assert_eq!(s.names, [op::CLEAR, op::DRAW, MARK_END]);
        assert_eq!(s.calls.len(), 4);
        assert_eq!(s.name_of(&s.calls[2]), op::CLEAR);
        assert_eq!(s.calls[1].payload, [9, 9, 9]);
    }

    #[test]
    fn encode_decode_round_trips() {
        let s = sample();
        let bytes = s.encode();
        assert_eq!(Stream::decode(&bytes).expect("decode"), s);
    }

    #[test]
    fn decode_rejects_bad_magic_version_and_truncation() {
        let bytes = sample().encode();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(Stream::decode(&bad), Err(CodecError::BadMagic));

        let mut bad = bytes.clone();
        bad[4] = 0xFF;
        bad[5] = 0xFF;
        assert_eq!(Stream::decode(&bad), Err(CodecError::Version { found: 0xFFFF }));

        for cut in 0..bytes.len() {
            assert!(
                Stream::decode(&bytes[..cut]).is_err(),
                "strict prefix of length {cut} decoded"
            );
        }
    }

    #[test]
    fn detached_thread_records_nothing_and_gate_reads_false() {
        assert!(!active());
        record(op::FLUSH, &[], &[]);
        let rec = Recording::new(sample().meta);
        assert!(rec.is_empty());
        {
            let _g = rec.attach();
            assert!(active());
            record(op::FLUSH, &[], &[]);
        }
        assert!(!active());
        record(op::FLUSH, &[], &[]);
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn compact_drops_unreferenced_names() {
        let mut s = sample();
        s.calls.retain(|c| s.names[c.name as usize] == op::DRAW);
        s.compact();
        assert_eq!(s.names, [op::DRAW]);
        assert_eq!(s.calls.len(), 1);
        assert_eq!(s.calls[0].name, 0);
        let bytes = s.encode();
        assert_eq!(Stream::decode(&bytes).expect("decode"), s);
    }
}
