//! The deterministic software triangle rasterizer.
//!
//! This is the "black-box GPU hardware" of the simulation: it consumes
//! transformed vertices and produces pixels. It is intentionally small —
//! flat/interpolated color, nearest-neighbour texturing, source-over
//! blending and a depth buffer — but fully deterministic, so two renderings
//! of the same scene through different API stacks can be compared
//! byte-for-byte (the paper's "pixel for pixel" Acid3 criterion).
//!
//! # The raster plane (DESIGN.md §5b)
//!
//! Pixel memory is locked **once per operation, not once per pixel**: a
//! draw takes one write guard on the target (plus one read guard on the
//! texture) and then works on plain byte slices. Triangle fills are
//! span-based — per-row edge terms are hoisted so the per-candidate test
//! is one multiply-subtract per edge — and run serially, triangle by
//! triangle in submission order.
//!
//! A draw takes one of two routes, chosen once before any guard is taken:
//!
//! - the **span lane**: opaque blend, a 4-byte target, no texture or a
//!   non-empty 4-byte one that does not alias the target, and finite edge
//!   terms in every triangle; with or without a depth test;
//! - the per-pixel [`reference`](mod@reference) rasterizer for everything
//!   else: alpha blending, 565/A8 targets or textures, empty or aliasing
//!   textures, and any triangle with a non-finite edge term. Each such
//!   draw bumps the `raster-reference-draws` trace counter.
//!
//! The reference is the executable specification; the span lane is
//! byte-identical to it (asserted by property tests), so the whole draw
//! equals the reference's on either route.

use cycada_sim::trace;

use crate::format::{swap_rb, PixelFormat, Rgba};
use crate::image::Image;
use crate::math::Mat4;

/// One input vertex.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vertex {
    /// Object-space position.
    pub pos: [f32; 3],
    /// Vertex color.
    pub color: Rgba,
    /// Texture coordinate (ignored when the pipeline has no texture).
    pub uv: [f32; 2],
}

impl Vertex {
    /// A colored, untextured vertex.
    pub fn colored(pos: [f32; 3], color: Rgba) -> Self {
        Vertex {
            pos,
            color,
            uv: [0.0, 0.0],
        }
    }

    /// A textured vertex with white base color.
    pub fn textured(pos: [f32; 3], uv: [f32; 2]) -> Self {
        Vertex {
            pos,
            color: Rgba::WHITE,
            uv,
        }
    }
}

/// Fragment blending mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlendMode {
    /// Source replaces destination.
    #[default]
    Opaque,
    /// Source-over alpha blending.
    Alpha,
}

/// Fixed-function pipeline state for one draw.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pipeline<'a> {
    /// Combined model-view-projection transform.
    pub transform: Mat4,
    /// Bound texture, if any. Sampled nearest, clamped to edge, modulated
    /// by the interpolated vertex color.
    pub texture: Option<&'a Image>,
    /// Blending mode.
    pub blend: BlendMode,
    /// Whether to depth-test (requires a depth buffer on the draw call).
    pub depth_test: bool,
    /// Pixel-space clip rectangle (GL clips primitives to the clip volume,
    /// which the viewport transform maps to this rectangle). `None` clips
    /// to the whole target.
    pub clip: Option<Rect>,
}

/// Work actually performed by a draw, used by the device to charge
/// virtual-time costs proportional to real work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RasterMetrics {
    /// Vertices transformed.
    pub vertices: u64,
    /// Fragments shaded (pixels covered by triangles).
    pub fragments: u64,
}

impl RasterMetrics {
    /// Component-wise sum.
    pub fn merge(self, other: RasterMetrics) -> RasterMetrics {
        RasterMetrics {
            vertices: self.vertices + other.vertices,
            fragments: self.fragments + other.fragments,
        }
    }
}

/// A simple rectangle (pixel coordinates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rect {
    /// Left edge.
    pub x: u32,
    /// Top edge.
    pub y: u32,
    /// Width in pixels.
    pub w: u32,
    /// Height in pixels.
    pub h: u32,
}

impl Rect {
    /// The empty rectangle at the origin.
    pub const EMPTY: Rect = Rect { x: 0, y: 0, w: 0, h: 0 };

    /// A rectangle covering a whole image.
    pub fn of_image(img: &Image) -> Rect {
        Rect {
            x: 0,
            y: 0,
            w: img.width(),
            h: img.height(),
        }
    }

    /// `true` if the rect covers no pixels.
    pub fn is_empty(&self) -> bool {
        self.w == 0 || self.h == 0
    }

    /// Number of pixels covered.
    pub fn area(&self) -> u64 {
        u64::from(self.w) * u64::from(self.h)
    }

    /// One-past-the-right edge (saturating, so degenerate rects near
    /// `u32::MAX` stay well-defined instead of wrapping).
    fn right(&self) -> u32 {
        self.x.saturating_add(self.w)
    }

    /// One-past-the-bottom edge (saturating).
    fn bottom(&self) -> u32 {
        self.y.saturating_add(self.h)
    }

    /// The overlapping region of two rects; [`Rect::EMPTY`] when they
    /// are disjoint or either operand is empty.
    pub fn intersect(&self, other: &Rect) -> Rect {
        let x0 = self.x.max(other.x);
        let y0 = self.y.max(other.y);
        let x1 = self.right().min(other.right());
        let y1 = self.bottom().min(other.bottom());
        if x0 >= x1 || y0 >= y1 {
            Rect::EMPTY
        } else {
            Rect { x: x0, y: y0, w: x1 - x0, h: y1 - y0 }
        }
    }

}

/// Allocates a depth buffer (initialized to the far plane) for `target`.
pub fn depth_buffer_for(target: &Image) -> Vec<f32> {
    vec![f32::INFINITY; target.pixel_count() as usize]
}

/// Draws a triangle list: every 3 vertices form one triangle.
///
/// Returns the work performed. Triangles with any vertex at `w <= 0`
/// (behind the eye) are skipped rather than clipped — the simulated
/// workloads never straddle the near plane.
pub fn draw_triangles(
    target: &Image,
    depth: Option<&mut [f32]>,
    vertices: &[Vertex],
    pipeline: &Pipeline<'_>,
) -> RasterMetrics {
    let indices: Vec<u32> = (0..vertices.len() as u32).collect();
    draw_indexed(target, depth, vertices, &indices, pipeline)
}

/// Draws an indexed triangle list (serial span rasterizer: one lock for
/// the whole draw), or hands the whole draw to [`reference::draw_indexed`]
/// when it is not one the span lane takes (see the module docs).
///
/// # Panics
///
/// Panics if an index is out of range, or if `pipeline.depth_test` is set
/// with a depth buffer of the wrong size.
pub fn draw_indexed(
    target: &Image,
    depth: Option<&mut [f32]>,
    vertices: &[Vertex],
    indices: &[u32],
    pipeline: &Pipeline<'_>,
) -> RasterMetrics {
    if let Some(d) = depth.as_deref() {
        assert_eq!(
            d.len(),
            target.pixel_count() as usize,
            "depth buffer size mismatch"
        );
    }
    let mut metrics = RasterMetrics::default();
    let tris = span_eligible(target, pipeline)
        .then(|| prepare_triangles(target, vertices, indices, pipeline, &mut metrics))
        .filter(|tris| tris.iter().all(|t| t.finite));
    let Some(tris) = tris else {
        trace::bump(trace::Counter::RasterReferenceDraws);
        return reference::draw_indexed(target, depth, vertices, indices, pipeline);
    };
    if tris.is_empty() {
        return metrics;
    }

    let geom = TargetGeom {
        width: target.width(),
        row_bytes: target.row_bytes(),
        format: target.format(),
    };
    let tex_guard = pipeline.texture.map(|t| (t, t.buffer().read_guard()));
    let tex_view = tex_guard.as_ref().map(|(t, g)| TexView {
        bytes: g,
        width: t.width(),
        height: t.height(),
        row_bytes: t.row_bytes(),
        format: t.format(),
        fast_index: t.width() <= FAST_TEXEL_MAX && t.height() <= FAST_TEXEL_MAX,
    });
    let depth = depth.filter(|_| pipeline.depth_test);

    let height = target.height();
    let mut guard = target.buffer().write_guard();
    let bytes = &mut guard[..geom.row_bytes * height as usize];

    metrics.fragments = fill_triangles(bytes, depth, &geom, &tris, tex_view.as_ref());
    metrics
}

/// Whether the span lane takes a draw with this target and pipeline:
/// opaque blend, a 4-byte target, and no texture or a non-empty
/// `Rgba8888`/`Bgra8888` one that does not alias the target (which would
/// need one buffer locked for read and write at once). Decided once per
/// draw, before any guard is taken.
fn span_eligible(target: &Image, pipeline: &Pipeline<'_>) -> bool {
    let four_byte = |f: PixelFormat| matches!(f, PixelFormat::Rgba8888 | PixelFormat::Bgra8888);
    pipeline.blend == BlendMode::Opaque
        && four_byte(target.format())
        && pipeline.texture.is_none_or(|tex| {
            four_byte(tex.format()) && tex.width() > 0 && tex.height() > 0 && !tex.aliases(target)
        })
}

/// Per-draw target geometry.
struct TargetGeom {
    width: u32,
    row_bytes: usize,
    format: PixelFormat,
}

/// Read-only texture view sampled under the draw's single read guard.
struct TexView<'a> {
    bytes: &'a [u8],
    width: u32,
    height: u32,
    row_bytes: usize,
    format: PixelFormat,
    /// Both sides are at most [`FAST_TEXEL_MAX`], so [`texel_index_fast`]
    /// stands in for [`texel_index`]; decided once per draw.
    fast_index: bool,
}

/// A triangle prepared for span filling: screen-space positions, signed
/// area, clipped pixel bounding box, hoisted edge factors and per-vertex
/// attributes.
struct ScreenTri {
    p0: [f32; 3],
    p1: [f32; 3],
    p2: [f32; 3],
    area: f32,
    min_x: u32,
    max_x: u32,
    min_y: u32,
    max_y: u32,
    /// Triangle-invariant edge factors `k = b.y − a.y` for the edges
    /// `(p1, p2)`, `(p2, p0)`, `(p0, p1)`.
    k: (f32, f32, f32),
    /// The matching `d = b.x − a.x`.
    d: (f32, f32, f32),
    /// Every edge term of every row is finite (see [`prepare_triangles`]).
    finite: bool,
    c0: Rgba,
    c1: Rgba,
    c2: Rgba,
    uv0: [f32; 2],
    uv1: [f32; 2],
    uv2: [f32; 2],
}

impl ScreenTri {
    /// The row-invariant second products `r = (yc − a.y) · d` of the
    /// three edge functions at row `py`.
    #[inline]
    fn row_terms(&self, py: u32) -> (f32, f32, f32) {
        let yc = py as f32 + 0.5;
        (
            (yc - self.p1[1]) * self.d.0,
            (yc - self.p2[1]) * self.d.1,
            (yc - self.p0[1]) * self.d.2,
        )
    }
}

/// Transforms vertices (counted in `metrics`) and performs the per-
/// triangle setup: behind-the-eye rejection, perspective divide, viewport
/// transform, degenerate rejection, bounding-box/clip computation — all
/// with the exact expressions of the [`reference`] rasterizer — and the
/// hoisted edge factors.
///
/// A triangle is `finite` when its `k` factors, vertex `x`s, area and the
/// row terms of its first and last rows are. That covers every row: each
/// row term `r = (yc − a.y) · d` is a chain of rounded monotone functions
/// of the row index (cast, add-constant, subtract-constant,
/// multiply-by-constant), so every row's `r` lies between the first and
/// the last row's, and is finite when both are. With every term finite
/// and the area nonzero, no weight of the triangle can be NaN.
fn prepare_triangles(
    target: &Image,
    vertices: &[Vertex],
    indices: &[u32],
    pipeline: &Pipeline<'_>,
    metrics: &mut RasterMetrics,
) -> Vec<ScreenTri> {
    let width = target.width() as f32;
    let height = target.height() as f32;
    let (clip_x0, clip_y0, clip_x1, clip_y1) = match pipeline.clip {
        Some(c) => (
            c.x.min(target.width()),
            c.y.min(target.height()),
            c.right().min(target.width()),
            c.bottom().min(target.height()),
        ),
        None => (0, 0, target.width(), target.height()),
    };

    // Transform all referenced vertices once.
    let transformed: Vec<([f32; 4], Rgba, [f32; 2])> = vertices
        .iter()
        .map(|v| {
            metrics.vertices += 1;
            (pipeline.transform.transform_point(v.pos), v.color, v.uv)
        })
        .collect();

    let mut tris = Vec::with_capacity(indices.len() / 3);
    for tri in indices.chunks_exact(3) {
        let [i0, i1, i2] = [tri[0] as usize, tri[1] as usize, tri[2] as usize];
        let (c0, c1, c2) = (&transformed[i0], &transformed[i1], &transformed[i2]);
        if c0.0[3] <= f32::EPSILON || c1.0[3] <= f32::EPSILON || c2.0[3] <= f32::EPSILON {
            continue; // behind the eye; skip (no near clipping)
        }
        // Perspective divide and viewport transform (y flipped: NDC +y is
        // up, image rows grow downward).
        let to_screen = |c: &[f32; 4]| {
            let inv_w = 1.0 / c[3];
            [
                (c[0] * inv_w + 1.0) * 0.5 * width,
                (1.0 - (c[1] * inv_w + 1.0) * 0.5) * height,
                c[2] * inv_w,
            ]
        };
        let p0 = to_screen(&c0.0);
        let p1 = to_screen(&c1.0);
        let p2 = to_screen(&c2.0);

        let area = edge(p0, p1, p2);
        if area.abs() <= f32::EPSILON {
            continue; // degenerate
        }

        let min_x = (p0[0].min(p1[0]).min(p2[0]).floor().max(0.0) as u32).max(clip_x0);
        let max_x = ((p0[0].max(p1[0]).max(p2[0]).ceil() as i64)
            .clamp(0, i64::from(target.width())) as u32)
            .min(clip_x1);
        let min_y = (p0[1].min(p1[1]).min(p2[1]).floor().max(0.0) as u32).max(clip_y0);
        let max_y = ((p0[1].max(p1[1]).max(p2[1]).ceil() as i64)
            .clamp(0, i64::from(target.height())) as u32)
            .min(clip_y1);
        if min_x >= max_x || min_y >= max_y {
            continue; // empty pixel bounds; nothing to fill
        }

        let mut t = ScreenTri {
            p0,
            p1,
            p2,
            area,
            min_x,
            max_x,
            min_y,
            max_y,
            k: (p2[1] - p1[1], p0[1] - p2[1], p1[1] - p0[1]),
            d: (p2[0] - p1[0], p0[0] - p2[0], p1[0] - p0[0]),
            finite: false,
            c0: c0.1,
            c1: c1.1,
            c2: c2.1,
            uv0: c0.2,
            uv1: c1.2,
            uv2: c2.2,
        };
        let (first, last) = (t.row_terms(min_y), t.row_terms(max_y - 1));
        t.finite = [
            t.k.0, t.k.1, t.k.2, first.0, first.1, first.2, last.0, last.1, last.2, p0[0], p1[0],
            p2[0], area,
        ]
        .iter()
        .all(|v| v.is_finite());
        tris.push(t);
    }
    tris
}

/// Rasterizes every prepared triangle, in submission order, into the
/// target's `bytes` and (when the draw depth-tests) its `depth` buffer.
/// Returns fragments shaded. Every triangle must be `finite`.
///
/// Span math: for the edge function through `a`,`b` the reference
/// rasterizer evaluates, at each pixel center `(X, Y)`,
/// `(X - a.x) * (b.y - a.y) - (Y - a.y) * (b.x - a.x)`. The second product
/// and the factor `(b.y - a.y)` are row- and triangle-invariant, so they
/// are hoisted and each candidate pixel pays one subtract-multiply-
/// subtract per edge. The hoisted factors are bit-identical to what the
/// reference computes per pixel (same inputs, same operations, same
/// order), so coverage and weights — and therefore every written byte —
/// are exactly those of the reference. A naive DDA (`e += dx` stepping)
/// would be faster still but accumulates float rounding and breaks the
/// byte-identical contract; see DESIGN.md §5b.
fn fill_triangles(
    bytes: &mut [u8],
    mut depth: Option<&mut [f32]>,
    geom: &TargetGeom,
    tris: &[ScreenTri],
    tex: Option<&TexView<'_>>,
) -> u64 {
    let mut fragments = 0u64;
    let mut scratch = tex.map(|_| TexScratch::new());
    let width = geom.width as usize;
    // One chunk's depth pass mask, shared by every row of the draw.
    let mut pass = [0u32; SPAN_TILE];
    for t in tris {
        let mut lane = span_lane(geom, t, tex.zip(scratch.as_deref_mut()));
        for py in t.min_y..t.max_y {
            let row_off = py as usize * geom.row_bytes;
            let depth_row = depth
                .as_deref_mut()
                .map(|d| (&mut d[py as usize * width..][..width], &mut pass));
            fragments += fill_row_span(bytes, row_off, depth_row, t, t.row_terms(py), &mut lane);
        }
    }
    fragments
}

/// Interpolation coefficients for [`fill_row_span`], ordered by packed
/// byte position: `ch[i]` holds the three per-vertex values whose
/// interpolant lands at byte `i` of the pixel (so RGBA and BGRA share one
/// packing loop with no per-pixel swizzle branch).
struct SpanLane<'a> {
    ch: [[f32; 3]; 4],
    /// `Some(mask)` when every channel's coefficients are identically
    /// `±0.0` or identically `1.0` — flat primary colors, the dominant
    /// fill shape (clears, UI quads, backdrops, white-modulated textured
    /// quads). `mask` has `0xFF` at the all-ones byte positions. The fold
    /// is bit-exact: an all-zero channel's products are `±0` or NaN (from
    /// `0 × ∞`), every one of which quantizes to byte 0 (also after
    /// modulation by a finite texel); an all-ones channel reduces to
    /// `s = (w0 + w1) + w2` because `x * 1.0` is exactly `x` in IEEE
    /// arithmetic (including for `-0.0`, infinities, and NaN). A textured
    /// all-ones channel is then `quantize_unit((b / 255) · s)` for texel
    /// byte `b`, which is `b` itself whenever `s` lies within
    /// [`WHITE_SLACK`] of 1 — so [`shade_textured`] passes such chunks'
    /// texels through, masked, with no float work after stage 1.
    flat01_mask: Option<u32>,
    /// The texture sampled by a textured span, if any.
    tex: Option<TexLane<'a>>,
}

/// The texture half of a textured [`SpanLane`].
struct TexLane<'a> {
    view: &'a TexView<'a>,
    /// `uv[0]` holds the three per-vertex `u` values, `uv[1]` the `v`s.
    uv: [[f32; 3]; 2],
    /// The texture's byte order differs from the target's (RGBA vs
    /// BGRA): bytes 0 and 2 of each gathered texel swap so that byte `i`
    /// of the texel modulates byte `i` of the interpolated color.
    swap_rb: bool,
    /// The draw's working arrays for [`shade_textured`].
    scratch: &'a mut TexScratch,
}

/// The working arrays of [`shade_textured`] for one [`SPAN_TILE`] chunk
/// (~6.5 KB): zeroed once per textured draw and reused by every chunk of
/// every row, so no chunk pays to zero them. Each stage writes `[..len]`
/// of its arrays before any stage reads them, so no chunk sees another's
/// values.
struct TexScratch {
    /// The three barycentric weights.
    w: [[f32; SPAN_TILE]; 3],
    /// The interpolated color by packed byte position (only `col[0]`, the
    /// weight sum, under a flat 0/1 mask).
    col: [[f32; SPAN_TILE]; 4],
    /// Texel column and row indices.
    tx: [u32; SPAN_TILE],
    ty: [u32; SPAN_TILE],
    /// Gathered texels in the target's byte order.
    texel: [u32; SPAN_TILE],
    /// Packed output pixels.
    out: [u32; SPAN_TILE],
}

impl TexScratch {
    fn new() -> Box<TexScratch> {
        Box::new(TexScratch {
            w: [[0.0; SPAN_TILE]; 3],
            col: [[0.0; SPAN_TILE]; 4],
            tx: [0; SPAN_TILE],
            ty: [0; SPAN_TILE],
            texel: [0; SPAN_TILE],
            out: [0; SPAN_TILE],
        })
    }
}

/// Builds a triangle's byte-ordered span coefficients for a draw that
/// [`span_eligible`] admitted (4-byte target; no texture, or a non-empty
/// 4-byte one with the draw's scratch).
fn span_lane<'a>(
    geom: &TargetGeom,
    t: &ScreenTri,
    tex: Option<(&'a TexView<'a>, &'a mut TexScratch)>,
) -> SpanLane<'a> {
    let by = |f: fn(&Rgba) -> f32| [f(&t.c0), f(&t.c1), f(&t.c2)];
    let ch = match geom.format {
        PixelFormat::Bgra8888 => [by(|c| c.b), by(|c| c.g), by(|c| c.r), by(|c| c.a)],
        _ => [by(|c| c.r), by(|c| c.g), by(|c| c.b), by(|c| c.a)],
    };
    let tex = tex.map(|(view, scratch)| TexLane {
        view,
        uv: [
            [t.uv0[0], t.uv1[0], t.uv2[0]],
            [t.uv0[1], t.uv1[1], t.uv2[1]],
        ],
        swap_rb: view.format != geom.format,
        scratch,
    });
    let mut flat01_mask = Some(0u32);
    for (i, c) in ch.iter().enumerate() {
        if c.iter().all(|&v| v == 0.0) {
            // byte stays 0 in the mask
        } else if c.iter().all(|&v| v == 1.0) {
            flat01_mask = flat01_mask.map(|m| m | 0xFF << (8 * i));
        } else {
            flat01_mask = None;
            break;
        }
    }
    SpanLane {
        ch,
        flat01_mask,
        tex,
    }
}

/// The sub-interval of `[lo, hi)` on which `!(w(px) < 0.0)` holds, found
/// with O(log) evaluations of `w`.
///
/// Requires `w` to be a weakly monotone sequence with no NaN values (the
/// caller guarantees this by only searching `finite` triangles). The
/// covered set is then a prefix, a suffix, everything, or nothing — which
/// of the four is read off the two end values, and the single boundary is
/// binary-searched with the exact predicate, so the result matches a
/// pixel-by-pixel scan bit for bit.
fn edge_interval(w: impl Fn(u32) -> f32, lo: u32, hi: u32) -> (u32, u32) {
    // The negated comparison is the reference's predicate verbatim — it
    // must stay `!(w < 0)`, not `w >= 0`, so NaN counts as covered there too.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    let covers = |px: u32| !(w(px) < 0.0);
    match (covers(lo), covers(hi - 1)) {
        (true, true) => (lo, hi),
        (false, false) => (lo, lo),
        (true, false) => {
            // Prefix: binary-search the first uncovered pixel.
            let (mut a, mut b) = (lo + 1, hi - 1);
            while a < b {
                let m = a + (b - a) / 2;
                if covers(m) {
                    a = m + 1;
                } else {
                    b = m;
                }
            }
            (lo, a)
        }
        (false, true) => {
            // Suffix: binary-search the first covered pixel.
            let (mut a, mut b) = (lo + 1, hi - 1);
            while a < b {
                let m = a + (b - a) / 2;
                if covers(m) {
                    b = m;
                } else {
                    a = m + 1;
                }
            }
            (a, hi)
        }
    }
}

/// The covered pixel interval `[lo, hi)` of one row of a `finite`
/// triangle. `lo >= hi` means the row covers nothing.
///
/// Each barycentric weight `w(px)` is a chain of rounded monotone
/// functions of `px` (cast, add-constant, multiply-by-constant,
/// divide-by-constant), and rounding preserves weak monotonicity, so per
/// edge the covered set really is contiguous and [`edge_interval`] —
/// which evaluates the exact per-pixel expressions — finds the same
/// boundary the reference's per-pixel test would. Finiteness matters:
/// with every term finite and `area` nonzero, no intermediate can be NaN
/// (the weights may still overflow to ±∞, which stays monotone and
/// compares like the reference).
#[inline]
fn covered_span(t: &ScreenTri, r: (f32, f32, f32)) -> (u32, u32) {
    let (k0, k1, k2) = t.k;
    let (r0, r1, r2) = r;
    let (l0, h0) =
        edge_interval(|px| ((px as f32 + 0.5 - t.p1[0]) * k0 - r0) / t.area, t.min_x, t.max_x);
    let (l1, h1) =
        edge_interval(|px| ((px as f32 + 0.5 - t.p2[0]) * k1 - r1) / t.area, t.min_x, t.max_x);
    let (l2, h2) =
        edge_interval(|px| ((px as f32 + 0.5 - t.p0[0]) * k2 - r2) / t.area, t.min_x, t.max_x);
    (l0.max(l1).max(l2), h0.min(h1).min(h2))
}

/// Width of the stack buffer the span lane shades into between stores.
const SPAN_TILE: usize = 128;

/// Fills one row's covered span without per-pixel branches and returns
/// its fragment count. When the draw depth-tests, `depth` holds the row
/// of the depth buffer and the draw's pass-mask scratch.
///
/// Byte-identity with the reference rests on two facts. First,
/// [`covered_span`] finds exactly the pixels the reference's coverage
/// test accepts. Second, the interior loops repeat the reference's
/// weight, interpolation, depth, sampling and quantization expressions
/// verbatim — the same arithmetic, merely restructured so the compiler
/// can vectorize it: no coverage test, a cast-free quantize
/// ([`quantize_unit`]), and packed `u32` stores. Textured spans are
/// shaded by [`shade_textured`]; a depth-tested chunk is tested by
/// [`depth_test_chunk`] and stored under its pass mask.
#[inline]
fn fill_row_span(
    bytes: &mut [u8],
    row_off: usize,
    mut depth: Option<(&mut [f32], &mut [u32; SPAN_TILE])>,
    t: &ScreenTri,
    r: (f32, f32, f32),
    lane: &mut SpanLane<'_>,
) -> u64 {
    let (k0, k1, k2) = t.k;
    let (r0, r1, r2) = r;
    let (lo, hi) = covered_span(t, r);
    if lo >= hi {
        return 0;
    }

    let mut px = lo;
    while px < hi {
        let len = ((hi - px) as usize).min(SPAN_TILE);
        let off = row_off + px as usize * 4;
        let dst = &mut bytes[off..off + len * 4];
        let keep = match &mut depth {
            None => None,
            Some((d, pass)) => {
                let n = depth_test_chunk(&mut d[px as usize..][..len], px, t, r, &mut pass[..len]);
                if n == 0 {
                    px += len as u32;
                    continue;
                }
                (n < len).then_some(&pass[..len])
            }
        };
        if let Some(tex) = &mut lane.tex {
            store_packed(
                dst,
                shade_textured(len, px, t, r, &lane.ch, lane.flat01_mask, tex),
                keep,
            );
        } else {
            let mut buf = [0u32; SPAN_TILE];
            if let Some(mask) = lane.flat01_mask {
                // Flat 0/1 colors: one interpolant (the weight sum, which
                // is what every all-ones channel evaluates to) quantized
                // once and replicated across the pixel, zero channels
                // masked off.
                for (i, slot) in buf[..len].iter_mut().enumerate() {
                    let xc = (px + i as u32) as f32 + 0.5;
                    let w0 = ((xc - t.p1[0]) * k0 - r0) / t.area;
                    let w1 = ((xc - t.p2[0]) * k1 - r1) / t.area;
                    let w2 = ((xc - t.p0[0]) * k2 - r2) / t.area;
                    let q = u32::from(quantize_unit(w0 + w1 + w2));
                    *slot = q.wrapping_mul(0x0101_0101) & mask;
                }
            } else {
                for (i, slot) in buf[..len].iter_mut().enumerate() {
                    let xc = (px + i as u32) as f32 + 0.5;
                    let w0 = ((xc - t.p1[0]) * k0 - r0) / t.area;
                    let w1 = ((xc - t.p2[0]) * k1 - r1) / t.area;
                    let w2 = ((xc - t.p0[0]) * k2 - r2) / t.area;
                    let q =
                        |c: &[f32; 3]| u32::from(quantize_unit(w0 * c[0] + w1 * c[1] + w2 * c[2]));
                    *slot = q(&lane.ch[0])
                        | q(&lane.ch[1]) << 8
                        | q(&lane.ch[2]) << 16
                        | q(&lane.ch[3]) << 24;
                }
            }
            store_packed(dst, &buf[..len], keep);
        }
        px += len as u32;
    }
    u64::from(hi - lo)
}

/// The reference's depth test over one chunk of `pass.len()` covered
/// pixels starting at column `px0`: each pixel's `z = w0·z0 + w1·z1 +
/// w2·z2` passes unless `z > d`, and a pass writes `z` to `d`. Sets
/// `pass[i]` to all-ones or zero and returns the number of passes.
#[inline]
fn depth_test_chunk(
    d: &mut [f32],
    px0: u32,
    t: &ScreenTri,
    r: (f32, f32, f32),
    pass: &mut [u32],
) -> usize {
    let (k0, k1, k2) = t.k;
    let (r0, r1, r2) = r;
    let mut passed = 0;
    for (i, (slot, m)) in d.iter_mut().zip(pass.iter_mut()).enumerate() {
        let xc = (px0 + i as u32) as f32 + 0.5;
        let w0 = ((xc - t.p1[0]) * k0 - r0) / t.area;
        let w1 = ((xc - t.p2[0]) * k1 - r1) / t.area;
        let w2 = ((xc - t.p0[0]) * k2 - r2) / t.area;
        let z = w0 * t.p0[2] + w1 * t.p1[2] + w2 * t.p2[2];
        // `!(z > d)`, not `z <= d`: a NaN on either side passes, as in
        // the reference.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        let ok = !(z > *slot);
        *slot = if ok { z } else { *slot };
        *m = 0u32.wrapping_sub(u32::from(ok));
        passed += usize::from(ok);
    }
    passed
}

/// Writes packed pixels to their target bytes, little-endian; under a
/// depth pass mask `keep` (all-ones keeps the new pixel, zero the old
/// one), only the passing ones.
#[inline]
fn store_packed(dst: &mut [u8], pixels: &[u32], keep: Option<&[u32]>) {
    match keep {
        None => {
            for (d, v) in dst.chunks_exact_mut(4).zip(pixels) {
                d.copy_from_slice(&v.to_le_bytes());
            }
        }
        Some(keep) => {
            for ((d, v), m) in dst.chunks_exact_mut(4).zip(pixels).zip(keep) {
                let old = u32::from_le_bytes([d[0], d[1], d[2], d[3]]);
                d.copy_from_slice(&(v & m | old & !m).to_le_bytes());
            }
        }
    }
}

/// How far the weight sum `s = (w0 + w1) + w2` may stray from 1 while
/// `quantize_unit((b / 255) · s) == b` still holds for every byte `b`
/// (asserted exhaustively by tests over every f32 in `[1 − 2⁻¹⁰, 1 +
/// 2⁻¹⁰]`; the identity itself holds out to about ±0.00196).
const WHITE_SLACK: f32 = 1.0 / 1024.0;

/// Shades `len` (at most [`SPAN_TILE`]) covered pixels of a textured span
/// starting at column `px0`, packed in the target's byte order, into the
/// draw's scratch, and returns them.
///
/// Three stages over the per-draw [`TexScratch`] arrays, each a simple
/// loop the compiler can vectorize: (1) the weights, the interpolated
/// color and the texel column and row indices; (2) the texel gather as
/// `u32`s; (3) unpack, `/ 255.0`, modulate, [`quantize_unit`] and pack.
/// Every expression is the reference's: the same weights and
/// interpolants, the texel decode of `Rgba::from_bytes`, the product
/// order of `Rgba::modulate`. The indices come from the draw's choice of
/// [`texel_index_fast`] (equal to [`texel_index`] for every input at
/// every size it is used for) or [`texel_index`] itself.
///
/// With flat 0/1 vertex colors (`flat01_mask`) each all-ones channel is
/// the weight sum and each all-zero channel is masked to byte 0 after
/// packing. When, in addition, every weight sum of the chunk lies within
/// [`WHITE_SLACK`] of 1 — as on white-modulated quads, whose sums are 1
/// up to rounding — stage 3 is the identity on each all-ones byte, so
/// the chunk's output is its texels under the mask. Any other chunk, NaN
/// sums included, takes stage 3 in full.
// Index loops over parallel arrays are the shape that vectorizes.
#[allow(clippy::needless_range_loop)]
fn shade_textured<'s>(
    len: usize,
    px0: u32,
    t: &ScreenTri,
    r: (f32, f32, f32),
    ch: &[[f32; 3]; 4],
    flat01_mask: Option<u32>,
    tex: &'s mut TexLane<'_>,
) -> &'s [u32] {
    let (k0, k1, k2) = t.k;
    let (r0, r1, r2) = r;
    let view = tex.view;
    let TexScratch {
        w,
        col,
        tx,
        ty,
        texel,
        out,
    } = &mut *tex.scratch;

    // Stage 1: weights, interpolated color, texel indices.
    for i in 0..len {
        let xc = (px0 + i as u32) as f32 + 0.5;
        w[0][i] = ((xc - t.p1[0]) * k0 - r0) / t.area;
        w[1][i] = ((xc - t.p2[0]) * k1 - r1) / t.area;
        w[2][i] = ((xc - t.p0[0]) * k2 - r2) / t.area;
    }
    let interp = |c: &[f32; 3], i: usize| w[0][i] * c[0] + w[1][i] * c[1] + w[2][i] * c[2];
    if flat01_mask.is_some() {
        for i in 0..len {
            col[0][i] = w[0][i] + w[1][i] + w[2][i];
        }
    } else {
        for (dst, c) in col.iter_mut().zip(ch) {
            for i in 0..len {
                dst[i] = interp(c, i);
            }
        }
    }
    let (tw, th) = (view.width, view.height);
    if view.fast_index {
        for i in 0..len {
            tx[i] = texel_index_fast(interp(&tex.uv[0], i), tw);
            ty[i] = texel_index_fast(interp(&tex.uv[1], i), th);
        }
    } else {
        for i in 0..len {
            tx[i] = texel_index(interp(&tex.uv[0], i), tw);
            ty[i] = texel_index(interp(&tex.uv[1], i), th);
        }
    }

    // Stage 2: gather.
    for i in 0..len {
        let at = ty[i] as usize * view.row_bytes + tx[i] as usize * 4;
        let b = &view.bytes[at..at + 4];
        texel[i] = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    }
    if tex.swap_rb {
        for v in &mut texel[..len] {
            *v = swap_rb(*v);
        }
    }

    // Stage 3: unpack, modulate, quantize, pack — or, for a white chunk,
    // the texels themselves.
    let out = &mut out[..len];
    let mask = flat01_mask.unwrap_or(u32::MAX);
    let near_one = 1.0 - WHITE_SLACK..=1.0 + WHITE_SLACK;
    let white = flat01_mask.is_some()
        && col[0][..len]
            .iter()
            .fold(true, |all, s| all & near_one.contains(s));
    if white {
        for i in 0..len {
            out[i] = texel[i] & mask;
        }
        return out;
    }
    out.fill(0);
    for c in 0..4 {
        let src = &col[if flat01_mask.is_some() { 0 } else { c }];
        for i in 0..len {
            let unit = f32::from((texel[i] >> (8 * c)) as u8) / 255.0;
            out[i] |= u32::from(quantize_unit(unit * src[i])) << (8 * c);
        }
    }
    for v in out.iter_mut() {
        *v &= mask;
    }
    out
}

/// Computes the exact [`RasterMetrics`] that [`draw_indexed`] (or
/// [`reference::draw_indexed`]) would report for this draw, without
/// touching any pixel or depth bytes.
///
/// This is what lets the device's identity lane charge a full-screen quad
/// exactly while its bytes come from a row copy: coverage does not depend
/// on blending, texturing or the depth test (the fill loops count a
/// fragment *before* the depth reject), so the count is a pure
/// function of the prepared triangles. Each row of a `finite` triangle is
/// counted with the same `covered_span` search the span lane uses —
/// O(log W) evaluations of the exact per-pixel predicate; the rows of any
/// other triangle with the reference's predicate at every pixel (where
/// monotonicity, and thus the search, is not guaranteed).
pub fn coverage_metrics(
    target: &Image,
    vertices: &[Vertex],
    indices: &[u32],
    pipeline: &Pipeline<'_>,
) -> RasterMetrics {
    let mut metrics = RasterMetrics::default();
    let tris = prepare_triangles(target, vertices, indices, pipeline, &mut metrics);
    for t in &tris {
        for py in t.min_y..t.max_y {
            metrics.fragments += row_coverage(t, t.row_terms(py));
        }
    }
    metrics
}

/// Counts the covered pixels of one triangle row: the span lane's
/// interval search on a `finite` triangle, else the per-pixel predicate.
fn row_coverage(t: &ScreenTri, r: (f32, f32, f32)) -> u64 {
    if t.finite {
        let (lo, hi) = covered_span(t, r);
        return u64::from(hi.saturating_sub(lo));
    }
    let (k0, k1, k2) = t.k;
    let (r0, r1, r2) = r;
    let mut n = 0u64;
    for px in t.min_x..t.max_x {
        let xc = px as f32 + 0.5;
        let w0 = ((xc - t.p1[0]) * k0 - r0) / t.area;
        let w1 = ((xc - t.p2[0]) * k1 - r1) / t.area;
        let w2 = ((xc - t.p0[0]) * k2 - r2) / t.area;
        if !(w0 < 0.0 || w1 < 0.0 || w2 < 0.0) {
            n += 1;
        }
    }
    n
}

/// Copies `src_rect` of `src` into `dst_rect` of `dst` with nearest-neighbour
/// scaling and format conversion: [`blit_clipped`] clipped to the whole
/// destination image. Returns the number of destination pixels written
/// (the unit the device charges copy costs in).
///
/// # Panics
///
/// Panics if either rectangle exceeds its image bounds.
pub fn blit(src: &Image, src_rect: Rect, dst: &Image, dst_rect: Rect) -> u64 {
    assert!(
        src_rect.x + src_rect.w <= src.width() && src_rect.y + src_rect.h <= src.height(),
        "source rect out of bounds"
    );
    assert!(
        dst_rect.x + dst_rect.w <= dst.width() && dst_rect.y + dst_rect.h <= dst.height(),
        "destination rect out of bounds"
    );
    blit_clipped(src, src_rect, dst, dst_rect, Rect::of_image(dst))
}

/// Writes the pixels of a nearest-neighbour blit of `src_rect` into
/// `dst_rect` that fall inside `clip ∩ dst_rect ∩ dst bounds`, under one
/// read guard + one write guard. `dst_rect` stays the *logical*
/// destination, so the integer-division scale positions do not depend
/// on the clip. This is the compositor's clipping primitive (DESIGN.md
/// §5g): the flinger passes the panel, so a destination rect hanging
/// past the image edge is legal here, unlike [`blit`], which panics.
/// Returns the number of pixels written.
///
/// Bytes match [`reference::blit`] restricted to the clip. Same-format
/// copies move raw pixel bytes, and unscaled RGBA↔BGRA copies swap
/// bytes 0 and 2: the reference's decode→encode round trip is the
/// identity on bytes within every [`PixelFormat`] and the pure swizzle
/// between the two 8888 layouts (both asserted exhaustively by tests).
/// Blits where `src` aliases `dst` keep the reference's per-pixel visit
/// order, hence its read-your-own-writes semantics.
///
/// # Panics
///
/// Panics if `src_rect` exceeds the source image bounds.
pub fn blit_clipped(src: &Image, src_rect: Rect, dst: &Image, dst_rect: Rect, clip: Rect) -> u64 {
    assert!(
        src_rect.x + src_rect.w <= src.width() && src_rect.y + src_rect.h <= src.height(),
        "source rect out of bounds"
    );
    if src_rect.is_empty() || dst_rect.is_empty() {
        return 0;
    }
    let eff = dst_rect.intersect(&clip).intersect(&Rect::of_image(dst));
    if eff.is_empty() {
        return 0;
    }
    let src_x = |x: u32| src_rect.x + (x - dst_rect.x) * src_rect.w / dst_rect.w;
    let src_y = |y: u32| src_rect.y + (y - dst_rect.y) * src_rect.h / dst_rect.h;
    let rows = eff.y..eff.y + eff.h;
    if src.aliases(dst) {
        for y in rows {
            for x in eff.x..eff.x + eff.w {
                dst.set_pixel(x, y, src.pixel_rgba(src_x(x), src_y(y)));
            }
        }
        return eff.area();
    }

    let (sformat, dformat) = (src.format(), dst.format());
    let (sbpp, dbpp) = (sformat.bytes_per_pixel(), dformat.bytes_per_pixel());
    let (srb, drb) = (src.row_bytes(), dst.row_bytes());
    let sguard = src.buffer().read_guard();
    let mut dguard = dst.buffer().write_guard();
    // For destination row y: where its source row starts, and the bytes
    // of its clipped span.
    let srow_at = |y: u32| src_y(y) as usize * srb;
    let dspan = |y: u32| {
        let start = y as usize * drb + eff.x as usize * dbpp;
        start..start + eff.w as usize * dbpp
    };

    let unscaled = src_rect.w == dst_rect.w && src_rect.h == dst_rect.h;
    let swizzle_8888 = matches!(
        (sformat, dformat),
        (PixelFormat::Rgba8888, PixelFormat::Bgra8888)
            | (PixelFormat::Bgra8888, PixelFormat::Rgba8888)
    );
    if unscaled && (sformat == dformat || swizzle_8888) {
        let scol = src_x(eff.x) as usize * sbpp;
        for y in rows {
            let drow = &mut dguard[dspan(y)];
            let srow = &sguard[srow_at(y) + scol..][..drow.len()];
            if sformat == dformat {
                drow.copy_from_slice(srow);
            } else {
                for (d, s) in drow.chunks_exact_mut(4).zip(srow.chunks_exact(4)) {
                    let v = u32::from_le_bytes([s[0], s[1], s[2], s[3]]);
                    d.copy_from_slice(&swap_rb(v).to_le_bytes());
                }
            }
        }
    } else {
        // Scaled or converting: the source byte offset of each clipped
        // destination column, computed once per blit.
        let scols: Vec<usize> =
            (eff.x..eff.x + eff.w).map(|x| src_x(x) as usize * sbpp).collect();
        let same_format = sformat == dformat;
        for y in rows {
            let srow = &sguard[srow_at(y)..];
            let pixels = dguard[dspan(y)].chunks_exact_mut(dbpp).zip(&scols);
            if same_format {
                for (d, &sc) in pixels {
                    d.copy_from_slice(&srow[sc..sc + sbpp]);
                }
            } else {
                for (d, &sc) in pixels {
                    dformat.encode(sformat.decode(&srow[sc..sc + sbpp]), d);
                }
            }
        }
    }
    eff.area()
}

fn edge(a: [f32; 3], b: [f32; 3], p: [f32; 3]) -> f32 {
    (p[0] - a[0]) * (b[1] - a[1]) - (p[1] - a[1]) * (b[0] - a[0])
}

/// Quantizes one linear color component exactly as [`Rgba::to_bytes`]
/// does (clamp → ×255 → round half away from zero), with no libm
/// `round()` call and no float→int conversion, so the span lane's loops
/// vectorize around it.
///
/// A saturating cast (`x as i32`) cannot do: on SSE2 it lowers to scalar
/// `cvttss2si` wrapped in range-check branches, which pulls every
/// channel of every pixel out of the vector lane. Instead:
///
/// 1. `x = v.max(0.0).min(1.0) * 255.0` — `f32::max` sends NaN to 0,
///    as the cast in `to_bytes` does, so `x ∈ [0, 255]`.
/// 2. `t = x + 2²³`: in `[2²³, 2²⁴)` the f32 spacing is exactly 1, so the
///    add rounds `x` to the nearest integer, ties to even, and that
///    integer (at most 255) is the low byte of `t`'s mantissa.
/// 3. `r = t − 2²³` is that integer as an `f32` (exact), and `x − r` is
///    exact too — by Sterbenz's lemma (`r/2 ≤ x ≤ 2r` for `r ≥ 1`), or
///    trivially when `r = 0`. It lies in `[−0.5, 0.5]` and equals `0.5`
///    only on a tie that went down to even, where adding 1 turns ties to
///    even into ties away from zero. The sum never exceeds 255: 255 is
///    odd, so no tie rounds down onto it.
///
/// Every step is an add, sub, mul, max/min, bitcast, mask or compare.
/// Asserted against `to_bytes` over a dense sweep of the f32 bit space
/// by tests, and over all 2³² bit patterns by an ignored test.
// `max`/`min`, not `clamp`: `clamp` keeps NaN, and step 1 needs NaN → 0.
#[allow(clippy::manual_clamp)]
#[inline]
fn quantize_unit(v: f32) -> u8 {
    const TWO_23: f32 = 8_388_608.0;
    let x = v.max(0.0).min(1.0) * 255.0;
    let t = x + TWO_23;
    let r = t - TWO_23;
    ((t.to_bits() & 0xFF) + u32::from(x - r >= 0.5)) as u8
}

/// Maps a normalized texture coordinate to a texel index with
/// clamp-to-edge semantics.
///
/// `coord` is clamped to `[0, 1]`, scaled to texel space and floored.
/// `coord == 1.0` scales to exactly `size` — one past the last texel — so
/// the result is clamped to `size - 1` explicitly rather than relying on
/// the cast's behaviour; every in-range coordinate short of 1.0 maps to
/// `floor(coord * size)`. NaN clamps to 0 via the cast.
fn texel_index(coord: f32, size: u32) -> u32 {
    let scaled = (coord.clamp(0.0, 1.0) * size as f32).floor() as u32;
    scaled.min(size.saturating_sub(1))
}

/// The largest texture side [`texel_index_fast`] serves: its scaled
/// coordinate must stay below 2²³ for the rounding trick to hold. GLES
/// caps textures at 2048 texels a side; larger images keep
/// [`texel_index`].
const FAST_TEXEL_MAX: u32 = 1 << 22;

/// [`texel_index`] for sizes up to [`FAST_TEXEL_MAX`], with no `floor()`
/// call (a libm call on baseline x86-64) and no float→int cast (a scalar
/// `cvttss2si` in range-check branches on SSE2), so the textured span
/// lane's index loop vectorizes. It is [`quantize_unit`]'s trick:
///
/// 1. `x = coord.max(0.0).min(1.0) · size` — the product `texel_index`
///    floors (a clamp to `[0, 1]` then the same multiply, up to the sign
///    of a zero), except that
///    `f32::max` sends NaN to 0 where the cast in `texel_index` did; both
///    end at texel 0. So `x ∈ [0, size] ⊆ [0, 2²²]`.
/// 2. `t = x + 2²³` lies in `[2²³, 2²⁴)`, where the f32 spacing is
///    exactly 1: the add rounds `x` to the nearest integer `n` (ties to
///    even), and `n < 2²³` is `t`'s mantissa.
/// 3. `r = t − 2²³ = n` exactly. `|n − x| ≤ 0.5`, so `floor(x)` is `n`,
///    or `n − 1` when the add rounded up (`r > x`, and then `n ≥ 1`).
///
/// The `size − 1` clamp is the same integer clamp `texel_index` applies.
/// Asserted against [`texel_index`] over a dense sweep of the f32 bit
/// space by tests, and over all 2³² bit patterns by an ignored test.
// `max`/`min`, not `clamp`: `clamp` keeps NaN, and step 1 needs NaN → 0.
#[allow(clippy::manual_clamp)]
#[inline]
fn texel_index_fast(coord: f32, size: u32) -> u32 {
    const TWO_23: f32 = 8_388_608.0;
    let x = coord.max(0.0).min(1.0) * size as f32;
    let t = x + TWO_23;
    let r = t - TWO_23;
    ((t.to_bits() & 0x7F_FFFF) - u32::from(r > x)).min(size.saturating_sub(1))
}

/// Samples `tex` at `(u, v)` with nearest filtering. A zero-area
/// texture is incomplete, and GLES 2 samples an incomplete texture as
/// opaque black `(0, 0, 0, 1)`.
fn sample_nearest(tex: &Image, u: f32, v: f32) -> Rgba {
    if tex.width() == 0 || tex.height() == 0 {
        return Rgba::BLACK;
    }
    let x = texel_index(u, tex.width());
    let y = texel_index(v, tex.height());
    tex.pixel_rgba(x, y)
}

/// The per-pixel reference rasterizer: the pre-span implementation, kept
/// verbatim as the executable specification of the raster plane.
///
/// Every pixel access goes through [`Image::set_pixel`]/
/// [`Image::pixel_rgba`] and therefore pays a lock round-trip per pixel —
/// that cost is exactly what `benches/raster.rs` baselines against. The
/// fast paths must produce byte-identical framebuffers (property-tested
/// over random triangle soups). These routines are also a production
/// route: [`draw_indexed`] hands them every draw its span lane does not
/// take (alpha blending, 565/A8 targets or textures, empty or aliasing
/// textures, non-finite edge terms), and [`blit_clipped`] keeps their
/// per-pixel visit order for a source aliasing its destination.
pub mod reference {
    use super::*;

    /// Per-pixel reference for [`super::draw_indexed`].
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range, or if `pipeline.depth_test` is
    /// set with a depth buffer of the wrong size.
    pub fn draw_indexed(
        target: &Image,
        mut depth: Option<&mut [f32]>,
        vertices: &[Vertex],
        indices: &[u32],
        pipeline: &Pipeline<'_>,
    ) -> RasterMetrics {
        if let Some(d) = depth.as_deref() {
            assert_eq!(
                d.len(),
                target.pixel_count() as usize,
                "depth buffer size mismatch"
            );
        }
        let mut metrics = RasterMetrics::default();
        let width = target.width() as f32;
        let height = target.height() as f32;
        // Pixel bounds the fill loops may touch (viewport/clip rectangle).
        let (clip_x0, clip_y0, clip_x1, clip_y1) = match pipeline.clip {
            Some(c) => (
                c.x.min(target.width()),
                c.y.min(target.height()),
                c.right().min(target.width()),
                c.bottom().min(target.height()),
            ),
            None => (0, 0, target.width(), target.height()),
        };

        // Transform all referenced vertices once.
        let transformed: Vec<([f32; 4], Rgba, [f32; 2])> = vertices
            .iter()
            .map(|v| {
                metrics.vertices += 1;
                (pipeline.transform.transform_point(v.pos), v.color, v.uv)
            })
            .collect();

        for tri in indices.chunks_exact(3) {
            let [i0, i1, i2] = [tri[0] as usize, tri[1] as usize, tri[2] as usize];
            let (c0, c1, c2) = (&transformed[i0], &transformed[i1], &transformed[i2]);
            if c0.0[3] <= f32::EPSILON || c1.0[3] <= f32::EPSILON || c2.0[3] <= f32::EPSILON {
                continue; // behind the eye; skip (no near clipping)
            }
            // Perspective divide and viewport transform (y flipped: NDC +y
            // is up, image rows grow downward).
            let to_screen = |c: &[f32; 4]| {
                let inv_w = 1.0 / c[3];
                [
                    (c[0] * inv_w + 1.0) * 0.5 * width,
                    (1.0 - (c[1] * inv_w + 1.0) * 0.5) * height,
                    c[2] * inv_w,
                ]
            };
            let p0 = to_screen(&c0.0);
            let p1 = to_screen(&c1.0);
            let p2 = to_screen(&c2.0);

            let area = edge(p0, p1, p2);
            if area.abs() <= f32::EPSILON {
                continue; // degenerate
            }

            let min_x = (p0[0].min(p1[0]).min(p2[0]).floor().max(0.0) as u32).max(clip_x0);
            let max_x = ((p0[0].max(p1[0]).max(p2[0]).ceil() as i64)
                .clamp(0, i64::from(target.width())) as u32)
                .min(clip_x1);
            let min_y = (p0[1].min(p1[1]).min(p2[1]).floor().max(0.0) as u32).max(clip_y0);
            let max_y = ((p0[1].max(p1[1]).max(p2[1]).ceil() as i64)
                .clamp(0, i64::from(target.height())) as u32)
                .min(clip_y1);

            for py in min_y..max_y {
                for px in min_x..max_x {
                    let p = [px as f32 + 0.5, py as f32 + 0.5, 0.0];
                    let w0 = edge(p1, p2, p) / area;
                    let w1 = edge(p2, p0, p) / area;
                    let w2 = edge(p0, p1, p) / area;
                    if w0 < 0.0 || w1 < 0.0 || w2 < 0.0 {
                        continue;
                    }
                    metrics.fragments += 1;

                    let z = w0 * p0[2] + w1 * p1[2] + w2 * p2[2];
                    if pipeline.depth_test {
                        if let Some(d) = depth.as_deref_mut() {
                            let idx = py as usize * target.width() as usize + px as usize;
                            if z > d[idx] {
                                continue;
                            }
                            d[idx] = z;
                        }
                    }

                    let mut color = Rgba {
                        r: w0 * c0.1.r + w1 * c1.1.r + w2 * c2.1.r,
                        g: w0 * c0.1.g + w1 * c1.1.g + w2 * c2.1.g,
                        b: w0 * c0.1.b + w1 * c1.1.b + w2 * c2.1.b,
                        a: w0 * c0.1.a + w1 * c1.1.a + w2 * c2.1.a,
                    };
                    if let Some(tex) = pipeline.texture {
                        let u = w0 * c0.2[0] + w1 * c1.2[0] + w2 * c2.2[0];
                        let v = w0 * c0.2[1] + w1 * c1.2[1] + w2 * c2.2[1];
                        color = sample_nearest(tex, u, v).modulate(color);
                    }

                    let out = match pipeline.blend {
                        BlendMode::Opaque => color,
                        BlendMode::Alpha => color.over(target.pixel_rgba(px, py)),
                    };
                    target.set_pixel(px, py, out);
                }
            }
        }
        metrics
    }

    /// Per-pixel reference for [`super::blit`].
    ///
    /// # Panics
    ///
    /// Panics if either rectangle exceeds its image bounds.
    pub fn blit(src: &Image, src_rect: Rect, dst: &Image, dst_rect: Rect) -> u64 {
        assert!(
            src_rect.x + src_rect.w <= src.width() && src_rect.y + src_rect.h <= src.height(),
            "source rect out of bounds"
        );
        assert!(
            dst_rect.x + dst_rect.w <= dst.width() && dst_rect.y + dst_rect.h <= dst.height(),
            "destination rect out of bounds"
        );
        if dst_rect.w == 0 || dst_rect.h == 0 || src_rect.w == 0 || src_rect.h == 0 {
            return 0;
        }
        for dy in 0..dst_rect.h {
            let sy = src_rect.y + dy * src_rect.h / dst_rect.h;
            for dx in 0..dst_rect.w {
                let sx = src_rect.x + dx * src_rect.w / dst_rect.w;
                let c = src.pixel_rgba(sx, sy);
                dst.set_pixel(dst_rect.x + dx, dst_rect.y + dy, c);
            }
        }
        u64::from(dst_rect.w) * u64::from(dst_rect.h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::PixelFormat;

    fn fullscreen_tri() -> Vec<Vertex> {
        // Covers the whole NDC square (and then some).
        vec![
            Vertex::colored([-1.0, -1.0, 0.0], Rgba::RED),
            Vertex::colored([3.0, -1.0, 0.0], Rgba::RED),
            Vertex::colored([-1.0, 3.0, 0.0], Rgba::RED),
        ]
    }

    #[test]
    fn fullscreen_triangle_covers_target() {
        let img = Image::new(16, 16, PixelFormat::Rgba8888);
        let m = draw_triangles(&img, None, &fullscreen_tri(), &Pipeline::default());
        assert_eq!(m.vertices, 3);
        assert_eq!(m.fragments, 16 * 16);
        assert_eq!(img.pixel_rgba(0, 0).to_bytes(), [255, 0, 0, 255]);
        assert_eq!(img.pixel_rgba(15, 15).to_bytes(), [255, 0, 0, 255]);
    }

    #[test]
    fn half_screen_triangle_leaves_other_half() {
        let img = Image::new(16, 16, PixelFormat::Rgba8888);
        let verts = vec![
            Vertex::colored([-1.0, -1.0, 0.0], Rgba::GREEN),
            Vertex::colored([1.0, -1.0, 0.0], Rgba::GREEN),
            Vertex::colored([-1.0, 1.0, 0.0], Rgba::GREEN),
        ];
        draw_triangles(&img, None, &verts, &Pipeline::default());
        // Lower-left is covered, upper-right is not.
        assert_eq!(img.pixel_rgba(1, 14).to_bytes(), [0, 255, 0, 255]);
        assert_eq!(img.pixel_rgba(14, 1).to_bytes(), [0, 0, 0, 0]);
    }

    #[test]
    fn transform_is_applied() {
        let img = Image::new(16, 16, PixelFormat::Rgba8888);
        // Draw in pixel space via an ortho transform.
        let pipeline = Pipeline {
            transform: Mat4::ortho(0.0, 16.0, 16.0, 0.0, -1.0, 1.0),
            ..Pipeline::default()
        };
        let verts = vec![
            Vertex::colored([0.0, 0.0, 0.0], Rgba::BLUE),
            Vertex::colored([16.0, 0.0, 0.0], Rgba::BLUE),
            Vertex::colored([0.0, 16.0, 0.0], Rgba::BLUE),
        ];
        draw_triangles(&img, None, &verts, &pipeline);
        assert_eq!(img.pixel_rgba(0, 0).to_bytes(), [0, 0, 255, 255]);
        assert_eq!(img.pixel_rgba(15, 15).to_bytes(), [0, 0, 0, 0]);
    }

    #[test]
    fn texture_modulates() {
        let tex = Image::new(2, 2, PixelFormat::Rgba8888);
        tex.fill(Rgba::new(0.0, 1.0, 0.0, 1.0));
        let img = Image::new(8, 8, PixelFormat::Rgba8888);
        let verts: Vec<Vertex> = [
            ([-1.0, -1.0, 0.0], [0.0, 0.0]),
            ([3.0, -1.0, 0.0], [2.0, 0.0]),
            ([-1.0, 3.0, 0.0], [0.0, 2.0]),
        ]
        .iter()
        .map(|&(p, uv)| Vertex::textured(p, uv))
        .collect();
        let pipeline = Pipeline {
            texture: Some(&tex),
            ..Pipeline::default()
        };
        draw_triangles(&img, None, &verts, &pipeline);
        assert_eq!(img.pixel_rgba(4, 4).to_bytes(), [0, 255, 0, 255]);
    }

    #[test]
    fn alpha_blend_mixes_with_destination() {
        let img = Image::new(4, 4, PixelFormat::Rgba8888);
        img.fill(Rgba::BLUE);
        let mut verts = fullscreen_tri();
        for v in &mut verts {
            v.color = Rgba::new(1.0, 0.0, 0.0, 0.5);
        }
        let pipeline = Pipeline {
            blend: BlendMode::Alpha,
            ..Pipeline::default()
        };
        draw_triangles(&img, None, &verts, &pipeline);
        let px = img.pixel_rgba(2, 2).to_bytes();
        assert!(px[0] > 100 && px[2] > 100, "mixed red+blue: {px:?}");
    }

    #[test]
    fn depth_test_keeps_nearer_fragment() {
        let img = Image::new(4, 4, PixelFormat::Rgba8888);
        let mut depth = depth_buffer_for(&img);
        let near = fullscreen_tri()
            .iter()
            .map(|v| Vertex::colored([v.pos[0], v.pos[1], 0.0], Rgba::GREEN))
            .collect::<Vec<_>>();
        let far = fullscreen_tri()
            .iter()
            .map(|v| Vertex::colored([v.pos[0], v.pos[1], 0.9], Rgba::RED))
            .collect::<Vec<_>>();
        let pipeline = Pipeline {
            depth_test: true,
            ..Pipeline::default()
        };
        draw_triangles(&img, Some(&mut depth), &near, &pipeline);
        draw_triangles(&img, Some(&mut depth), &far, &pipeline);
        assert_eq!(img.pixel_rgba(2, 2).to_bytes(), [0, 255, 0, 255]);
    }

    #[test]
    fn behind_eye_triangles_are_skipped() {
        let img = Image::new(4, 4, PixelFormat::Rgba8888);
        let pipeline = Pipeline {
            transform: Mat4::frustum(-1.0, 1.0, -1.0, 1.0, 1.0, 10.0),
            ..Pipeline::default()
        };
        // z = +5 is behind the eye for this frustum.
        let verts = vec![
            Vertex::colored([-1.0, -1.0, 5.0], Rgba::RED),
            Vertex::colored([1.0, -1.0, 5.0], Rgba::RED),
            Vertex::colored([0.0, 1.0, 5.0], Rgba::RED),
        ];
        let m = draw_triangles(&img, None, &verts, &pipeline);
        assert_eq!(m.fragments, 0);
        assert_eq!(img.pixel_rgba(2, 2).to_bytes(), [0, 0, 0, 0]);
    }

    #[test]
    fn blit_scales_and_converts() {
        let src = Image::new(2, 2, PixelFormat::Bgra8888);
        src.fill(Rgba::RED);
        let dst = Image::new(4, 4, PixelFormat::Rgba8888);
        let n = blit(&src, Rect::of_image(&src), &dst, Rect::of_image(&dst));
        assert_eq!(n, 16);
        assert_eq!(dst.pixel_rgba(3, 3).to_bytes(), [255, 0, 0, 255]);
    }

    #[test]
    #[should_panic(expected = "source rect out of bounds")]
    fn blit_validates_rects() {
        let src = Image::new(2, 2, PixelFormat::Rgba8888);
        let dst = Image::new(2, 2, PixelFormat::Rgba8888);
        blit(
            &src,
            Rect { x: 1, y: 1, w: 2, h: 2 },
            &dst,
            Rect::of_image(&dst),
        );
    }

    #[test]
    fn fully_offscreen_triangle_draws_nothing_and_terminates() {
        // Regression: a triangle entirely left of the viewport once
        // produced a negative max_x that wrapped to ~4 billion when cast
        // to u32, turning the fill loop into an effectively infinite scan.
        let img = Image::new(8, 8, PixelFormat::Rgba8888);
        let verts = vec![
            Vertex::colored([-3.0, -0.5, 0.0], Rgba::RED),
            Vertex::colored([-2.0, -0.5, 0.0], Rgba::RED),
            Vertex::colored([-2.5, 0.5, 0.0], Rgba::RED),
        ];
        let m = draw_triangles(&img, None, &verts, &Pipeline::default());
        assert_eq!(m.fragments, 0);
        // Above the viewport too.
        let verts = vec![
            Vertex::colored([-0.5, 3.0, 0.0], Rgba::RED),
            Vertex::colored([0.5, 3.0, 0.0], Rgba::RED),
            Vertex::colored([0.0, 2.0, 0.0], Rgba::RED),
        ];
        let m = draw_triangles(&img, None, &verts, &Pipeline::default());
        assert_eq!(m.fragments, 0);
    }

    #[test]
    fn degenerate_triangle_draws_nothing() {
        let img = Image::new(4, 4, PixelFormat::Rgba8888);
        let verts = vec![
            Vertex::colored([0.0, 0.0, 0.0], Rgba::RED); 3
        ];
        let m = draw_triangles(&img, None, &verts, &Pipeline::default());
        assert_eq!(m.fragments, 0);
    }

    // ---------------------------------------------------------------
    // Raster-plane equivalence and determinism
    // ---------------------------------------------------------------

    fn scene() -> Vec<Vertex> {
        vec![
            // A big interpolated triangle…
            Vertex::colored([-1.0, -0.9, 0.1], Rgba::RED),
            Vertex::colored([0.9, -0.8, 0.3], Rgba::GREEN),
            Vertex::colored([-0.2, 0.95, 0.6], Rgba::BLUE),
            // …overlapped by a translucent one.
            Vertex::colored([-0.7, 0.8, 0.2], Rgba::new(1.0, 1.0, 0.0, 0.4)),
            Vertex::colored([0.8, 0.7, 0.2], Rgba::new(0.0, 1.0, 1.0, 0.7)),
            Vertex::colored([0.1, -0.9, 0.4], Rgba::new(1.0, 0.0, 1.0, 0.9)),
        ]
    }

    #[test]
    fn span_rasterizer_matches_reference() {
        for blend in [BlendMode::Opaque, BlendMode::Alpha] {
            let a = Image::new(33, 21, PixelFormat::Bgra8888);
            let b = Image::new(33, 21, PixelFormat::Bgra8888);
            a.fill(Rgba::new(0.1, 0.2, 0.3, 1.0));
            b.fill(Rgba::new(0.1, 0.2, 0.3, 1.0));
            let pipeline = Pipeline { blend, ..Pipeline::default() };
            let ma = draw_triangles(&a, None, &scene(), &pipeline);
            let mb = reference::draw_indexed(
                &b,
                None,
                &scene(),
                &[0, 1, 2, 3, 4, 5],
                &pipeline,
            );
            assert_eq!(ma, mb, "metrics diverged ({blend:?})");
            assert_eq!(a.to_rgba_vec(), b.to_rgba_vec(), "pixels diverged ({blend:?})");
        }
    }

    #[test]
    fn flat_primary_colors_match_reference() {
        // Flat 0/1-valued channels take the masked single-quantize path in
        // the span lane; exercise every primary combination against the
        // reference, on both 4-byte formats and with a partially covering
        // triangle so span boundaries are in play.
        let colors = [
            Rgba::new(0.0, 0.0, 0.0, 0.0),
            Rgba::new(0.0, 0.0, 0.0, 1.0),
            Rgba::new(1.0, 0.0, 0.0, 1.0),
            Rgba::new(0.0, 1.0, 0.0, 1.0),
            Rgba::new(0.0, 0.0, 1.0, 1.0),
            Rgba::new(1.0, 1.0, 0.0, 1.0),
            Rgba::new(1.0, 1.0, 1.0, 1.0),
            Rgba::new(-0.0, 1.0, -0.0, 1.0),
            // Not flat: one channel interpolates — must still match via
            // the generic span loop.
            Rgba::new(1.0, 0.25, 0.0, 1.0),
        ];
        for fmt in [PixelFormat::Rgba8888, PixelFormat::Bgra8888] {
            for color in colors {
                let verts = [
                    Vertex::colored([-0.9, -0.8, 0.0], color),
                    Vertex::colored([0.9, -0.3, 0.0], color),
                    Vertex::colored([0.1, 0.95, 0.0], color),
                ];
                let fast = Image::new(37, 29, fmt);
                let slow = Image::new(37, 29, fmt);
                let pipeline = Pipeline::default();
                let mf = draw_triangles(&fast, None, &verts, &pipeline);
                let ms = reference::draw_indexed(&slow, None, &verts, &[0, 1, 2], &pipeline);
                assert_eq!(mf, ms, "metrics diverged ({fmt} {color:?})");
                assert_eq!(
                    fast.to_rgba_vec(),
                    slow.to_rgba_vec(),
                    "pixels diverged ({fmt} {color:?})"
                );
            }
        }
    }

    #[test]
    fn coverage_metrics_match_draw_metrics() {
        // The count-only helper must report exactly what a real draw
        // reports — including depth-rejected fragments (counted before
        // the reject) and alpha-blended ones — for interpolated scenes,
        // fullscreen textured quads (the present shape) and degenerate
        // inputs.
        let indices = [0u32, 1, 2, 3, 4, 5];
        for (w, h) in [(33, 21), (40, 31), (64, 48), (1, 1), (97, 3)] {
            let img = Image::new(w, h, PixelFormat::Rgba8888);
            let mut depth = depth_buffer_for(&img);
            let pipeline = Pipeline { depth_test: true, ..Pipeline::default() };
            let counted = coverage_metrics(&img, &scene(), &indices, &pipeline);
            let drawn =
                draw_indexed(&img, Some(&mut depth), &scene(), &indices, &pipeline);
            assert_eq!(counted, drawn, "{w}x{h} scene");
        }
        // Fullscreen textured quad at sizes where diagonal double
        // coverage makes fragments exceed w*h.
        let tex = Image::new(8, 8, PixelFormat::Rgba8888);
        tex.fill(Rgba::GREEN);
        let quad = [
            Vertex::textured([-1.0, -1.0, 0.0], [0.0, 1.0]),
            Vertex::textured([1.0, -1.0, 0.0], [1.0, 1.0]),
            Vertex::textured([1.0, 1.0, 0.0], [1.0, 0.0]),
            Vertex::textured([-1.0, -1.0, 0.0], [0.0, 1.0]),
            Vertex::textured([1.0, 1.0, 0.0], [1.0, 0.0]),
            Vertex::textured([-1.0, 1.0, 0.0], [0.0, 0.0]),
        ];
        for (w, h) in [(48, 48), (64, 48), (160, 120), (31, 17)] {
            let img = Image::new(w, h, PixelFormat::Rgba8888);
            let pipeline = Pipeline { texture: Some(&tex), ..Pipeline::default() };
            let counted = coverage_metrics(&img, &quad, &indices, &pipeline);
            let drawn = draw_indexed(&img, None, &quad, &indices, &pipeline);
            assert_eq!(counted, drawn, "{w}x{h} quad");
        }
    }

    #[test]
    fn non_finite_edge_terms_send_the_draw_to_the_reference() {
        // A vertex at 1e30 keeps every screen position finite, but its
        // row terms overflow: the triangle is not `finite`, so the whole
        // draw (the finite triangle after it too) takes the reference.
        let verts = [
            Vertex::colored([1.0e30, 1.0e30, 0.0], Rgba::RED),
            Vertex::colored([-0.9, -0.8, 0.0], Rgba::GREEN),
            Vertex::colored([0.9, -0.3, 0.0], Rgba::BLUE),
            Vertex::colored([-0.9, -0.9, 0.0], Rgba::WHITE),
            Vertex::colored([0.9, -0.9, 0.0], Rgba::WHITE),
            Vertex::colored([0.0, 0.9, 0.0], Rgba::WHITE),
        ];
        let indices = [0u32, 1, 2, 3, 4, 5];
        let pipeline = Pipeline::default();
        let fast = Image::new(37, 29, PixelFormat::Rgba8888);
        let slow = Image::new(37, 29, PixelFormat::Rgba8888);
        let mut metrics = RasterMetrics::default();
        let tris = prepare_triangles(&fast, &verts, &indices, &pipeline, &mut metrics);
        assert_eq!(tris.iter().map(|t| t.finite).collect::<Vec<_>>(), [false, true]);
        let before = trace::counter(trace::Counter::RasterReferenceDraws);
        let mf = draw_indexed(&fast, None, &verts, &indices, &pipeline);
        assert!(trace::counter(trace::Counter::RasterReferenceDraws) > before);
        let ms = reference::draw_indexed(&slow, None, &verts, &indices, &pipeline);
        assert_eq!(mf, ms);
        assert_eq!(fast.to_rgba_vec(), slow.to_rgba_vec());
        assert_eq!(coverage_metrics(&fast, &verts, &indices, &pipeline), ms);
    }

    #[test]
    fn self_texturing_draw_matches_reference() {
        // Texture aliasing the target exercises the reference fallback.
        let a = Image::new(16, 16, PixelFormat::Rgba8888);
        let b = Image::new(16, 16, PixelFormat::Rgba8888);
        a.fill(Rgba::GREEN);
        b.fill(Rgba::GREEN);
        let verts: Vec<Vertex> = [
            ([-1.0f32, -1.0, 0.0], [0.0f32, 0.0]),
            ([3.0, -1.0, 0.0], [2.0, 0.0]),
            ([-1.0, 3.0, 0.0], [0.0, 2.0]),
        ]
        .iter()
        .map(|&(p, uv)| Vertex::textured(p, uv))
        .collect();
        let pa = Pipeline { texture: Some(&a), ..Pipeline::default() };
        let pb = Pipeline { texture: Some(&b), ..Pipeline::default() };
        draw_triangles(&a, None, &verts, &pa);
        reference::draw_indexed(&b, None, &verts, &[0, 1, 2], &pb);
        assert_eq!(a.to_rgba_vec(), b.to_rgba_vec());
    }

    #[test]
    fn same_format_decode_encode_is_byte_identity() {
        // The memcpy blit fast path relies on decode→encode being the
        // identity within one format. Channels are independent for the
        // byte formats, so a per-channel sweep is exhaustive; RGB565 is
        // swept over all 65536 encodings.
        for v in 0..=255u8 {
            for fmt in [PixelFormat::Rgba8888, PixelFormat::Bgra8888] {
                for lane in 0..4 {
                    let mut px = [0u8; 4];
                    px[lane] = v;
                    let mut out = [0u8; 4];
                    fmt.encode(fmt.decode(&px), &mut out);
                    assert_eq!(out, px, "{fmt} lane {lane} value {v}");
                }
            }
            let mut out = [0u8; 1];
            PixelFormat::Alpha8.encode(PixelFormat::Alpha8.decode(&[v]), &mut out);
            assert_eq!(out, [v], "ALPHA8 value {v}");
        }
        for raw in 0..=u16::MAX {
            let px = raw.to_le_bytes();
            let mut out = [0u8; 2];
            PixelFormat::Rgb565.encode(PixelFormat::Rgb565.decode(&px), &mut out);
            assert_eq!(out, px, "RGB565 value {raw:#06x}");
        }
    }

    #[test]
    fn blit_fast_paths_match_reference() {
        let cases = [
            // (src fmt, dst fmt, src rect, dst rect): memcpy, per-pixel
            // same-format scaled, and converting variants.
            (PixelFormat::Rgba8888, PixelFormat::Rgba8888, Rect { x: 1, y: 2, w: 5, h: 4 }, Rect { x: 3, y: 1, w: 5, h: 4 }),
            (PixelFormat::Rgb565, PixelFormat::Rgb565, Rect { x: 0, y: 0, w: 7, h: 6 }, Rect { x: 2, y: 2, w: 3, h: 9 }),
            (PixelFormat::Bgra8888, PixelFormat::Rgb565, Rect { x: 0, y: 1, w: 8, h: 7 }, Rect { x: 0, y: 0, w: 12, h: 12 }),
            // Unscaled RGBA↔BGRA pairs take the byte-swizzle row lane.
            (PixelFormat::Bgra8888, PixelFormat::Rgba8888, Rect { x: 1, y: 2, w: 6, h: 5 }, Rect { x: 2, y: 3, w: 6, h: 5 }),
            (PixelFormat::Rgba8888, PixelFormat::Bgra8888, Rect { x: 0, y: 0, w: 12, h: 12 }, Rect { x: 0, y: 0, w: 12, h: 12 }),
            // …and scaled conversions between them stay per-pixel.
            (PixelFormat::Rgba8888, PixelFormat::Bgra8888, Rect { x: 0, y: 0, w: 6, h: 6 }, Rect { x: 1, y: 1, w: 11, h: 9 }),
        ];
        for (sfmt, dfmt, sr, dr) in cases {
            let src = Image::new(12, 12, sfmt);
            // Deterministic speckle so every pixel differs.
            for y in 0..12u32 {
                for x in 0..12u32 {
                    src.set_pixel(
                        x,
                        y,
                        Rgba::from_bytes([(x * 21) as u8, (y * 17) as u8, (x * y) as u8, 255]),
                    );
                }
            }
            let fast = Image::new(16, 16, dfmt);
            let slow = Image::new(16, 16, dfmt);
            let n_fast = blit(&src, sr, &fast, dr);
            let n_slow = reference::blit(&src, sr, &slow, dr);
            assert_eq!(n_fast, n_slow);
            assert_eq!(
                fast.to_rgba_vec(),
                slow.to_rgba_vec(),
                "{sfmt}→{dfmt} diverged"
            );
        }
    }

    #[test]
    fn self_blit_keeps_read_your_writes_semantics() {
        // Overlapping self-copy: later destination rows must observe the
        // writes earlier iterations made (the historical behaviour).
        let mk = || {
            let img = Image::new(8, 8, PixelFormat::Rgba8888);
            for y in 0..8u32 {
                for x in 0..8u32 {
                    img.set_pixel(x, y, Rgba::from_bytes([x as u8 * 30, y as u8 * 30, 7, 255]));
                }
            }
            img
        };
        let fast = mk();
        let slow = mk();
        let sr = Rect { x: 0, y: 0, w: 8, h: 4 };
        let dr = Rect { x: 0, y: 2, w: 8, h: 4 };
        blit(&fast.clone(), sr, &fast, dr);
        reference::blit(&slow.clone(), sr, &slow, dr);
        assert_eq!(fast.to_rgba_vec(), slow.to_rgba_vec());
    }

    #[test]
    fn quantize_unit_matches_to_bytes_across_the_f32_space() {
        let reference = |v: f32| (v.clamp(0.0, 1.0) * 255.0).round() as u8;
        // Specials first.
        for v in [
            0.0f32, -0.0, 1.0, 0.5, 1.0 / 255.0, 0.5 / 255.0, 254.5 / 255.0,
            f32::NAN, f32::INFINITY, f32::NEG_INFINITY, f32::MIN_POSITIVE,
            f32::EPSILON, -1.0, 2.0, 0.499_999_97, 0.500_000_06,
        ] {
            assert_eq!(quantize_unit(v), reference(v), "v = {v:?}");
        }
        // Every byte boundary neighbourhood: n/255 and the f32s around
        // each rounding threshold (n + 0.5)/255.
        for n in 0..=255u32 {
            for base in [n as f32 / 255.0, (n as f32 + 0.5) / 255.0] {
                for ulps in -4i32..=4 {
                    let v = f32::from_bits((base.to_bits() as i32 + ulps) as u32);
                    assert_eq!(quantize_unit(v), reference(v), "v = {v:?}");
                }
            }
        }
        // Dense prime-stride sweep of the whole f32 bit space (~1.7M
        // samples, covering subnormals, huge values and NaN payloads).
        let mut bits = 0u32;
        loop {
            let v = f32::from_bits(bits);
            assert_eq!(quantize_unit(v), reference(v), "bits = {bits:#010x}");
            let (next, overflow) = bits.overflowing_add(2_477);
            if overflow {
                break;
            }
            bits = next;
        }
    }

    #[test]
    #[ignore = "all 2^32 f32 bit patterns: run in release with --include-ignored quantize"]
    fn quantize_unit_matches_to_bytes_over_every_f32() {
        let reference = |v: f32| (v.clamp(0.0, 1.0) * 255.0).round() as u8;
        let sweep = |lo: u32, hi: u32| {
            for bits in lo..=hi {
                let v = f32::from_bits(bits);
                assert_eq!(quantize_unit(v), reference(v), "bits = {bits:#010x}");
            }
        };
        std::thread::scope(|s| {
            s.spawn(|| sweep(0, u32::MAX / 2));
            s.spawn(|| sweep(u32::MAX / 2 + 1, u32::MAX));
        });
    }

    #[test]
    fn texel_index_maps_the_unit_edge_to_the_last_texel() {
        // u == 1.0 scales to `size`, one past the end; the explicit clamp
        // must land it on the last texel, not wrap or go out of range.
        assert_eq!(texel_index(1.0, 8), 7);
        assert_eq!(texel_index(1.0, 1), 0);
        // Just below 1.0 also lands on the last texel…
        assert_eq!(texel_index(0.999_999, 8), 7);
        // …and interior coordinates map by floor(u * size).
        assert_eq!(texel_index(0.0, 8), 0);
        assert_eq!(texel_index(0.124, 8), 0);
        assert_eq!(texel_index(0.125, 8), 1);
        assert_eq!(texel_index(0.5, 8), 4);
        // Out-of-range coordinates clamp to the edges.
        assert_eq!(texel_index(-3.5, 8), 0);
        assert_eq!(texel_index(2.5, 8), 7);
        // Degenerate zero-size images saturate to texel 0.
        assert_eq!(texel_index(0.7, 0), 0);
    }

    #[test]
    fn texel_index_fast_matches_texel_index_across_the_f32_space() {
        let sizes = [
            0u32,
            1,
            2,
            3,
            7,
            9,
            64,
            255,
            256,
            1024,
            2048,
            4097,
            FAST_TEXEL_MAX - 1,
            FAST_TEXEL_MAX,
        ];
        let specials = [
            0.0f32,
            -0.0,
            1.0,
            0.5,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            f32::EPSILON,
            1.0 - f32::EPSILON,
            -1.0,
            2.0,
        ];
        for size in sizes {
            for v in specials {
                assert_eq!(
                    texel_index_fast(v, size),
                    texel_index(v, size),
                    "{v:?} @ {size}"
                );
            }
            // The neighbourhood of every texel boundary n/size, and of its
            // midpoint (n + 0.5)/size, where the add in step 2 ties.
            for n in (0..=size.min(300)).chain(size.saturating_sub(300)..=size) {
                for half in [0.0f32, 0.5] {
                    let base = (n as f32 + half) / size.max(1) as f32;
                    for ulps in -3i32..=3 {
                        let v = f32::from_bits((base.to_bits() as i32).wrapping_add(ulps) as u32);
                        assert_eq!(
                            texel_index_fast(v, size),
                            texel_index(v, size),
                            "{v:?} @ {size}"
                        );
                    }
                }
            }
        }
        // Prime-stride sweep of the whole bit space (NaN payloads,
        // subnormals, huge magnitudes of both signs).
        let mut bits = 0u32;
        loop {
            let v = f32::from_bits(bits);
            for size in [1u32, 9, 256, 2048, FAST_TEXEL_MAX] {
                assert_eq!(
                    texel_index_fast(v, size),
                    texel_index(v, size),
                    "{bits:#010x} @ {size}"
                );
            }
            let (next, overflow) = bits.overflowing_add(4_093);
            if overflow {
                break;
            }
            bits = next;
        }
    }

    #[test]
    #[ignore = "all 2^32 f32 bit patterns at 7 sizes: run in release with --include-ignored texel"]
    fn texel_index_fast_matches_texel_index_over_every_f32() {
        for size in [1u32, 2, 3, 255, 256, 2048, FAST_TEXEL_MAX] {
            let sweep = |lo: u32, hi: u32| {
                for bits in lo..=hi {
                    let v = f32::from_bits(bits);
                    assert_eq!(
                        texel_index_fast(v, size),
                        texel_index(v, size),
                        "{bits:#010x} @ {size}"
                    );
                }
            };
            std::thread::scope(|s| {
                s.spawn(|| sweep(0, u32::MAX / 2));
                s.spawn(|| sweep(u32::MAX / 2 + 1, u32::MAX));
            });
        }
    }

    #[test]
    fn white_modulate_is_the_identity_near_unit_weight_sums() {
        // Every f32 weight sum within WHITE_SLACK of 1 (2^14 below 1 at
        // spacing 2^-24, 2^13 above at 2^-23) against every texel byte:
        // the textured span lane's stage 3, which the white lane skips.
        let lo = (1.0 - WHITE_SLACK).to_bits();
        let hi = (1.0 + WHITE_SLACK).to_bits();
        assert_eq!(hi - lo, (1 << 14) + (1 << 13));
        for b in 0..=255u8 {
            let unit = f32::from(b) / 255.0;
            for bits in lo..=hi {
                let s = f32::from_bits(bits);
                assert_eq!(quantize_unit(unit * s), b, "byte {b}, sum {s:?}");
            }
        }
    }

    #[test]
    fn sampling_at_uv_one_uses_the_last_texel() {
        let tex = Image::new(4, 4, PixelFormat::Rgba8888);
        tex.fill(Rgba::GREEN);
        tex.set_pixel(3, 3, Rgba::RED);
        assert_eq!(sample_nearest(&tex, 1.0, 1.0).to_bytes(), [255, 0, 0, 255]);
        assert_eq!(sample_nearest(&tex, 0.99, 0.99).to_bytes(), [255, 0, 0, 255]);
        assert_eq!(sample_nearest(&tex, 0.5, 1.0).to_bytes(), [0, 255, 0, 255]);
    }
}
