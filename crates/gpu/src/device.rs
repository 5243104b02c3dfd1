//! The GPU device front-end: command execution plus cost accounting.
//!
//! # The parallel plane (DESIGN.md §5f)
//!
//! The device holds **no global lock**. Sequence numbers and statistics
//! are per-field atomics, fences live in a [`SlotTable`] (per-slot locks,
//! lock-free dense lookup), and pixel work serializes only on the target
//! image's own buffer guard — so sessions driving disjoint render targets
//! never contend on the device. Every command charges its virtual time on
//! the calling thread, which keeps per-session meters exact.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use cycada_sim::check::{self, Access};
use cycada_sim::slots::SlotTable;
use cycada_sim::{clock, trace, GpuCostModel, Nanos};

use crate::fence::{Fence, FenceCondition, FenceId};
use crate::format::{PixelFormat, Rgba};
use crate::image::Image;
use crate::raster::{self, Pipeline, RasterMetrics, Rect, Vertex};

/// Whether work goes down the 2D (vector/canvas) or 3D path. The two paths
/// have different relative efficiency per device (Figure 6: the iPad is
/// slower at 2D and faster at complex 3D than the Nexus 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrawClass {
    /// 2D vector / canvas work.
    TwoD,
    /// 3D geometry work.
    ThreeD,
}

impl DrawClass {
    /// Stable wire code (replay-plane `.cyt` streams).
    pub fn code(self) -> u8 {
        match self {
            DrawClass::TwoD => 0,
            DrawClass::ThreeD => 1,
        }
    }

    /// Inverse of [`DrawClass::code`].
    pub fn from_code(code: u8) -> Option<DrawClass> {
        match code {
            0 => Some(DrawClass::TwoD),
            1 => Some(DrawClass::ThreeD),
            _ => None,
        }
    }
}

/// Counters describing everything the device has executed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GpuStats {
    /// Total commands submitted.
    pub commands: u64,
    /// Draw commands.
    pub draws: u64,
    /// Clear commands.
    pub clears: u64,
    /// Blit/copy commands.
    pub blits: u64,
    /// Vertices transformed.
    pub vertices: u64,
    /// Fragments shaded.
    pub fragments: u64,
    /// Bytes uploaded from CPU memory.
    pub upload_bytes: u64,
    /// Fences set.
    pub fences_set: u64,
    /// Explicit flushes.
    pub flushes: u64,
    /// Frames presented through this device.
    pub presents: u64,
}

/// [`GpuStats`] as independent relaxed atomics: every command bumps its
/// own counters without touching a shared lock, and [`GpuDevice::stats`]
/// assembles a (non-transactional) snapshot.
#[derive(Default)]
struct AtomicStats {
    commands: AtomicU64,
    draws: AtomicU64,
    clears: AtomicU64,
    blits: AtomicU64,
    vertices: AtomicU64,
    fragments: AtomicU64,
    upload_bytes: AtomicU64,
    fences_set: AtomicU64,
    flushes: AtomicU64,
    presents: AtomicU64,
}

impl AtomicStats {
    fn snapshot(&self) -> GpuStats {
        GpuStats {
            commands: self.commands.load(Ordering::Relaxed),
            draws: self.draws.load(Ordering::Relaxed),
            clears: self.clears.load(Ordering::Relaxed),
            blits: self.blits.load(Ordering::Relaxed),
            vertices: self.vertices.load(Ordering::Relaxed),
            fragments: self.fragments.load(Ordering::Relaxed),
            upload_bytes: self.upload_bytes.load(Ordering::Relaxed),
            fences_set: self.fences_set.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            presents: self.presents.load(Ordering::Relaxed),
        }
    }
}

/// The full-screen textured quad every `presentRenderbuffer` draw uses
/// (two triangles, UVs flipped so texture row 0 lands on image row 0).
pub(crate) fn fullscreen_quad() -> [Vertex; 6] {
    [
        Vertex::textured([-1.0, -1.0, 0.0], [0.0, 1.0]),
        Vertex::textured([1.0, -1.0, 0.0], [1.0, 1.0]),
        Vertex::textured([1.0, 1.0, 0.0], [1.0, 0.0]),
        Vertex::textured([-1.0, -1.0, 0.0], [0.0, 1.0]),
        Vertex::textured([1.0, 1.0, 0.0], [1.0, 0.0]),
        Vertex::textured([-1.0, 1.0, 0.0], [0.0, 0.0]),
    ]
}

const QUAD_INDICES: [u32; 6] = [0, 1, 2, 3, 4, 5];

/// The simulated GPU device.
///
/// Commands execute *functionally* immediately (the rasterizer writes
/// pixels synchronously) but *retire* only at a flush — which is what
/// fences observe, mirroring the asynchronous completion model of a real
/// GPU closely enough to exercise `APPLE_fence`/`NV_fence` logic.
///
/// Every command charges calibrated virtual time to the calling thread.
pub struct GpuDevice {
    cost: GpuCostModel,
    reference_raster: AtomicBool,
    next_fence: AtomicU64,
    submitted_seq: AtomicU64,
    retired_seq: AtomicU64,
    fences: SlotTable<Fence>,
    stats: AtomicStats,
}

impl GpuDevice {
    /// Creates a device charging costs from `cost`.
    pub fn new(cost: GpuCostModel) -> Self {
        GpuDevice {
            cost,
            reference_raster: AtomicBool::new(false),
            next_fence: AtomicU64::new(0),
            submitted_seq: AtomicU64::new(0),
            retired_seq: AtomicU64::new(0),
            fences: SlotTable::new(),
            stats: AtomicStats::default(),
        }
    }

    /// Routes every draw and blit through [`raster::reference`] — the
    /// per-pixel executable specification — instead of the span
    /// rasterizer. Costs, stats and pixels must be identical either way;
    /// the differential conformance fuzzer runs one device in each mode
    /// and asserts exactly that.
    pub fn set_reference_raster(&self, on: bool) {
        self.reference_raster.store(on, Ordering::Relaxed);
    }

    /// Whether draws are routed through the reference rasterizer.
    pub fn reference_raster(&self) -> bool {
        self.reference_raster.load(Ordering::Relaxed)
    }

    /// The device's cost model.
    pub fn cost_model(&self) -> &GpuCostModel {
        &self.cost
    }

    fn class_scale(&self, class: DrawClass) -> f64 {
        match class {
            DrawClass::TwoD => self.cost.scale_2d,
            DrawClass::ThreeD => self.cost.scale_3d,
        }
    }

    fn submit(&self) {
        check::schedule_point(
            "gpu.submit",
            std::ptr::from_ref(&self.submitted_seq) as usize,
            Access::Write,
        );
        self.submitted_seq.fetch_add(1, Ordering::AcqRel);
        self.stats.commands.fetch_add(1, Ordering::Relaxed);
        clock::charge_ns(self.cost.command_submit_ns);
    }

    /// Clears `target` to a solid color.
    pub fn clear(&self, target: &Image, color: Rgba, class: DrawClass) {
        self.submit();
        self.stats.clears.fetch_add(1, Ordering::Relaxed);
        target.fill(color);
        self.charge_clear(target, class);
    }

    fn charge_clear(&self, target: &Image, class: DrawClass) {
        clock::charge_ns_f64(
            target.pixel_count() as f64 * self.cost.per_clear_pixel_ns * self.class_scale(class),
        );
    }

    /// Draws a triangle list (optionally indexed) into `target`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices or a wrong-size depth buffer (see
    /// [`raster::draw_indexed`]).
    pub fn draw(
        &self,
        target: &Image,
        depth: Option<&mut [f32]>,
        vertices: &[Vertex],
        indices: Option<&[u32]>,
        pipeline: &Pipeline<'_>,
        class: DrawClass,
    ) -> RasterMetrics {
        self.submit();
        self.stats.draws.fetch_add(1, Ordering::Relaxed);

        let metrics = if self.reference_raster() {
            let owned: Vec<u32>;
            let idx: &[u32] = match indices {
                Some(idx) => idx,
                None => {
                    owned = (0..vertices.len() as u32).collect();
                    &owned
                }
            };
            raster::reference::draw_indexed(target, depth, vertices, idx, pipeline)
        } else {
            match indices {
                Some(idx) => raster::draw_indexed(target, depth, vertices, idx, pipeline),
                None => raster::draw_triangles(target, depth, vertices, pipeline),
            }
        };

        self.charge_draw(metrics, class);
        metrics
    }

    fn charge_draw(&self, metrics: RasterMetrics, class: DrawClass) {
        let scale = self.class_scale(class);
        clock::charge_ns_f64(
            (metrics.vertices as f64 * self.cost.per_vertex_ns
                + metrics.fragments as f64 * self.cost.per_fragment_ns)
                * scale,
        );
        self.stats.vertices.fetch_add(metrics.vertices, Ordering::Relaxed);
        self.stats.fragments.fetch_add(metrics.fragments, Ordering::Relaxed);
    }

    /// Whether a full-screen textured-quad draw of `src` into `target`
    /// can take the identity lane: at equal sizes with 4-byte formats the
    /// quad's pixel output is byte-identical to an unscaled blit (nearest
    /// sampling at pixel centers maps row/column exactly; asserted by a
    /// sweep test), so the byte work can be a row copy while the metrics
    /// come from the exact count-only [`raster::coverage_metrics`].
    fn fullscreen_identity_eligible(&self, target: &Image, src: &Image) -> bool {
        !self.reference_raster()
            && !src.aliases(target)
            && src.width() == target.width()
            && src.height() == target.height()
            && matches!(src.format(), PixelFormat::Rgba8888 | PixelFormat::Bgra8888)
            && matches!(target.format(), PixelFormat::Rgba8888 | PixelFormat::Bgra8888)
    }

    /// Draws `src` as a full-screen textured quad into `target` — the
    /// `aegl_bridge_draw_fbo_tex` present shape. Semantically identical
    /// to a six-vertex [`GpuDevice::draw`] (same pixels, metrics, stats
    /// and virtual time), but the common equal-size case takes the
    /// identity lane described on `fullscreen_identity_eligible`.
    pub fn fullscreen_image(&self, target: &Image, src: &Image, class: DrawClass) -> RasterMetrics {
        let quad = fullscreen_quad();
        let pipeline = Pipeline {
            texture: Some(src),
            ..Pipeline::default()
        };
        if !self.fullscreen_identity_eligible(target, src) {
            return self.draw(target, None, &quad, None, &pipeline, class);
        }
        self.submit();
        self.stats.draws.fetch_add(1, Ordering::Relaxed);
        let metrics = raster::coverage_metrics(target, &quad, &QUAD_INDICES, &pipeline);
        Self::probe_target_contention(target);
        raster::blit(src, Rect::of_image(src), target, Rect::of_image(target));
        self.charge_draw(metrics, class);
        metrics
    }

    /// Destination pixels a blit of these rectangles writes — the unit
    /// copy costs are charged in, computable without performing the copy.
    /// Pixels a blit between these rectangles is charged for (the rule
    /// [`GpuDevice::blit`] applies): zero if either rectangle is empty,
    /// else the destination area. Exposed so deferred presenters can
    /// charge exactly what the synchronous path would.
    pub fn blit_pixels(src_rect: Rect, dst_rect: Rect) -> u64 {
        if src_rect.w == 0 || src_rect.h == 0 || dst_rect.w == 0 || dst_rect.h == 0 {
            0
        } else {
            u64::from(dst_rect.w) * u64::from(dst_rect.h)
        }
    }

    /// Copies (and scales/converts) a rectangle between images.
    ///
    /// # Panics
    ///
    /// Panics if either rectangle is out of bounds.
    pub fn blit(&self, src: &Image, src_rect: Rect, dst: &Image, dst_rect: Rect, class: DrawClass) {
        self.charge_blit_pixels(Self::blit_pixels(src_rect, dst_rect), class);
        Self::probe_target_contention(dst);
        if self.reference_raster() {
            raster::reference::blit(src, src_rect, dst, dst_rect);
        } else {
            raster::blit(src, src_rect, dst, dst_rect);
        }
    }

    /// The accounting half of a blit: submits the command, counts it and
    /// charges `pixels` of copy cost on the calling thread. The flinger
    /// charges every layer of a frame this way before it takes its
    /// compositor lock, so the charge never depends on lock order.
    pub fn charge_blit_pixels(&self, pixels: u64, class: DrawClass) {
        self.submit();
        self.stats.blits.fetch_add(1, Ordering::Relaxed);
        clock::charge_ns_f64(
            pixels as f64 * 4.0 * self.cost.per_copy_byte_ns * self.class_scale(class),
        );
    }

    /// Trace-plane probe: about to take a command target's byte guard,
    /// observe whether another thread holds it right now and count it as
    /// a `device-lock-waits`. One uncontended `try_write` when free; a
    /// counter bump when not.
    fn probe_target_contention(target: &Image) {
        if target.buffer().try_write_guard().is_none() {
            trace::bump(trace::Counter::DeviceLockWaits);
        }
    }

    /// Charges for uploading `bytes` of texel data from CPU memory (the
    /// caller performs the actual pixel writes through [`Image`]).
    pub fn charge_upload(&self, bytes: u64) {
        self.submit();
        self.stats.upload_bytes.fetch_add(bytes, Ordering::Relaxed);
        clock::charge_ns_f64(bytes as f64 * self.cost.per_upload_byte_ns);
    }

    /// Charges for reading `bytes` back from GPU memory (`glReadPixels`).
    pub fn charge_readback(&self, bytes: u64) {
        self.submit();
        clock::charge_ns_f64(bytes as f64 * self.cost.per_copy_byte_ns);
    }

    /// Charges the fixed cost of compiling and linking a shader program.
    pub fn charge_link_program(&self) {
        self.submit();
        clock::charge_ns(self.cost.link_program_ns);
    }

    /// Charges the fixed cost of the display controller latching a frame.
    pub fn charge_present(&self) {
        self.stats.presents.fetch_add(1, Ordering::Relaxed);
        clock::charge_ns(self.cost.present_fixed_ns);
    }

    /// Fixed present cost (exposed for schedulers that batch frames).
    pub fn present_cost_ns(&self) -> Nanos {
        self.cost.present_fixed_ns
    }

    // ------------------------------------------------------------------
    // Fences
    // ------------------------------------------------------------------

    /// Generates a new (unset) fence object.
    pub fn gen_fence(&self) -> FenceId {
        let id = FenceId(self.next_fence.fetch_add(1, Ordering::Relaxed) + 1);
        check::schedule_point("gpu.fence", id.0 as usize, Access::Write);
        self.fences.set(
            id.0,
            Some(Fence {
                id,
                condition: FenceCondition::default(),
                set_at_seq: 0,
                set: false,
            }),
        );
        id
    }

    /// Returns `true` if `id` names a live fence.
    pub fn is_fence(&self, id: FenceId) -> bool {
        check::schedule_point("gpu.fence", id.0 as usize, Access::Read);
        self.fences.get(id.0).is_some()
    }

    /// Sets a fence into the command stream with the given condition.
    ///
    /// Returns `false` if the fence does not exist. Concurrent set/delete
    /// of the *same* fence from two threads is a data race in GL and gets
    /// no stronger guarantee here (the set may resurrect the fence);
    /// operations on distinct fences never interfere.
    pub fn set_fence(&self, id: FenceId, condition: FenceCondition) -> bool {
        check::schedule_point("gpu.fence", id.0 as usize, Access::Write);
        let seq = self.submitted_seq.load(Ordering::Acquire);
        let Some(mut f) = self.fences.get(id.0) else {
            return false;
        };
        f.condition = condition;
        f.set_at_seq = seq;
        f.set = true;
        self.fences.set(id.0, Some(f));
        self.stats.fences_set.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Polls a fence. An unset fence tests as signaled (NV_fence rule).
    ///
    /// Returns `None` if the fence does not exist.
    pub fn test_fence(&self, id: FenceId) -> Option<bool> {
        check::schedule_point("gpu.fence", id.0 as usize, Access::Read);
        let f = self.fences.get(id.0)?;
        Some(!f.set || self.retired_seq.load(Ordering::Acquire) >= f.set_at_seq)
    }

    /// Blocks until a fence signals: flushes the pipeline and retires all
    /// submitted work.
    ///
    /// Returns `false` if the fence does not exist.
    pub fn finish_fence(&self, id: FenceId) -> bool {
        if !self.is_fence(id) {
            return false;
        }
        self.flush();
        true
    }

    /// Deletes a fence. Unknown IDs are ignored (GL delete semantics).
    pub fn delete_fence(&self, id: FenceId) {
        check::schedule_point("gpu.fence", id.0 as usize, Access::Write);
        self.fences.set(id.0, None);
    }

    /// Flushes the pipeline: all submitted work retires, signaling fences.
    pub fn flush(&self) {
        check::schedule_point(
            "gpu.retire",
            std::ptr::from_ref(&self.retired_seq) as usize,
            Access::Write,
        );
        let submitted = self.submitted_seq.load(Ordering::Acquire);
        // fetch_max: a concurrent flush that observed a later submit must
        // not be rolled back by this one.
        self.retired_seq.fetch_max(submitted, Ordering::AcqRel);
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        // Flush drains the command queue; cost scales with nothing we track
        // per-command, so charge a fixed submit cost.
        clock::charge_ns(self.cost.command_submit_ns);
    }

    /// Snapshot of execution counters. Each counter is exact; the
    /// snapshot as a whole is not transactional across concurrent
    /// commands (counters are independent relaxed atomics).
    pub fn stats(&self) -> GpuStats {
        self.stats.snapshot()
    }
}

impl fmt::Debug for GpuDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GpuDevice")
            .field("submitted", &self.submitted_seq.load(Ordering::Relaxed))
            .field("retired", &self.retired_seq.load(Ordering::Relaxed))
            .field("fences", &self.fences.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::PixelFormat;

    fn device() -> GpuDevice {
        GpuDevice::new(GpuCostModel::tegra3())
    }

    #[test]
    fn clear_charges_per_pixel() {
        let gpu = device();
        let img = Image::new(100, 100, PixelFormat::Rgba8888);
        let before = clock::now_ns();
        gpu.clear(&img, Rgba::WHITE, DrawClass::ThreeD);
        let cost = clock::now_ns() - before;
        // 10_000 pixels * 0.9 ns + 900 submit = 9_900.
        assert_eq!(cost, 9_900);
        assert_eq!(img.pixel_rgba(50, 50).to_bytes(), [255, 255, 255, 255]);
        assert_eq!(gpu.stats().clears, 1);
    }

    #[test]
    fn class_scale_affects_cost() {
        let mut cost = GpuCostModel::tegra3();
        cost.scale_2d = 2.0;
        cost.command_submit_ns = 0;
        let gpu = GpuDevice::new(cost);
        let img = Image::new(10, 10, PixelFormat::Rgba8888);
        let before = clock::now_ns();
        gpu.clear(&img, Rgba::BLACK, DrawClass::TwoD);
        let two_d = clock::now_ns() - before;
        let before = clock::now_ns();
        gpu.clear(&img, Rgba::BLACK, DrawClass::ThreeD);
        let three_d = clock::now_ns() - before;
        assert_eq!(two_d, 2 * three_d);
    }

    #[test]
    fn draw_reports_and_charges_work() {
        let gpu = device();
        let img = Image::new(8, 8, PixelFormat::Rgba8888);
        let verts = vec![
            Vertex::colored([-1.0, -1.0, 0.0], Rgba::RED),
            Vertex::colored([3.0, -1.0, 0.0], Rgba::RED),
            Vertex::colored([-1.0, 3.0, 0.0], Rgba::RED),
        ];
        let before = clock::now_ns();
        let m = gpu.draw(&img, None, &verts, None, &Pipeline::default(), DrawClass::ThreeD);
        assert_eq!(m.vertices, 3);
        assert_eq!(m.fragments, 64);
        assert!(clock::now_ns() > before);
        let stats = gpu.stats();
        assert_eq!(stats.draws, 1);
        assert_eq!(stats.vertices, 3);
        assert_eq!(stats.fragments, 64);
    }

    #[test]
    fn fence_lifecycle() {
        let gpu = device();
        let f = gpu.gen_fence();
        assert!(gpu.is_fence(f));
        // Unset fences test as signaled.
        assert_eq!(gpu.test_fence(f), Some(true));

        let img = Image::new(4, 4, PixelFormat::Rgba8888);
        gpu.clear(&img, Rgba::BLACK, DrawClass::ThreeD);
        assert!(gpu.set_fence(f, FenceCondition::AllCompleted));
        // Work not yet retired.
        assert_eq!(gpu.test_fence(f), Some(false));
        gpu.flush();
        assert_eq!(gpu.test_fence(f), Some(true));

        gpu.delete_fence(f);
        assert!(!gpu.is_fence(f));
        assert_eq!(gpu.test_fence(f), None);
        assert!(!gpu.set_fence(f, FenceCondition::AllCompleted));
        assert!(!gpu.finish_fence(f));
    }

    #[test]
    fn finish_fence_flushes() {
        let gpu = device();
        let f = gpu.gen_fence();
        let img = Image::new(4, 4, PixelFormat::Rgba8888);
        gpu.clear(&img, Rgba::BLACK, DrawClass::ThreeD);
        gpu.set_fence(f, FenceCondition::AllCompleted);
        assert!(gpu.finish_fence(f));
        assert_eq!(gpu.test_fence(f), Some(true));
    }

    #[test]
    fn upload_and_link_charges() {
        let gpu = device();
        let before = clock::now_ns();
        gpu.charge_upload(1000);
        // 1000 * 0.12 = 120 + 900 submit
        assert_eq!(clock::now_ns() - before, 1020);
        let before = clock::now_ns();
        gpu.charge_link_program();
        assert_eq!(
            clock::now_ns() - before,
            900 + GpuCostModel::tegra3().link_program_ns
        );
        assert_eq!(gpu.stats().upload_bytes, 1000);
    }

    #[test]
    fn present_counts_frames() {
        let gpu = device();
        gpu.charge_present();
        gpu.charge_present();
        assert_eq!(gpu.stats().presents, 2);
    }

    #[test]
    fn blit_converts_between_images() {
        let gpu = device();
        let src = Image::new(2, 2, PixelFormat::Rgba8888);
        src.fill(Rgba::GREEN);
        let dst = Image::new(8, 8, PixelFormat::Bgra8888);
        gpu.blit(&src, Rect::of_image(&src), &dst, Rect::of_image(&dst), DrawClass::TwoD);
        assert_eq!(dst.pixel_rgba(7, 7).to_bytes(), [0, 255, 0, 255]);
        assert_eq!(gpu.stats().blits, 1);
    }

    #[test]
    fn blit_into_a_held_target_counts_a_device_lock_wait() {
        let gpu = device();
        let src = Image::new(4, 4, PixelFormat::Rgba8888);
        src.fill(Rgba::GREEN);
        let dst = Image::new(4, 4, PixelFormat::Rgba8888);
        let guard = dst.buffer().write_guard();
        let before = trace::counter(trace::Counter::DeviceLockWaits);
        std::thread::scope(|s| {
            let blit = s.spawn(|| {
                gpu.blit(&src, Rect::of_image(&src), &dst, Rect::of_image(&dst), DrawClass::TwoD);
            });
            // The blit probes before it blocks on the guard, so the bump
            // is observable while this thread still holds it.
            while trace::counter(trace::Counter::DeviceLockWaits) == before {
                std::thread::yield_now();
            }
            drop(guard);
            blit.join().expect("blit thread");
        });
        assert_eq!(dst.pixel_rgba(3, 3).to_bytes(), [0, 255, 0, 255]);
    }

    /// Deterministic speckle so every pixel of a test image differs.
    fn speckle(img: &Image, salt: u64) {
        let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ salt;
        for y in 0..img.height() {
            for x in 0..img.width() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let b = state.to_le_bytes();
                img.set_pixel(x, y, Rgba::from_bytes([b[0], b[1], b[2], b[3]]));
            }
        }
    }

    #[test]
    fn fullscreen_image_identical_to_textured_quad_draw() {
        // The identity lane must match an explicit quad draw in pixels,
        // metrics, stats and virtual time — across sizes (including ones
        // with diagonal double coverage), 4-byte format pairs, and the
        // ineligible fallback shapes (size mismatch, non-4-byte format).
        let sizes = [(1u32, 1u32), (8, 8), (48, 48), (64, 48), (97, 61), (160, 120)];
        let formats = [
            (PixelFormat::Rgba8888, PixelFormat::Rgba8888),
            (PixelFormat::Bgra8888, PixelFormat::Rgba8888),
            (PixelFormat::Rgba8888, PixelFormat::Bgra8888),
            (PixelFormat::Bgra8888, PixelFormat::Bgra8888),
        ];
        for &(w, h) in &sizes {
            for &(sf, df) in &formats {
                let src = Image::new(w, h, sf);
                speckle(&src, u64::from(w) << 32 | u64::from(h));

                let fast_gpu = device();
                let fast_dst = Image::new(w, h, df);
                let before = clock::now_ns();
                let mf = fast_gpu.fullscreen_image(&fast_dst, &src, DrawClass::TwoD);
                let fast_ns = clock::now_ns() - before;

                let slow_gpu = device();
                let slow_dst = Image::new(w, h, df);
                let quad = fullscreen_quad();
                let pipeline = Pipeline { texture: Some(&src), ..Pipeline::default() };
                let before = clock::now_ns();
                let ms =
                    slow_gpu.draw(&slow_dst, None, &quad, None, &pipeline, DrawClass::TwoD);
                let slow_ns = clock::now_ns() - before;

                assert_eq!(mf, ms, "metrics diverged {w}x{h} {sf:?}->{df:?}");
                assert_eq!(
                    fast_dst.to_rgba_vec(),
                    slow_dst.to_rgba_vec(),
                    "pixels diverged {w}x{h} {sf:?}->{df:?}"
                );
                assert_eq!(fast_gpu.stats(), slow_gpu.stats());
                assert_eq!(
                    fast_ns, slow_ns,
                    "virtual time diverged {w}x{h} {sf:?}->{df:?}"
                );
            }
        }
        // Ineligible: scaled (falls back to the real draw, still correct).
        let src = Image::new(32, 32, PixelFormat::Rgba8888);
        speckle(&src, 7);
        let gpu = device();
        let dst = Image::new(48, 40, PixelFormat::Rgba8888);
        let m = gpu.fullscreen_image(&dst, &src, DrawClass::TwoD);
        let gpu2 = device();
        let dst2 = Image::new(48, 40, PixelFormat::Rgba8888);
        let quad = fullscreen_quad();
        let pipeline = Pipeline { texture: Some(&src), ..Pipeline::default() };
        let m2 = gpu2.draw(&dst2, None, &quad, None, &pipeline, DrawClass::TwoD);
        assert_eq!(m, m2);
        assert_eq!(dst.to_rgba_vec(), dst2.to_rgba_vec());
    }

    #[test]
    fn fullscreen_image_matches_reference_raster_mode() {
        // Reference mode is ineligible for the identity lane; it must
        // still agree with span mode byte-for-byte and cost-for-cost.
        let src = Image::new(64, 48, PixelFormat::Bgra8888);
        speckle(&src, 99);
        let span_gpu = device();
        let span_dst = Image::new(64, 48, PixelFormat::Rgba8888);
        let before = clock::now_ns();
        let ms = span_gpu.fullscreen_image(&span_dst, &src, DrawClass::TwoD);
        let span_ns = clock::now_ns() - before;
        let ref_gpu = device();
        ref_gpu.set_reference_raster(true);
        let ref_dst = Image::new(64, 48, PixelFormat::Rgba8888);
        let before = clock::now_ns();
        let mr = ref_gpu.fullscreen_image(&ref_dst, &src, DrawClass::TwoD);
        let ref_ns = clock::now_ns() - before;
        assert_eq!(ms, mr);
        assert_eq!(span_dst.to_rgba_vec(), ref_dst.to_rgba_vec());
        assert_eq!(span_ns, ref_ns);
        assert_eq!(span_gpu.stats(), ref_gpu.stats());
    }

    #[test]
    fn concurrent_fence_churn_is_race_free() {
        use std::sync::Arc;
        let gpu = Arc::new(device());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let gpu = Arc::clone(&gpu);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let f = gpu.gen_fence();
                        assert!(gpu.is_fence(f));
                        assert!(gpu.set_fence(f, FenceCondition::AllCompleted));
                        gpu.flush();
                        assert_eq!(gpu.test_fence(f), Some(true));
                        gpu.delete_fence(f);
                        assert!(!gpu.is_fence(f));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = gpu.stats();
        assert_eq!(stats.fences_set, 8 * 200);
        assert_eq!(stats.flushes, 8 * 200);
    }
}
