//! SurfaceFlinger: the Android compositor.
//!
//! Surfaces rendered by apps are "composited together by the Surface
//! Flinger which uses the HW Composer API and Linux kernel framebuffer
//! driver" (§2). Our compositor posts client buffers (or raw images) onto
//! the display scanout through the GPU's copy engine, charging realistic
//! composition costs — this is where `eglSwapBuffers`' expense comes from.
//!
//! Composition rides the raster fast plane (DESIGN.md §5b): an unscaled
//! same-format layer is one `copy_from_slice` per row under a single lock
//! pair, which is what a full-screen post onto the RGBA scanout hits.
//!
//! # Composition (DESIGN.md §5g)
//!
//! Each presenter composes its own frame under one compositor lock;
//! nothing is queued or deferred to another thread. Under the lock it
//! writes every blit of the frame, in order, clipped to the panel —
//! the paper's whole-buffer copy. All charging happens before the lock,
//! so a session's virtual time never depends on lock order.

use std::fmt;
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use cycada_gpu::raster::{self, Rect};
use cycada_gpu::{DrawClass, GpuDevice, Image};
use cycada_kernel::Display;
use cycada_sim::check::{self, Access};
use cycada_sim::slots::SlotTable;
use cycada_sim::trace;

use crate::buffer::GraphicBuffer;

/// The compositor for one display.
///
/// When several app sessions share a device, each window surface's buffers
/// can be assigned a **layer rectangle** ([`SurfaceFlinger::assign_layer`]);
/// posts of those buffers then compose into their rectangle instead of
/// covering the panel, so concurrent apps produce a deterministic scanout
/// (each owns disjoint pixels). Buffers with no assigned layer keep the
/// historical full-screen behaviour, byte-identical to a solo app.
///
/// Layer and composite rectangles may extend past the panel edge: the
/// logical rectangle keeps its role in the scaling arithmetic and the
/// writes are clipped to the panel (crop semantics), so nothing ever
/// touches memory outside the scanout.
pub struct SurfaceFlinger {
    display: Display,
    gpu: Arc<GpuDevice>,
    /// Per-handle layer assignments, sharded so presenters of different
    /// buffers never contend on a table-wide lock (DESIGN.md §5f).
    layers: SlotTable<Rect>,
    /// The one lock every present composes under: each presenter
    /// applies its own frame while holding it, so frames reach the
    /// scanout one at a time, in lock-acquisition order. Taken only
    /// through `lock_compositor`.
    compositor: Mutex<()>,
}

impl SurfaceFlinger {
    /// Creates a compositor for `display`, using `gpu` for composition.
    pub fn new(display: Display, gpu: Arc<GpuDevice>) -> Self {
        SurfaceFlinger {
            display,
            gpu,
            layers: SlotTable::new(),
            compositor: Mutex::new(()),
        }
    }

    /// The display being composed to.
    pub fn display(&self) -> &Display {
        &self.display
    }

    /// The GPU device composition is charged against.
    pub fn gpu(&self) -> &Arc<GpuDevice> {
        &self.gpu
    }

    /// The panel rectangle.
    fn panel(&self) -> Rect {
        Rect { x: 0, y: 0, w: self.display.width(), h: self.display.height() }
    }

    /// The scanout wrapped as an image (aliases the display's memory).
    fn scanout_image(&self) -> Image {
        Image::from_buffer(
            self.display.width(),
            self.display.height(),
            cycada_gpu::PixelFormat::Rgba8888,
            self.display.width() as usize * 4,
            self.display.scanout().clone(),
        )
    }

    /// Posts a full-screen image to the display (the swap-buffers path):
    /// scales/converts the image onto the scanout and latches the frame.
    pub fn post_image(&self, image: &Image) {
        let _tspan = trace::span(trace::Category::Gralloc, "flinger_post_image");
        trace::bump(trace::Counter::Compositions);
        let dst = self.panel();
        self.present(vec![(image.clone(), Rect::of_image(image), dst)]);
    }

    /// Assigns a destination rectangle to a buffer handle: subsequent
    /// posts of that buffer compose into the rectangle rather than
    /// covering the panel.
    ///
    /// The rectangle may extend past the panel edge; it is kept as the
    /// layer's logical geometry (so a post scales the buffer across the
    /// whole rectangle) and every present clips each write to the
    /// panel — crop semantics, nothing out of bounds is ever touched.
    pub fn assign_layer(&self, handle: u64, rect: Rect) {
        check::schedule_point("flinger.layer", handle as usize, Access::Write);
        self.layers.set(handle, Some(rect));
    }

    /// Removes a buffer handle's layer assignment (posts become
    /// full-screen again).
    pub fn clear_layer(&self, handle: u64) {
        check::schedule_point("flinger.layer", handle as usize, Access::Write);
        self.layers.set(handle, None);
    }

    /// The layer rectangle assigned to a buffer handle, if any.
    pub fn layer_rect(&self, handle: u64) -> Option<Rect> {
        check::schedule_point("flinger.layer", handle as usize, Access::Read);
        self.layers.get(handle)
    }

    /// Posts a client GraphicBuffer (the HW Composer layer path). If the
    /// buffer has an assigned layer rectangle, it composes there;
    /// otherwise it covers the panel.
    pub fn post_buffer(&self, buffer: &GraphicBuffer) {
        match self.layer_rect(buffer.handle()) {
            Some(rect) => self.composite(&[(buffer.image(), rect)]),
            None => self.post_image(buffer.image()),
        }
    }

    /// Composites several layers back-to-front, then latches one frame.
    /// Each layer is placed at its destination rectangle (clipped to the
    /// panel at composition time).
    pub fn composite(&self, layers: &[(&Image, Rect)]) {
        let mut tspan = trace::span(trace::Category::Gralloc, "flinger_composite");
        tspan.set_arg(layers.len() as u64);
        trace::bump(trace::Counter::Compositions);
        let blits = layers
            .iter()
            .map(|(image, dst)| ((*image).clone(), Rect::of_image(image), *dst))
            .collect();
        self.present(blits);
    }

    /// Composes one frame onto the scanout on the calling thread.
    ///
    /// All accounting — per-layer copy cost, the fixed present cost, the
    /// frame counter — is charged before the compositor lock is taken,
    /// so a session's virtual-time ledger never depends on lock order.
    /// The presenter then writes its own frame under the lock: every
    /// blit in order, each clipped to the panel. A destination rect may
    /// hang past the panel; it stays the *logical* destination, so the
    /// scaling arithmetic is unchanged by clipping.
    fn present(&self, blits: Vec<(Image, Rect, Rect)>) {
        for (_, src_rect, dst_rect) in &blits {
            self.gpu
                .charge_blit_pixels(GpuDevice::blit_pixels(*src_rect, *dst_rect), DrawClass::TwoD);
        }
        self.gpu.charge_present();
        self.display.frame_presented();

        let panel = self.panel();
        let scanout = self.scanout_image();
        let _compositor = self.lock_compositor();
        for (src, src_rect, dst_rect) in &blits {
            raster::blit_clipped(src, *src_rect, &scanout, *dst_rect, panel);
        }
    }

    /// Takes the compositor lock: `try_lock` first, and on contention
    /// one `flinger-lock-waits` bump and a blocking `lock`.
    fn lock_compositor(&self) -> MutexGuard<'_, ()> {
        self.compositor.try_lock().unwrap_or_else(|| {
            trace::bump(trace::Counter::FlingerLockWaits);
            self.compositor.lock()
        })
    }
}

impl fmt::Debug for SurfaceFlinger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SurfaceFlinger")
            .field("display", &self.display)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycada_gpu::{PixelFormat, Rgba};
    use cycada_sim::GpuCostModel;

    fn flinger() -> SurfaceFlinger {
        let gpu = Arc::new(GpuDevice::new(GpuCostModel::tegra3()));
        SurfaceFlinger::new(Display::new(8, 8), gpu)
    }

    #[test]
    fn post_image_reaches_scanout() {
        let sf = flinger();
        let frame = Image::new(8, 8, PixelFormat::Rgba8888);
        frame.fill(Rgba::GREEN);
        sf.post_image(&frame);
        assert_eq!(sf.display().pixel(4, 4), [0, 255, 0, 255]);
        assert_eq!(sf.display().frames_presented(), 1);
    }

    #[test]
    fn post_scales_smaller_frames() {
        let sf = flinger();
        let frame = Image::new(2, 2, PixelFormat::Bgra8888);
        frame.fill(Rgba::RED);
        sf.post_image(&frame);
        assert_eq!(sf.display().pixel(7, 7), [255, 0, 0, 255]);
    }

    #[test]
    fn post_buffer_uses_buffer_pixels() {
        let sf = flinger();
        let buf = GraphicBuffer::new(1, 8, 8, PixelFormat::Rgba8888).unwrap();
        buf.image().fill(Rgba::BLUE);
        sf.post_buffer(&buf);
        assert_eq!(sf.display().pixel(0, 0), [0, 0, 255, 255]);
    }

    #[test]
    fn post_buffer_with_layer_composes_into_rect() {
        let sf = flinger();
        let whole = Image::new(8, 8, PixelFormat::Rgba8888);
        whole.fill(Rgba::WHITE);
        sf.post_image(&whole);
        let buf = GraphicBuffer::new(7, 4, 4, PixelFormat::Rgba8888).unwrap();
        buf.image().fill(Rgba::RED);
        sf.assign_layer(buf.handle(), Rect { x: 4, y: 0, w: 4, h: 4 });
        sf.post_buffer(&buf);
        assert_eq!(sf.display().pixel(5, 1), [255, 0, 0, 255], "inside layer");
        assert_eq!(sf.display().pixel(1, 1), [255, 255, 255, 255], "outside untouched");
        assert_eq!(sf.display().frames_presented(), 2);
        sf.clear_layer(buf.handle());
        assert_eq!(sf.layer_rect(buf.handle()), None);
        sf.post_buffer(&buf);
        assert_eq!(sf.display().pixel(1, 7), [255, 0, 0, 255], "full-screen again");
    }

    #[test]
    fn composite_places_layers() {
        let sf = flinger();
        let bg = Image::new(8, 8, PixelFormat::Rgba8888);
        bg.fill(Rgba::WHITE);
        let badge = Image::new(2, 2, PixelFormat::Rgba8888);
        badge.fill(Rgba::RED);
        sf.composite(&[
            (&bg, Rect { x: 0, y: 0, w: 8, h: 8 }),
            (&badge, Rect { x: 6, y: 6, w: 2, h: 2 }),
        ]);
        assert_eq!(sf.display().pixel(0, 0), [255, 255, 255, 255]);
        assert_eq!(sf.display().pixel(7, 7), [255, 0, 0, 255]);
        assert_eq!(sf.display().frames_presented(), 1);
    }

    #[test]
    fn layer_rect_past_panel_edge_is_cropped() {
        // Regression: a layer hanging past the scanout edge used to
        // panic inside the raster blit's bounds assert; it must now
        // crop — pixels inside the panel composed with unchanged
        // scaling arithmetic, nothing else touched.
        let sf = flinger();
        let bg = Image::new(8, 8, PixelFormat::Rgba8888);
        bg.fill(Rgba::WHITE);
        sf.post_image(&bg);
        let buf = GraphicBuffer::new(9, 4, 4, PixelFormat::Rgba8888).unwrap();
        buf.image().fill(Rgba::BLUE);
        // 8-wide rect starting at x=6 on an 8-wide panel: 6 columns hang off.
        sf.assign_layer(buf.handle(), Rect { x: 6, y: 2, w: 8, h: 8 });
        sf.post_buffer(&buf);
        assert_eq!(sf.display().pixel(6, 3), [0, 0, 255, 255], "cropped layer shows");
        assert_eq!(sf.display().pixel(5, 3), [255, 255, 255, 255], "left of layer untouched");
        assert_eq!(sf.display().pixel(6, 1), [255, 255, 255, 255], "above layer untouched");
        assert_eq!(sf.display().frames_presented(), 2);

        // Fully off-panel layers are inert, not a panic.
        sf.assign_layer(buf.handle(), Rect { x: 20, y: 20, w: 4, h: 4 });
        sf.post_buffer(&buf);
        assert_eq!(sf.display().pixel(6, 3), [0, 0, 255, 255], "scanout unchanged");
    }

    #[test]
    fn concurrent_disjoint_posts_latch_every_frame() {
        // Four presenters own one quadrant each of a 16x16 panel and post
        // concurrently through the compositor lock. Every frame must
        // latch, and each quadrant must end with its owner's color
        // (disjoint rects commute, so any lock order is correct).
        let gpu = Arc::new(GpuDevice::new(GpuCostModel::tegra3()));
        let sf = Arc::new(SurfaceFlinger::new(Display::new(16, 16), gpu));
        let colors = [Rgba::RED, Rgba::GREEN, Rgba::BLUE, Rgba::WHITE];
        const POSTS: usize = 25;
        let handles: Vec<_> = (0..4u64)
            .map(|i| {
                let sf = sf.clone();
                let color = colors[i as usize];
                std::thread::spawn(move || {
                    let buf = GraphicBuffer::new(i + 1, 8, 8, PixelFormat::Rgba8888).unwrap();
                    buf.image().fill(color);
                    let rect = Rect {
                        x: (i as u32 % 2) * 8,
                        y: (i as u32 / 2) * 8,
                        w: 8,
                        h: 8,
                    };
                    sf.assign_layer(buf.handle(), rect);
                    for _ in 0..POSTS {
                        sf.post_buffer(&buf);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sf.display().frames_presented(), 4 * POSTS as u64);
        for (i, color) in colors.iter().enumerate() {
            let (x, y) = ((i as u32 % 2) * 8 + 3, (i as u32 / 2) * 8 + 3);
            assert_eq!(sf.display().pixel(x, y), color.to_bytes(), "quadrant {i}");
        }
    }

    #[test]
    fn next_post_rewrites_its_pixels_after_an_unwind() {
        let sf = flinger();
        let frame = Image::new(8, 8, PixelFormat::Rgba8888);
        frame.fill(Rgba::GREEN);
        sf.post_image(&frame);
        sf.post_image(&frame);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _compositor = sf.lock_compositor();
            sf.display().scanout().fill(0);
            panic!("composition died partway");
        }));
        assert!(unwound.is_err());
        // Same frame, unchanged source: the next post must neither
        // deadlock on the unwound lock nor keep the scribbled bytes.
        sf.post_image(&frame);
        let green = Rgba::GREEN.to_bytes();
        assert!(
            sf.display().scanout().read(|s| s.chunks(4).all(|px| px == green)),
            "pixels left stale by the unwind"
        );
    }

    #[test]
    fn composition_charges_gpu_time() {
        let sf = flinger();
        let frame = Image::new(8, 8, PixelFormat::Rgba8888);
        let before = cycada_sim::clock::now_ns();
        sf.post_image(&frame);
        assert!(cycada_sim::clock::now_ns() > before);
    }
}
