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
//! # The compositor plane (DESIGN.md §5g)
//!
//! Each presenter composes its own frame under one compositor lock, the
//! home of the tile memo; nothing is queued or deferred to another
//! thread. It composes **tiles**: a [`TILE_SIZE`]² grid over the
//! scanout, with a per-tile memo of which blits last composed it and at
//! which source journal versions. A tile is *skipped* when the same
//! blits would compose it again and none of their sources accumulated
//! damage intersecting it (clean), and lower layers are *culled* when a
//! later blit fully covers the tile (occluded — every flinger blit is
//! an opaque overwrite, so coverage alone suffices). A frame falls back
//! to full recomposition when a blit's source aliases the scanout, and
//! an unwind under the lock forgets the memo. Output bytes and metered
//! virtual time equal those of a memo-free compositor (a fresh flinger
//! per frame) by construction: all charging happens before the lock,
//! and the tile path writes exactly the bytes full recomposition would.

use std::fmt;
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use cycada_gpu::raster::{self, Rect};
use cycada_gpu::{DrawClass, GpuDevice, Image};
use cycada_kernel::Display;
use cycada_sim::check::{self, Access};
use cycada_sim::damage::Damage;
use cycada_sim::slots::SlotTable;
use cycada_sim::trace;
use cycada_sim::BufferId;

use crate::buffer::GraphicBuffer;

/// Tile edge length in pixels for damage-tracked composition.
pub const TILE_SIZE: u32 = 32;

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
    /// The tile memo, and the one lock every present composes under:
    /// each presenter applies its own frame while holding it, so frames
    /// reach the scanout one at a time, in lock-acquisition order. Taken
    /// only through `lock_tiles`.
    tiles: Mutex<TileGrid>,
}

/// One blit of a frame. `clip` is `dst_rect ∩ panel`, computed before
/// the compositor lock is taken: the only pixels the blit may write.
/// `dst_rect` itself may hang past the panel — it stays the *logical*
/// destination so the scaling arithmetic is unchanged by clipping.
struct Blit {
    src: Image,
    src_rect: Rect,
    dst_rect: Rect,
    clip: Rect,
}

/// What one tile was last composed from: a blit's identity key plus the
/// source journal version sampled before its bytes were read.
struct TileEntry {
    src: BufferId,
    src_rect: Rect,
    dst_rect: Rect,
    clip: Rect,
    /// Source journal version the tile's bytes are current against.
    /// Not part of the identity key (versions advance, keys must not).
    version: u64,
}

/// A whole frame's blit identity, without versions. When two
/// consecutive frames carry the same key list the per-tile memo walk can
/// be short-circuited: only tiles inside the frame's dirty region need
/// visiting, everything else is provably clean wholesale.
#[derive(PartialEq, Eq)]
struct TileKey {
    src: BufferId,
    src_rect: Rect,
    dst_rect: Rect,
    clip: Rect,
}

/// Whether a blit whose source accumulated `damage` since the memo's
/// stored version provably leaves its contribution to `tile_rect`
/// unchanged. A scaled blit smears source damage across the whole
/// destination, so any intersecting damage dirties it conservatively.
fn tile_clean(blit: &Blit, damage: Damage, tile_rect: Rect) -> bool {
    match damage {
        Damage::None => true,
        Damage::Full => false,
        Damage::Rect(d) => {
            let d = Rect::from(d).intersect(&blit.src_rect);
            if d.is_empty() {
                return true;
            }
            if blit.src_rect.w != blit.dst_rect.w || blit.src_rect.h != blit.dst_rect.h {
                return false;
            }
            let in_dst = Rect {
                x: d.x - blit.src_rect.x + blit.dst_rect.x,
                y: d.y - blit.src_rect.y + blit.dst_rect.y,
                w: d.w,
                h: d.h,
            };
            !in_dst.intersects(&blit.clip.intersect(&tile_rect))
        }
    }
}

/// The per-display tile memo. `None` tiles are unknown (never composed,
/// or invalidated by an untracked write path) and always recompose when
/// touched.
struct TileGrid {
    cols: u32,
    tiles: Vec<Option<Vec<TileEntry>>>,
    /// The previous frame's blit key list. Empty when no grid-level memo
    /// is valid (fresh grid, unwind reset, or untracked writes).
    last_keys: Vec<TileKey>,
    /// Per-blit journal versions the whole grid is current against
    /// when `last_keys` matches. Advanced every frame the fast path
    /// runs, whether or not individual tile entries were revisited.
    last_versions: Vec<u64>,
    /// How many tiles the memoized key list touches / fully occludes —
    /// recorded by the full walk so the fast path can bulk-account
    /// skipped tiles without visiting them.
    touched_tiles: u64,
    occluded_tiles: u64,
}

impl TileGrid {
    fn new(width: u32, height: u32) -> Self {
        let cols = width.div_ceil(TILE_SIZE).max(1);
        let rows = height.div_ceil(TILE_SIZE).max(1);
        TileGrid {
            cols,
            tiles: (0..cols as usize * rows as usize).map(|_| None).collect(),
            last_keys: Vec::new(),
            last_versions: Vec::new(),
            touched_tiles: 0,
            occluded_tiles: 0,
        }
    }

    fn reset(&mut self) {
        self.last_keys.clear();
        for t in &mut self.tiles {
            *t = None;
        }
    }

    /// Marks every tile intersecting `rect` unknown.
    fn invalidate(&mut self, rect: Rect) {
        self.last_keys.clear();
        if rect.is_empty() {
            return;
        }
        let tx0 = rect.x / TILE_SIZE;
        let ty0 = rect.y / TILE_SIZE;
        let tx1 = (rect.x + rect.w - 1) / TILE_SIZE;
        let ty1 = (rect.y + rect.h - 1) / TILE_SIZE;
        for ty in ty0..=ty1 {
            for tx in tx0..=tx1 {
                if let Some(t) = self.tiles.get_mut((ty * self.cols + tx) as usize) {
                    *t = None;
                }
            }
        }
    }
}

/// The held compositor lock. `parking_lot` locks never poison, so a
/// panic unwinding out of a half-done `apply` would hand the next holder
/// a memo whose fast paths skip tiles with stale scanout bytes; dropping
/// the guard during an unwind forgets the whole memo instead.
struct TilesGuard<'a>(MutexGuard<'a, TileGrid>);

impl Drop for TilesGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.reset();
        }
    }
}

impl SurfaceFlinger {
    /// Creates a compositor for `display`, using `gpu` for composition.
    pub fn new(display: Display, gpu: Arc<GpuDevice>) -> Self {
        let grid = TileGrid::new(display.width(), display.height());
        SurfaceFlinger {
            display,
            gpu,
            layers: SlotTable::new(),
            tiles: Mutex::new(grid),
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
    /// whole rectangle) and [`SurfaceFlinger::present`] clips every
    /// write to the panel — crop semantics, nothing out of bounds is
    /// ever touched.
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
    /// so a session's virtual-time ledger never depends on lock order or
    /// on skipped tiles (skipping saves host wall time only). The
    /// presenter then applies its own frame under the lock.
    fn present(&self, blits: Vec<(Image, Rect, Rect)>) {
        for (_, src_rect, dst_rect) in &blits {
            self.gpu
                .charge_blit_pixels(GpuDevice::blit_pixels(*src_rect, *dst_rect), DrawClass::TwoD);
        }
        self.gpu.charge_present();
        self.display.frame_presented();

        let panel = self.panel();
        let blits: Vec<Blit> = blits
            .into_iter()
            .map(|(src, src_rect, dst_rect)| Blit {
                src,
                src_rect,
                dst_rect,
                clip: dst_rect.intersect(&panel),
            })
            .collect();
        self.apply(&mut self.lock_tiles().0, &blits);
    }

    /// Takes the compositor lock: `try_lock` first, and on contention
    /// one `flinger-lock-waits` bump and a blocking `lock`.
    fn lock_tiles(&self) -> TilesGuard<'_> {
        TilesGuard(self.tiles.try_lock().unwrap_or_else(|| {
            trace::bump(trace::Counter::FlingerLockWaits);
            self.tiles.lock()
        }))
    }

    /// Applies one frame onto the scanout: tile-wise with clean and
    /// occlusion skips, or full recomposition when a source aliases the
    /// scanout. Both paths write exactly the same bytes.
    fn apply(&self, grid: &mut TileGrid, blits: &[Blit]) {
        let scanout = self.scanout_image();
        // Blits with an empty source or a fully off-panel destination
        // write nothing on either path; drop them so they can neither
        // occlude nor key tile memos.
        let blits: Vec<&Blit> = blits
            .iter()
            .filter(|b| !b.src_rect.is_empty() && !b.clip.is_empty())
            .collect();
        if blits.is_empty() {
            return;
        }

        if blits
            .iter()
            .any(|b| b.src.buffer().same_allocation(scanout.buffer()))
        {
            // Full recomposition: a source aliasing the scanout changes
            // under its own blits. Touched tiles become unknown: their
            // bytes are fine, but no versioned memo describes them.
            for b in &blits {
                raster::blit_clipped(&b.src, b.src_rect, &scanout, b.dst_rect, b.clip);
            }
            for b in &blits {
                grid.invalidate(b.clip);
            }
            return;
        }

        // Sample every source's journal version before any byte is
        // read: a version sampled early can only under-state the bytes
        // later read, so the memo's later damage queries over-
        // approximate (DESIGN.md §5g).
        let versions: Vec<u64> = blits.iter().map(|b| b.src.buffer().damage().version()).collect();
        let ids: Vec<BufferId> = blits.iter().map(|b| b.src.buffer().id()).collect();
        // Damage queries memoized per (blit, since): on a typical
        // mostly-clean frame every tile asks the same question, so one
        // journal lock per blit answers the whole grid.
        let mut dmg_cache: Vec<Vec<(u64, Damage)>> = vec![Vec::new(); blits.len()];
        let mut damage_for = |i: usize, since: u64| -> Damage {
            let cache = &mut dmg_cache[i];
            if let Some((_, d)) = cache.iter().find(|(s, _)| *s == since) {
                return *d;
            }
            let d = blits[i].src.buffer().damage().damage_since(since);
            if matches!(d, Damage::Full) {
                trace::bump(trace::Counter::DamageFullFallbacks);
            }
            cache.push((since, d));
            d
        };

        // Grid-level fast path: when the key list repeats the previous
        // frame exactly, the only tiles whose bytes can have changed are
        // those under some visible blit's dirty destination region.
        // Everything else is clean wholesale — skipped without even a
        // per-tile memo lookup, with the skip counters bulk-bumped
        // from the recorded touched/occluded tile counts.
        // `reset`/`invalidate` clear `last_keys` alone, so both lengths
        // are checked: a mismatch is a memo miss (full walk), never an
        // out-of-bounds `last_versions[i]` or `copy_from_slice` panic.
        let memo_hit = grid.last_keys.len() == blits.len()
            && grid.last_versions.len() == blits.len()
            && grid.last_keys.iter().zip(blits.iter().enumerate()).all(|(k, (i, b))| {
                k.src == ids[i]
                    && k.src_rect == b.src_rect
                    && k.dst_rect == b.dst_rect
                    && k.clip == b.clip
            });
        let dirty: Option<Vec<Rect>> = if memo_hit {
            let mut dirty = Vec::with_capacity(blits.len());
            for (i, b) in blits.iter().enumerate() {
                // A blit whose clip sits wholly inside a later blit's
                // clip is overwritten everywhere it lands (every
                // flinger blit is opaque), so its damage can never
                // reach the scanout.
                if blits[i + 1..].iter().any(|above| above.clip.contains(&b.clip)) {
                    continue;
                }
                let d = match damage_for(i, grid.last_versions[i]) {
                    Damage::None => Rect::EMPTY,
                    Damage::Full => b.clip,
                    Damage::Rect(d) => {
                        let d = Rect::from(d).intersect(&b.src_rect);
                        if d.is_empty() {
                            Rect::EMPTY
                        } else if b.src_rect.w != b.dst_rect.w || b.src_rect.h != b.dst_rect.h {
                            // Scaled: source damage smears across the
                            // whole destination.
                            b.clip
                        } else {
                            Rect {
                                x: d.x - b.src_rect.x + b.dst_rect.x,
                                y: d.y - b.src_rect.y + b.dst_rect.y,
                                w: d.w,
                                h: d.h,
                            }
                            .intersect(&b.clip)
                        }
                    }
                };
                if !d.is_empty() {
                    dirty.push(d);
                }
            }
            Some(dirty)
        } else {
            None
        };

        let bounds = match &dirty {
            // Visit only the frame's dirty region; a fully clean frame
            // walks zero tiles.
            Some(dirty) => dirty.iter().fold(Rect::EMPTY, |acc, d| acc.union(d)),
            None => blits.iter().fold(Rect::EMPTY, |acc, b| acc.union(&b.clip)),
        };
        let panel = self.panel();
        let mut touching: Vec<usize> = Vec::with_capacity(blits.len());
        let mut visited_touched = 0u64;
        let mut visited_occluded = 0u64;
        let tx0 = bounds.x / TILE_SIZE;
        let ty0 = bounds.y / TILE_SIZE;
        let tx1 = (bounds.x + bounds.w.max(1) - 1) / TILE_SIZE;
        let ty1 = (bounds.y + bounds.h.max(1) - 1) / TILE_SIZE;
        let (ty_range, tx_range) =
            if bounds.is_empty() { (0..0, 0..0) } else { (ty0..ty1 + 1, tx0..tx1 + 1) };
        for ty in ty_range {
            for tx in tx_range.clone() {
                let tile_rect = Rect {
                    x: tx * TILE_SIZE,
                    y: ty * TILE_SIZE,
                    w: TILE_SIZE,
                    h: TILE_SIZE,
                }
                .intersect(&panel);
                if let Some(dirty) = &dirty {
                    if !dirty.iter().any(|d| d.intersects(&tile_rect)) {
                        // Inside the dirty bounding box but not under
                        // any dirty rect: clean wholesale, accounted
                        // for by the bulk bump below.
                        continue;
                    }
                }
                touching.clear();
                touching.extend((0..blits.len()).filter(|&i| blits[i].clip.intersects(&tile_rect)));
                if touching.is_empty() {
                    // Untouched tiles keep their memo: their bytes are
                    // unchanged by this frame.
                    continue;
                }
                visited_touched += 1;
                // Occlusion: the last blit whose clip covers the whole
                // tile makes everything below it invisible here. Every
                // flinger blit is an opaque overwrite, so coverage is
                // the only condition.
                let start = touching
                    .iter()
                    .rposition(|&i| blits[i].clip.contains(&tile_rect))
                    .unwrap_or(0);
                let occluded = start > 0;
                if occluded {
                    visited_occluded += 1;
                    trace::bump(trace::Counter::TilesSkippedOccluded);
                }
                let effective = &touching[start..];

                // Defensive indexing: tile coordinates are derived from
                // panel-clipped rects so `idx` is in range whenever grid
                // and display agree on dimensions; if they ever disagree,
                // an out-of-range tile simply has no memo (recompose) —
                // the old `grid.tiles[idx]` panicked instead.
                let idx = (ty * grid.cols + tx) as usize;
                if let Some(stored) = grid.tiles.get_mut(idx).and_then(Option::as_mut) {
                    let keys_match = stored.len() == effective.len()
                        && stored.iter().zip(effective).all(|(s, &i)| {
                            s.src == ids[i]
                                && s.src_rect == blits[i].src_rect
                                && s.dst_rect == blits[i].dst_rect
                                && s.clip == blits[i].clip
                        });
                    if keys_match
                        && stored.iter().zip(effective).all(|(s, &i)| {
                            tile_clean(blits[i], damage_for(i, s.version), tile_rect)
                        })
                    {
                        trace::bump(trace::Counter::TilesSkippedClean);
                        // Advance stored versions in place: the bytes
                        // are provably those the fresh versions would
                        // compose, and skipping the Vec rebuild keeps
                        // the clean path allocation-free.
                        for (s, &i) in stored.iter_mut().zip(effective) {
                            s.version = versions[i];
                        }
                        continue;
                    }
                }

                for &i in effective {
                    let b = blits[i];
                    raster::blit_clipped(
                        &b.src,
                        b.src_rect,
                        &scanout,
                        b.dst_rect,
                        b.clip.intersect(&tile_rect),
                    );
                }
                if let Some(slot) = grid.tiles.get_mut(idx) {
                    *slot = Some(
                        effective
                            .iter()
                            .map(|&i| TileEntry {
                                src: ids[i],
                                src_rect: blits[i].src_rect,
                                dst_rect: blits[i].dst_rect,
                                clip: blits[i].clip,
                                version: versions[i],
                            })
                            .collect(),
                    );
                }
            }
        }

        if memo_hit {
            // Every touched tile outside the dirty walk skipped clean;
            // occlusion is a function of the (unchanged) key list, so
            // the unvisited occluded tiles are exactly the recorded
            // count minus the ones the walk re-observed.
            trace::add(
                trace::Counter::TilesSkippedClean,
                grid.touched_tiles.saturating_sub(visited_touched),
            );
            trace::add(
                trace::Counter::TilesSkippedOccluded,
                grid.occluded_tiles.saturating_sub(visited_occluded),
            );
            // Sound to advance wholesale: visited tiles were composed
            // (or verified clean) against `versions`, and unvisited
            // tiles saw no visible damage between `last_versions` and
            // `versions`. Per-tile stored versions may lag; they are
            // only consulted on a key change, where lagging is merely
            // conservative.
            grid.last_versions.copy_from_slice(&versions);
        } else {
            grid.last_keys = blits
                .iter()
                .enumerate()
                .map(|(i, b)| TileKey {
                    src: ids[i],
                    src_rect: b.src_rect,
                    dst_rect: b.dst_rect,
                    clip: b.clip,
                })
                .collect();
            grid.last_versions = versions;
            grid.touched_tiles = visited_touched;
            grid.occluded_tiles = visited_occluded;
        }
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
    use cycada_sim::{GpuCostModel, VirtualClock};

    fn flinger() -> SurfaceFlinger {
        let gpu = Arc::new(GpuDevice::new(VirtualClock::new(), GpuCostModel::tegra3()));
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
        let gpu = Arc::new(GpuDevice::new(VirtualClock::new(), GpuCostModel::tegra3()));
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
    fn panic_under_the_compositor_lock_forgets_the_tile_memo() {
        let sf = flinger();
        let frame = Image::new(8, 8, PixelFormat::Rgba8888);
        frame.fill(Rgba::GREEN);
        sf.post_image(&frame);
        sf.post_image(&frame);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _tiles = sf.lock_tiles();
            sf.display().scanout().fill(0);
            panic!("composition died partway");
        }));
        assert!(unwound.is_err());
        // Same frame, same source version: a memo that survived the
        // unwind would skip every tile and keep the scribbled bytes.
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
        let before = sf.gpu.clock().now_ns();
        sf.post_image(&frame);
        assert!(sf.gpu.clock().now_ns() > before);
    }

    #[test]
    fn repeat_posts_skip_clean_tiles() {
        let gpu = Arc::new(GpuDevice::new(VirtualClock::new(), GpuCostModel::tegra3()));
        let sf = SurfaceFlinger::new(Display::new(64, 64), gpu);
        let bg = Image::new(64, 64, PixelFormat::Rgba8888);
        bg.fill(Rgba::WHITE);
        let before = trace::counter(trace::Counter::TilesSkippedClean);
        sf.post_image(&bg);
        sf.post_image(&bg);
        // Second identical post: all four 32x32 tiles provably clean
        // (>= 4 guards against unrelated tests bumping the global
        // counter concurrently).
        assert!(
            trace::counter(trace::Counter::TilesSkippedClean) >= before + 4,
            "repeat post should skip clean tiles"
        );
        assert_eq!(sf.display().pixel(1, 1), [255, 255, 255, 255]);
    }

    #[test]
    fn covering_layer_occludes_lower_tiles() {
        let gpu = Arc::new(GpuDevice::new(VirtualClock::new(), GpuCostModel::tegra3()));
        let sf = SurfaceFlinger::new(Display::new(64, 64), gpu);
        let below = Image::new(64, 64, PixelFormat::Rgba8888);
        below.fill(Rgba::RED);
        let above = Image::new(64, 64, PixelFormat::Rgba8888);
        above.fill(Rgba::GREEN);
        let before = trace::counter(trace::Counter::TilesSkippedOccluded);
        sf.composite(&[
            (&below, Rect { x: 0, y: 0, w: 64, h: 64 }),
            (&above, Rect { x: 0, y: 0, w: 64, h: 64 }),
        ]);
        assert!(
            trace::counter(trace::Counter::TilesSkippedOccluded) >= before + 4,
            "fully covered tiles should cull the lower layer"
        );
        assert_eq!(sf.display().pixel(32, 32), [0, 255, 0, 255], "top layer wins");
    }
}
