//! Partial-update composition scenes for the compositor plane
//! (DESIGN.md §5g).
//!
//! Real phone UI frames are mostly *redundant*: a clock badge or status
//! bar churns while the rest of the screen is static, split-screen apps
//! update one pane at a time, and fully covered layers keep animating
//! underneath opaque ones. These scenes drive the [`SurfaceFlinger`]
//! tile compositor with exactly those shapes so the `compose` benchmark
//! can measure the tile memo's wall time, and so smoke tests can assert
//! the observability counters move. Virtual time and output bytes equal
//! those of a memo-free compositor — the scenes are also replayed
//! differentially against a fresh flinger per frame in tests.

use std::sync::Arc;

use cycada_gpu::raster::Rect;
use cycada_gpu::{GpuDevice, Image, PixelFormat, Rgba};
use cycada_gralloc::SurfaceFlinger;
use cycada_kernel::Display;
use cycada_sim::{GpuCostModel, VirtualClock};

/// Panel edge used by every scene (large enough that the 32-pixel tile
/// grid is meaningfully populated — a 32×32 tile grid — and that full
/// recomposition's byte work dominates the fixed per-present cost, as
/// it does on a real panel).
pub const PANEL: u32 = 1024;

/// The composition scenes the `compose` benchmark charts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scene {
    /// A small notification badge repainted every frame over a static
    /// full-screen background — the canonical mostly-clean frame.
    BadgeUpdate,
    /// Four quadrant "apps"; each frame exactly one updates a status
    /// strip along its top edge.
    SplitScreen,
    /// A fully repainting background underneath a static opaque
    /// full-screen layer — every tile occluded, nothing to compose.
    OccludedLayer,
}

impl Scene {
    /// All scenes in benchmark order.
    pub const ALL: [Scene; 3] = [Scene::BadgeUpdate, Scene::SplitScreen, Scene::OccludedLayer];

    /// Benchmark id / axis label.
    pub fn label(self) -> &'static str {
        match self {
            Scene::BadgeUpdate => "badge-update",
            Scene::SplitScreen => "split-screen",
            Scene::OccludedLayer => "occluded-layer",
        }
    }
}

/// A runnable scene instance: one flinger plus its layer stack.
#[derive(Debug)]
pub struct SceneRun {
    scene: Scene,
    flinger: SurfaceFlinger,
    layers: Vec<(Image, Rect)>,
    frame: u64,
}

/// What a scene run produced, for differential assertions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SceneReport {
    /// Frames presented.
    pub frames: u64,
    /// Virtual nanoseconds charged to the GPU over the run.
    pub virtual_ns: u64,
    /// Final scanout bytes.
    pub scanout: Vec<u8>,
}

impl SceneRun {
    /// Builds the scene's layer stack on a fresh display and flinger.
    pub fn new(scene: Scene) -> Self {
        let gpu = Arc::new(GpuDevice::new(VirtualClock::new(), GpuCostModel::tegra3()));
        let flinger = SurfaceFlinger::new(Display::new(PANEL, PANEL), gpu);
        let full = Rect { x: 0, y: 0, w: PANEL, h: PANEL };
        let layers = match scene {
            Scene::BadgeUpdate => {
                let bg = Image::new(PANEL, PANEL, PixelFormat::Rgba8888);
                checkerboard(&bg);
                let badge = Image::new(32, 32, PixelFormat::Rgba8888);
                badge.fill(Rgba::RED);
                vec![
                    (bg, full),
                    (badge, Rect { x: PANEL - 40, y: 8, w: 32, h: 32 }),
                ]
            }
            Scene::SplitScreen => {
                let half = PANEL / 2;
                (0..4u32)
                    .map(|i| {
                        let pane = Image::new(half, half, PixelFormat::Rgba8888);
                        checkerboard(&pane);
                        let dst = Rect {
                            x: (i % 2) * half,
                            y: (i / 2) * half,
                            w: half,
                            h: half,
                        };
                        (pane, dst)
                    })
                    .collect()
            }
            Scene::OccludedLayer => {
                let below = Image::new(PANEL, PANEL, PixelFormat::Rgba8888);
                below.fill(Rgba::BLUE);
                let above = Image::new(PANEL, PANEL, PixelFormat::Rgba8888);
                checkerboard(&above);
                vec![(below, full), (above, full)]
            }
        };
        SceneRun { scene, flinger, layers, frame: 0 }
    }

    /// The flinger under test (for counter smoke tests).
    pub fn flinger(&self) -> &SurfaceFlinger {
        &self.flinger
    }

    /// Mutates this frame's dirty layer(s) and presents one frame.
    pub fn step(&mut self) {
        self.frame += 1;
        match self.scene {
            Scene::BadgeUpdate => {
                // Repaint the badge interior (precise rect damage).
                self.layers[1].0.fill_rect(
                    Rect { x: 4, y: 4, w: 24, h: 24 },
                    Rgba::from_bytes([(self.frame % 255) as u8, 32, 32, 255]),
                );
            }
            Scene::SplitScreen => {
                // One pane per frame updates its status strip.
                let pane = &self.layers[(self.frame % 4) as usize].0;
                pane.fill_rect(
                    Rect { x: 0, y: 0, w: PANEL / 2, h: 16 },
                    Rgba::from_bytes([16, (self.frame % 255) as u8, 64, 255]),
                );
            }
            Scene::OccludedLayer => {
                // The hidden layer repaints entirely; the compositor
                // should not care.
                self.layers[0]
                    .0
                    .fill(Rgba::from_bytes([0, 0, (self.frame % 255) as u8, 255]));
            }
        }
        let stack: Vec<(&Image, Rect)> =
            self.layers.iter().map(|(img, dst)| (img, *dst)).collect();
        self.flinger.composite(&stack);
    }

    /// Runs `frames` frames (plus one warm-up present that populates
    /// the tile memo) and reports the result.
    pub fn run(&mut self, frames: u64) -> SceneReport {
        let stack: Vec<(&Image, Rect)> =
            self.layers.iter().map(|(img, dst)| (img, *dst)).collect();
        self.flinger.composite(&stack);
        drop(stack);
        let start = self.flinger.gpu().clock().now_ns();
        for _ in 0..frames {
            self.step();
        }
        SceneReport {
            frames,
            virtual_ns: self.flinger.gpu().clock().now_ns() - start,
            scanout: self.flinger.display().scanout().read(|b| b.to_vec()),
        }
    }
}

/// Runs a scene start-to-finish.
pub fn run_scene(scene: Scene, frames: u64) -> SceneReport {
    SceneRun::new(scene).run(frames)
}

/// Deterministic static content that differs tile to tile.
fn checkerboard(image: &Image) {
    let w = image.width();
    let h = image.height();
    for ty in (0..h).step_by(16) {
        for tx in (0..w).step_by(16) {
            let on = ((tx / 16) + (ty / 16)) % 2 == 0;
            let color = if on {
                Rgba::from_bytes([200, 200, 210, 255])
            } else {
                Rgba::from_bytes([40, 44, 52, 255])
            };
            image.fill_rect(Rect { x: tx, y: ty, w: 16, h: 16 }, color);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycada_sim::trace;

    /// [`SceneRun::run`] with a fresh flinger over the same display and
    /// device for every frame: no tile memo outlives its frame.
    fn run_memo_free(scene: Scene, frames: u64) -> SceneReport {
        let mut run = SceneRun::new(scene);
        run.run(0);
        let start = run.flinger.gpu().clock().now_ns();
        for _ in 0..frames {
            let (display, gpu) = (run.flinger.display().clone(), run.flinger.gpu().clone());
            run.flinger = SurfaceFlinger::new(display, gpu);
            run.step();
        }
        SceneReport {
            frames,
            virtual_ns: run.flinger.gpu().clock().now_ns() - start,
            scanout: run.flinger.display().scanout().read(|b| b.to_vec()),
        }
    }

    #[test]
    fn scenes_match_a_memo_free_compositor() {
        for scene in Scene::ALL {
            let memo = run_scene(scene, 6);
            let oracle = run_memo_free(scene, 6);
            assert_eq!(memo.virtual_ns, oracle.virtual_ns, "{}: virtual time", scene.label());
            assert_eq!(memo.scanout, oracle.scanout, "{}: scanout bytes", scene.label());
        }
    }

    #[test]
    fn badge_scene_moves_the_skip_counters() {
        let mut run = SceneRun::new(Scene::BadgeUpdate);
        let clean = trace::counter(trace::Counter::TilesSkippedClean);
        run.run(8);
        let tiles = u64::from((PANEL / 32) * (PANEL / 32));
        // Every frame after warm-up dirties at most 2 tiles (the badge
        // spans a tile boundary); nearly all of the 256 must skip.
        assert!(
            trace::counter(trace::Counter::TilesSkippedClean) >= clean + 8 * (tiles - 4),
            "badge scene should skip almost every tile"
        );
    }

    #[test]
    fn occluded_scene_culls_lower_layer() {
        let mut run = SceneRun::new(Scene::OccludedLayer);
        let occluded = trace::counter(trace::Counter::TilesSkippedOccluded);
        run.run(4);
        let tiles = u64::from((PANEL / 32) * (PANEL / 32));
        assert!(
            trace::counter(trace::Counter::TilesSkippedOccluded) >= occluded + 4 * tiles,
            "static opaque top layer should occlude every tile"
        );
    }
}
