//! Differential tests for the damage-tracked tile compositor
//! (DESIGN.md §5g): tile-wise composition with clean/occlusion skips
//! must be byte-identical to a memo-free compositor and charge identical
//! virtual time, under arbitrary layer stacks and damage sequences.

use std::sync::Arc;

use proptest::prelude::*;

use cycada_gpu::raster::Rect;
use cycada_gpu::{GpuDevice, Image, PixelFormat, Rgba};
use cycada_gralloc::SurfaceFlinger;
use cycada_kernel::Display;
use cycada_sim::{trace, GpuCostModel, VirtualClock};

const PANEL: u32 = 96;

/// `bench_scene_counters_smoke` asserts an exact
/// `tiles-skipped-occluded` delta, and trace counters are process-wide,
/// so every test here that composes holds this lock.
static TEST_LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

fn flinger() -> SurfaceFlinger {
    let gpu = Arc::new(GpuDevice::new(VirtualClock::new(), GpuCostModel::tegra3()));
    SurfaceFlinger::new(Display::new(PANEL, PANEL), gpu)
}

/// One scripted layer: geometry plus the damage sequence its backing
/// image receives between frames.
#[derive(Debug, Clone)]
struct LayerScript {
    w: u32,
    h: u32,
    dst: Rect,
    seed: u8,
    /// Per-frame damage: None = untouched, Some(rect) = repaint rect
    /// (empty rect = full-image repaint through the untracked path).
    touches: Vec<Option<Rect>>,
}

fn arb_layer(frames: usize) -> impl Strategy<Value = LayerScript> {
    (
        (1u32..32, 1u32..32),
        (0u32..PANEL + 16, 0u32..PANEL + 16, 1u32..64, 1u32..64),
        any::<u8>(),
        proptest::collection::vec(
            proptest::option::of((0u32..32, 0u32..32, 0u32..16, 0u32..16)),
            frames..=frames,
        ),
    )
        .prop_map(|((w, h), (dx, dy, dw, dh), seed, touches)| LayerScript {
            w,
            h,
            dst: Rect { x: dx, y: dy, w: dw, h: dh },
            seed,
            touches: touches
                .into_iter()
                .map(|t| t.map(|(x, y, w, h)| Rect { x, y, w, h }))
                .collect(),
        })
}

fn paint(image: &Image, seed: u8, frame: usize) {
    for y in 0..image.height() {
        for x in 0..image.width() {
            image.set_pixel(
                x,
                y,
                Rgba::from_bytes([
                    seed.wrapping_add((x * 13) as u8).wrapping_add(frame as u8),
                    (y * 7) as u8 ^ seed,
                    ((x + y) * 3) as u8,
                    255,
                ]),
            );
        }
    }
}

/// Plays a layer script and returns the final scanout bytes plus
/// virtual nanoseconds charged. With `memo_free`, every frame is
/// composed by a fresh flinger over `sf`'s display and device, whose
/// empty tile memo recomposes every touched tile: the oracle.
fn run_script(
    sf: &SurfaceFlinger,
    layers: &[LayerScript],
    frames: usize,
    memo_free: bool,
) -> (Vec<u8>, u64) {
    let images: Vec<Image> = layers
        .iter()
        .map(|l| {
            let img = Image::new(l.w, l.h, PixelFormat::Rgba8888);
            paint(&img, l.seed, 0);
            img
        })
        .collect();
    let start = sf.gpu().clock().now_ns();
    for frame in 0..frames {
        for (layer, image) in layers.iter().zip(&images) {
            if let Some(touch) = layer.touches[frame] {
                if touch.is_empty() {
                    paint(image, layer.seed, frame + 1);
                } else {
                    image.fill_rect(touch, Rgba::from_bytes([frame as u8, 0x40, 0x80, 255]));
                }
            }
        }
        let stack: Vec<(&Image, Rect)> =
            layers.iter().zip(&images).map(|(l, i)| (i, l.dst)).collect();
        if memo_free {
            SurfaceFlinger::new(sf.display().clone(), sf.gpu().clone()).composite(&stack);
        } else {
            sf.composite(&stack);
        }
    }
    let charged = sf.gpu().clock().now_ns() - start;
    (sf.display().scanout().read(|b| b.to_vec()), charged)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// For a random layer stack and random damage sequence, one
    /// flinger's tile memo and a fresh flinger per frame (full
    /// recomposition of every touched tile) produce byte-identical
    /// scanouts on either raster and charge identical virtual time.
    #[test]
    fn tilewise_matches_full_recomposition(
        layers in proptest::collection::vec(arb_layer(4), 1..5),
        reference: bool,
    ) {
        let _serial = TEST_LOCK.lock();
        let memo = flinger();
        let oracle = flinger();
        memo.gpu().set_reference_raster(reference);
        oracle.gpu().set_reference_raster(reference);
        let (bytes, ns) = run_script(&memo, &layers, 4, false);
        let (want_bytes, want_ns) = run_script(&oracle, &layers, 4, true);
        prop_assert_eq!(bytes, want_bytes, "scanout bytes diverged");
        prop_assert_eq!(ns, want_ns, "virtual time diverged");
    }
}

#[test]
fn bench_scene_counters_smoke() {
    // The badge-update scene must exercise all three observability
    // counters' happy paths: clean skips dominate, occlusion fires for
    // the covered tiles, and the scene itself causes no Full fallbacks
    // after warm-up (precise rect damage only).
    let _serial = TEST_LOCK.lock();
    let sf = flinger();
    let bg = Image::new(PANEL, PANEL, PixelFormat::Rgba8888);
    bg.fill(Rgba::WHITE);
    let badge = Image::new(16, 16, PixelFormat::Rgba8888);
    badge.fill(Rgba::RED);
    let stack: [(&Image, Rect); 2] = [
        (&bg, Rect { x: 0, y: 0, w: PANEL, h: PANEL }),
        (&badge, Rect { x: 0, y: 0, w: 16, h: 16 }),
    ];
    sf.composite(&stack); // warm-up: populate the tile memo
    let clean = trace::counter(trace::Counter::TilesSkippedClean);
    let occluded = trace::counter(trace::Counter::TilesSkippedOccluded);
    for frame in 0..8 {
        badge.fill_rect(
            Rect { x: 2, y: 2, w: 4, h: 4 },
            Rgba::from_bytes([frame as u8, 0, 0, 255]),
        );
        sf.composite(&stack);
    }
    let tiles = (PANEL / 32) * (PANEL / 32);
    // Each of the 8 frames dirties only the badge tile: the other
    // tiles all skip clean.
    assert!(
        trace::counter(trace::Counter::TilesSkippedClean) >= clean + 8 * (tiles as u64 - 1),
        "clean skips missing"
    );
    // The badge fully covers its tile corner? No — 16x16 badge does not
    // cover a 32x32 tile, so occlusion must NOT fire for this stack.
    assert_eq!(
        trace::counter(trace::Counter::TilesSkippedOccluded),
        occluded,
        "no tile is fully covered by the badge"
    );
    assert_eq!(sf.display().pixel(3, 3), [7, 0, 0, 255]);
    assert_eq!(sf.display().pixel(60, 60), [255, 255, 255, 255]);
}
