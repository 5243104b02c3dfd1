//! The raster route census, pinned: which draws leave the span lane for
//! the per-pixel reference (`raster-reference-draws`).
//!
//! The counter is process-global, so this file holds a single test and
//! nothing else in its process draws while it reads the counter.

use cycada_gpu::raster::{self, Pipeline};
use cycada_gpu::{BlendMode, DrawClass, GpuDevice, Image, PixelFormat, Rgba, Vertex};
use cycada_replay::{corpus, replay_stream, ReplayOptions};
use cycada_sim::replay::Stream;
use cycada_sim::trace::{self, Counter};
use cycada_sim::GpuCostModel;

fn reference_draws() -> u64 {
    trace::counter(Counter::RasterReferenceDraws)
}

/// Replaying the six committed corpus traces keeps every draw on the span
/// lane; a blended draw is one reference draw, and a device in
/// reference-raster mode never counts.
#[test]
fn corpus_replay_routes_no_draw_to_the_reference() {
    let before = reference_draws();
    for entry in &corpus::ENTRIES {
        let bytes = std::fs::read(corpus::path(entry))
            .unwrap_or_else(|e| panic!("{}: missing corpus file ({e})", entry.file));
        let stream = Stream::decode(&bytes)
            .unwrap_or_else(|e| panic!("{}: corpus decode failed: {e}", entry.file));
        let outcome = replay_stream(&stream, &ReplayOptions::default())
            .unwrap_or_else(|e| panic!("{}: replay diverged: {e}", entry.file));
        assert!(outcome.presents > 0, "{}: no presents replayed", entry.file);
        assert_eq!(
            reference_draws(),
            before,
            "{}: a draw left the span lane",
            entry.file
        );
    }

    let tri = [
        Vertex::colored([-1.0, -1.0, 0.0], Rgba::new(1.0, 0.0, 0.0, 0.5)),
        Vertex::colored([3.0, -1.0, 0.0], Rgba::new(1.0, 0.0, 0.0, 0.5)),
        Vertex::colored([-1.0, 3.0, 0.0], Rgba::new(1.0, 0.0, 0.0, 0.5)),
    ];
    let blend = Pipeline {
        blend: BlendMode::Alpha,
        ..Pipeline::default()
    };
    let target = Image::new(8, 8, PixelFormat::Rgba8888);
    raster::draw_triangles(&target, None, &tri, &blend);
    assert_eq!(
        reference_draws(),
        before + 1,
        "a blended draw takes the reference"
    );

    let device = GpuDevice::new(GpuCostModel::tegra3());
    device.set_reference_raster(true);
    device.draw(&target, None, &tri, None, &blend, DrawClass::TwoD);
    assert_eq!(
        reference_draws(),
        before + 1,
        "reference-raster mode does not count"
    );
}
