//! Micro-benchmarks of the raster plane: per-pixel-lock reference vs the
//! span-based single-lock paths.
//!
//! The pre-refactor rasterizer paid a full `RwLock` round-trip per pixel
//! (`Image::set_pixel` → `SharedBuffer::write`), so a 1280×800 clear was
//! ~1M lock acquisitions; the fast plane locks once per operation and fills
//! spans of row slices. These benchmarks measure exactly that ratio — same
//! scene, same bytes out (asserted by the equivalence tests), different
//! locking and inner loop. `raster/*_reference` cases run the preserved
//! per-pixel implementation, which is also the production route for
//! blended and 565/A8 draws, as the baseline the span rows are read
//! against.
//!
//! Run `CRITERION_JSON_OUT=$(pwd)/BENCH_raster.json cargo bench --bench
//! raster` from the repo root to refresh the committed results file (the
//! shim resolves relative paths against the package directory).

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};

use cycada_gpu::raster::{self, Pipeline, Rect};
use cycada_gpu::{DrawClass, GpuDevice, Image, PixelFormat, Rgba, Vertex};
use cycada_sim::GpuCostModel;

const W: u32 = 640;
const H: u32 = 400;

fn fullscreen_tri(color: Rgba) -> Vec<Vertex> {
    vec![
        Vertex::colored([-1.0, -1.0, 0.0], color),
        Vertex::colored([3.0, -1.0, 0.0], color),
        Vertex::colored([-1.0, 3.0, 0.0], color),
    ]
}

fn textured_tri() -> Vec<Vertex> {
    [
        ([-1.0f32, -1.0, 0.0], [0.0f32, 0.0]),
        ([3.0, -1.0, 0.0], [2.0, 0.0]),
        ([-1.0, 3.0, 0.0], [0.0, 2.0]),
    ]
    .iter()
    .map(|&(p, uv)| Vertex::textured(p, uv))
    .collect()
}

/// Reference clear: one `set_pixel` (lock round-trip) per pixel — what
/// `Image::fill` cost before the raster plane.
fn clear_per_pixel(img: &Image, color: Rgba) {
    for y in 0..img.height() {
        for x in 0..img.width() {
            img.set_pixel(x, y, color);
        }
    }
}

fn bench_clear(c: &mut Criterion) {
    let img = Image::new(W, H, PixelFormat::Rgba8888);
    c.bench_function("raster/clear_reference", |b| {
        b.iter(|| clear_per_pixel(black_box(&img), Rgba::BLUE))
    });
    c.bench_function("raster/clear_fill_rect", |b| {
        b.iter(|| black_box(&img).fill(Rgba::BLUE))
    });
}

fn bench_fullscreen_tri(c: &mut Criterion) {
    let verts = fullscreen_tri(Rgba::RED);
    let indices = [0u32, 1, 2];
    let pipeline = Pipeline::default();
    let img = Image::new(W, H, PixelFormat::Rgba8888);
    c.bench_function("raster/fullscreen_tri_reference", |b| {
        b.iter(|| {
            black_box(raster::reference::draw_indexed(
                &img, None, &verts, &indices, &pipeline,
            ))
        })
    });
    c.bench_function("raster/fullscreen_tri_spans", |b| {
        b.iter(|| black_box(raster::draw_indexed(&img, None, &verts, &indices, &pipeline)))
    });
}

/// A draw covering a handful of pixels: per-draw setup dominates.
fn bench_small_tri(c: &mut Criterion) {
    let verts = vec![
        Vertex::colored([-0.1, -0.1, 0.0], Rgba::RED),
        Vertex::colored([0.1, -0.1, 0.0], Rgba::RED),
        Vertex::colored([0.0, 0.1, 0.0], Rgba::RED),
    ];
    let indices = [0u32, 1, 2];
    let pipeline = Pipeline::default();
    let img = Image::new(W, H, PixelFormat::Rgba8888);
    c.bench_function("raster/small_tri_spans", |b| {
        b.iter(|| black_box(raster::draw_indexed(&img, None, &verts, &indices, &pipeline)))
    });
}

fn bench_textured_tri(c: &mut Criterion) {
    let tex = Image::new(64, 64, PixelFormat::Rgba8888);
    tex.fill(Rgba::GREEN);
    let verts = textured_tri();
    let indices = [0u32, 1, 2];
    let pipeline = Pipeline {
        texture: Some(&tex),
        ..Pipeline::default()
    };
    let img = Image::new(W, H, PixelFormat::Rgba8888);
    c.bench_function("raster/textured_tri_reference", |b| {
        b.iter(|| {
            black_box(raster::reference::draw_indexed(
                &img, None, &verts, &indices, &pipeline,
            ))
        })
    });
    c.bench_function("raster/textured_tri_spans", |b| {
        b.iter(|| black_box(raster::draw_indexed(&img, None, &verts, &indices, &pipeline)))
    });
}

/// The browser's tile-composite shape at the hd panel size: a 256²
/// RGBA tile texture stretched over a 1024×768 target by an indexed quad,
/// white vertices, opaque — the textured span lane's hot case.
fn bench_textured_quad(c: &mut Criterion) {
    let tex = Image::new(256, 256, PixelFormat::Rgba8888);
    tex.map_rows(|rows| {
        for y in 0..256u32 {
            for (x, px) in rows.row_mut(y).chunks_exact_mut(4).enumerate() {
                px.copy_from_slice(&[x as u8, y as u8, (x as u8) ^ (y as u8), 255]);
            }
        }
    });
    let verts: Vec<Vertex> = [
        ([-1.0f32, -1.0, 0.0], [0.0f32, 1.0]),
        ([1.0, -1.0, 0.0], [1.0, 1.0]),
        ([1.0, 1.0, 0.0], [1.0, 0.0]),
        ([-1.0, 1.0, 0.0], [0.0, 0.0]),
    ]
    .iter()
    .map(|&(p, uv)| Vertex::textured(p, uv))
    .collect();
    let indices = [0u32, 1, 2, 0, 2, 3];
    let pipeline = Pipeline {
        texture: Some(&tex),
        ..Pipeline::default()
    };
    let img = Image::new(1024, 768, PixelFormat::Rgba8888);
    c.bench_function("raster/textured_quad_1024x768", |b| {
        b.iter(|| {
            black_box(raster::draw_indexed(
                &img, None, &verts, &indices, &pipeline,
            ))
        })
    });
}

fn bench_blit(c: &mut Criterion) {
    // Same-format unscaled: the memcpy fast path (the SurfaceFlinger
    // full-screen post shape).
    let src = Image::new(W, H, PixelFormat::Rgba8888);
    src.fill(Rgba::RED);
    let dst = Image::new(W, H, PixelFormat::Rgba8888);
    c.bench_function("raster/blit_same_format_reference", |b| {
        b.iter(|| {
            black_box(raster::reference::blit(
                &src,
                Rect::of_image(&src),
                &dst,
                Rect::of_image(&dst),
            ))
        })
    });
    c.bench_function("raster/blit_same_format_memcpy", |b| {
        b.iter(|| {
            black_box(raster::blit(
                &src,
                Rect::of_image(&src),
                &dst,
                Rect::of_image(&dst),
            ))
        })
    });

    // Converting (BGRA→RGBA, the swizzle the present quad's identity
    // lane runs): row-sliced per-pixel, still one lock pair.
    let bgra = Image::new(W, H, PixelFormat::Bgra8888);
    bgra.fill(Rgba::GREEN);
    c.bench_function("raster/blit_convert_rows", |b| {
        b.iter(|| {
            black_box(raster::blit(
                &bgra,
                Rect::of_image(&bgra),
                &dst,
                Rect::of_image(&dst),
            ))
        })
    });
}

/// The PassMark 3D shape at the hd panel size: four overlapping quads,
/// each over three quarters of a 1024×768 target at its own depth, in one
/// depth-tested draw with the 3D tests' interpolating green. Drawn in the
/// order z = 0.5, 0.25, 0.75, 0.1, so the span lane's depth test both
/// passes and rejects whole chunks and splits others. Each iteration
/// clears the depth buffer first, as a frame's `glClear` does.
fn bench_depth_tested_quads(c: &mut Criterion) {
    let color = Rgba::new(0.3, 0.9, 0.5, 1.0);
    let mut verts = Vec::new();
    for (i, z) in [0.5f32, 0.25, 0.75, 0.1].into_iter().enumerate() {
        let (x0, y0) = (-1.0 + 0.5 * (i % 2) as f32, -1.0 + 0.5 * (i / 2) as f32);
        let (x1, y1) = (x0 + 1.5, y0 + 1.5);
        for [x, y] in [[x0, y0], [x1, y0], [x1, y1], [x0, y0], [x1, y1], [x0, y1]] {
            verts.push(Vertex::colored([x, y, z], color));
        }
    }
    let indices: Vec<u32> = (0..verts.len() as u32).collect();
    let pipeline = Pipeline {
        depth_test: true,
        ..Pipeline::default()
    };
    let img = Image::new(1024, 768, PixelFormat::Rgba8888);
    let mut depth = raster::depth_buffer_for(&img);
    c.bench_function("raster/depth_tested_quad_1024x768", |b| {
        b.iter(|| {
            depth.fill(f32::INFINITY);
            black_box(raster::draw_indexed(
                &img,
                Some(&mut depth),
                &verts,
                &indices,
                &pipeline,
            ))
        })
    });
}

/// The two full-frame hops of one `hd-scenes` present: the BGRA drawable
/// drawn into the RGBA back buffer by `presentRenderbuffer:`'s
/// full-screen quad (the identity lane, swizzling in one pass), then the
/// flinger's nearest-neighbour scale of that back buffer into a 341×384
/// panel tile.
fn bench_present_hops(c: &mut Criterion) {
    let gpu = GpuDevice::new(GpuCostModel::sgx543());
    let drawable = Image::new(1024, 768, PixelFormat::Bgra8888);
    drawable.fill(Rgba::GREEN);
    let back = Image::new(1024, 768, PixelFormat::Rgba8888);
    c.bench_function("raster/present_bgra_drawable_1024x768", |b| {
        b.iter(|| black_box(gpu.fullscreen_image(&back, &drawable, DrawClass::TwoD)))
    });

    let panel = Image::new(1024, 768, PixelFormat::Rgba8888);
    let tile = Rect {
        x: 341,
        y: 384,
        w: 341,
        h: 384,
    };
    c.bench_function("raster/blit_scaled_tile_1024x768", |b| {
        b.iter(|| {
            black_box(raster::blit_clipped(
                &back,
                Rect::of_image(&back),
                &panel,
                tile,
                Rect::of_image(&panel),
            ))
        })
    });
}

criterion_group!(
    raster_plane,
    bench_clear,
    bench_fullscreen_tri,
    bench_small_tri,
    bench_textured_tri,
    bench_textured_quad,
    bench_depth_tested_quads,
    bench_blit,
    bench_present_hops,
);
criterion_main!(raster_plane);
