//! PassMark-shaped 2D/3D graphics tests (Figures 6, 8 and 10).
//!
//! "PassMark is a freely available, cross-platform benchmark suite, and we
//! used its 2D and 3D tests to measure graphics performance" (§9). The
//! seven tests here mirror the figure's categories. One important
//! real-world effect is modelled explicitly: the iOS and Android PassMark
//! apps are *different binaries* using different frameworks — the iOS
//! build batches geometry into fewer, larger draw calls. That is why
//! "Cycada iOS performance relative to Android is highly correlated to iOS
//! performance relative to Android" and why Cycada can beat stock Android
//! by >20% on the complex 3D test while running on the same GPU.

use cycada::{AppGl, Result};
use cycada_gles::{Capability, GlesVersion, Primitive, TexFormat};
use cycada_gpu::DrawClass;
use cycada_sim::{clock, Platform, SimRng};

/// The seven PassMark tests of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PassmarkTest {
    /// 2D: solid vector lines.
    SolidVectors,
    /// 2D: alpha-blended vector lines.
    TransparentVectors,
    /// 2D/GPU: complex filled vector paths.
    ComplexVectors,
    /// 2D: image blitting from textures.
    ImageRendering,
    /// 2D: per-frame CPU image filters + re-upload.
    ImageFilters,
    /// 3D: a simple scene at maximum frame rate.
    Simple3d,
    /// 3D: a complex, geometry-heavy scene.
    Complex3d,
}

impl PassmarkTest {
    /// All tests in Figure 6 order.
    pub const ALL: [PassmarkTest; 7] = [
        PassmarkTest::SolidVectors,
        PassmarkTest::TransparentVectors,
        PassmarkTest::ComplexVectors,
        PassmarkTest::ImageRendering,
        PassmarkTest::ImageFilters,
        PassmarkTest::Simple3d,
        PassmarkTest::Complex3d,
    ];

    /// Figure-6 axis label.
    pub fn label(self) -> &'static str {
        match self {
            PassmarkTest::SolidVectors => "2D Solid Vectors",
            PassmarkTest::TransparentVectors => "2D Transparent Vectors",
            PassmarkTest::ComplexVectors => "2D Complex Vectors",
            PassmarkTest::ImageRendering => "2D Image Rendering",
            PassmarkTest::ImageFilters => "2D Image Filters",
            PassmarkTest::Simple3d => "3D Simple",
            PassmarkTest::Complex3d => "3D Complex",
        }
    }

    /// Whether Figure 6 files this under the 2D tests.
    pub fn is_2d(self) -> bool {
        !matches!(self, PassmarkTest::Simple3d | PassmarkTest::Complex3d)
    }

    /// The GPU cost class the test's rendering rides on. Complex vector
    /// fills are tessellated and rendered through the 3D pipeline (which
    /// is why stock iOS does *better* on complex vectors despite losing
    /// the plain 2D tests, §9).
    pub fn draw_class(self) -> DrawClass {
        match self {
            PassmarkTest::ComplexVectors | PassmarkTest::Simple3d | PassmarkTest::Complex3d => {
                DrawClass::ThreeD
            }
            _ => DrawClass::TwoD,
        }
    }

    /// Whether the iOS binary's framework batches this test's geometry
    /// into fewer draw calls (complex scenes only).
    pub fn ios_batches(self) -> bool {
        matches!(self, PassmarkTest::ComplexVectors | PassmarkTest::Complex3d)
    }
}

/// A measured score: work units per virtual second (higher is better).
#[derive(Debug, Clone, Copy)]
pub struct PassmarkScore {
    /// The test.
    pub test: PassmarkTest,
    /// The platform.
    pub platform: Platform,
    /// Work units per second of virtual time.
    pub score: f64,
}

/// Runs one PassMark test for `frames` frames, returning the score.
///
/// # Errors
///
/// Returns an error if the platform stack fails.
pub fn run_test(
    platform: Platform,
    test: PassmarkTest,
    display: Option<(u32, u32)>,
    frames: u32,
) -> Result<PassmarkScore> {
    // The PassMark app uses the fixed-function v1 pipeline (it predates
    // mandatory shaders), matching Figure 8's glRotatef/glTranslatef mix.
    let mut app = AppGl::boot_with_display(platform, GlesVersion::V1, display)?;
    app.set_draw_class(test.draw_class());
    // The iOS binary's frameworks batch complex-scene geometry into fewer
    // draw calls (§9: iOS frameworks "in some cases have better
    // performance than Android").
    let ios_style = platform.app_is_ios() && test.ios_batches();
    let mut rng = SimRng::new(0xAA55 ^ u64::from(frames));
    let start = clock::now_ns();
    let mut work_units: u64 = 0;
    for frame in 0..frames {
        work_units += run_frame(&mut app, test, ios_style, frame, &mut rng)?;
        app.present()?;
    }
    let elapsed = clock::now_ns() - start;
    Ok(PassmarkScore {
        test,
        platform,
        score: work_units as f64 * 1e9 / elapsed.max(1) as f64,
    })
}

/// Runs the full suite on one platform.
///
/// # Errors
///
/// Returns an error if any test fails.
pub fn run_suite(
    platform: Platform,
    display: Option<(u32, u32)>,
    frames: u32,
) -> Result<Vec<PassmarkScore>> {
    PassmarkTest::ALL
        .into_iter()
        .map(|test| run_test(platform, test, display, frames))
        .collect()
}

/// Runs the suite on Cycada iOS, merging the per-GLES-function diplomat
/// statistics across tests — the data behind Figures 8 and 10.
///
/// # Errors
///
/// Returns an error if any test fails.
pub fn run_suite_with_stats(
    display: Option<(u32, u32)>,
    frames: u32,
) -> Result<(Vec<PassmarkScore>, cycada_sim::stats::FunctionStats)> {
    let merged = cycada_sim::stats::FunctionStats::new();
    let mut scores = Vec::new();
    for test in PassmarkTest::ALL {
        let mut app = AppGl::boot_with_display(Platform::CycadaIos, GlesVersion::V1, display)?;
        app.set_draw_class(test.draw_class());
        let mut rng = SimRng::new(0xAA55 ^ u64::from(frames));
        let start = clock::now_ns();
        let mut work_units: u64 = 0;
        for frame in 0..frames {
            work_units += run_frame(&mut app, test, test.ios_batches(), frame, &mut rng)?;
            app.present()?;
        }
        let elapsed = clock::now_ns() - start;
        scores.push(PassmarkScore {
            test,
            platform: Platform::CycadaIos,
            score: work_units as f64 * 1e9 / elapsed.max(1) as f64,
        });
        if let Some(stats) = app.gl_stats() {
            merged.merge(&stats);
        }
    }
    Ok((scores, merged))
}

fn run_frame(
    app: &mut AppGl,
    test: PassmarkTest,
    ios_style: bool,
    frame: u32,
    rng: &mut SimRng,
) -> Result<u64> {
    match test {
        PassmarkTest::SolidVectors => vectors_frame(app, ios_style, frame, false),
        PassmarkTest::TransparentVectors => vectors_frame(app, ios_style, frame, true),
        PassmarkTest::ComplexVectors => complex_vectors_frame(app, ios_style, frame),
        PassmarkTest::ImageRendering => image_rendering_frame(app, ios_style, rng),
        PassmarkTest::ImageFilters => image_filters_frame(app, rng),
        PassmarkTest::Simple3d => simple_3d_frame(app, frame),
        PassmarkTest::Complex3d => complex_3d_frame(app, ios_style, frame),
    }
}

/// Line-vector frames: 480 segments, batched per app style.
fn vectors_frame(app: &mut AppGl, ios_style: bool, frame: u32, blend: bool) -> Result<u64> {
    app.clear(1.0, 1.0, 1.0, 1.0)?;
    app.set_capability(Capability::Blend, blend)?;
    const SEGMENTS: usize = 480;
    let batch = if ios_style { 120 } else { 12 };
    let mut drawn = 0;
    let phase = frame as f32 * 0.13;
    let step = std::f32::consts::TAU / SEGMENTS as f32;
    while drawn < SEGMENTS {
        let mut xyz = Vec::with_capacity(batch * 6);
        for i in 0..batch {
            // Short adjacent segments tracing a rose curve — small,
            // realistic vector strokes.
            let t = (drawn + i) as f32 * step + phase;
            let r0 = 0.55 + 0.35 * (3.0 * t).sin();
            let r1 = 0.55 + 0.35 * (3.0 * (t + step)).sin();
            xyz.extend_from_slice(&[
                t.cos() * r0,
                t.sin() * r0,
                0.0,
                (t + step).cos() * r1,
                (t + step).sin() * r1,
                0.0,
            ]);
        }
        let alpha = if blend { 0.5 } else { 1.0 };
        app.draw(Primitive::Lines, &xyz, [0.1, 0.2, 0.8, alpha])?;
        drawn += batch;
    }
    app.set_capability(Capability::Blend, false)?;
    Ok(SEGMENTS as u64)
}

/// Complex filled vector paths: tessellated triangle fans, rotated per
/// frame via the matrix stack (the glRotatef/glPushMatrix mix of Fig. 8).
fn complex_vectors_frame(app: &mut AppGl, ios_style: bool, frame: u32) -> Result<u64> {
    app.clear(1.0, 1.0, 1.0, 1.0)?;
    const PATHS: usize = 64;
    const TRIS_PER_PATH: usize = 10;
    let tessellate = |first: usize, count: usize| -> Vec<f32> {
        let mut xyz = Vec::new();
        for p in first..first + count {
            let cx = (p % 8) as f32 / 4.0 - 1.0 + 0.125;
            let cy = (p / 8) as f32 / 4.0 - 1.0 + 0.125;
            for t in 0..TRIS_PER_PATH {
                let a0 = t as f32 / TRIS_PER_PATH as f32 * std::f32::consts::TAU;
                let a1 = (t + 1) as f32 / TRIS_PER_PATH as f32 * std::f32::consts::TAU;
                xyz.extend_from_slice(&[
                    cx,
                    cy,
                    0.0,
                    cx + a0.cos() * 0.11,
                    cy + a0.sin() * 0.11,
                    0.0,
                    cx + a1.cos() * 0.11,
                    cy + a1.sin() * 0.11,
                    0.0,
                ]);
            }
        }
        xyz
    };
    if ios_style {
        // The iOS framework tessellates and submits 16 paths per draw.
        let mut drawn = 0;
        while drawn < PATHS {
            app.push_transform()?;
            app.rotate(frame as f32 * 3.0 + drawn as f32)?;
            let xyz = tessellate(drawn, 16);
            app.draw(Primitive::Triangles, &xyz, [0.8, 0.3, 0.1, 1.0])?;
            app.pop_transform()?;
            drawn += 16;
        }
    } else {
        // The Android 2D engine issues fill + two stroke passes per path.
        for path in 0..PATHS {
            app.push_transform()?;
            app.rotate(frame as f32 * 3.0 + path as f32)?;
            let xyz = tessellate(path, 1);
            // Fill pass, then two stroke passes over part of the outline.
            app.draw(Primitive::Triangles, &xyz, [0.8, 0.3, 0.1, 1.0])?;
            app.draw(Primitive::Triangles, &xyz[..27], [0.5, 0.1, 0.05, 1.0])?;
            app.draw(Primitive::Triangles, &xyz[..27], [0.2, 0.05, 0.02, 1.0])?;
            app.pop_transform()?;
        }
    }
    Ok(PATHS as u64)
}

/// Image rendering: textured quads from a small texture set.
fn image_rendering_frame(app: &mut AppGl, ios_style: bool, rng: &mut SimRng) -> Result<u64> {
    app.clear(0.0, 0.0, 0.0, 1.0)?;
    const SPRITES: usize = 48;
    // Texture set created once per frame-set would be better; PassMark
    // re-binds constantly, which is what makes glBindTexture visible in
    // Figure 10.
    let tex = app.create_texture(
        32,
        32,
        TexFormat::Rgba,
        &checkerboard(32, rng.next_u64() as u8),
    )?;
    let per_draw = if ios_style { 8 } else { 1 };
    let mut drawn = 0;
    while drawn < SPRITES {
        for _ in 0..per_draw {
            let x = rng.next_f64() as f32 * 1.6 - 0.8;
            let y = rng.next_f64() as f32 * 1.6 - 0.8;
            app.draw_textured_quad(tex, x, y, x + 0.2, y + 0.2)?;
            drawn += 1;
        }
    }
    app.delete_textures(&[tex])?;
    Ok(SPRITES as u64)
}

/// Image filters: CPU filter pass + full texture re-upload per image.
fn image_filters_frame(app: &mut AppGl, rng: &mut SimRng) -> Result<u64> {
    app.clear(0.0, 0.0, 0.0, 1.0)?;
    const IMAGES: u64 = 6;
    let mut pixels = checkerboard(64, rng.next_u64() as u8);
    let tex = app.create_texture(64, 64, TexFormat::Rgba, &pixels)?;
    for _ in 0..IMAGES {
        // The CPU "filter": a blur-ish pass, charged as CPU work.
        for px in pixels.chunks_exact_mut(4) {
            px[0] = px[0].wrapping_add(3);
            px[1] = px[1].wrapping_add(5);
        }
        app.charge_cpu(pixels.len() as f64 * 0.9)?;
        app.update_texture(tex, 0, 0, 64, 64, TexFormat::Rgba, &pixels)?;
        app.draw_textured_quad(tex, -0.9, -0.9, 0.9, 0.9)?;
    }
    app.delete_textures(&[tex])?;
    Ok(IMAGES)
}

/// Simple 3D: a small rotating scene at maximum frame rate — stresses the
/// present path ("the simple 3D test ... stresses our unoptimized EAGL
/// implementation which is responsible for moving rendered scenes onto the
/// display", §9).
fn simple_3d_frame(app: &mut AppGl, frame: u32) -> Result<u64> {
    app.set_capability(Capability::DepthTest, true)?;
    app.clear(0.2, 0.2, 0.3, 1.0)?;
    app.push_transform()?;
    app.rotate(frame as f32 * 7.0)?;
    // A "cube": 12 small triangles.
    let mut xyz = Vec::new();
    for t in 0..12 {
        let a = t as f32 / 12.0 * std::f32::consts::TAU;
        xyz.extend_from_slice(&[
            a.cos() * 0.3,
            a.sin() * 0.3,
            0.2,
            a.cos() * 0.3 + 0.15,
            a.sin() * 0.3,
            0.4,
            a.cos() * 0.3,
            a.sin() * 0.3 + 0.15,
            0.3,
        ]);
    }
    app.draw(Primitive::Triangles, &xyz, [0.9, 0.8, 0.2, 1.0])?;
    app.pop_transform()?;
    Ok(1) // one frame = one work unit (the test measures FPS)
}

/// Complex 3D: thousands of triangles per frame, batched per app style.
fn complex_3d_frame(app: &mut AppGl, ios_style: bool, frame: u32) -> Result<u64> {
    app.set_capability(Capability::DepthTest, true)?;
    app.clear(0.1, 0.1, 0.15, 1.0)?;
    const TRIS: usize = 2400;
    // The Android binary submits per-object (300 draws); the iOS
    // framework batches aggressively (24 draws).
    let batch = if ios_style { 100 } else { 8 };
    let mut drawn = 0;
    app.push_transform()?;
    app.rotate(frame as f32 * 2.0)?;
    while drawn < TRIS {
        let mut xyz = Vec::with_capacity(batch * 9);
        for i in 0..batch {
            let t = (drawn + i) as f32;
            let a = t * 0.61803;
            let r = 0.1 + (t % 97.0) / 97.0 * 0.8;
            let z = (t % 31.0) / 31.0;
            xyz.extend_from_slice(&[
                a.cos() * r,
                a.sin() * r,
                z,
                a.cos() * r + 0.08,
                a.sin() * r,
                z,
                a.cos() * r,
                a.sin() * r + 0.08,
                z,
            ]);
        }
        app.draw(Primitive::Triangles, &xyz, [0.3, 0.9, 0.5, 1.0])?;
        drawn += batch;
    }
    app.pop_transform()?;
    Ok(TRIS as u64)
}

fn checkerboard(size: u32, tint: u8) -> Vec<u8> {
    let mut out = Vec::with_capacity((size * size * 4) as usize);
    for y in 0..size {
        for x in 0..size {
            let on = (x / 4 + y / 4) % 2 == 0;
            out.extend_from_slice(&if on {
                [255, tint, 64, 255]
            } else {
                [32, 32, tint, 255]
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Option<(u32, u32)> = Some((160, 120));

    #[test]
    fn every_test_produces_a_positive_score() {
        for test in PassmarkTest::ALL {
            let score = run_test(Platform::StockAndroid, test, SMALL, 2).unwrap();
            assert!(score.score > 0.0, "{test:?}");
        }
    }

    #[test]
    fn cycada_ios_tracks_native_ios_direction_on_2d() {
        // "For the 2D tests in which stock iOS does significantly worse
        // than stock Android, Cycada iOS also does significantly worse
        // than Cycada Android."
        let android = run_test(Platform::StockAndroid, PassmarkTest::SolidVectors, SMALL, 3)
            .unwrap()
            .score;
        let ios = run_test(Platform::NativeIos, PassmarkTest::SolidVectors, SMALL, 3)
            .unwrap()
            .score;
        let cycada_android =
            run_test(Platform::CycadaAndroid, PassmarkTest::SolidVectors, SMALL, 3)
                .unwrap()
                .score;
        let cycada_ios = run_test(Platform::CycadaIos, PassmarkTest::SolidVectors, SMALL, 3)
            .unwrap()
            .score;
        assert!(ios < android, "iPad 2D slower: {ios} vs {android}");
        assert!(
            cycada_ios < cycada_android,
            "Cycada iOS 2D slower than Cycada Android: {cycada_ios} vs {cycada_android}"
        );
    }

    #[test]
    fn cycada_ios_beats_cycada_android_on_complex_3d() {
        // "Cycada now outperforms Android in the GPU-intensive complex 3D
        // test by more than 20%."
        let cycada_android =
            run_test(Platform::CycadaAndroid, PassmarkTest::Complex3d, SMALL, 3)
                .unwrap()
                .score;
        let cycada_ios = run_test(Platform::CycadaIos, PassmarkTest::Complex3d, SMALL, 3)
            .unwrap()
            .score;
        assert!(
            cycada_ios > cycada_android * 1.1,
            "complex 3D: Cycada iOS {cycada_ios} should beat Cycada Android {cycada_android}"
        );
    }

    #[test]
    fn labels_match_figure6() {
        assert_eq!(PassmarkTest::Complex3d.label(), "3D Complex");
        assert!(PassmarkTest::SolidVectors.is_2d());
        assert!(!PassmarkTest::Simple3d.is_2d());
    }
}
