//! Property-based tests for the software GPU.

use proptest::prelude::*;

use cycada_gpu::math::Mat4;
use cycada_gpu::raster::{self, Pipeline, Rect};
use cycada_gpu::{BlendMode, Image, PixelFormat, Rgba, Vertex};

fn arb_color() -> impl Strategy<Value = Rgba> {
    (0.0f32..=1.0, 0.0f32..=1.0, 0.0f32..=1.0, 0.0f32..=1.0)
        .prop_map(|(r, g, b, a)| Rgba::new(r, g, b, a))
}

fn arb_vertex() -> impl Strategy<Value = Vertex> {
    (
        -10.0f32..10.0,
        -10.0f32..10.0,
        -10.0f32..10.0,
        arb_color(),
    )
        .prop_map(|(x, y, z, color)| Vertex::colored([x, y, z], color))
}

/// A texture coordinate: mostly in a band around `[0, 1]` (so the clamp
/// to the edges is exercised), sometimes `±∞` or NaN.
fn arb_uv_coord() -> impl Strategy<Value = f32> {
    (0u8..16, -1.5f32..2.5).prop_map(|(pick, v)| match pick {
        0 => f32::INFINITY,
        1 => f32::NEG_INFINITY,
        2 => f32::NAN,
        _ => v,
    })
}

/// [`arb_vertex`] plus a texture coordinate.
fn arb_textured_vertex() -> impl Strategy<Value = Vertex> {
    (arb_vertex(), arb_uv_coord(), arb_uv_coord()).prop_map(|(v, u, t)| Vertex { uv: [u, t], ..v })
}

/// A 0–9 × 0–9 texture in any of the four formats, filled with random
/// texel bytes. Zero-width and zero-height textures are incomplete and
/// sample as opaque black on every path.
fn arb_texture() -> impl Strategy<Value = Image> {
    (0u32..10, 0u32..10, 0u8..4, any::<u64>()).prop_map(|(w, h, f, seed)| {
        let format = [
            PixelFormat::Rgba8888,
            PixelFormat::Bgra8888,
            PixelFormat::Rgb565,
            PixelFormat::Alpha8,
        ][usize::from(f)];
        let tex = Image::new(w, h, format);
        let mut x = seed | 1;
        for ty in 0..h {
            for tx in 0..w {
                // xorshift64: four texel bytes per step.
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                tex.set_pixel(tx, ty, Rgba::from_bytes((x as u32).to_le_bytes()));
            }
        }
        tex
    })
}

proptest! {
    #[test]
    fn rgba_bytes_round_trip(r: u8, g: u8, b: u8, a: u8) {
        let c = Rgba::from_bytes([r, g, b, a]);
        prop_assert_eq!(c.to_bytes(), [r, g, b, a]);
        // BGRA encode/decode is lossless too.
        let mut buf = [0u8; 4];
        PixelFormat::Bgra8888.encode(c, &mut buf);
        prop_assert_eq!(PixelFormat::Bgra8888.decode(&buf).to_bytes(), [r, g, b, a]);
    }

    #[test]
    fn rgb565_is_idempotent_after_first_quantization(r: u8, g: u8, b: u8) {
        let mut buf = [0u8; 2];
        PixelFormat::Rgb565.encode(Rgba::from_bytes([r, g, b, 255]), &mut buf);
        let once = PixelFormat::Rgb565.decode(&buf);
        PixelFormat::Rgb565.encode(once, &mut buf);
        let twice = PixelFormat::Rgb565.decode(&buf);
        prop_assert_eq!(once.to_bytes(), twice.to_bytes());
    }

    #[test]
    fn over_blend_output_stays_in_range(src in arb_color(), dst in arb_color()) {
        let out = src.over(dst);
        for v in [out.r, out.g, out.b, out.a] {
            prop_assert!((0.0..=1.0).contains(&v), "component {v}");
        }
    }

    #[test]
    fn opaque_source_over_anything_is_source(src in arb_color(), dst in arb_color()) {
        let src = Rgba::new(src.r, src.g, src.b, 1.0);
        prop_assert_eq!(src.over(dst).to_bytes(), src.to_bytes());
    }

    #[test]
    fn arbitrary_triangles_never_panic_and_fragments_are_bounded(
        verts in prop::collection::vec(arb_vertex(), 3..30),
    ) {
        let img = Image::new(16, 16, PixelFormat::Rgba8888);
        let n_tris = (verts.len() / 3) as u64;
        let m = raster::draw_triangles(&img, None, &verts[..(n_tris as usize) * 3], &Pipeline::default());
        // Each triangle can cover at most the whole target.
        prop_assert!(m.fragments <= n_tris * img.pixel_count());
        prop_assert_eq!(m.vertices, n_tris * 3);
    }

    #[test]
    fn rotation_inverse_cancels(angle in -720.0f32..720.0, x in -5.0f32..5.0, y in -5.0f32..5.0) {
        let m = Mat4::rotate_z(angle).mul(&Mat4::rotate_z(-angle));
        let v = m.transform_point([x, y, 0.0]);
        prop_assert!((v[0] - x).abs() < 1e-2, "{} vs {}", v[0], x);
        prop_assert!((v[1] - y).abs() < 1e-2, "{} vs {}", v[1], y);
    }

    #[test]
    fn translate_then_inverse_translate_is_identity(
        x in -100.0f32..100.0,
        y in -100.0f32..100.0,
        z in -100.0f32..100.0,
        p in -50.0f32..50.0,
    ) {
        let m = Mat4::translate(x, y, z).mul(&Mat4::translate(-x, -y, -z));
        let v = m.transform_point([p, p, p]);
        for component in v.iter().take(3) {
            prop_assert!((component - p).abs() < 1e-3);
        }
    }

    #[test]
    fn matrix_multiplication_is_associative(
        a in -2.0f32..2.0, b in -2.0f32..2.0, c in -360.0f32..360.0,
        px in -3.0f32..3.0, py in -3.0f32..3.0,
    ) {
        let (t, s, r) = (
            Mat4::translate(a, b, 0.0),
            Mat4::scale(1.0 + a.abs(), 1.0 + b.abs(), 1.0),
            Mat4::rotate_z(c),
        );
        let left = t.mul(&s).mul(&r);
        let right = t.mul(&s.mul(&r));
        let v1 = left.transform_point([px, py, 0.0]);
        let v2 = right.transform_point([px, py, 0.0]);
        for i in 0..4 {
            prop_assert!((v1[i] - v2[i]).abs() < 1e-2, "{:?} vs {:?}", v1, v2);
        }
    }

    #[test]
    fn blit_any_valid_rects_never_panics(
        sw in 1u32..16, sh in 1u32..16,
        dw in 1u32..16, dh in 1u32..16,
    ) {
        let src = Image::new(sw, sh, PixelFormat::Rgba8888);
        src.fill(Rgba::GREEN);
        let dst = Image::new(dw, dh, PixelFormat::Bgra8888);
        let n = raster::blit(&src, Rect::of_image(&src), &dst, Rect::of_image(&dst));
        prop_assert_eq!(n, u64::from(dw) * u64::from(dh));
        prop_assert_eq!(dst.pixel_rgba(dw - 1, dh - 1).to_bytes(), [0, 255, 0, 255]);
    }

    #[test]
    fn image_row_padding_preserves_pixels(
        w in 1u32..12, h in 1u32..12, pad in 0usize..16,
        x_frac in 0.0f64..1.0, y_frac in 0.0f64..1.0,
        color in arb_color(),
    ) {
        let row_bytes = w as usize * 4 + pad;
        let img = Image::with_row_bytes(w, h, PixelFormat::Rgba8888, row_bytes);
        let x = ((w - 1) as f64 * x_frac) as u32;
        let y = ((h - 1) as f64 * y_frac) as u32;
        img.set_pixel(x, y, color);
        prop_assert_eq!(img.pixel_rgba(x, y).to_bytes(), color.to_bytes());
    }

    #[test]
    fn pixel_hash_is_format_independent(w in 1u32..8, h in 1u32..8, color in arb_color()) {
        let a = Image::new(w, h, PixelFormat::Rgba8888);
        let b = Image::new(w, h, PixelFormat::Bgra8888);
        a.fill(color);
        b.fill(color);
        prop_assert_eq!(a.pixel_hash(), b.pixel_hash());
    }

    // ------------------------------------------------------------------
    // Raster-plane equivalence: the span rasterizer and the per-pixel
    // reference implementation must be byte-identical on arbitrary input
    // (the Acid3 "pixel for pixel" criterion applied to the fast paths).
    // ------------------------------------------------------------------

    #[test]
    fn span_rasterizer_matches_reference_on_triangle_soups(
        verts in prop::collection::vec(arb_textured_vertex(), 3..24),
        texture in prop::option::of(arb_texture()),
        alpha_blend: bool,
        depth_test: bool,
        bgra_target: bool,
        w in 1u32..40, h in 1u32..40,
    ) {
        let n = verts.len() / 3 * 3;
        let indices: Vec<u32> = (0..n as u32).collect();
        let pipeline = Pipeline {
            texture: texture.as_ref(),
            blend: if alpha_blend { BlendMode::Alpha } else { BlendMode::Opaque },
            depth_test,
            ..Pipeline::default()
        };
        let format = if bgra_target { PixelFormat::Bgra8888 } else { PixelFormat::Rgba8888 };
        let fast = Image::new(w, h, format);
        let slow = Image::new(w, h, format);
        let mut fast_depth = raster::depth_buffer_for(&fast);
        let mut slow_depth = raster::depth_buffer_for(&slow);
        let mf = raster::draw_indexed(
            &fast, Some(&mut fast_depth), &verts[..n], &indices, &pipeline,
        );
        let ms = raster::reference::draw_indexed(
            &slow, Some(&mut slow_depth), &verts[..n], &indices, &pipeline,
        );
        prop_assert_eq!(mf, ms);
        let raw = |img: &Image| img.read_rows(|rows| {
            (0..img.height()).flat_map(|y| rows.row(y).to_vec()).collect::<Vec<u8>>()
        });
        prop_assert_eq!(raw(&fast), raw(&slow));
        prop_assert_eq!(fast_depth, slow_depth);
    }

    #[test]
    fn blit_fast_path_matches_reference(
        sw in 1u32..12, sh in 1u32..12,
        dw in 1u32..12, dh in 1u32..12,
        src_bgra: bool, dst_bgra: bool,
        seed: u8,
    ) {
        let sfmt = if src_bgra { PixelFormat::Bgra8888 } else { PixelFormat::Rgba8888 };
        let dfmt = if dst_bgra { PixelFormat::Bgra8888 } else { PixelFormat::Rgba8888 };
        let src = Image::new(sw, sh, sfmt);
        for y in 0..sh {
            for x in 0..sw {
                src.set_pixel(x, y, Rgba::from_bytes([
                    seed.wrapping_add((x * 37) as u8),
                    seed.wrapping_mul((y * 11) as u8 | 1),
                    (x ^ y) as u8,
                    255,
                ]));
            }
        }
        let fast = Image::new(dw, dh, dfmt);
        let slow = Image::new(dw, dh, dfmt);
        let n_fast = raster::blit(&src, Rect::of_image(&src), &fast, Rect::of_image(&fast));
        let n_slow = raster::reference::blit(&src, Rect::of_image(&src), &slow, Rect::of_image(&slow));
        prop_assert_eq!(n_fast, n_slow);
        prop_assert_eq!(fast.to_rgba_vec(), slow.to_rgba_vec());
    }

    #[test]
    fn rect_algebra_laws(
        ax in 0u32..40, ay in 0u32..40, aw in 0u32..40, ah in 0u32..40,
        bx in 0u32..40, by in 0u32..40, bw in 0u32..40, bh in 0u32..40,
    ) {
        let a = Rect { x: ax, y: ay, w: aw, h: ah };
        let b = Rect { x: bx, y: by, w: bw, h: bh };
        let contains = |outer: &Rect, inner: &Rect| {
            inner.is_empty()
                || (outer.x <= inner.x
                    && outer.y <= inner.y
                    && inner.x + inner.w <= outer.x + outer.w
                    && inner.y + inner.h <= outer.y + outer.h)
        };
        // Commutativity.
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
        // The intersection is contained in both operands (for empty
        // rects containment is vacuous) and covers exactly the pixels
        // that lie in both.
        let i = a.intersect(&b);
        prop_assert!(contains(&a, &i) && contains(&b, &i));
        let shared = (ax.max(bx)..(ax + aw).min(bx + bw)).len() as u64
            * (ay.max(by)..(ay + ah).min(by + bh)).len() as u64;
        prop_assert_eq!(i.area(), shared);
        // Empty-rect identity.
        prop_assert!(a.intersect(&Rect::EMPTY).is_empty());
        prop_assert!(i.area() <= a.area() && i.area() <= b.area());
    }

    #[test]
    fn blit_clipped_matches_blit_restricted_to_clip(
        sw in 1u32..10, sh in 1u32..10,
        dw in 4u32..16, dh in 4u32..16,
        rx in 0u32..16, ry in 0u32..16, rw in 1u32..16, rh in 1u32..16,
        cx in 0u32..16, cy in 0u32..16, cw in 0u32..16, ch in 0u32..16,
        seed: u8, sf in 0usize..3, df in 0usize..3,
    ) {
        // Same-format, RGBA↔BGRA swizzle and converting blits.
        let formats = [PixelFormat::Rgba8888, PixelFormat::Bgra8888, PixelFormat::Rgb565];
        let src = Image::new(sw, sh, formats[sf]);
        for y in 0..sh {
            for x in 0..sw {
                src.set_pixel(x, y, Rgba::from_bytes([
                    seed.wrapping_add((x * 29) as u8),
                    (y * 17) as u8,
                    (x * y) as u8,
                    255,
                ]));
            }
        }
        let dst_rect = Rect { x: rx, y: ry, w: rw, h: rh };
        let clip = Rect { x: cx, y: cy, w: cw, h: ch };
        // Oracle: blit onto a copy with no bounds restriction, then keep
        // only the pixels inside clip ∩ dst_rect ∩ image bounds.
        let clipped = Image::new(dw, dh, formats[df]);
        let oracle = Image::new(dw, dh, formats[df]);
        clipped.fill(Rgba::WHITE);
        oracle.fill(Rgba::WHITE);
        let full = Image::new(dw, dh, formats[df]);
        full.fill(Rgba::WHITE);
        let eff = dst_rect.intersect(&clip).intersect(&Rect::of_image(&full));
        if dst_rect.intersect(&Rect::of_image(&full)) == dst_rect {
            // In-bounds dst: reference::blit then copy the eff region.
            raster::reference::blit(&src, Rect::of_image(&src), &full, dst_rect);
            for y in eff.y..eff.y + eff.h {
                for x in eff.x..eff.x + eff.w {
                    oracle.set_pixel(x, y, full.pixel_rgba(x, y));
                }
            }
        } else {
            // Out-of-bounds dst: per-pixel oracle with the same scaling
            // arithmetic blit uses.
            for y in eff.y..eff.y + eff.h {
                for x in eff.x..eff.x + eff.w {
                    let sx = (x - dst_rect.x) * sw / rw;
                    let sy = (y - dst_rect.y) * sh / rh;
                    oracle.set_pixel(x, y, src.pixel_rgba(sx.min(sw - 1), sy.min(sh - 1)));
                }
            }
        }
        let n = raster::blit_clipped(&src, Rect::of_image(&src), &clipped, dst_rect, clip);
        prop_assert_eq!(n, eff.area());
        prop_assert_eq!(clipped.to_rgba_vec(), oracle.to_rgba_vec());
    }

    #[test]
    fn fill_rect_matches_per_pixel_fill(
        w in 1u32..16, h in 1u32..16,
        x in 0u32..20, y in 0u32..20,
        rw in 0u32..20, rh in 0u32..20,
        color in arb_color(),
    ) {
        let fast = Image::new(w, h, PixelFormat::Rgba8888);
        let slow = Image::new(w, h, PixelFormat::Rgba8888);
        fast.fill_rect(Rect { x, y, w: rw, h: rh }, color);
        for py in y..(y.saturating_add(rh)).min(h) {
            for px in x..(x.saturating_add(rw)).min(w) {
                slow.set_pixel(px, py, color);
            }
        }
        prop_assert_eq!(fast.to_rgba_vec(), slow.to_rgba_vec());
    }
}
