//! Property-based tests for the GLES state machine and registry.

use std::sync::Arc;

use proptest::prelude::*;

use cycada_gles::{
    ApiFlavor, Capability, ClientState, GlError, GlesContext, GlesRegistry, GlesVersion,
    PixelStoreParam, Primitive, StdAvailability, TexFormat,
};
use cycada_gpu::{GpuDevice, Image, PixelFormat};
use cycada_sim::{GpuCostModel, VirtualClock};

fn ctx(version: GlesVersion, flavor: ApiFlavor, size: u32) -> GlesContext {
    let device = Arc::new(GpuDevice::new(VirtualClock::new(), GpuCostModel::tegra3()));
    let mut c = GlesContext::new(version, flavor, device);
    c.set_default_framebuffer(Some(Image::new(size, size, PixelFormat::Rgba8888)));
    c
}

const TEX_FORMATS: [TexFormat; 4] = [
    TexFormat::Rgba,
    TexFormat::Bgra,
    TexFormat::Rgb565,
    TexFormat::Alpha,
];

/// A small viewport origin, or an `i32` extreme for the two ends of `v`.
fn viewport_origin(v: i32) -> i32 {
    match v {
        ..-2 => i32::MIN,
        7.. => i32::MAX,
        v => v,
    }
}

/// A small viewport extent, or `u32::MAX` at the top of `v`.
fn viewport_extent(v: u32) -> u32 {
    if v < 7 { v } else { u32::MAX }
}

/// Four out-of-bounds rects whose origin plus extent reaches or passes
/// `u32::MAX` on one axis: origin `1 + a`, extent `u32::MAX - b`, and the
/// two swapped.
fn far_rects((a, b): (u32, u32)) -> [(u32, u32, u32, u32); 4] {
    let (o, e) = (1 + a, u32::MAX - b);
    [(o, 0, e, 1), (0, o, 1, e), (e, 0, o, 1), (0, e, 1, o)]
}

/// `len` pseudo-random bytes from `seed`.
fn bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 56) as u8
        })
        .collect()
}

/// The unpack stride GL uses for a `width`-pixel upload: `APPLE_row_bytes`
/// when set, else the row rounded up to the unpack alignment.
fn unpack_stride(width: u32, bpp: usize, alignment: usize, row_bytes: usize) -> usize {
    if row_bytes > 0 {
        row_bytes
    } else {
        (width as usize * bpp).div_ceil(alignment) * alignment
    }
}

/// The per-pixel oracle: decode every client pixel in `format` and encode
/// it into `image` at `(x, y)` onwards.
fn unpack_per_pixel(
    image: &Image,
    data: &[u8],
    stride: usize,
    format: TexFormat,
    rect: (u32, u32, u32, u32),
) {
    let (x, y, w, h) = rect;
    let (pf, bpp) = (format.pixel_format(), format.bytes_per_pixel());
    for row in 0..h {
        for col in 0..w {
            let off = row as usize * stride + col as usize * bpp;
            image.set_pixel(x + col, y + row, pf.decode(&data[off..off + bpp]));
        }
    }
}

/// An image's raw bytes, row padding excluded.
fn raw_bytes(image: &Image) -> Vec<u8> {
    image.read_rows(|rows| {
        (0..image.height())
            .flat_map(|y| rows.row(y).to_vec())
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn uploads_match_per_pixel_decode_encode(
        formats in (0usize..4, 0usize..4),
        size in (1u32..12, 1u32..12),
        sub in (0u32..12, 0u32..12, 0u32..13, 0u32..13),
        alignment in (0usize..4, 0usize..4),
        row_pad in (0usize..6, 0usize..6),
        far in (0u32..3, 0u32..3),
        seed: u64,
    ) {
        let (tex_format, sub_format) = (TEX_FORMATS[formats.0], TEX_FORMATS[formats.1]);
        let (tw, th) = size;
        let mut c = ctx(GlesVersion::V2, ApiFlavor::Ios, 8);
        // Pixel-store state: alignment 1/2/4/8, APPLE_row_bytes off (pad 0)
        // or a tight row plus 1..=5 bytes of padding.
        let set_unpack = |c: &mut GlesContext, w: u32, bpp: usize, align: usize, pad: usize| {
            let align = 1 << align;
            let row_bytes = if pad == 0 { 0 } else { w as usize * bpp + pad };
            c.pixel_store(PixelStoreParam::UnpackAlignment, align);
            c.pixel_store(PixelStoreParam::UnpackRowBytesApple, row_bytes);
            unpack_stride(w, bpp, align, row_bytes)
        };

        // glTexImage2D: the upload's format is the texture's.
        let bpp = tex_format.bytes_per_pixel();
        let stride = set_unpack(&mut c, tw, bpp, alignment.0, row_pad.0);
        let full = bytes(seed, stride * (th as usize - 1) + tw as usize * bpp);
        let tex = c.gen_textures(1)[0];
        c.bind_texture(tex);
        c.tex_image_2d(tw, th, tex_format, Some(&full));
        let expect = Image::new(tw, th, tex_format.pixel_format());
        unpack_per_pixel(&expect, &full, stride, tex_format, (0, 0, tw, th));
        let image = c.texture_image(tex).unwrap();
        prop_assert_eq!(raw_bytes(&image), raw_bytes(&expect));

        // glTexSubImage2D over a random sub-rect, in any format.
        let (x, y) = (sub.0 % tw, sub.1 % th);
        let (w, h) = (sub.2 % (tw - x + 1), sub.3 % (th - y + 1));
        let bpp = sub_format.bytes_per_pixel();
        let stride = set_unpack(&mut c, w, bpp, alignment.1, row_pad.1);
        let len = if w == 0 || h == 0 { 0 } else { stride * (h as usize - 1) + w as usize * bpp };
        let patch = bytes(seed.rotate_left(17), len);
        c.tex_sub_image_2d(x, y, w, h, sub_format, &patch);
        unpack_per_pixel(&expect, &patch, stride, sub_format, (x, y, w, h));
        prop_assert_eq!(c.get_error(), GlError::NoError);
        prop_assert_eq!(raw_bytes(&image), raw_bytes(&expect));

        // Origins and extents near u32::MAX are rejected, never wrapped.
        for (x, y, w, h) in far_rects(far) {
            c.tex_sub_image_2d(x, y, w, h, sub_format, &patch);
            prop_assert_eq!(c.get_error(), GlError::InvalidValue);
        }
        prop_assert_eq!(raw_bytes(&image), raw_bytes(&expect));

        // Storage past GL_MAX_TEXTURE_SIZE (2048 on the Tegra 3), up to
        // sizes whose byte count overflows, is rejected before any
        // allocation, with or without client data, and keeps the old
        // storage.
        let (fw, fh) = (u32::MAX - far.0, 2049 + far.1);
        for (w, h) in [(u32::MAX, u32::MAX), (1 << 31, 1 << 31), (fw, 1), (1, fh), (2049, 2048)] {
            c.tex_image_2d(w, h, tex_format, Some(&[]));
            prop_assert_eq!(c.get_error(), GlError::InvalidValue);
            c.tex_image_2d(w, h, tex_format, None);
            prop_assert_eq!(c.get_error(), GlError::InvalidValue);
        }
        prop_assert_eq!(raw_bytes(&c.texture_image(tex).unwrap()), raw_bytes(&expect));
    }

    #[test]
    fn texture_upload_readback_round_trips(
        w in 1u32..8, h in 1u32..8,
        far in (0u32..3, 0u32..3),
        seed: u64,
    ) {
        let mut c = ctx(GlesVersion::V2, ApiFlavor::Ios, 16);
        let mut data = Vec::new();
        let mut state = seed | 1;
        for _ in 0..(w * h * 4) {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            data.push((state >> 56) as u8);
        }
        let tex = c.gen_textures(1)[0];
        c.bind_texture(tex);
        c.tex_image_2d(w, h, TexFormat::Rgba, Some(&data));
        let img = c.texture_image(tex).unwrap();
        for y in 0..h {
            for x in 0..w {
                let off = ((y * w + x) * 4) as usize;
                prop_assert_eq!(
                    img.pixel_rgba(x, y).to_bytes(),
                    [data[off], data[off + 1], data[off + 2], data[off + 3]]
                );
            }
        }

        // Readbacks at origins and extents near u32::MAX are rejected
        // and leave the output untouched.
        let mut out = vec![7u8; 3];
        for (x, y, rw, rh) in far_rects(far) {
            prop_assert_eq!(c.read_pixels(x, y, rw, rh, TexFormat::Rgba, &mut out), 0);
            prop_assert_eq!(c.get_error(), GlError::InvalidValue);
        }
        prop_assert_eq!(out, vec![7u8; 3]);
    }

    #[test]
    fn clear_color_round_trips_through_framebuffer(r in 0.0f32..=1.0, g in 0.0f32..=1.0, b in 0.0f32..=1.0) {
        let mut c = ctx(GlesVersion::V1, ApiFlavor::Android, 8);
        c.clear_color(r, g, b, 1.0);
        c.clear(true, false);
        let px = c.default_framebuffer().unwrap().pixel_rgba(4, 4).to_bytes();
        let q = |v: f32| (v * 255.0).round() as u8;
        prop_assert_eq!(px, [q(r), q(g), q(b), 255]);
    }

    #[test]
    fn matrix_stack_depth_is_balanced(ops in prop::collection::vec(any::<bool>(), 0..64)) {
        let mut c = ctx(GlesVersion::V1, ApiFlavor::Android, 8);
        let mut depth = 1usize;
        for push in ops {
            if push {
                c.push_matrix();
                depth += 1;
            } else if depth > 1 {
                c.pop_matrix();
                depth -= 1;
            } else {
                // Popping the last entry must error, not underflow.
                c.pop_matrix();
                prop_assert_eq!(c.get_error(), cycada_gles::GlError::InvalidOperation);
            }
        }
    }

    #[test]
    fn draws_never_touch_pixels_outside_the_viewport(
        vx in (-3i32..9).prop_map(viewport_origin),
        vy in (-3i32..9).prop_map(viewport_origin),
        vw in (1u32..9).prop_map(viewport_extent),
        vh in (1u32..9).prop_map(viewport_extent),
    ) {
        // The triangle overhangs the clip volume on every side, so only
        // the viewport clip bounds what it writes.
        let draw = |reference: bool| {
            let device = Arc::new(GpuDevice::new(VirtualClock::new(), GpuCostModel::tegra3()));
            device.set_reference_raster(reference);
            let mut c = GlesContext::new(GlesVersion::V1, ApiFlavor::Android, device);
            c.set_default_framebuffer(Some(Image::new(12, 12, PixelFormat::Rgba8888)));
            c.set_viewport(vx, vy, vw, vh);
            c.set_client_state(ClientState::VertexArray, true);
            c.client_pointer(ClientState::VertexArray, 2,
                &[-5.0, -5.0, 15.0, -5.0, -5.0, 15.0]);
            c.color4f(1.0, 0.0, 0.0, 1.0);
            c.draw_arrays(Primitive::Triangles, 0, 3);
            c.default_framebuffer().unwrap()
        };
        let fb = draw(false);
        prop_assert_eq!(
            fb.to_rgba_vec(), draw(true).to_rgba_vec(), "span and reference lanes diverged"
        );
        let (vx, vy) = (i64::from(vx), i64::from(vy));
        let (vw, vh) = (i64::from(vw), i64::from(vh));
        for y in 0..12u32 {
            for x in 0..12u32 {
                // GL viewport y counts from the bottom of the surface.
                let (gx, gy) = (i64::from(x), 11 - i64::from(y));
                let inside = gx >= vx && gx < vx + vw && gy >= vy && gy < vy + vh;
                let lit = fb.pixel_rgba(x, y).to_bytes() != [0, 0, 0, 0];
                if !inside {
                    prop_assert!(!lit, "pixel ({x},{y}) outside viewport was written");
                }
            }
        }
    }

    #[test]
    fn capabilities_toggle_freely(toggles in prop::collection::vec((0usize..4, any::<bool>()), 0..64)) {
        let caps = [
            Capability::Blend,
            Capability::DepthTest,
            Capability::ScissorTest,
            Capability::Texture2D,
        ];
        let mut c = ctx(GlesVersion::V2, ApiFlavor::Android, 8);
        let mut expect = [false; 4];
        for (idx, on) in toggles {
            if on { c.enable(caps[idx]) } else { c.disable(caps[idx]) }
            expect[idx] = on;
            prop_assert_eq!(c.is_enabled(caps[idx]), expect[idx]);
        }
    }

    #[test]
    fn gen_names_are_unique(count_tex in 0usize..16, count_fb in 0usize..16, count_rb in 0usize..16) {
        let mut c = ctx(GlesVersion::V2, ApiFlavor::Android, 8);
        let mut all: Vec<u32> = Vec::new();
        all.extend(c.gen_textures(count_tex));
        all.extend(c.gen_framebuffers(count_fb));
        all.extend(c.gen_renderbuffers(count_rb));
        let set: std::collections::HashSet<_> = all.iter().collect();
        prop_assert_eq!(set.len(), all.len());
        prop_assert!(!all.contains(&0), "0 is the reserved default name");
    }
}

#[test]
fn registry_population_identities() {
    // Cross-check the registry's internal consistency (beyond the exact
    // Table 1 values asserted in unit tests).
    let reg = GlesRegistry::global();
    let shared = reg
        .std_functions()
        .iter()
        .filter(|f| f.availability == StdAvailability::Shared)
        .count();
    let v1_only = reg
        .std_functions()
        .iter()
        .filter(|f| f.availability == StdAvailability::V1Only)
        .count();
    let v2_only = reg
        .std_functions()
        .iter()
        .filter(|f| f.availability == StdAvailability::V2Only)
        .count();
    assert_eq!(shared + v1_only, 145);
    assert_eq!(shared + v2_only, 142);

    let ios_ext_fns: usize = reg
        .platform_extensions(ApiFlavor::Ios)
        .map(|e| e.functions.len())
        .sum();
    assert_eq!(
        reg.ios_entry_points().len(),
        shared + v1_only + v2_only + ios_ext_fns
    );

    // Common extension functions are exactly those of common extensions.
    let common_fns: usize = reg
        .extensions()
        .iter()
        .filter(|e| e.on_ios && e.on_android)
        .map(|e| e.functions.len())
        .sum();
    assert_eq!(common_fns, 27);

    // No function name appears in two different extensions.
    let mut seen = std::collections::HashSet::new();
    for ext in reg.extensions() {
        for f in &ext.functions {
            assert!(seen.insert(f.clone()), "{f} appears in two extensions");
        }
    }
}
