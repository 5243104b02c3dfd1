//! End-to-end pipeline tests: iOS app code through the Cycada bridge to
//! the display, compared against the native paths.

use cycada::{AppGl, CycadaDevice, LIBEGLBRIDGE};
use cycada_diplomat::{DiplomatEntry, DiplomatPattern, HookKind};
use cycada_gles::{GlesVersion, Primitive};
use cycada_gpu::PixelFormat;
use cycada_sim::{clock, Nanos, Persona, Platform};

const SMALL: Option<(u32, u32)> = Some((128, 96));

fn triangle() -> [f32; 9] {
    [-1.0, -1.0, 0.0, 3.0, -1.0, 0.0, -1.0, 3.0, 0.0]
}

#[test]
fn cycada_ios_renders_to_display_through_the_whole_stack() {
    let app = AppGl::boot_with_display(Platform::CycadaIos, GlesVersion::V1, SMALL).unwrap();
    app.clear(0.0, 0.0, 0.0, 1.0).unwrap();
    app.draw(Primitive::Triangles, &triangle(), [1.0, 0.0, 0.0, 1.0])
        .unwrap();
    app.present().unwrap();
    assert_eq!(app.display().pixel(20, 20), [255, 0, 0, 255]);
    assert_eq!(app.display().frames_presented(), 1);
}

#[test]
fn all_four_platforms_render_the_same_scene() {
    let mut hashes = Vec::new();
    for platform in [
        Platform::StockAndroid,
        Platform::CycadaAndroid,
        Platform::CycadaIos,
        Platform::NativeIos,
    ] {
        let app = AppGl::boot_with_display(platform, GlesVersion::V1, SMALL).unwrap();
        app.clear(0.0, 0.0, 0.2, 1.0).unwrap();
        app.draw(Primitive::Triangles, &triangle(), [0.0, 1.0, 0.0, 1.0])
            .unwrap();
        app.present().unwrap();
        let hash: u64 = {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in app.display().scanout().to_vec() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            h
        };
        hashes.push((platform, hash));
    }
    // Pixel-for-pixel identical output across every configuration.
    let first = hashes[0].1;
    for (platform, hash) in &hashes {
        assert_eq!(*hash, first, "{platform:?} diverged");
    }
}

#[test]
fn diplomat_calls_switch_personas_around_every_gl_call() {
    let app = AppGl::boot_with_display(Platform::CycadaIos, GlesVersion::V1, SMALL).unwrap();
    let device = app.cycada_device().unwrap();
    let kernel = device.kernel();
    let before = kernel.syscall_counts().set_persona;
    app.clear(0.0, 0.0, 0.0, 1.0).unwrap();
    let after = kernel.syscall_counts().set_persona;
    // clear_color + clear = 2 diplomats = 4 persona switches.
    assert_eq!(after - before, 4);
    // And the thread ends back in its iOS persona.
    assert_eq!(
        kernel.current_persona(app.tid()).unwrap(),
        Persona::Ios
    );
}

#[test]
fn v2_path_works_through_the_bridge() {
    let app = AppGl::boot_with_display(Platform::CycadaIos, GlesVersion::V2, SMALL).unwrap();
    app.clear(0.0, 0.0, 0.0, 1.0).unwrap();
    app.draw(Primitive::Triangles, &triangle(), [0.0, 0.0, 1.0, 1.0])
        .unwrap();
    app.present().unwrap();
    assert_eq!(app.display().pixel(10, 10), [0, 0, 255, 255]);
}

#[test]
fn transform_stack_matches_across_v1_gl_and_v2_uniform_paths() {
    let render = |version| {
        let mut app =
            AppGl::boot_with_display(Platform::StockAndroid, version, SMALL).unwrap();
        app.clear(0.0, 0.0, 0.0, 1.0).unwrap();
        app.push_transform().unwrap();
        app.rotate(90.0).unwrap();
        app.scale(0.5, 0.5, 1.0).unwrap();
        app.draw(Primitive::Triangles, &triangle(), [1.0, 1.0, 0.0, 1.0])
            .unwrap();
        app.pop_transform().unwrap();
        app.present().unwrap();
        app.display().scanout().to_vec()
    };
    assert_eq!(render(GlesVersion::V1), render(GlesVersion::V2));
}

#[test]
fn eagl_present_goes_through_draw_fbo_tex_and_swap() {
    let app = AppGl::boot_with_display(Platform::CycadaIos, GlesVersion::V1, SMALL).unwrap();
    app.clear(1.0, 0.5, 0.0, 1.0).unwrap();
    app.present().unwrap();
    let stats = app.gl_stats().unwrap();
    // The §5 presentRenderbuffer path.
    assert!(stats.get("aegl_bridge_draw_fbo_tex").is_some());
    assert!(stats.get("eglSwapBuffers").is_some());
    // Its cost is dominated by the full-screen quad + composition, not the
    // diplomat mechanism.
    let draw_fbo = stats.get("aegl_bridge_draw_fbo_tex").unwrap();
    assert!(draw_fbo.avg_ns() > 10_000.0);
}

#[test]
fn apple_fence_maps_to_nv_fence_on_cycada() {
    let app = AppGl::boot_with_display(Platform::CycadaIos, GlesVersion::V1, SMALL).unwrap();
    let device = app.cycada_device().unwrap();
    let bridge = device.bridge();
    let tid = app.tid();

    let fence = bridge.gen_fences_apple(tid, 1).unwrap()[0];
    app.draw(Primitive::Triangles, &triangle(), [1.0, 1.0, 1.0, 1.0])
        .unwrap();
    bridge.set_fence_apple(tid, fence).unwrap();
    assert!(!bridge.test_fence_apple(tid, fence).unwrap());
    bridge.finish_fence_apple(tid, fence).unwrap();
    assert!(bridge.test_fence_apple(tid, fence).unwrap());
    bridge.delete_fences_apple(tid, &[fence]).unwrap();

    // The bridge recorded these as indirect diplomats.
    assert_eq!(
        bridge.called_pattern("glSetFenceAPPLE"),
        Some(cycada_diplomat::DiplomatPattern::Indirect)
    );
}

#[test]
fn gl_get_string_reports_android_extensions_and_apple_param_is_custom() {
    let app = AppGl::boot_with_display(Platform::CycadaIos, GlesVersion::V1, SMALL).unwrap();
    let device = app.cycada_device().unwrap();
    let bridge = device.bridge();
    let tid = app.tid();

    let exts = bridge
        .get_string(tid, cycada_gles::StringName::Extensions)
        .unwrap()
        .unwrap();
    assert!(exts.contains("GL_NV_fence"), "Android extension string");

    // Apple's proprietary parameter: answered in foreign code with a
    // custom (empty) string, not an error.
    let apple = bridge
        .get_string(tid, cycada_gles::StringName::AppleExtensions)
        .unwrap();
    assert_eq!(apple, Some(String::new()));
}

#[test]
fn apple_row_bytes_repack_round_trips_through_the_bridge() {
    let app = AppGl::boot_with_display(Platform::CycadaIos, GlesVersion::V2, SMALL).unwrap();
    let device = app.cycada_device().unwrap();
    let bridge = device.bridge();
    let tid = app.tid();

    // Upload a 2x2 texture from 12-byte rows (APPLE_row_bytes).
    bridge
        .pixel_storei(tid, cycada_gles::PixelStoreParam::UnpackRowBytesApple, 12)
        .unwrap();
    let mut data = vec![0u8; 24];
    data[0..4].copy_from_slice(&[255, 0, 0, 255]);
    data[12..16].copy_from_slice(&[0, 255, 0, 255]);
    let tex = bridge.gen_textures(tid, 1).unwrap()[0];
    bridge.bind_texture(tid, tex).unwrap();
    bridge
        .tex_image_2d(tid, 2, 2, cycada_gles::TexFormat::Rgba, Some(&data))
        .unwrap();
    // No GL error on the Android side: the unknown enum never reached it.
    assert_eq!(
        bridge.get_error(tid).unwrap(),
        cycada_gles::GlError::NoError
    );

    // Read pixels back with a padded pack stride.
    bridge
        .pixel_storei(tid, cycada_gles::PixelStoreParam::PackRowBytesApple, 20)
        .unwrap();
    bridge.clear_color(tid, 0.0, 0.0, 1.0, 1.0).unwrap();
    bridge.clear(tid, true, false).unwrap();
    let out = bridge
        .read_pixels(tid, 0, 0, 2, 2, cycada_gles::TexFormat::Rgba)
        .unwrap();
    assert_eq!(out.len(), 40, "rows padded to 20 bytes");
    assert_eq!(&out[0..4], &[0, 0, 255, 255]);
    assert_eq!(&out[20..24], &[0, 0, 255, 255]);
}

#[test]
fn bgra_textures_are_swizzled_for_the_tegra() {
    let app = AppGl::boot_with_display(Platform::CycadaIos, GlesVersion::V2, SMALL).unwrap();
    // BGRA bytes for pure red: [0, 0, 255, 255].
    let tex = app
        .create_texture(1, 1, cycada_gles::TexFormat::Bgra, &[0, 0, 255, 255])
        .unwrap();
    app.clear(0.0, 0.0, 0.0, 1.0).unwrap();
    app.draw_textured_quad(tex, -1.0, -1.0, 1.0, 1.0).unwrap();
    app.present().unwrap();
    assert_eq!(
        app.display().pixel(5, 5),
        [255, 0, 0, 255],
        "red BGRA texel displayed as red"
    );
}

#[test]
fn extensions_differ_per_platform_as_apps_see_them() {
    let cycada = AppGl::boot_with_display(Platform::CycadaIos, GlesVersion::V1, SMALL).unwrap();
    let cycada_exts = cycada.extensions().unwrap().unwrap();
    assert!(cycada_exts.contains("GL_NV_fence"));

    let ios = AppGl::boot_with_display(Platform::NativeIos, GlesVersion::V1, SMALL).unwrap();
    let ios_exts = ios.extensions().unwrap().unwrap();
    assert!(ios_exts.contains("GL_APPLE_fence"));
    assert!(!ios_exts.contains("GL_NV_fence"));
}

/// One present of a BGRA drawable whose R and B differ at every pixel,
/// on a 64×48 panel, with the GPU in span or reference mode. A
/// `drawable` of the panel size takes the quad's identity lane (span
/// mode); a half-size one takes the rasterized quad. Pins the present
/// path's bytes and charges: one full-frame pass, and a
/// `aegl_bridge_copy_tex_buf` that charges a same-size blit of the
/// drawable and moves nothing.
fn pin_present(reference: bool, drawable: (u32, u32)) {
    const PANEL: (u32, u32) = (64, 48);
    let (w, h) = drawable;
    let dev = CycadaDevice::boot_with_display(Some(PANEL)).unwrap();
    dev.gpu().set_reference_raster(reference);
    let tid = dev.main_tid();
    let eagl = dev.eagl();
    let ctx = eagl.init_with_api(tid, GlesVersion::V1).unwrap();
    eagl.set_current_context(tid, Some(ctx)).unwrap();
    eagl.renderbuffer_storage_from_drawable(tid, ctx, w, h)
        .unwrap();
    let image = eagl.drawable_image(ctx).unwrap();
    assert_eq!(image.format(), PixelFormat::Bgra8888);
    let rgb = |x: u32, y: u32| {
        let r = (x * 7 + y * 13) as u8;
        [r, (x ^ (y * 3)) as u8, r ^ 0x5a]
    };
    image.map_rows(|rows| {
        for y in 0..h {
            for (x, px) in rows.row_mut(y).chunks_exact_mut(4).enumerate() {
                let [r, g, b] = rgb(x as u32, y);
                px.copy_from_slice(&[b, g, r, 255]);
            }
        }
    });
    // Warm-up present: resolves every diplomat symbol on the path.
    eagl.present_renderbuffer(tid, ctx).unwrap();

    // The back buffer the next present draws into.
    let back = eagl
        .android_egl()
        .gles_for_thread(tid)
        .unwrap()
        .with_current(tid, |c| c.default_framebuffer())
        .unwrap();
    assert_eq!(back.format(), PixelFormat::Rgba8888);
    let engine = dev.engine();
    let copies = || engine.stats().get("aegl_bridge_copy_tex_buf").unwrap();
    let (gpu0, copy0) = (dev.gpu().stats(), copies());
    eagl.present_renderbuffer(tid, ctx).unwrap();
    let (gpu1, copy1) = (dev.gpu().stats(), copies());

    // Bytes: the drawable with R and B swapped, sampled nearest at pixel
    // centers when scaled (an exact halving here).
    let expected: Vec<u8> = (0..PANEL.1)
        .flat_map(|y| {
            (0..PANEL.0).flat_map(move |x| {
                let [r, g, b] = rgb(x * w / PANEL.0, y * h / PANEL.1);
                [r, g, b, 255]
            })
        })
        .collect();
    let mode = if reference { "reference" } else { "spans" };
    assert_eq!(back.to_rgba_vec(), expected, "{mode} {w}x{h}: back buffer");
    assert_eq!(
        dev.kernel().display().scanout().to_vec(),
        expected,
        "{mode} {w}x{h}: scanout"
    );

    // Charges: one copy_tex_buf per present, costing the diplomat itself
    // plus one submit and the copy cost of a w×h 2D blit.
    let empty = DiplomatEntry::new(
        "pin_present_empty_multi",
        LIBEGLBRIDGE,
        "aegl_bridge_copy_tex_buf",
        DiplomatPattern::Multi,
        HookKind::Gles,
    );
    engine.call(tid, &empty, || ()).unwrap();
    let start = clock::now_ns();
    engine.call(tid, &empty, || ()).unwrap();
    let diplomat_ns = clock::now_ns() - start;
    let cost = dev.gpu().cost_model();
    let copy_ns = cost.command_submit_ns
        + (f64::from(w * h) * 4.0 * cost.per_copy_byte_ns * cost.scale_2d).round() as Nanos;
    assert_eq!(copy1.calls - copy0.calls, 1, "{mode} {w}x{h}");
    assert_eq!(
        copy1.total_ns - copy0.total_ns,
        diplomat_ns + copy_ns,
        "{mode} {w}x{h}: copy_tex_buf ledger charge"
    );

    // GPU stats: the copy's blit, the quad, the flinger's layer blit.
    assert_eq!(gpu1.commands - gpu0.commands, 3, "{mode} {w}x{h}");
    assert_eq!(gpu1.blits - gpu0.blits, 2, "{mode} {w}x{h}");
    assert_eq!(gpu1.draws - gpu0.draws, 1, "{mode} {w}x{h}");
    assert_eq!(
        gpu1.fragments - gpu0.fragments,
        u64::from(PANEL.0 * PANEL.1),
        "{mode} {w}x{h}"
    );
    assert_eq!(gpu1.presents - gpu0.presents, 1, "{mode} {w}x{h}");
}

#[test]
fn present_is_one_swizzled_pass_with_the_copy_charged() {
    for reference in [false, true] {
        pin_present(reference, (64, 48));
        pin_present(reference, (32, 24));
    }
}
