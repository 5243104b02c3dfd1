//! A miniature WebKit: layout, CPU tile painting, texture upload, GLES
//! composition.
//!
//! "WebKit uses CoreImage, QuartzCore, CoreGraphics, and IOSurface
//! libraries in iOS which together use GLES to accelerate image and
//! graphics processing" (§9). This module reproduces the *graphics shape*
//! of that pipeline: pages are laid out (CPU), painted into CPU tile
//! buffers (the CoreGraphics role), uploaded with `glTexSubImage2D`, and
//! composited with textured-quad `glDrawElements` calls followed by
//! `glFlush` and a present — exactly the call mix Figure 7 charts for
//! SunSpider's dynamic HTML output.

use cycada::AppGl;
use cycada::Result;
use cycada_gles::TexFormat;

use crate::pages::{image_noise, Element, WebPage};

/// Square tile edge length in pixels.
pub const TILE_SIZE: u32 = 256;

/// CPU cost of laying out one element.
const LAYOUT_ELEMENT_NS: f64 = 2_800.0;
/// CPU cost of painting one pixel (the CoreGraphics rasterizer).
const PAINT_PIXEL_NS: f64 = 0.55;

struct Tile {
    texture: u32,
    x: u32,
    y: u32,
    w: u32,
    h: u32,
    pixels: Vec<u8>,
    dirty: bool,
}

/// A tiled WebKit-style rendering view over an [`AppGl`] context.
pub struct WebView {
    tiles: Vec<Tile>,
    width: u32,
    height: u32,
}

impl std::fmt::Debug for WebView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WebView")
            .field("tiles", &self.tiles.len())
            .field("size", &(self.width, self.height))
            .finish()
    }
}

impl WebView {
    /// Creates the tile grid (and its backing textures) for the app's full
    /// render target.
    ///
    /// # Errors
    ///
    /// Returns an error if texture allocation fails.
    pub fn new(app: &AppGl) -> Result<WebView> {
        let (width, height) = (app.width(), app.height());
        let mut tiles = Vec::new();
        let mut y = 0;
        while y < height {
            let h = TILE_SIZE.min(height - y);
            let mut x = 0;
            while x < width {
                let w = TILE_SIZE.min(width - x);
                let pixels = vec![0u8; (w * h * 4) as usize];
                let texture = app.create_texture(w, h, TexFormat::Rgba, &pixels)?;
                tiles.push(Tile {
                    texture,
                    x,
                    y,
                    w,
                    h,
                    pixels,
                    dirty: false,
                });
                x += TILE_SIZE;
            }
            y += TILE_SIZE;
        }
        Ok(WebView {
            tiles,
            width,
            height,
        })
    }

    /// Number of tiles in the grid.
    pub fn tile_count(&self) -> usize {
        self.tiles.len()
    }

    /// Lays out, paints, uploads and composites `page`, then presents.
    ///
    /// # Errors
    ///
    /// Returns an error if any GLES call fails.
    pub fn render_page(&mut self, app: &AppGl, page: &WebPage) -> Result<()> {
        self.layout(app, page)?;
        self.paint(app, page)?;
        self.upload(app)?;
        self.composite(app)?;
        app.present()?;
        Ok(())
    }

    /// Layout pass: pure CPU cost per element.
    fn layout(&self, app: &AppGl, page: &WebPage) -> Result<()> {
        app.charge_cpu(page.elements.len() as f64 * LAYOUT_ELEMENT_NS)
    }

    /// Paint pass: rasterizes elements into the CPU tile buffers (the
    /// CoreGraphics role) and marks touched tiles dirty.
    fn paint(&mut self, app: &AppGl, page: &WebPage) -> Result<()> {
        let (vw, vh) = (self.width as f32, self.height as f32);
        let mut painted_pixels: u64 = 0;
        for tile in &mut self.tiles {
            let (tx0, ty0) = (tile.x as f32, tile.y as f32);
            let (tx1, ty1) = (tx0 + tile.w as f32, ty0 + tile.h as f32);
            for element in &page.elements {
                let (ex, ey, ew, eh) = match element {
                    Element::Box { x, y, w, h, .. }
                    | Element::Text { x, y, w, h, .. }
                    | Element::Image { x, y, w, h, .. } => {
                        (x * vw, y * vh, w * vw, h * vh)
                    }
                };
                // Intersect element with tile.
                let ix0 = ex.max(tx0);
                let iy0 = ey.max(ty0);
                let ix1 = (ex + ew).min(tx1);
                let iy1 = (ey + eh).min(ty1);
                if ix0 >= ix1 || iy0 >= iy1 {
                    continue;
                }
                tile.dirty = true;
                for gy in iy0 as u32..iy1 as u32 {
                    for gx in ix0 as u32..ix1 as u32 {
                        let lx = gx - tile.x;
                        let ly = gy - tile.y;
                        let off = ((ly * tile.w + lx) * 4) as usize;
                        let px = match element {
                            Element::Box { color, .. } => color_bytes(*color),
                            Element::Text { density, color, .. } => {
                                // Deterministic glyph stipple.
                                if glyph_ink(gx, gy, *density) {
                                    color_bytes(*color)
                                } else {
                                    continue;
                                }
                            }
                            Element::Image { seed, .. } => image_noise(*seed, gx, gy),
                        };
                        tile.pixels[off..off + 4].copy_from_slice(&px);
                        painted_pixels += 1;
                    }
                }
            }
        }
        app.charge_cpu(painted_pixels as f64 * PAINT_PIXEL_NS)
    }

    /// Upload pass: `glTexSubImage2D` per dirty tile.
    fn upload(&mut self, app: &AppGl) -> Result<()> {
        for tile in &mut self.tiles {
            if tile.dirty {
                app.update_texture(
                    tile.texture,
                    0,
                    0,
                    tile.w,
                    tile.h,
                    TexFormat::Rgba,
                    &tile.pixels,
                )?;
                tile.dirty = false;
            }
        }
        Ok(())
    }

    /// Composite pass: clear, draw each tile as a textured quad
    /// (`glDrawElements`), flush.
    fn composite(&self, app: &AppGl) -> Result<()> {
        app.clear(1.0, 1.0, 1.0, 1.0)?;
        let (vw, vh) = (self.width as f32, self.height as f32);
        for tile in &self.tiles {
            // Tile rectangle in NDC; image y-down maps to NDC y-up.
            let x0 = tile.x as f32 / vw * 2.0 - 1.0;
            let x1 = (tile.x + tile.w) as f32 / vw * 2.0 - 1.0;
            let y1 = 1.0 - tile.y as f32 / vh * 2.0;
            let y0 = 1.0 - (tile.y + tile.h) as f32 / vh * 2.0;
            app.draw_textured_quad_indexed(tile.texture, x0, y0, x1, y1)?;
        }
        app.flush()?;
        Ok(())
    }

    /// Scrolls the view: repaints the page at a vertical offset. Only the
    /// tiles whose content actually changed are re-uploaded — the partial
    /// `glTexSubImage2D` traffic of a real WebKit scroll.
    ///
    /// # Errors
    ///
    /// Returns an error if upload or composition fails.
    pub fn scroll_page(&mut self, app: &AppGl, page: &WebPage, offset_frac: f32) -> Result<()> {
        // Shift every element up by the scroll offset and re-render.
        let scrolled = WebPage {
            name: format!("{}@{offset_frac}", page.name),
            elements: page
                .elements
                .iter()
                .map(|e| match e.clone() {
                    Element::Box { x, y, w, h, color } => Element::Box {
                        x,
                        y: y - offset_frac,
                        w,
                        h,
                        color,
                    },
                    Element::Text { x, y, w, h, density, color } => Element::Text {
                        x,
                        y: y - offset_frac,
                        w,
                        h,
                        density,
                        color,
                    },
                    Element::Image { x, y, w, h, seed } => Element::Image {
                        x,
                        y: y - offset_frac,
                        w,
                        h,
                        seed,
                    },
                })
                .collect(),
        };
        self.render_page(app, &scrolled)
    }

    /// Drops all tile textures (the `glDeleteTextures` path Figure 7
    /// charts; WebKit recycles tiles as pages change).
    ///
    /// # Errors
    ///
    /// Returns an error if deletion fails.
    pub fn recycle_tiles(&mut self, app: &AppGl) -> Result<()> {
        let names: Vec<u32> = self.tiles.iter().map(|t| t.texture).collect();
        app.delete_textures(&names)?;
        for (tile, pixels) in self.tiles.iter_mut().map(|t| {
            let blank = vec![0u8; (t.w * t.h * 4) as usize];
            (t, blank)
        }) {
            tile.pixels = pixels;
            tile.dirty = false;
        }
        // Recreate textures.
        for tile in &mut self.tiles {
            tile.texture = app.create_texture(tile.w, tile.h, TexFormat::Rgba, &tile.pixels)?;
        }
        Ok(())
    }
}

fn color_bytes(c: [f32; 4]) -> [u8; 4] {
    [
        (c[0].clamp(0.0, 1.0) * 255.0).round() as u8,
        (c[1].clamp(0.0, 1.0) * 255.0).round() as u8,
        (c[2].clamp(0.0, 1.0) * 255.0).round() as u8,
        (c[3].clamp(0.0, 1.0) * 255.0).round() as u8,
    ]
}

/// Deterministic glyph-ink predicate (a stipple that looks like text rows).
fn glyph_ink(x: u32, y: u32, density: f32) -> bool {
    // Lines of "text": 12-pixel line height, 9 pixels of ink rows.
    if y % 12 >= 9 {
        return false;
    }
    let h = x.wrapping_mul(0x9E37).wrapping_add(y.wrapping_mul(0x85EB)) % 100;
    (h as f32) < density * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycada_gles::GlesVersion;
    use cycada_sim::Platform;

    #[test]
    fn tile_grid_covers_display() {
        let app = AppGl::boot(Platform::StockAndroid, GlesVersion::V2).unwrap();
        let view = WebView::new(&app).unwrap();
        // 1280x800 display with 256px tiles: 5 x 4 = 20 tiles.
        assert_eq!(view.tile_count(), 20);
    }

    const SMALL: Option<(u32, u32)> = Some((192, 128));

    #[test]
    fn page_render_reaches_display_identically_on_android_paths() {
        let page = WebPage::for_site("wikipedia.org");

        let app_a = AppGl::boot_with_display(Platform::StockAndroid, GlesVersion::V2, SMALL).unwrap();
        let mut view_a = WebView::new(&app_a).unwrap();
        view_a.render_page(&app_a, &page).unwrap();
        let hash_a = app_a.display().scanout().to_vec();

        let app_b = AppGl::boot_with_display(Platform::CycadaAndroid, GlesVersion::V2, SMALL).unwrap();
        let mut view_b = WebView::new(&app_b).unwrap();
        view_b.render_page(&app_b, &page).unwrap();
        let hash_b = app_b.display().scanout().to_vec();

        assert_eq!(hash_a, hash_b, "same panel, same pixels");
    }

    #[test]
    fn cycada_ios_renders_pixel_identical_to_android() {
        // The §9 claim: pages render "correctly and appeared visually
        // similar"; on the same panel our deterministic pipeline is
        // pixel-exact.
        let page = WebPage::for_site("google.com");

        let android = AppGl::boot_with_display(Platform::StockAndroid, GlesVersion::V2, SMALL).unwrap();
        let mut view_a = WebView::new(&android).unwrap();
        view_a.render_page(&android, &page).unwrap();

        let cycada = AppGl::boot_with_display(Platform::CycadaIos, GlesVersion::V2, SMALL).unwrap();
        let mut view_c = WebView::new(&cycada).unwrap();
        view_c.render_page(&cycada, &page).unwrap();

        assert_eq!(
            android.display().scanout().to_vec(),
            cycada.display().scanout().to_vec(),
            "iOS app through the bridge renders pixel-for-pixel like native Android"
        );
    }

    #[test]
    fn rendering_charges_virtual_time_and_uses_expected_calls() {
        let app = AppGl::boot_with_display(Platform::CycadaIos, GlesVersion::V2, SMALL).unwrap();
        let mut view = WebView::new(&app).unwrap();
        let before = cycada_sim::clock::now_ns();
        view.render_page(&app, &WebPage::for_site("cnn.com")).unwrap();
        assert!(cycada_sim::clock::now_ns() > before);
        let stats = app.gl_stats().unwrap();
        for name in [
            "glTexSubImage2D",
            "glDrawElements",
            "glBindTexture",
            "glClear",
            "glFlush",
            "eglSwapBuffers",
            "aegl_bridge_draw_fbo_tex",
        ] {
            assert!(
                stats.get(name).is_some(),
                "{name} should appear in the call mix"
            );
        }
    }

    #[test]
    fn scrolling_changes_the_frame_deterministically() {
        let app = AppGl::boot_with_display(Platform::StockAndroid, GlesVersion::V2, SMALL).unwrap();
        let mut view = WebView::new(&app).unwrap();
        let page = WebPage::for_site("reddit.com");
        view.render_page(&app, &page).unwrap();
        let top = app.display().scanout().to_vec();
        view.scroll_page(&app, &page, 0.25).unwrap();
        let scrolled = app.display().scanout().to_vec();
        assert_ne!(top, scrolled, "scroll changes the frame");
        // Scrolling back reproduces the original frame exactly.
        view.scroll_page(&app, &page, 0.0).unwrap();
        assert_eq!(app.display().scanout().to_vec(), top);
    }

    #[test]
    fn recycle_tiles_reallocates() {
        let app = AppGl::boot_with_display(Platform::StockAndroid, GlesVersion::V2, SMALL).unwrap();
        let mut view = WebView::new(&app).unwrap();
        view.render_page(&app, &WebPage::acid()).unwrap();
        view.recycle_tiles(&app).unwrap();
        // Rendering still works after recycling.
        view.render_page(&app, &WebPage::acid()).unwrap();
    }
}
