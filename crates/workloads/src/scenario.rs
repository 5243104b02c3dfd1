//! The mixed workload scenarios a fleet or replay session can run.
//!
//! Every scenario drives an attached [`AppGl`] session through the same
//! deterministic call sequence whether it runs inside a fleet or solo on
//! a private device, so the session plane's determinism contract
//! (DESIGN.md §5c) carries over wholesale: per-session framebuffer bytes
//! and metered virtual time are functions of `(scenario, seed, frames)`
//! alone, never of fleet interleaving.
//!
//! Each scenario's [`setup`] ends with one warm-up frame that executes
//! the full per-frame entry-point set, so device-global one-time costs
//! (diplomat symbol resolution is charged once per *device*) land
//! outside the metered scope regardless of which fleet session runs
//! first on a device.

use cycada::{AppGl, CycadaError, Result};
use cycada_gles::{GlesVersion, Primitive, TexFormat};

use crate::pages::WebPage;
use crate::webkit::WebView;

/// A fleet session's workload flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// PassMark-style frames: clear + rotated triangle + textured quad.
    Passmark,
    /// WebKit browser: a laid-out page rendered once, then scrolled.
    Browser,
    /// Multi-context GLES 2.0 game frame: two textures, nested
    /// transforms, scissored sub-draws.
    MultiGles,
    /// Partial-update scene: a small scissored badge redraw per frame on
    /// an otherwise static screen.
    PartialUpdate,
    /// Texture-streaming / asset-upload churn: every frame uploads a new
    /// texture, mutates the oldest surviving one, draws the newest
    /// assets, and retires the oldest (the NSBundle asset-loading axis).
    AssetChurn,
    /// Background/foreground context loss: every frame the app loses its
    /// textures (backgrounded), reloads them (foregrounded), and redraws
    /// the full scene.
    ContextLoss,
    /// A recorded `.cyt` call stream replayed through the same entry
    /// points (`cycada-replay` drives it; [`setup`]/[`frame`] reject it).
    Replay,
}

impl Scenario {
    /// The scenarios in the fleet's default round-robin mix. Kept at the
    /// original four so mix-dependent results (BENCH_fleet.json, solo
    /// parity fixtures) stay stable; the corpus list below is the
    /// superset new workloads join.
    pub const ALL: [Scenario; 4] = [
        Scenario::Passmark,
        Scenario::Browser,
        Scenario::MultiGles,
        Scenario::PartialUpdate,
    ];

    /// Every recordable scenario, in corpus order (tests/corpus/).
    pub const CORPUS: [Scenario; 6] = [
        Scenario::Passmark,
        Scenario::Browser,
        Scenario::MultiGles,
        Scenario::PartialUpdate,
        Scenario::AssetChurn,
        Scenario::ContextLoss,
    ];

    /// Stable name used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Scenario::Passmark => "passmark",
            Scenario::Browser => "browser",
            Scenario::MultiGles => "multi-gles",
            Scenario::PartialUpdate => "partial-update",
            Scenario::AssetChurn => "asset-churn",
            Scenario::ContextLoss => "context-loss",
            Scenario::Replay => "replay",
        }
    }

    /// The scenario the fleet's default round-robin mix assigns to
    /// session `index`.
    pub fn mix(index: usize) -> Scenario {
        Scenario::ALL[index % Scenario::ALL.len()]
    }

    /// The GLES version the scenario's session attaches with.
    pub fn gles_version(self) -> GlesVersion {
        match self {
            Scenario::MultiGles | Scenario::AssetChurn => GlesVersion::V2,
            _ => GlesVersion::V1,
        }
    }
}

/// Per-session scenario state carried between frames.
pub enum ScenarioState {
    /// Texture name for the quad.
    Passmark {
        /// The quad texture.
        tex: u32,
    },
    /// Live web view plus the page it renders.
    Browser {
        /// The rendering web view.
        view: Box<WebView>,
        /// The laid-out page being scrolled.
        page: Box<WebPage>,
    },
    /// The two textures the game alternates between.
    MultiGles {
        /// First sprite texture.
        tex_a: u32,
        /// Second sprite texture.
        tex_b: u32,
    },
    /// Badge texture for the scissored redraws.
    PartialUpdate {
        /// The badge texture.
        tex: u32,
    },
    /// Texture-streaming state.
    AssetChurn {
        /// Ring of live streamed assets, oldest first.
        ring: Vec<u32>,
        /// Textures ever created (salts each upload's content).
        created: u32,
    },
    /// Background/foreground churn state.
    ContextLoss {
        /// Textures of the current foreground generation.
        texs: Vec<u32>,
        /// Reload generation counter (each reload uploads fresh content).
        generation: u32,
    },
}

impl std::fmt::Debug for ScenarioState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let label = match self {
            ScenarioState::Passmark { .. } => "Passmark",
            ScenarioState::Browser { .. } => "Browser",
            ScenarioState::MultiGles { .. } => "MultiGles",
            ScenarioState::PartialUpdate { .. } => "PartialUpdate",
            ScenarioState::AssetChurn { .. } => "AssetChurn",
            ScenarioState::ContextLoss { .. } => "ContextLoss",
        };
        f.debug_struct("ScenarioState").field("scenario", &label).finish()
    }
}

/// Deterministic RGBA texel data parameterised by the session seed.
fn texels(seed: u64, salt: u8, count: usize) -> Vec<u8> {
    (0..count as u32)
        .flat_map(|i| {
            let v = (seed as u8)
                .wrapping_mul(31)
                .wrapping_add(salt)
                .wrapping_add((i as u8).wrapping_mul(5));
            [v, v ^ 0x3c, v.wrapping_add(salt), 255]
        })
        .collect()
}

/// Builds the scenario's session state and runs one unmetered warm-up
/// frame (see module docs).
pub fn setup(app: &mut AppGl, scenario: Scenario, seed: u64) -> Result<ScenarioState> {
    let mut state = match scenario {
        Scenario::Passmark => {
            let tex = app.create_texture(2, 2, TexFormat::Rgba, &texels(seed, 1, 4))?;
            ScenarioState::Passmark { tex }
        }
        Scenario::Browser => {
            let mut view = Box::new(WebView::new(app)?);
            let site = ["news", "shop", "docs", "mail"][(seed % 4) as usize];
            let page = Box::new(WebPage::for_site(site));
            view.render_page(app, &page)?;
            ScenarioState::Browser { view, page }
        }
        Scenario::MultiGles => {
            let tex_a = app.create_texture(4, 4, TexFormat::Rgba, &texels(seed, 2, 16))?;
            let tex_b = app.create_texture(2, 2, TexFormat::Rgba, &texels(seed, 3, 4))?;
            ScenarioState::MultiGles { tex_a, tex_b }
        }
        Scenario::PartialUpdate => {
            let tex = app.create_texture(2, 2, TexFormat::Rgba, &texels(seed, 4, 4))?;
            ScenarioState::PartialUpdate { tex }
        }
        Scenario::AssetChurn => {
            let mut ring = Vec::with_capacity(4);
            for slot in 0..3u32 {
                ring.push(app.create_texture(
                    4,
                    4,
                    TexFormat::Rgba,
                    &texels(seed, 10 + slot as u8, 16),
                )?);
            }
            ScenarioState::AssetChurn { ring, created: 3 }
        }
        Scenario::ContextLoss => {
            let texs = vec![
                app.create_texture(2, 2, TexFormat::Rgba, &texels(seed, 20, 4))?,
                app.create_texture(2, 2, TexFormat::Rgba, &texels(seed, 21, 4))?,
            ];
            ScenarioState::ContextLoss { texs, generation: 0 }
        }
        Scenario::Replay => {
            return Err(CycadaError::UnsupportedPlatform(
                "the replay scenario is driven by cycada-replay, not scripted".to_owned(),
            ));
        }
    };
    frame(app, &mut state, seed, 0)?;
    Ok(state)
}

/// Drives one frame of the scenario. The entry-point set is identical
/// for every `f`; only the parameters vary, so the warm-up frame covers
/// every symbol the metered frames resolve.
pub fn frame(app: &mut AppGl, state: &mut ScenarioState, seed: u64, f: u32) -> Result<()> {
    match state {
        ScenarioState::Passmark { tex } => {
            let tri = [-0.8f32, -0.6, 0.0, 0.8, -0.6, 0.0, 0.0, 0.9, 0.0];
            let r = ((seed.wrapping_mul(37).wrapping_add(u64::from(f) * 11)) % 255) as f32 / 255.0;
            app.clear(r, 0.25, 1.0 - r, 1.0)?;
            app.rotate(((seed % 360) as f32 * 13.0 + f as f32 * 7.0) % 360.0)?;
            app.draw(Primitive::Triangles, &tri, [r, 0.8, 0.3, 1.0])?;
            app.draw_textured_quad(*tex, -0.5, -0.5, 0.5, 0.5)?;
            app.present()?;
        }
        ScenarioState::Browser { view, page } => {
            // Scroll through the page; the fraction cycles so long runs
            // keep producing distinct (but deterministic) frames.
            let frac = ((seed.wrapping_add(u64::from(f) * 7)) % 10) as f32 / 10.0;
            view.scroll_page(app, page, frac)?;
        }
        ScenarioState::MultiGles { tex_a, tex_b } => {
            let g = ((seed.wrapping_mul(29).wrapping_add(u64::from(f) * 13)) % 255) as f32 / 255.0;
            app.clear(0.1, g, 0.3, 1.0)?;
            // Scissored HUD redraw in one corner, then the two textured
            // sprites under nested transforms.
            app.set_scissor(0, 0, app.width() / 4, app.height() / 4)?;
            app.clear(g, g, 0.0, 1.0)?;
            app.set_scissor(0, 0, app.width(), app.height())?;
            app.push_transform()?;
            app.rotate(((seed % 360) as f32 * 11.0 + f as f32 * 17.0) % 360.0)?;
            app.draw_textured_quad(*tex_a, -0.7, -0.7, 0.1, 0.1)?;
            app.pop_transform()?;
            app.push_transform()?;
            app.translate(0.4, -0.2, 0.0)?;
            app.scale(0.5, 0.5, 1.0)?;
            app.draw_textured_quad(*tex_b, 0.0, 0.0, 0.8, 0.8)?;
            app.pop_transform()?;
            app.present()?;
        }
        ScenarioState::PartialUpdate { tex } => {
            // Static background established by the warm-up; each frame
            // only a small scissored badge region redraws, which is what
            // keeps the compositor's clean-tile skips busy fleet-wide.
            let bx = ((seed.wrapping_add(u64::from(f) * 3)) % 4) as i32 * (app.width() as i32 / 8);
            app.set_scissor(bx, 0, app.width() / 8, app.height() / 8)?;
            let b = ((seed.wrapping_mul(53).wrapping_add(u64::from(f) * 19)) % 255) as f32 / 255.0;
            app.clear(1.0 - b, b, 0.5, 1.0)?;
            app.set_scissor(0, 0, app.width(), app.height())?;
            app.draw_textured_quad(*tex, -0.1, -0.1, 0.1, 0.1)?;
            app.present()?;
        }
        ScenarioState::AssetChurn { ring, created } => {
            // Stream one new asset in, mutate the oldest survivor, draw
            // the three newest, retire the oldest. The live set stays at
            // three so every frame (warm-up included) exercises the same
            // entry-point set: create, update, clear, quads, delete,
            // present.
            let salt = 10u8.wrapping_add((*created % 23) as u8);
            let tex = app.create_texture(4, 4, TexFormat::Rgba, &texels(seed, salt, 16))?;
            *created += 1;
            ring.push(tex);
            let oldest = ring[0];
            app.update_texture(
                oldest,
                1,
                1,
                2,
                2,
                TexFormat::Rgba,
                &texels(seed, salt ^ 0x55, 4),
            )?;
            let c = ((seed.wrapping_mul(41).wrapping_add(u64::from(f) * 23)) % 255) as f32 / 255.0;
            app.clear(0.05, c, 0.2, 1.0)?;
            let n = ring.len();
            for (i, t) in ring[n - 3..].iter().enumerate() {
                let x = -0.8 + i as f32 * 0.6 + (f % 3) as f32 * 0.05;
                app.draw_textured_quad(*t, x, -0.4, x + 0.5, 0.4)?;
            }
            let dead = ring.remove(0);
            app.delete_textures(&[dead])?;
            app.present()?;
        }
        ScenarioState::ContextLoss { texs, generation } => {
            // Backgrounded: the app loses its GL assets. Foregrounded:
            // reload everything and repaint the whole screen. Doing the
            // full cycle every frame keeps the entry-point set constant
            // and makes this the allocator-churn worst case the asset
            // planes have to survive.
            app.delete_textures(texs)?;
            *generation += 1;
            let g = (*generation % 100) as u8;
            *texs = vec![
                app.create_texture(2, 2, TexFormat::Rgba, &texels(seed, g.wrapping_mul(2), 4))?,
                app.create_texture(
                    2,
                    2,
                    TexFormat::Rgba,
                    &texels(seed, g.wrapping_mul(2).wrapping_add(1), 4),
                )?,
            ];
            let r = ((seed.wrapping_mul(59).wrapping_add(u64::from(f) * 31)) % 255) as f32 / 255.0;
            app.clear(r, 0.1, 1.0 - r, 1.0)?;
            let tri = [-0.6f32, -0.5, 0.0, 0.6, -0.5, 0.0, 0.0, 0.7, 0.0];
            app.draw(Primitive::Triangles, &tri, [0.9, r, 0.2, 1.0])?;
            app.draw_textured_quad(texs[0], -0.8, -0.8, -0.3, -0.3)?;
            app.draw_textured_quad(texs[1], 0.3, 0.3, 0.8, 0.8)?;
            app.present()?;
        }
    }
    Ok(())
}
