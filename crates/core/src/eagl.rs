//! The EAGL reimplementation (§5).
//!
//! "Graphics resource management, including display and window management,
//! is done in iOS using Apple's own EAGL Objective-C API ... There is no
//! direct mapping from EAGL to EGL, requiring Cycada to implement
//! substantial logic to support EAGL." The API has 17 methods: 6 are
//! supported by multi diplomats (coalesced in libEGLbridge), 10 are
//! implemented from scratch (they are trivial state accessors), and 1 is
//! never called by real apps and left unimplemented — the same 6/10/1
//! split the paper reports.
//!
//! EAGL "only allows rendering to an off-screen (non-default) framebuffer"
//! whose color renderbuffer is backed by an IOSurface; `presentRenderbuffer`
//! moves those pixels to the screen. On Cycada that path is the full-screen
//! textured quad of `aegl_bridge_draw_fbo_tex` followed by
//! `eglSwapBuffers` (§5).

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use cycada_egl::{AndroidEgl, EglContextId, EglSurfaceId, McConnectionId};
use cycada_gles::GlesVersion;
use cycada_iosurface::{IOSurface, SurfaceProps};
use cycada_kernel::SimTid;
use cycada_sim::trace;

use crate::bridge::GlesBridge;
use crate::egl_bridge::EglBridge;
use crate::error::CycadaError;
use crate::iosurface_bridge::IoSurfaceBridge;
use crate::Result;

/// Handle to an EAGLContext.
pub type EaglContextId = u32;

/// How each of the 17 EAGL methods is implemented (the Table-of-§5 census).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EaglMethodKind {
    /// Implemented via multi diplomats in libEGLbridge.
    MultiDiplomat,
    /// Implemented from scratch (trivial foreign-side logic).
    Scratch,
    /// Not implemented: never called by any tested app.
    NeverCalled,
}

/// The 17 EAGL methods and their implementation category (§5: 6 multi, 10
/// scratch, 1 never called).
pub const EAGL_METHODS: &[(&str, EaglMethodKind)] = &[
    ("initWithAPI:sharegroup:", EaglMethodKind::MultiDiplomat),
    ("setCurrentContext:", EaglMethodKind::MultiDiplomat),
    ("renderbufferStorage:fromDrawable:", EaglMethodKind::MultiDiplomat),
    ("presentRenderbuffer:", EaglMethodKind::MultiDiplomat),
    ("texImageIOSurface:", EaglMethodKind::MultiDiplomat),
    ("deleteDrawable", EaglMethodKind::MultiDiplomat),
    ("initWithAPI:", EaglMethodKind::Scratch),
    ("currentContext", EaglMethodKind::Scratch),
    ("API", EaglMethodKind::Scratch),
    ("sharegroup", EaglMethodKind::Scratch),
    ("isCurrentContext", EaglMethodKind::Scratch),
    ("isMultiThreaded", EaglMethodKind::Scratch),
    ("setMultiThreaded:", EaglMethodKind::Scratch),
    ("debugLabel", EaglMethodKind::Scratch),
    ("swapInterval", EaglMethodKind::Scratch),
    ("setSwapInterval:", EaglMethodKind::Scratch),
    ("setDebugLabel:", EaglMethodKind::NeverCalled),
];

struct Drawable {
    iosurface: IOSurface,
    renderbuffer: u32,
    /// RGBA staging image for the present path: the IOSurface drawable is
    /// BGRA (the iOS-native layout), which the Android window path cannot
    /// texture from directly, so presents stage through a conversion copy
    /// (`aegl_bridge_copy_tex_buf` — a top GLES-time consumer in
    /// Figures 7–10). The copy is an unscaled GPU blit, so it runs on the
    /// raster fast plane's row-sliced path under one lock pair rather than
    /// per-pixel locking (DESIGN.md §5b); virtual-time cost is unchanged.
    staging: cycada_gpu::Image,
}

struct EaglRecord {
    api: GlesVersion,
    sharegroup: u32,
    egl_ctx: EglContextId,
    connection: McConnectionId,
    creator: SimTid,
    window_surface: EglSurfaceId,
    drawable: Option<Drawable>,
    multi_threaded: bool,
    debug_label: Option<String>,
    swap_interval: u32,
}

/// Cycada's EAGL implementation.
pub struct Eagl {
    egl: Arc<AndroidEgl>,
    bridge: Arc<GlesBridge>,
    egl_bridge: Arc<EglBridge>,
    iosurface_bridge: Arc<IoSurfaceBridge>,
    contexts: Mutex<HashMap<EaglContextId, EaglRecord>>,
    current: Mutex<HashMap<u64, EaglContextId>>,
    next_id: AtomicU32,
    display_size: (u32, u32),
}

impl Eagl {
    /// Creates the EAGL layer over the Cycada bridges.
    pub fn new(
        egl: Arc<AndroidEgl>,
        bridge: Arc<GlesBridge>,
        egl_bridge: Arc<EglBridge>,
        iosurface_bridge: Arc<IoSurfaceBridge>,
        display_size: (u32, u32),
    ) -> Self {
        Eagl {
            egl,
            bridge,
            egl_bridge,
            iosurface_bridge,
            contexts: Mutex::new(HashMap::new()),
            current: Mutex::new(HashMap::new()),
            next_id: AtomicU32::new(1),
            display_size,
        }
    }

    fn record<R>(&self, ctx: EaglContextId, f: impl FnOnce(&EaglRecord) -> R) -> Result<R> {
        self.contexts
            .lock()
            .get(&ctx)
            .map(f)
            .ok_or_else(|| CycadaError::Eagl(format!("unknown EAGLContext {ctx}")))
    }

    /// Assigns a SurfaceFlinger layer rectangle to this context's window
    /// surface, so its presented frames compose into `rect` rather than
    /// covering the panel (the multi-app path).
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Eagl`] for unknown contexts.
    pub fn set_drawable_layer(
        &self,
        ctx: EaglContextId,
        rect: cycada_gpu::raster::Rect,
    ) -> Result<()> {
        let window_surface = self.record(ctx, |r| r.window_surface)?;
        self.egl
            .set_surface_layer(window_surface, rect)
            .map_err(CycadaError::from)
    }

    // ------------------------------------------------------------------
    // Multi-diplomat methods (6)
    // ------------------------------------------------------------------

    /// `-[EAGLContext initWithAPI:sharegroup:]`: creates a context with its
    /// own GLES connection. Each EAGLContext gets a DLR replica of
    /// libui_wrapper + vendor EGL/GLES (§8.2), so multiple contexts may use
    /// different GLES versions simultaneously — impossible with stock
    /// Android EGL.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Egl`] if the replica cannot be built.
    pub fn init_with_api_sharegroup(
        &self,
        tid: SimTid,
        api: GlesVersion,
        sharegroup: u32,
    ) -> Result<EaglContextId> {
        let (w, h) = self.display_size;
        let (connection, egl_ctx, window_surface) =
            self.egl_bridge.setup_context(tid, api, w, h)?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.contexts.lock().insert(
            id,
            EaglRecord {
                api,
                sharegroup,
                egl_ctx,
                connection,
                creator: tid,
                window_surface,
                drawable: None,
                multi_threaded: false,
                debug_label: None,
                swap_interval: 1,
            },
        );
        Ok(id)
    }

    /// `+[EAGLContext setCurrentContext:]`. iOS "allows any thread to use a
    /// GLES context; one thread can create a GLES context and another can
    /// use it" (§7) — when the caller is not the creating thread, Cycada
    /// uses thread impersonation to migrate the connection TLS before
    /// binding.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Eagl`] for unknown contexts.
    pub fn set_current_context(&self, tid: SimTid, ctx: Option<EaglContextId>) -> Result<()> {
        let Some(ctx) = ctx else {
            self.current.lock().remove(&tid.as_u64());
            return Ok(());
        };
        let (egl_ctx, creator, window_surface) =
            self.record(ctx, |r| (r.egl_ctx, r.creator, r.window_surface))?;
        if creator != tid {
            // Impersonate the creating thread to pick up the replica
            // connection TLS (§7.1, §8.1.1), then adopt it persistently.
            let engine = self.bridge.engine().clone();
            let guard = engine.impersonate(tid, creator)?;
            let values = self.egl_bridge.get_tls(tid)?;
            guard.finish()?;
            self.egl_bridge.set_tls(tid, &values)?;
        }
        self.egl_bridge
            .make_current(tid, egl_ctx, Some(window_surface))?;
        self.current.lock().insert(tid.as_u64(), ctx);
        Ok(())
    }

    /// `-[EAGLContext renderbufferStorage:fromDrawable:]`: allocates
    /// IOSurface-backed storage for the drawable and binds it to a fresh
    /// renderbuffer. Returns the renderbuffer name for FBO attachment.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Eagl`] for unknown contexts or allocation
    /// failures.
    pub fn renderbuffer_storage_from_drawable(
        &self,
        tid: SimTid,
        ctx: EaglContextId,
        width: u32,
        height: u32,
    ) -> Result<u32> {
        self.record(ctx, |_| ())?;
        let iosurface = self
            .iosurface_bridge
            .create(tid, SurfaceProps::bgra(width, height))?;
        let renderbuffer = self.bridge.gen_renderbuffers(tid, 1)?[0];
        self.iosurface_bridge
            .renderbuffer_storage_io_surface(tid, iosurface.id(), renderbuffer)?;
        let staging =
            cycada_gpu::Image::new(width, height, cycada_gpu::PixelFormat::Rgba8888);
        self.contexts
            .lock()
            .get_mut(&ctx)
            .expect("checked above")
            .drawable = Some(Drawable {
            iosurface,
            renderbuffer,
            staging,
        });
        Ok(renderbuffer)
    }

    /// `-[EAGLContext presentRenderbuffer:]` — the §5 path: a multi
    /// diplomat renders the off-screen framebuffer contents into the
    /// default framebuffer with a full-screen textured quad
    /// (`aegl_bridge_draw_fbo_tex`), then `eglSwapBuffers` displays it.
    /// Each hop (drawable → staging → back buffer → scanout) is a
    /// whole-image blit (DESIGN.md §5g).
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Eagl`] if the context has no drawable.
    pub fn present_renderbuffer(&self, tid: SimTid, ctx: EaglContextId) -> Result<()> {
        let _tspan = trace::span(trace::Category::Eagl, "presentRenderbuffer:");
        trace::bump(trace::Counter::EaglPresents);
        let (window_surface, drawable_image, staging) = {
            let contexts = self.contexts.lock();
            let record = contexts
                .get(&ctx)
                .ok_or_else(|| CycadaError::Eagl(format!("unknown EAGLContext {ctx}")))?;
            let drawable = record
                .drawable
                .as_ref()
                .ok_or_else(|| CycadaError::Eagl("presentRenderbuffer without drawable".into()))?;
            (
                record.window_surface,
                drawable.iosurface.as_image(),
                drawable.staging.clone(),
            )
        };
        // Stage the BGRA drawable into an RGBA texture source, render it
        // into the default framebuffer, then swap — the full unoptimized
        // path of §5. Each step's byte work runs inside its diplomat
        // (DESIGN.md §5f).
        self.egl_bridge.copy_tex_buf(tid, &drawable_image, &staging)?;
        self.egl_bridge.draw_fbo_tex(tid, &staging)?;
        self.egl_bridge.swap_buffers(tid, window_surface)?;
        Ok(())
    }

    /// `texImageIOSurface:` — binds an IOSurface to a GLES texture (the
    /// CoreGraphics/GLES sharing path).
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::IoSurface`] for unbridged surfaces.
    pub fn tex_image_io_surface(&self, tid: SimTid, surface: &IOSurface, texture: u32) -> Result<()> {
        self.iosurface_bridge
            .tex_image_io_surface(tid, surface.id(), texture)
    }

    /// `deleteDrawable` — releases the drawable storage.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Eagl`] for unknown contexts.
    pub fn delete_drawable(&self, tid: SimTid, ctx: EaglContextId) -> Result<()> {
        let drawable = {
            let mut contexts = self.contexts.lock();
            let record = contexts
                .get_mut(&ctx)
                .ok_or_else(|| CycadaError::Eagl(format!("unknown EAGLContext {ctx}")))?;
            record.drawable.take()
        };
        if let Some(d) = drawable {
            self.iosurface_bridge.release(tid, &d.iosurface)?;
            self.bridge.delete_textures(tid, &[])?; // flush interposition state
            let _ = d.renderbuffer;
        }
        Ok(())
    }

    /// `-[EAGLContext dealloc]` — full context teardown: releases the
    /// drawable, destroys the underlying EGL context and window surface,
    /// unloads the context's DLR replica connection, and forgets the
    /// record. Any thread the context was current on is left with no
    /// current context. Every context-scoped method errors afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Eagl`] for unknown contexts.
    pub fn destroy_context(&self, tid: SimTid, ctx: EaglContextId) -> Result<()> {
        self.delete_drawable(tid, ctx)?;
        let record = self
            .contexts
            .lock()
            .remove(&ctx)
            .ok_or_else(|| CycadaError::Eagl(format!("unknown EAGLContext {ctx}")))?;
        self.current.lock().retain(|_, c| *c != ctx);
        self.egl.destroy_surface(tid, record.window_surface)?;
        self.egl.destroy_context(record.egl_ctx)?;
        self.egl.release_mc_connection(record.connection)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // From-scratch methods (10)
    // ------------------------------------------------------------------

    /// Number of live EAGL contexts on this device (every session that
    /// has attached and not yet dropped holds one).
    pub fn live_contexts(&self) -> usize {
        self.contexts.lock().len()
    }

    /// `-[EAGLContext initWithAPI:]` — a fresh sharegroup.
    ///
    /// # Errors
    ///
    /// As [`Eagl::init_with_api_sharegroup`].
    pub fn init_with_api(&self, tid: SimTid, api: GlesVersion) -> Result<EaglContextId> {
        let sharegroup = self.next_id.fetch_add(1, Ordering::Relaxed) | 0x8000_0000;
        self.init_with_api_sharegroup(tid, api, sharegroup)
    }

    /// `+[EAGLContext currentContext]`.
    pub fn current_context(&self, tid: SimTid) -> Option<EaglContextId> {
        self.current.lock().get(&tid.as_u64()).copied()
    }

    /// `-[EAGLContext API]`.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Eagl`] for unknown contexts.
    pub fn api(&self, ctx: EaglContextId) -> Result<GlesVersion> {
        self.record(ctx, |r| r.api)
    }

    /// `-[EAGLContext sharegroup]`.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Eagl`] for unknown contexts.
    pub fn sharegroup(&self, ctx: EaglContextId) -> Result<u32> {
        self.record(ctx, |r| r.sharegroup)
    }

    /// Whether `ctx` is current on `tid`.
    pub fn is_current_context(&self, tid: SimTid, ctx: EaglContextId) -> bool {
        self.current_context(tid) == Some(ctx)
    }

    /// `-[EAGLContext isMultiThreaded]`.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Eagl`] for unknown contexts.
    pub fn is_multi_threaded(&self, ctx: EaglContextId) -> Result<bool> {
        self.record(ctx, |r| r.multi_threaded)
    }

    /// `-[EAGLContext setMultiThreaded:]`.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Eagl`] for unknown contexts.
    pub fn set_multi_threaded(&self, ctx: EaglContextId, value: bool) -> Result<()> {
        self.contexts
            .lock()
            .get_mut(&ctx)
            .map(|r| r.multi_threaded = value)
            .ok_or_else(|| CycadaError::Eagl(format!("unknown EAGLContext {ctx}")))
    }

    /// `-[EAGLContext debugLabel]`.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Eagl`] for unknown contexts.
    pub fn debug_label(&self, ctx: EaglContextId) -> Result<Option<String>> {
        self.record(ctx, |r| r.debug_label.clone())
    }

    /// The context's swap interval.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Eagl`] for unknown contexts.
    pub fn swap_interval(&self, ctx: EaglContextId) -> Result<u32> {
        self.record(ctx, |r| r.swap_interval)
    }

    /// Sets the context's swap interval.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Eagl`] for unknown contexts.
    pub fn set_swap_interval(&self, ctx: EaglContextId, interval: u32) -> Result<()> {
        self.contexts
            .lock()
            .get_mut(&ctx)
            .map(|r| r.swap_interval = interval)
            .ok_or_else(|| CycadaError::Eagl(format!("unknown EAGLContext {ctx}")))
    }

    // ------------------------------------------------------------------
    // Never called (1)
    // ------------------------------------------------------------------

    /// `setDebugLabel:` — the one EAGL method the prototype leaves
    /// unimplemented "as it was never called" (§5).
    ///
    /// # Errors
    ///
    /// Always returns [`CycadaError::Eagl`].
    pub fn set_debug_label(&self, _ctx: EaglContextId, _label: &str) -> Result<()> {
        Err(CycadaError::Eagl(
            "setDebugLabel: is unimplemented (never called by tested apps)".into(),
        ))
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// The drawable's pixel image, for verification.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Eagl`] if the context has no drawable.
    pub fn drawable_image(&self, ctx: EaglContextId) -> Result<cycada_gpu::Image> {
        let contexts = self.contexts.lock();
        let record = contexts
            .get(&ctx)
            .ok_or_else(|| CycadaError::Eagl(format!("unknown EAGLContext {ctx}")))?;
        record
            .drawable
            .as_ref()
            .map(|d| d.iosurface.as_image())
            .ok_or_else(|| CycadaError::Eagl("context has no drawable".into()))
    }

    /// The drawable's renderbuffer name (for FBO attachment).
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Eagl`] if the context has no drawable.
    pub fn drawable_renderbuffer(&self, ctx: EaglContextId) -> Result<u32> {
        let contexts = self.contexts.lock();
        let record = contexts
            .get(&ctx)
            .ok_or_else(|| CycadaError::Eagl(format!("unknown EAGLContext {ctx}")))?;
        record
            .drawable
            .as_ref()
            .map(|d| d.renderbuffer)
            .ok_or_else(|| CycadaError::Eagl("context has no drawable".into()))
    }

    /// The EGL-level connection of a context (each EAGLContext has its own
    /// DLR replica connection).
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Eagl`] for unknown contexts.
    pub fn connection(&self, ctx: EaglContextId) -> Result<McConnectionId> {
        self.record(ctx, |r| r.connection)
    }

    /// The underlying Android EGL front (diagnostics).
    pub fn android_egl(&self) -> &Arc<AndroidEgl> {
        &self.egl
    }

    /// Counts the 17 EAGL methods by implementation kind:
    /// (multi-diplomat, scratch, never-called) = (6, 10, 1).
    pub fn method_census() -> (usize, usize, usize) {
        let multi = EAGL_METHODS
            .iter()
            .filter(|(_, k)| *k == EaglMethodKind::MultiDiplomat)
            .count();
        let scratch = EAGL_METHODS
            .iter()
            .filter(|(_, k)| *k == EaglMethodKind::Scratch)
            .count();
        let never = EAGL_METHODS
            .iter()
            .filter(|(_, k)| *k == EaglMethodKind::NeverCalled)
            .count();
        (multi, scratch, never)
    }
}

impl fmt::Debug for Eagl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Eagl")
            .field("contexts", &self.contexts.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_census_matches_paper() {
        let (multi, scratch, never) = Eagl::method_census();
        assert_eq!(multi, 6);
        assert_eq!(scratch, 10);
        assert_eq!(never, 1);
        assert_eq!(EAGL_METHODS.len(), 17, "EAGL has 17 methods");
    }
}
