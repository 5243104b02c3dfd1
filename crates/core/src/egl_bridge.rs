//! `libEGLbridge` and `libui_wrapper` (§5, §8.2).
//!
//! "For efficiency, we coalesced our multi diplomats into an Android
//! library called libEGLbridge. This allows us to pay the overhead of one
//! diplomat which calls into a custom Android API that uses standard
//! Android functions and libraries to perform the required function" (§5).
//!
//! To avoid the library-dependency morass of §8.2, the functionality is
//! split: **libEGLbridge** contains the diplomats and links against no
//! vendor library; **libui_wrapper** "contains all of the logic that links
//! against Android graphics libraries" and is what gets replicated (with
//! the vendor EGL/GLES tree) for each new EAGLContext.

use std::fmt;
use std::sync::Arc;

use cycada_diplomat::{
    DiplomatEngine, DiplomatEntry, DiplomatPattern, DiplomatTable, FnId, HookKind,
};
use cycada_egl::{AndroidEgl, EglContextId, EglSurfaceId, McConnectionId};
use cycada_gpu::Image;
use cycada_kernel::SimTid;
use cycada_linker::{DynamicLinker, LibraryImage};
use cycada_sim::fn_id;

use crate::error::CycadaError;
use crate::Result;

/// The diplomat-side bridge library.
pub const LIBEGLBRIDGE: &str = "libEGLbridge.so";
/// The vendor-linked wrapper library that DLR replicates per EAGLContext.
pub const LIBUI_WRAPPER: &str = "libui_wrapper.so";

/// Registers the two Cycada bridge libraries with the linker. Call after
/// [`cycada_egl::loadout::register_android_graphics`].
pub fn register_bridge_libraries(linker: &Arc<DynamicLinker>) {
    linker.register_image(
        LibraryImage::builder(LIBEGLBRIDGE)
            .deps([cycada_egl::loadout::LIBC])
            .symbols([
                "aegl_bridge_reinitialize",
                "aegl_bridge_make_current",
                "aegl_bridge_draw_fbo_tex",
                "aegl_bridge_copy_tex_buf",
                "aegl_bridge_set_tls",
                "eglSwapBuffers",
                "IOSurfaceCreate",
                "IOSurfaceLock",
                "IOSurfaceUnlock",
                "glTexImageIOSurfaceAPPLE",
                "glRenderbufferStorageIOSurfaceAPPLE",
            ])
            .non_replicable()
            .build(),
    );
    linker.register_image(
        LibraryImage::builder(LIBUI_WRAPPER)
            .deps([
                cycada_egl::loadout::VENDOR_EGL_LIB,
                cycada_egl::loadout::VENDOR_GLES_LIB,
            ])
            .symbols(["ui_wrap_alloc_buffer", "ui_wrap_bind_image"])
            .build(),
    );
}

/// The libEGLbridge API: every method is one multi diplomat whose domestic
/// side drives the Android EGL/GLES/gralloc stack.
pub struct EglBridge {
    engine: Arc<DiplomatEngine>,
    egl: Arc<AndroidEgl>,
    entries: DiplomatTable,
}

impl EglBridge {
    /// Creates the bridge over a diplomat engine and the Android EGL front.
    pub fn new(engine: Arc<DiplomatEngine>, egl: Arc<AndroidEgl>) -> Self {
        EglBridge {
            engine,
            egl,
            entries: DiplomatTable::new(),
        }
    }

    /// The Android EGL front the bridge drives.
    pub fn egl(&self) -> &Arc<AndroidEgl> {
        &self.egl
    }

    fn entry(&self, id: FnId) -> &Arc<DiplomatEntry> {
        self.entries.get_or_register(id, || {
            DiplomatEntry::with_id(
                id,
                LIBEGLBRIDGE,
                id.name(),
                DiplomatPattern::Multi,
                HookKind::Gles,
            )
        })
    }

    fn call<R>(&self, tid: SimTid, id: FnId, f: impl FnOnce() -> Result<R>) -> Result<R> {
        let entry = self.entry(id);
        self.engine.call(tid, entry, f).map_err(CycadaError::from)?
    }

    /// Creates a fresh EGL-to-GLES connection for a new EAGLContext by
    /// replicating `libui_wrapper` (and thus the vendor EGL/GLES tree)
    /// through DLR (§8.2).
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Egl`] if the replica cannot be built.
    pub fn reinitialize(&self, tid: SimTid) -> Result<McConnectionId> {
        let egl = self.egl.clone();
        self.call(tid, fn_id!("aegl_bridge_reinitialize"), || {
            egl.initialize(tid)?;
            Ok(egl.egl_reinitialize_mc(tid, LIBUI_WRAPPER)?)
        })
    }

    /// One-shot setup for a new EAGLContext: replicates `libui_wrapper`
    /// (fresh connection), creates an EGL context of the requested version
    /// on it, and allocates a window surface — all on the domestic side of
    /// a single multi diplomat.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Egl`] if any step fails.
    pub fn setup_context(
        &self,
        tid: SimTid,
        version: cycada_gles::GlesVersion,
        width: u32,
        height: u32,
    ) -> Result<(McConnectionId, EglContextId, EglSurfaceId)> {
        let egl = self.egl.clone();
        self.call(tid, fn_id!("aegl_bridge_reinitialize"), || {
            egl.initialize(tid)?;
            let conn = egl.egl_reinitialize_mc(tid, LIBUI_WRAPPER)?;
            let ctx = egl.create_context(tid, version)?;
            let surface = egl.create_window_surface(tid, width, height)?;
            Ok((conn, ctx, surface))
        })
    }

    /// Makes an EGL context (and optional window surface) current for the
    /// calling thread, switching the thread's connection TLS to the
    /// context's replica.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Egl`] for bad handles.
    pub fn make_current(
        &self,
        tid: SimTid,
        ctx: EglContextId,
        surface: Option<EglSurfaceId>,
    ) -> Result<()> {
        let egl = self.egl.clone();
        self.call(tid, fn_id!("aegl_bridge_make_current"), || {
            egl.egl_switch_mc(tid, ctx)?;
            egl.make_current_unchecked(tid, ctx, surface)?;
            Ok(())
        })
    }

    /// Renders an off-screen renderbuffer image into the current default
    /// framebuffer via a full-screen textured quad — the (inefficient)
    /// `presentRenderbuffer` path of §5. Returns fragments shaded.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Egl`] if the thread has no current context.
    pub fn draw_fbo_tex(&self, tid: SimTid, src: &Image) -> Result<u64> {
        let egl = self.egl.clone();
        self.call(tid, fn_id!("aegl_bridge_draw_fbo_tex"), || {
            let gles = egl.gles_for_thread(tid)?;
            Ok(gles.with_current(tid, |c| {
                let saved = c.bound_framebuffer();
                c.bind_framebuffer(0);
                let frags = c.draw_fullscreen_image(src);
                c.bind_framebuffer(saved);
                frags
            }))
        })
    }

    /// Copies pixels between two GPU images (renderbuffer ↔ texture
    /// staging in the present path).
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Egl`] if the thread has no current context.
    pub fn copy_tex_buf(&self, tid: SimTid, src: &Image, dst: &Image) -> Result<()> {
        let egl = self.egl.clone();
        self.call(tid, fn_id!("aegl_bridge_copy_tex_buf"), || {
            let gles = egl.gles_for_thread(tid)?;
            gles.device().blit(
                src,
                cycada_gpu::raster::Rect::of_image(src),
                dst,
                cycada_gpu::raster::Rect::of_image(dst),
                cycada_gpu::DrawClass::TwoD,
            );
            Ok(())
        })
    }

    /// Reads the calling thread's `EGL_multi_context` TLS values (for
    /// migration to another thread).
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Egl`] on kernel TLS failures.
    pub fn get_tls(&self, tid: SimTid) -> Result<Vec<Option<u64>>> {
        let egl = self.egl.clone();
        self.call(tid, fn_id!("aegl_bridge_set_tls"), || Ok(egl.egl_get_tls_mc(tid)?))
    }

    /// Writes `EGL_multi_context` TLS values into the calling thread.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Egl`] on kernel TLS failures.
    pub fn set_tls(&self, tid: SimTid, values: &[Option<u64>]) -> Result<()> {
        let egl = self.egl.clone();
        self.call(tid, fn_id!("aegl_bridge_set_tls"), || {
            Ok(egl.egl_set_tls_mc(tid, values)?)
        })
    }

    /// `eglSwapBuffers` through a diplomat (the path Figures 7–10 chart).
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Egl`] for bad surfaces.
    pub fn swap_buffers(&self, tid: SimTid, surface: EglSurfaceId) -> Result<()> {
        let egl = self.egl.clone();
        self.call(tid, fn_id!("eglSwapBuffers"), || Ok(egl.swap_buffers(tid, surface)?))
    }
}

impl fmt::Debug for EglBridge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EglBridge")
            .field("entries", &self.entries.len())
            .finish()
    }
}
