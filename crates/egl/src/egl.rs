//! The open-source EGL front (`libEGL.so`).

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use cycada_gles::{EglImageSource, GlesVersion, VendorGles};
use cycada_gpu::{Image, PixelFormat};
use cycada_gralloc::{GraphicBuffer, GraphicBufferAllocator, SurfaceFlinger};
use cycada_kernel::{Kernel, Persona, SimTid, TlsKey};
use cycada_linker::DynamicLinker;
use cycada_sim::trace;

use crate::error::EglError;
use crate::loadout::{VENDOR_EGL_LIB, VENDOR_GLES_LIB};
use crate::vendor_egl::VendorEglState;
use crate::Result;

/// Handle to an EGL context.
pub type EglContextId = u32;
/// Handle to an EGL window surface.
pub type EglSurfaceId = u32;
/// Handle to an EGLImage.
pub type EglImageId = u32;
/// Identifier of an EGL-to-GLES connection. 0 is the classic process-wide
/// connection; nonzero IDs are `EGL_multi_context` replicas.
pub type McConnectionId = u64;

/// One EGL-to-GLES connection: a vendor EGL instance plus the vendor GLES
/// instance it loaded. The default connection (id 0) is made by
/// `eglInitialize`; additional ones are made by `eglReInitializeMC` from
/// DLR replicas.
struct Connection {
    gles: Arc<VendorGles>,
    vendor: Arc<VendorEglState>,
    replica: Option<cycada_linker::ReplicaId>,
}

struct ContextRecord {
    vendor_ctx: cycada_gles::ContextId,
    version: GlesVersion,
    creator: SimTid,
    connection: McConnectionId,
    surface: Option<EglSurfaceId>,
}

struct SurfaceRecord {
    front: GraphicBuffer,
    back: GraphicBuffer,
}

/// The open-source Android EGL library.
///
/// One value of this type is the library-instance state of `libEGL.so` in
/// one process. It owns the handle tables for displays/contexts/surfaces/
/// images and enforces the two Android restrictions the paper documents —
/// then provides the Cycada `EGL_multi_context` extension that legitimately
/// works around them via DLR.
pub struct AndroidEgl {
    kernel: Arc<Kernel>,
    linker: Arc<DynamicLinker>,
    flinger: Arc<SurfaceFlinger>,
    allocator: GraphicBufferAllocator,
    connections: Mutex<HashMap<McConnectionId, Connection>>,
    next_connection: AtomicU64,
    contexts: Mutex<HashMap<EglContextId, ContextRecord>>,
    surfaces: Mutex<HashMap<EglSurfaceId, SurfaceRecord>>,
    images: Mutex<HashMap<EglImageId, EglImageSource>>,
    current: Mutex<HashMap<u64, EglContextId>>,
    next_id: AtomicU32,
    mc_tls_key: OnceLock<TlsKey>,
}

impl AndroidEgl {
    /// Creates the library state (run by `libEGL.so`'s constructor).
    pub fn new(
        kernel: Arc<Kernel>,
        linker: Arc<DynamicLinker>,
        flinger: Arc<SurfaceFlinger>,
        allocator: GraphicBufferAllocator,
    ) -> Self {
        AndroidEgl {
            kernel,
            linker,
            flinger,
            allocator,
            connections: Mutex::new(HashMap::new()),
            next_connection: AtomicU64::new(1),
            contexts: Mutex::new(HashMap::new()),
            surfaces: Mutex::new(HashMap::new()),
            images: Mutex::new(HashMap::new()),
            current: Mutex::new(HashMap::new()),
            next_id: AtomicU32::new(1),
            mc_tls_key: OnceLock::new(),
        }
    }

    /// The SurfaceFlinger this EGL posts frames to.
    pub fn flinger(&self) -> &Arc<SurfaceFlinger> {
        &self.flinger
    }

    fn fresh_id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    // ------------------------------------------------------------------
    // Initialization / connections
    // ------------------------------------------------------------------

    /// `eglInitialize`: on first call, loads the vendor EGL library (and
    /// transitively the vendor GLES library) through the dynamic linker and
    /// establishes the process-wide connection.
    ///
    /// # Errors
    ///
    /// Returns [`EglError::Lower`] if the vendor libraries are missing.
    pub fn initialize(&self, _tid: SimTid) -> Result<()> {
        let mut conns = self.connections.lock();
        if conns.contains_key(&0) {
            return Ok(()); // idempotent re-initialization
        }
        let vendor_lib = self.linker.dlopen(VENDOR_EGL_LIB)?;
        let vendor = vendor_lib
            .state::<VendorEglState>()
            .ok_or_else(|| EglError::Lower("vendor EGL has wrong state type".into()))?;
        let gles = vendor_lib
            .tree()
            .iter()
            .find(|l| l.name() == VENDOR_GLES_LIB)
            .and_then(|l| l.state::<VendorGles>())
            .ok_or_else(|| EglError::Lower("vendor GLES not in vendor EGL's tree".into()))?;
        vendor.connect();
        conns.insert(
            0,
            Connection {
                gles,
                vendor,
                replica: None,
            },
        );
        Ok(())
    }

    /// Whether `eglInitialize` has succeeded.
    pub fn is_initialized(&self) -> bool {
        self.connections.lock().contains_key(&0)
    }

    /// The connection a thread's EGL calls currently target: the thread's
    /// `EGL_multi_context` TLS slot if set, else the default connection.
    pub fn current_connection_id(&self, tid: SimTid) -> McConnectionId {
        if let Some(key) = self.mc_tls_key.get() {
            if let Ok(Some(id)) = self.kernel.tls_get(tid, *key) {
                return id;
            }
        }
        0
    }

    fn connection_gles(&self, id: McConnectionId) -> Result<Arc<VendorGles>> {
        self.connections
            .lock()
            .get(&id)
            .map(|c| c.gles.clone())
            .ok_or(EglError::NotInitialized)
    }

    /// The vendor GLES library instance a thread's calls dispatch to —
    /// used by the bridge to issue GL work for the right replica.
    pub fn gles_for_thread(&self, tid: SimTid) -> Result<Arc<VendorGles>> {
        self.connection_gles(self.current_connection_id(tid))
    }

    // ------------------------------------------------------------------
    // Contexts
    // ------------------------------------------------------------------

    /// `eglCreateContext`.
    ///
    /// # Errors
    ///
    /// Returns [`EglError::NotInitialized`] before `eglInitialize`, or
    /// [`EglError::BadMatch`] if the connection is locked to a different
    /// GLES version (the single-version-per-process restriction).
    pub fn create_context(&self, tid: SimTid, version: GlesVersion) -> Result<EglContextId> {
        let conn_id = self.current_connection_id(tid);
        let (gles, vendor) = {
            let conns = self.connections.lock();
            let conn = conns.get(&conn_id).ok_or(EglError::NotInitialized)?;
            (conn.gles.clone(), conn.vendor.clone())
        };
        vendor.lock_version(version)?;
        let vendor_ctx = gles.create_context(version);
        let id = self.fresh_id();
        self.contexts.lock().insert(
            id,
            ContextRecord {
                vendor_ctx,
                version,
                creator: tid,
                connection: conn_id,
                surface: None,
            },
        );
        trace::bump(trace::Counter::EglContextsCreated);
        trace::instant(trace::Category::Egl, "eglCreateContext", u64::from(id));
        Ok(id)
    }

    /// `eglDestroyContext`.
    ///
    /// # Errors
    ///
    /// Returns [`EglError::BadContext`] for unknown handles.
    pub fn destroy_context(&self, ctx: EglContextId) -> Result<()> {
        let record = self
            .contexts
            .lock()
            .remove(&ctx)
            .ok_or(EglError::BadContext)?;
        if let Ok(gles) = self.connection_gles(record.connection) {
            gles.destroy_context(record.vendor_ctx);
        }
        self.current.lock().retain(|_, c| *c != ctx);
        trace::bump(trace::Counter::EglContextsDestroyed);
        trace::instant(trace::Category::Egl, "eglDestroyContext", u64::from(ctx));
        Ok(())
    }

    /// The GLES version a context was created with.
    ///
    /// # Errors
    ///
    /// Returns [`EglError::BadContext`] for unknown handles.
    pub fn context_version(&self, ctx: EglContextId) -> Result<GlesVersion> {
        self.contexts
            .lock()
            .get(&ctx)
            .map(|r| r.version)
            .ok_or(EglError::BadContext)
    }

    /// The connection a context belongs to.
    ///
    /// # Errors
    ///
    /// Returns [`EglError::BadContext`] for unknown handles.
    pub fn context_connection(&self, ctx: EglContextId) -> Result<McConnectionId> {
        self.contexts
            .lock()
            .get(&ctx)
            .map(|r| r.connection)
            .ok_or(EglError::BadContext)
    }

    /// The vendor-level context ID behind an EGL context (used by the
    /// bridge to drive GL state directly).
    ///
    /// # Errors
    ///
    /// Returns [`EglError::BadContext`] for unknown handles.
    pub fn vendor_context(&self, ctx: EglContextId) -> Result<cycada_gles::ContextId> {
        self.contexts
            .lock()
            .get(&ctx)
            .map(|r| r.vendor_ctx)
            .ok_or(EglError::BadContext)
    }

    // ------------------------------------------------------------------
    // Surfaces
    // ------------------------------------------------------------------

    /// `eglCreateWindowSurface`: allocates a double-buffered (front/back
    /// GraphicBuffer) window surface.
    ///
    /// # Errors
    ///
    /// Returns [`EglError::Lower`] if allocation fails.
    pub fn create_window_surface(
        &self,
        tid: SimTid,
        width: u32,
        height: u32,
    ) -> Result<EglSurfaceId> {
        let front = self
            .allocator
            .allocate(tid, width, height, PixelFormat::Rgba8888)?;
        let back = self
            .allocator
            .allocate(tid, width, height, PixelFormat::Rgba8888)?;
        let id = self.fresh_id();
        self.surfaces
            .lock()
            .insert(id, SurfaceRecord { front, back });
        trace::bump(trace::Counter::EglSurfacesCreated);
        trace::instant(trace::Category::Egl, "eglCreateWindowSurface", u64::from(id));
        Ok(id)
    }

    /// `eglDestroySurface`.
    ///
    /// # Errors
    ///
    /// Returns [`EglError::BadSurface`] for unknown handles.
    pub fn destroy_surface(&self, tid: SimTid, surface: EglSurfaceId) -> Result<()> {
        let record = self
            .surfaces
            .lock()
            .remove(&surface)
            .ok_or(EglError::BadSurface)?;
        self.flinger.clear_layer(record.front.handle());
        self.flinger.clear_layer(record.back.handle());
        let _ = self.allocator.free(tid, record.front.handle());
        let _ = self.allocator.free(tid, record.back.handle());
        trace::bump(trace::Counter::EglSurfacesDestroyed);
        trace::instant(trace::Category::Egl, "eglDestroySurface", u64::from(surface));
        Ok(())
    }

    /// Assigns a SurfaceFlinger layer rectangle to a window surface: swaps
    /// of this surface compose into `rect` instead of covering the panel
    /// (the multi-app path; surfaces without a layer stay full-screen).
    ///
    /// # Errors
    ///
    /// Returns [`EglError::BadSurface`] for unknown handles.
    pub fn set_surface_layer(
        &self,
        surface: EglSurfaceId,
        rect: cycada_gpu::raster::Rect,
    ) -> Result<()> {
        let surfaces = self.surfaces.lock();
        let record = surfaces.get(&surface).ok_or(EglError::BadSurface)?;
        // Front and back trade places every swap; rect both so the layer
        // survives buffer rotation.
        self.flinger.assign_layer(record.front.handle(), rect);
        self.flinger.assign_layer(record.back.handle(), rect);
        Ok(())
    }

    /// The back (render target) buffer of a surface.
    ///
    /// # Errors
    ///
    /// Returns [`EglError::BadSurface`] for unknown handles.
    pub fn surface_back_buffer(&self, surface: EglSurfaceId) -> Result<GraphicBuffer> {
        self.surfaces
            .lock()
            .get(&surface)
            .map(|s| s.back.clone())
            .ok_or(EglError::BadSurface)
    }

    // ------------------------------------------------------------------
    // MakeCurrent and SwapBuffers
    // ------------------------------------------------------------------

    /// `eglMakeCurrent`. Enforces the Android thread rule: "a GLES context
    /// created by Android thread 1 could not be used by Android thread 2
    /// unless thread 1 also happened to be the 'main' thread" (§7).
    ///
    /// # Errors
    ///
    /// Returns [`EglError::BadAccess`] on a thread-rule violation,
    /// [`EglError::BadContext`]/[`EglError::BadSurface`] for bad handles.
    pub fn make_current(
        &self,
        tid: SimTid,
        ctx: Option<EglContextId>,
        surface: Option<EglSurfaceId>,
    ) -> Result<()> {
        let Some(ctx_id) = ctx else {
            // Unbind from whatever connection the thread targets.
            if let Some(prev) = self.current.lock().remove(&tid.as_u64()) {
                if let Some(record) = self.contexts.lock().get(&prev) {
                    if let Ok(gles) = self.connection_gles(record.connection) {
                        gles.make_current(tid, None, None);
                    }
                }
            }
            return Ok(());
        };

        let (vendor_ctx, creator, connection) = {
            let contexts = self.contexts.lock();
            let record = contexts.get(&ctx_id).ok_or(EglError::BadContext)?;
            (record.vendor_ctx, record.creator, record.connection)
        };

        // The Android thread rule.
        let group = self.kernel.thread_group(tid)?;
        if creator != tid && creator != group.leader {
            return Err(EglError::BadAccess {
                caller: tid.as_u64(),
                creator: creator.as_u64(),
            });
        }

        let back_image: Option<Image> = match surface {
            Some(s) => Some(self.surface_back_buffer(s)?.image().clone()),
            None => None,
        };
        let gles = self.connection_gles(connection)?;
        if !gles.make_current(tid, Some(vendor_ctx), back_image) {
            return Err(EglError::BadContext);
        }
        if let Some(record) = self.contexts.lock().get_mut(&ctx_id) {
            record.surface = surface;
        }
        self.current.lock().insert(tid.as_u64(), ctx_id);
        Ok(())
    }

    /// Binds a context (and optional surface) on `tid` **without** the
    /// Android thread rule. This entry is not part of the public Android
    /// API: it is what Cycada's `libEGLbridge` uses after thread
    /// impersonation has established the right TLS, operating below the
    /// app-facing checks.
    ///
    /// # Errors
    ///
    /// Returns [`EglError::BadContext`]/[`EglError::BadSurface`] for bad
    /// handles.
    pub fn make_current_unchecked(
        &self,
        tid: SimTid,
        ctx: EglContextId,
        surface: Option<EglSurfaceId>,
    ) -> Result<()> {
        let (vendor_ctx, connection) = {
            let contexts = self.contexts.lock();
            let record = contexts.get(&ctx).ok_or(EglError::BadContext)?;
            (record.vendor_ctx, record.connection)
        };
        let back_image: Option<Image> = match surface {
            Some(s) => Some(self.surface_back_buffer(s)?.image().clone()),
            None => None,
        };
        let gles = self.connection_gles(connection)?;
        if !gles.make_current(tid, Some(vendor_ctx), back_image) {
            return Err(EglError::BadContext);
        }
        if let Some(record) = self.contexts.lock().get_mut(&ctx) {
            if surface.is_some() {
                record.surface = surface;
            }
        }
        self.current.lock().insert(tid.as_u64(), ctx);
        Ok(())
    }

    /// The EGL context current on a thread.
    pub fn current_context(&self, tid: SimTid) -> Option<EglContextId> {
        self.current.lock().get(&tid.as_u64()).copied()
    }

    /// `eglSwapBuffers`: posts the surface's back buffer to SurfaceFlinger
    /// and swaps front/back, rebinding the new back buffer as the current
    /// context's default framebuffer. The compositor copies the whole
    /// posted buffer (DESIGN.md §5g).
    ///
    /// # Errors
    ///
    /// Returns [`EglError::BadSurface`] for unknown handles.
    pub fn swap_buffers(&self, tid: SimTid, surface: EglSurfaceId) -> Result<()> {
        let _tspan = trace::span(trace::Category::Egl, "eglSwapBuffers");
        let new_back = {
            let mut surfaces = self.surfaces.lock();
            let record = surfaces.get_mut(&surface).ok_or(EglError::BadSurface)?;
            self.flinger.post_buffer(&record.back);
            std::mem::swap(&mut record.front, &mut record.back);
            record.back.clone()
        };
        // Rebind the fresh back buffer for the thread's current context.
        if let Some(ctx_id) = self.current_context(tid) {
            let contexts = self.contexts.lock();
            if let Some(record) = contexts.get(&ctx_id) {
                if record.surface == Some(surface) {
                    if let Ok(gles) = self.connection_gles(record.connection) {
                        if let Some(handle) = gles.context(record.vendor_ctx) {
                            handle
                                .lock()
                                .set_default_framebuffer(Some(new_back.image().clone()));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // EGLImages
    // ------------------------------------------------------------------

    /// `eglCreateImageKHR` from a GraphicBuffer: creates an image whose
    /// lifetime holds a GLES association on the buffer.
    pub fn create_image(&self, buffer: &GraphicBuffer) -> EglImageId {
        let source = EglImageSource {
            image: buffer.image().clone(),
            guard: Arc::new(buffer.associate_gles()),
        };
        let id = self.fresh_id();
        self.images.lock().insert(id, source);
        id
    }

    /// Resolves an EGLImage for binding via `glEGLImageTargetTexture2DOES`.
    ///
    /// # Errors
    ///
    /// Returns [`EglError::BadParameter`] for unknown handles.
    pub fn image_source(&self, image: EglImageId) -> Result<EglImageSource> {
        self.images
            .lock()
            .get(&image)
            .cloned()
            .ok_or_else(|| EglError::BadParameter(format!("unknown EGLImage {image}")))
    }

    /// `eglDestroyImageKHR`: drops the image's own association (textures
    /// still holding the source keep theirs until rebound).
    ///
    /// # Errors
    ///
    /// Returns [`EglError::BadParameter`] for unknown handles.
    pub fn destroy_image(&self, image: EglImageId) -> Result<()> {
        self.images
            .lock()
            .remove(&image)
            .map(|_| ())
            .ok_or_else(|| EglError::BadParameter(format!("unknown EGLImage {image}")))
    }

    // ------------------------------------------------------------------
    // EGL_multi_context (Figure 4)
    // ------------------------------------------------------------------

    fn mc_key(&self) -> TlsKey {
        *self
            .mc_tls_key
            .get_or_init(|| self.kernel.tls_key_create(Persona::Android))
    }

    /// `eglReInitializeMC`: creates a DLR replica of the vendor EGL/GLES
    /// libraries rooted at `root_lib`, establishes a fresh connection on
    /// it, and selects it for the calling thread (via TLS).
    ///
    /// # Errors
    ///
    /// Returns [`EglError::Lower`] if the replica cannot be built or lacks
    /// the vendor libraries.
    pub fn egl_reinitialize_mc(&self, tid: SimTid, root_lib: &str) -> Result<McConnectionId> {
        let replica = self.linker.dlforce(root_lib)?;
        let vendor = replica
            .dlopen(VENDOR_EGL_LIB)
            .ok()
            .and_then(|l| l.state::<VendorEglState>())
            .ok_or_else(|| {
                EglError::Lower(format!("{root_lib} replica lacks {VENDOR_EGL_LIB}"))
            })?;
        let gles = replica
            .dlopen(VENDOR_GLES_LIB)
            .ok()
            .and_then(|l| l.state::<VendorGles>())
            .ok_or_else(|| {
                EglError::Lower(format!("{root_lib} replica lacks {VENDOR_GLES_LIB}"))
            })?;
        vendor.connect();
        let id = self.next_connection.fetch_add(1, Ordering::Relaxed);
        self.connections.lock().insert(
            id,
            Connection {
                gles,
                vendor,
                replica: Some(replica.id()),
            },
        );
        let key = self.mc_key();
        self.kernel.tls_set(tid, key, id)?;
        Ok(id)
    }

    /// `eglSwitchMC`: selects the replica (connection) containing
    /// `new_ctx` for the calling thread and makes `new_ctx` current.
    ///
    /// # Errors
    ///
    /// Returns [`EglError::BadContext`] for unknown contexts.
    pub fn egl_switch_mc(&self, tid: SimTid, new_ctx: EglContextId) -> Result<()> {
        let connection = self.context_connection(new_ctx)?;
        let key = self.mc_key();
        self.kernel.tls_set(tid, key, connection)?;
        let (vendor_ctx, surface) = {
            let contexts = self.contexts.lock();
            let record = contexts.get(&new_ctx).ok_or(EglError::BadContext)?;
            (record.vendor_ctx, record.surface)
        };
        let back_image = match surface {
            Some(s) => Some(self.surface_back_buffer(s)?.image().clone()),
            None => None,
        };
        let gles = self.connection_gles(connection)?;
        gles.make_current(tid, Some(vendor_ctx), back_image);
        self.current.lock().insert(tid.as_u64(), new_ctx);
        Ok(())
    }

    /// `eglGetTLSMC`: reads the calling thread's connection TLS values so
    /// they can be migrated to another thread (used with thread
    /// impersonation, §8.1.1).
    pub fn egl_get_tls_mc(&self, tid: SimTid) -> Result<Vec<Option<u64>>> {
        let key = self.mc_key();
        Ok(vec![self.kernel.tls_get(tid, key)?])
    }

    /// `eglSetTLSMC`: writes connection TLS values into the calling thread.
    ///
    /// # Errors
    ///
    /// Returns [`EglError::BadParameter`] if the value vector is the wrong
    /// shape.
    pub fn egl_set_tls_mc(&self, tid: SimTid, values: &[Option<u64>]) -> Result<()> {
        if values.len() != 1 {
            return Err(EglError::BadParameter("expected 1 TLS value".into()));
        }
        let key = self.mc_key();
        match values[0] {
            Some(v) => self.kernel.tls_set(tid, key, v)?,
            None => self.kernel.tls_set_raw(tid, Persona::Android, key.slot(), None)?,
        }
        Ok(())
    }

    /// The TLS slot the `EGL_multi_context` extension stores connections
    /// in (exposed so thread impersonation can include it in migrations).
    pub fn mc_tls_slot(&self) -> usize {
        self.mc_key().slot()
    }

    /// Number of live connections (1 + replicas).
    pub fn connection_count(&self) -> usize {
        self.connections.lock().len()
    }

    /// Tears down an MC connection and unloads its replica.
    ///
    /// # Errors
    ///
    /// Returns [`EglError::BadParameter`] for id 0 or unknown connections.
    pub fn release_mc_connection(&self, id: McConnectionId) -> Result<()> {
        if id == 0 {
            return Err(EglError::BadParameter(
                "cannot release the default connection".into(),
            ));
        }
        let conn = self
            .connections
            .lock()
            .remove(&id)
            .ok_or_else(|| EglError::BadParameter(format!("unknown connection {id}")))?;
        if let Some(replica) = conn.replica {
            self.linker.unload_replica(replica);
        }
        Ok(())
    }
}

impl fmt::Debug for AndroidEgl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AndroidEgl")
            .field("initialized", &self.is_initialized())
            .field("connections", &self.connection_count())
            .field("contexts", &self.contexts.lock().len())
            .field("surfaces", &self.surfaces.lock().len())
            .finish()
    }
}
