//! The native iOS graphics stack (the iPad mini baseline).
//!
//! The paper's evaluation compares Cycada against the same iOS app running
//! natively on an iPad mini. This module assembles that baseline from the
//! simulated pieces: Apple's vendor GLES library (loaded through the
//! linker like any other proprietary library), Apple's EAGL semantics
//! (multiple contexts with different GLES versions per process, any-thread
//! context use — the freedoms Android lacks, §7–8), IOSurface memory, and
//! the hardware-assisted IOMobileFramebuffer present path.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use cycada_gles::{ApiFlavor, ContextId, EglImageSource, GlesVersion, VendorGles};
use cycada_gpu::GpuDevice;
use cycada_iosurface::{
    CoreSurfaceService, IOSurface, IOSurfaceApi, IoMobileFramebuffer, SurfaceProps,
    IOMOBILE_FRAMEBUFFER_SERVICE,
};
use cycada_kernel::{IpcMessage, Kernel, SimTid};
use cycada_linker::{DynamicLinker, LibraryImage};

use crate::error::CycadaError;
use crate::Result;

/// Apple's GLES framework binary.
pub const IOS_GLES_LIB: &str = "OpenGLES.framework";
/// Apple's GPU support dylib (the vendor driver shim).
pub const IOS_GPU_SUPPORT: &str = "libGPUSupportMercury.dylib";
/// Darwin's libSystem (never replicated).
pub const IOS_LIBSYSTEM: &str = "libSystem.dylib";

/// Registers the iOS graphics library images with a linker.
pub fn register_ios_graphics(linker: &Arc<DynamicLinker>, gpu: &Arc<GpuDevice>) {
    linker.register_image(
        LibraryImage::builder(IOS_LIBSYSTEM)
            .symbols(["malloc", "free"])
            .non_replicable()
            .build(),
    );
    linker.register_image(
        LibraryImage::builder(IOS_GPU_SUPPORT)
            .deps([IOS_LIBSYSTEM])
            .symbols(["gpus_ReturnObjectFence", "gpus_SubmitPacket"])
            .build(),
    );
    let gpu = gpu.clone();
    linker.register_image(
        LibraryImage::builder(IOS_GLES_LIB)
            .deps([IOS_GPU_SUPPORT])
            .symbols(["glDrawArrays", "glClear", "glSetFenceAPPLE"])
            .constructor(move || Arc::new(VendorGles::new(ApiFlavor::Ios, gpu.clone())))
            .build(),
    );
}

struct NativeDrawable {
    iosurface: IOSurface,
    renderbuffer: u32,
}

struct NativeRecord {
    api: GlesVersion,
    ctx: ContextId,
    drawable: Option<NativeDrawable>,
}

/// The assembled native iOS graphics stack.
pub struct NativeIosStack {
    kernel: Arc<Kernel>,
    gles: Arc<VendorGles>,
    iosurface: Arc<IOSurfaceApi>,
    coresurface: Arc<CoreSurfaceService>,
    contexts: Mutex<HashMap<u32, NativeRecord>>,
    next_id: AtomicU32,
    current: Mutex<HashMap<u64, u32>>,
}

impl NativeIosStack {
    /// Boots the iOS user-space graphics stack over a kernel that has the
    /// `IOCoreSurface` and `IOMobileFramebuffer` services registered.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Diplomat`]-style resolution errors if the
    /// iOS libraries are not registered with the linker.
    pub fn new(
        kernel: Arc<Kernel>,
        linker: &Arc<DynamicLinker>,
        coresurface: Arc<CoreSurfaceService>,
    ) -> Result<Self> {
        let gles_lib = linker.dlopen(IOS_GLES_LIB).map_err(CycadaError::from)?;
        let gles = gles_lib
            .state::<VendorGles>()
            .ok_or_else(|| CycadaError::Diplomat("OpenGLES has wrong state type".into()))?;
        let iosurface = Arc::new(IOSurfaceApi::new(kernel.clone()));
        Ok(NativeIosStack {
            kernel,
            gles,
            iosurface,
            coresurface,
            contexts: Mutex::new(HashMap::new()),
            next_id: AtomicU32::new(1),
            current: Mutex::new(HashMap::new()),
        })
    }

    /// The Apple vendor GLES library (native apps call it directly — no
    /// diplomats on this platform).
    pub fn gles(&self) -> &Arc<VendorGles> {
        &self.gles
    }

    /// The IOSurface API.
    pub fn iosurface(&self) -> &Arc<IOSurfaceApi> {
        &self.iosurface
    }

    /// Native `initWithAPI:`: multiple contexts of *different* GLES
    /// versions coexist freely in one process — "iOS provides richer
    /// support than Android for multiple GLES API versions" (§1).
    pub fn init_with_api(&self, api: GlesVersion) -> u32 {
        let ctx = self.gles.create_context(api);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.contexts.lock().insert(
            id,
            NativeRecord {
                api,
                ctx,
                drawable: None,
            },
        );
        id
    }

    /// Native `setCurrentContext:` — any thread may bind any context.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Eagl`] for unknown contexts.
    pub fn set_current_context(&self, tid: SimTid, ctx: Option<u32>) -> Result<()> {
        match ctx {
            None => {
                self.current.lock().remove(&tid.as_u64());
                self.gles.make_current(tid, None, None);
                Ok(())
            }
            Some(id) => {
                let vendor_ctx = self
                    .contexts
                    .lock()
                    .get(&id)
                    .map(|r| r.ctx)
                    .ok_or_else(|| CycadaError::Eagl(format!("unknown EAGLContext {id}")))?;
                self.gles.make_current(tid, Some(vendor_ctx), None);
                self.current.lock().insert(tid.as_u64(), id);
                Ok(())
            }
        }
    }

    /// The context's GLES API version.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Eagl`] for unknown contexts.
    pub fn api(&self, ctx: u32) -> Result<GlesVersion> {
        self.contexts
            .lock()
            .get(&ctx)
            .map(|r| r.api)
            .ok_or_else(|| CycadaError::Eagl(format!("unknown EAGLContext {ctx}")))
    }

    /// Native `renderbufferStorage:fromDrawable:`: IOSurface-backed
    /// renderbuffer storage. Storing again replaces the context's drawable
    /// and releases the old IOSurface.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Eagl`] for unknown contexts (a context
    /// destroyed while its storage is being allocated included; the new
    /// surface is then released) and [`CycadaError::IoSurface`] on
    /// allocation or release failure.
    pub fn renderbuffer_storage_from_drawable(
        &self,
        tid: SimTid,
        ctx: u32,
        width: u32,
        height: u32,
    ) -> Result<u32> {
        self.api(ctx)?;
        let iosurface = self
            .iosurface
            .create(tid, SurfaceProps::bgra(width, height), None)
            .map_err(CycadaError::from)?;
        let image = iosurface.as_image();
        let renderbuffer = self.gles.with_current(tid, |c| {
            let rb = c.gen_renderbuffers(1)[0];
            c.bind_renderbuffer(rb);
            c.egl_image_target_renderbuffer(EglImageSource {
                image: image.clone(),
                guard: Arc::new(()),
            });
            rb
        });
        // Look up and replace under one lock, then release whichever
        // surface lost: the replaced drawable's, or the new one if the
        // context is gone.
        let (released, result) = match self.contexts.lock().get_mut(&ctx) {
            Some(record) => {
                let old = record.drawable.replace(NativeDrawable {
                    iosurface,
                    renderbuffer,
                });
                (old.map(|d| d.iosurface), Ok(renderbuffer))
            }
            None => (
                Some(iosurface),
                Err(CycadaError::Eagl(format!("unknown EAGLContext {ctx}"))),
            ),
        };
        if let Some(surface) = released {
            self.iosurface
                .release(tid, &surface)
                .map_err(CycadaError::from)?;
        }
        result
    }

    /// Native `-[EAGLContext dealloc]`: forgets the record, destroys the
    /// vendor context and releases the drawable's IOSurface. Any thread
    /// the context was current on is left with no current context.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Eagl`] for unknown contexts and
    /// [`CycadaError::IoSurface`] if the drawable's release fails.
    pub fn destroy_context(&self, tid: SimTid, ctx: u32) -> Result<()> {
        let record = self
            .contexts
            .lock()
            .remove(&ctx)
            .ok_or_else(|| CycadaError::Eagl(format!("unknown EAGLContext {ctx}")))?;
        self.current.lock().retain(|_, c| *c != ctx);
        self.gles.destroy_context(record.ctx);
        if let Some(d) = record.drawable {
            self.iosurface
                .release(tid, &d.iosurface)
                .map_err(CycadaError::from)?;
        }
        Ok(())
    }

    /// Native `presentRenderbuffer:` — the hardware-assisted path: one
    /// opaque Mach IPC call to IOMobileFramebuffer flips the drawable's
    /// IOSurface onto the panel.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Eagl`] if the context has no drawable.
    pub fn present_renderbuffer(&self, tid: SimTid, ctx: u32) -> Result<()> {
        let surface_id = {
            let contexts = self.contexts.lock();
            let record = contexts
                .get(&ctx)
                .ok_or_else(|| CycadaError::Eagl(format!("unknown EAGLContext {ctx}")))?;
            record
                .drawable
                .as_ref()
                .map(|d| d.iosurface.id())
                .ok_or_else(|| CycadaError::Eagl("presentRenderbuffer without drawable".into()))?
        };
        self.kernel
            .mach_ipc_call(
                tid,
                IOMOBILE_FRAMEBUFFER_SERVICE,
                IpcMessage::new(cycada_iosurface::SEL_SWAP_SURFACE, [surface_id]),
            )
            .map_err(CycadaError::from)?;
        Ok(())
    }

    /// The drawable's pixel image (verification).
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Eagl`] if the context has no drawable.
    pub fn drawable_image(&self, ctx: u32) -> Result<cycada_gpu::Image> {
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

    /// The drawable's renderbuffer name.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Eagl`] if the context has no drawable.
    pub fn drawable_renderbuffer(&self, ctx: u32) -> Result<u32> {
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

    /// The kernel-side surface table (for service registration checks).
    pub fn coresurface(&self) -> &Arc<CoreSurfaceService> {
        &self.coresurface
    }
}

/// Registers the iOS kernel display services and returns the framebuffer
/// driver handle.
pub fn register_ios_display(
    kernel: &Arc<Kernel>,
    gpu: &Arc<GpuDevice>,
    coresurface: &Arc<CoreSurfaceService>,
) -> Arc<IoMobileFramebuffer> {
    let fb = IoMobileFramebuffer::new(kernel.display().clone(), gpu.clone(), coresurface.clone());
    kernel.register_service(fb.clone());
    fb
}

impl fmt::Debug for NativeIosStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NativeIosStack")
            .field("contexts", &self.contexts.lock().len())
            .finish()
    }
}
