//! Device/process assembly for the four evaluation platforms.
//!
//! Each platform is split into two planes (DESIGN.md §5c):
//!
//! * a **device** layer — kernel, linker, GPU, gralloc/SurfaceFlinger,
//!   CoreSurface, diplomat engine and vendor libraries — booted once and
//!   shared by every app on the device, and
//! * a **session** layer — one app's process (main thread plus any spawned
//!   threads), its EGL/EAGL contexts and surfaces, and its private
//!   virtual-time/stats scope — cheap to attach, many per device.
//!
//! Booting a device also attaches a *primary* session, so the historical
//! one-app-per-device API (`boot()` + `main_tid()`) is unchanged and
//! byte-identical in cost. Additional apps call `attach_session()`.

use std::fmt;
use std::sync::Arc;

use cycada_diplomat::{DiplomatEngine, StatsScopeGuard};
use cycada_egl::loadout::{register_android_graphics, LIBEGL};
use cycada_egl::AndroidEgl;
use cycada_gpu::GpuDevice;
use cycada_gralloc::{GraphicBufferAllocator, GrallocDriver, SurfaceFlinger};
use cycada_iosurface::{CoreSurfaceService, IOSurfaceApi};
use cycada_kernel::{Kernel, Persona, SimTid};
use cycada_linker::DynamicLinker;
use cycada_sim::stats::FunctionStats;
use cycada_sim::{MeterGuard, Nanos, Platform, SessionMeter};

use crate::bridge::GlesBridge;
use crate::eagl::Eagl;
use crate::egl_bridge::{register_bridge_libraries, EglBridge};
use crate::error::CycadaError;
use crate::iosurface_bridge::IoSurfaceBridge;
use crate::native_ios::{register_ios_display, register_ios_graphics, NativeIosStack};
use crate::Result;

/// Well-known iOS TLS slots reserved by Apple graphics libraries, migrated
/// during impersonation (§7.1: "We also migrate well-known iOS TLS slots
/// used by Apple graphics libraries").
pub const APPLE_GRAPHICS_TLS_SLOTS: &[usize] = &[5, 6, 7];

/// The largest display side a device boots with, and the largest layer
/// side [`crate::AppGl::set_display_layer`] accepts: the Nexus 7 Tegra 3's
/// `GL_MAX_TEXTURE_SIZE`, which the GLES layer enforces for textures too.
/// The largest profile panel is 1280×800.
pub(crate) const MAX_DISPLAY_SIDE: u32 = 2048;

/// `platform`'s device profile, with the panel resized to `display`.
///
/// # Errors
///
/// Returns [`CycadaError::InvalidArgument`] if a side of `display` is 0
/// or above [`MAX_DISPLAY_SIDE`].
fn profile_with_display(
    platform: Platform,
    display: Option<(u32, u32)>,
) -> Result<cycada_sim::DeviceProfile> {
    let mut profile = cycada_sim::DeviceProfile::for_platform(platform);
    if let Some((w, h)) = display {
        if !(1..=MAX_DISPLAY_SIDE).contains(&w) || !(1..=MAX_DISPLAY_SIDE).contains(&h) {
            return Err(CycadaError::InvalidArgument(format!(
                "display {w}x{h}: each side must be 1..={MAX_DISPLAY_SIDE}"
            )));
        }
        profile.display_width = w;
        profile.display_height = h;
    }
    Ok(profile)
}

/// Live scope of one session on the calling host thread: virtual time
/// charged and diplomat calls made while the guard is alive are credited to
/// the session's meter and stats.
///
/// Drive each session's frames from its own host thread with a scope open;
/// the per-session totals are then independent of how sessions interleave
/// on the shared device.
#[must_use = "the session only accumulates while the scope is alive"]
#[derive(Debug)]
pub struct SessionScope {
    _stats: Option<StatsScopeGuard>,
    _meter: MeterGuard,
}

/// The shared (booted-once) layer of a Cycada device: everything below the
/// app process in Figure 3.
pub struct CycadaShared {
    kernel: Arc<Kernel>,
    gpu: Arc<GpuDevice>,
    linker: Arc<DynamicLinker>,
    flinger: Arc<SurfaceFlinger>,
    gralloc: Arc<GrallocDriver>,
    coresurface: Arc<CoreSurfaceService>,
    engine: Arc<DiplomatEngine>,
    egl: Arc<AndroidEgl>,
    bridge: Arc<GlesBridge>,
    egl_bridge: Arc<EglBridge>,
    iosurface_bridge: Arc<IoSurfaceBridge>,
    eagl: Arc<Eagl>,
}

impl fmt::Debug for CycadaShared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CycadaShared")
            .field("kernel", &self.kernel)
            .finish()
    }
}

/// One iOS app attached to a shared Cycada device: its process and its
/// private accounting scope.
#[derive(Clone, Debug)]
pub struct CycadaSession {
    shared: Arc<CycadaShared>,
    main_tid: SimTid,
    meter: SessionMeter,
    stats: FunctionStats,
}

impl CycadaSession {
    fn attach(shared: &Arc<CycadaShared>) -> Result<Self> {
        let main_tid = shared.kernel.spawn_process_main(Persona::Ios)?;
        Ok(CycadaSession {
            shared: shared.clone(),
            main_tid,
            meter: SessionMeter::new(),
            stats: FunctionStats::new(),
        })
    }

    /// The session's main thread.
    pub fn main_tid(&self) -> SimTid {
        self.main_tid
    }

    /// Spawns another iOS thread in this session's thread group.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Kernel`] if the group leader exited.
    pub fn spawn_ios_thread(&self) -> Result<SimTid> {
        Ok(self.shared.kernel.spawn_thread(self.main_tid, Persona::Ios)?)
    }

    /// Opens the session's accounting scope on the calling host thread.
    pub fn scope(&self) -> SessionScope {
        SessionScope {
            _stats: Some(DiplomatEngine::enter_stats_scope(self.stats.clone())),
            _meter: self.meter.enter(),
        }
    }

    /// Virtual nanoseconds charged inside this session's scopes so far.
    pub fn virtual_ns(&self) -> Nanos {
        self.meter.total_ns()
    }

    /// Per-diplomat stats recorded inside this session's scopes.
    pub fn stats(&self) -> &FunctionStats {
        &self.stats
    }
}

/// A booted Cycada device (the paper's Nexus 7 running the modified
/// Android) hosting iOS processes: the complete graphics compatibility
/// architecture of Figure 3.
///
/// Cloning is cheap (the platform layer is shared); every clone sees the
/// same device and the same primary session.
#[derive(Clone)]
pub struct CycadaDevice {
    shared: Arc<CycadaShared>,
    primary: CycadaSession,
}

impl CycadaDevice {
    /// Boots the device and starts an iOS process on it.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Kernel`] if process creation fails (should
    /// not happen on a Cycada kernel).
    pub fn boot() -> Result<Self> {
        Self::boot_with_display(None)
    }

    /// Boots with an overridden display size (small displays keep tests
    /// fast; benchmarks use the device's native panel).
    ///
    /// # Errors
    ///
    /// As [`CycadaDevice::boot`], plus [`CycadaError::InvalidArgument`]
    /// if a side of `display` is 0 or above 2048.
    pub fn boot_with_display(display: Option<(u32, u32)>) -> Result<Self> {
        let profile = profile_with_display(Platform::CycadaIos, display)?;
        let kernel = Arc::new(Kernel::with_profile(profile));
        let gpu = Arc::new(GpuDevice::new(kernel.profile().gpu.clone()));
        let flinger = Arc::new(SurfaceFlinger::new(kernel.display().clone(), gpu.clone()));
        let gralloc = GrallocDriver::new();
        kernel.register_driver(gralloc.clone());
        // LinuxCoreSurface: the reverse-engineered IOCoreSurface
        // reimplementation inside the Android kernel (§6).
        let coresurface = CoreSurfaceService::new();
        kernel.register_service(coresurface.clone());

        let linker = Arc::new(DynamicLinker::new());
        register_android_graphics(&linker, &kernel, &gpu, &flinger, &gralloc);
        register_bridge_libraries(&linker);

        let egl = linker
            .dlopen(LIBEGL)
            .map_err(CycadaError::from)?
            .state::<AndroidEgl>()
            .ok_or_else(|| CycadaError::Egl("libEGL has wrong state type".into()))?;

        let engine = DiplomatEngine::new(kernel.clone(), linker.clone());
        for &slot in APPLE_GRAPHICS_TLS_SLOTS {
            engine.graphics_tls().register_well_known(Persona::Ios, slot);
        }

        let bridge = Arc::new(GlesBridge::new(engine.clone(), egl.clone()));
        let egl_bridge = Arc::new(EglBridge::new(engine.clone(), egl.clone()));
        let iosurface_api = Arc::new(IOSurfaceApi::new(kernel.clone()));
        let iosurface_bridge = Arc::new(IoSurfaceBridge::new(
            engine.clone(),
            egl.clone(),
            iosurface_api,
            GraphicBufferAllocator::new(kernel.clone(), gralloc.clone()),
        ));
        let hook_target = iosurface_bridge.clone();
        bridge.set_delete_textures_hook(move |names| hook_target.drop_texture_associations(names));

        let display = kernel.display();
        let eagl = Arc::new(Eagl::new(
            egl.clone(),
            bridge.clone(),
            egl_bridge.clone(),
            iosurface_bridge.clone(),
            (display.width(), display.height()),
        ));

        let shared = Arc::new(CycadaShared {
            kernel,
            gpu,
            linker,
            flinger,
            gralloc,
            coresurface,
            engine,
            egl,
            bridge,
            egl_bridge,
            iosurface_bridge,
            eagl,
        });
        let primary = CycadaSession::attach(&shared)?;
        Ok(CycadaDevice { shared, primary })
    }

    /// Attaches another app session: a fresh process (its own thread group)
    /// on the already-booted shared stack. Orders of magnitude cheaper than
    /// [`CycadaDevice::boot`].
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Kernel`] if process creation fails.
    pub fn attach_session(&self) -> Result<CycadaSession> {
        CycadaSession::attach(&self.shared)
    }

    /// The primary session attached at boot.
    pub fn primary_session(&self) -> &CycadaSession {
        &self.primary
    }

    /// The simulated kernel.
    pub fn kernel(&self) -> &Arc<Kernel> {
        &self.shared.kernel
    }

    /// The GPU device.
    pub fn gpu(&self) -> &Arc<GpuDevice> {
        &self.shared.gpu
    }

    /// The DLR-enabled dynamic linker.
    pub fn linker(&self) -> &Arc<DynamicLinker> {
        &self.shared.linker
    }

    /// The diplomat engine (stats, impersonation).
    pub fn engine(&self) -> &Arc<DiplomatEngine> {
        &self.shared.engine
    }

    /// The diplomatic GLES library (iOS GLES API surface).
    pub fn bridge(&self) -> &Arc<GlesBridge> {
        &self.shared.bridge
    }

    /// libEGLbridge.
    pub fn egl_bridge(&self) -> &Arc<EglBridge> {
        &self.shared.egl_bridge
    }

    /// The IOSurface bridge.
    pub fn iosurface_bridge(&self) -> &Arc<IoSurfaceBridge> {
        &self.shared.iosurface_bridge
    }

    /// The EAGL implementation.
    pub fn eagl(&self) -> &Arc<Eagl> {
        &self.shared.eagl
    }

    /// The open-source Android EGL front.
    pub fn egl(&self) -> &Arc<AndroidEgl> {
        &self.shared.egl
    }

    /// The SurfaceFlinger compositor.
    pub fn flinger(&self) -> &Arc<SurfaceFlinger> {
        &self.shared.flinger
    }

    /// The gralloc driver (leak checks).
    pub fn gralloc(&self) -> &Arc<GrallocDriver> {
        &self.shared.gralloc
    }

    /// The LinuxCoreSurface kernel module.
    pub fn coresurface(&self) -> &Arc<CoreSurfaceService> {
        &self.shared.coresurface
    }

    /// The primary session's main thread.
    pub fn main_tid(&self) -> SimTid {
        self.primary.main_tid
    }

    /// Spawns another iOS thread in the primary session's thread group.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Kernel`] if the group leader exited.
    pub fn spawn_ios_thread(&self) -> Result<SimTid> {
        self.primary.spawn_ios_thread()
    }
}

impl fmt::Debug for CycadaDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CycadaDevice")
            .field("kernel", &self.shared.kernel)
            .finish()
    }
}

/// The shared layer of an Android device: the normal EGL/GLES stack.
pub struct AndroidShared {
    kernel: Arc<Kernel>,
    gpu: Arc<GpuDevice>,
    linker: Arc<DynamicLinker>,
    flinger: Arc<SurfaceFlinger>,
    gralloc: Arc<GrallocDriver>,
    egl: Arc<AndroidEgl>,
}

impl fmt::Debug for AndroidShared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AndroidShared")
            .field("kernel", &self.kernel)
            .finish()
    }
}

/// One Android app attached to a shared Android device.
#[derive(Clone, Debug)]
pub struct AndroidSession {
    shared: Arc<AndroidShared>,
    main_tid: SimTid,
    meter: SessionMeter,
}

impl AndroidSession {
    fn attach(shared: &Arc<AndroidShared>) -> Result<Self> {
        let main_tid = shared.kernel.spawn_process_main(Persona::Android)?;
        shared.egl.initialize(main_tid)?;
        Ok(AndroidSession {
            shared: shared.clone(),
            main_tid,
            meter: SessionMeter::new(),
        })
    }

    /// The session's main thread.
    pub fn main_tid(&self) -> SimTid {
        self.main_tid
    }

    /// Spawns another Android thread in this session's thread group.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Kernel`] if the group leader exited.
    pub fn spawn_thread(&self) -> Result<SimTid> {
        Ok(self
            .shared
            .kernel
            .spawn_thread(self.main_tid, Persona::Android)?)
    }

    /// Opens the session's accounting scope on the calling host thread.
    pub fn scope(&self) -> SessionScope {
        SessionScope {
            _stats: None,
            _meter: self.meter.enter(),
        }
    }

    /// Virtual nanoseconds charged inside this session's scopes so far.
    pub fn virtual_ns(&self) -> Nanos {
        self.meter.total_ns()
    }
}

/// A booted Android device (stock or Cycada kernel) hosting Android
/// processes using the normal EGL/GLES stack.
#[derive(Clone)]
pub struct AndroidDevice {
    shared: Arc<AndroidShared>,
    primary: AndroidSession,
}

impl AndroidDevice {
    /// Boots an Android device.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Egl`] if the stack cannot initialize, or
    /// [`CycadaError::UnsupportedPlatform`] for non-Android platforms.
    pub fn boot(platform: Platform) -> Result<Self> {
        Self::boot_with_display(platform, None)
    }

    /// Boots with an overridden display size.
    ///
    /// # Errors
    ///
    /// As [`AndroidDevice::boot`], plus [`CycadaError::InvalidArgument`]
    /// if a side of `display` is 0 or above 2048.
    pub fn boot_with_display(platform: Platform, display: Option<(u32, u32)>) -> Result<Self> {
        if !matches!(platform, Platform::StockAndroid | Platform::CycadaAndroid) {
            return Err(CycadaError::UnsupportedPlatform(format!(
                "AndroidDevice cannot boot {platform:?}"
            )));
        }
        let profile = profile_with_display(platform, display)?;
        let kernel = Arc::new(Kernel::with_profile(profile));
        let gpu = Arc::new(GpuDevice::new(kernel.profile().gpu.clone()));
        let flinger = Arc::new(SurfaceFlinger::new(kernel.display().clone(), gpu.clone()));
        let gralloc = GrallocDriver::new();
        kernel.register_driver(gralloc.clone());
        let linker = Arc::new(DynamicLinker::new());
        register_android_graphics(&linker, &kernel, &gpu, &flinger, &gralloc);
        let egl = linker
            .dlopen(LIBEGL)
            .map_err(CycadaError::from)?
            .state::<AndroidEgl>()
            .ok_or_else(|| CycadaError::Egl("libEGL has wrong state type".into()))?;
        let shared = Arc::new(AndroidShared {
            kernel,
            gpu,
            linker,
            flinger,
            gralloc,
            egl,
        });
        let primary = AndroidSession::attach(&shared)?;
        Ok(AndroidDevice { shared, primary })
    }

    /// Attaches another app session on the already-booted shared stack.
    ///
    /// Android sessions share the default EGL connection (the
    /// single-connection restriction of §8 — only Cycada's
    /// `EGL_multi_context` lifts it), so all sessions on one device must
    /// speak the same locked GLES version.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Kernel`] if process creation fails.
    pub fn attach_session(&self) -> Result<AndroidSession> {
        AndroidSession::attach(&self.shared)
    }

    /// The primary session attached at boot.
    pub fn primary_session(&self) -> &AndroidSession {
        &self.primary
    }

    /// The simulated kernel.
    pub fn kernel(&self) -> &Arc<Kernel> {
        &self.shared.kernel
    }

    /// The GPU device.
    pub fn gpu(&self) -> &Arc<GpuDevice> {
        &self.shared.gpu
    }

    /// The dynamic linker.
    pub fn linker(&self) -> &Arc<DynamicLinker> {
        &self.shared.linker
    }

    /// The Android EGL front.
    pub fn egl(&self) -> &Arc<AndroidEgl> {
        &self.shared.egl
    }

    /// The SurfaceFlinger compositor.
    pub fn flinger(&self) -> &Arc<SurfaceFlinger> {
        &self.shared.flinger
    }

    /// The gralloc driver.
    pub fn gralloc(&self) -> &Arc<GrallocDriver> {
        &self.shared.gralloc
    }

    /// The primary session's main thread.
    pub fn main_tid(&self) -> SimTid {
        self.primary.main_tid
    }

    /// Spawns another Android thread in the primary session's thread group.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Kernel`] if the group leader exited.
    pub fn spawn_thread(&self) -> Result<SimTid> {
        self.primary.spawn_thread()
    }
}

impl fmt::Debug for AndroidDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AndroidDevice")
            .field("kernel", &self.shared.kernel)
            .finish()
    }
}

/// The shared layer of an iPad mini.
pub struct IosShared {
    kernel: Arc<Kernel>,
    gpu: Arc<GpuDevice>,
    linker: Arc<DynamicLinker>,
    stack: Arc<NativeIosStack>,
}

impl fmt::Debug for IosShared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IosShared")
            .field("kernel", &self.kernel)
            .finish()
    }
}

/// One native iOS app attached to a shared iPad.
#[derive(Clone, Debug)]
pub struct IosSession {
    shared: Arc<IosShared>,
    main_tid: SimTid,
    meter: SessionMeter,
}

impl IosSession {
    fn attach(shared: &Arc<IosShared>) -> Result<Self> {
        let main_tid = shared.kernel.spawn_process_main(Persona::Ios)?;
        Ok(IosSession {
            shared: shared.clone(),
            main_tid,
            meter: SessionMeter::new(),
        })
    }

    /// The session's main thread.
    pub fn main_tid(&self) -> SimTid {
        self.main_tid
    }

    /// Spawns another iOS thread in this session's thread group.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Kernel`] if the group leader exited.
    pub fn spawn_thread(&self) -> Result<SimTid> {
        Ok(self.shared.kernel.spawn_thread(self.main_tid, Persona::Ios)?)
    }

    /// Opens the session's accounting scope on the calling host thread.
    pub fn scope(&self) -> SessionScope {
        SessionScope {
            _stats: None,
            _meter: self.meter.enter(),
        }
    }

    /// Virtual nanoseconds charged inside this session's scopes so far.
    pub fn virtual_ns(&self) -> Nanos {
        self.meter.total_ns()
    }
}

/// A booted iPad mini running iOS apps natively.
#[derive(Clone)]
pub struct IosDevice {
    shared: Arc<IosShared>,
    primary: IosSession,
}

impl IosDevice {
    /// Boots the iPad.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Kernel`] if the stack cannot initialize.
    pub fn boot() -> Result<Self> {
        Self::boot_with_display(None)
    }

    /// Boots with an overridden display size.
    ///
    /// # Errors
    ///
    /// As [`IosDevice::boot`], plus [`CycadaError::InvalidArgument`]
    /// if a side of `display` is 0 or above 2048.
    pub fn boot_with_display(display: Option<(u32, u32)>) -> Result<Self> {
        let profile = profile_with_display(Platform::NativeIos, display)?;
        let kernel = Arc::new(Kernel::with_profile(profile));
        let gpu = Arc::new(GpuDevice::new(kernel.profile().gpu.clone()));
        let coresurface = CoreSurfaceService::new();
        kernel.register_service(coresurface.clone());
        register_ios_display(&kernel, &gpu, &coresurface);
        let linker = Arc::new(DynamicLinker::new());
        register_ios_graphics(&linker, &gpu);
        let stack = Arc::new(NativeIosStack::new(kernel.clone(), &linker, coresurface)?);
        let shared = Arc::new(IosShared {
            kernel,
            gpu,
            linker,
            stack,
        });
        let primary = IosSession::attach(&shared)?;
        Ok(IosDevice { shared, primary })
    }

    /// Attaches another app session on the already-booted shared stack.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Kernel`] if process creation fails.
    pub fn attach_session(&self) -> Result<IosSession> {
        IosSession::attach(&self.shared)
    }

    /// The primary session attached at boot.
    pub fn primary_session(&self) -> &IosSession {
        &self.primary
    }

    /// The simulated kernel.
    pub fn kernel(&self) -> &Arc<Kernel> {
        &self.shared.kernel
    }

    /// The GPU device.
    pub fn gpu(&self) -> &Arc<GpuDevice> {
        &self.shared.gpu
    }

    /// The dynamic linker.
    pub fn linker(&self) -> &Arc<DynamicLinker> {
        &self.shared.linker
    }

    /// The native iOS graphics stack.
    pub fn stack(&self) -> &Arc<NativeIosStack> {
        &self.shared.stack
    }

    /// The primary session's main thread.
    pub fn main_tid(&self) -> SimTid {
        self.primary.main_tid
    }

    /// Spawns another iOS thread in the primary session's thread group.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Kernel`] if the group leader exited.
    pub fn spawn_thread(&self) -> Result<SimTid> {
        self.primary.spawn_thread()
    }
}

impl fmt::Debug for IosDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IosDevice")
            .field("kernel", &self.shared.kernel)
            .finish()
    }
}
