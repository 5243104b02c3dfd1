//! A platform-independent app-side graphics facade.
//!
//! The paper's evaluation runs the *same* workloads (PassMark, SunSpider's
//! WebKit rendering, micro-benchmarks) on four configurations. [`AppGl`]
//! is the thin facade those workloads program against: on **Cycada iOS**
//! every call goes through the diplomatic GLES bridge and EAGL; on
//! **Android** (stock or Cycada kernel) calls go straight into the vendor
//! GLES through EGL; on **native iOS** they go straight into Apple's GLES
//! through native EAGL. Costs therefore differ exactly the way the real
//! platforms' do.

use std::fmt;
use std::sync::Arc;

use cycada_egl::{EglContextId, EglSurfaceId};
use cycada_gles::{
    Capability, ClientState, GlesVersion, Primitive, StringName, TexFormat, VendorGles,
};
use cycada_gpu::math::Mat4;
use cycada_gpu::Image;
use cycada_kernel::{Display, SimTid};
use cycada_sim::replay::{self, f32_arg, f64_arg, i32_arg, op};
use cycada_sim::{stats::FunctionStats, trace, Nanos, Platform, VirtualClock};

use crate::eagl::EaglContextId;
use crate::error::CycadaError;
use crate::process::{
    AndroidDevice, AndroidSession, CycadaDevice, CycadaSession, IosDevice, IosSession,
    SessionScope, MAX_DISPLAY_SIDE,
};
use crate::Result;

/// The per-call cap on [`AppGl::charge_cpu`]: one second of base CPU
/// work. Every workload charges a few milliseconds at most per call.
const MAX_CPU_CHARGE_NS: f64 = 1e9;

enum Backend {
    CycadaIos {
        device: CycadaDevice,
        session: CycadaSession,
        eagl_ctx: EaglContextId,
        fbo: u32,
    },
    Android {
        device: AndroidDevice,
        session: AndroidSession,
        ctx: EglContextId,
        surface: EglSurfaceId,
    },
    NativeIos {
        device: IosDevice,
        session: IosSession,
        eagl_ctx: u32,
        fbo: u32,
    },
}

/// One running app with a ready-to-draw full-screen GLES context.
pub struct AppGl {
    platform: Platform,
    version: GlesVersion,
    backend: Backend,
    tid: SimTid,
    width: u32,
    height: u32,
    // v2 emulation of the matrix stack (v1 forwards to GL).
    mvp_stack: Vec<Mat4>,
    program: u32,
    mvp_loc: i32,
    color_loc: i32,
}

impl AppGl {
    /// Boots a device for `platform` and sets up a full-screen rendering
    /// context of the requested GLES version.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError`] if the platform stack fails to initialize.
    pub fn boot(platform: Platform, version: GlesVersion) -> Result<AppGl> {
        Self::boot_with_display(platform, version, None)
    }

    /// Boots with an overridden display size. Tests use small panels so
    /// the software rasterizer stays fast; benchmarks use `None` (the
    /// device's native panel).
    ///
    /// # Errors
    ///
    /// As [`AppGl::boot`], plus [`CycadaError::InvalidArgument`] if a side
    /// of `display` is 0 or above 2048.
    pub fn boot_with_display(
        platform: Platform,
        version: GlesVersion,
        display: Option<(u32, u32)>,
    ) -> Result<AppGl> {
        match platform {
            Platform::CycadaIos => Self::boot_cycada(version, display),
            Platform::StockAndroid | Platform::CycadaAndroid => {
                Self::boot_android(platform, version, display)
            }
            Platform::NativeIos => Self::boot_native_ios(version, display),
        }
    }

    fn boot_cycada(version: GlesVersion, display: Option<(u32, u32)>) -> Result<AppGl> {
        let device = CycadaDevice::boot_with_display(display)?;
        let session = device.primary_session().clone();
        Self::with_cycada_session(device, session, version)
    }

    /// Attaches a new app session to an already-booted Cycada device and
    /// sets up a full-screen context for it. Many apps can attach to one
    /// device and render concurrently, each from its own host thread.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError`] if session or context setup fails.
    pub fn attach_cycada(device: &CycadaDevice, version: GlesVersion) -> Result<AppGl> {
        let session = device.attach_session()?;
        Self::with_cycada_session(device.clone(), session, version)
    }

    fn with_cycada_session(
        device: CycadaDevice,
        session: CycadaSession,
        version: GlesVersion,
    ) -> Result<AppGl> {
        let tid = session.main_tid();
        let display = device.kernel().display();
        let (w, h) = (display.width(), display.height());
        let eagl = device.eagl().clone();
        let bridge = device.bridge().clone();

        let eagl_ctx = eagl.init_with_api(tid, version)?;
        eagl.set_current_context(tid, Some(eagl_ctx))?;
        let rb = eagl.renderbuffer_storage_from_drawable(tid, eagl_ctx, w, h)?;
        let fbo = bridge.gen_framebuffers(tid, 1)?[0];
        bridge.bind_framebuffer(tid, fbo)?;
        bridge.framebuffer_renderbuffer(tid, rb)?;
        bridge.viewport(tid, 0, 0, w, h)?;

        let mut app = AppGl {
            platform: Platform::CycadaIos,
            version,
            backend: Backend::CycadaIos {
                device,
                session,
                eagl_ctx,
                fbo,
            },
            tid,
            width: w,
            height: h,
            mvp_stack: vec![Mat4::identity()],
            program: 0,
            mvp_loc: -1,
            color_loc: -1,
        };
        app.setup_version_state()?;
        Ok(app)
    }

    fn boot_android(
        platform: Platform,
        version: GlesVersion,
        display: Option<(u32, u32)>,
    ) -> Result<AppGl> {
        let device = AndroidDevice::boot_with_display(platform, display)?;
        let session = device.primary_session().clone();
        Self::with_android_session(device, session, platform, version)
    }

    /// Attaches a new app session to an already-booted Android device.
    ///
    /// All sessions share the default EGL connection (the single-connection
    /// restriction), so they must request the device's locked GLES version.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError`] if session or context setup fails.
    pub fn attach_android(device: &AndroidDevice, version: GlesVersion) -> Result<AppGl> {
        let platform = device.kernel().profile().platform;
        let session = device.attach_session()?;
        Self::with_android_session(device.clone(), session, platform, version)
    }

    fn with_android_session(
        device: AndroidDevice,
        session: AndroidSession,
        platform: Platform,
        version: GlesVersion,
    ) -> Result<AppGl> {
        let tid = session.main_tid();
        let display = device.kernel().display();
        let (w, h) = (display.width(), display.height());
        let egl = device.egl().clone();
        let ctx = egl.create_context(tid, version)?;
        let surface = egl.create_window_surface(tid, w, h)?;
        egl.make_current(tid, Some(ctx), Some(surface))?;
        let mut app = AppGl {
            platform,
            version,
            backend: Backend::Android {
                device,
                session,
                ctx,
                surface,
            },
            tid,
            width: w,
            height: h,
            mvp_stack: vec![Mat4::identity()],
            program: 0,
            mvp_loc: -1,
            color_loc: -1,
        };
        app.setup_version_state()?;
        Ok(app)
    }

    fn boot_native_ios(version: GlesVersion, display: Option<(u32, u32)>) -> Result<AppGl> {
        let device = IosDevice::boot_with_display(display)?;
        let session = device.primary_session().clone();
        Self::with_native_ios_session(device, session, version)
    }

    /// Attaches a new app session to an already-booted native iOS device.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError`] if session or context setup fails.
    pub fn attach_native_ios(device: &IosDevice, version: GlesVersion) -> Result<AppGl> {
        let session = device.attach_session()?;
        Self::with_native_ios_session(device.clone(), session, version)
    }

    fn with_native_ios_session(
        device: IosDevice,
        session: IosSession,
        version: GlesVersion,
    ) -> Result<AppGl> {
        let tid = session.main_tid();
        let display = device.kernel().display();
        let (w, h) = (display.width(), display.height());
        let stack = device.stack().clone();
        let eagl_ctx = stack.init_with_api(version);
        stack.set_current_context(tid, Some(eagl_ctx))?;
        let rb = stack.renderbuffer_storage_from_drawable(tid, eagl_ctx, w, h)?;
        let fbo = stack.gles().with_current(tid, |c| {
            let fbo = c.gen_framebuffers(1)[0];
            c.bind_framebuffer(fbo);
            c.framebuffer_renderbuffer(rb);
            c.set_viewport(0, 0, w, h);
            fbo
        });
        let mut app = AppGl {
            platform: Platform::NativeIos,
            version,
            backend: Backend::NativeIos {
                device,
                session,
                eagl_ctx,
                fbo,
            },
            tid,
            width: w,
            height: h,
            mvp_stack: vec![Mat4::identity()],
            program: 0,
            mvp_loc: -1,
            color_loc: -1,
        };
        app.setup_version_state()?;
        Ok(app)
    }

    fn setup_version_state(&mut self) -> Result<()> {
        match self.version {
            GlesVersion::V1 => {
                self.with_bridge_or_vendor(
                    |bridge, tid| {
                        bridge.enable_client_state(tid, ClientState::VertexArray)?;
                        Ok(())
                    },
                    |gles, tid| {
                        gles.with_current(tid, |c| {
                            c.set_client_state(ClientState::VertexArray, true)
                        });
                        Ok(())
                    },
                )?;
            }
            GlesVersion::V2 => {
                // Standard two-shader program with u_mvp / u_color.
                let (program, mvp_loc, color_loc) = self.with_bridge_or_vendor(
                    |bridge, tid| {
                        let vs = bridge.create_shader(tid)?;
                        bridge.shader_source(tid, vs, "attribute vec3 a_pos; uniform mat4 u_mvp;")?;
                        bridge.compile_shader(tid, vs)?;
                        let fs = bridge.create_shader(tid)?;
                        bridge.shader_source(tid, fs, "uniform vec4 u_color;")?;
                        bridge.compile_shader(tid, fs)?;
                        let program = bridge.create_program(tid)?;
                        bridge.attach_shader(tid, program, vs)?;
                        bridge.attach_shader(tid, program, fs)?;
                        bridge.link_program(tid, program)?;
                        bridge.use_program(tid, program)?;
                        let mvp = bridge.uniform_location(tid, program, "u_mvp")?;
                        let color = bridge.uniform_location(tid, program, "u_color")?;
                        bridge.enable_vertex_attrib_array(tid, 0)?;
                        Ok((program, mvp, color))
                    },
                    |gles, tid| {
                        Ok(gles.with_current(tid, |c| {
                            let vs = c.create_shader();
                            c.shader_source(vs, "attribute vec3 a_pos; uniform mat4 u_mvp;");
                            c.compile_shader(vs);
                            let fs = c.create_shader();
                            c.shader_source(fs, "uniform vec4 u_color;");
                            c.compile_shader(fs);
                            let program = c.create_program();
                            c.attach_shader(program, vs);
                            c.attach_shader(program, fs);
                            c.link_program(program);
                            c.use_program(program);
                            let mvp = c.uniform_location(program, "u_mvp");
                            let color = c.uniform_location(program, "u_color");
                            c.set_vertex_attrib_enabled(0, true);
                            (program, mvp, color)
                        }))
                    },
                )?;
                self.program = program;
                self.mvp_loc = mvp_loc;
                self.color_loc = color_loc;
            }
        }
        Ok(())
    }

    /// Runs `f` through the Cycada bridge or `g` against the platform's
    /// vendor GLES, whichever this backend uses.
    fn with_bridge_or_vendor<R>(
        &self,
        f: impl FnOnce(&crate::bridge::GlesBridge, SimTid) -> Result<R>,
        g: impl FnOnce(&Arc<VendorGles>, SimTid) -> Result<R>,
    ) -> Result<R> {
        match &self.backend {
            Backend::CycadaIos { device, .. } => f(device.bridge(), self.tid),
            Backend::Android { device, .. } => {
                let gles = device
                    .egl()
                    .gles_for_thread(self.tid)
                    .map_err(CycadaError::from)?;
                g(&gles, self.tid)
            }
            Backend::NativeIos { device, .. } => g(device.stack().gles(), self.tid),
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// The platform configuration this app runs on.
    pub fn platform(&self) -> Platform {
        self.platform
    }

    /// The GLES version in use.
    pub fn version(&self) -> GlesVersion {
        self.version
    }

    /// The app's main thread.
    pub fn tid(&self) -> SimTid {
        self.tid
    }

    /// Render target width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Render target height.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The simulated kernel behind this app.
    pub fn kernel(&self) -> Arc<cycada_kernel::Kernel> {
        match &self.backend {
            Backend::CycadaIos { device, .. } => device.kernel().clone(),
            Backend::Android { device, .. } => device.kernel().clone(),
            Backend::NativeIos { device, .. } => device.kernel().clone(),
        }
    }

    /// Charges CPU-bound app work (layout, painting, JS) scaled by the
    /// device's CPU speed.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::InvalidArgument`], charging and recording
    /// nothing, if `base_ns` is not finite or exceeds the per-call cap of
    /// one second (10⁹ ns).
    pub fn charge_cpu(&self, base_ns: f64) -> Result<()> {
        if !base_ns.is_finite() || base_ns > MAX_CPU_CHARGE_NS {
            return Err(CycadaError::InvalidArgument(format!(
                "CPU charge of {base_ns} ns: must be finite and at most \
                 {MAX_CPU_CHARGE_NS} ns"
            )));
        }
        let kernel = self.kernel();
        let cost = kernel.profile().cpu_cost(base_ns);
        kernel.clock().charge_ns_f64(cost);
        if replay::active() {
            replay::record(op::CHARGE_CPU, &[f64_arg(base_ns)], &[]);
        }
        Ok(())
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> VirtualClock {
        match &self.backend {
            Backend::CycadaIos { device, .. } => device.kernel().clock().clone(),
            Backend::Android { device, .. } => device.kernel().clock().clone(),
            Backend::NativeIos { device, .. } => device.kernel().clock().clone(),
        }
    }

    /// Current virtual time.
    pub fn now_ns(&self) -> Nanos {
        self.clock().now_ns()
    }

    /// The device display.
    pub fn display(&self) -> Display {
        match &self.backend {
            Backend::CycadaIos { device, .. } => device.kernel().display().clone(),
            Backend::Android { device, .. } => device.kernel().display().clone(),
            Backend::NativeIos { device, .. } => device.kernel().display().clone(),
        }
    }

    /// A snapshot of the device's per-GLES-function diplomat statistics —
    /// only meaningful on Cycada iOS (Figures 7–10).
    pub fn gl_stats(&self) -> Option<FunctionStats> {
        match &self.backend {
            Backend::CycadaIos { device, .. } => Some(device.engine().stats()),
            _ => None,
        }
    }

    /// The Cycada device, when running on Cycada iOS (for tests poking at
    /// the compatibility layer).
    pub fn cycada_device(&self) -> Option<&CycadaDevice> {
        match &self.backend {
            Backend::CycadaIos { device, .. } => Some(device),
            _ => None,
        }
    }

    /// The Cycada session this app runs in, when on Cycada iOS.
    pub fn cycada_session(&self) -> Option<&CycadaSession> {
        match &self.backend {
            Backend::CycadaIos { session, .. } => Some(session),
            _ => None,
        }
    }

    /// Opens this app's session accounting scope on the calling host
    /// thread: virtual time charged (and, on Cycada, diplomat calls made)
    /// while the guard lives are credited to the session, independent of
    /// other sessions interleaving on the shared device.
    pub fn session_scope(&self) -> SessionScope {
        match &self.backend {
            Backend::CycadaIos { session, .. } => session.scope(),
            Backend::Android { session, .. } => session.scope(),
            Backend::NativeIos { session, .. } => session.scope(),
        }
    }

    /// Virtual nanoseconds this app's session has accumulated inside its
    /// scopes ([`AppGl::session_scope`]).
    pub fn session_virtual_ns(&self) -> Nanos {
        match &self.backend {
            Backend::CycadaIos { session, .. } => session.virtual_ns(),
            Backend::Android { session, .. } => session.virtual_ns(),
            Backend::NativeIos { session, .. } => session.virtual_ns(),
        }
    }

    /// Per-diplomat stats recorded inside this session's scopes — only
    /// meaningful on Cycada iOS.
    pub fn session_stats(&self) -> Option<FunctionStats> {
        self.cycada_session().map(|s| s.stats().clone())
    }

    // ------------------------------------------------------------------
    // Trace plane (cycada_sim::trace)
    // ------------------------------------------------------------------

    /// Starts a fresh trace capture: clears previously buffered events and
    /// enables recording process-wide. Tracing never touches the virtual
    /// clock, so figures and session accounting are unaffected.
    pub fn trace_begin(&self) {
        trace::clear();
        trace::set_enabled(true);
    }

    /// Whether trace recording is currently enabled.
    pub fn trace_enabled(&self) -> bool {
        trace::enabled()
    }

    /// Stops recording and drains the capture as Chrome `trace_event`
    /// JSON (load in `chrome://tracing` or Perfetto).
    pub fn trace_end_json(&self) -> String {
        trace::set_enabled(false);
        trace::chrome_trace_json(&trace::drain())
    }

    /// Stops recording and drains the capture as a plain-text per-function
    /// summary (call counts, total virtual and wall time per event name).
    pub fn trace_end_summary(&self) -> String {
        trace::set_enabled(false);
        trace::summary(&trace::drain())
    }

    /// Marks a point in the capture from app code (recorded only while
    /// tracing is enabled).
    pub fn trace_mark(&self, name: &'static str, arg: u64) {
        trace::instant(trace::Category::App, name, arg);
    }

    /// Current values of every trace counter, in declaration order. The
    /// failure/lifecycle counters (swallowed impersonation-drop errors,
    /// row-bytes teardown skips, replica loads, EGL lifecycle, presents)
    /// count even while tracing is disabled.
    pub fn trace_counters(&self) -> Vec<(&'static str, u64)> {
        trace::counters()
    }

    /// The app's framebuffer object on the iOS paths (EAGL renders
    /// off-screen; Android renders to the window's default framebuffer).
    pub fn framebuffer(&self) -> Option<u32> {
        match &self.backend {
            Backend::CycadaIos { fbo, .. } | Backend::NativeIos { fbo, .. } => Some(*fbo),
            Backend::Android { .. } => None,
        }
    }

    /// The EGL context handle on the Android paths.
    pub fn egl_context(&self) -> Option<EglContextId> {
        match &self.backend {
            Backend::Android { ctx, .. } => Some(*ctx),
            _ => None,
        }
    }

    /// The render target (off-screen drawable on iOS paths, back buffer on
    /// Android).
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError`] if the target cannot be resolved.
    pub fn render_target(&self) -> Result<Image> {
        match &self.backend {
            Backend::CycadaIos { device, eagl_ctx, .. } => device.eagl().drawable_image(*eagl_ctx),
            Backend::Android { device, surface, .. } => Ok(device
                .egl()
                .surface_back_buffer(*surface)
                .map_err(CycadaError::from)?
                .image()
                .clone()),
            Backend::NativeIos { device, eagl_ctx, .. } => {
                device.stack().drawable_image(*eagl_ctx)
            }
        }
    }

    /// FNV hash of the render target's canonical RGBA pixels.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError`] if the target cannot be resolved.
    pub fn render_hash(&self) -> Result<u64> {
        Ok(self.render_target()?.pixel_hash())
    }

    // ------------------------------------------------------------------
    // Drawing
    // ------------------------------------------------------------------

    /// Clears the render target.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError`] on bridge failures.
    pub fn clear(&self, r: f32, g: f32, b: f32, a: f32) -> Result<()> {
        self.with_bridge_or_vendor(
            |bridge, tid| {
                bridge.clear_color(tid, r, g, b, a)?;
                bridge.clear(tid, true, true)
            },
            |gles, tid| {
                gles.with_current(tid, |c| {
                    c.clear_color(r, g, b, a);
                    c.clear(true, true);
                });
                Ok(())
            },
        )?;
        if replay::active() {
            replay::record(
                op::CLEAR,
                &[f32_arg(r), f32_arg(g), f32_arg(b), f32_arg(a)],
                &[],
            );
        }
        Ok(())
    }

    /// `glScissor` — sets the scissor box. Combined with enabling
    /// [`Capability::ScissorTest`], this is the partial-redraw idiom
    /// whose damage the compositor plane tracks (DESIGN.md §5g).
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError`] on bridge failures.
    pub fn set_scissor(&self, x: i32, y: i32, w: u32, h: u32) -> Result<()> {
        self.with_bridge_or_vendor(
            |bridge, tid| bridge.scissor(tid, x, y, w, h),
            |gles, tid| {
                gles.with_current(tid, |c| c.set_scissor(x, y, w, h));
                Ok(())
            },
        )?;
        if replay::active() {
            replay::record(
                op::SCISSOR,
                &[i32_arg(x), i32_arg(y), u64::from(w), u64::from(h)],
                &[],
            );
        }
        Ok(())
    }

    /// Enables or disables a GL capability.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError`] on bridge failures.
    pub fn set_capability(&self, cap: Capability, on: bool) -> Result<()> {
        self.with_bridge_or_vendor(
            |bridge, tid| {
                if on {
                    bridge.enable(tid, cap)
                } else {
                    bridge.disable(tid, cap)
                }
            },
            |gles, tid| {
                gles.with_current(tid, |c| if on { c.enable(cap) } else { c.disable(cap) });
                Ok(())
            },
        )?;
        if replay::active() {
            replay::record(op::CAPABILITY, &[u64::from(cap.code()), u64::from(on)], &[]);
        }
        Ok(())
    }

    fn current_mvp(&self) -> Mat4 {
        *self.mvp_stack.last().expect("stack never empty")
    }

    /// Pushes the transform stack (maps to `glPushMatrix` on v1).
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError`] on bridge failures.
    pub fn push_transform(&mut self) -> Result<()> {
        self.mvp_stack.push(self.current_mvp());
        if self.version == GlesVersion::V1 {
            self.with_bridge_or_vendor(
                |bridge, tid| bridge.push_matrix(tid),
                |gles, tid| {
                    gles.with_current(tid, |c| c.push_matrix());
                    Ok(())
                },
            )?;
        }
        if replay::active() {
            replay::record(op::PUSH, &[], &[]);
        }
        Ok(())
    }

    /// Pops the transform stack (maps to `glPopMatrix` on v1).
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError`] on bridge failures.
    pub fn pop_transform(&mut self) -> Result<()> {
        if self.mvp_stack.len() > 1 {
            self.mvp_stack.pop();
        }
        if self.version == GlesVersion::V1 {
            self.with_bridge_or_vendor(
                |bridge, tid| bridge.pop_matrix(tid),
                |gles, tid| {
                    gles.with_current(tid, |c| c.pop_matrix());
                    Ok(())
                },
            )?;
        }
        if replay::active() {
            replay::record(op::POP, &[], &[]);
        }
        Ok(())
    }

    /// Rotates about Z (maps to `glRotatef` on v1, `u_mvp` on v2).
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError`] on bridge failures.
    pub fn rotate(&mut self, degrees: f32) -> Result<()> {
        let top = self.mvp_stack.last_mut().expect("stack never empty");
        *top = top.mul(&Mat4::rotate_z(degrees));
        match self.version {
            GlesVersion::V1 => self.with_bridge_or_vendor(
                |bridge, tid| bridge.rotatef(tid, degrees, 0.0, 0.0, 1.0),
                |gles, tid| {
                    gles.with_current(tid, |c| c.rotate(degrees, 0.0, 0.0, 1.0));
                    Ok(())
                },
            ),
            GlesVersion::V2 => self.upload_mvp(),
        }?;
        if replay::active() {
            replay::record(op::ROTATE, &[f32_arg(degrees)], &[]);
        }
        Ok(())
    }

    /// Translates (maps to `glTranslatef` on v1).
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError`] on bridge failures.
    pub fn translate(&mut self, x: f32, y: f32, z: f32) -> Result<()> {
        let top = self.mvp_stack.last_mut().expect("stack never empty");
        *top = top.mul(&Mat4::translate(x, y, z));
        match self.version {
            GlesVersion::V1 => self.with_bridge_or_vendor(
                |bridge, tid| bridge.translatef(tid, x, y, z),
                |gles, tid| {
                    gles.with_current(tid, |c| c.translate(x, y, z));
                    Ok(())
                },
            ),
            GlesVersion::V2 => self.upload_mvp(),
        }?;
        if replay::active() {
            replay::record(op::TRANSLATE, &[f32_arg(x), f32_arg(y), f32_arg(z)], &[]);
        }
        Ok(())
    }

    /// Scales (maps to `glScalef` on v1).
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError`] on bridge failures.
    pub fn scale(&mut self, x: f32, y: f32, z: f32) -> Result<()> {
        let top = self.mvp_stack.last_mut().expect("stack never empty");
        *top = top.mul(&Mat4::scale(x, y, z));
        match self.version {
            GlesVersion::V1 => self.with_bridge_or_vendor(
                |bridge, tid| bridge.scalef(tid, x, y, z),
                |gles, tid| {
                    gles.with_current(tid, |c| c.scale(x, y, z));
                    Ok(())
                },
            ),
            GlesVersion::V2 => self.upload_mvp(),
        }?;
        if replay::active() {
            replay::record(op::SCALE, &[f32_arg(x), f32_arg(y), f32_arg(z)], &[]);
        }
        Ok(())
    }

    /// Resets the transform to identity.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError`] on bridge failures.
    pub fn load_identity(&mut self) -> Result<()> {
        *self.mvp_stack.last_mut().expect("stack never empty") = Mat4::identity();
        match self.version {
            GlesVersion::V1 => self.with_bridge_or_vendor(
                |bridge, tid| bridge.load_identity(tid),
                |gles, tid| {
                    gles.with_current(tid, |c| c.load_identity());
                    Ok(())
                },
            ),
            GlesVersion::V2 => self.upload_mvp(),
        }?;
        if replay::active() {
            replay::record(op::IDENTITY, &[], &[]);
        }
        Ok(())
    }

    fn upload_mvp(&self) -> Result<()> {
        let m = self.current_mvp();
        let loc = self.mvp_loc;
        self.with_bridge_or_vendor(
            |bridge, tid| bridge.uniform_matrix4(tid, loc, m),
            |gles, tid| {
                gles.with_current(tid, |c| c.uniform_matrix4(loc, m));
                Ok(())
            },
        )
    }

    /// Draws a colored primitive list. `xyz` is a flat `[x, y, z]*` array.
    /// Returns fragments shaded.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError`] on bridge failures.
    pub fn draw(&self, mode: Primitive, xyz: &[f32], color: [f32; 4]) -> Result<u64> {
        let count = xyz.len() / 3;
        let frags = match self.version {
            GlesVersion::V1 => self.with_bridge_or_vendor(
                |bridge, tid| {
                    bridge.color4f(tid, color[0], color[1], color[2], color[3])?;
                    bridge.vertex_pointer(tid, 3, xyz)?;
                    bridge.draw_arrays(tid, mode, 0, count)
                },
                |gles, tid| {
                    Ok(gles.with_current(tid, |c| {
                        c.color4f(color[0], color[1], color[2], color[3]);
                        c.client_pointer(ClientState::VertexArray, 3, xyz);
                        c.draw_arrays(mode, 0, count)
                    }))
                },
            ),
            GlesVersion::V2 => {
                let color_loc = self.color_loc;
                self.with_bridge_or_vendor(
                    |bridge, tid| {
                        bridge.uniform4f(tid, color_loc, color[0], color[1], color[2], color[3])?;
                        bridge.vertex_attrib_pointer(tid, 0, 3, xyz)?;
                        bridge.draw_arrays(tid, mode, 0, count)
                    },
                    |gles, tid| {
                        Ok(gles.with_current(tid, |c| {
                            c.uniform4f(color_loc, color[0], color[1], color[2], color[3]);
                            c.vertex_attrib_pointer(0, 3, xyz);
                            c.draw_arrays(mode, 0, count)
                        }))
                    },
                )
            }
        }?;
        if replay::active() {
            let mut payload = Vec::with_capacity(xyz.len() * 4);
            for v in xyz {
                payload.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            replay::record(
                op::DRAW,
                &[
                    u64::from(mode.code()),
                    f32_arg(color[0]),
                    f32_arg(color[1]),
                    f32_arg(color[2]),
                    f32_arg(color[3]),
                ],
                &payload,
            );
        }
        Ok(frags)
    }

    /// Creates a texture from tightly packed pixel data.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError`] on bridge failures.
    pub fn create_texture(
        &self,
        w: u32,
        h: u32,
        format: TexFormat,
        data: &[u8],
    ) -> Result<u32> {
        let tex = self.with_bridge_or_vendor(
            |bridge, tid| {
                let tex = bridge.gen_textures(tid, 1)?[0];
                bridge.bind_texture(tid, tex)?;
                bridge.tex_image_2d(tid, w, h, format, Some(data))?;
                Ok(tex)
            },
            |gles, tid| {
                Ok(gles.with_current(tid, |c| {
                    let tex = c.gen_textures(1)[0];
                    c.bind_texture(tex);
                    c.tex_image_2d(w, h, format, Some(data));
                    tex
                }))
            },
        )?;
        if replay::active() {
            // The returned name rides along so replay can map recorded
            // names onto whatever this run's allocator hands out.
            replay::record(
                op::CREATE_TEXTURE,
                &[u64::from(w), u64::from(h), u64::from(format.code()), u64::from(tex)],
                data,
            );
        }
        Ok(tex)
    }

    /// Updates a texture sub-region (the WebKit tile-update path).
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError`] on bridge failures.
    #[allow(clippy::too_many_arguments)]
    pub fn update_texture(
        &self,
        tex: u32,
        x: u32,
        y: u32,
        w: u32,
        h: u32,
        format: TexFormat,
        data: &[u8],
    ) -> Result<()> {
        self.with_bridge_or_vendor(
            |bridge, tid| {
                bridge.bind_texture(tid, tex)?;
                bridge.tex_sub_image_2d(tid, x, y, w, h, format, data)
            },
            |gles, tid| {
                gles.with_current(tid, |c| {
                    c.bind_texture(tex);
                    c.tex_sub_image_2d(x, y, w, h, format, data);
                });
                Ok(())
            },
        )?;
        if replay::active() {
            replay::record(
                op::UPDATE_TEXTURE,
                &[
                    u64::from(tex),
                    u64::from(x),
                    u64::from(y),
                    u64::from(w),
                    u64::from(h),
                    u64::from(format.code()),
                ],
                data,
            );
        }
        Ok(())
    }

    /// Draws a textured quad covering `[x0,y0]..[x1,y1]` in NDC.
    /// Returns fragments shaded.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError`] on bridge failures.
    pub fn draw_textured_quad(
        &self,
        tex: u32,
        x0: f32,
        y0: f32,
        x1: f32,
        y1: f32,
    ) -> Result<u64> {
        let xyz = [
            x0, y0, 0.0, x1, y0, 0.0, x1, y1, 0.0, x0, y0, 0.0, x1, y1, 0.0, x0, y1, 0.0,
        ];
        let uv = [0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0];
        let frags = match self.version {
            GlesVersion::V1 => self.with_bridge_or_vendor(
                |bridge, tid| {
                    bridge.bind_texture(tid, tex)?;
                    bridge.enable(tid, Capability::Texture2D)?;
                    bridge.enable_client_state(tid, ClientState::TexCoordArray)?;
                    bridge.tex_coord_pointer(tid, 2, &uv)?;
                    bridge.color4f(tid, 1.0, 1.0, 1.0, 1.0)?;
                    bridge.vertex_pointer(tid, 3, &xyz)?;
                    let frags = bridge.draw_arrays(tid, Primitive::Triangles, 0, 6)?;
                    bridge.disable_client_state(tid, ClientState::TexCoordArray)?;
                    bridge.disable(tid, Capability::Texture2D)?;
                    Ok(frags)
                },
                |gles, tid| {
                    Ok(gles.with_current(tid, |c| {
                        c.bind_texture(tex);
                        c.enable(Capability::Texture2D);
                        c.set_client_state(ClientState::TexCoordArray, true);
                        c.client_pointer(ClientState::TexCoordArray, 2, &uv);
                        c.color4f(1.0, 1.0, 1.0, 1.0);
                        c.client_pointer(ClientState::VertexArray, 3, &xyz);
                        let frags = c.draw_arrays(Primitive::Triangles, 0, 6);
                        c.set_client_state(ClientState::TexCoordArray, false);
                        c.disable(Capability::Texture2D);
                        frags
                    }))
                },
            ),
            GlesVersion::V2 => {
                let color_loc = self.color_loc;
                self.with_bridge_or_vendor(
                    |bridge, tid| {
                        bridge.bind_texture(tid, tex)?;
                        bridge.uniform4f(tid, color_loc, 1.0, 1.0, 1.0, 1.0)?;
                        bridge.vertex_attrib_pointer(tid, 0, 3, &xyz)?;
                        bridge.enable_vertex_attrib_array(tid, 2)?;
                        bridge.vertex_attrib_pointer(tid, 2, 2, &uv)?;
                        bridge.draw_arrays(tid, Primitive::Triangles, 0, 6)
                    },
                    |gles, tid| {
                        Ok(gles.with_current(tid, |c| {
                            c.bind_texture(tex);
                            c.uniform4f(color_loc, 1.0, 1.0, 1.0, 1.0);
                            c.vertex_attrib_pointer(0, 3, &xyz);
                            c.set_vertex_attrib_enabled(2, true);
                            c.vertex_attrib_pointer(2, 2, &uv);
                            c.draw_arrays(Primitive::Triangles, 0, 6)
                        }))
                    },
                )
            }
        }?;
        if replay::active() {
            replay::record(
                op::TEX_QUAD,
                &[u64::from(tex), f32_arg(x0), f32_arg(y0), f32_arg(x1), f32_arg(y1)],
                &[],
            );
        }
        Ok(frags)
    }

    /// Draws a textured quad via `glDrawElements` (the WebKit tile
    /// composition path). Returns fragments shaded.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError`] on bridge failures.
    pub fn draw_textured_quad_indexed(
        &self,
        tex: u32,
        x0: f32,
        y0: f32,
        x1: f32,
        y1: f32,
    ) -> Result<u64> {
        let xyz = [x0, y0, 0.0, x1, y0, 0.0, x1, y1, 0.0, x0, y1, 0.0];
        let uv = [0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0];
        let indices = [0u32, 1, 2, 0, 2, 3];
        let frags = match self.version {
            GlesVersion::V1 => self.with_bridge_or_vendor(
                |bridge, tid| {
                    bridge.bind_texture(tid, tex)?;
                    bridge.enable(tid, Capability::Texture2D)?;
                    bridge.enable_client_state(tid, ClientState::TexCoordArray)?;
                    bridge.tex_coord_pointer(tid, 2, &uv)?;
                    bridge.color4f(tid, 1.0, 1.0, 1.0, 1.0)?;
                    bridge.vertex_pointer(tid, 3, &xyz)?;
                    let frags = bridge.draw_elements(tid, Primitive::Triangles, &indices)?;
                    bridge.disable_client_state(tid, ClientState::TexCoordArray)?;
                    bridge.disable(tid, Capability::Texture2D)?;
                    Ok(frags)
                },
                |gles, tid| {
                    Ok(gles.with_current(tid, |c| {
                        c.bind_texture(tex);
                        c.enable(Capability::Texture2D);
                        c.set_client_state(ClientState::TexCoordArray, true);
                        c.client_pointer(ClientState::TexCoordArray, 2, &uv);
                        c.color4f(1.0, 1.0, 1.0, 1.0);
                        c.client_pointer(ClientState::VertexArray, 3, &xyz);
                        let frags = c.draw_elements(Primitive::Triangles, &indices);
                        c.set_client_state(ClientState::TexCoordArray, false);
                        c.disable(Capability::Texture2D);
                        frags
                    }))
                },
            ),
            GlesVersion::V2 => {
                let color_loc = self.color_loc;
                self.with_bridge_or_vendor(
                    |bridge, tid| {
                        bridge.bind_texture(tid, tex)?;
                        bridge.uniform4f(tid, color_loc, 1.0, 1.0, 1.0, 1.0)?;
                        bridge.vertex_attrib_pointer(tid, 0, 3, &xyz)?;
                        bridge.enable_vertex_attrib_array(tid, 2)?;
                        bridge.vertex_attrib_pointer(tid, 2, 2, &uv)?;
                        bridge.draw_elements(tid, Primitive::Triangles, &indices)
                    },
                    |gles, tid| {
                        Ok(gles.with_current(tid, |c| {
                            c.bind_texture(tex);
                            c.uniform4f(color_loc, 1.0, 1.0, 1.0, 1.0);
                            c.vertex_attrib_pointer(0, 3, &xyz);
                            c.set_vertex_attrib_enabled(2, true);
                            c.vertex_attrib_pointer(2, 2, &uv);
                            c.draw_elements(Primitive::Triangles, &indices)
                        }))
                    },
                )
            }
        }?;
        if replay::active() {
            replay::record(
                op::TEX_QUAD_INDEXED,
                &[u64::from(tex), f32_arg(x0), f32_arg(y0), f32_arg(x1), f32_arg(y1)],
                &[],
            );
        }
        Ok(frags)
    }

    /// Sets the simulated GPU cost class (2D vector work vs 3D geometry)
    /// for subsequent draws. This is a simulation knob, not a GL call, so
    /// it bypasses the diplomat path.
    pub fn set_draw_class(&self, class: cycada_gpu::DrawClass) {
        let gles = match &self.backend {
            Backend::CycadaIos { device, .. } => device.egl().gles_for_thread(self.tid).ok(),
            Backend::Android { device, .. } => device.egl().gles_for_thread(self.tid).ok(),
            Backend::NativeIos { device, .. } => Some(device.stack().gles().clone()),
        };
        if let Some(gles) = gles {
            gles.set_draw_class(self.tid, class);
        }
        if replay::active() {
            replay::record(op::DRAW_CLASS, &[u64::from(class.code())], &[]);
        }
    }

    /// `glFlush`.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError`] on bridge failures.
    pub fn flush(&self) -> Result<()> {
        self.with_bridge_or_vendor(
            |bridge, tid| bridge.flush(tid),
            |gles, tid| {
                gles.flush(tid);
                Ok(())
            },
        )?;
        if replay::active() {
            replay::record(op::FLUSH, &[], &[]);
        }
        Ok(())
    }

    /// Deletes textures (interposed on the Cycada path, §6.1).
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError`] on bridge failures.
    pub fn delete_textures(&self, names: &[u32]) -> Result<()> {
        self.with_bridge_or_vendor(
            |bridge, tid| bridge.delete_textures(tid, names),
            |gles, tid| {
                gles.delete_textures(tid, names);
                Ok(())
            },
        )?;
        if replay::active() {
            let mut payload = Vec::with_capacity(names.len() * 4);
            for n in names {
                payload.extend_from_slice(&n.to_le_bytes());
            }
            replay::record(op::DELETE_TEXTURES, &[], &payload);
        }
        Ok(())
    }

    /// `glGetString(GL_EXTENSIONS)` as the app sees it.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError`] on bridge failures.
    pub fn extensions(&self) -> Result<Option<String>> {
        let s = self.with_bridge_or_vendor(
            |bridge, tid| bridge.get_string(tid, StringName::Extensions),
            |gles, tid| Ok(gles.get_string(tid, StringName::Extensions)),
        )?;
        if replay::active() {
            replay::record(op::EXTENSIONS, &[], &[]);
        }
        Ok(s)
    }

    /// Assigns this app's window a SurfaceFlinger layer rectangle:
    /// presented frames compose into the rectangle instead of covering the
    /// panel, so several apps sharing a device can own disjoint screen
    /// regions. Apps that never call this keep full-screen presentation.
    ///
    /// Native iOS has no compositor between the app and the panel; the
    /// call is a no-op there.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::InvalidArgument`] on every backend, before
    /// anything is charged or recorded, if `rect.w` or `rect.h` is above
    /// 2048 (the largest display side); [`CycadaError`] for unknown
    /// surfaces.
    pub fn set_display_layer(&self, rect: cycada_gpu::raster::Rect) -> Result<()> {
        if rect.w > MAX_DISPLAY_SIDE || rect.h > MAX_DISPLAY_SIDE {
            return Err(CycadaError::InvalidArgument(format!(
                "layer {}x{}: each side must be at most {MAX_DISPLAY_SIDE}",
                rect.w, rect.h
            )));
        }
        match &self.backend {
            Backend::CycadaIos {
                device, eagl_ctx, ..
            } => device.eagl().set_drawable_layer(*eagl_ctx, rect),
            Backend::Android {
                device, surface, ..
            } => Ok(device
                .egl()
                .set_surface_layer(*surface, rect)
                .map_err(CycadaError::from)?),
            Backend::NativeIos { .. } => Ok(()),
        }?;
        if replay::active() {
            replay::record(
                op::DISPLAY_LAYER,
                &[
                    u64::from(rect.x),
                    u64::from(rect.y),
                    u64::from(rect.w),
                    u64::from(rect.h),
                ],
                &[],
            );
        }
        Ok(())
    }

    /// Presents the frame to the display.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError`] on present failures.
    pub fn present(&self) -> Result<()> {
        match &self.backend {
            Backend::CycadaIos {
                device, eagl_ctx, ..
            } => device.eagl().present_renderbuffer(self.tid, *eagl_ctx),
            Backend::Android {
                device, surface, ..
            } => Ok(device
                .egl()
                .swap_buffers(self.tid, *surface)
                .map_err(CycadaError::from)?),
            Backend::NativeIos {
                device, eagl_ctx, ..
            } => device.stack().present_renderbuffer(self.tid, *eagl_ctx),
        }?;
        if replay::active() {
            // The post-present digest rides along as the expected value
            // replay checks each frame against. Hashing is a pure byte
            // read — it never touches the clock, so recording stays
            // invisible to session accounting.
            replay::record(op::PRESENT, &[self.render_hash().unwrap_or(0)], &[]);
        }
        Ok(())
    }
}

impl Drop for AppGl {
    /// Releases what the session created on its device (DESIGN.md §5c):
    /// the EAGL context with its drawable, EGL context, window surface and
    /// DLR replica connection on Cycada; the EGL context and window
    /// surface on Android; the EAGL context and drawable on native iOS.
    /// There is no caller to report a failure to, so teardown errors are
    /// swallowed and counted on `session-teardown-errors`.
    fn drop(&mut self) {
        let result = match &self.backend {
            Backend::CycadaIos {
                device, eagl_ctx, ..
            } => device.eagl().destroy_context(self.tid, *eagl_ctx),
            Backend::Android {
                device,
                ctx,
                surface,
                ..
            } => {
                let egl = device.egl();
                let surface = egl.destroy_surface(self.tid, *surface);
                let context = egl.destroy_context(*ctx);
                surface.and(context).map_err(CycadaError::from)
            }
            Backend::NativeIos {
                device, eagl_ctx, ..
            } => device.stack().destroy_context(self.tid, *eagl_ctx),
        };
        if result.is_err() {
            trace::bump(trace::Counter::SessionTeardownErrors);
            trace::instant(
                trace::Category::App,
                "session_teardown_error",
                self.tid.as_u64(),
            );
        }
    }
}

impl fmt::Debug for AppGl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AppGl")
            .field("platform", &self.platform)
            .field("version", &self.version)
            .field("size", &(self.width, self.height))
            .finish()
    }
}
