//! The diplomatic GLES library: the iOS GLES API surface over Android.
//!
//! "Loosely speaking, instead of having iOS apps use their own iOS GLES
//! libraries, Cycada has them use Android GLES libraries through diplomats"
//! (§3). [`GlesBridge`] exposes the iOS GLES surface; every call runs the
//! full diplomat procedure (persona switch, Android GLES invocation,
//! persona switch back) and is classified by usage pattern:
//!
//! * **direct** — straight to the same-named Android function;
//! * **indirect** — foreign wrapper redirects to a differently-named
//!   Android API (`APPLE_fence` → `NV_fence`);
//! * **data-dependent** — foreign logic inspects the inputs first
//!   (`glGetString`'s Apple parameter, `APPLE_row_bytes` repacking, BGRA
//!   conversion) and may skip the Android call entirely;
//! * the two **multi**-diplomat IOSurface binding functions live in
//!   [`crate::IoSurfaceBridge`].

use std::borrow::Cow;
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use cycada_diplomat::{
    DiplomatEngine, DiplomatEntry, DiplomatPattern, DiplomatTable, FnId, HookKind,
};
use cycada_egl::loadout::VENDOR_GLES_LIB;
use cycada_egl::AndroidEgl;
use cycada_gles::{
    Capability, ClientState, FramebufferStatus, GlesRegistry, MatrixMode, PixelStoreParam,
    Primitive, StringName, TexFormat, VendorGles,
};
use cycada_gpu::math::Mat4;
use cycada_kernel::SimTid;
use cycada_sim::{clock, fn_id, trace};


use crate::error::CycadaError;
use crate::Result;

/// Foreign-side cost of repacking one byte of pixel data (the manual
/// read-in/write-out the `APPLE_row_bytes` data-dependent diplomats do).
const REPACK_BYTE_NS: f64 = 0.3;

/// Bridge-side `APPLE_row_bytes` state, kept per thread because the Android
/// context cannot hold it (the enums are unknown there).
#[derive(Debug, Clone, Copy, Default)]
struct RowBytes {
    unpack: usize,
    pack: usize,
}

/// Distinguishes bridge instances in the thread-local row-bytes state so
/// two bridges on one host thread cannot alias each other's entries.
static NEXT_BRIDGE_INSTANCE: AtomicU64 = AtomicU64::new(0);

/// Instances of bridges still alive. Long-lived host threads serve many
/// short-lived sessions/devices, so thread-local row-bytes entries must be
/// evicted once their bridge is gone — membership here is the liveness
/// test ([`GlesBridge`]'s `Drop` retires the instance).
static LIVE_BRIDGES: std::sync::OnceLock<Mutex<std::collections::HashSet<u64>>> =
    std::sync::OnceLock::new();

fn live_bridges() -> &'static Mutex<std::collections::HashSet<u64>> {
    LIVE_BRIDGES.get_or_init(|| Mutex::new(std::collections::HashSet::new()))
}

/// Entry count above which an insert first evicts entries of dropped
/// bridges (and informationless default entries) from the calling thread.
const ROW_BYTES_PRUNE_LEN: usize = 8;

thread_local! {
    /// `(bridge instance, sim tid)` → `APPLE_row_bytes` state. A short
    /// linear-scanned vec: a thread touches a handful of (bridge, tid)
    /// pairs, and the scan replaces the old global mutex + hash per call.
    /// Growth across session churn is bounded by pruning on insert.
    static ROW_BYTES: RefCell<Vec<((u64, u64), RowBytes)>> = const { RefCell::new(Vec::new()) };
}

type DeleteHook = Box<dyn Fn(&[u32]) + Send + Sync>;

/// The diplomatic GLES library.
pub struct GlesBridge {
    engine: Arc<DiplomatEngine>,
    egl: Arc<AndroidEgl>,
    entries: DiplomatTable,
    instance: u64,
    on_delete_textures: Mutex<Option<DeleteHook>>,
}

impl GlesBridge {
    /// Creates the bridge. Forces the GLES registry so the whole bridged
    /// surface holds stable, registration-order [`FnId`]s before the first
    /// dispatch.
    pub fn new(engine: Arc<DiplomatEngine>, egl: Arc<AndroidEgl>) -> Self {
        GlesRegistry::global();
        let instance = NEXT_BRIDGE_INSTANCE.fetch_add(1, Ordering::Relaxed);
        live_bridges().lock().insert(instance);
        GlesBridge {
            engine,
            egl,
            entries: DiplomatTable::new(),
            instance,
            on_delete_textures: Mutex::new(None),
        }
    }

    /// The diplomat engine (for stats and impersonation).
    pub fn engine(&self) -> &Arc<DiplomatEngine> {
        &self.engine
    }

    /// Installs the `glDeleteTextures` interposition hook the IOSurface
    /// bridge uses to drop GraphicBuffer connections (§6.1).
    pub fn set_delete_textures_hook(&self, hook: impl Fn(&[u32]) + Send + Sync + 'static) {
        *self.on_delete_textures.lock() = Some(Box::new(hook));
    }

    fn entry(
        &self,
        id: FnId,
        android_symbol: &'static str,
        pattern: DiplomatPattern,
    ) -> &Arc<DiplomatEntry> {
        self.entries.get_or_register(id, || {
            DiplomatEntry::with_id(id, VENDOR_GLES_LIB, android_symbol, pattern, HookKind::Gles)
        })
    }

    fn gles(&self, tid: SimTid) -> Result<Arc<VendorGles>> {
        self.egl.gles_for_thread(tid).map_err(CycadaError::from)
    }

    /// A direct diplomat: same-named Android function.
    fn direct<R>(&self, tid: SimTid, id: FnId, f: impl FnOnce(&VendorGles) -> R) -> Result<R> {
        let entry = self.entry(id, id.name(), DiplomatPattern::Direct);
        let gles = self.gles(tid)?;
        Ok(self.engine.call(tid, entry, || f(&gles))?)
    }

    /// An indirect diplomat: redirected to a differently-named Android API.
    fn indirect<R>(
        &self,
        tid: SimTid,
        id: FnId,
        android_symbol: &'static str,
        f: impl FnOnce(&VendorGles) -> R,
    ) -> Result<R> {
        let entry = self.entry(id, android_symbol, DiplomatPattern::Indirect);
        let gles = self.gles(tid)?;
        Ok(self.engine.call(tid, entry, || f(&gles))?)
    }

    /// A data-dependent diplomat that does invoke Android.
    fn data_dependent<R>(
        &self,
        tid: SimTid,
        id: FnId,
        f: impl FnOnce(&VendorGles) -> R,
    ) -> Result<R> {
        let entry = self.entry(id, id.name(), DiplomatPattern::DataDependent);
        let gles = self.gles(tid)?;
        Ok(self.engine.call(tid, entry, || f(&gles))?)
    }

    /// A data-dependent diplomat that stays entirely in foreign code
    /// ("some data-dependent diplomats may not invoke an Android function
    /// at all", §4.1). Records the call under `id` with its (small)
    /// foreign-side cost.
    fn foreign_only<R>(&self, tid: SimTid, id: FnId, f: impl FnOnce() -> R) -> R {
        let _ = tid;
        let start = clock::now_ns();
        // Ensure the entry exists for classification introspection.
        let _ = self.entry(id, id.name(), DiplomatPattern::DataDependent);
        clock::charge_ns(40); // parameter inspection in foreign code
        let r = f();
        self.engine.record_call(id, clock::now_ns() - start);
        r
    }

    fn row_bytes(&self, tid: SimTid) -> RowBytes {
        let key = (self.instance, tid.as_u64());
        ROW_BYTES.with(|state| {
            state
                .borrow()
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, rb)| *rb)
                .unwrap_or_default()
        })
    }

    fn update_row_bytes(&self, tid: SimTid, f: impl FnOnce(&mut RowBytes)) {
        let key = (self.instance, tid.as_u64());
        ROW_BYTES.with(|state| {
            let mut state = state.borrow_mut();
            if let Some((_, rb)) = state.iter_mut().find(|(k, _)| *k == key) {
                f(rb);
            } else {
                if state.len() >= ROW_BYTES_PRUNE_LEN {
                    // Evict entries whose bridge is gone, plus defaults
                    // (absence already reads as default), so session churn
                    // cannot grow the scan without bound.
                    let live = live_bridges().lock();
                    state.retain(|((inst, _), rb)| {
                        live.contains(inst) && (rb.unpack != 0 || rb.pack != 0)
                    });
                }
                let mut rb = RowBytes::default();
                f(&mut rb);
                state.push((key, rb));
            }
        });
    }

    fn charge_repack(&self, bytes: usize) {
        clock::charge_ns_f64(bytes as f64 * REPACK_BYTE_NS);
    }

    // ==================================================================
    // Direct diplomats (the 312 of Table 2; the operational subset)
    // ==================================================================

    /// `glClearColor`.
    pub fn clear_color(&self, tid: SimTid, r: f32, g: f32, b: f32, a: f32) -> Result<()> {
        self.direct(tid, fn_id!("glClearColor"), |gl| {
            gl.with_current(tid, |c| c.clear_color(r, g, b, a))
        })
    }

    /// `glClear`.
    pub fn clear(&self, tid: SimTid, color: bool, depth: bool) -> Result<()> {
        self.direct(tid, fn_id!("glClear"), |gl| {
            gl.with_current(tid, |c| c.clear(color, depth))
        })
    }

    /// `glViewport`.
    pub fn viewport(&self, tid: SimTid, x: i32, y: i32, w: u32, h: u32) -> Result<()> {
        self.direct(tid, fn_id!("glViewport"), |gl| {
            gl.with_current(tid, |c| c.set_viewport(x, y, w, h))
        })
    }

    /// `glScissor`.
    pub fn scissor(&self, tid: SimTid, x: i32, y: i32, w: u32, h: u32) -> Result<()> {
        self.direct(tid, fn_id!("glScissor"), |gl| {
            gl.with_current(tid, |c| c.set_scissor(x, y, w, h))
        })
    }

    /// `glEnable`.
    pub fn enable(&self, tid: SimTid, cap: Capability) -> Result<()> {
        self.direct(tid, fn_id!("glEnable"), |gl| gl.with_current(tid, |c| c.enable(cap)))
    }

    /// `glDisable`.
    pub fn disable(&self, tid: SimTid, cap: Capability) -> Result<()> {
        self.direct(tid, fn_id!("glDisable"), |gl| {
            gl.with_current(tid, |c| c.disable(cap))
        })
    }

    /// `glMatrixMode`.
    pub fn matrix_mode(&self, tid: SimTid, mode: MatrixMode) -> Result<()> {
        self.direct(tid, fn_id!("glMatrixMode"), |gl| {
            gl.with_current(tid, |c| c.matrix_mode(mode))
        })
    }

    /// `glLoadIdentity`.
    pub fn load_identity(&self, tid: SimTid) -> Result<()> {
        self.direct(tid, fn_id!("glLoadIdentity"), |gl| {
            gl.with_current(tid, |c| c.load_identity())
        })
    }

    /// `glPushMatrix`.
    pub fn push_matrix(&self, tid: SimTid) -> Result<()> {
        self.direct(tid, fn_id!("glPushMatrix"), |gl| {
            gl.with_current(tid, |c| c.push_matrix())
        })
    }

    /// `glPopMatrix`.
    pub fn pop_matrix(&self, tid: SimTid) -> Result<()> {
        self.direct(tid, fn_id!("glPopMatrix"), |gl| {
            gl.with_current(tid, |c| c.pop_matrix())
        })
    }

    /// `glRotatef`.
    pub fn rotatef(&self, tid: SimTid, deg: f32, x: f32, y: f32, z: f32) -> Result<()> {
        self.direct(tid, fn_id!("glRotatef"), |gl| {
            gl.with_current(tid, |c| c.rotate(deg, x, y, z))
        })
    }

    /// `glTranslatef`.
    pub fn translatef(&self, tid: SimTid, x: f32, y: f32, z: f32) -> Result<()> {
        self.direct(tid, fn_id!("glTranslatef"), |gl| {
            gl.with_current(tid, |c| c.translate(x, y, z))
        })
    }

    /// `glScalef`.
    pub fn scalef(&self, tid: SimTid, x: f32, y: f32, z: f32) -> Result<()> {
        self.direct(tid, fn_id!("glScalef"), |gl| {
            gl.with_current(tid, |c| c.scale(x, y, z))
        })
    }

    /// `glOrthof`.
    #[allow(clippy::too_many_arguments)]
    pub fn orthof(&self, tid: SimTid, l: f32, r: f32, b: f32, t: f32, n: f32, f: f32) -> Result<()> {
        self.direct(tid, fn_id!("glOrthof"), |gl| {
            gl.with_current(tid, |c| c.ortho(l, r, b, t, n, f))
        })
    }

    /// `glFrustumf`.
    #[allow(clippy::too_many_arguments)]
    pub fn frustumf(
        &self,
        tid: SimTid,
        l: f32,
        r: f32,
        b: f32,
        t: f32,
        n: f32,
        f: f32,
    ) -> Result<()> {
        self.direct(tid, fn_id!("glFrustumf"), |gl| {
            gl.with_current(tid, |c| c.frustum(l, r, b, t, n, f))
        })
    }

    /// `glColor4f`.
    pub fn color4f(&self, tid: SimTid, r: f32, g: f32, b: f32, a: f32) -> Result<()> {
        self.direct(tid, fn_id!("glColor4f"), |gl| {
            gl.with_current(tid, |c| c.color4f(r, g, b, a))
        })
    }

    /// `glEnableClientState`.
    pub fn enable_client_state(&self, tid: SimTid, state: ClientState) -> Result<()> {
        self.direct(tid, fn_id!("glEnableClientState"), |gl| {
            gl.with_current(tid, |c| c.set_client_state(state, true))
        })
    }

    /// `glDisableClientState`.
    pub fn disable_client_state(&self, tid: SimTid, state: ClientState) -> Result<()> {
        self.direct(tid, fn_id!("glDisableClientState"), |gl| {
            gl.with_current(tid, |c| c.set_client_state(state, false))
        })
    }

    /// `glVertexPointer`.
    pub fn vertex_pointer(&self, tid: SimTid, size: usize, data: &[f32]) -> Result<()> {
        self.direct(tid, fn_id!("glVertexPointer"), |gl| {
            gl.with_current(tid, |c| c.client_pointer(ClientState::VertexArray, size, data))
        })
    }

    /// `glColorPointer`.
    pub fn color_pointer(&self, tid: SimTid, size: usize, data: &[f32]) -> Result<()> {
        self.direct(tid, fn_id!("glColorPointer"), |gl| {
            gl.with_current(tid, |c| c.client_pointer(ClientState::ColorArray, size, data))
        })
    }

    /// `glTexCoordPointer`.
    pub fn tex_coord_pointer(&self, tid: SimTid, size: usize, data: &[f32]) -> Result<()> {
        self.direct(tid, fn_id!("glTexCoordPointer"), |gl| {
            gl.with_current(tid, |c| c.client_pointer(ClientState::TexCoordArray, size, data))
        })
    }

    /// `glDrawArrays`. Returns fragments shaded.
    pub fn draw_arrays(&self, tid: SimTid, mode: Primitive, first: usize, count: usize) -> Result<u64> {
        self.direct(tid, fn_id!("glDrawArrays"), |gl| {
            gl.with_current(tid, |c| c.draw_arrays(mode, first, count))
        })
    }

    /// `glDrawElements`. Returns fragments shaded.
    pub fn draw_elements(&self, tid: SimTid, mode: Primitive, indices: &[u32]) -> Result<u64> {
        self.direct(tid, fn_id!("glDrawElements"), |gl| {
            gl.with_current(tid, |c| c.draw_elements(mode, indices))
        })
    }

    /// `glGenTextures`.
    pub fn gen_textures(&self, tid: SimTid, count: usize) -> Result<Vec<u32>> {
        self.direct(tid, fn_id!("glGenTextures"), |gl| {
            gl.with_current(tid, |c| c.gen_textures(count))
        })
    }

    /// `glBindTexture`.
    pub fn bind_texture(&self, tid: SimTid, name: u32) -> Result<()> {
        self.direct(tid, fn_id!("glBindTexture"), |gl| gl.bind_texture(tid, name))
    }

    /// `glDeleteTextures` — interposed so IOSurface associations are
    /// dropped (§6.1).
    pub fn delete_textures(&self, tid: SimTid, names: &[u32]) -> Result<()> {
        if let Some(hook) = self.on_delete_textures.lock().as_ref() {
            hook(names);
        }
        self.direct(tid, fn_id!("glDeleteTextures"), |gl| gl.delete_textures(tid, names))
    }

    /// `glGenFramebuffers`.
    pub fn gen_framebuffers(&self, tid: SimTid, count: usize) -> Result<Vec<u32>> {
        self.direct(tid, fn_id!("glGenFramebuffers"), |gl| {
            gl.with_current(tid, |c| c.gen_framebuffers(count))
        })
    }

    /// `glBindFramebuffer`.
    pub fn bind_framebuffer(&self, tid: SimTid, name: u32) -> Result<()> {
        self.direct(tid, fn_id!("glBindFramebuffer"), |gl| gl.bind_framebuffer(tid, name))
    }

    /// `glFramebufferTexture2D`.
    pub fn framebuffer_texture(&self, tid: SimTid, texture: u32) -> Result<()> {
        self.direct(tid, fn_id!("glFramebufferTexture2D"), |gl| {
            gl.with_current(tid, |c| c.framebuffer_texture(texture))
        })
    }

    /// `glFramebufferRenderbuffer`.
    pub fn framebuffer_renderbuffer(&self, tid: SimTid, rb: u32) -> Result<()> {
        self.direct(tid, fn_id!("glFramebufferRenderbuffer"), |gl| {
            gl.with_current(tid, |c| c.framebuffer_renderbuffer(rb))
        })
    }

    /// `glCheckFramebufferStatus`.
    pub fn check_framebuffer_status(&self, tid: SimTid) -> Result<FramebufferStatus> {
        self.direct(tid, fn_id!("glCheckFramebufferStatus"), |gl| {
            gl.with_current(tid, |c| Some(c.check_framebuffer_status()))
        })
        .map(|s| s.unwrap_or(FramebufferStatus::Unsupported))
    }

    /// `glGenRenderbuffers`.
    pub fn gen_renderbuffers(&self, tid: SimTid, count: usize) -> Result<Vec<u32>> {
        self.direct(tid, fn_id!("glGenRenderbuffers"), |gl| {
            gl.with_current(tid, |c| c.gen_renderbuffers(count))
        })
    }

    /// `glBindRenderbuffer`.
    pub fn bind_renderbuffer(&self, tid: SimTid, name: u32) -> Result<()> {
        self.direct(tid, fn_id!("glBindRenderbuffer"), |gl| {
            gl.with_current(tid, |c| c.bind_renderbuffer(name))
        })
    }

    /// `glRenderbufferStorage`.
    pub fn renderbuffer_storage(&self, tid: SimTid, w: u32, h: u32, format: TexFormat) -> Result<()> {
        self.direct(tid, fn_id!("glRenderbufferStorage"), |gl| {
            gl.with_current(tid, |c| c.renderbuffer_storage(w, h, format))
        })
    }

    /// `glCreateShader`.
    pub fn create_shader(&self, tid: SimTid) -> Result<u32> {
        self.direct(tid, fn_id!("glCreateShader"), |gl| {
            gl.with_current(tid, |c| c.create_shader())
        })
    }

    /// `glShaderSource`.
    pub fn shader_source(&self, tid: SimTid, shader: u32, src: &str) -> Result<()> {
        self.direct(tid, fn_id!("glShaderSource"), |gl| {
            gl.with_current(tid, |c| c.shader_source(shader, src))
        })
    }

    /// `glCompileShader`.
    pub fn compile_shader(&self, tid: SimTid, shader: u32) -> Result<()> {
        self.direct(tid, fn_id!("glCompileShader"), |gl| {
            gl.with_current(tid, |c| c.compile_shader(shader))
        })
    }

    /// `glCreateProgram`.
    pub fn create_program(&self, tid: SimTid) -> Result<u32> {
        self.direct(tid, fn_id!("glCreateProgram"), |gl| {
            gl.with_current(tid, |c| c.create_program())
        })
    }

    /// `glAttachShader`.
    pub fn attach_shader(&self, tid: SimTid, program: u32, shader: u32) -> Result<()> {
        self.direct(tid, fn_id!("glAttachShader"), |gl| {
            gl.with_current(tid, |c| c.attach_shader(program, shader))
        })
    }

    /// `glLinkProgram`.
    pub fn link_program(&self, tid: SimTid, program: u32) -> Result<()> {
        self.direct(tid, fn_id!("glLinkProgram"), |gl| {
            gl.with_current(tid, |c| c.link_program(program))
        })
    }

    /// `glGetProgramiv(GL_LINK_STATUS)`.
    pub fn program_linked(&self, tid: SimTid, program: u32) -> Result<bool> {
        self.direct(tid, fn_id!("glGetProgramiv"), |gl| {
            gl.with_current(tid, |c| c.program_linked(program))
        })
    }

    /// `glUseProgram`.
    pub fn use_program(&self, tid: SimTid, program: u32) -> Result<()> {
        self.direct(tid, fn_id!("glUseProgram"), |gl| {
            gl.with_current(tid, |c| c.use_program(program))
        })
    }

    /// `glGetUniformLocation`.
    pub fn uniform_location(&self, tid: SimTid, program: u32, name: &str) -> Result<i32> {
        self.direct(tid, fn_id!("glGetUniformLocation"), |gl| {
            gl.with_current(tid, |c| c.uniform_location(program, name))
        })
    }

    /// `glUniform4f`.
    pub fn uniform4f(&self, tid: SimTid, loc: i32, x: f32, y: f32, z: f32, w: f32) -> Result<()> {
        self.direct(tid, fn_id!("glUniform4f"), |gl| {
            gl.with_current(tid, |c| c.uniform4f(loc, x, y, z, w))
        })
    }

    /// `glUniformMatrix4fv`.
    pub fn uniform_matrix4(&self, tid: SimTid, loc: i32, m: Mat4) -> Result<()> {
        self.direct(tid, fn_id!("glUniformMatrix4fv"), |gl| {
            gl.with_current(tid, |c| c.uniform_matrix4(loc, m))
        })
    }

    /// `glVertexAttribPointer`.
    pub fn vertex_attrib_pointer(&self, tid: SimTid, index: u32, size: usize, data: &[f32]) -> Result<()> {
        self.direct(tid, fn_id!("glVertexAttribPointer"), |gl| {
            gl.with_current(tid, |c| c.vertex_attrib_pointer(index, size, data))
        })
    }

    /// `glEnableVertexAttribArray`.
    pub fn enable_vertex_attrib_array(&self, tid: SimTid, index: u32) -> Result<()> {
        self.direct(tid, fn_id!("glEnableVertexAttribArray"), |gl| {
            gl.with_current(tid, |c| c.set_vertex_attrib_enabled(index, true))
        })
    }

    /// `glLineWidth`.
    pub fn line_width(&self, tid: SimTid, width: f32) -> Result<()> {
        self.direct(tid, fn_id!("glLineWidth"), |gl| {
            gl.with_current(tid, |c| c.set_line_width(width))
        })
    }

    /// `glPointSize`.
    pub fn point_size(&self, tid: SimTid, size: f32) -> Result<()> {
        self.direct(tid, fn_id!("glPointSize"), |gl| {
            gl.with_current(tid, |c| c.set_point_size(size))
        })
    }

    /// `glIsTexture`.
    pub fn is_texture(&self, tid: SimTid, name: u32) -> Result<bool> {
        self.direct(tid, fn_id!("glIsTexture"), |gl| {
            gl.with_current(tid, |c| c.is_texture(name))
        })
    }

    /// `glGenBuffers`.
    pub fn gen_buffers(&self, tid: SimTid, count: usize) -> Result<Vec<u32>> {
        self.direct(tid, fn_id!("glGenBuffers"), |gl| {
            gl.with_current(tid, |c| c.gen_buffers(count))
        })
    }

    /// `glBufferData`.
    pub fn buffer_data(&self, tid: SimTid, buffer: u32, data: &[u8]) -> Result<()> {
        self.direct(tid, fn_id!("glBufferData"), |gl| {
            gl.with_current(tid, |c| c.buffer_data(buffer, data))
        })
    }

    /// `glDeleteBuffers`.
    pub fn delete_buffers(&self, tid: SimTid, names: &[u32]) -> Result<()> {
        self.direct(tid, fn_id!("glDeleteBuffers"), |gl| {
            gl.with_current(tid, |c| c.delete_buffers(names))
        })
    }

    /// `glIsBuffer`.
    pub fn is_buffer(&self, tid: SimTid, name: u32) -> Result<bool> {
        self.direct(tid, fn_id!("glIsBuffer"), |gl| {
            gl.with_current(tid, |c| c.is_buffer(name))
        })
    }

    /// `glDisableVertexAttribArray`.
    pub fn disable_vertex_attrib_array(&self, tid: SimTid, index: u32) -> Result<()> {
        self.direct(tid, fn_id!("glDisableVertexAttribArray"), |gl| {
            gl.with_current(tid, |c| c.set_vertex_attrib_enabled(index, false))
        })
    }

    /// `glLoadMatrixf`.
    pub fn load_matrix(&self, tid: SimTid, m: Mat4) -> Result<()> {
        self.direct(tid, fn_id!("glLoadMatrixf"), |gl| {
            gl.with_current(tid, |c| c.load_matrix(m))
        })
    }

    /// `glMultMatrixf`.
    pub fn mult_matrix(&self, tid: SimTid, m: Mat4) -> Result<()> {
        self.direct(tid, fn_id!("glMultMatrixf"), |gl| {
            gl.with_current(tid, |c| c.mult_matrix(m))
        })
    }

    /// `glIsFenceAPPLE` (indirect, like the rest of `APPLE_fence`).
    pub fn is_fence_apple(&self, tid: SimTid, fence: u32) -> Result<bool> {
        self.indirect(tid, fn_id!("glIsFenceAPPLE"), "glIsFenceNV", |gl| {
            gl.with_current(tid, |c| c.is_fence(fence))
        })
    }

    /// `glFlush`.
    pub fn flush(&self, tid: SimTid) -> Result<()> {
        self.direct(tid, fn_id!("glFlush"), |gl| gl.flush(tid))
    }

    /// `glFinish`.
    pub fn finish(&self, tid: SimTid) -> Result<()> {
        self.direct(tid, fn_id!("glFinish"), |gl| gl.finish(tid))
    }

    /// `glGetError`.
    pub fn get_error(&self, tid: SimTid) -> Result<cycada_gles::GlError> {
        self.direct(tid, fn_id!("glGetError"), |gl| {
            gl.with_current(tid, |c| c.get_error())
        })
    }

    // ==================================================================
    // Indirect diplomats: APPLE_fence -> NV_fence (§4.1)
    // ==================================================================

    /// `glGenFencesAPPLE` — "the custom iOS code performs minor input
    /// re-arranging within each APPLE_fence API before calling into a
    /// corresponding Android GLES NV_fence API".
    pub fn gen_fences_apple(&self, tid: SimTid, count: usize) -> Result<Vec<u32>> {
        self.indirect(tid, fn_id!("glGenFencesAPPLE"), "glGenFencesNV", |gl| {
            gl.gen_fences_nv(tid, count)
        })
    }

    /// `glSetFenceAPPLE`.
    pub fn set_fence_apple(&self, tid: SimTid, fence: u32) -> Result<()> {
        self.indirect(tid, fn_id!("glSetFenceAPPLE"), "glSetFenceNV", |gl| {
            gl.set_fence_nv(tid, fence)
        })
    }

    /// `glTestFenceAPPLE`.
    pub fn test_fence_apple(&self, tid: SimTid, fence: u32) -> Result<bool> {
        self.indirect(tid, fn_id!("glTestFenceAPPLE"), "glTestFenceNV", |gl| {
            gl.test_fence_nv(tid, fence)
        })
    }

    /// `glFinishFenceAPPLE`.
    pub fn finish_fence_apple(&self, tid: SimTid, fence: u32) -> Result<()> {
        self.indirect(tid, fn_id!("glFinishFenceAPPLE"), "glFinishFenceNV", |gl| {
            gl.finish_fence_nv(tid, fence)
        })
    }

    /// `glDeleteFencesAPPLE`.
    pub fn delete_fences_apple(&self, tid: SimTid, fences: &[u32]) -> Result<()> {
        self.indirect(tid, fn_id!("glDeleteFencesAPPLE"), "glDeleteFencesNV", |gl| {
            gl.delete_fences_nv(tid, fences)
        })
    }

    // ==================================================================
    // Data-dependent diplomats (§4.1)
    // ==================================================================

    /// `glGetString`: Apple's proprietary parameter is answered entirely in
    /// foreign code; standard parameters go to Android.
    pub fn get_string(&self, tid: SimTid, name: StringName) -> Result<Option<String>> {
        if name == StringName::AppleExtensions {
            // "returns a custom string indicating that no Apple-proprietary
            // extensions are available."
            return Ok(self.foreign_only(tid, fn_id!("glGetString"), || Some(String::new())));
        }
        self.data_dependent(tid, fn_id!("glGetString"), |gl| gl.get_string(tid, name))
    }

    /// `glPixelStorei`: the two extra `APPLE_row_bytes` parameters are kept
    /// in bridge-side state (the Android context rejects the enums);
    /// standard parameters go to Android.
    pub fn pixel_storei(&self, tid: SimTid, param: PixelStoreParam, value: usize) -> Result<()> {
        match param {
            PixelStoreParam::UnpackRowBytesApple => {
                self.foreign_only(tid, fn_id!("glPixelStorei"), || {
                    self.update_row_bytes(tid, |rb| rb.unpack = value);
                });
                Ok(())
            }
            PixelStoreParam::PackRowBytesApple => {
                self.foreign_only(tid, fn_id!("glPixelStorei"), || {
                    self.update_row_bytes(tid, |rb| rb.pack = value);
                });
                Ok(())
            }
            _ => self.data_dependent(tid, fn_id!("glPixelStorei"), |gl| {
                gl.with_current(tid, |c| c.pixel_store(param, value))
            }),
        }
    }

    /// `glTexImage2D`: when `APPLE_row_bytes` unpack state is set, "Cycada
    /// reads in ... the packed data manually" — rows are repacked tight in
    /// foreign code; BGRA data (unknown to the Tegra) is swizzled to RGBA.
    pub fn tex_image_2d(
        &self,
        tid: SimTid,
        width: u32,
        height: u32,
        format: TexFormat,
        data: Option<&[u8]>,
    ) -> Result<()> {
        let rb = self.row_bytes(tid);
        let bpp = format.bytes_per_pixel();
        let prepared: Option<Cow<'_, [u8]>> = data.map(|data| {
            let mut out = repack_tight(data, width as usize, height as usize, bpp, rb.unpack);
            if format == TexFormat::Bgra {
                swizzle_bgra_rgba(out.to_mut());
            }
            self.charge_repack(out.len());
            out
        });
        let android_format = if format == TexFormat::Bgra {
            TexFormat::Rgba
        } else {
            format
        };
        self.data_dependent(tid, fn_id!("glTexImage2D"), |gl| {
            gl.with_current(tid, |c| {
                c.tex_image_2d(width, height, android_format, prepared.as_deref())
            })
        })
    }

    /// `glTexSubImage2D` with the same repacking logic.
    #[allow(clippy::too_many_arguments)]
    pub fn tex_sub_image_2d(
        &self,
        tid: SimTid,
        x: u32,
        y: u32,
        width: u32,
        height: u32,
        format: TexFormat,
        data: &[u8],
    ) -> Result<()> {
        let rb = self.row_bytes(tid);
        let bpp = format.bytes_per_pixel();
        let mut prepared = repack_tight(data, width as usize, height as usize, bpp, rb.unpack);
        if format == TexFormat::Bgra {
            swizzle_bgra_rgba(prepared.to_mut());
        }
        self.charge_repack(prepared.len());
        let android_format = if format == TexFormat::Bgra {
            TexFormat::Rgba
        } else {
            format
        };
        self.data_dependent(tid, fn_id!("glTexSubImage2D"), |gl| {
            gl.with_current(tid, |c| {
                c.tex_sub_image_2d(x, y, width, height, android_format, &prepared)
            })
        })
    }

    /// `glReadPixels`: Android reads tight; foreign code writes out at the
    /// `APPLE_row_bytes` pack stride (and swizzles BGRA) as the iOS caller
    /// expects.
    pub fn read_pixels(
        &self,
        tid: SimTid,
        x: u32,
        y: u32,
        width: u32,
        height: u32,
        format: TexFormat,
    ) -> Result<Vec<u8>> {
        let android_format = if format == TexFormat::Bgra {
            TexFormat::Rgba
        } else {
            format
        };
        let mut tight = self.data_dependent(tid, fn_id!("glReadPixels"), |gl| {
            gl.with_current(tid, |c| {
                let mut out = Vec::new();
                c.read_pixels(x, y, width, height, android_format, &mut out);
                out
            })
        })?;
        if format == TexFormat::Bgra {
            swizzle_bgra_rgba(&mut tight); // symmetric swap back to BGRA
        }
        let rb = self.row_bytes(tid);
        let bpp = format.bytes_per_pixel();
        if rb.pack > 0 && rb.pack != width as usize * bpp {
            self.charge_repack(tight.len());
            Ok(spread_rows(&tight, width as usize, height as usize, bpp, rb.pack))
        } else {
            Ok(tight)
        }
    }

    /// Introspection: the usage pattern recorded for a bridged function
    /// that has been called at least once.
    pub fn called_pattern(&self, name: &str) -> Option<DiplomatPattern> {
        self.entries.by_name(name).map(|e| e.pattern())
    }
}

impl Drop for GlesBridge {
    fn drop(&mut self) {
        // Retire the instance and drop this thread's own entries eagerly;
        // other threads' entries for it are evicted lazily on their next
        // insert (they can no longer match a live instance).
        live_bridges().lock().remove(&self.instance);
        if ROW_BYTES
            .try_with(|state| {
                state.borrow_mut().retain(|((inst, _), _)| *inst != self.instance);
            })
            .is_err()
        {
            // The bridge is dropping during this thread's TLS teardown:
            // ROW_BYTES is already destroyed and the eager eviction cannot
            // run. That is safe (other threads evict stale entries lazily)
            // but must not be invisible — count the skip so leaked scan
            // entries are observable.
            trace::bump(trace::Counter::RowBytesTeardownSkips);
            trace::instant(trace::Category::Bridge, "row_bytes_teardown_skip", self.instance);
        }
    }
}

impl fmt::Debug for GlesBridge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GlesBridge")
            .field("entries", &self.entries.len())
            .finish()
    }
}

/// Repacks rows with stride `row_bytes` (0 = already tight) into a tight
/// buffer. Already-tight data is borrowed as it is; callers that must
/// rewrite bytes (the BGRA swizzle) take ownership with `Cow::to_mut`.
fn repack_tight(
    data: &[u8],
    width: usize,
    height: usize,
    bpp: usize,
    row_bytes: usize,
) -> Cow<'_, [u8]> {
    let tight_row = width * bpp;
    if row_bytes == 0 || row_bytes == tight_row {
        return Cow::Borrowed(data);
    }
    let mut out = Vec::with_capacity(tight_row * height);
    for row in 0..height {
        let start = row * row_bytes;
        out.extend_from_slice(&data[start..start + tight_row]);
    }
    Cow::Owned(out)
}

/// Spreads tight rows out to `row_bytes` stride (zero padding).
fn spread_rows(tight: &[u8], width: usize, height: usize, bpp: usize, row_bytes: usize) -> Vec<u8> {
    let tight_row = width * bpp;
    let mut out = vec![0u8; row_bytes * height];
    for row in 0..height {
        out[row * row_bytes..row * row_bytes + tight_row]
            .copy_from_slice(&tight[row * tight_row..(row + 1) * tight_row]);
    }
    out
}

/// In-place BGRA <-> RGBA channel swap (symmetric).
fn swizzle_bgra_rgba(data: &mut [u8]) {
    for px in data.chunks_exact_mut(4) {
        px.swap(0, 2);
    }
}

/// Sanity helper: the total number of iOS entry points the registry says
/// the bridge must cover.
pub fn bridged_surface_size() -> usize {
    GlesRegistry::global().ios_entry_points().len()
}

/// Foreign-side repack cost export for ablation benches.
pub const FOREIGN_REPACK_BYTE_NS: f64 = REPACK_BYTE_NS;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repack_tight_extracts_rows() {
        // 2x2 RGBA with 12-byte rows.
        let mut data = vec![0u8; 24];
        data[0] = 1;
        data[12] = 2;
        let tight = repack_tight(&data, 2, 2, 4, 12);
        assert_eq!(tight.len(), 16);
        assert_eq!(tight[0], 1);
        assert_eq!(tight[8], 2);
        // Already tight: borrowed pass-through, no copy.
        assert!(matches!(repack_tight(&tight, 2, 2, 4, 0), Cow::Borrowed(b) if b == &tight[..]));
        assert!(matches!(repack_tight(&tight, 2, 2, 4, 8), Cow::Borrowed(_)));
    }

    #[test]
    fn spread_rows_pads() {
        let tight = vec![9u8; 8]; // 1x2 RGBA
        let spread = spread_rows(&tight, 1, 2, 4, 6);
        assert_eq!(spread.len(), 12);
        assert_eq!(&spread[0..4], &[9, 9, 9, 9]);
        assert_eq!(&spread[4..6], &[0, 0]);
        assert_eq!(&spread[6..10], &[9, 9, 9, 9]);
    }

    #[test]
    fn swizzle_is_symmetric() {
        let mut px = vec![1u8, 2, 3, 4, 5, 6, 7, 8];
        swizzle_bgra_rgba(&mut px);
        assert_eq!(px, vec![3, 2, 1, 4, 7, 6, 5, 8]);
        swizzle_bgra_rgba(&mut px);
        assert_eq!(px, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn surface_size_is_table2_total() {
        assert_eq!(bridged_surface_size(), 344);
    }

    fn thread_row_bytes_len() -> usize {
        ROW_BYTES.with(|state| state.borrow().len())
    }

    #[test]
    fn dropping_a_bridge_clears_this_threads_row_bytes() {
        let device = crate::process::CycadaDevice::boot_with_display(Some((4, 4))).unwrap();
        let tid = device.main_tid();
        device
            .bridge()
            .pixel_storei(tid, PixelStoreParam::UnpackRowBytesApple, 64)
            .unwrap();
        let instance = device.bridge().instance;
        let has_entry = || {
            ROW_BYTES.with(|s| s.borrow().iter().any(|((inst, _), _)| *inst == instance))
        };
        assert!(has_entry());
        drop(device);
        assert!(!has_entry(), "Drop evicts the dropping thread's entries");
    }

    #[test]
    fn bridge_drop_during_thread_exit_counts_row_bytes_skip() {
        thread_local! {
            static HOLDER: RefCell<Option<crate::process::CycadaDevice>> =
                const { RefCell::new(None) };
        }
        let before = trace::counter(trace::Counter::RowBytesTeardownSkips);
        std::thread::spawn(|| {
            // Register HOLDER's TLS destructor BEFORE first touching
            // ROW_BYTES: destructors run in reverse registration order
            // (__cxa_thread_atexit is LIFO), so at thread exit ROW_BYTES
            // is destroyed first and the bridge Drop inside HOLDER's
            // destructor must take the skip path.
            HOLDER.with(|h| assert!(h.borrow().is_none()));
            let device =
                crate::process::CycadaDevice::boot_with_display(Some((4, 4))).unwrap();
            let tid = device.main_tid();
            device
                .bridge()
                .pixel_storei(tid, PixelStoreParam::UnpackRowBytesApple, 64)
                .unwrap();
            HOLDER.with(|h| *h.borrow_mut() = Some(device));
            // The thread exits with the device still held in TLS.
        })
        .join()
        .expect("bridge drop during TLS teardown must not panic");
        assert!(
            trace::counter(trace::Counter::RowBytesTeardownSkips) > before,
            "the skipped ROW_BYTES eviction must be visible via the trace counter"
        );
    }

    #[test]
    fn row_bytes_entries_do_not_grow_across_session_churn() {
        // Entries left behind by bridges dropped on *another* host thread
        // are pruned lazily once the scan grows past the threshold.
        let baseline = thread_row_bytes_len();
        for _ in 0..2 * ROW_BYTES_PRUNE_LEN {
            let device =
                crate::process::CycadaDevice::boot_with_display(Some((4, 4))).unwrap();
            let tid = device.main_tid();
            device
                .bridge()
                .pixel_storei(tid, PixelStoreParam::UnpackRowBytesApple, 64)
                .unwrap();
            // Dropping on another thread leaves this thread's entry in
            // place, relying on the lazy prune path.
            std::thread::spawn(move || drop(device)).join().unwrap();
        }
        assert!(
            thread_row_bytes_len() <= baseline + ROW_BYTES_PRUNE_LEN + 1,
            "entries kept growing: {} (baseline {baseline})",
            thread_row_bytes_len(),
        );
    }
}
