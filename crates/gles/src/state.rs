//! The GLES context state machine.
//!
//! A GLES context is "a state container for all GLES objects associated
//! with a given instance of GLES" (§2). This module implements that state
//! machine over the simulated GPU: object tables (textures, buffers,
//! framebuffers, renderbuffers, shaders, programs), the v1 fixed-function
//! matrix stacks and client arrays, the v2 attribute/program model, pixel
//! store state (including `APPLE_row_bytes`), and primitive assembly down
//! to the rasterizer.

use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use cycada_gpu::math::Mat4;
use cycada_gpu::{
    BlendMode, DrawClass, FenceCondition, FenceId, GpuDevice, Image, Pipeline, Rgba, Vertex,
};

use crate::registry::{ApiFlavor, GlesVersion};
use crate::types::{
    Capability, ClientState, FramebufferStatus, GlError, MatrixMode, PixelStoreParam, Primitive,
    TexFormat,
};

/// An EGLImage-style external backing for a texture or renderbuffer: a view
/// of memory owned by another subsystem (a GraphicBuffer or IOSurface).
///
/// The `guard` is an opaque association token; the owning subsystem's guard
/// type decrements its "attached to GLES" count when the last clone drops,
/// which is exactly the association the IOSurfaceLock multi diplomat has to
/// break and re-establish (§6.2).
#[derive(Clone)]
pub struct EglImageSource {
    /// The shared pixel storage.
    pub image: Image,
    /// Opaque association guard owned by the memory subsystem.
    pub guard: Arc<dyn Any + Send + Sync>,
}

impl fmt::Debug for EglImageSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EglImageSource")
            .field("image", &self.image)
            .finish()
    }
}

#[derive(Debug, Default)]
struct Texture {
    image: Option<Image>,
    external: Option<EglImageSource>,
}

impl Texture {
    fn current_image(&self) -> Option<Image> {
        self.external
            .as_ref()
            .map(|e| e.image.clone())
            .or_else(|| self.image.clone())
    }
}

#[derive(Debug, Default)]
struct Renderbuffer {
    image: Option<Image>,
    external: Option<EglImageSource>,
}

impl Renderbuffer {
    fn current_image(&self) -> Option<Image> {
        self.external
            .as_ref()
            .map(|e| e.image.clone())
            .or_else(|| self.image.clone())
    }
}

/// A framebuffer color attachment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Attachment {
    #[default]
    None,
    Texture(u32),
    Renderbuffer(u32),
}

#[derive(Debug, Default)]
struct Framebuffer {
    color: Attachment,
    depth: Option<Vec<f32>>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum UniformValue {
    F1(f32),
    F4([f32; 4]),
    I1(i32),
    Matrix(Mat4),
}

#[derive(Debug, Default)]
struct Program {
    linked: bool,
    shaders: Vec<u32>,
    locations: HashMap<String, i32>,
    values: HashMap<i32, UniformValue>,
    next_location: i32,
}

#[derive(Debug)]
struct Shader {
    source: String,
    compiled: bool,
}

#[derive(Debug, Default, Clone)]
struct ClientArray {
    data: Vec<f32>,
    component_size: usize,
    enabled: bool,
}

/// Pixel store state, including the `APPLE_row_bytes` additions.
#[derive(Debug, Clone, Copy)]
pub struct PixelStore {
    /// `GL_UNPACK_ALIGNMENT` (1, 2, 4 or 8).
    pub unpack_alignment: usize,
    /// `GL_PACK_ALIGNMENT`.
    pub pack_alignment: usize,
    /// `GL_UNPACK_ROW_BYTES_APPLE`: explicit source row stride (0 = tight).
    pub unpack_row_bytes: usize,
    /// `GL_PACK_ROW_BYTES_APPLE`: explicit destination row stride.
    pub pack_row_bytes: usize,
}

impl Default for PixelStore {
    fn default() -> Self {
        PixelStore {
            unpack_alignment: 4,
            pack_alignment: 4,
            unpack_row_bytes: 0,
            pack_row_bytes: 0,
        }
    }
}

impl PixelStore {
    fn unpack_stride(&self, width: usize, bpp: usize) -> usize {
        if self.unpack_row_bytes > 0 {
            self.unpack_row_bytes
        } else {
            align_up(width * bpp, self.unpack_alignment)
        }
    }

    fn pack_stride(&self, width: usize, bpp: usize) -> usize {
        if self.pack_row_bytes > 0 {
            self.pack_row_bytes
        } else {
            align_up(width * bpp, self.pack_alignment)
        }
    }
}

fn align_up(v: usize, a: usize) -> usize {
    v.div_ceil(a) * a
}

/// `GL_MAX_TEXTURE_SIZE`: the NVIDIA Tegra 3 of the paper's Nexus 7
/// reports 2048. Both vendor flavors share it, so a stream that one
/// library accepts the other accepts too.
const MAX_TEXTURE_SIZE: u32 = 2048;

/// Whether the `w`x`h` rect at `(x, y)` lies inside a `width`x`height`
/// image. Summed in `u64` so extreme origins and extents cannot wrap.
fn rect_fits(x: u32, y: u32, w: u32, h: u32, width: u32, height: u32) -> bool {
    u64::from(x) + u64::from(w) <= u64::from(width)
        && u64::from(y) + u64::from(h) <= u64::from(height)
}

/// One GLES rendering context.
pub struct GlesContext {
    version: GlesVersion,
    flavor: ApiFlavor,
    device: Arc<GpuDevice>,

    // Object tables.
    textures: HashMap<u32, Texture>,
    renderbuffers: HashMap<u32, Renderbuffer>,
    framebuffers: HashMap<u32, Framebuffer>,
    buffers: HashMap<u32, Vec<u8>>,
    programs: HashMap<u32, Program>,
    shaders: HashMap<u32, Shader>,
    fences: HashMap<u32, FenceId>,
    next_name: u32,

    // Bindings.
    bound_texture: u32,
    bound_framebuffer: u32,
    bound_renderbuffer: u32,
    current_program: u32,

    // v1 fixed function.
    matrix_mode: MatrixMode,
    modelview: Vec<Mat4>,
    projection: Vec<Mat4>,
    current_color: Rgba,
    vertex_array: ClientArray,
    color_array: ClientArray,
    texcoord_array: ClientArray,

    // v2 attributes: index -> array.
    attribs: HashMap<u32, ClientArray>,

    // Fragment/raster state.
    clear_color: Rgba,
    caps: HashMap<Capability, bool>,
    viewport: (i32, i32, u32, u32),
    scissor: (i32, i32, u32, u32),
    line_width: f32,
    point_size: f32,
    /// Pixel store state (public so the bridge's data-dependent diplomats
    /// can inspect the APPLE_row_bytes values).
    pub pixel_store: PixelStore,

    // Window-system plumbing.
    default_fb: Option<Image>,
    default_depth: Option<Vec<f32>>,

    error: GlError,
    draw_class: DrawClass,
}

impl GlesContext {
    /// Creates a context of the given version/flavor on a device.
    pub fn new(version: GlesVersion, flavor: ApiFlavor, device: Arc<GpuDevice>) -> Self {
        GlesContext {
            version,
            flavor,
            device,
            textures: HashMap::new(),
            renderbuffers: HashMap::new(),
            framebuffers: HashMap::new(),
            buffers: HashMap::new(),
            programs: HashMap::new(),
            shaders: HashMap::new(),
            fences: HashMap::new(),
            next_name: 1,
            bound_texture: 0,
            bound_framebuffer: 0,
            bound_renderbuffer: 0,
            current_program: 0,
            matrix_mode: MatrixMode::ModelView,
            modelview: vec![Mat4::identity()],
            projection: vec![Mat4::identity()],
            current_color: Rgba::WHITE,
            vertex_array: ClientArray::default(),
            color_array: ClientArray::default(),
            texcoord_array: ClientArray::default(),
            attribs: HashMap::new(),
            clear_color: Rgba::TRANSPARENT,
            caps: HashMap::new(),
            viewport: (0, 0, 0, 0),
            scissor: (0, 0, 0, 0),
            line_width: 1.0,
            point_size: 1.0,
            pixel_store: PixelStore::default(),
            default_fb: None,
            default_depth: None,
            error: GlError::NoError,
            draw_class: DrawClass::ThreeD,
        }
    }

    /// The context's GLES version.
    pub fn version(&self) -> GlesVersion {
        self.version
    }

    /// The vendor flavor the context belongs to.
    pub fn flavor(&self) -> ApiFlavor {
        self.flavor
    }

    /// Sets the draw class (2D canvas work vs 3D geometry) used for GPU
    /// cost accounting.
    pub fn set_draw_class(&mut self, class: DrawClass) {
        self.draw_class = class;
    }

    /// Attaches the window-system-provided default framebuffer (done by
    /// EGL/EAGL `MakeCurrent`).
    pub fn set_default_framebuffer(&mut self, image: Option<Image>) {
        self.default_fb = image;
        self.default_depth = None;
        if self.viewport == (0, 0, 0, 0) {
            if let Some(fb) = &self.default_fb {
                self.viewport = (0, 0, fb.width(), fb.height());
            }
        }
    }

    /// The default framebuffer, if a surface is attached.
    pub fn default_framebuffer(&self) -> Option<Image> {
        self.default_fb.clone()
    }

    /// Records a GL error (first one sticks).
    pub fn record_error(&mut self, error: GlError) {
        if self.error == GlError::NoError {
            self.error = error;
        }
    }

    /// `glGetError`: returns and clears the sticky error.
    pub fn get_error(&mut self) -> GlError {
        std::mem::take(&mut self.error)
    }

    fn fresh_name(&mut self) -> u32 {
        let n = self.next_name;
        self.next_name += 1;
        n
    }

    fn cap(&self, cap: Capability) -> bool {
        self.caps.get(&cap).copied().unwrap_or(false)
    }

    // ------------------------------------------------------------------
    // State setters
    // ------------------------------------------------------------------

    /// `glEnable`.
    pub fn enable(&mut self, cap: Capability) {
        self.caps.insert(cap, true);
    }

    /// `glDisable`.
    pub fn disable(&mut self, cap: Capability) {
        self.caps.insert(cap, false);
    }

    /// `glIsEnabled`.
    pub fn is_enabled(&self, cap: Capability) -> bool {
        self.cap(cap)
    }

    /// `glClearColor`.
    pub fn clear_color(&mut self, r: f32, g: f32, b: f32, a: f32) {
        self.clear_color = Rgba::new(r, g, b, a);
    }

    /// `glViewport`.
    pub fn set_viewport(&mut self, x: i32, y: i32, w: u32, h: u32) {
        self.viewport = (x, y, w, h);
    }

    /// `glScissor`.
    pub fn set_scissor(&mut self, x: i32, y: i32, w: u32, h: u32) {
        self.scissor = (x, y, w, h);
    }

    /// `glLineWidth`.
    pub fn set_line_width(&mut self, w: f32) {
        if w <= 0.0 {
            self.record_error(GlError::InvalidValue);
        } else {
            self.line_width = w;
        }
    }

    /// `glPointSize` (v1).
    pub fn set_point_size(&mut self, s: f32) {
        if s <= 0.0 {
            self.record_error(GlError::InvalidValue);
        } else {
            self.point_size = s;
        }
    }

    /// `glPixelStorei`, including the `APPLE_row_bytes` parameters, which
    /// only the Apple flavor accepts — on Android they are an unknown enum,
    /// exactly the mismatch the bridge's data-dependent diplomat papers
    /// over.
    pub fn pixel_store(&mut self, param: PixelStoreParam, value: usize) {
        match param {
            PixelStoreParam::UnpackAlignment => {
                if matches!(value, 1 | 2 | 4 | 8) {
                    self.pixel_store.unpack_alignment = value;
                } else {
                    self.record_error(GlError::InvalidValue);
                }
            }
            PixelStoreParam::PackAlignment => {
                if matches!(value, 1 | 2 | 4 | 8) {
                    self.pixel_store.pack_alignment = value;
                } else {
                    self.record_error(GlError::InvalidValue);
                }
            }
            PixelStoreParam::UnpackRowBytesApple => {
                if self.flavor == ApiFlavor::Ios {
                    self.pixel_store.unpack_row_bytes = value;
                } else {
                    self.record_error(GlError::InvalidEnum);
                }
            }
            PixelStoreParam::PackRowBytesApple => {
                if self.flavor == ApiFlavor::Ios {
                    self.pixel_store.pack_row_bytes = value;
                } else {
                    self.record_error(GlError::InvalidEnum);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // v1 fixed-function matrix stack
    // ------------------------------------------------------------------

    fn require_v1(&mut self) -> bool {
        if self.version != GlesVersion::V1 {
            self.record_error(GlError::InvalidOperation);
            false
        } else {
            true
        }
    }

    fn require_v2(&mut self) -> bool {
        if self.version != GlesVersion::V2 {
            self.record_error(GlError::InvalidOperation);
            false
        } else {
            true
        }
    }

    fn current_stack(&mut self) -> &mut Vec<Mat4> {
        match self.matrix_mode {
            MatrixMode::ModelView => &mut self.modelview,
            MatrixMode::Projection => &mut self.projection,
        }
    }

    /// `glMatrixMode`.
    pub fn matrix_mode(&mut self, mode: MatrixMode) {
        if self.require_v1() {
            self.matrix_mode = mode;
        }
    }

    /// `glLoadIdentity`.
    pub fn load_identity(&mut self) {
        if self.require_v1() {
            *self.current_stack().last_mut().expect("stack never empty") = Mat4::identity();
        }
    }

    /// `glLoadMatrixf`.
    pub fn load_matrix(&mut self, m: Mat4) {
        if self.require_v1() {
            *self.current_stack().last_mut().expect("stack never empty") = m;
        }
    }

    /// `glMultMatrixf`.
    pub fn mult_matrix(&mut self, m: Mat4) {
        if self.require_v1() {
            let top = self.current_stack().last_mut().expect("stack never empty");
            *top = top.mul(&m);
        }
    }

    /// `glPushMatrix`.
    pub fn push_matrix(&mut self) {
        if self.require_v1() {
            let stack = self.current_stack();
            let top = *stack.last().expect("stack never empty");
            stack.push(top);
        }
    }

    /// `glPopMatrix`.
    pub fn pop_matrix(&mut self) {
        if self.require_v1() {
            let stack = self.current_stack();
            if stack.len() <= 1 {
                self.record_error(GlError::InvalidOperation);
            } else {
                stack.pop();
            }
        }
    }

    /// `glRotatef`.
    pub fn rotate(&mut self, degrees: f32, x: f32, y: f32, z: f32) {
        self.mult_matrix(Mat4::rotate(degrees, x, y, z));
    }

    /// `glTranslatef`.
    pub fn translate(&mut self, x: f32, y: f32, z: f32) {
        self.mult_matrix(Mat4::translate(x, y, z));
    }

    /// `glScalef`.
    pub fn scale(&mut self, x: f32, y: f32, z: f32) {
        self.mult_matrix(Mat4::scale(x, y, z));
    }

    /// `glOrthof`.
    pub fn ortho(&mut self, l: f32, r: f32, b: f32, t: f32, n: f32, f: f32) {
        self.mult_matrix(Mat4::ortho(l, r, b, t, n, f));
    }

    /// `glFrustumf`.
    pub fn frustum(&mut self, l: f32, r: f32, b: f32, t: f32, n: f32, f: f32) {
        self.mult_matrix(Mat4::frustum(l, r, b, t, n, f));
    }

    /// Top of the model-view stack (for tests / bridge introspection).
    pub fn modelview_top(&self) -> Mat4 {
        *self.modelview.last().expect("stack never empty")
    }

    /// `glColor4f` (v1).
    pub fn color4f(&mut self, r: f32, g: f32, b: f32, a: f32) {
        if self.require_v1() {
            self.current_color = Rgba::new(r, g, b, a);
        }
    }

    // ------------------------------------------------------------------
    // v1 client arrays / v2 attributes
    // ------------------------------------------------------------------

    /// `glEnableClientState` / `glDisableClientState` (v1).
    pub fn set_client_state(&mut self, state: ClientState, enabled: bool) {
        if !self.require_v1() {
            return;
        }
        let array = match state {
            ClientState::VertexArray => &mut self.vertex_array,
            ClientState::ColorArray => &mut self.color_array,
            ClientState::TexCoordArray => &mut self.texcoord_array,
        };
        array.enabled = enabled;
    }

    /// `glVertexPointer` / `glColorPointer` / `glTexCoordPointer` (v1). The
    /// client memory is captured by copy, modelling the driver reading the
    /// arrays at draw time.
    pub fn client_pointer(&mut self, state: ClientState, component_size: usize, data: &[f32]) {
        if !self.require_v1() {
            return;
        }
        if !(1..=4).contains(&component_size) {
            self.record_error(GlError::InvalidValue);
            return;
        }
        let array = match state {
            ClientState::VertexArray => &mut self.vertex_array,
            ClientState::ColorArray => &mut self.color_array,
            ClientState::TexCoordArray => &mut self.texcoord_array,
        };
        array.component_size = component_size;
        array.data = data.to_vec();
    }

    /// `glVertexAttribPointer` (v2). Attribute 0 = position, 1 = color,
    /// 2 = texcoord — the convention all simulated shaders follow.
    pub fn vertex_attrib_pointer(&mut self, index: u32, component_size: usize, data: &[f32]) {
        if !self.require_v2() {
            return;
        }
        if !(1..=4).contains(&component_size) {
            self.record_error(GlError::InvalidValue);
            return;
        }
        let entry = self.attribs.entry(index).or_default();
        entry.component_size = component_size;
        entry.data = data.to_vec();
    }

    /// `glEnableVertexAttribArray` / `glDisableVertexAttribArray` (v2).
    pub fn set_vertex_attrib_enabled(&mut self, index: u32, enabled: bool) {
        if self.require_v2() {
            self.attribs.entry(index).or_default().enabled = enabled;
        }
    }

    // ------------------------------------------------------------------
    // Textures
    // ------------------------------------------------------------------

    /// `glGenTextures`.
    pub fn gen_textures(&mut self, count: usize) -> Vec<u32> {
        (0..count)
            .map(|_| {
                let name = self.fresh_name();
                self.textures.insert(name, Texture::default());
                name
            })
            .collect()
    }

    /// `glBindTexture`.
    pub fn bind_texture(&mut self, name: u32) {
        if name != 0 && !self.textures.contains_key(&name) {
            // GL auto-creates on bind.
            self.textures.insert(name, Texture::default());
        }
        self.bound_texture = name;
    }

    /// `glDeleteTextures`. Returns how many textures were actually freed
    /// (the vendor driver's cost scales with it).
    pub fn delete_textures(&mut self, names: &[u32]) -> usize {
        let mut freed = 0;
        for &name in names {
            if self.textures.remove(&name).is_some() {
                freed += 1;
                if self.bound_texture == name {
                    self.bound_texture = 0;
                }
            }
        }
        freed
    }

    /// `glIsTexture`.
    pub fn is_texture(&self, name: u32) -> bool {
        name != 0 && self.textures.contains_key(&name)
    }

    /// `glTexImage2D`: allocates storage for the bound texture and unpacks
    /// `data` (honouring unpack alignment / `APPLE_row_bytes`). Passing
    /// `Bgra` on the Android flavor records `GL_INVALID_ENUM` — Android has
    /// no `APPLE_texture_format_BGRA8888`. A width or height above
    /// `GL_MAX_TEXTURE_SIZE`, or client data shorter than the unpacked
    /// rows, records `GL_INVALID_VALUE` before any storage is allocated.
    pub fn tex_image_2d(&mut self, width: u32, height: u32, format: TexFormat, data: Option<&[u8]>) {
        if format == TexFormat::Bgra && self.flavor == ApiFlavor::Android {
            self.record_error(GlError::InvalidEnum);
            return;
        }
        if self.bound_texture == 0 {
            self.record_error(GlError::InvalidOperation);
            return;
        }
        if width > MAX_TEXTURE_SIZE || height > MAX_TEXTURE_SIZE {
            self.record_error(GlError::InvalidValue);
            return;
        }
        let bpp = format.bytes_per_pixel();
        let stride = self.pixel_store.unpack_stride(width as usize, bpp);
        let needed = (stride as u64)
            .checked_mul(u64::from(height.saturating_sub(1)))
            .and_then(|rows| rows.checked_add(u64::from(width) * bpp as u64));
        if data.is_some_and(|data| needed.is_none_or(|n| (data.len() as u64) < n)) {
            self.record_error(GlError::InvalidValue);
            return;
        }
        let image = Image::new(width, height, format.pixel_format());
        if let Some(data) = data {
            unpack_rows(&image, data, stride, (0, 0, width, height));
            self.device.charge_upload((width as u64) * (height as u64) * bpp as u64);
        } else {
            self.device.charge_upload(0);
        }
        let tex = self
            .textures
            .get_mut(&self.bound_texture)
            .expect("bound texture exists");
        tex.image = Some(image);
        // Re-specifying storage implicitly drops any EGLImage association
        // (the disassociation step of the IOSurfaceLock dance, §6.2).
        tex.external = None;
    }

    /// `glTexSubImage2D`.
    pub fn tex_sub_image_2d(
        &mut self,
        x: u32,
        y: u32,
        width: u32,
        height: u32,
        format: TexFormat,
        data: &[u8],
    ) {
        if format == TexFormat::Bgra && self.flavor == ApiFlavor::Android {
            self.record_error(GlError::InvalidEnum);
            return;
        }
        let stride = self
            .pixel_store
            .unpack_stride(width as usize, format.bytes_per_pixel());
        let Some(tex) = self.textures.get(&self.bound_texture) else {
            self.record_error(GlError::InvalidOperation);
            return;
        };
        let Some(image) = tex.current_image() else {
            self.record_error(GlError::InvalidOperation);
            return;
        };
        if !rect_fits(x, y, width, height, image.width(), image.height()) {
            self.record_error(GlError::InvalidValue);
            return;
        }
        let bpp = format.bytes_per_pixel();
        let needed = match (width, height) {
            (0, _) | (_, 0) => 0,
            (w, h) => stride * (h as usize - 1) + w as usize * bpp,
        };
        if data.len() < needed {
            self.record_error(GlError::InvalidValue);
            return;
        }
        let pf = format.pixel_format();
        if pf == image.format() {
            // Same format: decode→encode is the byte identity, so whole
            // rows move as they are.
            unpack_rows(&image, data, stride, (x, y, width, height));
        } else {
            image.map_rows(|rows| {
                for row in 0..height as usize {
                    for col in 0..width as usize {
                        let off = row * stride + col * bpp;
                        let color = pf.decode(&data[off..off + bpp]);
                        rows.set_pixel(x + col as u32, y + row as u32, color);
                    }
                }
            });
        }
        self.device
            .charge_upload(u64::from(width) * u64::from(height) * bpp as u64);
    }

    /// `glEGLImageTargetTexture2DOES`: binds external (GraphicBuffer /
    /// IOSurface) memory as the bound texture's storage.
    pub fn egl_image_target_texture(&mut self, source: EglImageSource) {
        if self.bound_texture == 0 {
            self.record_error(GlError::InvalidOperation);
            return;
        }
        let tex = self
            .textures
            .get_mut(&self.bound_texture)
            .expect("bound texture exists");
        tex.external = Some(source);
        tex.image = None;
    }

    /// The image currently backing a texture (for tests and the bridge).
    pub fn texture_image(&self, name: u32) -> Option<Image> {
        self.textures.get(&name).and_then(|t| t.current_image())
    }

    /// Whether a texture currently has an EGLImage association.
    pub fn texture_has_external(&self, name: u32) -> bool {
        self.textures
            .get(&name)
            .is_some_and(|t| t.external.is_some())
    }

    /// The currently bound texture name (0 = none).
    pub fn bound_texture(&self) -> u32 {
        self.bound_texture
    }

    // ------------------------------------------------------------------
    // Buffer objects
    // ------------------------------------------------------------------

    /// `glGenBuffers`.
    pub fn gen_buffers(&mut self, count: usize) -> Vec<u32> {
        (0..count)
            .map(|_| {
                let name = self.fresh_name();
                self.buffers.insert(name, Vec::new());
                name
            })
            .collect()
    }

    /// `glBufferData`: uploads data into a buffer object.
    pub fn buffer_data(&mut self, buffer: u32, data: &[u8]) {
        match self.buffers.get_mut(&buffer) {
            Some(store) => {
                *store = data.to_vec();
                self.device.charge_upload(data.len() as u64);
            }
            None => self.record_error(GlError::InvalidOperation),
        }
    }

    /// `glIsBuffer`.
    pub fn is_buffer(&self, buffer: u32) -> bool {
        self.buffers.contains_key(&buffer)
    }

    /// `glDeleteBuffers`.
    pub fn delete_buffers(&mut self, names: &[u32]) {
        for name in names {
            self.buffers.remove(name);
        }
    }

    /// The size of a buffer object (`glGetBufferParameteriv(GL_BUFFER_SIZE)`).
    pub fn buffer_size(&self, buffer: u32) -> Option<usize> {
        self.buffers.get(&buffer).map(Vec::len)
    }

    // ------------------------------------------------------------------
    // Renderbuffers and framebuffers
    // ------------------------------------------------------------------

    /// `glGenRenderbuffers` (core in v2, `OES` in v1).
    pub fn gen_renderbuffers(&mut self, count: usize) -> Vec<u32> {
        (0..count)
            .map(|_| {
                let name = self.fresh_name();
                self.renderbuffers.insert(name, Renderbuffer::default());
                name
            })
            .collect()
    }

    /// `glBindRenderbuffer`.
    pub fn bind_renderbuffer(&mut self, name: u32) {
        if name != 0 && !self.renderbuffers.contains_key(&name) {
            self.renderbuffers.insert(name, Renderbuffer::default());
        }
        self.bound_renderbuffer = name;
    }

    /// `glRenderbufferStorage`.
    pub fn renderbuffer_storage(&mut self, width: u32, height: u32, format: TexFormat) {
        if self.bound_renderbuffer == 0 {
            self.record_error(GlError::InvalidOperation);
            return;
        }
        let rb = self
            .renderbuffers
            .get_mut(&self.bound_renderbuffer)
            .expect("bound renderbuffer exists");
        rb.image = Some(Image::new(width, height, format.pixel_format()));
        rb.external = None;
    }

    /// Binds external memory as the bound renderbuffer's storage (the
    /// EAGL `renderbufferStorage:fromDrawable:` and EGLImage paths).
    pub fn egl_image_target_renderbuffer(&mut self, source: EglImageSource) {
        if self.bound_renderbuffer == 0 {
            self.record_error(GlError::InvalidOperation);
            return;
        }
        let rb = self
            .renderbuffers
            .get_mut(&self.bound_renderbuffer)
            .expect("bound renderbuffer exists");
        rb.external = Some(source);
        rb.image = None;
    }

    /// The image currently backing a renderbuffer.
    pub fn renderbuffer_image(&self, name: u32) -> Option<Image> {
        self.renderbuffers.get(&name).and_then(|r| r.current_image())
    }

    /// `glGenFramebuffers`.
    pub fn gen_framebuffers(&mut self, count: usize) -> Vec<u32> {
        (0..count)
            .map(|_| {
                let name = self.fresh_name();
                self.framebuffers.insert(name, Framebuffer::default());
                name
            })
            .collect()
    }

    /// `glBindFramebuffer` (0 = the default, window-system framebuffer).
    pub fn bind_framebuffer(&mut self, name: u32) {
        if name != 0 && !self.framebuffers.contains_key(&name) {
            self.framebuffers.insert(name, Framebuffer::default());
        }
        self.bound_framebuffer = name;
    }

    /// The currently bound framebuffer name.
    pub fn bound_framebuffer(&self) -> u32 {
        self.bound_framebuffer
    }

    /// `glFramebufferTexture2D`: attaches a texture as the color buffer.
    pub fn framebuffer_texture(&mut self, texture: u32) {
        if self.bound_framebuffer == 0 {
            self.record_error(GlError::InvalidOperation);
            return;
        }
        let fb = self
            .framebuffers
            .get_mut(&self.bound_framebuffer)
            .expect("bound framebuffer exists");
        fb.color = Attachment::Texture(texture);
    }

    /// `glFramebufferRenderbuffer`.
    pub fn framebuffer_renderbuffer(&mut self, renderbuffer: u32) {
        if self.bound_framebuffer == 0 {
            self.record_error(GlError::InvalidOperation);
            return;
        }
        let fb = self
            .framebuffers
            .get_mut(&self.bound_framebuffer)
            .expect("bound framebuffer exists");
        fb.color = Attachment::Renderbuffer(renderbuffer);
    }

    /// `glCheckFramebufferStatus`.
    pub fn check_framebuffer_status(&self) -> FramebufferStatus {
        if self.bound_framebuffer == 0 {
            return if self.default_fb.is_some() {
                FramebufferStatus::Complete
            } else {
                FramebufferStatus::MissingAttachment
            };
        }
        let Some(fb) = self.framebuffers.get(&self.bound_framebuffer) else {
            return FramebufferStatus::Unsupported;
        };
        match fb.color {
            Attachment::None => FramebufferStatus::MissingAttachment,
            Attachment::Texture(t) => {
                if self.texture_image(t).is_some() {
                    FramebufferStatus::Complete
                } else {
                    FramebufferStatus::IncompleteAttachment
                }
            }
            Attachment::Renderbuffer(r) => {
                if self.renderbuffer_image(r).is_some() {
                    FramebufferStatus::Complete
                } else {
                    FramebufferStatus::IncompleteAttachment
                }
            }
        }
    }

    /// Resolves the image the bound framebuffer renders into.
    pub fn render_target(&self) -> Option<Image> {
        if self.bound_framebuffer == 0 {
            return self.default_fb.clone();
        }
        let fb = self.framebuffers.get(&self.bound_framebuffer)?;
        match fb.color {
            Attachment::None => None,
            Attachment::Texture(t) => self.texture_image(t),
            Attachment::Renderbuffer(r) => self.renderbuffer_image(r),
        }
    }

    // ------------------------------------------------------------------
    // Shaders and programs (v2)
    // ------------------------------------------------------------------

    /// `glCreateShader`.
    pub fn create_shader(&mut self) -> u32 {
        if !self.require_v2() {
            return 0;
        }
        let name = self.fresh_name();
        self.shaders.insert(
            name,
            Shader {
                source: String::new(),
                compiled: false,
            },
        );
        name
    }

    /// `glShaderSource`.
    pub fn shader_source(&mut self, shader: u32, source: &str) {
        match self.shaders.get_mut(&shader) {
            Some(s) => s.source = source.to_owned(),
            None => self.record_error(GlError::InvalidValue),
        }
    }

    /// `glCompileShader`.
    pub fn compile_shader(&mut self, shader: u32) {
        match self.shaders.get_mut(&shader) {
            Some(s) => s.compiled = !s.source.is_empty(),
            None => self.record_error(GlError::InvalidValue),
        }
    }

    /// `glCreateProgram`.
    pub fn create_program(&mut self) -> u32 {
        if !self.require_v2() {
            return 0;
        }
        let name = self.fresh_name();
        self.programs.insert(name, Program::default());
        name
    }

    /// `glAttachShader`.
    pub fn attach_shader(&mut self, program: u32, shader: u32) {
        if !self.shaders.contains_key(&shader) {
            self.record_error(GlError::InvalidValue);
            return;
        }
        match self.programs.get_mut(&program) {
            Some(p) => p.shaders.push(shader),
            None => self.record_error(GlError::InvalidValue),
        }
    }

    /// `glLinkProgram` — charges the (large, Figure 9) link cost.
    pub fn link_program(&mut self, program: u32) {
        let all_compiled = {
            let Some(p) = self.programs.get(&program) else {
                self.record_error(GlError::InvalidValue);
                return;
            };
            !p.shaders.is_empty()
                && p.shaders
                    .iter()
                    .all(|s| self.shaders.get(s).is_some_and(|sh| sh.compiled))
        };
        self.device.charge_link_program();
        let p = self.programs.get_mut(&program).expect("checked above");
        p.linked = all_compiled;
    }

    /// `glGetProgramiv(GL_LINK_STATUS)`.
    pub fn program_linked(&self, program: u32) -> bool {
        self.programs.get(&program).is_some_and(|p| p.linked)
    }

    /// `glUseProgram`.
    pub fn use_program(&mut self, program: u32) {
        if program != 0 && !self.programs.contains_key(&program) {
            self.record_error(GlError::InvalidValue);
            return;
        }
        self.current_program = program;
    }

    /// `glGetUniformLocation`.
    pub fn uniform_location(&mut self, program: u32, name: &str) -> i32 {
        let Some(p) = self.programs.get_mut(&program) else {
            self.record_error(GlError::InvalidValue);
            return -1;
        };
        if let Some(&loc) = p.locations.get(name) {
            return loc;
        }
        let loc = p.next_location;
        p.next_location += 1;
        p.locations.insert(name.to_owned(), loc);
        loc
    }

    fn set_uniform(&mut self, location: i32, value: UniformValue) {
        if self.current_program == 0 {
            self.record_error(GlError::InvalidOperation);
            return;
        }
        let p = self
            .programs
            .get_mut(&self.current_program)
            .expect("current program exists");
        p.values.insert(location, value);
    }

    /// `glUniform1f`.
    pub fn uniform1f(&mut self, location: i32, v: f32) {
        self.set_uniform(location, UniformValue::F1(v));
    }

    /// `glUniform1i`.
    pub fn uniform1i(&mut self, location: i32, v: i32) {
        self.set_uniform(location, UniformValue::I1(v));
    }

    /// `glUniform4f`.
    pub fn uniform4f(&mut self, location: i32, x: f32, y: f32, z: f32, w: f32) {
        self.set_uniform(location, UniformValue::F4([x, y, z, w]));
    }

    /// `glUniformMatrix4fv`.
    pub fn uniform_matrix4(&mut self, location: i32, m: Mat4) {
        self.set_uniform(location, UniformValue::Matrix(m));
    }

    fn program_uniform(&self, name: &str) -> Option<UniformValue> {
        let p = self.programs.get(&self.current_program)?;
        let loc = p.locations.get(name)?;
        p.values.get(loc).copied()
    }

    // ------------------------------------------------------------------
    // Fences (APPLE_fence on iOS, NV_fence on Android)
    // ------------------------------------------------------------------

    /// `glGenFences{APPLE,NV}`.
    pub fn gen_fences(&mut self, count: usize) -> Vec<u32> {
        (0..count)
            .map(|_| {
                let name = self.fresh_name();
                let id = self.device.gen_fence();
                self.fences.insert(name, id);
                name
            })
            .collect()
    }

    /// `glDeleteFences{APPLE,NV}`.
    pub fn delete_fences(&mut self, names: &[u32]) {
        for name in names {
            if let Some(id) = self.fences.remove(name) {
                self.device.delete_fence(id);
            }
        }
    }

    /// `glSetFence{APPLE,NV}`.
    pub fn set_fence(&mut self, name: u32) {
        match self.fences.get(&name) {
            Some(&id) => {
                self.device.set_fence(id, FenceCondition::AllCompleted);
            }
            None => self.record_error(GlError::InvalidOperation),
        }
    }

    /// `glTestFence{APPLE,NV}`.
    pub fn test_fence(&mut self, name: u32) -> bool {
        match self.fences.get(&name).and_then(|&id| self.device.test_fence(id)) {
            Some(signaled) => signaled,
            None => {
                self.record_error(GlError::InvalidOperation);
                true
            }
        }
    }

    /// `glFinishFence{APPLE,NV}`.
    pub fn finish_fence(&mut self, name: u32) {
        match self.fences.get(&name) {
            Some(&id) => {
                self.device.finish_fence(id);
            }
            None => self.record_error(GlError::InvalidOperation),
        }
    }

    /// `glIsFence{APPLE,NV}`.
    pub fn is_fence(&self, name: u32) -> bool {
        self.fences.contains_key(&name)
    }

    // ------------------------------------------------------------------
    // Drawing
    // ------------------------------------------------------------------

    /// `glClear(GL_COLOR_BUFFER_BIT [| GL_DEPTH_BUFFER_BIT])`.
    pub fn clear(&mut self, color: bool, depth: bool) {
        let Some(target) = self.render_target() else {
            self.record_error(GlError::InvalidFramebufferOperation);
            return;
        };
        if color {
            if self.cap(Capability::ScissorTest) {
                let (sx, sy, sw, sh) = self.scissor;
                let clear_color = self.clear_color;
                let x0 = sx.max(0) as u32;
                let y0 = sy.max(0) as u32;
                // One lock for the whole scissor rect (fill_rect clips to
                // the target bounds just like the old per-pixel loops did).
                target.fill_rect(
                    cycada_gpu::raster::Rect { x: x0, y: y0, w: sw, h: sh },
                    clear_color,
                );
                // Scissored clears still cost per covered pixel.
                self.device
                    .charge_upload(u64::from(sw) * u64::from(sh) * 4 / 8);
            } else {
                self.device.clear(&target, self.clear_color, self.draw_class);
            }
        }
        if depth {
            if let Some(d) = self.depth_for(&target) {
                d.fill(f32::INFINITY);
            }
        }
    }

    fn depth_for(&mut self, target: &Image) -> Option<&mut Vec<f32>> {
        let needed = target.pixel_count() as usize;
        let slot = if self.bound_framebuffer == 0 {
            &mut self.default_depth
        } else {
            let fb = self.framebuffers.get_mut(&self.bound_framebuffer)?;
            &mut fb.depth
        };
        match slot {
            Some(d) if d.len() == needed => {}
            _ => *slot = Some(vec![f32::INFINITY; needed]),
        }
        slot.as_mut()
    }

    /// `glDrawArrays` — assembles vertices from client arrays (v1) or
    /// attributes (v2) and rasterizes. Returns fragments shaded.
    pub fn draw_arrays(&mut self, mode: Primitive, first: usize, count: usize) -> u64 {
        let indices: Vec<u32> = (first as u32..(first + count) as u32).collect();
        self.draw_internal(mode, &indices)
    }

    /// `glDrawElements`.
    pub fn draw_elements(&mut self, mode: Primitive, indices: &[u32]) -> u64 {
        self.draw_internal(mode, indices)
    }

    fn gather_vertices(&mut self, indices: &[u32]) -> Option<Vec<Vertex>> {
        let (positions, colors, uvs) = match self.version {
            GlesVersion::V1 => {
                if !self.vertex_array.enabled || self.vertex_array.data.is_empty() {
                    self.record_error(GlError::InvalidOperation);
                    return None;
                }
                (
                    self.vertex_array.clone(),
                    if self.color_array.enabled {
                        Some(self.color_array.clone())
                    } else {
                        None
                    },
                    if self.texcoord_array.enabled {
                        Some(self.texcoord_array.clone())
                    } else {
                        None
                    },
                )
            }
            GlesVersion::V2 => {
                let pos = self.attribs.get(&0).filter(|a| a.enabled).cloned();
                let Some(pos) = pos else {
                    self.record_error(GlError::InvalidOperation);
                    return None;
                };
                (
                    pos,
                    self.attribs.get(&1).filter(|a| a.enabled).cloned(),
                    self.attribs.get(&2).filter(|a| a.enabled).cloned(),
                )
            }
        };

        let base_color = match self.version {
            GlesVersion::V1 => self.current_color,
            GlesVersion::V2 => match self.program_uniform("u_color") {
                Some(UniformValue::F4([r, g, b, a])) => Rgba::new(r, g, b, a),
                _ => Rgba::WHITE,
            },
        };

        let fetch = |arr: &ClientArray, i: usize, dims: usize, default: f32| -> Vec<f32> {
            let start = i * arr.component_size;
            (0..dims)
                .map(|d| {
                    if d < arr.component_size {
                        arr.data.get(start + d).copied().unwrap_or(default)
                    } else {
                        default
                    }
                })
                .collect()
        };

        if positions.component_size == 0 {
            // Enabled array whose pointer was never specified: undefined
            // behaviour in real GL; we fail deterministically.
            self.record_error(GlError::InvalidOperation);
            return None;
        }
        let max_index = *indices.iter().max()? as usize;
        if (max_index + 1) * positions.component_size > positions.data.len() {
            self.record_error(GlError::InvalidOperation);
            return None;
        }

        Some(
            indices
                .iter()
                .map(|&i| {
                    let i = i as usize;
                    let p = fetch(&positions, i, 3, 0.0);
                    let color = match &colors {
                        Some(c) => {
                            let v = fetch(c, i, 4, 1.0);
                            Rgba::new(v[0], v[1], v[2], v[3])
                        }
                        None => base_color,
                    };
                    let uv = match &uvs {
                        Some(t) => {
                            let v = fetch(t, i, 2, 0.0);
                            [v[0], v[1]]
                        }
                        None => [0.0, 0.0],
                    };
                    Vertex {
                        pos: [p[0], p[1], p[2]],
                        color,
                        uv,
                    }
                })
                .collect(),
        )
    }

    fn current_transform(&self) -> Mat4 {
        match self.version {
            GlesVersion::V1 => {
                let p = self.projection.last().expect("stack never empty");
                let m = self.modelview.last().expect("stack never empty");
                p.mul(m)
            }
            GlesVersion::V2 => match self.program_uniform("u_mvp") {
                Some(UniformValue::Matrix(m)) => m,
                _ => Mat4::identity(),
            },
        }
    }

    /// Composes the viewport mapping (NDC -> sub-rectangle of the target).
    fn viewport_matrix(&self, target: &Image) -> Mat4 {
        let (vx, vy, vw, vh) = self.viewport;
        let (tw, th) = (target.width() as f32, target.height() as f32);
        if vw == 0 || vh == 0 || tw == 0.0 || th == 0.0 {
            return Mat4::identity();
        }
        let sx = vw as f32 / tw;
        let sy = vh as f32 / th;
        let tx = (2.0 * vx as f32 + vw as f32) / tw - 1.0;
        let ty = (2.0 * vy as f32 + vh as f32) / th - 1.0;
        let mut m = Mat4::identity();
        m.m[0][0] = sx;
        m.m[1][1] = sy;
        m.m[3][0] = tx;
        m.m[3][1] = ty;
        m
    }

    fn draw_internal(&mut self, mode: Primitive, indices: &[u32]) -> u64 {
        // Per-draw driver cost: state validation, command encoding and
        // kick-off in the vendor driver. Dominates small draws (Figures 9
        // and 10 show tens of microseconds per average draw call), and
        // scales with the device's efficiency on this path — the iPad's 2D
        // path is markedly slower, its 3D path faster (Figure 6).
        const DRAW_CALL_DRIVER_NS: f64 = 14_000.0;
        let class_scale = match self.draw_class {
            DrawClass::TwoD => self.device.cost_model().scale_2d,
            DrawClass::ThreeD => self.device.cost_model().scale_3d,
        };
        cycada_sim::clock::charge_ns_f64(DRAW_CALL_DRIVER_NS * class_scale);
        let Some(target) = self.render_target() else {
            self.record_error(GlError::InvalidFramebufferOperation);
            return 0;
        };
        let Some(vertices) = self.gather_vertices(indices) else {
            return 0;
        };
        let transform = self.viewport_matrix(&target).mul(&self.current_transform());
        let blend = if self.cap(Capability::Blend) {
            BlendMode::Alpha
        } else {
            BlendMode::Opaque
        };
        let depth_test = self.cap(Capability::DepthTest);

        // Texture selection: bound texture if texturing makes sense.
        let texture_image = if self.version == GlesVersion::V1 {
            if self.cap(Capability::Texture2D) {
                self.texture_image(self.bound_texture)
            } else {
                None
            }
        } else {
            self.texture_image(self.bound_texture)
        };

        let tri_vertices: Vec<Vertex> = match mode {
            Primitive::Triangles => vertices,
            Primitive::TriangleStrip => {
                let mut out = Vec::new();
                for w in vertices.windows(3) {
                    out.extend_from_slice(w);
                }
                out
            }
            Primitive::TriangleFan => {
                let mut out = Vec::new();
                for i in 1..vertices.len().saturating_sub(1) {
                    out.push(vertices[0]);
                    out.push(vertices[i]);
                    out.push(vertices[i + 1]);
                }
                out
            }
            Primitive::Lines | Primitive::LineStrip | Primitive::LineLoop => {
                let segments: Vec<(Vertex, Vertex)> = match mode {
                    Primitive::Lines => vertices
                        .chunks_exact(2)
                        .map(|c| (c[0], c[1]))
                        .collect(),
                    Primitive::LineStrip => {
                        vertices.windows(2).map(|w| (w[0], w[1])).collect()
                    }
                    _ => {
                        let mut s: Vec<(Vertex, Vertex)> =
                            vertices.windows(2).map(|w| (w[0], w[1])).collect();
                        if vertices.len() > 2 {
                            s.push((vertices[vertices.len() - 1], vertices[0]));
                        }
                        s
                    }
                };
                self.expand_lines(&transform, &target, &segments)
            }
            Primitive::Points => {
                let size = self.point_size;
                self.expand_points(&transform, &target, &vertices, size)
            }
        };

        // Lines/points are pre-transformed to NDC; triangles carry the
        // full transform.
        let pretransformed = matches!(
            mode,
            Primitive::Lines | Primitive::LineStrip | Primitive::LineLoop | Primitive::Points
        );
        // GL clips primitives to the clip volume, which the viewport maps
        // to this pixel rectangle (GL viewport y counts from the bottom).
        // Edges are computed in i64 so no origin/extent pair can overflow,
        // then clamped to the non-negative quadrant.
        let (vx, vy, vw, vh) = self.viewport;
        let clip = if vw > 0 && vh > 0 {
            let edge = |v: i64| v.clamp(0, i64::from(u32::MAX)) as u32;
            let height = i64::from(target.height());
            let (left, right) = (edge(i64::from(vx)), edge(i64::from(vx) + i64::from(vw)));
            let top = edge(height - i64::from(vy) - i64::from(vh));
            let bottom = edge(height - i64::from(vy));
            Some(cycada_gpu::raster::Rect {
                x: left,
                y: top,
                w: right - left,
                h: bottom - top,
            })
        } else {
            None
        };
        let pipeline = Pipeline {
            transform: if pretransformed {
                Mat4::identity()
            } else {
                transform
            },
            texture: texture_image.as_ref(),
            blend,
            depth_test: depth_test && !pretransformed,
            clip,
        };

        let metrics = if pipeline.depth_test {
            let class = self.draw_class;
            let device = self.device.clone();
            let Some(depth) = self.depth_for(&target) else {
                return 0;
            };
            device.draw(&target, Some(depth), &tri_vertices, None, &pipeline, class)
        } else {
            self.device
                .draw(&target, None, &tri_vertices, None, &pipeline, self.draw_class)
        };
        metrics.fragments
    }

    /// Expands line segments into screen-space quads (two triangles each),
    /// expressed in NDC with an identity transform.
    fn expand_lines(
        &self,
        transform: &Mat4,
        target: &Image,
        segments: &[(Vertex, Vertex)],
    ) -> Vec<Vertex> {
        let (w, h) = (target.width() as f32, target.height() as f32);
        let half_w = self.line_width.max(1.0) / w; // half width in NDC x
        let half_h = self.line_width.max(1.0) / h;
        let mut out = Vec::with_capacity(segments.len() * 6);
        for &(a, b) in segments {
            let pa = transform.transform_point(a.pos);
            let pb = transform.transform_point(b.pos);
            if pa[3] <= f32::EPSILON || pb[3] <= f32::EPSILON {
                continue;
            }
            let (ax, ay) = (pa[0] / pa[3], pa[1] / pa[3]);
            let (bx, by) = (pb[0] / pb[3], pb[1] / pb[3]);
            // Perpendicular in NDC (aspect-corrected).
            let (dx, dy) = (bx - ax, by - ay);
            let len = (dx * dx + dy * dy).sqrt();
            if len <= f32::EPSILON {
                continue;
            }
            let (nx, ny) = (-dy / len * half_w, dx / len * half_h);
            let quad = [
                ([ax - nx, ay - ny, 0.0], a.color, a.uv),
                ([ax + nx, ay + ny, 0.0], a.color, a.uv),
                ([bx + nx, by + ny, 0.0], b.color, b.uv),
                ([ax - nx, ay - ny, 0.0], a.color, a.uv),
                ([bx + nx, by + ny, 0.0], b.color, b.uv),
                ([bx - nx, by - ny, 0.0], b.color, b.uv),
            ];
            out.extend(quad.iter().map(|&(pos, color, uv)| Vertex { pos, color, uv }));
        }
        out
    }

    /// Expands points into screen-space quads.
    fn expand_points(
        &self,
        transform: &Mat4,
        target: &Image,
        points: &[Vertex],
        size: f32,
    ) -> Vec<Vertex> {
        let (w, h) = (target.width() as f32, target.height() as f32);
        let hx = size.max(1.0) / w;
        let hy = size.max(1.0) / h;
        let mut out = Vec::with_capacity(points.len() * 6);
        for p in points {
            let t = transform.transform_point(p.pos);
            if t[3] <= f32::EPSILON {
                continue;
            }
            let (x, y) = (t[0] / t[3], t[1] / t[3]);
            let corners = [
                [x - hx, y - hy, 0.0],
                [x + hx, y - hy, 0.0],
                [x + hx, y + hy, 0.0],
                [x - hx, y + hy, 0.0],
            ];
            for &i in &[0usize, 1, 2, 0, 2, 3] {
                out.push(Vertex {
                    pos: corners[i],
                    color: p.color,
                    uv: p.uv,
                });
            }
        }
        out
    }

    /// Draws `image` as a full-screen textured quad into the currently
    /// bound framebuffer — the "simple GLES vertex and fragment shader
    /// programs" path Cycada's `aegl_bridge_draw_fbo_tex` uses to move an
    /// off-screen EAGL renderbuffer into the default framebuffer (§5).
    /// Returns fragments shaded.
    pub fn draw_fullscreen_image(&mut self, image: &Image) -> u64 {
        let Some(target) = self.render_target() else {
            self.record_error(GlError::InvalidFramebufferOperation);
            return 0;
        };
        self.device
            .fullscreen_image(&target, image, self.draw_class)
            .fragments
    }

    /// `glReadPixels`: packs the target's pixels into `out` honouring the
    /// pack alignment / `APPLE_row_bytes` state. Returns bytes written.
    pub fn read_pixels(
        &mut self,
        x: u32,
        y: u32,
        width: u32,
        height: u32,
        format: TexFormat,
        out: &mut Vec<u8>,
    ) -> usize {
        let Some(target) = self.render_target() else {
            self.record_error(GlError::InvalidFramebufferOperation);
            return 0;
        };
        if !rect_fits(x, y, width, height, target.width(), target.height()) {
            self.record_error(GlError::InvalidValue);
            return 0;
        }
        let bpp = format.bytes_per_pixel();
        let stride = self.pixel_store.pack_stride(width as usize, bpp);
        let total = stride * height as usize;
        out.resize(total, 0);
        let pf = format.pixel_format();
        target.read_rows(|rows| {
            for row in 0..height {
                for col in 0..width {
                    let color = rows.pixel_rgba(x + col, y + row);
                    let off = row as usize * stride + col as usize * bpp;
                    pf.encode(color, &mut out[off..off + bpp]);
                }
            }
        });
        self.device
            .charge_readback(u64::from(width) * u64::from(height) * bpp as u64);
        total
    }
}

impl fmt::Debug for GlesContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GlesContext")
            .field("version", &self.version)
            .field("flavor", &self.flavor)
            .field("textures", &self.textures.len())
            .field("framebuffers", &self.framebuffers.len())
            .finish()
    }
}

/// Copies `rect = (x, y, width, height)` of client rows at `stride` into
/// `image` when the upload is in the image's own format: per-pixel
/// decode→encode is the byte identity within a format (asserted
/// exhaustively by the raster plane's tests), so each row is one
/// `copy_from_slice` under a single write guard.
fn unpack_rows(image: &Image, data: &[u8], stride: usize, rect: (u32, u32, u32, u32)) {
    let (x, y, width, height) = rect;
    let bpp = image.format().bytes_per_pixel();
    let (x0, len) = (x as usize * bpp, width as usize * bpp);
    if len == 0 {
        return;
    }
    image.map_rows(|rows| {
        for row in 0..height {
            let src = &data[row as usize * stride..][..len];
            rows.row_mut(y + row)[x0..x0 + len].copy_from_slice(src);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycada_sim::GpuCostModel;

    fn ctx(version: GlesVersion, flavor: ApiFlavor) -> GlesContext {
        let device = Arc::new(GpuDevice::new(GpuCostModel::tegra3()));
        let mut c = GlesContext::new(version, flavor, device);
        c.set_default_framebuffer(Some(Image::new(
            32,
            32,
            cycada_gpu::PixelFormat::Rgba8888,
        )));
        c
    }

    fn fullscreen_quad(c: &mut GlesContext) {
        c.set_client_state(ClientState::VertexArray, true);
        c.client_pointer(
            ClientState::VertexArray,
            2,
            &[-1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0],
        );
    }

    #[test]
    fn clear_writes_default_framebuffer() {
        let mut c = ctx(GlesVersion::V1, ApiFlavor::Android);
        c.clear_color(1.0, 0.0, 0.0, 1.0);
        c.clear(true, false);
        let fb = c.default_framebuffer().unwrap();
        assert_eq!(fb.pixel_rgba(16, 16).to_bytes(), [255, 0, 0, 255]);
    }

    #[test]
    fn scissored_clear_only_touches_rect() {
        let mut c = ctx(GlesVersion::V1, ApiFlavor::Android);
        c.clear_color(0.0, 1.0, 0.0, 1.0);
        c.enable(Capability::ScissorTest);
        c.set_scissor(0, 0, 8, 8);
        c.clear(true, false);
        let fb = c.default_framebuffer().unwrap();
        assert_eq!(fb.pixel_rgba(4, 4).to_bytes(), [0, 255, 0, 255]);
        assert_eq!(fb.pixel_rgba(20, 20).to_bytes(), [0, 0, 0, 0]);
    }

    #[test]
    fn v1_draw_arrays_with_current_color() {
        let mut c = ctx(GlesVersion::V1, ApiFlavor::Android);
        fullscreen_quad(&mut c);
        c.color4f(0.0, 0.0, 1.0, 1.0);
        let frags = c.draw_arrays(Primitive::Triangles, 0, 6);
        assert!(frags > 0);
        let fb = c.default_framebuffer().unwrap();
        assert_eq!(fb.pixel_rgba(16, 16).to_bytes(), [0, 0, 255, 255]);
        assert_eq!(c.get_error(), GlError::NoError);
    }

    #[test]
    fn v1_matrix_stack_transforms_draws() {
        let mut c = ctx(GlesVersion::V1, ApiFlavor::Android);
        fullscreen_quad(&mut c);
        c.color4f(1.0, 1.0, 1.0, 1.0);
        // Shrink everything to the lower-left quadrant...
        c.matrix_mode(MatrixMode::ModelView);
        c.push_matrix();
        c.scale(0.5, 0.5, 1.0);
        c.translate(-1.0, -1.0, 0.0);
        c.draw_arrays(Primitive::Triangles, 0, 6);
        c.pop_matrix();
        let fb = c.default_framebuffer().unwrap();
        // Lower-left quadrant (y flipped: NDC -1,-1 is bottom-left =>
        // image bottom) is drawn.
        assert_eq!(fb.pixel_rgba(4, 28).to_bytes(), [255, 255, 255, 255]);
        assert_eq!(fb.pixel_rgba(28, 4).to_bytes(), [0, 0, 0, 0]);
    }

    #[test]
    fn matrix_ops_require_v1() {
        let mut c = ctx(GlesVersion::V2, ApiFlavor::Android);
        c.push_matrix();
        assert_eq!(c.get_error(), GlError::InvalidOperation);
    }

    #[test]
    fn pop_on_single_entry_stack_errors() {
        let mut c = ctx(GlesVersion::V1, ApiFlavor::Android);
        c.pop_matrix();
        assert_eq!(c.get_error(), GlError::InvalidOperation);
    }

    #[test]
    fn v2_draw_with_attribs_and_uniforms() {
        let mut c = ctx(GlesVersion::V2, ApiFlavor::Android);
        let vs = c.create_shader();
        c.shader_source(vs, "attribute vec2 a_pos; void main() {}");
        c.compile_shader(vs);
        let fs = c.create_shader();
        c.shader_source(fs, "void main() {}");
        c.compile_shader(fs);
        let prog = c.create_program();
        c.attach_shader(prog, vs);
        c.attach_shader(prog, fs);
        c.link_program(prog);
        assert!(c.program_linked(prog));
        c.use_program(prog);
        let color_loc = c.uniform_location(prog, "u_color");
        c.uniform4f(color_loc, 0.0, 1.0, 0.0, 1.0);

        c.set_vertex_attrib_enabled(0, true);
        c.vertex_attrib_pointer(
            0,
            2,
            &[-1.0, -1.0, 3.0, -1.0, -1.0, 3.0],
        );
        c.draw_arrays(Primitive::Triangles, 0, 3);
        let fb = c.default_framebuffer().unwrap();
        assert_eq!(fb.pixel_rgba(16, 16).to_bytes(), [0, 255, 0, 255]);
    }

    #[test]
    fn v2_mvp_uniform_applies() {
        let mut c = ctx(GlesVersion::V2, ApiFlavor::Android);
        let prog = c.create_program();
        let vs = c.create_shader();
        c.shader_source(vs, "x");
        c.compile_shader(vs);
        c.attach_shader(prog, vs);
        c.link_program(prog);
        c.use_program(prog);
        let mvp = c.uniform_location(prog, "u_mvp");
        c.uniform_matrix4(mvp, Mat4::scale(0.0, 0.0, 0.0)); // collapse everything
        c.set_vertex_attrib_enabled(0, true);
        c.vertex_attrib_pointer(0, 2, &[-1.0, -1.0, 3.0, -1.0, -1.0, 3.0]);
        let frags = c.draw_arrays(Primitive::Triangles, 0, 3);
        assert_eq!(frags, 0, "degenerate MVP collapses the triangle");
    }

    #[test]
    fn texture_upload_and_textured_draw() {
        let mut c = ctx(GlesVersion::V1, ApiFlavor::Android);
        let tex = c.gen_textures(1)[0];
        c.bind_texture(tex);
        // 1x1 green RGBA texel.
        c.tex_image_2d(1, 1, TexFormat::Rgba, Some(&[0, 255, 0, 255]));
        c.enable(Capability::Texture2D);
        fullscreen_quad(&mut c);
        c.set_client_state(ClientState::TexCoordArray, true);
        c.client_pointer(
            ClientState::TexCoordArray,
            2,
            &[0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0],
        );
        c.draw_arrays(Primitive::Triangles, 0, 6);
        let fb = c.default_framebuffer().unwrap();
        assert_eq!(fb.pixel_rgba(16, 16).to_bytes(), [0, 255, 0, 255]);
    }

    #[test]
    fn short_sub_image_data_is_invalid_value_not_a_panic() {
        let mut c = ctx(GlesVersion::V1, ApiFlavor::Android);
        let tex = c.gen_textures(1)[0];
        c.bind_texture(tex);
        c.tex_image_2d(2, 2, TexFormat::Rgba, Some(&[7; 16]));
        // A 2x2 RGBA patch needs 16 bytes; 15 is one short.
        c.tex_sub_image_2d(0, 0, 2, 2, TexFormat::Rgba, &[9; 15]);
        assert_eq!(c.get_error(), GlError::InvalidValue);
        assert_eq!(
            c.texture_image(tex).unwrap().pixel_rgba(1, 1).to_bytes(),
            [7; 4]
        );
        // Empty rects read nothing.
        c.tex_sub_image_2d(1, 1, 0, 1, TexFormat::Rgba, &[]);
        assert_eq!(c.get_error(), GlError::NoError);
    }

    #[test]
    fn bgra_rejected_on_android_accepted_on_ios() {
        let mut android = ctx(GlesVersion::V2, ApiFlavor::Android);
        let tex = android.gen_textures(1)[0];
        android.bind_texture(tex);
        android.tex_image_2d(1, 1, TexFormat::Bgra, Some(&[255, 0, 0, 255]));
        assert_eq!(android.get_error(), GlError::InvalidEnum);

        let mut ios = ctx(GlesVersion::V2, ApiFlavor::Ios);
        let tex = ios.gen_textures(1)[0];
        ios.bind_texture(tex);
        ios.tex_image_2d(1, 1, TexFormat::Bgra, Some(&[255, 0, 0, 255]));
        assert_eq!(ios.get_error(), GlError::NoError);
        // BGRA bytes [255,0,0,255] decode to blue.
        assert_eq!(
            ios.texture_image(tex).unwrap().pixel_rgba(0, 0).to_bytes(),
            [0, 0, 255, 255]
        );
    }

    #[test]
    fn apple_row_bytes_only_on_ios() {
        let mut android = ctx(GlesVersion::V2, ApiFlavor::Android);
        android.pixel_store(PixelStoreParam::UnpackRowBytesApple, 64);
        assert_eq!(android.get_error(), GlError::InvalidEnum);

        let mut ios = ctx(GlesVersion::V2, ApiFlavor::Ios);
        ios.pixel_store(PixelStoreParam::UnpackRowBytesApple, 12);
        assert_eq!(ios.get_error(), GlError::NoError);
        // Upload a 2x2 RGBA texture from rows 12 bytes apart.
        let tex = ios.gen_textures(1)[0];
        ios.bind_texture(tex);
        let mut data = vec![0u8; 12 * 2];
        data[0..4].copy_from_slice(&[255, 0, 0, 255]); // (0,0) red
        data[12..16].copy_from_slice(&[0, 255, 0, 255]); // (0,1) green
        ios.tex_image_2d(2, 2, TexFormat::Rgba, Some(&data));
        let img = ios.texture_image(tex).unwrap();
        assert_eq!(img.pixel_rgba(0, 0).to_bytes(), [255, 0, 0, 255]);
        assert_eq!(img.pixel_rgba(0, 1).to_bytes(), [0, 255, 0, 255]);
    }

    #[test]
    fn read_pixels_respects_pack_row_bytes() {
        let mut c = ctx(GlesVersion::V2, ApiFlavor::Ios);
        c.clear_color(1.0, 0.0, 0.0, 1.0);
        c.clear(true, false);
        c.pixel_store(PixelStoreParam::PackRowBytesApple, 20);
        let mut out = Vec::new();
        let written = c.read_pixels(0, 0, 2, 2, TexFormat::Rgba, &mut out);
        assert_eq!(written, 40);
        assert_eq!(&out[0..4], &[255, 0, 0, 255]);
        assert_eq!(&out[20..24], &[255, 0, 0, 255]);
        assert_eq!(&out[8..20], &[0; 12], "row padding untouched");
    }

    #[test]
    fn fbo_render_to_texture() {
        let mut c = ctx(GlesVersion::V2, ApiFlavor::Android);
        let tex = c.gen_textures(1)[0];
        c.bind_texture(tex);
        c.tex_image_2d(16, 16, TexFormat::Rgba, None);
        let fbo = c.gen_framebuffers(1)[0];
        c.bind_framebuffer(fbo);
        assert_eq!(
            c.check_framebuffer_status(),
            FramebufferStatus::MissingAttachment
        );
        c.framebuffer_texture(tex);
        assert_eq!(c.check_framebuffer_status(), FramebufferStatus::Complete);
        c.clear_color(0.0, 0.0, 1.0, 1.0);
        c.clear(true, false);
        assert_eq!(
            c.texture_image(tex).unwrap().pixel_rgba(8, 8).to_bytes(),
            [0, 0, 255, 255]
        );
        // Default framebuffer untouched.
        c.bind_framebuffer(0);
        assert_eq!(
            c.default_framebuffer().unwrap().pixel_rgba(8, 8).to_bytes(),
            [0, 0, 0, 0]
        );
    }

    #[test]
    fn renderbuffer_attachment() {
        let mut c = ctx(GlesVersion::V1, ApiFlavor::Ios);
        let rb = c.gen_renderbuffers(1)[0];
        c.bind_renderbuffer(rb);
        c.renderbuffer_storage(8, 8, TexFormat::Rgba);
        let fbo = c.gen_framebuffers(1)[0];
        c.bind_framebuffer(fbo);
        c.framebuffer_renderbuffer(rb);
        assert_eq!(c.check_framebuffer_status(), FramebufferStatus::Complete);
        c.clear_color(1.0, 1.0, 0.0, 1.0);
        c.clear(true, false);
        assert_eq!(
            c.renderbuffer_image(rb).unwrap().pixel_rgba(4, 4).to_bytes(),
            [255, 255, 0, 255]
        );
    }

    #[test]
    fn delete_textures_reports_freed_count() {
        let mut c = ctx(GlesVersion::V2, ApiFlavor::Android);
        let names = c.gen_textures(3);
        assert_eq!(c.delete_textures(&names), 3);
        assert_eq!(c.delete_textures(&names), 0, "already deleted");
        assert!(!c.is_texture(names[0]));
    }

    #[test]
    fn egl_image_binding_and_respecify_drops_association() {
        let mut c = ctx(GlesVersion::V2, ApiFlavor::Android);
        let tex = c.gen_textures(1)[0];
        c.bind_texture(tex);
        let external = Image::new(4, 4, cycada_gpu::PixelFormat::Rgba8888);
        external.fill(Rgba::GREEN);
        let guard: Arc<dyn Any + Send + Sync> = Arc::new("assoc");
        c.egl_image_target_texture(EglImageSource {
            image: external.clone(),
            guard,
        });
        assert!(c.texture_has_external(tex));
        assert!(c.texture_image(tex).unwrap().aliases(&external));

        // Rebinding to a 1-pixel buffer via glTexImage2D (the multi
        // diplomat's trick) drops the association.
        c.tex_image_2d(1, 1, TexFormat::Rgba, Some(&[0, 0, 0, 255]));
        assert!(!c.texture_has_external(tex));
        assert!(!c.texture_image(tex).unwrap().aliases(&external));
    }

    #[test]
    fn fences_track_device_completion() {
        let mut c = ctx(GlesVersion::V1, ApiFlavor::Android);
        let f = c.gen_fences(1)[0];
        assert!(c.is_fence(f));
        fullscreen_quad(&mut c);
        c.draw_arrays(Primitive::Triangles, 0, 6);
        c.set_fence(f);
        assert!(!c.test_fence(f), "work not retired yet");
        c.finish_fence(f);
        assert!(c.test_fence(f));
        c.delete_fences(&[f]);
        assert!(!c.is_fence(f));
    }

    #[test]
    fn lines_rasterize_as_thin_quads() {
        let mut c = ctx(GlesVersion::V1, ApiFlavor::Android);
        c.set_client_state(ClientState::VertexArray, true);
        c.client_pointer(ClientState::VertexArray, 2, &[-0.9, 0.0, 0.9, 0.0]);
        c.color4f(1.0, 0.0, 0.0, 1.0);
        let frags = c.draw_arrays(Primitive::Lines, 0, 2);
        assert!(frags > 0);
        let fb = c.default_framebuffer().unwrap();
        // Horizontal line through the middle.
        assert_eq!(fb.pixel_rgba(16, 16).to_bytes(), [255, 0, 0, 255]);
        assert_eq!(fb.pixel_rgba(16, 2).to_bytes(), [0, 0, 0, 0]);
    }

    #[test]
    fn points_rasterize_as_quads() {
        let mut c = ctx(GlesVersion::V1, ApiFlavor::Android);
        c.set_client_state(ClientState::VertexArray, true);
        c.client_pointer(ClientState::VertexArray, 2, &[0.0, 0.0]);
        c.set_point_size(4.0);
        c.color4f(0.0, 1.0, 1.0, 1.0);
        let frags = c.draw_arrays(Primitive::Points, 0, 1);
        assert!(frags > 0);
        let fb = c.default_framebuffer().unwrap();
        assert_eq!(fb.pixel_rgba(16, 16).to_bytes(), [0, 255, 255, 255]);
    }

    #[test]
    fn depth_test_between_draws() {
        let mut c = ctx(GlesVersion::V1, ApiFlavor::Android);
        c.enable(Capability::DepthTest);
        c.set_client_state(ClientState::VertexArray, true);
        // Near quad (z=0), green.
        c.client_pointer(
            ClientState::VertexArray,
            3,
            &[-1.0, -1.0, 0.0, 3.0, -1.0, 0.0, -1.0, 3.0, 0.0],
        );
        c.color4f(0.0, 1.0, 0.0, 1.0);
        c.draw_arrays(Primitive::Triangles, 0, 3);
        // Far quad (z=0.5), red — must lose.
        c.client_pointer(
            ClientState::VertexArray,
            3,
            &[-1.0, -1.0, 0.5, 3.0, -1.0, 0.5, -1.0, 3.0, 0.5],
        );
        c.color4f(1.0, 0.0, 0.0, 1.0);
        c.draw_arrays(Primitive::Triangles, 0, 3);
        let fb = c.default_framebuffer().unwrap();
        assert_eq!(fb.pixel_rgba(16, 16).to_bytes(), [0, 255, 0, 255]);
    }

    #[test]
    fn draw_without_arrays_errors() {
        let mut c = ctx(GlesVersion::V1, ApiFlavor::Android);
        let frags = c.draw_arrays(Primitive::Triangles, 0, 3);
        assert_eq!(frags, 0);
        assert_eq!(c.get_error(), GlError::InvalidOperation);
    }

    #[test]
    fn draw_with_out_of_range_indices_errors() {
        let mut c = ctx(GlesVersion::V1, ApiFlavor::Android);
        c.set_client_state(ClientState::VertexArray, true);
        c.client_pointer(ClientState::VertexArray, 2, &[0.0, 0.0, 1.0, 0.0]);
        c.draw_elements(Primitive::Triangles, &[0, 1, 9]);
        assert_eq!(c.get_error(), GlError::InvalidOperation);
    }

    #[test]
    fn viewport_restricts_draw_area() {
        let mut c = ctx(GlesVersion::V1, ApiFlavor::Android);
        c.set_viewport(0, 0, 16, 16);
        fullscreen_quad(&mut c);
        c.color4f(1.0, 1.0, 1.0, 1.0);
        c.draw_arrays(Primitive::Triangles, 0, 6);
        let fb = c.default_framebuffer().unwrap();
        // GL viewport y=0 is the bottom; image bottom-left quadrant drawn.
        assert_eq!(fb.pixel_rgba(8, 24).to_bytes(), [255, 255, 255, 255]);
        assert_eq!(fb.pixel_rgba(24, 8).to_bytes(), [0, 0, 0, 0]);
    }

    #[test]
    fn error_is_sticky_and_clears_on_read() {
        let mut c = ctx(GlesVersion::V1, ApiFlavor::Android);
        c.set_line_width(-1.0);
        c.pop_matrix(); // would be InvalidOperation, but first error sticks
        assert_eq!(c.get_error(), GlError::InvalidValue);
        assert_eq!(c.get_error(), GlError::NoError);
    }
}
