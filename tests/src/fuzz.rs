//! Differential GLES conformance fuzzing over `.cyt` call streams.
//!
//! A seeded generator emits replay [`Stream`]s of `AppGl` calls — one or
//! two sessions on a shared device (exercising EGL_multi_context / DLR
//! when the sessions use different GLES versions; the second session is
//! attached by a [`MARK_SESSION`] marker), clears, colored and textured
//! draws, transform-stack churn, capability toggles, scissored partial
//! redraws, flushes and presents. [`check_stream`] runs a stream three
//! times:
//!
//! 1. **Reference** — [`run_reference`] interprets the stream against a
//!    bare [`GlesContext`] per session on a private [`GpuDevice`] with
//!    [`GpuDevice::set_reference_raster`] enabled, so every draw runs the
//!    per-pixel executable-specification rasterizer. It writes its own
//!    framebuffer digest into every `app:present` and `cyt:end` call.
//! 2. **Diplomat path** — [`replay_on_device`] on a freshly booted
//!    [`CycadaDevice`]: every call crosses the diplomatic bridge, persona
//!    switches, the replica vendor stack and the span rasterizer. Every
//!    present must hash like the reference's, every draw must shade as
//!    many fragments, and the replay re-records itself.
//! 3. **Determinism** — the re-recording replays on a second fresh device
//!    under the full replay contract: pixels, every per-call virtual
//!    timestamp and each session's metered nanoseconds repeat exactly,
//!    and both devices scan out the same bytes — the determinism
//!    contract the figure regenerators rely on.
//!
//! Failures shrink with [`cycada_replay::shrink_calls`] to a 1-minimal
//! stream, which is an ordinary `.cyt` trace: `tests/corpus/fuzz/`
//! commits the ones worth keeping as regressions.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use cycada::CycadaDevice;
use cycada_gles::{
    ApiFlavor, Capability, ClientState, GlesContext, GlesVersion, Primitive, TexFormat,
};
use cycada_gpu::math::Mat4;
use cycada_gpu::{GpuDevice, Image, PixelFormat};
use cycada_replay::{
    gles_code, gles_from_code, replay_on_device, Fault, ReplayOptions, ReplayOutcome, MARK_SESSION,
};
use cycada_sim::replay::{
    arg_f32, arg_i32, f32_arg, i32_arg, op, Call, Stream, StreamMeta, MARK_END,
    MARK_METER_BEGIN, MARK_METER_END,
};
use cycada_sim::{GpuCostModel, Platform, SimRng, VirtualClock};

/// Display size of every generated stream (small keeps 200 cases fast).
pub const WIDTH: u32 = 64;
/// See [`WIDTH`].
pub const HEIGHT: u32 = 48;

/// Texture edge used by every generated `create-texture` (fixed so
/// sub-updates stay in bounds no matter which creates the shrinker
/// removes).
pub const TEX_EDGE: u32 = 8;

/// Deterministic texel bytes for a `(format, w, h, tag)` tuple. Rows are
/// padded to the default `GL_UNPACK_ALIGNMENT` of 4, which sub-image
/// uploads honor when reading source rows.
fn tex_bytes(format: TexFormat, w: u32, h: u32, tag: u64) -> Vec<u8> {
    let bpp = format.bytes_per_pixel();
    let stride = (w as usize * bpp).div_ceil(4) * 4;
    let n = (h as usize - 1) * stride + w as usize * bpp;
    (0..n)
        .map(|i| ((i as u64).wrapping_mul(73).wrapping_add(tag.wrapping_mul(151)) % 251) as u8)
        .collect()
}

fn f32_args(v: &[f32]) -> Vec<u64> {
    v.iter().map(|&x| f32_arg(x)).collect()
}

// ---------------------------------------------------------------------
// Call helpers
// ---------------------------------------------------------------------

/// Builds a stream call by call. Session `i` runs GLES `versions[i]`;
/// session 0 is the header session and the others attach through
/// [`MARK_SESSION`] on first use. Every session opens with
/// `cyt:meter-begin`; [`StreamBuilder::finish`] closes each with
/// `cyt:meter-end` and `cyt:end`. Recorded texture names run 1..n per
/// session. Digests and timestamps are left 0: [`check_stream`] takes
/// them from the reference and the first replay.
#[derive(Debug, Clone)]
pub struct StreamBuilder {
    stream: Stream,
    versions: Vec<GlesVersion>,
    /// Formats of each opened session's textures (name = index + 1).
    textures: Vec<Option<Vec<TexFormat>>>,
    current: usize,
}

impl StreamBuilder {
    /// A stream of `versions.len()` sessions on a [`WIDTH`]x[`HEIGHT`]
    /// Cycada device, with session 0 selected.
    pub fn new(seed: u64, versions: &[GlesVersion]) -> StreamBuilder {
        let meta = StreamMeta {
            platform: Platform::CycadaIos,
            gles: gles_code(versions[0]),
            width: WIDTH,
            height: HEIGHT,
            seed,
            label: "fuzz".to_owned(),
        };
        let mut b = StreamBuilder {
            stream: Stream { meta, names: Vec::new(), calls: Vec::new() },
            versions: versions.to_vec(),
            textures: vec![None; versions.len()],
            current: 0,
        };
        b.on(0);
        b
    }

    /// Selects `session` for the calls that follow.
    pub fn on(&mut self, session: usize) -> &mut Self {
        if session != self.current {
            self.current = session;
            let gles = u64::from(gles_code(self.versions[session]));
            self.call(MARK_SESSION, &[session as u64, gles], &[]);
        }
        if self.textures[session].is_none() {
            self.textures[session] = Some(Vec::new());
            self.call(MARK_METER_BEGIN, &[], &[]);
        }
        self
    }

    /// Appends one call to the selected session.
    pub fn call(&mut self, name: &str, args: &[u64], payload: &[u8]) -> &mut Self {
        let names = &mut self.stream.names;
        let index = names.iter().position(|n| n == name).unwrap_or_else(|| {
            names.push(name.to_owned());
            names.len() - 1
        });
        self.stream.calls.push(Call {
            name: index as u32,
            vts: 0,
            args: args.to_vec(),
            payload: payload.to_vec(),
        });
        self
    }

    /// `AppGl::clear`.
    pub fn clear(&mut self, rgba: [f32; 4]) -> &mut Self {
        self.call(op::CLEAR, &f32_args(&rgba), &[])
    }

    /// `AppGl::draw` of a flat `[x, y, z]*` vertex array.
    pub fn draw(&mut self, mode: Primitive, xyz: &[f32], color: [f32; 4]) -> &mut Self {
        let mut args = vec![u64::from(mode.code())];
        args.extend(f32_args(&color));
        let payload: Vec<u8> = xyz.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.call(op::DRAW, &args, &payload)
    }

    /// Textures created so far in the selected session.
    pub fn textures(&self) -> u64 {
        self.textures[self.current].as_ref().map_or(0, |t| t.len() as u64)
    }

    /// `AppGl::create_texture` of a [`TEX_EDGE`]-square texture with
    /// deterministic texels; its recorded name is [`Self::textures`].
    pub fn create_texture(&mut self, format: TexFormat) -> &mut Self {
        let textures = self.textures[self.current].get_or_insert_with(Vec::new);
        let tag = textures.len() as u64;
        textures.push(format);
        let args = [TEX_EDGE.into(), TEX_EDGE.into(), format.code().into(), tag + 1];
        self.call(op::CREATE_TEXTURE, &args, &tex_bytes(format, TEX_EDGE, TEX_EDGE, tag))
    }

    /// `AppGl::update_texture` of texture `name` (1-based) with
    /// deterministic texels in the texture's own format.
    pub fn update_texture(&mut self, name: u64, x: u32, y: u32, w: u32, h: u32) -> &mut Self {
        let format = self.textures[self.current].as_ref().expect("selected session")
            [name as usize - 1];
        let args = [name, x.into(), y.into(), w.into(), h.into(), u64::from(format.code())];
        self.call(op::UPDATE_TEXTURE, &args, &tex_bytes(format, w, h, name + 96))
    }

    /// `AppGl::draw_textured_quad[_indexed]` of texture `name` over
    /// `[x0, y0, x1, y1]` in NDC.
    pub fn tex_quad(&mut self, name: u64, rect: [f32; 4], indexed: bool) -> &mut Self {
        let mut args = vec![name];
        args.extend(f32_args(&rect));
        let op = if indexed { op::TEX_QUAD_INDEXED } else { op::TEX_QUAD };
        self.call(op, &args, &[])
    }

    /// Closes every opened session with `cyt:meter-end` and `cyt:end`.
    pub fn finish(mut self) -> Stream {
        for session in 0..self.versions.len() {
            if self.textures[session].is_some() {
                self.on(session)
                    .call(MARK_METER_END, &[0], &[])
                    .call(MARK_END, &[0, 0], &[]);
            }
        }
        self.stream
    }
}

// ---------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------

fn coord(rng: &mut SimRng) -> f32 {
    (rng.below(251) as f32 - 125.0) / 100.0
}

fn unit(rng: &mut SimRng) -> f32 {
    rng.below(17) as f32 / 16.0
}

fn gen_color(rng: &mut SimRng) -> [f32; 4] {
    [unit(rng), unit(rng), unit(rng), unit(rng)]
}

fn gen_rect(rng: &mut SimRng) -> [f32; 4] {
    let x0 = coord(rng);
    let y0 = coord(rng);
    [x0, y0, x0 + unit(rng) + 0.1, y0 + unit(rng) + 0.1]
}

/// Generates the deterministic stream for `seed`.
pub fn generate(seed: u64) -> Stream {
    let mut rng = SimRng::new(seed ^ 0xF022_D1FF);
    let nctx = 1 + rng.below(2) as usize;
    let versions: Vec<GlesVersion> = (0..nctx)
        .map(|_| {
            if rng.below(2) == 0 {
                GlesVersion::V1
            } else {
                GlesVersion::V2
            }
        })
        .collect();
    let nops = 10 + rng.below(26) as usize;
    let mut b = StreamBuilder::new(seed, &versions);
    // Every session starts from a known clear so leftover framebuffer
    // contents never alias between cases.
    for ctx in 0..nctx {
        let rgba = gen_color(&mut rng);
        b.on(ctx).clear(rgba);
    }
    for _ in 0..nops {
        let ctx = rng.below(nctx as u64) as usize;
        let textures = b.on(ctx).textures();
        match rng.below(17) {
            0 => b.clear(gen_color(&mut rng)),
            1..=3 => {
                let mode = match rng.below(5) {
                    0 => Primitive::Triangles,
                    1 => Primitive::TriangleStrip,
                    2 => Primitive::TriangleFan,
                    3 => Primitive::Lines,
                    _ => Primitive::Points,
                };
                let verts = 3 + rng.below(4) as usize;
                let xyz: Vec<f32> = (0..verts * 3).map(|_| coord(&mut rng)).collect();
                b.draw(mode, &xyz, gen_color(&mut rng))
            }
            4 => b.create_texture(match rng.below(3) {
                0 => TexFormat::Rgba,
                1 => TexFormat::Bgra,
                _ => TexFormat::Rgb565,
            }),
            5 if textures > 0 => {
                let x = rng.below(u64::from(TEX_EDGE) - 1) as u32;
                let y = rng.below(u64::from(TEX_EDGE) - 1) as u32;
                let name = 1 + rng.below(textures);
                let w = 1 + rng.below(u64::from(TEX_EDGE - x) - 1) as u32;
                let h = 1 + rng.below(u64::from(TEX_EDGE - y) - 1) as u32;
                b.update_texture(name, x, y, w, h)
            }
            6 | 7 if textures > 0 => {
                let name = 1 + rng.below(textures);
                b.tex_quad(name, gen_rect(&mut rng), false)
            }
            8 if textures > 0 => {
                let name = 1 + rng.below(textures);
                b.tex_quad(name, gen_rect(&mut rng), true)
            }
            9 => {
                let v = [coord(&mut rng), coord(&mut rng), 0.0];
                b.call(op::TRANSLATE, &f32_args(&v), &[])
            }
            10 => b.call(op::ROTATE, &[f32_arg(rng.below(24) as f32 * 15.0)], &[]),
            11 => {
                let v = [0.25 + unit(&mut rng), 0.25 + unit(&mut rng), 1.0];
                b.call(op::SCALE, &f32_args(&v), &[])
            }
            12 => b.call([op::PUSH, op::POP, op::IDENTITY][rng.below(3) as usize], &[], &[]),
            13 => {
                let cap = match rng.below(3) {
                    0 => Capability::Blend,
                    1 => Capability::DepthTest,
                    _ => Capability::ScissorTest,
                };
                let on = u64::from(rng.below(2) == 0);
                b.call(op::CAPABILITY, &[u64::from(cap.code()), on], &[])
            }
            14 => b.call(op::FLUSH, &[], &[]),
            15 => {
                // Partial-redraw box: small and occasionally hanging
                // past the framebuffer edge (clamping must agree).
                let x = rng.below(u64::from(WIDTH)) as i32 - 4;
                let y = rng.below(u64::from(HEIGHT)) as i32 - 4;
                let (w, h) = (1 + rng.below(24), 1 + rng.below(24));
                b.call(op::SCISSOR, &[i32_arg(x), i32_arg(y), w, h], &[])
            }
            _ => b.call(op::PRESENT, &[0], &[]),
        };
    }
    b.finish()
}

// ---------------------------------------------------------------------
// Reference interpreter
// ---------------------------------------------------------------------

/// Mirror of [`cycada::AppGl`]'s vendor-side call sequences against a
/// bare [`GlesContext`] — the same calls `AppGl` issues through the
/// bridge, replayed directly (no diplomat layer, no sessions, reference
/// rasterizer). One per stream session.
struct RefCtx {
    c: GlesContext,
    version: GlesVersion,
    target: Image,
    mvp: Vec<Mat4>,
    mvp_loc: i32,
    color_loc: i32,
    /// Recorded→live texture names.
    texmap: HashMap<u64, u32>,
}

impl RefCtx {
    fn new(version: GlesVersion, device: Arc<GpuDevice>, (w, h): (u32, u32)) -> RefCtx {
        let target = Image::new(w, h, PixelFormat::Bgra8888);
        let mut c = GlesContext::new(version, ApiFlavor::Ios, device);
        c.set_default_framebuffer(Some(target.clone()));
        c.set_viewport(0, 0, w, h);
        let mut this = RefCtx {
            c,
            version,
            target,
            mvp: vec![Mat4::identity()],
            mvp_loc: -1,
            color_loc: -1,
            texmap: HashMap::new(),
        };
        match version {
            GlesVersion::V1 => {
                this.c.set_client_state(ClientState::VertexArray, true);
            }
            GlesVersion::V2 => {
                let c = &mut this.c;
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
                this.mvp_loc = c.uniform_location(program, "u_mvp");
                this.color_loc = c.uniform_location(program, "u_color");
                c.set_vertex_attrib_enabled(0, true);
            }
        }
        this
    }

    /// Applies `m` to the top of the transform stack: `v1` forwards the
    /// GL matrix call, `v2` re-uploads `u_mvp`.
    fn transform(&mut self, m: Mat4, v1: impl FnOnce(&mut GlesContext)) {
        let top = self.mvp.last_mut().expect("stack never empty");
        *top = top.mul(&m);
        self.sync_mvp(v1);
    }

    fn sync_mvp(&mut self, v1: impl FnOnce(&mut GlesContext)) {
        match self.version {
            GlesVersion::V1 => v1(&mut self.c),
            GlesVersion::V2 => {
                let m = *self.mvp.last().expect("stack never empty");
                self.c.uniform_matrix4(self.mvp_loc, m);
            }
        }
    }

    fn draw(&mut self, mode: Primitive, xyz: &[f32], [r, g, b, a]: [f32; 4]) -> u64 {
        match self.version {
            GlesVersion::V1 => {
                self.c.color4f(r, g, b, a);
                self.c.client_pointer(ClientState::VertexArray, 3, xyz);
            }
            GlesVersion::V2 => {
                self.c.uniform4f(self.color_loc, r, g, b, a);
                self.c.vertex_attrib_pointer(0, 3, xyz);
            }
        }
        self.c.draw_arrays(mode, 0, xyz.len() / 3)
    }

    fn tex_quad(&mut self, tex: u32, [x0, y0, x1, y1]: [f32; 4], indexed: bool) -> u64 {
        // The arrays `AppGl::draw_textured_quad[_indexed]` send.
        let (xyz, uv): (&[f32], &[f32]) = if indexed {
            (
                &[x0, y0, 0.0, x1, y0, 0.0, x1, y1, 0.0, x0, y1, 0.0],
                &[0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0],
            )
        } else {
            (
                &[x0, y0, 0.0, x1, y0, 0.0, x1, y1, 0.0, x0, y0, 0.0, x1, y1, 0.0, x0, y1, 0.0],
                &[0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0],
            )
        };
        let draw = |c: &mut GlesContext| {
            if indexed {
                c.draw_elements(Primitive::Triangles, &[0, 1, 2, 0, 2, 3])
            } else {
                c.draw_arrays(Primitive::Triangles, 0, 6)
            }
        };
        let color_loc = self.color_loc;
        let c = &mut self.c;
        c.bind_texture(tex);
        match self.version {
            GlesVersion::V1 => {
                c.enable(Capability::Texture2D);
                c.set_client_state(ClientState::TexCoordArray, true);
                c.client_pointer(ClientState::TexCoordArray, 2, uv);
                c.color4f(1.0, 1.0, 1.0, 1.0);
                c.client_pointer(ClientState::VertexArray, 3, xyz);
                let frags = draw(c);
                c.set_client_state(ClientState::TexCoordArray, false);
                c.disable(Capability::Texture2D);
                frags
            }
            GlesVersion::V2 => {
                c.uniform4f(color_loc, 1.0, 1.0, 1.0, 1.0);
                c.vertex_attrib_pointer(0, 3, xyz);
                c.set_vertex_attrib_enabled(2, true);
                c.vertex_attrib_pointer(2, 2, uv);
                draw(c)
            }
        }
    }
}

/// Interprets `stream` against bare per-session [`GlesContext`]s on a
/// private [`GpuDevice`] in reference-rasterizer mode, mirroring how
/// replay maps sessions and texture names. Returns the stream with every
/// `app:present` and `cyt:end` digest replaced by the reference
/// framebuffer's [`Image::pixel_hash`], and the fragments each executed
/// draw shaded, in stream order.
///
/// # Errors
///
/// Returns a description of the first call the reference cannot run: an
/// operation it does not model, or malformed arguments.
pub fn run_reference(stream: &Stream) -> Result<(Stream, Vec<u64>), String> {
    let device = Arc::new(GpuDevice::new(VirtualClock::new(), GpuCostModel::tegra3()));
    device.set_reference_raster(true);
    let size = (stream.meta.width, stream.meta.height);
    let header = gles_from_code(stream.meta.gles.into()).ok_or("bad header GLES version")?;
    let mut sessions = vec![(0, RefCtx::new(header, device.clone(), size))];
    let mut cur = 0;
    let mut out = stream.clone();
    let mut frags = Vec::new();
    for (index, call) in stream.calls.iter().enumerate() {
        let name = stream.name_of(call);
        let err = |detail: &str| format!("call {index} ({name}): {detail}");
        let a = |k: usize| call.args.get(k).copied().unwrap_or(0);
        let f = |k: usize| arg_f32(a(k));
        if name == MARK_SESSION {
            cur = match sessions.iter().position(|(id, _)| *id == a(0)) {
                Some(i) => i,
                None => {
                    let version = gles_from_code(a(1)).ok_or_else(|| err("bad GLES version"))?;
                    sessions.push((a(0), RefCtx::new(version, device.clone(), size)));
                    sessions.len() - 1
                }
            };
            continue;
        }
        let rc = &mut sessions[cur].1;
        match name {
            op::CLEAR => {
                rc.c.clear_color(f(0), f(1), f(2), f(3));
                rc.c.clear(true, true);
            }
            op::SCISSOR => rc.c.set_scissor(arg_i32(a(0)), arg_i32(a(1)), a(2) as u32, a(3) as u32),
            op::CAPABILITY => {
                let cap = Capability::from_code(a(0) as u8).ok_or_else(|| err("bad capability"))?;
                if a(1) != 0 {
                    rc.c.enable(cap);
                } else {
                    rc.c.disable(cap);
                }
            }
            op::PUSH => {
                let top = *rc.mvp.last().expect("stack never empty");
                rc.mvp.push(top);
                if rc.version == GlesVersion::V1 {
                    rc.c.push_matrix();
                }
            }
            op::POP => {
                if rc.mvp.len() > 1 {
                    rc.mvp.pop();
                }
                if rc.version == GlesVersion::V1 {
                    rc.c.pop_matrix();
                }
            }
            op::ROTATE => rc.transform(Mat4::rotate_z(f(0)), |c| c.rotate(f(0), 0.0, 0.0, 1.0)),
            op::TRANSLATE => {
                rc.transform(Mat4::translate(f(0), f(1), f(2)), |c| c.translate(f(0), f(1), f(2)));
            }
            op::SCALE => rc.transform(Mat4::scale(f(0), f(1), f(2)), |c| c.scale(f(0), f(1), f(2))),
            op::IDENTITY => {
                *rc.mvp.last_mut().expect("stack never empty") = Mat4::identity();
                rc.sync_mvp(GlesContext::load_identity);
            }
            op::DRAW => {
                let mode = Primitive::from_code(a(0) as u8).ok_or_else(|| err("bad primitive"))?;
                let xyz: Vec<f32> = call
                    .payload
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().expect("len 4")))
                    .collect();
                frags.push(rc.draw(mode, &xyz, [f(1), f(2), f(3), f(4)]));
            }
            op::CREATE_TEXTURE => {
                let format = TexFormat::from_code(a(2) as u8).ok_or_else(|| err("bad format"))?;
                let tex = rc.c.gen_textures(1)[0];
                rc.c.bind_texture(tex);
                rc.c.tex_image_2d(a(0) as u32, a(1) as u32, format, Some(&call.payload));
                rc.texmap.insert(a(3), tex);
            }
            op::UPDATE_TEXTURE => {
                if let Some(&tex) = rc.texmap.get(&a(0)) {
                    let format =
                        TexFormat::from_code(a(5) as u8).ok_or_else(|| err("bad format"))?;
                    let [x, y, w, h] = [1, 2, 3, 4].map(|k| a(k) as u32);
                    rc.c.bind_texture(tex);
                    rc.c.tex_sub_image_2d(x, y, w, h, format, &call.payload);
                }
            }
            op::TEX_QUAD | op::TEX_QUAD_INDEXED => {
                if let Some(&tex) = rc.texmap.get(&a(0)) {
                    let indexed = name == op::TEX_QUAD_INDEXED;
                    frags.push(rc.tex_quad(tex, [f(1), f(2), f(3), f(4)], indexed));
                }
            }
            op::PRESENT => out.calls[index].args = vec![rc.target.pixel_hash()],
            MARK_END => out.calls[index].args = vec![rc.target.pixel_hash(), a(1)],
            op::FLUSH | MARK_METER_BEGIN | MARK_METER_END => {}
            other => return Err(err(&format!("the reference does not model {other}"))),
        }
    }
    Ok((out, frags))
}

// ---------------------------------------------------------------------
// Differ
// ---------------------------------------------------------------------

/// Replays `stream` on a freshly booted Cycada device sized to its
/// header; returns the outcome and the device's scanout bytes.
fn replay_fresh(stream: &Stream, opts: &ReplayOptions) -> Result<(ReplayOutcome, Vec<u8>), String> {
    let device = CycadaDevice::boot_with_display(Some((stream.meta.width, stream.meta.height)))
        .map_err(|e| format!("boot: {e}"))?;
    let outcome = replay_on_device(&device, stream, opts).map_err(|e| e.to_string())?;
    let scanout = device.kernel().display().scanout().read(|b| b.to_vec());
    Ok((outcome, scanout))
}

fn check(stream: &Stream, fault: Option<Fault>) -> Result<(), String> {
    let (expected, ref_frags) =
        run_reference(stream).map_err(|e| format!("reference path failed: {e}"))?;
    let probe = ReplayOptions { check_timestamps: false, fault, rerecord: true, ..Default::default() };
    let (diplomat, scanout) =
        replay_fresh(&expected, &probe).map_err(|e| format!("diplomat path: {e}"))?;
    if diplomat.frags != ref_frags {
        return Err(format!(
            "fragment counts diverged: diplomat {:?} vs reference {ref_frags:?}",
            diplomat.frags
        ));
    }
    // Determinism of the metered plane: the re-recording carries this
    // run's digests and per-call and metered nanoseconds, and a second
    // replay must repeat all of them and scan out the same bytes.
    let rerecording = diplomat.rerecording.expect("rerecord requested");
    let (_, rerun_scanout) =
        replay_fresh(&rerecording, &ReplayOptions { fault, ..Default::default() })
            .map_err(|e| format!("full-contract rerun: {e}"))?;
    if rerun_scanout != scanout {
        return Err("the full-contract rerun produced a different scanout".into());
    }
    Ok(())
}

/// Runs `stream` through the reference and twice through the diplomat
/// path (module docs), injecting `fault` into both diplomat replays. A
/// panic anywhere counts as a failure, so panicking streams shrink too.
///
/// # Errors
///
/// Returns a human-readable description of the first divergence.
pub fn check_stream(stream: &Stream, fault: Option<Fault>) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| check(stream, fault))).unwrap_or_else(|panic| {
        let msg = (panic.downcast_ref::<&str>().copied())
            .or_else(|| panic.downcast_ref::<String>().map(String::as_str));
        Err(format!("panicked: {}", msg.unwrap_or("")))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycada_replay::shrink_calls;

    #[test]
    fn generator_is_deterministic() {
        assert_eq!(generate(7), generate(7));
        assert_ne!(generate(7), generate(8));
    }

    #[test]
    fn generated_scripts_start_with_clears_and_stay_in_bounds() {
        for seed in 0..20 {
            let stream = generate(seed);
            let mut session = 0;
            let mut first_op: HashMap<u64, &str> = HashMap::new();
            for call in &stream.calls {
                let name = stream.name_of(call);
                match name {
                    MARK_SESSION => session = call.args[0],
                    MARK_METER_BEGIN | MARK_METER_END | MARK_END => {}
                    _ => {
                        first_op.entry(session).or_insert(name);
                    }
                }
                if name == op::UPDATE_TEXTURE {
                    let [x, y, w, h] = [1, 2, 3, 4].map(|k| call.args[k] as u32);
                    assert!(x + w <= TEX_EDGE && y + h <= TEX_EDGE);
                }
            }
            assert!(!first_op.is_empty() && first_op.len() <= 2);
            for (session, name) in first_op {
                assert_eq!(name, op::CLEAR, "seed {seed}: session {session} does not start with a clear");
            }
        }
    }

    #[test]
    fn shrinker_reaches_a_one_minimal_script() {
        let stream = generate(42);
        // Synthetic failure: the stream contains at least one rotate and
        // at least one colored draw. The minimal stream has exactly one
        // of each.
        let has = |s: &Stream, name: &str| s.calls.iter().any(|c| s.name_of(c) == name);
        let fails = |s: &Stream| has(s, op::ROTATE) && has(s, op::DRAW);
        if !fails(&stream) {
            panic!("seed 42 no longer generates a rotate and a draw; pick a new seed");
        }
        let shrunk = shrink_calls(&stream, fails);
        assert!(fails(&shrunk));
        assert_eq!(shrunk.calls.len(), 2, "expected exactly one rotate + one draw");
        assert_eq!(shrunk.names.len(), 2, "string table not compacted");
    }
}
