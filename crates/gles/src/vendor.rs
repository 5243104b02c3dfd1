//! The vendor GLES libraries.
//!
//! Each platform ships a proprietary, closed-source GLES implementation:
//! Apple's on iOS and (on the paper's Nexus 7) NVIDIA's
//! `libGLESv2_tegra.so`. A [`VendorGles`] value is the *library-instance
//! state* of one such library: its context table, its per-thread
//! current-context binding, and its flavor-specific behaviours (extension
//! set, BGRA acceptance, `glGetString` parameters, fence API naming).
//!
//! Instances are created by library constructors registered with the
//! simulated linker, so `dlforce` (DLR) naturally produces fresh, isolated
//! `VendorGles` values — which is precisely what `EGL_multi_context`
//! exploits (§8).

use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use cycada_gpu::{DrawClass, GpuDevice, Image};
use cycada_kernel::SimTid;
use cycada_sim::slots::SlotTable;
use cycada_sim::{clock, Nanos};

use crate::registry::{ApiFlavor, GlesRegistry, GlesVersion};
use crate::state::GlesContext;
use crate::types::StringName;

/// Base CPU cost of any GL entry point (argument validation, dispatch).
const GL_CALL_BASE_NS: Nanos = 500;
/// Driver cost of freeing one texture's GPU memory (Figure 9 shows
/// `glDeleteTextures` averaging hundreds of microseconds on the Tegra).
const DELETE_TEXTURE_NS: Nanos = 280_000;
/// Driver cost of `glFlush` (queue submission).
const FLUSH_NS: Nanos = 500_000;
/// Driver cost of `glFinish` (submission + wait for idle).
const FINISH_NS: Nanos = 800_000;
/// Driver cost of rebinding a framebuffer (render-target validation).
const BIND_FRAMEBUFFER_NS: Nanos = 40_000;
/// Driver cost of binding a texture (residency check).
const BIND_TEXTURE_NS: Nanos = 5_500;
/// Driver cost of making a context current (TLB/command-queue switch).
const MAKE_CURRENT_NS: Nanos = 95_000;

/// Identifier of a GLES context within one vendor library instance.
pub type ContextId = u32;

/// One loaded instance of a vendor GLES library.
///
/// The context registry and the per-thread current binding are dense
/// [`SlotTable`]s (keyed by context id and simulated tid respectively), so
/// concurrent sessions dispatching GL calls never serialize on a shared
/// map lock: each thread's binding lives in its own slot, and the binding
/// carries the context handle so dispatch is a single slot read.
pub struct VendorGles {
    flavor: ApiFlavor,
    device: Arc<GpuDevice>,
    contexts: SlotTable<Arc<Mutex<GlesContext>>>,
    current: SlotTable<(ContextId, Arc<Mutex<GlesContext>>)>,
    next_context: AtomicU32,
    calls_without_context: AtomicU64,
}

impl VendorGles {
    /// Creates a library instance of the given flavor over a GPU device.
    pub fn new(flavor: ApiFlavor, device: Arc<GpuDevice>) -> Self {
        VendorGles {
            flavor,
            device,
            contexts: SlotTable::new(),
            current: SlotTable::new(),
            next_context: AtomicU32::new(1),
            calls_without_context: AtomicU64::new(0),
        }
    }

    /// The library's flavor.
    pub fn flavor(&self) -> ApiFlavor {
        self.flavor
    }

    /// The GPU device this library drives.
    pub fn device(&self) -> &Arc<GpuDevice> {
        &self.device
    }

    /// Number of GL calls made by threads with no current context (a
    /// diagnostic for misuse; real drivers crash or silently no-op).
    pub fn calls_without_context(&self) -> u64 {
        self.calls_without_context.load(Ordering::Relaxed)
    }

    // ------------------------------------------------------------------
    // Context management (driven by EGL / EAGL)
    // ------------------------------------------------------------------

    /// Creates a context speaking the given GLES version.
    pub fn create_context(&self, version: GlesVersion) -> ContextId {
        let id = self.next_context.fetch_add(1, Ordering::Relaxed);
        let ctx = GlesContext::new(version, self.flavor, self.device.clone());
        self.contexts.set(u64::from(id), Some(Arc::new(Mutex::new(ctx))));
        id
    }

    /// Destroys a context. Returns `true` if it existed.
    pub fn destroy_context(&self, id: ContextId) -> bool {
        self.current.retain(|(bound, _)| *bound != id);
        self.contexts.set(u64::from(id), None).is_some()
    }

    /// Looks up a context object.
    pub fn context(&self, id: ContextId) -> Option<Arc<Mutex<GlesContext>>> {
        self.contexts.get(u64::from(id))
    }

    /// The GLES version of a context.
    pub fn context_version(&self, id: ContextId) -> Option<GlesVersion> {
        self.context(id).map(|c| c.lock().version())
    }

    /// Makes `ctx` current on `tid` (pass `None` to unbind), attaching the
    /// window surface `default_fb` as the default framebuffer.
    ///
    /// Returns `false` if the context does not exist.
    pub fn make_current(
        &self,
        tid: SimTid,
        ctx: Option<ContextId>,
        default_fb: Option<Image>,
    ) -> bool {
        clock::charge_ns(MAKE_CURRENT_NS);
        match ctx {
            None => {
                self.current.set(tid.as_u64(), None);
                true
            }
            Some(id) => {
                let Some(handle) = self.context(id) else {
                    return false;
                };
                handle.lock().set_default_framebuffer(default_fb);
                self.current.set(tid.as_u64(), Some((id, handle)));
                true
            }
        }
    }

    /// The context current on `tid`, if any.
    pub fn current_context_id(&self, tid: SimTid) -> Option<ContextId> {
        self.current.get(tid.as_u64()).map(|(id, _)| id)
    }

    /// Runs `f` against the context current on `tid`. This is how every GL
    /// entry point dispatches — the "current context in TLS" model.
    ///
    /// Calls with no current context are silent no-ops (returning the
    /// default), matching undefined-but-not-crashing driver behaviour; the
    /// miss is counted in [`VendorGles::calls_without_context`].
    pub fn with_current<R: Default>(
        &self,
        tid: SimTid,
        f: impl FnOnce(&mut GlesContext) -> R,
    ) -> R {
        clock::charge_ns(GL_CALL_BASE_NS);
        // One dense-slot read resolves both the binding and the context
        // handle; no shared map lock on the dispatch path.
        match self.current.get(tid.as_u64()) {
            Some((_, ctx)) => f(&mut ctx.lock()),
            None => {
                self.calls_without_context.fetch_add(1, Ordering::Relaxed);
                R::default()
            }
        }
    }

    // ------------------------------------------------------------------
    // Entry points with flavor- or driver-specific behaviour
    // ------------------------------------------------------------------

    /// `glGetString`. The Apple flavor accepts the non-standard
    /// [`StringName::AppleExtensions`] parameter; on Android it is an
    /// unknown enum (the bridge's data-dependent `glGetString` diplomat
    /// intercepts it, §4.1).
    pub fn get_string(&self, tid: SimTid, name: StringName) -> Option<String> {
        let flavor = self.flavor;
        self.with_current(tid, |ctx| match (name, flavor) {
            (StringName::Vendor, ApiFlavor::Ios) => Some("Apple Inc.".to_owned()),
            (StringName::Vendor, ApiFlavor::Android) => Some("NVIDIA Corporation".to_owned()),
            (StringName::Renderer, ApiFlavor::Ios) => {
                Some("Apple A5X (simulated)".to_owned())
            }
            (StringName::Renderer, ApiFlavor::Android) => {
                Some("NVIDIA Tegra 3 (simulated)".to_owned())
            }
            (StringName::Version, _) => Some(
                match ctx.version() {
                    GlesVersion::V1 => "OpenGL ES-CM 1.1",
                    GlesVersion::V2 => "OpenGL ES 2.0",
                }
                .to_owned(),
            ),
            (StringName::Extensions, _) => {
                Some(GlesRegistry::global().extension_string(match flavor {
                    ApiFlavor::Ios => ApiFlavor::Ios,
                    ApiFlavor::Android => ApiFlavor::Android,
                }))
            }
            (StringName::AppleExtensions, ApiFlavor::Ios) => {
                // Apple's proprietary extension query.
                Some("GL_APPLE_io_surface GL_APPLE_row_bytes".to_owned())
            }
            (StringName::AppleExtensions, ApiFlavor::Android) => {
                ctx.record_error(crate::types::GlError::InvalidEnum);
                None
            }
        })
    }

    /// `glFlush` — expensive driver queue submission.
    pub fn flush(&self, tid: SimTid) {
        clock::charge_ns(FLUSH_NS);
        self.with_current(tid, |_| {});
        self.device.flush();
    }

    /// `glFinish` — submission plus wait-for-idle.
    pub fn finish(&self, tid: SimTid) {
        clock::charge_ns(FINISH_NS);
        self.with_current(tid, |_| {});
        self.device.flush();
    }

    /// `glBindFramebuffer` — carries a large render-target validation cost
    /// on the Tegra driver (Figure 9).
    pub fn bind_framebuffer(&self, tid: SimTid, name: u32) {
        clock::charge_ns(BIND_FRAMEBUFFER_NS);
        self.with_current(tid, |ctx| ctx.bind_framebuffer(name));
    }

    /// `glBindTexture` — residency check cost.
    pub fn bind_texture(&self, tid: SimTid, name: u32) {
        clock::charge_ns(BIND_TEXTURE_NS);
        self.with_current(tid, |ctx| ctx.bind_texture(name));
    }

    /// `glDeleteTextures` — cost scales with textures actually freed.
    pub fn delete_textures(&self, tid: SimTid, names: &[u32]) {
        let freed = self.with_current(tid, |ctx| ctx.delete_textures(names));
        clock::charge_ns(DELETE_TEXTURE_NS * freed as u64);
    }

    // ------------------------------------------------------------------
    // Fence extensions: APPLE_fence on iOS, NV_fence on Android
    // ------------------------------------------------------------------

    fn assert_symbol(&self, required: ApiFlavor, symbol: &str) {
        assert_eq!(
            self.flavor, required,
            "unresolved symbol {symbol:?}: not exported by this vendor library"
        );
    }

    /// `glGenFencesAPPLE` (iOS library only).
    ///
    /// # Panics
    ///
    /// Panics if called on the Android library (unresolved symbol).
    pub fn gen_fences_apple(&self, tid: SimTid, count: usize) -> Vec<u32> {
        self.assert_symbol(ApiFlavor::Ios, "glGenFencesAPPLE");
        self.with_current(tid, |ctx| ctx.gen_fences(count))
    }

    /// `glSetFenceAPPLE` (iOS library only).
    ///
    /// # Panics
    ///
    /// Panics if called on the Android library.
    pub fn set_fence_apple(&self, tid: SimTid, fence: u32) {
        self.assert_symbol(ApiFlavor::Ios, "glSetFenceAPPLE");
        self.with_current(tid, |ctx| ctx.set_fence(fence));
    }

    /// `glTestFenceAPPLE` (iOS library only).
    ///
    /// # Panics
    ///
    /// Panics if called on the Android library.
    pub fn test_fence_apple(&self, tid: SimTid, fence: u32) -> bool {
        self.assert_symbol(ApiFlavor::Ios, "glTestFenceAPPLE");
        self.with_current(tid, |ctx| ctx.test_fence(fence))
    }

    /// `glFinishFenceAPPLE` (iOS library only).
    ///
    /// # Panics
    ///
    /// Panics if called on the Android library.
    pub fn finish_fence_apple(&self, tid: SimTid, fence: u32) {
        self.assert_symbol(ApiFlavor::Ios, "glFinishFenceAPPLE");
        self.with_current(tid, |ctx| ctx.finish_fence(fence));
    }

    /// `glDeleteFencesAPPLE` (iOS library only).
    ///
    /// # Panics
    ///
    /// Panics if called on the Android library.
    pub fn delete_fences_apple(&self, tid: SimTid, fences: &[u32]) {
        self.assert_symbol(ApiFlavor::Ios, "glDeleteFencesAPPLE");
        self.with_current(tid, |ctx| ctx.delete_fences(fences));
    }

    /// `glGenFencesNV` (Android/Tegra library only).
    ///
    /// # Panics
    ///
    /// Panics if called on the iOS library.
    pub fn gen_fences_nv(&self, tid: SimTid, count: usize) -> Vec<u32> {
        self.assert_symbol(ApiFlavor::Android, "glGenFencesNV");
        self.with_current(tid, |ctx| ctx.gen_fences(count))
    }

    /// `glSetFenceNV` (Android/Tegra library only).
    ///
    /// # Panics
    ///
    /// Panics if called on the iOS library.
    pub fn set_fence_nv(&self, tid: SimTid, fence: u32) {
        self.assert_symbol(ApiFlavor::Android, "glSetFenceNV");
        self.with_current(tid, |ctx| ctx.set_fence(fence));
    }

    /// `glTestFenceNV` (Android/Tegra library only).
    ///
    /// # Panics
    ///
    /// Panics if called on the iOS library.
    pub fn test_fence_nv(&self, tid: SimTid, fence: u32) -> bool {
        self.assert_symbol(ApiFlavor::Android, "glTestFenceNV");
        self.with_current(tid, |ctx| ctx.test_fence(fence))
    }

    /// `glFinishFenceNV` (Android/Tegra library only).
    ///
    /// # Panics
    ///
    /// Panics if called on the iOS library.
    pub fn finish_fence_nv(&self, tid: SimTid, fence: u32) {
        self.assert_symbol(ApiFlavor::Android, "glFinishFenceNV");
        self.with_current(tid, |ctx| ctx.finish_fence(fence));
    }

    /// `glDeleteFencesNV` (Android/Tegra library only).
    ///
    /// # Panics
    ///
    /// Panics if called on the iOS library.
    pub fn delete_fences_nv(&self, tid: SimTid, fences: &[u32]) {
        self.assert_symbol(ApiFlavor::Android, "glDeleteFencesNV");
        self.with_current(tid, |ctx| ctx.delete_fences(fences));
    }

    /// Sets the 2D/3D cost class of the current context's subsequent work.
    pub fn set_draw_class(&self, tid: SimTid, class: DrawClass) {
        self.with_current(tid, |ctx| ctx.set_draw_class(class));
    }
}

impl fmt::Debug for VendorGles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VendorGles")
            .field("flavor", &self.flavor)
            .field("contexts", &self.contexts.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycada_sim::GpuCostModel;

    fn tid(n: u64) -> SimTid {
        // Tests fabricate tids through the kernel normally; here we use the
        // kernel-free constructor path via transmute-free helper.
        use cycada_kernel::{Kernel, Persona};
        use cycada_sim::Platform;
        // A throwaway kernel purely to mint valid-looking tids.
        let k = Kernel::for_platform(Platform::CycadaIos);
        let mut last = k.spawn_process_main(Persona::Android).unwrap();
        for _ in 1..n {
            last = k.spawn_thread(last, Persona::Android).unwrap();
        }
        last
    }

    fn lib(flavor: ApiFlavor) -> VendorGles {
        let device = Arc::new(GpuDevice::new(GpuCostModel::tegra3()));
        VendorGles::new(flavor, device)
    }

    #[test]
    fn context_lifecycle_and_current_binding() {
        let gles = lib(ApiFlavor::Android);
        let t = tid(1);
        let ctx = gles.create_context(GlesVersion::V2);
        assert_eq!(gles.context_version(ctx), Some(GlesVersion::V2));
        assert!(gles.make_current(t, Some(ctx), None));
        assert_eq!(gles.current_context_id(t), Some(ctx));
        assert!(gles.make_current(t, None, None));
        assert_eq!(gles.current_context_id(t), None);
        assert!(gles.destroy_context(ctx));
        assert!(!gles.destroy_context(ctx));
        assert!(!gles.make_current(t, Some(ctx), None));
    }

    #[test]
    fn destroying_context_unbinds_it() {
        let gles = lib(ApiFlavor::Android);
        let t = tid(1);
        let ctx = gles.create_context(GlesVersion::V1);
        gles.make_current(t, Some(ctx), None);
        gles.destroy_context(ctx);
        assert_eq!(gles.current_context_id(t), None);
    }

    #[test]
    fn calls_without_context_are_counted_noops() {
        let gles = lib(ApiFlavor::Android);
        let t = tid(1);
        gles.bind_texture(t, 1);
        assert_eq!(gles.calls_without_context(), 1);
    }

    #[test]
    fn get_string_flavors() {
        let android = lib(ApiFlavor::Android);
        let t = tid(1);
        let ctx = android.create_context(GlesVersion::V2);
        android.make_current(t, Some(ctx), None);
        assert!(android
            .get_string(t, StringName::Vendor)
            .unwrap()
            .contains("NVIDIA"));
        let exts = android.get_string(t, StringName::Extensions).unwrap();
        assert!(exts.contains("GL_NV_fence"));
        // The Apple-proprietary parameter is an unknown enum on Android.
        assert_eq!(android.get_string(t, StringName::AppleExtensions), None);

        let ios = lib(ApiFlavor::Ios);
        let ctx = ios.create_context(GlesVersion::V2);
        ios.make_current(t, Some(ctx), None);
        assert!(ios
            .get_string(t, StringName::AppleExtensions)
            .unwrap()
            .contains("GL_APPLE_io_surface"));
        assert!(ios
            .get_string(t, StringName::Extensions)
            .unwrap()
            .contains("GL_APPLE_fence"));
    }

    #[test]
    fn nv_fence_works_on_android_library() {
        let gles = lib(ApiFlavor::Android);
        let t = tid(1);
        let ctx = gles.create_context(GlesVersion::V1);
        gles.make_current(t, Some(ctx), None);
        let f = gles.gen_fences_nv(t, 1)[0];
        // Submit some GPU work for the fence to guard.
        gles.with_current(t, |c| {
            let tex = c.gen_textures(1)[0];
            c.bind_texture(tex);
            c.tex_image_2d(4, 4, crate::types::TexFormat::Rgba, None);
        });
        gles.set_fence_nv(t, f);
        assert!(!gles.test_fence_nv(t, f));
        gles.finish_fence_nv(t, f);
        assert!(gles.test_fence_nv(t, f));
        gles.delete_fences_nv(t, &[f]);
    }

    #[test]
    #[should_panic(expected = "unresolved symbol")]
    fn apple_fence_missing_on_android_library() {
        let gles = lib(ApiFlavor::Android);
        gles.gen_fences_apple(tid(1), 1);
    }

    #[test]
    #[should_panic(expected = "unresolved symbol")]
    fn nv_fence_missing_on_ios_library() {
        let gles = lib(ApiFlavor::Ios);
        gles.gen_fences_nv(tid(1), 1);
    }

    #[test]
    fn per_thread_current_contexts_are_independent() {
        let gles = lib(ApiFlavor::Android);
        let t1 = tid(1);
        let t2 = tid(2);
        let c1 = gles.create_context(GlesVersion::V1);
        let c2 = gles.create_context(GlesVersion::V2);
        gles.make_current(t1, Some(c1), None);
        gles.make_current(t2, Some(c2), None);
        assert_eq!(gles.current_context_id(t1), Some(c1));
        assert_eq!(gles.current_context_id(t2), Some(c2));
    }

    #[test]
    fn delete_textures_charges_per_freed_texture() {
        let gles = lib(ApiFlavor::Android);
        let t = tid(1);
        let ctx = gles.create_context(GlesVersion::V2);
        gles.make_current(t, Some(ctx), None);
        let names = gles.with_current(t, |c| c.gen_textures(2));
        let before = clock::now_ns();
        gles.delete_textures(t, &names);
        let cost = clock::now_ns() - before;
        assert!(cost >= 2 * DELETE_TEXTURE_NS, "cost {cost}");
    }
}
