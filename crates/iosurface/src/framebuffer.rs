//! The IOMobileFramebuffer kernel driver.
//!
//! On iOS, composited IOSurfaces reach the panel through "the
//! IOMobileFramebuffer kernel driver, again accessed as an I/O Kit driver
//! via opaque Mach IPC calls" (§2). This is the display path native-iOS
//! simulation runs use; on Cycada the equivalent job is done by
//! SurfaceFlinger behind `libEGLbridge`.

use std::fmt;
use std::sync::Arc;

use cycada_gpu::{raster::Rect, DrawClass, GpuDevice, Image, PixelFormat};
use cycada_kernel::{Display, IpcMessage, IpcReply, KernelError, KernelService};

use crate::service::CoreSurfaceService;

/// The I/O Kit service name.
pub const IOMOBILE_FRAMEBUFFER_SERVICE: &str = "IOMobileFramebuffer";

/// Mach IPC selector: flip a surface onto the display.
pub const SEL_SWAP_SURFACE: u32 = 0x2001;

/// The iOS display-flip driver: blits a given IOSurface onto the panel.
pub struct IoMobileFramebuffer {
    display: Display,
    gpu: Arc<GpuDevice>,
    surfaces: Arc<CoreSurfaceService>,
}

impl IoMobileFramebuffer {
    /// Creates the driver over the panel, GPU copy engine and surface
    /// table.
    pub fn new(display: Display, gpu: Arc<GpuDevice>, surfaces: Arc<CoreSurfaceService>) -> Arc<Self> {
        Arc::new(IoMobileFramebuffer {
            display,
            gpu,
            surfaces,
        })
    }

    /// Kernel-side flip: scales/converts the surface onto the scanout and
    /// latches a frame.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::ServiceFailure`] for unknown surfaces.
    pub fn swap_surface(&self, surface_id: u64) -> Result<(), KernelError> {
        let image = self
            .surfaces
            .image(surface_id)
            .map_err(|e| KernelError::ServiceFailure(e.to_string()))?;
        let scanout = Image::from_buffer(
            self.display.width(),
            self.display.height(),
            PixelFormat::Rgba8888,
            self.display.width() as usize * 4,
            self.display.scanout().clone(),
        );
        self.gpu.blit(
            &image,
            Rect::of_image(&image),
            &scanout,
            Rect::of_image(&scanout),
            DrawClass::TwoD,
        );
        self.gpu.charge_present();
        self.display.frame_presented();
        Ok(())
    }
}

impl KernelService for IoMobileFramebuffer {
    fn service_name(&self) -> &str {
        IOMOBILE_FRAMEBUFFER_SERVICE
    }

    fn handle(&self, msg: IpcMessage) -> Result<IpcReply, KernelError> {
        match msg.selector {
            SEL_SWAP_SURFACE => {
                self.swap_surface(msg.word(0)?)?;
                Ok(IpcReply::empty())
            }
            other => Err(KernelError::BadMessage(format!(
                "unknown IOMobileFramebuffer selector {other:#x}"
            ))),
        }
    }
}

impl fmt::Debug for IoMobileFramebuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IoMobileFramebuffer")
            .field("display", &self.display)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::SurfaceProps;
    use cycada_gpu::Rgba;
    use cycada_sim::GpuCostModel;

    fn setup() -> (Arc<IoMobileFramebuffer>, Arc<CoreSurfaceService>) {
        let gpu = Arc::new(GpuDevice::new(GpuCostModel::sgx543()));
        let surfaces = CoreSurfaceService::new();
        let fb = IoMobileFramebuffer::new(Display::new(16, 16), gpu, surfaces.clone());
        (fb, surfaces)
    }

    #[test]
    fn swap_flips_surface_to_panel() {
        let (fb, surfaces) = setup();
        let id = surfaces.create(SurfaceProps::bgra(16, 16), None).unwrap();
        surfaces.image(id).unwrap().fill(Rgba::RED);
        fb.swap_surface(id).unwrap();
        assert_eq!(fb.display.pixel(8, 8), [255, 0, 0, 255]);
        assert_eq!(fb.display.frames_presented(), 1);
    }

    #[test]
    fn swap_unknown_surface_fails() {
        let (fb, _surfaces) = setup();
        assert!(matches!(
            fb.swap_surface(99),
            Err(KernelError::ServiceFailure(_))
        ));
    }

    #[test]
    fn ipc_dispatch() {
        let (fb, surfaces) = setup();
        let id = surfaces.create(SurfaceProps::bgra(4, 4), None).unwrap();
        assert!(fb.handle(IpcMessage::new(SEL_SWAP_SURFACE, [id])).is_ok());
        assert!(fb.handle(IpcMessage::new(0xffff, [])).is_err());
    }
}
