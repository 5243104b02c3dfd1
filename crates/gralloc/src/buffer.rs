//! GraphicBuffer objects and GLES association guards.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

use cycada_gpu::{Image, PixelFormat};
use cycada_sim::trace;

use crate::error::GrallocError;
use crate::Result;

#[derive(Debug)]
struct BufferState {
    handle: u64,
    gles_associations: AtomicU32,
    cpu_locked: AtomicBool,
}

/// An Android GraphicBuffer: shared, zero-copy graphics memory.
///
/// Cloning shares the underlying allocation (the handle-passing model of
/// the real API). The buffer enforces the Android restriction the paper's
/// IOSurfaceLock multi diplomat must defeat: [`GraphicBuffer::lock_cpu`]
/// fails while any [`GlesAssociation`] guard is alive.
///
/// # Composition
///
/// Every pixel write lands through the wrapped [`Image`]. The
/// compositor copies a posted buffer's whole image at each present
/// (DESIGN.md §5g), so there is no "mark dirty" API: GPU writes and
/// CPU writes through [`GraphicBuffer::lock_cpu`] reach the panel the
/// same way.
///
/// # Examples
///
/// ```
/// use cycada_gralloc::GraphicBuffer;
/// use cycada_gpu::PixelFormat;
///
/// let buf = GraphicBuffer::new(1, 8, 8, PixelFormat::Rgba8888)?;
/// let assoc = buf.associate_gles();           // bound to a GLES texture
/// assert!(buf.lock_cpu().is_err());           // the Android limitation
/// drop(assoc);                                // disassociate...
/// buf.lock_cpu()?;                            // ...now the CPU may draw
/// buf.unlock_cpu()?;
/// # Ok::<(), cycada_gralloc::GrallocError>(())
/// ```
#[derive(Clone)]
pub struct GraphicBuffer {
    image: Image,
    state: Arc<BufferState>,
}

impl GraphicBuffer {
    /// Allocates a buffer. Usually done through
    /// [`crate::GraphicBufferAllocator`]; direct construction is for tests
    /// and the iOS-side bridge.
    ///
    /// # Errors
    ///
    /// Returns [`GrallocError::BadGeometry`] for zero dimensions.
    pub fn new(handle: u64, width: u32, height: u32, format: PixelFormat) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(GrallocError::BadGeometry { width, height });
        }
        Ok(GraphicBuffer {
            image: Image::new(width, height, format),
            state: Arc::new(BufferState {
                handle,
                gles_associations: AtomicU32::new(0),
                cpu_locked: AtomicBool::new(false),
            }),
        })
    }

    /// The buffer's driver handle.
    pub fn handle(&self) -> u64 {
        self.state.handle
    }

    /// Buffer width in pixels.
    pub fn width(&self) -> u32 {
        self.image.width()
    }

    /// Buffer height in pixels.
    pub fn height(&self) -> u32 {
        self.image.height()
    }

    /// The pixel format.
    pub fn format(&self) -> PixelFormat {
        self.image.format()
    }

    /// The pixel storage as a GPU image (zero-copy view).
    pub fn image(&self) -> &Image {
        &self.image
    }

    /// Number of live GLES texture associations.
    pub fn gles_association_count(&self) -> u32 {
        self.state.gles_associations.load(Ordering::Acquire)
    }

    /// Whether the buffer is currently CPU-locked.
    pub fn is_cpu_locked(&self) -> bool {
        self.state.cpu_locked.load(Ordering::Acquire)
    }

    /// Associates the buffer with a GLES texture (what creating an EGLImage
    /// from the buffer and binding it does). The association lasts until
    /// the returned guard (and all its clones) drop.
    pub fn associate_gles(&self) -> GlesAssociation {
        self.state.gles_associations.fetch_add(1, Ordering::AcqRel);
        GlesAssociation {
            state: self.state.clone(),
        }
    }

    /// Locks the buffer for CPU-only access.
    ///
    /// # Errors
    ///
    /// Returns [`GrallocError::AssociatedWithTexture`] if any GLES
    /// association is alive (the §6.2 Android limitation), or
    /// [`GrallocError::AlreadyLocked`] on double lock.
    pub fn lock_cpu(&self) -> Result<()> {
        let associations = self.gles_association_count();
        if associations > 0 {
            return Err(GrallocError::AssociatedWithTexture {
                handle: self.state.handle,
                associations,
            });
        }
        if self.state.cpu_locked.swap(true, Ordering::AcqRel) {
            return Err(GrallocError::AlreadyLocked(self.state.handle));
        }
        // Trace-plane probe: the CPU just claimed the buffer while another
        // thread holds its pixel guard (a GPU pass or a concurrent reader)
        // — the wait the caller's first pixel access is about to pay.
        if self.image.buffer().try_write_guard().is_none() {
            trace::bump(trace::Counter::GrallocLockWaits);
        }
        Ok(())
    }

    /// Unlocks a previously CPU-locked buffer.
    ///
    /// # Errors
    ///
    /// Returns [`GrallocError::NotLocked`] if the buffer was not locked.
    pub fn unlock_cpu(&self) -> Result<()> {
        if !self.state.cpu_locked.swap(false, Ordering::AcqRel) {
            return Err(GrallocError::NotLocked(self.state.handle));
        }
        Ok(())
    }

    /// Whether two handles alias the same allocation.
    pub fn same_buffer(&self, other: &GraphicBuffer) -> bool {
        Arc::ptr_eq(&self.state, &other.state)
    }
}

impl fmt::Debug for GraphicBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GraphicBuffer")
            .field("handle", &self.state.handle)
            .field("size", &(self.width(), self.height()))
            .field("format", &self.format())
            .field("gles_associations", &self.gles_association_count())
            .field("cpu_locked", &self.is_cpu_locked())
            .finish()
    }
}

/// RAII guard representing one GLES texture association of a
/// [`GraphicBuffer`]. Dropping the last clone disassociates the buffer,
/// allowing CPU locks again.
///
/// The guard is deliberately `Any`-compatible so it can ride inside
/// `cycada_gles::EglImageSource::guard` without a crate dependency cycle.
pub struct GlesAssociation {
    state: Arc<BufferState>,
}

impl Drop for GlesAssociation {
    fn drop(&mut self) {
        self.state.gles_associations.fetch_sub(1, Ordering::AcqRel);
    }
}

impl fmt::Debug for GlesAssociation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GlesAssociation")
            .field("buffer", &self.state.handle)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf() -> GraphicBuffer {
        GraphicBuffer::new(1, 4, 4, PixelFormat::Rgba8888).unwrap()
    }

    #[test]
    fn zero_geometry_rejected() {
        assert!(matches!(
            GraphicBuffer::new(1, 0, 4, PixelFormat::Rgba8888),
            Err(GrallocError::BadGeometry { .. })
        ));
    }

    #[test]
    fn lock_unlock_cycle() {
        let b = buf();
        assert!(!b.is_cpu_locked());
        b.lock_cpu().unwrap();
        assert!(b.is_cpu_locked());
        assert_eq!(b.lock_cpu(), Err(GrallocError::AlreadyLocked(1)));
        b.unlock_cpu().unwrap();
        assert_eq!(b.unlock_cpu(), Err(GrallocError::NotLocked(1)));
    }

    #[test]
    fn association_blocks_cpu_lock() {
        let b = buf();
        let a1 = b.associate_gles();
        let a2 = b.associate_gles();
        assert_eq!(b.gles_association_count(), 2);
        assert!(matches!(
            b.lock_cpu(),
            Err(GrallocError::AssociatedWithTexture { associations: 2, .. })
        ));
        drop(a1);
        assert!(b.lock_cpu().is_err(), "one association still alive");
        drop(a2);
        b.lock_cpu().unwrap();
    }

    #[test]
    fn clones_share_state_and_pixels() {
        let a = buf();
        let b = a.clone();
        assert!(a.same_buffer(&b));
        let assoc = b.associate_gles();
        assert!(a.lock_cpu().is_err());
        drop(assoc);
        a.image().set_pixel(0, 0, cycada_gpu::Rgba::RED);
        assert_eq!(b.image().pixel_rgba(0, 0).to_bytes(), [255, 0, 0, 255]);
    }

    #[test]
    fn guard_is_any_compatible() {
        use std::any::Any;
        let b = buf();
        let guard: Arc<dyn Any + Send + Sync> = Arc::new(b.associate_gles());
        assert_eq!(b.gles_association_count(), 1);
        drop(guard);
        assert_eq!(b.gles_association_count(), 0);
    }
}
