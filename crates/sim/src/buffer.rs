//! Shared zero-copy byte buffers modelling graphics memory.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A reference-counted byte buffer shared between simulated libraries,
/// drivers and the GPU.
///
/// This models the *zero-copy* property the paper leans on: an iOS
/// `IOSurface` and the Android `GraphicBuffer` backing it are views of the
/// same memory, so pixels written through one API are visible through the
/// other without a copy. Cloning a `SharedBuffer` clones the handle, never
/// the bytes.
///
/// # Examples
///
/// ```
/// use cycada_sim::SharedBuffer;
///
/// let surface = SharedBuffer::zeroed(16);
/// let graphic_buffer = surface.clone(); // zero-copy alias
/// graphic_buffer.write(|bytes| bytes[0] = 0xff);
/// assert_eq!(surface.read(|bytes| bytes[0]), 0xff);
/// ```
#[derive(Clone)]
pub struct SharedBuffer {
    data: Arc<RwLock<Vec<u8>>>,
}

impl SharedBuffer {
    /// Allocates a buffer of `len` zero bytes.
    pub fn zeroed(len: usize) -> Self {
        Self::from_vec(vec![0; len])
    }

    /// Wraps an existing byte vector.
    pub fn from_vec(data: Vec<u8>) -> Self {
        SharedBuffer {
            data: Arc::new(RwLock::new(data)),
        }
    }

    /// Length of the buffer in bytes.
    pub fn len(&self) -> usize {
        self.data.read().len()
    }

    /// Returns `true` if the buffer has zero length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs `f` with shared read access to the bytes.
    pub fn read<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        f(&self.data.read())
    }

    /// Runs `f` with exclusive write access to the bytes.
    pub fn write<R>(&self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let mut g = self.write_guard();
        f(&mut g)
    }

    /// Acquires shared read access for the lifetime of the returned RAII
    /// guard — the whole-slice form of [`SharedBuffer::read`].
    ///
    /// This is the raster fast plane's entry point: a bulk operation (a
    /// clear, a draw, a blit) takes the lock **once** and then works on
    /// plain byte slices, instead of paying a lock round-trip per pixel.
    /// The lock is not reentrant: holding a guard and calling a closure
    /// API ([`SharedBuffer::read`]/[`SharedBuffer::write`]) on the *same*
    /// allocation from the same thread deadlocks, so guard holders must
    /// only touch other allocations (callers check with
    /// [`SharedBuffer::same_allocation`]).
    pub fn read_guard(&self) -> BufferReadGuard<'_> {
        BufferReadGuard(self.data.read())
    }

    /// Acquires exclusive write access for the lifetime of the returned
    /// RAII guard — the whole-slice form of [`SharedBuffer::write`].
    ///
    /// See [`SharedBuffer::read_guard`] for the locking discipline.
    pub fn write_guard(&self) -> BufferWriteGuard<'_> {
        BufferWriteGuard(self.data.write())
    }

    /// Non-blocking [`SharedBuffer::read_guard`]: `None` if a writer holds
    /// the lock right now.
    pub fn try_read_guard(&self) -> Option<BufferReadGuard<'_>> {
        self.data.try_read().map(BufferReadGuard)
    }

    /// Non-blocking [`SharedBuffer::write_guard`]: `None` if any reader or
    /// writer holds the lock right now. The trace plane's contention
    /// counters use a failed attempt as a point-in-time "this buffer is
    /// busy" observation.
    pub fn try_write_guard(&self) -> Option<BufferWriteGuard<'_>> {
        self.data.try_write().map(BufferWriteGuard)
    }

    /// Copies the whole buffer out. Intended for test assertions, not for
    /// the simulated fast path (which would defeat the zero-copy model).
    pub fn to_vec(&self) -> Vec<u8> {
        self.data.read().clone()
    }

    /// Overwrites every byte with `value`.
    pub fn fill(&self, value: u8) {
        self.write_guard().fill(value);
    }

    /// Returns `true` if `other` aliases the same allocation.
    pub fn same_allocation(&self, other: &SharedBuffer) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Number of live handles to this allocation (including `self`).
    pub fn handle_count(&self) -> usize {
        Arc::strong_count(&self.data)
    }
}

/// RAII shared-read guard over a [`SharedBuffer`]'s bytes.
///
/// Dereferences to `&[u8]`. Obtained with [`SharedBuffer::read_guard`].
pub struct BufferReadGuard<'a>(RwLockReadGuard<'a, Vec<u8>>);

impl Deref for BufferReadGuard<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Debug for BufferReadGuard<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BufferReadGuard")
            .field("len", &self.0.len())
            .finish()
    }
}

/// RAII exclusive-write guard over a [`SharedBuffer`]'s bytes.
///
/// Dereferences to `&mut [u8]`. Obtained with
/// [`SharedBuffer::write_guard`].
pub struct BufferWriteGuard<'a>(RwLockWriteGuard<'a, Vec<u8>>);

impl Deref for BufferWriteGuard<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl DerefMut for BufferWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.0
    }
}

impl fmt::Debug for BufferWriteGuard<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BufferWriteGuard")
            .field("len", &self.0.len())
            .finish()
    }
}

impl fmt::Debug for SharedBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedBuffer")
            .field("len", &self.len())
            .field("handles", &self.handle_count())
            .finish()
    }
}

impl PartialEq for SharedBuffer {
    fn eq(&self, other: &Self) -> bool {
        self.same_allocation(other)
    }
}

impl Eq for SharedBuffer {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_alias_storage() {
        let a = SharedBuffer::zeroed(4);
        let b = a.clone();
        assert!(a.same_allocation(&b));
        assert_eq!(a, b);
        b.write(|bytes| bytes[2] = 9);
        assert_eq!(a.to_vec(), vec![0, 0, 9, 0]);
    }

    #[test]
    fn distinct_buffers_do_not_alias() {
        let a = SharedBuffer::zeroed(4);
        let b = SharedBuffer::zeroed(4);
        assert!(!a.same_allocation(&b));
        assert_ne!(a, b);
    }

    #[test]
    fn fill_and_len() {
        let a = SharedBuffer::zeroed(3);
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        a.fill(7);
        assert_eq!(a.to_vec(), vec![7, 7, 7]);
        assert!(SharedBuffer::zeroed(0).is_empty());
    }

    #[test]
    fn guards_expose_whole_slices() {
        let a = SharedBuffer::from_vec(vec![1, 2, 3, 4]);
        {
            let mut w = a.write_guard();
            w[2] = 9;
            w.copy_within(0..1, 3);
        }
        let r = a.read_guard();
        assert_eq!(&*r, &[1, 2, 9, 1]);
        // A second reader may coexist with the first.
        let r2 = a.read_guard();
        assert_eq!(r2.len(), 4);
    }

    #[test]
    fn guard_matches_closure_view() {
        let a = SharedBuffer::zeroed(8);
        a.write(|b| b[5] = 42);
        assert_eq!(a.read_guard()[5], a.read(|b| b[5]));
    }

    #[test]
    fn handle_count_tracks_clones() {
        let a = SharedBuffer::zeroed(1);
        assert_eq!(a.handle_count(), 1);
        let b = a.clone();
        assert_eq!(a.handle_count(), 2);
        drop(b);
        assert_eq!(a.handle_count(), 1);
    }
}
