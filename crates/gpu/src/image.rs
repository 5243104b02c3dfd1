//! Row-padded image storage over shared zero-copy buffers.

use std::fmt;

use cycada_sim::SharedBuffer;

use crate::format::{PixelFormat, Rgba};
use crate::raster::Rect;

/// A 2D pixel surface: textures, renderbuffers, IOSurface/GraphicBuffer
/// pixel stores and the display scanout are all `Image`s.
///
/// Storage is a [`SharedBuffer`], so an `Image` can alias memory owned by a
/// simulated IOSurface or GraphicBuffer (the zero-copy property). Rows may
/// be padded: `row_bytes >= width * bytes_per_pixel`, which is exactly the
/// state the `APPLE_row_bytes` extension manipulates.
#[derive(Clone)]
pub struct Image {
    width: u32,
    height: u32,
    format: PixelFormat,
    row_bytes: usize,
    buffer: SharedBuffer,
}

impl Image {
    /// Allocates a tightly packed image.
    pub fn new(width: u32, height: u32, format: PixelFormat) -> Self {
        let row_bytes = width as usize * format.bytes_per_pixel();
        Self::with_row_bytes(width, height, format, row_bytes)
    }

    /// Allocates an image with explicit row padding.
    ///
    /// # Panics
    ///
    /// Panics if `row_bytes` is smaller than one tightly packed row.
    pub fn with_row_bytes(width: u32, height: u32, format: PixelFormat, row_bytes: usize) -> Self {
        assert!(
            row_bytes >= width as usize * format.bytes_per_pixel(),
            "row_bytes too small for width"
        );
        let buffer = SharedBuffer::zeroed(row_bytes * height as usize);
        Image {
            width,
            height,
            format,
            row_bytes,
            buffer,
        }
    }

    /// Wraps existing shared memory (e.g. an IOSurface's backing store).
    ///
    /// # Panics
    ///
    /// Panics if the buffer is too small for the described geometry.
    pub fn from_buffer(
        width: u32,
        height: u32,
        format: PixelFormat,
        row_bytes: usize,
        buffer: SharedBuffer,
    ) -> Self {
        assert!(
            row_bytes >= width as usize * format.bytes_per_pixel(),
            "row_bytes too small for width"
        );
        assert!(
            buffer.len() >= row_bytes * height as usize,
            "buffer too small for image geometry"
        );
        Image {
            width,
            height,
            format,
            row_bytes,
            buffer,
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The pixel format.
    pub fn format(&self) -> PixelFormat {
        self.format
    }

    /// Bytes per row, including padding.
    pub fn row_bytes(&self) -> usize {
        self.row_bytes
    }

    /// Total pixels.
    pub fn pixel_count(&self) -> u64 {
        u64::from(self.width) * u64::from(self.height)
    }

    /// The backing shared memory.
    pub fn buffer(&self) -> &SharedBuffer {
        &self.buffer
    }

    /// Whether this image aliases the same memory as `other`.
    pub fn aliases(&self, other: &Image) -> bool {
        self.buffer.same_allocation(&other.buffer)
    }

    fn offset(&self, x: u32, y: u32) -> usize {
        debug_assert!(x < self.width && y < self.height);
        y as usize * self.row_bytes + x as usize * self.format.bytes_per_pixel()
    }

    /// Reads one pixel as raw format bytes.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn pixel(&self, x: u32, y: u32) -> [u8; 4] {
        assert!(x < self.width && y < self.height, "pixel out of range");
        let bpp = self.format.bytes_per_pixel();
        let off = self.offset(x, y);
        self.buffer.read(|bytes| {
            let mut out = [0u8; 4];
            out[..bpp].copy_from_slice(&bytes[off..off + bpp]);
            out
        })
    }

    /// Reads one pixel as an RGBA color.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn pixel_rgba(&self, x: u32, y: u32) -> Rgba {
        let bpp = self.format.bytes_per_pixel();
        let raw = self.pixel(x, y);
        self.format.decode(&raw[..bpp])
    }

    /// Writes one pixel from an RGBA color.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn set_pixel(&self, x: u32, y: u32, color: Rgba) {
        assert!(x < self.width && y < self.height, "pixel out of range");
        let bpp = self.format.bytes_per_pixel();
        let off = self.offset(x, y);
        self.buffer
            .write(|bytes| self.format.encode(color, &mut bytes[off..off + bpp]));
    }

    /// Fills the whole image with a color (row padding untouched).
    pub fn fill(&self, color: Rgba) {
        self.fill_rect(Rect::of_image(self), color);
    }

    /// Fills a rectangle with a color under a **single** buffer lock.
    ///
    /// The rectangle is clamped to the image bounds, so callers may pass
    /// oversized scissor/viewport rectangles directly. The color is
    /// encoded once and stamped row by row with `copy_from_slice`, which
    /// produces exactly the bytes a per-pixel `set_pixel` loop would.
    pub fn fill_rect(&self, rect: Rect, color: Rgba) {
        let x0 = rect.x.min(self.width) as usize;
        let y0 = rect.y.min(self.height) as usize;
        let x1 = rect.x.saturating_add(rect.w).min(self.width) as usize;
        let y1 = rect.y.saturating_add(rect.h).min(self.height) as usize;
        if x0 >= x1 || y0 >= y1 {
            return;
        }
        let bpp = self.format.bytes_per_pixel();
        // One encoded template row for the rect's width: filling is then a
        // memcpy per row instead of an encode per pixel.
        let mut px = vec![0u8; bpp];
        self.format.encode(color, &mut px);
        let mut template = vec![0u8; (x1 - x0) * bpp];
        for chunk in template.chunks_exact_mut(bpp) {
            chunk.copy_from_slice(&px);
        }
        let row_bytes = self.row_bytes;
        let mut bytes = self.buffer.write_guard();
        for y in y0..y1 {
            let start = y * row_bytes + x0 * bpp;
            bytes[start..start + template.len()].copy_from_slice(&template);
        }
    }

    /// Runs `f` with shared read access to one row's pixel bytes
    /// (excluding row padding), under a single lock.
    ///
    /// # Panics
    ///
    /// Panics if `y` is out of range.
    pub fn read_row<R>(&self, y: u32, f: impl FnOnce(&[u8]) -> R) -> R {
        assert!(y < self.height, "row out of range");
        let bpp = self.format.bytes_per_pixel();
        let start = y as usize * self.row_bytes;
        let bytes = self.buffer.read_guard();
        f(&bytes[start..start + self.width as usize * bpp])
    }

    /// Runs `f` with shared read access to every row at once — **one**
    /// lock for the whole traversal (the read side of the raster plane).
    pub fn read_rows<R>(&self, f: impl FnOnce(&Rows<'_>) -> R) -> R {
        let bytes = self.buffer.read_guard();
        f(&Rows {
            bytes: &bytes,
            width: self.width,
            height: self.height,
            format: self.format,
            row_bytes: self.row_bytes,
        })
    }

    /// Runs `f` with exclusive access to every row at once — **one** lock
    /// for the whole traversal (the write side of the raster plane).
    ///
    /// This is what bulk producers (`glTexSubImage2D` unpacking, span
    /// fills, composition) use instead of per-pixel `set_pixel` calls.
    pub fn map_rows<R>(&self, f: impl FnOnce(&mut RowsMut<'_>) -> R) -> R {
        let mut bytes = self.buffer.write_guard();
        f(&mut RowsMut {
            bytes: &mut bytes,
            width: self.width,
            height: self.height,
            format: self.format,
            row_bytes: self.row_bytes,
        })
    }

    /// Copies pixel data out into a tightly packed RGBA8888 vector —
    /// the canonical form used by tests to compare renderings
    /// across formats and paddings.
    pub fn to_rgba_vec(&self) -> Vec<u8> {
        let bpp = self.format.bytes_per_pixel();
        let mut out = Vec::with_capacity(self.pixel_count() as usize * 4);
        self.read_rows(|rows| {
            for y in 0..self.height {
                let row = rows.row(y);
                for px in row.chunks_exact(bpp) {
                    out.extend_from_slice(&self.format.decode(px).to_bytes());
                }
            }
        });
        out
    }

    /// A 64-bit FNV-1a hash of the canonical RGBA pixels — used for
    /// "pixel for pixel" comparisons like the paper's Acid3 check.
    pub fn pixel_hash(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self.to_rgba_vec() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        hash
    }
}

/// Shared read view of an [`Image`]'s rows, held under one buffer lock.
///
/// Obtained with [`Image::read_rows`].
#[derive(Debug)]
pub struct Rows<'a> {
    bytes: &'a [u8],
    width: u32,
    height: u32,
    format: PixelFormat,
    row_bytes: usize,
}

impl Rows<'_> {
    /// Row `y`'s pixel bytes, excluding row padding.
    ///
    /// # Panics
    ///
    /// Panics if `y` is out of range.
    pub fn row(&self, y: u32) -> &[u8] {
        assert!(y < self.height, "row out of range");
        let start = y as usize * self.row_bytes;
        &self.bytes[start..start + self.width as usize * self.format.bytes_per_pixel()]
    }

    /// Decodes the pixel at `(x, y)` (same result as [`Image::pixel_rgba`],
    /// but without taking the lock again).
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn pixel_rgba(&self, x: u32, y: u32) -> Rgba {
        assert!(x < self.width && y < self.height, "pixel out of range");
        let bpp = self.format.bytes_per_pixel();
        let off = y as usize * self.row_bytes + x as usize * bpp;
        self.format.decode(&self.bytes[off..off + bpp])
    }

    /// The image's pixel format.
    pub fn format(&self) -> PixelFormat {
        self.format
    }
}

/// Exclusive view of an [`Image`]'s rows, held under one buffer lock.
///
/// Obtained with [`Image::map_rows`].
#[derive(Debug)]
pub struct RowsMut<'a> {
    bytes: &'a mut [u8],
    width: u32,
    height: u32,
    format: PixelFormat,
    row_bytes: usize,
}

impl RowsMut<'_> {
    /// Mutable access to row `y`'s pixel bytes, excluding row padding.
    ///
    /// # Panics
    ///
    /// Panics if `y` is out of range.
    pub fn row_mut(&mut self, y: u32) -> &mut [u8] {
        assert!(y < self.height, "row out of range");
        let start = y as usize * self.row_bytes;
        let end = start + self.width as usize * self.format.bytes_per_pixel();
        &mut self.bytes[start..end]
    }

    /// Encodes `color` at `(x, y)` (same bytes as [`Image::set_pixel`],
    /// but without taking the lock again).
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn set_pixel(&mut self, x: u32, y: u32, color: Rgba) {
        assert!(x < self.width && y < self.height, "pixel out of range");
        let bpp = self.format.bytes_per_pixel();
        let off = y as usize * self.row_bytes + x as usize * bpp;
        self.format.encode(color, &mut self.bytes[off..off + bpp]);
    }

    /// The image's pixel format.
    pub fn format(&self) -> PixelFormat {
        self.format
    }
}

impl fmt::Debug for Image {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Image")
            .field("width", &self.width)
            .field("height", &self.height)
            .field("format", &self.format)
            .field("row_bytes", &self.row_bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tight_allocation_geometry() {
        let img = Image::new(10, 5, PixelFormat::Rgba8888);
        assert_eq!(img.width(), 10);
        assert_eq!(img.height(), 5);
        assert_eq!(img.row_bytes(), 40);
        assert_eq!(img.buffer().len(), 200);
        assert_eq!(img.pixel_count(), 50);
    }

    #[test]
    fn padded_rows_respected() {
        let img = Image::with_row_bytes(2, 2, PixelFormat::Rgba8888, 16);
        img.set_pixel(1, 1, Rgba::WHITE);
        // offset = 1*16 + 1*4 = 20
        assert_eq!(img.buffer().read(|b| b[20]), 255);
        assert_eq!(img.pixel_rgba(1, 1).to_bytes(), [255, 255, 255, 255]);
        assert_eq!(img.pixel_rgba(0, 1).to_bytes(), [0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "row_bytes too small")]
    fn undersized_row_bytes_panics() {
        Image::with_row_bytes(4, 1, PixelFormat::Rgba8888, 8);
    }

    #[test]
    fn from_buffer_aliases() {
        let buf = SharedBuffer::zeroed(64);
        let a = Image::from_buffer(4, 4, PixelFormat::Rgba8888, 16, buf.clone());
        let b = Image::from_buffer(4, 4, PixelFormat::Bgra8888, 16, buf);
        a.set_pixel(0, 0, Rgba::RED);
        // Same bytes, interpreted as BGRA -> blue.
        assert_eq!(b.pixel_rgba(0, 0).to_bytes(), [0, 0, 255, 255]);
        assert!(a.aliases(&b));
    }

    #[test]
    #[should_panic(expected = "buffer too small")]
    fn from_buffer_too_small_panics() {
        Image::from_buffer(4, 4, PixelFormat::Rgba8888, 16, SharedBuffer::zeroed(32));
    }

    #[test]
    fn fill_and_hash() {
        let a = Image::new(8, 8, PixelFormat::Rgba8888);
        let b = Image::new(8, 8, PixelFormat::Bgra8888);
        a.fill(Rgba::GREEN);
        b.fill(Rgba::GREEN);
        // Canonical RGBA comparison sees identical pixels across formats.
        assert_eq!(a.pixel_hash(), b.pixel_hash());
        assert_eq!(a.to_rgba_vec(), b.to_rgba_vec());

        b.set_pixel(7, 7, Rgba::RED);
        assert_ne!(a.pixel_hash(), b.pixel_hash());
    }

    #[test]
    fn fill_skips_row_padding() {
        let img = Image::with_row_bytes(1, 2, PixelFormat::Alpha8, 3);
        img.fill(Rgba::new(0.0, 0.0, 0.0, 1.0));
        img.buffer().read(|b| {
            assert_eq!(b[0], 255);
            assert_eq!(b[1], 0, "padding untouched");
            assert_eq!(b[3], 255);
        });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_pixel_panics() {
        Image::new(2, 2, PixelFormat::Rgba8888).pixel(2, 0);
    }
}
