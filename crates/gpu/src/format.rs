//! Pixel formats and color values.

use std::fmt;

/// The pixel formats the simulated GPU understands.
///
/// `Bgra8888` is the iOS-preferred ordering (CoreGraphics/IOSurface default)
/// while Android's GraphicBuffer world prefers `Rgba8888` — the mismatch is
/// one of the data-dependent conversions Cycada's bridge performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PixelFormat {
    /// 8-bit RGBA, byte order `[r, g, b, a]`.
    Rgba8888,
    /// 8-bit BGRA, byte order `[b, g, r, a]` (the iOS-native ordering).
    Bgra8888,
    /// 16-bit 5-6-5 RGB, little endian, no alpha.
    Rgb565,
    /// 8-bit alpha-only (font atlases).
    Alpha8,
}

impl PixelFormat {
    /// Bytes used by one pixel.
    pub fn bytes_per_pixel(self) -> usize {
        match self {
            PixelFormat::Rgba8888 | PixelFormat::Bgra8888 => 4,
            PixelFormat::Rgb565 => 2,
            PixelFormat::Alpha8 => 1,
        }
    }

    /// Encodes an RGBA color into this format at `out` (must be exactly
    /// [`PixelFormat::bytes_per_pixel`] long).
    ///
    /// # Panics
    ///
    /// Panics if `out` has the wrong length.
    pub fn encode(self, color: Rgba, out: &mut [u8]) {
        assert_eq!(out.len(), self.bytes_per_pixel(), "bad pixel slice");
        let [r, g, b, a] = color.to_bytes();
        match self {
            PixelFormat::Rgba8888 => out.copy_from_slice(&[r, g, b, a]),
            PixelFormat::Bgra8888 => out.copy_from_slice(&[b, g, r, a]),
            PixelFormat::Rgb565 => {
                let v: u16 = (u16::from(r >> 3) << 11)
                    | (u16::from(g >> 2) << 5)
                    | u16::from(b >> 3);
                out.copy_from_slice(&v.to_le_bytes());
            }
            PixelFormat::Alpha8 => out[0] = a,
        }
    }

    /// Decodes a pixel in this format back to RGBA.
    ///
    /// # Panics
    ///
    /// Panics if `raw` has the wrong length.
    pub fn decode(self, raw: &[u8]) -> Rgba {
        assert_eq!(raw.len(), self.bytes_per_pixel(), "bad pixel slice");
        match self {
            PixelFormat::Rgba8888 => Rgba::from_bytes([raw[0], raw[1], raw[2], raw[3]]),
            PixelFormat::Bgra8888 => Rgba::from_bytes([raw[2], raw[1], raw[0], raw[3]]),
            PixelFormat::Rgb565 => {
                Rgba::from_bytes(rgb565_bytes(u16::from_le_bytes([raw[0], raw[1]])))
            }
            PixelFormat::Alpha8 => Rgba::new(0.0, 0.0, 0.0, f32::from(raw[0]) / 255.0),
        }
    }
}

/// Swaps bytes 0 and 2 of a packed little-endian pixel: the RGBA ↔ BGRA
/// conversion, in either direction.
#[inline]
pub(crate) fn swap_rb(v: u32) -> u32 {
    (v & 0xFF00_FF00) | (v >> 16 & 0xFF) | (v & 0xFF) << 16
}

/// Expands a 5-6-5 pixel to `[r, g, b, 255]`, widening each channel by
/// bit replication so that 0 maps to 0 and the channel maximum to 255.
#[inline]
pub(crate) fn rgb565_bytes(v: u16) -> [u8; 4] {
    let r = ((v >> 11) & 0x1f) as u8;
    let g = ((v >> 5) & 0x3f) as u8;
    let b = (v & 0x1f) as u8;
    [
        (r << 3) | (r >> 2),
        (g << 2) | (g >> 4),
        (b << 3) | (b >> 2),
        255,
    ]
}

impl fmt::Display for PixelFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            PixelFormat::Rgba8888 => "RGBA8888",
            PixelFormat::Bgra8888 => "BGRA8888",
            PixelFormat::Rgb565 => "RGB565",
            PixelFormat::Alpha8 => "ALPHA8",
        };
        f.write_str(name)
    }
}

/// A linear RGBA color with components in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Rgba {
    /// Red component.
    pub r: f32,
    /// Green component.
    pub g: f32,
    /// Blue component.
    pub b: f32,
    /// Alpha component.
    pub a: f32,
}

impl Rgba {
    /// Opaque black.
    pub const BLACK: Rgba = Rgba { r: 0.0, g: 0.0, b: 0.0, a: 1.0 };
    /// Opaque white.
    pub const WHITE: Rgba = Rgba { r: 1.0, g: 1.0, b: 1.0, a: 1.0 };
    /// Opaque red.
    pub const RED: Rgba = Rgba { r: 1.0, g: 0.0, b: 0.0, a: 1.0 };
    /// Opaque green.
    pub const GREEN: Rgba = Rgba { r: 0.0, g: 1.0, b: 0.0, a: 1.0 };
    /// Opaque blue.
    pub const BLUE: Rgba = Rgba { r: 0.0, g: 0.0, b: 1.0, a: 1.0 };
    /// Fully transparent black.
    pub const TRANSPARENT: Rgba = Rgba { r: 0.0, g: 0.0, b: 0.0, a: 0.0 };

    /// Creates a color, clamping each component to `[0, 1]`.
    pub fn new(r: f32, g: f32, b: f32, a: f32) -> Self {
        Rgba {
            r: r.clamp(0.0, 1.0),
            g: g.clamp(0.0, 1.0),
            b: b.clamp(0.0, 1.0),
            a: a.clamp(0.0, 1.0),
        }
    }

    /// Creates a color from 8-bit `[r, g, b, a]` bytes.
    pub fn from_bytes(bytes: [u8; 4]) -> Self {
        Rgba {
            r: f32::from(bytes[0]) / 255.0,
            g: f32::from(bytes[1]) / 255.0,
            b: f32::from(bytes[2]) / 255.0,
            a: f32::from(bytes[3]) / 255.0,
        }
    }

    /// Converts to 8-bit `[r, g, b, a]` bytes (round-to-nearest).
    pub fn to_bytes(self) -> [u8; 4] {
        let q = |v: f32| (v.clamp(0.0, 1.0) * 255.0).round() as u8;
        [q(self.r), q(self.g), q(self.b), q(self.a)]
    }

    /// Source-over blend of `self` (source) onto `dst` (destination).
    pub fn over(self, dst: Rgba) -> Rgba {
        let sa = self.a;
        let da = dst.a * (1.0 - sa);
        let out_a = sa + da;
        if out_a <= f32::EPSILON {
            return Rgba::TRANSPARENT;
        }
        Rgba {
            r: (self.r * sa + dst.r * da) / out_a,
            g: (self.g * sa + dst.g * da) / out_a,
            b: (self.b * sa + dst.b * da) / out_a,
            a: out_a,
        }
    }

    /// Component-wise modulation (texture * vertex color).
    pub fn modulate(self, other: Rgba) -> Rgba {
        Rgba {
            r: self.r * other.r,
            g: self.g * other.g,
            b: self.b * other.b,
            a: self.a * other.a,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_per_pixel() {
        assert_eq!(PixelFormat::Rgba8888.bytes_per_pixel(), 4);
        assert_eq!(PixelFormat::Bgra8888.bytes_per_pixel(), 4);
        assert_eq!(PixelFormat::Rgb565.bytes_per_pixel(), 2);
        assert_eq!(PixelFormat::Alpha8.bytes_per_pixel(), 1);
    }

    #[test]
    fn rgba_round_trip() {
        let c = Rgba::from_bytes([10, 20, 30, 40]);
        let mut buf = [0u8; 4];
        PixelFormat::Rgba8888.encode(c, &mut buf);
        assert_eq!(buf, [10, 20, 30, 40]);
        assert_eq!(PixelFormat::Rgba8888.decode(&buf).to_bytes(), [10, 20, 30, 40]);
    }

    #[test]
    fn bgra_swizzles() {
        let c = Rgba::from_bytes([10, 20, 30, 40]);
        let mut buf = [0u8; 4];
        PixelFormat::Bgra8888.encode(c, &mut buf);
        assert_eq!(buf, [30, 20, 10, 40]);
        assert_eq!(PixelFormat::Bgra8888.decode(&buf).to_bytes(), [10, 20, 30, 40]);
    }

    #[test]
    fn rgb565_preserves_extremes() {
        let mut buf = [0u8; 2];
        PixelFormat::Rgb565.encode(Rgba::WHITE, &mut buf);
        assert_eq!(PixelFormat::Rgb565.decode(&buf).to_bytes(), [255, 255, 255, 255]);
        PixelFormat::Rgb565.encode(Rgba::BLACK, &mut buf);
        assert_eq!(PixelFormat::Rgb565.decode(&buf).to_bytes(), [0, 0, 0, 255]);
    }

    #[test]
    fn alpha8_keeps_alpha_only() {
        let mut buf = [0u8; 1];
        PixelFormat::Alpha8.encode(Rgba::new(1.0, 1.0, 1.0, 0.5), &mut buf);
        let back = PixelFormat::Alpha8.decode(&buf);
        assert_eq!(back.to_bytes()[0..3], [0, 0, 0]);
        assert!((back.a - 0.5).abs() < 0.01);
    }

    #[test]
    fn new_clamps() {
        let c = Rgba::new(2.0, -1.0, 0.5, 3.0);
        assert_eq!(c.to_bytes(), [255, 0, 128, 255]);
    }

    #[test]
    fn over_opaque_source_wins() {
        let out = Rgba::RED.over(Rgba::BLUE);
        assert_eq!(out.to_bytes(), Rgba::RED.to_bytes());
    }

    #[test]
    fn over_half_alpha_mixes() {
        let src = Rgba::new(1.0, 0.0, 0.0, 0.5);
        let out = src.over(Rgba::new(0.0, 0.0, 1.0, 1.0));
        let bytes = out.to_bytes();
        assert_eq!(bytes[3], 255, "result stays opaque");
        assert!(bytes[0] > 100 && bytes[0] < 155, "red roughly half: {bytes:?}");
        assert!(bytes[2] > 100 && bytes[2] < 155, "blue roughly half: {bytes:?}");
    }

    #[test]
    fn over_transparent_on_transparent() {
        assert_eq!(
            Rgba::TRANSPARENT.over(Rgba::TRANSPARENT),
            Rgba::TRANSPARENT
        );
    }

    #[test]
    fn modulate_is_componentwise() {
        let out = Rgba::new(0.5, 1.0, 0.0, 1.0).modulate(Rgba::new(1.0, 0.5, 1.0, 0.5));
        assert!((out.r - 0.5).abs() < 1e-6);
        assert!((out.g - 0.5).abs() < 1e-6);
        assert_eq!(out.b, 0.0);
        assert!((out.a - 0.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "bad pixel slice")]
    fn encode_wrong_len_panics() {
        PixelFormat::Rgba8888.encode(Rgba::RED, &mut [0u8; 2]);
    }
}
