//! A deterministic software GPU.
//!
//! The paper's prototype drives the Nexus 7's Tegra 3 GPU (and the iPad
//! mini's PowerVR) through proprietary vendor binaries. This crate is the
//! synthetic equivalent: a software GPU with
//!
//! * typed pixel [`PixelFormat`]s and row-padded [`Image`] storage backed by
//!   zero-copy [`cycada_sim::SharedBuffer`]s (so IOSurfaces and
//!   GraphicBuffers can alias GPU memory exactly as on real hardware),
//! * a deterministic triangle [`raster`]izer with texturing, alpha blending
//!   and depth testing — enough to verify rendering pixel-for-pixel,
//! * NV_fence-style [`Fence`]s,
//! * a [`GpuDevice`] front-end that executes commands immediately and
//!   charges calibrated virtual-time costs (per vertex / fragment / byte),
//!   from which the macro-level costs in Figures 9 and 10 emerge.
//!
//! # Examples
//!
//! ```
//! use cycada_sim::{GpuCostModel, VirtualClock};
//! use cycada_gpu::{DrawClass, GpuDevice, Image, PixelFormat, Rgba};
//!
//! let clock = VirtualClock::new();
//! let gpu = GpuDevice::new(clock, GpuCostModel::tegra3());
//! let target = Image::new(64, 64, PixelFormat::Rgba8888);
//! gpu.clear(&target, Rgba::RED, DrawClass::ThreeD);
//! assert_eq!(target.pixel(0, 0), Rgba::RED.to_bytes());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod device;
mod fence;
mod format;
mod image;
pub mod math;
pub mod raster;

pub use device::{DrawClass, GpuDevice, GpuStats};
pub use fence::{Fence, FenceCondition, FenceId};
pub use format::{PixelFormat, Rgba};
pub use image::{Image, Rows, RowsMut};
pub use raster::{BlendMode, Pipeline, Vertex};
