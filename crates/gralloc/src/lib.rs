//! Simulated Android graphics memory management.
//!
//! "Android manages efficient graphics memory transfers using GraphicBuffer
//! objects" (§6) allocated through the gralloc HAL's opaque kernel driver
//! interface and composited by SurfaceFlinger. This crate provides:
//!
//! * [`GraphicBuffer`] — zero-copy pixel memory with the **CPU-lock
//!   restriction** the paper works around: a GraphicBuffer "can be locked
//!   for CPU-only access *unless* it has been associated with a GLES
//!   texture (via an EGLImage)" (§6.2). Associations are tracked with RAII
//!   [`GlesAssociation`] guards that plug into
//!   `cycada_gles::EglImageSource`.
//! * [`GrallocDriver`] — the opaque ioctl driver backing allocation, to be
//!   registered with the simulated kernel.
//! * [`GraphicBufferAllocator`] — the user-space allocation API that talks
//!   to the driver through `ioctl`s.
//! * [`SurfaceFlinger`] — the compositor that posts buffers to the display.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod buffer;
mod driver;
mod error;
mod flinger;

pub use buffer::{GlesAssociation, GraphicBuffer};
pub use driver::{GrallocDriver, GraphicBufferAllocator, GRALLOC_DRIVER_NAME};
pub use error::GrallocError;
pub use flinger::SurfaceFlinger;

/// Convenient result alias for gralloc operations.
pub type Result<T> = std::result::Result<T, GrallocError>;
