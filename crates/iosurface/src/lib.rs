//! Simulated iOS graphics memory management.
//!
//! On iOS "all graphics memory is allocated and manipulated through the
//! IOSurface API which communicates via opaque Mach IPC messages to the
//! IOCoreSurface I/O Kit driver" (§2). Cycada reverse engineered the kernel
//! APIs and reimplemented them as **LinuxCoreSurface** inside the Android
//! kernel (§6). This crate provides:
//!
//! * [`CoreSurfaceService`] — the kernel-side surface table, registered
//!   under the I/O Kit service name `IOCoreSurface` (on native iOS it *is*
//!   IOCoreSurface; on Cycada it is the LinuxCoreSurface reimplementation);
//! * [`IOSurfaceApi`] / [`IOSurface`] — the user-space library speaking
//!   opaque Mach IPC to the service (create, lookup, retain/release,
//!   lock/unlock, base address);
//! * [`IoMobileFramebuffer`] — the display-flip driver iOS composition
//!   uses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod api;
mod error;
mod framebuffer;
mod service;

pub use api::{IOSurface, IOSurfaceApi};
pub use error::IoSurfaceError;
pub use framebuffer::{IoMobileFramebuffer, IOMOBILE_FRAMEBUFFER_SERVICE, SEL_SWAP_SURFACE};
pub use service::{CoreSurfaceService, SurfaceProps, CORE_SURFACE_SERVICE};

/// Convenient result alias for IOSurface operations.
pub type Result<T> = std::result::Result<T, IoSurfaceError>;
