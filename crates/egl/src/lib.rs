//! Simulated Android EGL.
//!
//! "Android's EGL implementation ... can be broken into two pieces: an open
//! source library exporting all the standardized EGL functions, and a
//! vendor-provided, device-specific EGL implementation" (§8.1). This crate
//! provides both:
//!
//! * [`VendorEglState`] — the proprietary vendor EGL's per-instance state,
//!   enforcing the **single EGL-to-GLES connection per process** rule in a
//!   "library-static global variable";
//! * [`AndroidEgl`] — the open-source front (`libEGL.so`): displays,
//!   contexts, double-buffered window surfaces (over GraphicBuffers and
//!   SurfaceFlinger), EGLImages, the **thread-group `MakeCurrent`
//!   restriction** (§7), the **one GLES version per connection**
//!   restriction (§8), and Cycada's custom
//!   [`EGL_multi_context`](AndroidEgl::egl_reinitialize_mc) extension that
//!   defeats both restrictions using the DLR-enabled linker;
//! * [`loadout`] — `LibraryImage` definitions wiring the vendor library
//!   chain (`libEGL_tegra.so → libGLESv2_tegra.so → libnvrm.so → libnvos.so`)
//!   into the simulated linker.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod egl;
mod error;
pub mod loadout;
mod vendor_egl;

pub use egl::{AndroidEgl, EglContextId, EglImageId, EglSurfaceId, McConnectionId};
pub use error::EglError;
pub use vendor_egl::VendorEglState;

/// Convenient result alias for EGL operations.
pub type Result<T> = std::result::Result<T, EglError>;
