//! Cycada graphics compatibility — a complete, simulated reproduction of
//! *"Binary Compatible Graphics Support in Android for Running iOS Apps"*
//! (Andrus, AlDuaij, Nieh — Middleware 2017).
//!
//! This crate assembles the paper's Figure 3 architecture over the
//! simulated substrates:
//!
//! * [`GlesBridge`] — the diplomatic GLES library presenting the iOS GLES
//!   API surface (344 entry points, Table 2) over the Android vendor
//!   library, using the four diplomat usage patterns;
//! * [`EglBridge`] — `libEGLbridge` / `libui_wrapper`: the coalesced multi
//!   diplomats (`aegl_bridge_*`) and the per-EAGLContext DLR replication;
//! * [`Eagl`] — the 17-method EAGL reimplementation (6 multi diplomats,
//!   10 from scratch, 1 never called);
//! * [`IoSurfaceBridge`] — IOSurface over GraphicBuffer, including the
//!   lock/unlock texture-disassociation dance (§6.2);
//! * [`CycadaDevice`] / [`AndroidDevice`] / [`IosDevice`] — the three
//!   bootable device types behind the paper's four evaluation
//!   configurations;
//! * [`AppGl`] — the uniform app-side facade the workloads run on.
//!
//! # Examples
//!
//! ```
//! use cycada::AppGl;
//! use cycada_gles::{GlesVersion, Primitive};
//! use cycada_sim::Platform;
//!
//! // Boot an iOS app on a (simulated) Android tablet running Cycada...
//! let app = AppGl::boot(Platform::CycadaIos, GlesVersion::V1)?;
//! app.clear(0.0, 0.0, 0.0, 1.0)?;
//! let xyz = [-1.0, -1.0, 0.0, 3.0, -1.0, 0.0, -1.0, 3.0, 0.0];
//! app.draw(Primitive::Triangles, &xyz, [1.0, 0.0, 0.0, 1.0])?;
//! app.present()?; // EAGL presentRenderbuffer through libEGLbridge
//! assert_eq!(app.display().pixel(10, 10), [255, 0, 0, 255]);
//! # Ok::<(), cycada::CycadaError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod app;
mod bridge;
mod eagl;
mod gcd;
mod egl_bridge;
mod error;
mod iosurface_bridge;
mod native_ios;
mod process;
pub mod support;

pub use app::AppGl;
pub use bridge::{bridged_surface_size, GlesBridge, FOREIGN_REPACK_BYTE_NS};
pub use eagl::{Eagl, EaglContextId, EaglMethodKind, EAGL_METHODS};
pub use egl_bridge::{register_bridge_libraries, EglBridge, LIBEGLBRIDGE, LIBUI_WRAPPER};
pub use error::CycadaError;
pub use gcd::DispatchQueue;
pub use iosurface_bridge::IoSurfaceBridge;
pub use native_ios::{register_ios_graphics, NativeIosStack, IOS_GLES_LIB};
pub use process::{
    AndroidDevice, AndroidSession, CycadaDevice, CycadaSession, IosDevice, IosSession,
    SessionScope, APPLE_GRAPHICS_TLS_SLOTS,
};
pub use support::{classify, SupportKind, Table2};

/// Convenient result alias for Cycada operations.
pub type Result<T> = std::result::Result<T, CycadaError>;
