//! Simulated OpenGL ES stacks for the Cycada graphics reproduction.
//!
//! This crate provides the two proprietary GLES implementations the paper's
//! evaluation platforms ship — Apple's iOS library and the NVIDIA Tegra
//! library on Android — as simulated vendor libraries over the software GPU
//! in [`cycada_gpu`], plus the complete function/extension [`registry`]
//! that reproduces Table 1 of the paper exactly.
//!
//! The flavor differences the paper's bridge has to overcome are all
//! present and enforced:
//!
//! * disjoint extension sets (`APPLE_fence` vs `NV_fence`, 33 iOS-only and
//!   43 Android-only extensions);
//! * Apple's non-standard `glGetString` parameter;
//! * `APPLE_row_bytes` pixel-store state, unknown to the Android library;
//! * BGRA texture data accepted on iOS, `GL_INVALID_ENUM` on Android;
//! * per-thread current contexts, with the version incompatibility between
//!   GLES v1 and v2 contexts.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use cycada_gles::{ApiFlavor, GlesRegistry, GlesVersion, VendorGles};
//! use cycada_gpu::GpuDevice;
//! use cycada_sim::GpuCostModel;
//!
//! // Table 1: iOS implements 94 extension functions, Android only 42.
//! let t1 = GlesRegistry::global().table1();
//! assert_eq!(t1.extension_functions.0, 94);
//! assert_eq!(t1.extension_functions.1, 42);
//!
//! let device = Arc::new(GpuDevice::new(GpuCostModel::tegra3()));
//! let tegra = VendorGles::new(ApiFlavor::Android, device);
//! let ctx = tegra.create_context(GlesVersion::V2);
//! assert_eq!(tegra.context_version(ctx), Some(GlesVersion::V2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod registry;
mod state;
mod types;
mod vendor;

pub use registry::{
    ApiFlavor, EntryApi, EntryPoint, Extension, GlesRegistry, GlesVersion, StdAvailability,
    StdFunction, Table1,
};
pub use state::{EglImageSource, GlesContext, PixelStore};
pub use types::{
    Capability, ClientState, FramebufferStatus, GlError, IntParam, MatrixMode, PixelStoreParam,
    Primitive, StringName, TexFormat,
};
pub use vendor::{ContextId, VendorGles};
