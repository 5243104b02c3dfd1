//! The top-level Cycada error type.

use std::error::Error;
use std::fmt;

/// Errors surfaced by the Cycada graphics compatibility layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CycadaError {
    /// A diplomat call failed (resolution or persona switch).
    Diplomat(String),
    /// The Android EGL layer failed.
    Egl(String),
    /// The IOSurface layer failed.
    IoSurface(String),
    /// The gralloc layer failed.
    Gralloc(String),
    /// The kernel failed.
    Kernel(String),
    /// EAGL API misuse (bad context, no drawable, ...).
    Eagl(String),
    /// The requested operation is not available on this platform
    /// configuration (e.g. EAGL on stock Android).
    UnsupportedPlatform(String),
    /// An argument is outside what the simulated device supports (a
    /// display or layer side above 2048, a non-finite CPU charge, ...).
    /// Rejected before anything is charged or recorded.
    InvalidArgument(String),
}

impl fmt::Display for CycadaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CycadaError::Diplomat(m) => write!(f, "diplomat failure: {m}"),
            CycadaError::Egl(m) => write!(f, "EGL failure: {m}"),
            CycadaError::IoSurface(m) => write!(f, "IOSurface failure: {m}"),
            CycadaError::Gralloc(m) => write!(f, "gralloc failure: {m}"),
            CycadaError::Kernel(m) => write!(f, "kernel failure: {m}"),
            CycadaError::Eagl(m) => write!(f, "EAGL failure: {m}"),
            CycadaError::UnsupportedPlatform(m) => write!(f, "unsupported on this platform: {m}"),
            CycadaError::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
        }
    }
}

impl Error for CycadaError {}

impl From<cycada_diplomat::DiplomatError> for CycadaError {
    fn from(e: cycada_diplomat::DiplomatError) -> Self {
        CycadaError::Diplomat(e.to_string())
    }
}

impl From<cycada_egl::EglError> for CycadaError {
    fn from(e: cycada_egl::EglError) -> Self {
        CycadaError::Egl(e.to_string())
    }
}

impl From<cycada_iosurface::IoSurfaceError> for CycadaError {
    fn from(e: cycada_iosurface::IoSurfaceError) -> Self {
        CycadaError::IoSurface(e.to_string())
    }
}

impl From<cycada_gralloc::GrallocError> for CycadaError {
    fn from(e: cycada_gralloc::GrallocError) -> Self {
        CycadaError::Gralloc(e.to_string())
    }
}

impl From<cycada_kernel::KernelError> for CycadaError {
    fn from(e: cycada_kernel::KernelError) -> Self {
        CycadaError::Kernel(e.to_string())
    }
}

impl From<cycada_linker::LinkerError> for CycadaError {
    fn from(e: cycada_linker::LinkerError) -> Self {
        CycadaError::Diplomat(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_prefixes() {
        assert!(CycadaError::Eagl("x".into()).to_string().contains("EAGL"));
        assert!(CycadaError::UnsupportedPlatform("EAGL".into())
            .to_string()
            .contains("unsupported"));
    }
}
