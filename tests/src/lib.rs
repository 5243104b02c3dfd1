//! Host crate for the cross-crate integration tests in `tests/tests/`.
//!
//! The tests exercise the full Cycada pipeline end-to-end: iOS app code →
//! diplomatic GLES bridge → persona switches → Android vendor stack →
//! SurfaceFlinger → display, plus the three headline OS mechanisms
//! (diplomat usage patterns, thread impersonation, dynamic library
//! replication) in combination.
//!
//! The [`fuzz`] module is the differential GLES conformance fuzzer: it
//! generates seeded random `.cyt` call streams and runs them through
//! both the full diplomat path and the reference rasterizer, asserting
//! byte-identical framebuffers and deterministic virtual time.

pub mod fuzz;
