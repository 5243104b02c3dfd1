//! Simulation substrate for the Cycada graphics reproduction.
//!
//! The original Cycada prototype ran on real hardware (a Nexus 7 tablet and
//! an iPad mini) against proprietary vendor binaries. This reproduction
//! replaces the hardware and the proprietary stack with a deterministic
//! simulation; this crate provides the shared building blocks every other
//! crate relies on:
//!
//! * [`clock`] — virtual nanoseconds, charged by every simulated component
//!   to the calling host thread's ledger. Virtual time, not wall-clock
//!   time, is what the benchmark harness reports, which makes every figure
//!   in the paper reproducible bit-for-bit on any host.
//! * [`SharedBuffer`] — reference-counted, lockable byte buffers used to
//!   model zero-copy graphics memory (IOSurface / GraphicBuffer backing
//!   stores).
//! * [`DeviceProfile`] — the calibrated cost model for the four platform
//!   configurations the paper evaluates (stock Android, Cycada Android,
//!   Cycada iOS, native iOS on the iPad mini).
//! * [`stats::FunctionStats`] — per-function call-count and virtual-time
//!   accounting used to regenerate Figures 7–10: one locked table per
//!   collector, indexed by the interned function ids of [`intern`].
//!
//! # Examples
//!
//! ```
//! use cycada_sim::clock;
//!
//! let start = clock::now_ns();
//! clock::charge_ns(225); // a simulated stock-Android kernel trap
//! assert_eq!(clock::now_ns() - start, 225);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod buffer;
pub mod check;
pub mod clock;
pub mod intern;
mod profile;
pub mod replay;
mod rng;
pub mod slots;
pub mod stats;
pub mod trace;

pub use buffer::{BufferReadGuard, BufferWriteGuard, SharedBuffer};
pub use clock::{MeterGuard, SessionMeter};
pub use profile::{CpuClass, DeviceProfile, GpuCostModel, Persona, Platform};
pub use rng::SimRng;

/// Nanoseconds of virtual time.
pub type Nanos = u64;

/// One microsecond expressed in nanoseconds.
pub const MICROSECOND: Nanos = 1_000;
/// One millisecond expressed in nanoseconds.
pub const MILLISECOND: Nanos = 1_000_000;
/// One second expressed in nanoseconds.
pub const SECOND: Nanos = 1_000_000_000;
