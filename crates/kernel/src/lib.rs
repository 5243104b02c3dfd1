//! The simulated Cycada kernel.
//!
//! Cycada builds binary compatibility *into* an existing kernel: a thread
//! carries two **personas** (an iOS one and an Android one), each selecting
//! a kernel ABI personality and a thread-local-storage (TLS) area, and the
//! kernel exposes three Cycada-specific system calls:
//!
//! * `set_persona` — switch the calling thread's kernel ABI and TLS pointer
//!   (invoked twice per diplomat, §3 steps 4 and 8);
//! * `locate_tls` — extract TLS values from any persona of a thread (§7.1);
//! * `propagate_tls` — push TLS values into any persona of a thread (§7.1).
//!
//! This crate simulates that kernel: a thread table with per-persona TLS
//! areas, the Cycada syscalls, trap-cost accounting calibrated to Table 3,
//! plus the two opaque kernel communication channels mobile graphics stacks
//! use — **Mach IPC** to I/O Kit-style services (iOS side) and **ioctls** to
//! proprietary drivers (Android side). Kernel services such as
//! LinuxCoreSurface and the gralloc driver are implemented in their own
//! crates and registered into the [`Kernel`]'s service registries.
//!
//! # Examples
//!
//! ```
//! use cycada_sim::{Persona, Platform};
//! use cycada_kernel::Kernel;
//!
//! let kernel = Kernel::for_platform(Platform::CycadaIos);
//! let tid = kernel.spawn_process_main(Persona::Ios)?;
//! kernel.set_persona(tid, Persona::Android)?; // diplomat enters Android
//! assert_eq!(kernel.current_persona(tid)?, Persona::Android);
//! kernel.set_persona(tid, Persona::Ios)?; // ...and returns
//! # Ok::<(), cycada_kernel::KernelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod abi;
mod display;
mod error;
mod ipc;
mod kernel;
mod thread;
mod tls;

pub use abi::{bsd_errno_from_linux, BsdErrno, LinuxErrno};
pub use cycada_sim::Persona;
pub use display::Display;
pub use error::KernelError;
pub use ipc::{IoctlDriver, IpcMessage, IpcReply, KernelService};
pub use kernel::{Kernel, SyscallCounts};
pub use thread::{SimTid, ThreadGroup};
pub use tls::{TlsArea, TlsKey, TlsKeyEvent, TlsValue, ERRNO_SLOT};

/// Convenient result alias for kernel operations.
pub type Result<T> = std::result::Result<T, KernelError>;
