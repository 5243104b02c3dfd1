//! A simulated dynamic linker with **Dynamic Library Replication** (DLR).
//!
//! Normally, a call to `dlopen` will not re-initialize or reload a library
//! that is already loaded — the linker returns a handle to the previously
//! loaded instance. Cycada's DLR-enabled linker adds a new entry point,
//! **`dlforce`**, "which opens a library (the replica), and all its
//! dependencies, as if they were never loaded before. The replica and its
//! dependencies will have unique virtual addresses, and all of their library
//! constructors will be called" (§8.1). Symbol lookup can then be scoped to
//! one replica's isolated library tree.
//!
//! This crate reproduces those semantics over simulated library images:
//!
//! * a [`LibraryImage`] describes a `.so` on disk — name, dependencies,
//!   exported symbols, and a *constructor* that builds fresh per-instance
//!   state (the library's globals);
//! * [`DynamicLinker::dlopen`] loads into the default namespace with
//!   load-once semantics and reference counting;
//! * [`DynamicLinker::dlforce`] creates a [`Replica`]: a fresh, isolated
//!   instance tree with unique base addresses and re-run constructors.
//!   Libraries marked non-replicable (libc — footnote 1 of the paper) are
//!   shared with the default namespace instead of being re-instanced.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use cycada_linker::{DynamicLinker, LibraryImage};
//!
//! let linker = DynamicLinker::new();
//! linker.register_image(
//!     LibraryImage::builder("libnvos.so")
//!         .symbols(["NvOsAlloc"])
//!         .constructor(|| Arc::new(()))
//!         .build(),
//! );
//! let a = linker.dlopen("libnvos.so")?;
//! let b = linker.dlopen("libnvos.so")?;
//! assert_eq!(a.instance_id(), b.instance_id()); // load-once
//! let replica = linker.dlforce("libnvos.so")?;  // fresh instance
//! assert_ne!(replica.root().instance_id(), a.instance_id());
//! # Ok::<(), cycada_linker::LinkerError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod image;
mod linker;
mod loaded;

pub use error::LinkerError;
pub use image::{Constructor, LibraryImage, LibraryImageBuilder, LibraryState};
pub use linker::{DynamicLinker, Replica, ReplicaId};
pub use loaded::{InstanceId, LoadedLibrary, SymbolAddr};

/// Convenient result alias for linker operations.
pub type Result<T> = std::result::Result<T, LinkerError>;
