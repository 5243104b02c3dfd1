//! Evaluation workloads reproducing §9 of the paper.
//!
//! Every table and figure in the evaluation is regenerated by running these
//! workloads over the simulated platform stacks:
//!
//! * [`lmbench`] — the kernel/ABI micro-benchmarks of **Table 3** (null
//!   syscall, function call, diplomat variants);
//! * [`js`] — a SunSpider-shaped JavaScript engine simulator (JIT vs
//!   interpreter) behind **Figure 5**;
//! * [`webkit`] — a miniature WebKit: layout, tile painting, texture
//!   upload and GLES composition — the call mix behind **Figures 7/9**;
//! * [`pages`] — the deterministic "top 30 websites" page set and the
//!   Acid-style reference page (§9 functionality);
//! * [`browser`] — Safari-sim: wires the JS engine and WebKit together;
//! * [`passmark`] — the PassMark-shaped 2D/3D GPU tests behind
//!   **Figures 6/8/10**.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod browser;
pub mod js;
pub mod lmbench;
pub mod pages;
pub mod passmark;
pub mod scenario;
pub mod webkit;
