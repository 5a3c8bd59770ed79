//! Experiment kernels for the reconstructed evaluation.
//!
//! Each function here regenerates the data behind one table/figure of
//! DESIGN.md §5 (experiments E1–E10, ablations A1–A3) and returns plain
//! data for the `repro` binary (which prints the paper-style rows) and the
//! shape tests. All results are **simulated time** — the model's output,
//! deterministic for a given seed.

pub mod amo;
pub mod experiments;
pub mod host;
pub mod parallel;
pub mod shm;

pub use amo::*;
pub use experiments::*;
pub use host::*;
pub use parallel::*;
pub use shm::*;
