//! # workloads — benchmark applications over the nmvgas stack
//!
//! The workloads the reconstructed evaluation (DESIGN.md §5) runs:
//!
//! * [`gups`] — GUPS/RandomAccess uniform-random remote updates (E5, E6);
//! * [`stencil`] — the halo-exchange application proxy on a 2-D (E9) or
//!   3-D (E9b) tile grid;
//! * [`chase`] — dependent pointer chase, the latency amplifier (the
//!   translation-pressure end-to-end test walks it);
//! * [`skew`] — Zipf-skewed access with migration rebalancing (E8);
//! * [`bfs`] — message-driven breadth-first search (irregular graph class,
//!   E13);
//! * [`transpose`] — all-to-all tile transpose (E15);
//! * [`chaos`] — the history-checked fault-injection and membership
//!   driver (`repro chaos`, `repro membership`);
//! * [`lockfree`] — a distributed lock-free MPSC queue built on
//!   NIC-executed active operations, whose block migrates mid-run;
//! * [`driver`] — the windowed asynchronous-operation pumps all of them
//!   are built on.
//!
//! Every workload runs unmodified under all three [`agas::GasMode`]s; the
//! benchmark harness (`crates/bench`) sweeps modes and parameters.

pub mod bfs;
pub mod chaos;
pub mod chase;
pub mod driver;
pub mod gups;
pub mod lockfree;
pub mod skew;
pub mod stencil;
pub mod transpose;

pub use bfs::{BfsConfig, BfsResult, Graph};
pub use chaos::{corrupt_mix, drop_mix, run_chaos, ChaosConfig, ChaosReport};
pub use chase::{ChaseConfig, ChaseResult};
pub use gups::{GupsConfig, GupsResult};
pub use lockfree::{run_mpsc, MpscConfig, MpscReport};
pub use skew::{SkewConfig, SkewResult};
pub use stencil::{StencilConfig, StencilResult};
pub use transpose::{TransposeConfig, TransposeResult};
