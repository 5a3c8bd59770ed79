//! # nmvgas — Network-Managed Virtual Global Address Space
//!
//! Facade crate for the reproduction of *Network-Managed Virtual Global
//! Address Space for Message-driven Runtimes* (Kulkarni, Dalessandro,
//! Kissel, Lumsdaine, Sterling, Swany — HPDC 2016). Re-exports the whole
//! stack:
//!
//! * [`netsim`] — deterministic cluster/NIC simulator (the hardware
//!   substitute, including the NIC-resident translation table);
//! * [`photon`] — the Photon RMA middleware reproduction (PWC, rendezvous,
//!   registration cache);
//! * [`agas`] — the paper's contribution: PGAS / software-AGAS /
//!   network-managed-AGAS behind one API, with block migration;
//! * [`parcel_rt`] — the HPX-5-style message-driven runtime (parcels,
//!   actions, LCOs, schedulers);
//! * [`workloads`] — GUPS, a 2-D / 3-D halo-exchange stencil, pointer
//!   chase, and skewed-access benchmarks.
//!
//! See `examples/quickstart.rs` for a five-minute tour and `DESIGN.md` for
//! the system inventory and experiment index.

pub use agas;
pub use netsim;
pub use parcel_rt;
pub use photon;
pub use workloads;

pub use agas::{Distribution, GasConfig, GasMode, GlobalArray, Gva};
pub use netsim::{NetConfig, Time};
pub use parcel_rt::{ArgReader, ArgWriter, ReduceOp, RtConfig, Runtime, RuntimeBuilder};
