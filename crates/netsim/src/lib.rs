//! # netsim — deterministic cluster/NIC simulator
//!
//! The hardware substrate for the `nmvgas` reproduction of *Network-Managed
//! Virtual Global Address Space for Message-driven Runtimes* (HPDC 2016).
//! The paper's experiments ran on an InfiniBand cluster whose NICs were
//! taught (via the Photon middleware) to translate *virtual* global
//! addresses; this crate substitutes a discrete-event model of that
//! hardware:
//!
//! * [`engine::Engine`] — virtual clock + event queue, bit-for-bit
//!   deterministic from a seed;
//! * [`config::NetConfig`] — LogGP cost parameters plus NIC translation
//!   costs/capacity;
//! * [`net::Cluster`] — localities, each with a [`memory::Memory`] arena and
//!   a [`nic::Nic`] whose [`nic::XlateTable`] is the paper's contribution in
//!   miniature: virtual-block → physical translation, forwarding tombstones
//!   for migrated blocks, NACKs for unknown ones;
//! * [`net::send_user`] and [`net::rdma_issue`] (with its
//!   [`net::rdma_put`] / [`net::rdma_get`] shorthands) — the timed
//!   operation state machines.
//!
//! Layers above implement [`net::Protocol`] to receive deliveries. See the
//! repository `DESIGN.md` for how this substitutes for the paper's testbed.

pub mod amo;
pub mod config;
pub mod engine;
pub mod faults;
pub mod flatmap;
pub mod memory;
pub mod net;
pub mod nic;
pub mod optable;
pub mod payload;
pub mod queue;
pub mod rng;
pub mod shard;
pub mod stats;
pub mod telemetry;
pub mod time;
pub mod timewheel;
pub mod trace;

pub use amo::{AmoCache, AmoKey, AmoOp, AmoResult};
pub use config::{NetConfig, RingConfig, ShmDomain};
pub use engine::Engine;
pub use faults::{
    apply_corruption, FaultClass, FaultPlan, FaultPlane, FaultRates, FaultStats, FaultVerdict,
    LinkFlap, Partition,
};
pub use flatmap::{FlatTable, LruInsert};
pub use memory::{MemError, Memory, PhysAddr};
pub use net::{
    install_xlate, rdma_get, rdma_issue, rdma_put, send_held, send_user, send_user_classed, Access,
    Applied, Cluster, Envelope, GetReq, Locality, NackReason, OpKind, Packet, Protocol, PutReq,
    RdmaTarget, Verb,
};
pub use nic::{
    LocalityId, Nic, ParkQueue, Xlate, XlateEntry, XlateTable, PARK_DEPTH, PARK_TIMEOUT,
};
pub use optable::{OpError, OpId, OpOutcome, OpTable, OutcomeCounters};
pub use payload::Payload;
pub use queue::ServerPool;
pub use shard::{Harness, ShardMap, ShardStats, ShardedEngine, SharedState, SplitWorld};
pub use stats::{Counters, LogHistogram, TimeWeighted};
pub use time::Time;
pub use timewheel::TimeWheel;
pub use trace::{TraceEvent, TraceKind, Tracer};
