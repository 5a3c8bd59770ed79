//! # parcel-rt — a message-driven runtime over the network-managed GAS
//!
//! A reconstruction of the HPX-5 execution model the paper's address space
//! serves: **parcels** (active messages addressed to *global data*, not to
//! ranks), a per-locality scheduler with a bounded worker pool, and **LCOs**
//! (futures / and-gates / reductions) for synchronization, all over the
//! [`agas`] global address space and [`photon`] RMA middleware on the
//! [`netsim`] simulated cluster.
//!
//! The runtime is where the paper's comparison becomes visible end-to-end:
//! parcels and software-AGAS traffic contend for the *same* worker pool, so
//! moving address translation into the NIC frees exactly the cores the
//! application needs.
//!
//! ```
//! use parcel_rt::Runtime;
//! use agas::{GasMode, Distribution};
//!
//! let mut b = Runtime::builder(4, GasMode::AgasNetwork);
//! let bump = b.register("bump", |eng, ctx| {
//!     // Flip a bit in the first u64 of the target block.
//!     let phys = ctx.target_phys();
//!     eng.state.cluster.mem_mut(ctx.loc).xor_u64(phys, 1).unwrap();
//!     parcel_rt::reply(eng, &ctx, vec![]);
//! });
//! let mut rt = b.boot();
//! let arr = rt.alloc(4, 12, Distribution::Cyclic);
//! let done = rt.new_and(0, 4);
//! for i in 0..4 {
//!     rt.spawn(0, arr.block(i), bump, vec![], Some(done));
//! }
//! let fired = std::rc::Rc::new(std::cell::Cell::new(false));
//! let f2 = fired.clone();
//! rt.wait_lco(done, move |_, _| f2.set(true));
//! rt.run();
//! assert!(fired.get());
//! ```

pub mod balancer;
pub mod codec;
pub mod collective;
pub mod lco;
pub mod parcel;
pub mod rt;
pub mod sched;
pub mod shard_world;
pub mod workloads;
pub mod world;

pub use balancer::{BalancerConfig, BalancerStats};
pub use codec::{ArgReader, ArgWriter};
pub use collective::{barrier, gather_ranks};
pub use lco::{
    attach_driver, attach_driver_slot, attach_parcel, decode_gather, lco_set, new_and, new_future,
    new_gather, new_reduce, peek, set_gather, ReduceOp,
};
pub use netsim::RingConfig;
pub use parcel::{ActionCtx, ActionFn, ActionId, ActionRegistry, Parcel};
pub use rt::{Runtime, RuntimeBuilder};
pub use sched::{reply, send_parcel};
pub use shard_world::{lco_ctx, ShardAction, ShardRtData, ShardRtLoc, ShardWorld};
pub use world::{
    decode_amo_result, encode_amo_result, fire_completion, Completion, Msg, RingStats, RtConfig,
    RtLocal, RtStats, RtWorld, Transport, World, NO_COMPLETION, PARCEL_TAG,
};
