//! A `Send` world for the parcel runtime, runnable on both the sequential
//! [`Engine`] and the sharded [`ShardedEngine`](netsim::ShardedEngine).
//!
//! The classic [`World`](crate::World) keeps boxed-closure actions behind
//! an `Rc` and driver callbacks in a shared map — fine sequentially,
//! unusable across shard lanes. `ShardWorld` is its lane-safe twin, built
//! the way [`agas::SimWorld`] mirrors the integration `World`:
//!
//! * actions are plain `fn` pointers (`Send + Sync`, registered before
//!   boot, read-only at event time);
//! * driver notifications are recorded into a per-locality list instead of
//!   invoking a closure — drivers read results after `run()` via
//!   [`crate::lco::peek`] or [`ShardWorld::fired`];
//! * GAS completions are LCO-only: a completion handle *is* the LCO's raw
//!   GVA bits ([`lco_ctx`]), so there is no shared completion table at all.
//!
//! The scheduler and LCO layers are the very same generic code the classic
//! world runs ([`crate::sched`], [`crate::lco`] over
//! [`crate::world::RtWorld`]), so a workload replayed here
//! schedules the same protocol traffic — and the sharded engine contracts
//! to reproduce the sequential `(time, seq)` order bit-for-bit at any lane
//! count.

use crate::lco;
use crate::parcel::{ActionCtx, ActionId, Parcel};
use crate::world::{RtConfig, RtLocal, RtStats, RtWorld, Transport};
use agas::{GasConfig, GasLocal, GasMode, GasMsg, GasWorld, Gva, PgasMap};
use netsim::shard::ShardMap;
use netsim::{
    AmoResult, Cluster, Engine, Envelope, LocalityId, NackReason, NetConfig, OpError, OpId, OpKind,
    Packet, Protocol, ServerPool, SharedState, SplitWorld,
};
use photon::{PhotonConfig, PhotonEndpoint, PhotonMsg, PhotonWorld};

/// Wire message for the sharded runtime world.
#[derive(Debug)]
pub enum ShardMsg {
    /// Photon middleware traffic.
    Photon(PhotonMsg),
    /// GAS protocol traffic.
    Gas(GasMsg),
    /// An application parcel.
    Parcel(Parcel),
    /// A coalesced batch of parcels for one destination.
    ParcelBatch(Vec<Parcel>),
}

/// A lane-safe action body: a plain `fn` pointer (no captures, `Send`).
pub type ShardAction = fn(&mut Engine<ShardWorld>, ActionCtx);

/// Driver-visible per-locality record (owned by the locality's lane).
#[derive(Default)]
pub struct ShardRtLoc {
    /// Driver-slot firings observed here: `(slot id, LCO value)` in
    /// firing order (see [`crate::lco::attach_driver_slot`]).
    pub fired: Vec<(u64, Vec<u8>)>,
    /// Terminal GAS op failures delivered here.
    pub op_failures: u64,
}

/// Backing storage of a [`ShardWorld`]; lanes alias it via [`SharedState`].
pub struct ShardRtData {
    /// The simulated cluster.
    pub cluster: Cluster,
    /// Per-locality photon endpoints.
    pub eps: Vec<PhotonEndpoint>,
    /// Per-locality GAS state.
    pub gas: Vec<GasLocal>,
    /// Per-locality CPU worker pools.
    pub cpus: Vec<ServerPool>,
    /// The replicated PGAS placement registry (read-only at event time).
    pub pgas: PgasMap,
    /// The active GAS mode.
    pub mode: GasMode,
    /// Per-locality runtime state.
    pub rt: Vec<RtLocal>,
    /// Runtime tuning.
    pub rtcfg: RtConfig,
    /// The action table: registered before boot, read-only at event time.
    pub actions: Vec<(&'static str, ShardAction)>,
    /// Per-locality driver records.
    pub locs: Vec<ShardRtLoc>,
}

/// The world handle: owner on the control engine, alias on each lane.
pub struct ShardWorld {
    /// Shared backing storage.
    pub data: SharedState<ShardRtData>,
}

impl ShardWorld {
    /// Build a sharded-runtime world. Only the PWC transport is supported
    /// (ISIR's standing receives are armed through driver code the sharded
    /// boot path does not run).
    pub fn new(n: usize, mode: GasMode, net: NetConfig, rtcfg: RtConfig) -> ShardWorld {
        assert_eq!(
            rtcfg.transport,
            Transport::Pwc,
            "ShardWorld supports the PWC transport only"
        );
        ShardWorld {
            data: SharedState::new(ShardRtData {
                cluster: Cluster::new(n, net, 1 << 28),
                eps: (0..n)
                    .map(|_| PhotonEndpoint::new(PhotonConfig::default()))
                    .collect(),
                gas: (0..n)
                    .map(|_| GasLocal::new(GasConfig::default()))
                    .collect(),
                cpus: (0..n).map(|_| ServerPool::new(rtcfg.workers)).collect(),
                pgas: PgasMap::new(),
                mode,
                rt: (0..n).map(|_| RtLocal::new(rtcfg.ring)).collect(),
                rtcfg,
                actions: Vec::new(),
                locs: (0..n).map(|_| ShardRtLoc::default()).collect(),
            }),
        }
    }

    /// Register an action before boot; ids are uniform cluster-wide.
    pub fn register(&mut self, name: &'static str, f: ShardAction) -> ActionId {
        let id = ActionId(self.data.actions.len() as u32);
        self.data.actions.push((name, f));
        id
    }

    /// Number of localities.
    pub fn n_localities(&self) -> u32 {
        self.data.cluster.len() as u32
    }

    /// All driver-slot firings across the cluster, ordered by slot id.
    pub fn fired(&self) -> Vec<(u64, Vec<u8>)> {
        let mut out: Vec<(u64, Vec<u8>)> = self
            .data
            .locs
            .iter()
            .flat_map(|l| l.fired.iter().cloned())
            .collect();
        out.sort_by_key(|&(id, _)| id);
        out
    }

    /// Terminal op failures across the cluster.
    pub fn op_failures(&self) -> u64 {
        self.data.locs.iter().map(|l| l.op_failures).sum()
    }

    /// Aggregate runtime stats across localities.
    pub fn total_rt_stats(&self) -> RtStats {
        let mut total = RtStats::default();
        for r in &self.data.rt {
            total.merge(&r.stats);
        }
        total
    }
}

/// Encode an LCO as a GAS completion handle: the handle *is* the LCO's
/// raw GVA bits. An LCO GVA can never be the all-ones [`OpId::NONE`]
/// sentinel, so the encoding is unambiguous.
pub fn lco_ctx(lco: Gva) -> OpId {
    debug_assert_eq!(lco.class(), lco::LCO_CLASS);
    OpId::from_raw(lco.0)
}

/// Fire the LCO a GAS completion handle names. The set is issued *from*
/// the completing locality (the lane that owns the event), so a remote
/// LCO home is reached through a normal parcel — never by a cross-lane
/// state write.
fn complete(eng: &mut Engine<ShardWorld>, loc: LocalityId, ctx: OpId, data: Vec<u8>) {
    if ctx.is_none() {
        return;
    }
    let lco = Gva(ctx.raw());
    lco::lco_set(eng, loc, lco, data);
}

impl Protocol for ShardWorld {
    type Msg = ShardMsg;

    fn cluster(&mut self) -> &mut Cluster {
        &mut self.data.cluster
    }

    fn cluster_ref(&self) -> &Cluster {
        &self.data.cluster
    }

    fn deliver(eng: &mut Engine<Self>, env: Envelope<ShardMsg>) {
        match env.packet {
            Packet::User(ShardMsg::Photon(p)) => photon::handle_msg(eng, env.src, env.dst, p),
            Packet::User(ShardMsg::Gas(g)) => agas::ops::handle_msg(eng, env.src, env.dst, g),
            Packet::User(ShardMsg::Parcel(p)) => {
                crate::sched::parcel_arrive(eng, env.src, env.dst, p);
            }
            Packet::User(ShardMsg::ParcelBatch(batch)) => {
                for p in batch {
                    crate::sched::parcel_arrive(eng, env.src, env.dst, p);
                }
            }
            other => photon::handle_completion(eng, env.src, env.dst, other),
        }
    }
}

impl PhotonWorld for ShardWorld {
    fn endpoint(&mut self, loc: LocalityId) -> &mut PhotonEndpoint {
        &mut self.data.eps[loc as usize]
    }
    fn wrap(msg: PhotonMsg) -> ShardMsg {
        ShardMsg::Photon(msg)
    }
    fn pwc_complete(eng: &mut Engine<Self>, loc: LocalityId, ctx: OpId) {
        agas::ops::on_pwc_complete(eng, loc, ctx);
    }
    fn pwc_redirected(
        eng: &mut Engine<Self>,
        loc: LocalityId,
        ctx: OpId,
        owner: LocalityId,
        generation: u32,
    ) {
        agas::ops::on_pwc_redirected(eng, loc, ctx, owner, generation);
    }
    fn pwc_remote(_eng: &mut Engine<Self>, _loc: LocalityId, _tag: u64, _len: u32) {}
    fn pwc_failed(
        eng: &mut Engine<Self>,
        loc: LocalityId,
        ctx: OpId,
        kind: OpKind,
        reason: NackReason,
        block: u64,
    ) {
        agas::ops::on_pwc_failed(eng, loc, ctx, kind, reason, block);
    }
    fn recv_complete(
        _eng: &mut Engine<Self>,
        _loc: LocalityId,
        _src: LocalityId,
        _tag: u64,
        _data: Vec<u8>,
    ) {
    }
    fn send_complete(_eng: &mut Engine<Self>, _loc: LocalityId, _send_id: u64) {}
    fn xlate_miss_local(eng: &mut Engine<Self>, loc: LocalityId, block: u64) {
        agas::ops::on_xlate_miss(eng, loc, block);
    }
    fn pwc_amo_complete(eng: &mut Engine<Self>, loc: LocalityId, ctx: OpId, result: AmoResult) {
        agas::ops::on_pwc_amo_complete(eng, loc, ctx, result);
    }
}

impl GasWorld for ShardWorld {
    fn gas(&mut self, loc: LocalityId) -> &mut GasLocal {
        &mut self.data.gas[loc as usize]
    }
    fn gas_ref(&self, loc: LocalityId) -> &GasLocal {
        &self.data.gas[loc as usize]
    }
    fn gas_mode(&self) -> GasMode {
        self.data.mode
    }
    fn pgas(&mut self) -> &mut PgasMap {
        &mut self.data.pgas
    }
    fn cpu(&mut self, loc: LocalityId) -> &mut ServerPool {
        &mut self.data.cpus[loc as usize]
    }
    fn wrap_gas(msg: GasMsg) -> ShardMsg {
        ShardMsg::Gas(msg)
    }
    fn gas_put_done(eng: &mut Engine<Self>, loc: LocalityId, ctx: OpId) {
        complete(eng, loc, ctx, Vec::new());
    }
    fn gas_get_done(eng: &mut Engine<Self>, loc: LocalityId, ctx: OpId, data: Vec<u8>) {
        complete(eng, loc, ctx, data);
    }
    fn gas_amo_done(eng: &mut Engine<Self>, loc: LocalityId, ctx: OpId, result: AmoResult) {
        complete(eng, loc, ctx, crate::world::encode_amo_result(&result));
    }
    fn gas_migrate_done(eng: &mut Engine<Self>, loc: LocalityId, ctx: OpId, block: u64) {
        complete(eng, loc, ctx, block.to_le_bytes().to_vec());
    }
    fn gas_free_done(eng: &mut Engine<Self>, loc: LocalityId, ctx: OpId, block: u64) {
        complete(eng, loc, ctx, block.to_le_bytes().to_vec());
    }
    fn gas_op_failed(
        eng: &mut Engine<Self>,
        loc: LocalityId,
        _ctx: OpId,
        _gva: Gva,
        _err: OpError,
    ) {
        eng.state.data.locs[loc as usize].op_failures += 1;
    }
}

impl RtWorld for ShardWorld {
    fn rt(&mut self, loc: LocalityId) -> &mut RtLocal {
        &mut self.data.rt[loc as usize]
    }
    fn rt_ref(&self, loc: LocalityId) -> &RtLocal {
        &self.data.rt[loc as usize]
    }
    fn rtcfg(&self) -> RtConfig {
        self.data.rtcfg
    }
    fn wrap_parcel(p: Parcel) -> ShardMsg {
        ShardMsg::Parcel(p)
    }
    fn wrap_batch(b: Vec<Parcel>) -> ShardMsg {
        ShardMsg::ParcelBatch(b)
    }
    fn run_action(eng: &mut Engine<Self>, id: ActionId, ctx: ActionCtx) {
        // The table is read-only after boot; copy the `fn` pointer out so
        // the call doesn't hold a borrow of the world.
        let f = eng.state.data.actions[id.0 as usize].1;
        f(eng, ctx);
    }
    fn notify_driver(eng: &mut Engine<Self>, loc: LocalityId, id: u64, value: Vec<u8>) {
        eng.state.data.locs[loc as usize].fired.push((id, value));
    }
}

// SAFETY: identical partitioning argument to `agas::SimWorld` — every
// mutable field is per-locality (`eps[loc]`, `gas[loc]`, `cpus[loc]`,
// `rt[loc]`, `locs[loc]`, plus the locality's NIC/memory/counters inside
// `cluster`), and an event delivered at `loc` only touches `loc`'s slice,
// which belongs to the executing lane: parcels execute at the locality
// that owns the pinned block, LCO sets apply at the LCO's home, driver
// notifications record at the LCO's home, and GAS completions fire at the
// initiating locality. The shared structures (`pgas`, `mode`, `rtcfg`,
// `actions`, cluster-wide config) are read-only at event time — actions
// and the PGAS map are populated during the drive phase, and sharded
// workloads must not issue runtime frees. Cross-locality effects travel
// exclusively as netsim messages, whose wire draws and fault counts
// belong to the sending locality.
unsafe impl SplitWorld for ShardWorld {
    fn lane_handle(&mut self, _lane: u32, _map: ShardMap) -> ShardWorld {
        ShardWorld {
            // SAFETY: `ShardedEngine` drops lane handles before the owner.
            data: unsafe { self.data.alias() },
        }
    }
}
