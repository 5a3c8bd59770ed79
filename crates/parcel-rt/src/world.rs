//! The simulated world: the GAS stack ([`agas::Stack`]) + runtime
//! schedulers, with all the protocol glue traits implemented. It is the
//! runtime's one world: the scheduler ([`crate::sched`]) and the LCO layer
//! ([`crate::lco`]) take `&mut Engine<World>` and reach its fields
//! directly. It runs on the sequential [`Engine`] only — actions are boxed
//! closures behind an `Rc` and driver callbacks capture `Rc`s.

use crate::lco::LcoState;
use crate::parcel::{ActionRegistry, Parcel};
use crate::sched::{self, PeerBatch};
use agas::{GasMsg, GasWorld, Stack};
use netsim::{
    AmoResult, Cluster, Engine, Envelope, LocalityId, NackReason, OpError, OpId, OpKind, OpTable,
    Packet, Protocol, RingConfig, Time,
};
use photon::{PhotonEndpoint, PhotonMsg, PhotonWorld};
use std::ops::{Deref, DerefMut};
use std::rc::Rc;

/// Marker for GAS operations that need no completion notification.
pub const NO_COMPLETION: OpId = OpId::NONE;

/// The Photon tag class parcels travel under on the ISIR transport.
pub const PARCEL_TAG: u64 = 0x5041_5243; // "PARC"

/// Which network backend carries parcels — HPX-5's `--hpx-network` knob.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// Photon put-with-completion semantics: parcels are delivered straight
    /// into pre-registered eager buffers with NIC-level completion (the
    /// default, and the backend the paper's design assumes).
    Pwc,
    /// ISIR (MPI-like) two-sided backend: parcels are serialized, sent
    /// through the tag-matching engine with eager/rendezvous protocol and
    /// credit flow control, matched against pre-posted receives, and
    /// copied out at the target.
    Isir,
}

/// Runtime (scheduler) tuning parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RtConfig {
    /// Parcel network backend.
    pub transport: Transport,
    /// Per-peer parcel batching (`None` sends every parcel immediately).
    /// PWC transport only: [`crate::RuntimeBuilder::boot`] refuses it with
    /// [`Transport::Isir`]. A parcel for another locality waits in that
    /// peer's batch, and each flush sends the whole batch as a single wire
    /// message — the message-aggregation optimization the AM++/HPX graph
    /// papers lean on. The flush rules are in [`crate::sched`]. Kept
    /// optional because `parcel_gups` and the coalescing experiments run
    /// both arms, and the benchmark's API surface binds the field.
    pub ring: Option<RingConfig>,
    /// Worker threads per locality (the CPU pool shared by actions and GAS
    /// software handlers).
    pub workers: usize,
    /// Fixed dispatch cost of running one action.
    pub action_base: Time,
    /// Per-argument-byte handling cost (ps/B).
    pub recv_per_byte_ps: u64,
    /// Cost of applying an LCO operation.
    pub lco_op: Time,
}

impl Default for RtConfig {
    fn default() -> RtConfig {
        RtConfig {
            transport: Transport::Pwc,
            ring: None,
            workers: 4,
            action_base: Time::from_ns(800),
            recv_per_byte_ps: 25,
            lco_op: Time::from_ns(300),
        }
    }
}

/// Per-locality runtime statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RtStats {
    /// Parcels injected from this locality.
    pub parcels_sent: u64,
    /// Actions executed here.
    pub parcels_executed: u64,
    /// Parcels forwarded onward (stale routing / migrated targets).
    pub parcels_forwarded: u64,
    /// LCO operations applied here.
    pub lco_ops: u64,
    /// Coalesced batches injected from this locality.
    pub batches_sent: u64,
    /// LCO sets dropped here because their LCO had already retired on
    /// delivery (a duplicated or late `ACTION_LCO_SET`).
    pub stale_lco_sets: u64,
}

impl RtStats {
    /// Merge another locality's statistics into this one (for
    /// cluster-wide totals).
    pub fn merge(&mut self, other: &RtStats) {
        self.parcels_sent += other.parcels_sent;
        self.parcels_executed += other.parcels_executed;
        self.parcels_forwarded += other.parcels_forwarded;
        self.lco_ops += other.lco_ops;
        self.batches_sent += other.batches_sent;
        self.stale_lco_sets += other.stale_lco_sets;
    }
}

/// Per-locality runtime state.
pub struct RtLocal {
    /// Live LCOs homed here; an LCO's address packs its slot and
    /// generation (see [`crate::lco`]).
    pub lcos: OpTable<LcoState>,
    /// Statistics.
    pub stats: RtStats,
    /// Per-action profile, indexed by action id: (executions, CPU time
    /// charged) — the APEX-style instrumentation HPX-5 shipped. Grows to
    /// the highest id executed here.
    pub action_profile: Vec<(u64, Time)>,
    /// Per-peer parcel batches, indexed by peer; grows to the highest peer
    /// a parcel waited for, and stays empty unless [`RtConfig::ring`] is set.
    pub(crate) batches: Vec<PeerBatch>,
}

/// Parcel-batching counts of one locality. Its doorbells are
/// [`RtStats::batches_sent`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RingStats {
    /// Parcels that left in batches.
    pub descs: u64,
}

impl RtLocal {
    pub(crate) fn new() -> RtLocal {
        RtLocal {
            lcos: OpTable::new(),
            stats: RtStats::default(),
            action_profile: Vec::new(),
            batches: Vec::new(),
        }
    }

    /// This locality's parcel-batching counts.
    pub fn ring_stats(&self) -> RingStats {
        RingStats {
            descs: self.batches.iter().map(PeerBatch::sent).sum(),
        }
    }
}

/// The wire message enum: everything that travels between localities.
#[derive(Debug)]
pub enum Msg {
    /// Photon middleware control.
    Photon(PhotonMsg),
    /// GAS protocol (software accesses, directory, migration).
    Gas(GasMsg),
    /// Application parcels.
    Parcel(Parcel),
    /// A coalesced batch of parcels for one destination.
    ParcelBatch(Vec<Parcel>),
}

/// A driver callback invoked with an operation's result bytes.
pub type DriverCb = Box<dyn FnOnce(&mut Engine<World>, Vec<u8>)>;

/// What to do when a GAS operation completes.
pub enum Completion {
    /// Set this LCO with the operation's result.
    Lco(agas::Gva),
    /// Invoke a driver callback with the result.
    Driver(DriverCb),
}

/// The complete simulated world. It derefs to its [`Stack`], so
/// `world.eps` and [`Stack::locate`] read through; library code names
/// `world.stack` for split borrows.
pub struct World {
    /// The GAS stack; its CPU pools run the actions too.
    pub stack: Stack,
    /// Runtime state, one per locality.
    pub rt: Vec<RtLocal>,
    /// Runtime tuning.
    pub rtcfg: RtConfig,
    /// The (shared) action table.
    pub registry: Rc<ActionRegistry>,
    /// Load-balancer service statistics.
    pub balancer_stats: crate::balancer::BalancerStats,
    /// GAS operations that failed terminally (deadline exceeded, retries
    /// exhausted): `(completion handle, target GVA, error)`. Drivers and
    /// tests inspect this to distinguish recovery from silent loss.
    pub op_failures: Vec<(OpId, agas::Gva, OpError)>,
    /// Completions/failures naming an unknown or already-fired handle.
    pub stale_completions: u64,
    /// ISIR parcels discarded because their checksum failed (corrupted in
    /// flight by the fault plane).
    pub corrupt_parcels: u64,
    pub(crate) completions: OpTable<Completion>,
    /// Driver callbacks waiting on an LCO, keyed by the handle the LCO's
    /// waiter holds.
    pub(crate) driver_cbs: OpTable<DriverCb>,
}

impl World {
    /// Assemble a world. Most callers use [`crate::rt::RuntimeBuilder`].
    pub fn new(stack: Stack, rtcfg: RtConfig, registry: ActionRegistry) -> World {
        World {
            rt: (0..stack.n_localities()).map(|_| RtLocal::new()).collect(),
            stack,
            rtcfg,
            registry: Rc::new(registry),
            balancer_stats: crate::balancer::BalancerStats::default(),
            op_failures: Vec::new(),
            stale_completions: 0,
            corrupt_parcels: 0,
            completions: OpTable::new(),
            driver_cbs: OpTable::new(),
        }
    }

    /// Register a completion, returning the typed handle to pass to a GAS
    /// op. The handle is generational: a stale or duplicate firing is
    /// counted and dropped rather than corrupting a reused slot.
    pub fn new_completion(&mut self, c: Completion) -> OpId {
        self.completions.insert(c)
    }

    /// Driver callbacks still waiting for their LCO to fire.
    pub fn live_driver_slots(&self) -> usize {
        self.driver_cbs.len()
    }

    /// Look up a registered action id by name.
    pub fn registry_lookup(&self, name: &str) -> Option<crate::parcel::ActionId> {
        (0..self.registry.len() as u32)
            .map(crate::parcel::ActionId)
            .find(|&id| self.registry.name(id) == name)
    }

    /// Aggregate per-action profile across localities:
    /// `(name, executions, cpu time)` sorted by cpu time, heaviest first.
    pub fn action_profile(&self) -> Vec<(String, u64, Time)> {
        let mut agg = vec![(0u64, Time::ZERO); self.registry.len()];
        for r in &self.rt {
            for (e, &(n, t)) in agg.iter_mut().zip(&r.action_profile) {
                e.0 += n;
                e.1 += t;
            }
        }
        let mut out: Vec<(String, u64, Time)> = (0u32..)
            .zip(agg)
            .filter(|&(_, (n, _))| n > 0)
            .map(|(id, (n, t))| {
                let name = self.registry.name(crate::parcel::ActionId(id));
                (name.to_string(), n, t)
            })
            .collect();
        out.sort_by_key(|&(_, _, t)| std::cmp::Reverse(t));
        out
    }

    /// Aggregate runtime stats across localities.
    pub fn total_rt_stats(&self) -> RtStats {
        let mut total = RtStats::default();
        for r in &self.rt {
            total.merge(&r.stats);
        }
        total
    }
}

impl Deref for World {
    type Target = Stack;
    fn deref(&self) -> &Stack {
        &self.stack
    }
}

impl DerefMut for World {
    fn deref_mut(&mut self) -> &mut Stack {
        &mut self.stack
    }
}

/// Fire a registered completion: every GAS completion lands here, and
/// driver utilities that bridge LCO waits into completion ctxs call it by
/// hand.
pub fn fire_completion(eng: &mut Engine<World>, ctx: OpId, data: Vec<u8>) {
    if ctx.is_none() {
        return;
    }
    match eng.state.completions.remove(ctx) {
        Ok(Completion::Lco(lco)) => {
            // Completion fires at the LCO's home directly; the op's network
            // round trip already paid the latency.
            crate::lco::lco_set(eng, lco.home(), lco, data);
        }
        Ok(Completion::Driver(cb)) => cb(eng, data),
        // Fired twice, or after a terminal failure reclaimed the handle:
        // the generation check catches it; count and drop.
        Err(_) => eng.state.stale_completions += 1,
    }
}

impl Protocol for World {
    type Msg = Msg;
    fn cluster(&mut self) -> &mut Cluster {
        &mut self.stack.cluster
    }
    fn cluster_ref(&self) -> &Cluster {
        &self.cluster
    }
    fn deliver(eng: &mut Engine<Self>, env: Envelope<Msg>) {
        match env.packet {
            Packet::User(Msg::Photon(p)) => photon::handle_msg(eng, env.src, env.dst, p),
            Packet::User(Msg::Gas(g)) => agas::ops::handle_msg(eng, env.src, env.dst, g),
            Packet::User(Msg::Parcel(p)) => sched::parcel_arrive(eng, env.src, env.dst, p),
            Packet::User(Msg::ParcelBatch(batch)) => {
                for p in batch {
                    sched::parcel_arrive(eng, env.src, env.dst, p);
                }
            }
            other => photon::handle_completion(eng, env.src, env.dst, other),
        }
    }
}

impl PhotonWorld for World {
    fn endpoint(&mut self, loc: LocalityId) -> &mut PhotonEndpoint {
        &mut self.stack.eps[loc as usize]
    }
    fn wrap(msg: PhotonMsg) -> Msg {
        Msg::Photon(msg)
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
        eng: &mut Engine<Self>,
        loc: LocalityId,
        src: LocalityId,
        tag: u64,
        data: Vec<u8>,
    ) {
        if tag == PARCEL_TAG {
            debug_assert_eq!(eng.state.rtcfg.transport, Transport::Isir);
            // Re-arm the matching engine, then hand the parcel on.
            photon::post_recv(eng, loc, PARCEL_TAG);
            match Parcel::try_decode(&data) {
                Some(parcel) => sched::parcel_arrive(eng, src, loc, parcel),
                // Corrupted in flight: a real transport would drop the
                // frame at the CRC; count it so chaos runs prove the
                // checksum is live.
                None => eng.state.corrupt_parcels += 1,
            }
        }
        // Other tags: raw two-sided traffic driven by benchmark/driver
        // code through the photon API; nothing for the runtime to do.
    }
    fn send_complete(_eng: &mut Engine<Self>, _loc: LocalityId, _send_id: u64) {}
    fn xlate_miss_local(eng: &mut Engine<Self>, loc: LocalityId, block: u64) {
        agas::ops::on_xlate_miss(eng, loc, block);
    }
    fn pwc_amo_complete(eng: &mut Engine<Self>, loc: LocalityId, ctx: OpId, result: AmoResult) {
        agas::ops::on_pwc_amo_complete(eng, loc, ctx, result);
    }
}

/// Decode completion bytes produced by [`encode_amo_result`]. Panics on a
/// malformed buffer — completions are generated in-process, never by the
/// (faultable) wire.
pub fn decode_amo_result(data: &[u8]) -> AmoResult {
    let old = u64::from_le_bytes(data[..8].try_into().unwrap());
    let applied = data[8] != 0;
    let values = data[9..]
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    AmoResult {
        old,
        applied,
        values,
    }
}

/// Wire an [`AmoResult`] into completion bytes: `old` (8 LE bytes),
/// `applied` (1 byte), then each gathered value (8 LE bytes apiece).
pub fn encode_amo_result(result: &AmoResult) -> Vec<u8> {
    let mut out = Vec::with_capacity(9 + 8 * result.values.len());
    out.extend_from_slice(&result.old.to_le_bytes());
    out.push(u8::from(result.applied));
    for v in &result.values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

impl GasWorld for World {
    fn stack(&self) -> &Stack {
        &self.stack
    }
    fn stack_mut(&mut self) -> &mut Stack {
        &mut self.stack
    }
    fn wrap_gas(msg: GasMsg) -> Msg {
        Msg::Gas(msg)
    }
    fn gas_put_done(eng: &mut Engine<Self>, _loc: LocalityId, ctx: OpId) {
        fire_completion(eng, ctx, Vec::new());
    }
    fn gas_get_done(eng: &mut Engine<Self>, _loc: LocalityId, ctx: OpId, data: Vec<u8>) {
        fire_completion(eng, ctx, data);
    }
    fn gas_migrate_done(eng: &mut Engine<Self>, _loc: LocalityId, ctx: OpId, block: u64) {
        fire_completion(eng, ctx, block.to_le_bytes().to_vec());
    }
    fn gas_amo_done(eng: &mut Engine<Self>, _loc: LocalityId, ctx: OpId, result: AmoResult) {
        fire_completion(eng, ctx, encode_amo_result(&result));
    }
    fn gas_free_done(eng: &mut Engine<Self>, _loc: LocalityId, ctx: OpId, block: u64) {
        fire_completion(eng, ctx, block.to_le_bytes().to_vec());
    }
    fn gas_op_failed(
        eng: &mut Engine<Self>,
        _loc: LocalityId,
        ctx: OpId,
        gva: agas::Gva,
        err: OpError,
    ) {
        // The operation will never produce data: retire its completion so
        // quiescence does not report a phantom leak, and record the typed
        // failure for the driver.
        if !ctx.is_none() {
            let _ = eng.state.completions.remove(ctx);
        }
        eng.state.op_failures.push((ctx, gva, err));
    }
}
