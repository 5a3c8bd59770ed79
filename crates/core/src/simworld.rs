//! A `Send` world for the full photon + GAS stack, runnable on both the
//! sequential [`Engine`] and the sharded
//! [`ShardedEngine`](netsim::ShardedEngine).
//!
//! This is the GAS world the protocol tests, the golden trace pins and the
//! parallel benchmarks all run on. Every driver-visible observation —
//! completion events, audit expectations, mismatch counters — lives in a
//! *per-locality* record that only the owning lane touches, so a program
//! schedules the same `(time, key)` events and lands on the same trace
//! hash on either engine. Drivers read completions through
//! [`SimWorld::events`], or [`SimWorld::drain_events`] when they react to
//! each one as it arrives.
//!
//! It also carries the self-pumping GUPS load generator used by the
//! parallel-scaling benchmark: each locality holds a private RNG and an
//! op budget, and every put completion immediately issues the next
//! random-block put from the completing locality. The pump keeps every
//! lane saturated without any drive-phase serialization, which is what
//! makes the sharded speedup measurable.

use crate::check::{check_blocks, check_history, Violation};
use crate::{GasConfig, GasLocal, GasMode, GasMsg, GasStats, GasWorld, Gva, PgasMap};
use netsim::rng::Xoshiro256;
use netsim::shard::ShardMap;
use netsim::{
    AmoOp, AmoResult, Cluster, Counters, Engine, Envelope, LocalityId, NackReason, NetConfig,
    OpError, OpId, OpKind, Packet, Protocol, ServerPool, SharedState, SplitWorld, Time,
};
use photon::{PhotonConfig, PhotonEndpoint, PhotonMsg, PhotonWorld};
use std::collections::HashMap;

/// Wire message: photon control or GAS protocol traffic.
#[derive(Debug)]
pub enum SimMsg {
    /// Photon middleware traffic.
    Photon(PhotonMsg),
    /// GAS protocol traffic.
    Gas(GasMsg),
}

/// A driver-visible completion event.
#[derive(Debug, Clone, PartialEq)]
pub enum SimEv {
    /// `memput` completed (ctx bits).
    PutDone(u64),
    /// `memget` completed with its data.
    GetDone(u64, Vec<u8>),
    /// Migration committed: `(ctx bits, block key)`.
    MigDone(u64, u64),
    /// Runtime free committed: `(ctx bits, block key)`.
    FreeDone(u64, u64),
    /// Active operation completed: `(ctx bits, NIC-reported result)`.
    AmoDone(u64, AmoResult),
    /// Terminal failure: `(ctx bits, rendered error)`.
    OpFailed(u64, String),
}

/// Per-locality GUPS pump state: a private RNG and an op budget.
#[derive(Debug)]
pub struct GupsPump {
    /// Puts this locality may still issue.
    pub remaining: u64,
    /// Completions observed (pump-issued puts only).
    pub completed: u64,
    rng: Xoshiro256,
    next_op: u64,
}

/// Which AMO workload an [`AmoPump`] drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AmoPumpKind {
    /// Contended fetch-and-add: every op is a `FetchAdd { operand: 1 }`
    /// on a random hot word.
    FetchAdd,
    /// CAS-increment loop: atomic read (`FetchAdd { operand: 0 }`), then
    /// compare-and-swap `old → old + 1`, retrying with the observed value
    /// until the swap lands.
    CasRetry,
}

/// Per-locality AMO load generator: a private RNG, an op budget, and —
/// for the CAS workload — the in-flight retry state.
#[derive(Debug)]
pub struct AmoPump {
    /// Logical ops this locality may still start.
    pub remaining: u64,
    /// Logical ops finished (for CAS, a landed swap).
    pub completed: u64,
    /// CAS attempts that lost the race and were re-issued.
    pub cas_retries: u64,
    kind: AmoPumpKind,
    /// CAS workload phase: `(target word, in-CAS-phase)`; `None` between
    /// logical ops.
    cas: Option<(Gva, bool)>,
    rng: Xoshiro256,
    next_op: u64,
}

/// The slice of driver state owned by one locality — and therefore by one
/// shard lane.
#[derive(Default)]
pub struct SimLoc {
    /// Completion events observed here (only when
    /// [`SimData::record_events`] is on).
    pub events: Vec<(Time, SimEv)>,
    /// Put completions delivered here.
    pub put_acks: u64,
    /// Get completions delivered here.
    pub get_acks: u64,
    /// Migration completions delivered here.
    pub migration_acks: u64,
    /// Active-operation completions delivered here.
    pub amo_acks: u64,
    /// Terminal op failures delivered here.
    pub op_failures: u64,
    /// Audited gets whose data was neither zeros nor the registered value.
    pub data_mismatches: u64,
    /// Audit registry: ctx bits → the slot's one legal non-zero value,
    /// consumed by the get completion.
    pub expect: HashMap<u64, u64>,
    /// The self-pumping GUPS load generator, when armed.
    pub pump: Option<GupsPump>,
    /// The self-pumping AMO load generator, when armed.
    pub amo_pump: Option<AmoPump>,
}

/// The backing storage of a [`SimWorld`]; lanes alias it via
/// [`SharedState`].
pub struct SimData {
    /// The simulated cluster.
    pub cluster: Cluster,
    /// Per-locality photon endpoints.
    pub eps: Vec<PhotonEndpoint>,
    /// Per-locality GAS state.
    pub gas: Vec<GasLocal>,
    /// Per-locality CPU worker pools.
    pub cpus: Vec<ServerPool>,
    /// The PGAS initiators' address table (written only at allocation and
    /// runtime free).
    pub pgas: PgasMap,
    /// The active GAS mode.
    pub mode: GasMode,
    /// Whether completions append to [`SimLoc::events`] (off for long
    /// benchmark runs to avoid unbounded logs).
    pub record_events: bool,
    /// Blocks the GUPS pump targets (read-only at event time).
    pub pump_blocks: Vec<Gva>,
    /// Per-locality driver records.
    pub locs: Vec<SimLoc>,
}

/// The world handle: owner on the control engine, alias on each lane.
pub struct SimWorld {
    /// Shared backing storage.
    pub data: SharedState<SimData>,
}

impl SimWorld {
    /// Build a world with the integration suite's construction defaults:
    /// 256 MiB arenas (reserved address space, backed as written),
    /// default photon/GAS configs, two CPU workers per locality.
    pub fn new(n: usize, mode: GasMode, net: NetConfig) -> SimWorld {
        SimWorld {
            data: SharedState::new(SimData {
                cluster: Cluster::new(n, mode.net(net), 1 << 28),
                eps: (0..n)
                    .map(|_| PhotonEndpoint::new(PhotonConfig::default()))
                    .collect(),
                gas: (0..n)
                    .map(|_| GasLocal::new(GasConfig::default()))
                    .collect(),
                cpus: (0..n).map(|_| ServerPool::new(2)).collect(),
                pgas: PgasMap::new(),
                mode,
                record_events: true,
                pump_blocks: Vec::new(),
                locs: (0..n).map(|_| SimLoc::default()).collect(),
            }),
        }
    }

    /// Install the block set the GUPS pump draws targets from.
    pub fn set_pump_blocks(&mut self, blocks: Vec<Gva>) {
        self.data.pump_blocks = blocks;
    }

    /// Arm the self-pumping GUPS generator on `loc` with `budget` puts.
    pub fn arm_gups(&mut self, loc: LocalityId, budget: u64, seed: u64) {
        self.data.locs[loc as usize].pump = Some(GupsPump {
            remaining: budget,
            completed: 0,
            rng: Xoshiro256::seed_from_u64(seed ^ (u64::from(loc) << 32)),
            next_op: 0,
        });
    }

    /// Kick the pump on `loc`: issue its first put (subsequent puts chain
    /// off completions). Call through `drive_at(loc, ..)` when sharded.
    pub fn pump_prime(eng: &mut Engine<SimWorld>, loc: LocalityId) {
        pump_next(eng, loc);
    }

    /// Arm the self-pumping AMO generator on `loc` with `budget` logical
    /// ops of the given kind.
    pub fn arm_amo(&mut self, loc: LocalityId, kind: AmoPumpKind, budget: u64, seed: u64) {
        self.data.locs[loc as usize].amo_pump = Some(AmoPump {
            remaining: budget,
            completed: 0,
            cas_retries: 0,
            kind,
            cas: None,
            rng: Xoshiro256::seed_from_u64(seed ^ 0x05ee_da40 ^ (u64::from(loc) << 32)),
            next_op: 0,
        });
    }

    /// Kick the AMO pump on `loc`: start its first logical op.
    pub fn amo_pump_prime(eng: &mut Engine<SimWorld>, loc: LocalityId) {
        amo_pump_start(eng, loc);
    }

    /// Register the one legal non-zero value for an audited get.
    pub fn expect_value(&mut self, loc: LocalityId, ctx: OpId, value: u64) {
        self.data.locs[loc as usize].expect.insert(ctx.raw(), value);
    }

    /// Every per-locality event log merged into one list, ordered by time
    /// and then locality; the logs stay as they are.
    pub fn events(&self) -> Vec<(Time, LocalityId, SimEv)> {
        let mut out: Vec<_> = (0..)
            .zip(&self.data.locs)
            .flat_map(|(l, sl)| sl.events.iter().map(move |(t, ev)| (*t, l, ev.clone())))
            .collect();
        out.sort_by_key(|&(t, l, _)| (t, l));
        out
    }

    /// [`SimWorld::events`], emptying the logs: what a driver that reacts
    /// to completions as they arrive reads after each step.
    pub fn drain_events(&mut self) -> Vec<(Time, LocalityId, SimEv)> {
        let out = self.events();
        self.data.locs.iter_mut().for_each(|sl| sl.events.clear());
        out
    }

    /// Sum of a per-locality counter over all localities.
    fn total(&self, f: impl Fn(&SimLoc) -> u64) -> u64 {
        self.data.locs.iter().map(f).sum()
    }

    /// Put completions across the cluster.
    pub fn put_acks(&self) -> u64 {
        self.total(|l| l.put_acks)
    }

    /// Get completions across the cluster.
    pub fn get_acks(&self) -> u64 {
        self.total(|l| l.get_acks)
    }

    /// Migration completions across the cluster.
    pub fn migration_acks(&self) -> u64 {
        self.total(|l| l.migration_acks)
    }

    /// Terminal op failures across the cluster.
    pub fn op_failures(&self) -> u64 {
        self.total(|l| l.op_failures)
    }

    /// Audited-get mismatches across the cluster.
    pub fn data_mismatches(&self) -> u64 {
        self.total(|l| l.data_mismatches)
    }

    /// GUPS pump completions across the cluster.
    pub fn pump_completed(&self) -> u64 {
        self.total(|l| l.pump.as_ref().map_or(0, |p| p.completed))
    }

    /// Active-operation completions across the cluster.
    pub fn amo_acks(&self) -> u64 {
        self.total(|l| l.amo_acks)
    }

    /// AMO pump logical ops finished across the cluster.
    pub fn amo_pump_completed(&self) -> u64 {
        self.total(|l| l.amo_pump.as_ref().map_or(0, |p| p.completed))
    }

    /// CAS attempts that lost the race, across the cluster.
    pub fn amo_cas_retries(&self) -> u64 {
        self.total(|l| l.amo_pump.as_ref().map_or(0, |p| p.cas_retries))
    }

    /// Aggregate GAS stats across localities.
    pub fn total_gas_stats(&self) -> GasStats {
        let mut total = GasStats::default();
        for g in &self.data.gas {
            total.merge(&g.stats);
        }
        total
    }

    /// Aggregate NIC/network counters across localities.
    pub fn total_counters(&self) -> Counters {
        self.data.cluster.total_counters()
    }

    /// Structural + serializability violations over `blocks` (delegates to
    /// [`crate::check`]).
    pub fn violations(&self, blocks: &[Gva]) -> Vec<Violation> {
        let mut v = check_blocks(self, blocks);
        v.extend(check_history(self));
        v
    }
}

impl Protocol for SimWorld {
    type Msg = SimMsg;

    fn cluster(&mut self) -> &mut Cluster {
        &mut self.data.cluster
    }

    fn cluster_ref(&self) -> &Cluster {
        &self.data.cluster
    }

    fn deliver(eng: &mut Engine<Self>, env: Envelope<SimMsg>) {
        match env.packet {
            Packet::User(SimMsg::Photon(p)) => photon::handle_msg(eng, env.src, env.dst, p),
            Packet::User(SimMsg::Gas(g)) => crate::ops::handle_msg(eng, env.src, env.dst, g),
            other => photon::handle_completion(eng, env.src, env.dst, other),
        }
    }
}

impl PhotonWorld for SimWorld {
    fn endpoint(&mut self, loc: LocalityId) -> &mut PhotonEndpoint {
        &mut self.data.eps[loc as usize]
    }
    fn wrap(msg: PhotonMsg) -> SimMsg {
        SimMsg::Photon(msg)
    }
    fn pwc_complete(eng: &mut Engine<Self>, loc: LocalityId, ctx: OpId) {
        crate::ops::on_pwc_complete(eng, loc, ctx);
    }
    fn pwc_redirected(
        eng: &mut Engine<Self>,
        loc: LocalityId,
        ctx: OpId,
        owner: LocalityId,
        generation: u32,
    ) {
        crate::ops::on_pwc_redirected(eng, loc, ctx, owner, generation);
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
        crate::ops::on_pwc_failed(eng, loc, ctx, kind, reason, block);
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
        crate::ops::on_xlate_miss(eng, loc, block);
    }
    fn pwc_amo_complete(eng: &mut Engine<Self>, loc: LocalityId, ctx: OpId, result: AmoResult) {
        crate::ops::on_pwc_amo_complete(eng, loc, ctx, result);
    }
}

impl GasWorld for SimWorld {
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
    fn wrap_gas(msg: GasMsg) -> SimMsg {
        SimMsg::Gas(msg)
    }

    fn gas_put_done(eng: &mut Engine<Self>, loc: LocalityId, ctx: OpId) {
        let now = eng.now();
        let d = &mut *eng.state.data;
        let record = d.record_events;
        let sl = &mut d.locs[loc as usize];
        sl.put_acks += 1;
        if record {
            sl.events.push((now, SimEv::PutDone(ctx.raw())));
        }
        if sl.pump.is_some() {
            if let Some(p) = sl.pump.as_mut() {
                p.completed += 1;
            }
            pump_next(eng, loc);
        }
    }

    fn gas_get_done(eng: &mut Engine<Self>, loc: LocalityId, ctx: OpId, data: Vec<u8>) {
        let now = eng.now();
        let d = &mut *eng.state.data;
        let record = d.record_events;
        let sl = &mut d.locs[loc as usize];
        sl.get_acks += 1;
        if let Some(expect) = sl.expect.remove(&ctx.raw()) {
            let got = u64::from_le_bytes(data[..8].try_into().expect("audited get ≥ 8 bytes"));
            if got != 0 && got != expect {
                sl.data_mismatches += 1;
            }
        }
        if record {
            sl.events.push((now, SimEv::GetDone(ctx.raw(), data)));
        }
    }

    fn gas_migrate_done(eng: &mut Engine<Self>, loc: LocalityId, ctx: OpId, block: u64) {
        let now = eng.now();
        let d = &mut *eng.state.data;
        let record = d.record_events;
        let sl = &mut d.locs[loc as usize];
        sl.migration_acks += 1;
        if record {
            sl.events.push((now, SimEv::MigDone(ctx.raw(), block)));
        }
    }

    fn gas_free_done(eng: &mut Engine<Self>, loc: LocalityId, ctx: OpId, block: u64) {
        let now = eng.now();
        let d = &mut *eng.state.data;
        let record = d.record_events;
        let sl = &mut d.locs[loc as usize];
        if record {
            sl.events.push((now, SimEv::FreeDone(ctx.raw(), block)));
        }
    }

    fn gas_amo_done(eng: &mut Engine<Self>, loc: LocalityId, ctx: OpId, result: AmoResult) {
        let now = eng.now();
        let d = &mut *eng.state.data;
        let record = d.record_events;
        let sl = &mut d.locs[loc as usize];
        sl.amo_acks += 1;
        if record {
            sl.events
                .push((now, SimEv::AmoDone(ctx.raw(), result.clone())));
        }
        if sl.amo_pump.is_some() {
            amo_pump_advance(eng, loc, result);
        }
    }

    fn gas_op_failed(eng: &mut Engine<Self>, loc: LocalityId, ctx: OpId, _gva: Gva, err: OpError) {
        let now = eng.now();
        let d = &mut *eng.state.data;
        let record = d.record_events;
        let sl = &mut d.locs[loc as usize];
        sl.op_failures += 1;
        sl.expect.remove(&ctx.raw());
        if record {
            sl.events
                .push((now, SimEv::OpFailed(ctx.raw(), err.to_string())));
        }
        let had_pump = sl.pump.is_some();
        // A terminally-failed AMO abandons its logical op; start the next.
        let had_amo = if let Some(p) = sl.amo_pump.as_mut() {
            p.cas = None;
            true
        } else {
            false
        };
        // A failed pump put still owes the chain its continuation.
        if had_pump {
            pump_next(eng, loc);
        }
        if had_amo {
            amo_pump_start(eng, loc);
        }
    }
}

/// Issue the next pump put from `loc`, if budget remains. Draws target
/// block, offset, and value from the locality's private RNG — all state
/// owned by `loc`'s lane, so the pump is lane-safe and its draw order is
/// fixed by the (deterministic) per-locality completion order.
fn pump_next(eng: &mut Engine<SimWorld>, loc: LocalityId) {
    let d = &mut *eng.state.data;
    let nblocks = d.pump_blocks.len() as u64;
    let Some(p) = d.locs[loc as usize].pump.as_mut() else {
        return;
    };
    if p.remaining == 0 || nblocks == 0 {
        return;
    }
    p.remaining -= 1;
    let r = p.rng.next_u64();
    let op = p.next_op;
    p.next_op += 1;
    let base = d.pump_blocks[(r % nblocks) as usize];
    let slots = base.block_size() / 8;
    let gva = base.with_offset(((r >> 32) % slots) * 8);
    // Correlation token namespaced by locality so ctxs never collide.
    let ctx = OpId::from_raw((u64::from(loc) << 40) | op);
    crate::ops::memput(eng, loc, gva, r.to_le_bytes().to_vec(), ctx);
}

/// Contended-word count per pump block: AMO traffic stays in the first
/// eight words (offsets `0..64`), the convention that keeps AMO words
/// disjoint from put/get byte slots.
const AMO_PUMP_WORDS: u64 = 8;

/// Start the AMO pump's next logical op from `loc`, if budget remains.
/// Fetch-add ops issue directly; CAS ops open with an atomic read
/// (`FetchAdd { operand: 0 }`) to learn the word's current value.
fn amo_pump_start(eng: &mut Engine<SimWorld>, loc: LocalityId) {
    let d = &mut *eng.state.data;
    let nblocks = d.pump_blocks.len() as u64;
    let Some(p) = d.locs[loc as usize].amo_pump.as_mut() else {
        return;
    };
    if p.remaining == 0 || nblocks == 0 {
        return;
    }
    p.remaining -= 1;
    let r = p.rng.next_u64();
    let kind = p.kind;
    let ctx = amo_pump_ctx(loc, p);
    let base = d.pump_blocks[(r % nblocks) as usize];
    let words = (base.block_size() / 8).min(AMO_PUMP_WORDS);
    let gva = base.with_offset(((r >> 32) % words) * 8);
    let (amo, cas) = match kind {
        AmoPumpKind::FetchAdd => (AmoOp::FetchAdd { operand: 1 }, None),
        AmoPumpKind::CasRetry => (AmoOp::FetchAdd { operand: 0 }, Some((gva, false))),
    };
    if let Some(p) = d.locs[loc as usize].amo_pump.as_mut() {
        p.cas = cas;
    }
    crate::ops::memamo(eng, loc, gva, amo, ctx);
}

/// Feed an AMO completion back into the pump: count finished fetch-adds,
/// walk the CAS read → swap → retry state machine, and keep the chain
/// saturated.
fn amo_pump_advance(eng: &mut Engine<SimWorld>, loc: LocalityId, result: AmoResult) {
    let d = &mut *eng.state.data;
    let Some(p) = d.locs[loc as usize].amo_pump.as_mut() else {
        return;
    };
    match (p.kind, p.cas) {
        (AmoPumpKind::FetchAdd, _) => {
            p.completed += 1;
            amo_pump_start(eng, loc);
        }
        // The opening read came back: try to swap `old → old + 1`.
        (AmoPumpKind::CasRetry, Some((gva, false))) => {
            p.cas = Some((gva, true));
            let amo = AmoOp::CompareSwap {
                expected: result.old,
                desired: result.old.wrapping_add(1),
            };
            let ctx = amo_pump_ctx(loc, p);
            crate::ops::memamo(eng, loc, gva, amo, ctx);
        }
        (AmoPumpKind::CasRetry, Some((gva, true))) => {
            if result.applied {
                p.completed += 1;
                p.cas = None;
                amo_pump_start(eng, loc);
            } else {
                // Lost the race; the NACK carries the fresh value, so retry
                // against it directly.
                p.cas_retries += 1;
                let amo = AmoOp::CompareSwap {
                    expected: result.old,
                    desired: result.old.wrapping_add(1),
                };
                let ctx = amo_pump_ctx(loc, p);
                crate::ops::memamo(eng, loc, gva, amo, ctx);
            }
        }
        // A completion with no CAS in flight: a stale chain link; restart.
        (AmoPumpKind::CasRetry, None) => amo_pump_start(eng, loc),
    }
}

/// Correlation token for pump-issued AMOs: namespaced by locality, with
/// bit 39 set so GUPS-pump ctxs can never collide.
fn amo_pump_ctx(loc: LocalityId, p: &mut AmoPump) -> OpId {
    let op = p.next_op;
    p.next_op += 1;
    OpId::from_raw((u64::from(loc) << 40) | (1 << 39) | op)
}

// SAFETY: the protocol stack above netsim partitions its mutable state by
// locality — `eps[loc]`, `gas[loc]`, `cpus[loc]`, `locs[loc]`, and the
// locality's NIC/memory/counters inside `cluster` — and an event delivered
// at `loc` only touches `loc`'s slice, which belongs to the executing
// lane. The shared structures (`pgas`, `pump_blocks`, `mode`,
// `record_events`, the cluster-wide config) are read-only at event time:
// `pgas` is written at allocation (drive phase) and at a runtime free (an
// event at the block's serving home), and sharded workloads must not
// issue runtime frees; every other access reads it at a PGAS initiator. The wire is
// the sender's: netsim keys each message's jitter and fault draws by its
// sending locality and counts fault verdicts there, events only read the
// fault plane, and `ShardedEngine::new` keeps an oversubscribed switch
// core on one lane. Event closures capture only owned buffers and `Copy`
// data.
unsafe impl SplitWorld for SimWorld {
    fn lane_handle(&mut self, _lane: u32, _map: ShardMap) -> SimWorld {
        SimWorld {
            // SAFETY: `ShardedEngine` drops lane handles before the owner.
            data: unsafe { self.data.alias() },
        }
    }
}
