//! A minimal world embedding cluster + photon + gas, shared by the
//! protocol-level integration tests.

use agas::{GasConfig, GasLocal, GasMode, GasMsg, GasWorld, PgasMap};
use netsim::{
    AmoResult, Cluster, Engine, Envelope, LocalityId, NackReason, NetConfig, OpError, OpId, OpKind,
    Packet, Protocol, ServerPool, Time,
};
use photon::{PhotonConfig, PhotonEndpoint, PhotonMsg, PhotonWorld};

#[derive(Debug)]
pub enum Msg {
    Photon(PhotonMsg),
    Gas(GasMsg),
}

#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::enum_variant_names)]
pub enum Ev {
    PutDone(u64),
    GetDone(u64, Vec<u8>),
    MigDone(u64, u64),
    FreeDone(u64, u64),
    /// An active operation completed: `(ctx bits, NIC-reported result)`.
    AmoDone(u64, AmoResult),
    /// A terminal op failure: `(ctx bits, rendered OpError)`.
    OpFailed(u64, String),
}

pub struct World {
    pub cluster: Cluster,
    pub eps: Vec<PhotonEndpoint>,
    pub gas: Vec<GasLocal>,
    pub cpus: Vec<ServerPool>,
    pub pgas: PgasMap,
    pub mode: GasMode,
    pub events: Vec<(Time, LocalityId, Ev)>,
}

impl World {
    pub fn new(n: usize, mode: GasMode, net: NetConfig) -> World {
        World {
            cluster: Cluster::new(n, net, 1 << 28),
            eps: (0..n)
                .map(|_| PhotonEndpoint::new(PhotonConfig::default()))
                .collect(),
            gas: (0..n)
                .map(|_| GasLocal::new(GasConfig::default()))
                .collect(),
            cpus: (0..n).map(|_| ServerPool::new(2)).collect(),
            pgas: PgasMap::new(),
            mode,
            events: Vec::new(),
        }
    }
}

impl Protocol for World {
    type Msg = Msg;
    fn cluster(&mut self) -> &mut Cluster {
        &mut self.cluster
    }
    fn cluster_ref(&self) -> &Cluster {
        &self.cluster
    }
    fn deliver(eng: &mut Engine<Self>, env: Envelope<Msg>) {
        match env.packet {
            Packet::User(Msg::Photon(p)) => photon::handle_msg(eng, env.src, env.dst, p),
            Packet::User(Msg::Gas(g)) => agas::ops::handle_msg(eng, env.src, env.dst, g),
            other => photon::handle_completion(eng, env.src, env.dst, other),
        }
    }
}

impl PhotonWorld for World {
    fn endpoint(&mut self, loc: LocalityId) -> &mut PhotonEndpoint {
        &mut self.eps[loc as usize]
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

impl GasWorld for World {
    fn gas(&mut self, loc: LocalityId) -> &mut GasLocal {
        &mut self.gas[loc as usize]
    }
    fn gas_ref(&self, loc: LocalityId) -> &GasLocal {
        &self.gas[loc as usize]
    }
    fn gas_mode(&self) -> GasMode {
        self.mode
    }
    fn pgas(&mut self) -> &mut PgasMap {
        &mut self.pgas
    }
    fn cpu(&mut self, loc: LocalityId) -> &mut ServerPool {
        &mut self.cpus[loc as usize]
    }
    fn wrap_gas(msg: GasMsg) -> Msg {
        Msg::Gas(msg)
    }
    fn gas_put_done(eng: &mut Engine<Self>, loc: LocalityId, ctx: OpId) {
        let now = eng.now();
        eng.state.events.push((now, loc, Ev::PutDone(ctx.raw())));
    }
    fn gas_get_done(eng: &mut Engine<Self>, loc: LocalityId, ctx: OpId, data: Vec<u8>) {
        let now = eng.now();
        eng.state
            .events
            .push((now, loc, Ev::GetDone(ctx.raw(), data)));
    }
    fn gas_migrate_done(eng: &mut Engine<Self>, loc: LocalityId, ctx: OpId, block: u64) {
        let now = eng.now();
        eng.state
            .events
            .push((now, loc, Ev::MigDone(ctx.raw(), block)));
    }
    fn gas_free_done(eng: &mut Engine<Self>, loc: LocalityId, ctx: OpId, block: u64) {
        let now = eng.now();
        eng.state
            .events
            .push((now, loc, Ev::FreeDone(ctx.raw(), block)));
    }
    fn gas_amo_done(eng: &mut Engine<Self>, loc: LocalityId, ctx: OpId, result: AmoResult) {
        let now = eng.now();
        eng.state
            .events
            .push((now, loc, Ev::AmoDone(ctx.raw(), result)));
    }
    fn gas_op_failed(
        eng: &mut Engine<Self>,
        loc: LocalityId,
        ctx: OpId,
        _gva: agas::Gva,
        err: OpError,
    ) {
        let now = eng.now();
        eng.state
            .events
            .push((now, loc, Ev::OpFailed(ctx.raw(), err.to_string())));
    }
}

#[allow(dead_code)] // not every integration-test binary calls it
pub fn engine(n: usize, mode: GasMode) -> Engine<World> {
    Engine::new(World::new(n, mode, NetConfig::ideal()), 42)
}

/// Assert cluster-wide GAS consistency (delegates to the library's
/// checker, `agas::check`).
#[allow(dead_code)] // not every integration-test binary calls it
pub fn assert_consistent(eng: &Engine<World>, blocks: &[agas::Gva]) {
    agas::check::assert_consistent(&eng.state, blocks);
}
