//! The depth ladder: one workload's dominant primitive replayed at five
//! depths of the stack, so each layer's cost is its depth minus the depth
//! beneath (DART-MPI's method: a layer's overhead over the one below it,
//! for the same primitive).
//!
//! | depth | what runs |
//! |---|---|
//! | `engine` | bare `Engine`: the same event count per op and mean delay as `netsim` |
//! | `netsim` | `rdma_put` / `rdma_get` / `send_user` on a minimal `Protocol` world |
//! | `photon` | `pwc_put` / `pwc_get` / `send` on a minimal `PhotonWorld` |
//! | `agas` | `agas::ops::mem*` on `agas::SimWorld` |
//! | `parcel-rt` | the full `parcel_rt::Runtime` through the benchmark's pump |
//!
//! Every depth is a closed loop of `localities × window` clients over the
//! same seed-derived target stream (the `agas` put depths use
//! `SimWorld`'s own pump, which draws equally uniform targets).

use crate::probe;
use crate::suite::{
    self, Kind, RtStream, Spec, BLOCK_BYTES, BLOCK_CLASS, CHURN_BLOCKS, CHURN_THETA, ENGINE_SEED,
    GUPS_BLOCKS_PER_LOC,
};
use agas::{alloc_array, Distribution, GasMode, SimWorld};
use netsim::rng::{mix64, Xoshiro256, Zipf};
use netsim::{
    rdma_get, rdma_put, send_user, Cluster, Engine, Envelope, FaultClass, GetReq, LocalityId,
    NackReason, NetConfig, OpId, OpKind, Packet, PhysAddr, Protocol, PutReq, RdmaTarget, Time,
    XlateEntry,
};
use photon::{PhotonConfig, PhotonEndpoint, PhotonMsg, PhotonWorld, ANY_TAG};
use std::time::Instant;

/// The primitive a workload's ladder replays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Prim {
    /// 8-byte one-sided put with NIC translation (`gups_net`, `gups_lanes2`).
    Put8,
    /// The same put as a two-sided request + ack (`gups_sw`).
    Sw8,
    /// 512-byte one-sided get, Zipf targets, no migration (`churn_mix`).
    Get512,
    /// A parcel-sized request + continuation-sized reply (`parcel_gups`).
    ParcelMsg,
}

impl Prim {
    pub fn of(kind: Kind) -> Prim {
        match kind {
            Kind::GupsNet | Kind::GupsLanes2 => Prim::Put8,
            Kind::GupsSw => Prim::Sw8,
            Kind::ChurnMix => Prim::Get512,
            Kind::ParcelGups => Prim::ParcelMsg,
        }
    }

    /// `(request, reply)` payload bytes of the two-sided forms.
    fn msg_bytes(self, ctrl: u32) -> (u32, u32) {
        match self {
            // SwPut carries the data; SwPutAck is a control message.
            Prim::Sw8 => (8, ctrl),
            // 8 argument bytes + 24-byte parcel header; the LCO-set
            // reply parcel carries no arguments.
            Prim::ParcelMsg => (32, 24),
            Prim::Put8 | Prim::Get512 => (0, 0),
        }
    }
}

const TAG_REQ: u64 = 1;
const TAG_ACK: u64 = 2;

/// One timed replay at one depth.
#[derive(Clone, Copy, Debug, Default)]
pub struct DepthRun {
    pub host_s: f64,
    pub ops: u64,
    pub sim_ps: u64,
    pub events: u64,
    pub allocs: u64,
    pub failed: u64,
}

/// Where operation `(loc, seq)` goes: `(block index, byte offset)`.
struct Targets {
    seed: u64,
    prim: Prim,
    n_blocks: u64,
    zipf: Option<Zipf>,
}

impl Targets {
    fn new(prim: Prim, n: u32, seed: u64) -> Targets {
        let (n_blocks, zipf) = match prim {
            Prim::Get512 => (
                CHURN_BLOCKS,
                Some(Zipf::new(CHURN_BLOCKS as usize, CHURN_THETA)),
            ),
            _ => (GUPS_BLOCKS_PER_LOC * u64::from(n), None),
        };
        Targets {
            seed,
            prim,
            n_blocks,
            zipf,
        }
    }

    fn home(&self, block: u64, n: u32) -> LocalityId {
        match self.prim {
            Prim::Get512 => Distribution::Blocked.home(block, self.n_blocks, n),
            _ => Distribution::Cyclic.home(block, self.n_blocks, n),
        }
    }

    fn pick(&self, loc: LocalityId, seq: u64) -> (u64, u64) {
        let key = self.seed ^ (u64::from(loc) << 32) ^ seq;
        match &self.zipf {
            Some(z) => {
                let mut r = Xoshiro256::seed_from_u64(key);
                let block = z.sample(&mut r) as u64;
                (block, 512 * (1 + r.next_u64() % 15))
            }
            None => {
                let cell = mix64(key) % (self.n_blocks * BLOCK_BYTES / 8);
                (cell / (BLOCK_BYTES / 8), cell % (BLOCK_BYTES / 8) * 8)
            }
        }
    }
}

/// Closed-loop bookkeeping shared by the minimal worlds.
struct Loop {
    per_loc: u64,
    next: Vec<u64>,
    done: u64,
    failed: u64,
    last_done: Time,
    targets: Targets,
    /// `(home, translation key, physical base)` of every block.
    blocks: Vec<(LocalityId, u64, PhysAddr)>,
    /// One landing buffer per locality for gets.
    scratch: Vec<PhysAddr>,
}

trait Looped: Sized + 'static {
    fn lp(&mut self) -> &mut Loop;
    /// Start operation `(loc, seq)` aimed at `blocks[block] + offset`.
    fn start(eng: &mut Engine<Self>, loc: LocalityId, block: usize, offset: u64);
}

fn issue_next<W: Looped>(eng: &mut Engine<W>, loc: LocalityId) {
    let lp = eng.state.lp();
    let seq = lp.next[loc as usize];
    if seq >= lp.per_loc {
        return;
    }
    lp.next[loc as usize] = seq + 1;
    let (block, offset) = lp.targets.pick(loc, seq);
    W::start(eng, loc, block as usize, offset);
}

fn complete<W: Looped>(eng: &mut Engine<W>, loc: LocalityId) {
    let now = eng.now();
    let lp = eng.state.lp();
    lp.done += 1;
    lp.last_done = now;
    issue_next(eng, loc);
}

fn build_loop(cluster: &mut Cluster, prim: Prim, n: u32, per_loc: u64, seed: u64) -> Loop {
    let targets = Targets::new(prim, n, seed);
    let blocks = (0..targets.n_blocks)
        .map(|b| {
            let home = targets.home(b, n);
            let base = cluster
                .mem_mut(home)
                .alloc_block(BLOCK_CLASS)
                .expect("arena exhausted");
            let key = b + 1;
            cluster.install_xlate(
                home,
                key,
                XlateEntry {
                    base,
                    len: BLOCK_BYTES,
                    generation: 1,
                },
            );
            (home, key, base)
        })
        .collect();
    let scratch = (0..n)
        .map(|l| cluster.mem_mut(l).alloc_block(12).expect("arena exhausted"))
        .collect();
    Loop {
        per_loc,
        next: vec![0; n as usize],
        done: 0,
        failed: 0,
        last_done: Time::ZERO,
        targets,
        blocks,
        scratch,
    }
}

/// Host seconds and allocations `f` took.
fn timed(f: impl FnOnce()) -> (f64, u64) {
    let (allocs0, _) = probe::alloc_counts();
    let t0 = Instant::now();
    f();
    let host_s = t0.elapsed().as_secs_f64();
    (host_s, probe::alloc_counts().0 - allocs0)
}

/// Prime `window` ops per locality, run to quiescence, and time it.
fn drive<W: Looped>(eng: &mut Engine<W>, n: u32, window: usize) -> DepthRun {
    let (host_s, allocs) = timed(|| {
        for loc in 0..n {
            for _ in 0..window {
                issue_next(eng, loc);
            }
        }
        eng.run();
    });
    let events = eng.events_executed();
    let lp = eng.state.lp();
    DepthRun {
        host_s,
        ops: lp.done,
        sim_ps: lp.last_done.ps(),
        events,
        allocs,
        failed: lp.failed + (lp.per_loc * u64::from(n) - lp.done),
    }
}

// ------------------------------------------------------------ depth: engine

struct Chain {
    per_loc: u64,
    next: Vec<u64>,
    done: u64,
    last_done: Time,
    steps: u32,
    delay: Time,
}

fn chain_step(eng: &mut Engine<Chain>, loc: LocalityId, left: u32) {
    if left > 0 {
        let d = eng.state.delay;
        eng.schedule(d, move |e| chain_step(e, loc, left - 1));
        return;
    }
    eng.state.done += 1;
    eng.state.last_done = eng.now();
    chain_start(eng, loc);
}

fn chain_start(eng: &mut Engine<Chain>, loc: LocalityId) {
    let c = &mut eng.state;
    if c.next[loc as usize] >= c.per_loc {
        return;
    }
    c.next[loc as usize] += 1;
    let steps = c.steps;
    chain_step(eng, loc, steps);
}

/// The bare engine: each op is a chain of `steps` events `delay` apart —
/// the event count per op and mean latency measured at the `netsim` depth.
pub fn depth_engine(n: u32, window: usize, per_loc: u64, steps: u32, delay: Time) -> DepthRun {
    let mut eng = Engine::new(
        Chain {
            per_loc,
            next: vec![0; n as usize],
            done: 0,
            last_done: Time::ZERO,
            steps: steps.max(1),
            delay,
        },
        ENGINE_SEED,
    );
    let (host_s, allocs) = timed(|| {
        for loc in 0..n {
            for _ in 0..window {
                chain_start(&mut eng, loc);
            }
        }
        eng.run();
    });
    DepthRun {
        host_s,
        ops: eng.state.done,
        sim_ps: eng.state.last_done.ps(),
        events: eng.events_executed(),
        allocs,
        failed: per_loc * u64::from(n) - eng.state.done,
    }
}

// ------------------------------------------------------------ depth: netsim

struct NetWorld {
    cluster: Cluster,
    lp: Loop,
    prim: Prim,
}

enum NetMsg {
    Req,
    Ack,
}

impl Protocol for NetWorld {
    type Msg = NetMsg;
    fn cluster(&mut self) -> &mut Cluster {
        &mut self.cluster
    }
    fn cluster_ref(&self) -> &Cluster {
        &self.cluster
    }
    fn deliver(eng: &mut Engine<Self>, env: Envelope<NetMsg>) {
        match env.packet {
            Packet::PutDone { .. } | Packet::GetDone { .. } | Packet::User(NetMsg::Ack) => {
                complete(eng, env.dst);
            }
            Packet::User(NetMsg::Req) => {
                let ctrl = eng.state.cluster.config.ctrl_bytes;
                let (_, reply) = eng.state.prim.msg_bytes(ctrl);
                send_user(eng, env.dst, env.src, reply, NetMsg::Ack);
            }
            Packet::Nack { .. } => {
                eng.state.lp.failed += 1;
                complete(eng, env.dst);
            }
            _ => {}
        }
    }
}

impl Looped for NetWorld {
    fn lp(&mut self) -> &mut Loop {
        &mut self.lp
    }
    fn start(eng: &mut Engine<Self>, loc: LocalityId, block: usize, offset: u64) {
        let (home, key, _) = eng.state.lp.blocks[block];
        let ttl = eng.state.cluster.config.forward_ttl;
        let op = eng.state.cluster.alloc_op();
        let target = RdmaTarget::Virt { block: key, offset };
        match eng.state.prim {
            Prim::Put8 => rdma_put(
                eng,
                loc,
                PutReq {
                    target: home,
                    dst: target,
                    data: (offset | 1).to_le_bytes().to_vec(),
                    op,
                    remote_tag: None,
                    ttl,
                    class: FaultClass::Request,
                },
            ),
            Prim::Get512 => {
                let local = eng.state.lp.scratch[loc as usize];
                rdma_get(
                    eng,
                    loc,
                    GetReq {
                        target: home,
                        src: target,
                        len: 512,
                        local,
                        op,
                        ttl,
                        class: FaultClass::Request,
                    },
                );
            }
            prim @ (Prim::Sw8 | Prim::ParcelMsg) => {
                let ctrl = eng.state.cluster.config.ctrl_bytes;
                let (req, _) = prim.msg_bytes(ctrl);
                send_user(eng, loc, home, req, NetMsg::Req);
            }
        }
    }
}

pub fn depth_netsim(prim: Prim, n: u32, window: usize, per_loc: u64, seed: u64) -> DepthRun {
    let mut cluster = Cluster::new(n as usize, NetConfig::ib_fdr(), 1 << 28);
    let lp = build_loop(&mut cluster, prim, n, per_loc, seed);
    let mut eng = Engine::new(NetWorld { cluster, lp, prim }, ENGINE_SEED);
    drive(&mut eng, n, window)
}

// ------------------------------------------------------------ depth: photon

struct PhWorld {
    cluster: Cluster,
    eps: Vec<PhotonEndpoint>,
    lp: Loop,
    prim: Prim,
}

impl Protocol for PhWorld {
    type Msg = PhotonMsg;
    fn cluster(&mut self) -> &mut Cluster {
        &mut self.cluster
    }
    fn cluster_ref(&self) -> &Cluster {
        &self.cluster
    }
    fn deliver(eng: &mut Engine<Self>, env: Envelope<PhotonMsg>) {
        match env.packet {
            Packet::User(m) => photon::handle_msg(eng, env.src, env.dst, m),
            other => photon::handle_completion(eng, env.src, env.dst, other),
        }
    }
}

impl PhotonWorld for PhWorld {
    fn endpoint(&mut self, loc: LocalityId) -> &mut PhotonEndpoint {
        &mut self.eps[loc as usize]
    }
    fn wrap(msg: PhotonMsg) -> PhotonMsg {
        msg
    }
    fn pwc_complete(eng: &mut Engine<Self>, loc: LocalityId, _ctx: OpId) {
        complete(eng, loc);
    }
    fn pwc_remote(_eng: &mut Engine<Self>, _loc: LocalityId, _tag: u64, _len: u32) {}
    fn pwc_failed(
        eng: &mut Engine<Self>,
        loc: LocalityId,
        _ctx: OpId,
        _kind: OpKind,
        _reason: NackReason,
        _block: u64,
    ) {
        eng.state.lp.failed += 1;
        complete(eng, loc);
    }
    fn recv_complete(
        eng: &mut Engine<Self>,
        loc: LocalityId,
        src: LocalityId,
        tag: u64,
        _data: Vec<u8>,
    ) {
        // Keep one receive standing, as the runtime's ISIR transport does.
        photon::post_recv(eng, loc, ANY_TAG);
        if tag == TAG_REQ {
            let ctrl = eng.state.cluster.config.ctrl_bytes;
            let (_, reply) = eng.state.prim.msg_bytes(ctrl);
            photon::send(eng, loc, src, TAG_ACK, vec![0; reply as usize], None);
        } else {
            complete(eng, loc);
        }
    }
    fn send_complete(_eng: &mut Engine<Self>, _loc: LocalityId, _send_id: u64) {}
}

impl Looped for PhWorld {
    fn lp(&mut self) -> &mut Loop {
        &mut self.lp
    }
    fn start(eng: &mut Engine<Self>, loc: LocalityId, block: usize, offset: u64) {
        let (home, key, _) = eng.state.lp.blocks[block];
        let target = RdmaTarget::Virt { block: key, offset };
        let ctx = OpId::from_raw(u64::from(loc));
        match eng.state.prim {
            Prim::Put8 => {
                let data = (offset | 1).to_le_bytes().to_vec();
                photon::pwc_put(eng, loc, home, target, data, ctx, None, None);
            }
            Prim::Get512 => {
                let local = eng.state.lp.scratch[loc as usize];
                photon::pwc_get(eng, loc, home, target, 512, local, ctx, None);
            }
            prim @ (Prim::Sw8 | Prim::ParcelMsg) => {
                let ctrl = eng.state.cluster.config.ctrl_bytes;
                let (req, _) = prim.msg_bytes(ctrl);
                photon::send(eng, loc, home, TAG_REQ, vec![0; req as usize], None);
            }
        }
    }
}

pub fn depth_photon(prim: Prim, n: u32, window: usize, per_loc: u64, seed: u64) -> DepthRun {
    let mut cluster = Cluster::new(n as usize, NetConfig::ib_fdr(), 1 << 28);
    let lp = build_loop(&mut cluster, prim, n, per_loc, seed);
    let eps = (0..n)
        .map(|_| PhotonEndpoint::new(PhotonConfig::default()))
        .collect();
    let mut eng = Engine::new(
        PhWorld {
            cluster,
            eps,
            lp,
            prim,
        },
        ENGINE_SEED,
    );
    for loc in 0..n {
        photon::post_recv(&mut eng, loc, ANY_TAG);
    }
    drive(&mut eng, n, window)
}

// -------------------------------------------------------------- depth: agas

/// `agas::ops` on [`SimWorld`]. Puts ride `SimWorld`'s own pump (one
/// `pump_prime` per window slot). It has no get pump, so the get loop is
/// closed from outside: step the engine and, whenever a locality's get
/// count moved, issue that locality's next get at the same simulated
/// instant.
pub fn depth_agas(prim: Prim, n: u32, window: usize, per_loc: u64, seed: u64) -> DepthRun {
    let mode = match prim {
        Prim::Put8 | Prim::Get512 => GasMode::AgasNetwork,
        Prim::Sw8 | Prim::ParcelMsg => GasMode::AgasSoftware,
    };
    let mut world = SimWorld::new(n as usize, mode, NetConfig::ib_fdr());
    world.data.record_events = false;
    let targets = Targets::new(prim, n, seed);
    if prim != Prim::Get512 {
        for l in 0..n {
            world.arm_gups(l, per_loc, seed);
        }
    }
    let mut eng = Engine::new(world, ENGINE_SEED);
    let dist = if prim == Prim::Get512 {
        Distribution::Blocked
    } else {
        Distribution::Cyclic
    };
    let arr = alloc_array(&mut eng, targets.n_blocks, BLOCK_CLASS, dist);
    eng.state.set_pump_blocks(arr.blocks.clone());

    let (allocs0, _) = probe::alloc_counts();
    let t0 = Instant::now();
    let mut last_done = Time::ZERO;
    let ops = if prim == Prim::Get512 {
        let mut next = vec![0u64; n as usize];
        let mut seen = vec![0u64; n as usize];
        let issue = |eng: &mut Engine<SimWorld>, next: &mut [u64], l: LocalityId| {
            let seq = next[l as usize];
            if seq < per_loc {
                next[l as usize] = seq + 1;
                let (block, offset) = targets.pick(l, seq);
                let gva = arr.block(block).with_offset(offset);
                agas::ops::memget(eng, l, gva, 512, OpId::from_raw((u64::from(l) << 40) | seq));
            }
        };
        for l in 0..n {
            for _ in 0..window {
                issue(&mut eng, &mut next, l);
            }
        }
        while eng.step() {
            for l in 0..n {
                while seen[l as usize] < eng.state.data.locs[l as usize].get_acks {
                    seen[l as usize] += 1;
                    last_done = eng.now();
                    issue(&mut eng, &mut next, l);
                }
            }
        }
        eng.state.get_acks()
    } else {
        for l in 0..n {
            for _ in 0..window {
                SimWorld::pump_prime(&mut eng, l);
            }
        }
        eng.run();
        last_done = eng.now();
        eng.state.pump_completed()
    };
    let host_s = t0.elapsed().as_secs_f64();
    let (allocs1, _) = probe::alloc_counts();
    DepthRun {
        host_s,
        ops,
        sim_ps: last_done.ps(),
        events: eng.events_executed(),
        allocs: allocs1 - allocs0,
        failed: eng.state.op_failures() + (per_loc * u64::from(n) - ops),
    }
}

// --------------------------------------------------------- depth: parcel-rt

/// The full runtime through the benchmark's own pump (set-up untimed).
pub fn depth_rt(
    prim: Prim,
    n: u32,
    window: usize,
    per_loc: u64,
    seed: u64,
    scratch: &mut suite::Scratch,
) -> DepthRun {
    let (mode, stream) = match prim {
        Prim::Put8 => (GasMode::AgasNetwork, RtStream::Put),
        Prim::Sw8 => (GasMode::AgasSoftware, RtStream::Put),
        Prim::Get512 => (GasMode::AgasNetwork, RtStream::ChurnGetOnly),
        Prim::ParcelMsg => (GasMode::AgasNetwork, RtStream::Parcel),
    };
    let job = suite::RtJob {
        n,
        mode,
        stream,
        window,
        per_loc,
        seed,
    };
    let (rep, _) = suite::run_rt(job, scratch, None);
    DepthRun {
        host_s: rep.host_s,
        ops: rep.completed,
        sim_ps: rep.sim_makespan_ps,
        events: rep.raw.events,
        allocs: rep.allocs,
        failed: rep.failed + rep.check_failures.len() as u64,
    }
}

// ------------------------------------------------------------------- ladder

pub const DEPTHS: [&str; 5] = ["engine", "netsim", "photon", "agas", "parcel-rt"];

/// One depth's statistics over its repetitions.
#[derive(Clone, Debug, Default)]
pub struct DepthStat {
    pub host_ns_per_op: f64,
    /// `(max - min) / median` of host ns/op across repetitions.
    pub host_spread: f64,
    pub sim_ns_per_op: f64,
    pub allocs_per_op: f64,
    pub events_per_op: f64,
    pub reps: usize,
    pub failed: u64,
    /// Every repetition reported the same simulated time and event count.
    pub exact: bool,
}

/// Repeat `run` for `secs`. The first repetition counts allocations and
/// is not timed; the rest are timed with counting off, so the counter's
/// atomics never sit in a host-time figure.
fn measure(secs: f64, mut run: impl FnMut() -> DepthRun) -> DepthStat {
    probe::set_counting(true);
    let first = run();
    probe::set_counting(false);
    let t0 = Instant::now();
    let mut runs = Vec::new();
    while runs.len() < 2 || t0.elapsed().as_secs_f64() < secs {
        runs.push(run());
    }
    let mut host: Vec<f64> = runs
        .iter()
        .map(|r| r.host_s * 1e9 / r.ops.max(1) as f64)
        .collect();
    host.sort_by(f64::total_cmp);
    let median = crate::report::median_sorted(&host);
    DepthStat {
        host_ns_per_op: median,
        host_spread: (host[host.len() - 1] - host[0]) / median,
        sim_ns_per_op: first.sim_ps as f64 / 1e3 / first.ops.max(1) as f64,
        allocs_per_op: first.allocs as f64 / first.ops.max(1) as f64,
        events_per_op: first.events as f64 / first.ops.max(1) as f64,
        reps: runs.len(),
        failed: first.failed + runs.iter().map(|r| r.failed).sum::<u64>(),
        exact: runs
            .iter()
            .all(|r| (r.sim_ps, r.events, r.ops) == (first.sim_ps, first.events, first.ops)),
    }
}

/// Replay `spec`'s primitive at all five depths, `secs` of repetitions
/// each, at a quarter of the workload's per-locality count.
pub fn run(
    spec: &Spec,
    seed: u64,
    div: u64,
    secs: f64,
    scratch: &mut suite::Scratch,
) -> [DepthStat; 5] {
    let prim = Prim::of(spec.kind);
    let (n, w) = (spec.localities, spec.window);
    let per_loc = (spec.ops_per_loc(div) / 4).max(w as u64);
    let netsim = measure(secs, || depth_netsim(prim, n, w, per_loc, seed));
    // Calibrate the bare engine to the substrate's shape: as many events
    // per op, spread evenly over the mean op latency (Little's law).
    let steps = netsim.events_per_op.round().max(1.0) as u32;
    let mean_lat_ps = netsim.sim_ns_per_op * 1e3 * f64::from(n) * w as f64;
    let delay = Time::from_ps((mean_lat_ps / f64::from(steps)) as u64);
    let engine = measure(secs, || depth_engine(n, w, per_loc, steps, delay));
    let photon = measure(secs, || depth_photon(prim, n, w, per_loc, seed));
    let agas = measure(secs, || depth_agas(prim, n, w, per_loc, seed));
    let rt = measure(secs, || depth_rt(prim, n, w, per_loc, seed, scratch));
    [engine, netsim, photon, agas, rt]
}
