//! Canonical parcel workloads for the sharded runtime.
//!
//! Three small message-driven programs — a ping-pong, a divide-and-conquer
//! reduction spray, and a BFS-style spawn tree — written as lane-safe
//! `fn`-pointer actions over [`ShardWorld`], run through a [`Harness`] on
//! the sequential [`Engine`] or on the sharded one at any lane count. Each
//! returns a [`WorkloadResult`] carrying both the application answer
//! (checked against a pure reference recursion) and the full
//! `(trace_hash, now)` schedule witness, so tests can assert *lane-count
//! independence*: the
//! same program at 1/2/4/8 lanes must reproduce the sequential schedule
//! bit-for-bit.
//!
//! All three address parcels to a cyclically distributed **anchor array**
//! (one block per locality). Anchors are the first allocation of their
//! class on every home, so they share `(class, seq)` and an action can
//! derive a peer's anchor from its own `ctx.target` — the same trick
//! [`crate::collective`] uses for its broadcast tree.

use crate::codec::{ArgReader, ArgWriter};
use crate::lco::{self, ReduceOp};
use crate::parcel::{ActionCtx, ActionId, Parcel};
use crate::sched;
use crate::shard_world::ShardWorld;
use crate::world::{RtConfig, Transport};
use agas::{alloc_array, Distribution, GasMode, GlobalArray, Gva};
use netsim::{Engine, Harness, LocalityId, NetConfig, RingConfig};

/// Size class of the per-locality anchor blocks.
pub const ANCHOR_CLASS: u8 = 12;

/// Action ids fixed by [`install`]'s registration order.
pub const PING: ActionId = ActionId(0);
/// See [`PING`].
pub const SPRAY: ActionId = ActionId(1);
/// See [`PING`].
pub const BFS: ActionId = ActionId(2);

/// How to build and drive one workload run.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// Localities.
    pub n: usize,
    /// GAS mode (the paper's software/network comparison axis).
    pub mode: GasMode,
    /// Fabric model.
    pub net: NetConfig,
    /// Engine seed.
    pub seed: u64,
    /// `None` = sequential engine; `Some(k)` = `ShardedEngine` at `k` lanes.
    pub lanes: Option<usize>,
    /// Per-peer parcel batching (coalescing doorbells), if any.
    pub ring: Option<RingConfig>,
}

impl WorkloadSpec {
    /// A small default cluster: `n` localities, ideal fabric, seed 42,
    /// sequential engine, no batching.
    pub fn new(n: usize, mode: GasMode) -> WorkloadSpec {
        WorkloadSpec {
            n,
            mode,
            net: NetConfig::ideal(),
            seed: 42,
            lanes: None,
            ring: None,
        }
    }
}

/// What one workload run produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkloadResult {
    /// The application answer (from the result LCO).
    pub value: u64,
    /// The reference answer the run must match.
    pub expected: u64,
    /// Folded `(time, key)` execution-order witness.
    pub trace_hash: u64,
    /// Completion time, picoseconds.
    pub now_ps: u64,
    /// Parcels executed cluster-wide.
    pub parcels_executed: u64,
}

impl WorkloadResult {
    /// Did the run compute the reference answer?
    pub fn correct(&self) -> bool {
        self.value == self.expected
    }
}

/// Register the three workload actions; ids must match the constants.
pub fn install(world: &mut ShardWorld) {
    let ping = world.register("ping", ping_action);
    let spray = world.register("spray", spray_action);
    let bfs = world.register("bfs", bfs_action);
    assert_eq!((ping, spray, bfs), (PING, SPRAY, BFS), "action table drift");
}

/// The anchor of locality `loc`, derived from the anchor an action ran at.
fn anchor_of(ctx: &ActionCtx, loc: LocalityId) -> Gva {
    Gva::new(loc, ctx.target.class(), ctx.target.seq(), 0)
}

fn send(
    eng: &mut Engine<ShardWorld>,
    from: LocalityId,
    target: Gva,
    action: ActionId,
    args: Vec<u8>,
) {
    sched::send_parcel(
        eng,
        from,
        Parcel {
            target,
            action,
            args,
            cont: None,
            src: from,
            hops: 0,
        },
    );
}

fn build(spec: &WorkloadSpec) -> (Harness<ShardWorld>, GlobalArray) {
    let rtcfg = RtConfig {
        transport: Transport::Pwc,
        ring: spec.ring,
        ..RtConfig::default()
    };
    let mut world = ShardWorld::new(spec.n, spec.mode, spec.net, rtcfg);
    install(&mut world);
    let mut h = Harness::new(world, spec.seed, spec.lanes);
    let n = spec.n as u64;
    let anchors = h.drive(|e| alloc_array(e, n, ANCHOR_CLASS, Distribution::Cyclic));
    let seq0 = anchors.block(0).seq();
    assert!(
        anchors.blocks.iter().all(|g| g.seq() == seq0),
        "anchors must share (class, seq) so actions can derive peers"
    );
    (h, anchors)
}

fn collect(mut h: Harness<ShardWorld>, lco: Gva, expected: u64) -> WorkloadResult {
    h.run();
    let (trace_hash, now_ps, _) = h.witness();
    let w = h.world_ref();
    let value = lco::peek(w, lco)
        .and_then(|s| s.value())
        .map(|v| u64::from_le_bytes(v.try_into().expect("workload LCO value must be 8 bytes")))
        .expect("workload result LCO never fired");
    WorkloadResult {
        value,
        expected,
        trace_hash,
        now_ps,
        parcels_executed: h.world_ref().total_rt_stats().parcels_executed,
    }
}

// ---------------------------------------------------------------- ping-pong

/// args: `[remaining u64][acc u64][peer anchor][done future]`. Each hop
/// folds the executing locality into `acc`; the last hop fires `done`.
fn ping_action(eng: &mut Engine<ShardWorld>, ctx: ActionCtx) {
    let mut r = ArgReader::new(&ctx.args);
    let remaining = r.u64();
    let acc = r.u64();
    let peer = r.gva();
    let done = r.gva();
    let acc = acc.wrapping_mul(31).wrapping_add(ctx.loc as u64 + 1);
    if remaining == 0 {
        lco::lco_set(eng, ctx.loc, done, acc.to_le_bytes().to_vec());
        return;
    }
    let args = ArgWriter::new()
        .u64(remaining - 1)
        .u64(acc)
        .gva(ctx.target)
        .gva(done)
        .finish();
    send(eng, ctx.loc, peer, PING, args);
}

/// Reference recursion for [`ping_pong`]: the bounce visits localities
/// `1, 0, 1, 0, …` for `hops + 1` executions.
pub fn ping_expect(hops: u64) -> u64 {
    let mut acc = 0u64;
    let mut loc = 1u64;
    for _ in 0..=hops {
        acc = acc.wrapping_mul(31).wrapping_add(loc + 1);
        loc = 1 - loc;
    }
    acc
}

/// Bounce a parcel `hops` times between the anchors of localities 0 and 1.
pub fn ping_pong(spec: &WorkloadSpec, hops: u64) -> WorkloadResult {
    assert!(spec.n >= 2, "ping-pong needs two localities");
    let (mut h, anchors) = build(spec);
    let (a0, a1) = (anchors.block(0), anchors.block(1));
    let done = h.drive_at(0, move |e| {
        let done = lco::new_future(e, 0);
        let args = ArgWriter::new().u64(hops).u64(0).gva(a0).gva(done).finish();
        send(e, 0, a1, PING, args);
        done
    });
    collect(h, done, ping_expect(hops))
}

// ------------------------------------------------------------ spray-reduce

/// args: `[lo u32][hi u32][reduce lco]`. The action at anchor `lo`
/// contributes `lo² + 1` to the reduction, then splits the rest of
/// `[lo, hi)` between two child anchors.
fn spray_action(eng: &mut Engine<ShardWorld>, ctx: ActionCtx) {
    let mut r = ArgReader::new(&ctx.args);
    let lo = r.u32();
    let hi = r.u32();
    let reduce = r.gva();
    let me = lo as u64;
    lco::lco_set(eng, ctx.loc, reduce, (me * me + 1).to_le_bytes().to_vec());
    let (a, b) = (lo + 1, hi);
    if a < b {
        let mid = (a + b).div_ceil(2);
        let args = ArgWriter::new().u32(a).u32(mid).gva(reduce).finish();
        send(eng, ctx.loc, anchor_of(&ctx, a), SPRAY, args);
        if mid < b {
            let args = ArgWriter::new().u32(mid).u32(b).gva(reduce).finish();
            send(eng, ctx.loc, anchor_of(&ctx, mid), SPRAY, args);
        }
    }
}

/// Divide-and-conquer spray over all localities, summing `i² + 1` into a
/// reduce LCO at locality 0.
pub fn spray_reduce(spec: &WorkloadSpec) -> WorkloadResult {
    let n = spec.n as u64;
    let (mut h, anchors) = build(spec);
    let root = anchors.block(0);
    let lco = h.drive_at(0, move |e| {
        let lco = lco::new_reduce(e, 0, n, ReduceOp::Sum);
        let args = ArgWriter::new().u32(0).u32(n as u32).gva(lco).finish();
        send(e, 0, root, SPRAY, args);
        lco
    });
    let expected = (0..n).map(|i| i * i + 1).sum();
    collect(h, lco, expected)
}

// ---------------------------------------------------------------- bfs-tree

/// args: `[lo u32][hi u32][depth u64][reduce lco]`. Marks the visit by
/// writing `depth + 1` into the anchor's first word, contributes `depth`
/// to the reduction, and recurses with `depth + 1`.
fn bfs_action(eng: &mut Engine<ShardWorld>, ctx: ActionCtx) {
    let mut r = ArgReader::new(&ctx.args);
    let lo = r.u32();
    let hi = r.u32();
    let depth = r.u64();
    let reduce = r.gva();
    let phys = ctx.target_phys();
    eng.state
        .data
        .cluster
        .mem_mut(ctx.loc)
        .write(phys, &(depth + 1).to_le_bytes())
        .expect("anchor word write failed");
    lco::lco_set(eng, ctx.loc, reduce, depth.to_le_bytes().to_vec());
    let (a, b) = (lo + 1, hi);
    if a < b {
        let mid = (a + b).div_ceil(2);
        let args = ArgWriter::new()
            .u32(a)
            .u32(mid)
            .u64(depth + 1)
            .gva(reduce)
            .finish();
        send(eng, ctx.loc, anchor_of(&ctx, a), BFS, args);
        if mid < b {
            let args = ArgWriter::new()
                .u32(mid)
                .u32(b)
                .u64(depth + 1)
                .gva(reduce)
                .finish();
            send(eng, ctx.loc, anchor_of(&ctx, mid), BFS, args);
        }
    }
}

/// Reference depth sum for [`bfs_tree`]'s spawn tree over `[lo, hi)`.
pub fn bfs_expect(lo: u32, hi: u32, depth: u64) -> u64 {
    let mut sum = depth;
    let (a, b) = (lo + 1, hi);
    if a < b {
        let mid = (a + b).div_ceil(2);
        sum += bfs_expect(a, mid, depth + 1);
        if mid < b {
            sum += bfs_expect(mid, b, depth + 1);
        }
    }
    sum
}

/// BFS-style spawn tree over all localities: each visit stamps its depth
/// into the local anchor and the reduction sums all depths.
pub fn bfs_tree(spec: &WorkloadSpec) -> WorkloadResult {
    let n = spec.n as u64;
    let (mut h, anchors) = build(spec);
    let root = anchors.block(0);
    let lco = h.drive_at(0, move |e| {
        let lco = lco::new_reduce(e, 0, n, ReduceOp::Sum);
        let args = ArgWriter::new()
            .u32(0)
            .u32(n as u32)
            .u64(0)
            .gva(lco)
            .finish();
        send(e, 0, root, BFS, args);
        lco
    });
    collect(h, lco, bfs_expect(0, spec.n as u32, 0))
}
