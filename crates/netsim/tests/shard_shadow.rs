//! Shadow-mode equivalence: the sharded engine must match the sequential
//! engine bit-for-bit.
//!
//! A toy [`SplitWorld`] runs the same randomly generated program — bouncing
//! messages, one-sided puts/gets, interleaved `run_steps`/`run_until`
//! driving — once on the plain sequential [`Engine`] and once per shard
//! count on [`ShardedEngine`]. At every control point the `(trace hash,
//! clock, executed count, world digest)` snapshot must be identical: the
//! trace hash sums every executed `(time, key)` pair, and a key names its
//! event's origin and that origin's schedule count, so equality proves each
//! locality ran the same events in the same order; the world digest
//! (per-locality delivery logs + memory contents + counters + fault stats)
//! proves the events also observed identical state.
//!
//! Three fabrics: plain, jittery, and faulty (drops, dups, corruption,
//! delay spikes, flaps, partitions). Jitter and fault draws are keyed by
//! the sending locality and its message count, so there the digest also
//! proves every lane drew each message's numbers as the sequential engine
//! did.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use netsim::engine::trace_mix;
use netsim::rng::Xoshiro256;
use netsim::shard::ShardMap;
use netsim::{
    rdma_get, rdma_put, send_user_classed, Cluster, Engine, Envelope, FaultClass, FaultPlan,
    FaultPlane, FaultRates, GetReq, Harness, LinkFlap, LocalityId, NetConfig, OpId, Packet,
    Partition, PhysAddr, Protocol, PutReq, RdmaTarget, ShardedEngine, SharedState, SplitWorld,
    Time,
};

/// Bytes in each locality's scratch block (memory class 12).
const BLOCK: usize = 4096;

struct ToyData {
    cluster: Cluster,
    /// Per-locality log of delivered packets (hashed). Strictly
    /// lane-disjoint: locality `d`'s handler appends only to `hits[d]`.
    hits: Vec<Vec<u64>>,
    /// Per-locality scratch block base address.
    bases: Vec<PhysAddr>,
}

/// The toy protocol world: user messages are `u64` hop counters that
/// bounce around the cluster until they decay to zero; every delivery is
/// logged into the destination's hit vector.
struct ToyWorld {
    data: SharedState<ToyData>,
}

impl Protocol for ToyWorld {
    type Msg = u64;

    fn cluster(&mut self) -> &mut Cluster {
        &mut self.data.cluster
    }

    fn cluster_ref(&self) -> &Cluster {
        &self.data.cluster
    }

    fn deliver(eng: &mut Engine<ToyWorld>, env: Envelope<u64>) {
        let now = eng.now();
        let tag = match &env.packet {
            Packet::User(v) => 0x1_0000 ^ *v,
            Packet::PutDone { op, .. } => 0x2_0000 ^ op.raw(),
            Packet::GetDone { op, .. } => 0x3_0000 ^ op.raw(),
            Packet::AmoDone { op, result, .. } => 0x7_0000 ^ op.raw() ^ result.old,
            Packet::RemoteNote { tag, len } => 0x4_0000 ^ *tag ^ (u64::from(*len) << 20),
            Packet::XlateMiss { block } => 0x5_0000 ^ *block,
            Packet::Nack { op, .. } => 0x6_0000 ^ op.raw(),
        };
        let dst = env.dst;
        let h = trace_mix(trace_mix(tag, u64::from(env.src)), now.ps());
        eng.state.data.hits[dst as usize].push(h);
        if let Packet::User(hops) = env.packet {
            if hops > 0 {
                let n = eng.state.data.cluster.len() as u64;
                let next = ((u64::from(dst) + hops) % n) as LocalityId;
                let bytes = 64 + (hops % 480) as u32;
                send_user_classed(eng, dst, next, bytes, hops - 1, FaultClass::Request);
            }
        }
    }
}

// SAFETY: deliveries only mutate the destination locality's slice of the
// world — `hits[dst]`, its memory arena, its NIC and counters — and the
// destination is always owned by the executing lane. A send touches only
// its sender's wire state (port, message count, fault counts), and the
// fabrics here have no oversubscribed switch core. Every event closure
// captures only `Copy` data and owned `Vec<u8>` payloads.
unsafe impl SplitWorld for ToyWorld {
    fn lane_handle(&mut self, _lane: u32, _map: ShardMap) -> ToyWorld {
        ToyWorld {
            // SAFETY: the ShardedEngine drops lane handles before the
            // owning control world.
            data: unsafe { self.data.alias() },
        }
    }
}

fn build_world(n: usize, cfg: NetConfig, plan: Option<FaultPlan>) -> ToyWorld {
    let mut cluster = Cluster::new(n, cfg, 1 << 22);
    if let Some(p) = plan {
        cluster.faults = Some(FaultPlane::new(p));
    }
    let bases: Vec<PhysAddr> = (0..n)
        .map(|l| {
            cluster
                .loc_mut(l as LocalityId)
                .mem
                .alloc_block(12)
                .expect("scratch block")
        })
        .collect();
    ToyWorld {
        data: SharedState::new(ToyData {
            cluster,
            hits: vec![Vec::new(); n],
            bases,
        }),
    }
}

/// One step of the generated driver program.
enum Step {
    Send {
        src: LocalityId,
        dst: LocalityId,
        hops: u64,
        bytes: u32,
    },
    Put {
        src: LocalityId,
        dst: LocalityId,
        offset: u64,
        len: usize,
        op: u64,
    },
    Get {
        src: LocalityId,
        dst: LocalityId,
        offset: u64,
        len: u32,
        op: u64,
    },
    /// Exact serial micro-stepping: at most this many events.
    Steps(u64),
    /// Bounded progress: run until this absolute instant (ns).
    Until(u64),
    /// Drain to quiescence.
    Run,
    /// Install (or remove) the fault plane between runs.
    Faults(Option<FaultPlan>),
}

fn gen_program(seed: u64, n: usize, count: usize) -> Vec<Step> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut steps = Vec::with_capacity(count + 1);
    let mut until_ns = 0u64;
    for i in 0..count as u64 {
        let r = rng.next_u64();
        let src = (rng.next_u64() % n as u64) as LocalityId;
        let dst = (rng.next_u64() % n as u64) as LocalityId;
        steps.push(match r % 10 {
            0..=3 => Step::Send {
                src,
                dst,
                hops: r >> 4 & 0x7,
                bytes: 32 + (r >> 8 & 0x3ff) as u32,
            },
            4..=5 => Step::Put {
                src,
                dst,
                offset: (r >> 4 & 0xf) * 240,
                len: 16 + (r >> 8 & 0x3) as usize * 16,
                op: 0x1_0000 + i,
            },
            6..=7 => Step::Get {
                src,
                dst,
                offset: (r >> 4 & 0xf) * 240,
                len: 16 + (r >> 8 & 0x3) as u32 * 16,
                op: 0x5_0000 + i,
            },
            8 => Step::Steps(1 + (r >> 4) % 40),
            _ => {
                until_ns += 500 + (r >> 4) % 4000;
                Step::Until(until_ns)
            }
        });
    }
    steps.push(Step::Run);
    steps
}

/// Everything observable about an engine at a control point.
#[derive(Debug, PartialEq, Eq, Clone)]
struct Snapshot {
    trace_hash: u64,
    now_ps: u64,
    executed: u64,
    pending: usize,
    digest: u64,
}

fn world_digest(w: &ToyWorld) -> u64 {
    let d = &*w.data;
    let mut h = 0x9e37_79b9_7f4a_7c15u64;
    for hits in &d.hits {
        h = trace_mix(h, hits.len() as u64);
        for &v in hits {
            h = trace_mix(h, v);
        }
    }
    let mut dh = DefaultHasher::new();
    for (l, &base) in d.bases.iter().enumerate() {
        let mem = d
            .cluster
            .loc(l as LocalityId)
            .mem
            .read(base, BLOCK)
            .expect("scratch block readable");
        mem.hash(&mut dh);
        format!("{:?}", d.cluster.loc(l as LocalityId).counters).hash(&mut dh);
    }
    format!("{:?}", d.cluster.fault_stats()).hash(&mut dh);
    trace_mix(h, dh.finish())
}

fn snapshot(h: &mut Harness<ToyWorld>) -> Snapshot {
    let (trace_hash, now_ps, executed) = h.witness();
    Snapshot {
        trace_hash,
        now_ps,
        executed,
        pending: h.events_pending(),
        digest: world_digest(h.world_ref()),
    }
}

fn apply(h: &mut Harness<ToyWorld>, bases: &[PhysAddr], step: &Step, snaps: &mut Vec<Snapshot>) {
    match *step {
        Step::Send {
            src,
            dst,
            hops,
            bytes,
        } => h.drive_at(src, move |eng| {
            send_user_classed(eng, src, dst, bytes, hops, FaultClass::Request);
        }),
        Step::Put {
            src,
            dst,
            offset,
            len,
            op,
        } => {
            let base_dst = bases[dst as usize];
            let data: Vec<u8> = (0..len).map(|k| (op ^ k as u64) as u8).collect();
            h.drive_at(src, move |eng| {
                rdma_put(
                    eng,
                    src,
                    PutReq {
                        target: dst,
                        dst: RdmaTarget::Phys(base_dst + offset),
                        data,
                        op: OpId::from_raw(op),
                        remote_tag: if op % 3 == 0 { Some(op) } else { None },
                        ttl: 3,
                        class: FaultClass::Request,
                    },
                );
            });
        }
        Step::Get {
            src,
            dst,
            offset,
            len,
            op,
        } => {
            let base_dst = bases[dst as usize];
            let base_src = bases[src as usize];
            h.drive_at(src, move |eng| {
                rdma_get(
                    eng,
                    src,
                    GetReq {
                        target: dst,
                        src: RdmaTarget::Phys(base_dst + offset),
                        len,
                        local: base_src + offset,
                        op: OpId::from_raw(op),
                        ttl: 3,
                        class: FaultClass::Request,
                    },
                );
            });
        }
        Step::Steps(n) => {
            h.run_steps(n);
            snaps.push(snapshot(h));
        }
        Step::Until(ns) => {
            // The generated cursor can fall behind the clock after a full
            // drain; never ask the engine to run to the past.
            let now = Time::from_ps(h.witness().1);
            h.run_until(Time::from_ns(ns).max(now));
            snaps.push(snapshot(h));
        }
        Step::Run => {
            h.run();
            snaps.push(snapshot(h));
        }
        Step::Faults(ref plan) => {
            h.world().data.cluster.faults = plan.clone().map(FaultPlane::new);
        }
    }
}

/// Run `program` sequentially and under every shard count in `shards`,
/// asserting snapshot-for-snapshot equality.
fn assert_shadow(n: usize, cfg: NetConfig, plan: Option<FaultPlan>, seed: u64, shards: &[usize]) {
    assert_program_shadows(&gen_program(seed, n, 64), n, cfg, plan, seed, shards);
}

/// [`assert_shadow`] over a given program.
fn assert_program_shadows(
    program: &[Step],
    n: usize,
    cfg: NetConfig,
    plan: Option<FaultPlan>,
    seed: u64,
    shards: &[usize],
) {
    let run = |lanes| {
        let world = build_world(n, cfg, plan.clone());
        let bases = world.data.bases.clone();
        let mut h = Harness::new(world, 42, lanes);
        let mut snaps = Vec::new();
        for step in program {
            apply(&mut h, &bases, step, &mut snaps);
        }
        snaps
    };
    let reference = run(None);
    let last = reference.last().expect("program ends with Run");
    assert!(last.pending == 0, "reference program did not quiesce");
    assert!(last.executed > 0, "degenerate program: no events");

    for &k in shards {
        assert_eq!(
            run(Some(k)),
            reference,
            "sharded run (shards={k}, seed={seed}) diverged from sequential"
        );
    }
}

/// Lane counts every fabric is shadowed under.
const LANES: [usize; 5] = [1, 2, 3, 4, 8];

fn jittery(mut cfg: NetConfig) -> NetConfig {
    cfg.jitter_ns = 400;
    cfg
}

fn chaotic_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        rates: FaultRates {
            drop: 0.02,
            dup: 0.03,
            corrupt: 0.02,
            delay_p: 0.05,
            delay_min_ns: 100,
            delay_max_ns: 2_500,
        },
        link_rates: vec![(
            0,
            1,
            FaultRates {
                drop: 0.2,
                ..FaultRates::lossless()
            },
        )],
        flaps: vec![LinkFlap {
            src: 1,
            dst: 2,
            from: Time::from_ns(2_000),
            to: Time::from_ns(60_000),
        }],
        partitions: vec![Partition {
            from: Time::from_ns(5_000),
            to: Time::from_ns(90_000),
            group_a: vec![0, 3],
        }],
    }
}

#[test]
fn shadow_pure_fabric_matches_sequential() {
    for seed in [1, 7, 1234] {
        assert_shadow(12, NetConfig::ib_fdr(), None, seed, &LANES);
    }
}

#[test]
fn shadow_jittery_fabric_matches_sequential() {
    // Each message's jitter is keyed by its sender and the sender's
    // message count: the same draw on any lane.
    for seed in [3, 99] {
        assert_shadow(10, jittery(NetConfig::ideal()), None, seed, &LANES);
    }
}

#[test]
fn shadow_faulty_fabric_matches_sequential() {
    // Drops, dups, corruption, delay spikes, a hot link, a flap, and a
    // partition — each verdict drawn and counted at its sender.
    for seed in [17, 404] {
        assert_shadow(
            10,
            jittery(NetConfig::ib_fdr()),
            Some(chaotic_plan(seed ^ 0xfeed)),
            seed,
            &LANES,
        );
    }
}

#[test]
fn shadow_lossless_plan_is_free() {
    // An installed-but-lossless plan must not move anything either.
    assert_shadow(
        8,
        NetConfig::ib_fdr(),
        Some(FaultPlan::lossless(5)),
        21,
        &[4],
    );
}

#[test]
fn shadow_more_lanes_than_localities_clamps() {
    assert_shadow(3, NetConfig::ib_fdr(), None, 11, &[8]);
}

/// A fault plane installed mid-run and removed again: the senders' message
/// counts and fault counts run on across both changes.
#[test]
fn a_fault_plane_installed_and_removed_mid_run_shadows() {
    for seed in [5, 77] {
        let mut program = gen_program(seed, 10, 96);
        program.insert(32, Step::Faults(Some(chaotic_plan(seed))));
        program.insert(64, Step::Faults(None));
        assert_program_shadows(&program, 10, NetConfig::ib_fdr(), None, seed, &LANES);
    }
}

/// The event key holds a locality in 14 bits: a cluster one locality over
/// is refused up front, with the limit in the message.
#[test]
#[should_panic(expected = "at most 16383")]
fn a_cluster_too_large_for_the_event_key_is_refused() {
    let n = netsim::engine::MAX_LOCALITIES + 1;
    let world = ToyWorld {
        data: SharedState::new(ToyData {
            cluster: Cluster::new(n, NetConfig::ib_fdr(), 0),
            hits: Vec::new(),
            bases: Vec::new(),
        }),
    };
    ShardedEngine::new(world, 1, 2);
}

/// An oversubscribed switch core is one clock every sender reserves: no
/// lane owns it, so more than one lane is refused, naming the experiment
/// that needs it. One lane runs it.
#[test]
#[should_panic(expected = "E12, the bisection experiment, is sequential")]
fn an_oversubscribed_switch_core_is_refused_above_one_lane() {
    let cfg = NetConfig {
        oversubscription: 4,
        ..NetConfig::ib_fdr()
    };
    drop(ShardedEngine::new(build_world(4, cfg, None), 1, 1));
    ShardedEngine::new(build_world(4, cfg, None), 1, 2);
}

/// Two lanes over four localities (0–1 and 2–3), with `event` due on
/// locality `at`'s lane 10 ns in.
fn two_lanes_with(
    at: LocalityId,
    event: impl FnOnce(&mut Engine<ToyWorld>) + 'static,
) -> ShardedEngine<ToyWorld> {
    let mut sh = ShardedEngine::new(build_world(4, NetConfig::ib_fdr(), None), 1, 2);
    sh.drive_at(at, |eng| eng.schedule(Time::from_ns(10), event));
    sh
}

/// A panic on a lane thread surfaces from `run` with its own message; the
/// barrier used to wait forever for the dead lane.
#[test]
#[should_panic(expected = "boom on lane 1")]
fn lane_panic_propagates_from_run() {
    two_lanes_with(3, |_| panic!("boom on lane 1")).run();
}

/// The lookahead assertion is such a panic: an event that reaches across
/// the lane boundary 1 ns ahead, far inside the wire-latency window.
#[test]
#[should_panic(expected = "below the lookahead window")]
fn cross_lane_event_below_the_lookahead_panics() {
    let mut sh = two_lanes_with(0, |eng| {
        let at = eng.now() + Time::from_ns(1);
        eng.schedule_at_loc(at, 3, |_| {});
    });
    sh.run_until(Time::from_us(1));
}

/// Debug builds check every event a lane pops against the lane's share of
/// the localities: one queued on the wrong lane fails the run, naming the
/// locality, the lane and the event's time.
#[test]
#[cfg(debug_assertions)]
#[should_panic(
    expected = "lane 0 popped an event at 10.000ns for locality 3, which it does not own"
)]
fn a_misrouted_event_is_caught_by_the_lane_that_pops_it() {
    let mut sh = ShardedEngine::new(build_world(4, NetConfig::ib_fdr(), None), 1, 2);
    sh.push_on_lane(0, Time::from_ns(10), 3, |_| {});
    sh.run();
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Random programs over random cluster sizes: sequential and
        /// sharded executions are indistinguishable.
        #[test]
        fn random_programs_shadow(
            seed in 0u64..1_000_000,
            n in 2usize..16,
            shards in 2usize..6,
        ) {
            let faulty = seed % 2 == 1;
            let plan = faulty.then(|| chaotic_plan(seed));
            let cfg = if faulty {
                jittery(NetConfig::ib_fdr())
            } else {
                NetConfig::ib_fdr()
            };
            assert_shadow(n, cfg, plan, seed, &[shards]);
        }
    }
}
