//! The golden trace pins, replayed on the sharded engine.
//!
//! `trace_pin.rs` pins the sequential `(trace_hash, now, events)` of seven
//! workloads. The hashes sum every executed `(time, key)` pair, and a key
//! carries its origin's schedule count, so they witness what every
//! locality executed and in what order — and the sharded engine
//! contracts to reproduce that bit-for-bit at any shard count. This
//! suite re-runs the same scenarios on [`agas::SimWorld`] (the
//! `Send` twin of the integration `World`, with identical construction
//! defaults and protocol dispatch) sequentially *and* under shard counts
//! {1, 2, 4, 8}, asserting the very same golden constants.
//!
//! A pin failure here with a passing `trace_pin.rs` means the sharded
//! engine (or `SimWorld`) diverged from sequential execution; a failure in
//! both means the protocol itself moved.
//!
//! The suite also pins the synchronisation window itself
//! (`window_is_the_smallest_cross_lane_delay`): its width on plain,
//! shared-memory and lane-straddling fabrics, and that the widest sound
//! window still replays the sequential schedule.

#[path = "common/golden.rs"]
mod golden;

use agas::migrate::migrate_block;
use agas::ops::{memamo, memget, memput};
use agas::{
    alloc_array, membership, Distribution, GasMode, GlobalArray, MemberState, OwnerCache, SimWorld,
};
use golden::*;
use netsim::{
    AmoOp, Engine, LocalityId, NetConfig, OpId, ShardMap, ShardedEngine, ShmDomain, Time,
};

/// Shard counts every scenario must reproduce its pin under. `None` is
/// the plain sequential engine (the control that ties this suite to
/// `trace_pin.rs`).
const GRID: [Option<usize>; 5] = [None, Some(1), Some(2), Some(4), Some(8)];

fn jittery() -> NetConfig {
    NetConfig {
        jitter_ns: 400,
        ..NetConfig::ideal()
    }
}

/// One workload harness: the same `SimWorld` program driven either by the
/// sequential engine or by the sharded one.
enum Harness {
    Seq(Engine<SimWorld>),
    Shard(ShardedEngine<SimWorld>),
}

impl Harness {
    fn new(n: usize, mode: GasMode, net: NetConfig, seed: u64, shards: Option<usize>) -> Harness {
        let world = SimWorld::new(n, mode, net);
        match shards {
            None => Harness::Seq(Engine::new(world, seed)),
            Some(k) => Harness::Shard(ShardedEngine::new(world, seed, k)),
        }
    }

    /// Driver-phase world access (between runs).
    fn world(&mut self) -> &mut SimWorld {
        match self {
            Harness::Seq(e) => &mut e.state,
            Harness::Shard(s) => s.state(),
        }
    }

    /// Issue driver code attributed to locality `loc` (op submissions,
    /// injected events).
    fn issue(&mut self, loc: LocalityId, f: impl FnOnce(&mut Engine<SimWorld>) + 'static) {
        match self {
            Harness::Seq(e) => f(e),
            Harness::Shard(s) => s.drive_at(loc, f),
        }
    }

    fn alloc(&mut self, blocks: u64, class: u8) -> GlobalArray {
        match self {
            Harness::Seq(e) => alloc_array(e, blocks, class, Distribution::Cyclic),
            Harness::Shard(s) => s.drive(|e| alloc_array(e, blocks, class, Distribution::Cyclic)),
        }
    }

    /// Driver-phase code that plans a global transition (the membership
    /// drivers): reads any locality, mutates only via scheduled events.
    fn drive(&mut self, f: impl FnOnce(&mut Engine<SimWorld>) + 'static) {
        match self {
            Harness::Seq(e) => f(e),
            Harness::Shard(s) => s.drive(f),
        }
    }

    fn run(&mut self) {
        match self {
            Harness::Seq(e) => e.run(),
            Harness::Shard(s) => s.run(),
        };
    }

    fn run_steps(&mut self, n: u64) {
        match self {
            Harness::Seq(e) => e.run_steps(n),
            Harness::Shard(s) => s.run_steps(n),
        };
    }

    fn finish(&mut self) -> Pin {
        self.run();
        match self {
            Harness::Seq(e) => (e.trace_hash(), e.now().ps(), e.events_executed()),
            Harness::Shard(s) => (s.trace_hash(), s.now().ps(), s.events_executed()),
        }
    }

    /// The sharded engine's window width and windows crossed so far.
    fn window(&self) -> Option<(Time, u64)> {
        match self {
            Harness::Seq(_) => None,
            Harness::Shard(s) => Some((s.lookahead(), s.stats().windows)),
        }
    }
}

fn check(name: &str, shards: Option<usize>, got: Pin, want: Pin) {
    assert_eq!(
        got, want,
        "{name} (shards={shards:?}): pin moved — observed (hash, ps, events) = ({:#018x}, {}, {})",
        got.0, got.1, got.2
    );
}

/// Remote puts + read-back on a jittery fabric (see `trace_pin.rs`).
fn jitter_puts(mode: GasMode, seed: u64, shards: Option<usize>) -> Pin {
    let mut h = Harness::new(3, mode, jittery(), seed, shards);
    let arr = h.alloc(4, 12);
    for i in 0..30u64 {
        let gva = arr.block(i % 4).with_offset((i / 4) * 16);
        let loc = (i % 3) as u32;
        h.issue(loc, move |eng| {
            memput(eng, loc, gva, vec![(i + 1) as u8; 16], OpId::from_raw(i));
        });
    }
    h.run();
    for i in 0..30u64 {
        let gva = arr.block(i % 4).with_offset((i / 4) * 16);
        let loc = ((i + 1) % 3) as u32;
        h.issue(loc, move |eng| {
            memget(eng, loc, gva, 16, OpId::from_raw(100 + i));
        });
    }
    h.finish()
}

/// Puts racing migrations under jitter.
fn migration_mix(mode: GasMode, shards: Option<usize>) -> Pin {
    let mut h = Harness::new(4, mode, jittery(), 11, shards);
    let arr = h.alloc(4, 12);
    for round in 0..6u64 {
        for b in 0..4u64 {
            let gva = arr.block(b).with_offset(round * 16);
            let loc = (b % 4) as u32;
            h.issue(loc, move |eng| {
                memput(
                    eng,
                    loc,
                    gva,
                    vec![(round * 4 + b + 1) as u8; 16],
                    OpId::from_raw(round * 4 + b),
                );
            });
            let mig = arr.block(b);
            h.issue(0, move |eng| {
                migrate_block(
                    eng,
                    0,
                    mig,
                    ((round + b) % 4) as u32,
                    OpId::from_raw(9000 + round * 4 + b),
                );
            });
        }
        h.run_steps(40);
    }
    h.finish()
}

/// The deadline-sweep fault scenario: locality 0 forgets its in-flight
/// wire ops and the sweep converts the silence into failures.
fn deadline_fault(seed: u64, shards: Option<usize>) -> Pin {
    let mut h = Harness::new(4, GasMode::AgasNetwork, jittery(), seed, shards);
    for g in &mut h.world().data.gas {
        g.cfg.op_deadline = Some(Time::from_us(40));
        g.cfg.sweep_interval = Time::from_us(5);
    }
    let arr = h.alloc(4, 12);
    for i in 0..8u64 {
        let gva = arr.block(i % 4).with_offset((i / 4) * 64);
        h.issue(0, move |eng| {
            memput(eng, 0, gva, vec![i as u8 + 1; 64], OpId::from_raw(i));
            memget(eng, 0, gva, 64, OpId::from_raw(100 + i));
        });
    }
    let (m1, m2) = (arr.block(1), arr.block(2));
    h.issue(1, move |eng| {
        migrate_block(eng, 1, m1, 3, OpId::from_raw(900));
    });
    h.issue(2, move |eng| {
        migrate_block(eng, 2, m2, 0, OpId::from_raw(901));
    });
    // The injected endpoint amnesia touches eps[0]: locality 0's event.
    h.issue(0, |eng| {
        eng.schedule(Time::from_ns(150), |eng| {
            eng.state.data.eps[0].drop_pending_ops();
        });
    });
    h.finish()
}

/// Capacity pressure: tiny NIC table + tiny owner caches.
fn capacity_pressure(shards: Option<usize>) -> Pin {
    let net = NetConfig {
        xlate_capacity: 4,
        ..NetConfig::ideal()
    };
    let mut h = Harness::new(4, GasMode::AgasNetwork, net, 17, shards);
    for g in &mut h.world().data.gas {
        g.cache = OwnerCache::new(3);
    }
    let arr = h.alloc(16, 12);
    for i in 0..120u64 {
        let gva = arr.block((i * 7) % 16).with_offset((i % 4) * 32);
        let loc = ((i + 1) % 4) as u32;
        h.issue(loc, move |eng| {
            memput(eng, loc, gva, vec![(i + 1) as u8; 32], OpId::from_raw(i));
        });
        if i % 11 == 10 {
            let mig = arr.block(i % 16);
            let loc = (i % 4) as u32;
            h.issue(loc, move |eng| {
                migrate_block(
                    eng,
                    loc,
                    mig,
                    ((i + 2) % 4) as u32,
                    OpId::from_raw(9000 + i),
                );
            });
        }
        h.run_steps(15);
    }
    for i in 0..60u64 {
        let gva = arr.block((i * 3) % 16);
        let loc = (i % 4) as u32;
        h.issue(loc, move |eng| {
            memget(eng, loc, gva, 32, OpId::from_raw(2000 + i));
        });
    }
    h.finish()
}

/// A NIC firmware reset mid-run: flush + miss-driven reinstall paths.
fn flush_recovery(shards: Option<usize>) -> Pin {
    let mut h = Harness::new(4, GasMode::AgasNetwork, NetConfig::ideal(), 23, shards);
    let arr = h.alloc(8, 12);
    for i in 0..60u64 {
        let gva = arr.block(i % 8).with_offset((i / 8) * 64);
        let loc = ((i + 1) % 4) as u32;
        h.issue(loc, move |eng| {
            memput(eng, loc, gva, vec![(i + 1) as u8; 64], OpId::from_raw(i));
        });
        if i == 30 {
            // Driver-phase firmware reset, between runs: plain state access.
            let cluster = &mut h.world().data.cluster;
            for l in 0..4u32 {
                cluster.loc_mut(l).nic.xlate.flush_live();
            }
        }
        h.run_steps(10);
    }
    h.finish()
}

/// NIC-executed AMOs racing migrations under jitter (see `trace_pin.rs`).
fn amo_mix(mode: GasMode, shards: Option<usize>) -> Pin {
    let mut h = Harness::new(4, mode, jittery(), 19, shards);
    let arr = h.alloc(4, 12);
    for i in 0..40u64 {
        let loc = (i % 4) as u32;
        let gva = arr.block(i % 4).with_offset((i % 8) * 8);
        h.issue(loc, move |eng| {
            memamo(
                eng,
                loc,
                gva,
                AmoOp::FetchAdd { operand: i + 1 },
                OpId::from_raw(i),
            );
        });
        if i % 5 == 4 {
            let cas = arr.block((i + 1) % 4);
            h.issue(loc, move |eng| {
                memamo(
                    eng,
                    loc,
                    cas,
                    AmoOp::CompareSwap {
                        expected: 0,
                        desired: i,
                    },
                    OpId::from_raw(500 + i),
                );
            });
        }
        if i % 7 == 6 {
            let sc = arr.block((i + 2) % 4);
            h.issue(loc, move |eng| {
                memamo(
                    eng,
                    loc,
                    sc,
                    AmoOp::Scatter {
                        writes: vec![(112, i), (120, i + 1)],
                    },
                    OpId::from_raw(700 + i),
                );
            });
        }
        if i % 16 == 8 && mode.supports_migration() {
            let mig = arr.block(i % 4);
            h.issue(loc, move |eng| {
                migrate_block(
                    eng,
                    loc,
                    mig,
                    ((i + 1) % 4) as u32,
                    OpId::from_raw(9000 + i),
                );
            });
        }
        h.run_steps(12);
    }
    for i in 0..16u64 {
        let loc = (i % 4) as u32;
        let gva = arr.block(i % 4);
        h.issue(loc, move |eng| {
            memamo(
                eng,
                loc,
                gva,
                AmoOp::Gather {
                    offsets: vec![0, 8, 16, 24],
                },
                OpId::from_raw(2000 + i),
            );
        });
    }
    h.finish()
}

/// The elastic membership ladder (see `trace_pin.rs::member_mix`): join,
/// drain, and — under the AGAS modes — crash + recovery, with every
/// transition a per-locality engine event so shard counts cannot reorder
/// it.
fn member_mix(mode: GasMode, shards: Option<usize>) -> Pin {
    let mut h = Harness::new(4, mode, jittery(), 29, shards);
    h.drive(|eng| membership::mark(eng, 3, MemberState::Joining));
    let arr = h.alloc(8, 12);
    for i in 0..24u64 {
        let gva = arr.block(i % 8).with_offset((i / 8) * 32);
        let loc = (i % 3) as u32;
        h.issue(loc, move |eng| {
            memput(eng, loc, gva, vec![(i + 1) as u8; 32], OpId::from_raw(i));
        });
        h.run_steps(10);
    }
    h.drive(|eng| membership::join(eng, 3, 0));
    for i in 0..24u64 {
        let gva = arr.block(i % 8).with_offset(64 + (i / 8) * 32);
        let loc = (i % 4) as u32;
        h.issue(loc, move |eng| {
            memput(
                eng,
                loc,
                gva,
                vec![(i + 101) as u8; 32],
                OpId::from_raw(100 + i),
            );
        });
        h.run_steps(10);
    }
    let drainee = if mode.supports_migration() { 2 } else { 3 };
    h.drive(move |eng| membership::drain(eng, drainee));
    for i in 0..16u64 {
        let gva = arr.block(i % 8);
        let loc = (i % 2) as u32;
        h.issue(loc, move |eng| {
            memget(eng, loc, gva, 32, OpId::from_raw(200 + i));
        });
        h.run_steps(10);
    }
    if mode.supports_migration() {
        h.run();
        let mig = arr.block(0);
        h.issue(0, move |eng| {
            migrate_block(eng, 0, mig, 1, OpId::from_raw(900));
        });
        h.run();
        h.drive(|eng| membership::crash(eng, 1));
        h.run_steps(64);
        for i in 0..8u64 {
            let gva = arr.block(i % 8);
            h.issue(0, move |eng| {
                memget(eng, 0, gva, 32, OpId::from_raw(300 + i));
            });
        }
    }
    h.finish()
}

/// `(trace_hash, now, events_executed, pump_completed)` of a GUPS-pump run.
type PumpWitness = (u64, u64, u64, u64);

/// The self-pumping GUPS kernel: every locality chains 8 random puts, each
/// issued from the previous one's completion. Returns the run's witness
/// and, when sharded, the window width and the windows the one `run()`
/// crossed.
fn gups_pump(
    n: usize,
    mode: GasMode,
    net: NetConfig,
    shards: Option<usize>,
) -> (PumpWitness, Option<(Time, u64)>) {
    let mut h = Harness::new(n, mode, net, 42, shards);
    let arr = h.alloc(n as u64, 13);
    h.world().set_pump_blocks(arr.blocks.clone());
    for l in 0..n as u32 {
        h.world().arm_gups(l, 8, 42);
        h.issue(l, move |eng| SimWorld::pump_prime(eng, l));
    }
    let (hash, now, events) = h.finish();
    let witness = (hash, now, events, h.world().pump_completed());
    (witness, h.window())
}

#[test]
fn window_is_the_smallest_cross_lane_delay() {
    let fdr = NetConfig::ib_fdr();
    let shm = ShmDomain::node(4);
    let shm_fdr = NetConfig {
        shm: Some(shm),
        ..fdr
    };
    assert!(shm.load_store < fdr.latency);
    for mode in [GasMode::AgasSoftware, GasMode::AgasNetwork] {
        // (a) 32 localities in 4-locality domains: at 1/2/4/8 lanes every
        // domain sits inside one lane, so the window is the wire latency
        // even though intra-domain hops are 11x shorter, and the run
        // crosses no more barriers than that width allows.
        let (reference, _) = gups_pump(32, mode, shm_fdr, None);
        assert_eq!(reference.3, 32 * 8, "{mode:?}: pump fell short");
        for shards in GRID {
            let (got, window) = gups_pump(32, mode, shm_fdr, shards);
            assert_eq!(got, reference, "{mode:?} shards={shards:?}: diverged");
            if let Some((lookahead, windows)) = window {
                assert_eq!(lookahead, fdr.latency, "{mode:?} shards={shards:?}");
                let bound = got.1.div_ceil(lookahead.ps()) + 1;
                assert!(
                    windows <= bound,
                    "{mode:?} shards={shards:?}: {windows} windows over {} ps, bound {bound}",
                    got.1
                );
            }
        }

        // (b) 6 localities on 2 lanes split {0,1,2} / {3,4,5}: domain
        // {0,1,2,3} straddles the boundary, so a load/store hop can cross
        // lanes and the window must shrink to it.
        let map = ShardMap::new(2, 6);
        assert_ne!(map.lane_of(2), map.lane_of(3));
        let (reference, _) = gups_pump(6, mode, shm_fdr, None);
        let (got, window) = gups_pump(6, mode, shm_fdr, Some(2));
        assert_eq!(got, reference, "{mode:?}: straddling domain diverged");
        assert_eq!(window.map(|w| w.0), Some(shm.load_store), "{mode:?}");

        // (c) No shared memory: the window is the wire latency.
        for shards in [1, 2, 4, 8] {
            let (_, window) = gups_pump(8, mode, fdr, Some(shards));
            assert_eq!(window.map(|w| w.0), Some(fdr.latency), "{mode:?} {shards}");
        }
    }
}

#[test]
fn shard_pin_jitter_puts() {
    for shards in GRID {
        check(
            "jitter_puts/pgas",
            shards,
            jitter_puts(GasMode::Pgas, 7, shards),
            GOLDEN_JITTER_PGAS,
        );
        check(
            "jitter_puts/sw",
            shards,
            jitter_puts(GasMode::AgasSoftware, 7, shards),
            GOLDEN_JITTER_SW,
        );
        check(
            "jitter_puts/net",
            shards,
            jitter_puts(GasMode::AgasNetwork, 7, shards),
            GOLDEN_JITTER_NET,
        );
    }
}

#[test]
fn shard_pin_migration_mix() {
    for shards in GRID {
        check(
            "migration_mix/sw",
            shards,
            migration_mix(GasMode::AgasSoftware, shards),
            GOLDEN_MIG_SW,
        );
        check(
            "migration_mix/net",
            shards,
            migration_mix(GasMode::AgasNetwork, shards),
            GOLDEN_MIG_NET,
        );
    }
}

#[test]
fn shard_pin_deadline_fault() {
    for shards in GRID {
        check(
            "deadline_fault/11",
            shards,
            deadline_fault(11, shards),
            GOLDEN_DEADLINE_11,
        );
        check(
            "deadline_fault/23",
            shards,
            deadline_fault(23, shards),
            GOLDEN_DEADLINE_23,
        );
    }
}

#[test]
fn shard_pin_capacity_pressure() {
    for shards in GRID {
        check(
            "capacity_pressure",
            shards,
            capacity_pressure(shards),
            GOLDEN_CAPACITY,
        );
    }
}

#[test]
fn shard_pin_flush_recovery() {
    for shards in GRID {
        check(
            "flush_recovery",
            shards,
            flush_recovery(shards),
            GOLDEN_FLUSH,
        );
    }
}

#[test]
fn shard_pin_amo_mix() {
    for shards in GRID {
        check(
            "amo_mix/pgas",
            shards,
            amo_mix(GasMode::Pgas, shards),
            GOLDEN_AMO_PGAS,
        );
        check(
            "amo_mix/sw",
            shards,
            amo_mix(GasMode::AgasSoftware, shards),
            GOLDEN_AMO_SW,
        );
        check(
            "amo_mix/net",
            shards,
            amo_mix(GasMode::AgasNetwork, shards),
            GOLDEN_AMO_NET,
        );
    }
}

#[test]
fn shard_pin_member_mix() {
    for shards in GRID {
        check(
            "member_mix/pgas",
            shards,
            member_mix(GasMode::Pgas, shards),
            GOLDEN_MEMBER_PGAS,
        );
        check(
            "member_mix/sw",
            shards,
            member_mix(GasMode::AgasSoftware, shards),
            GOLDEN_MEMBER_SW,
        );
        check(
            "member_mix/net",
            shards,
            member_mix(GasMode::AgasNetwork, shards),
            GOLDEN_MEMBER_NET,
        );
    }
}
