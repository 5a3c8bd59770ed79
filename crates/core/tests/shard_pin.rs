//! The golden trace pins, on the sequential engine and at every lane count.
//!
//! The eight pinned scenarios (`common/pins.rs`) each assert
//! `(trace_hash, now, events)` against the golden table
//! (`common/golden.rs`). The hashes sum every executed `(time, key)` pair,
//! and a key carries its origin's schedule count, so they witness what
//! every locality executed and in what order. Any change to observable
//! scheduling — eviction order, lookup outcomes, retry timing, which of two
//! same-instant events runs first — shifts them; a refactor must leave them
//! bit-for-bit unchanged. Each scenario runs on the sequential engine and
//! under lane counts {1, 2, 4, 8}: the sharded engine contracts to
//! reproduce the sequential run bit-for-bit. `free_mix` is the exception,
//! pinned on the sequential engine only: a PGAS runtime free writes the
//! shared address table, so lanes must not issue one, and the AGAS arms do
//! not replay on lanes yet (see `pin_free_mix`).
//!
//! A failure on the sequential row means the protocol itself moved; a
//! failure only on lane rows means the sharded engine diverged from
//! sequential execution.
//!
//! The suite also pins the synchronisation window itself
//! (`window_is_the_smallest_cross_lane_delay`): its width on plain,
//! shared-memory and lane-straddling fabrics, and that the widest sound
//! window still replays the sequential schedule. And
//! `shm_domain_mix_is_lane_invariant` runs puts, AMOs and gets over a
//! jittery shared-memory domain, where the load/store short-circuit
//! shrinks the window, and demands the sequential witness at every lane
//! count.
//!
//! `send_queue_burst_is_lane_invariant` issues more one-sided ops per
//! locality than the PWC send queue posts ([`agas::POST_DEPTH`]) and
//! demands the sequential witness, pinned as `GOLDEN_SEND_QUEUE`, at every
//! lane count: an answer posts the next queued op on its own locality's
//! lane.
//!
//! `agas_net_without_a_nic_table_is_agas_sw` runs three scenarios as
//! AGAS-NET over a zero-capacity fabric and demands the AGAS-SW pins:
//! AGAS-SW is AGAS with `xlate_capacity: 0`, not a second protocol.

#[path = "common/golden.rs"]
mod golden;
#[path = "common/pins.rs"]
mod pins;

use agas::ops::{memamo, memget, memput};
use agas::{alloc_array, Distribution, GasMode, SimWorld, POST_DEPTH};
use golden::*;
use netsim::{AmoOp, Harness, NetConfig, OpId, ShardMap, ShmDomain, Time};
use pins::*;

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
    let mut h = Harness::new(SimWorld::new(n, mode, net), 42, shards);
    let arr = h.drive(|e| alloc_array(e, n as u64, 13, Distribution::Cyclic));
    h.world().set_pump_blocks(arr.blocks.clone());
    for l in 0..n as u32 {
        h.world().arm_gups(l, 8, 42);
        h.drive_at(l, move |eng| SimWorld::pump_prime(eng, l));
    }
    h.run();
    let (hash, now, events) = h.witness();
    let witness = (hash, now, events, h.world_ref().pump_completed());
    let window = h.sharded().map(|s| (s.lookahead(), s.stats().windows));
    (witness, window)
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

/// Mixed intra-/inter-domain traffic with a [`ShmDomain`] of size 2:
/// localities {0,1} and {2,3} short-circuit the NIC inside their domain
/// (zero wire messages, load/store costs) while cross-domain ops still
/// ride the fabric. Returns `(trace_hash, now, events)`.
fn shm_domain_mix(lanes: Option<usize>) -> (u64, u64, u64) {
    let net = NetConfig {
        shm: Some(ShmDomain::node(2)),
        ..jittery()
    };
    let mut h = Harness::new(SimWorld::new(4, GasMode::AgasNetwork, net), 43, lanes);
    let arr = h.drive(|e| alloc_array(e, 8, 12, Distribution::Cyclic));
    for i in 0..40u64 {
        let loc = (i % 4) as u32;
        // Some ops stay inside the domain, the rest cross it.
        let gva = arr.block((i * 3) % 8).with_offset((i % 4) * 32);
        h.drive_at(loc, move |eng| {
            memput(eng, loc, gva, vec![(i + 1) as u8; 32], OpId::from_raw(i));
        });
        if i % 3 == 2 {
            h.drive_at(loc, move |eng| {
                memamo(
                    eng,
                    loc,
                    gva,
                    AmoOp::FetchAdd { operand: i },
                    OpId::from_raw(600 + i),
                );
            });
        }
        h.run_steps(12);
    }
    for i in 0..16u64 {
        let loc = ((i + 1) % 4) as u32;
        let gva = arr.block(i % 8);
        h.drive_at(loc, move |eng| {
            memget(eng, loc, gva, 32, OpId::from_raw(2000 + i));
        });
    }
    h.run();
    h.witness()
}

#[test]
fn shm_domain_mix_is_lane_invariant() {
    let reference = shm_domain_mix(None);
    for lanes in GRID {
        let got = shm_domain_mix(lanes);
        assert_eq!(
            got, reference,
            "shm_domain_mix (lanes={lanes:?}): diverged from the sequential run — \
             observed (hash, ps, events) = ({:#018x}, {}, {})",
            got.0, got.1, got.2
        );
    }
}

#[test]
fn shard_pin_jitter_puts() {
    for shards in GRID {
        check(
            "jitter_puts/pgas",
            shards,
            jitter_puts(GasMode::Pgas, 7, shards, None),
            GOLDEN_JITTER_PGAS,
        );
        check(
            "jitter_puts/sw",
            shards,
            jitter_puts(GasMode::AgasSoftware, 7, shards, None),
            GOLDEN_JITTER_SW,
        );
        check(
            "jitter_puts/net",
            shards,
            jitter_puts(GasMode::AgasNetwork, 7, shards, None),
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
            migration_mix(GasMode::AgasSoftware, shards, None),
            GOLDEN_MIG_SW,
        );
        check(
            "migration_mix/net",
            shards,
            migration_mix(GasMode::AgasNetwork, shards, None),
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
            deadline_fault(11, shards, None),
            GOLDEN_DEADLINE_11,
        );
        check(
            "deadline_fault/23",
            shards,
            deadline_fault(23, shards, None),
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
            capacity_pressure(shards, None),
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
            flush_recovery(shards, None),
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
            amo_mix(GasMode::Pgas, shards, None),
            GOLDEN_AMO_PGAS,
        );
        check(
            "amo_mix/sw",
            shards,
            amo_mix(GasMode::AgasSoftware, shards, None),
            GOLDEN_AMO_SW,
        );
        check(
            "amo_mix/net",
            shards,
            amo_mix(GasMode::AgasNetwork, shards, None),
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
            member_mix(GasMode::Pgas, shards, None),
            GOLDEN_MEMBER_PGAS,
        );
        check(
            "member_mix/sw",
            shards,
            member_mix(GasMode::AgasSoftware, shards, None),
            GOLDEN_MEMBER_SW,
        );
        check(
            "member_mix/net",
            shards,
            member_mix(GasMode::AgasNetwork, shards, None),
            GOLDEN_MEMBER_NET,
        );
    }
}

/// AGAS-SW is AGAS-NET over a fabric without a NIC table: run as AGAS-NET
/// at `xlate_capacity: 0`, each scenario lands on its AGAS-SW pin,
/// sequentially and on lanes.
#[test]
fn agas_net_without_a_nic_table_is_agas_sw() {
    let arm = Arm {
        mode: GasMode::AgasNetwork,
        nic_table: false,
    };
    for shards in [None, Some(2), Some(4)] {
        let jitter = jitter_puts(arm, 7, shards, None);
        check("jitter_puts/net-cap0", shards, jitter, GOLDEN_JITTER_SW);
        let amo = amo_mix(arm, shards, None);
        check("amo_mix/net-cap0", shards, amo, GOLDEN_AMO_SW);
        let member = member_mix(arm, shards, None);
        check("member_mix/net-cap0", shards, member, GOLDEN_MEMBER_SW);
    }
}

/// A burst deeper than the PWC send queue: each of 8 localities issues
/// `POST_DEPTH + 64` puts and as many gets over a jittery fabric, so most
/// ops wait queued and each answer posts the next from its completion, on
/// the answering locality's lane. Returns the run's witness and the
/// deepest send queue after issue.
fn send_queue_burst(lanes: Option<usize>) -> (Pin, usize) {
    const N: u32 = 8;
    let world = SimWorld::new(N as usize, GasMode::AgasNetwork, jittery());
    let mut h = Harness::new(world, 44, lanes);
    let arr = h.drive(|e| alloc_array(e, u64::from(N), 12, Distribution::Cyclic));
    let burst = u64::from(POST_DEPTH) + 64;
    for l in 0..N {
        let blocks = arr.blocks.clone();
        h.drive_at(l, move |eng| {
            for i in 0..burst {
                let peer = (u64::from(l) + 1 + i % u64::from(N - 1)) % u64::from(N);
                let gva = blocks[peer as usize].with_offset((i % 128) * 32);
                memput(eng, l, gva, vec![i as u8; 32], OpId::from_raw(i));
                memget(eng, l, gva, 32, OpId::from_raw(burst + i));
            }
        });
    }
    let w = h.world_ref();
    let deepest = (0..N as usize).map(|l| w.data.gas[l].queued_ops()).max();
    h.run();
    let w = h.world_ref();
    assert_eq!(w.put_acks() + w.get_acks(), 2 * burst * u64::from(N));
    for g in &w.data.gas {
        assert_eq!((g.posted_ops(), g.queued_ops()), (0, 0));
    }
    (h.witness(), deepest.unwrap_or(0))
}

/// The send-queue burst replays the sequential run bit for bit at every
/// lane count: posting a queued op from a completion stays lane-local.
#[test]
fn send_queue_burst_is_lane_invariant() {
    let (reference, deepest) = send_queue_burst(None);
    check("send_queue_burst", None, reference, GOLDEN_SEND_QUEUE);
    // 2 * (POST_DEPTH + 64) ops per locality, POST_DEPTH of them posted.
    assert_eq!(
        deepest,
        POST_DEPTH as usize + 128,
        "ops queued behind the posted ones"
    );
    for lanes in GRID {
        let (got, _) = send_queue_burst(lanes);
        check("send_queue_burst", lanes, got, reference);
    }
}

/// The runtime free path, on the sequential engine. A PGAS free writes the
/// shared address table (`SimWorld`'s `SplitWorld` contract), so that arm
/// never runs on lanes. An AGAS free touches only the per-locality state of
/// the localities it visits, but the AGAS arms still diverge on lanes, from
/// one lane up, at the driver-phase `unpin` of block 6: it re-routes the
/// second deferred migration through `migrate::resend_via_home`, whose plain
/// `schedule` is the driver's on the sequential engine and locality 2's on a
/// lane (same clock and event count, another hash).
#[test]
fn pin_free_mix() {
    for (name, mode, want) in [
        ("free_mix/pgas", GasMode::Pgas, GOLDEN_FREE_PGAS),
        ("free_mix/sw", GasMode::AgasSoftware, GOLDEN_FREE_SW),
        ("free_mix/net", GasMode::AgasNetwork, GOLDEN_FREE_NET),
    ] {
        check(name, None, free_mix(mode, None), want);
    }
}
