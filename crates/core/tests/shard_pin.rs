//! The golden trace pins, on the sequential engine and at every lane count.
//!
//! The seven pinned scenarios (`common/pins.rs`) each assert
//! `(trace_hash, now, events)` against the golden table
//! (`common/golden.rs`). The hashes sum every executed `(time, key)` pair,
//! and a key carries its origin's schedule count, so they witness what
//! every locality executed and in what order. Any change to observable
//! scheduling — eviction order, lookup outcomes, retry timing, which of two
//! same-instant events runs first — shifts them; a refactor must leave them
//! bit-for-bit unchanged. Each scenario runs on the sequential engine and
//! under lane counts {1, 2, 4, 8}: the sharded engine contracts to
//! reproduce the sequential run bit-for-bit.
//!
//! A failure on the sequential row means the protocol itself moved; a
//! failure only on lane rows means the sharded engine diverged from
//! sequential execution.
//!
//! The suite also pins the synchronisation window itself
//! (`window_is_the_smallest_cross_lane_delay`): its width on plain,
//! shared-memory and lane-straddling fabrics, and that the widest sound
//! window still replays the sequential schedule.

#[path = "common/golden.rs"]
mod golden;
#[path = "common/pins.rs"]
mod pins;

use agas::{alloc_array, Distribution, GasMode, SimWorld};
use golden::*;
use netsim::{Harness, NetConfig, ShardMap, ShmDomain, Time};
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
