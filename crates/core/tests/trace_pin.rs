//! Golden trace-hash pins.
//!
//! Each scenario below runs a deterministic workload and asserts the
//! engine's final `(trace_hash, now, events executed)` against the table in
//! `common/golden.rs`. Any change to observable scheduling — eviction
//! order, lookup outcomes, retry timing, which of two same-instant events
//! runs first — shifts these values; a refactor must leave them
//! bit-for-bit unchanged.

mod common;
#[path = "common/golden.rs"]
mod golden;

use agas::migrate::migrate_block;
use agas::ops::{memamo, memget, memput};
use agas::{alloc_array, membership, Distribution, GasMode, MemberState, OwnerCache};
use common::World;
use golden::*;
use netsim::{AmoOp, Engine, NetConfig, OpId, Time};

fn jittery() -> NetConfig {
    NetConfig {
        jitter_ns: 400,
        ..NetConfig::ideal()
    }
}

fn finish(eng: &mut Engine<World>) -> Pin {
    eng.run();
    (eng.trace_hash(), eng.now().ps(), eng.events_executed())
}

fn check(name: &str, got: Pin, want: Pin) {
    assert_eq!(
        got, want,
        "{name}: trace pin moved — observed (hash, ps, events) = ({:#018x}, {}, {})",
        got.0, got.1, got.2
    );
}

/// Remote puts + read-back on a jittery fabric, one pin per GAS mode.
fn jitter_puts(mode: GasMode, seed: u64) -> Pin {
    let mut eng = Engine::new(World::new(3, mode, jittery()), seed);
    let arr = alloc_array(&mut eng, 4, 12, Distribution::Cyclic);
    for i in 0..30u64 {
        memput(
            &mut eng,
            (i % 3) as u32,
            arr.block(i % 4).with_offset((i / 4) * 16),
            vec![(i + 1) as u8; 16],
            OpId::from_raw(i),
        );
    }
    eng.run();
    for i in 0..30u64 {
        memget(
            &mut eng,
            ((i + 1) % 3) as u32,
            arr.block(i % 4).with_offset((i / 4) * 16),
            16,
            OpId::from_raw(100 + i),
        );
    }
    finish(&mut eng)
}

/// Puts racing migrations under jitter (the tier-1 migration mix).
fn migration_mix(mode: GasMode) -> Pin {
    let mut eng = Engine::new(World::new(4, mode, jittery()), 11);
    let arr = alloc_array(&mut eng, 4, 12, Distribution::Cyclic);
    for round in 0..6u64 {
        for b in 0..4u64 {
            memput(
                &mut eng,
                (b % 4) as u32,
                arr.block(b).with_offset(round * 16),
                vec![(round * 4 + b + 1) as u8; 16],
                OpId::from_raw(round * 4 + b),
            );
            migrate_block(
                &mut eng,
                0,
                arr.block(b),
                ((round + b) % 4) as u32,
                OpId::from_raw(9000 + round * 4 + b),
            );
        }
        eng.run_steps(40);
    }
    finish(&mut eng)
}

/// The deadline-sweep fault scenario: locality 0 forgets its in-flight
/// wire ops and the sweep converts the silence into failures.
fn deadline_fault(seed: u64) -> Pin {
    let mut eng = Engine::new(World::new(4, GasMode::AgasNetwork, jittery()), seed);
    for g in &mut eng.state.gas {
        g.cfg.op_deadline = Some(Time::from_us(40));
        g.cfg.sweep_interval = Time::from_us(5);
    }
    let arr = alloc_array(&mut eng, 4, 12, Distribution::Cyclic);
    for i in 0..8u64 {
        let gva = arr.block(i % 4).with_offset((i / 4) * 64);
        memput(&mut eng, 0, gva, vec![i as u8 + 1; 64], OpId::from_raw(i));
        memget(&mut eng, 0, gva, 64, OpId::from_raw(100 + i));
    }
    migrate_block(&mut eng, 1, arr.block(1), 3, OpId::from_raw(900));
    migrate_block(&mut eng, 2, arr.block(2), 0, OpId::from_raw(901));
    eng.schedule(Time::from_ns(150), |eng| {
        eng.state.eps[0].drop_pending_ops();
    });
    finish(&mut eng)
}

/// Capacity pressure: a 4-entry NIC table and 3-entry owner caches force
/// constant evictions, pinning the exact LRU eviction order.
fn capacity_pressure() -> Pin {
    let net = NetConfig {
        xlate_capacity: 4,
        ..NetConfig::ideal()
    };
    let mut eng = Engine::new(World::new(4, GasMode::AgasNetwork, net), 17);
    for g in &mut eng.state.gas {
        g.cache = OwnerCache::new(3);
    }
    let arr = alloc_array(&mut eng, 16, 12, Distribution::Cyclic);
    for i in 0..120u64 {
        let gva = arr.block((i * 7) % 16).with_offset((i % 4) * 32);
        memput(
            &mut eng,
            ((i + 1) % 4) as u32,
            gva,
            vec![(i + 1) as u8; 32],
            OpId::from_raw(i),
        );
        if i % 11 == 10 {
            migrate_block(
                &mut eng,
                (i % 4) as u32,
                arr.block(i % 16),
                ((i + 2) % 4) as u32,
                OpId::from_raw(9000 + i),
            );
        }
        eng.run_steps(15);
    }
    for i in 0..60u64 {
        memget(
            &mut eng,
            (i % 4) as u32,
            arr.block((i * 3) % 16),
            32,
            OpId::from_raw(2000 + i),
        );
    }
    finish(&mut eng)
}

/// A NIC firmware reset mid-run: flush + miss-driven reinstall paths.
fn flush_recovery() -> Pin {
    let mut eng = Engine::new(World::new(4, GasMode::AgasNetwork, NetConfig::ideal()), 23);
    let arr = alloc_array(&mut eng, 8, 12, Distribution::Cyclic);
    for i in 0..60u64 {
        memput(
            &mut eng,
            ((i + 1) % 4) as u32,
            arr.block(i % 8).with_offset((i / 8) * 64),
            vec![(i + 1) as u8; 64],
            OpId::from_raw(i),
        );
        if i == 30 {
            for l in 0..4u32 {
                eng.state.cluster.loc_mut(l).nic.xlate.flush_live();
            }
        }
        eng.run_steps(10);
    }
    finish(&mut eng)
}

/// NIC-executed AMOs racing migrations under jitter: fetch-adds, CAS,
/// scatters, and a gather audit, with churn forcing the NACK/forward arms
/// of the AMO commit path into the pinned schedule.
fn amo_mix(mode: GasMode) -> Pin {
    let mut eng = Engine::new(World::new(4, mode, jittery()), 19);
    let arr = alloc_array(&mut eng, 4, 12, Distribution::Cyclic);
    for i in 0..40u64 {
        let loc = (i % 4) as u32;
        memamo(
            &mut eng,
            loc,
            arr.block(i % 4).with_offset((i % 8) * 8),
            AmoOp::FetchAdd { operand: i + 1 },
            OpId::from_raw(i),
        );
        if i % 5 == 4 {
            memamo(
                &mut eng,
                loc,
                arr.block((i + 1) % 4),
                AmoOp::CompareSwap {
                    expected: 0,
                    desired: i,
                },
                OpId::from_raw(500 + i),
            );
        }
        if i % 7 == 6 {
            memamo(
                &mut eng,
                loc,
                arr.block((i + 2) % 4),
                AmoOp::Scatter {
                    writes: vec![(112, i), (120, i + 1)],
                },
                OpId::from_raw(700 + i),
            );
        }
        if i % 16 == 8 && mode.supports_migration() {
            migrate_block(
                &mut eng,
                loc,
                arr.block(i % 4),
                ((i + 1) % 4) as u32,
                OpId::from_raw(9000 + i),
            );
        }
        eng.run_steps(12);
    }
    for i in 0..16u64 {
        memamo(
            &mut eng,
            (i % 4) as u32,
            arr.block(i % 4),
            AmoOp::Gather {
                offsets: vec![0, 8, 16, 24],
            },
            OpId::from_raw(2000 + i),
        );
    }
    finish(&mut eng)
}

/// The elastic membership plane as a pinned schedule: locality 3 boots
/// `Joining` and takes over a slice of locality 0's directory shard, a
/// member drains through the migration protocol while puts keep flowing,
/// and (under the AGAS modes) a member crashes after a seeded migration so
/// recovery re-issues its home blocks. Every transition is an engine
/// event, so the whole ladder lands in the trace hash.
fn member_mix(mode: GasMode) -> Pin {
    let mut eng = Engine::new(World::new(4, mode, jittery()), 29);
    membership::mark(&mut eng, 3, MemberState::Joining);
    let arr = alloc_array(&mut eng, 8, 12, Distribution::Cyclic);
    for i in 0..24u64 {
        memput(
            &mut eng,
            (i % 3) as u32,
            arr.block(i % 8).with_offset((i / 8) * 32),
            vec![(i + 1) as u8; 32],
            OpId::from_raw(i),
        );
        eng.run_steps(10);
    }
    membership::join(&mut eng, 3, 0);
    for i in 0..24u64 {
        memput(
            &mut eng,
            (i % 4) as u32,
            arr.block(i % 8).with_offset(64 + (i / 8) * 32),
            vec![(i + 101) as u8; 32],
            OpId::from_raw(100 + i),
        );
        eng.run_steps(10);
    }
    let drainee = if mode.supports_migration() { 2 } else { 3 };
    membership::drain(&mut eng, drainee);
    for i in 0..16u64 {
        memget(
            &mut eng,
            (i % 2) as u32,
            arr.block(i % 8),
            32,
            OpId::from_raw(200 + i),
        );
        eng.run_steps(10);
    }
    if mode.supports_migration() {
        // Quiesce before the crash: migration completions carry no
        // deadline, and the seeded migration guarantees the victim owns a
        // block when the links sever.
        eng.run();
        migrate_block(&mut eng, 0, arr.block(0), 1, OpId::from_raw(900));
        eng.run();
        membership::crash(&mut eng, 1);
        eng.run_steps(64);
        for i in 0..8u64 {
            memget(&mut eng, 0, arr.block(i % 8), 32, OpId::from_raw(300 + i));
        }
    }
    finish(&mut eng)
}

#[test]
fn pin_jitter_puts() {
    check(
        "jitter_puts/pgas",
        jitter_puts(GasMode::Pgas, 7),
        GOLDEN_JITTER_PGAS,
    );
    check(
        "jitter_puts/sw",
        jitter_puts(GasMode::AgasSoftware, 7),
        GOLDEN_JITTER_SW,
    );
    check(
        "jitter_puts/net",
        jitter_puts(GasMode::AgasNetwork, 7),
        GOLDEN_JITTER_NET,
    );
}

#[test]
fn pin_migration_mix() {
    check(
        "migration_mix/sw",
        migration_mix(GasMode::AgasSoftware),
        GOLDEN_MIG_SW,
    );
    check(
        "migration_mix/net",
        migration_mix(GasMode::AgasNetwork),
        GOLDEN_MIG_NET,
    );
}

#[test]
fn pin_deadline_fault() {
    check("deadline_fault/11", deadline_fault(11), GOLDEN_DEADLINE_11);
    check("deadline_fault/23", deadline_fault(23), GOLDEN_DEADLINE_23);
}

#[test]
fn pin_capacity_pressure() {
    check("capacity_pressure", capacity_pressure(), GOLDEN_CAPACITY);
}

#[test]
fn pin_flush_recovery() {
    check("flush_recovery", flush_recovery(), GOLDEN_FLUSH);
}

#[test]
fn pin_amo_mix() {
    check("amo_mix/pgas", amo_mix(GasMode::Pgas), GOLDEN_AMO_PGAS);
    check("amo_mix/sw", amo_mix(GasMode::AgasSoftware), GOLDEN_AMO_SW);
    check("amo_mix/net", amo_mix(GasMode::AgasNetwork), GOLDEN_AMO_NET);
}

#[test]
fn pin_member_mix() {
    check(
        "member_mix/pgas",
        member_mix(GasMode::Pgas),
        GOLDEN_MEMBER_PGAS,
    );
    check(
        "member_mix/sw",
        member_mix(GasMode::AgasSoftware),
        GOLDEN_MEMBER_SW,
    );
    check(
        "member_mix/net",
        member_mix(GasMode::AgasNetwork),
        GOLDEN_MEMBER_NET,
    );
}
