//! The pinned scenarios: eight deterministic programs on [`SimWorld`] whose
//! `(trace_hash, now, events executed)` are the golden constants in
//! `golden.rs`. `shard_pin.rs` runs them on the sequential engine and at
//! every lane count of [`GRID`] (`free_mix`'s PGAS arm on the sequential
//! engine only); `faults_shadow.rs` runs them with a lossless fault plane
//! installed, which must land on the same pins.
//!
//! Each scenario takes an optional fault plan, installed before any traffic
//! flows, and the lane count (`None` = the sequential engine).
#![allow(dead_code)] // not every test binary runs every scenario

use crate::golden::Pin;
use agas::migrate::{free_block, migrate_block};
use agas::ops::{memamo, memget, memput, pin, unpin};
use agas::{
    alloc_array, membership, BlockState, Distribution, GasMode, GlobalArray, MemberState,
    OwnerCache, SimEv, SimWorld,
};
use netsim::{AmoOp, FaultPlan, FaultPlane, Harness, NetConfig, OpId, Time};

/// Lane counts every scenario must reproduce its pin under. `None` is the
/// plain sequential engine.
pub const GRID: [Option<usize>; 5] = [None, Some(1), Some(2), Some(4), Some(8)];

pub fn jittery() -> NetConfig {
    NetConfig {
        jitter_ns: 400,
        ..NetConfig::ideal()
    }
}

pub fn check(name: &str, lanes: Option<usize>, got: Pin, want: Pin) {
    assert_eq!(
        got, want,
        "{name} (lanes={lanes:?}): pin moved — observed (hash, ps, events) = ({:#018x}, {}, {})",
        got.0, got.1, got.2
    );
}

/// A scenario's GAS arm: its mode, over the scenario's fabric with or
/// without the NIC table. A bare [`GasMode`] keeps the fabric's table.
#[derive(Clone, Copy, Debug)]
pub struct Arm {
    pub mode: GasMode,
    pub nic_table: bool,
}

impl From<GasMode> for Arm {
    fn from(mode: GasMode) -> Arm {
        Arm {
            mode,
            nic_table: true,
        }
    }
}

fn harness(
    n: usize,
    arm: impl Into<Arm>,
    net: NetConfig,
    seed: u64,
    lanes: Option<usize>,
    plan: Option<FaultPlan>,
) -> Harness<SimWorld> {
    let arm = arm.into();
    let net = if arm.nic_table {
        net
    } else {
        NetConfig {
            xlate_capacity: 0,
            ..net
        }
    };
    let mut world = SimWorld::new(n, arm.mode, net);
    world.data.cluster.faults = plan.map(FaultPlane::new);
    Harness::new(world, seed, lanes)
}

fn alloc(h: &mut Harness<SimWorld>, blocks: u64) -> GlobalArray {
    h.drive(|e| alloc_array(e, blocks, 12, Distribution::Cyclic))
}

fn finish(mut h: Harness<SimWorld>) -> Pin {
    h.run();
    h.witness()
}

/// Remote puts + read-back on a jittery fabric, one pin per GAS mode.
pub fn jitter_puts(
    arm: impl Into<Arm>,
    seed: u64,
    lanes: Option<usize>,
    plan: Option<FaultPlan>,
) -> Pin {
    let mut h = harness(3, arm, jittery(), seed, lanes, plan);
    let arr = alloc(&mut h, 4);
    for i in 0..30u64 {
        let gva = arr.block(i % 4).with_offset((i / 4) * 16);
        let loc = (i % 3) as u32;
        h.drive_at(loc, move |eng| {
            memput(eng, loc, gva, vec![(i + 1) as u8; 16], OpId::from_raw(i));
        });
    }
    h.run();
    for i in 0..30u64 {
        let gva = arr.block(i % 4).with_offset((i / 4) * 16);
        let loc = ((i + 1) % 3) as u32;
        h.drive_at(loc, move |eng| {
            memget(eng, loc, gva, 16, OpId::from_raw(100 + i));
        });
    }
    finish(h)
}

/// Puts racing migrations under jitter (the tier-1 migration mix).
pub fn migration_mix(mode: GasMode, lanes: Option<usize>, plan: Option<FaultPlan>) -> Pin {
    let mut h = harness(4, mode, jittery(), 11, lanes, plan);
    let arr = alloc(&mut h, 4);
    for round in 0..6u64 {
        for b in 0..4u64 {
            let gva = arr.block(b).with_offset(round * 16);
            let loc = (b % 4) as u32;
            h.drive_at(loc, move |eng| {
                memput(
                    eng,
                    loc,
                    gva,
                    vec![(round * 4 + b + 1) as u8; 16],
                    OpId::from_raw(round * 4 + b),
                );
            });
            let mig = arr.block(b);
            h.drive_at(0, move |eng| {
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
    finish(h)
}

/// The deadline-sweep fault scenario: locality 0 forgets its in-flight
/// wire ops and the sweep re-issues the silent ops through their homes.
pub fn deadline_fault(seed: u64, lanes: Option<usize>, plan: Option<FaultPlan>) -> Pin {
    let mut h = harness(4, GasMode::AgasNetwork, jittery(), seed, lanes, plan);
    for g in &mut h.world().data.gas {
        g.cfg.op_deadline = Some(Time::from_us(40));
        g.cfg.sweep_interval = Time::from_us(5);
    }
    let arr = alloc(&mut h, 4);
    for i in 0..8u64 {
        let gva = arr.block(i % 4).with_offset((i / 4) * 64);
        h.drive_at(0, move |eng| {
            memput(eng, 0, gva, vec![i as u8 + 1; 64], OpId::from_raw(i));
            memget(eng, 0, gva, 64, OpId::from_raw(100 + i));
        });
    }
    let (m1, m2) = (arr.block(1), arr.block(2));
    h.drive_at(1, move |eng| {
        migrate_block(eng, 1, m1, 3, OpId::from_raw(900));
    });
    h.drive_at(2, move |eng| {
        migrate_block(eng, 2, m2, 0, OpId::from_raw(901));
    });
    // The injected answer loss touches gas[0]: locality 0's event.
    h.drive_at(0, |eng| {
        eng.schedule(Time::from_ns(150), |eng| {
            eng.state.data.gas[0].lose_rdma_answers();
        });
    });
    finish(h)
}

/// Capacity pressure: a 4-entry NIC table and 3-entry owner caches force
/// constant evictions, pinning the exact LRU eviction order.
pub fn capacity_pressure(lanes: Option<usize>, plan: Option<FaultPlan>) -> Pin {
    let net = NetConfig {
        xlate_capacity: 4,
        ..NetConfig::ideal()
    };
    let mut h = harness(4, GasMode::AgasNetwork, net, 17, lanes, plan);
    for g in &mut h.world().data.gas {
        g.cache = OwnerCache::new(3);
    }
    let arr = alloc(&mut h, 16);
    for i in 0..120u64 {
        let gva = arr.block((i * 7) % 16).with_offset((i % 4) * 32);
        let loc = ((i + 1) % 4) as u32;
        h.drive_at(loc, move |eng| {
            memput(eng, loc, gva, vec![(i + 1) as u8; 32], OpId::from_raw(i));
        });
        if i % 11 == 10 {
            let mig = arr.block(i % 16);
            let loc = (i % 4) as u32;
            h.drive_at(loc, move |eng| {
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
        h.drive_at(loc, move |eng| {
            memget(eng, loc, gva, 32, OpId::from_raw(2000 + i));
        });
    }
    finish(h)
}

/// A NIC firmware reset mid-run: flush + miss-driven reinstall paths.
pub fn flush_recovery(lanes: Option<usize>, plan: Option<FaultPlan>) -> Pin {
    let mut h = harness(4, GasMode::AgasNetwork, NetConfig::ideal(), 23, lanes, plan);
    let arr = alloc(&mut h, 8);
    for i in 0..60u64 {
        let gva = arr.block(i % 8).with_offset((i / 8) * 64);
        let loc = ((i + 1) % 4) as u32;
        h.drive_at(loc, move |eng| {
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
    finish(h)
}

/// NIC-executed AMOs racing migrations under jitter: fetch-adds, CAS,
/// scatters, and a gather audit, with churn forcing the NACK/forward arms
/// of the AMO commit path into the pinned schedule.
pub fn amo_mix(arm: impl Into<Arm>, lanes: Option<usize>, plan: Option<FaultPlan>) -> Pin {
    let arm = arm.into();
    let mode = arm.mode;
    let mut h = harness(4, arm, jittery(), 19, lanes, plan);
    let arr = alloc(&mut h, 4);
    for i in 0..40u64 {
        let loc = (i % 4) as u32;
        let gva = arr.block(i % 4).with_offset((i % 8) * 8);
        h.drive_at(loc, move |eng| {
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
            h.drive_at(loc, move |eng| {
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
            h.drive_at(loc, move |eng| {
                memamo(
                    eng,
                    loc,
                    sc,
                    AmoOp::Scatter {
                        writes: Box::new([(112, i), (120, i + 1)]),
                    },
                    OpId::from_raw(700 + i),
                );
            });
        }
        if i % 16 == 8 && mode.supports_migration() {
            let mig = arr.block(i % 4);
            h.drive_at(loc, move |eng| {
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
        h.drive_at(loc, move |eng| {
            memamo(
                eng,
                loc,
                gva,
                AmoOp::Gather {
                    offsets: Box::new([0, 8, 16, 24]),
                },
                OpId::from_raw(2000 + i),
            );
        });
    }
    finish(h)
}

/// The elastic membership plane as a pinned schedule: locality 3 boots
/// `Joining` and takes over a slice of locality 0's directory shard, a
/// member drains through the migration protocol while puts keep flowing,
/// and (under the AGAS modes) a member crashes after a seeded migration so
/// recovery re-issues its home blocks. Every transition is a per-locality
/// engine event, so the whole ladder lands in the trace hash and no lane
/// count can reorder it.
pub fn member_mix(arm: impl Into<Arm>, lanes: Option<usize>, plan: Option<FaultPlan>) -> Pin {
    let arm = arm.into();
    let mode = arm.mode;
    let mut h = harness(4, arm, jittery(), 29, lanes, plan);
    h.drive(|eng| membership::mark(eng, 3, MemberState::Joining));
    let arr = alloc(&mut h, 8);
    for i in 0..24u64 {
        let gva = arr.block(i % 8).with_offset((i / 8) * 32);
        let loc = (i % 3) as u32;
        h.drive_at(loc, move |eng| {
            memput(eng, loc, gva, vec![(i + 1) as u8; 32], OpId::from_raw(i));
        });
        h.run_steps(10);
    }
    h.drive(|eng| membership::join(eng, 3, 0));
    for i in 0..24u64 {
        let gva = arr.block(i % 8).with_offset(64 + (i / 8) * 32);
        let loc = (i % 4) as u32;
        h.drive_at(loc, move |eng| {
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
        h.drive_at(loc, move |eng| {
            memget(eng, loc, gva, 32, OpId::from_raw(200 + i));
        });
        h.run_steps(10);
    }
    if mode.supports_migration() {
        // Quiesce before the crash: migration completions carry no
        // deadline, and the seeded migration guarantees the victim owns a
        // block when the links sever.
        h.run();
        let mig = arr.block(0);
        h.drive_at(0, move |eng| {
            migrate_block(eng, 0, mig, 1, OpId::from_raw(900));
        });
        h.run();
        h.drive(|eng| membership::crash(eng, 1));
        h.run_steps(64);
        for i in 0..8u64 {
            let gva = arr.block(i % 8);
            h.drive_at(0, move |eng| {
                memget(eng, 0, gva, 32, OpId::from_raw(300 + i));
            });
        }
    }
    finish(h)
}

/// The runtime free path as a pinned schedule, in all three modes. The
/// PGAS arm runs on the sequential engine only: a PGAS free writes the
/// shared address table, which `SimWorld`'s `SplitWorld` contract forbids
/// on lanes. The AGAS arms' frees touch only per-locality state, and they
/// replay at every lane count. Under the AGAS modes a free chases a
/// migrated block, a free is issued while a hand-off is in flight, a block
/// migrates to its current owner, and two migrations wait on one pin — on
/// `unpin` the first hands off and the second re-chases through the home.
/// In every mode a free waits on a pin released by `unpin` and the rest of
/// the array is freed through `free_block`. Every free and migration must
/// complete and no block may stay resident.
pub fn free_mix(mode: GasMode, lanes: Option<usize>, plan: Option<FaultPlan>) -> Pin {
    assert!(
        lanes.is_none() || mode.supports_migration(),
        "a PGAS free must not run on lanes"
    );
    let mut h = harness(4, mode, jittery(), 31, lanes, plan);
    let arr = alloc(&mut h, 8);
    for i in 0..16u64 {
        let gva = arr.block(i % 8).with_offset((i / 8) * 32);
        let loc = ((i + 1) % 4) as u32;
        h.drive_at(loc, move |eng| {
            memput(eng, loc, gva, vec![(i + 1) as u8; 32], OpId::from_raw(i));
        });
        h.run_steps(8);
    }
    h.run();
    let mut migrations = 0;
    if mode.supports_migration() {
        // A free chasing a migrated block: block 1 moves 1 → 3, then
        // locality 0 frees it through its home (1).
        let b1 = arr.block(1);
        h.drive_at(1, move |eng| {
            migrate_block(eng, 1, b1, 3, OpId::from_raw(900));
        });
        h.run();
        h.drive_at(0, move |eng| free_block(eng, 0, b1, OpId::from_raw(800)));
        // A free issued mid-hand-off: block 3 moves 3 → 0, and once its
        // owner has flipped it to Moving, locality 1 frees it.
        let b3 = arr.block(3);
        h.drive_at(2, move |eng| {
            migrate_block(eng, 2, b3, 0, OpId::from_raw(901));
        });
        let key3 = b3.block_key();
        while h.world_ref().data.gas[3]
            .btt
            .lookup(key3)
            .is_none_or(|e| e.state != BlockState::Moving)
        {
            assert!(h.run_steps(1) > 0, "block 3 never started moving");
        }
        h.drive_at(1, move |eng| free_block(eng, 1, b3, OpId::from_raw(801)));
        // A migration to the block's current owner: block 4 stays at 0.
        let b4 = arr.block(4);
        h.drive_at(2, move |eng| {
            migrate_block(eng, 2, b4, 0, OpId::from_raw(902));
        });
        h.run();
        // Two migrations deferred by one pin on block 6 (owner 2).
        let b6 = arr.block(6);
        assert!(pin(&mut h.world().data, 2, b6).is_some());
        h.drive_at(0, move |eng| {
            migrate_block(eng, 0, b6, 1, OpId::from_raw(903));
        });
        h.drive_at(3, move |eng| {
            migrate_block(eng, 3, b6, 0, OpId::from_raw(904));
        });
        h.run();
        h.drive_at(2, move |eng| unpin(eng, 2, b6));
        h.run();
        migrations = 5;
    }
    // A free deferred by a pin on block 2 (owner 2), released by `unpin`.
    let b2 = arr.block(2);
    assert!(pin(&mut h.world().data, 2, b2).is_some());
    h.drive_at(0, move |eng| free_block(eng, 0, b2, OpId::from_raw(802)));
    h.run();
    let unpinned_at = h.drive_at(2, move |eng| {
        unpin(eng, 2, b2);
        eng.now()
    });
    h.run();
    let freed_at = h
        .world_ref()
        .events()
        .iter()
        .find_map(|&(t, _, ref e)| matches!(e, SimEv::FreeDone(802, _)).then_some(t));
    assert!(
        freed_at.is_some_and(|t| t > unpinned_at),
        "{mode:?}: the free of pinned block 2 landed at {freed_at:?}, not after its unpin at {unpinned_at}"
    );
    // Free the rest of the array.
    let freed_already = if mode.supports_migration() {
        vec![1, 2, 3]
    } else {
        vec![2]
    };
    for b in (0..8u64).filter(|b| !freed_already.contains(b)) {
        let gva = arr.block(b);
        let loc = ((b + 1) % 4) as u32;
        h.drive_at(loc, move |eng| {
            free_block(eng, loc, gva, OpId::from_raw(810 + b));
        });
        h.run_steps(6);
    }
    h.run();
    let events = h.world_ref().events();
    let count = |f: fn(&SimEv) -> bool| events.iter().filter(|(_, _, e)| f(e)).count();
    assert_eq!(count(|e| matches!(e, SimEv::FreeDone(..))), 8, "{mode:?}");
    assert_eq!(
        count(|e| matches!(e, SimEv::MigDone(..))),
        migrations,
        "{mode:?}"
    );
    for g in &h.world_ref().data.gas {
        assert!(g.btt.is_empty(), "{mode:?}: a freed block stayed resident");
    }
    h.witness()
}
