//! The pinned scenarios: seven deterministic programs on [`SimWorld`] whose
//! `(trace_hash, now, events executed)` are the golden constants in
//! `golden.rs`. `shard_pin.rs` runs them on the sequential engine and at
//! every lane count of [`GRID`]; `faults_shadow.rs` runs them with a
//! lossless fault plane installed, which must land on the same pins.
//!
//! Each scenario takes the lane count (`None` = the sequential engine) and
//! an optional fault plan, installed before any traffic flows.
#![allow(dead_code)] // not every test binary runs every scenario

use crate::golden::Pin;
use agas::migrate::migrate_block;
use agas::ops::{memamo, memget, memput};
use agas::{
    alloc_array, membership, Distribution, GasMode, GlobalArray, MemberState, OwnerCache, SimWorld,
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

fn harness(
    n: usize,
    mode: GasMode,
    net: NetConfig,
    seed: u64,
    lanes: Option<usize>,
    plan: Option<FaultPlan>,
) -> Harness<SimWorld> {
    let mut world = SimWorld::new(n, mode, net);
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
pub fn jitter_puts(mode: GasMode, seed: u64, lanes: Option<usize>, plan: Option<FaultPlan>) -> Pin {
    let mut h = harness(3, mode, jittery(), seed, lanes, plan);
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
/// wire ops and the sweep converts the silence into failures.
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
    // The injected endpoint amnesia touches eps[0]: locality 0's event.
    h.drive_at(0, |eng| {
        eng.schedule(Time::from_ns(150), |eng| {
            eng.state.data.eps[0].drop_pending_ops();
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
pub fn amo_mix(mode: GasMode, lanes: Option<usize>, plan: Option<FaultPlan>) -> Pin {
    let mut h = harness(4, mode, jittery(), 19, lanes, plan);
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
                        writes: vec![(112, i), (120, i + 1)],
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
                    offsets: vec![0, 8, 16, 24],
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
pub fn member_mix(mode: GasMode, lanes: Option<usize>, plan: Option<FaultPlan>) -> Pin {
    let mut h = harness(4, mode, jittery(), 29, lanes, plan);
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
