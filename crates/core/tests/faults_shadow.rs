//! Shadow-model check for the fault plane: a **lossless** `FaultPlan` must
//! be observationally invisible.
//!
//! The fault plane owns a private RNG stream and takes a draw-free early
//! exit for lossless plans, so installing one must not move a single event:
//! the `(trace_hash, now)` pair of every scenario — and the golden pins
//! committed in `trace_pin.rs` — have to stay bit-for-bit identical whether
//! the plane is absent or present-but-lossless. This is the guard that
//! keeps fault-injection hooks out of the simulator's timing model.

mod common;
#[path = "common/golden.rs"]
mod golden;

use agas::migrate::migrate_block;
use agas::ops::{memget, memput};
use agas::{alloc_array, Distribution, GasMode};
use common::World;
use golden::*;
use netsim::{Engine, FaultPlan, FaultPlane, NetConfig, OpId};
use proptest::prelude::*;

fn jittery() -> NetConfig {
    NetConfig {
        jitter_ns: 400,
        ..NetConfig::ideal()
    }
}

/// The trace_pin `jitter_puts` scenario, with an optional fault plan
/// installed before any traffic flows.
fn jitter_puts(mode: GasMode, seed: u64, plan: Option<FaultPlan>) -> Pin {
    let mut eng = Engine::new(World::new(3, mode, jittery()), seed);
    if let Some(p) = plan {
        eng.state.cluster.faults = Some(FaultPlane::new(p));
    }
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
    eng.run();
    (eng.trace_hash(), eng.now().ps(), eng.events_executed())
}

/// The trace_pin `migration_mix` scenario, with an optional fault plan.
fn migration_mix(mode: GasMode, plan: Option<FaultPlan>) -> Pin {
    let mut eng = Engine::new(World::new(4, mode, jittery()), 11);
    if let Some(p) = plan {
        eng.state.cluster.faults = Some(FaultPlane::new(p));
    }
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
    eng.run();
    (eng.trace_hash(), eng.now().ps(), eng.events_executed())
}

#[test]
fn lossless_plane_reproduces_the_golden_pins() {
    let plan = || Some(FaultPlan::lossless(0xDEAD_BEEF));
    assert_eq!(jitter_puts(GasMode::Pgas, 7, plan()), GOLDEN_JITTER_PGAS);
    assert_eq!(
        jitter_puts(GasMode::AgasSoftware, 7, plan()),
        GOLDEN_JITTER_SW
    );
    assert_eq!(
        jitter_puts(GasMode::AgasNetwork, 7, plan()),
        GOLDEN_JITTER_NET
    );
    assert_eq!(migration_mix(GasMode::AgasSoftware, plan()), GOLDEN_MIG_SW);
    assert_eq!(migration_mix(GasMode::AgasNetwork, plan()), GOLDEN_MIG_NET);
}

#[test]
fn lossless_plane_is_invisible_regardless_of_its_seed() {
    // The plane's RNG is private: different plan seeds must yield identical
    // traces when the plan is lossless.
    let a = migration_mix(GasMode::AgasNetwork, Some(FaultPlan::lossless(1)));
    let b = migration_mix(GasMode::AgasNetwork, Some(FaultPlan::lossless(2)));
    let none = migration_mix(GasMode::AgasNetwork, None);
    assert_eq!(a, none);
    assert_eq!(b, none);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Shadow model: for random engine seeds and modes, the run with a
    /// lossless plane installed is byte-identical to the run without one.
    #[test]
    fn lossless_plane_never_moves_a_trace(
        seed in 0u64..300,
        plan_seed in 0u64..300,
        mode_ix in 0usize..3,
    ) {
        let mode = GasMode::ALL[mode_ix];
        let bare = jitter_puts(mode, seed, None);
        let shadowed = jitter_puts(mode, seed, Some(FaultPlan::lossless(plan_seed)));
        prop_assert_eq!(bare, shadowed, "{:?} seed={}", mode, seed);
    }
}
