//! Shadow-model check for the fault plane: a **lossless** `FaultPlan` must
//! be observationally invisible.
//!
//! Every fault draw is keyed by its sender, and a lossless plan takes a
//! draw-free early exit, so installing one must not move a single event:
//! the pinned scenarios (`common/pins.rs`) have to land on their golden
//! pins bit-for-bit whether the plane is absent or present-but-lossless,
//! on the sequential engine and at every lane count. This is the guard that
//! keeps fault-injection hooks out of the simulator's timing model.

#[path = "common/golden.rs"]
mod golden;
#[path = "common/pins.rs"]
mod pins;

use agas::GasMode;
use golden::*;
use netsim::FaultPlan;
use pins::*;
use proptest::prelude::*;

#[test]
fn lossless_plane_reproduces_the_golden_pins() {
    let plan = || Some(FaultPlan::lossless(0xDEAD_BEEF));
    for lanes in GRID {
        for (name, mode, want) in [
            ("jitter_puts/pgas", GasMode::Pgas, GOLDEN_JITTER_PGAS),
            ("jitter_puts/sw", GasMode::AgasSoftware, GOLDEN_JITTER_SW),
            ("jitter_puts/net", GasMode::AgasNetwork, GOLDEN_JITTER_NET),
        ] {
            check(name, lanes, jitter_puts(mode, 7, lanes, plan()), want);
        }
        for (name, mode, want) in [
            ("migration_mix/sw", GasMode::AgasSoftware, GOLDEN_MIG_SW),
            ("migration_mix/net", GasMode::AgasNetwork, GOLDEN_MIG_NET),
        ] {
            check(name, lanes, migration_mix(mode, lanes, plan()), want);
        }
    }
}

#[test]
fn lossless_plane_reproduces_the_free_pins() {
    let plan = || Some(FaultPlan::lossless(0xDEAD_BEEF));
    let pgas = free_mix(GasMode::Pgas, None, plan());
    check("free_mix/pgas", None, pgas, GOLDEN_FREE_PGAS);
    for lanes in GRID {
        for (name, mode, want) in [
            ("free_mix/sw", GasMode::AgasSoftware, GOLDEN_FREE_SW),
            ("free_mix/net", GasMode::AgasNetwork, GOLDEN_FREE_NET),
        ] {
            check(name, lanes, free_mix(mode, lanes, plan()), want);
        }
    }
}

#[test]
fn lossless_plane_is_invisible_regardless_of_its_seed() {
    // Different plan seeds must yield identical traces when the plan is
    // lossless.
    let a = migration_mix(GasMode::AgasNetwork, None, Some(FaultPlan::lossless(1)));
    let b = migration_mix(GasMode::AgasNetwork, None, Some(FaultPlan::lossless(2)));
    let none = migration_mix(GasMode::AgasNetwork, None, None);
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
        let bare = jitter_puts(mode, seed, None, None);
        let shadowed = jitter_puts(mode, seed, None, Some(FaultPlan::lossless(plan_seed)));
        prop_assert_eq!(bare, shadowed, "{:?} seed={}", mode, seed);
    }
}
