//! Runtime block-free protocol tests.

mod common;

use agas::migrate::{free_block, migrate_block};
use agas::ops::{memput, pin, unpin};
use agas::{alloc_array, Distribution, GasMode, SimEv, SimWorld};
use common::engine;
use netsim::OpId;

fn free_done(eng: &netsim::Engine<SimWorld>, ctx: u64) -> bool {
    eng.state
        .events()
        .iter()
        .any(|(_, _, e)| matches!(e, SimEv::FreeDone(c, _) if *c == ctx))
}

#[test]
fn free_releases_storage_and_records() {
    for mode in GasMode::ALL {
        let mut eng = engine(3, mode);
        let arr = alloc_array(&mut eng, 3, 12, Distribution::Cyclic);
        let gva = arr.block(1);
        memput(&mut eng, 0, gva, vec![1; 64], OpId::from_raw(1));
        eng.run();
        let live_before = eng.state.data.cluster.mem(1).live_blocks();
        free_block(&mut eng, 0, gva, OpId::from_raw(2));
        eng.run();
        assert!(free_done(&eng, 2), "{mode:?}");
        assert_eq!(eng.state.data.cluster.mem(1).live_blocks(), live_before - 1);
        assert!(
            !eng.state.data.gas[1].btt.is_resident(gva.block_key()),
            "{mode:?}"
        );
        assert!(
            eng.state.data.gas[1].dir.peek(gva.block_key()).is_none(),
            "{mode:?}"
        );
        if mode == GasMode::AgasNetwork {
            assert!(eng
                .state
                .data
                .cluster
                .loc(1)
                .nic
                .xlate
                .peek(gva.block_key())
                .is_none());
        }
    }
}

#[test]
fn free_chases_migrated_block() {
    let mut eng = engine(4, GasMode::AgasNetwork);
    let arr = alloc_array(&mut eng, 4, 12, Distribution::Cyclic);
    let gva = arr.block(1);
    migrate_block(&mut eng, 0, gva, 3, OpId::from_raw(1));
    eng.run();
    // The requester's cache still says locality 1; the free routes through
    // the home to the true owner (3).
    free_block(&mut eng, 0, gva, OpId::from_raw(2));
    eng.run();
    assert!(free_done(&eng, 2));
    assert!(!eng.state.data.gas[3].btt.is_resident(gva.block_key()));
    assert!(eng.state.data.gas[1].dir.peek(gva.block_key()).is_none());
}

#[test]
fn free_waits_for_pins() {
    let mut eng = engine(3, GasMode::AgasNetwork);
    let arr = alloc_array(&mut eng, 3, 12, Distribution::Cyclic);
    let gva = arr.block(1);
    assert!(pin(&mut eng.state, 1, gva).is_some());
    free_block(&mut eng, 0, gva, OpId::from_raw(9));
    eng.run();
    assert!(!free_done(&eng, 9), "free must wait for the pin");
    assert!(eng.state.data.gas[1].btt.is_resident(gva.block_key()));
    unpin(&mut eng, 1, gva);
    eng.run();
    assert!(free_done(&eng, 9));
    assert!(!eng.state.data.gas[1].btt.is_resident(gva.block_key()));
}

#[test]
fn free_racing_migration_converges() {
    let mut eng = engine(4, GasMode::AgasSoftware);
    let arr = alloc_array(&mut eng, 2, 16, Distribution::Cyclic);
    let gva = arr.block(1);
    migrate_block(&mut eng, 0, gva, 2, OpId::from_raw(1));
    // Issue the free while the hand-off is still in flight.
    free_block(&mut eng, 3, gva, OpId::from_raw(2));
    eng.run();
    assert!(free_done(&eng, 2));
    for l in 0..4 {
        assert!(!eng.state.data.gas[l].btt.is_resident(gva.block_key()));
    }
}

#[test]
fn arena_storage_is_reusable_after_free() {
    let mut eng = engine(2, GasMode::AgasNetwork);
    let arr = alloc_array(&mut eng, 2, 12, Distribution::Cyclic);
    free_block(&mut eng, 0, arr.block(1), OpId::from_raw(1));
    eng.run();
    assert!(free_done(&eng, 1));
    // A fresh allocation at the same locality reuses the slot.
    let arr2 = alloc_array(&mut eng, 2, 12, Distribution::Cyclic);
    memput(&mut eng, 0, arr2.block(1), vec![7; 16], OpId::from_raw(2));
    eng.run();
    assert!(eng
        .state
        .events()
        .iter()
        .any(|(_, _, e)| matches!(e, SimEv::PutDone(2))));
}

fn mig_done(eng: &netsim::Engine<SimWorld>, ctx: u64) -> bool {
    eng.state
        .events()
        .iter()
        .any(|(_, _, e)| matches!(e, SimEv::MigDone(c, _) if *c == ctx))
}

#[test]
fn deferred_free_wins_over_a_deferred_migration() {
    let mut eng = engine(4, GasMode::AgasNetwork);
    let arr = alloc_array(&mut eng, 4, 12, Distribution::Cyclic);
    let gva = arr.block(1);
    let key = gva.block_key();
    assert!(pin(&mut eng.state, 1, gva).is_some());
    migrate_block(&mut eng, 0, gva, 2, OpId::from_raw(1));
    eng.run();
    free_block(&mut eng, 3, gva, OpId::from_raw(2));
    eng.run();
    assert!(!free_done(&eng, 2) && !mig_done(&eng, 1), "both must wait");
    unpin(&mut eng, 1, gva);
    eng.run();
    assert!(free_done(&eng, 2));
    for l in 0..4u32 {
        assert!(!eng.state.data.gas[l as usize].btt.is_resident(key));
        assert!(eng.state.data.cluster.loc(l).nic.xlate.peek(key).is_none());
    }
    assert!(eng.state.data.gas[1].dir.peek(key).is_none());
}

#[test]
#[should_panic(expected = "double free")]
fn two_deferred_frees_panic() {
    let mut eng = engine(3, GasMode::AgasSoftware);
    let arr = alloc_array(&mut eng, 3, 12, Distribution::Cyclic);
    let gva = arr.block(1);
    assert!(pin(&mut eng.state, 1, gva).is_some());
    free_block(&mut eng, 0, gva, OpId::from_raw(1));
    eng.run();
    free_block(&mut eng, 2, gva, OpId::from_raw(2));
    eng.run();
    unpin(&mut eng, 1, gva);
}

#[test]
fn deferred_migrations_run_first_then_rechase() {
    let mut eng = engine(4, GasMode::AgasNetwork);
    let arr = alloc_array(&mut eng, 4, 12, Distribution::Cyclic);
    let gva = arr.block(1);
    let key = gva.block_key();
    assert!(pin(&mut eng.state, 1, gva).is_some());
    migrate_block(&mut eng, 0, gva, 2, OpId::from_raw(1));
    eng.run();
    migrate_block(&mut eng, 3, gva, 0, OpId::from_raw(2));
    eng.run();
    assert!(!mig_done(&eng, 1) && !mig_done(&eng, 2), "both must wait");
    unpin(&mut eng, 1, gva);
    eng.run();
    assert!(mig_done(&eng, 1) && mig_done(&eng, 2));
    // The first request handed the block to 2; the second re-chased
    // through the home (1), which routed it on to 2 and the block to 0.
    assert_eq!(
        eng.state.data.gas[1].dir.peek(key).map(|r| r.owner),
        Some(0)
    );
    assert!(eng.state.data.gas[0].btt.is_resident(key));
    for l in 1..4 {
        assert!(!eng.state.data.gas[l].btt.is_resident(key), "loc {l}");
    }
}
