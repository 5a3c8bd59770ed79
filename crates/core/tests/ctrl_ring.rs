//! Migration control traffic through per-peer descriptor rings
//! ([`agas::GasConfig::ctrl_ring`]): batching correctness, the timer-only
//! flush path, and the schedule-equivalence of a batch-of-one ring.

mod common;

use agas::migrate::{free_block, migrate_block};
use agas::ops::{memget, memput};
use agas::{alloc_array, Distribution, GasConfig, GasLocal, GasMode, SimEv, SimWorld};
use common::assert_consistent;
use netsim::{Engine, NetConfig, OpId, RingConfig, Time};

/// Build an engine whose GAS layer posts control traffic through rings.
fn ring_engine(n: usize, mode: GasMode, ring: RingConfig) -> Engine<SimWorld> {
    let mut w = SimWorld::new(n, mode, NetConfig::ideal());
    let cfg = GasConfig {
        ctrl_ring: Some(ring),
        ..GasConfig::default()
    };
    w.data.gas = (0..n).map(|_| GasLocal::new(cfg)).collect();
    Engine::new(w, 42)
}

fn mig_done(eng: &Engine<SimWorld>, ctx: u64) -> bool {
    eng.state
        .events()
        .iter()
        .any(|(_, _, e)| matches!(e, SimEv::MigDone(c, _) if *c == ctx))
}

#[test]
fn ctrl_ring_batches_migration_traffic_and_converges() {
    for mode in [GasMode::AgasSoftware, GasMode::AgasNetwork] {
        let before = netsim::telemetry::snapshot();
        let ring = RingConfig {
            doorbell_batch: 4,
            doorbell_delay: Time::from_ns(300),
            ..RingConfig::default()
        };
        let mut eng = ring_engine(3, mode, ring);
        let arr = alloc_array(&mut eng, 6, 10, Distribution::Cyclic);
        memput(
            &mut eng,
            0,
            arr.block(2),
            vec![0x6E; 64],
            OpId::from_raw(500),
        );
        eng.run();
        for (i, gva) in arr.blocks.iter().enumerate() {
            migrate_block(
                &mut eng,
                0,
                *gva,
                (gva.home() + 1) % 3,
                OpId::from_raw(i as u64),
            );
        }
        eng.run();
        for i in 0..6 {
            assert!(mig_done(&eng, i), "{mode:?}: migration {i} never finished");
        }
        let total = eng.state.total_counters();
        assert_eq!(total.migrations_out, 6, "{mode:?}");
        // Data survived the ring-batched protocol.
        memget(&mut eng, 1, arr.block(2), 64, OpId::from_raw(600));
        eng.run();
        assert!(
            eng.state
                .events()
                .iter()
                .any(|(_, _, e)| matches!(e, SimEv::GetDone(600, d) if d == &vec![0x6E; 64])),
            "{mode:?}"
        );
        assert_consistent(&eng, &arr.blocks);
        // Every control message went through the ring.
        let descs = netsim::telemetry::snapshot()
            .since(before)
            .migration_ring_descs;
        assert!(
            descs >= 6,
            "{mode:?}: only {descs} control descriptors rode the ring"
        );
    }
}

#[test]
fn ctrl_ring_timer_flushes_a_lone_request() {
    // One migration with a deep batch threshold: nothing ever fills the
    // ring, so completion depends entirely on the doorbell timer.
    let ring = RingConfig {
        doorbell_batch: 64,
        doorbell_delay: Time::from_ns(500),
        ..RingConfig::default()
    };
    let mut eng = ring_engine(3, GasMode::AgasNetwork, ring);
    let arr = alloc_array(&mut eng, 3, 10, Distribution::Cyclic);
    migrate_block(&mut eng, 0, arr.block(1), 2, OpId::from_raw(7));
    eng.run();
    assert!(mig_done(&eng, 7), "timer flush never fired");
    assert!(eng.state.data.gas[2]
        .btt
        .is_resident(arr.block(1).block_key()));
    assert_consistent(&eng, &arr.blocks);
}

#[test]
fn ctrl_ring_free_protocol_converges() {
    let ring = RingConfig {
        doorbell_batch: 3,
        doorbell_delay: Time::from_ns(400),
        ..RingConfig::default()
    };
    let mut eng = ring_engine(3, GasMode::AgasSoftware, ring);
    let arr = alloc_array(&mut eng, 4, 10, Distribution::Cyclic);
    for (i, gva) in arr.blocks.iter().enumerate() {
        free_block(&mut eng, 0, *gva, OpId::from_raw(40 + i as u64));
    }
    eng.run();
    for i in 0..4u64 {
        assert!(
            eng.state
                .events()
                .iter()
                .any(|(_, _, e)| matches!(e, SimEv::FreeDone(c, _) if *c == 40 + i)),
            "free {i} never completed"
        );
    }
}

#[test]
fn batch_of_one_ring_matches_the_direct_schedule() {
    // A ring that flushes on every push is the ad-hoc send in disguise:
    // each control message hits the wire synchronously, in the same event,
    // at the same time — so the full `(time, key)` trace is bit-identical
    // to running with `ctrl_ring: None`.
    let run = |ring: Option<RingConfig>| {
        let mut w = SimWorld::new(4, GasMode::AgasNetwork, NetConfig::ideal());
        let cfg = GasConfig {
            ctrl_ring: ring,
            ..GasConfig::default()
        };
        w.data.gas = (0..4).map(|_| GasLocal::new(cfg)).collect();
        let mut eng = Engine::new(w, 42);
        let arr = alloc_array(&mut eng, 4, 12, Distribution::Cyclic);
        memput(
            &mut eng,
            0,
            arr.block(1),
            vec![0xAB; 128],
            OpId::from_raw(1),
        );
        eng.run();
        migrate_block(&mut eng, 0, arr.block(1), 3, OpId::from_raw(2));
        eng.run();
        migrate_block(&mut eng, 2, arr.block(3), 0, OpId::from_raw(3));
        eng.run();
        free_block(&mut eng, 1, arr.block(2), OpId::from_raw(4));
        eng.run();
        eng.trace_hash()
    };
    let direct = run(None);
    let ringed = run(Some(RingConfig {
        doorbell_batch: 1,
        ..RingConfig::default()
    }));
    assert_eq!(direct, ringed, "batch-of-one ring perturbed the schedule");
}
