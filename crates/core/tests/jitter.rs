//! Failure injection: wire jitter reorders deliveries between pairs. The
//! GAS protocols are request/response- and generation-based, so nothing may
//! break — these tests run the full op/migration mix on a jittery fabric.

mod common;

use agas::migrate::migrate_block;
use agas::ops::{memget, memput};
use agas::{alloc_array, Distribution, GasMode, SimEv, SimWorld};
use common::assert_consistent;
use netsim::OpId;
use netsim::{Engine, NetConfig};
use proptest::prelude::*;

fn jittery() -> NetConfig {
    NetConfig {
        jitter_ns: 400, // 4× the ideal fabric's base latency of 100 ns
        ..NetConfig::ideal()
    }
}

#[test]
fn ops_complete_under_heavy_jitter() {
    for mode in GasMode::ALL {
        let mut eng = Engine::new(SimWorld::new(4, mode, jittery()), 7);
        let arr = alloc_array(&mut eng, 8, 12, Distribution::Cyclic);
        for i in 0..100u64 {
            let gva = arr.block(i % 8).with_offset((i / 8) * 32);
            memput(
                &mut eng,
                ((i + 1) % 4) as u32,
                gva,
                vec![(i + 1) as u8; 32],
                OpId::from_raw(i),
            );
        }
        eng.run();
        let done = eng
            .state
            .events()
            .iter()
            .filter(|(_, _, e)| matches!(e, SimEv::PutDone(_)))
            .count();
        assert_eq!(done, 100, "{mode:?}");
        assert_consistent(&eng, &arr.blocks);
        // Read everything back.
        for i in 0..100u64 {
            let gva = arr.block(i % 8).with_offset((i / 8) * 32);
            memget(
                &mut eng,
                ((i + 2) % 4) as u32,
                gva,
                32,
                OpId::from_raw(1000 + i),
            );
        }
        eng.run();
        let events = eng.state.events();
        for i in 0..100u64 {
            let ok = events.iter().any(|(_, _, e)| {
                matches!(e, SimEv::GetDone(c, d) if *c == 1000 + i && d == &vec![(i + 1) as u8; 32])
            });
            assert!(ok, "{mode:?}: op {i} corrupted under jitter");
        }
    }
}

#[test]
fn migrations_survive_jitter() {
    for mode in [GasMode::AgasSoftware, GasMode::AgasNetwork] {
        let mut eng = Engine::new(SimWorld::new(4, mode, jittery()), 11);
        let arr = alloc_array(&mut eng, 4, 12, Distribution::Cyclic);
        // Interleave puts and migrations on every block.
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
        assert_consistent(&eng, &arr.blocks);
        let migs = eng
            .state
            .events()
            .iter()
            .filter(|(_, _, e)| matches!(e, SimEv::MigDone(..)))
            .count();
        assert_eq!(migs, 24, "{mode:?}");
        // All writes present.
        for round in 0..6u64 {
            for b in 0..4u64 {
                memget(
                    &mut eng,
                    1,
                    arr.block(b).with_offset(round * 16),
                    16,
                    OpId::from_raw(5000 + round * 4 + b),
                );
            }
        }
        eng.run();
        let events = eng.state.events();
        for round in 0..6u64 {
            for b in 0..4u64 {
                let want = vec![(round * 4 + b + 1) as u8; 16];
                let ok = events.iter().any(|(_, _, e)| {
                    matches!(e, SimEv::GetDone(c, d) if *c == 5000 + round * 4 + b && d == &want)
                });
                assert!(ok, "{mode:?}: write r{round} b{b} lost under jitter");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random schedules on a jittery fabric still deliver every completion
    /// and leave the cluster consistent.
    #[test]
    fn random_jittered_schedules_converge(
        ops in proptest::collection::vec((0u32..4, 0u64..8, 0u8..3), 1..60),
        jitter in 1u64..2000,
        seed in 0u64..200,
    ) {
        for mode in [GasMode::AgasSoftware, GasMode::AgasNetwork] {
            let net = NetConfig { jitter_ns: jitter, ..NetConfig::ideal() };
            let mut eng = Engine::new(SimWorld::new(4, mode, net), seed);
            let arr = alloc_array(&mut eng, 8, 12, Distribution::Cyclic);
            let mut puts = 0;
            for (i, &(from, block, kind)) in ops.iter().enumerate() {
                match kind {
                    0 | 1 => {
                        memput(&mut eng, from, arr.block(block), vec![i as u8 + 1; 16], OpId::from_raw(i as u64));
                        puts += 1;
                    }
                    _ => migrate_block(&mut eng, from, arr.block(block), (block % 4) as u32, OpId::from_raw(7000 + i as u64)),
                }
                eng.run_steps(5);
            }
            eng.run();
            let done = eng
                .state
                .events()
                .iter()
                .filter(|(_, _, e)| matches!(e, SimEv::PutDone(_)))
                .count();
            prop_assert_eq!(done, puts, "{:?}", mode);
            assert_consistent(&eng, &arr.blocks);
        }
    }

    /// Jitter is drawn from the seeded PRNG: identical seeds give identical
    /// jittered executions.
    #[test]
    fn jitter_is_deterministic(seed in 0u64..1000) {
        let run = || {
            let mut eng = Engine::new(SimWorld::new(3, GasMode::AgasNetwork, jittery()), seed);
            let arr = alloc_array(&mut eng, 4, 12, Distribution::Cyclic);
            for i in 0..30u64 {
                memput(&mut eng, (i % 3) as u32, arr.block(i % 4), vec![1; 8], OpId::from_raw(i));
            }
            eng.run();
            (eng.trace_hash(), eng.now())
        };
        prop_assert_eq!(run(), run());
    }
}

/// Fault injection: a NIC firmware reset wipes every live translation
/// entry mid-run. The miss interrupts reinstall entries from the BTT and
/// every operation still completes with correct data.
#[test]
fn nic_table_flush_mid_run_recovers() {
    let mut eng = Engine::new(
        SimWorld::new(4, GasMode::AgasNetwork, NetConfig::ideal()),
        23,
    );
    let arr = alloc_array(&mut eng, 8, 12, Distribution::Cyclic);
    for i in 0..60u64 {
        // (i+1)%4 ≠ home((i%8)) for every i: all ops are remote.
        memput(
            &mut eng,
            ((i + 1) % 4) as u32,
            arr.block(i % 8).with_offset((i / 8) * 64),
            vec![(i + 1) as u8; 64],
            OpId::from_raw(i),
        );
        if i == 30 {
            // Reset every NIC's table while half the traffic is in flight.
            for l in 0..4u32 {
                eng.state.data.cluster.loc_mut(l).nic.xlate.flush_live();
            }
        }
        eng.run_steps(10);
    }
    eng.run();
    let done = eng
        .state
        .events()
        .iter()
        .filter(|(_, _, e)| matches!(e, SimEv::PutDone(_)))
        .count();
    assert_eq!(done, 60, "flush lost operations");
    let total = eng.state.total_counters();
    assert!(total.xlate_misses > 0, "flush should have caused misses");
    // Every write still readable.
    for i in 0..60u64 {
        memget(
            &mut eng,
            1,
            arr.block(i % 8).with_offset((i / 8) * 64),
            64,
            OpId::from_raw(1000 + i),
        );
    }
    eng.run();
    let events = eng.state.events();
    for i in 0..60u64 {
        let ok = events.iter().any(|(_, _, e)| {
            matches!(e, SimEv::GetDone(c, d) if *c == 1000 + i && d == &vec![(i + 1) as u8; 64])
        });
        assert!(ok, "op {i} corrupted by the table flush");
    }
}
