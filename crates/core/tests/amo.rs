//! Protocol-level tests of NIC-executed active operations (AMOs):
//! translation + execution in one NIC visit, software fallback, migration
//! races, and exactly-once semantics under faults.
//!
//! Value verification deliberately stays inside the AMO vocabulary
//! (`FetchAdd { operand: 0 }` reads a word, `Gather` reads several) so AMO
//! words never alias put/get byte slots and the word-level history checker
//! sees every observation.

mod common;

use agas::migrate::migrate_block;
use agas::ops::memamo;
use agas::{alloc_array, Distribution, GasMode, SimEv, SimWorld};
use common::{assert_consistent, engine};
use netsim::{AmoOp, AmoResult, Engine, FaultPlan, FaultPlane, NetConfig, OpId};

fn amo_result(eng: &Engine<SimWorld>, ctx: u64) -> Option<AmoResult> {
    eng.state.events().iter().find_map(|(_, _, e)| match e {
        SimEv::AmoDone(c, r) if *c == ctx => Some(r.clone()),
        _ => None,
    })
}

fn mig_done(eng: &Engine<SimWorld>, ctx: u64) -> bool {
    eng.state
        .events()
        .iter()
        .any(|(_, _, e)| matches!(e, SimEv::MigDone(c, _) if *c == ctx))
}

/// Atomically read the 8-byte word at `gva` via a no-op fetch-add.
fn read_word(eng: &mut Engine<SimWorld>, loc: u32, gva: agas::Gva, ctx: u64) -> u64 {
    memamo(
        eng,
        loc,
        gva,
        AmoOp::FetchAdd { operand: 0 },
        OpId::from_raw(ctx),
    );
    eng.run();
    amo_result(eng, ctx).expect("read-back AMO incomplete").old
}

#[test]
fn all_kinds_round_trip_all_modes() {
    for mode in GasMode::ALL {
        let mut eng = engine(4, mode);
        let arr = alloc_array(&mut eng, 8, 12, Distribution::Cyclic);
        // Block 1 is homed at locality 1; operate from locality 0.
        let gva = arr.block(1);

        memamo(
            &mut eng,
            0,
            gva,
            AmoOp::FetchAdd { operand: 7 },
            OpId::from_raw(1),
        );
        eng.run();
        let r = amo_result(&eng, 1).expect("fetch-add incomplete");
        assert_eq!((r.old, r.applied), (0, true), "{mode:?}");

        memamo(
            &mut eng,
            0,
            gva,
            AmoOp::CompareSwap {
                expected: 7,
                desired: 100,
            },
            OpId::from_raw(2),
        );
        eng.run();
        let r = amo_result(&eng, 2).expect("cas incomplete");
        assert_eq!((r.old, r.applied), (7, true), "{mode:?}");

        // A mismatched CAS observes without modifying.
        memamo(
            &mut eng,
            0,
            gva,
            AmoOp::CompareSwap {
                expected: 7,
                desired: 999,
            },
            OpId::from_raw(3),
        );
        eng.run();
        let r = amo_result(&eng, 3).expect("failed cas incomplete");
        assert_eq!((r.old, r.applied), (100, false), "{mode:?}");

        // Masked put on the second word: set the low half only.
        memamo(
            &mut eng,
            0,
            gva.with_offset(8),
            AmoOp::MaskedPut {
                mask: 0xffff_ffff,
                value: 0xdead_beef,
            },
            OpId::from_raw(4),
        );
        eng.run();
        assert!(amo_result(&eng, 4).expect("masked put incomplete").applied);

        // Scatter words 2..4, then gather words 0..4 and check everything.
        memamo(
            &mut eng,
            0,
            gva,
            AmoOp::Scatter {
                writes: Box::new([(16, 0x1111), (24, 0x2222)]),
            },
            OpId::from_raw(5),
        );
        eng.run();
        memamo(
            &mut eng,
            0,
            gva,
            AmoOp::Gather {
                offsets: Box::new([0, 8, 16, 24]),
            },
            OpId::from_raw(6),
        );
        eng.run();
        let r = amo_result(&eng, 6).expect("gather incomplete");
        assert_eq!(r.values, vec![100, 0xdead_beef, 0x1111, 0x2222], "{mode:?}");
        assert_consistent(&eng, &arr.blocks);
    }
}

#[test]
fn nic_executes_without_target_cpu() {
    // The tentpole claim: in NET mode the NIC translates *and* executes,
    // so the target CPU schedules zero handler events for any AMO kind.
    let mut eng = engine(2, GasMode::AgasNetwork);
    let arr = alloc_array(&mut eng, 2, 12, Distribution::Cyclic);
    let gva = arr.block(1);
    let ops: Vec<AmoOp> = vec![
        AmoOp::FetchAdd { operand: 3 },
        AmoOp::CompareSwap {
            expected: 3,
            desired: 5,
        },
        AmoOp::MaskedPut {
            mask: u64::MAX,
            value: 9,
        },
        AmoOp::Scatter {
            writes: Box::new([(8, 1), (16, 2)]),
        },
        AmoOp::Gather {
            offsets: Box::new([0, 8]),
        },
    ];
    for (i, op) in ops.into_iter().enumerate() {
        memamo(&mut eng, 0, gva, op, OpId::from_raw(i as u64));
        eng.run();
        assert!(amo_result(&eng, i as u64).is_some(), "op {i} incomplete");
    }
    let total = eng.state.total_counters();
    assert_eq!(total.rdma_amos, 5, "all five kinds ride the NIC path");
    assert_eq!(total.amo_executed, 5);
    assert_eq!(total.sw_handler_runs, 0, "target CPU never ran a handler");
    let stats = &eng.state.data.gas[0].stats;
    assert_eq!(stats.amos, 5);
    assert_eq!(stats.remote_ops, 5);
    for g in &eng.state.data.gas {
        assert_eq!(g.stats.sw_amos_handled, 0);
    }
}

#[test]
fn local_fast_path_all_modes() {
    for mode in GasMode::ALL {
        let mut eng = engine(4, mode);
        let arr = alloc_array(&mut eng, 8, 12, Distribution::Cyclic);
        // Block 0 is homed at locality 0; operate from locality 0.
        let gva = arr.block(0);
        memamo(
            &mut eng,
            0,
            gva,
            AmoOp::FetchAdd { operand: 11 },
            OpId::from_raw(1),
        );
        eng.run();
        assert_eq!(amo_result(&eng, 1).expect("local AMO incomplete").old, 0);
        let g = &eng.state.data.gas[0];
        assert_eq!(g.stats.local_ops, 1, "{mode:?}: local path not taken");
        let total = eng.state.total_counters();
        assert_eq!(total.rdma_amos + total.msgs_sent, 0, "{mode:?}");
    }
}

#[test]
fn software_modes_run_target_handler() {
    // SW mode has no NIC translation, and PGAS NICs have no AMO unit
    // against unregistered remote memory: both route through the home CPU.
    for mode in [GasMode::AgasSoftware, GasMode::Pgas] {
        let mut eng = engine(2, mode);
        let arr = alloc_array(&mut eng, 2, 12, Distribution::Cyclic);
        memamo(
            &mut eng,
            0,
            arr.block(1),
            AmoOp::FetchAdd { operand: 5 },
            OpId::from_raw(1),
        );
        eng.run();
        assert_eq!(amo_result(&eng, 1).expect("sw AMO incomplete").old, 0);
        assert_eq!(eng.state.total_counters().rdma_amos, 0, "{mode:?}");
        assert_eq!(eng.state.data.gas[1].stats.sw_amos_handled, 1, "{mode:?}");
        assert_eq!(read_word(&mut eng, 0, arr.block(1), 90), 5, "{mode:?}");
    }
}

#[test]
fn contended_fetch_add_linearizes() {
    // Every locality hammers one word; the sum must be exact and the
    // word-level history checker must accept the schedule.
    for mode in GasMode::ALL {
        let mut eng = engine(4, mode);
        let arr = alloc_array(&mut eng, 4, 12, Distribution::Cyclic);
        let gva = arr.block(1);
        let per_loc = 25u64;
        for loc in 0..4u32 {
            for i in 0..per_loc {
                memamo(
                    &mut eng,
                    loc,
                    gva,
                    AmoOp::FetchAdd { operand: 1 },
                    OpId::from_raw(u64::from(loc) * 1000 + i),
                );
            }
        }
        eng.run();
        assert_eq!(read_word(&mut eng, 3, gva, 9999), 4 * per_loc, "{mode:?}");
        assert_consistent(&eng, &arr.blocks);
    }
}

#[test]
fn amo_racing_migration_never_lost_or_doubled() {
    // Fire a burst of increments, migrate the target mid-flight, keep
    // firing. Late arrivals at the old owner must NACK or forward —
    // never vanish, never double-apply.
    let mut eng = engine(4, GasMode::AgasNetwork);
    let arr = alloc_array(&mut eng, 4, 12, Distribution::Cyclic);
    let gva = arr.block(1);
    let n = 30u64;
    for i in 0..n {
        memamo(
            &mut eng,
            2,
            gva,
            AmoOp::FetchAdd { operand: 1 },
            OpId::from_raw(i),
        );
    }
    migrate_block(&mut eng, 0, gva, 3, OpId::from_raw(5000));
    for i in n..2 * n {
        memamo(
            &mut eng,
            2,
            gva,
            AmoOp::FetchAdd { operand: 1 },
            OpId::from_raw(i),
        );
    }
    eng.run();
    assert!(mig_done(&eng, 5000));
    assert!(eng.state.data.gas[3].btt.is_resident(gva.block_key()));
    assert_eq!(read_word(&mut eng, 2, gva, 9999), 2 * n);
    let total = eng.state.total_counters();
    assert_eq!(total.amo_executed, 2 * n + 1, "each increment applied once");
    assert_consistent(&eng, &arr.blocks);
}

#[test]
fn replay_cache_travels_with_migrating_block() {
    // Seed the old owner's responder cache, migrate, and check the entries
    // arrived at the new owner so post-migration retries still dedup.
    let mut eng = engine(3, GasMode::AgasNetwork);
    let arr = alloc_array(&mut eng, 3, 12, Distribution::Cyclic);
    let gva = arr.block(1);
    for i in 0..4 {
        memamo(
            &mut eng,
            0,
            gva,
            AmoOp::FetchAdd { operand: 1 },
            OpId::from_raw(i),
        );
    }
    eng.run();
    assert!(!eng.state.data.cluster.loc_mut(1).nic.amo.is_empty());
    migrate_block(&mut eng, 0, gva, 2, OpId::from_raw(100));
    eng.run();
    assert!(mig_done(&eng, 100));
    assert!(eng.state.data.cluster.loc_mut(1).nic.amo.is_empty());
    assert_eq!(eng.state.data.cluster.loc_mut(2).nic.amo.len(), 4);
}

#[test]
fn faulty_network_applies_each_amo_exactly_once() {
    // Drops force retries, duplicates hit the replay cache: the counter
    // still lands on exactly N, exactly one of the racing CASes on the
    // second word applies, a gather over both words sees only values some
    // writer produced, and the word history stays clean.
    for seed in [11u64, 23, 47] {
        let mut eng = Engine::new(
            SimWorld::new(3, GasMode::AgasNetwork, NetConfig::ideal()),
            seed,
        );
        // Dropped traffic only recovers through the deadline sweep.
        let cfg = agas::GasConfig {
            op_deadline: Some(netsim::Time::from_us(300)),
            sweep_interval: netsim::Time::from_us(30),
            record_history: true,
            ..agas::GasConfig::default()
        };
        for g in &mut eng.state.data.gas {
            *g = agas::GasLocal::new(cfg);
        }
        eng.state.data.cluster.faults = Some(FaultPlane::new(FaultPlan::uniform(seed, 0.15)));
        let arr = alloc_array(&mut eng, 3, 12, Distribution::Cyclic);
        let gva = arr.block(1);
        let n = 40u64;
        for i in 0..n {
            memamo(
                &mut eng,
                0,
                gva,
                AmoOp::FetchAdd { operand: 1 },
                OpId::from_raw(i),
            );
        }
        // Every locality races to swap the second word from 0.
        let cas = |loc: u32| n + u64::from(loc);
        for loc in 0..3u32 {
            memamo(
                &mut eng,
                loc,
                gva.with_offset(8),
                AmoOp::CompareSwap {
                    expected: 0,
                    desired: u64::from(loc) + 1,
                },
                OpId::from_raw(cas(loc)),
            );
        }
        eng.run();
        let issued = n + 3;
        let done = (0..issued)
            .filter(|i| amo_result(&eng, *i).is_some())
            .count() as u64;
        let failed = eng
            .state
            .events()
            .iter()
            .filter(|(_, _, e)| matches!(e, SimEv::OpFailed(c, _) if *c < issued))
            .count() as u64;
        assert_eq!(done + failed, issued, "seed {seed}: every op resolved");
        assert_eq!(failed, 0, "seed {seed}: retry machinery should recover");
        let winners: Vec<u32> = (0..3u32)
            .filter(|&loc| amo_result(&eng, cas(loc)).unwrap().applied)
            .collect();
        assert_eq!(winners.len(), 1, "seed {seed}: CAS winners {winners:?}");
        // Quiesce any in-flight duplicates, then audit both words.
        memamo(
            &mut eng,
            2,
            gva,
            AmoOp::Gather {
                offsets: Box::new([0, 8]),
            },
            OpId::from_raw(9000),
        );
        eng.run();
        let r = amo_result(&eng, 9000).expect("gather incomplete");
        assert_eq!(
            r.values,
            vec![n, u64::from(winners[0]) + 1],
            "seed {seed}: lost or double-applied AMOs"
        );
        assert_consistent(&eng, &arr.blocks);
    }
}

#[test]
fn duplicated_requests_hit_replay_cache() {
    // A dup-heavy plan (no drops) must produce replay-cache hits and still
    // count each increment once.
    let mut eng = Engine::new(
        SimWorld::new(2, GasMode::AgasNetwork, NetConfig::ideal()),
        7,
    );
    let mut plan = FaultPlan::lossless(7);
    plan.rates.dup = 0.5;
    eng.state.data.cluster.faults = Some(FaultPlane::new(plan));
    let arr = alloc_array(&mut eng, 2, 12, Distribution::Cyclic);
    let gva = arr.block(1);
    let n = 40u64;
    for i in 0..n {
        memamo(
            &mut eng,
            0,
            gva,
            AmoOp::FetchAdd { operand: 1 },
            OpId::from_raw(i),
        );
    }
    eng.run();
    let total = eng.state.total_counters();
    assert!(total.amo_replays > 0, "dups should have hit the cache");
    assert_eq!(total.amo_executed, n, "fresh executions match issued ops");
    assert_eq!(read_word(&mut eng, 0, gva, 9000), n);
    assert_consistent(&eng, &arr.blocks);
}

#[test]
fn nic_table_miss_nacks_then_recovers() {
    // A 1-entry NIC translation table: the second block's first AMO misses,
    // NACKs with an interrupt-driven install, and the retry lands.
    let mut eng = Engine::new(
        SimWorld::new(
            2,
            GasMode::AgasNetwork,
            NetConfig {
                xlate_capacity: 1,
                ..NetConfig::ideal()
            },
        ),
        42,
    );
    let arr = alloc_array(&mut eng, 4, 12, Distribution::Single(1));
    for i in 0..4 {
        memamo(
            &mut eng,
            0,
            arr.block(i),
            AmoOp::FetchAdd { operand: 1 },
            OpId::from_raw(i),
        );
        eng.run();
    }
    for i in 0..4 {
        assert_eq!(read_word(&mut eng, 0, arr.block(i), 100 + i), 1);
    }
    let total = eng.state.total_counters();
    assert!(total.amo_nacked > 0, "capacity-1 table must have missed");
    assert_eq!(total.amo_executed, 4 + 4, "4 increments + 4 read-backs");
}
