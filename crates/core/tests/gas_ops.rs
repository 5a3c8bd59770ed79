//! Protocol-level tests of memput/memget across all three GAS modes.

mod common;

use agas::migrate::free_block;
use agas::ops::{handle_msg, memget, memput};
use agas::{alloc_array, check_blocks, Distribution, GasMode, GasMsg, SimEv, SimWorld, Violation};
use common::{assert_consistent, engine};
use netsim::Time;
use netsim::{Applied, OpId};

fn find_put_done(eng: &netsim::Engine<SimWorld>, ctx: u64) -> Option<Time> {
    eng.state
        .events()
        .iter()
        .find(|(_, _, e)| *e == SimEv::PutDone(ctx))
        .map(|(t, _, _)| *t)
}

fn find_get_data(eng: &netsim::Engine<SimWorld>, ctx: u64) -> Option<Vec<u8>> {
    eng.state.events().iter().find_map(|(_, _, e)| match e {
        SimEv::GetDone(c, d) if *c == ctx => Some(d.clone()),
        _ => None,
    })
}

#[test]
fn remote_put_get_round_trip_all_modes() {
    for mode in GasMode::ALL {
        let mut eng = engine(4, mode);
        let arr = alloc_array(&mut eng, 8, 12, Distribution::Cyclic);
        // Block 1 is homed at locality 1; write from locality 0.
        let gva = arr.block(1).with_offset(100);
        memput(&mut eng, 0, gva, vec![0xCD; 256], OpId::from_raw(1));
        eng.run();
        assert!(find_put_done(&eng, 1).is_some(), "{mode:?}: put incomplete");
        memget(&mut eng, 0, gva, 256, OpId::from_raw(2));
        eng.run();
        assert_eq!(
            find_get_data(&eng, 2).unwrap(),
            vec![0xCD; 256],
            "{mode:?}: data mismatch"
        );
        assert_consistent(&eng, &arr.blocks);
    }
}

#[test]
fn local_fast_path_all_modes() {
    for mode in GasMode::ALL {
        let mut eng = engine(4, mode);
        let arr = alloc_array(&mut eng, 8, 12, Distribution::Cyclic);
        // Block 0 is homed at locality 0; operate from locality 0.
        let gva = arr.block(0).with_offset(8);
        memput(&mut eng, 0, gva, vec![7; 16], OpId::from_raw(1));
        eng.run();
        memget(&mut eng, 0, gva, 16, OpId::from_raw(2));
        eng.run();
        assert_eq!(find_get_data(&eng, 2).unwrap(), vec![7; 16], "{mode:?}");
        let g = &eng.state.data.gas[0];
        assert_eq!(g.stats.local_ops, 2, "{mode:?}: local path not taken");
        assert_eq!(g.stats.remote_ops, 0, "{mode:?}");
        // No network operations at all.
        let total = eng.state.total_counters();
        assert_eq!(
            total.rdma_puts + total.rdma_gets + total.msgs_sent,
            0,
            "{mode:?}"
        );
    }
}

#[test]
fn protocol_structure_differs_by_mode() {
    // One remote put per mode; E10's counters distinguish the designs.
    let run = |mode| {
        let mut eng = engine(2, mode);
        let arr = alloc_array(&mut eng, 2, 12, Distribution::Cyclic);
        memput(&mut eng, 0, arr.block(1), vec![1; 64], OpId::from_raw(1));
        eng.run();
        eng.state.total_counters()
    };

    let pgas = run(GasMode::Pgas);
    assert_eq!(pgas.rdma_puts, 1);
    assert_eq!(pgas.xlate_hits, 0, "PGAS never touches the NIC table");
    assert_eq!(pgas.sw_handler_runs, 0);

    let net = run(GasMode::AgasNetwork);
    assert_eq!(net.rdma_puts, 1);
    assert_eq!(net.xlate_hits, 1, "NET translates on the NIC");
    assert_eq!(net.sw_handler_runs, 0, "NET never touches the target CPU");

    let sw = run(GasMode::AgasSoftware);
    assert_eq!(sw.rdma_puts, 0, "SW uses two-sided messages");
    assert_eq!(sw.sw_handler_runs, 1, "SW runs a target-CPU handler");
    assert!(sw.msgs_sent >= 2, "request + ack");
}

#[test]
fn remote_put_latency_ordering() {
    // The paper's headline: NET ≈ PGAS ≪ SW for small remote writes.
    let latency = |mode| {
        let mut eng = engine(2, mode);
        let arr = alloc_array(&mut eng, 2, 12, Distribution::Cyclic);
        let t0 = eng.now();
        memput(&mut eng, 0, arr.block(1), vec![1; 8], OpId::from_raw(1));
        eng.run();
        find_put_done(&eng, 1).unwrap() - t0
    };
    let pgas = latency(GasMode::Pgas);
    let net = latency(GasMode::AgasNetwork);
    let sw = latency(GasMode::AgasSoftware);
    assert!(pgas <= net, "pgas={pgas} net={net}");
    // NET pays only the NIC translation over PGAS.
    assert!(net - pgas <= Time::from_ns(100), "pgas={pgas} net={net}");
    assert!(sw > net, "sw={sw} net={net}");
}

#[test]
fn stale_cache_recovers_via_directory() {
    // Poison the owner cache, then verify the op still completes.
    for mode in [GasMode::AgasSoftware, GasMode::AgasNetwork] {
        let mut eng = engine(4, mode);
        let arr = alloc_array(&mut eng, 4, 12, Distribution::Cyclic);
        let gva = arr.block(2); // homed at locality 2
        eng.state.data.gas[0].cache.update(
            gva.block_key(),
            agas::OwnerHint {
                owner: 3, // wrong!
                generation: 1,
            },
        );
        memput(&mut eng, 0, gva, vec![9; 32], OpId::from_raw(7));
        eng.run();
        assert!(find_put_done(&eng, 7).is_some(), "{mode:?}");
        let stats = eng.state.data.gas[0].stats;
        assert!(stats.retries >= 1, "{mode:?}: no bounce?");
        // Only the NIC path bounces with a NACK: locality 3's NIC holds no
        // entry for the block.
        let nacked = u64::from(mode == GasMode::AgasNetwork) * stats.retries;
        let split = (stats.nacked_miss, stats.nacked_ttl, stats.nacked_bounds);
        assert_eq!(split, (nacked, 0, 0), "{mode:?}");
        assert_eq!(stats.completed, 1, "{mode:?}");
        memget(&mut eng, 0, gva, 32, OpId::from_raw(8));
        eng.run();
        assert_eq!(find_get_data(&eng, 8).unwrap(), vec![9; 32], "{mode:?}");
    }
}

#[test]
fn alloc_array_places_and_registers() {
    for mode in GasMode::ALL {
        let mut eng = engine(3, mode);
        let arr = alloc_array(&mut eng, 7, 10, Distribution::Cyclic);
        assert_eq!(arr.len_blocks(), 7);
        for (i, gva) in arr.blocks.iter().enumerate() {
            assert_eq!(gva.home(), (i % 3) as u32);
            let owner = gva.home() as usize;
            assert!(eng.state.data.gas[owner].btt.is_resident(gva.block_key()));
            assert!(eng.state.data.gas[owner]
                .dir
                .peek(gva.block_key())
                .is_some());
        }
        assert_consistent(&eng, &arr.blocks);
    }
}

#[test]
fn free_array_releases_everything() {
    for mode in GasMode::ALL {
        let mut eng = engine(3, mode);
        let arr = alloc_array(&mut eng, 6, 10, Distribution::Cyclic);
        let live_before: u64 = (0..3)
            .map(|l| eng.state.data.cluster.mem(l).live_blocks())
            .sum();
        assert_eq!(live_before, 6);
        for (i, &gva) in (0..).zip(&arr.blocks) {
            free_block(&mut eng, (i as u32 + 1) % 3, gva, OpId::from_raw(i));
        }
        eng.run();
        let freed = eng
            .state
            .events()
            .iter()
            .filter(|(_, _, e)| matches!(e, SimEv::FreeDone(..)))
            .count();
        assert_eq!(freed, 6, "{mode:?}");
        let live_after: u64 = (0..3)
            .map(|l| eng.state.data.cluster.mem(l).live_blocks())
            .sum();
        assert_eq!(live_after, 0, "{mode:?}");
        for l in 0..3 {
            assert!(eng.state.data.gas[l].btt.is_empty(), "{mode:?}");
            assert!(eng.state.data.gas[l].dir.is_empty(), "{mode:?}");
        }
    }
}

#[test]
fn many_concurrent_puts_all_complete() {
    for mode in GasMode::ALL {
        let mut eng = engine(4, mode);
        let arr = alloc_array(&mut eng, 16, 12, Distribution::Cyclic);
        let n_ops = 200u64;
        for i in 0..n_ops {
            let block = arr.block(i % 16);
            let gva = block.with_offset((i / 16) * 16);
            memput(
                &mut eng,
                (i % 4) as u32,
                gva,
                vec![i as u8; 16],
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
        assert_eq!(done as u64, n_ops, "{mode:?}");
        assert_consistent(&eng, &arr.blocks);
    }
}

#[test]
fn blocked_distribution_keeps_neighbors_local() {
    let mut eng = engine(4, GasMode::Pgas);
    let arr = alloc_array(&mut eng, 8, 10, Distribution::Blocked);
    assert_eq!(arr.block(0).home(), 0);
    assert_eq!(arr.block(1).home(), 0);
    assert_eq!(arr.block(2).home(), 1);
    assert_eq!(arr.block(7).home(), 3);
}

#[test]
fn gets_return_independent_data() {
    let mut eng = engine(2, GasMode::AgasNetwork);
    let arr = alloc_array(&mut eng, 2, 12, Distribution::Cyclic);
    memput(&mut eng, 0, arr.block(1), vec![1; 8], OpId::from_raw(1));
    memput(
        &mut eng,
        0,
        arr.block(1).with_offset(8),
        vec![2; 8],
        OpId::from_raw(2),
    );
    eng.run();
    memget(&mut eng, 0, arr.block(1), 8, OpId::from_raw(3));
    memget(
        &mut eng,
        0,
        arr.block(1).with_offset(8),
        8,
        OpId::from_raw(4),
    );
    eng.run();
    assert_eq!(find_get_data(&eng, 3).unwrap(), vec![1; 8]);
    assert_eq!(find_get_data(&eng, 4).unwrap(), vec![2; 8]);
}

#[test]
fn nic_table_capacity_pressure_still_correct() {
    // A 2-entry NIC table thrashes but never corrupts data (experiment E6's
    // correctness backstop).
    let mut eng = netsim::Engine::new(
        SimWorld::new(
            2,
            GasMode::AgasNetwork,
            netsim::NetConfig {
                xlate_capacity: 2,
                ..netsim::NetConfig::ideal()
            },
        ),
        42,
    );
    let arr = alloc_array(&mut eng, 8, 12, Distribution::Single(1));
    for i in 0..8 {
        memput(
            &mut eng,
            0,
            arr.block(i),
            vec![i as u8 + 1; 16],
            OpId::from_raw(i),
        );
    }
    eng.run();
    for i in 0..8 {
        memget(&mut eng, 0, arr.block(i), 16, OpId::from_raw(100 + i));
        eng.run();
        assert_eq!(find_get_data(&eng, 100 + i).unwrap(), vec![i as u8 + 1; 16]);
    }
    let total = eng.state.total_counters();
    assert!(total.xlate_evictions > 0, "table should have thrashed");
    assert!(total.nacks_sent > 0, "misses should have NACKed");
}

#[test]
fn a_nic_without_a_table_holds_no_entry() {
    // PGAS and AGAS-SW run over a fabric with no NIC table: the owner's CPU
    // resolves every access, so a tombstone at the owner's NIC is a
    // violation the end-state check must name.
    for mode in [GasMode::Pgas, GasMode::AgasSoftware] {
        let mut eng = engine(2, mode);
        let arr = alloc_array(&mut eng, 2, 12, Distribution::Cyclic);
        memput(&mut eng, 0, arr.block(1), vec![1; 8], OpId::from_raw(1));
        eng.run();
        assert_eq!(check_blocks(&eng.state, &arr.blocks), [], "{mode:?}");
        let key = arr.block(1).block_key();
        let nic = &mut eng.state.data.cluster.loc_mut(1).nic;
        nic.xlate.retire_to_forward(key, 0, 0);
        let got = check_blocks(&eng.state, &arr.blocks);
        assert!(
            matches!(got[..], [Violation::NicMismatch { gva, .. }] if gva == arr.block(1)),
            "{mode:?}: {got:?}"
        );
    }
}

#[test]
fn an_answer_of_another_kind_fails_the_op() {
    // A software get answered with a put's ack: the get fails as a protocol
    // violation instead of completing as the put it is not.
    let mut eng = engine(2, GasMode::AgasSoftware);
    let arr = alloc_array(&mut eng, 2, 12, Distribution::Cyclic);
    eng.run();
    memget(&mut eng, 0, arr.block(1), 8, OpId::from_raw(7));
    let op = eng.state.data.gas[0].op_snapshots()[0].id.unwrap();
    let before = eng.state.data.gas[0].stats;
    let answer = Applied::Put;
    handle_msg(&mut eng, 1, 0, GasMsg::SwReply { ctx: op, answer });
    let after = eng.state.data.gas[0].stats;
    assert_eq!(after.ops_failed, before.ops_failed + 1);
    assert_eq!(after.protocol_violations, before.protocol_violations + 1);
    assert_eq!(after.completed, before.completed);
    // The owner's real reply then names a retired op.
    eng.run();
    let stats = eng.state.data.gas[0].stats;
    assert_eq!(stats.stale_completions, before.stale_completions + 1);
    assert_eq!((eng.state.put_acks(), eng.state.get_acks()), (0, 0));
    let failures: Vec<String> = eng
        .state
        .events()
        .iter()
        .filter_map(|(_, _, e)| match e {
            SimEv::OpFailed(7, err) => Some(err.clone()),
            SimEv::PutDone(_) | SimEv::GetDone(..) => panic!("completed: {e:?}"),
            _ => None,
        })
        .collect();
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(
        failures[0].starts_with("protocol violation"),
        "{failures:?}"
    );
}

#[test]
fn an_op_degrades_to_software_after_its_third_nic_table_miss() {
    // A table too small to keep the block: the owner's NIC loses its entry
    // before every access, so each attempt is a miss NACK. The third sends
    // the op to the owner's CPU, which cannot miss.
    let mut eng = engine(2, GasMode::AgasNetwork);
    let arr = alloc_array(&mut eng, 2, 12, Distribution::Cyclic);
    eng.run();
    memput(&mut eng, 0, arr.block(1), vec![7; 8], OpId::from_raw(1));
    let mut misses = Vec::new();
    loop {
        eng.state.data.cluster.loc_mut(1).nic.xlate.flush_live();
        let g = &eng.state.data.gas[0];
        misses.push((g.stats.nacked_miss, g.stats.sw_fallbacks));
        if !eng.step() {
            break;
        }
    }
    assert!(find_put_done(&eng, 1).is_some(), "put incomplete");
    // Each miss count was reached without a fallback until the third.
    for (miss, fallbacks) in misses {
        assert_eq!(fallbacks, u64::from(miss >= 3), "{miss} misses");
    }
    let stats = eng.state.data.gas[0].stats;
    assert_eq!((stats.nacked_miss, stats.sw_fallbacks), (3, 1));
    assert_eq!(eng.state.data.gas[1].stats.sw_puts_handled, 1);
}
