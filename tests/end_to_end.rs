//! Workspace-level integration tests: the full stack (netsim → photon →
//! agas → parcel-rt → workloads) exercised end to end, across GAS modes.

use nmvgas::workloads::{chase, gups, skew, stencil};
use nmvgas::{ArgWriter, Distribution, GasMode, NetConfig, Runtime, Time};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Full GUPS (action variant) under every mode produces the same checksum —
/// the cross-stack correctness anchor.
#[test]
fn gups_checksum_identical_across_modes_and_fabrics() {
    let cfg = gups::GupsConfig {
        cells_per_loc: 512,
        updates_per_loc: 300,
        window: 8,
        use_actions: true,
        ..gups::GupsConfig::default()
    };
    let expect = gups::expected_checksum(&cfg, 5);
    for net in [NetConfig::ib_fdr(), NetConfig::ethernet_10g()] {
        for mode in GasMode::ALL {
            let mut b = Runtime::builder(5, mode).net(net);
            gups::register_actions(&mut b);
            let mut rt = b.boot();
            let table = gups::alloc_table(&mut rt, &cfg);
            gups::run(&mut rt, &cfg, &table);
            assert_eq!(gups::table_checksum(&rt, &table), expect, "{mode:?}");
        }
    }
}

/// A mixed workload — GUPS traffic, stencil iterations, and migrations all
/// at once — drains to quiescence with nothing lost.
#[test]
fn mixed_workload_quiesces_consistently() {
    for mode in [GasMode::AgasSoftware, GasMode::AgasNetwork] {
        let mut b = Runtime::builder(4, mode);
        gups::register_actions(&mut b);
        stencil::register_actions(&mut b);
        let mut rt = b.boot();

        let gcfg = gups::GupsConfig {
            cells_per_loc: 256,
            updates_per_loc: 200,
            window: 8,
            use_actions: true,
            ..gups::GupsConfig::default()
        };
        let table = gups::alloc_table(&mut rt, &gcfg);
        // Kick off migrations of table blocks while GUPS runs.
        for (i, gva) in table.blocks.iter().enumerate() {
            rt.migrate(0, *gva, ((i as u32) * 7 + 1) % 4);
        }
        let res = gups::run(&mut rt, &gcfg, &table);
        assert_eq!(res.updates, 800, "{mode:?}");
        assert_eq!(
            gups::table_checksum(&rt, &table),
            gups::expected_checksum(&gcfg, 4),
            "{mode:?}: migration during GUPS corrupted the table"
        );

        // Now a stencil on the same booted runtime.
        let scfg = stencil::StencilConfig {
            grid: vec![2, 2],
            tile: 8,
            iters: 2,
            flop_time: Time::from_us(2),
        };
        let tiles = stencil::alloc_tiles(&mut rt, &scfg);
        let sres = stencil::run(&mut rt, &scfg, &tiles);
        assert_eq!(sres.iters, 2, "{mode:?}");

        // Nothing left pending anywhere.
        for l in 0..4 {
            assert_eq!(rt.eng.state.gas[l].outstanding_ops(), 0, "{mode:?}");
            assert_eq!(rt.eng.state.eps[l].outstanding_ops(), 0, "{mode:?}");
        }
    }
}

/// E10's counter structure holds end-to-end: one remote memput has the
/// documented per-mode protocol footprint.
#[test]
fn protocol_footprint_per_memput() {
    let footprint = |mode| {
        let mut rt = Runtime::builder(2, mode).boot();
        let arr = rt.alloc(2, 12, Distribution::Cyclic);
        let before = rt.counters();
        rt.memput(0, arr.block(1), vec![1u8; 256]);
        rt.run();
        let after = rt.counters();
        (
            after.rdma_puts - before.rdma_puts,
            after.msgs_sent - before.msgs_sent,
            after.sw_handler_runs - before.sw_handler_runs,
            after.xlate_hits - before.xlate_hits,
        )
    };
    assert_eq!(footprint(GasMode::Pgas), (1, 0, 0, 0));
    assert_eq!(footprint(GasMode::AgasNetwork), (1, 0, 0, 1));
    let (rdma, msgs, handlers, xlate) = footprint(GasMode::AgasSoftware);
    assert_eq!(rdma, 0);
    assert_eq!(handlers, 1);
    assert_eq!(xlate, 0);
    assert!(msgs >= 2, "request + ack, got {msgs}");
}

/// The pointer chase agrees with its oracle under every mode and both
/// traversal strategies, even with the NIC table under capacity pressure.
#[test]
fn chase_correct_under_table_pressure() {
    let cfg = chase::ChaseConfig {
        cells: 256,
        hops: 60,
        block_class: 9,
        seed: 99,
    };
    let net = NetConfig {
        xlate_capacity: 4,
        ..NetConfig::ib_fdr()
    };
    for mode in GasMode::ALL {
        let mut rt = Runtime::builder(4, mode).net(net).boot();
        let ring = chase::build_ring(&mut rt, &cfg);
        let expect = chase::expected_final(&rt, &ring, &cfg);
        let res = chase::run_memget(&mut rt, &cfg, &ring);
        assert_eq!(res.final_cell, expect, "{mode:?}");
    }
}

/// Skew + rebalancing leaves the GAS consistent and all reads served.
#[test]
fn skew_rebalancing_end_to_end() {
    let cfg = skew::SkewConfig {
        blocks: 24,
        block_class: 12,
        read_bytes: 512,
        ops_per_loc: 400,
        window: 8,
        theta: 1.0,
        rebalance_every: 150,
        moves_per_round: 3,
        seed: 11,
    };
    for mode in [GasMode::AgasSoftware, GasMode::AgasNetwork] {
        let mut rt = Runtime::builder(6, mode).boot();
        let data = skew::alloc_blocks(&mut rt, &cfg);
        let res = skew::run(&mut rt, &cfg, &data);
        assert_eq!(res.ops, 2400, "{mode:?}");
        assert!(res.migrations > 0, "{mode:?}");
        // Every block still has exactly one owner and a consistent home.
        for gva in &data.blocks {
            let owners: Vec<u32> = (0..6)
                .filter(|&l| {
                    rt.eng.state.gas[l as usize]
                        .btt
                        .is_resident(gva.block_key())
                })
                .collect();
            assert_eq!(owners.len(), 1, "{mode:?} {gva:?}");
            let home = gva.home() as usize;
            let rec = rt.eng.state.gas[home].dir.peek(gva.block_key()).unwrap();
            assert_eq!(rec.owner, owners[0], "{mode:?} {gva:?}");
        }
    }
}

/// Collectives + LCOs + user actions from the facade crate's re-exports.
#[test]
fn facade_broadcast_and_reduce() {
    let mut b = Runtime::builder(7, GasMode::AgasNetwork);
    let rank_sq = b.register("rank_sq", |eng, ctx| {
        let v = (ctx.loc as u64) * (ctx.loc as u64);
        parcel_rt::reply(eng, &ctx, v.to_le_bytes().to_vec());
    });
    let mut rt = b.boot();
    let total = rt.new_reduce(0, 7, nmvgas::ReduceOp::Sum);
    rt.broadcast(0, rank_sq, ArgWriter::new().finish(), Some(total));
    let result = Rc::new(Cell::new(0u64));
    let r2 = result.clone();
    rt.wait_lco(total, move |_, v| {
        r2.set(u64::from_le_bytes(v.try_into().unwrap()));
    });
    rt.run();
    assert_eq!(result.get(), (0..7u64).map(|x| x * x).sum());
}

/// Latency ordering (the paper's headline) holds through the whole stack
/// on the realistic fabric: PGAS ≈ AGAS-NET ≪ AGAS-SW for small remote ops.
#[test]
fn headline_latency_ordering_end_to_end() {
    let lat = |mode| {
        let mut rt = Runtime::builder(2, mode).boot();
        let arr = rt.alloc(2, 12, Distribution::Cyclic);
        let t = Rc::new(RefCell::new(Time::ZERO));
        let t2 = t.clone();
        let t0 = rt.now();
        rt.memput_cb(0, arr.block(1), vec![1u8; 8], move |eng, _| {
            *t2.borrow_mut() = eng.now();
        });
        rt.run();
        let done = *t.borrow();
        done - t0
    };
    let pgas = lat(GasMode::Pgas);
    let net = lat(GasMode::AgasNetwork);
    let sw = lat(GasMode::AgasSoftware);
    assert!(net >= pgas);
    assert!(
        net - pgas <= Time::from_ns(100),
        "NIC adder too large: {}",
        net - pgas
    );
    assert!(
        sw >= net + Time::from_ns(400),
        "software path not visibly slower: sw={sw} net={net}"
    );
}

/// Booting, freeing, and re-allocating repeatedly neither leaks arena
/// memory nor confuses the directory.
#[test]
fn alloc_free_cycles_are_clean() {
    let mut rt = Runtime::builder(3, GasMode::AgasNetwork).boot();
    let baseline: u64 = (0..3)
        .map(|l| rt.eng.state.cluster.mem(l).live_blocks())
        .sum();
    for round in 0..5 {
        let arr = rt.alloc(9, 10, Distribution::Cyclic);
        rt.memput(0, arr.block(4), vec![round as u8; 16]);
        rt.run();
        for &gva in &arr.blocks {
            rt.free_block_cb(0, gva, |_, _| {});
        }
        rt.run();
        let live: u64 = (0..3)
            .map(|l| rt.eng.state.cluster.mem(l).live_blocks())
            .sum();
        assert_eq!(live, baseline, "round {round} leaked blocks");
    }
}
