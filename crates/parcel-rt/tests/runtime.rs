//! End-to-end runtime tests: parcels, actions, LCOs, collectives, and the
//! interaction of all of it with the three GAS modes.

use agas::ops::{pin, route, unpin, Route};
use agas::{membership, Distribution, GasMode, MemberState};
use parcel_rt::{ArgReader, ArgWriter, ReduceOp, Runtime};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

#[test]
fn spawn_executes_action_at_block_owner() {
    for mode in GasMode::ALL {
        let mut b = Runtime::builder(4, mode);
        let ran_at = Rc::new(Cell::new(u32::MAX));
        let ran_at2 = ran_at.clone();
        let probe = b.register("probe", move |_eng, ctx| {
            ran_at2.set(ctx.loc);
        });
        let mut rt = b.boot();
        let arr = rt.alloc(4, 12, Distribution::Cyclic);
        rt.spawn(0, arr.block(2), probe, vec![], None);
        rt.run();
        assert_eq!(ran_at.get(), 2, "{mode:?}: action ran at wrong locality");
    }
}

#[test]
fn action_mutates_target_block() {
    for mode in GasMode::ALL {
        let mut b = Runtime::builder(2, mode);
        let add = b.register("add", |eng, ctx| {
            let mut r = ArgReader::new(&ctx.args);
            let v = r.u64();
            let phys = ctx.target_phys();
            eng.state.cluster.mem_mut(ctx.loc).xor_u64(phys, v).unwrap();
        });
        let mut rt = b.boot();
        let arr = rt.alloc(2, 12, Distribution::Cyclic);
        rt.spawn(
            0,
            arr.block(1).with_offset(16),
            add,
            ArgWriter::new().u64(0xFF).finish(),
            None,
        );
        rt.run();
        let block = rt.read_block(arr.block(1));
        assert_eq!(
            u64::from_le_bytes(block[16..24].try_into().unwrap()),
            0xFF,
            "{mode:?}"
        );
    }
}

#[test]
fn continuation_sets_future_with_reply() {
    let mut b = Runtime::builder(3, GasMode::AgasNetwork);
    let echo = b.register("echo", |eng, ctx| {
        let v = ctx.args.clone();
        parcel_rt::reply(eng, &ctx, v);
    });
    let mut rt = b.boot();
    let arr = rt.alloc(3, 10, Distribution::Cyclic);
    let fut = rt.new_future(0);
    rt.spawn(0, arr.block(2), echo, b"ping".to_vec(), Some(fut));
    let got = Rc::new(RefCell::new(Vec::new()));
    let got2 = got.clone();
    rt.wait_lco(fut, move |_, v| *got2.borrow_mut() = v);
    rt.run();
    assert_eq!(&*got.borrow(), b"ping");
}

#[test]
fn and_gate_counts_inputs() {
    let mut b = Runtime::builder(4, GasMode::AgasSoftware);
    let nop = b.register("nop", |eng, ctx| parcel_rt::reply(eng, &ctx, vec![]));
    let mut rt = b.boot();
    let arr = rt.alloc(8, 10, Distribution::Cyclic);
    let gate = rt.new_and(0, 8);
    for i in 0..8 {
        rt.spawn(0, arr.block(i), nop, vec![], Some(gate));
    }
    let fired_at = Rc::new(Cell::new(false));
    let f = fired_at.clone();
    rt.wait_lco(gate, move |_, _| f.set(true));
    rt.run();
    assert!(fired_at.get());
}

#[test]
fn reduce_lco_accumulates() {
    for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max, ReduceOp::Xor] {
        let mut b = Runtime::builder(4, GasMode::AgasNetwork);
        let contribute = b.register("contribute", |eng, ctx| {
            let mut r = ArgReader::new(&ctx.args);
            let v = r.u64();
            parcel_rt::reply(eng, &ctx, v.to_le_bytes().to_vec());
        });
        let mut rt = b.boot();
        let arr = rt.alloc(4, 10, Distribution::Cyclic);
        let red = rt.new_reduce(0, 4, op);
        let inputs = [5u64, 9, 2, 12];
        for (i, &v) in inputs.iter().enumerate() {
            rt.spawn(
                0,
                arr.block(i as u64),
                contribute,
                ArgWriter::new().u64(v).finish(),
                Some(red),
            );
        }
        let result = Rc::new(Cell::new(0u64));
        let r2 = result.clone();
        rt.wait_lco(red, move |_, v| {
            r2.set(u64::from_le_bytes(v.try_into().unwrap()));
        });
        rt.run();
        let expect = match op {
            ReduceOp::Sum => 28,
            ReduceOp::Min => 2,
            ReduceOp::Max => 12,
            ReduceOp::Xor => 5 ^ 9 ^ 2 ^ 12,
        };
        assert_eq!(result.get(), expect, "{op:?}");
    }
}

#[test]
fn broadcast_reaches_every_locality() {
    for n in [1usize, 2, 5, 8] {
        let mut b = Runtime::builder(n, GasMode::AgasNetwork);
        let hits = Rc::new(RefCell::new(vec![0u32; n]));
        let h = hits.clone();
        let mark = b.register("mark", move |eng, ctx| {
            h.borrow_mut()[ctx.loc as usize] += 1;
            parcel_rt::reply(eng, &ctx, vec![]);
        });
        let mut rt = b.boot();
        let done = rt.new_and(0, n as u64);
        rt.broadcast(0, mark, vec![], Some(done));
        let fired = Rc::new(Cell::new(false));
        let f = fired.clone();
        rt.wait_lco(done, move |_, _| f.set(true));
        rt.run();
        assert!(fired.get(), "n={n}");
        assert!(
            hits.borrow().iter().all(|&c| c == 1),
            "n={n}: {:?}",
            hits.borrow()
        );
    }
}

#[test]
fn parcels_chase_migrating_blocks() {
    for mode in [GasMode::AgasSoftware, GasMode::AgasNetwork] {
        let mut b = Runtime::builder(4, mode);
        let count = Rc::new(Cell::new(0u32));
        let c2 = count.clone();
        let bump = b.register("bump", move |eng, ctx| {
            c2.set(c2.get() + 1);
            let phys = ctx.target_phys();
            eng.state.cluster.mem_mut(ctx.loc).xor_u64(phys, 1).unwrap();
            parcel_rt::reply(eng, &ctx, vec![]);
        });
        let mut rt = b.boot();
        let arr = rt.alloc(2, 12, Distribution::Cyclic);
        let gva = arr.block(1);
        let done = rt.new_and(0, 40);
        // Interleave parcels and migrations.
        for round in 0..4u32 {
            for _ in 0..10 {
                rt.spawn(
                    0,
                    gva.with_offset(8 * (round as u64 % 4)),
                    bump,
                    vec![],
                    Some(done),
                );
            }
            rt.migrate(2, gva, round % 4);
        }
        let fired = Rc::new(Cell::new(false));
        let f = fired.clone();
        rt.wait_lco(done, move |_, _| f.set(true));
        rt.run();
        assert!(fired.get(), "{mode:?}");
        assert_eq!(count.get(), 40, "{mode:?}: parcels lost or duplicated");
    }
}

#[test]
fn sw_mode_consumes_target_cpu_but_net_mode_does_not() {
    // The paper's core claim at runtime level: drive remote memputs at a
    // busy locality and compare CPU consumption.
    let run = |mode| {
        let mut rt = Runtime::builder(2, mode).boot();
        let arr = rt.alloc(2, 16, Distribution::Cyclic);
        for i in 0..100u64 {
            rt.memput(0, arr.block(1).with_offset(i * 64), vec![1u8; 64]);
        }
        rt.run();
        rt.eng.state.cluster.loc(1).counters.cpu_busy
    };
    let sw = run(GasMode::AgasSoftware);
    let net = run(GasMode::AgasNetwork);
    assert_eq!(net.ps(), 0, "NET mode must not touch the target CPU");
    assert!(
        sw > netsim::Time::from_us(10),
        "SW mode must burn target CPU: {sw}"
    );
}

#[test]
fn memput_lco_signals_completion() {
    let mut rt = Runtime::builder(2, GasMode::AgasNetwork).boot();
    let arr = rt.alloc(2, 12, Distribution::Cyclic);
    let lco = rt.new_future(0);
    rt.memput_lco(0, arr.block(1), vec![3u8; 32], lco);
    let fired = Rc::new(Cell::new(false));
    let f = fired.clone();
    rt.wait_lco(lco, move |_, _| f.set(true));
    rt.run();
    assert!(fired.get());
    assert_eq!(rt.read_block(arr.block(1))[..32], vec![3u8; 32][..]);
}

#[test]
fn memget_cb_returns_data() {
    let mut rt = Runtime::builder(2, GasMode::Pgas).boot();
    let arr = rt.alloc(2, 12, Distribution::Cyclic);
    rt.memput(0, arr.block(1).with_offset(4), vec![0xEE; 8]);
    rt.run();
    let got = Rc::new(RefCell::new(Vec::new()));
    let g = got.clone();
    rt.memget_cb(0, arr.block(1).with_offset(4), 8, move |_, d| {
        *g.borrow_mut() = d
    });
    rt.run();
    assert_eq!(&*got.borrow(), &vec![0xEE; 8]);
}

#[test]
fn runtime_stats_accumulate() {
    let mut b = Runtime::builder(3, GasMode::AgasNetwork);
    let nop = b.register("nop", |_, _| {});
    let mut rt = b.boot();
    let arr = rt.alloc(3, 10, Distribution::Cyclic);
    for i in 0..30 {
        rt.spawn(0, arr.block(i % 3), nop, vec![], None);
    }
    rt.run();
    let stats = rt.eng.state.total_rt_stats();
    assert_eq!(stats.parcels_sent, 30);
    assert_eq!(stats.parcels_executed, 30);
}

#[test]
fn determinism_across_identical_runs() {
    let build_and_run = || {
        let mut b = Runtime::builder(4, GasMode::AgasNetwork);
        let bump = b.register("bump", |eng, ctx| {
            let phys = ctx.target_phys();
            eng.state.cluster.mem_mut(ctx.loc).xor_u64(phys, 7).unwrap();
        });
        let mut rt = b.seed(77).boot();
        let arr = rt.alloc(8, 12, Distribution::Cyclic);
        for i in 0..50u64 {
            rt.spawn((i % 4) as u32, arr.block(i % 8), bump, vec![], None);
            if i % 7 == 0 {
                rt.migrate(0, arr.block(i % 8), ((i / 7) % 4) as u32);
            }
        }
        rt.run();
        (rt.eng.trace_hash(), rt.now())
    };
    assert_eq!(build_and_run(), build_and_run());
}

#[test]
fn single_locality_cluster_works() {
    let mut b = Runtime::builder(1, GasMode::AgasNetwork);
    let nop = b.register("nop", |eng, ctx| parcel_rt::reply(eng, &ctx, vec![1]));
    let mut rt = b.boot();
    let arr = rt.alloc(2, 10, Distribution::Cyclic);
    let fut = rt.new_future(0);
    rt.spawn(0, arr.block(1), nop, vec![], Some(fut));
    let fired = Rc::new(Cell::new(false));
    let f = fired.clone();
    rt.wait_lco(fut, move |_, _| f.set(true));
    rt.run();
    assert!(fired.get());
}

#[test]
fn memcpy_moves_bytes_between_blocks() {
    for mode in GasMode::ALL {
        let mut rt = Runtime::builder(4, mode).boot();
        let arr = rt.alloc(4, 12, Distribution::Cyclic);
        rt.memput(0, arr.block(1).with_offset(32), vec![0xAB; 64]);
        rt.run();
        let fired = Rc::new(Cell::new(false));
        let f = fired.clone();
        rt.memcpy_cb(
            2,
            arr.block(1).with_offset(32),
            arr.block(3).with_offset(128),
            64,
            move |_, _| f.set(true),
        );
        rt.run();
        assert!(fired.get(), "{mode:?}");
        let dst = rt.read_block(arr.block(3));
        assert_eq!(&dst[128..192], &[0xAB; 64][..], "{mode:?}");
    }
}

#[test]
fn runtime_free_block_releases() {
    let mut rt = Runtime::builder(3, GasMode::AgasNetwork).boot();
    let arr = rt.alloc(3, 12, Distribution::Cyclic);
    let fired = Rc::new(Cell::new(false));
    let f = fired.clone();
    rt.free_block_cb(0, arr.block(2), move |_, _| f.set(true));
    rt.run();
    assert!(fired.get());
    assert!(!rt.eng.state.gas[2]
        .btt
        .is_resident(arr.block(2).block_key()));
}

/// `World::locate` finds a PGAS block at its home and `pgas` base, and
/// an AGAS block at the locality it migrated to; `write_block` and
/// `read_block` reach it there.
#[test]
fn locate_finds_home_and_migrated_blocks() {
    let mut rt = Runtime::builder(3, GasMode::Pgas).boot();
    let g = rt.alloc(3, 12, Distribution::Cyclic).block(1);
    let base = rt.eng.state.pgas[&g.block_key()];
    assert_eq!(rt.eng.state.locate(g), (1, base));

    for mode in [GasMode::AgasSoftware, GasMode::AgasNetwork] {
        let mut rt = Runtime::builder(3, mode).boot();
        let g = rt.alloc(3, 12, Distribution::Cyclic).block(1);
        rt.migrate(0, g, 2);
        rt.run();
        let (owner, base) = rt.eng.state.locate(g);
        assert_eq!(owner, 2, "{mode:?}");
        let entry = rt.eng.state.gas[2].btt.lookup(g.block_key()).unwrap();
        assert_eq!(base, entry.base, "{mode:?}");
        rt.write_block(g, 40, &[9; 8]);
        assert_eq!(rt.read_local(2, base + 40, 8), [9; 8], "{mode:?}");
        assert_eq!(rt.read_block(g)[40..48], [9; 8], "{mode:?}");
    }
}

/// Under PGAS a membership join re-homes a block's directory record, not
/// its data: from every other locality the block still routes to its
/// encoded home (the one PGAS arm `route` keeps), and at the home `route`,
/// `pin` and `World::locate` answer with the BTT's base and class.
#[test]
fn pgas_placement_survives_a_directory_rehome() {
    let mut rt = Runtime::builder(4, GasMode::Pgas).boot();
    membership::mark(&mut rt.eng, 3, MemberState::Joining);
    let arr = rt.alloc(8, 12, Distribution::Cyclic);
    membership::join(&mut rt.eng, 3, 0);
    rt.run();
    let w = &mut rt.eng.state;
    let g = *arr
        .blocks
        .iter()
        .find(|g| g.home() != 3 && w.gas[1].member.resolve(g.block_key(), g.home()) == 3)
        .expect("the join re-homed a directory record to the joiner");
    let home = g.home();
    assert!(w.gas[3].dir.lookup_opt(g.block_key()).is_some());
    for loc in (0..4).filter(|&l| l != home) {
        assert_eq!(route(w, loc, g), Route::Forward(home), "from {loc}");
        assert_eq!(pin(w, loc, g), None, "from {loc}");
    }
    let e = *w.gas[home as usize].btt.lookup(g.block_key()).unwrap();
    let (base, class) = (e.base, e.class);
    assert_eq!(route(w, home, g), Route::Local { base, class });
    assert_eq!(pin(w, home, g), Some((base, class)));
    unpin(&mut rt.eng, home, g);
    assert_eq!(rt.eng.state.locate(g), (home, base));
}

#[test]
fn range_ops_span_blocks() {
    for mode in GasMode::ALL {
        let mut rt = Runtime::builder(4, mode).boot();
        let arr = rt.alloc(8, 10, Distribution::Cyclic); // 1 KiB blocks
                                                         // 3000-byte pattern crossing three block boundaries.
        let data: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
        let fired = Rc::new(Cell::new(false));
        let f = fired.clone();
        rt.memput_range_cb(0, &arr, 500, &data, move |_, _| f.set(true));
        rt.run();
        assert!(fired.get(), "{mode:?}");
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        rt.memget_range_cb(2, &arr, 500, 3000, move |_, d| *g.borrow_mut() = d);
        rt.run();
        assert_eq!(&*got.borrow(), &data, "{mode:?}");
    }
}

#[test]
fn range_ops_single_block_degenerate() {
    let mut rt = Runtime::builder(2, GasMode::AgasNetwork).boot();
    let arr = rt.alloc(2, 12, Distribution::Cyclic);
    let fired = Rc::new(Cell::new(false));
    let f = fired.clone();
    rt.memput_range_cb(0, &arr, 4096 + 10, &[9u8; 100], move |_, _| f.set(true));
    rt.run();
    assert!(fired.get());
    let got = Rc::new(RefCell::new(Vec::new()));
    let g = got.clone();
    rt.memget_range_cb(0, &arr, 4096 + 10, 100, move |_, d| *g.borrow_mut() = d);
    rt.run();
    assert_eq!(&*got.borrow(), &vec![9u8; 100]);
}

#[test]
fn latency_histograms_populate() {
    let mut rt = Runtime::builder(2, GasMode::AgasNetwork).boot();
    let arr = rt.alloc(2, 12, Distribution::Cyclic);
    for i in 0..20u64 {
        rt.memput(0, arr.block(1).with_offset(i * 8), vec![1u8; 8]);
    }
    rt.run();
    rt.memget_cb(0, arr.block(1), 8, |_, _| {});
    rt.run();
    let g = &rt.eng.state.gas[0];
    assert_eq!(g.put_latency.count(), 20);
    assert_eq!(g.get_latency.count(), 1);
    // Remote 8 B puts on the FDR fabric land in the ~2-4 us band.
    let mean_ns = g.put_latency.mean();
    assert!((1_000.0..10_000.0).contains(&mean_ns), "mean {mean_ns} ns");
}

#[test]
fn action_profile_accounts_cpu() {
    let mut b = Runtime::builder(3, GasMode::AgasNetwork);
    let light = b.register("light", |_, _| {});
    let heavy = b.register("heavy", |eng, ctx| {
        let now = eng.now();
        let dur = netsim::Time::from_us(50);
        let (_, _f) = eng.state.cpus[ctx.loc as usize].admit(now, dur);
        eng.state.cluster.loc_mut(ctx.loc).counters.cpu_busy += dur;
    });
    let mut rt = b.boot();
    let arr = rt.alloc(3, 10, Distribution::Cyclic);
    for i in 0..12 {
        rt.spawn(0, arr.block(i % 3), light, vec![], None);
    }
    for i in 0..3 {
        rt.spawn(0, arr.block(i), heavy, vec![], None);
    }
    rt.run();
    let profile = rt.eng.state.action_profile();
    let get = |name: &str| profile.iter().find(|(n, _, _)| n == name).cloned();
    let (_, light_n, _) = get("light").expect("light profiled");
    let (_, heavy_n, _) = get("heavy").expect("heavy profiled");
    assert_eq!(light_n, 12);
    assert_eq!(heavy_n, 3);
    // Dispatch cost is profiled per execution (the heavy action's extra
    // CPU is charged inside the handler, visible in cluster counters).
    assert!(rt.counters().cpu_busy >= netsim::Time::from_us(150));
}

#[test]
#[should_panic(expected = "crosses a block boundary")]
fn memput_across_blocks_panics() {
    let mut rt = Runtime::builder(2, GasMode::Pgas).boot();
    let arr = rt.alloc(2, 10, Distribution::Cyclic);
    rt.memput(0, arr.block(0).with_offset(1000), vec![0u8; 100]);
}

#[test]
#[should_panic(expected = "migration requested under PGAS")]
fn migrate_under_pgas_panics() {
    let mut rt = Runtime::builder(2, GasMode::Pgas).boot();
    let arr = rt.alloc(2, 10, Distribution::Cyclic);
    rt.migrate(0, arr.block(0), 1);
}

#[test]
#[should_panic(expected = "set twice")]
fn future_double_set_panics() {
    let mut rt = Runtime::builder(1, GasMode::AgasNetwork).boot();
    let fut = rt.new_future(0);
    parcel_rt::lco_set(&mut rt.eng, 0, fut, vec![1]);
    parcel_rt::lco_set(&mut rt.eng, 0, fut, vec![2]);
    rt.run();
}

#[test]
fn cray_fabric_is_faster_for_small_puts() {
    let lat = |net: netsim::NetConfig| {
        let mut rt = Runtime::builder(2, GasMode::AgasNetwork).net(net).boot();
        let arr = rt.alloc(2, 12, Distribution::Cyclic);
        let t = Rc::new(Cell::new(netsim::Time::ZERO));
        let t2 = t.clone();
        rt.memput_cb(0, arr.block(1), vec![1u8; 8], move |eng, _| {
            t2.set(eng.now())
        });
        rt.run();
        t.get()
    };
    assert!(lat(netsim::NetConfig::cray_gemini()) < lat(netsim::NetConfig::ib_fdr()));
}

/// A run frozen at the first request a NIC holds parked behind a hand-off
/// (where `repro ops` freezes its dump) is not quiescent, and the
/// quiescence report names that request: its wire token, its initiator and
/// the address it targets. Run on, the cluster drains.
#[test]
fn quiescence_report_names_a_parked_request() {
    let net = netsim::NetConfig {
        jitter_ns: 300,
        ..netsim::NetConfig::ib_fdr()
    };
    let mut rt = Runtime::builder(4, GasMode::AgasNetwork).net(net).boot();
    let arr = rt.alloc(8, 13, Distribution::Cyclic);
    for i in 0..24u64 {
        let gva = arr.block(i % 8).with_offset((i / 8) * 128);
        rt.memput(((i + 1) % 4) as u32, gva, vec![i as u8 + 1; 128]);
    }
    rt.migrate(0, arr.block(2), 3);
    rt.migrate(1, arr.block(5), 0);
    let want = loop {
        let parked = (0..rt.n()).find_map(|l| {
            let (initiator, req) = rt.eng.state.cluster.loc(l).nic.parked.iter().next()?;
            let netsim::RdmaTarget::Virt { block, offset } = req.at() else {
                panic!("a NIC parks virtual requests only");
            };
            let gva = agas::Gva(block).with_offset(offset);
            Some(format!(
                "locality {l}: parked request {} from locality {initiator} gva={gva}",
                req.op
            ))
        });
        if let Some(line) = parked {
            break line;
        }
        assert!(rt.eng.step(), "the run never parked a request");
    };
    let report = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.assert_quiescent()))
        .expect_err("a parked request is in flight");
    let report = report.downcast_ref::<String>().expect("a formatted report");
    assert!(report.contains(&want), "{want:?} missing from:\n{report}");
    rt.run();
    rt.assert_quiescent();
}
