//! The experiment kernels (one per table/figure; see DESIGN.md §5).

use agas::{Distribution, GasMode};
use netsim::{NetConfig, Time};
use parcel_rt::Runtime;
use photon::PhotonConfig;
use std::cell::RefCell;
use std::rc::Rc;
use workloads::driver::IssueFn;
use workloads::gups::{self, GupsConfig};
use workloads::skew::{self, SkewConfig};
use workloads::stencil::{self, StencilConfig};

fn class_for(size: u32) -> u8 {
    let needed = size.max(4096);
    (u32::BITS - (needed - 1).leading_zeros()) as u8
}

/// E1 — one remote memput of `size` bytes: completion latency.
pub fn put_latency(mode: GasMode, size: u32, net: NetConfig) -> Time {
    let mut rt = Runtime::builder(2, mode).net(net).boot();
    let arr = rt.alloc(2, class_for(size), Distribution::Cyclic);
    let t_done = Rc::new(RefCell::new(Time::ZERO));
    let t2 = t_done.clone();
    let t0 = rt.now();
    rt.memput_cb(0, arr.block(1), vec![0u8; size as usize], move |eng, _| {
        *t2.borrow_mut() = eng.now();
    });
    rt.run();
    let done = *t_done.borrow();
    done - t0
}

/// E2 — one remote memget of `size` bytes: completion latency.
pub fn get_latency(mode: GasMode, size: u32, net: NetConfig) -> Time {
    let mut rt = Runtime::builder(2, mode).net(net).boot();
    let arr = rt.alloc(2, class_for(size), Distribution::Cyclic);
    let t_done = Rc::new(RefCell::new(Time::ZERO));
    let t2 = t_done.clone();
    let t0 = rt.now();
    rt.memget_cb(0, arr.block(1), size, move |eng, _| {
        *t2.borrow_mut() = eng.now();
    });
    rt.run();
    let done = *t_done.borrow();
    done - t0
}

/// E3 — pipelined puts of `size` bytes (window 16, 64 transfers):
/// achieved bandwidth in GB/s (decimal).
pub fn put_bandwidth(mode: GasMode, size: u32, net: NetConfig) -> f64 {
    let count = 64u64;
    let window = 16usize;
    let mut rt = Runtime::builder(2, mode).net(net).boot();
    // Enough distinct blocks to spread offsets (single target locality).
    let arr = rt.alloc(count, class_for(size), Distribution::Single(1));
    let blocks = arr.blocks.clone();
    let t0 = rt.now();
    let issue: Rc<IssueFn> = Rc::new(move |eng, loc, seq, ctx| {
        agas::ops::memput(
            eng,
            loc,
            blocks[seq as usize],
            vec![0u8; size as usize],
            ctx,
        );
    });
    workloads::driver::pump(&mut rt.eng, 0, count, window, issue, |_| {});
    rt.run();
    let elapsed = rt.now() - t0;
    (count * size as u64) as f64 / elapsed.as_secs_f64() / 1e9
}

/// E4 — 8-byte puts, `window` outstanding, 2048 ops: million ops/s.
pub fn message_rate(mode: GasMode, window: usize, net: NetConfig) -> f64 {
    let count = 2048u64;
    let mut rt = Runtime::builder(2, mode).net(net).boot();
    let arr = rt.alloc(8, 16, Distribution::Single(1));
    let blocks = arr.blocks.clone();
    let t0 = rt.now();
    let issue: Rc<IssueFn> = Rc::new(move |eng, loc, seq, ctx| {
        let b = blocks[(seq % 8) as usize].with_offset((seq / 8 % 1024) * 8);
        agas::ops::memput(eng, loc, b, vec![0u8; 8], ctx);
    });
    workloads::driver::pump(&mut rt.eng, 0, count, window, issue, |_| {});
    rt.run();
    let elapsed = rt.now() - t0;
    count as f64 / elapsed.as_secs_f64() / 1e6
}

/// One row of E5 — GUPS weak scaling.
#[derive(Clone, Copy, Debug)]
pub struct GupsRow {
    /// Localities.
    pub n: usize,
    /// Aggregate million updates per second.
    pub mups: f64,
    /// Mean update latency.
    pub mean_latency: Time,
    /// Target-CPU seconds consumed per million updates.
    pub cpu_per_mupdate: f64,
}

/// E5 — GUPS at `n` localities under `mode`.
pub fn gups_scaling(mode: GasMode, n: usize, net: NetConfig) -> GupsRow {
    let cfg = GupsConfig {
        cells_per_loc: 1 << 13,
        updates_per_loc: 1 << 10,
        window: 16,
        ..GupsConfig::default()
    };
    let mut rt = Runtime::builder(n, mode).net(net).boot();
    let table = gups::alloc_table(&mut rt, &cfg);
    let res = gups::run(&mut rt, &cfg, &table);
    let cpu = rt.counters().cpu_busy;
    GupsRow {
        n,
        mups: res.gups * 1e3,
        mean_latency: res.mean_latency,
        cpu_per_mupdate: cpu.as_secs_f64() / (res.updates as f64 / 1e6),
    }
}

/// One row of E6 — NIC translation-table capacity sensitivity.
#[derive(Clone, Copy, Debug)]
pub struct CapacityRow {
    /// Table capacity in entries (`usize::MAX` = unbounded, 0 = no table).
    pub capacity: usize,
    /// Aggregate MUPS.
    pub mups: f64,
    /// NIC-table hit fraction (`None`: the NIC looked nothing up).
    pub hit_rate: Option<f64>,
    /// Operations that fell back to the software path.
    pub sw_fallbacks: u64,
}

/// E6 — GUPS (8 localities) under `mode` with a capacity-limited NIC
/// translation table. Under AGAS-NET, capacity 0 is no table: AGAS-SW.
pub fn table_capacity(mode: GasMode, capacity: usize) -> CapacityRow {
    let net = NetConfig {
        xlate_capacity: capacity,
        ..NetConfig::ib_fdr()
    };
    // 32 KiB-cells per locality over 8 KiB blocks = 32 resident blocks per
    // NIC: capacities below that force eviction traffic.
    let cfg = GupsConfig {
        cells_per_loc: 1 << 15,
        updates_per_loc: 1 << 10,
        window: 16,
        block_class: 13,
        ..GupsConfig::default()
    };
    let mut rt = Runtime::builder(8, mode).net(net).boot();
    let table = gups::alloc_table(&mut rt, &cfg);
    let res = gups::run(&mut rt, &cfg, &table);
    let c = rt.counters();
    let lookups = c.xlate_hits + c.xlate_misses;
    CapacityRow {
        capacity,
        mups: res.gups * 1e3,
        hit_rate: (lookups > 0).then(|| c.xlate_hits as f64 / lookups as f64),
        sw_fallbacks: rt.eng.state.total_gas_stats().sw_fallbacks,
    }
}

/// E7 — migrate one block of `1 << class` bytes (quiet cluster):
/// request-to-commit latency.
pub fn migration_cost(mode: GasMode, class: u8, net: NetConfig) -> Time {
    let mut rt = Runtime::builder(4, mode).net(net).boot();
    let arr = rt.alloc(1, class, Distribution::Single(1));
    let t_done = Rc::new(RefCell::new(Time::ZERO));
    let t2 = t_done.clone();
    let t0 = rt.now();
    rt.migrate_cb(0, arr.block(0), 2, move |eng, _| {
        *t2.borrow_mut() = eng.now();
    });
    rt.run();
    let done = *t_done.borrow();
    done - t0
}

/// Result of A3: what a stale initiator pays after a block moved.
#[derive(Clone, Copy, Debug)]
pub struct RaceRow {
    /// Latency of one put issued with a stale owner hint.
    pub stale_put_latency: Time,
    /// Fresh-hint put latency, for reference.
    pub fresh_put_latency: Time,
    /// NIC forwards taken by the stale put.
    pub forwards: u64,
    /// NACKs the stale put triggered.
    pub nacks: u64,
    /// Initiator retry cycles.
    pub retries: u64,
    /// Owner hints the stale put's completion taught the initiator (a
    /// forwarded ack names the new owner; a NACK teaches nothing).
    pub hints_learned: u64,
    /// Times the stale put waited at the new owner's NIC for the block to
    /// land (0 here: A3 issues it after the hand-off has finished).
    pub parked: u64,
}

/// A3 — the cost of a *stale* one-sided access after migration: with NIC
/// forwarding (`forward_ttl > 0`) the old owner's tombstone redirects it in
/// hardware (one extra hop); with NACK-only (`forward_ttl` 0) the initiator
/// must re-resolve through the home.
pub fn migration_race(forward_ttl: u8) -> RaceRow {
    let net = NetConfig {
        forward_ttl,
        ..NetConfig::ib_fdr()
    };
    let mut rt = Runtime::builder(4, GasMode::AgasNetwork).net(net).boot();
    let arr = rt.alloc(2, 16, Distribution::Cyclic);
    let gva = arr.block(1);
    // Warm locality 0's owner hint, then move the block behind its back.
    rt.memput(0, gva, vec![0u8; 8]);
    rt.run();
    rt.migrate(1, gva, 3);
    rt.run();
    let c0 = rt.counters();
    let g0 = rt.eng.state.total_gas_stats();
    // The stale put: locality 0 still believes the old owner.
    let t_done = Rc::new(RefCell::new(Time::ZERO));
    let t2 = t_done.clone();
    let t0 = rt.now();
    rt.memput_cb(0, gva.with_offset(64), vec![1u8; 64], move |eng, _| {
        *t2.borrow_mut() = eng.now();
    });
    rt.run();
    let stale = *t_done.borrow() - t0;
    let c1 = rt.counters();
    let g1 = rt.eng.state.total_gas_stats();
    // A fresh put for reference: the hint is corrected by now, by the
    // forwarded completion or by the directory reply.
    let t_done2 = Rc::new(RefCell::new(Time::ZERO));
    let t3 = t_done2.clone();
    let t1 = rt.now();
    rt.memput_cb(0, gva.with_offset(128), vec![1u8; 64], move |eng, _| {
        *t3.borrow_mut() = eng.now();
    });
    rt.run();
    let fresh = *t_done2.borrow() - t1;
    RaceRow {
        stale_put_latency: stale,
        fresh_put_latency: fresh,
        forwards: c1.xlate_forwards - c0.xlate_forwards,
        nacks: c1.nacks_sent - c0.nacks_sent,
        retries: g1.retries - g0.retries,
        hints_learned: g1.hints_learned - g0.hints_learned,
        parked: c1.xlate_parked - c0.xlate_parked,
    }
}

/// What the balancer and the NICs did under [`migration_churn`].
#[derive(Clone, Copy, Debug)]
pub struct ChurnRow {
    /// Gets completed.
    pub ops: u64,
    /// Blocks the balancer moved.
    pub migrations: u64,
    /// Moves it refused (a move that cannot lower the maximum only
    /// relocates it).
    pub refused: u64,
    /// Accesses that reached a migrated block through a NIC forward.
    pub xlate_forwards: u64,
    /// Forwarded completions that taught the initiator the new owner.
    pub hints_learned: u64,
    /// Forwards that outran a hand-off and parked at the new owner's NIC.
    pub parked: u64,
    /// NACKs left for the retry ladder.
    pub nacks: u64,
}

/// Migration churn: the balancer moves hot blocks while every locality
/// hammers its own favourite, so initiators bounce, query the directory,
/// and then re-translate the same block back to back — the owner-cache
/// one-entry memo's target shape. The runtime drops before this returns,
/// so its batched memo hits have reached `netsim::telemetry`.
pub fn migration_churn() -> ChurnRow {
    let mut rt = Runtime::builder(4, GasMode::AgasNetwork).seed(17).boot();
    let data = rt.alloc(16, 13, Distribution::Blocked);
    rt.start_balancer(parcel_rt::BalancerConfig {
        period: Time::from_us(100),
        moves_per_round: 2,
        min_heat: 4,
        ..parcel_rt::BalancerConfig::default()
    });
    let blocks = data.blocks.clone();
    let issue: Rc<IssueFn> = Rc::new(move |eng, loc, _seq, ctx| {
        // Each locality chases one hot block (all start on loc 0).
        agas::ops::memget(eng, loc, blocks[(loc % 4) as usize], 512, ctx);
    });
    let n = rt.n();
    workloads::driver::pump_all(&mut rt.eng, n, 800, 8, issue, |_| {});
    rt.run();
    let gas = rt.eng.state.total_gas_stats();
    let net = rt.counters();
    let bal = rt.eng.state.balancer_stats;
    ChurnRow {
        ops: gas.gets,
        migrations: bal.migrations,
        refused: bal.refused,
        xlate_forwards: net.xlate_forwards,
        hints_learned: gas.hints_learned,
        parked: net.xlate_parked,
        nacks: net.nacks_sent,
    }
}

/// E8 — one row of the skewed-access/rebalancing table.
pub fn skew_row(mode: GasMode, rebalance: bool, n: usize) -> skew::SkewResult {
    let cfg = SkewConfig {
        blocks: 64,
        read_bytes: 4096,
        ops_per_loc: 1 << 10,
        window: 16,
        theta: 1.05,
        rebalance_every: if rebalance { 512 } else { 0 },
        moves_per_round: 4,
        ..SkewConfig::default()
    };
    let mut rt = Runtime::builder(n, mode).boot();
    let data = skew::alloc_blocks(&mut rt, &cfg);
    skew::run(&mut rt, &cfg, &data)
}

/// E9 — one row of the stencil (application proxy) table.
pub fn stencil_row(mode: GasMode, n: usize, net: NetConfig) -> stencil::StencilResult {
    let cfg = StencilConfig {
        grid: vec![8, 8],
        tile: 32,
        iters: 4,
        flop_time: Time::from_us(40),
    };
    run_stencil(mode, n, net, &cfg)
}

/// E9b — the stencil on a 3-D (LULESH-class) tile grid: per-iteration time.
pub fn stencil3d_row(mode: GasMode, n: usize) -> stencil::StencilResult {
    let cfg = StencilConfig {
        grid: vec![4, 2, 2],
        tile: 16,
        iters: 3,
        flop_time: Time::from_us(60),
    };
    run_stencil(mode, n, NetConfig::ib_fdr(), &cfg)
}

fn run_stencil(
    mode: GasMode,
    n: usize,
    net: NetConfig,
    cfg: &StencilConfig,
) -> stencil::StencilResult {
    let mut b = Runtime::builder(n, mode).net(net);
    stencil::register_actions(&mut b);
    let mut rt = b.boot();
    let tiles = stencil::alloc_tiles(&mut rt, cfg);
    stencil::run(&mut rt, cfg, &tiles)
}

/// E10 — protocol footprint of one remote operation.
#[derive(Clone, Copy, Debug)]
pub struct FootprintRow {
    /// RDMA operations initiated.
    pub rdma_ops: u64,
    /// Two-sided messages sent.
    pub messages: u64,
    /// Control messages (acks/handshakes).
    pub ctrl: u64,
    /// Target-CPU handler executions.
    pub cpu_handlers: u64,
    /// NIC translations performed.
    pub nic_xlates: u64,
}

/// E10 — counters consumed by a single remote memput (`put=true`) or
/// memget of 256 B.
pub fn protocol_footprint(mode: GasMode, put: bool) -> FootprintRow {
    let mut rt = Runtime::builder(2, mode).boot();
    let arr = rt.alloc(2, 12, Distribution::Cyclic);
    let before = rt.counters();
    if put {
        rt.memput(0, arr.block(1), vec![1u8; 256]);
    } else {
        rt.memget_cb(0, arr.block(1), 256, |_, _| {});
    }
    rt.run();
    let after = rt.counters();
    FootprintRow {
        rdma_ops: after.rdma_puts + after.rdma_gets - before.rdma_puts - before.rdma_gets,
        messages: after.msgs_sent - before.msgs_sent,
        ctrl: after.ctrl_sent - before.ctrl_sent,
        cpu_handlers: after.sw_handler_runs - before.sw_handler_runs,
        nic_xlates: after.xlate_hits - before.xlate_hits,
    }
}

/// A1 — eight 1 MiB rendezvous sends from one registered buffer, with a
/// registration cache of `rcache_pages` pages (0 = no cache): total
/// completion time.
pub fn rcache_ablation(rcache_pages: usize) -> Time {
    let pcfg = PhotonConfig {
        rcache_pages,
        ..PhotonConfig::default()
    };
    let mut rt = Runtime::builder(2, GasMode::AgasNetwork)
        .photon(pcfg)
        .boot();
    // A 2 MiB registered source buffer in locality 0's arena.
    let src = rt.eng.state.cluster.mem_mut(0).alloc_block(21).unwrap();
    let t0 = rt.now();
    for round in 0..8u64 {
        photon::post_recv(&mut rt.eng, 1, round);
        photon::send(
            &mut rt.eng,
            0,
            1,
            round,
            vec![0u8; 1 << 20],
            Some((src, 1 << 20)),
        );
        rt.run();
    }
    rt.now() - t0
}

/// A2 — two-sided message latency of `size` bytes under a given eager
/// threshold (the eager↔rendezvous crossover).
pub fn eager_threshold_latency(threshold: u32, size: u32) -> Time {
    let pcfg = PhotonConfig {
        eager_threshold: threshold,
        ..PhotonConfig::default()
    };
    let mut rt = Runtime::builder(2, GasMode::AgasNetwork)
        .photon(pcfg)
        .boot();
    photon::post_recv(&mut rt.eng, 1, 9);
    let t0 = rt.now();
    photon::send(&mut rt.eng, 0, 1, 9, vec![0u8; size as usize], None);
    rt.run();
    rt.now() - t0
}

/// E11 — parcel round-trip (spawn → action → continuation) latency under a
/// given network backend and payload size.
pub fn parcel_latency(transport: parcel_rt::Transport, payload: u32) -> Time {
    let mut b = Runtime::builder(2, GasMode::AgasNetwork);
    let nop = b.register("nop", |eng, ctx| parcel_rt::reply(eng, &ctx, vec![]));
    let mut rt = b
        .rt_config(parcel_rt::RtConfig {
            transport,
            ..parcel_rt::RtConfig::default()
        })
        .boot();
    let arr = rt.alloc(2, 12, Distribution::Cyclic);
    let fut = rt.new_future(0);
    let t0 = rt.now();
    rt.spawn(0, arr.block(1), nop, vec![0u8; payload as usize], Some(fut));
    let done = Rc::new(RefCell::new(Time::ZERO));
    let d2 = done.clone();
    rt.wait_lco(fut, move |eng, _| *d2.borrow_mut() = eng.now());
    rt.run();
    let t = *done.borrow();
    t - t0
}

/// E11 — sustained parcel rate (million parcels/s) under a backend.
pub fn parcel_rate(transport: parcel_rt::Transport) -> f64 {
    let count = 2048u64;
    let mut b = Runtime::builder(2, GasMode::AgasNetwork);
    let nop = b.register("nop", |_, _| {});
    let mut rt = b
        .rt_config(parcel_rt::RtConfig {
            transport,
            ..parcel_rt::RtConfig::default()
        })
        .boot();
    let arr = rt.alloc(2, 12, Distribution::Cyclic);
    let t0 = rt.now();
    for _ in 0..count {
        rt.spawn(0, arr.block(1), nop, vec![0u8; 32], None);
    }
    rt.run();
    let elapsed = rt.now() - t0;
    count as f64 / elapsed.as_secs_f64() / 1e6
}

/// E12 — aggregate bandwidth of 4 disjoint pairwise streams (8 localities)
/// under a fabric oversubscription factor.
pub fn bisection_bandwidth(oversubscription: u64) -> f64 {
    let net = NetConfig {
        oversubscription,
        ..NetConfig::ib_fdr()
    };
    let size = 65_536u32;
    let count = 32u64;
    let mut rt = Runtime::builder(8, GasMode::Pgas).net(net).boot();
    let arr = rt.alloc(8 * count, class_for(size), Distribution::Cyclic);
    let blocks = arr.blocks.clone();
    let t0 = rt.now();
    let issue: Rc<IssueFn> = Rc::new(move |eng, loc, seq, ctx| {
        // Locality i streams to its partner i+4's blocks.
        let partner = (loc + 4) % 8;
        let b = blocks[(seq * 8 + partner as u64) as usize];
        agas::ops::memput(eng, loc, b, vec![0u8; size as usize], ctx);
    });
    for loc in 0..4u32 {
        workloads::driver::pump(&mut rt.eng, loc, count, 8, issue.clone(), |_| {});
    }
    rt.run();
    let elapsed = rt.now() - t0;
    (4 * count * size as u64) as f64 / elapsed.as_secs_f64() / 1e9
}

/// E13 — message-driven BFS: traversal rate vs localities and transport.
/// The 4 096 labels fill 64 blocks of 512 B, so every locality count in
/// the sweep (up to 32) homes labels to relax.
pub fn bfs_teps(n: usize, transport: parcel_rt::Transport) -> f64 {
    use workloads::bfs::{self, BfsConfig};
    let cfg = BfsConfig {
        vertices: 4096,
        chords: 3,
        block_class: 9,
        root: 0,
        seed: 2016,
    };
    let slot = std::rc::Rc::new(RefCell::new(None));
    let mut b = Runtime::builder(n, GasMode::AgasNetwork);
    bfs::register_actions(&mut b, slot.clone());
    let mut rt = b
        .rt_config(parcel_rt::RtConfig {
            transport,
            ..parcel_rt::RtConfig::default()
        })
        .boot();
    bfs::install(&mut rt, &cfg, &slot);
    let res = bfs::run(&mut rt, &cfg, &slot);
    res.teps
}

/// One row of E14 — parcel coalescing on/off for a parcel-heavy workload.
#[derive(Clone, Copy, Debug)]
pub struct CoalesceRow {
    /// Simulated completion time.
    pub elapsed: Time,
    /// Wire messages sent.
    pub messages: u64,
    /// Batches sent (0 when coalescing is off).
    pub batches: u64,
    /// LCO sets dropped because their LCO had already retired (0 on a
    /// fault-free run).
    pub stale_lco_sets: u64,
}

impl CoalesceRow {
    fn of(rt: &Runtime, elapsed: Time) -> CoalesceRow {
        let stats = rt.eng.state.total_rt_stats();
        CoalesceRow {
            elapsed,
            messages: rt.counters().msgs_sent,
            batches: stats.batches_sent,
            stale_lco_sets: stats.stale_lco_sets,
        }
    }
}

/// E14c — a parcel *flood*: every locality instantly spawns `k` small
/// fire-and-forget parcels round-robin at the others (a BFS-frontier-style
/// burst). Injection rate, not latency, binds — coalescing's home turf.
pub fn parcel_flood(coalesce: bool, k: u64) -> CoalesceRow {
    let n = 8usize;
    let mut b = Runtime::builder(n, GasMode::AgasNetwork);
    let sink = b.register("sink", |_, _| {});
    // Run on the commodity fabric, whose 300 ns per-message injection gap
    // is what aggregation amortizes (on IB the flood is CPU-bound and
    // coalescing only cuts the message count).
    let mut rt = b
        .net(NetConfig::ethernet_10g())
        .rt_config(parcel_rt::RtConfig {
            ring: coalesce.then(netsim::RingConfig::default),
            ..parcel_rt::RtConfig::default()
        })
        .boot();
    let arr = rt.alloc(n as u64 * 4, 12, Distribution::Cyclic);
    let t0 = rt.now();
    for loc in 0..n as u32 {
        for i in 0..k {
            let block = arr.block((i * 4 + loc as u64 * 7 + 1) % (n as u64 * 4));
            rt.spawn(loc, block, sink, vec![0u8; 24], None);
        }
    }
    rt.run();
    CoalesceRow::of(&rt, rt.now() - t0)
}

/// E14 — message-driven BFS with and without parcel coalescing.
pub fn bfs_coalescing(coalesce: bool) -> CoalesceRow {
    use workloads::bfs::{self, BfsConfig};
    let cfg = BfsConfig {
        vertices: 4096,
        chords: 3,
        block_class: 12,
        root: 0,
        seed: 2016,
    };
    let slot = std::rc::Rc::new(RefCell::new(None));
    let mut b = Runtime::builder(8, GasMode::AgasNetwork);
    bfs::register_actions(&mut b, slot.clone());
    let mut rt = b
        .rt_config(parcel_rt::RtConfig {
            ring: coalesce.then(netsim::RingConfig::default),
            ..parcel_rt::RtConfig::default()
        })
        .boot();
    bfs::install(&mut rt, &cfg, &slot);
    let res = bfs::run(&mut rt, &cfg, &slot);
    CoalesceRow::of(&rt, res.elapsed)
}

/// E14b — GUPS (action variant) with and without parcel coalescing, on a
/// chosen fabric (coalescing pays where per-message overhead binds).
pub fn gups_coalescing_on(coalesce: bool, net: NetConfig) -> CoalesceRow {
    let cfg = GupsConfig {
        cells_per_loc: 1 << 12,
        updates_per_loc: 1 << 10,
        window: 32,
        use_actions: true,
        ..GupsConfig::default()
    };
    let mut b = Runtime::builder(8, GasMode::AgasNetwork);
    gups::register_actions(&mut b);
    let mut rt = b
        .net(net)
        .rt_config(parcel_rt::RtConfig {
            ring: coalesce.then(|| netsim::RingConfig {
                doorbell_delay: Time::from_us(2),
                ..netsim::RingConfig::default()
            }),
            ..parcel_rt::RtConfig::default()
        })
        .boot();
    let table = gups::alloc_table(&mut rt, &cfg);
    let res = gups::run(&mut rt, &cfg, &table);
    CoalesceRow::of(&rt, res.elapsed)
}

/// E1b — latency *distribution* under load: mean and p99 of 8-byte puts
/// issued while GUPS background traffic saturates the same target.
pub fn loaded_latency(mode: GasMode) -> (Time, Time) {
    let cfg = GupsConfig {
        cells_per_loc: 1 << 12,
        updates_per_loc: 1 << 10,
        window: 24,
        ..GupsConfig::default()
    };
    let mut rt = Runtime::builder(4, mode).boot();
    let table = gups::alloc_table(&mut rt, &cfg);
    let _ = gups::run(&mut rt, &cfg, &table);
    // The histograms collected every initiator-side put during the run.
    let mut hist = netsim::LogHistogram::new();
    for g in &rt.eng.state.gas {
        hist.merge(&g.put_latency);
    }
    let mean = Time::from_ns(hist.mean() as u64);
    let p99 = Time::from_ns(hist.quantile(0.99).unwrap_or(0));
    (mean, p99)
}

/// E15 — all-to-all transpose: aggregate bandwidth per mode and fabric
/// oversubscription factor.
pub fn transpose_bandwidth(mode: GasMode, oversubscription: u64) -> f64 {
    use workloads::transpose::{self, TransposeConfig};
    let net = NetConfig {
        oversubscription,
        ..NetConfig::ib_fdr()
    };
    let mut rt = Runtime::builder(8, mode).net(net).boot();
    let cfg = TransposeConfig {
        block_class: 14,
        rounds: 1,
    };
    let arrays = transpose::setup(&mut rt, &cfg);
    let res = transpose::run(&mut rt, &cfg, &arrays);
    transpose::verify(&rt, &cfg, &arrays);
    res.aggregate_gbps
}

/// E4b — message-rate ceiling vs NIC queue pairs (network-managed mode,
/// window 128): the hardware-parallelism knob.
pub fn message_rate_ports(ports: usize) -> f64 {
    let net = NetConfig {
        nic_ports: ports,
        ..NetConfig::ib_fdr()
    };
    message_rate(GasMode::AgasNetwork, 128, net)
}

/// E10b — protocol footprint of one block migration (messages, directory
/// updates, CPU handler work at the endpoints).
#[derive(Clone, Copy, Debug)]
pub struct MigrationFootprint {
    /// Two-sided messages.
    pub messages: u64,
    /// Directory lookups+updates at the home.
    pub dir_ops: u64,
    /// Blocks moved (sanity: 1).
    pub moves: u64,
}

/// E10b — counters consumed by one quiet-cluster migration.
pub fn migration_footprint(mode: GasMode) -> MigrationFootprint {
    let mut rt = Runtime::builder(4, mode).boot();
    let arr = rt.alloc(1, 12, Distribution::Single(1));
    let before = rt.counters();
    rt.migrate(0, arr.block(0), 2);
    rt.run();
    let after = rt.counters();
    MigrationFootprint {
        messages: after.msgs_sent - before.msgs_sent,
        dir_ops: after.dir_lookups - before.dir_lookups,
        moves: after.migrations_in - before.migrations_in,
    }
}

/// Common size sweep used by E1/E2/E3.
pub const SIZES: [u32; 8] = [8, 64, 512, 4096, 16384, 65536, 262144, 1048576];

/// Window sweep used by E4.
pub const WINDOWS: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// Locality sweep used by E5.
pub const SCALES: [usize; 6] = [2, 4, 8, 16, 32, 64];

/// Capacity sweep used by E6 (32 blocks resident per NIC at the E6 size).
pub const CAPACITIES: [usize; 7] = [usize::MAX, 64, 32, 16, 8, 4, 0];

/// Block-size-class sweep used by E7 (4 KiB – 4 MiB).
pub const MIG_CLASSES: [u8; 6] = [12, 14, 16, 18, 20, 22];
