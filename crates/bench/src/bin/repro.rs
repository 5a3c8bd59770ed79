//! `repro` — regenerate every table and figure of the reconstructed
//! evaluation (DESIGN.md §5).
//!
//! ```sh
//! cargo run --release -p bench --bin repro -- all     # everything
//! cargo run --release -p bench --bin repro -- e1      # one experiment
//! cargo run --release -p bench --bin repro -- perf    # engine throughput
//! cargo run --release -p bench --bin repro -- chaos   # fault-injection matrix
//! cargo run --release -p bench --bin repro -- amo     # NIC active-op A/B series
//! cargo run --release -p bench --bin repro -- --json all
//! ```
//!
//! All numbers are **simulated time** on the deterministic model: rerunning
//! any experiment reproduces it bit-for-bit. Parameter sweeps run their
//! (independent) simulations in parallel with rayon.
//!
//! With `--json`, every experiment additionally emits one machine-readable
//! summary row per run as a JSON line (the only stdout lines starting with
//! `{`): experiment id, series, simulated time swept, wall-clock seconds,
//! events executed, events/second, and the translation fast-path counters
//! (`xlate_lookups`, `xlate_probes`, `memo_hits` — see EXPERIMENTS.md).
//! `perf` measures the engine's wall-clock event throughput on hot-path
//! workloads and reports the same rows; its `gups_agas_net` series drives
//! the NIC translation table and owner caches hard enough that the
//! translation counters are meaningfully nonzero.

use agas::GasMode;
use bench::*;
use netsim::{telemetry, NetConfig, Time};
use rayon::prelude::*;
use std::time::Instant;

fn header(id: &str, title: &str) {
    println!();
    println!("== {id}: {title}");
}

fn fmt_cap(c: usize) -> String {
    if c == usize::MAX {
        "unbounded".into()
    } else {
        c.to_string()
    }
}

fn e1() {
    header("E1", "memput latency vs transfer size (Fig.)");
    println!(
        "{:>9} {:>12} {:>12} {:>12} {:>10}",
        "size", "PGAS", "AGAS-SW", "AGAS-NET", "NET/PGAS"
    );
    let rows: Vec<_> = SIZES
        .par_iter()
        .map(|&size| {
            let net = NetConfig::ib_fdr();
            let p = put_latency(GasMode::Pgas, size, net);
            let s = put_latency(GasMode::AgasSoftware, size, net);
            let n = put_latency(GasMode::AgasNetwork, size, net);
            (size, p, s, n)
        })
        .collect();
    for (size, p, s, n) in rows {
        println!(
            "{:>9} {:>12} {:>12} {:>12} {:>9.3}x",
            size,
            format!("{p}"),
            format!("{s}"),
            format!("{n}"),
            n.ps() as f64 / p.ps() as f64
        );
    }
}

fn e1b() {
    header("E1b", "put latency under load: mean / p99 (Fig. inset)");
    println!("{:<10} {:>12} {:>12}", "mode", "mean", "p99");
    let rows: Vec<_> = GasMode::ALL
        .par_iter()
        .map(|&m| (m, loaded_latency(m)))
        .collect();
    for (m, (mean, p99)) in rows {
        println!(
            "{:<10} {:>12} {:>12}",
            m.label(),
            format!("{mean}"),
            format!("{p99}")
        );
    }
}

fn e2() {
    header("E2", "memget latency vs transfer size (Fig.)");
    println!(
        "{:>9} {:>12} {:>12} {:>12} {:>10}",
        "size", "PGAS", "AGAS-SW", "AGAS-NET", "NET/PGAS"
    );
    let rows: Vec<_> = SIZES
        .par_iter()
        .map(|&size| {
            let net = NetConfig::ib_fdr();
            let p = get_latency(GasMode::Pgas, size, net);
            let s = get_latency(GasMode::AgasSoftware, size, net);
            let n = get_latency(GasMode::AgasNetwork, size, net);
            (size, p, s, n)
        })
        .collect();
    for (size, p, s, n) in rows {
        println!(
            "{:>9} {:>12} {:>12} {:>12} {:>9.3}x",
            size,
            format!("{p}"),
            format!("{s}"),
            format!("{n}"),
            n.ps() as f64 / p.ps() as f64
        );
    }
}

fn e3() {
    header("E3", "put bandwidth vs transfer size, window 16 (Fig.)");
    println!(
        "{:>9} {:>12} {:>12} {:>12}",
        "size", "PGAS GB/s", "SW GB/s", "NET GB/s"
    );
    let rows: Vec<_> = SIZES
        .par_iter()
        .map(|&size| {
            let net = NetConfig::ib_fdr();
            (
                size,
                put_bandwidth(GasMode::Pgas, size, net),
                put_bandwidth(GasMode::AgasSoftware, size, net),
                put_bandwidth(GasMode::AgasNetwork, size, net),
            )
        })
        .collect();
    for (size, p, s, n) in rows {
        println!("{size:>9} {p:>12.3} {s:>12.3} {n:>12.3}");
    }
}

fn e4() {
    header("E4", "8-byte put message rate vs outstanding window (Fig.)");
    println!(
        "{:>8} {:>12} {:>12} {:>12}",
        "window", "PGAS Mop/s", "SW Mop/s", "NET Mop/s"
    );
    let rows: Vec<_> = WINDOWS
        .par_iter()
        .map(|&w| {
            let net = NetConfig::ib_fdr();
            (
                w,
                message_rate(GasMode::Pgas, w, net),
                message_rate(GasMode::AgasSoftware, w, net),
                message_rate(GasMode::AgasNetwork, w, net),
            )
        })
        .collect();
    for (w, p, s, n) in rows {
        println!("{w:>8} {p:>12.3} {s:>12.3} {n:>12.3}");
    }
}

fn e4b() {
    header(
        "E4b",
        "message-rate ceiling vs NIC queue pairs (AGAS-NET, window 128)",
    );
    println!("{:>7} {:>12}", "ports", "Mop/s");
    let rows: Vec<_> = [1usize, 2, 4, 8]
        .par_iter()
        .map(|&p| (p, message_rate_ports(p)))
        .collect();
    for (p, rate) in rows {
        println!("{p:>7} {rate:>12.3}");
    }
}

fn e5() {
    header("E5", "GUPS weak scaling (Fig.)");
    println!(
        "{:>6} {:>11} {:>11} {:>11} {:>16}",
        "locs", "PGAS MUPS", "SW MUPS", "NET MUPS", "SW cpu-s/Mupd"
    );
    let rows: Vec<_> = SCALES
        .par_iter()
        .map(|&n| {
            let net = NetConfig::ib_fdr();
            (
                n,
                gups_scaling(GasMode::Pgas, n, net),
                gups_scaling(GasMode::AgasSoftware, n, net),
                gups_scaling(GasMode::AgasNetwork, n, net),
            )
        })
        .collect();
    for (n, p, s, t) in rows {
        println!(
            "{:>6} {:>11.2} {:>11.2} {:>11.2} {:>16.3}",
            n, p.mups, s.mups, t.mups, s.cpu_per_mupdate
        );
    }
}

fn e6() {
    header("E6", "NIC translation-table capacity sensitivity (Fig.)");
    println!(
        "{:>11} {:>10} {:>10} {:>13}",
        "capacity", "MUPS", "hit rate", "sw fallbacks"
    );
    let rows: Vec<_> = CAPACITIES.par_iter().map(|&c| table_capacity(c)).collect();
    for r in rows {
        println!(
            "{:>11} {:>10.2} {:>9.1}% {:>13}",
            fmt_cap(r.capacity),
            r.mups,
            r.hit_rate * 100.0,
            r.sw_fallbacks
        );
    }
    let sw = gups_scaling(GasMode::AgasSoftware, 8, NetConfig::ib_fdr());
    println!(
        "{:>11} {:>10.2}   (software-AGAS floor)",
        "AGAS-SW", sw.mups
    );
}

fn e7() {
    header("E7", "block migration cost vs block size (Tab.)");
    println!("{:>10} {:>12} {:>12}", "block", "AGAS-SW", "AGAS-NET");
    let rows: Vec<_> = MIG_CLASSES
        .par_iter()
        .map(|&class| {
            let net = NetConfig::ib_fdr();
            (
                class,
                migration_cost(GasMode::AgasSoftware, class, net),
                migration_cost(GasMode::AgasNetwork, class, net),
            )
        })
        .collect();
    for (class, sw, net) in rows {
        println!(
            "{:>10} {:>12} {:>12}",
            format!("{} KiB", (1u64 << class) / 1024),
            format!("{sw}"),
            format!("{net}")
        );
    }
}

fn e8() {
    header("E8", "skewed access + migration rebalancing (Fig.)");
    println!(
        "{:<24} {:>12} {:>13} {:>11} {:>8}",
        "configuration", "makespan", "reads/s", "migrations", "refused"
    );
    let n = 8;
    let configs: Vec<(&str, GasMode, bool)> = vec![
        ("PGAS (static)", GasMode::Pgas, false),
        ("AGAS-SW, no rebal.", GasMode::AgasSoftware, false),
        ("AGAS-SW + rebalance", GasMode::AgasSoftware, true),
        ("AGAS-NET, no rebal.", GasMode::AgasNetwork, false),
        ("AGAS-NET + rebalance", GasMode::AgasNetwork, true),
    ];
    let rows: Vec<_> = configs
        .par_iter()
        .map(|&(label, mode, rebal)| (label, skew_row(mode, rebal, n)))
        .collect();
    for (label, r) in rows {
        println!(
            "{:<24} {:>12} {:>13.0} {:>11} {:>8}",
            label,
            format!("{}", r.elapsed),
            r.ops_per_sec,
            r.migrations,
            r.refused
        );
    }
}

fn e9() {
    header("E9", "application proxy: 2-D halo-exchange stencil (Tab.)");
    println!(
        "{:>6} {:>14} {:>14} {:>14}",
        "locs", "PGAS/iter", "SW/iter", "NET/iter"
    );
    let rows: Vec<_> = [4usize, 16, 64]
        .par_iter()
        .map(|&n| {
            let net = NetConfig::ib_fdr();
            (
                n,
                stencil_row(GasMode::Pgas, n, net),
                stencil_row(GasMode::AgasSoftware, n, net),
                stencil_row(GasMode::AgasNetwork, n, net),
            )
        })
        .collect();
    for (n, p, s, t) in rows {
        println!(
            "{:>6} {:>14} {:>14} {:>14}",
            n,
            format!("{}", p.per_iter),
            format!("{}", s.per_iter),
            format!("{}", t.per_iter)
        );
    }
}

fn e9b() {
    header("E9b", "application proxy: 3-D face-exchange stencil (Tab.)");
    println!(
        "{:>6} {:>14} {:>14} {:>14}",
        "locs", "PGAS/iter", "SW/iter", "NET/iter"
    );
    let rows: Vec<_> = [4usize, 16]
        .par_iter()
        .map(|&n| {
            (
                n,
                stencil3d_row(GasMode::Pgas, n),
                stencil3d_row(GasMode::AgasSoftware, n),
                stencil3d_row(GasMode::AgasNetwork, n),
            )
        })
        .collect();
    for (n, p, s, t) in rows {
        println!(
            "{:>6} {:>14} {:>14} {:>14}",
            n,
            format!("{}", p.per_iter),
            format!("{}", s.per_iter),
            format!("{}", t.per_iter)
        );
    }
}

fn e10() {
    header("E10", "protocol operations per remote access (Tab.)");
    println!(
        "{:<10} {:<5} {:>9} {:>9} {:>6} {:>13} {:>11}",
        "mode", "op", "rdma", "messages", "ctrl", "CPU handlers", "NIC xlates"
    );
    for mode in GasMode::ALL {
        for (put, opname) in [(true, "put"), (false, "get")] {
            let f = protocol_footprint(mode, put);
            println!(
                "{:<10} {:<5} {:>9} {:>9} {:>6} {:>13} {:>11}",
                mode.label(),
                opname,
                f.rdma_ops,
                f.messages,
                f.ctrl,
                f.cpu_handlers,
                f.nic_xlates
            );
        }
    }
}

fn a1() {
    header(
        "A1",
        "ablation: registration cache (8 × 1 MiB rendezvous sends)",
    );
    let on = rcache_ablation(true);
    let off = rcache_ablation(false);
    println!("rcache on : {on}");
    println!(
        "rcache off: {off}  ({:.2}x slower)",
        off.ps() as f64 / on.ps() as f64
    );
}

fn a2() {
    header("A2", "ablation: eager/rendezvous threshold crossover");
    println!(
        "{:>9} {:>12} {:>12} {:>12}",
        "size", "thr=512", "thr=4096", "thr=32768"
    );
    let sizes = [256u32, 512, 1024, 4096, 8192, 32768, 65536];
    let rows: Vec<_> = sizes
        .par_iter()
        .map(|&s| {
            (
                s,
                eager_threshold_latency(512, s),
                eager_threshold_latency(4096, s),
                eager_threshold_latency(32768, s),
            )
        })
        .collect();
    for (s, a, b, c) in rows {
        println!(
            "{:>9} {:>12} {:>12} {:>12}",
            s,
            format!("{a}"),
            format!("{b}"),
            format!("{c}")
        );
    }
}

fn a3() {
    header(
        "A3",
        "ablation: stale access after migration — NIC forwarding vs NACK-only",
    );
    println!(
        "{:<14} {:>12} {:>12} {:>9} {:>7} {:>9} {:>7} {:>7}",
        "policy", "stale put", "fresh put", "forwards", "nacks", "retries", "hints", "parked"
    );
    for (label, fwd) in [("forwarding", true), ("NACK-only", false)] {
        let r = migration_race(fwd);
        println!(
            "{:<14} {:>12} {:>12} {:>9} {:>7} {:>9} {:>7} {:>7}",
            label,
            format!("{}", r.stale_put_latency),
            format!("{}", r.fresh_put_latency),
            r.forwards,
            r.nacks,
            r.retries,
            r.hints_learned,
            r.parked
        );
    }
}

fn e10b() {
    header("E10b", "protocol footprint of one migration (Tab.)");
    println!(
        "{:<10} {:>9} {:>9} {:>7}",
        "mode", "messages", "dir ops", "moves"
    );
    for mode in [GasMode::AgasSoftware, GasMode::AgasNetwork] {
        let f = migration_footprint(mode);
        println!(
            "{:<10} {:>9} {:>9} {:>7}",
            mode.label(),
            f.messages,
            f.dir_ops,
            f.moves
        );
    }
}

fn e11() {
    header(
        "E11",
        "parcel network backend: PWC (one-sided) vs ISIR (two-sided) (Tab.)",
    );
    println!("{:>9} {:>12} {:>12}", "payload", "PWC", "ISIR");
    let rows: Vec<_> = [8u32, 64, 512, 4096, 32768, 262144]
        .par_iter()
        .map(|&p| {
            (
                p,
                parcel_latency(parcel_rt::Transport::Pwc, p),
                parcel_latency(parcel_rt::Transport::Isir, p),
            )
        })
        .collect();
    for (p, pwc, isir) in rows {
        println!(
            "{:>9} {:>12} {:>12}",
            p,
            format!("{pwc}"),
            format!("{isir}")
        );
    }
    let rp = parcel_rate(parcel_rt::Transport::Pwc);
    let ri = parcel_rate(parcel_rt::Transport::Isir);
    println!("sustained 32 B parcel rate: PWC {rp:.2} Mp/s, ISIR {ri:.2} Mp/s");
}

fn e12() {
    header(
        "E12",
        "fabric oversubscription: aggregate bandwidth of 4 disjoint streams",
    );
    println!("{:>8} {:>16}", "factor", "aggregate GB/s");
    let rows: Vec<_> = [1u64, 2, 4, 8]
        .par_iter()
        .map(|&k| (k, bisection_bandwidth(k)))
        .collect();
    for (k, bw) in rows {
        println!("{k:>8} {bw:>16.3}");
    }
}

fn e13() {
    header("E13", "message-driven BFS traversal rate (Tab.)");
    println!("{:>6} {:>14} {:>14}", "locs", "PWC MTEPS", "ISIR MTEPS");
    let rows: Vec<_> = [2usize, 4, 8, 16, 32]
        .par_iter()
        .map(|&n| {
            (
                n,
                bfs_teps(n, parcel_rt::Transport::Pwc),
                bfs_teps(n, parcel_rt::Transport::Isir),
            )
        })
        .collect();
    for (n, pwc, isir) in rows {
        println!("{:>6} {:>14.2} {:>14.2}", n, pwc / 1e6, isir / 1e6);
    }
}

fn e14() {
    header("E14", "parcel coalescing ablation (message aggregation)");
    println!(
        "{:<22} {:>12} {:>12} {:>10}",
        "workload", "time", "messages", "batches"
    );
    let rows: Vec<(&str, CoalesceRow)> = vec![
        ("BFS/ib, no coal.", bfs_coalescing(false)),
        ("BFS/ib, coalesced", bfs_coalescing(true)),
        (
            "GUPS/ib, no coal.",
            gups_coalescing_on(false, NetConfig::ib_fdr()),
        ),
        (
            "GUPS/ib, coalesced",
            gups_coalescing_on(true, NetConfig::ib_fdr()),
        ),
        ("flood 2k, no coal.", parcel_flood(false, 2048)),
        ("flood 2k, coalesced", parcel_flood(true, 2048)),
    ];
    for (label, r) in rows {
        println!(
            "{:<22} {:>12} {:>12} {:>10}",
            label,
            format!("{}", r.elapsed),
            r.messages,
            r.batches
        );
        if r.stale_lco_sets > 0 {
            println!("{:<22} {} stale LCO set(s) dropped", "", r.stale_lco_sets);
        }
    }
}

fn e15() {
    header("E15", "all-to-all transpose: aggregate bandwidth (Tab.)");
    println!(
        "{:>8} {:>12} {:>12} {:>12}",
        "factor", "PGAS GB/s", "SW GB/s", "NET GB/s"
    );
    let rows: Vec<_> = [1u64, 2, 4]
        .par_iter()
        .map(|&k| {
            (
                k,
                transpose_bandwidth(GasMode::Pgas, k),
                transpose_bandwidth(GasMode::AgasSoftware, k),
                transpose_bandwidth(GasMode::AgasNetwork, k),
            )
        })
        .collect();
    for (k, p, s, n) in rows {
        println!("{k:>8} {p:>12.3} {s:>12.3} {n:>12.3}");
    }
}

/// One machine-readable measurement row (`--json`).
struct PerfRow {
    id: String,
    series: String,
    sim: Time,
    wall_secs: f64,
    events: u64,
    xlate_lookups: u64,
    xlate_probes: u64,
    memo_hits: u64,
    /// Counters that belong to this row alone (read from the world it ran,
    /// not from the process-wide telemetry): appended to the JSON object
    /// and printed under the table.
    extra: Vec<(&'static str, u64)>,
}

impl PerfRow {
    fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.events as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Mean slots examined per translation lookup (1.0 = every lookup hit
    /// its home slot).
    fn probes_per_lookup(&self) -> f64 {
        if self.xlate_lookups > 0 {
            self.xlate_probes as f64 / self.xlate_lookups as f64
        } else {
            0.0
        }
    }

    fn json(&self) -> String {
        let extra: String = self
            .extra
            .iter()
            .map(|(k, v)| format!(",\"{k}\":{v}"))
            .collect();
        format!(
            concat!(
                "{{\"id\":\"{}\",\"series\":\"{}\",\"sim_time_ps\":{},",
                "\"wall_seconds\":{:.6},\"events\":{},\"events_per_sec\":{:.0},",
                "\"xlate_lookups\":{},\"xlate_probes\":{},\"memo_hits\":{}{}}}"
            ),
            self.id,
            self.series,
            self.sim.ps(),
            self.wall_secs,
            self.events,
            self.events_per_sec(),
            self.xlate_lookups,
            self.xlate_probes,
            self.memo_hits,
            extra
        )
    }
}

/// Run `f`, measuring wall clock and the engine-telemetry delta it causes.
fn measure(id: &str, series: &str, f: impl FnOnce()) -> PerfRow {
    let before = telemetry::snapshot();
    let t = Instant::now();
    f();
    let wall_secs = t.elapsed().as_secs_f64();
    let d = telemetry::snapshot().since(before);
    PerfRow {
        id: id.into(),
        series: series.into(),
        sim: Time::from_ps(d.sim_ps),
        wall_secs,
        events: d.events,
        xlate_lookups: d.xlate_lookups,
        xlate_probes: d.xlate_probes,
        memo_hits: d.memo_hits,
        extra: Vec::new(),
    }
}

/// `ops` — freeze a mixed put/get/migration workload mid-flight and dump
/// the unified op table (DESIGN.md §3.2), then run to quiescence and
/// report the per-op outcome counters.
fn ops_dump(json: bool) {
    use agas::Distribution;

    header("ops", "in-flight op-table snapshot + outcome counters");
    let net = NetConfig {
        jitter_ns: 300,
        ..NetConfig::ib_fdr()
    };
    let mut rt = parcel_rt::Runtime::builder(4, GasMode::AgasNetwork)
        .net(net)
        .boot();
    let arr = rt.alloc(8, 13, Distribution::Cyclic);
    for i in 0..24u64 {
        let gva = arr.block(i % 8).with_offset((i / 8) * 128);
        rt.memput(((i + 1) % 4) as u32, gva, vec![i as u8 + 1; 128]);
        if i % 3 == 0 {
            rt.memget_cb(((i + 2) % 4) as u32, gva, 128, |_, _| {});
        }
    }
    rt.migrate(0, arr.block(2), 3);
    rt.migrate(1, arr.block(5), 0);

    // Freeze the simulation while both hand-offs are on the wire: the ops
    // still between issue and outcome are the ones their blocks' new NICs
    // hold parked, exactly what the dump is for.
    rt.eng.run_steps(140);
    let now = rt.now();
    let snaps: Vec<(u32, Vec<agas::OpSnapshot>)> = (0..rt.n())
        .map(|l| (l, rt.eng.state.gas[l as usize].op_snapshots()))
        .collect();
    let in_flight: usize = snaps.iter().map(|(_, s)| s.len()).sum();
    if !json {
        println!("-- frozen at {now} with {in_flight} op(s) in flight:");
        for (l, s) in &snaps {
            for snap in s {
                println!("  locality {l}: {}", snap.render(now));
            }
        }
    }

    rt.run();
    let outcomes = rt.eng.state.total_outcomes();
    let stats = rt.eng.state.total_gas_stats();
    if json {
        println!(
            concat!(
                "{{\"id\":\"ops\",\"in_flight_at_freeze\":{},",
                "\"completed\":{},\"nacked\":{},\"nacked_miss\":{},",
                "\"nacked_ttl\":{},\"nacked_bounds\":{},\"retried\":{},",
                "\"deadline_exceeded\":{},\"protocol_violations\":{},",
                "\"stale_completions\":{},\"ops_failed\":{}}}"
            ),
            in_flight,
            outcomes.completed,
            outcomes.nacked(),
            outcomes.nacked_miss,
            outcomes.nacked_ttl,
            outcomes.nacked_bounds,
            outcomes.retried,
            outcomes.deadline_exceeded,
            outcomes.protocol_violations,
            stats.stale_completions,
            stats.ops_failed,
        );
    } else {
        println!("-- after quiescence:");
        println!("  outcomes: {outcomes}");
        println!(
            "  stale completions {} | ops failed {}",
            stats.stale_completions, stats.ops_failed
        );
    }
}

/// `chaos [seed]` — the fault-injection matrix (DESIGN.md §3.4): every GAS
/// mode under seeded fault mixes with migration churn, reporting
/// injection, recovery, and the history checker's verdict. Exits nonzero
/// if any cell fails its gate. Fully deterministic for a given seed,
/// including `--json` output (no wall-clock fields).
fn chaos(json: bool, seed: u64) {
    use netsim::FaultPlan;
    use workloads::chaos::{corrupt_mix, drop_mix, run_chaos, ChaosConfig};

    header(
        "chaos",
        &format!("fault-injection matrix: recovery + serializability (seed {seed})"),
    );
    let mixes: Vec<(&str, FaultPlan)> = vec![
        ("lossless", FaultPlan::lossless(9 ^ seed)),
        ("drop2", drop_mix(21 ^ seed, 0.02)),
        ("drop5", drop_mix(33 ^ seed, 0.05)),
        ("corrupt4", corrupt_mix(41 ^ seed, 0.04)),
    ];
    let cells: Vec<(GasMode, &str, FaultPlan)> = GasMode::ALL
        .iter()
        .flat_map(|&mode| {
            mixes
                .iter()
                .map(move |(label, plan)| (mode, *label, plan.clone()))
        })
        .collect();
    let rows: Vec<_> = cells
        .par_iter()
        .map(|(mode, label, plan)| {
            let r = run_chaos(&ChaosConfig {
                mode: *mode,
                plan: plan.clone(),
                seed,
                rounds: 20,
                churn: 3,
                ..ChaosConfig::default()
            });
            (*mode, *label, r)
        })
        .collect();
    if !json {
        println!(
            "{:<10} {:<9} {:>7} {:>5} {:>6} {:>8} {:>8} {:>6} {:>6} {:>7} {:>5} {:>5}",
            "mode",
            "mix",
            "dropped",
            "dup",
            "crpt",
            "retries",
            "dl-retry",
            "fwds",
            "nacks",
            "failed",
            "acct",
            "viol"
        );
    }
    for (mode, label, r) in &rows {
        if json {
            println!(
                concat!(
                    "{{\"id\":\"chaos\",\"series\":\"{}/{}\",\"seed\":{},",
                    "\"sim_time_ps\":{},\"events\":{},\"trace_hash\":{},",
                    "\"delivered\":{},\"dropped\":{},\"duplicated\":{},",
                    "\"corrupted\":{},\"corrupt_drops\":{},",
                    "\"retries\":{},\"deadline_retries\":{},\"sw_fallbacks\":{},",
                    "\"xlate_forwards\":{},\"nacks_sent\":{},",
                    "\"issued\":{},\"acked\":{},\"ops_failed\":{},",
                    "\"data_mismatches\":{},\"violations\":{}}}"
                ),
                mode.label(),
                label,
                seed,
                r.end.ps(),
                r.events,
                r.trace_hash,
                r.faults.delivered,
                r.faults.total_drops(),
                r.faults.duplicated,
                r.faults.corrupted,
                r.faults.corrupt_drops,
                r.gas.retries,
                r.gas.deadline_retries,
                r.gas.sw_fallbacks,
                r.net.xlate_forwards,
                r.net.nacks_sent,
                r.issued(),
                r.acked(),
                r.op_failures,
                r.data_mismatches,
                r.violations.len(),
            );
        } else {
            println!(
                "{:<10} {:<9} {:>7} {:>5} {:>6} {:>8} {:>8} {:>6} {:>6} {:>7} {:>5} {:>5}",
                mode.label(),
                label,
                r.faults.total_drops(),
                r.faults.duplicated,
                r.faults.corrupted + r.faults.corrupt_drops,
                r.gas.retries,
                r.gas.deadline_retries,
                r.net.xlate_forwards,
                r.net.nacks_sent,
                r.op_failures,
                if r.accounted() { "ok" } else { "LEAK" },
                r.violations.len()
            );
        }
    }
    let bad: Vec<_> = rows
        .iter()
        .filter(|(_, _, r)| !r.passed())
        .map(|(mode, label, _)| format!("{}/{}", mode.label(), label))
        .collect();
    if !bad.is_empty() {
        eprintln!("chaos cells FAILED: {}", bad.join(", "));
        std::process::exit(1);
    }
}

/// `membership [seed]` — the elastic membership plane (DESIGN.md §3.9):
/// every GAS mode runs the chaos driver's join → drain → crash schedule
/// under a lossless plan and a 2% drop mix, reporting the transition and
/// recovery counters plus the history checker's verdict. Exits nonzero if
/// any cell fails its gate: zero violations, full op accounting, a
/// nonzero re-homed slice, and (AGAS modes) nonzero crash recovery.
/// Deterministic for a given seed — the `--json` rows carry no
/// wall-clock fields.
fn membership(json: bool, seed: u64) {
    use netsim::FaultPlan;
    use workloads::chaos::{drop_mix, run_chaos, ChaosConfig};

    header(
        "membership",
        &format!("elastic membership: join / drain / crash under traffic (seed {seed})"),
    );
    let mixes: Vec<(&str, FaultPlan)> = vec![
        ("lossless", FaultPlan::lossless(9 ^ seed)),
        ("drop2", drop_mix(21 ^ seed, 0.02)),
    ];
    if !json {
        println!(
            "{:<10} {:<9} {:>6} {:>7} {:>7} {:>8} {:>9} {:>6} {:>7} {:>5} {:>5}",
            "mode",
            "mix",
            "joined",
            "drained",
            "crashed",
            "rehomed",
            "recovered",
            "stale",
            "failed",
            "acct",
            "viol"
        );
    }
    let mut bad: Vec<String> = Vec::new();
    for mode in GasMode::ALL {
        for (label, plan) in &mixes {
            let r = run_chaos(&ChaosConfig {
                mode,
                plan: plan.clone(),
                seed,
                rounds: 24,
                churn: 4,
                amos: true,
                membership: true,
                ..ChaosConfig::default()
            });
            let g = &r.gas;
            if json {
                println!(
                    concat!(
                        "{{\"id\":\"membership\",\"series\":\"{}/{}\",\"seed\":{},",
                        "\"sim_time_ps\":{},\"events\":{},\"trace_hash\":{},",
                        "\"members_joined\":{},\"members_drained\":{},",
                        "\"members_crashed\":{},\"blocks_rehomed\":{},",
                        "\"blocks_recovered\":{},\"stale_xlate_dropped\":{},",
                        "\"issued\":{},\"acked\":{},\"op_failures\":{},",
                        "\"violations\":{}}}"
                    ),
                    mode.label(),
                    label,
                    seed,
                    r.end.ps(),
                    r.events,
                    r.trace_hash,
                    g.members_joined,
                    g.members_drained,
                    g.members_crashed,
                    g.blocks_rehomed,
                    g.blocks_recovered,
                    g.stale_xlate_dropped,
                    r.issued(),
                    r.acked(),
                    r.op_failures,
                    r.violations.len(),
                );
            } else {
                println!(
                    "{:<10} {:<9} {:>6} {:>7} {:>7} {:>8} {:>9} {:>6} {:>7} {:>5} {:>5}",
                    mode.label(),
                    label,
                    g.members_joined,
                    g.members_drained,
                    g.members_crashed,
                    g.blocks_rehomed,
                    g.blocks_recovered,
                    g.stale_xlate_dropped,
                    r.op_failures,
                    if r.accounted() { "ok" } else { "LEAK" },
                    r.violations.len()
                );
            }
            let ok = r.passed()
                && g.members_joined == 1
                && g.members_drained == 1
                && g.blocks_rehomed > 0
                && (!mode.supports_migration()
                    || (g.members_crashed == 1 && g.blocks_recovered > 0));
            if !ok {
                bad.push(format!("{}/{}", mode.label(), label));
            }
        }
    }
    if !bad.is_empty() {
        eprintln!("membership cells FAILED: {}", bad.join(", "));
        std::process::exit(1);
    }
}

/// `amo [--ops N]` — the NIC-executed active-operation series (DESIGN.md
/// §3.6): contended fetch-add and CAS-retry throughput on one hot block,
/// each as an A/B between NIC-side execution (`agas-net`: translation +
/// op in one NIC visit) and the emulated round-trip (`agas-sw`: the
/// request bounces to the owner's CPU). `ns/op` is simulated round-trip
/// time per completed logical op — the headline comparison. Exits nonzero
/// if any cell leaks ops, or if the NIC/software counter split does not
/// match the mode (NIC mode must execute at the NIC; software mode must
/// never touch the NIC counters).
fn amo(json: bool, ops_per_loc: u64) {
    use agas::AmoPumpKind;

    header(
        "amo",
        &format!("NIC-executed active ops: contention series ({ops_per_loc} ops/locality)"),
    );
    let kinds = [AmoPumpKind::FetchAdd, AmoPumpKind::CasRetry];
    let modes = [GasMode::AgasSoftware, GasMode::AgasNetwork];
    let mut rows: Vec<AmoBenchRow> = Vec::new();
    for kind in kinds {
        for locs in [2usize, 4, 8, 16] {
            for mode in modes {
                let cfg = AmoBenchConfig {
                    localities: locs,
                    ops_per_loc,
                    ..AmoBenchConfig::default()
                };
                rows.push(amo_bench(&cfg, kind, mode));
            }
        }
    }
    if !json {
        println!(
            "{:<5} {:<9} {:>5} {:>7} {:>8} {:>9} {:>8} {:>9} {:>6} {:>5} {:>9} {:>10}",
            "kind",
            "mode",
            "locs",
            "ops",
            "retries",
            "ns/op",
            "ops/us",
            "nic-exec",
            "nacks",
            "fwd",
            "events",
            "sim time"
        );
    }
    for r in &rows {
        if json {
            println!(
                concat!(
                    "{{\"id\":\"amo\",\"series\":\"{}/{}\",\"localities\":{},",
                    "\"ops\":{},\"budget\":{},\"cas_retries\":{},\"amo_acks\":{},",
                    "\"op_failures\":{},\"events\":{},\"sim_time_ps\":{},",
                    "\"wall_seconds\":{:.6},\"ns_per_op\":{:.1},",
                    "\"ops_per_sim_us\":{:.3},\"trace_hash\":{},",
                    "\"amo_executed\":{},\"amo_nacked\":{},\"amo_forwarded\":{}}}"
                ),
                r.kind_label(),
                r.mode.label(),
                r.localities,
                r.ops,
                r.budget,
                r.cas_retries,
                r.amo_acks,
                r.op_failures,
                r.events,
                r.sim.ps(),
                r.wall_secs,
                r.ns_per_op(),
                r.ops_per_sim_us(),
                r.trace_hash,
                r.nic_executed,
                r.nic_nacked,
                r.nic_forwarded,
            );
        } else {
            println!(
                "{:<5} {:<9} {:>5} {:>7} {:>8} {:>9.1} {:>8.3} {:>9} {:>6} {:>5} {:>9} {:>10}",
                r.kind_label(),
                r.mode.label(),
                r.localities,
                r.ops,
                r.cas_retries,
                r.ns_per_op(),
                r.ops_per_sim_us(),
                r.nic_executed,
                r.nic_nacked,
                r.nic_forwarded,
                r.events,
                format!("{}", r.sim)
            );
        }
    }
    if !json {
        // The A/B in one line per shape: how much simulated round-trip
        // time the NIC-side execution saves at each contention level.
        for kind in kinds {
            for locs in [2usize, 4, 8, 16] {
                let find = |mode: GasMode| {
                    rows.iter()
                        .find(|r| r.kind == kind && r.mode == mode && r.localities == locs)
                        .expect("every cell ran")
                };
                let (sw, net) = (find(GasMode::AgasSoftware), find(GasMode::AgasNetwork));
                println!(
                    "-- {}/{locs} locs: sw {:.1} ns/op vs nic {:.1} ns/op ({:.2}x)",
                    sw.kind_label(),
                    sw.ns_per_op(),
                    net.ns_per_op(),
                    sw.ns_per_op() / net.ns_per_op().max(1e-9),
                );
            }
        }
    }
    let mut bad: Vec<String> = Vec::new();
    for r in &rows {
        let tag = format!("{}/{}/{}", r.kind_label(), r.mode.label(), r.localities);
        if !r.clean() {
            bad.push(format!(
                "{tag}: {} of {} ops finished, {} failed",
                r.ops, r.budget, r.op_failures
            ));
        }
        // Locality 0 is co-located with the hot block, so its share of the
        // budget commits locally; every *remote* op must hit a NIC.
        let remote = r.ops - r.budget / r.localities as u64;
        match r.mode {
            GasMode::AgasNetwork if r.nic_executed < remote => bad.push(format!(
                "{tag}: only {} of {} remote ops executed at a NIC",
                r.nic_executed, remote
            )),
            GasMode::AgasSoftware | GasMode::Pgas if r.nic_executed > 0 => bad.push(format!(
                "{tag}: emulated mode touched the NIC counters ({})",
                r.nic_executed
            )),
            _ => {}
        }
    }
    let cas_retries: u64 = rows
        .iter()
        .filter(|r| r.kind == AmoPumpKind::CasRetry)
        .map(|r| r.cas_retries)
        .sum();
    if cas_retries == 0 {
        bad.push("no CAS ever lost the race — the workload is not contended".into());
    }
    // The ring-enabled cell: AMOs issued through the submission rings must
    // share doorbells when several target the same responder.
    let ab = amo_ring_batching(64);
    if json {
        println!(
            concat!(
                "{{\"id\":\"amo\",\"series\":\"ring_batch\",\"amos\":{},",
                "\"amo_batched\":{},\"ring_doorbells\":{},\"sim_time_ps\":{},",
                "\"counter\":{}}}"
            ),
            ab.amos,
            ab.amo_batched,
            ab.doorbells,
            ab.elapsed.ps(),
            ab.counter,
        );
    } else {
        println!(
            "-- ring batching: {} of {} fetch-adds shared a doorbell ({} doorbells)",
            ab.amo_batched, ab.amos, ab.doorbells
        );
    }
    if ab.amo_batched == 0 {
        bad.push("ring_batch: concurrent AMOs never shared a ring doorbell".into());
    }
    if ab.counter != ab.amos {
        bad.push(format!(
            "ring_batch: counter {} after {} fetch-adds",
            ab.counter, ab.amos
        ));
    }
    if !bad.is_empty() {
        eprintln!("amo cells FAILED:\n  {}", bad.join("\n  "));
        std::process::exit(1);
    }
}

/// `ring [--ops N]` — the descriptor-ring issue-path series (DESIGN.md
/// §3.7): a doorbell-batching ladder (vectored `put_many` bursts through
/// the photon submission rings at increasing `doorbell_batch`), the
/// shm-vs-network crossover (intra-domain puts/gets short-circuit the NIC
/// with zero wire messages), and the AMO-batching cell. Exits nonzero if
/// rings fail to batch (descriptors per doorbell, occupancy), if an
/// intra-domain op touches the wire or loses to the network path, or if
/// concurrent AMOs never share a doorbell.
fn ring(json: bool, ops: u64) {
    header(
        "ring",
        &format!("descriptor-ring issue path: doorbell batching + shm crossover ({ops} ops)"),
    );
    let rungs = [0usize, 1, 4, 16];
    let ladder: Vec<RingLadderRow> = rungs.iter().map(|&b| ring_ladder_row(b, ops)).collect();
    if !json {
        println!(
            "{:>6} {:>7} {:>12} {:>10} {:>9} {:>7} {:>8} {:>7} {:>8}",
            "batch", "ops", "sim time", "doorbells", "descs", "coal", "desc/db", "occ", "db/op"
        );
    }
    for r in &ladder {
        if json {
            println!(
                concat!(
                    "{{\"id\":\"ring\",\"series\":\"ladder/batch{}\",\"ops\":{},",
                    "\"sim_time_ps\":{},\"events\":{},\"messages\":{},",
                    "\"ring_doorbells\":{},\"ring_descs\":{},\"ring_coalesced\":{},",
                    "\"max_occupancy\":{},\"descs_per_doorbell\":{:.3},",
                    "\"doorbells_per_op\":{:.4}}}"
                ),
                r.batch,
                r.ops,
                r.elapsed.ps(),
                r.events,
                r.msgs,
                r.doorbells,
                r.descs,
                r.coalesced,
                r.max_occupancy,
                r.descs_per_doorbell(),
                r.doorbells_per_op(),
            );
        } else {
            println!(
                "{:>6} {:>7} {:>12} {:>10} {:>9} {:>7} {:>8.2} {:>7} {:>8.4}",
                if r.batch == 0 {
                    "off".into()
                } else {
                    r.batch.to_string()
                },
                r.ops,
                format!("{}", r.elapsed),
                r.doorbells,
                r.descs,
                r.coalesced,
                r.descs_per_doorbell(),
                r.max_occupancy,
                r.doorbells_per_op(),
            );
        }
    }
    let sizes = [8u32, 256, 4096, 65536];
    let cross: Vec<ShmCrossRow> = sizes.iter().map(|&s| shm_cross_row(s)).collect();
    if !json {
        println!(
            "{:>9} {:>12} {:>12} {:>12} {:>12} {:>9} {:>9}",
            "size", "net put", "shm put", "net get", "shm get", "speedup", "shm msgs"
        );
    }
    for c in &cross {
        if json {
            println!(
                concat!(
                    "{{\"id\":\"ring\",\"series\":\"shm_cross/{}\",",
                    "\"net_put_ps\":{},\"shm_put_ps\":{},",
                    "\"net_get_ps\":{},\"shm_get_ps\":{},",
                    "\"put_speedup\":{:.3},\"shm_msgs\":{},\"shm_ops\":{}}}"
                ),
                c.size,
                c.net_put.ps(),
                c.shm_put.ps(),
                c.net_get.ps(),
                c.shm_get.ps(),
                c.put_speedup(),
                c.shm_msgs,
                c.shm_ops,
            );
        } else {
            println!(
                "{:>9} {:>12} {:>12} {:>12} {:>12} {:>8.2}x {:>9}",
                c.size,
                format!("{}", c.net_put),
                format!("{}", c.shm_put),
                format!("{}", c.net_get),
                format!("{}", c.shm_get),
                c.put_speedup(),
                c.shm_msgs,
            );
        }
    }
    let ab = amo_ring_batching(64);
    if json {
        println!(
            concat!(
                "{{\"id\":\"ring\",\"series\":\"amo_batch\",\"amos\":{},",
                "\"amo_batched\":{},\"ring_doorbells\":{},\"sim_time_ps\":{},",
                "\"counter\":{}}}"
            ),
            ab.amos,
            ab.amo_batched,
            ab.doorbells,
            ab.elapsed.ps(),
            ab.counter,
        );
    } else {
        println!(
            "amo batching: {} fetch-adds, {} shared a doorbell ({} doorbells), counter {}",
            ab.amos, ab.amo_batched, ab.doorbells, ab.counter
        );
    }
    let mut bad: Vec<String> = Vec::new();
    let rung = |b: usize| ladder.iter().find(|r| r.batch == b).expect("rung ran");
    let (b1, b16) = (rung(1), rung(16));
    if b16.doorbells == 0 {
        bad.push("batch16: rings never rang a doorbell".into());
    }
    if b16.descs_per_doorbell() < 2.0 {
        bad.push(format!(
            "batch16: {:.2} descs/doorbell — descriptors are not batching",
            b16.descs_per_doorbell()
        ));
    }
    if b16.max_occupancy < 2 {
        bad.push(format!(
            "batch16: max ring occupancy {} — ops never queued behind each other",
            b16.max_occupancy
        ));
    }
    if b16.doorbells >= b1.doorbells {
        bad.push(format!(
            "batch16 rang {} doorbells vs batch1's {} — batching did not reduce doorbell events",
            b16.doorbells, b1.doorbells
        ));
    }
    for c in &cross {
        if c.shm_msgs != 0 {
            bad.push(format!(
                "shm_cross/{}: intra-domain ops sent {} wire messages (must be 0)",
                c.size, c.shm_msgs
            ));
        }
        if c.shm_ops != 2 {
            bad.push(format!(
                "shm_cross/{}: {} of 2 ops took the shm short-circuit",
                c.size, c.shm_ops
            ));
        }
        if c.shm_put >= c.net_put || c.shm_get >= c.net_get {
            bad.push(format!(
                "shm_cross/{}: load/store path not faster than the wire",
                c.size
            ));
        }
    }
    if ab.amo_batched == 0 {
        bad.push("amo_batch: concurrent AMOs never shared a ring doorbell".into());
    }
    if ab.counter != ab.amos {
        bad.push(format!(
            "amo_batch: counter {} after {} fetch-adds",
            ab.counter, ab.amos
        ));
    }
    if !bad.is_empty() {
        eprintln!("ring cells FAILED:\n  {}", bad.join("\n  "));
        std::process::exit(1);
    }
}

/// `parallel [--shards N] [--locs N] [--updates N]` — the sharded-engine
/// scaling series (DESIGN.md §3.5): the self-pumping GUPS workload on
/// network-managed AGAS, on each of [`parallel_fabrics`] (FDR, then FDR
/// with transit jitter), run on the sequential engine and then at each
/// lane count up to `--shards`. Wall-clock throughput scales with lanes
/// (given enough host cores); the simulated results — trace hash, clock,
/// event and update counts — must be bit-identical at every lane count of
/// a series, and the process exits nonzero if they are not. JSON rows
/// carry the host probe's paired ratio (`repro host`, ≈ 10 s): a threaded
/// wall-clock point says nothing without it.
fn parallel(json: bool, max_shards: usize, cfg: &ParallelGupsConfig) {
    header(
        "parallel",
        &format!(
            "sharded-engine GUPS scaling, {} localities × {} updates (wall-clock)",
            cfg.localities, cfg.updates_per_loc
        ),
    );
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let host_pair_ratio = if json {
        probe_host().paired_ratio()
    } else {
        0.0
    };
    if !json {
        println!("(host has {cores} core(s); speedup needs cores >= shards)");
    }
    let mut diverged = Vec::new();
    for (series, net) in parallel_fabrics() {
        // Runs are strictly serial: each one owns the machine while timed.
        let rows: Vec<ParallelGupsRow> = shard_ladder(max_shards)
            .into_iter()
            .map(|k| parallel_gups(cfg, net, k))
            .collect();
        let base = rows[0].events_per_sec();
        if !json {
            println!("{series} (jitter {} ns)", net.jitter_ns);
            println!(
                "{:>7} {:>11} {:>9} {:>13} {:>8} {:>9} {:>7} {:>11}",
                "shards", "events", "wall s", "events/sec", "speedup", "windows", "sync%", "util"
            );
        }
        for r in &rows {
            let speedup = if base > 0.0 {
                r.events_per_sec() / base
            } else {
                0.0
            };
            if json {
                let util = r
                    .utilization
                    .iter()
                    .map(|u| format!("{u:.4}"))
                    .collect::<Vec<_>>()
                    .join(",");
                println!(
                    concat!(
                        "{{\"id\":\"parallel\",\"series\":\"{}\",\"shards\":{},",
                        "\"localities\":{},\"host_cores\":{},\"host_pair_ratio\":{:.3},",
                        "\"updates\":{},\"events\":{},",
                        "\"sim_time_ps\":{},\"wall_seconds\":{:.6},\"events_per_sec\":{:.0},",
                        "\"speedup\":{:.4},\"trace_hash\":{},\"windows\":{},",
                        "\"sync_overhead\":{:.4},\"barrier_ns_per_event\":{:.2},",
                        "\"utilization\":[{}]}}"
                    ),
                    series,
                    r.shards,
                    r.localities,
                    cores,
                    host_pair_ratio,
                    r.updates,
                    r.events,
                    r.sim.ps(),
                    r.wall_secs,
                    r.events_per_sec(),
                    speedup,
                    r.trace_hash,
                    r.windows,
                    r.sync_overhead,
                    r.barrier_ns_per_event,
                    util,
                );
            } else {
                let util = if r.utilization.is_empty() {
                    "-".into()
                } else {
                    let min = r.utilization.iter().cloned().fold(f64::INFINITY, f64::min);
                    let max = r.utilization.iter().cloned().fold(0.0f64, f64::max);
                    format!("{min:.2}-{max:.2}")
                };
                println!(
                    "{:>7} {:>11} {:>9.3} {:>13.0} {:>7.2}x {:>9} {:>6.1}% {:>11}",
                    r.shards,
                    r.events,
                    r.wall_secs,
                    r.events_per_sec(),
                    speedup,
                    r.windows,
                    r.sync_overhead * 100.0,
                    util,
                );
            }
        }
        let gold = &rows[0];
        diverged.extend(
            rows.iter()
                .filter(|r| {
                    (r.trace_hash, r.sim, r.events, r.updates)
                        != (gold.trace_hash, gold.sim, gold.events, gold.updates)
                })
                .map(|r| format!("{series} at {} shards", r.shards)),
        );
    }
    if !diverged.is_empty() {
        eprintln!(
            "parallel runs DIVERGED from the sequential trace: {}",
            diverged.join(", ")
        );
        std::process::exit(1);
    }
}

/// Engine throughput on hot-path workloads (wall-clock events/sec).
fn perf(json: bool) {
    header(
        "perf",
        "engine wall-clock throughput (real time, not simulated)",
    );

    // Random-delay schedule/dispatch: the substrate microbench pattern,
    // repeated until the measurement is comfortably long.
    let dispatch = measure("perf", "dispatch_random", || {
        for rep in 0..40u64 {
            let mut eng = netsim::Engine::new(0u64, rep);
            for i in 0..10_000u64 {
                let d = netsim::rng::mix64(rep * 10_000 + i) % 1_000_000;
                eng.schedule(Time::from_ps(d), move |e| e.state = e.state.wrapping_add(i));
            }
            eng.run();
        }
    });

    // A self-rescheduling event chain: queue stays near-empty, measures
    // per-event fixed cost.
    let chain = measure("perf", "event_chain", || {
        let mut eng = netsim::Engine::new(0u64, 1);
        fn tick(e: &mut netsim::Engine<u64>) {
            e.state += 1;
            if e.state < 400_000 {
                e.schedule(Time::from_ns(1), tick);
            }
        }
        eng.schedule(Time::ZERO, tick);
        eng.run();
    });

    // A full runtime workload: parcel dispatch through the simulated NIC.
    let parcels = measure("perf", "parcel_rate_pwc", || {
        std::hint::black_box(parcel_rate(parcel_rt::Transport::Pwc));
    });

    // The translation fast path under fire: GUPS over the network-managed
    // mode drives every update through the NIC translation table and the
    // initiator owner caches, so the xlate_* and memo counters are hot.
    // (The runtime drops inside the closure, flushing batched counters
    // before the after-snapshot.)
    let gups = measure("perf", "gups_agas_net", || {
        std::hint::black_box(gups_scaling(GasMode::AgasNetwork, 8, NetConfig::ib_fdr()));
    });

    // Migration churn: the balancer moves hot blocks while every locality
    // hammers its own favourite, so initiators bounce, query the
    // directory, and then re-translate the same block back to back — the
    // owner-cache one-entry memo's target shape.
    let mut churn_extra = Vec::new();
    let mut churn = measure("perf", "migration_churn", || {
        use std::rc::Rc;
        let mut rt = parcel_rt::Runtime::builder(4, GasMode::AgasNetwork)
            .seed(17)
            .boot();
        let data = rt.alloc(16, 13, agas::Distribution::Blocked);
        rt.start_balancer(parcel_rt::BalancerConfig {
            period: Time::from_us(100),
            moves_per_round: 2,
            min_heat: 4,
            ..parcel_rt::BalancerConfig::default()
        });
        let blocks = data.blocks.clone();
        let issue: Rc<workloads::driver::IssueFn> = Rc::new(move |eng, loc, _seq, ctx| {
            // Each locality chases one hot block (all start on loc 0):
            // repeated translations of the same key, bounced by the
            // balancer's migrations.
            let gva = blocks[(loc % 4) as usize];
            agas::ops::memget(eng, loc, gva, 512, ctx);
        });
        let n = rt.n();
        workloads::driver::pump_all(&mut rt.eng, n, 800, 8, issue, |_| {});
        rt.run();
        // What the balancer moved and what it refused to (a move that
        // cannot lower the maximum only relocates it), how often a
        // migrated block was reached through a forward, how many of those
        // forwards taught the initiator the new owner, how many outran the
        // block and parked at its new NIC — and what was left for the NACK
        // ladder.
        let gas = rt.eng.state.total_gas_stats();
        let net = rt.counters();
        let bal = rt.eng.state.balancer_stats;
        churn_extra = vec![
            ("ops", gas.gets),
            ("migrations", bal.migrations),
            ("refused", bal.refused),
            ("xlate_forwards", net.xlate_forwards),
            ("hints_learned", gas.hints_learned),
            ("parked", net.xlate_parked),
            ("nacks", net.nacks_sent),
        ];
    });
    churn.extra = churn_extra;

    // NIC-executed active operations: contended fetch-adds over the
    // network-managed mode, so the AMO commit path runs hot. The row
    // carries its own cluster's NIC AMO counters. (The emulated modes
    // leave these at zero; see `repro amo` for the full A/B.)
    let mut amo_extra = Vec::new();
    let mut amo = measure("perf", "amo_agas_net", || {
        let r = amo_bench(
            &AmoBenchConfig::default(),
            agas::AmoPumpKind::FetchAdd,
            GasMode::AgasNetwork,
        );
        amo_extra = vec![
            ("amo_executed", r.nic_executed),
            ("amo_nacked", r.nic_nacked),
            ("amo_forwarded", r.nic_forwarded),
        ];
    });
    amo.extra = amo_extra;

    let rows = [dispatch, chain, parcels, gups, churn, amo];
    if json {
        for r in &rows {
            println!("{}", r.json());
        }
    } else {
        println!(
            "{:<18} {:>12} {:>10} {:>14} {:>14} {:>12} {:>8} {:>10}",
            "series",
            "events",
            "wall s",
            "events/sec",
            "sim time",
            "xl lookups",
            "pr/lk",
            "memo hits"
        );
        for r in &rows {
            println!(
                "{:<18} {:>12} {:>10.3} {:>14.0} {:>14} {:>12} {:>8.2} {:>10}",
                r.series,
                r.events,
                r.wall_secs,
                r.events_per_sec(),
                format!("{}", r.sim),
                r.xlate_lookups,
                r.probes_per_lookup(),
                r.memo_hits
            );
        }
        for r in rows.iter().filter(|r| !r.extra.is_empty()) {
            let extra: Vec<String> = r.extra.iter().map(|(k, v)| format!("{k}={v}")).collect();
            println!("{}: {}", r.series, extra.join(" "));
        }
    }
}

/// `host` — the core count and the paired-loop ratio: what a wall-clock
/// point recorded on this machine has to state beside it.
fn host(json: bool) {
    header("host", "hardware threads and what two of them share");
    let h = probe_host();
    let (lo, hi) = (
        h.paired_ratios[0],
        h.paired_ratios[h.paired_ratios.len() - 1],
    );
    println!(
        "nproc {}; an ALU-bound loop beside its twin takes {:.2}x as long as alone \
         (median of {} rounds, {lo:.2}-{hi:.2})",
        h.nproc,
        h.paired_ratio(),
        h.paired_ratios.len()
    );
    if json {
        println!(
            "{{\"id\":\"host\",\"nproc\":{},\"paired_ratio\":{:.3},\"paired_ratio_min\":{lo:.3},\"paired_ratio_max\":{hi:.3}}}",
            h.nproc,
            h.paired_ratio()
        );
    }
}

/// Pop `--name N` / `--name=N` from `args`, so flag values are never
/// mistaken for positional arguments (subcommand, chaos seed).
fn take_opt(args: &mut Vec<String>, name: &str) -> Option<u64> {
    if let Some(i) = args.iter().position(|a| a == name) {
        let v = args.get(i + 1).and_then(|v| v.parse().ok());
        args.drain(i..(i + 2).min(args.len()));
        return v;
    }
    let pfx = format!("{name}=");
    if let Some(i) = args.iter().position(|a| a.starts_with(&pfx)) {
        let v = args[i][pfx.len()..].parse().ok();
        args.remove(i);
        return v;
    }
    None
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let shards = take_opt(&mut args, "--shards").map(|n| n.max(1) as usize);
    let mut par_cfg = ParallelGupsConfig::default();
    if let Some(n) = take_opt(&mut args, "--locs") {
        par_cfg.localities = n.max(1) as usize;
    }
    if let Some(n) = take_opt(&mut args, "--updates") {
        par_cfg.updates_per_loc = n.max(1);
    }
    let ops_flag = take_opt(&mut args, "--ops");
    let amo_ops = ops_flag.map_or(AmoBenchConfig::default().ops_per_loc, |n| n.max(1));
    let ring_ops = ops_flag.map_or(2048, |n| n.max(1));
    let json = args.iter().any(|a| a == "--json");
    let what = args
        .iter()
        .find(|a| !a.starts_with('-'))
        .cloned()
        .unwrap_or_else(|| "all".into());
    let experiments: Vec<(&str, fn())> = vec![
        ("e1", e1),
        ("e1b", e1b),
        ("e2", e2),
        ("e3", e3),
        ("e4", e4),
        ("e4b", e4b),
        ("e5", e5),
        ("e6", e6),
        ("e7", e7),
        ("e8", e8),
        ("e9", e9),
        ("e9b", e9b),
        ("e10", e10),
        ("e10b", e10b),
        ("e11", e11),
        ("e12", e12),
        ("e13", e13),
        ("e14", e14),
        ("e15", e15),
        ("a1", a1),
        ("a2", a2),
        ("a3", a3),
    ];
    println!(
        "nmvgas reconstructed evaluation — deterministic simulation results \
         (simulated time; see DESIGN.md §5 and EXPERIMENTS.md)"
    );
    let run_one = |name: &str, f: &fn()| {
        let row = measure(name, "experiment", f);
        if json {
            println!("{}", row.json());
        }
    };
    match what.as_str() {
        "perf" => {
            perf(json);
            if let Some(k) = shards {
                parallel(json, k, &par_cfg);
            }
        }
        "parallel" => parallel(json, shards.unwrap_or(8), &par_cfg),
        "amo" => amo(json, amo_ops),
        "ring" => ring(json, ring_ops),
        "ops" => ops_dump(json),
        "host" => host(json),
        "chaos" => {
            let seed = args
                .iter()
                .filter(|a| !a.starts_with('-'))
                .nth(1)
                .and_then(|a| a.parse().ok())
                .unwrap_or(101);
            chaos(json, seed);
        }
        "membership" => {
            let seed = args
                .iter()
                .filter(|a| !a.starts_with('-'))
                .nth(1)
                .and_then(|a| a.parse().ok())
                .unwrap_or(101);
            membership(json, seed);
        }
        "all" => {
            for (name, f) in &experiments {
                run_one(name, f);
            }
            perf(json);
            amo(json, amo_ops);
            ring(json, ring_ops);
            if let Some(k) = shards {
                parallel(json, k, &par_cfg);
            }
            chaos(json, 101);
            membership(json, 101);
        }
        id => match experiments.iter().find(|(name, _)| *name == id) {
            Some((name, f)) => run_one(name, f),
            None => {
                eprintln!(
                    "unknown experiment {id:?}; use one of: all perf parallel amo ring ops host chaos membership {}",
                    experiments
                        .iter()
                        .map(|(n, _)| *n)
                        .collect::<Vec<_>>()
                        .join(" ")
                );
                std::process::exit(2);
            }
        },
    }
}
