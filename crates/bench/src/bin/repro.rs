//! `repro` — regenerate every table and figure of the reconstructed
//! evaluation (DESIGN.md §5).
//!
//! ```sh
//! cargo run --release -p bench --bin repro -- all     # everything
//! cargo run --release -p bench --bin repro -- e1      # one experiment
//! cargo run --release -p bench --bin repro -- chaos   # fault-injection matrix
//! cargo run --release -p bench --bin repro -- amo     # NIC active-op A/B series
//! cargo run --release -p bench --bin repro -- --json amo
//! ```
//!
//! All numbers are **simulated time** on the deterministic model: rerunning
//! any experiment reproduces it bit-for-bit. Parameter sweeps run their
//! (independent) simulations in parallel with rayon. Host wall-clock
//! throughput is the standalone benchmark's job (`benchmark/`).
//!
//! The experiments (E1–A3) print paper-style tables. The series (`ops`,
//! `chaos`, `membership`, `amo`, `shm`, `parallel`) print each row from
//! one field list: an aligned table whose header is the field names, or
//! with `--json` one `{"id":…,…}` line per row with the same fields (the
//! only stdout lines starting with `{`). Each series checks its own gate
//! and exits 1 naming every failed check; a bad argument exits 2.

use agas::GasMode;
use bench::*;
use netsim::NetConfig;
use photon::PhotonConfig;
use rayon::prelude::*;

fn header(id: &str, title: &str) {
    println!();
    println!("== {id}: {title}");
}

fn fmt_cap(c: usize) -> String {
    match c {
        usize::MAX => "unbounded".into(),
        0 => "0 (AGAS-SW)".into(),
        c => c.to_string(),
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
    let rows: Vec<_> = CAPACITIES
        .par_iter()
        .map(|&c| table_capacity(GasMode::AgasNetwork, c))
        .collect();
    for r in rows {
        println!(
            "{:>11} {:>10.2} {:>10} {:>13}",
            fmt_cap(r.capacity),
            r.mups,
            r.hit_rate
                .map_or("—".into(), |h| format!("{:.1}%", h * 100.0)),
            r.sw_fallbacks
        );
    }
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
    let on = rcache_ablation(PhotonConfig::default().rcache_pages);
    let off = rcache_ablation(0);
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
    let ttl = NetConfig::ib_fdr().forward_ttl;
    for (label, forward_ttl) in [("forwarding", ttl), ("NACK-only", 0)] {
        let r = migration_race(forward_ttl);
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

/// One cell of a series row: its table text and its JSON value.
struct Cell(String, String);

macro_rules! int_cells {
    ($($t:ty),*) => {$(
        impl From<$t> for Cell {
            fn from(v: $t) -> Cell {
                Cell(v.to_string(), v.to_string())
            }
        }
    )*};
}
int_cells!(u64, usize, u32);

impl From<String> for Cell {
    fn from(v: String) -> Cell {
        let json = format!("\"{v}\"");
        Cell(v, json)
    }
}

/// A float with this many decimals.
impl From<(f64, usize)> for Cell {
    fn from((v, d): (f64, usize)) -> Cell {
        Cell(format!("{v:.d$}"), format!("{v:.d$}"))
    }
}

/// A float list, each with this many decimals.
impl From<(Vec<f64>, usize)> for Cell {
    fn from((v, d): (Vec<f64>, usize)) -> Cell {
        let text: Vec<String> = v.iter().map(|x| format!("{x:.d$}")).collect();
        let text = text.join(",");
        Cell(text.clone(), format!("[{text}]"))
    }
}

/// One row of a series: its id and its named cells, in print order.
struct Row {
    id: &'static str,
    cells: Vec<(&'static str, Cell)>,
}

/// `row!(id; "key" => value, ...)`: each field named once. A value is an
/// integer, a `String`, `(float, decimals)` or `(float list, decimals)`.
macro_rules! row {
    ($id:expr; $($k:literal => $v:expr),* $(,)?) => {
        Row { id: $id, cells: vec![$(($k, Cell::from($v))),*] }
    };
}

/// Print `rows` (one shape of one series) as `{"id":…,…}` JSON lines, or
/// as an aligned table whose header is the keys.
fn print_rows(json: bool, rows: &[Row]) {
    if json {
        for r in rows {
            let cells: String = r
                .cells
                .iter()
                .map(|(k, Cell(_, json))| format!(",\"{k}\":{json}"))
                .collect();
            println!("{{\"id\":\"{}\"{cells}}}", r.id);
        }
        return;
    }
    let Some(first) = rows.first() else { return };
    let text: Vec<Vec<&str>> = rows
        .iter()
        .map(|r| r.cells.iter().map(|(_, Cell(t, _))| t.as_str()).collect())
        .collect();
    // Strings align left, numbers right; each column as wide as its widest.
    let columns: Vec<(usize, bool)> = first
        .cells
        .iter()
        .enumerate()
        .map(|(i, (key, Cell(_, json)))| {
            let width = text.iter().map(|t| t[i].len()).fold(key.len(), usize::max);
            (width, json.starts_with('"'))
        })
        .collect();
    let line = |cells: Vec<&str>| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&columns)
            .map(|(c, &(w, left))| {
                if left {
                    format!("{c:<w$}")
                } else {
                    format!("{c:>w$}")
                }
            })
            .collect();
        println!("{}", padded.join(" ").trim_end());
    };
    line(first.cells.iter().map(|(k, _)| *k).collect());
    text.into_iter().for_each(line);
}

/// Exit 1 naming every failed check of `series`, if any failed.
fn gate(series: &str, bad: Vec<String>) {
    if !bad.is_empty() {
        eprintln!("{series} cells FAILED:\n  {}", bad.join("\n  "));
        std::process::exit(1);
    }
}

/// `ops` — freeze a mixed put/get/migration workload mid-flight and dump
/// the unified op table (DESIGN.md §3.2), then run to quiescence and
/// report the per-op outcome counters from `GasStats`. Exits 1 unless the
/// freeze caught ops in flight and every op issued completed or failed.
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

    // Freeze the simulation at the first instant a NIC holds a request
    // parked behind a hand-off: the ops still between issue and outcome
    // then include the ones the blocks' new NICs hold, exactly what the
    // dump is for.
    let n = rt.n();
    let parked = |w: &parcel_rt::World| (0..n).any(|l| !w.cluster.loc(l).nic.parked.is_empty());
    while !parked(&rt.eng.state) && rt.eng.step() {}
    let now = rt.now();
    let in_flight: usize = rt.eng.state.gas.iter().map(|g| g.outstanding_ops()).sum();
    if !json {
        println!("-- frozen at {now} with {in_flight} op(s) in flight:");
        for line in rt.eng.state.in_flight_report(now, false) {
            println!("  {line}");
        }
    }

    rt.run();
    let o = rt.eng.state.total_gas_stats();
    let nacked = o.nacked_miss + o.nacked_ttl + o.nacked_bounds;
    print_rows(
        json,
        &[row!("ops";
            "in_flight_at_freeze" => in_flight,
            "completed" => o.completed,
            "nacked" => nacked,
            "nacked_miss" => o.nacked_miss,
            "nacked_ttl" => o.nacked_ttl,
            "nacked_bounds" => o.nacked_bounds,
            "retried" => o.retries,
            "deadline_exceeded" => o.deadline_exceeded,
            "protocol_violations" => o.protocol_violations,
            "stale_completions" => o.stale_completions,
            "ops_failed" => o.ops_failed,
        )],
    );
    let mut bad = Vec::new();
    if in_flight == 0 {
        bad.push("ops: the freeze caught no op in flight".to_string());
    }
    let issued = o.puts + o.gets + o.amos;
    if o.completed + o.ops_failed != issued {
        bad.push(format!(
            "ops: {} completed + {} failed of {issued} issued",
            o.completed, o.ops_failed
        ));
    }
    gate("ops", bad);
}

/// `chaos [seed]` — the fault-injection matrix (DESIGN.md §3.4): every GAS
/// mode under seeded fault mixes with migration churn, reporting
/// injection, recovery, and the history checker's verdict. Exits nonzero
/// if any cell fails its gate: zero violations, full op accounting, no
/// corrupt get data, and on the loss-heavy mixes (drop5, corrupt4) nonzero
/// injection and deadline recovery — a fault plane that silently stops
/// injecting cannot pass. Fully deterministic for a given seed, including
/// `--json` output (no wall-clock fields).
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
    let runs: Vec<_> = cells
        .par_iter()
        .map(|(mode, _, plan)| {
            run_chaos(&ChaosConfig {
                mode: *mode,
                plan: plan.clone(),
                seed,
                rounds: 20,
                churn: 3,
                ..ChaosConfig::default()
            })
        })
        .collect();
    let mut rows = Vec::new();
    let mut bad = Vec::new();
    for ((mode, label, _), r) in cells.iter().zip(&runs) {
        let series = format!("{}/{label}", mode.label());
        if !r.passed() {
            bad.push(format!("{series}: history, accounting or get data failed"));
        }
        let lossy = matches!(*label, "drop5" | "corrupt4");
        if lossy && r.gas.deadline_retries == 0 {
            bad.push(format!("{series}: deadline recovery never fired"));
        }
        if lossy && r.faults.total_drops() + r.faults.corrupt_drops == 0 {
            bad.push(format!("{series}: nothing was injected"));
        }
        rows.push(row!("chaos";
            "series" => series,
            "seed" => seed,
            "sim_time_ps" => r.end.ps(),
            "events" => r.events,
            "trace_hash" => r.trace_hash,
            "delivered" => r.faults.delivered,
            "dropped" => r.faults.total_drops(),
            "duplicated" => r.faults.duplicated,
            "corrupted" => r.faults.corrupted,
            "corrupt_drops" => r.faults.corrupt_drops,
            "retries" => r.gas.retries,
            "deadline_retries" => r.gas.deadline_retries,
            "sw_fallbacks" => r.gas.sw_fallbacks,
            "xlate_forwards" => r.net.xlate_forwards,
            "nacks_sent" => r.net.nacks_sent,
            "issued" => r.issued(),
            "acked" => r.acked(),
            "ops_failed" => r.op_failures,
            "data_mismatches" => r.data_mismatches,
            "violations" => r.violations.len(),
        ));
    }
    print_rows(json, &rows);
    gate("chaos", bad);
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
    let mut rows = Vec::new();
    let mut bad = Vec::new();
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
            let series = format!("{}/{label}", mode.label());
            let ok = r.passed()
                && g.members_joined == 1
                && g.members_drained == 1
                && g.blocks_rehomed > 0
                && (!mode.supports_migration()
                    || (g.members_crashed == 1 && g.blocks_recovered > 0));
            if !ok {
                bad.push(series.clone());
            }
            rows.push(row!("membership";
                "series" => series,
                "seed" => seed,
                "sim_time_ps" => r.end.ps(),
                "events" => r.events,
                "trace_hash" => r.trace_hash,
                "members_joined" => g.members_joined,
                "members_drained" => g.members_drained,
                "members_crashed" => g.members_crashed,
                "blocks_rehomed" => g.blocks_rehomed,
                "blocks_recovered" => g.blocks_recovered,
                "stale_xlate_dropped" => g.stale_xlate_dropped,
                "issued" => r.issued(),
                "acked" => r.acked(),
                "op_failures" => r.op_failures,
                "violations" => r.violations.len(),
            ));
        }
    }
    print_rows(json, &rows);
    gate("membership", bad);
}

/// `amo [--ops N]` — the NIC-executed active-operation series (DESIGN.md
/// §3.6): contended fetch-add and CAS-retry throughput on one hot block,
/// each as an A/B between NIC-side execution (`agas-net`: translation +
/// op in one NIC visit) and the emulated round-trip (`agas-sw`: the
/// request bounces to the owner's CPU). `ns_per_op` is simulated
/// round-trip time per completed logical op — the headline comparison.
/// Exits nonzero if any cell leaks ops, or if the NIC/software counter
/// split does not match the mode (NIC mode must execute at the NIC;
/// software mode must never touch the NIC counters).
fn amo(json: bool, ops_per_loc: u64) {
    use agas::AmoPumpKind;

    header(
        "amo",
        &format!("NIC-executed active ops: contention series ({ops_per_loc} ops/locality)"),
    );
    let kinds = [AmoPumpKind::FetchAdd, AmoPumpKind::CasRetry];
    let modes = [GasMode::AgasSoftware, GasMode::AgasNetwork];
    let mut cells: Vec<AmoBenchRow> = Vec::new();
    for kind in kinds {
        for locs in [2usize, 4, 8, 16] {
            for mode in modes {
                let cfg = AmoBenchConfig {
                    localities: locs,
                    ops_per_loc,
                    ..AmoBenchConfig::default()
                };
                cells.push(amo_bench(&cfg, kind, mode));
            }
        }
    }
    let rows: Vec<Row> = cells
        .iter()
        .map(|r| {
            row!("amo";
                "series" => format!("{}/{}", r.kind_label(), r.mode.label()),
                "localities" => r.localities,
                "ops" => r.ops,
                "budget" => r.budget,
                "cas_retries" => r.cas_retries,
                "amo_acks" => r.amo_acks,
                "op_failures" => r.op_failures,
                "events" => r.events,
                "sim_time_ps" => r.sim.ps(),
                "ns_per_op" => (r.ns_per_op(), 1),
                "ops_per_sim_us" => (r.ops_per_sim_us(), 3),
                "trace_hash" => r.trace_hash,
                "amo_executed" => r.nic_executed,
                "amo_nacked" => r.nic_nacked,
                "amo_forwarded" => r.nic_forwarded,
            )
        })
        .collect();
    print_rows(json, &rows);
    if !json {
        // The A/B in one line per shape: how much simulated round-trip
        // time the NIC-side execution saves at each contention level.
        for kind in kinds {
            for locs in [2usize, 4, 8, 16] {
                let find = |mode: GasMode| {
                    cells
                        .iter()
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
    for r in &cells {
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
    let cas_retries: u64 = cells
        .iter()
        .filter(|r| r.kind == AmoPumpKind::CasRetry)
        .map(|r| r.cas_retries)
        .sum();
    if cas_retries == 0 {
        bad.push("no CAS ever lost the race — the workload is not contended".into());
    }
    gate("amo", bad);
}

/// `shm` — the shared-memory crossover (DESIGN.md §3.7): one put and one
/// get per size over the network AGAS path and inside a two-locality
/// [`netsim::ShmDomain`]. Exits nonzero if an intra-domain op touches the
/// wire, misses the load/store short-circuit, or loses to the network path.
fn shm(json: bool) {
    header("shm", "shared-memory crossover: network AGAS vs load/store");
    let cross: Vec<ShmCrossRow> = [8u32, 256, 4096, 65536]
        .iter()
        .map(|&s| shm_cross_row(s))
        .collect();
    let rows: Vec<Row> = cross
        .iter()
        .map(|c| {
            row!("shm";
                "series" => format!("shm_cross/{}", c.size),
                "net_put_ps" => c.net_put.ps(),
                "shm_put_ps" => c.shm_put.ps(),
                "net_get_ps" => c.net_get.ps(),
                "shm_get_ps" => c.shm_get.ps(),
                "put_speedup" => (c.put_speedup(), 3),
                "shm_msgs" => c.shm_msgs,
                "shm_ops" => c.shm_ops,
            )
        })
        .collect();
    print_rows(json, &rows);
    let mut bad: Vec<String> = Vec::new();
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
    gate("shm", bad);
}

/// `parallel [--shards N] [--locs N] [--updates N]` — the sharded-engine
/// scaling series (DESIGN.md §3.5): the self-pumping GUPS workload on
/// network-managed AGAS, on each of [`parallel_fabrics`] (FDR, then FDR
/// with transit jitter), run on the sequential engine and then at each
/// lane count up to `--shards`. Wall-clock throughput scales with lanes
/// (given enough host cores); the simulated results — trace hash, clock,
/// event and update counts — must be bit-identical at every lane count of
/// a series, the two series must hash differently (a jitter that stopped
/// drawing would not), and every sharded row must report windows, one
/// utilization per lane, a sync overhead in [0, 1] and a non-negative
/// barrier cost; the process exits nonzero otherwise. Rows carry the host
/// probe's paired ratio (`repro host`, ≈ 10 s), which must be positive: a
/// threaded wall-clock point says nothing without it.
fn parallel(json: bool, max_shards: usize, cfg: &ParallelGupsConfig) {
    header(
        "parallel",
        &format!(
            "sharded-engine GUPS scaling, {} localities × {} updates (wall-clock)",
            cfg.localities, cfg.updates_per_loc
        ),
    );
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let host_pair_ratio = probe_host().paired_ratio();
    let mut rows = Vec::new();
    let mut bad = Vec::new();
    if host_pair_ratio <= 0.0 {
        bad.push(format!(
            "host probe returned paired ratio {host_pair_ratio}"
        ));
    }
    let mut hashes = Vec::new();
    for (series, net) in parallel_fabrics() {
        // Runs are strictly serial: each one owns the machine while timed.
        let runs: Vec<ParallelGupsRow> = shard_ladder(max_shards)
            .into_iter()
            .map(|k| parallel_gups(cfg, net, k))
            .collect();
        let (gold, base) = (&runs[0], runs[0].events_per_sec());
        hashes.push(gold.trace_hash);
        for r in &runs {
            let tag = format!("{series} at {} shards", r.shards);
            if (r.trace_hash, r.sim, r.events, r.updates)
                != (gold.trace_hash, gold.sim, gold.events, gold.updates)
            {
                bad.push(format!("{tag}: diverged from the sequential trace"));
            }
            let sharded_ok = r.windows > 0
                && r.utilization.len() == r.shards
                && (0.0..=1.0).contains(&r.sync_overhead)
                && r.barrier_ns_per_event >= 0.0;
            if r.shards > 1 && !sharded_ok {
                bad.push(format!(
                    "{tag}: {} windows, {} utilization entries, sync overhead {}, \
                     barrier {} ns/event",
                    r.windows,
                    r.utilization.len(),
                    r.sync_overhead,
                    r.barrier_ns_per_event
                ));
            }
            let speedup = if base > 0.0 {
                r.events_per_sec() / base
            } else {
                0.0
            };
            rows.push(row!("parallel";
                "series" => series.to_string(),
                "shards" => r.shards,
                "localities" => r.localities,
                "host_cores" => cores,
                "host_pair_ratio" => (host_pair_ratio, 3),
                "updates" => r.updates,
                "events" => r.events,
                "sim_time_ps" => r.sim.ps(),
                "wall_seconds" => (r.wall_secs, 6),
                "events_per_sec" => (r.events_per_sec(), 0),
                "speedup" => (speedup, 4),
                "trace_hash" => r.trace_hash,
                "windows" => r.windows,
                "sync_overhead" => (r.sync_overhead, 4),
                "barrier_ns_per_event" => (r.barrier_ns_per_event, 2),
                "utilization" => (r.utilization.clone(), 4),
            ));
        }
    }
    if hashes[0] == hashes[1] {
        bad.push("the jittery series hashed like the plain one: it drew no jitter".into());
    }
    print_rows(json, &rows);
    gate("parallel", bad);
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
/// mistaken for positional arguments (subcommand, chaos seed). A flag
/// without a value, or with one that is not a number, is an error that
/// names the flag.
fn take_opt(args: &mut Vec<String>, name: &str) -> Result<Option<u64>, String> {
    let pfx = format!("{name}=");
    let Some(i) = args.iter().position(|a| a == name || a.starts_with(&pfx)) else {
        return Ok(None);
    };
    let flag = args.remove(i);
    let value = match flag.strip_prefix(&pfx) {
        Some(v) => v.to_string(),
        None if i < args.len() => args.remove(i),
        None => return Err(format!("{name} needs a value")),
    };
    match value.parse() {
        Ok(v) => Ok(Some(v)),
        Err(_) => Err(format!("{name}: {value:?} is not a number")),
    }
}

/// The seed after `chaos` / `membership` (101 when absent).
fn seed_arg(args: &[String]) -> Result<u64, String> {
    match args.iter().filter(|a| !a.starts_with('-')).nth(1) {
        None => Ok(101),
        Some(s) => s.parse().map_err(|_| format!("seed {s:?} is not a number")),
    }
}

/// Print a command-line error and exit 2.
fn usage_error(msg: String) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut opt = |name: &str| take_opt(&mut args, name).unwrap_or_else(|e| usage_error(e));
    let shards = opt("--shards").map(|n| n.max(1) as usize);
    let mut par_cfg = ParallelGupsConfig::default();
    if let Some(n) = opt("--locs") {
        par_cfg.localities = n.max(1) as usize;
    }
    if let Some(n) = opt("--updates") {
        par_cfg.updates_per_loc = n.max(1);
    }
    let ops_flag = opt("--ops");
    let amo_ops = ops_flag.map_or(AmoBenchConfig::default().ops_per_loc, |n| n.max(1));
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
    let seed = || seed_arg(&args).unwrap_or_else(|e| usage_error(e));
    println!(
        "nmvgas reconstructed evaluation — deterministic simulation results \
         (simulated time; see DESIGN.md §5 and EXPERIMENTS.md)"
    );
    match what.as_str() {
        "parallel" => parallel(json, shards.unwrap_or(8), &par_cfg),
        "amo" => amo(json, amo_ops),
        "shm" => shm(json),
        "ops" => ops_dump(json),
        "host" => host(json),
        "chaos" => chaos(json, seed()),
        "membership" => membership(json, seed()),
        "all" => {
            for (_, f) in &experiments {
                f();
            }
            amo(json, amo_ops);
            shm(json);
            if let Some(k) = shards {
                parallel(json, k, &par_cfg);
            }
            chaos(json, 101);
            membership(json, 101);
        }
        id => match experiments.iter().find(|(name, _)| *name == id) {
            Some((_, f)) => f(),
            None => {
                let ids: Vec<&str> = experiments.iter().map(|(n, _)| *n).collect();
                usage_error(format!(
                    "unknown experiment {id:?}; use one of: all parallel amo shm ops host chaos membership {}",
                    ids.join(" ")
                ))
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn flags_take_separate_and_joined_values() {
        let mut a = args(&["amo", "--ops", "64", "--shards=4", "--json"]);
        assert_eq!(take_opt(&mut a, "--ops"), Ok(Some(64)));
        assert_eq!(take_opt(&mut a, "--shards"), Ok(Some(4)));
        assert_eq!(take_opt(&mut a, "--locs"), Ok(None));
        assert_eq!(a, args(&["amo", "--json"]));
    }

    #[test]
    fn missing_or_bad_values_are_errors_naming_the_flag() {
        for bad in [
            &["amo", "--ops"][..],
            &["--ops", "x"],
            &["--ops=x"],
            &["--ops", "--json"],
        ] {
            let e = take_opt(&mut args(bad), "--ops").unwrap_err();
            assert!(e.contains("--ops"), "{e}");
        }
    }

    #[test]
    fn seeds_default_to_101_and_reject_garbage() {
        assert_eq!(seed_arg(&args(&["chaos", "--json"])), Ok(101));
        assert_eq!(seed_arg(&args(&["chaos", "7"])), Ok(7));
        assert!(seed_arg(&args(&["membership", "abc"])).is_err());
    }
}
