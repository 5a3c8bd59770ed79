//! `nmvgas-cli` — run one simulated scenario from the command line.
//!
//! ```sh
//! cargo run --release -p bench --bin nmvgas-cli -- \
//!     --workload gups --mode net --locs 16 --fabric ib \
//!     --ops 4096 --window 16 --profile
//! ```
//!
//! A thin, dependency-free argument parser over the same workload kernels
//! the benchmarks use; prints the scenario's simulated results and,
//! optionally, the per-action profile and NIC utilization.

use agas::GasMode;
use netsim::{NetConfig, Time};
use parcel_rt::{RtConfig, Runtime, Transport};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Every flag some workload reads; any other flag is refused rather than
/// silently ignored.
const FLAGS: &[&str] = &[
    "workload",
    "mode",
    "locs",
    "fabric",
    "jitter-ns",
    "oversub",
    "ports",
    "xlate-capacity",
    "transport",
    "coalesce",
    "workers",
    "profile",
    "utilization",
    "cells",
    "ops",
    "window",
    "actions",
    "px",
    "py",
    "tile",
    "iters",
    "flop-us",
    "vertices",
    "chords",
    "read-bytes",
    "theta",
    "rebalance-every",
    "class",
    "rounds",
];

struct Args {
    flags: HashMap<String, String>,
}

impl Args {
    fn parse() -> Args {
        let mut flags = HashMap::new();
        let mut it = std::env::args().skip(1).peekable();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                eprintln!("unexpected argument {a:?} (flags are --name [value])");
                std::process::exit(2);
            };
            if !FLAGS.contains(&name) {
                eprintln!("unknown flag --{name} (known: --{})", FLAGS.join(" --"));
                std::process::exit(2);
            }
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().unwrap(),
                _ => "true".to_string(),
            };
            flags.insert(name.to_string(), value);
        }
        Args { flags }
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.flags.get(name) {
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("bad value for --{name}: {v:?}");
                std::process::exit(2);
            }),
            None => default,
        }
    }

    fn str(&self, name: &str, default: &str) -> String {
        self.flags
            .get(name)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    fn bool(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }
}

fn mode_of(s: &str) -> GasMode {
    match s {
        "pgas" => GasMode::Pgas,
        "sw" | "agas-sw" => GasMode::AgasSoftware,
        "net" | "agas-net" => GasMode::AgasNetwork,
        other => {
            eprintln!("unknown --mode {other:?} (pgas | sw | net)");
            std::process::exit(2);
        }
    }
}

fn fabric_of(s: &str) -> NetConfig {
    match s {
        "ib" | "ib-fdr" => NetConfig::ib_fdr(),
        "eth" | "10gbe" => NetConfig::ethernet_10g(),
        "cray" | "gemini" => NetConfig::cray_gemini(),
        "ideal" => NetConfig::ideal(),
        other => {
            eprintln!("unknown --fabric {other:?} (ib | eth | cray | ideal)");
            std::process::exit(2);
        }
    }
}

fn transport_of(s: &str) -> Transport {
    match s {
        "pwc" => Transport::Pwc,
        "isir" => Transport::Isir,
        other => {
            eprintln!("unknown --transport {other:?} (pwc | isir)");
            std::process::exit(2);
        }
    }
}

fn builder(args: &Args) -> (usize, GasMode, NetConfig, RtConfig) {
    let locs: usize = args.get("locs", 8);
    let mode = mode_of(&args.str("mode", "net"));
    let mut net = fabric_of(&args.str("fabric", "ib"));
    net.jitter_ns = args.get("jitter-ns", 0u64);
    net.oversubscription = args.get("oversub", 1u64);
    net.nic_ports = args.get("ports", 1usize);
    net.xlate_capacity = args.get("xlate-capacity", net.xlate_capacity);
    let rt = RtConfig {
        transport: transport_of(&args.str("transport", "pwc")),
        ring: args.bool("coalesce").then(netsim::RingConfig::default),
        workers: args.get("workers", 4),
        ..RtConfig::default()
    };
    if rt.ring.is_some() && rt.transport == Transport::Isir {
        eprintln!("--coalesce batches PWC parcels only; drop it or use --transport pwc");
        std::process::exit(2);
    }
    (locs, mode, net, rt)
}

fn finish(rt: &Runtime, args: &Args, started: Time) {
    println!("simulated time : {}", rt.now() - started);
    let c = rt.counters();
    println!(
        "cluster totals : {} msgs, {} rdma puts, {} rdma gets, {} xlate hits, {} misses, {} cpu",
        c.msgs_sent, c.rdma_puts, c.rdma_gets, c.xlate_hits, c.xlate_misses, c.cpu_busy
    );
    let g = rt.eng.state.total_gas_stats();
    println!(
        "gas            : {} puts, {} gets, {} retries, {} migrations",
        g.puts, g.gets, g.retries, g.migrations_done
    );
    let stale = rt.eng.state.total_rt_stats().stale_lco_sets;
    if stale > 0 {
        println!("lco            : {stale} stale set(s) dropped (LCO already retired)");
    }
    if args.bool("profile") {
        println!("action profile :");
        for (name, n, t) in rt.eng.state.action_profile() {
            println!("  {name:<20} ×{n:<8} {t}");
        }
    }
    if args.bool("utilization") {
        println!("nic utilization (tx / rx):");
        for (l, (tx, rx)) in rt
            .eng
            .state
            .cluster
            .nic_utilization(rt.now())
            .into_iter()
            .enumerate()
        {
            println!("  loc {l:<3} {:>6.1}% / {:>6.1}%", tx * 100.0, rx * 100.0);
        }
    }
}

fn main() {
    let args = Args::parse();
    let workload = args.str("workload", "gups");
    let (locs, mode, net, rtcfg) = builder(&args);
    println!(
        "workload={workload} mode={} locs={locs} fabric={} transport={:?}{}",
        mode.label(),
        args.str("fabric", "ib"),
        rtcfg.transport,
        if rtcfg.ring.is_some() {
            " +ring-batching"
        } else {
            ""
        }
    );

    match workload.as_str() {
        "gups" => {
            let cfg = workloads::gups::GupsConfig {
                cells_per_loc: args.get("cells", 1u64 << 13),
                updates_per_loc: args.get("ops", 1u64 << 10),
                window: args.get("window", 16usize),
                use_actions: args.bool("actions"),
                ..workloads::gups::GupsConfig::default()
            };
            let mut b = Runtime::builder(locs, mode).net(net);
            workloads::gups::register_actions(&mut b);
            let mut rt = b.rt_config(rtcfg).boot();
            let table = workloads::gups::alloc_table(&mut rt, &cfg);
            let t0 = rt.now();
            let res = workloads::gups::run(&mut rt, &cfg, &table);
            println!(
                "updates        : {}  ({:.2} MUPS)",
                res.updates,
                res.gups * 1e3
            );
            finish(&rt, &args, t0);
        }
        "stencil" => {
            let cfg = workloads::stencil::StencilConfig {
                grid: vec![args.get("px", 4u32), args.get("py", 4u32)],
                tile: args.get("tile", 32u32),
                iters: args.get("iters", 4u32),
                flop_time: Time::from_us(args.get("flop-us", 20u64)),
            };
            let mut b = Runtime::builder(locs, mode).net(net);
            workloads::stencil::register_actions(&mut b);
            let mut rt = b.rt_config(rtcfg).boot();
            let tiles = workloads::stencil::alloc_tiles(&mut rt, &cfg);
            let t0 = rt.now();
            let res = workloads::stencil::run(&mut rt, &cfg, &tiles);
            println!("per-iteration  : {}", res.per_iter);
            finish(&rt, &args, t0);
        }
        "bfs" => {
            let cfg = workloads::bfs::BfsConfig {
                vertices: args.get("vertices", 4096u32),
                chords: args.get("chords", 3u32),
                ..workloads::bfs::BfsConfig::default()
            };
            let slot = Rc::new(RefCell::new(None));
            let mut b = Runtime::builder(locs, mode);
            workloads::bfs::register_actions(&mut b, slot.clone());
            let mut rt = b.net(net).rt_config(rtcfg).boot();
            workloads::bfs::install(&mut rt, &cfg, &slot);
            let t0 = rt.now();
            let res = workloads::bfs::run(&mut rt, &cfg, &slot);
            let got = workloads::bfs::read_labels(&rt, &slot);
            let expect = slot.borrow().as_ref().unwrap().graph.bfs_oracle(cfg.root);
            assert_eq!(got, expect, "BFS verification failed");
            println!(
                "relaxations    : {}  ({:.2} MTEPS, verified)",
                res.relaxations,
                res.teps / 1e6
            );
            finish(&rt, &args, t0);
        }
        "skew" => {
            let cfg = workloads::skew::SkewConfig {
                ops_per_loc: args.get("ops", 1u64 << 10),
                read_bytes: args.get("read-bytes", 4096u32),
                theta: args.get("theta", 1.05f64),
                rebalance_every: args.get("rebalance-every", 512u64),
                ..workloads::skew::SkewConfig::default()
            };
            let mut rt = Runtime::builder(locs, mode)
                .net(net)
                .rt_config(rtcfg)
                .boot();
            let data = workloads::skew::alloc_blocks(&mut rt, &cfg);
            let t0 = rt.now();
            let res = workloads::skew::run(&mut rt, &cfg, &data);
            println!(
                "reads          : {} ({:.0}/s, {} migrations)",
                res.ops, res.ops_per_sec, res.migrations
            );
            finish(&rt, &args, t0);
        }
        "transpose" => {
            let cfg = workloads::transpose::TransposeConfig {
                block_class: args.get("class", 14u8),
                rounds: args.get("rounds", 1u32),
            };
            let mut rt = Runtime::builder(locs, mode)
                .net(net)
                .rt_config(rtcfg)
                .boot();
            let arrays = workloads::transpose::setup(&mut rt, &cfg);
            let t0 = rt.now();
            let res = workloads::transpose::run(&mut rt, &cfg, &arrays);
            workloads::transpose::verify(&rt, &cfg, &arrays);
            println!(
                "moved          : {} B ({:.2} GB/s aggregate, verified)",
                res.bytes_moved, res.aggregate_gbps
            );
            finish(&rt, &args, t0);
        }
        other => {
            eprintln!("unknown --workload {other:?} (gups | stencil | bfs | skew | transpose)");
            std::process::exit(2);
        }
    }
}
