//! # vgasbench — the repository benchmark
//!
//! Five fixed-work, closed-loop workloads over the nmvgas stack, measured
//! on two clocks: **simulated time** (the paper's claim; exact for a seed)
//! and **host time** (the simulator's own cost). `vgasbench` measures the
//! end-to-end metrics with tracing off; `vgasbench-trace` is the same code
//! plus a counting allocator and a span recorder, and attributes cost to
//! `engine → netsim → photon → agas → parcel-rt` purely from outside, by
//! timing calls into each layer's public functions (see [`ladder`]).
//!
//! One workload per process: `netsim::telemetry` is process-wide statics.

pub mod calib;
pub mod counters;
pub mod ladder;
pub mod micro;
pub mod probe;
pub mod pump;
pub mod report;
pub mod suite;
pub mod sweep;

use counters::Raw;
use probe::Recorder;
use report::{ratio, Values, END_TO_END, PER_LAYER};
use std::time::Instant;
use suite::{Kind, Rep, Scratch, Spec, Trace};

/// Seconds one driver run measures (`BENCHMARK.json: run_seconds`).
pub const RUN_SECONDS: u64 = 15;

/// Parsed command line of one measuring process.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    /// Extra divisor on every op count (`--check` uses 32).
    pub div: u64,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut a = Args {
            workload: String::new(),
            seed: 42,
            seconds: RUN_SECONDS as f64,
            div: 1,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| format!("{flag} needs a value"))
                    .cloned()
            };
            match flag.as_str() {
                "--workload" => a.workload = value()?,
                "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                }
                "--div" => a.div = value()?.parse().map_err(|e| format!("--div: {e}"))?,
                // The driver passes it; run.sh already picked the binary.
                "--trace" => {
                    value()?;
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if a.div == 0 || a.seconds.is_nan() || a.seconds < 0.0 {
            return Err("--div must be ≥ 1 and --seconds ≥ 0".into());
        }
        Ok(a)
    }

    fn spec(&self) -> Result<Spec, String> {
        suite::spec(&self.workload).ok_or_else(|| {
            let names: Vec<&str> = suite::WORKLOADS.iter().map(|w| w.name).collect();
            format!(
                "unknown workload {:?}; one of {}",
                self.workload,
                names.join(", ")
            )
        })
    }
}

/// Report failed output checks on stderr; returns whether any failed.
fn report_failures(workload: &str, reps: &[&Rep]) -> bool {
    let mut any = false;
    for (i, r) in reps.iter().enumerate() {
        for f in &r.check_failures {
            eprintln!("CHECK FAILED workload={workload} rep={i} {f}");
            any = true;
        }
    }
    any
}

fn same_simulation(a: &Rep, b: &Rep) -> bool {
    (a.trace_hash, a.raw.events, a.sim_makespan_ps, a.completed)
        == (b.trace_hash, b.raw.events, b.sim_makespan_ps, b.completed)
}

/// `--trace 0`: repetitions of (fresh world, set-up, timed phase, checks)
/// for `--seconds`, medians over the repetitions. Returns the exit code.
pub fn main_untraced(argv: &[String]) -> Result<i32, String> {
    let args = Args::parse(argv)?;
    let spec = args.spec()?;
    let t0 = Instant::now();
    let mut scratch = Scratch::default();

    let mut reps: Vec<Rep> = Vec::new();
    let mut peak_rss_mb = 0.0;
    loop {
        let rep_t0 = Instant::now();
        reps.push(
            suite::run_rep_sized(
                &spec,
                args.seed,
                spec.ops_per_loc(args.div),
                &mut scratch,
                None,
            )
            .0,
        );
        if reps.len() == 1 {
            // One world's lifetime in a fresh process. Sampled at exit
            // instead, the peak also counted how well the allocator reused
            // the previous worlds' arenas — ±8 MB from run to run.
            peak_rss_mb = report::peak_rss_mb();
        }
        let rep_s = rep_t0.elapsed().as_secs_f64();
        if reps.len() >= 3 && t0.elapsed().as_secs_f64() + rep_s > args.seconds {
            break;
        }
    }
    // One factor for the whole run (the median probe): slow phases last
    // minutes but flicker second by second, so a repetition's own four
    // probes are too few to scale it alone.
    let speed = scratch.calib.speed();

    // The sharded workload's pump lives inside SimWorld and offers no
    // completion hook, so its exact latency samples — and the 1-lane trace
    // hash the 2-lane run must reproduce — come from a sequential twin
    // with completion logging on.
    let twin = (spec.kind == Kind::GupsLanes2).then(|| {
        suite::run_sim_seq(
            spec.localities,
            spec.window,
            spec.ops_per_loc(args.div),
            args.seed,
            &mut scratch,
        )
    });

    let first = &reps[0];
    let mut stable = reps.iter().all(|r| same_simulation(r, first));
    if let Some(t) = &twin {
        if t.trace_hash != first.trace_hash || t.raw.events != first.raw.events {
            eprintln!(
                "CHECK FAILED workload={} trace_hash at 1 lane {:#x} != at 2 lanes {:#x}",
                spec.name, t.trace_hash, first.trace_hash
            );
            stable = false;
        }
    }
    if !stable {
        eprintln!(
            "CHECK FAILED workload={} repetitions disagree on trace hash / event count",
            spec.name
        );
    }
    let mut all: Vec<&Rep> = reps.iter().collect();
    all.extend(twin.as_ref());
    let failed_checks = report_failures(spec.name, &all);

    let setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let rate: Vec<f64> = reps.iter().map(Rep::ops_per_s).collect();
    let (setup_s, setup_spread) = report::median_spread(&setup);
    let (ops_per_s, rate_spread) = report::median_spread(&rate);
    let lat = twin.as_ref().unwrap_or(first);

    let mut v = Values::new(END_TO_END);
    // Host figures in reference-host seconds: measured time × host speed.
    v.set("setup_s", setup_s * speed);
    v.set("host_ops_per_s", ops_per_s / speed);
    v.set("peak_rss_mb", peak_rss_mb);
    v.set("sim_ns_per_op", first.sim_ns_per_op());
    v.set("sim_op_p999_ns", lat.lat_p999_ns as f64);

    let attempted: u64 = reps.iter().map(|r| r.issued).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let correct = stable && !failed_checks && failed == 0;
    println!(
        "info workload={} seed={} reps={} ops_per_rep={} timed_phase_s={:.3} lat_samples={} \
         trace_hash={:#018x} events={} host_speed={:.4} raw_host_ops_per_s={:.1}",
        spec.name,
        args.seed,
        reps.len(),
        first.completed,
        report::median_spread(&reps.iter().map(|r| r.host_s).collect::<Vec<_>>()).0,
        lat.lat_samples,
        first.trace_hash,
        first.raw.events,
        speed,
        ops_per_s,
    );
    println!("spread setup_s {setup_spread}");
    println!("spread host_ops_per_s {rate_spread}");
    v.print_lines();
    println!("{}", v.result_json(correct, attempted, failed));
    Ok(i32::from(!correct))
}

/// `--trace 1`: one untraced and one traced repetition of the workload,
/// its depth ladder, and the single-layer microbenchmarks.
pub fn main_traced(argv: &[String]) -> Result<i32, String> {
    let args = Args::parse(argv)?;
    let spec = args.spec()?;
    let per_loc = spec.ops_per_loc(args.div);
    // The run's time budget: 5 ladder depths and 4–5 microbenchmarks.
    let depth_secs = args.seconds * 2.0 / 15.0;
    let micro_secs = args.seconds / 15.0;

    // Telemetry counters are process-wide and flush when a world drops,
    // so the timed phase's share is (set-up + timed) − (set-up only).
    let mut scratch = Scratch::default();
    let tele_a = Raw::telemetry();
    let setup_only = suite::run_rep_sized(&spec, args.seed, 0, &mut scratch, None).0;
    let tele_b = Raw::telemetry();
    let plain = suite::run_rep_sized(&spec, args.seed, per_loc, &mut scratch, None).0;
    let tele_c = Raw::telemetry();
    probe::set_counting(true);
    let (traced, rec) = suite::run_rep_sized(
        &spec,
        args.seed,
        per_loc,
        &mut scratch,
        Some(Trace {
            rec: Recorder::new(spec.name),
            makespan_ps: plain.sim_makespan_ps,
        }),
    );
    probe::set_counting(false);
    let tele_d = Raw::telemetry();
    let tele = tele_d.since(&tele_c).since(&tele_b.since(&tele_a));

    let out_dir = std::env::var("VGASBENCH_OUT").unwrap_or_else(|_| "benchmark/out".into());
    let rec = rec.expect("traced repetition returns its recorder");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{out_dir}: {e}"))?;
    let trace_path = format!("{out_dir}/{}.trace.json", spec.name);
    std::fs::write(&trace_path, rec.chrome_json()).map_err(|e| format!("{trace_path}: {e}"))?;

    let steps = ladder::run(&spec, args.seed, args.div, depth_secs, &mut scratch);
    let twin = (spec.kind == Kind::GupsLanes2).then(|| {
        suite::run_sim_seq(
            spec.localities,
            spec.window,
            per_loc,
            args.seed,
            &mut scratch,
        )
    });
    let barrier_ns = if spec.kind == Kind::GupsLanes2 {
        micro::barrier_ns_per_window(micro_secs, 2)
    } else {
        0.0
    };

    let r = &traced.raw;
    let ops = traced.completed.max(1) as f64;
    let per_op = |x: u64| x as f64 / ops;
    let n = f64::from(spec.localities);
    let makespan_ps = traced.sim_makespan_ps.max(1) as f64;
    let stable = same_simulation(&plain, &traced);

    let mut v = Values::new(PER_LAYER);
    v.set("target_cpu_ns_per_op", r.cpu_busy_ps as f64 / 1e3 / ops);
    v.set(
        "ops_failed_ratio",
        ratio(traced.failed as f64, traced.issued as f64),
    );
    v.set("sim_trace_hash_stable", f64::from(u8::from(stable)));
    let lat = twin.as_ref().unwrap_or(&plain);
    v.set("sim_op_p50_ns", lat.lat_p50_ns as f64);
    v.set("sim_op_p99_ns", lat.lat_p99_ns as f64);

    v.set("engine.events_per_op", per_op(r.events));
    v.set(
        "engine.host_ns_per_event",
        ratio(traced.host_s * 1e9, r.events as f64),
    );
    v.set(
        "engine.host_events_per_s",
        ratio(r.events as f64, traced.host_s),
    );
    v.set("engine.micro_dispatch_ns", micro::dispatch_ns(micro_secs));
    v.set("engine.micro_chain_ns", micro::chain_ns(micro_secs));

    v.set("netsim.wire_msgs_per_op", per_op(r.wire_msgs()));
    v.set("netsim.wire_bytes_per_op", per_op(r.bytes_sent));
    v.set(
        "netsim.nic_tx_util",
        r.nic_tx_busy_ps as f64 / (n * makespan_ps),
    );
    v.set(
        "netsim.nic_rx_util",
        r.nic_rx_busy_ps as f64 / (n * makespan_ps),
    );
    v.set("netsim.xlate_lookups_per_op", per_op(tele.xlate_lookups));
    v.set(
        "netsim.xlate_probes_per_lookup",
        ratio(tele.xlate_probes as f64, tele.xlate_lookups as f64),
    );
    v.set(
        "netsim.xlate_hit_ratio",
        ratio(
            r.xlate_hits as f64,
            (r.xlate_hits + r.xlate_misses + r.xlate_forwards) as f64,
        ),
    );
    v.set("netsim.xlate_evictions_per_op", per_op(r.xlate_evictions));
    v.set("netsim.nic_forwards_per_op", per_op(r.xlate_forwards));
    v.set("netsim.nacks_per_op", per_op(r.nacks_sent));
    v.set("netsim.micro_xlate_hit_ns", micro::xlate_hit_ns(micro_secs));
    v.set(
        "netsim.micro_xlate_churn_ns",
        micro::xlate_churn_ns(micro_secs),
    );
    v.set("netsim.amo_executed_per_op", per_op(r.amo_executed));
    v.set("netsim.amo_replays_per_op", per_op(r.amo_replays));
    v.set("netsim.ring_doorbells_per_op", per_op(tele.ring_doorbells));
    v.set(
        "netsim.ring_descs_per_doorbell",
        ratio(tele.ring_descs as f64, tele.ring_doorbells as f64),
    );
    v.set(
        "netsim.ring_coalesced_ratio",
        ratio(tele.ring_coalesced as f64, tele.ring_descs as f64),
    );

    let shard = plain.shard.as_ref();
    v.set(
        "shard.speedup_vs_seq",
        twin.as_ref().map_or(0.0, |t| t.host_s / plain.host_s),
    );
    v.set(
        "shard.sync_overhead",
        shard.map_or(0.0, netsim::ShardStats::sync_overhead),
    );
    v.set(
        "shard.windows_per_kop",
        shard.map_or(0.0, |s| s.windows as f64 * 1e3 / ops),
    );
    v.set(
        "shard.lane_util_min",
        shard.map_or(0.0, |s| {
            s.utilization().into_iter().fold(f64::INFINITY, f64::min)
        }),
    );
    v.set("shard.barrier_ns_per_empty_window", barrier_ns);
    v.set(
        "shard.trace_hash_equal",
        twin.as_ref().map_or(0.0, |t| {
            f64::from(u8::from(t.trace_hash == plain.trace_hash))
        }),
    );

    v.set("photon.pwc_ops_per_op", per_op(r.pwc_ops));
    v.set("photon.eager_sends_per_op", per_op(r.eager_sends));
    v.set("photon.rdv_sends_per_op", per_op(r.rdv_sends));
    v.set("photon.stalled_sends_per_op", per_op(r.stalled_sends));
    v.set(
        "photon.rcache_hit_ratio",
        ratio(
            r.rcache_hits as f64,
            (r.rcache_hits + r.rcache_misses) as f64,
        ),
    );

    v.set(
        "agas.remote_ratio",
        ratio(r.remote_ops as f64, (r.local_ops + r.remote_ops) as f64),
    );
    v.set("agas.retries_per_op", per_op(r.retries));
    v.set("agas.dir_queries_per_op", per_op(r.dir_queries));
    v.set("agas.memo_hits_per_op", per_op(tele.memo_hits));
    v.set("agas.sw_handlers_per_op", per_op(r.sw_handled));
    v.set("agas.sw_fallbacks_per_op", per_op(r.sw_fallbacks));
    v.set("agas.migrations", r.migrations_in as f64);
    v.set(
        "agas.migrate_sim_us_p50",
        traced.migrate_p50_ps as f64 / 1e6,
    );
    v.set("agas.stale_completions", r.stale_completions as f64);

    v.set("parcel-rt.parcels_per_op", per_op(r.parcels_sent));
    v.set(
        "parcel-rt.parcels_forwarded_per_op",
        per_op(r.parcels_forwarded),
    );
    v.set("parcel-rt.lco_ops_per_op", per_op(r.lco_ops));
    v.set(
        "parcel-rt.parcels_per_batch",
        ratio(r.parcel_ring_descs as f64, r.batches_sent as f64),
    );
    v.set(
        "parcel-rt.action_cpu_ns_per_op",
        r.action_cpu_ps as f64 / 1e3 / ops,
    );

    // The ladder: each layer is its depth minus the depth beneath. The
    // engine has no cost model of its own, so the simulated ladder starts
    // at the netsim depth.
    for (i, name) in ladder::DEPTHS.iter().enumerate() {
        let (host_below, sim_below, allocs_below) = if i == 0 {
            (0.0, 0.0, 0.0)
        } else {
            let b = &steps[i - 1];
            let sim = if i == 1 { 0.0 } else { b.sim_ns_per_op };
            (b.host_ns_per_op, sim, b.allocs_per_op)
        };
        let s = &steps[i];
        v.set(
            &format!("{name}.ladder_host_ns_per_op"),
            s.host_ns_per_op - host_below,
        );
        v.set(
            &format!("{name}.ladder_allocs_per_op"),
            s.allocs_per_op - allocs_below,
        );
        if i > 0 {
            v.set(
                &format!("{name}.ladder_sim_ns_per_op"),
                s.sim_ns_per_op - sim_below,
            );
        }
        println!(
            "ladder {name} depth_host_ns_per_op={:.2} spread={:.4} depth_sim_ns_per_op={:.3} \
             depth_allocs_per_op={:.3} depth_events_per_op={:.3} reps={} exact={} failed={}",
            s.host_ns_per_op,
            s.host_spread,
            s.sim_ns_per_op,
            s.allocs_per_op,
            s.events_per_op,
            s.reps,
            s.exact,
            s.failed
        );
    }
    let top = &steps[4];
    let plain_host_ns = plain.host_s * 1e9 / plain.completed.max(1) as f64;
    v.set(
        "agas.churn_surcharge_host_ns_per_op",
        plain_host_ns - top.host_ns_per_op,
    );
    v.set(
        "agas.churn_surcharge_sim_ns_per_op",
        plain.sim_ns_per_op() - top.sim_ns_per_op,
    );

    v.set("bench.issue_host_ns_per_op", traced.issue_ns as f64 / ops);
    v.set(
        "bench.drain_host_share",
        ratio(
            traced.drain_ns.saturating_sub(traced.issue_ns) as f64,
            traced.host_s * 1e9,
        ),
    );
    v.set("bench.allocs_per_op", per_op(traced.allocs));
    v.set("bench.alloc_bytes_per_op", per_op(traced.alloc_bytes));
    v.set(
        "bench.trace_overhead_ratio",
        ratio(traced.ops_per_s(), plain.ops_per_s()),
    );
    v.set(
        "bench.ladder_top_vs_workload_ratio",
        ratio(top.host_ns_per_op, plain_host_ns),
    );

    let mut all = vec![&setup_only, &plain, &traced];
    all.extend(twin.as_ref());
    let failed_checks = report_failures(spec.name, &all);
    let ladder_failed: u64 = steps.iter().map(|s| s.failed).sum();
    if ladder_failed != 0 || steps.iter().any(|s| !s.exact) {
        eprintln!(
            "CHECK FAILED workload={} ladder: {ladder_failed} ops failed or a depth's \
             simulated result changed between repetitions",
            spec.name
        );
    }
    let failed = plain.failed + traced.failed + ladder_failed;
    let correct = stable
        && !failed_checks
        && failed == 0
        && steps.iter().all(|s| s.exact)
        && twin
            .as_ref()
            .is_none_or(|t| t.trace_hash == plain.trace_hash);
    println!(
        "info workload={} seed={} ops={} timed_phase_s={:.3} untraced_ops_per_s={:.1} \
         trace_file={trace_path}",
        spec.name,
        args.seed,
        traced.completed,
        traced.host_s,
        plain.ops_per_s()
    );
    v.print_lines();
    println!(
        "{}",
        v.result_json(correct, plain.issued + traced.issued, failed)
    );
    Ok(i32::from(!correct))
}
