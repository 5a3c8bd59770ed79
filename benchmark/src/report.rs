//! Metric definitions (the single source `BENCHMARK.json` is generated
//! from), small statistics helpers, and the result-line encoding.

use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// One named metric. `bound` is set for end-to-end metrics only: the
/// share of the parent's median by which the metric may worsen. `exact`
/// marks values that must repeat bit for bit for a seed (simulated time
/// and counts) — `run.sh --check` compares exactly those.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, exact: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, on both clocks. Same names on every
/// workload. Each bound is at least three times the metric's ten-seed
/// interquartile spread on the reference host (`point0.json`).
/// (`target_cpu_ns_per_op`, `ops_failed_ratio`, `sim_trace_hash_stable`,
/// `sim_op_p50_ns` and `sim_op_p99_ns` are 0, constant, or unsteady across
/// seeds on some workload, which the benchmark contract forbids for
/// bounded metrics; they are reported with the traced metrics instead,
/// and failures also gate `correct`.)
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25, false),
    e2e("host_ops_per_s", "1/s", Higher, 0.25, false),
    e2e("peak_rss_mb", "MB", Lower, 0.10, false),
    e2e("sim_ns_per_op", "ns", Lower, 0.10, true),
    e2e("sim_op_p999_ns", "ns", Lower, 0.20, true),
];

/// Single-layer metrics from the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    layer("target_cpu_ns_per_op", "ns", Lower, true),
    layer("ops_failed_ratio", "ratio", Lower, true),
    layer("sim_trace_hash_stable", "count", Higher, true),
    layer("sim_op_p50_ns", "ns", Lower, true),
    layer("sim_op_p99_ns", "ns", Lower, true),
    // engine
    layer("engine.events_per_op", "count", Lower, true),
    layer("engine.host_ns_per_event", "ns", Lower, false),
    layer("engine.host_events_per_s", "1/s", Higher, false),
    layer("engine.ladder_host_ns_per_op", "ns", Lower, false),
    layer("engine.ladder_allocs_per_op", "count", Lower, true),
    layer("engine.micro_dispatch_ns", "ns", Lower, false),
    layer("engine.micro_chain_ns", "ns", Lower, false),
    // netsim
    layer("netsim.ladder_host_ns_per_op", "ns", Lower, false),
    layer("netsim.ladder_sim_ns_per_op", "ns", Lower, true),
    layer("netsim.ladder_allocs_per_op", "count", Lower, true),
    layer("netsim.wire_msgs_per_op", "count", Lower, true),
    layer("netsim.wire_bytes_per_op", "B", Lower, true),
    layer("netsim.nic_tx_util", "ratio", Lower, true),
    layer("netsim.nic_rx_util", "ratio", Lower, true),
    layer("netsim.xlate_lookups_per_op", "count", Lower, true),
    layer("netsim.xlate_probes_per_lookup", "count", Lower, true),
    layer("netsim.xlate_hit_ratio", "ratio", Higher, true),
    layer("netsim.xlate_evictions_per_op", "count", Lower, true),
    layer("netsim.nic_forwards_per_op", "count", Lower, true),
    layer("netsim.nacks_per_op", "count", Lower, true),
    layer("netsim.micro_xlate_hit_ns", "ns", Lower, false),
    layer("netsim.micro_xlate_churn_ns", "ns", Lower, false),
    layer("netsim.amo_executed_per_op", "count", Lower, true),
    layer("netsim.amo_replays_per_op", "count", Lower, true),
    layer("netsim.ring_doorbells_per_op", "count", Lower, true),
    layer("netsim.ring_descs_per_doorbell", "count", Higher, true),
    layer("netsim.ring_coalesced_ratio", "ratio", Higher, true),
    // netsim::shard
    layer("shard.speedup_vs_seq", "ratio", Higher, false),
    layer("shard.sync_overhead", "ratio", Lower, false),
    layer("shard.windows_per_kop", "count", Lower, true),
    layer("shard.lane_util_min", "ratio", Higher, false),
    layer("shard.barrier_ns_per_empty_window", "ns", Lower, false),
    layer("shard.trace_hash_equal", "count", Higher, true),
    // photon
    layer("photon.ladder_host_ns_per_op", "ns", Lower, false),
    layer("photon.ladder_sim_ns_per_op", "ns", Lower, true),
    layer("photon.ladder_allocs_per_op", "count", Lower, true),
    layer("photon.pwc_ops_per_op", "count", Lower, true),
    layer("photon.eager_sends_per_op", "count", Lower, true),
    layer("photon.rdv_sends_per_op", "count", Lower, true),
    layer("photon.stalled_sends_per_op", "count", Lower, true),
    layer("photon.rcache_hit_ratio", "ratio", Higher, true),
    // agas
    layer("agas.ladder_host_ns_per_op", "ns", Lower, false),
    layer("agas.ladder_sim_ns_per_op", "ns", Lower, true),
    layer("agas.ladder_allocs_per_op", "count", Lower, true),
    layer("agas.remote_ratio", "ratio", Lower, true),
    layer("agas.retries_per_op", "count", Lower, true),
    layer("agas.dir_queries_per_op", "count", Lower, true),
    layer("agas.memo_hits_per_op", "count", Higher, true),
    layer("agas.sw_handlers_per_op", "count", Lower, true),
    layer("agas.sw_fallbacks_per_op", "count", Lower, true),
    layer("agas.migrations", "count", Lower, true),
    layer("agas.migrate_sim_us_p50", "us", Lower, true),
    layer("agas.stale_completions", "count", Lower, true),
    layer("agas.churn_surcharge_host_ns_per_op", "ns", Lower, false),
    layer("agas.churn_surcharge_sim_ns_per_op", "ns", Lower, true),
    // parcel-rt
    layer("parcel-rt.ladder_host_ns_per_op", "ns", Lower, false),
    layer("parcel-rt.ladder_sim_ns_per_op", "ns", Lower, true),
    layer("parcel-rt.ladder_allocs_per_op", "count", Lower, true),
    layer("parcel-rt.parcels_per_op", "count", Lower, true),
    layer("parcel-rt.parcels_forwarded_per_op", "count", Lower, true),
    layer("parcel-rt.lco_ops_per_op", "count", Lower, true),
    layer("parcel-rt.parcels_per_batch", "count", Higher, true),
    layer("parcel-rt.action_cpu_ns_per_op", "ns", Lower, true),
    // the benchmark's own cost
    layer("bench.issue_host_ns_per_op", "ns", Lower, false),
    layer("bench.drain_host_share", "ratio", Higher, false),
    layer("bench.allocs_per_op", "count", Lower, true),
    layer("bench.alloc_bytes_per_op", "B", Lower, true),
    layer("bench.trace_overhead_ratio", "ratio", Higher, false),
    layer("bench.ladder_top_vs_workload_ratio", "ratio", Higher, false),
];

pub fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// `(median, (max - min) / median)` of `values`.
pub fn median_spread(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = median_sorted(&v);
    let spread = if m != 0.0 && !v.is_empty() {
        (v[v.len() - 1] - v[0]) / m
    } else {
        0.0
    };
    (m, spread)
}

/// `a / b`, or 0 when `b` is 0 (a ratio over no events).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Measured values in definition order.
pub struct Values<'a> {
    defs: &'a [MetricDef],
    vals: Vec<Option<f64>>,
}

impl<'a> Values<'a> {
    pub fn new(defs: &'a [MetricDef]) -> Values<'a> {
        Values {
            defs,
            vals: vec![None; defs.len()],
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("unknown metric {name}"));
        self.vals[i] = Some(if value.is_finite() { value } else { 0.0 });
    }

    pub fn iter(&self) -> impl Iterator<Item = (&MetricDef, f64)> + '_ {
        self.defs.iter().zip(&self.vals).map(|(d, v)| {
            (
                d,
                v.unwrap_or_else(|| panic!("metric {} never set", d.name)),
            )
        })
    }

    /// `metric <name> <value> <unit>` lines, one per metric.
    pub fn print_lines(&self) {
        for (d, v) in self.iter() {
            println!("metric {} {} {}", d.name, v, d.unit);
        }
    }

    /// The contract's result object (printed as the last stdout line).
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
            attempted.max(1)
        );
        for (i, (d, v)) in self.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// The contents of `BENCHMARK.json`, generated from the tables above and
/// the workload list so the two cannot drift (`run.sh --check` compares).
pub fn manifest(run_seconds: u64) -> String {
    let better = |b: Better| match b {
        Higher => "higher",
        Lower => "lower",
    };
    let mut out = String::from("{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {run_seconds},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in crate::suite::WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < crate::suite::WORKLOADS.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            better(m.better),
            m.bound.expect("end-to-end metrics carry a bound")
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name,
            m.unit,
            better(m.better)
        );
    }
    out.push_str("  ]\n}\n");
    out
}
