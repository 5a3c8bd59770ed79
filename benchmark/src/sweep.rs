//! `run.sh` without `--workload`: run every workload, each in its own
//! process (untraced, then traced), gather the `metric` lines, print them
//! as `workload name value unit`, and write `results.json`.
//!
//! * default — one full set;
//! * `--check` — every workload twice at 1/32 size, asserting every exact
//!   metric (simulated time, counts, trace hash) is bit-equal;
//! * `--aa` — two full untraced sets of the same build back to back, each
//!   end-to-end metric's difference printed against its bound.

use crate::report::{Better, MetricDef, END_TO_END, PER_LAYER};
use crate::suite::WORKLOADS;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

/// One child process's parsed output.
#[derive(Default)]
struct Run {
    /// Metric name → value, as printed (text, so equality is bit-exact).
    metrics: BTreeMap<String, (String, String)>,
    spreads: BTreeMap<String, f64>,
    /// `info`/`ladder` lines, verbatim.
    notes: Vec<String>,
    ok: bool,
}

impl Run {
    fn value(&self, name: &str) -> f64 {
        self.metrics
            .get(name)
            .and_then(|(v, _)| v.parse().ok())
            .unwrap_or(f64::NAN)
    }
}

fn child(traced: bool, workload: &str, seed: u64, seconds: f64, div: u64) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin = if traced {
        exe.with_file_name("vgasbench-trace")
    } else {
        exe
    };
    let out = Command::new(&bin)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--div", &div.to_string()])
        .output()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let mut run = Run {
        ok: out.status.success(),
        ..Run::default()
    };
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["metric", name, value, unit] => {
                run.metrics
                    .insert((*name).into(), ((*value).into(), (*unit).into()));
            }
            ["spread", name, value] => {
                run.spreads
                    .insert((*name).into(), value.parse().unwrap_or(f64::NAN));
            }
            ["info" | "ladder", ..] => run.notes.push(line.to_string()),
            _ => {}
        }
    }
    if !run.ok {
        eprintln!(
            "FAILED workload={workload} traced={traced}: exit status {}",
            out.status
        );
    }
    Ok(run)
}

fn print_run(workload: &str, run: &Run, defs: &[MetricDef]) {
    for note in &run.notes {
        println!("{workload} {note}");
    }
    for d in defs {
        if let Some((v, unit)) = run.metrics.get(d.name) {
            match run.spreads.get(d.name) {
                Some(s) => println!("{workload} {} {v} {unit} spread={s:.4}", d.name),
                None => println!("{workload} {} {v} {unit}", d.name),
            }
        }
    }
}

/// The host facts every result set records.
fn environment() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let loadavg = std::fs::read_to_string("/proc/loadavg")
        .unwrap_or_default()
        .trim()
        .to_string();
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("nproc", nproc.to_string()),
        ("loadavg_start", loadavg),
        ("rustc", rustc),
    ]
}

fn json_run(out: &mut String, run: &Run, defs: &[MetricDef]) {
    let mut first = true;
    for d in defs {
        let Some((v, unit)) = run.metrics.get(d.name) else {
            continue;
        };
        if !first {
            out.push_str(", ");
        }
        first = false;
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {v}, \"unit\": \"{unit}\"",
            d.name
        );
        if let Some(s) = run.spreads.get(d.name) {
            let _ = write!(out, ", \"spread\": {s}");
        }
        out.push('}');
    }
}

fn write_results(
    seed: u64,
    env: &[(&'static str, String)],
    sets: &[Vec<(Run, Option<Run>)>],
) -> Result<String, String> {
    let dir = std::env::var("VGASBENCH_OUT").unwrap_or_else(|_| "benchmark/out".into());
    std::fs::create_dir_all(&dir).map_err(|e| format!("{dir}: {e}"))?;
    let mut out = format!(
        "{{\n  \"seed\": {seed},\n  \"run_seconds\": {},\n  \"claim\": null,\n",
        crate::RUN_SECONDS
    );
    for (k, v) in env {
        let _ = writeln!(out, "  \"{k}\": \"{v}\",");
    }
    out.push_str("  \"sets\": [\n");
    for (si, set) in sets.iter().enumerate() {
        out.push_str("    {\n");
        for (wi, (w, (plain, traced))) in WORKLOADS.iter().zip(set).enumerate() {
            let _ = write!(out, "      \"{}\": {{\"end_to_end\": {{", w.name);
            json_run(&mut out, plain, END_TO_END);
            out.push_str("}, \"per_layer\": {");
            if let Some(t) = traced {
                json_run(&mut out, t, PER_LAYER);
            }
            out.push_str("}}");
            out.push_str(if wi + 1 < set.len() { ",\n" } else { "\n" });
        }
        out.push_str(if si + 1 < sets.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ]\n}\n");
    let path = format!("{dir}/results.json");
    std::fs::write(&path, out).map_err(|e| format!("{path}: {e}"))?;
    Ok(path)
}

/// Every exact metric of `a` equals `b`'s, textually.
fn exact_mismatches(workload: &str, a: &Run, b: &Run, defs: &[MetricDef]) -> Vec<String> {
    defs.iter()
        .filter(|d| d.exact)
        .filter_map(|d| {
            let (x, y) = (a.metrics.get(d.name)?, b.metrics.get(d.name)?);
            (x.0 != y.0).then(|| format!("{workload} {}: {} != {}", d.name, x.0, y.0))
        })
        .collect()
}

fn trace_hash(run: &Run) -> Option<&str> {
    run.notes
        .iter()
        .flat_map(|n| n.split_whitespace())
        .find_map(|f| f.strip_prefix("trace_hash="))
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative = better).
fn worsening(d: &MetricDef, first: f64, second: f64) -> f64 {
    match d.better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

pub fn main(argv: &[String]) -> Result<i32, String> {
    let mut seed = 42u64;
    let (mut check, mut aa) = (false, false);
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--check" => check = true,
            "--aa" => aa = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let env = environment();
    for (k, v) in &env {
        println!("env {k} {v}");
    }
    let mut bad = 0usize;

    if check {
        if let Ok(on_disk) = std::fs::read_to_string("BENCHMARK.json") {
            if on_disk != crate::report::manifest(crate::RUN_SECONDS) {
                eprintln!("FAILED BENCHMARK.json differs from `vgasbench manifest`");
                bad += 1;
            }
        }
        for w in &WORKLOADS {
            let mut pair = Vec::new();
            for _ in 0..2 {
                let plain = child(false, w.name, seed, 0.5, 32)?;
                let traced = child(true, w.name, seed, 0.5, 32)?;
                bad += usize::from(!plain.ok) + usize::from(!traced.ok);
                pair.push((plain, traced));
            }
            let mut diffs = exact_mismatches(w.name, &pair[0].0, &pair[1].0, END_TO_END);
            diffs.extend(exact_mismatches(w.name, &pair[0].1, &pair[1].1, PER_LAYER));
            if trace_hash(&pair[0].0) != trace_hash(&pair[1].0) {
                diffs.push(format!("{} trace_hash differs between runs", w.name));
            }
            for d in &diffs {
                eprintln!("FAILED exact metric not bit-equal: {d}");
            }
            bad += diffs.len();
            println!(
                "check {} {}",
                w.name,
                if diffs.is_empty() {
                    "exact metrics bit-equal"
                } else {
                    "MISMATCH"
                }
            );
        }
        return Ok(i32::from(bad != 0));
    }

    let mut sets = Vec::new();
    for _ in 0..if aa { 2 } else { 1 } {
        let mut set = Vec::new();
        for w in &WORKLOADS {
            let plain = child(false, w.name, seed, crate::RUN_SECONDS as f64, 1)?;
            bad += usize::from(!plain.ok);
            print_run(w.name, &plain, END_TO_END);
            let traced = if aa {
                None
            } else {
                let t = child(true, w.name, seed, crate::RUN_SECONDS as f64, 1)?;
                bad += usize::from(!t.ok);
                print_run(w.name, &t, PER_LAYER);
                Some(t)
            };
            set.push((plain, traced));
        }
        sets.push(set);
    }
    if aa {
        println!(
            "aa workload metric first second worsening bound verdict spread_first spread_second"
        );
        for (w, (a, b)) in WORKLOADS.iter().zip(sets[0].iter().zip(&sets[1])) {
            let (a, b) = (&a.0, &b.0);
            for d in END_TO_END {
                let (x, y) = (a.value(d.name), b.value(d.name));
                let worse = worsening(d, x, y);
                let bound = d.bound.unwrap_or(0.0);
                let within = worse <= bound;
                bad += usize::from(!within);
                println!(
                    "aa {} {} {x} {y} {worse:+.4} {bound} {} {:.4} {:.4}",
                    w.name,
                    d.name,
                    if within { "within" } else { "EXCEEDS" },
                    a.spreads.get(d.name).copied().unwrap_or(0.0),
                    b.spreads.get(d.name).copied().unwrap_or(0.0),
                );
            }
            for m in exact_mismatches(w.name, a, b, END_TO_END) {
                eprintln!("FAILED exact metric not bit-equal between sets: {m}");
                bad += 1;
            }
        }
    }
    let path = write_results(seed, &env, &sets)?;
    println!("results {path}");
    Ok(i32::from(bad != 0))
}
