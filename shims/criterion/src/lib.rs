//! Offline stand-in for the `criterion` crate.
//!
//! Provides the `Criterion` / `BenchmarkGroup` / `Bencher` API surface the
//! workspace's benches use, backed by a simple calibrated wall-clock timer:
//! each benchmark is warmed up, the iteration count is doubled until one
//! sample takes long enough to time reliably, and the median of several
//! samples is reported as `ns/iter` (with iterations/sec alongside).
//! No statistics beyond that — this harness exists so `cargo bench` runs
//! hermetically offline; trend tracking lives in the repository benchmark
//! (`benchmark/`).

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Per-sample target time once calibrated.
const TARGET_SAMPLE: Duration = Duration::from_millis(20);
/// Default number of measured samples per benchmark.
const DEFAULT_SAMPLES: usize = 10;

/// The benchmark harness entry point.
pub struct Criterion {
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Criterion {
        // cargo/criterion pass flags (--bench, --save-baseline, ...); the
        // first bare argument, if any, is a substring filter.
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Criterion { filter }
    }
}

impl Criterion {
    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            samples: DEFAULT_SAMPLES,
            filter: self.filter.clone(),
            _parent: std::marker::PhantomData,
        }
    }
}

/// A named benchmark id with an optional parameter (`name/param`).
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id rendered as `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> BenchmarkId {
        BenchmarkId {
            id: format!("{}/{}", name.into(), parameter),
        }
    }
}

/// A group of benchmarks sharing a name prefix and sample settings.
pub struct BenchmarkGroup<'a> {
    name: String,
    samples: usize,
    filter: Option<String>,
    _parent: std::marker::PhantomData<&'a mut Criterion>,
}

impl BenchmarkGroup<'_> {
    /// Set the number of measured samples (criterion compatibility).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.clamp(2, 100);
        self
    }

    /// Run one benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into());
        self.run(&full, &mut f);
        self
    }

    /// Run one benchmark that takes an input by reference.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.id);
        self.run(&full, &mut |b: &mut Bencher| f(b, input));
        self
    }

    fn run(&mut self, full: &str, f: &mut dyn FnMut(&mut Bencher)) {
        if let Some(filter) = &self.filter {
            if !full.contains(filter.as_str()) {
                return;
            }
        }
        let mut b = Bencher {
            samples: self.samples,
            ns_per_iter: None,
        };
        f(&mut b);
        match b.ns_per_iter {
            Some(ns) if ns > 0.0 => {
                println!("{full:<44} {ns:>14.1} ns/iter {:>14.0} iter/s", 1e9 / ns);
            }
            _ => println!("{full:<44} (no measurement)"),
        }
    }

    /// Finish the group (criterion compatibility; nothing to flush).
    pub fn finish(self) {}
}

/// Times a closure; handed to each benchmark function.
pub struct Bencher {
    samples: usize,
    ns_per_iter: Option<f64>,
}

impl Bencher {
    /// Measure `f`, recording the median ns-per-iteration.
    pub fn iter<R, F>(&mut self, mut f: F)
    where
        F: FnMut() -> R,
    {
        // Warm-up + calibration: double the batch until it takes long
        // enough to time reliably.
        let mut iters = 1u64;
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            let elapsed = t.elapsed();
            if elapsed >= TARGET_SAMPLE || iters >= 1 << 30 {
                break;
            }
            let grow = if elapsed < TARGET_SAMPLE / 16 { 8 } else { 2 };
            iters = iters.saturating_mul(grow);
        }
        let mut per_iter: Vec<f64> = (0..self.samples)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(f());
                }
                t.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        per_iter.sort_by(f64::total_cmp);
        self.ns_per_iter = Some(per_iter[per_iter.len() / 2]);
    }
}

/// Bundles benchmark functions into a runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Generates `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::default();
            $($group(&mut c);)+
        }
    };
}
