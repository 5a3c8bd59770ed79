//! A host-speed probe, so that slow phases of a shared sandbox cancel.
//!
//! The reference host is a 2-vCPU microVM whose speed drops by 30–40 % for
//! minutes at a time (a neighbour on the same core complex; nothing shows
//! in the guest's steal counter). In one hour of measurement such phases
//! hit 8 of 50 consecutive 15-second runs, and no amount of repetition
//! inside a run averages them away. So every *bounded* host-time figure is
//! scaled by how fast a fixed, benchmark-owned loop ran during the same
//! run. The loop touches no library code — a change under test can never
//! move it — and mixes what the simulator mixes: dependent loads over a
//! 1 MiB table, integer hashing, and small heap allocations.
//!
//! What it costs: logged beside the workloads over 17 minutes of quiet and
//! slow phases, scaling cut the spread of 15-second windows from 17 % to
//! 6 %; in a purely quiet phase it *adds* noise (about ±3.5 % where the
//! raw rate holds ±1.5 %), because the machine's second-by-second jitter
//! hits the probe and the workload independently. The raw rate and the
//! measured speed are printed on every run's `info` line.

use netsim::rng::mix64;
use std::hint::black_box;
use std::time::Instant;

/// Probe cost per iteration on the reference host in a quiet phase. A host
/// at this speed reports a speed of 1. The constant only fixes the unit
/// (reference-host seconds); it cancels out of every A/B comparison.
pub const CALIB_REF_NS: f64 = 14.0;

const TABLE_WORDS: usize = 1 << 17; // 1 MiB
const ITERS: u64 = 1 << 19;

pub struct Calib {
    table: Vec<u64>,
    state: u64,
    /// ns per iteration of every probe taken so far.
    probes: Vec<f64>,
}

impl Default for Calib {
    fn default() -> Calib {
        Calib {
            table: (0..TABLE_WORDS as u64).map(mix64).collect(),
            state: 1,
            probes: Vec::new(),
        }
    }
}

impl Calib {
    /// Run the fixed loop once (≈8 ms) and record its ns per iteration.
    pub fn probe(&mut self) {
        // Untimed sweep first, so the timed chase starts from the same
        // cache state whatever the simulator left behind.
        black_box(self.table.iter().fold(0u64, |a, &w| a ^ w));
        let t = Instant::now();
        let mut x = self.state;
        let mut keep: Vec<Box<[u64; 4]>> = Vec::with_capacity(64);
        for i in 0..ITERS {
            x = mix64(x ^ self.table[x as usize & (TABLE_WORDS - 1)]);
            if i % 8 == 0 {
                if keep.len() == 64 {
                    keep.clear();
                }
                keep.push(Box::new([x; 4]));
            }
        }
        self.state = black_box(x);
        black_box(&keep);
        self.probes
            .push(t.elapsed().as_nanos() as f64 / ITERS as f64);
    }

    /// Host speed over the probes so far, relative to the quiet reference
    /// host (1 = as fast; 0.65 = a slow phase). The median probe, to match
    /// the median repetition it scales: when a phase changes mid-run both
    /// medians fall in the majority phase, where a mean would mix the two.
    pub fn speed(&self) -> f64 {
        if self.probes.is_empty() {
            return 1.0;
        }
        let mut sorted = self.probes.clone();
        sorted.sort_by(f64::total_cmp);
        CALIB_REF_NS / crate::report::median_sorted(&sorted)
    }
}
