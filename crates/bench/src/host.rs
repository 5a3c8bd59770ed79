//! What the host's hardware threads share — the fact every recorded
//! wall-clock point depends on.
//!
//! A loop bound by ALU throughput (twelve independent rotate-xor-add
//! chains: more than the core has ports for, no memory traffic) is timed
//! alone, then as two copies started together on two threads. Two physical
//! cores run the pair in the time of one; two hardware threads of one core
//! share its execution ports and each copy takes up to twice as long — and
//! so do two shard lanes.
//!
//! The reference host is shared and its vCPUs are not pinned, so the
//! answer moves with time: the probe alternates the two measurements for a
//! few rounds and reports the median round's ratio with the extremes.

use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

const ITERS: u64 = 40_000_000;
/// Rounds of alone-then-paired the probe runs.
pub const ROUNDS: usize = 7;

/// The host probe's readings.
#[derive(Clone, Copy, Debug)]
pub struct HostProbe {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// How much longer the slower of two concurrent copies takes than the
    /// loop alone, per round, sorted: 1.0 on two real cores, towards 2.0 on
    /// two threads of one.
    pub paired_ratios: [f64; ROUNDS],
}

impl HostProbe {
    /// The median round's ratio.
    pub fn paired_ratio(&self) -> f64 {
        self.paired_ratios[ROUNDS / 2]
    }
}

fn alu_loop() -> f64 {
    let t0 = Instant::now();
    let mut x = black_box([1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]);
    for i in 0..ITERS {
        for v in &mut x {
            *v = (v.rotate_left(7) ^ i).wrapping_add(*v >> 3);
        }
    }
    black_box(x);
    t0.elapsed().as_secs_f64()
}

/// Time the loop alone and as a pair, [`ROUNDS`] times over.
pub fn probe_host() -> HostProbe {
    let start = Barrier::new(2);
    let twin = || {
        start.wait();
        alu_loop()
    };
    let mut paired_ratios = [0.0; ROUNDS];
    for ratio in &mut paired_ratios {
        let alone = alu_loop();
        let pair = std::thread::scope(|s| {
            let other = s.spawn(twin);
            twin().max(other.join().expect("probe thread panicked"))
        });
        *ratio = pair / alone;
    }
    paired_ratios.sort_by(f64::total_cmp);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    HostProbe {
        nproc,
        paired_ratios,
    }
}
