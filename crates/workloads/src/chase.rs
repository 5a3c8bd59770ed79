//! Distributed pointer chase: a dependent chain of remote accesses.
//!
//! A global array of `u64` cells encodes a random permutation cycle; the
//! walker follows `hops` links, each hop requiring the previous hop's
//! result. Nothing pipelines, so total time ÷ hops is the *full* remote
//! access latency of the active GAS mode — the sharpest translation-cost
//! amplifier available.

use agas::{Distribution, GlobalArray};
use netsim::rng::Xoshiro256;
use netsim::Time;
use parcel_rt::Runtime;
use std::cell::RefCell;
use std::rc::Rc;

/// Pointer-chase configuration.
#[derive(Clone, Copy, Debug)]
pub struct ChaseConfig {
    /// Total cells in the global ring.
    pub cells: u64,
    /// Hops to walk.
    pub hops: u64,
    /// Block size class.
    pub block_class: u8,
    /// Permutation seed.
    pub seed: u64,
}

impl Default for ChaseConfig {
    fn default() -> ChaseConfig {
        ChaseConfig {
            cells: 1 << 10,
            hops: 256,
            block_class: 12,
            seed: 0xC4A5E,
        }
    }
}

/// Pointer-chase outcome.
#[derive(Clone, Copy, Debug)]
pub struct ChaseResult {
    /// Hops completed.
    pub hops: u64,
    /// Total simulated time.
    pub elapsed: Time,
    /// Mean latency per hop.
    pub per_hop: Time,
    /// Final cell index reached (correctness check).
    pub final_cell: u64,
}

/// Allocate the ring and write a seeded random cycle into it (driver-time
/// setup; charges no simulated time).
pub fn build_ring(rt: &mut Runtime, cfg: &ChaseConfig) -> GlobalArray {
    let total_bytes = cfg.cells * 8;
    let n_blocks = total_bytes.div_ceil(1 << cfg.block_class);
    let arr = rt.alloc(n_blocks, cfg.block_class, Distribution::Cyclic);
    // Sattolo's algorithm: a single cycle visiting every cell.
    let mut perm: Vec<u64> = (0..cfg.cells).collect();
    let mut rng = Xoshiro256::seed_from_u64(cfg.seed);
    for i in (1..perm.len()).rev() {
        let j = rng.next_below(i as u64) as usize;
        perm.swap(i, j);
    }
    let mut next = vec![0u64; cfg.cells as usize];
    for i in 0..perm.len() {
        next[perm[i] as usize] = perm[(i + 1) % perm.len()];
    }
    for (cell, &nxt) in next.iter().enumerate() {
        let gva = arr.at_byte(cell as u64 * 8);
        rt.write_block(gva.block_base(), gva.offset(), &nxt.to_le_bytes());
    }
    arr
}

/// Compute the expected cell after `hops` hops from cell 0 (oracle).
pub fn expected_final(rt: &Runtime, ring: &GlobalArray, cfg: &ChaseConfig) -> u64 {
    let mut cur = 0u64;
    for _ in 0..cfg.hops {
        let gva = ring.at_byte(cur * 8);
        let block = rt.read_block(gva.block_base());
        let off = gva.offset() as usize;
        cur = u64::from_le_bytes(block[off..off + 8].try_into().unwrap());
    }
    cur
}

/// Walk the ring with dependent `memget`s issued from locality 0.
pub fn run_memget(rt: &mut Runtime, cfg: &ChaseConfig, ring: &GlobalArray) -> ChaseResult {
    let start = rt.now();
    let result: Rc<RefCell<Option<u64>>> = Rc::new(RefCell::new(None));

    struct Walk {
        ring: GlobalArray,
        remaining: u64,
        cur: u64,
        out: Rc<RefCell<Option<u64>>>,
    }
    fn step(eng: &mut netsim::Engine<parcel_rt::World>, st: Rc<RefCell<Walk>>) {
        let (gva, done) = {
            let s = st.borrow();
            if s.remaining == 0 {
                (agas::Gva::NULL, true)
            } else {
                (s.ring.at_byte(s.cur * 8), false)
            }
        };
        if done {
            let s = st.borrow();
            *s.out.borrow_mut() = Some(s.cur);
            return;
        }
        let st2 = st.clone();
        let ctx = eng
            .state
            .new_completion(parcel_rt::Completion::Driver(Box::new(move |eng, data| {
                let next = u64::from_le_bytes(data.try_into().unwrap());
                {
                    let mut s = st2.borrow_mut();
                    s.cur = next;
                    s.remaining -= 1;
                }
                step(eng, st2.clone());
            })));
        agas::ops::memget(eng, 0, gva, 8, ctx);
    }

    let st = Rc::new(RefCell::new(Walk {
        ring: ring.clone(),
        remaining: cfg.hops,
        cur: 0,
        out: result.clone(),
    }));
    step(&mut rt.eng, st);
    rt.run();
    let final_cell = result.borrow().expect("chase did not finish");
    let elapsed = rt.now() - start;
    ChaseResult {
        hops: cfg.hops,
        elapsed,
        per_hop: elapsed / cfg.hops.max(1),
        final_cell,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agas::GasMode;

    fn small() -> ChaseConfig {
        ChaseConfig {
            cells: 128,
            hops: 40,
            block_class: 9, // 64 cells per block
            seed: 7,
        }
    }

    #[test]
    fn memget_chase_follows_the_cycle() {
        for mode in GasMode::ALL {
            let cfg = small();
            let mut rt = Runtime::builder(4, mode).boot();
            let ring = build_ring(&mut rt, &cfg);
            let expect = expected_final(&rt, &ring, &cfg);
            let res = run_memget(&mut rt, &cfg, &ring);
            assert_eq!(res.final_cell, expect, "{mode:?}");
            assert!(res.per_hop > Time::ZERO);
        }
    }

    #[test]
    fn dependent_chain_costs_scale_with_hops() {
        let mut rt = Runtime::builder(4, GasMode::AgasNetwork).boot();
        let cfg_short = ChaseConfig {
            hops: 10,
            ..small()
        };
        let ring = build_ring(&mut rt, &cfg_short);
        let short = run_memget(&mut rt, &cfg_short, &ring);

        let mut rt2 = Runtime::builder(4, GasMode::AgasNetwork).boot();
        let cfg_long = ChaseConfig {
            hops: 40,
            ..small()
        };
        let ring2 = build_ring(&mut rt2, &cfg_long);
        let long = run_memget(&mut rt2, &cfg_long, &ring2);
        // 4x the hops: at least ~3x the time (local/remote hop mix varies
        // along the walk, so leave slack).
        assert!(
            long.elapsed > short.elapsed * 2,
            "{} vs {}",
            long.elapsed,
            short.elapsed
        );
    }

    #[test]
    fn sw_pays_more_per_hop_than_net() {
        let cfg = small();
        let per_hop = |mode| {
            let mut rt = Runtime::builder(4, mode).boot();
            let ring = build_ring(&mut rt, &cfg);
            run_memget(&mut rt, &cfg, &ring).per_hop
        };
        let sw = per_hop(GasMode::AgasSoftware);
        let net = per_hop(GasMode::AgasNetwork);
        assert!(sw > net, "sw={sw} net={net}");
    }
}
