//! Skewed global access with migration-based rebalancing (experiment E8).
//!
//! The data is allocated **blocked**, so the Zipf-hot blocks all start on
//! locality 0 — the naive-placement hotspot the paper's AGAS exists to fix.
//! Every locality then streams Zipf-distributed `memget`s at the blocks.
//! A driver-side rebalancer counts accesses per block and, every
//! `rebalance_every` accesses, asks the runtime balancer's policy
//! ([`parcel_rt::balancer::plan`]) which blocks to migrate off the
//! most-loaded locality:
//!
//! * **PGAS** — placement is frozen; locality 0's NIC serializes the hot
//!   traffic forever;
//! * **AGAS-SW** — blocks can move, but every remote access also burns
//!   target CPU, so relief is partial;
//! * **AGAS-NET** — blocks move *and* accesses stay one-sided: the fabric's
//!   aggregate bandwidth is finally usable.

use crate::driver::{pump_all, IssueFn};
use agas::{Distribution, GlobalArray};
use netsim::rng::{Xoshiro256, Zipf};
use netsim::Time;
use parcel_rt::balancer::{plan, BlockHeat};
use parcel_rt::{BalancerConfig, Runtime};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Skew workload configuration.
#[derive(Clone, Copy, Debug)]
pub struct SkewConfig {
    /// Number of data blocks.
    pub blocks: u64,
    /// Block size class.
    pub block_class: u8,
    /// Bytes read per access.
    pub read_bytes: u32,
    /// Accesses issued per locality.
    pub ops_per_loc: u64,
    /// Outstanding accesses per locality.
    pub window: usize,
    /// Zipf exponent (0 = uniform; ~0.99 = heavy skew).
    pub theta: f64,
    /// Rebalance after this many completed accesses cluster-wide
    /// (`0` disables rebalancing).
    pub rebalance_every: u64,
    /// Blocks migrated per rebalance round.
    pub moves_per_round: usize,
    /// Random seed.
    pub seed: u64,
}

impl Default for SkewConfig {
    fn default() -> SkewConfig {
        SkewConfig {
            blocks: 64,
            block_class: 13,
            read_bytes: 64,
            ops_per_loc: 1 << 10,
            window: 8,
            theta: 0.99,
            rebalance_every: 512,
            moves_per_round: 4,
            seed: 0x5EED,
        }
    }
}

/// Skew workload outcome.
#[derive(Clone, Copy, Debug)]
pub struct SkewResult {
    /// Total accesses completed.
    pub ops: u64,
    /// Simulated makespan.
    pub elapsed: Time,
    /// Accesses per simulated second.
    pub ops_per_sec: f64,
    /// Migrations the rebalancer performed.
    pub migrations: u64,
    /// Candidate moves the policy refused (they could not lower the
    /// maximum).
    pub refused: u64,
}

struct Balancer {
    owners: Vec<u32>,
    /// Accesses per block since the last rebalance round.
    heat: Vec<u64>,
    completed: u64,
    migrations: u64,
    refused: u64,
}

/// Allocate the skewed data set (blocked: hot blocks all start at loc 0).
pub fn alloc_blocks(rt: &mut Runtime, cfg: &SkewConfig) -> GlobalArray {
    rt.alloc(cfg.blocks, cfg.block_class, Distribution::Blocked)
}

/// Run the skewed-access workload.
pub fn run(rt: &mut Runtime, cfg: &SkewConfig, data: &GlobalArray) -> SkewResult {
    let n = rt.n();
    let mode = rt.mode();
    let start = rt.now();
    let zipf = Rc::new(Zipf::new(cfg.blocks as usize, cfg.theta));
    let rngs: Rc<RefCell<Vec<Xoshiro256>>> = Rc::new(RefCell::new(
        (0..n)
            .map(|l| Xoshiro256::seed_from_u64(cfg.seed ^ (l as u64) << 17))
            .collect(),
    ));
    let balancer = Rc::new(RefCell::new(Balancer {
        owners: data
            .blocks
            .iter()
            .enumerate()
            .map(|(i, _)| Distribution::Blocked.home(i as u64, cfg.blocks, n))
            .collect(),
        heat: vec![0; cfg.blocks as usize],
        completed: 0,
        migrations: 0,
        refused: 0,
    }));

    let data2 = data.clone();
    let cfgc = *cfg;
    let bal2 = balancer.clone();
    let issue: Rc<IssueFn> = Rc::new(move |eng, loc, _seq, ctx| {
        let block_idx = {
            let mut rngs = rngs.borrow_mut();
            zipf.sample(&mut rngs[loc as usize]) as u64
        };
        {
            let mut b = bal2.borrow_mut();
            b.heat[block_idx as usize] += 1;
            b.completed += 1;
            let due = cfgc.rebalance_every > 0
                && mode.supports_migration()
                && b.completed.is_multiple_of(cfgc.rebalance_every);
            if due {
                rebalance(eng, &mut b, &data2, &cfgc, loc);
            }
        }
        let gva = data2.block(block_idx);
        agas::ops::memget(eng, loc, gva, cfgc.read_bytes, ctx);
    });

    let finished = Rc::new(Cell::new(false));
    let f2 = finished.clone();
    pump_all(
        &mut rt.eng,
        n,
        cfg.ops_per_loc,
        cfg.window,
        issue,
        move |_| f2.set(true),
    );
    rt.run();
    assert!(finished.get(), "skew workload did not drain");

    let elapsed = rt.now() - start;
    let ops = cfg.ops_per_loc * n as u64;
    let b = balancer.borrow();
    SkewResult {
        ops,
        elapsed,
        ops_per_sec: ops as f64 / elapsed.as_secs_f64(),
        migrations: b.migrations,
        refused: b.refused,
    }
}

/// One rebalance round: hand the heat counted since the last round to the
/// runtime balancer's policy ([`plan`]) and request the moves it returns.
fn rebalance(
    eng: &mut netsim::Engine<parcel_rt::World>,
    b: &mut Balancer,
    data: &GlobalArray,
    cfg: &SkewConfig,
    from_loc: u32,
) {
    // Blocks are named by their index in `data`.
    let heat: Vec<BlockHeat> = (0..cfg.blocks)
        .map(|i| BlockHeat {
            block: i,
            hits: b.heat[i as usize],
            owner: b.owners[i as usize],
        })
        .collect();
    // A round here is `rebalance_every` accesses — a few per block — so
    // every touched block is a candidate, not only those above the
    // runtime service's per-period floor.
    let policy = BalancerConfig {
        moves_per_round: cfg.moves_per_round,
        min_heat: 1,
        ..BalancerConfig::default()
    };
    let planned = plan(&heat, eng.state.n_localities(), &policy);
    b.migrations += planned.moves.len() as u64;
    b.refused += planned.refused;
    for m in planned.moves {
        b.owners[m.block as usize] = m.to;
        agas::migrate::migrate_block(
            eng,
            from_loc,
            data.block(m.block),
            m.to,
            parcel_rt::NO_COMPLETION,
        );
    }
    b.heat.fill(0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use agas::GasMode;

    fn small() -> SkewConfig {
        SkewConfig {
            blocks: 16,
            block_class: 12,
            read_bytes: 64,
            ops_per_loc: 300,
            window: 4,
            theta: 0.99,
            rebalance_every: 200,
            moves_per_round: 2,
            seed: 3,
        }
    }

    #[test]
    fn skew_completes_all_modes() {
        for mode in GasMode::ALL {
            let cfg = small();
            let mut rt = Runtime::builder(4, mode).boot();
            let data = alloc_blocks(&mut rt, &cfg);
            let res = run(&mut rt, &cfg, &data);
            assert_eq!(res.ops, 1200, "{mode:?}");
            if mode == GasMode::Pgas {
                assert_eq!(res.migrations, 0);
            }
        }
    }

    #[test]
    fn rebalancing_moves_blocks_in_agas_modes() {
        for mode in [GasMode::AgasSoftware, GasMode::AgasNetwork] {
            let cfg = small();
            let mut rt = Runtime::builder(4, mode).boot();
            let data = alloc_blocks(&mut rt, &cfg);
            let res = run(&mut rt, &cfg, &data);
            assert!(res.migrations > 0, "{mode:?}");
            // Ownership actually spread beyond locality 0.
            let owners: std::collections::HashSet<u32> = data
                .blocks
                .iter()
                .map(|&g| rt.eng.state.locate(g).0)
                .collect();
            assert!(owners.len() > 2, "{mode:?}: owners {owners:?}");
        }
    }

    #[test]
    fn migration_beats_static_placement_under_skew() {
        // AGAS-NET with rebalancing should finish faster than PGAS when the
        // hot set is concentrated (blocked placement + heavy Zipf) and the
        // reads are big enough to saturate the hot locality's NIC port.
        let cfg = SkewConfig {
            ops_per_loc: 800,
            read_bytes: 4096,
            window: 16,
            theta: 1.1,
            rebalance_every: 256,
            moves_per_round: 4,
            ..small()
        };
        let time_for = |mode, rebalance: bool| {
            let cfg = SkewConfig {
                rebalance_every: if rebalance { cfg.rebalance_every } else { 0 },
                ..cfg
            };
            let mut rt = Runtime::builder(4, mode).boot();
            let data = alloc_blocks(&mut rt, &cfg);
            run(&mut rt, &cfg, &data).elapsed
        };
        let pgas = time_for(GasMode::Pgas, false);
        let net = time_for(GasMode::AgasNetwork, true);
        assert!(net < pgas, "net={net} pgas={pgas}");
    }
}
