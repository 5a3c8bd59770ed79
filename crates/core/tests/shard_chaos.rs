//! The chaos matrix, replayed under the sharded engine.
//!
//! Each cell drives the slot-idempotent chaos workload (per-locality slot
//! writes, audited cross-locality reads, migration churn) over a faulty
//! fabric — drops, duplicates, corruption, delay spikes, link flaps,
//! partitions — once on the sequential engine and once sharded. The gate
//! is twofold:
//!
//! * **correctness**: no structural or serializability violations, every
//!   op accounted (completed or failed cleanly), zero data mismatches —
//!   under *both* engines;
//! * **equivalence**: the sharded run's trace hash, clock, event count,
//!   completion/failure counters, recovery counters (deadline retries),
//!   outcome rollups, network counters, and fault-injection stats are all
//!   bit-identical to the sequential run's, at 1, 2, 4 and 8 lanes (8
//!   clamps to the cell's four localities).
//!
//! One cell adds transit jitter to its faults. Parcel-spawning cells are
//! out of scope here: the parcel runtime's world holds `Rc`s and runs on
//! the sequential engine only.

use agas::check::Violation;
use agas::ops::{memget, memput};
use agas::{alloc_array, migrate::migrate_block, Distribution, GasMode, GasStats, Gva, SimWorld};
use netsim::rng::mix64;
use netsim::{
    Counters, FaultPlan, FaultPlane, FaultRates, FaultStats, Harness, LinkFlap, NetConfig, OpId,
    Partition, Time,
};

const LOCALITIES: usize = 4;
const BLOCKS: u64 = 8;
const ROUNDS: u64 = 14;
const CHURN: u64 = 4;

/// The single legal non-zero value of `(block, slot)`.
fn slot_value(block: u64, slot: u32) -> u64 {
    mix64(0xC0A5_u64 ^ (block << 8) ^ slot as u64)
}

/// Byte offset of locality `slot`'s private slot inside each block.
fn slot_offset(slot: u32) -> u64 {
    64 + slot as u64 * 8
}

fn drop_mix(seed: u64, p: f64) -> FaultPlan {
    FaultPlan {
        seed,
        rates: FaultRates {
            drop: p,
            dup: p / 2.0,
            corrupt: 0.0,
            delay_p: p,
            delay_min_ns: 200,
            delay_max_ns: 4_000,
        },
        link_rates: Vec::new(),
        flaps: Vec::new(),
        partitions: Vec::new(),
    }
}

fn corrupt_mix(seed: u64, p: f64) -> FaultPlan {
    FaultPlan {
        seed,
        rates: FaultRates {
            drop: 0.0,
            dup: p / 2.0,
            corrupt: p,
            delay_p: p,
            delay_min_ns: 200,
            delay_max_ns: 4_000,
        },
        link_rates: Vec::new(),
        flaps: Vec::new(),
        partitions: Vec::new(),
    }
}

fn flap_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        flaps: vec![LinkFlap {
            src: 0,
            dst: 1,
            from: Time::from_us(5),
            to: Time::from_us(150),
        }],
        ..FaultPlan::lossless(seed)
    }
}

fn partition_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        partitions: vec![Partition {
            from: Time::from_us(10),
            to: Time::from_us(160),
            group_a: vec![0, 1],
        }],
        ..FaultPlan::lossless(seed)
    }
}

/// Everything a cell asserts on — and everything that must match between
/// the sequential and sharded runs.
#[derive(Debug, Clone, PartialEq)]
struct Report {
    trace_hash: u64,
    end_ps: u64,
    events: u64,
    puts_issued: u64,
    gets_issued: u64,
    migrations_issued: u64,
    put_acks: u64,
    get_acks: u64,
    migration_acks: u64,
    op_failures: u64,
    data_mismatches: u64,
    gas: GasStats,
    net: Counters,
    faults: FaultStats,
    violations: Vec<Violation>,
}

impl Report {
    fn issued(&self) -> u64 {
        self.puts_issued + self.gets_issued + self.migrations_issued
    }
    fn acked(&self) -> u64 {
        self.put_acks + self.get_acks + self.migration_acks
    }
    fn accounted(&self) -> bool {
        self.acked() + self.op_failures == self.issued()
    }
}

fn run_cell(
    mode: GasMode,
    net: NetConfig,
    plan: &FaultPlan,
    seed: u64,
    shards: Option<usize>,
) -> Report {
    let n = LOCALITIES as u32;
    let mut world = SimWorld::new(LOCALITIES, mode, net);
    world.data.cluster.faults = Some(FaultPlane::new(plan.clone()));
    for g in &mut world.data.gas {
        g.cfg.op_deadline = Some(Time::from_us(300));
        g.cfg.sweep_interval = Time::from_us(30);
        g.cfg.record_history = true;
    }
    let mut h = Harness::new(world, seed, shards);
    let arr = h.drive(|e| alloc_array(e, BLOCKS, 12, Distribution::Cyclic));

    let mut puts_issued = 0u64;
    let mut gets_issued = 0u64;
    let mut migrations_issued = 0u64;
    for round in 0..ROUNDS {
        for l in 0..n {
            // Writer: refresh this locality's own slot of a rotating block.
            let wb = (round + 3 * u64::from(l)) % BLOCKS;
            let val = slot_value(wb, l);
            let gva = arr.block(wb).with_offset(slot_offset(l));
            let ctx = OpId::from_raw(puts_issued);
            h.drive_at(l, move |eng| {
                memput(eng, l, gva, val.to_le_bytes().to_vec(), ctx);
            });
            puts_issued += 1;

            // Reader: audit another locality's slot. The completion hook
            // in SimWorld checks the data against the registered value.
            let rb = (round + 5 * u64::from(l) + 1) % BLOCKS;
            let owner = (l + 1) % n;
            let gva = arr.block(rb).with_offset(slot_offset(owner));
            let ctx = OpId::from_raw((1 << 40) | gets_issued);
            h.world().expect_value(l, ctx, slot_value(rb, owner));
            h.drive_at(l, move |eng| {
                memget(eng, l, gva, 8, ctx);
            });
            gets_issued += 1;
        }

        if CHURN > 0 && round % CHURN == 0 && mode.supports_migration() {
            let k = round / CHURN;
            let from = (k % u64::from(n)) as u32;
            let to = ((k + 1) % u64::from(n)) as u32;
            let gva = arr.block(k % BLOCKS);
            let ctx = OpId::from_raw((1 << 41) | migrations_issued);
            h.drive_at(from, move |eng| {
                migrate_block(eng, from, gva, to, ctx);
            });
            migrations_issued += 1;
        }

        h.run_steps(64);
    }
    h.run();

    let (trace_hash, end_ps, events) = h.witness();
    let blocks: Vec<Gva> = arr.blocks.clone();
    let w = h.world();
    Report {
        trace_hash,
        end_ps,
        events,
        puts_issued,
        gets_issued,
        migrations_issued,
        put_acks: w.put_acks(),
        get_acks: w.get_acks(),
        migration_acks: w.migration_acks(),
        op_failures: w.op_failures(),
        data_mismatches: w.data_mismatches(),
        gas: w.total_gas_stats(),
        net: w.total_counters(),
        faults: w.data.cluster.fault_stats(),
        violations: w.violations(&blocks),
    }
}

/// Lane counts every cell is replayed under.
const LANES: [usize; 4] = [1, 2, 4, 8];

/// Run one cell on `net` sequentially and at every lane count; demand
/// correctness and bit-identical reports.
fn assert_cell_on(
    name: &str,
    mode: GasMode,
    net: NetConfig,
    plan: &FaultPlan,
    seed: u64,
) -> Report {
    let seq = run_cell(mode, net, plan, seed, None);
    assert!(
        seq.violations.is_empty(),
        "{name}/seq seed={seed}: violations {:?}",
        seq.violations
    );
    assert!(
        seq.accounted(),
        "{name}/seq seed={seed}: unaccounted ops: {seq:?}"
    );
    assert_eq!(seq.data_mismatches, 0, "{name}/seq seed={seed}");

    for lanes in LANES {
        let sh = run_cell(mode, net, plan, seed, Some(lanes));
        assert_eq!(
            sh, seq,
            "{name} seed={seed} lanes={lanes}: sharded run diverged from sequential"
        );
    }
    seq
}

/// [`assert_cell_on`] the ideal fabric.
fn assert_cell(name: &str, mode: GasMode, plan: &FaultPlan, seed: u64) -> Report {
    assert_cell_on(name, mode, NetConfig::ideal(), plan, seed)
}

const SEEDS: [u64; 3] = [5, 13, 29];

#[test]
fn shard_chaos_lossless() {
    for seed in SEEDS {
        let r = assert_cell(
            "lossless",
            GasMode::AgasNetwork,
            &FaultPlan::lossless(9),
            seed,
        );
        assert_eq!(r.op_failures, 0);
        assert_eq!(r.faults.total_drops(), 0);
    }
}

#[test]
fn shard_chaos_drop_light() {
    for seed in SEEDS {
        assert_cell("drop/1%", GasMode::AgasNetwork, &drop_mix(21, 0.01), seed);
    }
}

#[test]
fn shard_chaos_drop_heavy() {
    let mut retried = false;
    for seed in SEEDS {
        let r = assert_cell("drop/5%", GasMode::AgasNetwork, &drop_mix(33, 0.05), seed);
        retried |= r.gas.deadline_retries > 0;
    }
    assert!(retried, "5% drops never exercised the sweep-retry path");
}

#[test]
fn shard_chaos_corrupt() {
    let mut injected = false;
    for seed in SEEDS {
        let r = assert_cell(
            "corrupt/4%",
            GasMode::AgasNetwork,
            &corrupt_mix(41, 0.04),
            seed,
        );
        // Request-class corruption degrades to a link-CRC drop
        // (`corrupt_drops`); payload corruption counts as `corrupted`.
        injected |= r.faults.corrupt_drops + r.faults.corrupted > 0;
    }
    assert!(injected, "corruption plan never injected");
}

#[test]
fn shard_chaos_flap() {
    for seed in SEEDS {
        assert_cell("flap", GasMode::AgasNetwork, &flap_plan(47), seed);
    }
}

#[test]
fn shard_chaos_partition() {
    for seed in SEEDS {
        assert_cell("partition", GasMode::AgasNetwork, &partition_plan(53), seed);
    }
}

#[test]
fn shard_chaos_software_mode() {
    // The software-AGAS path (two-sided handlers on the owner's CPU pool)
    // under drops.
    assert_cell("sw-drop/2%", GasMode::AgasSoftware, &drop_mix(59, 0.02), 7);
}

#[test]
fn shard_chaos_jitter() {
    // Transit jitter on top of drops: every message draws both from
    // generators keyed by its sender, on whichever lane that sender runs.
    let net = NetConfig {
        jitter_ns: 400,
        ..NetConfig::ideal()
    };
    for seed in SEEDS {
        let r = assert_cell_on(
            "jitter/drop 2%",
            GasMode::AgasNetwork,
            net,
            &drop_mix(61, 0.02),
            seed,
        );
        assert!(r.faults.dropped > 0, "seed={seed}: the plan never dropped");
    }
}
