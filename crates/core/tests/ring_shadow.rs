//! Ring-batched schedules, replayed under the sharded engine.
//!
//! The golden pins (`shard_pin.rs`) all run with rings disabled — that
//! keeps their hashes stable across the ring refactor. This suite covers
//! the *enabled* side: with descriptor rings posting batched doorbells and
//! moderation timers coalescing completions, the schedule is still a pure
//! function of the seed, so the sequential run's `(trace_hash, now,
//! events)` must be reproduced bit-for-bit under shard lane counts
//! {1, 2, 4, 8}, and the chaos drop/corrupt cells must stay violation-free
//! and lane-invariant with every op issued through rings.
//!
//! Shared-memory domains shrink the sharded engine's lookahead window (the
//! load/store short-circuit is cheaper than any wire hop), so the shm
//! scenario doubles as a regression test for that window math.

use agas::check::Violation;
use agas::migrate::migrate_block;
use agas::ops::{get_many, memamo, memget, memput, put_many};
use agas::{alloc_array, Distribution, GasMode, GlobalArray, SimWorld};
use netsim::{
    AmoOp, FaultPlan, FaultPlane, FaultRates, Harness, NetConfig, OpId, RingConfig, ShmDomain, Time,
};
use photon::PhotonConfig;

/// Lane counts every ring-enabled scenario must agree across. The
/// sequential engine (`None`) is the reference.
const GRID: [Option<usize>; 5] = [None, Some(1), Some(2), Some(4), Some(8)];

fn ring_photon() -> PhotonConfig {
    PhotonConfig {
        ring: Some(RingConfig {
            doorbell_batch: 4,
            doorbell_delay: Time::from_us(2),
            ..RingConfig::default()
        }),
        ..PhotonConfig::default()
    }
}

fn jittery() -> NetConfig {
    NetConfig {
        jitter_ns: 400,
        ..NetConfig::ideal()
    }
}

fn harness(n: usize, net: NetConfig, seed: u64, lanes: Option<usize>) -> Harness<SimWorld> {
    let world = SimWorld::with_photon(n, GasMode::AgasNetwork, net, ring_photon());
    Harness::new(world, seed, lanes)
}

fn alloc(h: &mut Harness<SimWorld>, blocks: u64) -> GlobalArray {
    h.drive(|e| alloc_array(e, blocks, 12, Distribution::Cyclic))
}

fn finish(h: &mut Harness<SimWorld>) -> (u64, u64, u64) {
    h.run();
    h.witness()
}

/// Run `scenario` across the whole lane grid and demand every run lands on
/// the sequential witness. Also sanity-check the rings actually engaged:
/// the scenario must have rung at least one batched (multi-desc) doorbell.
fn lane_invariant(name: &str, scenario: impl Fn(Option<usize>) -> (u64, u64, u64)) {
    let reference = scenario(None);
    for shards in GRID {
        let got = scenario(shards);
        assert_eq!(
            got, reference,
            "{name} (shards={shards:?}): ring-batched schedule diverged — \
             observed (hash, ps, events) = ({:#018x}, {}, {})",
            got.0, got.1, got.2
        );
    }
}

/// Vectored put/get bursts through the rings under jitter: every burst
/// targets one peer, so descriptors pile into one ring and share
/// doorbells; partial tails drain on the moderation timer.
fn vectored_bursts(shards: Option<usize>) -> (u64, u64, u64) {
    let mut h = harness(4, jittery(), 31, shards);
    let arr = alloc(&mut h, 8);
    for round in 0..6u64 {
        for loc in 0..4u32 {
            let blocks = arr.blocks.clone();
            h.drive_at(loc, move |eng| {
                let puts = (0..6u64)
                    .map(|i| {
                        let b = (round + i + u64::from(loc)) % 8;
                        let gva = blocks[b as usize].with_offset((i % 8) * 16);
                        (
                            gva,
                            vec![(round * 8 + i + 1) as u8; 16],
                            OpId::from_raw(round * 100 + u64::from(loc) * 10 + i),
                        )
                    })
                    .collect();
                put_many(eng, loc, puts);
            });
        }
        h.run_steps(50);
    }
    for loc in 0..4u32 {
        let blocks = arr.blocks.clone();
        h.drive_at(loc, move |eng| {
            let gets = (0..8u64)
                .map(|b| {
                    (
                        blocks[b as usize].with_offset(0),
                        16,
                        OpId::from_raw(5000 + u64::from(loc) * 10 + b),
                    )
                })
                .collect();
            get_many(eng, loc, gets);
        });
    }
    h.run();
    let stats = h.world().data.eps[0].ring_stats();
    assert!(
        stats.doorbells > 0 && stats.coalesced > 0,
        "rings never engaged: {stats:?}"
    );
    finish(&mut h)
}

/// Fetch-adds, compare-swaps, and a migration racing through the rings:
/// same-responder AMOs share doorbells (the `amo_batched` path) while the
/// home moves underneath them.
fn amo_ring_mix(shards: Option<usize>) -> (u64, u64, u64) {
    let mut h = harness(4, jittery(), 37, shards);
    let arr = alloc(&mut h, 4);
    for i in 0..32u64 {
        let loc = (i % 4) as u32;
        let gva = arr.block(i % 4).with_offset((i % 8) * 8);
        h.drive_at(loc, move |eng| {
            memamo(
                eng,
                loc,
                gva,
                AmoOp::FetchAdd { operand: i + 1 },
                OpId::from_raw(i),
            );
        });
        if i % 6 == 5 {
            let cas = arr.block((i + 1) % 4);
            h.drive_at(loc, move |eng| {
                memamo(
                    eng,
                    loc,
                    cas,
                    AmoOp::CompareSwap {
                        expected: 0,
                        desired: i,
                    },
                    OpId::from_raw(500 + i),
                );
            });
        }
        if i % 16 == 9 {
            let mig = arr.block(i % 4);
            h.drive_at(loc, move |eng| {
                migrate_block(
                    eng,
                    loc,
                    mig,
                    ((i + 1) % 4) as u32,
                    OpId::from_raw(9000 + i),
                );
            });
        }
        h.run_steps(10);
    }
    finish(&mut h)
}

/// Mixed intra-/inter-domain traffic with an [`ShmDomain`] of size 2:
/// localities {0,1} and {2,3} short-circuit the NIC inside their domain
/// (zero wire messages, load/store costs) while cross-domain ops still
/// ride the rings. Exercises the shrunken lookahead window under lanes.
fn shm_domain_mix(shards: Option<usize>) -> (u64, u64, u64) {
    let net = NetConfig {
        shm: Some(ShmDomain::node(2)),
        ..jittery()
    };
    let mut h = harness(4, net, 43, shards);
    let arr = alloc(&mut h, 8);
    for i in 0..40u64 {
        let loc = (i % 4) as u32;
        // Even ops stay inside the domain (peer = partner locality), odd
        // ops cross it.
        let gva = arr.block((i * 3) % 8).with_offset((i % 4) * 32);
        h.drive_at(loc, move |eng| {
            memput(eng, loc, gva, vec![(i + 1) as u8; 32], OpId::from_raw(i));
        });
        if i % 3 == 2 {
            h.drive_at(loc, move |eng| {
                memamo(
                    eng,
                    loc,
                    gva,
                    AmoOp::FetchAdd { operand: i },
                    OpId::from_raw(600 + i),
                );
            });
        }
        h.run_steps(12);
    }
    for i in 0..16u64 {
        let loc = ((i + 1) % 4) as u32;
        let gva = arr.block(i % 8);
        h.drive_at(loc, move |eng| {
            memget(eng, loc, gva, 32, OpId::from_raw(2000 + i));
        });
    }
    finish(&mut h)
}

#[test]
fn ring_shadow_vectored_bursts() {
    lane_invariant("vectored_bursts", vectored_bursts);
}

#[test]
fn ring_shadow_amo_mix() {
    lane_invariant("amo_ring_mix", amo_ring_mix);
}

#[test]
fn ring_shadow_shm_domain() {
    lane_invariant("shm_domain_mix", shm_domain_mix);
}

// ------------------------------------------------------- chaos, ringed

/// The slot-idempotent chaos workload from `shard_chaos.rs`, with every
/// op issued through the rings. Returns the full determinism witness plus
/// the correctness verdict inputs.
fn chaos_cell(rates: FaultRates, seed: u64, shards: Option<usize>) -> (u64, u64, u64) {
    let plan = FaultPlan {
        seed: 61,
        rates,
        link_rates: Vec::new(),
        flaps: Vec::new(),
        partitions: Vec::new(),
    };
    let mut world =
        SimWorld::with_photon(4, GasMode::AgasNetwork, NetConfig::ideal(), ring_photon());
    world.data.cluster.faults = Some(FaultPlane::new(plan));
    for g in &mut world.data.gas {
        g.cfg.op_deadline = Some(Time::from_us(300));
        g.cfg.sweep_interval = Time::from_us(30);
        g.cfg.retry_on_deadline = true;
        g.cfg.record_history = true;
    }
    let mut h = Harness::new(world, seed, shards);
    let arr = alloc(&mut h, 8);
    let mut puts = 0u64;
    let mut gets = 0u64;
    for round in 0..10u64 {
        for l in 0..4u32 {
            let wb = (round + 3 * u64::from(l)) % 8;
            let gva = arr.block(wb).with_offset(64 + u64::from(l) * 8);
            let ctx = OpId::from_raw(puts);
            h.drive_at(l, move |eng| {
                memput(eng, l, gva, vec![l as u8 + 1; 8], ctx);
            });
            puts += 1;
            let rb = (round + 5 * u64::from(l) + 1) % 8;
            let owner = (l + 1) % 4;
            let gva = arr.block(rb).with_offset(64 + u64::from(owner) * 8);
            let ctx = OpId::from_raw((1 << 40) | gets);
            h.drive_at(l, move |eng| {
                memget(eng, l, gva, 8, ctx);
            });
            gets += 1;
        }
        h.run_steps(64);
    }
    let witness = finish(&mut h);
    // Correctness inside every cell: full accounting, consistent history.
    let blocks = arr.blocks.clone();
    let w = h.world();
    let acked = w.put_acks() + w.get_acks();
    assert_eq!(
        acked + w.op_failures(),
        puts + gets,
        "chaos cell (shards={shards:?}): ops silently lost"
    );
    let violations: Vec<Violation> = w.violations(&blocks);
    assert!(
        violations.is_empty(),
        "chaos cell (shards={shards:?}): {violations:?}"
    );
    witness
}

fn drop_rates(p: f64) -> FaultRates {
    FaultRates {
        drop: p,
        dup: p / 2.0,
        corrupt: 0.0,
        delay_p: p,
        delay_min_ns: 200,
        delay_max_ns: 4_000,
    }
}

fn corrupt_rates(p: f64) -> FaultRates {
    FaultRates {
        drop: 0.0,
        dup: p / 2.0,
        corrupt: p,
        delay_p: p,
        delay_min_ns: 200,
        delay_max_ns: 4_000,
    }
}

#[test]
fn ring_shadow_chaos_drop() {
    for seed in [5u64, 13] {
        lane_invariant("chaos_drop/3%", |shards| {
            chaos_cell(drop_rates(0.03), seed, shards)
        });
    }
}

#[test]
fn ring_shadow_chaos_corrupt() {
    for seed in [5u64, 13] {
        lane_invariant("chaos_corrupt/3%", |shards| {
            chaos_cell(corrupt_rates(0.03), seed, shards)
        });
    }
}
