//! The migration window, end to end.
//!
//! The old owner's NIC flips to a forwarding tombstone the instant a
//! hand-off starts; the new owner's NIC holds the translation only after
//! `MigData` has crossed the wire and its CPU has installed it. A request
//! forwarded in between outruns the block. These tests pin what happens to
//! it: it parks at the destination NIC and commits on the install — no
//! NACK, no directory round trip — and a park that can never be released
//! (the destination died) still ends, in a typed outcome.

mod common;

use agas::membership::crash;
use agas::migrate::migrate_block;
use agas::ops::{memamo, memget, memput};
use agas::{alloc_array, Distribution, GasConfig, GasLocal, GasMode, Gva, SimEv, SimWorld};
use common::assert_consistent;
use netsim::{AmoOp, Counters, Engine, LocalityId, NetConfig, OpId, Time};
use std::collections::BTreeSet;

const INITIATORS: u32 = 8;
const WINDOW: u64 = 8;
/// The two localities the block shuttles between; neither initiates.
const A: LocalityId = 8;
const B: LocalityId = 9;
/// Migration completions carry contexts above every op's.
const MIG_CTX: u64 = 1 << 48;

/// What one hammer run observed.
struct Hammered {
    eng: Engine<SimWorld>,
    gva: Gva,
    /// FetchAdds issued (every one completed, or the run panicked).
    adds: u64,
    /// The `old` value each FetchAdd returned.
    olds: Vec<u64>,
}

impl Hammered {
    /// Cluster-wide `(retries, dir_queries)`.
    fn recoveries(&self) -> (u64, u64) {
        let stats = self.eng.state.data.gas.iter().map(|g| g.stats);
        stats.fold((0, 0), |(r, q), s| (r + s.retries, q + s.dir_queries))
    }

    fn counters(&self) -> Counters {
        self.eng.state.total_counters()
    }
}

/// Op `seq` of initiator `loc`: a FetchAdd on the block's first word, a
/// put of `seq` into the initiator's own slot, or a read-back of it.
/// Returns how many FetchAdds that was.
fn issue(eng: &mut Engine<SimWorld>, gva: Gva, loc: LocalityId, seq: u64) -> u64 {
    let ctx = OpId::from_raw(u64::from(loc) << 32 | seq);
    let slot = gva.with_offset(256 + u64::from(loc) * 16);
    match seq % 3 {
        0 => memamo(eng, loc, gva, AmoOp::FetchAdd { operand: 1 }, ctx),
        1 => memput(eng, loc, slot, seq.to_le_bytes().to_vec(), ctx),
        _ => memget(eng, loc, slot, 8, ctx),
    }
    u64::from(seq.is_multiple_of(3))
}

/// Eight closed-loop initiators, eight ops in flight each, all on one block
/// while it migrates `A -> B -> A -> ...` `migrations` times; issuing stops
/// when the last migration completes and the run drains.
fn hammer(net: NetConfig, migrations: u64) -> Hammered {
    let mut eng = Engine::new(SimWorld::new(10, GasMode::AgasNetwork, net), 7);
    for g in &mut eng.state.data.gas {
        g.cfg.record_history = true;
    }
    let arr = alloc_array(&mut eng, 10, 12, Distribution::Cyclic);
    let gva = arr.block(u64::from(A));
    let mut next_seq = vec![0u64; INITIATORS as usize];
    let mut adds = 0;
    for loc in 0..INITIATORS {
        for seq in 0..WINDOW {
            adds += issue(&mut eng, gva, loc, seq);
        }
        next_seq[loc as usize] = WINDOW;
    }
    migrate_block(&mut eng, 0, gva, B, OpId::from_raw(MIG_CTX));
    let mut moved = 0;
    let mut olds = Vec::new();
    // Completions are read as they arrive, each step's batch drained before
    // the next: an op is issued from every completion it frees up.
    let mut completed = 0;
    while eng.step() {
        for (_, loc, ev) in eng.state.drain_events() {
            match ev {
                SimEv::MigDone(..) => {
                    moved += 1;
                    if moved < migrations {
                        let to = if moved % 2 == 0 { B } else { A };
                        migrate_block(&mut eng, 0, gva, to, OpId::from_raw(MIG_CTX + moved));
                    }
                    continue;
                }
                SimEv::OpFailed(ctx, err) => panic!("op {ctx:#x} failed: {err}"),
                SimEv::AmoDone(_, r) => olds.push(r.old),
                _ => {}
            }
            completed += 1;
            if moved < migrations {
                let seq = next_seq[loc as usize];
                next_seq[loc as usize] += 1;
                adds += issue(&mut eng, gva, loc, seq);
            }
        }
    }
    assert_eq!(moved, migrations, "every migration completed");
    let issued: u64 = next_seq.iter().sum();
    assert_eq!(completed, issued, "every op completed exactly once");
    assert_quiescent(&eng);
    assert_consistent(&eng, &[gva]);
    Hammered {
        eng,
        gva,
        adds,
        olds,
    }
}

/// Nothing in flight anywhere: no GAS op, no photon op, no parked request.
fn assert_quiescent(eng: &Engine<SimWorld>) {
    for l in 0..eng.state.data.cluster.len() {
        assert_eq!(
            eng.state.data.gas[l].outstanding_ops(),
            0,
            "locality {l}: GAS"
        );
        assert_eq!(
            eng.state.data.eps[l].outstanding_ops(),
            0,
            "locality {l}: PWC"
        );
        let parked = eng.state.data.cluster.loc(l as u32).nic.parked.len();
        assert_eq!(parked, 0, "locality {l}: parked requests");
    }
}

/// Every FetchAdd applied exactly once: the counter reads their number,
/// and the values they returned are exactly `0..adds`.
fn assert_adds_counted_once(h: &mut Hammered) {
    let ctx = OpId::from_raw(u64::MAX >> 1);
    memamo(&mut h.eng, 0, h.gva, AmoOp::FetchAdd { operand: 0 }, ctx);
    h.eng.run();
    let total = h
        .eng
        .state
        .events()
        .iter()
        .rev()
        .find_map(|(_, _, e)| match e {
            SimEv::AmoDone(c, r) if *c == ctx.raw() => Some(r.old),
            _ => None,
        });
    assert_eq!(total, Some(h.adds), "lost or double-applied increments");
    let distinct: BTreeSet<u64> = h.olds.iter().copied().collect();
    assert_eq!(h.olds.len() as u64, h.adds);
    assert_eq!(distinct, (0..h.adds).collect::<BTreeSet<u64>>());
}

#[test]
fn a_hammered_block_migrates_fifty_times_without_one_retry() {
    let mut h = hammer(NetConfig::ideal(), 50);
    assert!(h.adds > 1_000, "the run covered the migrations: {}", h.adds);
    assert_eq!(h.recoveries(), (0, 0));
    let net = h.counters();
    assert_eq!((net.nacks_sent, net.xlate_park_expired), (0, 0));
    assert!(net.xlate_parked > 0, "no forward ever outran its block");
    // Parks happen only where the block is headed.
    for l in 0..INITIATORS {
        assert_eq!(h.eng.state.data.cluster.loc(l).counters.xlate_parked, 0);
    }
    assert_adds_counted_once(&mut h);
}

#[test]
fn the_nack_only_arms_never_park() {
    // A3's ablation arm (a zero forwarding TTL: nothing ever arrives by a
    // forward) recovers through NACK -> directory. Without a NIC table the
    // run is AGAS-SW: the owner's CPU translates, nothing reaches a NIC
    // table to park, and a request that misses the moving block re-resolves
    // through the directory.
    let no_forwarding = NetConfig {
        forward_ttl: 0,
        ..NetConfig::ideal()
    };
    let no_table = NetConfig {
        xlate_capacity: 0,
        ..NetConfig::ideal()
    };
    for (label, net) in [
        ("forward_ttl 0", no_forwarding),
        ("capacity 0 (AGAS-SW)", no_table),
    ] {
        let mut h = hammer(net, 10);
        assert_eq!(h.counters().xlate_parked, 0, "{label}");
        assert!(
            h.recoveries().0 > 0,
            "{label}: retries through the directory carried the window"
        );
        assert_adds_counted_once(&mut h);
    }
}

#[test]
fn a_destination_that_dies_holding_parked_requests_strands_nothing() {
    let mut eng = Engine::new(
        SimWorld::new(4, GasMode::AgasNetwork, NetConfig::ideal()),
        3,
    );
    // Lost messages surface only through the deadline sweep.
    let cfg = GasConfig {
        op_deadline: Some(Time::from_us(300)),
        sweep_interval: Time::from_us(30),
        ..GasConfig::default()
    };
    for g in &mut eng.state.data.gas {
        *g = GasLocal::new(cfg);
    }
    let arr = alloc_array(&mut eng, 4, 12, Distribution::Cyclic);
    let gva = arr.block(1);
    // Locality 0 hammers the block while it leaves 1 for 2 ...
    migrate_block(&mut eng, 0, gva, 2, OpId::from_raw(MIG_CTX));
    let ops = 12u64;
    for seq in 0..ops {
        issue(&mut eng, gva, 0, seq);
    }
    // ... and 2 dies with forwarded requests parked at its NIC, the block
    // still on the wire.
    while eng.state.data.cluster.loc(2).nic.parked.is_empty() {
        assert!(eng.step(), "no request ever parked at the destination");
    }
    assert!(!eng.state.data.gas[2].btt.is_resident(gva.block_key()));
    crash(&mut eng, 2);
    eng.run(); // returns: nothing waits forever

    assert!(eng.state.total_counters().xlate_parked > 0);
    for seq in 0..ops {
        let outcomes = eng
            .state
            .events()
            .iter()
            .filter(|(_, _, e)| match e {
                SimEv::PutDone(c)
                | SimEv::GetDone(c, _)
                | SimEv::AmoDone(c, _)
                | SimEv::OpFailed(c, _) => *c == seq,
                _ => false,
            })
            .count();
        assert_eq!(outcomes, 1, "op {seq}: completed or failed, exactly once");
    }
    assert_quiescent(&eng);
}
