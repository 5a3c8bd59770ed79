//! The GAS op table is the one record of a one-sided op: photon passes
//! every PWC answer through under the op's handle, and the table decides
//! whether it is live. A duplicated ack, NACK, AMO answer or hinted
//! completion reaches its op once, the copy counts in
//! `GasStats::stale_completions`, and a hint on a retired handle plants
//! nothing. No layer keeps a record of an op the GAS has let go of.

mod common;

use agas::membership::crash;
use agas::migrate::migrate_block;
use agas::ops::{memamo, memput};
use agas::{alloc_array, Distribution, GasMode, GlobalArray, SimEv, SimMsg, SimWorld, POST_DEPTH};
use common::engine;
use netsim::{
    AmoOp, AmoResult, Engine, FaultPlan, FaultPlane, FaultRates, NackReason, NetConfig, OpId,
    OpKind, Packet, TraceKind,
};
use photon::handle_completion;

fn world(n: usize, net: NetConfig) -> (Engine<SimWorld>, GlobalArray) {
    let mut eng = Engine::new(SimWorld::new(n, GasMode::AgasNetwork, net), 42);
    let arr = alloc_array(&mut eng, n as u64, 12, Distribution::Cyclic);
    eng.run();
    (eng, arr)
}

/// The handle of the one op in flight at `loc`.
fn only_op(eng: &Engine<SimWorld>, loc: usize) -> OpId {
    let ops = eng.state.data.gas[loc].op_snapshots();
    assert_eq!(ops.len(), 1);
    ops[0].id.unwrap()
}

/// Deliver `packet` from `from` to `at` as if the NIC had.
fn answer(eng: &mut Engine<SimWorld>, from: u32, at: u32, packet: Packet<SimMsg>) {
    handle_completion(eng, from, at, packet);
}

#[test]
fn duplicated_put_ack_cannot_double_complete() {
    let (mut eng, arr) = world(2, NetConfig::ideal());
    memput(&mut eng, 0, arr.block(1), vec![1; 16], OpId::from_raw(4));
    let op = only_op(&eng, 0);
    eng.run();
    assert_eq!(eng.state.put_acks(), 1);
    // A late copy of the hardware ack names a retired handle.
    answer(&mut eng, 1, 0, Packet::PutDone { op, moved: None });
    assert_eq!(eng.state.put_acks(), 1);
    assert_eq!(eng.state.data.gas[0].stats.stale_completions, 1);
    assert_eq!(eng.state.op_failures(), 0);
}

#[test]
fn duplicated_nack_cannot_double_fail() {
    // No forwarding hops: the first attempt meets the tombstone the
    // migration left at the home and is refused.
    let net = NetConfig {
        forward_ttl: 0,
        ..NetConfig::ideal()
    };
    let (mut eng, arr) = world(3, net);
    let gva = arr.block(1);
    migrate_block(&mut eng, 0, gva, 2, OpId::from_raw(900));
    eng.run();
    memput(&mut eng, 0, gva, vec![1; 8], OpId::from_raw(6));
    let op = only_op(&eng, 0);
    eng.run();
    let stats = eng.state.data.gas[0].stats;
    assert_eq!((stats.nacked_ttl, stats.retries), (1, 1));
    assert_eq!(eng.state.put_acks(), 1);
    // A copy of the NACK names the attempt the bounce gave up on.
    let nack = Packet::Nack {
        op,
        kind: OpKind::Put,
        reason: NackReason::TtlExceeded,
        block: gva.block_key(),
    };
    answer(&mut eng, 1, 0, nack);
    eng.run();
    let stats = eng.state.data.gas[0].stats;
    assert_eq!((stats.nacked_ttl, stats.retries), (1, 1));
    assert_eq!(stats.stale_completions, 1);
    assert_eq!((eng.state.put_acks(), eng.state.op_failures()), (1, 0));
}

#[test]
fn a_nack_retires_the_attempt_it_answers() {
    // The NACK arrives while the refused request's own ack is still on its
    // way: the bounce renews the op's handle, so that ack drops as stale
    // and only the re-issue completes the op.
    let (mut eng, arr) = world(2, NetConfig::ideal());
    eng.state.data.cluster.tracer.enable(1 << 10);
    let gva = arr.block(1);
    memput(&mut eng, 0, gva, vec![1; 8], OpId::from_raw(6));
    let op = only_op(&eng, 0);
    let nack = Packet::Nack {
        op,
        kind: OpKind::Put,
        reason: NackReason::Miss,
        block: gva.block_key(),
    };
    answer(&mut eng, 1, 0, nack);
    assert_eq!(only_op(&eng, 0), op, "the op keeps its identity");
    eng.run();
    let stats = eng.state.data.gas[0].stats;
    assert_eq!((stats.retries, stats.stale_completions), (1, 1));
    assert_eq!((eng.state.put_acks(), eng.state.op_failures()), (1, 0));
    // Its span opens and closes under the handle `start` minted.
    let spans: Vec<_> = eng
        .state
        .data
        .cluster
        .tracer
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::OpSpanOpen { op, .. } => Some((op, None)),
            TraceKind::OpSpanClose { op, ok, .. } => Some((op, Some(ok))),
            _ => None,
        })
        .collect();
    assert_eq!(spans, [(op, None), (op, Some(true))]);
}

#[test]
fn duplicated_amo_answer_cannot_double_complete() {
    let (mut eng, arr) = world(2, NetConfig::ideal());
    let amo = AmoOp::FetchAdd { operand: 5 };
    memamo(&mut eng, 0, arr.block(1), amo, OpId::from_raw(8));
    let op = only_op(&eng, 0);
    eng.run();
    let amo_done = |eng: &Engine<SimWorld>| {
        eng.state
            .events()
            .iter()
            .filter(|(_, _, e)| matches!(e, SimEv::AmoDone(8, _)))
            .count()
    };
    assert_eq!(amo_done(&eng), 1);
    let result = AmoResult {
        old: 99,
        ..AmoResult::default()
    };
    answer(
        &mut eng,
        1,
        0,
        Packet::AmoDone {
            op,
            result,
            moved: None,
        },
    );
    assert_eq!(amo_done(&eng), 1);
    assert_eq!(eng.state.data.gas[0].stats.stale_completions, 1);
}

#[test]
fn fault_plane_duplication_is_absorbed_by_the_op_table() {
    let (mut eng, arr) = world(2, NetConfig::ideal());
    // Duplicate *everything* faultable: the put request commits twice
    // (same bytes, idempotent) and each commit acks twice — three of the
    // four acks must be dropped as stale.
    eng.state.data.cluster.faults = Some(FaultPlane::new(FaultPlan {
        rates: FaultRates {
            dup: 1.0,
            ..FaultRates::lossless()
        },
        ..FaultPlan::lossless(99)
    }));
    memput(&mut eng, 0, arr.block(1), vec![7; 32], OpId::from_raw(3));
    eng.run();
    assert_eq!(eng.state.data.cluster.fault_stats().duplicated, 3);
    assert_eq!(eng.state.put_acks(), 1);
    assert_eq!(eng.state.data.gas[0].stats.stale_completions, 3);
    assert_eq!(eng.state.data.gas[0].outstanding_ops(), 0);
    assert_eq!(eng.state.data.eps[0].outstanding_ops(), 0);
}

#[test]
fn a_hint_on_a_retired_handle_plants_nothing() {
    let (mut eng, arr) = world(4, NetConfig::ideal());
    let gva = arr.block(1);
    migrate_block(&mut eng, 0, gva, 2, OpId::from_raw(900));
    eng.run();
    memput(&mut eng, 3, gva, vec![7; 8], OpId::from_raw(1));
    let op = only_op(&eng, 3);
    eng.run();
    let block = gva.block_key();
    let learned = eng.state.data.gas[3].cache.lookup(block);
    assert_eq!(learned.map(|h| h.owner), Some(2), "the forward taught it");
    assert_eq!(eng.state.data.gas[3].stats.hints_learned, 1);
    // A late copy of the hinted ack, naming a newer owner, arrives after
    // the op retired.
    let echo = Packet::PutDone {
        op,
        moved: Some(99),
    };
    answer(&mut eng, 0, 3, echo);
    let g = &mut eng.state.data.gas[3];
    assert_eq!(g.cache.lookup(block), learned);
    assert_eq!((g.stats.hints_learned, g.stats.stale_completions), (1, 1));
    assert_eq!(eng.state.put_acks(), 1);
}

#[test]
fn a_crash_leaves_no_record_of_the_rdma_ops_in_flight_from_the_dead() {
    let mut eng = engine(4, GasMode::AgasNetwork);
    let arr = alloc_array(&mut eng, 4, 12, Distribution::Cyclic);
    eng.run();
    // Deeper than the send queue: some puts are posted, the rest queued.
    let burst = u64::from(POST_DEPTH) + 16;
    for i in 0..burst {
        let gva = arr.block([0, 1, 3][i as usize % 3]).with_offset(i * 8);
        memput(&mut eng, 2, gva, vec![i as u8; 8], OpId::from_raw(i));
    }
    let g = &eng.state.data.gas[2];
    assert_eq!(g.outstanding_ops(), burst as usize);
    assert_eq!((g.posted_ops(), g.queued_ops()), (POST_DEPTH, 16));
    crash(&mut eng, 2);
    eng.run();
    // The run's `(trace_hash, final ps, events executed)`.
    let witness = (eng.trace_hash(), eng.now().ps(), eng.events_executed());
    assert_eq!(witness, (0x4745_892b_0216_8037, 2_437_000, 260));
    let g = &eng.state.data.gas[2];
    assert_eq!(g.outstanding_ops(), 0);
    assert_eq!((g.posted_ops(), g.queued_ops()), (0, 0));
    assert_eq!(eng.state.data.eps[2].outstanding_ops(), 0);
}
