//! The PWC send queue: each locality keeps at most [`POST_DEPTH`] one-sided
//! attempts posted and queues the rest, a fresh op unadmitted (no op-table
//! slot until it is posted), a re-issued one as its bare handle. One credit per
//! posted attempt, returned exactly once — by the first answer while the op
//! is in `Rdma`, when the deadline sweep abandons the attempt, or when the
//! op is taken — and a duplicated or stale answer returns none. So under a
//! fabric that drops and duplicates messages the posted count always equals
//! the ops in `Rdma`, and a burst drains to nothing posted and nothing
//! queued, every op completed or failed with a typed error. A drained
//! burst leaves no op table or queue buffer sized for it.

use agas::ops::{memamo, memget, memput};
use agas::{
    alloc_array, check_history, value_hash, Distribution, GasConfig, GasLocal, GasMode, HistKind,
    OpPhase, SimEv, SimWorld, POST_DEPTH,
};
use netsim::{AmoOp, Engine, FaultPlan, FaultPlane, FaultRates, NetConfig, OpId, Time};
use std::collections::HashMap;

/// Every locality's credits: one per op in `Rdma`, at most [`POST_DEPTH`],
/// and a queue only while every credit is in use.
fn assert_credits(eng: &Engine<SimWorld>) {
    for (l, g) in eng.state.data.gas.iter().enumerate() {
        let snaps = g.op_snapshots();
        let rdma = snaps.iter().filter(|s| s.phase == OpPhase::Rdma).count();
        assert_eq!(
            g.posted_ops() as usize,
            rdma,
            "locality {l} at {}: credits in use vs ops in Rdma",
            eng.now()
        );
        assert!(g.posted_ops() <= POST_DEPTH);
        assert!(
            g.queued_ops() == 0 || g.posted_ops() == POST_DEPTH,
            "locality {l}: {} queued behind {} posted",
            g.queued_ops(),
            g.posted_ops()
        );
    }
}

/// `(trace_hash, final ps, events executed)` of a run: each scenario pins
/// its own, so a change to how ops wait for credits that moves any
/// schedule fails here.
fn witness(eng: &Engine<SimWorld>) -> (u64, u64, u64) {
    (eng.trace_hash(), eng.now().ps(), eng.events_executed())
}

/// A world of `n` localities, one 4 KiB block homed at each, with
/// deadlines on.
fn world(n: usize, net: NetConfig, deadline: Time) -> (Engine<SimWorld>, Vec<agas::Gva>) {
    let mut eng = Engine::new(SimWorld::new(n, GasMode::AgasNetwork, net), 42);
    let cfg = GasConfig {
        op_deadline: Some(deadline),
        sweep_interval: Time::from_us(10),
        ..GasConfig::default()
    };
    for g in &mut eng.state.data.gas {
        *g = GasLocal::new(cfg);
    }
    let arr = alloc_array(&mut eng, n as u64, 12, Distribution::Cyclic);
    eng.run();
    (eng, arr.blocks)
}

#[test]
fn a_lossy_burst_returns_every_credit() {
    const N: u32 = 4;
    let (mut eng, blocks) = world(N as usize, NetConfig::ideal(), Time::from_us(100));
    eng.state.data.cluster.faults = Some(FaultPlane::new(FaultPlan {
        rates: FaultRates {
            drop: 0.03,
            dup: 0.03,
            ..FaultRates::lossless()
        },
        ..FaultPlan::lossless(5)
    }));
    let burst = 4 * u64::from(POST_DEPTH);
    for l in 0..N {
        for i in 0..burst {
            let peer = (u64::from(l) + 1 + i % u64::from(N - 1)) % u64::from(N);
            let gva = blocks[peer as usize].with_offset((i % 64) * 8);
            let ctx = OpId::from_raw(i);
            match i % 3 {
                0 => memput(&mut eng, l, gva, vec![i as u8; 8], ctx),
                1 => memget(&mut eng, l, gva, 8, ctx),
                _ => memamo(&mut eng, l, gva, AmoOp::FetchAdd { operand: 1 }, ctx),
            }
        }
        let g = &eng.state.data.gas[l as usize];
        assert_eq!(g.posted_ops(), POST_DEPTH);
        assert_eq!(g.queued_ops() as u64, burst - u64::from(POST_DEPTH));
    }
    assert_credits(&eng);
    let mut steps = 0u64;
    while eng.step() {
        steps += 1;
        if steps.is_multiple_of(64) {
            assert_credits(&eng);
        }
    }
    assert_credits(&eng);
    assert_eq!(witness(&eng), (0xf7fe_a733_caae_b646, 330_000_000, 8044));
    let faults = eng.state.data.cluster.fault_stats();
    assert!(faults.dropped > 0 && faults.duplicated > 0, "{faults:?}");
    let stats = eng.state.total_gas_stats();
    assert!(
        stats.deadline_retries > 0,
        "the sweep recovered lost messages"
    );
    assert!(stats.stale_completions > 0, "duplicated answers arrived");
    // Lost messages say nothing about the NIC tables, which hold every
    // entry here: no op degrades to the software path.
    let nacks = stats.nacked_miss + stats.nacked_ttl + stats.nacked_bounds;
    assert_eq!((nacks, stats.sw_fallbacks), (0, 0));
    // Every op ended exactly once: completed, or failed with a typed error.
    let mut ends: HashMap<(u32, u64), u32> = HashMap::new();
    for (_, l, ev) in eng.state.events() {
        let ctx = match ev {
            SimEv::PutDone(c) | SimEv::GetDone(c, _) | SimEv::AmoDone(c, _) => c,
            SimEv::OpFailed(c, _) => c,
            _ => continue,
        };
        *ends.entry((l, ctx)).or_default() += 1;
    }
    assert_eq!(ends.len() as u64, u64::from(N) * burst);
    assert!(ends.values().all(|&n| n == 1), "an op ended twice");
    for g in &eng.state.data.gas {
        assert_eq!(g.outstanding_ops(), 0);
        assert_eq!((g.posted_ops(), g.queued_ops()), (0, 0));
        assert!(!g.sweep_armed());
    }
}

#[test]
fn a_queued_op_shows_as_queued_and_its_deadline_starts_when_posted() {
    let deadline = Time::from_us(500);
    let (mut eng, blocks) = world(2, NetConfig::ib_fdr(), deadline);
    let burst = u64::from(POST_DEPTH) + 1;
    for i in 0..burst {
        memput(&mut eng, 0, blocks[1], vec![i as u8; 8], OpId::from_raw(i));
    }
    let g = &eng.state.data.gas[0];
    assert_eq!(g.outstanding_ops() as u64, burst);
    let last = *g.op_snapshots().last().unwrap();
    assert_eq!(last.phase, OpPhase::Queued);
    assert_eq!(last.id, None, "not admitted while it waits");
    assert_eq!(last.deadline, None, "no deadline runs while queued");
    assert!(last.render(eng.now()).ends_with("state=queued"));
    assert_eq!(
        g.send_queue_report().as_deref(),
        Some("send queue: 128 posted, 1 queued (depth 128)")
    );
    // The first answer posts it, and its deadline starts then. It is the
    // one op whose deadline is not the burst's: the others were posted at
    // time zero.
    while eng.step() {
        let g = &eng.state.data.gas[0];
        if g.queued_ops() != 0 {
            continue;
        }
        let snaps = g.op_snapshots();
        let posted: Vec<_> = snaps
            .iter()
            .filter(|s| s.deadline != Some(Time::ZERO + deadline))
            .collect();
        assert_eq!(posted.len(), 1, "{snaps:?}");
        let snap = posted[0];
        assert_eq!(snap.phase, OpPhase::Rdma);
        assert!(snap.id.is_some(), "admitted when posted");
        assert_eq!(snap.deadline, Some(eng.now() + deadline));
        assert_eq!(snap.issued, last.issued, "its age counts from submission");
        assert!(eng.now() > Time::ZERO);
        break;
    }
    eng.run();
    assert_eq!(witness(&eng), (0x71c5_bf09_6a0c_706f, 10_000_000, 388));
    assert_eq!(eng.state.put_acks(), burst);
    assert_eq!(eng.state.data.gas[0].stats.remote_ops, burst);
    assert_eq!(eng.state.data.gas[0].send_queue_report(), None);
}

/// The op-table slots a locality may keep past [`POST_DEPTH`] after a
/// burst of remote gets: an op leaves its slot before the one it frees a
/// credit for is admitted, so the posted ones are all a burst of remote
/// one-sided ops ever admits at once.
const SLOT_SLACK: usize = 0;

#[test]
fn a_drained_burst_keeps_no_slot_or_queue_buffer_sized_for_it() {
    const N: u32 = 4;
    let (mut eng, blocks) = world(N as usize, NetConfig::ib_fdr(), Time::from_ms(10));
    let burst = 32 * u64::from(POST_DEPTH);
    for l in 0..N {
        let gva = blocks[((l + 1) % N) as usize];
        for i in 0..burst {
            memget(
                &mut eng,
                l,
                gva.with_offset((i % 512) * 8),
                8,
                OpId::from_raw(i),
            );
        }
        let g = &eng.state.data.gas[l as usize];
        assert_eq!(g.queued_ops() as u64, burst - u64::from(POST_DEPTH));
        assert_eq!(
            g.op_slots(),
            POST_DEPTH as usize,
            "only posted ops admitted"
        );
    }
    eng.run();
    assert_eq!(eng.state.get_acks(), u64::from(N) * burst);
    for (l, g) in eng.state.data.gas.iter().enumerate() {
        assert_eq!(g.outstanding_ops(), 0);
        assert!(
            g.op_slots() <= POST_DEPTH as usize + SLOT_SLACK,
            "locality {l}: {} op-table slots after the burst",
            g.op_slots()
        );
        assert!(
            g.send_queue_capacity() <= POST_DEPTH as usize,
            "locality {l}: the send queue keeps room for {} entries",
            g.send_queue_capacity()
        );
    }
}

/// Puts of [`waiting_ops_of_every_kind_keep_their_verb`]: past `Payload`'s
/// inline size, so each carries a shared buffer while it waits.
const PUT_LEN: u64 = 64;

#[test]
fn waiting_ops_of_every_kind_keep_their_verb() {
    // One locality issues POST_DEPTH + 64 ops of each kind, interleaved, to
    // one 16 KiB block: 8-byte gets, 64-byte puts to disjoint slots and
    // fetch-adds on one word. All but the first POST_DEPTH wait.
    let (mut eng, _) = world(2, NetConfig::ib_fdr(), Time::from_ms(10));
    let arr = alloc_array(&mut eng, 2, 14, Distribution::Cyclic);
    eng.run();
    let block = arr.blocks[1];
    let per_kind = u64::from(POST_DEPTH) + 64;
    let word = block.with_offset(per_kind * PUT_LEN);
    let bytes = |i: u64| -> Vec<u8> { (0..PUT_LEN).map(|b| (i + b) as u8).collect() };
    for i in 0..per_kind {
        let get = block.with_offset(per_kind * PUT_LEN + 8);
        memget(&mut eng, 0, get, 8, OpId::from_raw(3 * i));
        let put = block.with_offset(i * PUT_LEN);
        memput(&mut eng, 0, put, bytes(i), OpId::from_raw(3 * i + 1));
        let add = AmoOp::FetchAdd { operand: 1 };
        memamo(&mut eng, 0, word, add, OpId::from_raw(3 * i + 2));
    }
    let g = &eng.state.data.gas[0];
    let queued = (3 * per_kind - u64::from(POST_DEPTH)) as usize;
    assert_eq!((g.posted_ops(), g.queued_ops()), (POST_DEPTH, queued));
    let snaps = g.op_snapshots();
    let waiting = &snaps[POST_DEPTH as usize..];
    assert_eq!(waiting.len(), queued);
    for (n, s) in waiting.iter().enumerate() {
        let i = u64::from(POST_DEPTH) + n as u64;
        let kind = ["get", "put", "amo"][(i % 3) as usize];
        assert_eq!((s.kind, s.id, s.phase), (kind, None, OpPhase::Queued));
        let gva = match i % 3 {
            0 => block.with_offset(per_kind * PUT_LEN + 8),
            1 => block.with_offset(i / 3 * PUT_LEN),
            _ => word,
        };
        assert_eq!(s.gva, gva, "op {i}");
        assert!(s.render(eng.now()).starts_with(&format!("{kind} - ")));
    }
    eng.run();
    let mut ends: HashMap<u64, u32> = HashMap::new();
    let mut olds = Vec::new();
    for (_, l, ev) in eng.state.events() {
        let ctx = match ev {
            SimEv::PutDone(c) | SimEv::GetDone(c, _) => c,
            SimEv::AmoDone(c, r) => {
                olds.push(r.old);
                c
            }
            SimEv::OpFailed(c, e) => panic!("op {c} failed: {e}"),
            _ => continue,
        };
        assert_eq!(l, 0);
        *ends.entry(ctx).or_default() += 1;
    }
    assert_eq!(ends.len() as u64, 3 * per_kind);
    assert!(ends.values().all(|&n| n == 1), "an op ended twice");
    // Each fetch-add applied once: the word counts them, and each saw a
    // distinct prior value.
    olds.sort_unstable();
    assert_eq!(olds, (0..per_kind).collect::<Vec<_>>());
    let data = &mut *eng.state.data;
    let base = data.gas[1].btt.lookup(block.block_key()).unwrap().base;
    let mem = data.cluster.mem(1);
    for i in 0..per_kind {
        let at = base + i * PUT_LEN;
        assert_eq!(mem.read(at, PUT_LEN as usize).unwrap(), bytes(i), "put {i}");
    }
    let counted = mem.read(base + per_kind * PUT_LEN, 8).unwrap();
    assert_eq!(u64::from_le_bytes(counted.try_into().unwrap()), per_kind);
}

#[test]
fn a_queued_get_burst_keeps_its_history() {
    // With history on, each get records its issue event at submission and
    // marks it done with the value it read when it completes: a get that
    // waited unadmitted carries its event's index through the queue.
    let (mut eng, blocks) = world(2, NetConfig::ib_fdr(), Time::from_ms(10));
    for g in &mut eng.state.data.gas {
        g.cfg.record_history = true;
    }
    let slot = |i: u64| blocks[1].with_offset((i % 64) * 8);
    for i in 0..64u64 {
        let data = (i + 1).to_le_bytes().to_vec();
        memput(&mut eng, 0, slot(i), data, OpId::from_raw(i));
    }
    eng.run();
    let burst = u64::from(POST_DEPTH) + 64;
    for i in 0..burst {
        memget(&mut eng, 0, slot(i), 8, OpId::from_raw(100 + i));
    }
    assert_eq!(eng.state.data.gas[0].queued_ops(), 64);
    eng.run();
    assert_eq!(eng.state.get_acks(), burst);
    assert_eq!(check_history(&eng.state), vec![]);
    let gets: Vec<_> = eng.state.data.gas[0]
        .history
        .iter()
        .filter(|e| e.kind == HistKind::Get)
        .collect();
    assert_eq!(gets.len() as u64, burst);
    for (i, e) in gets.iter().enumerate() {
        let read = (i as u64 % 64 + 1).to_le_bytes();
        assert!(e.ok && e.done.is_some(), "get {i} never completed: {e:?}");
        assert_eq!(e.value, value_hash(&read), "get {i}");
    }
}
