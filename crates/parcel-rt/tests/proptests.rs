//! Property tests at the runtime layer: random parcel/LCO programs, LCO
//! semantics against oracles, coalescing/transport equivalence, and the
//! per-peer parcel batches against a shadow model of their flush rules.

use agas::{Distribution, GasMode};
use netsim::{Time, TraceKind};
use parcel_rt::parcel::PARCEL_HEADER_BYTES;
use parcel_rt::{ArgWriter, Parcel, ReduceOp, RingConfig, RtConfig, Runtime, Transport};
use proptest::prelude::*;
use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

/// Gathered (rank, payload) pairs, shared with driver callbacks.
type Gathered = Rc<RefCell<Vec<(u32, Vec<u8>)>>>;

/// The doorbells `(time, peer, parcels)` the flush rules predict for
/// pushes `(time, peer, wire bytes)` in time order. Timers never tie with
/// a push (the caller keeps them apart).
fn shadow_doorbells(cfg: RingConfig, pushes: &[(Time, u32, u32)]) -> Vec<(Time, u32, u32)> {
    let mut batch = [(0u32, 0u32, 0u64); 4]; // per peer: (parcels, bytes, epoch)
    let mut timers = BinaryHeap::new(); // Reverse((due, peer, epoch))
    let mut out = Vec::new();
    let end = (Time::MAX, 0, 0);
    for &(t, peer, bytes) in pushes.iter().chain([&end]) {
        while let Some(&Reverse((due, p, epoch))) = timers.peek() {
            if due > t {
                break;
            }
            timers.pop();
            let b = &mut batch[p as usize];
            if b.2 == epoch {
                out.push((due, p, b.0));
                *b = (0, 0, epoch + 1);
            }
        }
        if t == Time::MAX {
            break;
        }
        let b = &mut batch[peer as usize];
        b.0 += 1;
        b.1 += bytes;
        if b.0 as usize >= cfg.doorbell_batch || b.1 >= cfg.max_bytes {
            out.push((t, peer, b.0));
            *b = (0, 0, b.2 + 1);
        } else if b.0 == 1 {
            timers.push(Reverse((t + cfg.doorbell_delay, peer, b.2)));
        }
    }
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A reduce LCO computes the same fold as the in-memory oracle, for any
    /// operator, contribution set, and contributing localities.
    #[test]
    fn reduce_matches_oracle(
        values in proptest::collection::vec((any::<u64>(), 0u32..4), 1..24),
        op_sel in 0u8..4,
    ) {
        let op = [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max, ReduceOp::Xor][op_sel as usize];
        let mut rt = Runtime::builder(4, GasMode::AgasNetwork).boot();
        let red = rt.new_reduce(0, values.len() as u64, op);
        for &(v, from) in &values {
            parcel_rt::lco_set(&mut rt.eng, from, red, v.to_le_bytes().to_vec());
        }
        let got = Rc::new(Cell::new(0u64));
        let g = got.clone();
        rt.wait_lco(red, move |_, bytes| {
            g.set(u64::from_le_bytes(bytes.try_into().unwrap()));
        });
        rt.run();
        let expect = values.iter().fold(
            match op {
                ReduceOp::Sum | ReduceOp::Xor | ReduceOp::Max => 0u64,
                ReduceOp::Min => u64::MAX,
            },
            |acc, &(v, _)| match op {
                ReduceOp::Sum => acc.wrapping_add(v),
                ReduceOp::Min => acc.min(v),
                ReduceOp::Max => acc.max(v),
                ReduceOp::Xor => acc ^ v,
            },
        );
        prop_assert_eq!(got.get(), expect);
    }

    /// A gather LCO returns every contribution, ordered by rank, no matter
    /// the arrival order.
    #[test]
    fn gather_matches_oracle(
        mut entries in proptest::collection::vec((0u32..1000, proptest::collection::vec(any::<u8>(), 0..16)), 1..16),
    ) {
        // Ranks must be unique for a well-defined oracle.
        entries.sort_by_key(|&(r, _)| r);
        entries.dedup_by_key(|&mut (r, _)| r);
        let mut rt = Runtime::builder(3, GasMode::AgasSoftware).boot();
        let lco = parcel_rt::new_gather(&mut rt.eng, 0, entries.len() as u64);
        // Contribute in reverse order from varying localities.
        for (i, (rank, bytes)) in entries.iter().enumerate().rev() {
            parcel_rt::set_gather(&mut rt.eng, (i % 3) as u32, lco, *rank, bytes);
        }
        let got: Gathered = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        parcel_rt::attach_driver(&mut rt.eng, lco, move |_, bytes| {
            *g.borrow_mut() = parcel_rt::decode_gather(&bytes);
        });
        rt.run();
        prop_assert_eq!(&*got.borrow(), &entries);
    }

    /// The same random fan-out program produces identical block contents
    /// under every transport/coalescing combination.
    #[test]
    fn program_outcome_is_policy_independent(
        spawns in proptest::collection::vec((0u32..4, 0u64..8, 1u64..1000), 1..40),
        seed in 0u64..100,
    ) {
        let run = |transport: Transport, coalesce: bool| {
            let mut b = Runtime::builder(4, GasMode::AgasNetwork);
            let add = b.register("add", |eng, ctx| {
                let mut r = parcel_rt::ArgReader::new(&ctx.args);
                let v = r.u64();
                let phys = ctx.target_phys();
                eng.state.cluster.mem_mut(ctx.loc).xor_u64(phys, v).unwrap();
            });
            let mut rt = b
                .seed(seed)
                .rt_config(RtConfig {
                    transport,
                    ring: coalesce.then(RingConfig::default),
                    ..RtConfig::default()
                })
                .boot();
            let arr = rt.alloc(8, 12, Distribution::Cyclic);
            for &(from, block, v) in &spawns {
                rt.spawn(from, arr.block(block), add, ArgWriter::new().u64(v).finish(), None);
            }
            rt.run();
            rt.assert_quiescent();
            (0..8u64)
                .map(|b| {
                    let bytes = rt.read_block(arr.block(b));
                    u64::from_le_bytes(bytes[0..8].try_into().unwrap())
                })
                .collect::<Vec<u64>>()
        };
        let baseline = run(Transport::Pwc, false);
        prop_assert_eq!(run(Transport::Pwc, true), baseline.clone());
        prop_assert_eq!(run(Transport::Isir, false), baseline);
    }

    /// Random parcel streams from locality 0 to three peers: every flush
    /// happens exactly when the shadow model says — at the count limit, at
    /// the byte budget, or when the timer armed by a batch's first parcel
    /// fires while that batch is still waiting (a timer from an earlier,
    /// already-flushed batch does nothing) — and every parcel runs once.
    #[test]
    fn batches_match_shadow(
        batch in 1usize..6,
        max_bytes in 24u32..300,
        delay_steps in 1u64..40,
        ops in proptest::collection::vec((1u32..4, 0u64..30, 0usize..64), 1..80),
    ) {
        // Pushes land on multiples of 100 ns and timers 50 ns past one,
        // so no timer ties with a push.
        let cfg = RingConfig {
            doorbell_batch: batch,
            doorbell_delay: Time::from_ns(delay_steps * 100 + 50),
            max_bytes,
        };
        let mut b = Runtime::builder(4, GasMode::AgasNetwork);
        let ran = Rc::new(Cell::new(0usize));
        let r = ran.clone();
        let id = b.register("count", move |_, _| r.set(r.get() + 1));
        let mut rt = b
            .rt_config(RtConfig {
                ring: Some(cfg),
                ..RtConfig::default()
            })
            .boot();
        let arr = rt.alloc(4, 12, Distribution::Cyclic);
        rt.run();
        rt.eng.state.cluster.tracer.enable(1 << 16);
        let mut t = Time::from_ns(rt.now().ps().div_ceil(100_000) * 100 + 100);
        let mut pushes = Vec::new();
        for &(peer, gap, len) in &ops {
            t += Time::from_ns(gap * 100);
            pushes.push((t, peer, len as u32 + PARCEL_HEADER_BYTES));
            let parcel = Parcel {
                target: arr.block(u64::from(peer)),
                action: id,
                args: vec![0; len],
                cont: None,
                src: 0,
                hops: 0,
            };
            rt.eng.schedule_at_loc(t, 0, move |eng| parcel_rt::send_parcel(eng, 0, parcel));
        }
        rt.run();
        rt.assert_quiescent();
        prop_assert_eq!(ran.get(), ops.len());
        let mut got: Vec<(Time, u32, u32)> = rt
            .eng
            .state
            .cluster
            .tracer
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::Doorbell { at: 0, peer, descs } => Some((e.t, peer, descs)),
                _ => None,
            })
            .collect();
        got.sort();
        prop_assert_eq!(got, shadow_doorbells(cfg, &pushes));
    }

    /// Random and-gate fan-ins always fire exactly once after the last set.
    #[test]
    fn and_gate_fires_exactly_once(n in 1u64..64, extra_localities in 1usize..5) {
        let mut rt = Runtime::builder(extra_localities, GasMode::AgasNetwork).boot();
        let gate = rt.new_and(0, n);
        let fires = Rc::new(Cell::new(0u32));
        let f = fires.clone();
        rt.wait_lco(gate, move |_, _| f.set(f.get() + 1));
        for i in 0..n {
            parcel_rt::lco_set(
                &mut rt.eng,
                (i % extra_localities as u64) as u32,
                gate,
                vec![],
            );
            if i + 1 < n {
                rt.run();
                prop_assert_eq!(fires.get(), 0, "fired early at {}", i);
            }
        }
        rt.run();
        prop_assert_eq!(fires.get(), 1);
    }
}
