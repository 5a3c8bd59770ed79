//! The LCO lifecycle (DESIGN.md §3.11): LCOs live in a generational slab,
//! their address packs slot and generation, and they retire on delivery.
//!
//! * a shadow proptest drives `new_* / lco_set / attach_* / peek` against a
//!   plain `HashMap` model: every waiter gets its value exactly once, a
//!   retired address never resolves, a reused slot never answers to an
//!   earlier tenant's address;
//! * the generation wrap is pinned: an address repeats after exactly
//!   `2^GEN_BITS` reuses of one slot and not before;
//! * a closed-loop regression holds the tables to the window size;
//! * late and duplicated sets/attaches see what the docs say they see.

use agas::{Distribution, GasMode, Gva};
use netsim::Engine;
use parcel_rt::lco::{PendingLco, GEN_BITS, SLOT_BITS};
use parcel_rt::parcel::ACTION_LCO_SET;
use parcel_rt::{ActionId, Parcel, ReduceOp, Runtime, World};
use proptest::prelude::*;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

/// `(waiter tag, delivered value)` in delivery order.
type Log = Rc<RefCell<Vec<(u64, Vec<u8>)>>>;

/// Boot `n` localities with a `record` action that logs `(tag, value)` from
/// its `tag ++ value` arguments — the `attach_parcel` continuation — and an
/// `echo` action that replies with its arguments.
fn boot(n: usize) -> (Runtime, Log, ActionId, ActionId) {
    let log: Log = Rc::default();
    let sink = log.clone();
    let mut b = Runtime::builder(n, GasMode::AgasNetwork);
    let record = b.register("record", move |_, ctx| {
        let tag = u64::from_le_bytes(ctx.args[..8].try_into().unwrap());
        sink.borrow_mut().push((tag, ctx.args[8..].to_vec()));
    });
    let echo = b.register("echo", |eng, ctx| {
        let v = ctx.args.clone();
        parcel_rt::reply(eng, &ctx, v);
    });
    (b.boot(), log, record, echo)
}

fn wait_tagged(rt: &mut Runtime, lco: Gva, tag: u64, log: &Log) {
    let log = log.clone();
    rt.wait_lco(lco, move |_, v| log.borrow_mut().push((tag, v)));
}

/// An `ACTION_LCO_SET` parcel as the wire would carry it.
fn set_parcel(lco: Gva, from: u32, value: Vec<u8>) -> Parcel {
    Parcel {
        target: lco,
        action: ACTION_LCO_SET,
        args: value,
        cont: None,
        src: from,
        hops: 0,
    }
}

fn stale_sets(rt: &Runtime) -> u64 {
    rt.eng.state.total_rt_stats().stale_lco_sets
}

// ------------------------------------------------------------ shadow model

#[derive(Clone, Copy, Debug)]
enum Op {
    NewFuture,
    NewAnd(u64),
    NewReduce(u64),
    /// Set handle `.0 % minted` from locality `.1` with value `.2`.
    Set(usize, u32, u64),
    AttachDriver(usize),
    AttachParcel(usize),
    Peek(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => Just(Op::NewFuture),
        1 => (1u64..4).prop_map(Op::NewAnd),
        1 => (1u64..4).prop_map(Op::NewReduce),
        6 => (0usize..64, 0u32..3, any::<u64>()).prop_map(|(h, l, v)| Op::Set(h, l, v)),
        3 => (0usize..64).prop_map(Op::AttachDriver),
        2 => (0usize..64).prop_map(Op::AttachParcel),
        2 => (0usize..64).prop_map(Op::Peek),
    ]
}

enum Kind {
    Future,
    And(u64),
    Reduce(u64, u64),
}

/// What a plain map says one live LCO holds.
struct Model {
    kind: Kind,
    value: Option<Vec<u8>>,
    waiters: Vec<u64>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn lco_table_matches_hashmap_model(
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        let (mut rt, log, record, _) = boot(3);
        let sinks = rt.alloc(3, 12, Distribution::Cyclic);
        let mut live: HashMap<u64, Model> = HashMap::new();
        let mut minted: Vec<Gva> = Vec::new();
        let mut expect: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut expect_stale = 0u64;
        let mut next_tag = 0u64;
        for op in ops {
            let pick = |h: usize| (!minted.is_empty()).then(|| minted[h % minted.len()]);
            match op {
                Op::NewFuture | Op::NewAnd(_) | Op::NewReduce(_) => {
                    // All at locality 0, so retired slots are reused at once.
                    let (lco, kind) = match op {
                        Op::NewFuture => (rt.new_future(0), Kind::Future),
                        Op::NewAnd(n) => (rt.new_and(0, n), Kind::And(n)),
                        Op::NewReduce(n) => (rt.new_reduce(0, n, ReduceOp::Sum), Kind::Reduce(n, 0)),
                        _ => unreachable!(),
                    };
                    // A fresh address: never one an earlier tenant of the
                    // slot answered to.
                    prop_assert!(!minted.contains(&lco), "address {lco:?} minted twice");
                    minted.push(lco);
                    live.insert(lco.0, Model { kind, value: None, waiters: Vec::new() });
                }
                Op::Set(h, from, v) => {
                    let Some(lco) = pick(h) else { continue };
                    let bytes = v.to_le_bytes().to_vec();
                    let Some(m) = live.get_mut(&lco.0) else {
                        // Retired: counted, dropped, touches nobody.
                        parcel_rt::lco_set(&mut rt.eng, from, lco, bytes);
                        expect_stale += 1;
                        continue;
                    };
                    if m.value.is_some() {
                        continue; // a second set of a live, fired LCO panics
                    }
                    parcel_rt::lco_set(&mut rt.eng, from, lco, bytes.clone());
                    let fired = match &mut m.kind {
                        Kind::Future => Some(bytes),
                        Kind::And(n) => {
                            *n -= 1;
                            (*n == 0).then(Vec::new)
                        }
                        Kind::Reduce(n, acc) => {
                            *n -= 1;
                            *acc = acc.wrapping_add(v);
                            (*n == 0).then(|| acc.to_le_bytes().to_vec())
                        }
                    };
                    if let Some(value) = fired {
                        if m.waiters.is_empty() {
                            m.value = Some(value);
                        } else {
                            let m = live.remove(&lco.0).unwrap();
                            expect.extend(m.waiters.into_iter().map(|t| (t, value.clone())));
                        }
                    }
                }
                Op::AttachDriver(h) | Op::AttachParcel(h) => {
                    let Some(lco) = pick(h) else { continue };
                    let Some(m) = live.get_mut(&lco.0) else {
                        continue; // attaching to a retired LCO panics (tested below)
                    };
                    let tag = next_tag;
                    next_tag += 1;
                    if matches!(op, Op::AttachDriver(_)) {
                        wait_tagged(&mut rt, lco, tag, &log);
                    } else {
                        let to = sinks.block(tag % 3);
                        let prefix = tag.to_le_bytes().to_vec();
                        parcel_rt::attach_parcel(&mut rt.eng, lco, to, record, prefix, None);
                    }
                    match m.value.take() {
                        Some(value) => {
                            live.remove(&lco.0);
                            expect.push((tag, value));
                        }
                        None => m.waiters.push(tag),
                    }
                }
                Op::Peek(h) => {
                    let Some(lco) = pick(h) else { continue };
                    let got = parcel_rt::peek(&rt.eng.state, lco).map(|s| s.value().map(<[u8]>::to_vec));
                    prop_assert_eq!(got, live.get(&lco.0).map(|m| m.value.clone()), "peek {:?}", lco);
                }
            }
            rt.run();
            let mut got = log.borrow().clone();
            got.sort();
            expect.sort();
            prop_assert_eq!(&got, &expect, "deliveries after {:?}", op);
            prop_assert_eq!(stale_sets(&rt), expect_stale);
        }
        let tags: HashSet<u64> = expect.iter().map(|&(t, _)| t).collect();
        prop_assert_eq!(tags.len(), expect.len(), "a waiter was served twice");
        prop_assert_eq!(rt.eng.state.rt[0].lcos.len(), live.len());
        prop_assert_eq!(rt.pending_lcos().len(), live.values().filter(|m| !m.waiters.is_empty()).count());
    }
}

// ------------------------------------------------------- generation wrap

/// One slot, reused `2^GEN_BITS` times: its first address stays dead for
/// every reuse but the last, which mints it again — the documented limit of
/// a generation truncated to fit the address.
#[test]
fn address_repeats_only_after_a_full_generation_wrap() {
    let (mut rt, log, ..) = boot(1);
    let first = rt.new_future(0);
    let mut lco = first;
    let wrap = 1u64 << GEN_BITS;
    for i in 0..wrap {
        if i % 4096 == 1 {
            // A set left over from the first tenant meets tenant `i`.
            parcel_rt::lco_set(&mut rt.eng, 0, first, vec![0xEE]);
        }
        wait_tagged(&mut rt, lco, i, &log);
        parcel_rt::lco_set(&mut rt.eng, 0, lco, vec![i as u8]);
        rt.run();
        assert!(
            parcel_rt::peek(&rt.eng.state, lco).is_none(),
            "reuse {i} did not retire"
        );
        assert!(parcel_rt::peek(&rt.eng.state, first).is_none());
        lco = rt.new_future(0);
        assert_eq!(
            lco.seq() % (1 << SLOT_BITS),
            first.seq() % (1 << SLOT_BITS),
            "slot not reused"
        );
        assert_eq!(lco == first, i + 1 == wrap, "after {} reuses", i + 1);
    }
    assert_eq!(rt.eng.state.rt[0].lcos.capacity(), 1);
    assert_eq!(
        stale_sets(&rt),
        wrap / 4096,
        "every leftover set was dropped"
    );
    let log = log.borrow();
    assert_eq!(log.len() as u64, wrap);
    assert!(
        log.iter().all(|(i, v)| v == &[*i as u8]),
        "a waiter got another tenant's value"
    );
}

// ------------------------------------------------------- bounded tables

const WINDOW: u64 = 64;
const PER_LOC: u64 = 5_000;

struct Loop {
    echo: ActionId,
    table: agas::GlobalArray,
    issued: [Cell<u64>; 2],
    done: Cell<u64>,
}

fn issue(eng: &mut Engine<World>, st: Rc<Loop>, loc: u32) {
    let seq = st.issued[loc as usize].get();
    if seq == PER_LOC {
        return;
    }
    st.issued[loc as usize].set(seq + 1);
    let fut = parcel_rt::new_future(eng, loc);
    let st2 = st.clone();
    parcel_rt::attach_driver(eng, fut, move |eng, v| {
        assert_eq!(v, seq.to_le_bytes());
        st2.done.set(st2.done.get() + 1);
        issue(eng, st2, loc);
    });
    let parcel = Parcel {
        target: st.table.block(u64::from(loc ^ 1)),
        action: st.echo,
        args: seq.to_le_bytes().to_vec(),
        cont: Some(fut),
        src: loc,
        hops: 0,
    };
    parcel_rt::send_parcel(eng, loc, parcel);
}

#[test]
fn round_trips_leave_tables_empty_and_window_sized() {
    let (mut rt, _, _, echo) = boot(2);
    let table = rt.alloc(2, 12, Distribution::Cyclic);
    let issued = [Cell::new(0), Cell::new(0)];
    let st = Rc::new(Loop {
        echo,
        table,
        issued,
        done: Cell::new(0),
    });
    for loc in 0..2 {
        for _ in 0..WINDOW {
            issue(&mut rt.eng, st.clone(), loc);
        }
    }
    rt.run();
    rt.assert_quiescent();
    assert_eq!(st.done.get(), 2 * PER_LOC);
    assert_eq!(rt.eng.state.live_driver_slots(), 0);
    assert_eq!(rt.pending_lcos(), []);
    for r in &rt.eng.state.rt {
        assert_eq!(r.lcos.len(), 0, "an LCO outlived its delivery");
        assert!(
            r.lcos.capacity() as u64 <= WINDOW + 1,
            "table grew to {}",
            r.lcos.capacity()
        );
        assert_eq!(r.stats.stale_lco_sets, 0);
    }
}

// ------------------------------------------- late sets, late attaches

/// The fault plane never duplicates a parcel (user messages are opaque to
/// it and cannot be cloned — `netsim::send_user_classed`), so the second
/// copy a duplicating fabric would deliver is injected by hand.
#[test]
fn duplicated_set_of_a_delivered_future_is_counted_and_dropped() {
    let (mut rt, log, ..) = boot(2);
    let fut = rt.new_future(0);
    wait_tagged(&mut rt, fut, 7, &log);
    for _ in 0..2 {
        parcel_rt::send_parcel(&mut rt.eng, 1, set_parcel(fut, 1, vec![42]));
    }
    rt.run();
    assert_eq!(*log.borrow(), [(7, vec![42])], "delivered once");
    assert_eq!(stale_sets(&rt), 1);
    assert_eq!(
        rt.eng.state.total_rt_stats().lco_ops,
        1,
        "the copy applied nothing"
    );
    // The slot's next tenant is out of the old address's reach.
    let next = rt.new_future(0);
    assert_ne!(next, fut);
    parcel_rt::send_parcel(&mut rt.eng, 1, set_parcel(fut, 1, vec![43]));
    rt.run();
    assert_eq!(stale_sets(&rt), 2);
    assert!(!parcel_rt::peek(&rt.eng.state, next)
        .expect("next is live")
        .is_set());
    rt.assert_quiescent();
}

#[test]
fn late_attach_takes_the_kept_value_and_retires_the_future() {
    let (mut rt, log, ..) = boot(1);
    let fut = rt.new_future(0);
    parcel_rt::lco_set(&mut rt.eng, 0, fut, vec![9]);
    rt.run();
    let kept = parcel_rt::peek(&rt.eng.state, fut).expect("fired with no waiter: still live");
    assert_eq!(kept.value(), Some(&[9u8][..]));
    wait_tagged(&mut rt, fut, 1, &log);
    rt.run();
    assert_eq!(*log.borrow(), [(1, vec![9])]);
    assert!(
        parcel_rt::peek(&rt.eng.state, fut).is_none(),
        "consumed by the first attach"
    );
    let second = catch_unwind(AssertUnwindSafe(|| wait_tagged(&mut rt, fut, 2, &log)));
    let msg = *second
        .expect_err("second attach must panic")
        .downcast::<String>()
        .unwrap();
    assert!(
        msg.contains("retired on delivery"),
        "undocumented panic text: {msg}"
    );
}

#[test]
fn every_held_waiter_is_served_before_the_lco_retires() {
    let (mut rt, log, record, _) = boot(2);
    let sinks = rt.alloc(2, 12, Distribution::Cyclic);
    let gate = rt.new_reduce(0, 2, ReduceOp::Xor);
    wait_tagged(&mut rt, gate, 0, &log);
    let prefix = 1u64.to_le_bytes().to_vec();
    parcel_rt::attach_parcel(&mut rt.eng, gate, sinks.block(1), record, prefix, None);
    wait_tagged(&mut rt, gate, 2, &log);
    for v in [0b0110u64, 0b0011] {
        parcel_rt::lco_set(&mut rt.eng, 1, gate, v.to_le_bytes().to_vec());
    }
    rt.run();
    let mut got = log.borrow().clone();
    got.sort();
    let want = 0b0101u64.to_le_bytes().to_vec();
    assert_eq!(got, [(0, want.clone()), (1, want.clone()), (2, want)]);
    assert!(parcel_rt::peek(&rt.eng.state, gate).is_none());
}

// ------------------------------------------------- hung continuations

#[test]
fn pending_lcos_name_what_never_fired_without_failing_quiescence() {
    let (mut rt, log, ..) = boot(2);
    let gate = rt.new_and(1, 3);
    wait_tagged(&mut rt, gate, 0, &log);
    wait_tagged(&mut rt, gate, 1, &log);
    parcel_rt::lco_set(&mut rt.eng, 0, gate, vec![]);
    let idle = rt.new_future(0); // no waiter: nobody is hung on it
    rt.run();
    let want = PendingLco {
        lco: gate,
        kind: "and",
        remaining: 2,
        waiters: 2,
    };
    assert_eq!(rt.pending_lcos(), [want]);
    assert_eq!(rt.eng.state.live_driver_slots(), 2);
    assert!(parcel_rt::peek(&rt.eng.state, idle).is_some());
    rt.assert_quiescent(); // unchanged: a held gate alone is not a leak

    // A real leak's report now says where the continuation chain stopped.
    rt.eng
        .state
        .new_completion(parcel_rt::Completion::Lco(gate));
    let err = catch_unwind(AssertUnwindSafe(|| rt.assert_quiescent())).expect_err("leak");
    let msg = *err.downcast::<String>().unwrap();
    assert!(msg.contains("1 completions never fired"), "{msg}");
    assert!(msg.contains("2 driver slot(s) never fired"), "{msg}");
    assert!(
        msg.contains("locality 1: and") && msg.contains("needs 2 more set(s)"),
        "{msg}"
    );
}
