//! Per-peer parcel batching: small parcels per destination ride one
//! doorbell per flushed batch.

use agas::{Distribution, GasMode};
use netsim::{RingConfig, Time};
use parcel_rt::parcel::PARCEL_HEADER_BYTES;
use parcel_rt::{RtConfig, Runtime};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

fn ringed(doorbell_batch: usize, doorbell_delay: Time) -> RtConfig {
    ringed_bytes(doorbell_batch, doorbell_delay, 1 << 20)
}

fn ringed_bytes(doorbell_batch: usize, doorbell_delay: Time, max_bytes: u32) -> RtConfig {
    RtConfig {
        ring: Some(RingConfig {
            doorbell_batch,
            doorbell_delay,
            max_bytes,
        }),
        ..RtConfig::default()
    }
}

/// Two localities with `cfg` and a `count` action; the array's block 1
/// lives on locality 1.
fn two_locs(
    cfg: RtConfig,
) -> (
    Runtime,
    agas::GlobalArray,
    parcel_rt::ActionId,
    Rc<Cell<u32>>,
) {
    let mut b = Runtime::builder(2, GasMode::AgasNetwork);
    let count = Rc::new(Cell::new(0u32));
    let c2 = count.clone();
    let id = b.register("count", move |_, _| c2.set(c2.get() + 1));
    let mut rt = b.rt_config(cfg).boot();
    let arr = rt.alloc(2, 12, Distribution::Cyclic);
    (rt, arr, id, count)
}

fn spawn_burst(
    rt: &mut Runtime,
    arr: &agas::GlobalArray,
    bump: parcel_rt::ActionId,
    n: u64,
    gate: agas::Gva,
) {
    for _ in 0..n {
        rt.spawn(0, arr.block(1), bump, vec![0u8; 16], Some(gate));
    }
}

#[test]
fn ring_batching_delivers_everything() {
    let mut b = Runtime::builder(2, GasMode::AgasNetwork);
    let count = Rc::new(Cell::new(0u32));
    let c2 = count.clone();
    let bump = b.register("bump", move |eng, ctx| {
        c2.set(c2.get() + 1);
        parcel_rt::reply(eng, &ctx, vec![]);
    });
    let mut rt = b.rt_config(ringed(8, Time::from_us(5))).boot();
    let arr = rt.alloc(2, 12, Distribution::Cyclic);
    let gate = rt.new_and(0, 100);
    spawn_burst(&mut rt, &arr, bump, 100, gate);
    let fired = Rc::new(Cell::new(false));
    let f = fired.clone();
    rt.wait_lco(gate, move |_, _| f.set(true));
    rt.run();
    rt.assert_quiescent();
    assert!(fired.get());
    assert_eq!(count.get(), 100);
    // 100 parcels in batches of ≤8: at least 13 doorbells, far fewer than
    // 100 wire messages.
    let stats = rt.eng.state.total_rt_stats();
    assert!(stats.batches_sent >= 13, "{}", stats.batches_sent);
    // Every parcel locality 0 sent left in a batch.
    assert_eq!(rt.eng.state.rt[0].ring_stats().descs, 100);
}

#[test]
fn parcel_count_flushes_exact_batches() {
    // The timer is far out: only the count limit can flush.
    let (mut rt, arr, id, count) = two_locs(ringed(4, Time::from_ms(10)));
    for _ in 0..12 {
        rt.spawn(0, arr.block(1), id, vec![0u8; 16], None);
    }
    let t0 = rt.now();
    rt.eng.run_until(t0 + Time::from_us(50));
    assert_eq!(count.get(), 12);
    assert_eq!(rt.eng.state.rt[0].stats.batches_sent, 3);
    assert_eq!(rt.eng.state.rt[0].ring_stats().descs, 12);
    rt.run();
    rt.assert_quiescent();
    assert_eq!(rt.eng.state.rt[0].stats.batches_sent, 3);
}

#[test]
fn byte_budget_flushes_exact_batches() {
    // Three 16-byte parcels fill the budget; the count limit never binds.
    let budget = 3 * (16 + PARCEL_HEADER_BYTES);
    let cfg = ringed_bytes(1_000_000, Time::from_ms(10), budget);
    let (mut rt, arr, id, count) = two_locs(cfg);
    for _ in 0..9 {
        rt.spawn(0, arr.block(1), id, vec![0u8; 16], None);
    }
    let t0 = rt.now();
    rt.eng.run_until(t0 + Time::from_us(50));
    assert_eq!(count.get(), 9);
    assert_eq!(rt.eng.state.rt[0].stats.batches_sent, 3);
    rt.run();
    rt.assert_quiescent();
    assert_eq!(rt.eng.state.rt[0].stats.batches_sent, 3);
}

#[test]
fn stale_timer_leaves_the_next_batch_alone() {
    let delay = Time::from_us(10);
    let (mut rt, arr, id, count) = two_locs(ringed(4, delay));
    let t0 = rt.now();
    // Four parcels: the first arms a timer for t0 + 10 µs, the fourth
    // flushes the batch at once.
    for _ in 0..4 {
        rt.spawn(0, arr.block(1), id, vec![], None);
    }
    rt.eng.run_until(t0 + Time::from_us(5));
    assert_eq!(rt.eng.state.rt[0].stats.batches_sent, 1);
    // A fifth parcel starts the next batch and arms its own timer.
    rt.spawn(0, arr.block(1), id, vec![], None);
    // The first timer fires at t0 + 10 µs and must do nothing.
    rt.eng.run_until(t0 + Time::from_us(14));
    assert_eq!(
        rt.eng.state.rt[0].stats.batches_sent, 1,
        "stale timer flushed"
    );
    assert_eq!(count.get(), 4);
    // The second timer flushes at t0 + 15 µs.
    rt.eng.run_until(t0 + Time::from_us(30));
    assert_eq!(rt.eng.state.rt[0].stats.batches_sent, 2);
    assert_eq!(count.get(), 5);
    rt.run();
    rt.assert_quiescent();
}

#[test]
fn a_batch_keeps_push_order() {
    let mut b = Runtime::builder(2, GasMode::AgasNetwork);
    let seen = Rc::new(RefCell::new(Vec::new()));
    let s2 = seen.clone();
    let id = b.register("record", move |_, ctx| s2.borrow_mut().push(ctx.args[0]));
    let mut rt = b.rt_config(ringed(8, Time::from_ms(10))).boot();
    let arr = rt.alloc(2, 12, Distribution::Cyclic);
    for i in 0..8u8 {
        rt.spawn(0, arr.block(1), id, vec![i], None);
    }
    rt.run();
    rt.assert_quiescent();
    assert_eq!(rt.eng.state.rt[0].stats.batches_sent, 1);
    assert_eq!(*seen.borrow(), (0..8).collect::<Vec<u8>>());
}

#[test]
#[should_panic(expected = "locality 0: parcel batch peer=1 parcels=3 bytes=120")]
fn quiescence_report_names_a_waiting_batch() {
    let (mut rt, arr, id, _) = two_locs(ringed(1_000_000, Time::from_ms(10)));
    for _ in 0..3 {
        rt.spawn(0, arr.block(1), id, vec![0u8; 16], None);
    }
    let t0 = rt.now();
    rt.eng.run_until(t0 + Time::from_us(50));
    rt.assert_quiescent();
}

#[test]
fn ring_batching_cuts_message_count() {
    let run = |ring: Option<RingConfig>| {
        let mut b = Runtime::builder(2, GasMode::AgasNetwork);
        let bump = b.register("bump", |_, _| {});
        let mut rt = b
            .rt_config(RtConfig {
                ring,
                ..RtConfig::default()
            })
            .boot();
        let arr = rt.alloc(2, 12, Distribution::Cyclic);
        for _ in 0..200u32 {
            rt.spawn(0, arr.block(1), bump, vec![0u8; 16], None);
        }
        rt.run();
        rt.counters().msgs_sent
    };
    let plain = run(None);
    let batched = run(Some(RingConfig::default()));
    assert!(
        batched * 4 < plain,
        "batched={batched} plain={plain}: ring batching should slash message count"
    );
}

#[test]
fn doorbell_timer_drains_partial_batches() {
    // Huge thresholds: only the doorbell timer can flush the batch.
    let (mut rt, arr, bump, count) = two_locs(ringed(1_000_000, Time::from_us(3)));
    for _ in 0..5 {
        rt.spawn(0, arr.block(1), bump, vec![], None);
    }
    rt.run();
    assert_eq!(count.get(), 5, "timer doorbell lost parcels");
    assert_eq!(rt.eng.state.total_rt_stats().batches_sent, 1);
}

#[test]
fn local_parcels_bypass_the_ring() {
    let mut b = Runtime::builder(2, GasMode::AgasNetwork);
    let hit = Rc::new(Cell::new(false));
    let h = hit.clone();
    let probe = b.register("probe", move |_, _| h.set(true));
    let mut rt = b.rt_config(ringed(1_000_000, Time::from_ms(10))).boot();
    let arr = rt.alloc(2, 12, Distribution::Cyclic);
    // Block 0 is local to locality 0: must not wait in a batch.
    rt.spawn(0, arr.block(0), probe, vec![], None);
    rt.eng.run_until(Time::from_us(50));
    assert!(hit.get(), "local parcel stuck in a batch");
    rt.run();
}

#[test]
fn ring_batching_preserves_gups_checksum() {
    let cfg = workloads::gups::GupsConfig {
        cells_per_loc: 256,
        updates_per_loc: 200,
        window: 8,
        use_actions: true,
        ..workloads::gups::GupsConfig::default()
    };
    let expect = workloads::gups::expected_checksum(&cfg, 3);
    let mut b = Runtime::builder(3, GasMode::AgasNetwork);
    workloads::gups::register_actions(&mut b);
    let mut rt = b.rt_config(ringed(16, Time::from_us(5))).boot();
    let table = workloads::gups::alloc_table(&mut rt, &cfg);
    workloads::gups::run(&mut rt, &cfg, &table);
    assert_eq!(workloads::gups::table_checksum(&rt, &table), expect);
}
