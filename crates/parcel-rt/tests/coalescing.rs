//! Parcel batching through the shared descriptor-ring layer: small parcels
//! per destination ride one doorbell per drained batch.

use agas::{Distribution, GasMode};
use netsim::{RingConfig, Time};
use parcel_rt::{RtConfig, Runtime};
use std::cell::Cell;
use std::rc::Rc;

fn ringed(doorbell_batch: usize, doorbell_delay: Time) -> RtConfig {
    RtConfig {
        ring: Some(RingConfig {
            doorbell_batch,
            doorbell_delay,
            max_bytes: 1 << 20,
            ..RingConfig::default()
        }),
        ..RtConfig::default()
    }
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
    // The shared ring layer saw those doorbells and coalesced descriptors.
    let rs = rt.eng.state.rt[0].ring_stats();
    assert!(rs.doorbells >= 13, "{rs:?}");
    assert!(rs.coalesced > 0, "{rs:?}");
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
    let mut b = Runtime::builder(2, GasMode::AgasNetwork);
    let count = Rc::new(Cell::new(0u32));
    let c2 = count.clone();
    let bump = b.register("bump", move |_, _| c2.set(c2.get() + 1));
    // Huge thresholds: only the doorbell timer can drain the ring.
    let mut rt = b.rt_config(ringed(1_000_000, Time::from_us(3))).boot();
    let arr = rt.alloc(2, 12, Distribution::Cyclic);
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
    // Block 0 is local to locality 0: must not sit in a submission ring.
    rt.spawn(0, arr.block(0), probe, vec![], None);
    rt.eng.run_until(Time::from_us(50));
    assert!(hit.get(), "local parcel stuck behind the ring");
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
