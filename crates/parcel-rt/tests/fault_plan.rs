//! The builder's boot guards: a fault plan that can drop messages needs
//! an operation deadline, a lossless one boots as before; parcel batching
//! needs the PWC transport. And what a lossy plan with a deadline leaves
//! behind: nothing, once every op has completed or failed. And what the
//! stuck report says of ops waiting in a PWC send queue.

use agas::{Distribution, GasConfig, GasMode};
use netsim::{FaultPlan, FaultRates, RingConfig, Time};
use parcel_rt::{RtConfig, Runtime, Transport};

#[test]
#[should_panic(expected = "op_deadline")]
fn lossy_plan_without_a_deadline_is_refused() {
    Runtime::builder(2, GasMode::AgasNetwork)
        .faults(FaultPlan::uniform(1, 0.02))
        .boot();
}

#[test]
fn lossless_plan_without_a_deadline_boots_and_quiesces() {
    let mut rt = Runtime::builder(4, GasMode::AgasNetwork)
        .faults(FaultPlan::lossless(1))
        .boot();
    let arr = rt.alloc(4, 12, Distribution::Cyclic);
    for blk in 0..4 {
        rt.memput(0, arr.block(blk), vec![7u8; 64]);
    }
    rt.run();
    rt.assert_quiescent();
    assert_eq!(rt.read_block(arr.block(3))[..64], [7u8; 64]);
}

#[test]
fn ops_the_deadline_fails_leave_no_record_behind() {
    // Half the answers from 1 to 0 are lost and no op may retry, so the
    // sweep fails every op whose answer went missing.
    let lossy = FaultRates {
        drop: 0.5,
        ..FaultRates::lossless()
    };
    let mut rt = Runtime::builder(2, GasMode::AgasNetwork)
        .gas_config(GasConfig {
            op_deadline: Some(Time::from_us(40)),
            max_attempts: 1,
            ..GasConfig::default()
        })
        .faults(FaultPlan {
            link_rates: vec![(1, 0, lossy)],
            ..FaultPlan::lossless(1)
        })
        .boot();
    let arr = rt.alloc(2, 12, Distribution::Cyclic);
    for i in 0..64 {
        rt.memput(0, arr.block(1).with_offset(i * 8), vec![i as u8; 8]);
    }
    rt.run();
    assert!(!rt.eng.state.op_failures.is_empty());
    rt.assert_quiescent();
}

#[test]
#[should_panic(expected = "RtConfig::ring")]
fn ring_over_isir_is_refused() {
    Runtime::builder(2, GasMode::AgasNetwork)
        .rt_config(RtConfig {
            transport: Transport::Isir,
            ring: Some(RingConfig::default()),
            ..RtConfig::default()
        })
        .boot();
}

#[test]
fn a_stuck_report_names_queued_ops_and_each_send_queue() {
    // More puts than one locality posts at once, checked before they run:
    // the report lists the ones waiting for a credit as `queued`, and the
    // locality's posted and queued counts.
    let mut rt = Runtime::builder(2, GasMode::AgasNetwork).boot();
    let arr = rt.alloc(2, 12, Distribution::Cyclic);
    let burst = agas::POST_DEPTH as u64 + 2;
    for i in 0..burst {
        rt.memput(0, arr.block(1).with_offset(i * 8), vec![1u8; 8]);
    }
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.assert_quiescent()))
        .expect_err("ops in flight");
    let msg = *err.downcast::<String>().unwrap();
    assert_eq!(msg.matches("state=queued").count(), 2, "{msg}");
    assert!(
        msg.contains("locality 0: send queue: 128 posted, 2 queued (depth 128)"),
        "{msg}"
    );
    rt.run();
    rt.assert_quiescent();
}
