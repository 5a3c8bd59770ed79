//! The builder's boot guards: a fault plan that can drop messages needs
//! an operation deadline, a lossless one boots as before; parcel batching
//! needs the PWC transport.

use agas::{Distribution, GasMode};
use netsim::{FaultPlan, RingConfig};
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
