//! The shared-memory crossover series (`repro shm`, EXPERIMENTS.md).
//!
//! The same single-op latency kernel, run once over the network AGAS path
//! and once inside a [`ShmDomain`], where co-located localities
//! short-circuit the NIC with a load/store cost model and **zero wire
//! messages**. Every count is read from the kernel's own runtime.

use agas::{Distribution, GasMode};
use netsim::{NetConfig, ShmDomain, Time};
use parcel_rt::Runtime;
use std::cell::RefCell;
use std::rc::Rc;

fn class_for(size: u32) -> u8 {
    let needed = size.max(4096);
    (u32::BITS - (needed - 1).leading_zeros()) as u8
}

/// One size point of the shm-vs-network crossover.
#[derive(Clone, Copy, Debug)]
pub struct ShmCrossRow {
    /// Transfer size in bytes.
    pub size: u32,
    /// Remote put latency over the network AGAS path.
    pub net_put: Time,
    /// Remote get latency over the network AGAS path.
    pub net_get: Time,
    /// Same put, initiator and home co-located in one [`ShmDomain`].
    pub shm_put: Time,
    /// Same get inside the domain.
    pub shm_get: Time,
    /// Wire messages the two intra-domain ops cost (the invariant: 0).
    pub shm_msgs: u64,
    /// Ops that took the load/store short-circuit (the invariant: 2).
    pub shm_ops: u64,
}

impl ShmCrossRow {
    /// How much faster the intra-domain put is.
    pub fn put_speedup(&self) -> f64 {
        self.net_put.ps() as f64 / self.shm_put.ps().max(1) as f64
    }
}

/// One remote put + get of `size` bytes, A/B between the network AGAS
/// path and an intra-domain shared-memory short-circuit.
pub fn shm_cross_row(size: u32) -> ShmCrossRow {
    let run = |shm: Option<ShmDomain>| {
        let net = NetConfig {
            shm,
            ..NetConfig::ib_fdr()
        };
        let mut rt = Runtime::builder(2, GasMode::AgasNetwork).net(net).boot();
        let arr = rt.alloc(2, class_for(size), Distribution::Cyclic);
        let msgs0 = rt.counters().msgs_sent;
        let t_put = Rc::new(RefCell::new(Time::ZERO));
        let t2 = t_put.clone();
        let t0 = rt.now();
        rt.memput_cb(0, arr.block(1), vec![7u8; size as usize], move |eng, _| {
            *t2.borrow_mut() = eng.now();
        });
        rt.run();
        let put = *t_put.borrow() - t0;
        let t_get = Rc::new(RefCell::new(Time::ZERO));
        let t3 = t_get.clone();
        let t1 = rt.now();
        rt.memget_cb(0, arr.block(1), size, move |eng, data| {
            assert!(data.iter().all(|&b| b == 7), "shm path corrupted data");
            *t3.borrow_mut() = eng.now();
        });
        rt.run();
        rt.assert_quiescent();
        let get = *t_get.borrow() - t1;
        let msgs = rt.counters().msgs_sent - msgs0;
        let shm_ops = rt.eng.state.total_gas_stats().shm_ops;
        (put, get, msgs, shm_ops)
    };
    let (net_put, net_get, _, _) = run(None);
    let (shm_put, shm_get, shm_msgs, shm_ops) = run(Some(ShmDomain::node(2)));
    ShmCrossRow {
        size,
        net_put,
        net_get,
        shm_put,
        shm_get,
        shm_msgs,
        shm_ops,
    }
}
