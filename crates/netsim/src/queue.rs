//! A virtual-time multi-server resource queue.
//!
//! Models a pool of `k` identical servers (e.g. a locality's worker threads)
//! in the timestamp domain: a job arriving at `t` with service time `s`
//! occupies the earliest-available server, starting at
//! `max(t, that server's free time)`. This gives the queueing delay that
//! makes the software-AGAS path collapse under load (experiments E4/E5):
//! every remote access in that mode consumes target CPU, and the CPU is a
//! bounded resource.

use crate::time::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A pool of `k` serial servers in virtual time.
///
/// ```
/// use netsim::{ServerPool, Time};
///
/// let mut pool = ServerPool::new(2);
/// let (s1, _) = pool.admit(Time::ZERO, Time::from_us(10));
/// let (s2, _) = pool.admit(Time::ZERO, Time::from_us(10));
/// let (s3, _) = pool.admit(Time::ZERO, Time::from_us(10));
/// assert_eq!(s1, Time::ZERO);
/// assert_eq!(s2, Time::ZERO);              // second server
/// assert_eq!(s3, Time::from_us(10));       // queues behind the first
/// ```
#[derive(Clone, Debug)]
pub struct ServerPool {
    /// Min-heap of `(free-at, server index)`: `admit` pops its root instead
    /// of scanning all `k` servers. The index in the key reproduces the
    /// original linear scan's lowest-index tie-break exactly, keeping
    /// server choice — and thus every trace hash — deterministic.
    free: BinaryHeap<Reverse<(Time, u32)>>,
    busy_total: Time,
    jobs: u64,
}

impl ServerPool {
    /// Create a pool of `k ≥ 1` servers, all idle at time zero.
    pub fn new(k: usize) -> ServerPool {
        assert!(k >= 1, "ServerPool needs at least one server");
        assert!(k <= u32::MAX as usize, "ServerPool index space is u32");
        ServerPool {
            free: (0..k as u32).map(|i| Reverse((Time::ZERO, i))).collect(),
            busy_total: Time::ZERO,
            jobs: 0,
        }
    }

    /// Number of servers.
    pub fn servers(&self) -> usize {
        self.free.len()
    }

    /// Admit a job arriving at `arrival` needing `service` time.
    /// Returns `(start, finish)` on the chosen server.
    pub fn admit(&mut self, arrival: Time, service: Time) -> (Time, Time) {
        // Earliest-free server; ties broken by lowest index for determinism.
        let Reverse((free, idx)) = self.free.pop().expect("non-empty pool");
        let start = arrival.max(free);
        let finish = start + service;
        self.free.push(Reverse((finish, idx)));
        self.busy_total += service;
        self.jobs += 1;
        (start, finish)
    }

    /// Total service time admitted so far.
    pub fn busy_total(&self) -> Time {
        self.busy_total
    }

    /// Jobs admitted so far.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Utilization over `[0, horizon]` (can exceed 1.0 only if the horizon
    /// predates queued work; callers pass the final clock).
    pub fn utilization(&self, horizon: Time) -> f64 {
        if horizon.ps() == 0 {
            return 0.0;
        }
        self.busy_total.ps() as f64 / (horizon.ps() as f64 * self.servers() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_server_fifo() {
        let mut p = ServerPool::new(1);
        let (s1, f1) = p.admit(Time::from_ns(0), Time::from_ns(10));
        assert_eq!((s1, f1), (Time::from_ns(0), Time::from_ns(10)));
        // Arrives while busy: waits.
        let (s2, f2) = p.admit(Time::from_ns(5), Time::from_ns(10));
        assert_eq!((s2, f2), (Time::from_ns(10), Time::from_ns(20)));
        // Arrives after drain: immediate.
        let (s3, _) = p.admit(Time::from_ns(100), Time::from_ns(1));
        assert_eq!(s3, Time::from_ns(100));
    }

    #[test]
    fn two_servers_run_in_parallel() {
        let mut p = ServerPool::new(2);
        let (_, f1) = p.admit(Time::from_ns(0), Time::from_ns(10));
        let (s2, f2) = p.admit(Time::from_ns(0), Time::from_ns(10));
        assert_eq!(s2, Time::from_ns(0), "second server takes the job");
        assert_eq!(f1, f2);
        // Third job queues behind the earliest-finishing server.
        let (s3, _) = p.admit(Time::from_ns(0), Time::from_ns(5));
        assert_eq!(s3, Time::from_ns(10));
    }

    #[test]
    fn accounting() {
        let mut p = ServerPool::new(2);
        p.admit(Time::from_ns(0), Time::from_ns(10));
        p.admit(Time::from_ns(0), Time::from_ns(30));
        assert_eq!(p.jobs(), 2);
        assert_eq!(p.busy_total(), Time::from_ns(40));
        // 40ns busy across 2 servers over 40ns horizon = 0.5 utilization.
        assert_eq!(p.utilization(Time::from_ns(40)), 0.5);
    }

    #[test]
    fn saturation_grows_queueing_delay() {
        // Offered load 2× capacity: start times must drift ever later.
        let mut p = ServerPool::new(1);
        let mut last_wait = Time::ZERO;
        for i in 0..100u64 {
            let arrival = Time::from_ns(i * 5);
            let (start, _) = p.admit(arrival, Time::from_ns(10));
            let wait = start - arrival;
            assert!(wait >= last_wait);
            last_wait = wait;
        }
        assert!(last_wait >= Time::from_ns(400));
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        let _ = ServerPool::new(0);
    }
}
