//! Measurement infrastructure: counters, log-scale histograms, and
//! time-weighted utilization accumulators.
//!
//! Experiment E10 ("protocol operations per memput") is read directly off
//! these counters; every other experiment reports simulated time plus the
//! relevant counter deltas.

use crate::time::Time;
use std::fmt;

/// Per-locality protocol counters.
///
/// Incremented by the NIC/network models and by the upper layers (runtime
/// scheduler, GAS). All counts are cumulative since construction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Two-sided user messages injected.
    pub msgs_sent: u64,
    /// Two-sided user messages delivered to software.
    pub msgs_recv: u64,
    /// Payload bytes injected (all operation kinds).
    pub bytes_sent: u64,
    /// RDMA put operations initiated.
    pub rdma_puts: u64,
    /// RDMA get operations initiated.
    pub rdma_gets: u64,
    /// NIC-executed active operations initiated.
    pub rdma_amos: u64,
    /// NIC translation-table hits at this locality's NIC.
    pub xlate_hits: u64,
    /// NIC translation-table misses (→ NACK to initiator).
    pub xlate_misses: u64,
    /// Operations retransmitted by this NIC via a forwarding entry.
    pub xlate_forwards: u64,
    /// NIC translation-table evictions (capacity pressure).
    pub xlate_evictions: u64,
    /// Forwarded requests this NIC parked because they outran the block
    /// they chase (released by the block's install, or expired).
    pub xlate_parked: u64,
    /// Parked requests this NIC gave up on and NACKed (`xlate_parked`
    /// minus this were released into a commit, or died with the NIC).
    pub xlate_park_expired: u64,
    /// NACK control messages sent by this NIC.
    pub nacks_sent: u64,
    /// NACKs received by initiators at this locality.
    pub nacks_recv: u64,
    /// Control messages (acks, RTS/CTS, directory traffic) sent.
    pub ctrl_sent: u64,
    /// Software message-handler invocations (target CPU involvement —
    /// the quantity the network-managed design drives to zero).
    pub sw_handler_runs: u64,
    /// Directory (home) lookups served at this locality.
    pub dir_lookups: u64,
    /// Blocks migrated away from this locality.
    pub migrations_out: u64,
    /// Blocks migrated into this locality.
    pub migrations_in: u64,
    /// Active memory operations executed at this locality's NIC (no
    /// target-CPU involvement).
    pub amo_executed: u64,
    /// AMO requests NACKed by this NIC (translation miss / bounds / TTL).
    pub amo_nacked: u64,
    /// AMO requests this NIC re-injected via a forwarding entry.
    pub amo_forwarded: u64,
    /// AMO requests answered from the responder cache (a duplicated or
    /// retried request whose execution already happened — the
    /// exactly-once machinery working).
    pub amo_replays: u64,
    /// Cumulative CPU busy time of this locality's workers.
    pub cpu_busy: Time,
    /// Cumulative NIC transmit-port busy time.
    pub nic_tx_busy: Time,
    /// Cumulative NIC receive-port busy time.
    pub nic_rx_busy: Time,
}

impl Counters {
    /// Element-wise accumulate `other` into `self` (cluster-wide totals).
    pub fn merge(&mut self, other: &Counters) {
        self.msgs_sent += other.msgs_sent;
        self.msgs_recv += other.msgs_recv;
        self.bytes_sent += other.bytes_sent;
        self.rdma_puts += other.rdma_puts;
        self.rdma_gets += other.rdma_gets;
        self.rdma_amos += other.rdma_amos;
        self.xlate_hits += other.xlate_hits;
        self.xlate_misses += other.xlate_misses;
        self.xlate_forwards += other.xlate_forwards;
        self.xlate_evictions += other.xlate_evictions;
        self.xlate_parked += other.xlate_parked;
        self.xlate_park_expired += other.xlate_park_expired;
        self.nacks_sent += other.nacks_sent;
        self.nacks_recv += other.nacks_recv;
        self.ctrl_sent += other.ctrl_sent;
        self.sw_handler_runs += other.sw_handler_runs;
        self.dir_lookups += other.dir_lookups;
        self.migrations_out += other.migrations_out;
        self.migrations_in += other.migrations_in;
        self.amo_executed += other.amo_executed;
        self.amo_nacked += other.amo_nacked;
        self.amo_forwarded += other.amo_forwarded;
        self.amo_replays += other.amo_replays;
        self.cpu_busy += other.cpu_busy;
        self.nic_tx_busy += other.nic_tx_busy;
        self.nic_rx_busy += other.nic_rx_busy;
    }
}

/// A base-2 logarithmic histogram of `u64` samples (latencies in ps,
/// message sizes in bytes, queue depths, ...).
#[derive(Clone, Debug)]
pub struct LogHistogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl LogHistogram {
    /// A fresh, empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram::default()
    }

    /// Record one sample.
    pub fn record(&mut self, sample: u64) {
        let bucket = 64 - sample.leading_zeros() as usize; // 0 for sample==0
        self.buckets[bucket.min(63)] += 1;
        self.count += 1;
        self.sum += sample;
        self.min = self.min.min(sample);
        self.max = self.max.max(sample);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of recorded samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample (`None` if empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample (`None` if empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Approximate quantile `q ∈ [0,1]` from bucket boundaries: returns the
    /// upper edge of the bucket containing the q-th sample.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Some(if i == 0 { 0 } else { 1u64 << i.min(63) });
            }
        }
        Some(self.max)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for LogHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} min={} max={}",
            self.count,
            self.mean(),
            self.min().unwrap_or(0),
            self.max().unwrap_or(0)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_merge_adds() {
        let mut a = Counters {
            msgs_sent: 3,
            bytes_sent: 100,
            cpu_busy: Time::from_ns(5),
            ..Counters::default()
        };
        let b = Counters {
            msgs_sent: 2,
            rdma_puts: 7,
            cpu_busy: Time::from_ns(10),
            ..Counters::default()
        };
        a.merge(&b);
        assert_eq!(a.msgs_sent, 5);
        assert_eq!(a.rdma_puts, 7);
        assert_eq!(a.bytes_sent, 100);
        assert_eq!(a.cpu_busy, Time::from_ns(15));
    }

    #[test]
    fn histogram_basic_stats() {
        let mut h = LogHistogram::new();
        for v in [1u64, 2, 4, 8] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean(), 3.75);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(8));
    }

    #[test]
    fn histogram_empty() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn histogram_quantiles_are_monotone() {
        let mut h = LogHistogram::new();
        for i in 0..1000u64 {
            h.record(i);
        }
        let q50 = h.quantile(0.5).unwrap();
        let q99 = h.quantile(0.99).unwrap();
        assert!(q50 <= q99);
        assert!(q99 <= 1024);
    }

    #[test]
    fn histogram_merge() {
        let mut a = LogHistogram::new();
        a.record(10);
        let mut b = LogHistogram::new();
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(10));
        assert_eq!(a.max(), Some(1000));
    }
}
