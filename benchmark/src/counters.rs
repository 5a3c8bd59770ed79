//! Layer counters read through each layer's public statistics, flattened
//! into one struct so a timed phase is `after - before`.

use agas::GasStats;
use netsim::telemetry;
use netsim::Counters;
use parcel_rt::Runtime;
use photon::PhotonEndpoint;

macro_rules! raw_counters {
    ($($field:ident),* $(,)?) => {
        /// Cumulative counts at one instant (all `u64`; times in ps).
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct Raw { $(pub $field: u64),* }
        impl Raw {
            /// Work done between `earlier` and `self`.
            pub fn since(&self, earlier: &Raw) -> Raw {
                Raw { $($field: self.$field - earlier.$field),* }
            }
        }
    };
}

raw_counters!(
    events,
    // netsim
    msgs_sent,
    rdma_ops,
    ctrl_sent,
    nacks_sent,
    bytes_sent,
    nic_tx_busy_ps,
    nic_rx_busy_ps,
    xlate_hits,
    xlate_misses,
    xlate_forwards,
    xlate_evictions,
    amo_executed,
    amo_replays,
    cpu_busy_ps,
    migrations_in,
    // photon
    pwc_ops,
    eager_sends,
    rdv_sends,
    stalled_sends,
    rcache_hits,
    rcache_misses,
    // agas
    local_ops,
    remote_ops,
    retries,
    dir_queries,
    sw_handled,
    sw_fallbacks,
    stale_completions,
    ops_failed,
    // parcel-rt
    parcels_sent,
    parcels_forwarded,
    lco_ops,
    batches_sent,
    parcel_ring_descs,
    action_cpu_ps,
    // process-wide telemetry (exact only once every world has dropped)
    xlate_lookups,
    xlate_probes,
    memo_hits,
    ring_doorbells,
    ring_descs,
    ring_coalesced,
);

impl Raw {
    fn add_hw(&mut self, c: &Counters) {
        self.msgs_sent = c.msgs_sent;
        self.rdma_ops = c.rdma_puts + c.rdma_gets + c.rdma_amos;
        self.ctrl_sent = c.ctrl_sent;
        self.nacks_sent = c.nacks_sent;
        self.bytes_sent = c.bytes_sent;
        self.nic_tx_busy_ps = c.nic_tx_busy.ps();
        self.nic_rx_busy_ps = c.nic_rx_busy.ps();
        self.xlate_hits = c.xlate_hits;
        self.xlate_misses = c.xlate_misses;
        self.xlate_forwards = c.xlate_forwards;
        self.xlate_evictions = c.xlate_evictions;
        self.amo_executed = c.amo_executed;
        self.amo_replays = c.amo_replays;
        self.cpu_busy_ps = c.cpu_busy.ps();
        self.migrations_in = c.migrations_in;
    }

    fn add_photon(&mut self, eps: &[PhotonEndpoint]) {
        for ep in eps {
            let s = ep.stats;
            self.pwc_ops += s.pwc_puts + s.pwc_gets + s.pwc_amos;
            self.eager_sends += s.eager_sends;
            self.rdv_sends += s.rdv_sends;
            self.stalled_sends += s.stalled_sends;
            let (hits, misses) = ep.rcache_stats();
            self.rcache_hits += hits;
            self.rcache_misses += misses;
        }
    }

    fn add_gas(&mut self, g: &GasStats) {
        self.local_ops = g.local_ops;
        self.remote_ops = g.remote_ops;
        self.retries = g.retries;
        self.dir_queries = g.dir_queries;
        self.sw_handled = g.sw_puts_handled + g.sw_gets_handled + g.sw_amos_handled;
        self.sw_fallbacks = g.sw_fallbacks;
        self.amo_replays += g.amo_replays;
        self.stale_completions = g.stale_completions;
        self.ops_failed = g.ops_failed;
    }

    /// Everything the full runtime exposes, at this instant.
    pub fn of_runtime(rt: &Runtime) -> Raw {
        let w = &rt.eng.state;
        let mut r = Raw {
            events: rt.eng.events_executed(),
            ..Raw::default()
        };
        r.add_hw(&rt.counters());
        r.add_photon(&w.eps);
        r.add_gas(&w.total_gas_stats());
        r.stale_completions += w.stale_completions;
        let s = w.total_rt_stats();
        r.parcels_sent = s.parcels_sent;
        r.parcels_forwarded = s.parcels_forwarded;
        r.lco_ops = s.lco_ops;
        r.batches_sent = s.batches_sent;
        for l in &w.rt {
            r.parcel_ring_descs += l.ring_stats().descs;
        }
        r.action_cpu_ps = w.action_profile().iter().map(|(_, _, t)| t.ps()).sum();
        r
    }

    /// The photon + GAS stack without a runtime ([`agas::SimWorld`]).
    pub fn of_simworld(w: &agas::SimWorld, events: u64) -> Raw {
        let mut r = Raw {
            events,
            ..Raw::default()
        };
        r.add_hw(&w.total_counters());
        r.add_photon(&w.data.eps);
        r.add_gas(&w.total_gas_stats());
        r
    }

    /// The process-wide telemetry totals (every other field 0).
    pub fn telemetry() -> Raw {
        let t = telemetry::snapshot();
        Raw {
            xlate_lookups: t.xlate_lookups,
            xlate_probes: t.xlate_probes,
            memo_hits: t.memo_hits,
            ring_doorbells: t.ring_doorbells,
            ring_descs: t.ring_descs,
            ring_coalesced: t.ring_coalesced,
            ..Raw::default()
        }
    }

    /// Wire messages of every kind: two-sided sends, one-sided requests,
    /// NIC-generated acks/replies, NACKs, and NIC forwards.
    pub fn wire_msgs(&self) -> u64 {
        self.msgs_sent + self.rdma_ops + self.ctrl_sent + self.nacks_sent + self.xlate_forwards
    }
}
