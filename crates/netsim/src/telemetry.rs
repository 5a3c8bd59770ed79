//! Process-wide counters of simulation work, for wall-clock throughput
//! reporting (`repro perf`, the standalone benchmark).
//!
//! The rule: a static here only for a count with no per-world owner.
//! Everything a cluster, endpoint or GAS locality can count for itself
//! (`Counters`, photon's endpoint stats, `agas::GasStats`) is counted
//! there, once, and read from there. Eight counts remain:
//!
//! - `events`, `sim_ps`: every [`Engine`](crate::Engine) run loop adds its
//!   executed-event count and virtual-time advance when it finishes — one
//!   relaxed atomic add per `run*` call, nothing per event. Their job is to
//!   sum work across *many* engines (a rayon sweep, a whole experiment), so
//!   `repro`'s `measure` can report events/second for a closure that builds
//!   and drops its worlds internally.
//! - `xlate_lookups`, `xlate_probes`, `memo_hits`: the translation cells of
//!   [`crate::flatmap::FlatTable`] batch lookups and probes here, flushed
//!   on a threshold and on drop. A table has no handle on the world that
//!   holds it, so these have no per-world owner to report to; the GAS
//!   layer's one-entry memos report their hits through the same call.
//! - `ring_doorbells`, `ring_descs`, `ring_coalesced`: each
//!   [`crate::ring::Ring`] also keeps its own [`crate::RingStats`], but the
//!   standalone benchmark reads these three through [`snapshot`]
//!   (`benchmark/API_SURFACE.md`), so they stay.
//!
//! Harnesses take a [`snapshot`] before and after a workload and report the
//! delta. Concurrent workloads in one process share these totals.

use std::sync::atomic::{AtomicU64, Ordering};

static EVENTS: AtomicU64 = AtomicU64::new(0);
static SIM_PS: AtomicU64 = AtomicU64::new(0);
static XLATE_LOOKUPS: AtomicU64 = AtomicU64::new(0);
static XLATE_PROBES: AtomicU64 = AtomicU64::new(0);
static XLATE_MEMO_HITS: AtomicU64 = AtomicU64::new(0);
static RING_DOORBELLS: AtomicU64 = AtomicU64::new(0);
static RING_DESCS: AtomicU64 = AtomicU64::new(0);
static RING_COALESCED: AtomicU64 = AtomicU64::new(0);

/// Fold one finished engine run into the process totals.
pub(crate) fn record_run(events: u64, sim_advance_ps: u64) {
    if events > 0 {
        EVENTS.fetch_add(events, Ordering::Relaxed);
        SIM_PS.fetch_add(sim_advance_ps, Ordering::Relaxed);
    }
}

/// Fold a batch of translation-path work into the process totals.
///
/// Called by [`crate::flatmap::FlatTable`] (lookups/probes, batched
/// through per-table cells and flushed on a threshold and on drop) and by
/// the GAS layer's one-entry translation memos (`memo_hits`). `probes` is
/// the number of slots examined; `probes / lookups` is the mean probe
/// length of the flat tables.
pub fn record_translation(lookups: u64, probes: u64, memo_hits: u64) {
    if lookups > 0 {
        XLATE_LOOKUPS.fetch_add(lookups, Ordering::Relaxed);
        XLATE_PROBES.fetch_add(probes, Ordering::Relaxed);
    }
    if memo_hits > 0 {
        XLATE_MEMO_HITS.fetch_add(memo_hits, Ordering::Relaxed);
    }
}

/// Fold one descriptor-ring doorbell into the process totals (called by
/// [`crate::ring::Ring::drain`]). `coalesced` is the number of descriptors
/// that shared the doorbell with an earlier one — the saved per-op events.
pub fn record_ring(doorbells: u64, descs: u64, coalesced: u64) {
    if doorbells > 0 {
        RING_DOORBELLS.fetch_add(doorbells, Ordering::Relaxed);
        RING_DESCS.fetch_add(descs, Ordering::Relaxed);
    }
    if coalesced > 0 {
        RING_COALESCED.fetch_add(coalesced, Ordering::Relaxed);
    }
}

/// Totals accumulated so far (monotone; see [`Snapshot::since`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Events executed across all engines in this process.
    pub events: u64,
    /// Virtual picoseconds swept, summed over engine runs (a volume of
    /// simulated time, not a single clock: parallel sweeps each count).
    pub sim_ps: u64,
    /// Translation lookups served by the flat tables (BTT, owner cache,
    /// directory, NIC table).
    pub xlate_lookups: u64,
    /// Slots examined serving those lookups (`xlate_probes /
    /// xlate_lookups` = mean probe length).
    pub xlate_probes: u64,
    /// Translations satisfied by a one-entry last-translation memo
    /// (dependent-access workloads: chase, sssp).
    pub memo_hits: u64,
    /// Descriptor-ring doorbells rung (one per non-empty drain).
    pub ring_doorbells: u64,
    /// Descriptors that passed through rings.
    pub ring_descs: u64,
    /// Descriptors that shared a doorbell with an earlier one.
    pub ring_coalesced: u64,
}

impl Snapshot {
    /// The work done between `earlier` and `self`.
    pub fn since(self, earlier: Snapshot) -> Snapshot {
        Snapshot {
            events: self.events - earlier.events,
            sim_ps: self.sim_ps - earlier.sim_ps,
            xlate_lookups: self.xlate_lookups - earlier.xlate_lookups,
            xlate_probes: self.xlate_probes - earlier.xlate_probes,
            memo_hits: self.memo_hits - earlier.memo_hits,
            ring_doorbells: self.ring_doorbells - earlier.ring_doorbells,
            ring_descs: self.ring_descs - earlier.ring_descs,
            ring_coalesced: self.ring_coalesced - earlier.ring_coalesced,
        }
    }
}

/// Read the current process totals.
pub fn snapshot() -> Snapshot {
    Snapshot {
        events: EVENTS.load(Ordering::Relaxed),
        sim_ps: SIM_PS.load(Ordering::Relaxed),
        xlate_lookups: XLATE_LOOKUPS.load(Ordering::Relaxed),
        xlate_probes: XLATE_PROBES.load(Ordering::Relaxed),
        memo_hits: XLATE_MEMO_HITS.load(Ordering::Relaxed),
        ring_doorbells: RING_DOORBELLS.load(Ordering::Relaxed),
        ring_descs: RING_DESCS.load(Ordering::Relaxed),
        ring_coalesced: RING_COALESCED.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_runs_accumulate() {
        use crate::{Engine, Time};
        let before = snapshot();
        let mut eng = Engine::new(0u64, 1);
        for i in 0..100u64 {
            eng.schedule(Time::from_ns(i), |e| e.state += 1);
        }
        eng.run();
        let delta = snapshot().since(before);
        // Other tests may run engines concurrently; ours contributes at
        // least its own events and simulated span.
        assert!(delta.events >= 100);
        assert!(delta.sim_ps >= Time::from_ns(99).ps());
    }
}
