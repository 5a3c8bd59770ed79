//! Process-wide counters for the standalone benchmark's per-layer
//! metrics.
//!
//! The rule: a static here only for a count with no per-world owner.
//! Everything a cluster, endpoint or GAS locality can count for itself
//! (`Counters`, photon's endpoint stats, `agas::GasStats`), and every
//! engine's own event count (`events_executed()`), is counted there, once,
//! and read from there. Six counts remain:
//!
//! - `xlate_lookups`, `xlate_probes`, `memo_hits`: the translation cells of
//!   [`crate::flatmap::FlatTable`] batch lookups and probes here, flushed
//!   on a threshold and on drop. A table has no handle on the world that
//!   holds it, so these have no per-world owner to report to; the GAS
//!   layer's one-entry memos report their hits through the same call.
//! - `ring_doorbells`, `ring_descs`, `ring_coalesced`: parcel-rt's batch
//!   drain (`sched::ring_doorbell`) records each doorbell here. Its world
//!   counts batches in `RtStats::batches_sent` too, but the standalone
//!   benchmark reads these three through [`snapshot`]
//!   (`benchmark/API_SURFACE.md`), so they stay.
//!
//! Harnesses take a [`snapshot`] before and after a workload and report the
//! delta. Concurrent workloads in one process share these totals.

use std::sync::atomic::{AtomicU64, Ordering};

static XLATE_LOOKUPS: AtomicU64 = AtomicU64::new(0);
static XLATE_PROBES: AtomicU64 = AtomicU64::new(0);
static XLATE_MEMO_HITS: AtomicU64 = AtomicU64::new(0);
static RING_DOORBELLS: AtomicU64 = AtomicU64::new(0);
static RING_DESCS: AtomicU64 = AtomicU64::new(0);
static RING_COALESCED: AtomicU64 = AtomicU64::new(0);

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

/// Fold one batch doorbell into the process totals (called by parcel-rt's
/// batch drain). `coalesced` is the number of parcels that shared the
/// doorbell with an earlier one — the saved per-op messages.
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
    /// Translation lookups served by the flat tables (BTT, owner cache,
    /// directory, NIC table).
    pub xlate_lookups: u64,
    /// Slots examined serving those lookups (`xlate_probes /
    /// xlate_lookups` = mean probe length).
    pub xlate_probes: u64,
    /// Translations satisfied by a one-entry last-translation memo
    /// (dependent-access workloads such as the pointer chase).
    pub memo_hits: u64,
    /// Parcel-batch doorbells rung (one per drain).
    pub ring_doorbells: u64,
    /// Parcels that left in batches.
    pub ring_descs: u64,
    /// Parcels that shared a doorbell with an earlier one.
    pub ring_coalesced: u64,
}

impl Snapshot {
    /// The work done between `earlier` and `self`.
    pub fn since(self, earlier: Snapshot) -> Snapshot {
        Snapshot {
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
        xlate_lookups: XLATE_LOOKUPS.load(Ordering::Relaxed),
        xlate_probes: XLATE_PROBES.load(Ordering::Relaxed),
        memo_hits: XLATE_MEMO_HITS.load(Ordering::Relaxed),
        ring_doorbells: RING_DOORBELLS.load(Ordering::Relaxed),
        ring_descs: RING_DESCS.load(Ordering::Relaxed),
        ring_coalesced: RING_COALESCED.load(Ordering::Relaxed),
    }
}
