//! Process-wide counters of simulation work, for wall-clock throughput
//! reporting (`repro perf`).
//!
//! Every [`Engine`](crate::Engine) run loop adds its executed-event count
//! and virtual-time advance here when it finishes — one relaxed atomic add
//! per `run*` call, nothing per event, so the hot path is untouched.
//! Harnesses take a [`snapshot`] before and after a workload and report the
//! delta as events/second; sweeps that run engines on many threads
//! (rayon) aggregate naturally.

use std::sync::atomic::{AtomicU64, Ordering};

static EVENTS: AtomicU64 = AtomicU64::new(0);
static SIM_PS: AtomicU64 = AtomicU64::new(0);
static XLATE_LOOKUPS: AtomicU64 = AtomicU64::new(0);
static XLATE_PROBES: AtomicU64 = AtomicU64::new(0);
static XLATE_MEMO_HITS: AtomicU64 = AtomicU64::new(0);
static AMO_EXECUTED: AtomicU64 = AtomicU64::new(0);
static AMO_NACKED: AtomicU64 = AtomicU64::new(0);
static AMO_FORWARDED: AtomicU64 = AtomicU64::new(0);
static RING_DOORBELLS: AtomicU64 = AtomicU64::new(0);
static RING_DESCS: AtomicU64 = AtomicU64::new(0);
static RING_COALESCED: AtomicU64 = AtomicU64::new(0);
static AMO_BATCHED: AtomicU64 = AtomicU64::new(0);
static SHM_OPS: AtomicU64 = AtomicU64::new(0);
static SHM_BYTES: AtomicU64 = AtomicU64::new(0);
static MIGRATION_RING_DESCS: AtomicU64 = AtomicU64::new(0);
static MEMBERS_JOINED: AtomicU64 = AtomicU64::new(0);
static MEMBERS_DRAINED: AtomicU64 = AtomicU64::new(0);
static MEMBERS_CRASHED: AtomicU64 = AtomicU64::new(0);
static BLOCKS_REHOMED: AtomicU64 = AtomicU64::new(0);
static BLOCKS_RECOVERED: AtomicU64 = AtomicU64::new(0);
static STALE_XLATE_DROPPED: AtomicU64 = AtomicU64::new(0);

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

/// Fold a batch of NIC active-operation outcomes into the process totals
/// (called by the AMO commit path in `net`).
pub fn record_amo(executed: u64, nacked: u64, forwarded: u64) {
    if executed > 0 {
        AMO_EXECUTED.fetch_add(executed, Ordering::Relaxed);
    }
    if nacked > 0 {
        AMO_NACKED.fetch_add(nacked, Ordering::Relaxed);
    }
    if forwarded > 0 {
        AMO_FORWARDED.fetch_add(forwarded, Ordering::Relaxed);
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

/// Fold AMO descriptors that shared a submission doorbell with another AMO
/// to the same responder (the PR-7 batching follow-up) into the totals.
pub fn record_amo_batched(n: u64) {
    if n > 0 {
        AMO_BATCHED.fetch_add(n, Ordering::Relaxed);
    }
}

/// Fold intra-domain shared-memory operations (NIC and wire bypassed
/// entirely) into the process totals.
pub fn record_shm(ops: u64, bytes: u64) {
    if ops > 0 {
        SHM_OPS.fetch_add(ops, Ordering::Relaxed);
    }
    if bytes > 0 {
        SHM_BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// Fold migration control descriptors posted through a descriptor ring
/// (instead of ad-hoc sends) into the process totals.
pub fn record_migration_ring(descs: u64) {
    if descs > 0 {
        MIGRATION_RING_DESCS.fetch_add(descs, Ordering::Relaxed);
    }
}

/// Fold membership state-machine transitions into the process totals
/// (called by the membership plane when a locality joins, finishes a
/// drain, or is declared crashed).
pub fn record_membership(joined: u64, drained: u64, crashed: u64) {
    if joined > 0 {
        MEMBERS_JOINED.fetch_add(joined, Ordering::Relaxed);
    }
    if drained > 0 {
        MEMBERS_DRAINED.fetch_add(drained, Ordering::Relaxed);
    }
    if crashed > 0 {
        MEMBERS_CRASHED.fetch_add(crashed, Ordering::Relaxed);
    }
}

/// Fold directory records re-homed to another serving locality (join
/// slices, drain hand-offs, crash take-overs) into the process totals.
pub fn record_blocks_rehomed(n: u64) {
    if n > 0 {
        BLOCKS_REHOMED.fetch_add(n, Ordering::Relaxed);
    }
}

/// Fold blocks re-issued (zero-filled, generation-bumped) by the
/// crash-recovery policy into the process totals.
pub fn record_blocks_recovered(n: u64) {
    if n > 0 {
        BLOCKS_RECOVERED.fetch_add(n, Ordering::Relaxed);
    }
}

/// Fold NIC translation entries dropped because they named (or forwarded
/// through) a crashed locality into the process totals.
pub fn record_stale_xlate_dropped(n: u64) {
    if n > 0 {
        STALE_XLATE_DROPPED.fetch_add(n, Ordering::Relaxed);
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
    /// Active memory operations executed at a NIC (translation + op in
    /// one visit, zero target-CPU events).
    pub amo_executed: u64,
    /// AMO requests NACKed back to their initiator.
    pub amo_nacked: u64,
    /// AMO requests re-injected through a forwarding entry.
    pub amo_forwarded: u64,
    /// Descriptor-ring doorbells rung (one per non-empty drain).
    pub ring_doorbells: u64,
    /// Descriptors that passed through rings.
    pub ring_descs: u64,
    /// Descriptors that shared a doorbell with an earlier one.
    pub ring_coalesced: u64,
    /// AMO descriptors that shared a submission doorbell with another AMO
    /// to the same responder.
    pub amo_batched: u64,
    /// Intra-domain operations short-circuited over shared memory (zero
    /// wire messages, zero NIC visits).
    pub shm_ops: u64,
    /// Payload bytes moved by those shared-memory operations.
    pub shm_bytes: u64,
    /// Migration control messages that posted through a descriptor ring.
    pub migration_ring_descs: u64,
    /// Localities that completed a Joining → Active transition.
    pub members_joined: u64,
    /// Localities that completed a Draining → Left transition.
    pub members_drained: u64,
    /// Localities declared Crashed by the membership plane.
    pub members_crashed: u64,
    /// Directory records re-homed to another serving locality.
    pub blocks_rehomed: u64,
    /// Blocks re-issued (zeroed, generation-bumped) by crash recovery.
    pub blocks_recovered: u64,
    /// NIC translation entries dropped for naming a crashed locality.
    pub stale_xlate_dropped: u64,
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
            amo_executed: self.amo_executed - earlier.amo_executed,
            amo_nacked: self.amo_nacked - earlier.amo_nacked,
            amo_forwarded: self.amo_forwarded - earlier.amo_forwarded,
            ring_doorbells: self.ring_doorbells - earlier.ring_doorbells,
            ring_descs: self.ring_descs - earlier.ring_descs,
            ring_coalesced: self.ring_coalesced - earlier.ring_coalesced,
            amo_batched: self.amo_batched - earlier.amo_batched,
            shm_ops: self.shm_ops - earlier.shm_ops,
            shm_bytes: self.shm_bytes - earlier.shm_bytes,
            migration_ring_descs: self.migration_ring_descs - earlier.migration_ring_descs,
            members_joined: self.members_joined - earlier.members_joined,
            members_drained: self.members_drained - earlier.members_drained,
            members_crashed: self.members_crashed - earlier.members_crashed,
            blocks_rehomed: self.blocks_rehomed - earlier.blocks_rehomed,
            blocks_recovered: self.blocks_recovered - earlier.blocks_recovered,
            stale_xlate_dropped: self.stale_xlate_dropped - earlier.stale_xlate_dropped,
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
        amo_executed: AMO_EXECUTED.load(Ordering::Relaxed),
        amo_nacked: AMO_NACKED.load(Ordering::Relaxed),
        amo_forwarded: AMO_FORWARDED.load(Ordering::Relaxed),
        ring_doorbells: RING_DOORBELLS.load(Ordering::Relaxed),
        ring_descs: RING_DESCS.load(Ordering::Relaxed),
        ring_coalesced: RING_COALESCED.load(Ordering::Relaxed),
        amo_batched: AMO_BATCHED.load(Ordering::Relaxed),
        shm_ops: SHM_OPS.load(Ordering::Relaxed),
        shm_bytes: SHM_BYTES.load(Ordering::Relaxed),
        migration_ring_descs: MIGRATION_RING_DESCS.load(Ordering::Relaxed),
        members_joined: MEMBERS_JOINED.load(Ordering::Relaxed),
        members_drained: MEMBERS_DRAINED.load(Ordering::Relaxed),
        members_crashed: MEMBERS_CRASHED.load(Ordering::Relaxed),
        blocks_rehomed: BLOCKS_REHOMED.load(Ordering::Relaxed),
        blocks_recovered: BLOCKS_RECOVERED.load(Ordering::Relaxed),
        stale_xlate_dropped: STALE_XLATE_DROPPED.load(Ordering::Relaxed),
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
