//! Descriptor rings: batched submission behind one doorbell.
//!
//! Real NICs do not take one doorbell per operation. The initiator posts
//! descriptors into a bounded submission ring and rings the doorbell once
//! per *batch*. `parcel-rt` issues parcels through these rings, and there
//! a doorbell changes the wire: the drained batch leaves as one message.
//! Photon's one-sided ops have no ring: the model charges every op its
//! own send overhead and serialization whether or not a ring drained it,
//! so a ring there would only add waiting and timer events.
//!
//! * [`Ring`] — one bounded per-peer ring: descriptors accumulate until a
//!   batch-size, byte-budget, or occupancy limit forces a flush
//!   ([`PushOutcome::Flush`]), or until a caller-scheduled doorbell timer
//!   fires. Timers are invalidated by *epoch*: every [`Ring::drain`] bumps
//!   the epoch, so a timer armed against a ring that has since flushed
//!   finds a stale epoch and does nothing — arm-once/flush-cancels
//!   semantics without any event cancellation machinery.
//! * [`RingSet`] — the per-(locality, peer) collection, deterministic
//!   iteration order, with pooled occupancy/doorbell/coalesce statistics
//!   and stuck-descriptor snapshots for quiescence reports.
//!
//! The ring layer is pure bookkeeping: it never touches the engine. The
//! caller schedules the doorbell timer on its own lane and drains when it
//! fires, which keeps the sharded engine's lane-aliasing contract intact.

use crate::nic::LocalityId;
use crate::telemetry;
use crate::time::Time;
use std::collections::BTreeMap;

/// Configuration of the descriptor-ring issue path.
///
/// `None` at the embedding layer (`parcel-rt`) means rings are off and
/// every parcel is its own message — the schedules the golden trace pins
/// are built on. A ring flushes at exactly
/// `doorbell_batch` descriptors and its timer waits exactly
/// `doorbell_delay`; callers arming the timer read it from
/// [`RingSet::config`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RingConfig {
    /// Bounded ring occupancy, in descriptors. A push that fills the ring
    /// forces a flush regardless of the batch threshold.
    pub depth: usize,
    /// Descriptor count that rings the doorbell (submission batch size).
    pub doorbell_batch: usize,
    /// Longest a partially filled submission ring waits before ringing its
    /// doorbell anyway.
    pub doorbell_delay: Time,
    /// Byte budget per batch: a push that brings buffered payload bytes to
    /// or above this flushes, bounding added latency for bulk traffic.
    pub max_bytes: u32,
}

impl Default for RingConfig {
    fn default() -> RingConfig {
        RingConfig {
            depth: 256,
            doorbell_batch: 16,
            doorbell_delay: Time::from_us(5),
            max_bytes: 8192,
        }
    }
}

/// One posted descriptor: the payload plus the accounting the ring keeps.
#[derive(Clone, Debug)]
pub struct Desc<T> {
    /// The operation being carried (a request struct, a parcel, …).
    pub item: T,
    /// Wire-relevant payload size, for the byte budget.
    pub bytes: u32,
    /// Human-readable descriptor kind, for stuck-descriptor reports.
    pub kind: &'static str,
    /// When the descriptor was posted (for age reporting).
    pub enqueued: Time,
}

/// What a [`Ring::push`] asks its caller to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushOutcome {
    /// A flush condition hit (batch size, byte budget, or full ring):
    /// drain now and issue the batch under one doorbell.
    Flush,
    /// First descriptor of a fresh batch: schedule the doorbell timer
    /// against this epoch. A later drain invalidates it.
    Armed(u64),
    /// Buffered behind an already-armed timer; nothing to do.
    Buffered,
}

/// Per-ring counters (doorbells, descriptors, coalescing win, high water).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RingStats {
    /// Doorbell events rung (one per drain).
    pub doorbells: u64,
    /// Descriptors that passed through the ring.
    pub descs: u64,
    /// Descriptors that shared a doorbell with an earlier one — the saved
    /// per-op events (`descs - doorbells` over non-empty drains).
    pub coalesced: u64,
    /// Highest occupancy ever observed.
    pub max_occupancy: usize,
}

impl RingStats {
    fn absorb(&mut self, other: &RingStats) {
        self.doorbells += other.doorbells;
        self.descs += other.descs;
        self.coalesced += other.coalesced;
        self.max_occupancy = self.max_occupancy.max(other.max_occupancy);
    }
}

/// A stuck-descriptor report line (quiescence diagnostics).
#[derive(Clone, Copy, Debug)]
pub struct DescSnapshot {
    /// The peer the ring points at.
    pub peer: LocalityId,
    /// Descriptor kind (`"put"`, `"amo"`, `"parcel"`, …).
    pub kind: &'static str,
    /// Payload bytes.
    pub bytes: u32,
    /// How long the descriptor has been waiting.
    pub age: Time,
}

impl DescSnapshot {
    /// Render for a quiescence-failure message.
    pub fn render(&self) -> String {
        format!(
            "{} desc peer={} bytes={} age={}",
            self.kind, self.peer, self.bytes, self.age
        )
    }
}

/// One bounded submission ring toward a single peer.
///
/// Storage is a fixed `depth`-slot buffer addressed by free-running
/// head/tail counters (`slot = counter % depth`), so slot indices genuinely
/// wrap — the proptests drive billions of pushes through a tiny ring to
/// prove occupancy accounting survives wraparound.
#[derive(Debug)]
pub struct Ring<T> {
    cfg: RingConfig,
    slots: Vec<Option<Desc<T>>>,
    /// Pop cursor (free-running; wraps via `% depth`).
    head: u64,
    /// Push cursor (free-running; wraps via `% depth`).
    tail: u64,
    /// Buffered payload bytes.
    bytes: u64,
    /// Bumped on every drain; stale timers compare epochs and stand down.
    epoch: u64,
    stats: RingStats,
}

impl<T> Ring<T> {
    /// An empty ring.
    pub fn new(cfg: RingConfig) -> Ring<T> {
        let depth = cfg.depth.max(1);
        let mut slots = Vec::with_capacity(depth);
        slots.resize_with(depth, || None);
        Ring {
            cfg,
            slots,
            head: 0,
            tail: 0,
            bytes: 0,
            epoch: 0,
            stats: RingStats::default(),
        }
    }

    /// Buffered descriptor count.
    pub fn len(&self) -> usize {
        (self.tail - self.head) as usize
    }

    /// Is the ring empty?
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Buffered payload bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The current batch epoch (see [`Ring::timer_due`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> RingStats {
        self.stats
    }

    /// Post one descriptor. Returns what the caller must do: flush now,
    /// arm the timer for the returned epoch, or nothing.
    pub fn push(&mut self, desc: Desc<T>) -> PushOutcome {
        debug_assert!(self.len() < self.slots.len(), "ring overfull");
        let was_empty = self.is_empty();
        self.bytes += desc.bytes as u64;
        let slot = (self.tail % self.slots.len() as u64) as usize;
        self.slots[slot] = Some(desc);
        self.tail += 1;
        let occ = self.len();
        if occ > self.stats.max_occupancy {
            self.stats.max_occupancy = occ;
        }
        if occ >= self.cfg.doorbell_batch
            || self.bytes >= self.cfg.max_bytes as u64
            || occ == self.slots.len()
        {
            PushOutcome::Flush
        } else if was_empty {
            PushOutcome::Armed(self.epoch)
        } else {
            PushOutcome::Buffered
        }
    }

    /// Does a timer armed against `epoch` still have work? True exactly
    /// when no drain has happened since the arm and descriptors remain.
    pub fn timer_due(&self, epoch: u64) -> bool {
        self.epoch == epoch && !self.is_empty()
    }

    /// Ring the doorbell: take every buffered descriptor, in post order,
    /// and invalidate any armed timer. Feeds the process-wide ring
    /// telemetry.
    pub fn drain(&mut self) -> Vec<Desc<T>> {
        self.drain_map(|d| d)
    }

    /// [`Ring::drain`] for callers that put the batch straight on the wire:
    /// the carried items alone, in post order, plus their summed payload
    /// bytes — one allocation instead of a `Vec<Desc<T>>` and a second
    /// vector to unwrap it into.
    pub fn drain_items(&mut self) -> (Vec<T>, u32) {
        let bytes = u32::try_from(self.bytes).expect("ring batch exceeds u32 bytes");
        (self.drain_map(|d| d.item), bytes)
    }

    fn drain_map<U>(&mut self, mut f: impl FnMut(Desc<T>) -> U) -> Vec<U> {
        let mut out = Vec::with_capacity(self.len());
        while self.head != self.tail {
            let slot = (self.head % self.slots.len() as u64) as usize;
            let desc = self.slots[slot].take().expect("occupied ring slot");
            self.head += 1;
            out.push(f(desc));
        }
        self.bytes = 0;
        self.epoch += 1;
        if !out.is_empty() {
            self.stats.doorbells += 1;
            self.stats.descs += out.len() as u64;
            self.stats.coalesced += out.len() as u64 - 1;
            telemetry::record_ring(1, out.len() as u64, out.len() as u64 - 1);
        }
        out
    }

    /// Snapshot every waiting descriptor (post order) for stuck reports.
    pub fn snapshots(&self, peer: LocalityId, now: Time) -> Vec<DescSnapshot> {
        let mut out = Vec::with_capacity(self.len());
        let mut cur = self.head;
        while cur != self.tail {
            let slot = (cur % self.slots.len() as u64) as usize;
            let d = self.slots[slot].as_ref().expect("occupied ring slot");
            out.push(DescSnapshot {
                peer,
                kind: d.kind,
                bytes: d.bytes,
                age: now - d.enqueued,
            });
            cur += 1;
        }
        out
    }
}

/// The per-peer ring collection one locality owns.
///
/// Rings materialize lazily per peer and iterate in peer order, so every
/// walk (drain-all, snapshots, stats) is deterministic.
#[derive(Debug)]
pub struct RingSet<T> {
    cfg: RingConfig,
    rings: BTreeMap<LocalityId, Ring<T>>,
}

impl<T> RingSet<T> {
    /// An empty set; rings appear on first use.
    pub fn new(cfg: RingConfig) -> RingSet<T> {
        RingSet {
            cfg,
            rings: BTreeMap::new(),
        }
    }

    /// The shared configuration.
    pub fn config(&self) -> RingConfig {
        self.cfg
    }

    /// The ring toward `peer`, created on first use.
    pub fn ring(&mut self, peer: LocalityId) -> &mut Ring<T> {
        let cfg = self.cfg;
        self.rings.entry(peer).or_insert_with(|| Ring::new(cfg))
    }

    /// Post a descriptor toward `peer`.
    pub fn push(&mut self, peer: LocalityId, desc: Desc<T>) -> PushOutcome {
        self.ring(peer).push(desc)
    }

    /// Drain the ring toward `peer` (empty vec if none exists).
    pub fn drain(&mut self, peer: LocalityId) -> Vec<Desc<T>> {
        match self.rings.get_mut(&peer) {
            Some(r) => r.drain(),
            None => Vec::new(),
        }
    }

    /// [`Ring::drain_items`] for the ring toward `peer`.
    pub fn drain_items(&mut self, peer: LocalityId) -> (Vec<T>, u32) {
        match self.rings.get_mut(&peer) {
            Some(r) => r.drain_items(),
            None => (Vec::new(), 0),
        }
    }

    /// Is a timer armed against (`peer`, `epoch`) still live?
    pub fn timer_due(&self, peer: LocalityId, epoch: u64) -> bool {
        self.rings.get(&peer).is_some_and(|r| r.timer_due(epoch))
    }

    /// Total buffered descriptors across all peers.
    pub fn occupancy(&self) -> usize {
        self.rings.values().map(Ring::len).sum()
    }

    /// True when every ring is drained.
    pub fn is_empty(&self) -> bool {
        self.rings.values().all(Ring::is_empty)
    }

    /// Peers with a non-empty ring, in order (for drain-all sweeps).
    pub fn busy_peers(&self) -> Vec<LocalityId> {
        self.rings
            .iter()
            .filter(|(_, r)| !r.is_empty())
            .map(|(&p, _)| p)
            .collect()
    }

    /// Every waiting descriptor across all peers, peer-then-post order.
    pub fn snapshots(&self, now: Time) -> Vec<DescSnapshot> {
        let mut out = Vec::new();
        for (&peer, ring) in &self.rings {
            out.extend(ring.snapshots(peer, now));
        }
        out
    }

    /// Counters pooled over every ring in the set.
    pub fn stats(&self) -> RingStats {
        let mut total = RingStats::default();
        for ring in self.rings.values() {
            total.absorb(&ring.stats());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(depth: usize, batch: usize, max_bytes: u32) -> RingConfig {
        RingConfig {
            depth,
            doorbell_batch: batch,
            max_bytes,
            ..RingConfig::default()
        }
    }

    fn desc(tag: u32, bytes: u32) -> Desc<u32> {
        Desc {
            item: tag,
            bytes,
            kind: "test",
            enqueued: Time::ZERO,
        }
    }

    #[test]
    fn batch_threshold_flushes() {
        let mut r: Ring<u32> = Ring::new(cfg(8, 3, u32::MAX));
        assert_eq!(r.push(desc(0, 1)), PushOutcome::Armed(0));
        assert_eq!(r.push(desc(1, 1)), PushOutcome::Buffered);
        assert_eq!(r.push(desc(2, 1)), PushOutcome::Flush);
        let batch: Vec<u32> = r.drain().into_iter().map(|d| d.item).collect();
        assert_eq!(batch, vec![0, 1, 2]);
        assert!(r.is_empty());
    }

    #[test]
    fn byte_budget_flushes() {
        let mut r: Ring<u32> = Ring::new(cfg(8, 100, 64));
        assert_eq!(r.push(desc(0, 32)), PushOutcome::Armed(0));
        assert_eq!(r.push(desc(1, 32)), PushOutcome::Flush);
    }

    #[test]
    fn full_ring_flushes_even_below_batch() {
        let mut r: Ring<u32> = Ring::new(cfg(2, 100, u32::MAX));
        assert_eq!(r.push(desc(0, 1)), PushOutcome::Armed(0));
        assert_eq!(r.push(desc(1, 1)), PushOutcome::Flush);
    }

    #[test]
    fn drain_invalidates_timer_epoch() {
        let mut r: Ring<u32> = Ring::new(cfg(8, 3, u32::MAX));
        let PushOutcome::Armed(epoch) = r.push(desc(0, 1)) else {
            panic!("expected Armed");
        };
        assert!(r.timer_due(epoch));
        r.push(desc(1, 1));
        r.push(desc(2, 1)); // Flush threshold.
        r.drain();
        assert!(!r.timer_due(epoch), "flushed batch must cancel its timer");
        // The next batch arms a *new* epoch.
        let PushOutcome::Armed(e2) = r.push(desc(3, 1)) else {
            panic!("expected Armed");
        };
        assert_ne!(e2, epoch);
        assert!(r.timer_due(e2));
    }

    #[test]
    fn wraparound_preserves_fifo_order() {
        let mut r: Ring<u32> = Ring::new(cfg(4, 3, u32::MAX));
        let mut next = 0u32;
        for _ in 0..100 {
            r.push(desc(next, 1));
            r.push(desc(next + 1, 1));
            r.push(desc(next + 2, 1));
            let batch: Vec<u32> = r.drain().into_iter().map(|d| d.item).collect();
            assert_eq!(batch, vec![next, next + 1, next + 2]);
            next += 3;
        }
        assert_eq!(r.stats().doorbells, 100);
        assert_eq!(r.stats().descs, 300);
        assert_eq!(r.stats().coalesced, 200);
        assert_eq!(r.stats().max_occupancy, 3);
    }

    #[test]
    fn snapshots_report_age_and_kind() {
        let mut r: Ring<u32> = Ring::new(cfg(8, 100, u32::MAX));
        r.push(Desc {
            item: 7,
            bytes: 48,
            kind: "parcel",
            enqueued: Time::from_ns(100),
        });
        let snaps = r.snapshots(3, Time::from_ns(350));
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].kind, "parcel");
        assert_eq!(snaps[0].bytes, 48);
        assert_eq!(snaps[0].age, Time::from_ns(250));
        assert!(snaps[0].render().contains("peer=3"));
    }

    #[test]
    fn ringset_is_per_peer_and_deterministic() {
        let mut set: RingSet<u32> = RingSet::new(cfg(8, 100, u32::MAX));
        set.push(5, desc(50, 1));
        set.push(2, desc(20, 1));
        set.push(5, desc(51, 1));
        assert_eq!(set.occupancy(), 3);
        assert_eq!(set.busy_peers(), vec![2, 5]);
        let snaps = set.snapshots(Time::ZERO);
        assert_eq!(
            snaps.iter().map(|s| s.peer).collect::<Vec<_>>(),
            vec![2, 5, 5]
        );
        let five: Vec<u32> = set.drain(5).into_iter().map(|d| d.item).collect();
        assert_eq!(five, vec![50, 51]);
        assert!(!set.is_empty());
        set.drain(2);
        assert!(set.is_empty());
        assert_eq!(set.stats().doorbells, 2);
        assert_eq!(set.stats().descs, 3);
    }

    #[test]
    fn drain_items_matches_drain() {
        let mut set: RingSet<u32> = RingSet::new(cfg(8, 100, u32::MAX));
        assert_eq!(set.drain_items(1), (Vec::new(), 0));
        set.push(1, desc(10, 24));
        set.push(1, desc(11, 40));
        assert_eq!(set.drain_items(1), (vec![10, 11], 64));
        assert!(set.is_empty());
        assert_eq!(set.stats().doorbells, 1);
        assert_eq!(set.stats().coalesced, 1);
        assert_eq!(set.ring(1).bytes(), 0);
    }

    #[test]
    fn empty_drain_rings_no_doorbell() {
        let mut r: Ring<u32> = Ring::new(cfg(4, 2, u32::MAX));
        let before = r.epoch();
        assert!(r.drain().is_empty());
        assert_eq!(r.stats().doorbells, 0);
        // Even an empty drain bumps the epoch so a stray timer stands down.
        assert_eq!(r.epoch(), before + 1);
    }

    #[test]
    fn defaults_mirror_the_old_coalescer() {
        let c = RingConfig::default();
        assert_eq!(c.doorbell_batch, 16);
        assert_eq!(c.max_bytes, 8192);
        assert_eq!(c.doorbell_delay, Time::from_us(5));
        assert!(c.depth >= c.doorbell_batch);
    }
}
