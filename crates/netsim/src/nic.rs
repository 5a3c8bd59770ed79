//! The simulated NIC.
//!
//! Each locality owns one NIC with a transmit port, a receive port, and —
//! the artifact this paper adds — a **virtual-address translation table**
//! ([`XlateTable`]). The table maps global-address-space *block keys* (the
//! GVA with its offset bits masked off; the GAS layer computes these) to
//! physical arena addresses. When the table holds an entry for an incoming
//! one-sided operation, the NIC translates and DMAs with **no CPU
//! involvement**; when the block has migrated away it may hold a
//! *forwarding entry* naming the new owner; otherwise the operation is
//! NACKed back to its initiator, which recovers through the home directory.
//!
//! Port timing: each port is a serial resource. Reserving it returns the
//! interval actually occupied, modeling injection/extraction contention —
//! this is what produces the bandwidth roll-off and message-rate ceilings in
//! experiments E3/E4.

use crate::amo::{AmoCache, AMO_CACHE_CAP};
use crate::flatmap::FlatTable;
use crate::memory::PhysAddr;
use crate::net::Access;
use crate::time::Time;

/// Identifies a locality (a node of the simulated cluster).
pub type LocalityId = u32;

/// A live NIC translation-table entry: where a block's bytes sit in the
/// owner's arena.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct XlateEntry {
    /// Physical base address of the block in this locality's arena.
    pub base: PhysAddr,
    /// Block length in bytes.
    pub len: u64,
    /// Generation number, bumped on every migration of the block. Lets the
    /// GAS layer discard stale NACK-triggered updates.
    pub generation: u32,
}

/// Outcome of a NIC translation lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Xlate {
    /// The block is resident here.
    Hit(XlateEntry),
    /// The block migrated; the NIC remembers where it went and the
    /// generation it left under — it is live at `next` (or beyond) under a
    /// strictly newer one.
    Forward {
        /// Next hop.
        next: LocalityId,
        /// Translation generation the block had here when it left.
        retired: u32,
    },
    /// Unknown block (never installed, evicted, or forward expired).
    Miss,
}

/// What a translation-table slot currently represents.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum XState {
    /// The block is resident: the slot is on the LRU recency list.
    Live,
    /// The block migrated away; the slot names the next hop.
    Forward,
    /// Neither live nor forwarding — the slot only parks an undrained hit
    /// counter (after an eviction or an expired forward) until the next
    /// telemetry drain. Lookups miss.
    #[default]
    Ghost,
}

/// One flat-table slot payload: the live entry, the forward hop, and the
/// inline per-entry hit counter, tagged by [`XState`]. A forwarding slot
/// keeps only `entry.generation` — the generation it was retired at.
#[derive(Clone, Copy, Debug, Default)]
struct XSlot {
    entry: XlateEntry,
    next_hop: LocalityId,
    hits: u64,
    state: XState,
}

/// Seed for the NIC translation table's flat map (arbitrary constant;
/// fixed so runs are deterministic).
const XLATE_SEED: u64 = 0x91C7_AB1E;

/// The NIC-resident translation table: one flat, open-addressed,
/// generation-tagged table ([`FlatTable`]) holding live entries (an exact
/// LRU bounded by `capacity`), forwarding tombstones, and per-entry hit
/// counters, all inline in one slot array: a translation is a single probe
/// sequence. Tombstones are not bounded by `capacity`, and they are not
/// short-lived: every migration leaves one behind, and only
/// [`XlateTable::install`] (the block comes back) or
/// [`XlateTable::purge_forwards_via`] (a crashed hop) drops it, so their
/// count grows with the migrations a run makes. Bounding them is open
/// (ROADMAP item 17).
///
/// Hit telemetry follows the entry through its lifecycle: it survives
/// `retire_to_forward`, eviction, and re-installation within a balancer
/// epoch (evicted/expired entries park their counter in a ghost slot until
/// [`XlateTable::take_hit_telemetry`] drains it). Only
/// [`XlateTable::invalidate`] — a block free — discards it, explicitly.
pub struct XlateTable {
    table: FlatTable<XSlot>,
    capacity: usize,
    forwards: usize,
}

impl XlateTable {
    /// Create a table with space for `capacity` live entries.
    pub fn new(capacity: usize) -> XlateTable {
        XlateTable {
            table: FlatTable::with_seed(XLATE_SEED),
            capacity,
            forwards: 0,
        }
    }

    /// Translate `block_key`. Touches LRU recency and bumps the inline hit
    /// counter on a live hit.
    #[inline]
    pub fn lookup(&mut self, block_key: u64) -> Xlate {
        match self.table.lookup(block_key) {
            Some(s) => match s.state {
                XState::Live => {
                    s.hits += 1;
                    Xlate::Hit(s.entry)
                }
                XState::Forward => Xlate::Forward {
                    next: s.next_hop,
                    retired: s.entry.generation,
                },
                XState::Ghost => Xlate::Miss,
            },
            None => Xlate::Miss,
        }
    }

    /// Evict the least-recently-used live entry — zero probes, the tail's
    /// slot index is known. An undrained hit counter outlives the entry as
    /// a ghost slot (the balancer still learns the block was hot here this
    /// epoch).
    fn evict_lru(&mut self) {
        let hits = match self.table.tail() {
            Some((_, s)) => {
                debug_assert_eq!(s.state, XState::Live);
                s.hits
            }
            None => return,
        };
        if hits > 0 {
            let (_, s) = self.table.unlist_tail().expect("tail vanished");
            s.state = XState::Ghost;
            s.entry = XlateEntry::default();
        } else {
            self.table.remove_tail();
        }
    }

    /// Install (or refresh) a live entry. Returns `true` if an entry was
    /// evicted to make room (capacity pressure — experiment E6; at capacity
    /// 0, the new entry itself). A forward tombstone or parked hit counter
    /// under the same key is absorbed: the hit counter carries over.
    pub fn install(&mut self, block_key: u64, entry: XlateEntry) -> bool {
        // One probe sequence places or finds the slot; listing and
        // eviction work off slot indices after that.
        let (idx, existed) = self.table.upsert(block_key);
        let s = self.table.value_at(idx);
        let was_live = existed && s.state == XState::Live;
        if existed && s.state == XState::Forward {
            self.forwards -= 1;
        }
        s.state = XState::Live;
        s.entry = entry;
        s.next_hop = 0;
        self.table.promote_at(idx);
        // The promoted entry sits at the head, so the tail (the eviction
        // victim) is the same entry the old evict-before-insert order chose.
        let mut evicted = false;
        if !was_live && self.table.listed_len() > self.capacity {
            self.evict_lru();
            evicted = true;
        }
        evicted
    }

    /// Drop the live entry for `block_key`, leaving a forwarding tombstone
    /// pointing at `new_owner` (called on migration hand-off). The entry's
    /// hit counter stays with the slot, and the tombstone keeps the
    /// `generation` the block is retired at: the software that writes the
    /// tombstone supplies it (the live entry may have been evicted), and a
    /// later visitor tells a stale tombstone from a current one by it.
    pub fn retire_to_forward(&mut self, block_key: u64, new_owner: LocalityId, generation: u32) {
        let retired = XlateEntry {
            generation,
            ..XlateEntry::default()
        };
        match self.table.get_mut(block_key) {
            Some(s) => {
                if s.state != XState::Forward {
                    self.forwards += 1;
                }
                s.state = XState::Forward;
                s.next_hop = new_owner;
                s.entry = retired;
                self.table.unlist(block_key);
            }
            None => {
                self.table.insert(
                    block_key,
                    XSlot {
                        entry: retired,
                        next_hop: new_owner,
                        state: XState::Forward,
                        ..XSlot::default()
                    },
                );
                self.forwards += 1;
            }
        }
    }

    /// Remove any state (live or forward) for `block_key` — the block was
    /// freed. This *deliberately* discards the entry's undrained hit
    /// telemetry (a freed block can no longer be balanced); the dropped
    /// count is returned so callers can audit the reset. A forward whose
    /// tombstone merely expired should use [`XlateTable::expire_forward`],
    /// which preserves the counter.
    pub fn invalidate(&mut self, block_key: u64) -> u64 {
        match self.table.remove(block_key) {
            Some(s) => {
                if s.state == XState::Forward {
                    self.forwards -= 1;
                }
                s.hits
            }
            None => 0,
        }
    }

    /// Expire a forwarding tombstone without losing telemetry: the hit
    /// counter earned while the entry was live parks in a ghost slot until
    /// the next [`XlateTable::take_hit_telemetry`] drain, so a re-install
    /// of the (still-live elsewhere) block within the same balancer epoch
    /// resumes the count. Returns whether a forward existed.
    pub fn expire_forward(&mut self, block_key: u64) -> bool {
        let Some(s) = self.table.get_mut(block_key) else {
            return false;
        };
        if s.state != XState::Forward {
            return false;
        }
        self.forwards -= 1;
        if s.hits > 0 {
            s.state = XState::Ghost;
            s.next_hop = 0;
        } else {
            self.table.remove(block_key);
        }
        true
    }

    /// Purge every forwarding tombstone whose next hop is `dead` — the hop
    /// crashed, so a forward-chain transiting it would re-inject traffic
    /// into a black hole until the TTL burned out. Counters earned while
    /// the entries were live park as ghosts (like
    /// [`XlateTable::expire_forward`]); subsequent lookups miss and recover
    /// through the home directory. Returns the number of forwards dropped.
    pub fn purge_forwards_via(&mut self, dead: LocalityId) -> u64 {
        let mut hot = Vec::new();
        let mut cold = Vec::new();
        for (key, s, _) in self.table.iter_mut() {
            if s.state == XState::Forward && s.next_hop == dead {
                if s.hits > 0 {
                    hot.push(key);
                } else {
                    cold.push(key);
                }
            }
        }
        let dropped = (hot.len() + cold.len()) as u64;
        for key in hot {
            let s = self.table.get_mut(key).expect("slot vanished");
            s.state = XState::Ghost;
            s.next_hop = 0;
            self.forwards -= 1;
        }
        for key in cold {
            self.table.remove(key);
            self.forwards -= 1;
        }
        dropped
    }

    /// Drain the per-entry hit telemetry (counters reset to zero, parked
    /// ghost counters are released), **sorted by block key** so consumers
    /// (the load balancer) see a deterministic order.
    pub fn take_hit_telemetry(&mut self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut ghosts = Vec::new();
        for (key, s, _) in self.table.iter_mut() {
            if s.hits > 0 {
                out.push((key, s.hits));
                s.hits = 0;
            }
            if s.state == XState::Ghost {
                ghosts.push(key);
            }
        }
        for key in ghosts {
            self.table.remove(key);
        }
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    /// Drop every live entry (a NIC reset / firmware fault) and all hit
    /// telemetry. Forwarding tombstones survive (they live in the NIC's
    /// persistent route table in this model). Subsequent traffic misses
    /// and software reinstalls.
    pub fn flush_live(&mut self) {
        let mut dead = Vec::new();
        for (key, s, _) in self.table.iter_mut() {
            match s.state {
                XState::Live | XState::Ghost => dead.push(key),
                XState::Forward => s.hits = 0,
            }
        }
        for key in dead {
            self.table.remove(key);
        }
    }

    /// Live entries the table has room for (0 = no NIC table: an install
    /// evicts itself at once, and AGAS never issues one).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of live (non-forward) entries.
    pub fn live_entries(&self) -> usize {
        self.table.listed_len()
    }

    /// Number of forwarding tombstones.
    pub fn forward_entries(&self) -> usize {
        self.forwards
    }

    /// A census read of the live entry for `block_key`: not a
    /// translation, so it leaves recency, the hit counter and the lookup
    /// telemetry as they were.
    pub fn peek(&self, block_key: u64) -> Option<&XlateEntry> {
        match self.table.peek(block_key) {
            Some(s) if s.state == XState::Live => Some(&s.entry),
            _ => None,
        }
    }
}

/// Most forwarded requests one NIC holds parked at a time; one more is
/// refused and takes the path it would have taken without parking. The
/// repository benchmark's `churn_mix` (16 initiators, window 8, 28 % of
/// ops on one block) peaks at 11.
pub const PARK_DEPTH: usize = 64;

/// Longest a request stays parked before the NIC gives up on the block
/// arriving and NACKs it. A hand-off window is the block's wire time plus
/// the install handler — 5–10 µs for the benchmark's 8 KiB blocks.
pub const PARK_TIMEOUT: Time = Time::from_us(50);

/// A forwarded request held at the NIC it was forwarded to.
pub(crate) struct Parked {
    /// Names this park to its expiry timer.
    pub(crate) ticket: u64,
    /// Where the completion or NACK goes.
    pub(crate) initiator: LocalityId,
    /// The request, as it arrived.
    pub(crate) req: Box<Access>,
}

/// The NIC's park queue: requests a tombstone forwarded here *ahead of the
/// block itself* — the old owner's NIC flips to forwarding the instant a
/// hand-off starts, the block's bytes and this NIC's entry follow
/// microseconds later. Held in arrival order, bounded by [`PARK_DEPTH`] and
/// [`PARK_TIMEOUT`], released by the install of the awaited translation.
#[derive(Default)]
pub struct ParkQueue {
    items: Vec<Parked>,
    next_ticket: u64,
}

impl ParkQueue {
    /// Requests parked right now.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Is nothing parked?
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The parked requests in arrival order, each with its initiator
    /// (diagnostics: stuck-record reports).
    pub fn iter(&self) -> impl Iterator<Item = (LocalityId, &Access)> {
        self.items.iter().map(|p| (p.initiator, &*p.req))
    }

    /// Is there room for one more?
    pub(crate) fn has_room(&self) -> bool {
        self.items.len() < PARK_DEPTH
    }

    /// Park `req` behind the requests already waiting; returns its ticket.
    pub(crate) fn push(&mut self, initiator: LocalityId, req: Box<Access>) -> u64 {
        debug_assert!(self.has_room());
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.items.push(Parked {
            ticket,
            initiator,
            req,
        });
        ticket
    }

    /// Remove every request waiting on `block`, in arrival order.
    pub(crate) fn take_block(&mut self, block: u64) -> Vec<Parked> {
        let (taken, kept) = std::mem::take(&mut self.items)
            .into_iter()
            .partition(|p| p.req.block() == block);
        self.items = kept;
        taken
    }

    /// Remove the request parked under `ticket`, if it is still waiting.
    pub(crate) fn take_ticket(&mut self, ticket: u64) -> Option<Parked> {
        let i = self.items.iter().position(|p| p.ticket == ticket)?;
        Some(self.items.remove(i))
    }

    /// Drop everything parked (the NIC died).
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

/// One locality's NIC: parallel tx/rx ports (hardware queue pairs) and the
/// translation table. Each port is a serial resource; a message occupies
/// the earliest-free port of its direction.
pub struct Nic {
    tx_free: Vec<Time>,
    rx_free: Vec<Time>,
    /// The network-managed translation state (the paper's contribution).
    pub xlate: XlateTable,
    /// Responder cache for NIC-executed active operations: remembers
    /// executed AMOs by retry-stable key so duplicated or retried
    /// requests re-emit the cached result instead of re-executing.
    pub amo: AmoCache,
    /// Forwarded requests waiting for their block's translation to land.
    pub parked: ParkQueue,
}

fn reserve(ports: &mut [Time], earliest: Time, dur: Time) -> (Time, Time) {
    let idx = ports
        .iter()
        .enumerate()
        .min_by_key(|&(i, &t)| (t, i))
        .map(|(i, _)| i)
        .expect("NIC with zero ports");
    let start = earliest.max(ports[idx]);
    let finish = start + dur;
    ports[idx] = finish;
    (start, finish)
}

impl Nic {
    /// A NIC with `ports` queue pairs per direction and an
    /// `xlate_capacity`-entry translation table.
    pub fn new(xlate_capacity: usize, ports: usize) -> Nic {
        assert!(ports >= 1, "NIC needs at least one port");
        Nic {
            tx_free: vec![Time::ZERO; ports],
            rx_free: vec![Time::ZERO; ports],
            xlate: XlateTable::new(xlate_capacity),
            amo: AmoCache::new(AMO_CACHE_CAP),
            parked: ParkQueue::default(),
        }
    }

    /// Reserve a transmit port for `dur` starting no earlier than
    /// `earliest`; returns `(start, finish)` of the occupied interval.
    pub fn tx_reserve(&mut self, earliest: Time, dur: Time) -> (Time, Time) {
        reserve(&mut self.tx_free, earliest, dur)
    }

    /// Reserve a receive port, as [`Nic::tx_reserve`].
    pub fn rx_reserve(&mut self, earliest: Time, dur: Time) -> (Time, Time) {
        reserve(&mut self.rx_free, earliest, dur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(base: u64, len: u64, generation: u32) -> XlateEntry {
        XlateEntry {
            base,
            len,
            generation,
        }
    }

    #[test]
    fn lookup_miss_then_hit() {
        let mut t = XlateTable::new(8);
        assert_eq!(t.lookup(42), Xlate::Miss);
        assert!(!t.install(42, entry(0x1000, 64, 1)));
        assert_eq!(t.lookup(42), Xlate::Hit(entry(0x1000, 64, 1)));
        assert_eq!(t.live_entries(), 1);
    }

    #[test]
    fn a_census_read_leaves_no_trace() {
        // Capacity 2, block 1 least recently used: a translation of 1
        // would make 2 the victim of the next install; a census read of 1
        // must not.
        let mut t = XlateTable::new(2);
        t.install(1, entry(0x40, 64, 1));
        t.install(2, entry(0x80, 64, 1));
        let counts = t.table.pending_counts();
        for _ in 0..3 {
            assert_eq!(t.peek(1), Some(&entry(0x40, 64, 1)));
        }
        assert_eq!(t.peek(3), None);
        assert_eq!(t.table.pending_counts(), counts);
        assert!(t.install(3, entry(0xc0, 64, 1)));
        assert_eq!(t.peek(1), None, "the census read refreshed recency");
        assert!(t.peek(2).is_some());
        assert_eq!(t.take_hit_telemetry(), vec![]);
        // The same sequence with a translation evicts the other entry.
        let mut u = XlateTable::new(2);
        u.install(1, entry(0x40, 64, 1));
        u.install(2, entry(0x80, 64, 1));
        assert_eq!(u.lookup(1), Xlate::Hit(entry(0x40, 64, 1)));
        assert!(u.install(3, entry(0xc0, 64, 1)));
        assert!(u.peek(1).is_some());
        assert_eq!(u.peek(2), None);
        assert_eq!(u.take_hit_telemetry(), vec![(1, 1)]);
    }

    #[test]
    fn forward_tombstones() {
        let mut t = XlateTable::new(8);
        t.install(7, entry(0, 64, 1));
        t.retire_to_forward(7, 3, 1);
        assert_eq!(
            t.lookup(7),
            Xlate::Forward {
                next: 3,
                retired: 1
            }
        );
        assert_eq!(t.live_entries(), 0);
        assert_eq!(t.forward_entries(), 1);
        // Re-installing (block migrated back) clears the tombstone.
        t.install(7, entry(0x40, 64, 3));
        assert_eq!(t.lookup(7), Xlate::Hit(entry(0x40, 64, 3)));
        assert_eq!(t.forward_entries(), 0);
    }

    #[test]
    fn tombstone_keeps_the_retired_generation() {
        let mut t = XlateTable::new(8);
        // Retired from a live entry, and written cold (entry evicted
        // earlier): both remember the generation software supplied.
        t.install(7, entry(0, 64, 4));
        t.retire_to_forward(7, 3, 4);
        t.retire_to_forward(8, 2, 9);
        assert_eq!(
            t.lookup(7),
            Xlate::Forward {
                next: 3,
                retired: 4
            }
        );
        assert_eq!(
            t.lookup(8),
            Xlate::Forward {
                next: 2,
                retired: 9
            }
        );
        // A re-retire (the block came back and left again) overwrites it.
        t.install(7, entry(0, 64, 6));
        t.retire_to_forward(7, 1, 6);
        assert_eq!(
            t.lookup(7),
            Xlate::Forward {
                next: 1,
                retired: 6
            }
        );
        assert_eq!(t.forward_entries(), 2);
    }

    #[test]
    fn invalidate_clears_everything() {
        let mut t = XlateTable::new(8);
        t.install(1, entry(0, 64, 1));
        t.retire_to_forward(2, 5, 1);
        t.invalidate(1);
        t.invalidate(2);
        assert_eq!(t.lookup(1), Xlate::Miss);
        assert_eq!(t.lookup(2), Xlate::Miss);
    }

    #[test]
    fn purge_forwards_via_crashed_hop() {
        let mut t = XlateTable::new(8);
        // Three tombstones: two transit the doomed hop 3 (one with parked
        // telemetry), one forwards elsewhere and must survive.
        t.install(10, entry(0, 64, 1));
        t.retire_to_forward(10, 3, 1);
        assert_eq!(
            t.lookup(10),
            Xlate::Forward {
                next: 3,
                retired: 1
            }
        );
        t.install(11, entry(64, 64, 1));
        assert_eq!(t.lookup(11), Xlate::Hit(entry(64, 64, 1)));
        t.retire_to_forward(11, 3, 1);
        t.retire_to_forward(12, 5, 1);
        assert_eq!(t.forward_entries(), 3);
        assert_eq!(t.purge_forwards_via(3), 2);
        // Chains through the dead hop now miss (initiator re-chases via the
        // home directory) instead of re-injecting toward the crashed node.
        assert_eq!(t.lookup(10), Xlate::Miss);
        assert_eq!(t.lookup(11), Xlate::Miss);
        assert_eq!(
            t.lookup(12),
            Xlate::Forward {
                next: 5,
                retired: 1
            }
        );
        assert_eq!(t.forward_entries(), 1);
        // The hit earned while 11 was live survives the purge as a ghost.
        assert_eq!(t.take_hit_telemetry(), vec![(11, 1)]);
        // Idempotent: nothing left to purge.
        assert_eq!(t.purge_forwards_via(3), 0);
    }

    #[test]
    fn capacity_eviction_reports() {
        let mut t = XlateTable::new(2);
        assert!(!t.install(1, entry(0, 64, 1)));
        assert!(!t.install(2, entry(64, 64, 1)));
        // Third insert evicts LRU (key 1).
        assert!(t.install(3, entry(128, 64, 1)));
        assert_eq!(t.lookup(1), Xlate::Miss);
        assert_eq!(t.lookup(2), Xlate::Hit(entry(64, 64, 1)));
    }

    #[test]
    fn zero_capacity_table_always_misses() {
        let mut t = XlateTable::new(0);
        assert!(t.install(1, entry(0, 64, 1)));
        assert_eq!(t.lookup(1), Xlate::Miss);
        // A tombstone under the key is absorbed all the same.
        t.retire_to_forward(2, 3, 1);
        assert!(t.install(2, entry(64, 64, 2)));
        assert_eq!((t.lookup(2), t.forward_entries()), (Xlate::Miss, 0));
    }

    #[test]
    fn multiple_ports_overlap() {
        let mut nic = Nic::new(8, 2);
        let (s1, _) = nic.tx_reserve(Time::ZERO, Time::from_ns(10));
        let (s2, _) = nic.tx_reserve(Time::ZERO, Time::from_ns(10));
        assert_eq!(s1, Time::ZERO);
        assert_eq!(s2, Time::ZERO, "second port should take the message");
        let (s3, _) = nic.tx_reserve(Time::ZERO, Time::from_ns(10));
        assert_eq!(s3, Time::from_ns(10), "third message queues");
    }

    #[test]
    fn ports_serialize() {
        let mut nic = Nic::new(8, 1);
        let (s1, f1) = nic.tx_reserve(Time::from_ns(0), Time::from_ns(10));
        assert_eq!((s1, f1), (Time::from_ns(0), Time::from_ns(10)));
        // Second reservation queues behind the first.
        let (s2, f2) = nic.tx_reserve(Time::from_ns(5), Time::from_ns(10));
        assert_eq!((s2, f2), (Time::from_ns(10), Time::from_ns(20)));
        // A later arrival after the port drained starts immediately.
        let (s3, _) = nic.tx_reserve(Time::from_ns(100), Time::from_ns(1));
        assert_eq!(s3, Time::from_ns(100));
        // rx port is independent.
        let (s4, _) = nic.rx_reserve(Time::from_ns(0), Time::from_ns(3));
        assert_eq!(s4, Time::from_ns(0));
    }

    #[test]
    fn generation_is_preserved() {
        let mut t = XlateTable::new(4);
        t.install(9, entry(0, 128, 41));
        match t.lookup(9) {
            Xlate::Hit(e) => assert_eq!(e.generation, 41),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn hit_telemetry_is_sorted_by_block_key() {
        let mut t = XlateTable::new(16);
        // Install in a scrambled order so slot order != key order.
        for k in [9u64, 2, 31, 14, 5] {
            t.install(k, entry(k * 64, 64, 1));
        }
        for k in [31u64, 31, 2, 14, 14, 14, 9, 5, 5] {
            t.lookup(k);
        }
        let drained = t.take_hit_telemetry();
        assert_eq!(
            drained,
            vec![(2, 1), (5, 2), (9, 1), (14, 3), (31, 2)],
            "telemetry must drain sorted by block key"
        );
        // Counters were zeroed by the drain.
        t.lookup(9);
        assert_eq!(t.take_hit_telemetry(), vec![(9, 1)]);
    }

    #[test]
    fn hits_survive_retire_and_reinstall() {
        let mut t = XlateTable::new(8);
        t.install(7, entry(0, 64, 1));
        t.lookup(7);
        t.lookup(7);
        // Retire keeps the counter on the tombstone; reinstall resumes it.
        t.retire_to_forward(7, 3, 1);
        t.install(7, entry(0x40, 64, 2));
        t.lookup(7);
        assert_eq!(t.take_hit_telemetry(), vec![(7, 3)]);
    }

    #[test]
    fn hits_survive_capacity_eviction() {
        let mut t = XlateTable::new(2);
        t.install(1, entry(0, 64, 1));
        t.lookup(1);
        t.install(2, entry(64, 64, 1));
        t.install(3, entry(128, 64, 1)); // evicts key 1 with 1 hit pending
        assert_eq!(t.lookup(1), Xlate::Miss);
        t.install(1, entry(0, 64, 1)); // evicts key 2 (no hits)
        t.lookup(1);
        assert_eq!(
            t.take_hit_telemetry(),
            vec![(1, 2)],
            "eviction must not lose pending hit telemetry"
        );
    }

    #[test]
    fn invalidate_reports_dropped_hits() {
        let mut t = XlateTable::new(8);
        t.install(4, entry(0, 64, 1));
        t.lookup(4);
        t.lookup(4);
        t.lookup(4);
        assert_eq!(t.invalidate(4), 3, "invalidate returns the dropped count");
        assert_eq!(t.invalidate(4), 0);
        assert!(
            t.take_hit_telemetry().is_empty(),
            "freed blocks report no telemetry"
        );
    }

    #[test]
    fn expire_forward_preserves_hit_telemetry() {
        let mut t = XlateTable::new(8);
        t.install(7, entry(0, 64, 1));
        t.lookup(7);
        t.retire_to_forward(7, 3, 1);
        assert_eq!(
            t.lookup(7),
            Xlate::Forward {
                next: 3,
                retired: 1
            }
        );
        // Expiring the tombstone ends forwarding but must keep the hit
        // counter for the balancer's next drain (the old implementation
        // silently dropped it).
        assert!(t.expire_forward(7));
        assert!(!t.expire_forward(7), "already expired");
        assert_eq!(t.lookup(7), Xlate::Miss);
        assert_eq!(t.forward_entries(), 0);
        assert_eq!(t.take_hit_telemetry(), vec![(7, 1)]);
    }

    #[test]
    fn expire_forward_without_hits_frees_the_slot() {
        let mut t = XlateTable::new(8);
        t.retire_to_forward(9, 2, 1); // tombstone for a never-hit block
        assert!(t.expire_forward(9));
        assert_eq!(t.lookup(9), Xlate::Miss);
        assert!(t.take_hit_telemetry().is_empty());
    }
}
