//! Flat open-addressed translation tables — the GVA→physical fast path.
//!
//! Every translation structure in the stack (`Btt`, `OwnerCache`,
//! `Directory`, `XlateTable`) keys `u64` block keys to a small `Copy`
//! payload. [`FlatTable`] serves them all: one power-of-two slot array,
//! Robin-Hood linear probing over a seeded 128-bit-multiply mixer (the
//! same family as the engine's `trace_mix`), tombstone-free backward-shift
//! deletion, and payloads stored inline in the slot so a lookup is one
//! probe sequence with no second map.
//!
//! An intrusive doubly-linked recency list is threaded through the slots
//! for the LRU-bounded users (`OwnerCache`, the NIC table's live entries).
//! Entries are *listed* (on the recency list) or *unlisted* (present but
//! exempt — forwarding tombstones, directory records). Robin-Hood
//! displacement and backward-shift deletion relocate slots, so every
//! relocation is logged and the list links repaired afterwards in two
//! phases (read all final links, then write) — index translation is
//! exact, and the recency order is bit-for-bit that of a slab-backed
//! hash-map-plus-list LRU (the structure this table replaced), which the
//! trace-hash pins and the shadow proptests' model LRU enforce.
//!
//! Lookup-path calls (`get`, `get_mut`, `lookup*`) count into
//! process-wide translation telemetry ([`crate::telemetry`]), batched
//! through per-table `Cell` counters and flushed on a threshold and on
//! drop, so the hot path costs two cell bumps, not an atomic.

use crate::telemetry;
use std::cell::Cell;

const NIL: u32 = u32::MAX;
/// Flush batched lookup/probe counters to the process totals this often.
const FLUSH_EVERY: u64 = 1 << 12;

/// Mix a key with the table's seed: one widening multiply by the
/// golden-ratio constant, folding the 128-bit product — `trace_mix`'s
/// family, deterministic and platform-independent.
#[inline]
fn mix(seed: u64, key: u64) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let m = u128::from(key ^ seed) * u128::from(K);
    (m as u64) ^ ((m >> 64) as u64)
}

#[derive(Clone, Copy)]
struct Slot<V: Copy> {
    key: u64,
    prev: u32,
    next: u32,
    /// Probe distance + 1; `0` marks an empty slot.
    dib: u16,
    listed: bool,
    value: V,
}

impl<V: Copy + Default> Default for Slot<V> {
    fn default() -> Slot<V> {
        Slot {
            key: 0,
            prev: NIL,
            next: NIL,
            dib: 0,
            listed: false,
            value: V::default(),
        }
    }
}

/// Outcome of [`FlatTable::insert_lru`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LruInsert<V> {
    /// Capacity is zero: the pair is handed straight back.
    Rejected(V),
    /// The key existed; its old value is returned and recency refreshed.
    Replaced(V),
    /// The list was full; the least-recently-used entry was evicted.
    Evicted(u64, V),
    /// Plain insertion, nothing displaced.
    Inserted,
}

/// A flat, open-addressed, optionally LRU-threaded map from `u64` keys to
/// inline `Copy` payloads. See the module docs for the design.
pub struct FlatTable<V: Copy + Default> {
    slots: Vec<Slot<V>>,
    mask: usize,
    len: usize,
    listed: usize,
    head: u32,
    tail: u32,
    seed: u64,
    lookups: Cell<u64>,
    probes: Cell<u64>,
    moves: Vec<(u32, u32)>,
}

impl<V: Copy + Default> FlatTable<V> {
    /// An empty table hashing with `seed` (no slots allocated until the
    /// first insert).
    pub fn with_seed(seed: u64) -> FlatTable<V> {
        FlatTable {
            slots: Vec::new(),
            mask: 0,
            len: 0,
            listed: 0,
            head: NIL,
            tail: NIL,
            seed,
            lookups: Cell::new(0),
            probes: Cell::new(0),
            moves: Vec::new(),
        }
    }

    /// Total entries (listed + unlisted).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries currently on the recency list.
    pub fn listed_len(&self) -> usize {
        self.listed
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (mix(self.seed, key) as usize) & self.mask
    }

    /// Probe for `key`: `(slot index if present, slots examined)`.
    #[inline]
    fn probe(&self, key: u64) -> (Option<usize>, u64) {
        if self.slots.is_empty() {
            return (None, 1);
        }
        let mask = self.mask;
        let mut i = self.home(key);
        let mut dib: u16 = 1;
        loop {
            // SAFETY: `slots.len() == mask + 1` (power-of-two allocation)
            // and `i` is always masked, so `i < slots.len()`. This loop is
            // the hottest code in the simulator; the bounds check costs a
            // measurable fraction of a hit.
            let s = unsafe { self.slots.get_unchecked(i) };
            if s.dib == 0 || s.dib < dib {
                return (None, u64::from(dib));
            }
            if s.key == key {
                return (Some(i), u64::from(dib));
            }
            i = (i + 1) & mask;
            dib += 1;
        }
    }

    #[inline]
    fn note(&self, probes: u64) {
        self.lookups.set(self.lookups.get() + 1);
        self.probes.set(self.probes.get() + probes);
        if self.lookups.get() >= FLUSH_EVERY {
            self.flush_counters();
        }
    }

    /// Fold this table's batched lookup/probe counters into the process
    /// totals ([`telemetry::record_translation`]). Called automatically on
    /// a threshold and on drop.
    pub fn flush_counters(&self) {
        let l = self.lookups.replace(0);
        let p = self.probes.replace(0);
        if l > 0 {
            telemetry::record_translation(l, p, 0);
        }
    }

    /// `(lookups, probes)` this table has counted and not yet flushed to
    /// the process totals.
    pub fn pending_counts(&self) -> (u64, u64) {
        (self.lookups.get(), self.probes.get())
    }

    /// Non-touching, non-counting read (diagnostics/tests — not a
    /// translation, so it stays out of the telemetry).
    pub fn peek(&self, key: u64) -> Option<&V> {
        let (found, _) = self.probe(key);
        found.map(|i| &self.slots[i].value)
    }

    /// Non-touching lookup (counts toward translation telemetry).
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        let (found, p) = self.probe(key);
        self.note(p);
        found.map(|i| &self.slots[i].value)
    }

    /// Non-touching mutable lookup (counts toward translation telemetry).
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        let (found, p) = self.probe(key);
        self.note(p);
        found.map(|i| &mut self.slots[i].value)
    }

    /// Translate `key`: refresh recency when the entry is listed, count
    /// telemetry, return the payload.
    #[inline]
    pub fn lookup(&mut self, key: u64) -> Option<&mut V> {
        self.lookup_indexed(key).map(|(_, v)| v)
    }

    /// [`FlatTable::lookup`], also returning the slot index for a
    /// one-entry memo (re-validate later with [`FlatTable::lookup_at`]).
    #[inline]
    pub fn lookup_indexed(&mut self, key: u64) -> Option<(u32, &mut V)> {
        let (found, p) = self.probe(key);
        self.note(p);
        let i = found?;
        if self.slots[i].listed {
            self.move_front(i);
        }
        Some((i as u32, &mut self.slots[i].value))
    }

    /// Memoized translate: if slot `idx` still holds `key` (relocations
    /// and replacements are caught by the key check), this is a single
    /// slot read instead of a probe sequence. Recency is refreshed exactly
    /// as [`FlatTable::lookup`] would. `None` means the memo went stale —
    /// fall back to a full lookup.
    #[inline]
    pub fn lookup_at(&mut self, idx: u32, key: u64) -> Option<&mut V> {
        let i = idx as usize;
        if i >= self.slots.len() || self.slots[i].dib == 0 || self.slots[i].key != key {
            return None;
        }
        self.note(1);
        if self.slots[i].listed {
            self.move_front(i);
        }
        Some(&mut self.slots[i].value)
    }

    /// Insert or replace. New entries are unlisted; a replaced entry keeps
    /// its listed state and recency. Returns the old value.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        if let (Some(i), _) = self.probe(key) {
            return Some(std::mem::replace(&mut self.slots[i].value, value));
        }
        self.insert_fresh(key, value);
        None
    }

    /// Single-probe insert-or-get: one probe sequence decides presence AND
    /// places the entry. Absent keys are inserted with `V::default()`,
    /// unlisted. Returns `(slot index, existed)`; mutate through
    /// [`FlatTable::value_at`] and list through [`FlatTable::promote_at`].
    /// Maintenance, not translation: does not count toward telemetry.
    #[inline]
    pub fn upsert(&mut self, key: u64) -> (u32, bool) {
        if let (Some(i), _) = self.probe(key) {
            return (i as u32, true);
        }
        (self.insert_fresh(key, V::default()) as u32, false)
    }

    /// Payload access by slot index (from [`FlatTable::upsert`] /
    /// [`FlatTable::lookup_indexed`]). The index must be current — any
    /// insert or remove can relocate slots.
    #[inline]
    pub fn value_at(&mut self, idx: u32) -> &mut V {
        let s = &mut self.slots[idx as usize];
        debug_assert_ne!(s.dib, 0, "value_at on an empty slot");
        &mut s.value
    }

    /// Insert as a capacity-bounded LRU map does: zero `capacity` rejects,
    /// replacement refreshes recency, a full list evicts its tail (fully
    /// removed) before the new entry is listed at the front.
    pub fn insert_lru(&mut self, key: u64, value: V, capacity: usize) -> LruInsert<V> {
        if capacity == 0 {
            return LruInsert::Rejected(value);
        }
        if let (Some(i), _) = self.probe(key) {
            let old = std::mem::replace(&mut self.slots[i].value, value);
            if self.slots[i].listed {
                self.move_front(i);
            } else {
                self.push_front(i);
            }
            return LruInsert::Replaced(old);
        }
        let evicted = if self.listed >= capacity {
            let t = self.tail as usize;
            debug_assert_ne!(self.tail, NIL);
            let k = self.slots[t].key;
            let v = self.remove_at(t);
            Some((k, v))
        } else {
            None
        };
        let idx = self.insert_fresh(key, value);
        self.push_front(idx);
        match evicted {
            Some((k, v)) => LruInsert::Evicted(k, v),
            None => LruInsert::Inserted,
        }
    }

    /// Remove `key`, returning its value (backward-shift, no tombstones).
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let (found, _) = self.probe(key);
        found.map(|i| self.remove_at(i))
    }

    /// Put `key` at the front of the recency list (listing it if it was
    /// unlisted). Returns the payload.
    pub fn promote(&mut self, key: u64) -> Option<&mut V> {
        let (found, _) = self.probe(key);
        let i = found?;
        if self.slots[i].listed {
            self.move_front(i);
        } else {
            self.push_front(i);
        }
        Some(&mut self.slots[i].value)
    }

    /// [`FlatTable::promote`] by slot index — no probe. The index must be
    /// current (see [`FlatTable::value_at`]).
    #[inline]
    pub fn promote_at(&mut self, idx: u32) {
        let i = idx as usize;
        debug_assert_ne!(self.slots[i].dib, 0, "promote_at on an empty slot");
        if self.slots[i].listed {
            self.move_front(i);
        } else {
            self.push_front(i);
        }
    }

    /// Take `key` off the recency list, keeping the entry in the table.
    /// Returns whether the entry existed and was listed.
    pub fn unlist(&mut self, key: u64) -> bool {
        let (found, _) = self.probe(key);
        match found {
            Some(i) if self.slots[i].listed => {
                self.unlink(i);
                true
            }
            _ => false,
        }
    }

    /// Unlink the least-recently-used listed entry (it stays in the
    /// table), returning its key and payload.
    pub fn unlist_tail(&mut self) -> Option<(u64, &mut V)> {
        if self.tail == NIL {
            return None;
        }
        let t = self.tail as usize;
        self.unlink(t);
        let s = &mut self.slots[t];
        Some((s.key, &mut s.value))
    }

    /// Remove the least-recently-used listed entry outright — no probe
    /// (the tail's slot index is already known).
    pub fn remove_tail(&mut self) -> Option<(u64, V)> {
        if self.tail == NIL {
            return None;
        }
        let t = self.tail as usize;
        let k = self.slots[t].key;
        let v = self.remove_at(t);
        Some((k, v))
    }

    /// Peek the least-recently-used listed entry.
    pub fn tail(&self) -> Option<(u64, &V)> {
        if self.tail == NIL {
            return None;
        }
        let s = &self.slots[self.tail as usize];
        Some((s.key, &s.value))
    }

    /// Iterate all entries in slot order (arbitrary, deterministic for a
    /// given insertion history). The flag is the listed state.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V, bool)> {
        self.slots
            .iter()
            .filter(|s| s.dib != 0)
            .map(|s| (s.key, &s.value, s.listed))
    }

    /// Mutable [`FlatTable::iter`] (payload mutation only — no structural
    /// changes mid-iteration).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut V, bool)> {
        self.slots
            .iter_mut()
            .filter(|s| s.dib != 0)
            .map(|s| (s.key, &mut s.value, s.listed))
    }

    /// Iterate listed entries from most- to least-recently used.
    pub fn iter_lru(&self) -> impl Iterator<Item = (u64, &V)> {
        LruIter {
            table: self,
            cursor: self.head,
        }
    }

    /// Iterate all keys (slot order).
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(k, _, _)| k)
    }

    /// Drop every entry, keeping the slot allocation.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s = Slot::default();
        }
        self.len = 0;
        self.listed = 0;
        self.head = NIL;
        self.tail = NIL;
    }

    // ---- internals -----------------------------------------------------

    /// Insert a key known to be absent; returns its final slot index. The
    /// new entry is unlisted.
    fn insert_fresh(&mut self, key: u64, value: V) -> usize {
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mut moves = std::mem::take(&mut self.moves);
        moves.clear();
        let idx = self.place(key, value, NIL, NIL, false, &mut moves);
        self.repair_moves(&moves);
        self.moves = moves;
        self.len += 1;
        idx
    }

    /// Robin-Hood placement with displacement. Records every relocated
    /// resident entry in `moves` as `(old index, new index)`; link repair
    /// is the caller's job. Returns where the *new* key landed.
    fn place(
        &mut self,
        key: u64,
        value: V,
        prev: u32,
        next: u32,
        listed: bool,
        moves: &mut Vec<(u32, u32)>,
    ) -> usize {
        let mask = self.mask;
        let mut i = self.home(key);
        let mut dib: u16 = 1;
        // The carried entry: the new key first, then whatever each swap
        // displaces. `from` is the displaced entry's old index.
        let mut carry = Slot {
            key,
            prev,
            next,
            dib: 0,
            listed,
            value,
        };
        let mut from = NIL;
        let mut placed = NIL;
        loop {
            assert!(dib < u16::MAX, "flatmap probe-distance overflow");
            let s = &mut self.slots[i];
            if s.dib == 0 {
                carry.dib = dib;
                *s = carry;
                if from == NIL {
                    placed = i as u32;
                } else {
                    moves.push((from, i as u32));
                }
                debug_assert_ne!(placed, NIL);
                return placed as usize;
            }
            if s.dib < dib {
                let evicted_dib = s.dib;
                carry.dib = dib;
                let evicted = std::mem::replace(s, carry);
                if from == NIL {
                    placed = i as u32;
                } else {
                    moves.push((from, i as u32));
                }
                carry = evicted;
                from = i as u32;
                dib = evicted_dib;
            }
            i = (i + 1) & mask;
            dib += 1;
        }
    }

    /// Remove the entry at slot `i` (unlinking it first if listed), then
    /// backward-shift the following run and repair relocated links.
    fn remove_at(&mut self, i: usize) -> V {
        if self.slots[i].listed {
            self.unlink(i);
        }
        let val = self.slots[i].value;
        let mask = self.mask;
        let mut moves = std::mem::take(&mut self.moves);
        moves.clear();
        let mut cur = i;
        loop {
            let nxt = (cur + 1) & mask;
            let d = self.slots[nxt].dib;
            if d <= 1 {
                break;
            }
            self.slots[cur] = self.slots[nxt];
            self.slots[cur].dib = d - 1;
            moves.push((nxt as u32, cur as u32));
            cur = nxt;
        }
        self.slots[cur] = Slot::default();
        self.len -= 1;
        self.repair_moves(&moves);
        self.moves = moves;
        val
    }

    /// Repair recency-list links after slot relocations. Two phases: read
    /// every moved entry's final neighbor indices from the (still
    /// pre-move) stored values, then write — a moved entry's old index can
    /// equal another's new index, so no write may happen before all reads.
    fn repair_moves(&mut self, moves: &[(u32, u32)]) {
        if moves.is_empty() || self.listed == 0 {
            return;
        }
        let translate = |idx: u32| -> u32 {
            if idx == NIL {
                return NIL;
            }
            for &(o, n) in moves {
                if o == idx {
                    return n;
                }
            }
            idx
        };
        let mut fixes: Vec<(u32, u32, u32)> = Vec::with_capacity(moves.len());
        for &(_, n) in moves {
            let s = &self.slots[n as usize];
            if !s.listed {
                continue;
            }
            fixes.push((n, translate(s.prev), translate(s.next)));
        }
        for &(n, p, x) in &fixes {
            let ni = n as usize;
            self.slots[ni].prev = p;
            self.slots[ni].next = x;
        }
        for &(n, p, x) in &fixes {
            if p != NIL {
                self.slots[p as usize].next = n;
            } else {
                self.head = n;
            }
            if x != NIL {
                self.slots[x as usize].prev = n;
            } else {
                self.tail = n;
            }
        }
    }

    #[inline]
    fn unlink(&mut self, i: usize) {
        let (p, n) = (self.slots[i].prev, self.slots[i].next);
        if p != NIL {
            self.slots[p as usize].next = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.slots[n as usize].prev = p;
        } else {
            self.tail = p;
        }
        let s = &mut self.slots[i];
        s.prev = NIL;
        s.next = NIL;
        s.listed = false;
        self.listed -= 1;
    }

    #[inline]
    fn push_front(&mut self, i: usize) {
        let h = self.head;
        {
            let s = &mut self.slots[i];
            debug_assert!(!s.listed);
            s.prev = NIL;
            s.next = h;
            s.listed = true;
        }
        if h != NIL {
            self.slots[h as usize].prev = i as u32;
        } else {
            self.tail = i as u32;
        }
        self.head = i as u32;
        self.listed += 1;
    }

    #[inline]
    fn move_front(&mut self, i: usize) {
        if self.head == i as u32 {
            return;
        }
        self.unlink(i);
        self.push_front(i);
    }

    /// Double the slot array, rehashing every entry and rebuilding the
    /// recency list in its exact pre-grow order.
    fn grow(&mut self) {
        let new_cap = if self.slots.is_empty() {
            8
        } else {
            self.slots.len() * 2
        };
        let mut order: Vec<u64> = Vec::with_capacity(self.listed);
        let mut c = self.head;
        while c != NIL {
            let s = &self.slots[c as usize];
            order.push(s.key);
            c = s.next;
        }
        let old = std::mem::replace(&mut self.slots, vec![Slot::default(); new_cap]);
        self.mask = new_cap - 1;
        self.head = NIL;
        self.tail = NIL;
        self.len = 0;
        self.listed = 0;
        let mut moves = std::mem::take(&mut self.moves);
        for s in old {
            if s.dib != 0 {
                moves.clear();
                self.place(s.key, s.value, NIL, NIL, false, &mut moves);
                self.len += 1;
            }
        }
        self.moves = moves;
        for &k in order.iter().rev() {
            let (found, _) = self.probe(k);
            let i = found.expect("rehash lost a listed key");
            self.push_front(i);
        }
    }
}

impl<V: Copy + Default> Drop for FlatTable<V> {
    fn drop(&mut self) {
        self.flush_counters();
    }
}

struct LruIter<'a, V: Copy + Default> {
    table: &'a FlatTable<V>,
    cursor: u32,
}

impl<'a, V: Copy + Default> Iterator for LruIter<'a, V> {
    type Item = (u64, &'a V);
    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor == NIL {
            return None;
        }
        let s = &self.table.slots[self.cursor as usize];
        self.cursor = s.next;
        Some((s.key, &s.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> FlatTable<u64> {
        FlatTable::with_seed(0x5eed)
    }

    #[test]
    fn insert_get_remove() {
        let mut t = table();
        assert!(t.is_empty());
        assert_eq!(t.insert(1, 10), None);
        assert_eq!(t.insert(2, 20), None);
        assert_eq!(t.get(1), Some(&10));
        assert_eq!(t.get(3), None);
        assert_eq!(t.insert(1, 11), Some(10));
        assert_eq!(t.remove(1), Some(11));
        assert_eq!(t.remove(1), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn growth_preserves_entries() {
        let mut t = table();
        for k in 0..10_000u64 {
            t.insert(k * 7919, k);
        }
        assert_eq!(t.len(), 10_000);
        for k in 0..10_000u64 {
            assert_eq!(t.get(k * 7919), Some(&k));
        }
    }

    #[test]
    fn lru_semantics_match_old_lrumap() {
        let mut t: FlatTable<u64> = table();
        assert_eq!(t.insert_lru(1, 10, 0), LruInsert::Rejected(10));
        assert!(t.is_empty());
        assert_eq!(t.insert_lru(1, 10, 2), LruInsert::Inserted);
        assert_eq!(t.insert_lru(2, 20, 2), LruInsert::Inserted);
        // Touch 1 so 2 becomes the tail.
        assert!(t.lookup(1).is_some());
        assert_eq!(t.insert_lru(3, 30, 2), LruInsert::Evicted(2, 20));
        assert_eq!(t.insert_lru(1, 11, 2), LruInsert::Replaced(10));
        assert_eq!(t.listed_len(), 2);
        let mru: Vec<u64> = t.iter_lru().map(|(k, _)| k).collect();
        assert_eq!(mru, vec![1, 3]);
    }

    #[test]
    fn listed_and_unlisted_coexist() {
        let mut t: FlatTable<u64> = table();
        t.insert(100, 1); // unlisted
        t.insert_lru(200, 2, 8);
        assert_eq!(t.len(), 2);
        assert_eq!(t.listed_len(), 1);
        assert!(t.unlist(200));
        assert!(!t.unlist(100));
        assert_eq!(t.listed_len(), 0);
        assert!(t.promote(100).is_some());
        assert_eq!(t.listed_len(), 1);
        assert_eq!(t.tail().unwrap().0, 100);
    }

    #[test]
    fn recency_survives_heavy_displacement() {
        // Interleave listed/unlisted churn so Robin-Hood displacement and
        // backward shifts repeatedly relocate listed slots, then check the
        // recency order against a shadow list.
        let mut t: FlatTable<u64> = table();
        let mut shadow: Vec<u64> = Vec::new(); // MRU first
        let cap = 16;
        for i in 0..4_000u64 {
            let k = (i * 2_654_435_761) % 97;
            match i % 5 {
                0..=2 => {
                    match t.insert_lru(k, i, cap) {
                        LruInsert::Replaced(_) => {
                            shadow.retain(|&x| x != k);
                        }
                        LruInsert::Evicted(ek, _) => {
                            assert_eq!(shadow.pop(), Some(ek));
                        }
                        LruInsert::Inserted => {}
                        LruInsert::Rejected(_) => unreachable!(),
                    }
                    shadow.insert(0, k);
                }
                3 => {
                    let hit = t.lookup(k).is_some();
                    assert_eq!(hit, shadow.contains(&k));
                    if hit {
                        shadow.retain(|&x| x != k);
                        shadow.insert(0, k);
                    }
                }
                _ => {
                    let removed = t.remove(k).is_some();
                    assert_eq!(removed, shadow.contains(&k));
                    shadow.retain(|&x| x != k);
                }
            }
            assert_eq!(t.listed_len(), shadow.len());
        }
        let order: Vec<u64> = t.iter_lru().map(|(k, _)| k).collect();
        assert_eq!(order, shadow);
    }

    #[test]
    fn unlist_tail_keeps_entry() {
        let mut t: FlatTable<u64> = table();
        t.insert_lru(1, 10, 4);
        t.insert_lru(2, 20, 4);
        let (k, v) = t.unlist_tail().map(|(k, v)| (k, *v)).unwrap();
        assert_eq!((k, v), (1, 10));
        assert_eq!(t.listed_len(), 1);
        assert_eq!(t.get(1), Some(&10));
    }

    #[test]
    fn memo_lookup_at_validates_key() {
        let mut t: FlatTable<u64> = table();
        t.insert(7, 70);
        let (idx, _) = t.lookup_indexed(7).unwrap();
        assert_eq!(t.lookup_at(idx, 7), Some(&mut 70));
        assert_eq!(t.lookup_at(idx, 8), None);
        t.remove(7);
        assert_eq!(t.lookup_at(idx, 7), None);
        // Stale indices past a rebuild are rejected by the bounds check.
        assert_eq!(t.lookup_at(9999, 7), None);
    }

    #[test]
    fn clear_resets() {
        let mut t: FlatTable<u64> = table();
        t.insert(1, 1);
        t.insert_lru(2, 2, 4);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.listed_len(), 0);
        assert_eq!(t.get(1), None);
        t.insert(3, 3);
        assert_eq!(t.get(3), Some(&3));
    }
}
