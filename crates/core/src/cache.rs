//! Source-side owner caches.
//!
//! In both AGAS modes the initiator of a remote operation needs a guess at
//! the block's current owner. The cache maps block keys to
//! `(owner, generation)` hints, seeded by directory replies and invalidated
//! lazily: a stale hint is only discovered when the operation bounces
//! (software NACK or NIC miss), which triggers a directory re-query.
//!
//! Backed by [`netsim::flatmap::FlatTable`] (exact LRU bound, one probe
//! sequence per access), plus a **one-entry last-translation memo**: for
//! dependent-access patterns (pointer chase, BFS label relaxation) that hammer
//! the same block repeatedly, a memo hit re-validates a remembered slot
//! index with a single slot read instead of a probe sequence. Memo hits
//! are counted into [`netsim::telemetry`].

use netsim::flatmap::FlatTable;
use netsim::LocalityId;

/// A cached ownership hint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OwnerHint {
    /// Believed current owner.
    pub owner: LocalityId,
    /// Generation the hint was learned at.
    pub generation: u32,
}

/// Seed for the owner cache's flat table (fixed: deterministic runs).
const CACHE_SEED: u64 = 0xcac_5eed;
/// Flush batched memo-hit counts to the process totals this often.
const MEMO_FLUSH_EVERY: u64 = 1 << 12;

/// Per-locality translation (owner) cache.
pub struct OwnerCache {
    map: FlatTable<OwnerHint>,
    capacity: usize,
    /// Last successful translation: `(block key, slot index)`. Validated
    /// by a key check on use, so relocations/evictions can never serve a
    /// wrong entry — at worst the memo misses and we fall back to a probe.
    memo: Option<(u64, u32)>,
    /// The most recent eviction victim and the generation it carried —
    /// guards newest-generation-wins across the eviction boundary (a
    /// racing stale hint must not resurrect an older generation).
    last_evicted: Option<(u64, u32)>,
    hits: u64,
    misses: u64,
    memo_hits: u64,
    memo_pending: u64,
    stale_rejects: u64,
}

impl OwnerCache {
    /// A cache holding at most `capacity` hints.
    pub fn new(capacity: usize) -> OwnerCache {
        OwnerCache {
            map: FlatTable::with_seed(CACHE_SEED),
            capacity,
            memo: None,
            last_evicted: None,
            hits: 0,
            misses: 0,
            memo_hits: 0,
            memo_pending: 0,
            stale_rejects: 0,
        }
    }

    fn note_memo_hit(&mut self) {
        self.memo_hits += 1;
        self.memo_pending += 1;
        if self.memo_pending >= MEMO_FLUSH_EVERY {
            netsim::telemetry::record_translation(0, 0, self.memo_pending);
            self.memo_pending = 0;
        }
    }

    /// Look up a hint for `block_key` (refreshes LRU recency on hit).
    pub fn lookup(&mut self, block_key: u64) -> Option<OwnerHint> {
        if let Some((mk, mi)) = self.memo {
            if mk == block_key {
                if let Some(h) = self.map.lookup_at(mi, block_key) {
                    let out = *h;
                    self.hits += 1;
                    self.note_memo_hit();
                    return Some(out);
                }
                self.memo = None;
            }
        }
        match self.map.lookup_indexed(block_key) {
            Some((idx, h)) => {
                let out = *h;
                self.memo = Some((block_key, idx));
                self.hits += 1;
                Some(out)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Record a hint, keeping the newest generation on conflict. One probe
    /// sequence: the entry is updated in place when present, inserted at
    /// the probe's end otherwise (evicting the LRU hint if full).
    pub fn update(&mut self, block_key: u64, hint: OwnerHint) {
        if self.capacity == 0 {
            return;
        }
        if let Some((vk, vg)) = self.last_evicted {
            // A hint older than the generation we just evicted under the
            // same key is stale — dropping it preserves generation
            // monotonicity across the eviction boundary. (Checked before
            // the probe: if the key is resident, the in-place generation
            // rule below supersedes this guard anyway.)
            if vk == block_key && hint.generation < vg && self.map.peek(block_key).is_none() {
                self.stale_rejects += 1;
                return;
            }
        }
        let (idx, existed) = self.map.upsert(block_key);
        let slot = self.map.value_at(idx);
        if !existed || slot.generation <= hint.generation {
            *slot = hint;
        }
        self.map.promote_at(idx);
        if self.map.listed_len() > self.capacity {
            if let Some((k, v)) = self.map.remove_tail() {
                self.last_evicted = Some((k, v.generation));
            }
        }
    }

    /// Drop a hint (known stale).
    pub fn invalidate(&mut self, block_key: u64) {
        self.map.remove(block_key);
    }

    /// Drop every hint naming `owner` — it left or crashed, so any guess
    /// pointing there would bounce (or black-hole) until the directory
    /// re-query. Returns the number of hints dropped. The one-entry memo
    /// is safe: it re-validates its key on use, so a purged slot can never
    /// be served.
    pub fn purge_owner(&mut self, owner: LocalityId) -> u64 {
        let dead: Vec<u64> = self
            .map
            .iter()
            .filter(|&(_, h, _)| h.owner == owner)
            .map(|(k, _, _)| k)
            .collect();
        let n = dead.len() as u64;
        for k in dead {
            self.map.remove(k);
        }
        n
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Lookups satisfied by the one-entry memo (a subset of hits).
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits
    }

    /// Stale re-inserts of a just-evicted victim that were rejected.
    pub fn stale_rejects(&self) -> u64 {
        self.stale_rejects
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl Drop for OwnerCache {
    fn drop(&mut self) {
        if self.memo_pending > 0 {
            netsim::telemetry::record_translation(0, 0, self.memo_pending);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hint(owner: u32, generation: u32) -> OwnerHint {
        OwnerHint { owner, generation }
    }

    #[test]
    fn miss_then_hit() {
        let mut c = OwnerCache::new(8);
        assert_eq!(c.lookup(1), None);
        c.update(1, hint(3, 1));
        assert_eq!(c.lookup(1), Some(hint(3, 1)));
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn newer_generation_wins() {
        let mut c = OwnerCache::new(8);
        c.update(1, hint(3, 5));
        c.update(1, hint(4, 2)); // stale: ignored
        assert_eq!(c.lookup(1).unwrap().owner, 3);
        c.update(1, hint(7, 6));
        assert_eq!(c.lookup(1).unwrap().owner, 7);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = OwnerCache::new(8);
        c.update(1, hint(3, 1));
        c.invalidate(1);
        assert_eq!(c.lookup(1), None);
        assert!(c.is_empty());
    }

    #[test]
    fn capacity_bounds_entries() {
        let mut c = OwnerCache::new(2);
        for k in 0..5u64 {
            c.update(k, hint(k as u32, 1));
        }
        assert_eq!(c.len(), 2);
        assert!(c.lookup(0).is_none());
        assert!(c.lookup(4).is_some());
    }

    #[test]
    fn memo_accelerates_repeat_lookups() {
        let mut c = OwnerCache::new(8);
        c.update(9, hint(2, 1));
        assert_eq!(c.lookup(9), Some(hint(2, 1)));
        assert_eq!(c.memo_hits(), 0, "first lookup primes, not hits, the memo");
        for _ in 0..5 {
            assert_eq!(c.lookup(9), Some(hint(2, 1)));
        }
        assert_eq!(c.memo_hits(), 5);
        // Updates are visible through the memo path (in-place slot write).
        c.update(9, hint(4, 3));
        assert_eq!(c.lookup(9), Some(hint(4, 3)));
    }

    #[test]
    fn memo_never_serves_a_removed_entry() {
        let mut c = OwnerCache::new(8);
        c.update(9, hint(2, 1));
        c.lookup(9);
        c.lookup(9); // memo primed and hitting
        c.invalidate(9);
        assert_eq!(c.lookup(9), None);
        // Another key landing anywhere cannot satisfy the stale memo.
        c.update(10, hint(5, 1));
        assert_eq!(c.lookup(9), None);
    }

    #[test]
    fn generation_monotone_across_eviction() {
        // Fill a tiny cache, learn key 0 at generation 5, evict it, then
        // race a stale generation-2 hint back in: the cache must never
        // step an observed generation backwards.
        let mut c = OwnerCache::new(2);
        c.update(0, hint(3, 5));
        c.update(1, hint(1, 1));
        c.update(2, hint(2, 1)); // evicts key 0 (LRU) at generation 5
        assert!(c.lookup(0).is_none());
        c.update(0, hint(9, 2)); // stale racing hint: must be dropped
        let seen = c.lookup(0);
        assert!(
            seen.is_none_or(|h| h.generation >= 5),
            "stale hint resurrected generation {:?} after evicting gen 5",
            seen
        );
        assert_eq!(c.stale_rejects(), 1);
        // A genuinely newer hint is accepted as usual.
        c.update(0, hint(9, 6));
        assert_eq!(c.lookup(0).unwrap().generation, 6);
    }
}
