//! Shadow-model equivalence suites for the flat translation table.
//!
//! Three oracles:
//! * plain map mode vs `std::collections::HashMap`;
//! * LRU mode (`insert_lru` / touching `lookup`) vs [`ModelLru`], the
//!   contract of the slab LRU map it replaced written as a plain `Vec`;
//! * the full [`netsim::nic::XlateTable`] vs a naive shadow built from the
//!   *old* implementation's three maps (live LRU + forward map + hit map).
//!
//! Plus deterministic churn pinned at `2^k - 1` and `2^k` occupancies, the
//! boundaries where Robin-Hood growth and wraparound bugs live.

use netsim::flatmap::{FlatTable, LruInsert};
use netsim::nic::{Xlate, XlateEntry, XlateTable};
use proptest::prelude::*;
use std::collections::HashMap;

// ----------------------------------------------------- plain-map oracle

proptest! {
    /// Unlisted mode (BTT/directory usage): insert / get / remove behave
    /// exactly like a `HashMap`, under arbitrary interleavings.
    #[test]
    fn plain_mode_matches_hashmap(
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u8..4, 0u64..48, 0u64..1000), 0..600),
    ) {
        let mut flat: FlatTable<u64> = FlatTable::with_seed(seed);
        let mut shadow: HashMap<u64, u64> = HashMap::new();
        for (op, k, v) in ops {
            match op {
                0 => prop_assert_eq!(flat.insert(k, v), shadow.insert(k, v)),
                1 => prop_assert_eq!(flat.get(k).copied(), shadow.get(&k).copied()),
                2 => prop_assert_eq!(flat.remove(k), shadow.remove(&k)),
                _ => {
                    if let Some(m) = flat.get_mut(k) { *m = m.wrapping_add(1); }
                    if let Some(m) = shadow.get_mut(&k) { *m = m.wrapping_add(1); }
                }
            }
            prop_assert_eq!(flat.len(), shadow.len());
        }
        let mut got: Vec<(u64, u64)> = flat.iter().map(|(k, v, _)| (k, *v)).collect();
        let mut want: Vec<(u64, u64)> = shadow.into_iter().collect();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }
}

// ----------------------------------------------------------- LRU oracle

/// A capacity-bounded LRU map in its plainest form: a `Vec` kept
/// most-recently-used first. Zero capacity hands an insert straight back,
/// a replacement refreshes recency, a full map evicts its last entry.
struct ModelLru {
    cap: usize,
    items: Vec<(u64, u64)>,
}

impl ModelLru {
    fn new(cap: usize) -> ModelLru {
        ModelLru {
            cap,
            items: Vec::new(),
        }
    }

    fn take(&mut self, k: u64) -> Option<u64> {
        let pos = self.items.iter().position(|&(ik, _)| ik == k)?;
        Some(self.items.remove(pos).1)
    }

    fn insert(&mut self, k: u64, v: u64) -> Option<(u64, u64)> {
        if self.cap == 0 {
            return Some((k, v));
        }
        self.take(k);
        self.items.insert(0, (k, v));
        (self.items.len() > self.cap).then(|| self.items.pop().expect("over capacity"))
    }

    fn get(&mut self, k: u64) -> Option<u64> {
        let v = self.take(k)?;
        self.items.insert(0, (k, v));
        Some(v)
    }
}

proptest! {
    /// LRU mode matches the slab LRU map it replaced: same eviction
    /// victims, same touch ordering, same final MRU-first iteration.
    #[test]
    fn lru_mode_matches_lrumap(
        seed in any::<u64>(),
        cap in 1usize..12,
        ops in proptest::collection::vec((0u8..3, 0u64..24, 0u64..1000), 0..500),
    ) {
        let mut flat: FlatTable<u64> = FlatTable::with_seed(seed);
        let mut oracle = ModelLru::new(cap);
        for (op, k, v) in ops {
            match op {
                0 => {
                    let got = match flat.insert_lru(k, v, cap) {
                        LruInsert::Evicted(ek, ev) => Some((ek, ev)),
                        _ => None,
                    };
                    prop_assert_eq!(got, oracle.insert(k, v));
                }
                1 => prop_assert_eq!(flat.lookup(k).map(|m| *m), oracle.get(k)),
                _ => prop_assert_eq!(flat.remove(k), oracle.take(k)),
            }
            prop_assert_eq!(flat.len(), oracle.items.len());
        }
        let got: Vec<(u64, u64)> = flat.iter_lru().map(|(k, v)| (k, *v)).collect();
        prop_assert_eq!(got, oracle.items);
    }
}

// ------------------------------------------------- power-of-two boundaries

/// Drive occupancy to exactly `2^k - 1` and `2^k` for each k, with full
/// verification at both plateaus, then churn back down. The growth
/// trigger, mask wraparound, and backward-shift deletion all change
/// behavior exactly at these sizes.
#[test]
fn churn_at_power_of_two_occupancies() {
    for seed in [1u64, 0x9e37_79b9, u64::MAX] {
        let mut flat: FlatTable<u64> = FlatTable::with_seed(seed);
        let mut shadow: HashMap<u64, u64> = HashMap::new();
        // Non-contiguous keys so home slots scatter and collide.
        let key = |i: u64| i.wrapping_mul(0x5851_f42d_4c95_7f2d) ^ seed;
        let mut next = 0u64;
        for k in 1..=9u32 {
            for target in [(1u64 << k) - 1, 1u64 << k] {
                while (shadow.len() as u64) < target {
                    let kk = key(next);
                    next += 1;
                    assert_eq!(flat.insert(kk, next), shadow.insert(kk, next));
                }
                assert_eq!(flat.len() as u64, target);
                for i in 0..next {
                    let kk = key(i);
                    assert_eq!(flat.get(kk).copied(), shadow.get(&kk).copied());
                }
                assert!(flat.get(!key(0)).is_none());
            }
        }
        // Churn back down through the same boundaries (no shrink: deletion
        // paths get exercised at every occupancy on the way).
        for i in 0..next {
            let kk = key(i);
            assert_eq!(flat.remove(kk), shadow.remove(&kk));
            if shadow.len().is_power_of_two() {
                for j in 0..next {
                    let kj = key(j);
                    assert_eq!(flat.get(kj).copied(), shadow.get(&kj).copied());
                }
            }
        }
        assert!(flat.is_empty());
    }
}

/// Same boundary walk in LRU mode, where every insert at capacity also
/// exercises tail eviction + backward shift under a full table.
#[test]
fn lru_churn_at_power_of_two_capacities() {
    for k in 1..=7u32 {
        for cap in [(1usize << k) - 1, 1usize << k] {
            let mut flat: FlatTable<u64> = FlatTable::with_seed(42);
            let mut oracle = ModelLru::new(cap);
            for i in 0..(cap as u64 * 4) {
                let kk = (i * 7) % (cap as u64 * 2); // revisit keys: touches + replaces
                let got = match flat.insert_lru(kk, i, cap) {
                    LruInsert::Evicted(ek, ev) => Some((ek, ev)),
                    _ => None,
                };
                assert_eq!(got, oracle.insert(kk, i), "cap {cap} step {i}");
                if i % 3 == 0 {
                    assert_eq!(
                        flat.lookup(i % cap as u64).map(|m| *m),
                        oracle.get(i % cap as u64)
                    );
                }
            }
            let got: Vec<_> = flat.iter_lru().map(|(kk, v)| (kk, *v)).collect();
            assert_eq!(got, oracle.items, "cap {cap}");
        }
    }
}

// ------------------------------------------------------ XlateTable oracle

/// The old `XlateTable` in miniature: a bounded MRU-first `Vec` of live
/// entries, a forward map (next hop and the generation the tombstone was
/// retired at), and a hit-counter map that outlives eviction (the drain is
/// compared sorted, as the real table now guarantees).
struct ShadowXlate {
    capacity: usize,
    live: Vec<(u64, XlateEntry)>, // MRU-first
    forwards: HashMap<u64, (u32, u32)>,
    hits: HashMap<u64, u64>,
}

impl ShadowXlate {
    fn new(capacity: usize) -> ShadowXlate {
        ShadowXlate {
            capacity,
            live: Vec::new(),
            forwards: HashMap::new(),
            hits: HashMap::new(),
        }
    }

    fn lookup(&mut self, k: u64) -> Xlate {
        if let Some(pos) = self.live.iter().position(|&(lk, _)| lk == k) {
            let e = self.live.remove(pos);
            self.live.insert(0, e);
            *self.hits.entry(k).or_insert(0) += 1;
            return Xlate::Hit(e.1);
        }
        if let Some(&(next, retired)) = self.forwards.get(&k) {
            return Xlate::Forward { next, retired };
        }
        Xlate::Miss
    }

    fn install(&mut self, k: u64, e: XlateEntry) -> bool {
        self.forwards.remove(&k);
        if self.capacity == 0 {
            return true;
        }
        if let Some(pos) = self.live.iter().position(|&(lk, _)| lk == k) {
            self.live.remove(pos);
            self.live.insert(0, (k, e));
            return false;
        }
        self.live.insert(0, (k, e));
        if self.live.len() > self.capacity {
            self.live.pop(); // hits entry survives (orphaned), as before
            return true;
        }
        false
    }

    fn retire_to_forward(&mut self, k: u64, hop: u32, generation: u32) {
        self.live.retain(|&(lk, _)| lk != k);
        self.forwards.insert(k, (hop, generation));
    }

    fn invalidate(&mut self, k: u64) -> u64 {
        self.live.retain(|&(lk, _)| lk != k);
        self.forwards.remove(&k);
        self.hits.remove(&k).unwrap_or(0)
    }

    fn expire_forward(&mut self, k: u64) -> bool {
        self.forwards.remove(&k).is_some()
    }

    fn take(&mut self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = self.hits.drain().filter(|&(_, n)| n > 0).collect();
        out.sort_unstable();
        out
    }

    fn flush_live(&mut self) {
        self.live.clear();
        self.hits.clear();
    }
}

fn xe(base: u64, generation: u32) -> XlateEntry {
    XlateEntry {
        base,
        len: 64,
        generation,
    }
}

proptest! {
    /// The rewritten NIC table is observationally identical to the old
    /// three-map implementation under arbitrary op interleavings, at
    /// capacities spanning "always evicting" to "never evicting".
    #[test]
    fn xlate_table_matches_shadow(
        cap in 0usize..10,
        ops in proptest::collection::vec((0u8..7, 0u64..16, 0u64..8), 0..500),
    ) {
        let mut real = XlateTable::new(cap);
        let mut shadow = ShadowXlate::new(cap);
        for (i, (op, k, aux)) in ops.into_iter().enumerate() {
            match op {
                0 => prop_assert_eq!(real.lookup(k), shadow.lookup(k), "lookup {} at step {}", k, i),
                1 => {
                    let e = xe(k * 64, aux as u32 + 1);
                    prop_assert_eq!(real.install(k, e), shadow.install(k, e), "install {} at step {}", k, i);
                }
                2 => {
                    // The kept generation varies independently of the hop.
                    let generation = (k as u32 * 3 + i as u32) % 5;
                    real.retire_to_forward(k, aux as u32, generation);
                    shadow.retire_to_forward(k, aux as u32, generation);
                }
                3 => prop_assert_eq!(real.invalidate(k), shadow.invalidate(k), "invalidate {} at step {}", k, i),
                4 => prop_assert_eq!(real.expire_forward(k), shadow.expire_forward(k), "expire {} at step {}", k, i),
                5 => prop_assert_eq!(real.take_hit_telemetry(), shadow.take(), "take at step {}", i),
                _ => {
                    real.flush_live();
                    shadow.flush_live();
                }
            }
            prop_assert_eq!(real.live_entries(), shadow.live.len());
            prop_assert_eq!(real.forward_entries(), shadow.forwards.len());
        }
        // Final state agrees for every key ever touched.
        for k in 0..16u64 {
            prop_assert_eq!(real.peek(k).copied(), shadow.live.iter().find(|&&(lk, _)| lk == k).map(|&(_, e)| e));
        }
        prop_assert_eq!(real.take_hit_telemetry(), shadow.take());
    }
}
