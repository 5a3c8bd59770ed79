//! A/B microbench for the translation fast path.
//!
//! `old/*` reconstructs the pre-flatmap implementation faithfully: an
//! `LruMap<u64, XlateEntry>` of live entries with a side `HashMap` of hit
//! counters and a second `HashMap` of forwarding tombstones — every hot
//! hit paid one SipHash bucket walk, one slab LRU touch, and one more
//! SipHash walk for the counter. `new/*` is the shipped
//! [`netsim::nic::XlateTable`] / [`netsim::flatmap::FlatTable`]: one
//! seeded-multiply probe sequence over inline slots, counter included.
//!
//! The acceptance criterion for the flatmap PR is `new/hot_hit` at least
//! 2x faster than `old/hot_hit`.

use criterion::{criterion_group, criterion_main, Criterion};
use netsim::flatmap::FlatTable;
use netsim::lru::LruMap;
use netsim::nic::{Xlate, XlateEntry, XlateTable};
use netsim::rng::mix64;
use std::collections::HashMap;
use std::hint::black_box;

const CAP: usize = 4096;
const WORKING_SET: u64 = 256; // dependent-access-sized hot set: every lookup hits
const LOOKUPS: u64 = 65_536;

/// Faithful replica of the old three-map NIC table (hot paths only).
struct OldXlate {
    live: LruMap<u64, XlateEntry>,
    forwards: HashMap<u64, u32>,
    hits: HashMap<u64, u64>,
}

impl OldXlate {
    fn new() -> OldXlate {
        OldXlate {
            live: LruMap::new(CAP),
            forwards: HashMap::new(),
            hits: HashMap::new(),
        }
    }

    #[inline]
    fn lookup(&mut self, k: u64) -> Xlate {
        if let Some(e) = self.live.get(&k) {
            let e = *e;
            *self.hits.entry(k).or_insert(0) += 1;
            return Xlate::Hit(e);
        }
        if let Some(&next) = self.forwards.get(&k) {
            return Xlate::Forward { next, retired: 0 };
        }
        Xlate::Miss
    }

    fn install(&mut self, k: u64, e: XlateEntry) {
        self.forwards.remove(&k);
        self.live.insert(k, e);
    }

    fn take_hit_telemetry(&mut self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = self.hits.drain().collect();
        out.sort_unstable();
        out
    }
}

fn entry(k: u64) -> XlateEntry {
    XlateEntry {
        base: k * 64,
        len: 64,
        generation: 1,
    }
}

fn bench_hot_hit(c: &mut Criterion) {
    let mut g = c.benchmark_group("xlate");
    // Pre-mixed key stream: the loops below measure the tables, not the
    // PRNG.
    let keys: Vec<u64> = (0..LOOKUPS).map(|i| mix64(i) % WORKING_SET).collect();

    // Hot hits: the case the paper's NIC table exists for.
    g.bench_function("old/hot_hit", |b| {
        let mut t = OldXlate::new();
        for k in 0..WORKING_SET {
            t.install(k, entry(k));
        }
        b.iter(|| {
            let mut sum = 0u64;
            for &k in &keys {
                if let Xlate::Hit(e) = t.lookup(black_box(k)) {
                    sum = sum.wrapping_add(e.base);
                }
            }
            black_box(sum)
        });
    });
    g.bench_function("new/hot_hit", |b| {
        let mut t = XlateTable::new(CAP);
        for k in 0..WORKING_SET {
            t.install(k, entry(k));
        }
        b.iter(|| {
            let mut sum = 0u64;
            for &k in &keys {
                if let Xlate::Hit(e) = t.lookup(black_box(k)) {
                    sum = sum.wrapping_add(e.base);
                }
            }
            black_box(sum)
        });
    });

    // Capacity churn: misses + installs + evictions mixed in, with the
    // balancer's periodic telemetry drain (which clears parked counters in
    // both implementations — without it neither side's hit-counter state
    // is bounded).
    g.bench_function("old/churn", |b| {
        b.iter(|| {
            let mut t = OldXlate::new();
            let mut hits = 0u64;
            for i in 0..LOOKUPS {
                let k = mix64(i) % (CAP as u64 * 4);
                match t.lookup(k) {
                    Xlate::Hit(_) => hits += 1,
                    _ => t.install(k, entry(k)),
                }
                if i % 8192 == 8191 {
                    black_box(t.take_hit_telemetry());
                }
            }
            black_box(hits)
        });
    });
    g.bench_function("new/churn", |b| {
        b.iter(|| {
            let mut t = XlateTable::new(CAP);
            let mut hits = 0u64;
            for i in 0..LOOKUPS {
                let k = mix64(i) % (CAP as u64 * 4);
                match t.lookup(k) {
                    Xlate::Hit(_) => hits += 1,
                    _ => {
                        t.install(k, entry(k));
                    }
                }
                if i % 8192 == 8191 {
                    black_box(t.take_hit_telemetry());
                }
            }
            black_box(hits)
        });
    });

    // The raw flat table vs the old pair-of-maps for a BTT-shaped load
    // (plain inserts, get-heavy, no LRU traffic).
    g.bench_function("old/btt_get", |b| {
        let mut m: HashMap<u64, XlateEntry> = HashMap::new();
        for k in 0..WORKING_SET {
            m.insert(k, entry(k));
        }
        b.iter(|| {
            let mut sum = 0u64;
            for &k in &keys {
                if let Some(e) = m.get(&black_box(k)) {
                    sum = sum.wrapping_add(e.base);
                }
            }
            black_box(sum)
        });
    });
    g.bench_function("new/btt_get", |b| {
        let mut m: FlatTable<XlateEntry> = FlatTable::with_seed(0xb77_5eed);
        for k in 0..WORKING_SET {
            m.insert(k, entry(k));
        }
        b.iter(|| {
            let mut sum = 0u64;
            for &k in &keys {
                if let Some(e) = m.get(black_box(k)) {
                    sum = sum.wrapping_add(e.base);
                }
            }
            black_box(sum)
        });
    });

    g.finish();
}

criterion_group!(benches, bench_hot_hit);
criterion_main!(benches);
