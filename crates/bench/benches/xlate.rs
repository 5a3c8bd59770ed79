//! Microbench for the translation fast path: the shipped
//! [`netsim::nic::XlateTable`] / [`netsim::flatmap::FlatTable`] — one
//! seeded-multiply probe sequence over inline slots, hit counter included.
//!
//! The row ids keep their `new/` prefix so they line up with
//! `BENCH_translation.json`, whose `old/*` rows were measured against a
//! replica of the pre-flatmap three-map table (slab LRU + two `HashMap`s)
//! that lived here until the slab LRU it was built on was deleted.

use criterion::{criterion_group, criterion_main, Criterion};
use netsim::flatmap::FlatTable;
use netsim::nic::{Xlate, XlateEntry, XlateTable};
use netsim::rng::mix64;
use std::hint::black_box;

const CAP: usize = 4096;
const WORKING_SET: u64 = 256; // dependent-access-sized hot set: every lookup hits
const LOOKUPS: u64 = 65_536;

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
    // balancer's periodic telemetry drain (which clears parked counters —
    // without it the hit-counter state is not bounded).
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

    // The raw flat table under a BTT-shaped load (plain inserts,
    // get-heavy, no LRU traffic).
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
