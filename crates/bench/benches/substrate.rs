//! Criterion microbenches of the simulation substrate itself (engine,
//! PRNG, memory arena) — the components every experiment's wall-clock
//! cost is built from.

use criterion::{criterion_group, criterion_main, Criterion};
use netsim::engine::Engine;
use netsim::memory::Memory;
use netsim::rng::{mix64, Xoshiro256, Zipf};
use netsim::time::Time;
use std::hint::black_box;

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.bench_function("schedule_run_10k", |b| {
        b.iter(|| {
            let mut eng = Engine::new(0u64, 1);
            for i in 0..10_000u64 {
                eng.schedule(Time::from_ps(mix64(i) % 1_000_000), move |e| {
                    e.state = e.state.wrapping_add(i);
                });
            }
            eng.run();
            black_box(eng.state)
        });
    });
    g.bench_function("event_chain_10k", |b| {
        b.iter(|| {
            let mut eng = Engine::new(0u64, 1);
            fn tick(e: &mut Engine<u64>) {
                e.state += 1;
                if e.state < 10_000 {
                    e.schedule(Time::from_ns(1), tick);
                }
            }
            eng.schedule(Time::ZERO, tick);
            eng.run();
            black_box(eng.state)
        });
    });
    g.finish();
}

fn bench_rng(c: &mut Criterion) {
    let mut g = c.benchmark_group("rng");
    g.bench_function("xoshiro_1m", |b| {
        b.iter(|| {
            let mut rng = Xoshiro256::seed_from_u64(9);
            let mut acc = 0u64;
            for _ in 0..1_000_000 {
                acc = acc.wrapping_add(rng.next_u64());
            }
            black_box(acc)
        });
    });
    g.bench_function("zipf_sample_100k", |b| {
        let z = Zipf::new(10_000, 0.99);
        b.iter(|| {
            let mut rng = Xoshiro256::seed_from_u64(11);
            let mut acc = 0usize;
            for _ in 0..100_000 {
                acc = acc.wrapping_add(z.sample(&mut rng));
            }
            black_box(acc)
        });
    });
    g.finish();
}

fn bench_memory(c: &mut Criterion) {
    let mut g = c.benchmark_group("memory");
    g.bench_function("alloc_free_cycle", |b| {
        b.iter(|| {
            let mut m = Memory::new(1 << 26);
            let mut addrs = Vec::with_capacity(1024);
            for _ in 0..1024 {
                addrs.push(m.alloc_block(12).unwrap());
            }
            for a in addrs {
                m.free_block(a, 12);
            }
            black_box(m.footprint())
        });
    });
    g.finish();
}

criterion_group!(substrate, bench_engine, bench_rng, bench_memory);
criterion_main!(substrate);
