//! Single-layer microbenchmarks, each repeated for a fixed wall time.
//!
//! The two engine rows are `repro perf`'s `dispatch_random` and
//! `event_chain`, lengthened from milliseconds to ≥1 s; the two
//! translation rows are `benches/xlate.rs`'s `new/hot_hit` and
//! `new/churn`; the barrier row is ROADMAP item 2's break-even number.

use agas::{GasMode, SimWorld};
use netsim::nic::{Xlate, XlateEntry, XlateTable};
use netsim::rng::mix64;
use netsim::{Engine, NetConfig, ShardedEngine, Time};
use std::hint::black_box;
use std::time::Instant;

/// Median ns per unit over repetitions of `body` (which returns how many
/// units it did) lasting `secs` in total.
fn ns_per_unit(secs: f64, mut body: impl FnMut() -> u64) -> f64 {
    let t0 = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || t0.elapsed().as_secs_f64() < secs {
        let t = Instant::now();
        let units = body();
        samples.push(t.elapsed().as_secs_f64() * 1e9 / units as f64);
    }
    samples.sort_by(f64::total_cmp);
    crate::report::median_sorted(&samples)
}

/// Random-delay schedule + dispatch: the queue holds ~10 k events.
pub fn dispatch_ns(secs: f64) -> f64 {
    let mut rep = 0u64;
    ns_per_unit(secs, || {
        rep += 1;
        let mut eng = Engine::new(0u64, rep);
        for i in 0..10_000u64 {
            let d = mix64(rep * 10_000 + i) % 1_000_000;
            eng.schedule(Time::from_ps(d), move |e| e.state = e.state.wrapping_add(i));
        }
        eng.run();
        black_box(eng.state);
        10_000
    })
}

/// Self-rescheduling chain: the queue stays near-empty, so this is the
/// per-event fixed cost.
pub fn chain_ns(secs: f64) -> f64 {
    const EVENTS: u64 = 400_000;
    fn tick(e: &mut Engine<u64>) {
        e.state += 1;
        if e.state < EVENTS {
            e.schedule(Time::from_ns(1), tick);
        }
    }
    ns_per_unit(secs, || {
        let mut eng = Engine::new(0u64, 1);
        eng.schedule(Time::ZERO, tick);
        eng.run();
        black_box(eng.state);
        EVENTS
    })
}

const XLATE_CAP: usize = 4096;
const XLATE_LOOKUPS: u64 = 65_536;

fn entry(k: u64) -> XlateEntry {
    XlateEntry {
        base: k * 64,
        len: 64,
        generation: 1,
    }
}

/// NIC translation-table hit: 256 hot entries, every lookup hits.
pub fn xlate_hit_ns(secs: f64) -> f64 {
    const WORKING_SET: u64 = 256;
    let keys: Vec<u64> = (0..XLATE_LOOKUPS).map(|i| mix64(i) % WORKING_SET).collect();
    let mut t = XlateTable::new(XLATE_CAP);
    for k in 0..WORKING_SET {
        t.install(k, entry(k));
    }
    ns_per_unit(secs, || {
        let mut sum = 0u64;
        for &k in &keys {
            if let Xlate::Hit(e) = t.lookup(black_box(k)) {
                sum = sum.wrapping_add(e.base);
            }
        }
        black_box(sum);
        XLATE_LOOKUPS
    })
}

/// Capacity churn: a working set 4× the table, so misses, installs and
/// evictions mix in, with the balancer's periodic telemetry drain.
pub fn xlate_churn_ns(secs: f64) -> f64 {
    ns_per_unit(secs, || {
        let mut t = XlateTable::new(XLATE_CAP);
        let mut hits = 0u64;
        for i in 0..XLATE_LOOKUPS {
            let k = mix64(i) % (XLATE_CAP as u64 * 4);
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
        black_box(hits);
        XLATE_LOOKUPS
    })
}

/// Host ns per synchronization window that carries (almost) no work: a
/// single self-rescheduling event, one lookahead apart, so every window
/// of a 2-lane `ShardedEngine` executes exactly one trivial event and the
/// rest is barrier hand-off.
pub fn barrier_ns_per_window(secs: f64, lanes: usize) -> f64 {
    const WINDOWS: u64 = 4_000;
    fn tick(e: &mut Engine<SimWorld>, left: u64, gap: Time) {
        if left > 0 {
            e.schedule(gap, move |e| tick(e, left - 1, gap));
        }
    }
    ns_per_unit(secs, || {
        let world = SimWorld::new(2 * lanes, GasMode::AgasNetwork, NetConfig::ib_fdr());
        let mut sh = ShardedEngine::new(world, 1, lanes);
        let gap = sh.lookahead();
        sh.drive_at(0, |e| tick(e, WINDOWS, gap));
        sh.run();
        sh.stats().windows.max(1)
    })
}
