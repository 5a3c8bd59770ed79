//! Shadow-model equivalence: the two-level [`TimeWheel`] must pop exactly
//! what a single `BinaryHeap` would, for *any* schedule — that is what
//! makes an execution a function of its `(time, key)` pairs alone.
//!
//! Two models are checked:
//!
//! * the raw queue against a `BinaryHeap<Reverse<(time, key)>>`, under
//!   arbitrary interleavings of pops and pushes into every level — the
//!   active quantum (zero-delay ties), level 0, level 1 and the overflow
//!   heap past level 1's horizon — plus bursts of a few hundred pushes at
//!   once, the way a driver issues its set-up requests. Keys are
//!   arbitrary, so a push at the instant being drained lands below the
//!   last popped key as often as above it, the way an engine key that
//!   names its origin first does;
//! * the raw queue against the same heap under a closed loop's waves: dense
//!   bursts into one quantum at a time, marching forward across more than
//!   two laps of level 0 with pops interleaved, so buckets empty, give
//!   their storage back and refill in other slots;
//! * a full [`Engine`] run against an abstract replay of the same schedule
//!   on a reference heap, comparing executed-event counts and the
//!   [`event_mix`] sum — including events that re-schedule themselves at
//!   the *same instant* (zero delay) and across the level-0 horizon.
//!
//! Each runs `PROPTEST_CASES` cases (64 by default).

use netsim::engine::{event_mix, trace_mix};
use netsim::{Engine, Time, TimeWheel};
use proptest::collection::vec;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(Clone, Debug)]
enum Op {
    /// Push at `now + delay_ps`, where `now` is the last popped time, with
    /// this value above the push's index as its key (the index alone keeps
    /// keys unique).
    Push(u64, u64),
    /// `count` pushes at once, spread over `now .. now + span_ps`, with
    /// the given key prefix.
    Burst {
        count: u64,
        span_ps: u64,
        prefix: u64,
    },
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Few distinct key prefixes, so same-instant entries collide on them
    // and the index decides, as an origin's counter does.
    let key = 0u64..8;
    prop_oneof![
        // Within level 0's horizon (grain 8.2 ns × 1024 slots ≈ 8.4 µs).
        4 => (0u64..6_000_000, key.clone()).prop_map(|(d, k)| Op::Push(d, k)),
        // Beyond level 0: level 1 (buckets of ≈ 4.2 µs, horizon ≈ 4.3 ms)
        // and its cascade.
        1 => (6_000_000u64..60_000_000, key.clone()).prop_map(|(d, k)| Op::Push(d, k)),
        // Beyond level 1: the overflow heap and its merge.
        1 => (4_400_000_000u64..20_000_000_000, key.clone()).prop_map(|(d, k)| Op::Push(d, k)),
        // Same-instant ties: the key must break them, from either side of
        // the one just popped.
        3 => key.clone().prop_map(|k| Op::Push(0, k)),
        // A set-up burst: hundreds of requests over tens of µs.
        1 => (100u64..400, 10_000_000u64..80_000_000, key).prop_map(|(count, span_ps, prefix)| {
            Op::Burst { count, span_ps, prefix }
        }),
        4 => Just(Op::Pop),
    ]
}

/// A wheel and its reference heap, fed the same pushes and checked on
/// every pop.
struct Shadowed {
    wheel: TimeWheel<()>,
    shadow: BinaryHeap<Reverse<(u64, u64)>>,
    /// Pushes so far: the low half of each key, which keeps keys unique.
    pushed: u64,
    /// The last popped time.
    now: u64,
    wheel_hash: u64,
    shadow_hash: u64,
}

impl Shadowed {
    fn new() -> Shadowed {
        Shadowed {
            wheel: TimeWheel::new(),
            shadow: BinaryHeap::new(),
            pushed: 0,
            now: 0,
            wheel_hash: 0x1234_5678_9abc_def0,
            shadow_hash: 0x1234_5678_9abc_def0,
        }
    }

    /// Push at `at` with `prefix` above the push's index as the key.
    fn push(&mut self, at: u64, prefix: u64) {
        let key = prefix << 32 | self.pushed;
        self.pushed += 1;
        self.wheel.push(Time::from_ps(at), key, ());
        self.shadow.push(Reverse((at, key)));
    }

    fn pop(&mut self) {
        let got = self.wheel.pop().map(|(t, s, ())| (t.ps(), s));
        let want = self.shadow.pop().map(|Reverse(pair)| pair);
        prop_assert_eq!(got, want);
        if let Some((t, s)) = got {
            self.now = t;
            self.wheel_hash = trace_mix(trace_mix(self.wheel_hash, t), s);
        }
        if let Some((t, s)) = want {
            self.shadow_hash = trace_mix(trace_mix(self.shadow_hash, t), s);
        }
    }

    /// Pop until both are empty; every remaining entry must agree too.
    fn drain(mut self) {
        while !self.wheel.is_empty() || !self.shadow.is_empty() {
            self.pop();
        }
        prop_assert_eq!(self.wheel_hash, self.shadow_hash);
    }
}

proptest! {
    #[test]
    fn wheel_pops_in_heap_order(ops in vec(op_strategy(), 1..200)) {
        let mut q = Shadowed::new();
        for op in ops {
            match op {
                Op::Push(delay, prefix) => {
                    prop_assert_eq!(q.wheel.next_time().is_none(), q.shadow.is_empty());
                    q.push(q.now + delay, prefix);
                }
                Op::Burst { count, span_ps, prefix } => {
                    for i in 0..count {
                        let delay = trace_mix(q.now ^ i, span_ps) % span_ps;
                        q.push(q.now + delay, prefix);
                    }
                }
                Op::Pop => q.pop(),
            }
        }
        q.drain();
    }
}

/// The wheel's grain: one level-0 quantum, 2^13 ps.
const QUANTUM_PS: u64 = 1 << 13;

/// Level-0 slots in one lap of the wheel.
const LAP: u64 = 1024;

/// One wave of a closed loop: `count` pushes into the quantum `step`
/// quanta after the previous wave's, at offsets below `spread_ps` into
/// it, then `pops` pops.
#[derive(Clone, Debug)]
struct Wave {
    step: u64,
    count: u64,
    spread_ps: u64,
    prefix: u64,
    pops: u64,
}

fn wave_strategy() -> impl Strategy<Value = Wave> {
    (2u64..6, 1u64..160, 1u64..=QUANTUM_PS, 0u64..8, 0u64..200).prop_map(
        |(step, count, spread_ps, prefix, pops)| Wave {
            step,
            count,
            spread_ps,
            prefix,
            pops,
        },
    )
}

proptest! {
    /// Dense same-quantum bursts whose quanta march forward across more
    /// than two laps of level 0, with pops interleaved: buckets fill,
    /// drain, hand their storage back and refill in another slot, and a
    /// backlog that outlives a lap spills into level 1.
    #[test]
    fn marching_bursts_pop_in_heap_order(waves in vec(wave_strategy(), 1100..1200)) {
        let mut q = Shadowed::new();
        let mut quantum = 0;
        for w in waves {
            quantum += w.step;
            for i in 0..w.count {
                let offset = trace_mix(quantum ^ i, w.spread_ps) % w.spread_ps;
                q.push(quantum * QUANTUM_PS + offset, w.prefix);
            }
            for _ in 0..w.pops {
                q.pop();
            }
        }
        prop_assert!(quantum >= 2 * LAP, "the waves crossed {quantum} quanta");
        q.drain();
    }
}

/// Reschedule step for a chain event: a pure function of the remaining
/// chain length so the engine closures and the abstract model agree.
/// Covers a same-instant (zero-delay) reschedule, an in-horizon hop, and a
/// horizon-crossing hop.
fn step_of(chain: u8) -> u64 {
    match chain % 3 {
        0 => 0,
        1 => 977_000,
        _ => 12_345_678,
    }
}

/// Localities the chains hop between.
const LOCS: u32 = 4;

/// The key layout of `netsim::engine`: origin above bit 50, the origin's
/// schedule count above bit 14, the destination below; a locality `l` is
/// stored as `l + 1`, the driver as 0.
fn model_key(origin: u64, count: u64, dest: u64) -> u64 {
    origin << 50 | count << 14 | dest
}

/// Where a chain event on `loc` sends its successor.
fn hop(loc: u32, chain: u8) -> u32 {
    (loc + u32::from(chain)) % LOCS
}

fn run_chain(e: &mut Engine<u64>, chain: u8, loc: u32) {
    e.state += 1;
    if chain > 0 {
        let (at, next) = (e.now() + Time::from_ps(step_of(chain)), hop(loc, chain));
        e.schedule_at_loc(at, next, move |e| run_chain(e, chain - 1, next));
    }
}

proptest! {
    /// A full engine run hashes identically to a reference replay of the
    /// same schedule on a plain `BinaryHeap` — key-for-key, tick-for-tick.
    /// The chains hop between localities, so keys carry every origin, and a
    /// zero-delay hop onto a lower-numbered locality schedules below the
    /// key being executed.
    #[test]
    fn engine_trace_matches_heap_replay(
        entries in vec((0u64..20_000_000u64, 0u8..6u8, 0u32..LOCS), 1..40),
    ) {
        // Real engine: each entry seeds a self-rescheduling chain.
        let mut eng = Engine::new(0u64, 7);
        let mut model_hash = eng.trace_hash();
        for &(delay, chain, loc) in &entries {
            eng.schedule_at_loc(Time::from_ps(delay), loc, move |e| run_chain(e, chain, loc));
        }
        let executed = eng.run();

        // Reference model: a max-heap over Reverse<(time, key)> replaying
        // the exact scheduling logic in the abstract, one schedule counter
        // per origin.
        let mut heap: BinaryHeap<Reverse<(u64, u64, u8, u32)>> = BinaryHeap::new();
        let mut counts = [0u64; LOCS as usize + 1];
        let mut next_key = |origin: u64, dest: u32| {
            let count = &mut counts[origin as usize];
            *count += 1;
            model_key(origin, *count - 1, u64::from(dest) + 1)
        };
        for &(delay, chain, loc) in &entries {
            heap.push(Reverse((delay, next_key(0, loc), chain, loc)));
        }
        let mut model_count = 0u64;
        while let Some(Reverse((t, key, chain, loc))) = heap.pop() {
            model_hash = model_hash.wrapping_add(event_mix(Time::from_ps(t), key));
            model_count += 1;
            if chain > 0 {
                let next = hop(loc, chain);
                let key = next_key(u64::from(loc) + 1, next);
                heap.push(Reverse((t + step_of(chain), key, chain - 1, next)));
            }
        }

        prop_assert_eq!(executed, model_count);
        prop_assert_eq!(eng.state, model_count);
        prop_assert_eq!(eng.trace_hash(), model_hash);
    }
}
