//! A distributed lock-free MPSC queue built on NIC-executed active
//! operations — the payoff workload for the AMO subsystem.
//!
//! Producers fetch-add a shared tail to claim slots and masked-put their
//! payloads; the consumer tombstones each slot with a CAS, so the
//! checker's unique-consumption rule proves every element is delivered
//! exactly once and in per-producer FIFO order. Every memory interaction
//! is an AMO, so all of it lands in the word-level history the
//! [`agas::check`] oracle verifies.
//!
//! Where the mode supports migration, the queue block migrates away from
//! the consumer once, half-way through the run, so the responder replay
//! cache travels with the block (`AmoCache::take_for_block` / `absorb`)
//! under live CAS and masked-put traffic.
//!
//! [`run_mpsc`] is self-contained chaos-style: it boots a runtime with the
//! retry/deadline machinery armed, applies a caller-supplied
//! [`FaultPlan`], runs to quiescence, and reports counts + history-checker
//! verdicts.

use agas::check::{check_blocks, check_history, Violation};
use agas::{Distribution, GasConfig, GasMode, Gva};
use netsim::{AmoOp, AmoResult, Engine, FaultPlan, Time};
use parcel_rt::{decode_amo_result, Completion, Runtime, World};
use std::cell::RefCell;
use std::rc::Rc;

/// Issue an AMO from engine context with a decoded-result callback.
fn amo_cb(
    eng: &mut Engine<World>,
    loc: u32,
    gva: Gva,
    amo: AmoOp,
    cb: impl FnOnce(&mut Engine<World>, AmoResult) + 'static,
) {
    let ctx = eng
        .state
        .new_completion(Completion::Driver(Box::new(move |eng, data| {
            cb(eng, decode_amo_result(&data));
        })));
    agas::ops::memamo(eng, loc, gva, amo, ctx);
}

/// Boot a runtime with the lost-message recovery machinery armed (same
/// posture as the chaos driver: deadline sweep + retry + history).
fn boot(n: u32, mode: GasMode, seed: u64, plan: FaultPlan) -> Runtime {
    Runtime::builder(n as usize, mode)
        .seed(seed)
        .faults(plan)
        .gas_config(GasConfig {
            op_deadline: Some(Time::from_us(300)),
            sweep_interval: Time::from_us(30),
            record_history: true,
            ..GasConfig::default()
        })
        .boot()
}

/// History + structural verdict over the structure's blocks.
fn verify(rt: &Runtime, blocks: &[Gva]) -> Vec<Violation> {
    let mut v = check_blocks(&rt.eng.state, blocks);
    v.extend(check_history(&rt.eng.state));
    v
}

// ---------------------------------------------------------------------------
// MPSC queue
// ---------------------------------------------------------------------------

/// MPSC queue configuration.
#[derive(Clone, Debug)]
pub struct MpscConfig {
    /// GAS implementation under test.
    pub mode: GasMode,
    /// Cluster size; locality 0 consumes, 1..n produce.
    pub localities: u32,
    /// Items each producer enqueues.
    pub items_per_producer: u64,
    /// Engine seed.
    pub seed: u64,
    /// Network fault plan.
    pub plan: FaultPlan,
}

impl Default for MpscConfig {
    fn default() -> MpscConfig {
        MpscConfig {
            mode: GasMode::AgasNetwork,
            localities: 4,
            items_per_producer: 40,
            seed: 1,
            plan: FaultPlan::lossless(1),
        }
    }
}

/// MPSC queue run outcome.
#[derive(Clone, Debug)]
pub struct MpscReport {
    /// Elements producers finished publishing.
    pub produced: u64,
    /// Elements the consumer tombstoned and delivered.
    pub consumed: u64,
    /// Consumer CAS attempts that lost (should be 0: single consumer).
    pub consume_conflicts: u64,
    /// Empty-slot polls the consumer burned.
    pub polls: u64,
    /// Migrations of the queue block the run requested: 1 where the mode
    /// supports migration, else 0.
    pub migrations: u64,
    /// Migrations that committed and acknowledged.
    pub migration_acks: u64,
    /// Delivered sequences were FIFO within every producer.
    pub fifo_per_producer: bool,
    /// GAS ops that failed terminally.
    pub op_failures: u64,
    /// History/structural violations (must be empty).
    pub violations: Vec<Violation>,
    /// Determinism witness.
    pub trace_hash: u64,
    /// Simulated end time.
    pub end: Time,
}

impl MpscReport {
    /// Full-delivery, clean-history verdict.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
            && self.consumed == self.produced
            && self.fifo_per_producer
            && self.migration_acks == self.migrations
            && self.op_failures == 0
    }
}

/// Consumed tombstone; distinct from 0 and from every produced value.
const MPSC_TOMB: u64 = u64::MAX;

/// The value producer `p` publishes for its `seq`-th element (nonzero,
/// globally unique).
fn mpsc_value(p: u32, seq: u64) -> u64 {
    (u64::from(p) << 32) | (seq + 1)
}

struct MpscState {
    queue: Gva,
    total: u64,
    next_head: u64,
    consumed: Vec<u64>,
    polls: u64,
    poll_budget: u64,
    conflicts: u64,
    produced: u64,
    /// Consumed count at which the queue block migrates (`None`: never).
    migrate_at: Option<u64>,
    migration_acks: u64,
}

fn mpsc_slot(queue: Gva, idx: u64) -> Gva {
    queue.with_offset(64 + idx * 8)
}

fn mpsc_produce(eng: &mut Engine<World>, st: Rc<RefCell<MpscState>>, p: u32, seq: u64, items: u64) {
    if seq == items {
        return;
    }
    let queue = st.borrow().queue;
    // Claim a slot index on the shared tail, then publish into it.
    amo_cb(
        eng,
        p,
        queue,
        AmoOp::FetchAdd { operand: 1 },
        move |eng, r| {
            let slot = mpsc_slot(queue, r.old);
            let st2 = st.clone();
            amo_cb(
                eng,
                p,
                slot,
                AmoOp::MaskedPut {
                    mask: u64::MAX,
                    value: mpsc_value(p, seq),
                },
                move |eng, _| {
                    st2.borrow_mut().produced += 1;
                    mpsc_produce(eng, st2, p, seq + 1, items);
                },
            );
        },
    );
}

fn mpsc_consume(eng: &mut Engine<World>, st: Rc<RefCell<MpscState>>) {
    let (queue, head, done, over) = {
        let s = st.borrow();
        (
            s.queue,
            s.next_head,
            s.consumed.len() as u64 >= s.total,
            s.polls >= s.poll_budget,
        )
    };
    if done || over {
        return;
    }
    let slot = mpsc_slot(queue, head);
    // Atomic read; a published (nonzero) slot is then claimed by CAS.
    amo_cb(
        eng,
        0,
        slot,
        AmoOp::FetchAdd { operand: 0 },
        move |eng, r| {
            if r.old == 0 || r.old == MPSC_TOMB {
                // Not published yet — an in-flight producer may be a whole
                // deadline-retry window (~300us) away, so back off instead
                // of busy-spinning the budget down.
                st.borrow_mut().polls += 1;
                eng.schedule(Time::from_us(5), move |eng| mpsc_consume(eng, st));
                return;
            }
            let st2 = st.clone();
            amo_cb(
                eng,
                0,
                slot,
                AmoOp::CompareSwap {
                    expected: r.old,
                    desired: MPSC_TOMB,
                },
                move |eng, cas| {
                    let migrate = {
                        let mut s = st2.borrow_mut();
                        if cas.applied {
                            s.consumed.push(cas.old);
                            s.next_head += 1;
                        } else {
                            s.conflicts += 1;
                        }
                        cas.applied && s.migrate_at == Some(s.next_head)
                    };
                    if migrate {
                        mpsc_migrate(eng, st2.clone());
                    }
                    mpsc_consume(eng, st2);
                },
            );
        },
    );
}

/// Move the queue block from the consumer to the first producer, counting
/// the commit's acknowledgement.
fn mpsc_migrate(eng: &mut Engine<World>, st: Rc<RefCell<MpscState>>) {
    let queue = st.borrow().queue;
    let ctx = eng
        .state
        .new_completion(Completion::Driver(Box::new(move |_, _| {
            st.borrow_mut().migration_acks += 1;
        })));
    agas::migrate::migrate_block(eng, 0, queue, 1, ctx);
}

/// Run the MPSC queue to quiescence and report.
pub fn run_mpsc(cfg: &MpscConfig) -> MpscReport {
    let n = cfg.localities;
    assert!(n >= 2, "mpsc needs at least one producer");
    let producers = u64::from(n - 1);
    let total = producers * cfg.items_per_producer;
    // Tail word + slots must fit one 8 KiB block.
    assert!(64 + total * 8 <= 1 << 13, "queue capacity exceeds block");

    let mut rt = boot(n, cfg.mode, cfg.seed, cfg.plan.clone());
    // One queue block, homed at the consumer.
    let arr = rt.alloc(1, 13, Distribution::Single(0));
    let queue = arr.block(0);

    let migrations = u64::from(cfg.mode.supports_migration());
    let st = Rc::new(RefCell::new(MpscState {
        queue,
        total,
        next_head: 0,
        consumed: Vec::new(),
        polls: 0,
        poll_budget: total * 200,
        conflicts: 0,
        produced: 0,
        migrate_at: (migrations == 1).then_some(total.div_ceil(2)),
        migration_acks: 0,
    }));

    let now = rt.eng.now();
    for p in 1..n {
        let st2 = st.clone();
        let items = cfg.items_per_producer;
        rt.eng.schedule_at_loc(now, p, move |eng| {
            mpsc_produce(eng, st2, p, 0, items);
        });
    }
    let st2 = st.clone();
    rt.eng
        .schedule_at_loc(now, 0, move |eng| mpsc_consume(eng, st2));
    rt.run();

    let s = st.borrow();
    // Per-producer FIFO: consumed sequence numbers strictly increase.
    let mut last = vec![0u64; n as usize];
    let mut fifo = true;
    for v in &s.consumed {
        let p = (v >> 32) as usize;
        let seq = v & 0xffff_ffff;
        fifo &= seq > last[p];
        last[p] = seq;
    }
    MpscReport {
        produced: s.produced,
        consumed: s.consumed.len() as u64,
        consume_conflicts: s.conflicts,
        polls: s.polls,
        migrations,
        migration_acks: s.migration_acks,
        fifo_per_producer: fifo,
        op_failures: rt.eng.state.op_failures.len() as u64,
        violations: verify(&rt, &arr.blocks),
        trace_hash: rt.eng.trace_hash(),
        end: rt.now(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{corrupt_mix, drop_mix};

    #[test]
    fn mpsc_delivers_everything_all_modes() {
        for mode in GasMode::ALL {
            let r = run_mpsc(&MpscConfig {
                mode,
                ..MpscConfig::default()
            });
            assert!(r.passed(), "{mode:?}: {r:?}");
            assert_eq!(r.consumed, 120, "{mode:?}");
            assert_eq!(r.consume_conflicts, 0, "{mode:?}: single consumer");
            let migrations = u64::from(mode.supports_migration());
            assert_eq!(r.migration_acks, migrations, "{mode:?}");
        }
    }

    #[test]
    fn mpsc_survives_fault_matrix() {
        // Both migrating modes: the block moves mid-run while dropped and
        // corrupted AMOs retry against it.
        for mode in [GasMode::AgasSoftware, GasMode::AgasNetwork] {
            for seed in [3u64, 17, 29] {
                for plan in [drop_mix(seed, 0.03), corrupt_mix(seed, 0.03)] {
                    let r = run_mpsc(&MpscConfig {
                        mode,
                        seed,
                        plan,
                        items_per_producer: 25,
                        ..MpscConfig::default()
                    });
                    assert!(r.passed(), "{mode:?} seed {seed}: {r:?}");
                    assert_eq!(r.migration_acks, 1, "{mode:?} seed {seed}");
                }
            }
        }
    }

    #[test]
    fn mpsc_is_deterministic() {
        let cfg = MpscConfig {
            plan: drop_mix(5, 0.02),
            seed: 5,
            ..MpscConfig::default()
        };
        let a = run_mpsc(&cfg);
        let b = run_mpsc(&cfg);
        assert_eq!(a.trace_hash, b.trace_hash);
        assert_eq!(a.end, b.end);
    }

    // The hash map and the deque are gone; their claim step stays under
    // test. Each settled a word with one CAS that several localities race
    // for: a hash-map insert swaps a key into an empty slot, a deque pop
    // or steal swaps a task's slot to its taker.

    /// Words each locality won in a race, and the run's witnesses.
    #[derive(Debug)]
    struct Settled {
        wins: Vec<u64>,
        /// CASes that found their word already taken.
        duplicates: u64,
        trace_hash: u64,
        end: Time,
    }

    /// Every locality CASes each of `words` words (homed at locality 0)
    /// from 0 to its own mark `loc + 1`, one at a time in the order
    /// `order(loc, i, words)`; then a gather reads the table back. Panics
    /// unless each word went to exactly one locality, every loser saw the
    /// winner's mark, the gather sees only winners' marks, no op failed
    /// and the word history is clean.
    fn race(
        mode: GasMode,
        seed: u64,
        plan: FaultPlan,
        words: u64,
        order: fn(u32, u64, u64) -> u64,
    ) -> Settled {
        const N: u32 = 4;
        type Tries = Rc<RefCell<Vec<Vec<(u32, AmoResult)>>>>;
        fn claim(
            eng: &mut Engine<World>,
            tries: Tries,
            table: Gva,
            loc: u32,
            i: u64,
            order: fn(u32, u64, u64) -> u64,
        ) {
            let words = tries.borrow().len() as u64;
            if i == words {
                return;
            }
            let w = order(loc, i, words);
            let cas = AmoOp::CompareSwap {
                expected: 0,
                desired: u64::from(loc) + 1,
            };
            amo_cb(eng, loc, table.with_offset(w * 8), cas, move |eng, r| {
                tries.borrow_mut()[w as usize].push((loc, r));
                claim(eng, tries, table, loc, i + 1, order);
            });
        }

        let mut rt = boot(N, mode, seed, plan);
        let arr = rt.alloc(1, 13, Distribution::Single(0));
        let table = arr.block(0);
        let tries: Tries = Rc::new(RefCell::new(vec![Vec::new(); words as usize]));
        let now = rt.eng.now();
        for loc in 0..N {
            let tries = tries.clone();
            rt.eng
                .schedule_at_loc(now, loc, move |eng| claim(eng, tries, table, loc, 0, order));
        }
        rt.run();
        let gathered = Rc::new(RefCell::new(Vec::new()));
        let (g, now) = (gathered.clone(), rt.eng.now());
        let offsets = (0..words).map(|w| w * 8).collect();
        rt.eng.schedule_at_loc(now, N - 1, move |eng| {
            amo_cb(eng, N - 1, table, AmoOp::Gather { offsets }, move |_, r| {
                *g.borrow_mut() = r.values;
            });
        });
        rt.run();

        let mut wins = vec![0u64; N as usize];
        for (w, t) in tries.borrow().iter().enumerate() {
            assert_eq!(
                t.len() as u32,
                N,
                "{mode:?} word {w}: every locality tries once"
            );
            let won: Vec<u32> = t
                .iter()
                .filter(|(_, r)| r.applied)
                .map(|(l, _)| *l)
                .collect();
            assert_eq!(won.len(), 1, "{mode:?} word {w}: winners {won:?}");
            let mark = u64::from(won[0]) + 1;
            assert!(
                t.iter().all(|(_, r)| r.applied || r.old == mark),
                "{mode:?} word {w}: a loser saw a value no winner wrote: {t:?}"
            );
            assert_eq!(
                gathered.borrow().get(w),
                Some(&mark),
                "{mode:?} word {w}: gather"
            );
            wins[won[0] as usize] += 1;
        }
        assert!(rt.eng.state.op_failures.is_empty(), "{mode:?}: ops failed");
        let violations = verify(&rt, &arr.blocks);
        assert!(violations.is_empty(), "{mode:?}: {violations:?}");
        Settled {
            wins,
            duplicates: u64::from(N - 1) * words,
            trace_hash: rt.eng.trace_hash(),
            end: rt.now(),
        }
    }

    /// Hash-map inserts: every locality inserts every key, each starting
    /// five keys past the previous one.
    fn insert_order(loc: u32, i: u64, words: u64) -> u64 {
        (i + 5 * u64::from(loc)) % words
    }

    /// Deque: the owner (locality 0) pops from the bottom, the thieves
    /// steal from the top.
    fn pop_or_steal_order(loc: u32, i: u64, words: u64) -> u64 {
        if loc == 0 {
            i
        } else {
            words - 1 - i
        }
    }

    #[test]
    fn hashmap_inserts_exactly_once_all_modes() {
        for mode in GasMode::ALL {
            let s = race(mode, 1, FaultPlan::lossless(1), 8, insert_order);
            // 4 localities × 8 shared keys: 8 first inserts, 24 duplicates.
            assert_eq!(s.wins.iter().sum::<u64>(), 8, "{mode:?}");
            assert_eq!(s.duplicates, 24, "{mode:?}");
        }
    }

    #[test]
    fn hashmap_survives_fault_matrix() {
        for seed in [7u64, 19, 31] {
            for plan in [drop_mix(seed, 0.03), corrupt_mix(seed, 0.03)] {
                race(GasMode::AgasNetwork, seed, plan, 16, insert_order);
            }
        }
    }

    #[test]
    fn deque_settles_every_task_once_all_modes() {
        for mode in GasMode::ALL {
            let s = race(mode, 1, FaultPlan::lossless(1), 32, pop_or_steal_order);
            assert!(
                s.wins[1..].iter().sum::<u64>() > 0,
                "{mode:?}: thieves never won {s:?}"
            );
            assert!(s.wins[0] > 0, "{mode:?}: owner never won {s:?}");
        }
    }

    #[test]
    fn deque_survives_fault_matrix() {
        for seed in [11u64, 23, 37] {
            for plan in [drop_mix(seed, 0.03), corrupt_mix(seed, 0.03)] {
                race(GasMode::AgasNetwork, seed, plan, 48, pop_or_steal_order);
            }
        }
    }

    #[test]
    fn deque_is_deterministic() {
        let run = || {
            race(
                GasMode::AgasNetwork,
                13,
                drop_mix(13, 0.02),
                32,
                pop_or_steal_order,
            )
        };
        let (a, b) = (run(), run());
        assert_eq!(a.trace_hash, b.trace_hash);
        assert_eq!(a.end, b.end);
        assert_eq!(a.wins, b.wins);
    }
}
