//! Distributed lock-free structures built on NIC-executed active
//! operations — the payoff workloads for the AMO subsystem.
//!
//! Three classics, each expressed purely in the AMO vocabulary (fetch-add
//! to claim, compare-and-swap to consume, masked-put to publish, gather to
//! scan) so that **every** memory interaction lands in the word-level
//! history the [`agas::check`] oracle verifies:
//!
//! * [`run_mpsc`] — a multi-producer single-consumer queue: producers
//!   fetch-add a shared tail to claim slots and masked-put their payloads;
//!   the consumer tombstones each slot with a CAS, so the checker's
//!   unique-consumption rule proves every element is delivered exactly
//!   once and in per-producer FIFO order.
//! * [`run_hashmap`] — an open-addressing hash table spread over the
//!   cluster: inserts are `CAS(empty → key)` probes, lookups are gathers
//!   over the probe window. Racing duplicate inserts resolve to exactly
//!   one table entry.
//! * [`run_deque`] — a work-stealing deque: the owner pops from the bottom
//!   (fetch-add −1), thieves claim from the top (fetch-add +1), and every
//!   task is settled by a `CAS(task → done)` that can succeed exactly
//!   once, however the index hints race.
//!
//! Every run function is self-contained chaos-style: it boots a runtime
//! with the retry/deadline machinery armed, applies a caller-supplied
//! [`FaultPlan`], runs to quiescence, and reports counts + history-checker
//! verdicts. All structure state lives in AMO words, disjoint from any
//! put/get byte traffic by construction.

use agas::check::{check_blocks, check_history, Violation};
use agas::{Distribution, GasConfig, GasMode, GlobalArray, Gva};
use netsim::rng::mix64;
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
            retry_on_deadline: true,
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
                    {
                        let mut s = st2.borrow_mut();
                        if cas.applied {
                            s.consumed.push(cas.old);
                            s.next_head += 1;
                        } else {
                            s.conflicts += 1;
                        }
                    }
                    mpsc_consume(eng, st2);
                },
            );
        },
    );
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

    let st = Rc::new(RefCell::new(MpscState {
        queue,
        total,
        next_head: 0,
        consumed: Vec::new(),
        polls: 0,
        poll_budget: total * 200,
        conflicts: 0,
        produced: 0,
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
        fifo_per_producer: fifo,
        op_failures: rt.eng.state.op_failures.len() as u64,
        violations: verify(&rt, &arr.blocks),
        trace_hash: rt.eng.trace_hash(),
        end: rt.now(),
    }
}

// ---------------------------------------------------------------------------
// Lock-free hash map
// ---------------------------------------------------------------------------

/// Hash map configuration.
#[derive(Clone, Debug)]
pub struct HashMapConfig {
    /// GAS implementation under test.
    pub mode: GasMode,
    /// Cluster size; every locality inserts and looks up.
    pub localities: u32,
    /// Private keys each locality inserts.
    pub keys_per_loc: u64,
    /// Keys every locality races to insert (duplicate-resolution test).
    pub shared_keys: u64,
    /// Table blocks (4 KiB, 512 entries each), spread cyclically.
    pub blocks: u64,
    /// Engine seed.
    pub seed: u64,
    /// Network fault plan.
    pub plan: FaultPlan,
}

impl Default for HashMapConfig {
    fn default() -> HashMapConfig {
        HashMapConfig {
            mode: GasMode::AgasNetwork,
            localities: 4,
            keys_per_loc: 24,
            shared_keys: 8,
            blocks: 4,
            seed: 1,
            plan: FaultPlan::lossless(1),
        }
    }
}

/// Hash map run outcome.
#[derive(Clone, Debug)]
pub struct HashMapReport {
    /// Insert attempts that claimed an empty slot.
    pub inserted: u64,
    /// Insert attempts that found their key already present.
    pub duplicates: u64,
    /// Inserts abandoned after the probe limit (table pressure).
    pub table_full: u64,
    /// Lookups that found their key.
    pub found: u64,
    /// Lookups that did not (must be 0).
    pub missing: u64,
    /// Distinct keys the final table scan counted.
    pub table_entries: u64,
    /// Expected distinct keys (successful inserts).
    pub expected_entries: u64,
    /// GAS ops that failed terminally.
    pub op_failures: u64,
    /// History/structural violations (must be empty).
    pub violations: Vec<Violation>,
    /// Determinism witness.
    pub trace_hash: u64,
    /// Simulated end time.
    pub end: Time,
}

impl HashMapReport {
    /// Exactly-once insertion, full lookup coverage, clean history.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
            && self.missing == 0
            && self.table_full == 0
            && self.table_entries == self.expected_entries
            && self.op_failures == 0
    }
}

const HM_WORDS_PER_BLOCK: u64 = 512; // 4 KiB block / 8
const HM_MAX_PROBES: u64 = 64;
const HM_GATHER: u64 = 8;

fn hm_slot(arr: &GlobalArray, blocks: u64, key: u64, probe: u64) -> Gva {
    let h = mix64(key);
    let block = h % blocks;
    let word = ((h >> 16) + probe) % HM_WORDS_PER_BLOCK;
    arr.block(block).with_offset(word * 8)
}

struct HmState {
    arr: GlobalArray,
    blocks: u64,
    inserted: u64,
    duplicates: u64,
    table_full: u64,
    found: u64,
    missing: u64,
}

fn hm_insert(eng: &mut Engine<World>, st: Rc<RefCell<HmState>>, loc: u32, key: u64, probe: u64) {
    let (slot, give_up) = {
        let s = st.borrow();
        (
            hm_slot(&s.arr, s.blocks, key, probe),
            probe >= HM_MAX_PROBES,
        )
    };
    if give_up {
        st.borrow_mut().table_full += 1;
        return;
    }
    amo_cb(
        eng,
        loc,
        slot,
        AmoOp::CompareSwap {
            expected: 0,
            desired: key,
        },
        move |eng, r| {
            if r.applied {
                st.borrow_mut().inserted += 1;
            } else if r.old == key {
                st.borrow_mut().duplicates += 1;
            } else {
                hm_insert(eng, st, loc, key, probe + 1);
            }
        },
    );
}

fn hm_lookup(eng: &mut Engine<World>, st: Rc<RefCell<HmState>>, loc: u32, key: u64, probe: u64) {
    if probe >= HM_MAX_PROBES {
        st.borrow_mut().missing += 1;
        return;
    }
    let (block_gva, offsets) = {
        let s = st.borrow();
        let h = mix64(key);
        let block = h % s.blocks;
        let offsets: Vec<u64> = (0..HM_GATHER)
            .map(|j| (((h >> 16) + probe + j) % HM_WORDS_PER_BLOCK) * 8)
            .collect();
        (s.arr.block(block), offsets)
    };
    amo_cb(
        eng,
        loc,
        block_gva,
        AmoOp::Gather { offsets },
        move |eng, r| {
            if r.values.contains(&key) {
                st.borrow_mut().found += 1;
            } else if r.values.contains(&0) {
                // An empty slot inside the probe window ends the chain:
                // the key cannot live beyond it.
                st.borrow_mut().missing += 1;
            } else {
                hm_lookup(eng, st, loc, key, probe + HM_GATHER);
            }
        },
    );
}

/// The `i`-th private key of locality `l` (nonzero, distinct from shared
/// keys by the locality tag).
fn hm_key(seed: u64, l: u32, i: u64) -> u64 {
    (mix64(seed ^ (u64::from(l) << 32) ^ i) | 1) ^ (u64::from(l + 1) << 56)
}

/// The `i`-th shared key every locality races to insert.
fn hm_shared_key(seed: u64, i: u64) -> u64 {
    mix64(seed ^ 0x5a5a_0000 ^ i) | 1
}

/// Run the hash map to quiescence and report.
pub fn run_hashmap(cfg: &HashMapConfig) -> HashMapReport {
    let n = cfg.localities;
    let capacity = cfg.blocks * HM_WORDS_PER_BLOCK;
    let load = u64::from(n) * cfg.keys_per_loc + cfg.shared_keys;
    assert!(load * 2 <= capacity, "keep load factor under 50%");

    let mut rt = boot(n, cfg.mode, cfg.seed, cfg.plan.clone());
    let arr = rt.alloc(cfg.blocks, 12, Distribution::Cyclic);
    let st = Rc::new(RefCell::new(HmState {
        arr: arr.clone(),
        blocks: cfg.blocks,
        inserted: 0,
        duplicates: 0,
        table_full: 0,
        found: 0,
        missing: 0,
    }));

    // Phase 1: all localities insert concurrently — private keys plus the
    // shared set everybody races for.
    let now = rt.eng.now();
    for l in 0..n {
        for i in 0..cfg.keys_per_loc {
            let st2 = st.clone();
            let key = hm_key(cfg.seed, l, i);
            rt.eng
                .schedule_at_loc(now, l, move |eng| hm_insert(eng, st2, l, key, 0));
        }
        for i in 0..cfg.shared_keys {
            let st2 = st.clone();
            let key = hm_shared_key(cfg.seed, i);
            rt.eng
                .schedule_at_loc(now, l, move |eng| hm_insert(eng, st2, l, key, 0));
        }
    }
    rt.run();

    // Phase 2: every locality looks up its own keys and the shared set.
    let now = rt.eng.now();
    for l in 0..n {
        for i in 0..cfg.keys_per_loc {
            let st2 = st.clone();
            let key = hm_key(cfg.seed, l, i);
            rt.eng
                .schedule_at_loc(now, l, move |eng| hm_lookup(eng, st2, l, key, 0));
        }
        for i in 0..cfg.shared_keys {
            let st2 = st.clone();
            let key = hm_shared_key(cfg.seed, i);
            rt.eng
                .schedule_at_loc(now, l, move |eng| hm_lookup(eng, st2, l, key, 0));
        }
    }
    rt.run();

    // Final audit: count distinct non-empty table entries directly.
    let mut table_entries = 0u64;
    for b in &arr.blocks {
        let bytes = rt.read_block(*b);
        table_entries += bytes
            .chunks_exact(8)
            .filter(|c| u64::from_le_bytes((*c).try_into().unwrap()) != 0)
            .count() as u64;
    }

    let s = st.borrow();
    HashMapReport {
        inserted: s.inserted,
        duplicates: s.duplicates,
        table_full: s.table_full,
        found: s.found,
        missing: s.missing,
        table_entries,
        expected_entries: s.inserted,
        op_failures: rt.eng.state.op_failures.len() as u64,
        violations: verify(&rt, &arr.blocks),
        trace_hash: rt.eng.trace_hash(),
        end: rt.now(),
    }
}

// ---------------------------------------------------------------------------
// Work-stealing deque
// ---------------------------------------------------------------------------

/// Work-stealing deque configuration.
#[derive(Clone, Debug)]
pub struct DequeConfig {
    /// GAS implementation under test.
    pub mode: GasMode,
    /// Cluster size; locality 0 owns the deque, 1..n steal.
    pub localities: u32,
    /// Tasks pushed before the race starts.
    pub tasks: u64,
    /// Engine seed.
    pub seed: u64,
    /// Network fault plan.
    pub plan: FaultPlan,
}

impl Default for DequeConfig {
    fn default() -> DequeConfig {
        DequeConfig {
            mode: GasMode::AgasNetwork,
            localities: 4,
            tasks: 64,
            seed: 1,
            plan: FaultPlan::lossless(1),
        }
    }
}

/// Work-stealing deque run outcome.
#[derive(Clone, Debug)]
pub struct DequeReport {
    /// Tasks the owner popped.
    pub popped: u64,
    /// Tasks thieves stole.
    pub stolen: u64,
    /// Settlement CAS attempts that lost the race.
    pub conflicts: u64,
    /// Tasks pushed.
    pub tasks: u64,
    /// GAS ops that failed terminally.
    pub op_failures: u64,
    /// History/structural violations (must be empty).
    pub violations: Vec<Violation>,
    /// Determinism witness.
    pub trace_hash: u64,
    /// Simulated end time.
    pub end: Time,
}

impl DequeReport {
    /// Every task claimed exactly once, clean history.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
            && self.popped + self.stolen == self.tasks
            && self.op_failures == 0
    }
}

/// Deque word layout inside one block.
const DQ_TOP: u64 = 0; // thieves fetch-add +1
const DQ_BOTTOM: u64 = 8; // owner fetch-adds −1
const DQ_TASK0: u64 = 64;

fn dq_task_val(i: u64) -> u64 {
    (1 << 40) | (i + 1)
}

fn dq_done_val(claimant: u32, i: u64) -> u64 {
    (2 << 40) | (u64::from(claimant) << 32) | (i + 1)
}

struct DqState {
    deque: Gva,
    tasks: u64,
    popped: u64,
    stolen: u64,
    conflicts: u64,
}

/// Attempt to settle task `i` for `claimant`; exactly one settle wins.
fn dq_settle(
    eng: &mut Engine<World>,
    st: Rc<RefCell<DqState>>,
    claimant: u32,
    i: u64,
    next: impl FnOnce(&mut Engine<World>, Rc<RefCell<DqState>>) + 'static,
) {
    let slot = {
        let s = st.borrow();
        s.deque.with_offset(DQ_TASK0 + i * 8)
    };
    amo_cb(
        eng,
        claimant,
        slot,
        AmoOp::CompareSwap {
            expected: dq_task_val(i),
            desired: dq_done_val(claimant, i),
        },
        move |eng, r| {
            {
                let mut s = st.borrow_mut();
                if r.applied {
                    if claimant == 0 {
                        s.popped += 1;
                    } else {
                        s.stolen += 1;
                    }
                } else {
                    s.conflicts += 1;
                }
            }
            next(eng, st);
        },
    );
}

/// Owner loop: decrement bottom, settle the uncovered index, repeat.
fn dq_owner(eng: &mut Engine<World>, st: Rc<RefCell<DqState>>) {
    let deque = st.borrow().deque;
    amo_cb(
        eng,
        0,
        deque.with_offset(DQ_BOTTOM),
        AmoOp::FetchAdd {
            operand: 1u64.wrapping_neg(),
        },
        move |eng, r| {
            if r.old == 0 || r.old > st.borrow().tasks {
                return; // deque exhausted (or wrapped past empty)
            }
            dq_settle(eng, st, 0, r.old - 1, dq_owner);
        },
    );
}

/// Thief loop: claim a top index, settle it, repeat until past the end.
fn dq_thief(eng: &mut Engine<World>, st: Rc<RefCell<DqState>>, thief: u32) {
    let (deque, tasks) = {
        let s = st.borrow();
        (s.deque, s.tasks)
    };
    amo_cb(
        eng,
        thief,
        deque.with_offset(DQ_TOP),
        AmoOp::FetchAdd { operand: 1 },
        move |eng, r| {
            if r.old >= tasks {
                return;
            }
            dq_settle(eng, st, thief, r.old, move |eng, st| {
                dq_thief(eng, st, thief)
            });
        },
    );
}

/// Run the work-stealing deque to quiescence and report.
pub fn run_deque(cfg: &DequeConfig) -> DequeReport {
    let n = cfg.localities;
    assert!(n >= 2, "deque needs at least one thief");
    assert!(DQ_TASK0 + cfg.tasks * 8 <= 1 << 13, "tasks exceed block");

    let mut rt = boot(n, cfg.mode, cfg.seed, cfg.plan.clone());
    let arr = rt.alloc(1, 13, Distribution::Single(0));
    let deque = arr.block(0);

    // Setup: owner publishes the tasks and the bottom index (scatter does
    // both words and tasks in two NIC visits).
    let writes: Vec<(u64, u64)> = (0..cfg.tasks)
        .map(|i| (DQ_TASK0 + i * 8, dq_task_val(i)))
        .collect();
    rt.memamo(0, deque, AmoOp::Scatter { writes });
    rt.memamo(
        0,
        deque,
        AmoOp::Scatter {
            writes: vec![(DQ_BOTTOM, cfg.tasks)],
        },
    );
    rt.run();

    let st = Rc::new(RefCell::new(DqState {
        deque,
        tasks: cfg.tasks,
        popped: 0,
        stolen: 0,
        conflicts: 0,
    }));
    let st2 = st.clone();
    let now = rt.eng.now();
    rt.eng
        .schedule_at_loc(now, 0, move |eng| dq_owner(eng, st2));
    for thief in 1..n {
        let st2 = st.clone();
        rt.eng
            .schedule_at_loc(now, thief, move |eng| dq_thief(eng, st2, thief));
    }
    rt.run();

    let s = st.borrow();
    DequeReport {
        popped: s.popped,
        stolen: s.stolen,
        conflicts: s.conflicts,
        tasks: cfg.tasks,
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
        }
    }

    #[test]
    fn mpsc_survives_fault_matrix() {
        for seed in [3u64, 17, 29] {
            for plan in [drop_mix(seed, 0.03), corrupt_mix(seed, 0.03)] {
                let r = run_mpsc(&MpscConfig {
                    seed,
                    plan,
                    items_per_producer: 25,
                    ..MpscConfig::default()
                });
                assert!(r.passed(), "seed {seed}: {r:?}");
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

    #[test]
    fn hashmap_inserts_exactly_once_all_modes() {
        for mode in GasMode::ALL {
            let r = run_hashmap(&HashMapConfig {
                mode,
                ..HashMapConfig::default()
            });
            assert!(r.passed(), "{mode:?}: {r:?}");
            // 4 localities × 8 shared keys: 8 first inserts, 24 duplicates.
            assert_eq!(r.duplicates, 24, "{mode:?}");
            assert_eq!(r.expected_entries, 4 * 24 + 8, "{mode:?}");
        }
    }

    #[test]
    fn hashmap_survives_fault_matrix() {
        for seed in [7u64, 19, 31] {
            for plan in [drop_mix(seed, 0.03), corrupt_mix(seed, 0.03)] {
                let r = run_hashmap(&HashMapConfig {
                    seed,
                    plan,
                    keys_per_loc: 16,
                    ..HashMapConfig::default()
                });
                assert!(r.passed(), "seed {seed}: {r:?}");
            }
        }
    }

    #[test]
    fn deque_settles_every_task_once_all_modes() {
        for mode in GasMode::ALL {
            let r = run_deque(&DequeConfig {
                mode,
                ..DequeConfig::default()
            });
            assert!(r.passed(), "{mode:?}: {r:?}");
            assert!(r.stolen > 0, "{mode:?}: thieves never won");
            assert!(r.popped > 0, "{mode:?}: owner never won");
        }
    }

    #[test]
    fn deque_survives_fault_matrix() {
        for seed in [11u64, 23, 37] {
            for plan in [drop_mix(seed, 0.03), corrupt_mix(seed, 0.03)] {
                let r = run_deque(&DequeConfig {
                    seed,
                    plan,
                    tasks: 48,
                    ..DequeConfig::default()
                });
                assert!(r.passed(), "seed {seed}: {r:?}");
            }
        }
    }

    #[test]
    fn deque_is_deterministic() {
        let cfg = DequeConfig {
            plan: drop_mix(13, 0.02),
            seed: 13,
            ..DequeConfig::default()
        };
        let a = run_deque(&cfg);
        let b = run_deque(&cfg);
        assert_eq!(a.trace_hash, b.trace_hash);
        assert_eq!(a.end, b.end);
    }
}
