//! Shadow-model equivalence for the AMO responder cache: [`AmoCache`] (a
//! fixed ring of records under a tombstone-free linear-probing index) must
//! answer exactly what the plain `HashMap` + FIFO `VecDeque` cache it
//! replaced would, for any sequence of installs, lookups, block hand-offs
//! (`take_for_block`) and adoptions (`absorb`).
//!
//! Keys repeat (re-installs refresh a result in place), op ids differ in
//! their high (generation) half as often as in their low half, and the key
//! space outnumbers the capacity, so eviction, refresh and the index's
//! backward-shift deletion all run many times per case. Caps 0, 1, 2, 3 and
//! 64 check every lookup of the key space after every step; cap 1 024 (the
//! NIC default) checks the keys each step touched after every step and the
//! whole key space every 128 steps and at the end. `len` and
//! `take_for_block`'s output, in order, are compared at every step.
//!
//! Each runs `PROPTEST_CASES` cases (64 by default).

use netsim::amo::AMO_CACHE_CAP;
use netsim::{AmoCache, AmoKey, AmoResult};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};

/// The cache as it was before the ring: a `HashMap` plus a FIFO of keys.
struct Model {
    map: HashMap<AmoKey, (u64, AmoResult)>,
    fifo: VecDeque<AmoKey>,
    cap: usize,
}

impl Model {
    fn new(cap: usize) -> Model {
        Model {
            map: HashMap::new(),
            fifo: VecDeque::new(),
            cap,
        }
    }

    fn lookup(&self, key: AmoKey) -> Option<AmoResult> {
        self.map.get(&key).map(|(_, r)| r.clone())
    }

    fn install(&mut self, key: AmoKey, block: u64, result: AmoResult) {
        if let Some(c) = self.map.get_mut(&key) {
            *c = (block, result);
            return;
        }
        if self.cap == 0 {
            return;
        }
        while self.fifo.len() >= self.cap {
            if let Some(old) = self.fifo.pop_front() {
                self.map.remove(&old);
            }
        }
        self.fifo.push_back(key);
        self.map.insert(key, (block, result));
    }

    fn take_for_block(&mut self, block: u64) -> Vec<(AmoKey, AmoResult)> {
        let mut out = Vec::new();
        self.fifo.retain(|key| {
            let matches = matches!(self.map.get(key), Some((b, _)) if *b == block);
            if matches {
                if let Some((_, r)) = self.map.remove(key) {
                    out.push((*key, r));
                }
            }
            !matches
        });
        out
    }

    fn absorb(&mut self, block: u64, entries: Vec<(AmoKey, AmoResult)>) {
        for (key, result) in entries {
            self.install(key, block, result);
        }
    }
}

/// One step. Keys are raw draws, folded into the cap's key space by
/// [`Space::key`].
#[derive(Clone, Debug)]
enum Op {
    Install {
        key: u64,
        block: u64,
        old: u64,
        applied: bool,
    },
    Lookup(u64),
    Take(u64),
    Absorb {
        block: u64,
        entries: Vec<(u64, u64, bool)>,
    },
}

/// Few blocks, so a hand-off takes a real share of the cache.
const BLOCKS: u64 = 6;

/// Steps with hand-offs (`take_for_block` and `absorb`) weighted at
/// `hand_off` each per 800 installs and lookups: frequent hand-offs keep a
/// large cache from ever filling.
fn op_strategy(hand_off: u32) -> impl Strategy<Value = Op> {
    prop_oneof![
        600 => (any::<u64>(), 0..BLOCKS, any::<u64>(), any::<bool>()).prop_map(
            |(key, block, old, applied)| Op::Install { key, block, old, applied }
        ),
        200 => any::<u64>().prop_map(Op::Lookup),
        hand_off => (0..BLOCKS).prop_map(Op::Take),
        hand_off => (0..BLOCKS, vec((any::<u64>(), any::<u64>(), any::<bool>()), 0..12))
            .prop_map(|(block, entries)| Op::Absorb { block, entries }),
    ]
}

/// The keys a case draws from: three initiators, four generations and
/// enough op-table slots that the space holds about three times `cap`.
struct Space {
    slots: u64,
}

impl Space {
    fn new(cap: usize) -> Space {
        Space {
            slots: (cap as u64 / 4).max(2),
        }
    }

    fn key(&self, raw: u64) -> AmoKey {
        let loc = (raw % 3) as u32;
        let generation = (raw >> 8) % 4;
        let slot = (raw >> 16) % self.slots;
        (loc, generation << 32 | slot)
    }

    fn all(&self) -> impl Iterator<Item = AmoKey> + '_ {
        (0..3u32).flat_map(move |loc| {
            (0..4u64).flat_map(move |g| (0..self.slots).map(move |s| (loc, g << 32 | s)))
        })
    }
}

fn result(old: u64, applied: bool) -> AmoResult {
    AmoResult {
        old,
        applied,
        values: Vec::new(),
    }
}

/// Run `ops` against both caches at `cap`, sweeping every key of the space
/// every `sweep_every` steps and at the end.
fn run(cap: usize, ops: &[Op], sweep_every: usize) {
    let space = Space::new(cap);
    let mut cache = AmoCache::new(cap);
    let mut model = Model::new(cap);
    let sweep = |cache: &AmoCache, model: &Model, step: usize| {
        for key in space.all() {
            assert_eq!(
                cache.lookup(key),
                model.lookup(key),
                "cap {cap}, step {step}: lookup {key:?}"
            );
        }
    };
    for (step, op) in ops.iter().enumerate() {
        let mut touched = Vec::new();
        match op {
            &Op::Install {
                key,
                block,
                old,
                applied,
            } => {
                let key = space.key(key);
                touched.push(key);
                touched.extend(model.fifo.front().copied());
                cache.install(key, block, result(old, applied));
                model.install(key, block, result(old, applied));
            }
            &Op::Lookup(key) => touched.push(space.key(key)),
            &Op::Take(block) => {
                let got = cache.take_for_block(block);
                let want = model.take_for_block(block);
                assert_eq!(got, want, "cap {cap}, step {step}: take_for_block({block})");
                touched.extend(got.iter().map(|(k, _)| *k));
            }
            Op::Absorb { block, entries } => {
                let entries: Vec<_> = entries
                    .iter()
                    .map(|&(key, old, applied)| (space.key(key), result(old, applied)))
                    .collect();
                touched.extend(entries.iter().map(|(k, _)| *k));
                touched.extend(model.fifo.iter().take(entries.len()).copied());
                cache.absorb(*block, entries.clone());
                model.absorb(*block, entries);
            }
        }
        assert_eq!(cache.len(), model.fifo.len(), "cap {cap}, step {step}: len");
        assert_eq!(cache.is_empty(), model.fifo.is_empty());
        for &key in &touched {
            assert_eq!(
                cache.lookup(key),
                model.lookup(key),
                "cap {cap}, step {step}: lookup {key:?} after {op:?}"
            );
        }
        if (step + 1) % sweep_every == 0 {
            sweep(&cache, &model, step);
        }
    }
    sweep(&cache, &model, ops.len());
}

proptest! {
    /// The small caps, the eviction edges (nothing, one entry, two, an
    /// odd count) and a mid-sized ring, swept after every step.
    #[test]
    fn small_caches_answer_like_the_model(cap_ix in 0usize..5, ops in vec(op_strategy(50), 1..400)) {
        let cap = [0, 1, 2, 3, 64][cap_ix];
        run(cap, &ops, 1);
    }

    /// The NIC default: the ring fills, wraps and evicts for thousands of
    /// steps, with a few hand-offs closing gaps in it.
    #[test]
    fn the_default_cache_answers_like_the_model(ops in vec(op_strategy(2), 2_000..3_500)) {
        run(AMO_CACHE_CAP, &ops, 128);
    }
}
