//! Property-based tests: arbitrary interleavings of puts, gets, and
//! migrations must terminate, deliver every completion, never corrupt data,
//! and leave the cluster consistent — in every GAS mode.

mod common;

use agas::migrate::migrate_block;
use agas::ops::{memget, memput};
use agas::{alloc_array, Distribution, GasMode};
use common::{assert_consistent, Ev, World};
use netsim::{Engine, NetConfig, OpId, Xlate};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Put {
        from: u32,
        block: u64,
        slot: u64,
        val: u8,
    },
    Migrate {
        from: u32,
        block: u64,
        to: u32,
    },
}

fn op_strategy(nloc: u32, nblocks: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..nloc, 0..nblocks, 0..16u64, 1..=255u8).prop_map(|(from, block, slot, val)| Op::Put {
            from,
            block,
            slot,
            val,
        }),
        1 => (0..nloc, 0..nblocks, 0..nloc).prop_map(|(from, block, to)| Op::Migrate {
            from,
            block,
            to,
        }),
    ]
}

/// Shadow ownership oracle: `(block key, generation) -> owner`, sampled
/// from the BTTs after every event (a block's generation is minted by the
/// hand-off that installs it, so whoever holds the entry owned the block at
/// that generation).
type Owned = HashMap<(u64, u32), u32>;

/// Step the engine (`limit` events, or to quiescence), sampling `owned`.
fn advance(eng: &mut Engine<World>, blocks: &[agas::Gva], owned: &mut Owned, limit: Option<u64>) {
    let mut steps = 0;
    while limit.is_none_or(|n| steps < n) && eng.step() {
        steps += 1;
        for (l, g) in eng.state.gas.iter().enumerate() {
            for b in blocks {
                if let Some(e) = g.btt.lookup(b.block_key()) {
                    owned.insert((b.block_key(), e.generation), l as u32);
                }
            }
        }
    }
}

fn run_schedule(mode: GasMode, ops: &[Op], seed: u64) -> (Engine<World>, Vec<agas::Gva>, Owned) {
    let nloc = 4;
    let mut eng = Engine::new(World::new(nloc, mode, NetConfig::ideal()), seed);
    for g in &mut eng.state.gas {
        g.cfg.record_history = true;
    }
    let arr = alloc_array(&mut eng, 8, 12, Distribution::Cyclic);
    let mut owned = Owned::new();
    for b in &arr.blocks {
        owned.insert((b.block_key(), 1), b.home());
    }
    for (ctx, op) in ops.iter().enumerate() {
        let ctx = ctx as u64;
        match *op {
            Op::Put {
                from,
                block,
                slot,
                val,
            } => {
                let gva = arr.block(block).with_offset(slot * 256);
                memput(&mut eng, from, gva, vec![val; 256], OpId::from_raw(ctx));
            }
            Op::Migrate { from, block, to } => {
                if mode.supports_migration() {
                    migrate_block(&mut eng, from, arr.block(block), to, OpId::from_raw(ctx));
                }
            }
        }
        // Interleave: advance the world a little between submissions.
        advance(&mut eng, &arr.blocks, &mut owned, Some(3));
    }
    advance(&mut eng, &arr.blocks, &mut owned, None);
    (eng, arr.blocks.clone(), owned)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every submitted operation completes, and the cluster ends consistent.
    #[test]
    fn all_ops_complete_and_world_stays_consistent(
        ops in proptest::collection::vec(op_strategy(4, 8), 1..60),
        seed in 0u64..1000,
    ) {
        for mode in GasMode::ALL {
            let (mut eng, blocks, owned) = run_schedule(mode, &ops, seed);
            let puts_submitted = ops
                .iter()
                .filter(|o| matches!(o, Op::Put { .. }))
                .count();
            let migs_submitted = if mode.supports_migration() {
                ops.iter().filter(|o| matches!(o, Op::Migrate { .. })).count()
            } else {
                0
            };
            let puts_done = eng
                .state
                .events
                .iter()
                .filter(|(_, _, e)| matches!(e, Ev::PutDone(_)))
                .count();
            let migs_done = eng
                .state
                .events
                .iter()
                .filter(|(_, _, e)| matches!(e, Ev::MigDone(..)))
                .count();
            prop_assert_eq!(puts_done, puts_submitted, "{:?}: lost puts", mode);
            prop_assert_eq!(migs_done, migs_submitted, "{:?}: lost migrations", mode);
            prop_assert_eq!(
                (0..4).map(|l| eng.state.gas[l].outstanding_ops()).sum::<usize>(),
                0,
                "{:?}: dangling pending ops", mode
            );
            assert_consistent(&eng, &blocks);
            // Along every tombstone chain the retired generations rise
            // strictly, and the chain ends at a live entry newer than its
            // last tombstone — what lets a NIC tell a forward that outran
            // its block from one to pass on.
            if mode == GasMode::AgasNetwork {
                for b in &blocks {
                    let key = b.block_key();
                    for start in 0..4u32 {
                        let (mut at, mut floor) = (start, 0);
                        for _hop in 0..=ops.len() {
                            match eng.state.cluster.loc_mut(at).nic.xlate.lookup(key) {
                                Xlate::Forward { next, retired } => {
                                    prop_assert!(
                                        retired >= floor,
                                        "{:#x}: tombstone at {} retired at {}, reached with floor {}",
                                        key, at, retired, floor
                                    );
                                    (at, floor) = (next, retired + 1);
                                }
                                Xlate::Hit(e) => {
                                    prop_assert!(
                                        e.generation >= floor,
                                        "{:#x}: live at {} under {}, reached with floor {}",
                                        key, at, e.generation, floor
                                    );
                                    floor = u32::MAX;
                                    break;
                                }
                                Xlate::Miss => break,
                            }
                        }
                        prop_assert!(
                            floor == u32::MAX || start == at,
                            "{:#x}: the chain from {} ends in nothing at {}", key, start, at
                        );
                    }
                }
            }
            // Every cached owner hint — from a directory reply, an
            // installed migration, or a forwarded completion — is a fact
            // that was once true: no newer than the directory's record,
            // and naming the locality that owned the block at that
            // generation.
            for l in 0..4 {
                for b in &blocks {
                    let key = b.block_key();
                    let Some(h) = eng.state.gas[l].cache.lookup(key) else {
                        continue;
                    };
                    let rec = eng.state.gas[b.home() as usize].dir.peek(key).unwrap();
                    prop_assert!(
                        h.generation <= rec.generation,
                        "{:?}: locality {} caches {:?} for {:#x}, directory has {:?}",
                        mode, l, h, key, rec
                    );
                    prop_assert_eq!(
                        owned.get(&(key, h.generation)),
                        Some(&h.owner),
                        "{:?}: locality {} caches {:?} for {:#x}", mode, l, h, key
                    );
                }
            }
        }
    }

    /// The *last* put to each slot is the value a subsequent get returns —
    /// even when migrations raced the writes. ("Last" is well-defined here
    /// because each slot is written by at most one put per schedule.)
    #[test]
    fn slot_values_survive_migration_races(
        writes in proptest::collection::vec((0u64..8, 0u64..16, 1u8..=255), 1..40),
        migs in proptest::collection::vec((0u64..8, 0u32..4), 0..10),
        seed in 0u64..1000,
    ) {
        // Deduplicate slots: keep the first write to each (block, slot).
        let mut seen = std::collections::HashSet::new();
        let writes: Vec<_> = writes
            .into_iter()
            .filter(|&(b, s, _)| seen.insert((b, s)))
            .collect();
        for mode in GasMode::ALL {
            let mut eng = Engine::new(World::new(4, mode, NetConfig::ideal()), seed);
            let arr = alloc_array(&mut eng, 8, 12, Distribution::Cyclic);
            let mut ctx = 0;
            let mut mig_iter = migs.iter();
            for (i, &(block, slot, val)) in writes.iter().enumerate() {
                memput(&mut eng, (i % 4) as u32, arr.block(block).with_offset(slot * 256), vec![val; 256], OpId::from_raw(ctx));
                ctx += 1;
                if mode.supports_migration() && i % 3 == 1 {
                    if let Some(&(mblock, mto)) = mig_iter.next() {
                        migrate_block(&mut eng, 0, arr.block(mblock), mto, OpId::from_raw(ctx));
                        ctx += 1;
                    }
                }
                eng.run_steps(5);
            }
            eng.run();
            // Read everything back.
            for (i, &(block, slot, _)) in writes.iter().enumerate() {
                memget(&mut eng, ((i + 1) % 4) as u32, arr.block(block).with_offset(slot * 256), 256, OpId::from_raw(10_000 + i as u64));
            }
            eng.run();
            for (i, &(_, _, val)) in writes.iter().enumerate() {
                let got = eng.state.events.iter().find_map(|(_, _, e)| match e {
                    Ev::GetDone(c, d) if *c == 10_000 + i as u64 => Some(d.clone()),
                    _ => None,
                });
                prop_assert_eq!(got, Some(vec![val; 256]), "{:?}: slot {} wrong", mode, i);
            }
        }
    }

    /// Identical schedules and seeds produce identical executions
    /// (end-to-end determinism through the full protocol stack).
    #[test]
    fn full_stack_determinism(
        ops in proptest::collection::vec(op_strategy(4, 8), 1..40),
        seed in 0u64..1000,
    ) {
        for mode in [GasMode::AgasNetwork, GasMode::AgasSoftware] {
            let (a, _, _) = run_schedule(mode, &ops, seed);
            let (b, _, _) = run_schedule(mode, &ops, seed);
            prop_assert_eq!(a.trace_hash(), b.trace_hash());
            prop_assert_eq!(a.now(), b.now());
            prop_assert_eq!(a.state.events.len(), b.state.events.len());
        }
    }
}

proptest! {
    /// GVA encode/decode round-trips for every legal field combination.
    #[test]
    fn gva_round_trip(
        home in 0u32..(1 << 16),
        class in 3u8..=30,
        seq_bits in any::<u64>(),
        off_bits in any::<u64>(),
    ) {
        let seq_max = 1u64 << (42 - class as u32);
        let seq = seq_bits % seq_max;
        let offset = off_bits % (1u64 << class);
        let g = agas::Gva::new(home, class, seq, offset);
        prop_assert_eq!(g.home(), home);
        prop_assert_eq!(g.class(), class);
        prop_assert_eq!(g.seq(), seq);
        prop_assert_eq!(g.offset(), offset);
        prop_assert_eq!(g.block_key(), g.block_base().0);
        prop_assert_eq!(g.block_base().offset(), 0);
        prop_assert_eq!(g.with_offset(offset).0, g.0);
        prop_assert!(!g.is_null());
    }

    /// Two GVAs share a block key iff they differ only in offset.
    #[test]
    fn gva_block_key_equivalence(
        home in 0u32..64,
        class in 3u8..=16,
        seq in 0u64..1024,
        off_a in any::<u64>(),
        off_b in any::<u64>(),
    ) {
        let a = agas::Gva::new(home, class, seq, off_a % (1 << class));
        let b = agas::Gva::new(home, class, seq, off_b % (1 << class));
        prop_assert_eq!(a.block_key(), b.block_key());
        let c = agas::Gva::new(home, class, (seq + 1) % (1 << (42 - class as u32)), 0);
        if c.seq() != a.seq() {
            prop_assert_ne!(a.block_key(), c.block_key());
        }
    }

    /// GlobalArray linear addressing always lands inside the right block.
    #[test]
    fn array_addressing_is_consistent(
        class in 6u8..=14,
        n_blocks in 1u64..32,
        byte_bits in any::<u64>(),
    ) {
        let arr = agas::GlobalArray {
            class,
            dist: agas::Distribution::Cyclic,
            blocks: (0..n_blocks).map(|i| agas::Gva::new((i % 4) as u32, class, i / 4, 0)).collect(),
        };
        let byte = byte_bits % arr.total_bytes();
        let gva = arr.at_byte(byte);
        let bs = arr.block_size();
        prop_assert_eq!(gva.block_base(), arr.block(byte / bs));
        prop_assert_eq!(gva.offset(), byte % bs);
        // chunks() tiles any range exactly.
        let len = (byte_bits >> 32) % (arr.total_bytes() - byte);
        if len > 0 {
            let chunks = arr.chunks(byte, len);
            prop_assert_eq!(chunks.iter().map(|&(_, l)| l).sum::<u64>(), len);
            for (g, l) in chunks {
                prop_assert!(g.offset() + l <= bs);
            }
        }
    }
}
