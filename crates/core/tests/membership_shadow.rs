//! Shadow-model proptest for the elastic membership plane.
//!
//! A randomized drain ladder runs against a byte-level shadow oracle: known
//! values are written (and fetch-added) into every block, a random member
//! drains while fresh puts keep flowing, and after the hand-off completes
//! the oracle demands:
//!
//! 1. **The departed locality owns nothing** — every view renders it
//!    `Left`, its directory shard is handed off, its block table is empty
//!    (AGAS modes), and no locality's membership view resolves any block
//!    to it.
//! 2. **Every pre-drain block stays reachable** — gets issued after the
//!    drain return exactly the bytes the shadow recorded, including the
//!    puts that landed mid-evacuation.
//! 3. **Replay-cache state follows evacuated blocks** — fetch-adds issued
//!    across the drain observe the exact running sum the shadow carries,
//!    so no AMO was lost or double-applied when its word moved.
//! 4. **Everything is accounted** — every issued op completes exactly
//!    once, and nothing reports failure; an op quietly swallowed by the
//!    departing member would hang (no deadline sweep runs here) and
//!    surface as a missing completion.

mod common;

use agas::ops::{memamo, memget, memput, route, Route};
use agas::{alloc_array, membership, Distribution, GasMode, Gva, MemberState, SimEv, SimWorld};
use netsim::{AmoOp, Engine, NetConfig, OpId, Time};
use proptest::prelude::*;

fn jittery() -> NetConfig {
    NetConfig {
        jitter_ns: 400,
        ..NetConfig::ideal()
    }
}

fn get_data(eng: &Engine<SimWorld>, ctx: u64) -> Option<Vec<u8>> {
    eng.state.events().iter().find_map(|(_, _, e)| match e {
        SimEv::GetDone(c, d) if *c == ctx => Some(d.clone()),
        _ => None,
    })
}

fn amo_old(eng: &Engine<SimWorld>, ctx: u64) -> Option<u64> {
    eng.state.events().iter().find_map(|(_, _, e)| match e {
        SimEv::AmoDone(c, r) if *c == ctx => Some(r.old),
        _ => None,
    })
}

fn completions(eng: &Engine<SimWorld>, ctx: u64) -> usize {
    eng.state
        .events()
        .iter()
        .filter(|(_, _, e)| match e {
            SimEv::PutDone(c) | SimEv::GetDone(c, _) | SimEv::AmoDone(c, _) => *c == ctx,
            _ => false,
        })
        .count()
}

/// One randomized drain ladder; panics on any oracle violation.
fn drain_ladder(mode: GasMode, seed: u64, drainee: u32, nblocks: u64, adds: u64) {
    let n = 4u32;
    let survivor = (drainee + 1) % n;
    let mut eng = Engine::new(SimWorld::new(n as usize, mode, jittery()), seed);
    let arr = alloc_array(&mut eng, nblocks, 12, Distribution::Cyclic);
    let mut issued: Vec<u64> = Vec::new();

    // Shadow state: bytes at offset 0, the AMO word at offset 64, and the
    // mid-drain bytes at offset 128.
    let mut bytes: Vec<Vec<u8>> = Vec::new();
    let mut words: Vec<u64> = vec![0; nblocks as usize];
    let mut mid: Vec<Vec<u8>> = Vec::new();

    for b in 0..nblocks {
        let pat = vec![(seed as u8).wrapping_add(b as u8).wrapping_add(1); 32];
        memput(
            &mut eng,
            (b % n as u64) as u32,
            arr.block(b),
            pat.clone(),
            OpId::from_raw(b),
        );
        issued.push(b);
        bytes.push(pat);
        eng.run();
        for k in 0..adds {
            let ctx = 1000 + b * 10 + k;
            let operand = b + k + 1;
            memamo(
                &mut eng,
                ((b + k) % n as u64) as u32,
                arr.block(b).with_offset(64),
                AmoOp::FetchAdd { operand },
                OpId::from_raw(ctx),
            );
            issued.push(ctx);
            eng.run();
            assert_eq!(
                amo_old(&eng, ctx),
                Some(words[b as usize]),
                "{:?}: pre-drain fetch-add lost the running sum",
                mode
            );
            words[b as usize] += operand;
        }
    }

    // Drain while fresh puts land on the very blocks being evacuated.
    membership::drain(&mut eng, drainee);
    for b in 0..nblocks {
        let pat = vec![(seed as u8).wrapping_add(b as u8).wrapping_add(101); 32];
        memput(
            &mut eng,
            survivor,
            arr.block(b).with_offset(128),
            pat.clone(),
            OpId::from_raw(2000 + b),
        );
        issued.push(2000 + b);
        mid.push(pat);
        eng.run_steps(8);
    }
    eng.run();

    // 1: the departed member owns nothing, in every view.
    for l in 0..n {
        assert_eq!(
            eng.state.data.gas[l as usize].member.state_of(drainee),
            MemberState::Left,
            "{:?}: locality {} still thinks {} is a member",
            mode,
            l,
            drainee
        );
    }
    assert!(
        eng.state.data.gas[drainee as usize].dir.is_empty(),
        "{:?}: the drainee kept directory records past Left",
        mode
    );
    if mode.supports_migration() {
        assert!(
            eng.state.data.gas[drainee as usize].btt.is_empty(),
            "{:?}: the drainee still holds {} resident block(s)",
            mode,
            eng.state.data.gas[drainee as usize].btt.len()
        );
    }
    for l in 0..n {
        for b in 0..nblocks {
            let key = arr.block(b).block_key();
            let home = Gva(key).home();
            let serving = eng.state.data.gas[l as usize].member.resolve(key, home);
            assert_ne!(
                serving, drainee,
                "{:?}: locality {} still resolves block {} to the drainee",
                mode, l, b
            );
        }
    }

    // 2 + 3: reachability, data, and the AMO running sum after the drain.
    for b in 0..nblocks {
        memget(
            &mut eng,
            survivor,
            arr.block(b),
            32,
            OpId::from_raw(3000 + b),
        );
        memget(
            &mut eng,
            survivor,
            arr.block(b).with_offset(128),
            32,
            OpId::from_raw(3500 + b),
        );
        memamo(
            &mut eng,
            survivor,
            arr.block(b).with_offset(64),
            AmoOp::FetchAdd { operand: 1 },
            OpId::from_raw(4000 + b),
        );
        issued.extend([3000 + b, 3500 + b, 4000 + b]);
    }
    eng.run();
    for b in 0..nblocks {
        assert_eq!(
            get_data(&eng, 3000 + b).as_ref(),
            Some(&bytes[b as usize]),
            "{:?}: pre-drain bytes of block {} unreachable or wrong",
            mode,
            b
        );
        assert_eq!(
            get_data(&eng, 3500 + b).as_ref(),
            Some(&mid[b as usize]),
            "{:?}: mid-drain put to block {} was lost",
            mode,
            b
        );
        assert_eq!(
            amo_old(&eng, 4000 + b),
            Some(words[b as usize]),
            "{:?}: the AMO word of block {} forgot its sum across the drain",
            mode,
            b
        );
    }

    // 4: exactly-once completion for every issued op, zero failures.
    for &ctx in &issued {
        assert_eq!(
            completions(&eng, ctx),
            1,
            "{:?}: op {} completed {} time(s)",
            mode,
            ctx,
            completions(&eng, ctx)
        );
    }
    let failures = eng
        .state
        .events()
        .iter()
        .filter(|(_, _, e)| matches!(e, SimEv::OpFailed(_, _)))
        .count();
    assert_eq!(failures, 0, "{:?}: {} op(s) failed", mode, failures);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn drained_member_leaves_nothing_behind(
        seed in 0u64..200,
        mode_ix in 0usize..3,
        drainee in 1u32..4,
        nblocks in 4u64..9,
        adds in 1u64..4,
    ) {
        drain_ladder(GasMode::ALL[mode_ix], seed, drainee, nblocks, adds);
    }
}

/// A deterministic smoke cell per mode, so a regression names its mode
/// without a proptest shrink.
#[test]
fn drain_ladder_smoke_all_modes() {
    for mode in GasMode::ALL {
        drain_ladder(mode, 7, 2, 6, 2);
    }
}

/// Under PGAS a crashed home's blocks are re-issued at its take-over, at a
/// base no initiator's `PgasMap` names: a survivor's put and get to such a
/// block must reach the take-over's CPU, not RDMA into the severed links
/// until the deadline fails them.
#[test]
fn pgas_ops_reach_a_crashed_homes_take_over() {
    let mut eng = Engine::new(SimWorld::new(3, GasMode::Pgas, NetConfig::ideal()), 42);
    for g in &mut eng.state.data.gas {
        g.cfg.op_deadline = Some(Time::from_us(50));
    }
    let arr = alloc_array(&mut eng, 3, 12, Distribution::Cyclic);
    eng.run();
    let gva = arr.block(1);
    assert_eq!(gva.home(), 1);
    membership::crash(&mut eng, 1);
    eng.run();
    // Parcels go where the ops go.
    assert_eq!(route(&mut eng.state.data, 0, gva), Route::Forward(2));
    memput(&mut eng, 0, gva, vec![0x5A; 32], OpId::from_raw(1));
    eng.run();
    memget(&mut eng, 0, gva, 32, OpId::from_raw(2));
    eng.run();
    assert_eq!(completions(&eng, 1), 1, "the put completes");
    assert_eq!(get_data(&eng, 2), Some(vec![0x5A; 32]), "the get reads it");
    assert_eq!(eng.state.op_failures(), 0);
    assert_eq!(eng.state.total_gas_stats().deadline_exceeded, 0);
}
