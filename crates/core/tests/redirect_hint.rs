//! Completions teach the initiator: an op that reached its block through a
//! NIC forward comes back naming the committing locality and its
//! translation generation, and the owner cache folds that in — so only the
//! *first* access after a migration pays the forwarding hop.

mod common;

use agas::membership::crash;
use agas::migrate::migrate_block;
use agas::ops::{handle_msg, memamo, memget, memput, on_pwc_redirected};
use agas::{alloc_array, Distribution, GasMode, GasMsg, Gva, OwnerHint, SimEv, SimWorld};
use common::{assert_consistent, engine};
use netsim::{AmoOp, Counters, Engine, NetConfig, OpId};

/// Messages on the wire: requests, forwarding hops, acks/payload replies,
/// NACKs, and two-sided (directory) traffic.
fn wire_msgs(c: &Counters) -> u64 {
    c.rdma_puts
        + c.rdma_gets
        + c.rdma_amos
        + c.xlate_forwards
        + c.ctrl_sent
        + c.nacks_sent
        + c.msgs_sent
}

/// Run `issue` to quiescence; report `(forward hops, wire messages)` it cost.
fn cost(eng: &mut Engine<SimWorld>, issue: impl FnOnce(&mut Engine<SimWorld>)) -> (u64, u64) {
    let before = eng.state.total_counters();
    issue(eng);
    eng.run();
    let after = eng.state.total_counters();
    (
        after.xlate_forwards - before.xlate_forwards,
        wire_msgs(&after) - wire_msgs(&before),
    )
}

fn migrate(eng: &mut Engine<SimWorld>, gva: Gva, to: u32, ctx: u64) {
    migrate_block(eng, 0, gva, to, OpId::from_raw(ctx));
    eng.run();
    assert!(eng
        .state
        .events()
        .iter()
        .any(|(_, _, e)| matches!(e, SimEv::MigDone(c, _) if *c == ctx)));
}

fn hint(eng: &mut Engine<SimWorld>, loc: usize, gva: Gva) -> Option<OwnerHint> {
    eng.state.data.gas[loc].cache.lookup(gva.block_key())
}

fn get_data(eng: &Engine<SimWorld>, ctx: u64) -> Option<Vec<u8>> {
    eng.state.events().iter().find_map(|(_, _, e)| match e {
        SimEv::GetDone(c, d) if *c == ctx => Some(d.clone()),
        _ => None,
    })
}

#[test]
fn only_the_first_access_after_a_migration_is_forwarded() {
    let mut eng = engine(4, GasMode::AgasNetwork);
    let arr = alloc_array(&mut eng, 4, 12, Distribution::Cyclic);
    let gva = arr.block(1); // homed at A = 1
    migrate(&mut eng, gva, 2, 900); // A -> B = 2; A keeps the tombstone

    // From a third locality, which has no hint and so aims at the home:
    // the first op is forwarded A -> B (request, hop, ack) ...
    let first = cost(&mut eng, |e| {
        memput(e, 3, gva, vec![0xA1; 64], OpId::from_raw(1))
    });
    assert_eq!(first, (1, 3));
    assert_eq!(
        hint(&mut eng, 3, gva),
        Some(OwnerHint {
            owner: 2,
            generation: 2
        })
    );
    // ... and everything after it goes straight to B: request + ack.
    let put = cost(&mut eng, |e| {
        memput(e, 3, gva.with_offset(64), vec![0xA2; 64], OpId::from_raw(2))
    });
    let get = cost(&mut eng, |e| memget(e, 3, gva, 128, OpId::from_raw(3)));
    let amo = cost(&mut eng, |e| {
        let add = AmoOp::FetchAdd { operand: 5 };
        memamo(e, 3, gva.with_offset(256), add, OpId::from_raw(4))
    });
    assert_eq!([put, get, amo], [(0, 2); 3]);

    let mut want = vec![0xA1; 64];
    want.extend([0xA2; 64]);
    assert_eq!(get_data(&eng, 3), Some(want));
    let stats = eng.state.data.gas[3].stats;
    assert_eq!((stats.hints_learned, stats.retries), (1, 0));
    assert_eq!(eng.state.total_counters().nacks_sent, 0);
    assert_consistent(&eng, &arr.blocks);
}

#[test]
fn a_chain_is_compressed_to_its_end_in_one_op() {
    let mut eng = engine(5, GasMode::AgasNetwork);
    let arr = alloc_array(&mut eng, 5, 12, Distribution::Cyclic);
    let gva = arr.block(1);
    migrate(&mut eng, gva, 2, 900); // A = 1 -> B = 2
    let learned_b = cost(&mut eng, |e| memget(e, 4, gva, 8, OpId::from_raw(1)));
    assert_eq!(learned_b.0, 1);
    migrate(&mut eng, gva, 3, 901); // B -> C = 3, generation 3

    // Locality 4 holds a hint at B: one hop B -> C, and it learns C.
    let via_b = cost(&mut eng, |e| memget(e, 4, gva, 8, OpId::from_raw(2)));
    assert_eq!(via_b, (1, 3));
    let at_c = OwnerHint {
        owner: 3,
        generation: 3,
    };
    assert_eq!(hint(&mut eng, 4, gva), Some(at_c));
    // Locality 0 has no hint at all: home A -> B -> C, and it learns C too
    // — the end of the chain, not the next link.
    let via_a = cost(&mut eng, |e| memget(e, 0, gva, 8, OpId::from_raw(3)));
    assert_eq!(via_a, (2, 4));
    assert_eq!(hint(&mut eng, 0, gva), Some(at_c));
    for (loc, ctx) in [(4, 4), (0, 5)] {
        let direct = cost(&mut eng, |e| memget(e, loc, gva, 8, OpId::from_raw(ctx)));
        assert_eq!(direct, (0, 2), "locality {loc}");
    }
    assert_consistent(&eng, &arr.blocks);
}

#[test]
fn a_directory_reply_and_a_learned_hint_order_by_generation() {
    let mut eng = engine(4, GasMode::AgasNetwork);
    let arr = alloc_array(&mut eng, 4, 12, Distribution::Cyclic);
    let gva = arr.block(1);
    let block = gva.block_key();
    migrate(&mut eng, gva, 2, 900);
    memput(&mut eng, 3, gva, vec![1; 8], OpId::from_raw(1));
    eng.run();
    let learned = OwnerHint {
        owner: 2,
        generation: 2,
    };
    assert_eq!(hint(&mut eng, 3, gva), Some(learned));

    // A late reply from before the migration (the home answered while the
    // block was still at 1) must not clobber what the completion taught.
    let reply = |owner, generation| GasMsg::DirReply {
        block,
        owner,
        generation,
        ctx: OpId::from_raw(77), // no such op: only the cache is touched
    };
    handle_msg(&mut eng, 1, 3, reply(1, 1));
    assert_eq!(hint(&mut eng, 3, gva), Some(learned));
    // A newer record replaces it.
    handle_msg(&mut eng, 1, 3, reply(0, 3));
    assert_eq!(
        hint(&mut eng, 3, gva),
        Some(OwnerHint {
            owner: 0,
            generation: 3
        })
    );
}

#[test]
fn a_crash_purges_learned_hints_and_a_late_ack_cannot_replant_them() {
    let mut eng = engine(4, GasMode::AgasNetwork);
    let arr = alloc_array(&mut eng, 4, 12, Distribution::Cyclic);
    let gva = arr.block(1);
    migrate(&mut eng, gva, 2, 900);
    memput(&mut eng, 3, gva, vec![1; 8], OpId::from_raw(1));
    eng.run();
    assert_eq!(hint(&mut eng, 3, gva).map(|h| h.owner), Some(2));

    crash(&mut eng, 2);
    eng.run();
    assert_eq!(hint(&mut eng, 3, gva), None, "crash notice drops the hint");
    // An ack that left 2 just before it died surfaces afterwards.
    memput(&mut eng, 3, gva, vec![2; 8], OpId::from_raw(2));
    let op = eng.state.data.gas[3].op_snapshots()[0].id;
    on_pwc_redirected(&mut eng, 3, op, 2, 2);
    assert_eq!(hint(&mut eng, 3, gva), None);
    assert_eq!(
        eng.state.data.gas[3].stats.hints_learned, 1,
        "only the live one"
    );
    eng.run();
}

#[test]
fn ttl_exhaustion_still_nacks_and_recovers_through_the_home() {
    let net = NetConfig {
        forward_ttl: 1,
        ..NetConfig::ideal()
    };
    let mut eng = Engine::new(SimWorld::new(5, GasMode::AgasNetwork, net), 42);
    let arr = alloc_array(&mut eng, 5, 12, Distribution::Cyclic);
    let gva = arr.block(1);
    migrate(&mut eng, gva, 2, 900);
    migrate(&mut eng, gva, 3, 901); // chain 1 -> 2 -> 3, one hop allowed

    let before = eng.state.total_counters().nacks_sent;
    let bounced = cost(&mut eng, |e| {
        memput(e, 4, gva, vec![0xEE; 16], OpId::from_raw(1))
    });
    assert_eq!(bounced.0, 1, "the one hop the TTL allows");
    assert_eq!(eng.state.total_counters().nacks_sent - before, 1);
    let stats = eng.state.data.gas[4].stats;
    // A NACK teaches nothing; the directory does.
    assert_eq!((stats.retries, stats.hints_learned), (1, 0));
    assert_eq!(hint(&mut eng, 4, gva).map(|h| h.owner), Some(3));
    let direct = cost(&mut eng, |e| memget(e, 4, gva, 16, OpId::from_raw(2)));
    assert_eq!(direct, (0, 2));
    assert_eq!(get_data(&eng, 2), Some(vec![0xEE; 16]));
    assert_consistent(&eng, &arr.blocks);
}
