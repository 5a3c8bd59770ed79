//! Protocol-level tests of the shared-memory domain short-circuit: puts,
//! gets, and AMOs between co-located localities pay load/store costs and
//! send **zero wire messages**, while cross-domain ops (and co-located
//! ops after a migration race) still behave exactly like the
//! network path.

mod common;

use agas::ops::{memamo, memget, memput};
use agas::{alloc_array, Distribution, GasMode, SimEv, SimWorld};
use common::assert_consistent;
use netsim::{AmoOp, AmoResult, Engine, NetConfig, OpId, ShmDomain, Time};

/// Four localities, two shm domains: {0,1} and {2,3}.
fn shm_engine(mode: GasMode) -> Engine<SimWorld> {
    let net = NetConfig {
        shm: Some(ShmDomain::node(2)),
        ..NetConfig::ideal()
    };
    Engine::new(SimWorld::new(4, mode, net), 42)
}

fn get_data(eng: &Engine<SimWorld>, ctx: u64) -> Option<Vec<u8>> {
    eng.state.events().iter().find_map(|(_, _, e)| match e {
        SimEv::GetDone(c, d) if *c == ctx => Some(d.clone()),
        _ => None,
    })
}

fn amo_result(eng: &Engine<SimWorld>, ctx: u64) -> Option<AmoResult> {
    eng.state.events().iter().find_map(|(_, _, e)| match e {
        SimEv::AmoDone(c, r) if *c == ctx => Some(r.clone()),
        _ => None,
    })
}

fn wire_messages(eng: &Engine<SimWorld>) -> u64 {
    let c = eng.state.total_counters();
    c.msgs_sent + c.rdma_puts + c.rdma_gets
}

#[test]
fn intra_domain_ops_send_zero_messages() {
    for mode in GasMode::ALL {
        let mut eng = shm_engine(mode);
        let arr = alloc_array(&mut eng, 8, 12, Distribution::Cyclic);
        // Block 1 is homed at locality 1 — locality 0's domain partner.
        let gva = arr.block(1).with_offset(128);
        memput(&mut eng, 0, gva, vec![0xAB; 64], OpId::from_raw(1));
        eng.run();
        memget(&mut eng, 0, gva, 64, OpId::from_raw(2));
        eng.run();
        assert_eq!(
            get_data(&eng, 2).unwrap(),
            vec![0xAB; 64],
            "{mode:?}: shm data corrupt"
        );
        memamo(
            &mut eng,
            0,
            arr.block(1),
            AmoOp::FetchAdd { operand: 9 },
            OpId::from_raw(3),
        );
        eng.run();
        assert_eq!(amo_result(&eng, 3).unwrap().old, 0, "{mode:?}");
        assert_eq!(wire_messages(&eng), 0, "{mode:?}: shm ops hit the wire");
        let g = &eng.state.data.gas[0];
        assert_eq!(g.stats.shm_ops, 3, "{mode:?}: ops missed the shm path");
        assert_eq!(g.stats.shm_bytes, 64 + 64 + 8, "{mode:?}");
        assert_consistent(&eng, &arr.blocks);
    }
}

#[test]
fn cross_domain_ops_still_ride_the_fabric() {
    for mode in GasMode::ALL {
        let mut eng = shm_engine(mode);
        let arr = alloc_array(&mut eng, 8, 12, Distribution::Cyclic);
        // Block 2 is homed at locality 2 — the *other* domain.
        let gva = arr.block(2).with_offset(32);
        memput(&mut eng, 0, gva, vec![0x5A; 32], OpId::from_raw(1));
        eng.run();
        memget(&mut eng, 0, gva, 32, OpId::from_raw(2));
        eng.run();
        assert_eq!(get_data(&eng, 2).unwrap(), vec![0x5A; 32], "{mode:?}");
        assert!(
            wire_messages(&eng) > 0,
            "{mode:?}: cross-domain op skipped the fabric"
        );
        assert_eq!(eng.state.data.gas[0].stats.shm_ops, 0, "{mode:?}");
        assert_consistent(&eng, &arr.blocks);
    }
}

#[test]
fn local_ops_bypass_the_domain_accounting() {
    // Initiator == home stays on the plain local fast path — the domain
    // short-circuit only covers *distinct* co-located localities.
    let mut eng = shm_engine(GasMode::AgasNetwork);
    let arr = alloc_array(&mut eng, 8, 12, Distribution::Cyclic);
    memput(&mut eng, 0, arr.block(0), vec![3; 16], OpId::from_raw(1));
    eng.run();
    let g = &eng.state.data.gas[0];
    assert_eq!(g.stats.local_ops, 1);
    assert_eq!(g.stats.shm_ops, 0);
    assert_eq!(wire_messages(&eng), 0);
}

#[test]
fn shm_amos_serialize_against_each_other() {
    // Both members of domain {0,1} hammer one word homed at locality 1;
    // the commits all run on the home's lane, so the final count is exact.
    let mut eng = shm_engine(GasMode::AgasNetwork);
    let arr = alloc_array(&mut eng, 4, 12, Distribution::Cyclic);
    let hot = arr.block(1);
    for i in 0..32u64 {
        memamo(
            &mut eng,
            (i % 2) as u32,
            hot,
            AmoOp::FetchAdd { operand: 1 },
            OpId::from_raw(i),
        );
    }
    eng.run();
    memamo(
        &mut eng,
        1,
        hot,
        AmoOp::FetchAdd { operand: 0 },
        OpId::from_raw(500),
    );
    eng.run();
    assert_eq!(amo_result(&eng, 500).unwrap().old, 32);
    // Locality 1's 16 AMOs + the read-back are local; locality 0's 16
    // took the shm path. Nothing touched the wire.
    assert_eq!(eng.state.data.gas[0].stats.shm_ops, 16);
    assert_eq!(wire_messages(&eng), 0);
}

#[test]
fn shm_access_beats_the_wire() {
    // The same put, A/B: inside a domain vs. over the (ideal) fabric.
    let timed_put = |net: NetConfig| {
        let mut eng = Engine::new(SimWorld::new(4, GasMode::AgasNetwork, net), 42);
        let arr = alloc_array(&mut eng, 4, 12, Distribution::Cyclic);
        let t0 = eng.now();
        memput(&mut eng, 0, arr.block(1), vec![1; 256], OpId::from_raw(1));
        eng.run();
        let done = eng
            .state
            .events()
            .iter()
            .find(|(_, _, e)| matches!(e, SimEv::PutDone(1)))
            .map(|(t, _, _)| *t)
            .expect("put incomplete");
        done - t0
    };
    let wire = timed_put(NetConfig::ib_fdr());
    let shm = timed_put(NetConfig {
        shm: Some(ShmDomain::node(2)),
        ..NetConfig::ib_fdr()
    });
    assert!(
        shm < wire,
        "shm put ({shm}) not faster than the wire ({wire})"
    );
    assert!(
        shm < Time::from_us(1),
        "load/store model should land well under a microsecond, got {shm}"
    );
}
