//! How many events one operation costs, held to a budget.
//!
//! Every event on an op's path should model a real port, wire or CPU step.
//! A remote one-sided access is three on the network-managed path — the
//! request's arrival at the target, its commit there, the ack's arrival
//! back — plus, for a get, the landing of the data in the initiator's
//! buffer. The request itself is posted by whoever issues it, so nothing
//! is left to run at the issue instant.

use agas::ops::{memamo, memget, memput};
use agas::{alloc_array, Distribution, GasMode, GlobalArray, SimWorld};
use netsim::{AmoOp, Engine, NetConfig, OpId};

/// Ops issued before counting starts, so every queue has its working size.
const WARM: u64 = 2048;

/// Ops counted.
const COUNTED: u64 = 256;

#[derive(Clone, Copy, Debug)]
enum Kind {
    Put,
    Get,
    Amo,
}

/// A quiet two-locality world with one 4 KiB block homed at each.
fn world(mode: GasMode) -> (Engine<SimWorld>, GlobalArray) {
    let mut eng = Engine::new(SimWorld::new(2, mode, NetConfig::ib_fdr()), 42);
    eng.state.data.record_events = false;
    let arr = alloc_array(&mut eng, 2, 12, Distribution::Cyclic);
    eng.run();
    (eng, arr)
}

/// Issue one op from the driver at locality 0 against `block`'s home.
fn issue(eng: &mut Engine<SimWorld>, arr: &GlobalArray, block: u64, kind: Kind, i: u64) {
    let gva = arr.block(block);
    let ctx = OpId::from_raw(i);
    match kind {
        Kind::Put => memput(eng, 0, gva, vec![i as u8; 8], ctx),
        Kind::Get => memget(eng, 0, gva, 8, ctx),
        Kind::Amo => memamo(eng, 0, gva, AmoOp::FetchAdd { operand: 1 }, ctx),
    }
}

/// Events executed per op in steady state, each op run to quiescence
/// before the next is issued.
fn per_op(mode: GasMode, block: u64, kind: Kind) -> f64 {
    let (mut eng, arr) = world(mode);
    for i in 0..WARM {
        issue(&mut eng, &arr, block, kind, i);
        eng.run();
    }
    let before = eng.events_executed();
    for i in WARM..WARM + COUNTED {
        issue(&mut eng, &arr, block, kind, i);
        eng.run();
    }
    let ops = eng.state.put_acks() + eng.state.get_acks() + eng.state.amo_acks();
    assert_eq!((ops, eng.state.op_failures()), (WARM + COUNTED, 0));
    (eng.events_executed() - before) as f64 / COUNTED as f64
}

/// `[put, get, AMO]` events per remote op under `mode`.
fn remote(mode: GasMode) -> [f64; 3] {
    [Kind::Put, Kind::Get, Kind::Amo].map(|k| per_op(mode, 1, k))
}

#[test]
fn a_network_managed_access_is_three_events_and_a_landing() {
    assert_eq!(remote(GasMode::AgasNetwork), [3.0, 4.0, 3.0]);
}

#[test]
fn a_pgas_access_is_the_same_and_its_amo_goes_through_software() {
    assert_eq!(remote(GasMode::Pgas), [3.0, 4.0, 5.0]);
}

#[test]
fn a_software_managed_access_is_five_events() {
    assert_eq!(remote(GasMode::AgasSoftware), [5.0, 5.0, 5.0]);
}

#[test]
fn a_resident_access_is_one_event() {
    for mode in [GasMode::Pgas, GasMode::AgasSoftware, GasMode::AgasNetwork] {
        for kind in [Kind::Put, Kind::Get, Kind::Amo] {
            assert_eq!(per_op(mode, 0, kind), 1.0, "{mode:?} {kind:?}");
        }
    }
}

#[test]
fn a_driver_issued_access_leaves_nothing_at_the_issue_instant() {
    for mode in [GasMode::Pgas, GasMode::AgasSoftware, GasMode::AgasNetwork] {
        for kind in [Kind::Put, Kind::Get] {
            let (mut eng, arr) = world(mode);
            issue(&mut eng, &arr, 1, kind, 0);
            assert!(eng.events_pending() > 0, "{mode:?} {kind:?} posted nothing");
            let now = eng.now();
            assert_eq!(
                eng.run_until(now),
                0,
                "{mode:?} {kind:?} left an event at {now}"
            );
            eng.run();
            assert_eq!(eng.state.op_failures(), 0);
        }
    }
}
