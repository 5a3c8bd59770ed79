//! Fault injection: lost completions. The photon endpoint forgets its
//! in-flight wire ops (simulating a dropped completion/NACK), and the
//! per-locality deadline sweep must convert the resulting silence into a
//! deterministic `DeadlineExceeded` failure instead of a hang — under
//! jitter, and while migrations race the victim ops.

mod common;

use agas::migrate::migrate_block;
use agas::ops::{memget, memput};
use agas::{alloc_array, Distribution, GasMode, SimEv, SimWorld};
use netsim::{Engine, NetConfig, OpId, Time};

fn jittery() -> NetConfig {
    NetConfig {
        jitter_ns: 400,
        ..NetConfig::ideal()
    }
}

/// Build, run, and summarize one instance of the scenario: remote puts and
/// gets race migrations on a jittery fabric, and at `drop_at` every wire op
/// still in flight at locality 0 is forgotten.
fn run_scenario(seed: u64) -> (Vec<(Time, u32, SimEv)>, u64) {
    let mut eng = Engine::new(SimWorld::new(4, GasMode::AgasNetwork, jittery()), seed);
    for g in &mut eng.state.data.gas {
        g.cfg.op_deadline = Some(Time::from_us(40));
        g.cfg.sweep_interval = Time::from_us(5);
    }
    let arr = alloc_array(&mut eng, 4, 12, Distribution::Cyclic);
    for i in 0..8u64 {
        let gva = arr.block(i % 4).with_offset((i / 4) * 64);
        memput(&mut eng, 0, gva, vec![i as u8 + 1; 64], OpId::from_raw(i));
        memget(&mut eng, 0, gva, 64, OpId::from_raw(100 + i));
    }
    // Migrations race the in-flight ops.
    migrate_block(&mut eng, 1, arr.block(1), 3, OpId::from_raw(900));
    migrate_block(&mut eng, 2, arr.block(2), 0, OpId::from_raw(901));
    // Lose whatever locality 0 still has on the wire shortly after issue.
    eng.schedule(Time::from_ns(150), |eng| {
        eng.state.data.eps[0].drop_pending_ops();
    });
    eng.run();
    let events = eng.state.events();
    let failures = events
        .iter()
        .filter(|(_, _, e)| matches!(e, SimEv::OpFailed(_, _)))
        .count() as u64;
    (events, failures)
}

#[test]
fn dropped_completion_fails_deadline_instead_of_hanging() {
    // eng.run() returning at all proves no hang; the sweep must both
    // reclaim the orphaned ops and disarm afterwards.
    let (events, failures) = run_scenario(11);
    assert!(
        failures > 0,
        "dropping in-flight wire ops must surface DeadlineExceeded failures"
    );
    for (_, _, e) in &events {
        if let SimEv::OpFailed(_, msg) = e {
            assert!(
                msg.contains("deadline"),
                "expected a deadline failure, got: {msg}"
            );
        }
    }
    // Ops that were not dropped still complete.
    let completed = events
        .iter()
        .filter(|(_, _, e)| matches!(e, SimEv::PutDone(_) | SimEv::GetDone(_, _)))
        .count();
    assert!(
        completed + failures as usize >= 16,
        "every issued op must reach an outcome: {completed} completed, {failures} failed"
    );
}

#[test]
fn dropped_completion_recovery_is_deterministic() {
    let (a, fa) = run_scenario(23);
    let (b, fb) = run_scenario(23);
    assert_eq!(fa, fb);
    assert_eq!(a, b, "same seed must give an identical outcome timeline");
    // A different seed still terminates with the same accounting structure.
    let (_, fc) = run_scenario(24);
    assert!(fc > 0);
}

#[test]
fn no_deadline_configured_means_no_sweep_events() {
    // With op_deadline = None (the default) the sweep must never arm: the
    // schedule is identical to the seed behaviour, and nothing fails.
    let mut eng = Engine::new(SimWorld::new(2, GasMode::AgasNetwork, jittery()), 5);
    let arr = alloc_array(&mut eng, 2, 12, Distribution::Cyclic);
    memput(&mut eng, 0, arr.block(1), vec![3; 32], OpId::from_raw(1));
    eng.run();
    assert!(eng
        .state
        .events()
        .iter()
        .all(|(_, _, e)| !matches!(e, SimEv::OpFailed(_, _))));
    assert_eq!(eng.state.data.gas[0].outstanding_ops(), 0);
    assert!(!eng.state.data.gas[0].sweep_armed());
}
