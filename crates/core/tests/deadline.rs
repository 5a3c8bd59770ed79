//! Fault injection: lost completions. Locality 0 gives up on its
//! in-flight RDMA attempts (simulating a dropped completion/NACK), and the
//! per-locality deadline sweep must turn the resulting silence into a
//! retry through the home while the op has budget left, and into a
//! deterministic `DeadlineExceeded` failure once it has none — never a
//! hang — under jitter, and while migrations race the victim ops.

mod common;

use agas::migrate::migrate_block;
use agas::ops::{memget, memput};
use agas::{alloc_array, Distribution, GasMode, SimEv, SimWorld};
use netsim::{Engine, NetConfig, OpId, Time};

/// Ops issued by [`run_scenario`].
const OPS: usize = 16;

fn jittery() -> NetConfig {
    NetConfig {
        jitter_ns: 400,
        ..NetConfig::ideal()
    }
}

/// What one run of [`run_scenario`] left behind.
struct Outcome {
    events: Vec<(Time, u32, SimEv)>,
    completed: usize,
    failures: usize,
    deadline_retries: u64,
    deadline_exceeded: u64,
}

/// Locality 0 loses every answer to its in-flight RDMA attempts every
/// `every` until `until`.
fn keep_dropping(eng: &mut Engine<SimWorld>, every: Time, until: Time) {
    eng.state.data.gas[0].lose_rdma_answers();
    if eng.now() + every <= until {
        eng.schedule(every, move |eng| keep_dropping(eng, every, until));
    }
}

/// Build, run, and summarize one instance of the scenario: remote puts and
/// gets race migrations on a jittery fabric, and locality 0 forgets what
/// it still has on the wire at 150 ns — and, with `persist`, every 500 ns
/// for the next 2 ms, so no re-issue gets through either. Each op may be
/// re-issued `max_attempts` times.
fn run_scenario(seed: u64, max_attempts: u32, persist: bool) -> Outcome {
    let mut eng = Engine::new(SimWorld::new(4, GasMode::AgasNetwork, jittery()), seed);
    for g in &mut eng.state.data.gas {
        g.cfg.op_deadline = Some(Time::from_us(40));
        g.cfg.sweep_interval = Time::from_us(5);
        g.cfg.max_attempts = max_attempts;
    }
    let arr = alloc_array(&mut eng, 4, 12, Distribution::Cyclic);
    for i in 0..OPS as u64 / 2 {
        let gva = arr.block(i % 4).with_offset((i / 4) * 64);
        memput(&mut eng, 0, gva, vec![i as u8 + 1; 64], OpId::from_raw(i));
        memget(&mut eng, 0, gva, 64, OpId::from_raw(100 + i));
    }
    // Migrations race the in-flight ops.
    migrate_block(&mut eng, 1, arr.block(1), 3, OpId::from_raw(900));
    migrate_block(&mut eng, 2, arr.block(2), 0, OpId::from_raw(901));
    let until = if persist {
        Time::from_ms(2)
    } else {
        Time::ZERO
    };
    eng.schedule(Time::from_ns(150), move |eng| {
        keep_dropping(eng, Time::from_ns(500), until)
    });
    eng.run();
    let events = eng.state.events();
    let count = |f: fn(&SimEv) -> bool| events.iter().filter(|(_, _, e)| f(e)).count();
    let stats = eng.state.total_gas_stats();
    Outcome {
        completed: count(|e| matches!(e, SimEv::PutDone(_) | SimEv::GetDone(_, _))),
        failures: count(|e| matches!(e, SimEv::OpFailed(_, _))),
        deadline_retries: stats.deadline_retries,
        deadline_exceeded: stats.deadline_exceeded,
        events,
    }
}

#[test]
fn dropped_completion_with_budget_left_is_recovered() {
    // eng.run() returning at all proves no hang; the sweep must re-issue
    // the orphaned ops and disarm once they complete.
    let o = run_scenario(11, 64, false);
    assert!(
        o.deadline_retries > 0,
        "dropping in-flight wire ops must send the sweep's retries home"
    );
    assert_eq!(o.failures, 0, "an op with budget left failed");
    assert_eq!(o.deadline_exceeded, 0);
    assert_eq!(o.completed, OPS, "every issued op must complete");
}

#[test]
fn dropped_completion_fails_deadline_instead_of_hanging() {
    // Losses that persist past every retry: once the budget is spent the
    // sweep fails the op with DeadlineExceeded instead of waiting forever.
    let max_attempts = 2;
    let o = run_scenario(11, max_attempts, true);
    assert!(o.deadline_retries > 0, "the budget was never spent");
    assert!(
        o.failures > 0,
        "persistent losses must surface DeadlineExceeded failures"
    );
    assert_eq!(o.deadline_exceeded, o.failures as u64);
    for (_, _, e) in &o.events {
        if let SimEv::OpFailed(_, msg) = e {
            assert!(
                msg.contains("exceeded deadline"),
                "expected a deadline failure, got: {msg}"
            );
            assert!(
                msg.contains(&format!("{max_attempts} attempts")),
                "failed before its budget was spent: {msg}"
            );
        }
    }
    // Ops whose path the losses never touch still complete.
    assert_eq!(
        o.completed + o.failures,
        OPS,
        "every issued op must reach an outcome: {} completed, {} failed",
        o.completed,
        o.failures
    );
}

#[test]
fn dropped_completion_recovery_is_deterministic() {
    for persist in [false, true] {
        let a = run_scenario(23, 2, persist);
        let b = run_scenario(23, 2, persist);
        assert_eq!(
            a.events, b.events,
            "same seed must give an identical outcome timeline"
        );
        assert_eq!(
            (a.deadline_retries, a.deadline_exceeded),
            (b.deadline_retries, b.deadline_exceeded)
        );
    }
    // A different seed still recovers.
    assert!(run_scenario(24, 64, false).deadline_retries > 0);
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
