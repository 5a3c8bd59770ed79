//! Lane-count independence of the sharded parcel runtime.
//!
//! Every workload in [`parcel_rt::workloads`] must produce the same
//! answer *and* the same folded `(time, seq)` schedule on the sequential
//! engine and on the sharded engine at 1/2/4/8 lanes — with and without
//! parcel submission rings, in both AGAS modes. The trace hash folds every
//! executed event, so equality here is a complete witness that sharded
//! execution replayed the sequential schedule bit-for-bit.

use agas::GasMode;
use netsim::{NetConfig, RingConfig, Time};
use parcel_rt::workloads::{bfs_tree, ping_pong, spray_reduce, WorkloadResult, WorkloadSpec};

const LANES: [Option<usize>; 5] = [None, Some(1), Some(2), Some(4), Some(8)];

fn jittery() -> NetConfig {
    NetConfig {
        jitter_ns: 400,
        ..NetConfig::ideal()
    }
}

/// Run `f` across the lane grid and assert every run reproduces the
/// sequential result exactly.
fn grid(name: &str, f: impl Fn(&WorkloadSpec) -> WorkloadResult, base: WorkloadSpec) {
    let mut reference: Option<WorkloadResult> = None;
    for lanes in LANES {
        let spec = WorkloadSpec { lanes, ..base };
        let got = f(&spec);
        assert!(
            got.correct(),
            "{name} (lanes={lanes:?}): value {} != expected {}",
            got.value,
            got.expected
        );
        match &reference {
            None => reference = Some(got),
            Some(want) => assert_eq!(
                &got, want,
                "{name} (lanes={lanes:?}): diverged from sequential run"
            ),
        }
    }
}

#[test]
fn ping_pong_is_lane_independent() {
    for mode in [GasMode::AgasNetwork, GasMode::AgasSoftware] {
        let spec = WorkloadSpec {
            net: jittery(),
            ..WorkloadSpec::new(4, mode)
        };
        grid("ping_pong", |s| ping_pong(s, 40), spec);
    }
}

#[test]
fn spray_reduce_is_lane_independent() {
    for mode in [GasMode::AgasNetwork, GasMode::AgasSoftware] {
        let spec = WorkloadSpec {
            net: jittery(),
            ..WorkloadSpec::new(8, mode)
        };
        grid("spray_reduce", spray_reduce, spec);
    }
}

#[test]
fn bfs_tree_is_lane_independent() {
    for mode in [GasMode::AgasNetwork, GasMode::AgasSoftware] {
        let spec = WorkloadSpec {
            net: jittery(),
            ..WorkloadSpec::new(8, mode)
        };
        grid("bfs_tree", bfs_tree, spec);
    }
}

#[test]
fn ringed_parcels_stay_lane_independent() {
    // Submission rings batch parcels into shared doorbells; the coalesced
    // schedule must still replay identically across lanes.
    let ring = RingConfig {
        doorbell_batch: 4,
        doorbell_delay: Time::from_ns(300),
        ..RingConfig::default()
    };
    let spec = WorkloadSpec {
        ring: Some(ring),
        ..WorkloadSpec::new(6, GasMode::AgasNetwork)
    };
    grid("spray_reduce+ring", spray_reduce, spec);
    grid("bfs_tree+ring", bfs_tree, spec);
}
