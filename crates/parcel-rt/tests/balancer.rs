//! The in-runtime load-balancer service: telemetry-driven migration.

use agas::{Distribution, GasMode};
use netsim::Time;
use parcel_rt::balancer::{plan, BlockHeat};
use parcel_rt::{BalancerConfig, Runtime};
use proptest::prelude::*;
use std::cell::Cell;
use std::rc::Rc;
use workloads::driver::IssueFn;

const MOBILE: [GasMode; 2] = [GasMode::AgasSoftware, GasMode::AgasNetwork];

/// Every locality issues `ops_per_loc` 512-byte gets at `target(loc, seq)`,
/// eight outstanding each.
fn traffic(
    rt: &mut Runtime,
    data: &agas::GlobalArray,
    ops_per_loc: u64,
    target: impl Fn(u32, u64) -> u64 + 'static,
) {
    let blocks = data.blocks.clone();
    let issue: Rc<IssueFn> = Rc::new(move |eng, loc, seq, ctx| {
        agas::ops::memget(eng, loc, blocks[target(loc, seq) as usize], 512, ctx);
    });
    let n = rt.n();
    workloads::driver::pump_all(&mut rt.eng, n, ops_per_loc, 8, issue, |_| {});
}

/// Which locality holds each block of `data` right now.
fn placement(rt: &Runtime, data: &agas::GlobalArray) -> Vec<u32> {
    data.blocks
        .iter()
        .map(|&g| rt.eng.state.locate(g).0)
        .collect()
}

fn hot_traffic(rt: &mut Runtime, data: &agas::GlobalArray, ops_per_loc: u64) {
    // Every locality hammers the first 4 blocks (all initially on loc 0).
    traffic(rt, data, ops_per_loc, |loc, seq| (seq + u64::from(loc)) % 4);
}

#[test]
fn balancer_spreads_hot_blocks() {
    for mode in [GasMode::AgasSoftware, GasMode::AgasNetwork] {
        let mut rt = Runtime::builder(4, mode).boot();
        // Blocked placement: the 4 hot blocks start together on locality 0.
        let data = rt.alloc(16, 13, Distribution::Blocked);
        rt.start_balancer(BalancerConfig {
            period: Time::from_us(100),
            moves_per_round: 2,
            min_heat: 4,
            ..BalancerConfig::default()
        });
        hot_traffic(&mut rt, &data, 600);
        rt.run();
        rt.assert_quiescent();
        let stats = rt.eng.state.balancer_stats;
        assert!(stats.rounds >= 2, "{mode:?}: balancer never ran");
        assert!(
            stats.migrations >= 2,
            "{mode:?}: balancer never moved anything"
        );
        // The 4 hot blocks must no longer share one locality.
        let owners: std::collections::HashSet<u32> =
            placement(&rt, &data)[..4].iter().copied().collect();
        assert!(
            owners.len() >= 2,
            "{mode:?}: hot set still colocated: {owners:?}"
        );
    }
}

#[test]
fn balancer_stops_when_idle() {
    let mut rt = Runtime::builder(2, GasMode::AgasNetwork).boot();
    let _data = rt.alloc(4, 12, Distribution::Cyclic);
    rt.start_balancer(BalancerConfig {
        period: Time::from_us(50),
        ..BalancerConfig::default()
    });
    // No traffic at all: the service must terminate so the engine quiesces.
    rt.run();
    assert!(
        rt.now() < Time::from_ms(1),
        "balancer kept the engine alive"
    );
    assert_eq!(rt.eng.state.balancer_stats.migrations, 0);
}

#[test]
fn balancer_ignores_balanced_load() {
    let mut rt = Runtime::builder(4, GasMode::AgasNetwork).boot();
    // Cyclic placement: load is already even.
    let data = rt.alloc(16, 13, Distribution::Cyclic);
    rt.start_balancer(BalancerConfig {
        period: Time::from_us(100),
        ..BalancerConfig::default()
    });
    let blocks = data.blocks.clone();
    let issue: Rc<IssueFn> = Rc::new(move |eng, loc, seq, ctx| {
        // Uniform traffic over all 16 blocks.
        let gva = blocks[((seq * 5 + loc as u64) % 16) as usize];
        agas::ops::memget(eng, loc, gva, 256, ctx);
    });
    workloads::driver::pump_all(&mut rt.eng, 4, 400, 8, issue, |_| {});
    rt.run();
    assert_eq!(
        rt.eng.state.balancer_stats.migrations, 0,
        "balanced load must not trigger migrations"
    );
}

#[test]
fn balancer_under_traffic_is_deterministic() {
    let run = || {
        let mut rt = Runtime::builder(4, GasMode::AgasNetwork).seed(5).boot();
        let data = rt.alloc(16, 13, Distribution::Blocked);
        rt.start_balancer(BalancerConfig {
            period: Time::from_us(100),
            ..BalancerConfig::default()
        });
        hot_traffic(&mut rt, &data, 400);
        rt.run();
        (rt.eng.trace_hash(), rt.eng.state.balancer_stats.migrations)
    };
    let counted = Rc::new(Cell::new(0));
    let _ = counted;
    assert_eq!(run(), run());
}

/// Regression test for hit-telemetry ordering: the balancer's inputs come
/// from `XlateTable::take_hit_telemetry`, which historically drained a
/// `HashMap` in iteration order — identical runs could hand the balancer
/// identically-valued candidates in different orders. The drain is now
/// sorted by block key; two identical runs must produce the identical
/// decision sequence, observed as the exact final placement of every block
/// (not just the migration count).
#[test]
fn identical_runs_make_identical_balancer_decisions() {
    let run = || {
        let mut rt = Runtime::builder(4, GasMode::AgasNetwork).seed(9).boot();
        let data = rt.alloc(16, 13, Distribution::Blocked);
        rt.start_balancer(BalancerConfig {
            period: Time::from_us(100),
            moves_per_round: 2,
            min_heat: 4,
            ..BalancerConfig::default()
        });
        hot_traffic(&mut rt, &data, 600);
        rt.run();
        rt.assert_quiescent();
        let placement = placement(&rt, &data);
        (
            rt.eng.trace_hash(),
            rt.eng.state.balancer_stats.migrations,
            placement,
        )
    };
    let a = run();
    let b = run();
    assert!(a.1 > 0, "workload never exercised a balancer decision");
    assert_eq!(a, b, "balancer decisions diverged between identical runs");
}

/// Hits counted before `start_balancer` are history, not load: a run
/// warmed uniformly and then skewed must act on the skew in round 1. (The
/// service used to leave the counters undrained, so round 1 saw the
/// warm-up, judged the cluster balanced and lost a whole period.)
#[test]
fn hits_before_start_are_ignored() {
    for mode in MOBILE {
        let mut rt = Runtime::builder(4, mode).boot();
        let data = rt.alloc(16, 13, Distribution::Blocked);
        // Warm-up: 32 000 uniform gets, far more than one period carries.
        traffic(&mut rt, &data, 8000, |loc, seq| {
            (seq * 5 + u64::from(loc)) % 16
        });
        rt.run();
        let period = Time::from_us(100);
        let started = rt.now();
        rt.start_balancer(BalancerConfig {
            period,
            min_heat: 4,
            ..BalancerConfig::default()
        });
        hot_traffic(&mut rt, &data, 600);
        rt.eng.run_until(started + period);
        let stats = rt.eng.state.balancer_stats;
        assert_eq!(stats.rounds, 1, "{mode:?}");
        assert!(
            stats.migrations > 0,
            "{mode:?}: round 1 judged the warm-up, not the skew"
        );
        rt.run();
        rt.assert_quiescent();
    }
}

/// Under a stationary skew the balancer converges: a block alone on its
/// locality cannot be moved to any effect and never moves again, and no
/// block moves in two consecutive rounds. (The hottest block used to
/// ping-pong: alone on a locality it still made that locality the
/// hottest, so every round moved it to the coolest.)
#[test]
fn a_stationary_skew_converges() {
    for mode in MOBILE {
        let mut rt = Runtime::builder(4, mode).boot();
        let data = rt.alloc(16, 13, Distribution::Blocked);
        let period = Time::from_us(100);
        let started = rt.now();
        rt.start_balancer(BalancerConfig {
            period,
            min_heat: 4,
            ..BalancerConfig::default()
        });
        // Half of all gets hit block 0; the rest spread over blocks 1–15.
        traffic(&mut rt, &data, 3000, |loc, seq| {
            if seq % 2 == 0 {
                0
            } else {
                1 + (seq / 2 + u64::from(loc)) % 15
            }
        });
        // Sample the placement just before each round: the previous
        // round's migrations have had a whole period to land.
        let mut samples = vec![placement(&rt, &data)];
        for k in 1..=12u64 {
            rt.eng.run_until(started + period * k - Time::from_ns(1));
            samples.push(placement(&rt, &data));
        }
        rt.run();
        rt.assert_quiescent();
        let stats = rt.eng.state.balancer_stats;
        assert!(stats.migrations > 0, "{mode:?}: nothing ever moved");
        assert!(
            stats.refused > 0,
            "{mode:?}: the hot block was never refused"
        );

        let moved = |k: usize, b: usize| samples[k][b] != samples[k - 1][b];
        for k in 1..samples.len() - 1 {
            for b in 0..16 {
                assert!(
                    !(moved(k, b) && moved(k + 1, b)),
                    "{mode:?}: block {b} moved in rounds {k} and {}: {samples:?}",
                    k + 1
                );
                let alone = (0..16).all(|o| o == b || samples[k][o] != samples[k][b]);
                assert!(
                    !(alone && moved(k + 1, b)),
                    "{mode:?}: block {b}, alone on locality {}, moved in round {}",
                    samples[k][b],
                    k + 1
                );
            }
        }
        let last = samples.last().unwrap();
        assert!(
            (1..16).all(|o| last[o] != last[0]),
            "{mode:?}: the hot block still shares its locality: {last:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For any heat vector and any policy parameters: every planned move
    /// strictly lowers `max(donor, receiver)`, the receiver never ends
    /// hotter than the donor, a block moves at most once and from the
    /// locality that holds it, and the plan is a pure function of the
    /// heat *set* — shuffling the input changes nothing.
    #[test]
    fn planned_moves_lower_the_maximum(
        n in 2u32..9,
        rows in proptest::collection::vec((0u64..2000, 0u32..9), 0..48),
        moves_per_round in 1usize..17,
        ratio_pct in 100u32..300,
        min_heat in 0u64..32,
        rotate in 0usize..48,
    ) {
        let heat: Vec<BlockHeat> = rows
            .iter()
            .enumerate()
            .map(|(i, &(hits, owner))| BlockHeat { block: i as u64 * 7 + 3, hits, owner: owner % n })
            .collect();
        let cfg = BalancerConfig {
            moves_per_round,
            imbalance_ratio: f64::from(ratio_pct) / 100.0,
            min_heat,
            ..BalancerConfig::default()
        };
        let planned = plan(&heat, n, &cfg);

        let mut load = vec![0u64; n as usize];
        for h in &heat {
            load[h.owner as usize] += h.hits;
        }
        prop_assert!(planned.moves.len() <= moves_per_round);
        let mut moved = std::collections::HashSet::new();
        for m in &planned.moves {
            let src = heat.iter().find(|h| h.block == m.block).expect("planned an unknown block");
            prop_assert_eq!((src.hits, src.owner), (m.hits, m.from));
            prop_assert!(m.hits >= min_heat.max(1) && m.from != m.to);
            prop_assert!(moved.insert(m.block), "block {} planned twice", m.block);
            let (from, to) = (m.from as usize, m.to as usize);
            let before = load[from].max(load[to]);
            load[from] -= m.hits;
            load[to] += m.hits;
            prop_assert!(load[from].max(load[to]) < before, "{:?} does not lower the maximum", m);
            prop_assert!(load[to] <= load[from], "{:?} leaves the receiver hotter", m);
        }

        let mut shuffled = heat.clone();
        shuffled.reverse();
        if !shuffled.is_empty() {
            let k = rotate % shuffled.len();
            shuffled.rotate_left(k);
        }
        prop_assert_eq!(plan(&shuffled, n, &cfg), planned);
    }
}
