//! Shape-regression tests: the orderings and crossovers the evaluation
//! reports (EXPERIMENTS.md) are asserted here, so a cost-model or protocol
//! change that silently breaks a headline result fails CI instead of
//! shipping a wrong table.

use agas::GasMode;
use bench::*;
use netsim::{NetConfig, Time};
use photon::PhotonConfig;

#[test]
fn e1_shape_net_tracks_pgas_sw_trails() {
    let net = NetConfig::ib_fdr();
    for size in [8u32, 4096, 262144] {
        let p = put_latency(GasMode::Pgas, size, net);
        let s = put_latency(GasMode::AgasSoftware, size, net);
        let n = put_latency(GasMode::AgasNetwork, size, net);
        assert!(n >= p, "size {size}");
        assert!(
            n - p <= Time::from_ns(100),
            "size {size}: NIC adder too big"
        );
        assert!(s > n, "size {size}: SW must trail NET");
    }
}

#[test]
fn e2_shape_holds_for_gets() {
    let net = NetConfig::ib_fdr();
    let p = get_latency(GasMode::Pgas, 4096, net);
    let s = get_latency(GasMode::AgasSoftware, 4096, net);
    let n = get_latency(GasMode::AgasNetwork, 4096, net);
    assert!(n >= p && n - p <= Time::from_ns(100));
    assert!(s > n);
}

#[test]
fn e3_bandwidth_converges_to_link() {
    let net = NetConfig::ib_fdr();
    let link = net.bandwidth_bytes_per_sec() / 1e9;
    for mode in GasMode::ALL {
        let bw = put_bandwidth(mode, 1 << 20, net);
        assert!(bw > link * 0.9, "{mode:?}: {bw} vs link {link}");
        assert!(bw <= link * 1.01, "{mode:?}: {bw} exceeds the wire");
    }
}

#[test]
fn e4_sw_flatlines_before_one_sided_modes() {
    let net = NetConfig::ib_fdr();
    let sw_32 = message_rate(GasMode::AgasSoftware, 32, net);
    let sw_128 = message_rate(GasMode::AgasSoftware, 128, net);
    let net_128 = message_rate(GasMode::AgasNetwork, 128, net);
    // SW stops scaling (CPU ceiling); NET keeps going well past it.
    assert!(sw_128 < sw_32 * 1.2, "SW kept scaling: {sw_32} -> {sw_128}");
    assert!(
        net_128 > sw_128 * 1.5,
        "NET ceiling not above SW: {net_128} vs {sw_128}"
    );
}

#[test]
fn e4b_ports_scale_message_rate() {
    let r1 = message_rate_ports(1);
    let r4 = message_rate_ports(4);
    assert!(r4 > r1 * 2.0, "ports didn't scale: {r1} -> {r4}");
}

#[test]
fn e5_gups_ordering_at_8_localities() {
    let net = NetConfig::ib_fdr();
    let p = gups_scaling(GasMode::Pgas, 8, net);
    let s = gups_scaling(GasMode::AgasSoftware, 8, net);
    let n = gups_scaling(GasMode::AgasNetwork, 8, net);
    assert!(n.mups > s.mups, "NET {} !> SW {}", n.mups, s.mups);
    assert!(n.mups > p.mups * 0.9, "NET too far below PGAS");
    assert!(s.cpu_per_mupdate > 0.1, "SW must burn target CPU");
    assert!(n.cpu_per_mupdate < 0.01, "NET must not burn target CPU");
}

#[test]
fn e6_capacity_cliff_and_fallback() {
    let net = |c| table_capacity(GasMode::AgasNetwork, c);
    let (full, starved) = (net(usize::MAX), net(8));
    assert!(full.hit_rate.unwrap() > 0.999);
    assert!(starved.hit_rate.unwrap() < 0.5);
    assert!(starved.mups < full.mups / 2.0);
    assert!(starved.sw_fallbacks > 0, "fallback path never engaged");
    // No table at all is AGAS-SW, bit for bit on E6's own config, and it
    // beats a tiny table: NACK storms cost more than the owner's CPU.
    let (none, sw) = (net(0), table_capacity(GasMode::AgasSoftware, usize::MAX));
    assert_eq!(none.mups.to_bits(), sw.mups.to_bits(), "{none:?} vs {sw:?}");
    assert_eq!((none.hit_rate, none.sw_fallbacks), (None, 0));
    assert!(none.mups > net(4).mups, "capacity 4 beat no table");
}

#[test]
fn e7_migration_cost_scales_with_size() {
    let net = NetConfig::ib_fdr();
    let small = migration_cost(GasMode::AgasNetwork, 12, net);
    let big = migration_cost(GasMode::AgasNetwork, 20, net);
    // 256× the bytes: at least 20× the time (fixed costs amortize).
    assert!(big > small * 20, "small={small} big={big}");
}

#[test]
fn e8_mobility_beats_static_placement() {
    let pgas = skew_row(GasMode::Pgas, false, 8);
    let net = skew_row(GasMode::AgasNetwork, true, 8);
    assert!(net.migrations > 0);
    assert!(
        net.elapsed.ps() as f64 <= pgas.elapsed.ps() as f64 * 0.8,
        "rebalancing won less than 1.25x: {} vs {}",
        net.elapsed,
        pgas.elapsed
    );
}

/// Per-iteration times `(PGAS, SW, NET)`: NET within 0.1 % of PGAS, SW
/// behind NET and within 3 % of PGAS.
fn assert_halo_modes_agree(what: &str, [p, s, n]: [Time; 3]) {
    let (p, s, n) = (p.ps() as f64, s.ps() as f64, n.ps() as f64);
    assert!((n - p).abs() <= p * 0.001, "{what}: NET {n} vs PGAS {p}");
    assert!(s > n, "{what}: SW {s} must trail NET {n}");
    assert!(
        s <= p * 1.03,
        "{what}: SW {s} more than 3 % behind PGAS {p}"
    );
}

#[test]
fn e9_halo_exchange_modes_agree() {
    let net = NetConfig::ib_fdr();
    for n in [4usize, 16, 64] {
        let t = GasMode::ALL.map(|mode| stencil_row(mode, n, net).per_iter);
        assert_halo_modes_agree(&format!("E9 at {n} localities"), t);
    }
    for n in [4usize, 16] {
        let t = GasMode::ALL.map(|mode| stencil3d_row(mode, n).per_iter);
        assert_halo_modes_agree(&format!("E9b at {n} localities"), t);
    }
}

#[test]
fn e10_footprints_are_structural() {
    let p = protocol_footprint(GasMode::Pgas, true);
    assert_eq!(
        (p.rdma_ops, p.messages, p.cpu_handlers, p.nic_xlates),
        (1, 0, 0, 0)
    );
    let n = protocol_footprint(GasMode::AgasNetwork, true);
    assert_eq!(
        (n.rdma_ops, n.messages, n.cpu_handlers, n.nic_xlates),
        (1, 0, 0, 1)
    );
    let s = protocol_footprint(GasMode::AgasSoftware, true);
    assert_eq!(s.rdma_ops, 0);
    assert_eq!(s.cpu_handlers, 1);
    assert!(s.messages >= 2);
}

#[test]
fn e11_pwc_beats_isir() {
    let pwc = parcel_latency(parcel_rt::Transport::Pwc, 64);
    let isir = parcel_latency(parcel_rt::Transport::Isir, 64);
    assert!(isir > pwc, "isir={isir} pwc={pwc}");
    // Above the eager threshold the gap includes a rendezvous handshake.
    let pwc_big = parcel_latency(parcel_rt::Transport::Pwc, 8192);
    let isir_big = parcel_latency(parcel_rt::Transport::Isir, 8192);
    assert!(
        isir_big > pwc_big + Time::from_us(1),
        "{isir_big} vs {pwc_big}"
    );
}

#[test]
fn e12_oversubscription_caps_aggregate_bandwidth() {
    let full = bisection_bandwidth(1);
    let eighth = bisection_bandwidth(8);
    assert!(full > eighth * 3.0, "full={full} eighth={eighth}");
    // 8:1 on 8 nodes = one link's worth.
    assert!(eighth < 7.5, "eighth={eighth} exceeds one link");
}

#[test]
fn e13_bfs_scales_with_localities() {
    let mut last = 0.0;
    for n in [2usize, 4, 8, 16, 32] {
        let pwc = bfs_teps(n, parcel_rt::Transport::Pwc);
        let isir = bfs_teps(n, parcel_rt::Transport::Isir);
        assert!(
            pwc > last,
            "{n} localities: PWC {pwc} TEPS not above {last}"
        );
        assert!(pwc > isir, "{n} localities: PWC {pwc} vs ISIR {isir}");
        last = pwc;
    }
}

#[test]
fn e14_flood_coalescing_wins_where_rate_bound() {
    let plain = parcel_flood(false, 1024);
    let batched = parcel_flood(true, 1024);
    assert!(batched.messages * 4 < plain.messages);
    assert!(
        batched.elapsed < plain.elapsed,
        "coalescing lost on the rate-bound fabric: {} vs {}",
        batched.elapsed,
        plain.elapsed
    );
}

#[test]
fn e15_transpose_is_fabric_bound() {
    let mut last: Option<[f64; 3]> = None;
    for factor in [1u64, 2, 4] {
        let gbps = GasMode::ALL.map(|mode| transpose_bandwidth(mode, factor));
        let (lo, hi) = gbps
            .iter()
            .fold((f64::MAX, 0f64), |(lo, hi), &g| (lo.min(g), hi.max(g)));
        assert!(hi <= lo * 1.03, "factor {factor}: modes spread {gbps:?}");
        if let Some(prev) = last {
            for (p, g) in prev.iter().zip(&gbps) {
                assert!(g < p, "factor {factor}: {gbps:?} not below {prev:?}");
            }
        }
        last = Some(gbps);
    }
}

#[test]
fn a1_rcache_saves_time() {
    assert!(rcache_ablation(PhotonConfig::default().rcache_pages) < rcache_ablation(0));
}

#[test]
fn a3_forwarding_beats_nack_for_stale_ops() {
    let fwd = migration_race(NetConfig::ib_fdr().forward_ttl);
    let nack = migration_race(0);
    assert!(fwd.stale_put_latency < nack.stale_put_latency);
    assert!(fwd.forwards >= 1);
    assert_eq!(fwd.nacks, 0);
    assert!(nack.nacks >= 1);
    assert_eq!(nack.forwards, 0);
    // The forwarded completion corrects the hint: the next put is direct.
    assert_eq!((fwd.hints_learned, nack.hints_learned), (1, 0));
    assert_eq!(fwd.fresh_put_latency, nack.fresh_put_latency);
}

#[test]
fn migration_churn_collapses_forwards_and_parks() {
    let before = netsim::telemetry::snapshot();
    let r = migration_churn();
    let memo_hits = netsim::telemetry::snapshot().since(before).memo_hits;
    assert!(memo_hits > 0, "churn never hit the owner-cache memo");
    assert!(
        r.hints_learned > 0,
        "no forwarded completion taught its initiator"
    );
    // Forwards stay a one-time cost per (initiator, migration).
    assert!(
        (r.xlate_forwards as f64) < r.ops as f64 * 0.1,
        "forward chains are not collapsing: {r:?}"
    );
    // Forwards that outrun a hand-off park at the new owner's NIC instead
    // of NACKing.
    assert!(r.parked > 0, "no forward ever parked behind a hand-off");
    assert!(
        (r.nacks as f64) < r.ops as f64 * 0.001,
        "the migration window is NACKing again: {r:?}"
    );
    // The balancer refuses moves that cannot lower the maximum; one that
    // relocates the hottest block every round makes 4.
    assert!(
        r.migrations < 4,
        "the balancer relocates the maximum again: {r:?}"
    );
    assert!(r.refused > 0, "the balancer never refused a move");
}

#[test]
fn translation_counters_are_live() {
    // Other tests only add lookups, each with its own (>=) probes.
    let before = netsim::telemetry::snapshot();
    gups_scaling(GasMode::AgasNetwork, 8, NetConfig::ib_fdr());
    let d = netsim::telemetry::snapshot().since(before);
    assert!(d.xlate_lookups > 0, "GUPS drove no NIC translations");
    assert!(
        d.xlate_probes >= d.xlate_lookups,
        "probe count below lookup count: {d:?}"
    );
}

#[test]
fn concurrent_amo_cells_count_only_their_own_nic_ops() {
    let cfg = AmoBenchConfig::default();
    let kind = agas::AmoPumpKind::FetchAdd;
    let alone = amo_bench(&cfg, kind, GasMode::AgasNetwork);
    // Both cells start together, so their runs overlap.
    let start = std::sync::Barrier::new(2);
    let cell = |mode| {
        start.wait();
        amo_bench(&cfg, kind, mode)
    };
    let (sw, net) = std::thread::scope(|s| {
        let sw = s.spawn(|| cell(GasMode::AgasSoftware));
        let net = s.spawn(|| cell(GasMode::AgasNetwork));
        (sw.join().unwrap(), net.join().unwrap())
    });
    assert_eq!(sw.nic_executed, 0, "the emulated cell saw NIC AMOs");
    let nic = |r: &AmoBenchRow| (r.nic_executed, r.nic_nacked, r.nic_forwarded, r.trace_hash);
    assert!(alone.nic_executed > 0);
    assert_eq!(
        nic(&net),
        nic(&alone),
        "the NIC cell's counts moved beside another cell"
    );
}

#[test]
fn e1b_sw_has_the_fat_tail() {
    let (_, p99_net) = loaded_latency(GasMode::AgasNetwork);
    let (_, p99_sw) = loaded_latency(GasMode::AgasSoftware);
    assert!(p99_sw > p99_net, "sw p99 {p99_sw} !> net p99 {p99_net}");
}
