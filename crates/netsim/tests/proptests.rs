//! Property-based tests for the simulator substrate.

use netsim::engine::Engine;
use netsim::faults::FaultClass;
use netsim::flatmap::{FlatTable, LruInsert};
use netsim::net::{rdma_put, send_user, Cluster, Envelope, Packet, Protocol, PutReq, RdmaTarget};
use netsim::nic::XlateEntry;
use netsim::queue::ServerPool;
use netsim::time::Time;
use netsim::NetConfig;
use proptest::prelude::*;

// ---------------------------------------------------------------- engine

proptest! {
    /// Events always execute in nondecreasing time order, whatever the
    /// schedule, and the clock never runs backwards.
    #[test]
    fn engine_causality(delays in proptest::collection::vec(0u64..10_000, 1..200)) {
        let mut eng = Engine::new(Vec::<Time>::new(), 7);
        for d in delays {
            eng.schedule(Time::from_ps(d), move |e| {
                let now = e.now();
                e.state.push(now);
            });
        }
        eng.run();
        for w in eng.state.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }

    /// The same seed and schedule produce the same trace hash; a perturbed
    /// schedule produces a different one (with overwhelming probability).
    #[test]
    fn engine_determinism(seed in any::<u64>(), delays in proptest::collection::vec(0u64..1_000_000, 1..100)) {
        let build = |delays: &[u64], seed: u64| {
            let mut eng = Engine::new(0u64, seed);
            for &d in delays {
                eng.schedule(Time::from_ps(d), move |e| { e.state = e.state.wrapping_add(d); });
            }
            eng.run();
            (eng.trace_hash(), eng.state)
        };
        let a = build(&delays, seed);
        let b = build(&delays, seed);
        prop_assert_eq!(a, b);
    }
}

// ---------------------------------------------------------------- LRU

proptest! {
    /// The flat table's LRU mode behaves identically to a naive shadow
    /// implementation under arbitrary interleavings of insert/get/remove.
    #[test]
    fn lru_matches_shadow(
        cap in 1usize..12,
        ops in proptest::collection::vec((0u8..3, 0u64..24, 0u64..1000), 0..400),
    ) {
        let mut lru: FlatTable<u64> = FlatTable::with_seed(0x1c0);
        // Shadow: Vec in MRU-first order.
        let mut shadow: Vec<(u64, u64)> = Vec::new();
        for (op, k, v) in ops {
            match op {
                0 => {
                    // insert
                    if let Some(pos) = shadow.iter().position(|&(sk, _)| sk == k) {
                        shadow.remove(pos);
                        shadow.insert(0, (k, v));
                    } else {
                        shadow.insert(0, (k, v));
                        if shadow.len() > cap {
                            let (ek, ev) = shadow.pop().unwrap();
                            prop_assert_eq!(lru.insert_lru(k, v, cap), LruInsert::Evicted(ek, ev));
                            continue;
                        }
                    }
                    prop_assert!(!matches!(lru.insert_lru(k, v, cap), LruInsert::Evicted(..)));
                }
                1 => {
                    // get (touches recency)
                    let expect = shadow.iter().position(|&(sk, _)| sk == k);
                    if let Some(pos) = expect {
                        let entry = shadow.remove(pos);
                        shadow.insert(0, entry);
                        prop_assert_eq!(lru.lookup(k).copied(), Some(entry.1));
                    } else {
                        prop_assert_eq!(lru.lookup(k), None);
                    }
                }
                _ => {
                    // remove
                    let expect = shadow.iter().position(|&(sk, _)| sk == k)
                        .map(|pos| shadow.remove(pos).1);
                    prop_assert_eq!(lru.remove(k), expect);
                }
            }
            prop_assert_eq!(lru.len(), shadow.len());
        }
        // Final recency order must agree.
        let got: Vec<(u64, u64)> = lru.iter_lru().map(|(k, v)| (k, *v)).collect();
        prop_assert_eq!(got, shadow);
    }
}

// ---------------------------------------------------------------- queue

proptest! {
    /// A server pool never starts a job before its arrival, never overlaps
    /// more jobs than servers, and conserves busy time.
    #[test]
    fn server_pool_invariants(
        k in 1usize..5,
        jobs in proptest::collection::vec((0u64..10_000, 1u64..500), 1..100),
    ) {
        let mut pool = ServerPool::new(k);
        let mut intervals = Vec::new();
        let mut busy = Time::ZERO;
        // Admissions must be in arrival order for the FIFO shadow to hold.
        let mut sorted = jobs.clone();
        sorted.sort();
        for (arr, dur) in &sorted {
            let arrival = Time::from_ns(*arr);
            let service = Time::from_ns(*dur);
            let (start, finish) = pool.admit(arrival, service);
            prop_assert!(start >= arrival);
            prop_assert_eq!(finish - start, service);
            intervals.push((start, finish));
            busy += service;
        }
        prop_assert_eq!(pool.busy_total(), busy);
        // At any job start, strictly fewer than k other jobs may overlap.
        for (i, &(s, _)) in intervals.iter().enumerate() {
            let overlapping = intervals
                .iter()
                .enumerate()
                .filter(|&(j, &(s2, f2))| j != i && s2 <= s && s < f2)
                .count();
            prop_assert!(overlapping < k, "{} overlapping >= {} servers", overlapping, k);
        }
    }
}

// ---------------------------------------------------------------- network

struct World {
    cluster: Cluster,
    delivered: Vec<(Time, u32, u64)>,
}

impl Protocol for World {
    type Msg = u64;
    fn cluster(&mut self) -> &mut Cluster {
        &mut self.cluster
    }
    fn cluster_ref(&self) -> &Cluster {
        &self.cluster
    }
    fn deliver(eng: &mut Engine<Self>, env: Envelope<u64>) {
        let tag = match env.packet {
            Packet::User(v) => v,
            Packet::PutDone { op, .. } => 1_000_000 + op.raw(),
            Packet::GetDone { op, .. } => 2_000_000 + op.raw(),
            Packet::AmoDone { op, .. } => 6_000_000 + op.raw(),
            Packet::RemoteNote { tag, .. } => 3_000_000 + tag,
            Packet::XlateMiss { block } => 5_000_000 + block,
            Packet::Nack { op, .. } => 4_000_000 + op.raw(),
        };
        let now = eng.now();
        eng.state.delivered.push((now, env.dst, tag));
    }
}

proptest! {
    /// Messages between a fixed pair are delivered FIFO (the NIC ports
    /// serialize them), and every message is delivered exactly once.
    #[test]
    fn point_to_point_fifo(count in 1usize..40, sizes in proptest::collection::vec(1u32..4096, 40)) {
        let mut eng = Engine::new(
            World { cluster: Cluster::new(2, NetConfig::ideal(), 1 << 20), delivered: Vec::new() },
            3,
        );
        for (i, &size) in sizes.iter().enumerate().take(count) {
            send_user(&mut eng, 0, 1, size, i as u64);
        }
        eng.run();
        let tags: Vec<u64> = eng.state.delivered.iter().map(|&(_, _, t)| t).collect();
        prop_assert_eq!(tags, (0..count as u64).collect::<Vec<_>>());
    }

    /// Every issued put (to a valid virtual block) eventually produces
    /// exactly one completion, and the bytes land where addressed.
    #[test]
    fn puts_complete_exactly_once(
        writes in proptest::collection::vec((0u64..16, 1usize..64), 1..50),
    ) {
        let mut eng = Engine::new(
            World { cluster: Cluster::new(3, NetConfig::ideal(), 1 << 24), delivered: Vec::new() },
            11,
        );
        let base = eng.state.cluster.mem_mut(2).alloc_block(16).unwrap();
        eng.state.cluster.install_xlate(2, 9, XlateEntry { base, len: 1 << 16, generation: 1 });
        let mut ops = Vec::new();
        for (slot, len) in &writes {
            let op = eng.state.cluster.alloc_op();
            ops.push(op.raw());
            rdma_put(&mut eng, 0, PutReq {
                target: 2,
                dst: RdmaTarget::Virt { block: 9, offset: slot * 1024 },
                data: vec![(op.raw() & 0xFF) as u8; *len],
                op,
                remote_tag: None,
                ttl: 2,
                class: FaultClass::Request,
            });
        }
        eng.run();
        let mut done: Vec<u64> = eng
            .state
            .delivered
            .iter()
            .filter(|&&(_, dst, tag)| dst == 0 && (1_000_000..2_000_000).contains(&tag))
            .map(|&(_, _, tag)| tag - 1_000_000)
            .collect();
        done.sort_unstable();
        let mut expect = ops.clone();
        expect.sort_unstable();
        prop_assert_eq!(done, expect);
    }
}

proptest! {
    /// The oversubscribed switch core conserves work: arrival order in,
    /// non-decreasing clear-out times, and total occupancy equals the sum of
    /// per-transit durations.
    #[test]
    fn switch_core_serializes(
        sizes in proptest::collection::vec(1u32..100_000, 1..40),
    ) {
        let cfg = NetConfig {
            oversubscription: 4,
            ..NetConfig::ideal()
        };
        let mut cluster = Cluster::new(4, cfg, 1 << 20);
        let mut last = Time::ZERO;
        for (i, &bytes) in sizes.iter().enumerate() {
            let cleared = cluster.switch_reserve(Time::from_ns(i as u64), bytes);
            prop_assert!(cleared >= last, "switch went backwards");
            prop_assert!(cleared >= Time::from_ns(i as u64));
            last = cleared;
        }
    }

    /// A multi-port NIC never overlaps more transmissions than it has
    /// ports, and saturates exactly at `ports × serial throughput`.
    #[test]
    fn multiport_nic_overlap_bound(
        ports in 1usize..6,
        jobs in proptest::collection::vec(1u64..500, 1..60),
    ) {
        let mut nic = netsim::Nic::new(8, ports);
        let mut intervals = Vec::new();
        for &dur in &jobs {
            let (s, f) = nic.tx_reserve(Time::ZERO, Time::from_ns(dur));
            intervals.push((s, f));
        }
        for (i, &(s, _)) in intervals.iter().enumerate() {
            let overlapping = intervals
                .iter()
                .enumerate()
                .filter(|&(j, &(s2, f2))| j != i && s2 <= s && s < f2)
                .count();
            prop_assert!(overlapping < ports, "{} overlaps >= {} ports", overlapping, ports);
        }
        // Conservation: the last finish is at least total/ports.
        let total: u64 = jobs.iter().sum();
        let makespan = intervals.iter().map(|&(_, f)| f).max().unwrap();
        prop_assert!(makespan >= Time::from_ns(total / ports as u64));
    }

    /// Wire jitter is bounded by the configured maximum: arrivals of a
    /// single message never exceed base latency + jitter + serialization.
    #[test]
    fn jitter_is_bounded(jitter in 0u64..5_000, seed in any::<u64>()) {
        let cfg = NetConfig {
            jitter_ns: jitter,
            ..NetConfig::ideal()
        };
        let mut eng = Engine::new(
            World { cluster: Cluster::new(2, cfg, 1 << 20), delivered: Vec::new() },
            seed,
        );
        send_user(&mut eng, 0, 1, 64, 1);
        eng.run();
        let (t, _, _) = eng.state.delivered[0];
        // ideal: o_send 10 + tx 74 + L 100 + rx 74 = 258ns base.
        let base = Time::from_ns(258);
        prop_assert!(t >= base, "{t} < {base}");
        prop_assert!(t <= base + Time::from_ns(jitter), "{t} exceeds jitter bound");
    }
}

// ---------------------------------------------------------------- optable

proptest! {
    /// Slab churn never resurrects a stale handle: once an `OpId` is
    /// removed, every later lookup with it fails even after its slot is
    /// reused arbitrarily many times, and live handles always return
    /// exactly their value.
    #[test]
    fn optable_churn_never_resurrects_stale_ids(
        ops in proptest::collection::vec(0u8..8, 1..400),
        seed in any::<u64>(),
    ) {
        use netsim::{OpError, OpTable};
        let mut table: OpTable<u64> = OpTable::new();
        let mut live: Vec<(netsim::OpId, u64)> = Vec::new();
        let mut retired: Vec<netsim::OpId> = Vec::new();
        let mut next_val = seed;
        for op in ops {
            match op {
                // Bias toward churn: insert on 0-2, remove on 3-5.
                0..=2 => {
                    next_val = next_val.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let id = table.insert(next_val);
                    prop_assert!(!id.is_none());
                    live.push((id, next_val));
                }
                3..=5 => {
                    if !live.is_empty() {
                        let pick = (next_val as usize) % live.len();
                        let (id, v) = live.swap_remove(pick);
                        prop_assert_eq!(table.remove(id).unwrap(), v);
                        retired.push(id);
                    }
                }
                _ => {
                    // Probe every retired handle: none may resolve.
                    for &id in &retired {
                        prop_assert!(matches!(
                            table.get(id),
                            Err(OpError::StaleOp { .. }) | Err(OpError::UnknownOp { .. })
                        ));
                        prop_assert!(table.remove(id).is_err());
                    }
                }
            }
        }
        // Final audit: live handles resolve to their values, retired never.
        prop_assert_eq!(table.len(), live.len());
        for (id, v) in live {
            prop_assert_eq!(*table.get(id).unwrap(), v);
        }
        for id in retired {
            prop_assert!(table.get(id).is_err());
        }
    }
}
