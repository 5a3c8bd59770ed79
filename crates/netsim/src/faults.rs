//! Deterministic network fault injection.
//!
//! Every non-loopback message the cluster moves can be routed through a
//! [`FaultPlane`]: a seed-driven adversary that drops, duplicates, delays,
//! and corrupts traffic according to a declarative [`FaultPlan`]. Two
//! properties make it usable as a *test* instrument rather than a noise
//! generator:
//!
//! 1. **Reproducibility.** Every draw for one message comes from a
//!    generator keyed by `(plan.seed, sending locality, that locality's
//!    wire-message count)` ([`FaultPlane::draws`]), and its verdict is
//!    charged to the sender's own [`FaultStats`]. The plane itself holds
//!    nothing an event writes, so a verdict is the same whenever, and on
//!    whichever shard lane, the sender makes it. A chaos run is a pure
//!    function of `(engine seed, FaultPlan)` — rerunning it yields
//!    bit-identical schedules, counters, and trace hashes.
//! 2. **Pay-for-what-you-use.** A lossless plan (all rates zero, no
//!    windows) takes a draw-free early-out in [`FaultPlane::decide`], so
//!    installing it perturbs no event schedule: golden trace pins recorded
//!    without a fault plane must stay bit-for-bit identical with a
//!    lossless one installed (see `crates/core/tests/faults_shadow.rs`).
//!
//! Not every message is fair game. The GAS/photon stack retransmits
//! *requests* (deadline sweep + bounce) and tolerates duplicate
//! *completions* (generation-checked [`crate::optable::OpTable`] ids), but
//! migration-protocol control traffic and photon rendezvous control
//! messages have no retransmit path — dropping them would wedge the run
//! rather than exercise recovery. [`FaultClass`] encodes which torture a
//! message can survive; senders label their traffic, the plane respects
//! the label.

use crate::nic::LocalityId;
use crate::rng::Xoshiro256;
use crate::time::Time;

/// How much abuse a message can survive, declared by its sender.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultClass {
    /// Protocol traffic with no recovery path (migration/free control
    /// messages, photon rendezvous control, loopback). Never touched.
    Bypass,
    /// A retried request (RDMA put/get issue + forwarding hops, SwAccess /
    /// DirQuery). May be dropped, duplicated, or delayed; a
    /// corruption draw *degrades to a drop*, modeling a link-level CRC
    /// discard — one-sided data has no end-to-end checksum, so delivering
    /// it corrupted would silently poison memory.
    Request,
    /// A completion (PutDone / GetDone / Nack, get data response,
    /// SwReply / SwRetry / DirReply). May be dropped,
    /// duplicated, or delayed; the initiator's deadline/retry machinery
    /// and generation-checked op table absorb the abuse.
    Completion,
    /// Checksummed payload bytes (parcel rendezvous data). May be delayed
    /// or *delivered corrupted* — the parcel checksum added in
    /// `parcel-rt::codec` detects it at decode. Never dropped or
    /// duplicated: photon's send path has no payload retransmit.
    Payload,
}

impl FaultClass {
    fn faultable(self) -> bool {
        !matches!(self, FaultClass::Bypass)
    }
}

/// Per-link fault probabilities and delay-spike distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultRates {
    /// Probability a message is silently dropped.
    pub drop: f64,
    /// Probability a message is delivered twice (second copy re-delayed).
    pub dup: f64,
    /// Probability a message's bytes are corrupted in flight.
    pub corrupt: f64,
    /// Probability a message suffers an extra delay spike.
    pub delay_p: f64,
    /// Minimum delay spike (ns).
    pub delay_min_ns: u64,
    /// Maximum delay spike (ns).
    pub delay_max_ns: u64,
}

impl FaultRates {
    /// All-zero rates: the plane never draws for this link.
    pub const fn lossless() -> FaultRates {
        FaultRates {
            drop: 0.0,
            dup: 0.0,
            corrupt: 0.0,
            delay_p: 0.0,
            delay_min_ns: 0,
            delay_max_ns: 0,
        }
    }

    /// Uniform drop/dup/corrupt at `p` each, no delay spikes.
    pub const fn uniform(p: f64) -> FaultRates {
        FaultRates {
            drop: p,
            dup: p,
            corrupt: p,
            delay_p: 0.0,
            delay_min_ns: 0,
            delay_max_ns: 0,
        }
    }

    fn is_lossless(&self) -> bool {
        self.drop == 0.0 && self.dup == 0.0 && self.corrupt == 0.0 && self.delay_p == 0.0
    }
}

/// A scheduled total outage of one directed link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkFlap {
    /// Source locality of the flapping link.
    pub src: LocalityId,
    /// Destination locality of the flapping link.
    pub dst: LocalityId,
    /// Window start (inclusive).
    pub from: Time,
    /// Window end (exclusive).
    pub to: Time,
}

/// A scheduled partition: traffic crossing between `group_a` and its
/// complement is dropped for the window's duration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// Window start (inclusive).
    pub from: Time,
    /// Window end (exclusive).
    pub to: Time,
    /// One side of the cut; everything else is the other side.
    pub group_a: Vec<LocalityId>,
}

/// Declarative description of a chaos run: seed + rates + scheduled events.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed of the plane's private RNG stream.
    pub seed: u64,
    /// Default rates for every directed link.
    pub rates: FaultRates,
    /// Per-link overrides, replacing `rates` for that (src, dst) pair.
    pub link_rates: Vec<(LocalityId, LocalityId, FaultRates)>,
    /// Scheduled single-link outages.
    pub flaps: Vec<LinkFlap>,
    /// Scheduled cluster partitions.
    pub partitions: Vec<Partition>,
}

impl FaultPlan {
    /// A plan that injects nothing: installing it must not perturb any
    /// schedule (verified by the shadow trace pins).
    pub fn lossless(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rates: FaultRates::lossless(),
            link_rates: Vec::new(),
            flaps: Vec::new(),
            partitions: Vec::new(),
        }
    }

    /// Uniform drop/dup/corrupt at `p` on every link.
    pub fn uniform(seed: u64, p: f64) -> FaultPlan {
        FaultPlan {
            seed,
            rates: FaultRates::uniform(p),
            link_rates: Vec::new(),
            flaps: Vec::new(),
            partitions: Vec::new(),
        }
    }

    /// Does this plan inject nothing? True when every rate (default and
    /// per-link) is zero and no flap or partition is scheduled: such a
    /// plan drops no message, so no completion can be lost.
    pub fn is_lossless(&self) -> bool {
        self.rates.is_lossless()
            && self.link_rates.iter().all(|(_, _, r)| r.is_lossless())
            && self.flaps.is_empty()
            && self.partitions.is_empty()
    }
}

/// Injection counters, split by what actually happened.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Faultable messages that passed through untouched.
    pub delivered: u64,
    /// Messages dropped by a rate draw.
    pub dropped: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Messages hit by a delay spike.
    pub delayed: u64,
    /// Payload messages delivered with corrupted bytes.
    pub corrupted: u64,
    /// Request-class corruption draws degraded to link-CRC drops.
    pub corrupt_drops: u64,
    /// Messages dropped inside a link-flap window.
    pub flap_drops: u64,
    /// Messages dropped crossing an active partition.
    pub partition_drops: u64,
}

impl FaultStats {
    /// Total messages the plane removed from the network.
    pub fn total_drops(&self) -> u64 {
        self.dropped + self.corrupt_drops + self.flap_drops + self.partition_drops
    }

    /// Add `other`'s counts into `self`.
    pub fn merge(&mut self, other: &FaultStats) {
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.delayed += other.delayed;
        self.corrupted += other.corrupted;
        self.corrupt_drops += other.corrupt_drops;
        self.flap_drops += other.flap_drops;
        self.partition_drops += other.partition_drops;
    }
}

/// What the plane decided for one message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultVerdict {
    /// Deliver, possibly late / twice / corrupted.
    Deliver {
        /// Extra latency to add to the scheduled arrival.
        extra_delay: Time,
        /// Deliver a second copy (delayed by a fresh spike draw).
        duplicate: bool,
        /// Nonzero ⇒ apply [`apply_corruption`] to the payload bytes.
        corrupt_mask: u64,
    },
    /// The message vanishes.
    Drop,
}

impl FaultVerdict {
    /// The verdict for untouched traffic.
    pub const CLEAN: FaultVerdict = FaultVerdict::Deliver {
        extra_delay: Time::ZERO,
        duplicate: false,
        corrupt_mask: 0,
    };
}

/// Salt between a plan's seed and its generators, so a plan seeded like
/// the engine still draws apart from the engine's transit jitter.
const DRAW_SALT: u64 = 0xfa17_b1a5_e5ee_d5a1;

/// The live injector: a plan, read-only while events run. Its draws and
/// counters belong to the sending locality ([`FaultPlane::draws`]).
#[derive(Clone, Debug)]
pub struct FaultPlane {
    /// The installed plan.
    pub plan: FaultPlan,
    lossless: bool,
}

impl FaultPlane {
    /// Build the injector for `plan`.
    pub fn new(plan: FaultPlan) -> FaultPlane {
        let lossless = plan.is_lossless();
        FaultPlane { plan, lossless }
    }

    /// The generator for every draw of the `n`-th wire message `src` sends:
    /// its verdict and, if duplicated, its copy's spacing.
    pub fn draws(&self, src: LocalityId, n: u64) -> Xoshiro256 {
        Xoshiro256::keyed(self.plan.seed ^ DRAW_SALT, u64::from(src), n)
    }

    fn rates_for(&self, src: LocalityId, dst: LocalityId) -> FaultRates {
        for &(s, d, r) in &self.plan.link_rates {
            if s == src && d == dst {
                return r;
            }
        }
        self.plan.rates
    }

    /// Is (src, dst) severed by a flap or partition at `now`?
    fn window_drop(&self, now: Time, src: LocalityId, dst: LocalityId) -> Option<bool> {
        for f in &self.plan.flaps {
            if f.src == src && f.dst == dst && f.from <= now && now < f.to {
                return Some(true); // flap
            }
        }
        for p in &self.plan.partitions {
            if p.from <= now && now < p.to {
                let a_src = p.group_a.contains(&src);
                let a_dst = p.group_a.contains(&dst);
                if a_src != a_dst {
                    return Some(false); // partition
                }
            }
        }
        None
    }

    /// Decide the fate of one message from `src`, drawing from `rng` (the
    /// message's [`FaultPlane::draws`]) and counting into `stats` (the
    /// sender's).
    ///
    /// `can_dup` is false for messages the caller cannot clone (user
    /// messages carry an opaque `Protocol::Msg`); the dup draw is still
    /// made, but the verdict suppresses the duplicate.
    #[allow(clippy::too_many_arguments)]
    pub fn decide(
        &self,
        now: Time,
        src: LocalityId,
        dst: LocalityId,
        class: FaultClass,
        can_dup: bool,
        rng: &mut Xoshiro256,
        stats: &mut FaultStats,
    ) -> FaultVerdict {
        if !class.faultable() {
            return FaultVerdict::CLEAN;
        }
        // Draw-free early-out for a plan that can do nothing.
        if self.lossless {
            stats.delivered += 1;
            return FaultVerdict::CLEAN;
        }
        if let Some(flap) = self.window_drop(now, src, dst) {
            if flap {
                stats.flap_drops += 1;
            } else {
                stats.partition_drops += 1;
            }
            return FaultVerdict::Drop;
        }
        let rates = self.rates_for(src, dst);
        if rates.is_lossless() {
            stats.delivered += 1;
            return FaultVerdict::CLEAN;
        }

        // Fixed draw order per message: drop, corrupt, dup, delay_p (+
        // spike magnitude), then the corruption mask.
        let drop = rng.next_f64() < rates.drop;
        let corrupt = rng.next_f64() < rates.corrupt;
        let dup = rng.next_f64() < rates.dup;
        let delay = rng.next_f64() < rates.delay_p;
        let extra_delay = if delay && rates.delay_max_ns > 0 {
            Time::from_ns(rng.range_inclusive(rates.delay_min_ns, rates.delay_max_ns))
        } else {
            Time::ZERO
        };
        let corrupt_mask = if corrupt { rng.next_u64() | 1 } else { 0 };

        // Payload has no retransmit: never drop/dup it, but corruption is
        // delivered (the end-to-end checksum is the detector under test).
        if class == FaultClass::Payload {
            if delay {
                stats.delayed += 1;
            }
            if corrupt {
                stats.corrupted += 1;
            } else if extra_delay == Time::ZERO {
                stats.delivered += 1;
            }
            return FaultVerdict::Deliver {
                extra_delay,
                duplicate: false,
                corrupt_mask,
            };
        }

        if drop {
            stats.dropped += 1;
            return FaultVerdict::Drop;
        }
        // One-sided request/completion data has no end-to-end checksum;
        // model link-CRC discard instead of delivering poisoned bytes.
        if corrupt {
            stats.corrupt_drops += 1;
            return FaultVerdict::Drop;
        }
        let duplicate = dup && can_dup;
        if duplicate {
            stats.duplicated += 1;
        }
        if delay {
            stats.delayed += 1;
        }
        if !duplicate && extra_delay == Time::ZERO {
            stats.delivered += 1;
        }
        FaultVerdict::Deliver {
            extra_delay,
            duplicate,
            corrupt_mask,
        }
    }

    /// Permanently sever every link into and out of `dead` from `from`
    /// onward — the membership plane's crash primitive. Installs
    /// never-ending [`LinkFlap`] windows in both directions against each of
    /// the `n` localities, so every faultable message touching `dead` is
    /// dropped before any rate draw. Traffic between surviving localities
    /// keeps its exact verdicts: each message's draws are its own, and
    /// links whose rates are lossless still take the draw-free early-out.
    /// It edits the plan, so it runs between runs (drive phase), never
    /// from an event.
    ///
    /// [`FaultClass::Bypass`] traffic still bypasses the plane; a crashed
    /// locality must discard it at its own message handler.
    pub fn sever_locality(&mut self, dead: LocalityId, n: usize, from: Time) {
        for peer in 0..n as LocalityId {
            if peer == dead {
                continue;
            }
            for (src, dst) in [(dead, peer), (peer, dead)] {
                self.plan.flaps.push(LinkFlap {
                    src,
                    dst,
                    from,
                    to: Time::MAX,
                });
            }
        }
        // The plan is no longer lossless; the early-out must not skip the
        // new flap windows.
        self.lossless = false;
    }

    /// Delay for a duplicate's second copy, drawn from `rng` (the message's
    /// [`FaultPlane::draws`], after its verdict) out of the link's spike
    /// distribution (or a fixed 1 µs when the plan has no spikes) so the
    /// two copies never collapse onto the same instant.
    pub fn dup_delay(&self, src: LocalityId, dst: LocalityId, rng: &mut Xoshiro256) -> Time {
        let rates = self.rates_for(src, dst);
        if rates.delay_max_ns > 0 {
            Time::from_ns(rng.range_inclusive(rates.delay_min_ns.max(1), rates.delay_max_ns))
        } else {
            Time::from_us(1)
        }
    }
}

/// Deterministically flip one payload byte based on `mask` (as produced by
/// a corrupt verdict). No-op on empty payloads or a zero mask.
pub fn apply_corruption(data: &mut [u8], mask: u64) {
    if mask == 0 || data.is_empty() {
        return;
    }
    let idx = (mask as usize) % data.len();
    let flip = ((mask >> 8) as u8) | 1; // never a zero XOR
    data[idx] ^= flip;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(p: f64) -> FaultPlan {
        FaultPlan::uniform(7, p)
    }

    /// One sending locality as the wire drives the plane: each message
    /// draws from its own [`FaultPlane::draws`] and counts into the
    /// sender's stats.
    #[derive(Default)]
    struct Sender {
        sent: u64,
        stats: FaultStats,
    }

    impl Sender {
        fn send(
            &mut self,
            fp: &FaultPlane,
            now: Time,
            src: LocalityId,
            dst: LocalityId,
            class: FaultClass,
        ) -> FaultVerdict {
            let mut rng = fp.draws(src, self.sent);
            self.sent += 1;
            fp.decide(now, src, dst, class, true, &mut rng, &mut self.stats)
        }
    }

    #[test]
    fn lossless_plan_is_draw_free_and_clean() {
        let fp = FaultPlane::new(FaultPlan::lossless(42));
        let mut rng = fp.draws(0, 0);
        let expect = fp.draws(0, 0).next_u64();
        let mut stats = FaultStats::default();
        for i in 0..1000 {
            let v = fp.decide(
                Time::from_ns(i),
                0,
                1,
                FaultClass::Request,
                true,
                &mut rng,
                &mut stats,
            );
            assert_eq!(v, FaultVerdict::CLEAN);
        }
        assert_eq!(stats.total_drops(), 0);
        assert_eq!(stats.delivered, 1000);
        // The generator it was handed never advanced.
        assert_eq!(rng.next_u64(), expect);
    }

    #[test]
    fn bypass_class_is_never_touched() {
        let fp = FaultPlane::new(plan(1.0));
        let mut tx = Sender::default();
        for i in 0..100 {
            let v = tx.send(&fp, Time::from_ns(i), 0, 1, FaultClass::Bypass);
            assert_eq!(v, FaultVerdict::CLEAN);
        }
        assert_eq!(tx.stats, FaultStats::default());
    }

    #[test]
    fn same_seed_same_verdict_stream() {
        let (a, b) = (FaultPlane::new(plan(0.3)), FaultPlane::new(plan(0.3)));
        let (mut ta, mut tb) = (Sender::default(), Sender::default());
        for i in 0..2000 {
            let va = ta.send(&a, Time::from_ns(i), 0, 1, FaultClass::Request);
            let vb = tb.send(&b, Time::from_ns(i), 0, 1, FaultClass::Request);
            assert_eq!(va, vb);
        }
        assert_eq!(ta.stats, tb.stats);
        assert!(ta.stats.dropped > 0, "p=0.3 over 2000 draws must drop");
    }

    #[test]
    fn request_corruption_degrades_to_drop() {
        let rates = FaultRates {
            corrupt: 1.0,
            ..FaultRates::lossless()
        };
        let fp = FaultPlane::new(FaultPlan {
            rates,
            ..FaultPlan::lossless(9)
        });
        let mut tx = Sender::default();
        let v = tx.send(&fp, Time::ZERO, 0, 1, FaultClass::Request);
        assert_eq!(v, FaultVerdict::Drop);
        assert_eq!(tx.stats.corrupt_drops, 1);
        assert_eq!(tx.stats.corrupted, 0);
    }

    #[test]
    fn payload_is_corrupted_but_never_dropped() {
        let rates = FaultRates {
            drop: 1.0,
            dup: 1.0,
            corrupt: 1.0,
            ..FaultRates::lossless()
        };
        let fp = FaultPlane::new(FaultPlan {
            rates,
            ..FaultPlan::lossless(9)
        });
        let mut tx = Sender::default();
        for _ in 0..50 {
            match tx.send(&fp, Time::ZERO, 0, 1, FaultClass::Payload) {
                FaultVerdict::Deliver {
                    duplicate,
                    corrupt_mask,
                    ..
                } => {
                    assert!(!duplicate);
                    assert_ne!(corrupt_mask, 0);
                }
                FaultVerdict::Drop => panic!("payload must never be dropped"),
            }
        }
        assert_eq!(tx.stats.corrupted, 50);
        assert_eq!(tx.stats.total_drops(), 0);
    }

    #[test]
    fn flap_window_severs_only_its_link_and_window() {
        let fp = FaultPlane::new(FaultPlan {
            flaps: vec![LinkFlap {
                src: 0,
                dst: 1,
                from: Time::from_ns(100),
                to: Time::from_ns(200),
            }],
            ..FaultPlan::lossless(3)
        });
        let mut tx = Sender::default();
        let mut send = |t, src, dst| tx.send(&fp, Time::from_ns(t), src, dst, FaultClass::Request);
        assert_eq!(send(150, 0, 1), FaultVerdict::Drop);
        let reverse = send(150, 1, 0);
        assert_eq!(reverse, FaultVerdict::CLEAN, "reverse direction unaffected");
        let later = send(250, 0, 1);
        assert_eq!(later, FaultVerdict::CLEAN, "outside the window");
        assert_eq!(tx.stats.flap_drops, 1);
    }

    #[test]
    fn sever_locality_blackholes_both_directions_forever() {
        let mut fp = FaultPlane::new(FaultPlan::lossless(42));
        fp.sever_locality(2, 4, Time::from_us(1));
        let mut rng = fp.draws(0, 0);
        let expect = fp.draws(0, 0).next_u64();
        let mut stats = FaultStats::default();
        let mut decide =
            |t, src, dst, class| fp.decide(t, src, dst, class, true, &mut rng, &mut stats);
        // Before the cut the links are alive.
        let before = decide(Time::from_ns(10), 0, 2, FaultClass::Request);
        assert_eq!(before, FaultVerdict::CLEAN);
        // After it, everything touching locality 2 is dropped...
        for t in [Time::from_us(1), Time::from_ms(5)] {
            assert_eq!(decide(t, 0, 2, FaultClass::Request), FaultVerdict::Drop);
            assert_eq!(decide(t, 2, 3, FaultClass::Completion), FaultVerdict::Drop);
        }
        // ...while survivor↔survivor traffic stays clean and draw-free.
        let survivors = decide(Time::from_ms(5), 0, 1, FaultClass::Request);
        assert_eq!(survivors, FaultVerdict::CLEAN);
        assert_eq!(
            decide(Time::from_ms(5), 2, 2, FaultClass::Bypass),
            FaultVerdict::CLEAN,
            "bypass traffic is the crashed handler's problem, not the wire's"
        );
        assert_eq!(stats.flap_drops, 4);
        assert_eq!(rng.next_u64(), expect, "severing never consumes draws");
    }

    #[test]
    fn partition_severs_cross_group_traffic_both_ways() {
        let fp = FaultPlane::new(FaultPlan {
            partitions: vec![Partition {
                from: Time::ZERO,
                to: Time::from_us(1),
                group_a: vec![0, 1],
            }],
            ..FaultPlan::lossless(5)
        });
        let mut tx = Sender::default();
        let t = Time::from_ns(10);
        assert_eq!(
            tx.send(&fp, t, 0, 2, FaultClass::Request),
            FaultVerdict::Drop
        );
        assert_eq!(
            tx.send(&fp, t, 2, 1, FaultClass::Completion),
            FaultVerdict::Drop
        );
        assert_eq!(
            tx.send(&fp, t, 0, 1, FaultClass::Request),
            FaultVerdict::CLEAN,
            "intra-group traffic flows"
        );
        assert_eq!(tx.stats.partition_drops, 2);
    }

    #[test]
    fn link_override_replaces_default_rates() {
        let fp = FaultPlane::new(FaultPlan {
            rates: FaultRates {
                drop: 1.0,
                ..FaultRates::lossless()
            },
            link_rates: vec![(0, 1, FaultRates::lossless())],
            ..FaultPlan::lossless(11)
        });
        let mut tx = Sender::default();
        assert_eq!(
            tx.send(&fp, Time::ZERO, 0, 1, FaultClass::Request),
            FaultVerdict::CLEAN,
            "override link is clean"
        );
        assert_eq!(
            tx.send(&fp, Time::ZERO, 1, 0, FaultClass::Request),
            FaultVerdict::Drop,
            "default link drops"
        );
    }

    #[test]
    fn any_rate_flap_or_partition_makes_a_plan_lossy() {
        assert!(FaultPlan::lossless(1).is_lossless());
        let (from, to) = (Time::ZERO, Time::from_ns(1));
        let flap = LinkFlap {
            src: 0,
            dst: 1,
            from,
            to,
        };
        let cut = Partition {
            from,
            to,
            group_a: vec![0],
        };
        let edits: [&dyn Fn(&mut FaultPlan); 6] = [
            &|p| p.rates.drop = 0.1,
            &|p| p.rates.dup = 0.1,
            &|p| p.rates.corrupt = 0.1,
            &|p| p.rates.delay_p = 0.1,
            &|p| p.flaps.push(flap),
            &|p| p.partitions.push(cut.clone()),
        ];
        for (i, edit) in edits.iter().enumerate() {
            let mut plan = FaultPlan::lossless(1);
            edit(&mut plan);
            assert!(!plan.is_lossless(), "edit {i}: {plan:?}");
        }
    }

    #[test]
    fn corruption_flips_exactly_one_byte() {
        let mut data = vec![0u8; 64];
        apply_corruption(&mut data, 0x1234_5678_9abc_def0);
        assert_eq!(data.iter().filter(|&&b| b != 0).count(), 1);
        // Deterministic: same mask, same flip.
        let mut again = vec![0u8; 64];
        apply_corruption(&mut again, 0x1234_5678_9abc_def0);
        assert_eq!(data, again);
        // Zero mask and empty payloads are no-ops.
        let mut clean = vec![1u8, 2, 3];
        apply_corruption(&mut clean, 0);
        assert_eq!(clean, vec![1, 2, 3]);
        apply_corruption(&mut [], 77);
    }

    #[test]
    fn dup_delay_is_never_zero() {
        let fp = FaultPlane::new(plan(0.5));
        for n in 0..100 {
            assert!(fp.dup_delay(0, 1, &mut fp.draws(0, n)) > Time::ZERO);
        }
    }
}
