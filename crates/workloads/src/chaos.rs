//! Chaos driver: a history-checked workload run under network fault
//! injection (DESIGN.md §3.4).
//!
//! The driver boots a full runtime with a [`FaultPlan`] installed on the
//! cluster's fault plane, turns on the GAS recovery machinery (an
//! `op_deadline`, whose sweep re-issues lost ops) and the per-locality
//! operation history, then drives rounds of remote puts/gets — optionally with
//! migration churn and rendezvous-sized parcels — and reports everything a
//! correctness gate needs: completion accounting, injection counters,
//! recovery counters, and the serializability verdict of the committed
//! history checker.
//!
//! Two properties make the workload safe under every fault class:
//!
//! * **Slot-idempotent writes.** Each locality owns one 8-byte slot per
//!   block and always writes the same value to it (derived from
//!   `(block, slot)`, never from the round). A duplicated or retried put
//!   request that re-applies its bytes late is therefore harmless, and the
//!   checker's legal value set for a slot is exactly {zeros, slot value}.
//! * **No unrecoverable protocols under loss.** Parcels have no retransmit
//!   layer, so spawns are off by default and meant for corruption-focused
//!   plans (where the checksum path, not delivery, is under test);
//!   migration traffic bypasses the fault plane by design.

use agas::check::{check_blocks, check_history, Violation};
use agas::{Distribution, GasConfig, GasMode, GasStats, Gva};
use netsim::rng::mix64;
use netsim::{Counters, FaultPlan, FaultRates, FaultStats, Time};
use parcel_rt::{ArgWriter, RtConfig, Runtime, Transport};
use std::cell::Cell;
use std::rc::Rc;

/// Chaos run configuration.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// GAS implementation under test.
    pub mode: GasMode,
    /// Cluster size.
    pub localities: u32,
    /// Engine seed (the fault plane has its own seed inside `plan`).
    pub plan: FaultPlan,
    /// Engine seed.
    pub seed: u64,
    /// Issue rounds (each round: one put + one get per locality).
    pub rounds: u64,
    /// Global array size in blocks (4 KiB each).
    pub blocks: u64,
    /// Migrate one block every `churn` rounds (0 = no churn; ignored under
    /// PGAS).
    pub churn: u64,
    /// Send a rendezvous-sized parcel every other round over the ISIR
    /// transport, exercising the payload-corruption / checksum path. Only
    /// sensible with drop-free plans: parcels have no retransmit.
    pub spawns: bool,
    /// Issue one NIC-executed fetch-add per locality per round against a
    /// rotating block's AMO words (offsets 0..64, disjoint from the put/get
    /// slot table), exercising the AMO request/completion classes and the
    /// responder replay cache under faults.
    pub amos: bool,
    /// Run the elastic-membership schedule (requires `localities >= 4`):
    /// the last locality starts `Joining` and joins (taking a slice of
    /// locality 0's directory shard) at ¼ of the rounds; locality 2 drains
    /// at ½ while traffic keeps flowing; locality 1 crashes at ¾ (after a
    /// quiescence point — migration completions carry no deadline, so the
    /// driver only kills a node at a migration-quiescent boundary) and its
    /// blocks are recovered zero-filled at the survivors. Under PGAS the
    /// schedule is metadata-only (the joiner joins, then leaves; static
    /// placement cannot evacuate or recover blocks, so nothing crashes).
    pub membership: bool,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            mode: GasMode::AgasNetwork,
            localities: 4,
            plan: FaultPlan::lossless(1),
            seed: 1,
            rounds: 24,
            blocks: 8,
            churn: 4,
            spawns: false,
            amos: false,
            membership: false,
        }
    }
}

/// Everything a chaos gate asserts on.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Mode the cell ran under.
    pub mode: GasMode,
    /// Engine seed.
    pub seed: u64,
    /// Puts issued by the driver.
    pub puts_issued: u64,
    /// Gets issued by the driver.
    pub gets_issued: u64,
    /// Migrations issued by the driver.
    pub migrations_issued: u64,
    /// Rendezvous parcels spawned by the driver.
    pub spawns_issued: u64,
    /// NIC-executed AMOs issued by the driver.
    pub amos_issued: u64,
    /// Put completions delivered to the driver.
    pub put_acks: u64,
    /// Get completions delivered to the driver.
    pub get_acks: u64,
    /// Migration completions delivered to the driver.
    pub migration_acks: u64,
    /// Parcel continuations that fired (a corrupted parcel never replies).
    pub spawn_replies: u64,
    /// AMO completions delivered to the driver.
    pub amo_acks: u64,
    /// Ops that exhausted their retry budget and failed cleanly.
    pub op_failures: u64,
    /// Gets whose data was neither zeros nor the slot's one legal value.
    pub data_mismatches: u64,
    /// ISIR parcels discarded by the wire checksum.
    pub corrupt_parcels: u64,
    /// Aggregate GAS stats (includes `retries` and `deadline_retries`).
    pub gas: GasStats,
    /// Aggregate NIC/network counters (forwards, NACKs, …).
    pub net: Counters,
    /// What the fault plane actually injected.
    pub faults: FaultStats,
    /// Structural + serializability violations (must be empty).
    pub violations: Vec<Violation>,
    /// Trace hash after quiescence (determinism witness).
    pub trace_hash: u64,
    /// Simulated end time.
    pub end: Time,
    /// Total events executed over the whole run.
    pub events: u64,
}

impl ChaosReport {
    /// Driver-side async ops issued (spawns excluded — they complete via
    /// LCO continuations, not op completions).
    pub fn issued(&self) -> u64 {
        self.puts_issued + self.gets_issued + self.migrations_issued + self.amos_issued
    }

    /// Completions that came back.
    pub fn acked(&self) -> u64 {
        self.put_acks + self.get_acks + self.migration_acks + self.amo_acks
    }

    /// Every issued op either completed or failed cleanly — nothing was
    /// silently lost.
    pub fn accounted(&self) -> bool {
        self.acked() + self.op_failures == self.issued()
    }

    /// The run's correctness verdict: consistent history, full accounting,
    /// no driver-visible data corruption.
    pub fn passed(&self) -> bool {
        self.violations.is_empty() && self.accounted() && self.data_mismatches == 0
    }
}

/// Drop-heavy mix: drops, duplicates, and delay spikes at rate `p`, no
/// payload corruption. The recovery path under test is deadline retry.
pub fn drop_mix(seed: u64, p: f64) -> FaultPlan {
    FaultPlan {
        seed,
        rates: FaultRates {
            drop: p,
            dup: p / 2.0,
            corrupt: 0.0,
            delay_p: p,
            delay_min_ns: 200,
            delay_max_ns: 4_000,
        },
        link_rates: Vec::new(),
        flaps: Vec::new(),
        partitions: Vec::new(),
    }
}

/// Corruption-heavy mix: corrupt draws and delay spikes at rate `p`, plus
/// light duplication, no outright drops. The paths under test are the
/// request-corruption CRC drop (recovered by deadline retry) and the parcel
/// checksum.
pub fn corrupt_mix(seed: u64, p: f64) -> FaultPlan {
    FaultPlan {
        seed,
        rates: FaultRates {
            drop: 0.0,
            dup: p / 2.0,
            corrupt: p,
            delay_p: p,
            delay_min_ns: 200,
            delay_max_ns: 4_000,
        },
        link_rates: Vec::new(),
        flaps: Vec::new(),
        partitions: Vec::new(),
    }
}

/// The single legal non-zero value of `(block, slot)` — every put to the
/// slot writes exactly this, so duplicated/retried applications are
/// idempotent.
fn slot_value(block: u64, slot: u32) -> u64 {
    mix64(0xC0A5_u64 ^ (block << 8) ^ slot as u64)
}

/// Byte offset of locality `slot`'s private slot inside each block.
fn slot_offset(slot: u32) -> u64 {
    64 + slot as u64 * 8
}

/// Run one chaos cell to quiescence and collect the report.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    let n = cfg.localities;
    assert!(n >= 2, "chaos needs remote traffic");
    assert!(
        slot_offset(n - 1) + 8 <= 1 << 12,
        "localities must fit the per-block slot table"
    );
    let mut b = Runtime::builder(n as usize, cfg.mode)
        .seed(cfg.seed)
        .faults(cfg.plan.clone())
        .gas_config(GasConfig {
            op_deadline: Some(Time::from_us(300)),
            sweep_interval: Time::from_us(30),
            record_history: true,
            ..GasConfig::default()
        });
    if cfg.spawns {
        // ISIR serializes parcels onto the wire, which is what gives the
        // corruption path (and the checksum that catches it) something to
        // chew on.
        b = b.rt_config(RtConfig {
            transport: Transport::Isir,
            ..RtConfig::default()
        });
    }
    let spawn_replies = Rc::new(Cell::new(0u64));
    let sr = spawn_replies.clone();
    let touch = b.register("chaos_touch", move |eng, ctx| {
        sr.set(sr.get() + 1);
        parcel_rt::reply(eng, &ctx, vec![]);
    });
    let mut rt = b.boot();
    let arr = rt.alloc(cfg.blocks, 12, Distribution::Cyclic);

    // Membership schedule: who transitions, and when (see the field doc).
    let (joiner, drainee, crashee) = (n - 1, 2u32, 1u32);
    let drainee = if cfg.mode.supports_migration() {
        drainee
    } else {
        joiner // PGAS: the joiner leaves again; nothing can evacuate
    };
    let r_join = cfg.rounds / 4;
    let r_drain = cfg.rounds / 2;
    let r_crash = cfg.rounds * 3 / 4;
    if cfg.membership {
        assert!(n >= 4, "the membership schedule needs 4 localities");
        assert!(cfg.rounds >= 8, "the membership schedule needs >= 8 rounds");
        agas::membership::mark(&mut rt.eng, joiner, agas::MemberState::Joining);
    }
    // Is locality `l` issuing driver traffic this round? Joining members
    // issue nothing until they join; drained/crashed members issue nothing
    // from their transition round on. (Traffic *to* their blocks keeps
    // flowing — that is the point of the exercise.)
    let participates = |l: u32, round: u64| -> bool {
        if !cfg.membership {
            return true;
        }
        (l != joiner || round >= r_join)
            && (l != drainee || round < r_drain)
            && (!cfg.mode.supports_migration() || l != crashee || round < r_crash)
    };

    let put_acks = Rc::new(Cell::new(0u64));
    let get_acks = Rc::new(Cell::new(0u64));
    let migration_acks = Rc::new(Cell::new(0u64));
    let amo_acks = Rc::new(Cell::new(0u64));
    let data_mismatches = Rc::new(Cell::new(0u64));
    let mut puts_issued = 0u64;
    let mut gets_issued = 0u64;
    let mut migrations_issued = 0u64;
    let mut spawns_issued = 0u64;
    let mut amos_issued = 0u64;

    for round in 0..cfg.rounds {
        if cfg.membership {
            if round == r_join {
                agas::membership::join(&mut rt.eng, joiner, 0);
            }
            if round == r_drain {
                agas::membership::drain(&mut rt.eng, drainee);
            }
            if round == r_crash && cfg.mode.supports_migration() {
                // Quiesce first: migration completions carry no deadline,
                // so an in-flight hand-off severed mid-protocol would hang
                // its requester forever. (The drain above also finishes
                // here — the evacuation pump runs until the node is Left.)
                rt.run();
                // Make sure the victim holds at least one block, so the
                // crash always has home-directory state to recover.
                let acks = migration_acks.clone();
                rt.migrate_cb(0, arr.block(0), crashee, move |_, _| {
                    acks.set(acks.get() + 1)
                });
                migrations_issued += 1;
                rt.run();
                agas::membership::crash(&mut rt.eng, crashee);
                // Let teardown + survivor notices execute so the next
                // round's traffic routes through the updated views.
                rt.eng.run_steps(64);
            }
        }
        for l in 0..n {
            if !participates(l, round) {
                continue;
            }
            // Writer: locality l refreshes its own slot of a rotating block.
            let wb = (round + 3 * l as u64) % cfg.blocks;
            let val = slot_value(wb, l);
            let acks = put_acks.clone();
            rt.memput_cb(
                l,
                arr.block(wb).with_offset(slot_offset(l)),
                val.to_le_bytes().to_vec(),
                move |_, _| acks.set(acks.get() + 1),
            );
            puts_issued += 1;

            // Reader: locality l audits another locality's slot. Anything
            // other than zeros (slot never written yet) or the slot's one
            // legal value is corruption the checker must also flag.
            let rb = (round + 5 * l as u64 + 1) % cfg.blocks;
            let owner = (l + 1) % n;
            let expect = slot_value(rb, owner);
            let acks = get_acks.clone();
            let bad = data_mismatches.clone();
            rt.memget_cb(
                l,
                arr.block(rb).with_offset(slot_offset(owner)),
                8,
                move |_, data| {
                    acks.set(acks.get() + 1);
                    let got = u64::from_le_bytes(data[..8].try_into().unwrap());
                    if got != 0 && got != expect {
                        bad.set(bad.get() + 1);
                    }
                },
            );
            gets_issued += 1;
        }

        if cfg.amos {
            for l in 0..n {
                if !participates(l, round) {
                    continue;
                }
                // Counter: locality l fetch-adds a rotating block's AMO
                // word. Words live at offsets 0..64, strictly below the
                // put/get slot table, so the word-level oracle sees every
                // observation and nothing aliases byte traffic.
                let ab = (round + 7 * l as u64) % cfg.blocks;
                let word = (round + l as u64) % 8;
                let acks = amo_acks.clone();
                rt.memamo_cb(
                    l,
                    arr.block(ab).with_offset(word * 8),
                    netsim::AmoOp::FetchAdd { operand: 1 },
                    move |_, _| acks.set(acks.get() + 1),
                );
                amos_issued += 1;
            }
        }

        if cfg.churn > 0 && round % cfg.churn == 0 && cfg.mode.supports_migration() {
            let k = round / cfg.churn;
            let req = (k % n as u64) as u32;
            let dst = ((k + 1) % n as u64) as u32;
            // Churn only between issuing members (migrating *to* a
            // draining or departed locality would no-op anyway).
            if participates(req, round) && participates(dst, round) {
                let acks = migration_acks.clone();
                rt.migrate_cb(req, arr.block(k % cfg.blocks), dst, move |_, _| {
                    acks.set(acks.get() + 1)
                });
                migrations_issued += 1;
            }
        }

        if cfg.spawns && round % 2 == 0 {
            // Above the eager threshold: forces the rendezvous data
            // transfer the fault plane is allowed to corrupt in place.
            let from = (round % n as u64) as u32;
            let args = ArgWriter::new().bytes(&vec![0x5A; 8192]).finish();
            rt.spawn(from, rt.anchor((from + 1) % n), touch, args, None);
            spawns_issued += 1;
        }

        rt.eng.run_steps(64);
    }
    rt.run();
    let events = rt.eng.events_executed();

    let world = &rt.eng.state;
    let mut violations = check_blocks(world, &arr.blocks);
    violations.extend(check_history(world));
    let anchors: Vec<Gva> = (0..n).map(|l| rt.anchor(l)).collect();
    violations.extend(check_blocks(world, &anchors));

    ChaosReport {
        mode: cfg.mode,
        seed: cfg.seed,
        puts_issued,
        gets_issued,
        migrations_issued,
        spawns_issued,
        amos_issued,
        put_acks: put_acks.get(),
        get_acks: get_acks.get(),
        migration_acks: migration_acks.get(),
        spawn_replies: spawn_replies.get(),
        amo_acks: amo_acks.get(),
        op_failures: world.op_failures.len() as u64,
        data_mismatches: data_mismatches.get(),
        corrupt_parcels: world.corrupt_parcels,
        gas: world.total_gas_stats(),
        net: world.cluster.total_counters(),
        faults: world.cluster.fault_stats(),
        violations,
        trace_hash: rt.eng.trace_hash(),
        end: rt.now(),
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_chaos_is_fully_acked_in_every_mode() {
        for mode in GasMode::ALL {
            let r = run_chaos(&ChaosConfig {
                mode,
                rounds: 12,
                ..ChaosConfig::default()
            });
            assert!(r.passed(), "{mode:?}: {r:?}");
            assert_eq!(r.op_failures, 0, "{mode:?}");
            assert_eq!(r.faults.total_drops(), 0, "{mode:?}");
            assert_eq!(r.acked(), r.issued(), "{mode:?}");
        }
    }

    #[test]
    fn dropped_messages_are_recovered_by_deadline_retry() {
        let r = run_chaos(&ChaosConfig {
            plan: drop_mix(7, 0.05),
            rounds: 16,
            ..ChaosConfig::default()
        });
        assert!(r.passed(), "{r:?}");
        assert!(
            r.faults.dropped > 0,
            "plan injected nothing: {:?}",
            r.faults
        );
        assert!(
            r.gas.deadline_retries > 0,
            "drops must exercise the sweep-retry path: {:?}",
            r.gas
        );
    }

    #[test]
    fn amo_traffic_is_fully_acked_and_checked() {
        for mode in GasMode::ALL {
            let r = run_chaos(&ChaosConfig {
                mode,
                rounds: 12,
                amos: true,
                ..ChaosConfig::default()
            });
            assert!(r.passed(), "{mode:?}: {r:?}");
            assert_eq!(r.amo_acks, r.amos_issued, "{mode:?}");
            assert_eq!(r.gas.amos, r.amos_issued, "{mode:?}");
        }
    }

    #[test]
    fn chaos_is_deterministic() {
        let cfg = ChaosConfig {
            plan: drop_mix(3, 0.02),
            rounds: 10,
            ..ChaosConfig::default()
        };
        let a = run_chaos(&cfg);
        let b = run_chaos(&cfg);
        assert_eq!(a.trace_hash, b.trace_hash);
        assert_eq!(a.end, b.end);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.acked(), b.acked());
    }

    #[test]
    fn membership_schedule_runs_lossless_in_every_mode() {
        for mode in GasMode::ALL {
            let r = run_chaos(&ChaosConfig {
                mode,
                membership: true,
                amos: true,
                ..ChaosConfig::default()
            });
            assert!(r.passed(), "{mode:?}: {r:?}");
            assert!(r.gas.blocks_rehomed > 0, "{mode:?}: join re-homed nothing");
            // PGAS's schedule has no crash (`ChaosConfig::membership`).
            let crashed = u64::from(mode.supports_migration());
            assert_eq!(
                (
                    r.gas.members_joined,
                    r.gas.members_drained,
                    r.gas.members_crashed
                ),
                (1, 1, crashed),
                "{mode:?}: joined/drained/crashed"
            );
            if mode.supports_migration() {
                assert!(
                    r.gas.blocks_recovered > 0,
                    "{mode:?}: crash recovered nothing: {:?}",
                    r.gas
                );
            }
        }
    }

    #[test]
    fn corrupted_parcels_are_caught_by_the_wire_checksum() {
        let r = run_chaos(&ChaosConfig {
            plan: corrupt_mix(11, 0.2),
            rounds: 20,
            spawns: true,
            churn: 0,
            ..ChaosConfig::default()
        });
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert!(r.accounted(), "{r:?}");
        assert!(
            r.corrupt_parcels > 0,
            "no parcel ever failed its checksum: {r:?}"
        );
        assert!(r.spawn_replies < r.spawns_issued);
    }
}
