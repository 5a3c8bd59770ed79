//! The in-runtime load balancer — AGAS's reason to exist, running as a
//! periodic *runtime service* rather than benchmark driver code.
//!
//! Every `period` of virtual time, the service:
//!
//! 1. drains per-block access telemetry from each locality — the NIC
//!    translation table's hit counters (network-managed mode) plus the
//!    software handlers' heat map (software mode) — and charges each block
//!    to the locality that holds it *now*;
//! 2. hands that heat to [`plan`], the policy, and requests the migrations
//!    it returns;
//! 3. reschedules itself — and stops after `IDLE_ROUNDS_TO_STOP`
//!    consecutive rounds with no traffic, so simulations still quiesce.
//!
//! A migration parks every access to the block for one hand-off, so the
//! policy only moves what pays for that. Two rules, each the fix for a
//! measured defect:
//!
//! * **Fresh heat.** [`start`] discards the counters accumulated before
//!   it ran; the first round judges one period of traffic, not the
//!   set-up phase.
//! * **A move must lower the maximum.** A block of heat `h` moves from a
//!   locality of load `hot` to the coolest one, of load `cool`, only if
//!   `2·h ≤ hot − cool`: the receiver then ends no hotter than the donor.
//!   Refusing only `h ≥ hot − cool` is not enough — a block of heat 868
//!   on a locality of load 913, coolest at 40, would still move
//!   (868 < 873), make its receiver the new maximum at 908, and move
//!   again next round.
//!   A block too hot to move is skipped and the next-hottest that fits is
//!   taken.
//!
//! Only the hottest locality donates: once it has no admissible move (one
//! unsplittable hot block, say) the round ends. Going on to the
//! second-hottest was measured and does not pay where the hottest is the
//! bottleneck — see ROADMAP 1(a).
//!
//! Telemetry gathering is modeled as free (a real implementation
//! piggybacks it on existing collectives); the migrations themselves run
//! the full protocol and pay full cost.

use crate::world::World;
use netsim::{Engine, LocalityId, Time};

/// The service stops after this many consecutive rounds with no observed
/// traffic.
const IDLE_ROUNDS_TO_STOP: u32 = 2;

/// Balancer policy parameters.
#[derive(Clone, Copy, Debug)]
pub struct BalancerConfig {
    /// Interval between policy rounds.
    pub period: Time,
    /// Maximum migrations per round.
    pub moves_per_round: usize,
    /// Only act when `hottest load > imbalance_ratio × coolest load`.
    pub imbalance_ratio: f64,
    /// Ignore blocks with fewer hits than this in a round.
    pub min_heat: u64,
}

impl Default for BalancerConfig {
    fn default() -> BalancerConfig {
        BalancerConfig {
            period: Time::from_us(200),
            moves_per_round: 4,
            imbalance_ratio: 1.5,
            min_heat: 8,
        }
    }
}

/// Cumulative balancer statistics (stored in the world).
#[derive(Clone, Copy, Debug, Default)]
pub struct BalancerStats {
    /// Policy rounds executed.
    pub rounds: u64,
    /// Migrations requested.
    pub migrations: u64,
    /// Candidate moves refused because they could not lower the maximum.
    pub refused: u64,
}

/// One block's accesses over a round, charged to the locality holding it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockHeat {
    /// Block key.
    pub block: u64,
    /// Accesses observed this round.
    pub hits: u64,
    /// Where the block is resident.
    pub owner: LocalityId,
}

/// One migration the policy asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Move {
    /// Block key.
    pub block: u64,
    /// The heat it carries from `from` to `to`.
    pub hits: u64,
    /// Current owner.
    pub from: LocalityId,
    /// New owner.
    pub to: LocalityId,
}

/// What [`plan`] decided for one round.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Plan {
    /// Migrations to request, in decision order.
    pub moves: Vec<Move>,
    /// Candidates skipped because `2·hits` exceeded the hot–cool gap.
    pub refused: u64,
}

/// The balancing policy: a pure function of one round's heat.
///
/// Greedy: while the hottest locality carries more than
/// `imbalance_ratio ×` the coolest's load, move its hottest block that
/// fits `2·hits ≤ hot − cool` to the coolest locality; blocks hotter than
/// that are refused for the round, and the round ends when the hottest
/// locality has no candidate left. Every move therefore strictly lowers
/// `max(donor, receiver)` and leaves the receiver no hotter than the
/// donor. A block nobody touched is never a candidate, whatever
/// `min_heat` says. Ties break on `(load, locality)` and `(hits, block)`,
/// so the order of `heat` does not matter.
pub fn plan(heat: &[BlockHeat], n: u32, cfg: &BalancerConfig) -> Plan {
    let n = n as usize;
    let mut load = vec![0u64; n];
    let mut held: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
    for h in heat {
        load[h.owner as usize] += h.hits;
        if h.hits >= cfg.min_heat.max(1) {
            held[h.owner as usize].push((h.hits, h.block));
        }
    }
    for blocks in &mut held {
        blocks.sort_unstable_by(|a, b| b.cmp(a));
    }
    // Per locality, how many of its blocks (hottest first) are already
    // moved or refused. A donor's gap only shrinks within a round, so a
    // block refused once stays refused.
    let mut taken = vec![0usize; n];
    let mut out = Plan::default();
    while out.moves.len() < cfg.moves_per_round {
        let by_load = |&l: &usize| (load[l], l);
        let (Some(hot), Some(cool)) = ((0..n).max_by_key(by_load), (0..n).min_by_key(by_load))
        else {
            break;
        };
        if hot == cool || (load[hot] as f64) <= (load[cool].max(1) as f64) * cfg.imbalance_ratio {
            break;
        }
        let gap = load[hot] - load[cool];
        let too_hot = held[hot][taken[hot]..]
            .iter()
            .take_while(|&&(hits, _)| 2 * hits > gap)
            .count();
        out.refused += too_hot as u64;
        taken[hot] += too_hot;
        let Some(&(hits, block)) = held[hot].get(taken[hot]) else {
            break;
        };
        taken[hot] += 1;
        load[hot] -= hits;
        load[cool] += hits;
        out.moves.push(Move {
            block,
            hits,
            from: hot as LocalityId,
            to: cool as LocalityId,
        });
    }
    out
}

/// Start the balancer service. Call once after boot (and after the GAS
/// mode is known — it refuses to run under PGAS, where nothing can move).
/// Hits counted before this call are discarded.
pub fn start(eng: &mut Engine<World>, cfg: BalancerConfig) {
    assert!(
        eng.state.mode.supports_migration(),
        "the balancer needs a mobile GAS (AGAS mode)"
    );
    drain_hits(eng);
    eng.schedule(cfg.period, move |eng| round(eng, cfg, 0));
}

/// Drain every locality's counters: `(block, observer, hits)`, sorted.
fn drain_hits(eng: &mut Engine<World>) -> Vec<(u64, LocalityId, u64)> {
    let mut seen = Vec::new();
    for loc in 0..eng.state.n_localities() {
        let nic = eng
            .state
            .cluster
            .loc_mut(loc)
            .nic
            .xlate
            .take_hit_telemetry();
        let sw = eng.state.gas[loc as usize].take_heat();
        seen.extend(
            nic.into_iter()
                .chain(sw)
                .map(|(block, hits)| (block, loc, hits)),
        );
    }
    seen.sort_unstable();
    seen
}

/// Sum a round's observations per block and charge each block to the
/// locality it is resident on now — a block that migrated mid-round was
/// counted at both ends. A block resident nowhere is mid-hand-off and sits
/// this round out.
fn attribute(eng: &Engine<World>, seen: &[(u64, LocalityId, u64)]) -> Vec<BlockHeat> {
    let holds = |loc: LocalityId, block| eng.state.gas[loc as usize].btt.is_resident(block);
    let n = eng.state.n_localities();
    seen.chunk_by(|a, b| a.0 == b.0)
        .filter_map(|observed| {
            let block = observed[0].0;
            // Usually an observer still holds it; one that moved on and
            // was not touched since could be anywhere.
            let owner = observed
                .iter()
                .map(|&(_, loc, _)| loc)
                .find(|&loc| holds(loc, block))
                .or_else(|| (0..n).find(|&loc| holds(loc, block)))?;
            Some(BlockHeat {
                block,
                hits: observed.iter().map(|&(_, _, hits)| hits).sum(),
                owner,
            })
        })
        .collect()
}

fn round(eng: &mut Engine<World>, cfg: BalancerConfig, idle_rounds: u32) {
    eng.state.balancer_stats.rounds += 1;
    let seen = drain_hits(eng);
    if seen.is_empty() {
        let idle = idle_rounds + 1;
        if idle < IDLE_ROUNDS_TO_STOP {
            eng.schedule(cfg.period, move |eng| round(eng, cfg, idle));
        }
        return;
    }
    let heat = attribute(eng, &seen);
    let planned = plan(&heat, eng.state.n_localities(), &cfg);
    let stats = &mut eng.state.balancer_stats;
    stats.migrations += planned.moves.len() as u64;
    stats.refused += planned.refused;
    for m in planned.moves {
        agas::migrate::migrate_block(
            eng,
            m.from,
            agas::Gva(m.block),
            m.to,
            crate::world::NO_COMPLETION,
        );
    }
    eng.schedule(cfg.period, move |eng| round(eng, cfg, 0));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runtime;
    use agas::{Distribution, GasMode};

    fn heat(rows: &[(u64, u64, LocalityId)]) -> Vec<BlockHeat> {
        rows.iter()
            .map(|&(block, hits, owner)| BlockHeat { block, hits, owner })
            .collect()
    }

    fn cfg() -> BalancerConfig {
        BalancerConfig::default()
    }

    #[test]
    fn a_block_alone_on_its_locality_never_moves() {
        // `2·868 ≤ 868 − cool` has no solution: wherever the coolest
        // stands, moving the block only relocates the maximum.
        for cool in [0, 40] {
            let p = plan(&heat(&[(1, 868, 2), (2, cool, 0), (3, 300, 1)]), 3, &cfg());
            assert_eq!(p.moves, [], "coolest at {cool}");
            assert_eq!(p.refused, 1);
        }
    }

    #[test]
    fn a_move_that_would_only_relocate_the_maximum_is_refused() {
        // The measured ping-pong: hot = 868 + 45, cool = 40, gap 873.
        // 868 < 873, so refusing only `h ≥ gap` moves the block and makes
        // the receiver the new maximum at 908.
        let h = heat(&[(1, 868, 1), (2, 45, 1), (3, 40, 0), (4, 100, 2)]);
        let p = plan(&h, 3, &cfg());
        assert!(p.moves.iter().all(|m| m.block != 1), "{p:?}");
        assert!(p.refused >= 1);
    }

    #[test]
    fn the_next_hottest_block_that_fits_is_taken() {
        // 600 is too hot for a gap of 1000; 300 fits (600 ≤ 1000), then
        // 100 against the remaining gap of 400. 600 : 400 is within ratio.
        let h = heat(&[(1, 600, 0), (2, 300, 0), (3, 100, 0)]);
        let p = plan(&h, 2, &cfg());
        let moved: Vec<(u64, u64)> = p.moves.iter().map(|m| (m.block, m.hits)).collect();
        assert_eq!(moved, [(2, 300), (3, 100)]);
        assert!(p.moves.iter().all(|m| (m.from, m.to) == (0, 1)));
        assert_eq!(p.refused, 1);
    }

    #[test]
    fn an_untouched_block_is_never_a_candidate() {
        // With no heat floor the 0-hit block would "move" once the 5 is
        // refused: a real hand-off that changes no load.
        let no_floor = BalancerConfig {
            min_heat: 0,
            ..cfg()
        };
        let p = plan(&heat(&[(1, 5, 0), (2, 0, 0)]), 2, &no_floor);
        assert_eq!((p.moves.len(), p.refused), (0, 1), "{p:?}");
    }

    #[test]
    fn balanced_or_cold_heat_plans_nothing() {
        let even = heat(&[(1, 100, 0), (2, 90, 1), (3, 80, 2)]);
        assert_eq!(plan(&even, 3, &cfg()), Plan::default());
        // Below `min_heat` a block is no candidate, however skewed.
        let cold = heat(&[(1, 7, 0), (2, 7, 0), (3, 7, 0)]);
        assert_eq!(plan(&cold, 3, &cfg()), Plan::default());
        assert_eq!(plan(&[], 3, &cfg()), Plan::default());
    }

    #[test]
    fn moves_per_round_caps_the_plan() {
        let h: Vec<BlockHeat> = (0..32)
            .map(|i| BlockHeat {
                block: i,
                hits: 50,
                owner: 0,
            })
            .collect();
        let one = BalancerConfig {
            moves_per_round: 1,
            ..cfg()
        };
        assert_eq!(plan(&h, 8, &one).moves.len(), 1);
        assert_eq!(plan(&h, 8, &cfg()).moves.len(), 4);
    }

    /// Hits are counted where they were served; a block that moved from a
    /// higher-numbered locality to a lower one mid-round was counted at
    /// both and must be planned from where it is now.
    #[test]
    fn a_block_that_moved_mid_round_is_charged_to_its_new_owner() {
        for mode in [GasMode::AgasSoftware, GasMode::AgasNetwork] {
            let mut rt = Runtime::builder(4, mode).boot();
            // Cyclic: block i starts on locality i.
            let data = rt.alloc(4, 12, Distribution::Cyclic);
            let (moved, stays) = (data.block(3), data.block(1));
            drain_hits(&mut rt.eng);
            for _ in 0..5 {
                rt.memput(0, moved, vec![1; 8]);
            }
            rt.run();
            rt.migrate(3, moved, 1);
            rt.run();
            for _ in 0..7 {
                rt.memput(0, moved, vec![2; 8]);
            }
            for _ in 0..20 {
                rt.memput(0, stays, vec![3; 8]);
            }
            rt.run();
            let seen = drain_hits(&mut rt.eng);
            let observers: Vec<LocalityId> = seen
                .iter()
                .filter(|&&(b, _, _)| b == moved.block_key())
                .map(|&(_, loc, _)| loc)
                .collect();
            assert_eq!(observers, [1, 3], "{mode:?}: counted at both ends");
            let heat = attribute(&rt.eng, &seen);
            let h = heat
                .iter()
                .find(|h| h.block == moved.block_key())
                .expect("the moved block was touched");
            assert_eq!(h.owner, 1, "{mode:?}: charged to a locality it left");
            assert!(h.hits >= 12, "{mode:?}: {h:?}");
            // Locality 1 now holds 20 + 12 of the 32 hits: `stays` is too
            // hot to move, the newcomer fits.
            let min1 = BalancerConfig {
                min_heat: 1,
                ..cfg()
            };
            let p = plan(&heat, 4, &min1);
            assert_eq!(p.moves.len(), 1, "{mode:?}: {p:?}");
            assert_eq!(
                (p.moves[0].block, p.moves[0].from),
                (moved.block_key(), 1),
                "{mode:?}"
            );
            assert!(drain_hits(&mut rt.eng).is_empty(), "the drain resets");
        }
    }
}
