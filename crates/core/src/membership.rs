//! The elastic membership plane: join, drain, and crash-recovery for the
//! locality set (DESIGN.md §3.9).
//!
//! A cluster's locality set is fixed at boot (the simulator cannot grow a
//! [`netsim::Cluster`]), so elasticity is expressed as *states*: a locality
//! reserved at boot starts `Joining` (it serves nothing), becomes `Active`
//! when it **joins** (taking over a slice of directory duty from a donor),
//! steps through `Draining` while it evacuates every resident block over
//! the ordinary migration protocol, and ends `Left` (directory duty handed
//! to a take-over locality) or `Crashed` (links severed by the fault
//! plane, state torn down, home-directory blocks re-issued under a
//! `REISSUE_GENERATION_BUMP`).
//!
//! ```text
//!   Joining ──join──▶ Active ──drain──▶ Draining ──evacuated──▶ Left
//!                        │                  │
//!                        └──────crash───────┴──────▶ Crashed
//! ```
//!
//! Every transition is an engine *event*, scheduled per locality with
//! [`netsim::Engine::schedule_at_loc`] so a sharded run executes the
//! same mutations on the same lanes at the same instants — the membership
//! chaos cells pin bit-identical trace hashes at 1/2/4/8 lanes.
//!
//! **Resolution.** Each locality keeps a [`MembershipView`]: the member
//! states, a `served_by` indirection (who answers for a departed
//! locality's directory shard), and per-block home overrides installed by
//! join slices, drain hand-offs, and crash censuses. The *serving home* of
//! a block is `resolve(block, encoded_home)`; an inert view (no membership
//! event ever fired) resolves to the encoded home with zero overhead, so
//! every pre-membership golden schedule is untouched. PGAS routing ignores
//! the view entirely — static placement cannot re-home.
//!
//! **Crash recovery.** Severing links is draw-free ([`netsim::FaultPlane`]
//! checks scheduled outages before consuming randomness), so survivor
//! traffic keeps its schedule. Survivors then purge NIC forward chains
//! transiting the dead hop, purge owner-cache hints naming it, and
//! re-issue lost blocks: each surviving home re-issues its own records
//! whose owner died, and the take-over locality re-issues the dead home's
//! census. Re-issued blocks are zero-filled with a large generation bump
//! (stale in-flight commits lose), and each re-issue is logged as a
//! [`HistKind::Recover`] event so the history checker accepts
//! post-recovery zeros.

use crate::gva::Gva;
use crate::migrate::send_ctrl;
use crate::{GasMsg, GasWorld, HistEvent, HistKind, OwnerRec};
use netsim::{Engine, FaultPlan, FaultPlane, LocalityId, OpId, Time};
use std::collections::{BTreeMap, BTreeSet};

/// Fault-plane seed used when a crash must install a plane on a cluster
/// that booted without one (fixed: deterministic runs).
const CRASH_FAULT_SEED: u64 = 0x000c_4a54_5eed;

/// Generation bump applied to re-issued blocks, large enough to dominate
/// any in-flight migration commit racing the recovery.
const REISSUE_GENERATION_BUMP: u32 = 1 << 20;

/// Blocks a draining locality evacuates per pump round.
const EVAC_BATCH: usize = 4;

/// Delay between evacuation pump rounds.
const EVAC_INTERVAL: Time = Time::from_ns(2_000);

/// Lifecycle state of one locality.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MemberState {
    /// Reserved at boot, not yet serving: no blocks, no directory duty.
    Joining,
    /// Full member.
    #[default]
    Active,
    /// Evacuating resident blocks; still serving its directory shard.
    Draining,
    /// Departed cleanly: blocks evacuated, directory duty handed off.
    Left,
    /// Failed: links severed, state lost, blocks recovered elsewhere.
    Crashed,
}

impl MemberState {
    /// Short label for quiescence reports.
    pub fn label(self) -> &'static str {
        match self {
            MemberState::Joining => "joining",
            MemberState::Active => "active",
            MemberState::Draining => "draining",
            MemberState::Left => "left",
            MemberState::Crashed => "crashed",
        }
    }
}

/// One membership transition, as broadcast to every locality (directly as
/// a scheduled event for join/crash, over the wire as [`GasMsg::Member`]
/// for a drain's final hand-off).
#[derive(Clone, Debug)]
pub struct MemberUpdate {
    /// The locality changing state.
    pub loc: LocalityId,
    /// Its new state.
    pub state: MemberState,
    /// Who serves its directory duty from now on (`None`: itself).
    pub served_by: Option<LocalityId>,
    /// Blocks whose serving home moves with this update (to `served_by`
    /// when set, otherwise to `loc` — the join-slice case).
    pub rehomed: Vec<u64>,
}

/// One locality's view of the membership plane.
///
/// Inert by default: an empty `states` vector means no membership event
/// ever reached this locality, [`MembershipView::resolve`] returns the
/// encoded home unconditionally, and no schedule changes.
#[derive(Debug, Default)]
pub struct MembershipView {
    /// Per-locality states (empty until the first membership event).
    pub states: Vec<MemberState>,
    /// Directory-duty indirection: `served_by[l]` answers for `l`'s shard
    /// (identity while `l` serves its own).
    pub served_by: Vec<LocalityId>,
    /// Per-block serving-home overrides (join slices, hand-offs, censuses).
    pub home_override: BTreeMap<u64, LocalityId>,
    /// Blocks this locality is currently evacuating (drain bookkeeping;
    /// completions are intercepted at [`GasMsg::MigDone`]).
    pub evac: BTreeSet<u64>,
}

impl MembershipView {
    /// Grow the view to `n` localities (all `Active`, serving themselves).
    pub fn ensure(&mut self, n: usize) {
        if self.states.len() < n {
            self.states.resize(n, MemberState::Active);
        }
        while self.served_by.len() < n {
            self.served_by.push(self.served_by.len() as LocalityId);
        }
    }

    /// Has any membership event reached this view?
    pub fn is_enabled(&self) -> bool {
        !self.states.is_empty()
    }

    /// State of `loc` (Active while the view is inert).
    pub fn state_of(&self, loc: LocalityId) -> MemberState {
        self.states
            .get(loc as usize)
            .copied()
            .unwrap_or(MemberState::Active)
    }

    /// Is `loc` crashed in this view?
    pub fn is_crashed(&self, loc: LocalityId) -> bool {
        self.state_of(loc) == MemberState::Crashed
    }

    /// The locality currently serving `block`'s directory record, chasing
    /// the `served_by` indirection from the per-block override (or the
    /// GVA-encoded home). Bounded by the locality count, so a cyclic
    /// hand-off chain cannot hang resolution.
    pub fn resolve(&self, block: u64, encoded_home: LocalityId) -> LocalityId {
        if self.states.is_empty() {
            return encoded_home;
        }
        let mut cur = self
            .home_override
            .get(&block)
            .copied()
            .unwrap_or(encoded_home);
        for _ in 0..self.served_by.len() {
            let next = self.served_by.get(cur as usize).copied().unwrap_or(cur);
            if next == cur {
                break;
            }
            cur = next;
        }
        cur
    }

    /// Apply one transition to this view (`n` = cluster size).
    pub fn apply(&mut self, n: usize, u: &MemberUpdate) {
        self.ensure(n);
        self.states[u.loc as usize] = u.state;
        if let Some(t) = u.served_by {
            self.served_by[u.loc as usize] = t;
        }
        let target = u.served_by.unwrap_or(u.loc);
        for &b in &u.rehomed {
            self.home_override.insert(b, target);
        }
    }

    /// One-line state summary for quiescence reports; `None` while inert.
    pub fn render(&self) -> Option<String> {
        if !self.is_enabled() {
            return None;
        }
        let states: Vec<String> = self
            .states
            .iter()
            .enumerate()
            .map(|(l, s)| format!("{l}:{}", s.label()))
            .collect();
        Some(format!(
            "membership: [{}] overrides={} evac={}",
            states.join(" "),
            self.home_override.len(),
            self.evac.len()
        ))
    }
}

/// The sentinel op handle carried by a drain-evacuation migration: the
/// completion is intercepted at [`GasMsg::MigDone`] instead of reaching a
/// user callback. Generation 0 never collides with table-allocated ids.
pub(crate) fn evac_ctx(block: u64) -> OpId {
    OpId::from_parts((block & 0xffff_ffff) as u32, 0)
}

/// The next `Active` locality after `loc` in `view` (wrapping), if any.
fn next_active(view: &MembershipView, loc: LocalityId, n: usize) -> Option<LocalityId> {
    (1..n as LocalityId)
        .map(|i| (loc + i) % n as LocalityId)
        .find(|&cand| view.state_of(cand) == MemberState::Active)
}

// ------------------------------------------------------------ driver phase
//
// The functions below are called from driver code (between engine runs, or
// via `ShardedEngine::drive`): they may read any locality's state to plan
// the transition, but every *mutation* is packaged as a per-locality event
// so a sharded run stays bit-identical.

/// Immediately set `loc`'s state in every view (driver phase, before
/// traffic) — marks a boot-reserved locality `Joining` so workloads skip
/// it until [`join`] fires.
pub fn mark<S: GasWorld>(eng: &mut Engine<S>, loc: LocalityId, state: MemberState) {
    let n = eng.state.cluster_ref().len();
    for l in 0..n as LocalityId {
        let g = eng.state.gas(l);
        g.member.ensure(n);
        g.member.states[loc as usize] = state;
    }
}

/// Bring `joiner` into the membership: it takes over every second record
/// of `donor`'s directory shard (the join slice), warms its NIC
/// translation table with forwards at the believed owners, and becomes
/// `Active` everywhere. Scheduled one tick out so the transition is an
/// ordinary engine event.
pub fn join<S: GasWorld>(eng: &mut Engine<S>, joiner: LocalityId, donor: LocalityId) {
    assert_ne!(joiner, donor, "a locality cannot donate to itself");
    let n = eng.state.cluster_ref().len();
    let slice: Vec<(u64, OwnerRec)> = eng
        .state
        .gas(donor)
        .dir
        .records()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| i % 2 == 0)
        .map(|(_, r)| r)
        .collect();
    let t = eng.now() + Time::from_ns(1);
    let update = MemberUpdate {
        loc: joiner,
        state: MemberState::Active,
        served_by: None,
        rehomed: slice.iter().map(|&(b, _)| b).collect(),
    };
    for l in 0..n as LocalityId {
        let u = update.clone();
        eng.schedule_at_loc(t, l, move |eng| {
            let n = eng.state.cluster_ref().len();
            eng.state.gas(l).member.apply(n, &u);
        });
    }
    let warm = slice.clone();
    eng.schedule_at_loc(t, joiner, move |eng| {
        for &(b, rec) in &warm {
            eng.state.gas(joiner).dir.install(b, rec);
            if eng.state.stack().nic_table() && rec.owner != joiner {
                // Warm translation: a forward at the serving home lets
                // one-sided traffic chase straight to the believed owner
                // instead of paying a software miss first. The owner holds
                // `rec.generation`, so the tombstone reads as retired one
                // generation earlier.
                eng.state
                    .cluster()
                    .loc_mut(joiner)
                    .nic
                    .xlate
                    .retire_to_forward(b, rec.owner, rec.generation.saturating_sub(1));
            }
        }
        let stats = &mut eng.state.gas(joiner).stats;
        stats.blocks_rehomed += warm.len() as u64;
        stats.members_joined += 1;
    });
    let retired: Vec<u64> = slice.iter().map(|&(b, _)| b).collect();
    eng.schedule_at_loc(t, donor, move |eng| {
        for b in retired {
            eng.state.gas(donor).dir.unregister(b);
        }
    });
}

/// Start draining `d`: every view marks it `Draining` one tick out, and an
/// evacuation pump on `d` migrates resident blocks to the remaining
/// `Active` localities in `EVAC_BATCH`-sized batches while user traffic
/// keeps flowing. When the last block (and in-flight hand-off) clears, `d`
/// hands its directory shard to a take-over locality and broadcasts
/// `Left`.
pub fn drain<S: GasWorld>(eng: &mut Engine<S>, d: LocalityId) {
    let n = eng.state.cluster_ref().len();
    let t = eng.now() + Time::from_ns(1);
    let update = MemberUpdate {
        loc: d,
        state: MemberState::Draining,
        served_by: None,
        rehomed: Vec::new(),
    };
    for l in 0..n as LocalityId {
        let u = update.clone();
        eng.schedule_at_loc(t, l, move |eng| {
            let n = eng.state.cluster_ref().len();
            eng.state.gas(l).member.apply(n, &u);
        });
    }
    eng.schedule_at_loc(t, d, move |eng| evac_pump(eng, d));
}

/// One evacuation round at a draining locality: finish the drain if
/// nothing is left, otherwise migrate the next batch of resident,
/// unpinned, not-yet-moving blocks and reschedule.
fn evac_pump<S: GasWorld>(eng: &mut Engine<S>, d: LocalityId) {
    let n = eng.state.cluster_ref().len();
    let g = eng.state.gas(d);
    if g.member.state_of(d) != MemberState::Draining {
        return; // crashed (or otherwise superseded) mid-drain
    }
    if g.btt.is_empty()
        && g.moving.is_empty()
        && g.member.evac.is_empty()
        && g.pending_installs.is_empty()
    {
        finish_drain(eng, d);
        return;
    }
    if !eng.state.gas_mode().supports_migration() {
        // PGAS cannot evacuate (static placement): the drain is
        // metadata-only — hand off directory duty and leave; the blocks
        // stay where the address map pinned them.
        finish_drain(eng, d);
        return;
    }
    let targets: Vec<LocalityId> = (0..n as LocalityId)
        .filter(|&l| l != d && eng.state.gas_ref(d).member.state_of(l) == MemberState::Active)
        .collect();
    if !targets.is_empty() {
        let g = eng.state.gas(d);
        let mut batch: Vec<u64> = g
            .btt
            .keys()
            .filter(|&b| {
                g.btt.is_resident(b)
                    && g.btt.lookup(b).is_some_and(|e| e.pins == 0)
                    && !g.moving.contains_key(&b)
                    && !g.member.evac.contains(&b)
            })
            .collect();
        batch.sort_unstable();
        batch.truncate(EVAC_BATCH);
        for b in batch {
            eng.state.gas(d).member.evac.insert(b);
            let dst = targets[(b % targets.len() as u64) as usize];
            crate::migrate::migrate_block(eng, d, Gva(b), dst, evac_ctx(b));
        }
    }
    eng.schedule(EVAC_INTERVAL, move |eng| evac_pump(eng, d));
}

/// The drain's final act, run at `d` once it holds no blocks: hand the
/// directory shard to the next `Active` locality and broadcast `Left`.
fn finish_drain<S: GasWorld>(eng: &mut Engine<S>, d: LocalityId) {
    let n = eng.state.cluster_ref().len();
    let Some(takeover) = next_active(&eng.state.gas_ref(d).member, d, n) else {
        return; // nobody left to serve the shard; stay Draining
    };
    let records = eng.state.gas(d).dir.records();
    let rehomed: Vec<u64> = records.iter().map(|&(b, _)| b).collect();
    let ctrl = eng.state.cluster_ref().config.ctrl_bytes;
    send_ctrl(eng, d, takeover, ctrl, GasMsg::DirHandoff { records });
    let update = MemberUpdate {
        loc: d,
        state: MemberState::Left,
        served_by: Some(takeover),
        rehomed,
    };
    for l in 0..n as LocalityId {
        if l == d {
            continue;
        }
        let u = update.clone();
        send_ctrl(eng, d, l, ctrl, GasMsg::Member { update: u });
    }
    let g = eng.state.gas(d);
    g.member.apply(n, &update);
    g.dir.clear();
    g.stats.members_drained += 1;
}

/// Crash `x`: sever every link to and from it (draw-free — survivor
/// traffic keeps its schedule), tear down its state one tick out, and run
/// recovery at the survivors — NIC/cache hygiene plus deterministic
/// re-issue of the blocks whose only copy died with `x`, under a
/// `REISSUE_GENERATION_BUMP`.
pub fn crash<S: GasWorld>(eng: &mut Engine<S>, x: LocalityId) {
    let n = eng.state.cluster_ref().len();
    let t = eng.now() + Time::from_ns(1);
    eng.state
        .cluster()
        .faults
        .get_or_insert_with(|| FaultPlane::new(FaultPlan::lossless(CRASH_FAULT_SEED)))
        .sever_locality(x, n, t);
    // The dead home's census, read at driver phase: the survivors agree on
    // exactly this record set (deterministic, sorted by block key).
    let census = eng.state.gas(x).dir.records();
    let takeover = next_active(&eng.state.gas_ref(x).member, x, n).expect("crash with no survivor");
    eng.schedule_at_loc(t, x, move |eng| crash_teardown(eng, x));
    for l in 0..n as LocalityId {
        if l == x {
            continue;
        }
        let census = census.clone();
        eng.schedule_at_loc(t, l, move |eng| {
            crash_notice(eng, l, x, takeover, &census);
        });
    }
}

/// `x`'s own last event: everything it held is gone. Pins die with it,
/// its arena blocks free (lane-local), its tables clear, and its pending
/// initiator ops vanish unobserved.
fn crash_teardown<S: GasWorld>(eng: &mut Engine<S>, x: LocalityId) {
    let n = eng.state.cluster_ref().len();
    {
        let g = eng.state.gas(x);
        g.member.ensure(n);
        g.member.states[x as usize] = MemberState::Crashed;
        g.member.evac.clear();
        g.moving.clear();
        g.pending_installs.clear();
        g.deferred.clear();
        g.dir.clear();
        let _ = g.pending.drain_filter(|_, _| true);
        // Its posted attempts and send queue die with the ops.
        g.posted = 0;
        g.send_queue.clear();
    }
    let blocks = eng.state.gas(x).btt.take_all();
    for &(_, e) in &blocks {
        eng.state.cluster().mem_mut(x).free_block(e.base, e.class);
    }
    // Requests parked at the dead NIC die with it, like any request that
    // was on the wire toward `x`; their expiry timers find nothing.
    let nic = &mut eng.state.cluster().loc_mut(x).nic;
    nic.xlate.flush_live();
    nic.parked.clear();
}

/// One survivor's crash handling: update the view, purge NIC forwards
/// transiting the dead hop and owner-cache hints naming it, then re-issue
/// lost blocks this locality is (or just became) the serving home for.
fn crash_notice<S: GasWorld>(
    eng: &mut Engine<S>,
    l: LocalityId,
    x: LocalityId,
    takeover: LocalityId,
    census: &[(u64, OwnerRec)],
) {
    let n = eng.state.cluster_ref().len();
    {
        let g = eng.state.gas(l);
        g.member.ensure(n);
        g.member.states[x as usize] = MemberState::Crashed;
        g.member.served_by[x as usize] = takeover;
        for &(b, _) in census {
            g.member.home_override.insert(b, takeover);
        }
    }
    // A forward chain transiting the dead hop would re-inject traffic
    // into a black hole until its TTL burned out; purge it now.
    let dropped = eng
        .state
        .cluster()
        .loc_mut(l)
        .nic
        .xlate
        .purge_forwards_via(x);
    eng.state.gas(l).stats.stale_xlate_dropped += dropped;
    eng.state.gas(l).cache.purge_owner(x);
    // Blocks homed *here* whose only copy died at x.
    let lost: Vec<(u64, OwnerRec)> = eng
        .state
        .gas(l)
        .dir
        .records()
        .into_iter()
        .filter(|&(_, rec)| rec.owner == x)
        .collect();
    for (b, rec) in lost {
        reissue_block(eng, l, b, rec.generation + REISSUE_GENERATION_BUMP);
    }
    if l == takeover {
        eng.state.gas(l).stats.members_crashed += 1;
        // The dead home's shard is ours now: install the census, and
        // re-issue the records whose owner died with their home.
        for &(b, rec) in census {
            eng.state.gas(l).dir.install(b, rec);
            if rec.owner == x {
                reissue_block(eng, l, b, rec.generation + REISSUE_GENERATION_BUMP);
            }
        }
    }
}

/// Deterministically re-issue one lost block at `l`: a zero-filled
/// replacement under a bumped generation, recorded as a
/// [`HistKind::Recover`] event so the checker accepts post-recovery
/// zeros.
fn reissue_block<S: GasWorld>(eng: &mut Engine<S>, l: LocalityId, block: u64, generation: u32) {
    if eng.state.gas(l).btt.lookup(block).is_some() {
        return; // already resident here (a racing hand-off won)
    }
    let class = Gva(block).class();
    let phys = eng
        .state
        .cluster()
        .mem_mut(l)
        .alloc_block(class)
        .expect("arena exhausted re-issuing a recovered block");
    crate::ops::make_resident(eng, l, block, phys, class, generation);
    let now = eng.now();
    let g = eng.state.gas(l);
    g.dir.install(
        block,
        OwnerRec {
            owner: l,
            generation,
        },
    );
    g.stats.blocks_recovered += 1;
    if g.cfg.record_history {
        g.history.push(HistEvent {
            kind: HistKind::Recover,
            block,
            offset: 0,
            len: 0,
            value: 0,
            issued: now,
            done: Some(now),
            ok: true,
            loc: l,
        });
    }
}

// ---------------------------------------------------------------- handlers

/// Handle a wire [`GasMsg::Member`] broadcast (a drain's `Left`).
pub(crate) fn on_member_update<S: GasWorld>(
    eng: &mut Engine<S>,
    at: LocalityId,
    update: MemberUpdate,
) {
    let n = eng.state.cluster_ref().len();
    eng.state.gas(at).member.apply(n, &update);
}

/// Handle a wire [`GasMsg::DirHandoff`]: install the departed shard's
/// records (newest generation wins, so racing commits are safe in either
/// order).
pub(crate) fn on_dir_handoff<S: GasWorld>(
    eng: &mut Engine<S>,
    at: LocalityId,
    records: Vec<(u64, OwnerRec)>,
) {
    for (b, rec) in records {
        eng.state.gas(at).dir.install(b, rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_view_resolves_to_encoded_home() {
        let v = MembershipView::default();
        assert!(!v.is_enabled());
        assert_eq!(v.resolve(0x1000, 2), 2);
        assert_eq!(v.state_of(7), MemberState::Active);
        assert!(v.render().is_none());
    }

    #[test]
    fn overrides_and_served_by_chase() {
        let mut v = MembershipView::default();
        v.ensure(4);
        // Block 8 re-homed to 3; 3 later left, served by 1.
        v.apply(
            4,
            &MemberUpdate {
                loc: 3,
                state: MemberState::Active,
                served_by: None,
                rehomed: vec![8],
            },
        );
        assert_eq!(v.resolve(8, 0), 3);
        v.apply(
            4,
            &MemberUpdate {
                loc: 3,
                state: MemberState::Left,
                served_by: Some(1),
                rehomed: vec![],
            },
        );
        assert_eq!(v.resolve(8, 0), 1);
        assert_eq!(v.resolve(99, 0), 0, "un-overridden block keeps its home");
        assert_eq!(v.state_of(3), MemberState::Left);
    }

    #[test]
    fn resolve_is_bounded_on_cycles() {
        let mut v = MembershipView::default();
        v.ensure(2);
        // A (never legal) served_by cycle must not hang resolution.
        v.served_by[0] = 1;
        v.served_by[1] = 0;
        let r = v.resolve(5, 0);
        assert!(r == 0 || r == 1);
    }

    #[test]
    fn next_active_skips_non_members() {
        let mut v = MembershipView::default();
        v.ensure(4);
        v.states[1] = MemberState::Crashed;
        v.states[2] = MemberState::Draining;
        assert_eq!(next_active(&v, 0, 4), Some(3));
        v.states[3] = MemberState::Left;
        assert_eq!(next_active(&v, 0, 4), None);
    }

    #[test]
    fn evac_ctx_is_generation_zero() {
        let id = evac_ctx(0xdead_beef_0000);
        assert_eq!(id.generation(), 0);
    }
}
