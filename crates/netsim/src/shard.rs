//! Sharded deterministic execution: N time-wheel lanes under a
//! conservative LogGP-lookahead barrier.
//!
//! The sequential [`Engine`] executes one event at a time;
//! every experiment is single-core. This module partitions the cluster's
//! localities into `N` contiguous *lanes*, each with its own time-wheel
//! and worker thread, and synchronizes them with the classic conservative
//! PDES argument specialized to our LogGP fabric:
//!
//! > Every event one lane schedules onto another lies at least the
//! > *lookahead* `W` in its future: the wire latency `L`
//! > (`NetConfig::latency`), or the shared-memory load/store cost when a
//! > cheaper shm domain straddles a lane boundary
//! > ([`ShardedEngine::lookahead`]). Therefore, if `t_min` is the globally
//! > earliest pending event, no lane can receive a *new* event below
//! > `t_min + W` from another lane — all lanes may execute their pending
//! > events with `time < t_min + W` concurrently without ever seeing a
//! > straggler.
//!
//! The subtle part is not safety but *bit-exact determinism*: the merged
//! execution must replay the sequential engine's `(time, seq)` order —
//! including the `seq` values themselves, because the trace hash folds
//! them in. Lanes therefore do not assign sequence numbers at all. Inside
//! a window a lane orders its own newly scheduled events with provisional
//! keys (`PROV_BIT | claim`) and counts one *claim* per schedule; at the
//! window barrier the control engine merges the lane logs by `(time,
//! resolved seq)` — which *is* the sequential execution order — and walks
//! each event's claims and deferred tails in program order, assigning real
//! sequence numbers from the single global counter exactly as the
//! sequential engine would have. Cross-lane and beyond-window
//! events are staged during the window and committed with their resolved
//! sequence numbers afterwards, so between windows every queued event
//! carries its final sequential key.
//!
//! Shared wire state (the switch-contention clock, the jitter RNG, the
//! fault plane) cannot be touched concurrently. Protocol code wraps that
//! slice of each wire operation in [`Engine::defer_wire`]; on a lane whose
//! window is *wire-pure* (no jitter, no faults, no switch model — the
//! common benchmark fabric) the closure runs inline because it touches
//! nothing shared, otherwise it is logged in the lane's window log and
//! replayed serially at the barrier, on the control engine, in merged
//! order — which again reproduces the sequential RNG draw order exactly.
//!
//! See `DESIGN.md` §3.5 for the full safety argument and the telemetry
//! this module records ([`ShardStats`]).

use crate::engine::{trace_mix, Engine, EventSlot};
use crate::net::Protocol;
use crate::nic::LocalityId;
use crate::time::Time;
use std::any::Any;
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// High bit marking a lane-provisional queue key. A provisional event is
/// always scheduled *and popped* within the same window (its time is below
/// the window end), so provisional keys never survive a barrier. Setting
/// the top bit makes them order after every final sequence number at the
/// same instant, matching the sequential engine (a just-scheduled event
/// has a larger seq than anything already pending).
pub(crate) const PROV_BIT: u64 = 1 << 63;

/// The part an [`Engine`] plays in a sharded run.
pub(crate) enum ShardRole<S> {
    /// A plain sequential engine (the default; the only role with no
    /// box indirection on the scheduling hot path).
    Seq,
    /// One lane of a [`ShardedEngine`], executing a window concurrently.
    Lane(Box<LaneCtx<S>>),
    /// The control engine: owns the world, the global sequence counter,
    /// the RNG, and the trace hash; runs barriers, tails, and drive-phase
    /// code.
    Control(Box<ControlCtx<S>>),
}

/// One executed event in a lane's window log: its time, its queue key
/// (possibly provisional), and where its claims and deferred tails end.
struct Rec {
    time: Time,
    key: u64,
    /// The lane's claim counter after the event: it made the claims from
    /// the previous record's count up to this one.
    claims_end: u32,
    /// Exclusive end of the event's range in [`LaneLog::tails`].
    tails_end: u32,
}

/// Entries of capacity each window-log vector keeps from one window to the
/// next: several steady windows' worth (`gups_lanes2` logs ≈ 800 per lane
/// per window). What a burst grows beyond it — a set-up sweep's windows
/// log many times that — goes back at the barrier; kept, it idles for the
/// rest of the run and shows in peak RSS (+18 MB there).
const LOG_KEEP: usize = 4096;

/// What one lane logs during a window for the barrier to replay. The
/// barrier reads it in place and clears it, so the vectors keep their
/// capacity (up to [`LOG_KEEP`]) from window to window.
struct LaneLog<S> {
    /// Events executed this window.
    recs: Vec<Rec>,
    /// [`Engine::defer_wire`] closures to replay serially, each with the
    /// lane's claim counter when it was deferred — its place among the
    /// event's claims. Sparse: a wire-pure window logs none.
    tails: Vec<(u32, Option<EventSlot<S>>)>,
    /// Events scheduled at/after `window_end` or onto another lane:
    /// `(time, destination lane, claim, event)`.
    staged: Vec<(Time, u32, u32, EventSlot<S>)>,
    /// Barrier scratch: `seqs[claim]` is the resolved global sequence
    /// number of that claim.
    seqs: Vec<u64>,
}

impl<S> LaneLog<S> {
    fn new() -> LaneLog<S> {
        LaneLog {
            recs: Vec::new(),
            tails: Vec::new(),
            staged: Vec::new(),
            seqs: Vec::new(),
        }
    }

    /// Empty the log for the next window.
    fn reset(&mut self) {
        fn recycle<T>(v: &mut Vec<T>) {
            v.clear();
            v.shrink_to(LOG_KEEP);
        }
        recycle(&mut self.recs);
        recycle(&mut self.tails);
        recycle(&mut self.staged);
        recycle(&mut self.seqs);
    }
}

pub(crate) struct LaneCtx<S> {
    /// This lane's index.
    lane: u32,
    map: ShardMap,
    /// Exclusive upper bound of the current window.
    window_end: Time,
    /// Whether `defer_wire` tails may run inline this window.
    wire_pure: bool,
    /// Dense per-window counter of schedules (provisional key source).
    claims: u32,
    log: LaneLog<S>,
    /// Wall-clock nanoseconds this lane spent executing in the current
    /// window (read by the barrier for utilization telemetry).
    window_busy_ns: u64,
    /// Cumulative busy nanoseconds and events across the run.
    busy_total_ns: u64,
    events_total: u64,
}

pub(crate) struct ControlCtx<S> {
    map: ShardMap,
    /// Lane attribution for plain `schedule_at` calls on the control
    /// engine: the lane of the event being replayed/micro-stepped, or the
    /// lane named by [`ShardedEngine::drive_at`]. `None` (drive phase,
    /// tail replay) makes locality-less scheduling a hard error, which is
    /// what forces protocol tails onto `schedule_at_loc`.
    cur_lane: Option<u32>,
    /// Events routed but not yet inserted into lane queues (the control
    /// engine cannot borrow the lanes while an event borrows it):
    /// `(time, lane, seq, event)`.
    outbox: Vec<(Time, u32, u64, EventSlot<S>)>,
}

impl<S> Engine<S> {
    /// Role-aware scheduling; `loc` is the locality the event will touch
    /// (`None` = the scheduling locality's own lane).
    pub(crate) fn shard_schedule(&mut self, at: Time, loc: Option<LocalityId>, slot: EventSlot<S>) {
        match &mut self.shard {
            ShardRole::Seq => {
                let seq = self.seq;
                self.seq += 1;
                self.queue.push(at, seq, slot);
            }
            ShardRole::Lane(ctx) => {
                let dest = loc.map_or(ctx.lane, |l| ctx.map.lane_of(l));
                let claim = ctx.claims;
                ctx.claims += 1;
                if dest == ctx.lane && at < ctx.window_end {
                    // Executes later this same window, on this lane: a
                    // provisional key keeps intra-lane order until the
                    // barrier resolves the real sequence number.
                    self.queue.push(at, PROV_BIT | u64::from(claim), slot);
                } else {
                    assert!(
                        dest == ctx.lane || at >= ctx.window_end,
                        "cross-shard event below the lookahead window \
                         (at={at}, window_end={}): the protocol scheduled \
                         a cross-lane event closer than the lookahead",
                        ctx.window_end
                    );
                    ctx.log.staged.push((at, dest, claim, slot));
                }
            }
            ShardRole::Control(ctx) => {
                let lane = match loc {
                    Some(l) => ctx.map.lane_of(l),
                    None => ctx.cur_lane.expect(
                        "locality-less schedule on the sharded control engine \
                         outside a lane context; use schedule_at_loc (or \
                         ShardedEngine::drive_at) so the event can be routed",
                    ),
                };
                let seq = self.seq;
                self.seq += 1;
                ctx.outbox.push((at, lane, seq, slot));
            }
        }
    }

    /// Whether `defer_wire` must log its closure instead of running it.
    pub(crate) fn defers_wire(&self) -> bool {
        matches!(&self.shard, ShardRole::Lane(ctx) if !ctx.wire_pure)
    }

    pub(crate) fn push_wire_tail(&mut self, slot: EventSlot<S>) {
        match &mut self.shard {
            ShardRole::Lane(ctx) => ctx.log.tails.push((ctx.claims, Some(slot))),
            _ => unreachable!("wire tail pushed outside a lane"),
        }
    }
}

/// The static locality → lane partition: contiguous, near-equal chunks.
#[derive(Clone, Copy, Debug)]
pub struct ShardMap {
    lanes: u32,
    locs: u32,
}

impl ShardMap {
    /// Partition `locs` localities into (at most) `lanes` lanes.
    pub fn new(lanes: usize, locs: usize) -> ShardMap {
        assert!(lanes >= 1, "a sharded run needs at least one lane");
        assert!(locs >= 1, "a sharded run needs at least one locality");
        ShardMap {
            lanes: lanes.min(locs) as u32,
            locs: locs as u32,
        }
    }

    /// The lane owning locality `loc`.
    #[inline]
    pub fn lane_of(&self, loc: LocalityId) -> u32 {
        debug_assert!(loc < self.locs, "locality {loc} out of range");
        ((u64::from(loc) * u64::from(self.lanes)) / u64::from(self.locs)) as u32
    }

    /// Number of lanes.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes as usize
    }

    /// Number of localities.
    #[inline]
    pub fn locs(&self) -> usize {
        self.locs as usize
    }
}

/// Shared ownership of the world's backing data between the control
/// engine (owner) and its lane handles (aliases), without reference
/// counting or locks on the event hot path.
///
/// Exactly one `SharedState` per allocation has `owner == true` and frees
/// it on drop; handles created with [`SharedState::alias`] borrow the same
/// allocation raw. `Deref`/`DerefMut` hand out plain references.
///
/// # Safety discipline
///
/// This is the standard parallel-discrete-event aliasing pattern, and it
/// is *not* free: the compiler no longer proves exclusive access, the
/// [`SplitWorld`] contract does. Lanes may only touch per-locality state
/// of localities they own (plus read-only shared tables); everything
/// shared-mutable must be confined to barrier/tail/drive code, which the
/// sharded engine runs strictly single-threaded. The owner must outlive
/// every alias ([`ShardedEngine`] orders its fields so lane handles drop
/// first).
pub struct SharedState<T> {
    ptr: *mut T,
    owner: bool,
}

impl<T> SharedState<T> {
    /// Allocate owning shared state.
    pub fn new(value: T) -> SharedState<T> {
        SharedState {
            ptr: Box::into_raw(Box::new(value)),
            owner: true,
        }
    }

    /// Create a non-owning alias of the same allocation.
    ///
    /// # Safety
    ///
    /// The caller must guarantee the alias never outlives the owner and
    /// that concurrent access through distinct aliases stays disjoint per
    /// the [`SplitWorld`] contract.
    pub unsafe fn alias(&self) -> SharedState<T> {
        SharedState {
            ptr: self.ptr,
            owner: false,
        }
    }
}

impl<T> Deref for SharedState<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: the owner outlives all aliases (see `alias`).
        unsafe { &*self.ptr }
    }
}

impl<T> DerefMut for SharedState<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as above; disjointness is the SplitWorld contract.
        unsafe { &mut *self.ptr }
    }
}

impl<T> Drop for SharedState<T> {
    fn drop(&mut self) {
        if self.owner {
            // SAFETY: `ptr` came from `Box::into_raw` in `new`, and only
            // the owner frees.
            unsafe { drop(Box::from_raw(self.ptr)) };
        }
    }
}

// SAFETY: a SharedState is just a (possibly aliased) pointer to T; moving
// it across threads is safe whenever T itself is. Aliased *access* is
// governed by the SplitWorld contract, not by this impl.
unsafe impl<T: Send> Send for SharedState<T> {}

/// A world that can be split across shard lanes.
///
/// `lane_handle` returns a value of the *same* type whose accessors reach
/// the same underlying storage (typically via [`SharedState::alias`]), so
/// each lane runs an ordinary `Engine<W>` and all protocol code compiles
/// unchanged.
///
/// # Safety
///
/// Implementors promise the aliasing discipline the sharded engine cannot
/// check:
///
/// * an event executing on lane `k` only mutates state belonging to
///   localities with `map.lane_of(loc) == k` (per-locality NIC, memory,
///   endpoint, runtime tables, counters) — shared structures may at most
///   be *read*, and only if no event-time writer exists;
/// * every event closure scheduled while sharded captures only data that
///   is safe to move to another thread (the engine erases closure types,
///   so `Send` is not compiler-checked);
/// * shared-mutable wire state (fault plane, jitter RNG, switch clock) is
///   only touched inside [`Engine::defer_wire`] tails.
pub unsafe trait SplitWorld: Protocol + Send {
    /// Create the lane-`lane` handle onto this world's storage.
    fn lane_handle(&mut self, lane: u32, map: ShardMap) -> Self;
}

/// Wall-clock telemetry for a sharded run, exposed via
/// [`ShardedEngine::stats`].
#[derive(Clone, Debug, Default)]
pub struct ShardStats {
    /// Synchronization windows executed.
    pub windows: u64,
    /// Aggregate nanoseconds the barrier spent waiting on stragglers
    /// (per-window parallel wall time minus the busiest lane's work).
    pub barrier_wait_ns: u64,
    /// Nanoseconds spent in serial barrier replay (merge + sequence
    /// resolution + deferred tails + staged commits).
    pub replay_ns: u64,
    /// Total wall nanoseconds inside `run`/`run_until`/`run_steps`.
    pub wall_ns: u64,
    /// Events executed per lane.
    pub lane_events: Vec<u64>,
    /// Busy wall nanoseconds per lane.
    pub lane_busy_ns: Vec<u64>,
    /// Reserved, always 0: the standalone benchmark builds this struct
    /// literally, so the field stays until a benchmark change drops it.
    pub serial_windows: u64,
    /// Reserved, always 0 (as [`ShardStats::serial_windows`]).
    pub widened: u64,
    /// Reserved, always 0 (as [`ShardStats::serial_windows`]).
    pub narrowed: u64,
    /// Reserved, always 0 (as [`ShardStats::serial_windows`]).
    pub max_mult_seen: u32,
}

impl ShardStats {
    fn new(lanes: usize) -> ShardStats {
        ShardStats {
            lane_events: vec![0; lanes],
            lane_busy_ns: vec![0; lanes],
            ..ShardStats::default()
        }
    }

    /// Per-lane utilization: busy time over total wall time, in `[0, 1]`.
    pub fn utilization(&self) -> Vec<f64> {
        let wall = self.wall_ns.max(1) as f64;
        self.lane_busy_ns.iter().map(|&b| b as f64 / wall).collect()
    }

    /// Fraction of wall time lost to synchronization (barrier waits plus
    /// serial replay), in `[0, 1]`.
    pub fn sync_overhead(&self) -> f64 {
        (self.barrier_wait_ns + self.replay_ns) as f64 / self.wall_ns.max(1) as f64
    }
}

/// The sharded counterpart of [`Engine`]: same world, same observable
/// `(time, seq)` execution and trace hash, N-way parallel windows.
///
/// Construction requires a [`SplitWorld`] and a positive lookahead.
/// Tracing must be disabled — the tracer is a single
/// shared buffer whose interleaving would be nondeterministic.
pub struct ShardedEngine<W: SplitWorld> {
    // Field order matters: lane engines hold aliases of the control
    // engine's world and must drop first.
    lanes: Vec<Mutex<Engine<W>>>,
    control: Engine<W>,
    map: ShardMap,
    /// The synchronisation window's width (see [`ShardedEngine::lookahead`]).
    lookahead: Time,
    stats: ShardStats,
}

impl<W: SplitWorld> ShardedEngine<W> {
    /// Build a sharded engine over `state` with (at most) `shards` lanes.
    pub fn new(state: W, seed: u64, shards: usize) -> ShardedEngine<W> {
        let locs = state.cluster_ref().len();
        let map = ShardMap::new(shards, locs);
        // The smallest delay at which an event on one lane can schedule an
        // event onto another. Wire messages pay the wire latency. Hops
        // inside a shared-memory domain bypass the wire and arrive after
        // the load/store cost, but they bound the window only when some
        // domain straddles a lane boundary: domains and lanes are both
        // contiguous, so in the common partition every domain sits inside
        // one lane and cross-lane traffic still pays the full wire latency.
        // (Contiguity also makes neighbours enough to find a straddle.)
        let mut lookahead = state.cluster_ref().config.latency;
        if let Some(shm) = state.cluster_ref().config.shm {
            let straddles =
                |l: LocalityId| shm.same_domain(l - 1, l) && map.lane_of(l - 1) != map.lane_of(l);
            if shm.load_store < lookahead && (1..locs as LocalityId).any(straddles) {
                lookahead = shm.load_store;
            }
        }
        assert!(
            lookahead > Time::ZERO,
            "sharded execution requires a positive lookahead"
        );
        assert!(
            !state.cluster_ref().tracer.is_enabled(),
            "tracing is not supported in sharded runs (shared trace buffer)"
        );
        let mut control = Engine::new(state, seed);
        control.shard = ShardRole::Control(Box::new(ControlCtx {
            map,
            cur_lane: None,
            outbox: Vec::new(),
        }));
        let lanes = (0..map.lanes() as u32)
            .map(|lane| {
                let handle = control.state.lane_handle(lane, map);
                let mut eng = Engine::new(handle, 0);
                eng.shard = ShardRole::Lane(Box::new(LaneCtx {
                    lane,
                    map,
                    window_end: Time::ZERO,
                    wire_pure: false,
                    claims: 0,
                    log: LaneLog::new(),
                    window_busy_ns: 0,
                    busy_total_ns: 0,
                    events_total: 0,
                }));
                Mutex::new(eng)
            })
            .collect();
        ShardedEngine {
            lanes,
            control,
            map,
            lookahead,
            stats: ShardStats::new(map.lanes()),
        }
    }

    /// The locality → lane partition.
    pub fn map(&self) -> ShardMap {
        self.map
    }

    /// Number of lanes.
    pub fn shards(&self) -> usize {
        self.lanes.len()
    }

    /// The synchronisation window's width: the smallest delay at which an
    /// event on one lane can schedule an event onto another. The wire
    /// latency `L`, or `shm.load_store` when a shared-memory domain cheaper
    /// than the wire straddles a lane boundary.
    pub fn lookahead(&self) -> Time {
        self.lookahead
    }

    /// The current instant of virtual time.
    pub fn now(&self) -> Time {
        self.control.now()
    }

    /// Events executed so far (identical to the sequential count).
    pub fn events_executed(&self) -> u64 {
        self.control.events_executed()
    }

    /// Events currently pending across all lanes.
    pub fn events_pending(&mut self) -> usize {
        self.lanes
            .iter_mut()
            .map(|l| l.get_mut().expect("lane lock").events_pending())
            .sum()
    }

    /// Running `(time, seq)` trace hash — bit-identical to the sequential
    /// engine's for the same program and seed.
    pub fn trace_hash(&self) -> u64 {
        self.control.trace_hash()
    }

    /// The world (the owning copy). Only call between runs.
    pub fn state(&mut self) -> &mut W {
        &mut self.control.state
    }

    /// Shared view of the world.
    pub fn state_ref(&self) -> &W {
        &self.control.state
    }

    /// Wall-clock shard telemetry accumulated so far.
    pub fn stats(&self) -> &ShardStats {
        &self.stats
    }

    /// Run drive-phase code against the control engine (allocation
    /// collectives, config pokes). Plain `schedule_at` calls panic here —
    /// use [`ShardedEngine::drive_at`] when the closure schedules events.
    pub fn drive<R>(&mut self, f: impl FnOnce(&mut Engine<W>) -> R) -> R {
        self.set_cur_lane(None);
        let r = f(&mut self.control);
        self.drain_outbox();
        r
    }

    /// Run drive-phase code attributed to locality `loc`: plain schedules
    /// inside `f` (op issues, injected faults) land on `loc`'s lane.
    pub fn drive_at<R>(&mut self, loc: LocalityId, f: impl FnOnce(&mut Engine<W>) -> R) -> R {
        let lane = self.map.lane_of(loc);
        self.set_cur_lane(Some(lane));
        let r = f(&mut self.control);
        self.set_cur_lane(None);
        self.drain_outbox();
        r
    }

    /// Run until the event queues drain. Returns events executed.
    pub fn run(&mut self) -> u64 {
        self.run_windows(None)
    }

    /// Run until quiescence or until the clock would pass `deadline`
    /// (same semantics as [`Engine::run_until`]).
    pub fn run_until(&mut self, deadline: Time) -> u64 {
        self.run_windows(Some(deadline))
    }

    /// Run at most `n` further events, one at a time, in exact global
    /// `(time, seq)` order (serial; used by workloads that interleave
    /// driver code with bounded progress).
    pub fn run_steps(&mut self, n: u64) -> u64 {
        let wall0 = Instant::now();
        let start = self.control.executed;
        let t0 = self.control.now;
        for _ in 0..n {
            if !self.step_one() {
                break;
            }
        }
        let ran = self.control.executed - start;
        crate::telemetry::record_run(ran, (self.control.now - t0).ps());
        self.stats.wall_ns += wall0.elapsed().as_nanos() as u64;
        ran
    }

    fn set_cur_lane(&mut self, lane: Option<u32>) {
        match &mut self.control.shard {
            ShardRole::Control(ctx) => ctx.cur_lane = lane,
            _ => unreachable!("control engine lost its role"),
        }
    }

    /// Move routed events from the control outbox into lane queues.
    fn drain_outbox(&mut self) {
        let outbox = match &mut self.control.shard {
            ShardRole::Control(ctx) if !ctx.outbox.is_empty() => std::mem::take(&mut ctx.outbox),
            _ => return,
        };
        for (at, lane, seq, slot) in outbox {
            self.lanes[lane as usize]
                .get_mut()
                .expect("lane lock")
                .queue
                .push(at, seq, slot);
        }
    }

    /// Pop and execute the single globally earliest event. Valid between
    /// windows, where every queued key is final.
    fn step_one(&mut self) -> bool {
        let mut best: Option<(Time, u64, usize)> = None;
        for (i, l) in self.lanes.iter_mut().enumerate() {
            let eng = l.get_mut().expect("lane lock");
            if let Some((t, k)) = eng.queue.next_key() {
                if best.is_none_or(|(bt, bk, _)| (t, k) < (bt, bk)) {
                    best = Some((t, k, i));
                }
            }
        }
        let Some((_, key, lane)) = best else {
            return false;
        };
        debug_assert_eq!(key & PROV_BIT, 0, "provisional key between windows");
        let (time, seq, slot) = self.lanes[lane]
            .get_mut()
            .expect("lane lock")
            .queue
            .pop()
            .expect("peeked event vanished");
        self.set_cur_lane(Some(lane as u32));
        let control = &mut self.control;
        control.now = time;
        control.executed += 1;
        control.trace_hash = trace_mix(control.trace_hash, time.ps());
        control.trace_hash = trace_mix(control.trace_hash, seq);
        slot.run(control);
        self.set_cur_lane(None);
        self.drain_outbox();
        true
    }

    /// The windowed parallel loop shared by `run` and `run_until`.
    fn run_windows(&mut self, deadline: Option<Time>) -> u64 {
        let wall0 = Instant::now();
        let start = self.control.executed;
        let t0 = self.control.now;
        let n = self.lanes.len();
        self.set_cur_lane(None);

        let lanes: &[Mutex<Engine<W>>] = &self.lanes;
        let control = &mut self.control;
        let stats = &mut self.stats;
        let lookahead = self.lookahead;

        let epoch = AtomicU64::new(0);
        let done = AtomicU64::new(0);
        let stop = AtomicBool::new(false);
        // The payload of the first panic on a lane thread this run.
        let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);

        rayon::scope(|s| {
            for lane in lanes {
                let (epoch, done, stop, panicked) = (&epoch, &done, &stop, &panicked);
                s.spawn(move |_| lane_worker(lane, epoch, done, stop, panicked));
            }
            // However this body ends — quiescence, a lane's panic resumed
            // below, a panic in replayed code — the workers must be let go,
            // or the scope waits on them forever.
            let _release = ReleaseLanes {
                epoch: &epoch,
                stop: &stop,
            };

            let mut cur_epoch = 0u64;
            loop {
                // Global minimum pending time across lanes.
                let mut window_start: Option<Time> = None;
                for lane in lanes {
                    let mut eng = lane.lock().expect("lane lock");
                    if let Some(t) = eng.queue.next_time() {
                        window_start = Some(window_start.map_or(t, |w| w.min(t)));
                    }
                }
                let Some(ws) = window_start else { break };
                if let Some(d) = deadline {
                    if ws > d {
                        control.now = d;
                        break;
                    }
                }
                let mut we = ws + lookahead;
                if let Some(d) = deadline {
                    // Never execute past the deadline; `d` itself is
                    // still eligible (pop_before is exclusive).
                    we = we.min(Time::from_ps(d.ps() + 1));
                }
                let wire_pure = control.state.cluster_ref().wire_is_pure();
                for lane in lanes {
                    let mut eng = lane.lock().expect("lane lock");
                    let ctx = lane_ctx(&mut eng);
                    ctx.window_end = we;
                    ctx.wire_pure = wire_pure;
                    ctx.claims = 0;
                }

                // Release the lanes and wait for the window to complete.
                let par0 = Instant::now();
                cur_epoch += 1;
                epoch.store(cur_epoch, Ordering::Release);
                let mut spins = 0u32;
                while done.load(Ordering::Acquire) < n as u64 {
                    backoff(&mut spins);
                }
                done.store(0, Ordering::Relaxed);
                let par_ns = par0.elapsed().as_nanos() as u64;
                if let Some(payload) = panicked.lock().expect("panic slot lock").take() {
                    resume_unwind(payload);
                }

                let replay0 = Instant::now();
                let max_busy = replay_window(control, lanes);
                stats.windows += 1;
                stats.barrier_wait_ns += par_ns.saturating_sub(max_busy);
                stats.replay_ns += replay0.elapsed().as_nanos() as u64;
            }
        });

        for (i, lane) in self.lanes.iter_mut().enumerate() {
            let eng = lane.get_mut().expect("lane lock");
            if let ShardRole::Lane(ctx) = &eng.shard {
                self.stats.lane_events[i] = ctx.events_total;
                self.stats.lane_busy_ns[i] = ctx.busy_total_ns;
            }
        }
        self.stats.wall_ns += wall0.elapsed().as_nanos() as u64;
        let ran = self.control.executed - start;
        crate::telemetry::record_run(ran, (self.control.now - t0).ps());
        ran
    }
}

/// Exponential-ish waiting: spin briefly, then start yielding.
#[inline]
fn backoff(spins: &mut u32) {
    *spins = spins.wrapping_add(1);
    if *spins & 0x3ff == 0 {
        std::thread::yield_now();
    } else {
        std::hint::spin_loop();
    }
}

/// Tells the lane workers to exit when dropped.
struct ReleaseLanes<'a> {
    epoch: &'a AtomicU64,
    stop: &'a AtomicBool,
}

impl Drop for ReleaseLanes<'_> {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        self.epoch.fetch_add(1, Ordering::Release);
    }
}

/// One lane's worker loop: wait for an epoch tick, drain the lane's
/// window, report done. Lives for the whole `run` call. A panic inside the
/// window is parked in `panicked` for the control thread to resume, and the
/// lane still reports done: the barrier must see every lane arrive to
/// notice that one of them died.
fn lane_worker<S>(
    lane: &Mutex<Engine<S>>,
    epoch: &AtomicU64,
    done: &AtomicU64,
    stop: &AtomicBool,
    panicked: &Mutex<Option<Box<dyn Any + Send>>>,
) {
    let mut seen = 0u64;
    loop {
        let mut spins = 0u32;
        loop {
            let e = epoch.load(Ordering::Acquire);
            if e != seen {
                seen = e;
                break;
            }
            backoff(&mut spins);
        }
        if stop.load(Ordering::Acquire) {
            return;
        }
        let mut eng = lane.lock().expect("lane lock");
        let busy0 = Instant::now();
        // Caught with the lane's guard still held, so the lock is released
        // unpoisoned and the parked message is the one that surfaces.
        let ran = catch_unwind(AssertUnwindSafe(|| lane_run_window(&mut eng)));
        let busy = busy0.elapsed().as_nanos() as u64;
        match ran {
            Ok(ran) => {
                let ctx = lane_ctx(&mut eng);
                ctx.window_busy_ns = busy;
                ctx.busy_total_ns += busy;
                ctx.events_total += ran;
            }
            Err(payload) => {
                panicked
                    .lock()
                    .expect("panic slot lock")
                    .get_or_insert(payload);
            }
        }
        drop(eng);
        done.fetch_add(1, Ordering::Release);
    }
}

/// Execute every event on this lane with `time < window_end`, logging each
/// as a [`Rec`]. Newly scheduled in-window events join the same drain via
/// provisional keys.
fn lane_run_window<S>(eng: &mut Engine<S>) -> u64 {
    let window_end = lane_ctx(eng).window_end;
    let mut ran = 0u64;
    while let Some((time, key, slot)) = eng.queue.pop_before(window_end) {
        debug_assert!(time >= eng.now, "lane causality violated");
        eng.now = time;
        eng.executed += 1;
        slot.run(eng);
        let ctx = lane_ctx(eng);
        ctx.log.recs.push(Rec {
            time,
            key,
            claims_end: ctx.claims,
            tails_end: ctx.log.tails.len() as u32,
        });
        ran += 1;
    }
    ran
}

/// The serial barrier: merge lane logs into the sequential `(time, seq)`
/// order, assign real sequence numbers to every claim, fold the trace
/// hash, replay deferred wire tails, and commit staged cross-window /
/// cross-lane events with their resolved keys. The logs are read where
/// they lie — the lanes are idle, so the control thread holds every lane
/// for the duration — and cleared, not dropped. Returns the busiest lane's
/// window wall time (for barrier-wait telemetry).
fn replay_window<S>(control: &mut Engine<S>, lanes: &[Mutex<Engine<S>>]) -> u64 {
    let n = lanes.len();
    let mut lanes: Vec<_> = lanes
        .iter()
        .map(|lane| lane.lock().expect("lane lock"))
        .collect();
    let max_busy = lanes
        .iter_mut()
        .map(|eng| lane_ctx(eng).window_busy_ns)
        .max()
        .unwrap_or(0);

    // Claims resolve strictly before any event that needs them: a
    // provisional event's parent precedes it in the same lane log, and the
    // merge preserves per-lane log order.
    let mut heads = vec![0usize; n];
    let mut tail_heads = vec![0usize; n];
    loop {
        let mut best: Option<(usize, Time, u64)> = None;
        for (lane, eng) in lanes.iter_mut().enumerate() {
            let log = &lane_ctx(eng).log;
            if let Some(rec) = log.recs.get(heads[lane]) {
                let key = if rec.key & PROV_BIT != 0 {
                    log.seqs[(rec.key & !PROV_BIT) as usize]
                } else {
                    rec.key
                };
                if best.is_none_or(|(_, bt, bk)| (rec.time, key) < (bt, bk)) {
                    best = Some((lane, rec.time, key));
                }
            }
        }
        let Some((lane, time, seq)) = best else { break };
        let log = &mut lane_ctx(&mut lanes[lane]).log;
        let Rec {
            claims_end,
            tails_end,
            ..
        } = log.recs[heads[lane]];
        heads[lane] += 1;
        control.now = time;
        control.executed += 1;
        control.trace_hash = trace_mix(control.trace_hash, time.ps());
        control.trace_hash = trace_mix(control.trace_hash, seq);
        // The event's claims and tails in program order: a replayed tail
        // draws its own sequence numbers between the claims around it.
        for (claims_before, tail) in &mut log.tails[tail_heads[lane]..tails_end as usize] {
            resolve_claims(&mut log.seqs, *claims_before, &mut control.seq);
            tail.take().expect("tail replayed twice").run(control);
        }
        tail_heads[lane] = tails_end as usize;
        resolve_claims(&mut log.seqs, claims_end, &mut control.seq);
    }

    // Staged events carry their claim's resolved sequence number into the
    // destination lane — after this, every queued key is final again.
    for lane in 0..n {
        let log = &mut lane_ctx(&mut lanes[lane]).log;
        let mut staged = std::mem::take(&mut log.staged);
        let seqs = std::mem::take(&mut log.seqs);
        for (at, dest, claim, slot) in staged.drain(..) {
            lanes[dest as usize]
                .queue
                .push(at, seqs[claim as usize], slot);
        }
        let log = &mut lane_ctx(&mut lanes[lane]).log;
        log.staged = staged;
        log.seqs = seqs;
        log.reset();
    }
    let ShardRole::Control(ctx) = &mut control.shard else {
        unreachable!("control engine lost its role")
    };
    for (at, lane, seq, slot) in ctx.outbox.drain(..) {
        lanes[lane as usize].queue.push(at, seq, slot);
    }
    max_busy
}

/// The lane half of a lane engine.
fn lane_ctx<S>(eng: &mut Engine<S>) -> &mut LaneCtx<S> {
    match &mut eng.shard {
        ShardRole::Lane(ctx) => ctx,
        _ => unreachable!("lane engine lost its role"),
    }
}

/// Give every claim below `upto` that has none yet the next global
/// sequence number.
fn resolve_claims(seqs: &mut Vec<u64>, upto: u32, next_seq: &mut u64) {
    while seqs.len() < upto as usize {
        seqs.push(*next_seq);
        *next_seq += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_map_partitions_contiguously() {
        let map = ShardMap::new(4, 10);
        let lanes: Vec<u32> = (0..10).map(|l| map.lane_of(l)).collect();
        assert_eq!(lanes, [0, 0, 0, 1, 1, 2, 2, 2, 3, 3]);
        // Never more lanes than localities.
        let map = ShardMap::new(8, 3);
        assert_eq!(map.lanes(), 3);
        assert_eq!(
            (0..3).map(|l| map.lane_of(l)).collect::<Vec<_>>(),
            [0, 1, 2]
        );
    }

    #[test]
    fn shared_state_aliases_one_allocation() {
        let mut owner = SharedState::new(41u64);
        // SAFETY: the alias is dropped before the owner, single thread.
        let mut alias = unsafe { owner.alias() };
        *alias += 1;
        assert_eq!(*owner, 42);
        *owner += 1;
        assert_eq!(*alias, 43);
        drop(alias);
        assert_eq!(*owner, 43);
    }

    #[test]
    fn provisional_keys_order_after_final_ones() {
        // A provisional key at the same instant must sort after every
        // final sequence number, like a fresh sequential seq would.
        let at = Time::from_ns(5);
        let mut q = crate::timewheel::TimeWheel::new();
        q.push(at, PROV_BIT, "first claim of the window");
        q.push(at, PROV_BIT - 1, "largest final seq");
        assert_eq!(q.pop(), Some((at, PROV_BIT - 1, "largest final seq")));
        assert_eq!(q.pop(), Some((at, PROV_BIT, "first claim of the window")));
    }
}
