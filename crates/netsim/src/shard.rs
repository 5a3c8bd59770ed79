//! Sharded deterministic execution: N time-wheel lanes under a
//! conservative LogGP-lookahead barrier.
//!
//! The sequential [`Engine`] executes one event at a time;
//! every experiment is single-core. This module partitions the cluster's
//! localities into `N` contiguous *lanes*, each with its own time-wheel
//! and thread, and synchronizes them with the classic conservative
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
//! *Bit-exact determinism* then costs nothing, because nothing in an
//! event's `(time, key)` is global: the key names the locality that
//! scheduled the event and that locality's own schedule count (see
//! [`crate::engine`]). A lane executes its events in `(time, key)` order;
//! other lanes' events only interleave with that order, so each locality
//! runs the same events in the same order as on the sequential engine and
//! hands out the same keys, and the trace hash — a sum over executed
//! events — is the sum of the lanes' sums. A lane pushes the events it
//! schedules for itself straight into its wheel and hands the rest to the
//! destination lane's inbox when its window ends; the destination drains
//! it when its next window starts. The barrier moves no event and runs no
//! protocol code: it is a minimum over the times the lanes publish.
//!
//! The wire needs no exception. Every random draw a message makes — its
//! transit jitter, its fault verdict — is keyed by its sender and the
//! sender's message count (`net::launch`), and the fault counts are the
//! sender's, so a wire message touches only its sender's state until it
//! lands. The one piece of wire state no locality owns, an oversubscribed
//! switch core, is refused above one lane ([`ShardedEngine::new`]).
//!
//! See `DESIGN.md` §3.5 for the full argument and the telemetry this
//! module records ([`ShardStats`]).

use crate::engine::{key_dest, loc_code, Engine, EventSlot, DRIVER, MAX_LOCALITIES};
use crate::net::Protocol;
use crate::nic::LocalityId;
use crate::time::Time;
use std::any::Any;
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// The part an [`Engine`] plays in a sharded run.
pub(crate) enum ShardRole<S> {
    /// A plain sequential engine (the default; the only role with no
    /// box indirection on the scheduling hot path).
    Seq,
    /// One lane of a [`ShardedEngine`], executing a window concurrently.
    Lane(Box<LaneCtx<S>>),
    /// The control engine: owns the world; runs drive-phase code. It
    /// executes no events.
    Control(Box<ControlCtx<S>>),
}

/// An event on its way into a lane's wheel, final key and all.
type Routed<S> = (Time, u64, EventSlot<S>);

/// Entries of capacity a per-window buffer keeps from one window to the
/// next: several steady windows' worth (`gups_lanes2` sends ≈ 400 events
/// across per lane per window). What a set-up burst grows beyond it goes
/// back, or it idles for the rest of the run and shows in peak RSS.
const KEEP: usize = 4096;

pub(crate) struct LaneCtx<S> {
    /// This lane's index.
    lane: u32,
    map: ShardMap,
    /// Exclusive upper bound of the current window.
    window_end: Time,
    /// Events scheduled onto other lanes this window, by destination lane.
    out: Vec<Vec<Routed<S>>>,
    /// The earliest time in `out`, in picoseconds.
    sent_min: u64,
}

pub(crate) struct ControlCtx<S> {
    map: ShardMap,
    /// The locality [`ShardedEngine::drive_at`] named, which a plain
    /// `schedule` from the driver lands on. `None` (plain
    /// [`ShardedEngine::drive`]) makes one a hard error, which is what
    /// forces driver-reachable protocol paths onto `schedule_at_loc`.
    drive_loc: Option<LocalityId>,
    /// Events routed but not yet in a lane's inbox (the control engine
    /// cannot borrow the lanes while code borrows it), by destination lane.
    outbox: Vec<(u32, Routed<S>)>,
}

impl<S> Engine<S> {
    /// Scheduling on a sharded engine: `loc` is the locality the event will
    /// touch (`None` = a plain schedule on the control engine).
    pub(crate) fn shard_schedule(&mut self, at: Time, loc: Option<LocalityId>, slot: EventSlot<S>) {
        match &mut self.shard {
            ShardRole::Seq => unreachable!("the sequential engine schedules for itself"),
            ShardRole::Lane(ctx) => {
                let loc = loc.expect("a lane's plain schedules stay on its wheel");
                let dest = loc_code(loc);
                let key = self.keys.next(dest);
                if dest == self.keys.cur || ctx.map.lane_of(loc) == ctx.lane {
                    self.queue.push(at, key, slot);
                    return;
                }
                assert!(
                    at >= ctx.window_end,
                    "cross-shard event below the lookahead window \
                     (at={at}, window_end={}): the protocol scheduled \
                     a cross-lane event closer than the lookahead",
                    ctx.window_end
                );
                ctx.sent_min = ctx.sent_min.min(at.ps());
                ctx.out[ctx.map.lane_of(loc) as usize].push((at, key, slot));
            }
            ShardRole::Control(ctx) => {
                // Only driver code runs here, and a plain schedule from it
                // has to say where it goes.
                let loc = loc.or(ctx.drive_loc).expect(
                    "locality-less schedule on the sharded control engine \
                     outside a lane context; use schedule_at_loc (or \
                     ShardedEngine::drive_at) so the event can be routed",
                );
                let key = self.keys.next(loc_code(loc));
                ctx.outbox.push((ctx.map.lane_of(loc), (at, key, slot)));
            }
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
/// shared-mutable must be confined to drive code, which the sharded engine
/// runs strictly single-threaded between windows. The owner must outlive
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
/// * the wire is the sender's: netsim keys each message's jitter and fault
///   draws by its sender and counts its fault verdicts there, and events
///   only read the fault plane. The one shared wire state, an
///   oversubscribed switch core, runs on one lane only
///   ([`ShardedEngine::new`] refuses it above one).
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
    /// Nanoseconds in the barrier's serial part: folding the lanes' busy
    /// times and finding the next window. (The name is older than that:
    /// the barrier replays nothing.)
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
    /// the barrier's serial part), in `[0, 1]`.
    pub fn sync_overhead(&self) -> f64 {
        (self.barrier_wait_ns + self.replay_ns) as f64 / self.wall_ns.max(1) as f64
    }
}

/// One lane as the threads share it.
struct Lane<W> {
    /// The lane's engine: held by whoever runs its window, by the control
    /// thread between windows.
    eng: Mutex<Engine<W>>,
    /// Events other lanes and the control engine scheduled onto this one;
    /// the lane moves them into its wheel when its next window starts.
    inbox: Mutex<Vec<Routed<W>>>,
    /// The earliest time pending on this lane or sent by it last window, in
    /// picoseconds (`u64::MAX` = none): published as the lane reports done,
    /// so the barrier finds the next window without asking.
    next: AtomicU64,
    /// Wall nanoseconds the lane's last window took.
    busy_ns: AtomicU64,
}

impl<W> Lane<W> {
    fn eng(&self) -> MutexGuard<'_, Engine<W>> {
        self.eng.lock().expect("lane lock")
    }

    /// Hand `ev` to the lane and account for it in `next`.
    fn deliver(&self, ev: Routed<W>) {
        self.next.fetch_min(ev.0.ps(), Ordering::Relaxed);
        self.inbox.lock().expect("inbox lock").push(ev);
    }

    /// Move the inbox into the wheel.
    fn take_inbox(&self, eng: &mut Engine<W>) {
        let mut inbox = self.inbox.lock().expect("inbox lock");
        for (at, key, slot) in inbox.drain(..) {
            eng.queue.push(at, key, slot);
        }
        inbox.shrink_to(KEEP);
    }

    /// Between windows: everything pending is in the wheel and `next` is
    /// its earliest time.
    fn settle(&self) -> MutexGuard<'_, Engine<W>> {
        let mut eng = self.eng();
        self.take_inbox(&mut eng);
        let next = eng.queue.next_time().map_or(u64::MAX, Time::ps);
        self.next.store(next, Ordering::Relaxed);
        eng
    }
}

/// The sharded counterpart of [`Engine`]: same world, same `(time, key)`
/// per event and the same trace hash, N-way parallel windows.
///
/// Construction requires a [`SplitWorld`] and a positive lookahead.
/// Tracing must be disabled — the tracer is a single
/// shared buffer whose interleaving would be nondeterministic.
pub struct ShardedEngine<W: SplitWorld> {
    // Field order matters: lane engines hold aliases of the control
    // engine's world and must drop first.
    lanes: Vec<Lane<W>>,
    /// Owns the world; its clock, event count and hash are the lanes',
    /// folded after every run.
    control: Engine<W>,
    /// The synchronisation window's width (see [`ShardedEngine::lookahead`]).
    lookahead: Time,
    stats: ShardStats,
}

impl<W: SplitWorld> ShardedEngine<W> {
    /// Build a sharded engine over `state` with (at most) `shards` lanes.
    ///
    /// Panics on a fabric with an oversubscribed switch core
    /// (`NetConfig::oversubscription > 1`) at more than one lane: every
    /// sender reserves that core, so no lane owns it.
    pub fn new(state: W, seed: u64, shards: usize) -> ShardedEngine<W> {
        let locs = state.cluster_ref().len();
        assert!(
            locs <= MAX_LOCALITIES,
            "{locs} localities do not fit an event key: at most {MAX_LOCALITIES}"
        );
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
        assert!(
            map.lanes() == 1 || state.cluster_ref().config.oversubscription <= 1,
            "an oversubscribed switch core is wire state every sender shares: \
             run it on one lane (E12, the bisection experiment, is sequential)"
        );
        let mut control = Engine::new(state, seed);
        control.shard = ShardRole::Control(Box::new(ControlCtx {
            map,
            drive_loc: None,
            outbox: Vec::new(),
        }));
        let lanes = (0..map.lanes() as u32)
            .map(|lane| {
                let handle = control.state.lane_handle(lane, map);
                let mut eng = Engine::new(handle, seed);
                eng.shard = ShardRole::Lane(Box::new(LaneCtx {
                    lane,
                    map,
                    window_end: Time::ZERO,
                    out: (0..map.lanes()).map(|_| Vec::new()).collect(),
                    sent_min: u64::MAX,
                }));
                Lane {
                    eng: Mutex::new(eng),
                    inbox: Mutex::new(Vec::new()),
                    next: AtomicU64::new(u64::MAX),
                    busy_ns: AtomicU64::new(0),
                }
            })
            .collect();
        ShardedEngine {
            lanes,
            control,
            lookahead,
            stats: ShardStats::new(map.lanes()),
        }
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
        self.lanes.iter().map(|l| l.settle().events_pending()).sum()
    }

    /// The trace hash — bit-identical to the sequential engine's for the
    /// same program and seed: the sum of the lanes' sums.
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

    /// Test hook: queue `event` for locality `loc` on lane `lane`, whether
    /// or not that lane owns it.
    #[doc(hidden)]
    pub fn push_on_lane<F>(&mut self, lane: usize, at: Time, loc: LocalityId, event: F)
    where
        F: FnOnce(&mut Engine<W>) + 'static,
    {
        let key = self.control.keys.next(loc_code(loc));
        self.lanes[lane].deliver((at, key, EventSlot::new(event)));
    }

    /// Run drive-phase code against the control engine (allocation
    /// collectives, config pokes). Plain `schedule_at` calls panic here —
    /// use [`ShardedEngine::drive_at`] when the closure schedules events.
    pub fn drive<R>(&mut self, f: impl FnOnce(&mut Engine<W>) -> R) -> R {
        let r = f(&mut self.control);
        move_outbox(&mut self.control, &self.lanes);
        r
    }

    /// Run drive-phase code attributed to locality `loc`: plain schedules
    /// inside `f` (injected faults, test pokes) land on `loc`'s lane. The
    /// events are the driver's all the same — keyed exactly as if `f` had
    /// run against a sequential engine.
    pub fn drive_at<R>(&mut self, loc: LocalityId, f: impl FnOnce(&mut Engine<W>) -> R) -> R {
        control_ctx(&mut self.control).drive_loc = Some(loc);
        let r = f(&mut self.control);
        control_ctx(&mut self.control).drive_loc = None;
        move_outbox(&mut self.control, &self.lanes);
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

    /// Run at most `n` further events, one at a time, in the sequential
    /// engine's order (serial; used by workloads that interleave driver
    /// code with bounded progress).
    pub fn run_steps(&mut self, n: u64) -> u64 {
        let wall0 = Instant::now();
        let (start, t0) = (self.control.executed, self.control.now);
        for _ in 0..n {
            if !self.step_one() {
                break;
            }
        }
        self.finish_run(start, t0, wall0)
    }

    /// Pop and execute the single globally earliest event, on its lane's
    /// engine: a one-event window.
    fn step_one(&mut self) -> bool {
        let heads = self.lanes.iter().enumerate();
        let first = heads.filter_map(|(i, l)| Some((l.settle().queue.next_key()?, i)));
        let Some(((time, _), lane)) = first.min() else {
            return false;
        };
        let mut eng = self.lanes[lane].eng();
        lane_run_window(&mut eng, time + self.lookahead, 1);
        hand_over(&mut eng, &self.lanes);
        true
    }

    /// Fold the lanes' clocks, counts and hashes into the control engine
    /// and the run's wall time into the stats. Returns events executed
    /// since `start`.
    fn finish_run(&mut self, start: u64, t0: Time, wall0: Instant) -> u64 {
        let control = &mut self.control;
        (control.executed, control.trace_hash) = (0, 0);
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            let eng = lane.eng.get_mut().expect("lane lock");
            control.now = control.now.max(eng.now);
            control.executed += eng.executed;
            control.trace_hash = control.trace_hash.wrapping_add(eng.trace_hash);
            self.stats.lane_events[i] = eng.executed;
        }
        self.stats.wall_ns += wall0.elapsed().as_nanos() as u64;
        let ran = control.executed - start;
        crate::telemetry::record_run(ran, (control.now - t0).ps());
        ran
    }

    /// The windowed parallel loop shared by `run` and `run_until`.
    fn run_windows(&mut self, deadline: Option<Time>) -> u64 {
        let wall0 = Instant::now();
        let (start, t0) = (self.control.executed, self.control.now);
        self.lanes.iter().for_each(|lane| drop(lane.settle()));

        let lanes: &[Lane<W>] = &self.lanes;
        let control = &mut self.control;
        let stats = &mut self.stats;
        let lookahead = self.lookahead;
        let sync = WindowSync {
            epoch: AtomicU64::new(0),
            window_end: AtomicU64::new(0),
            done: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            panicked: Mutex::new(None),
            control: std::thread::current(),
            pause: match std::thread::available_parallelism() {
                Ok(cores) if cores.get() >= lanes.len() => PAUSE_FOR,
                _ => Duration::ZERO,
            },
        };

        std::thread::scope(|s| {
            // The control thread runs lane 0 itself: N lanes are N threads.
            let workers: Vec<Thread> = (1..lanes.len())
                .map(|i| {
                    let sync = &sync;
                    s.spawn(move || lane_worker(lanes, i, sync))
                        .thread()
                        .clone()
                })
                .collect();
            // The barrier's serial part runs from the end of one window's
            // parallel part to the release of the next.
            let mut serial0 = Instant::now();
            let windows = catch_unwind(AssertUnwindSafe(|| loop {
                let next = lanes
                    .iter()
                    .map(|l| l.next.load(Ordering::Relaxed))
                    .min()
                    .expect("at least one lane");
                if next == u64::MAX {
                    break;
                }
                let ws = Time::from_ps(next);
                let mut we = ws + lookahead;
                if let Some(d) = deadline {
                    if ws > d {
                        control.now = d;
                        break;
                    }
                    // Never execute past the deadline; `d` itself is
                    // still eligible (pop_before is exclusive).
                    we = we.min(Time::from_ps(d.ps() + 1));
                }

                // Release the lanes, run lane 0, wait for the rest.
                let par0 = Instant::now();
                stats.replay_ns += par0.duration_since(serial0).as_nanos() as u64;
                sync.window_end.store(we.ps(), Ordering::Relaxed);
                sync.epoch.fetch_add(1, Ordering::Release);
                workers.iter().for_each(Thread::unpark);
                run_lane(lanes, 0, &sync);
                wait_until(sync.pause, || {
                    sync.done.load(Ordering::Acquire) == workers.len()
                });
                sync.done.store(0, Ordering::Relaxed);
                serial0 = Instant::now();
                let par_ns = serial0.duration_since(par0).as_nanos() as u64;
                if let Some(payload) = sync.panicked.lock().expect("panic slot lock").take() {
                    resume_unwind(payload);
                }

                let mut max_busy = 0;
                for (lane, total) in lanes.iter().zip(&mut stats.lane_busy_ns) {
                    let busy = lane.busy_ns.load(Ordering::Relaxed);
                    *total += busy;
                    max_busy = busy.max(max_busy);
                }
                stats.windows += 1;
                stats.barrier_wait_ns += par_ns.saturating_sub(max_busy);
            }));
            // However the loop ended — quiescence, or a lane's panic
            // resumed in it — the workers must be let go, or the scope
            // waits on them forever.
            sync.stop.store(true, Ordering::Relaxed);
            sync.epoch.fetch_add(1, Ordering::Release);
            workers.iter().for_each(Thread::unpark);
            if let Err(payload) = windows {
                resume_unwind(payload);
            }
        });

        self.finish_run(start, t0, wall0)
    }
}

/// One program, run on the sequential [`Engine`] or on a [`ShardedEngine`]:
/// the one place that chooses between them. Driver code written against it
/// runs unchanged on either, which is what a sequential-versus-sharded
/// comparison needs.
pub enum Harness<W: SplitWorld> {
    /// The sequential engine.
    Seq(Engine<W>),
    /// The sharded engine.
    Shard(ShardedEngine<W>),
}

impl<W: SplitWorld> Harness<W> {
    /// The sequential engine when `lanes` is `None`, else a sharded engine
    /// with (at most) that many lanes.
    pub fn new(world: W, seed: u64, lanes: Option<usize>) -> Harness<W> {
        match lanes {
            None => Harness::Seq(Engine::new(world, seed)),
            Some(k) => Harness::Shard(ShardedEngine::new(world, seed, k)),
        }
    }

    /// The world. Only call between runs.
    pub fn world(&mut self) -> &mut W {
        match self {
            Harness::Seq(e) => &mut e.state,
            Harness::Shard(s) => s.state(),
        }
    }

    /// Shared view of the world.
    pub fn world_ref(&self) -> &W {
        match self {
            Harness::Seq(e) => &e.state,
            Harness::Shard(s) => s.state_ref(),
        }
    }

    /// Run locality-neutral driver code (as [`ShardedEngine::drive`]).
    pub fn drive<R>(&mut self, f: impl FnOnce(&mut Engine<W>) -> R) -> R {
        match self {
            Harness::Seq(e) => f(e),
            Harness::Shard(s) => s.drive(f),
        }
    }

    /// Run driver code attributed to locality `loc` (as
    /// [`ShardedEngine::drive_at`]).
    pub fn drive_at<R>(&mut self, loc: LocalityId, f: impl FnOnce(&mut Engine<W>) -> R) -> R {
        match self {
            Harness::Seq(e) => f(e),
            Harness::Shard(s) => s.drive_at(loc, f),
        }
    }

    /// Run until the event queues drain. Returns events executed.
    pub fn run(&mut self) -> u64 {
        match self {
            Harness::Seq(e) => e.run(),
            Harness::Shard(s) => s.run(),
        }
    }

    /// Run until quiescence or `deadline` (as [`Engine::run_until`]).
    pub fn run_until(&mut self, deadline: Time) -> u64 {
        match self {
            Harness::Seq(e) => e.run_until(deadline),
            Harness::Shard(s) => s.run_until(deadline),
        }
    }

    /// Run at most `n` further events.
    pub fn run_steps(&mut self, n: u64) -> u64 {
        match self {
            Harness::Seq(e) => e.run_steps(n),
            Harness::Shard(s) => s.run_steps(n),
        }
    }

    /// Events currently pending.
    pub fn events_pending(&mut self) -> usize {
        match self {
            Harness::Seq(e) => e.events_pending(),
            Harness::Shard(s) => s.events_pending(),
        }
    }

    /// `(trace_hash, now in ps, events executed)`: equal on both engines
    /// for the same program and seed.
    pub fn witness(&self) -> (u64, u64, u64) {
        match self {
            Harness::Seq(e) => (e.trace_hash(), e.now().ps(), e.events_executed()),
            Harness::Shard(s) => (s.trace_hash(), s.now().ps(), s.events_executed()),
        }
    }

    /// The sharded engine (its window and stats), if this run is sharded.
    pub fn sharded(&self) -> Option<&ShardedEngine<W>> {
        match self {
            Harness::Seq(_) => None,
            Harness::Shard(s) => Some(s),
        }
    }
}

/// What the control thread and the lane workers share for one `run` call.
struct WindowSync {
    /// Ticks once per window (and once more to let the workers go).
    epoch: AtomicU64,
    /// The window the tick announces: its exclusive end in picoseconds.
    window_end: AtomicU64,
    /// Workers that finished the current window.
    done: AtomicUsize,
    stop: AtomicBool,
    /// The payload of the first panic on a lane this run.
    panicked: Mutex<Option<Box<dyn Any + Send>>>,
    control: Thread,
    /// How long a waiter pauses before parking (see [`PAUSE_FOR`]).
    pause: Duration,
}

/// How long a waiter pauses before it parks, when every lane has a hardware
/// thread to itself: lanes finish a window within tens of microseconds of
/// each other, so the pause usually sees the hand-off, and `spin_loop`
/// leaves the execution ports to a sibling thread meanwhile. With more
/// lanes than hardware threads a waiter parks at once: whoever it waits for
/// needs its core.
const PAUSE_FOR: Duration = Duration::from_micros(100);

/// Wait for `ready`: pause for up to `pause`, then park. Whoever makes
/// `ready` true unparks this thread afterwards.
fn wait_until(pause: Duration, ready: impl Fn() -> bool) {
    let t0 = Instant::now();
    while !pause.is_zero() && t0.elapsed() < pause {
        for _ in 0..64 {
            if ready() {
                return;
            }
            std::hint::spin_loop();
        }
    }
    while !ready() {
        std::thread::park();
    }
}

/// One lane's worker loop: wait for an epoch tick, run the lane's window,
/// report done. Lives for the whole `run` call.
fn lane_worker<S>(lanes: &[Lane<S>], lane: usize, sync: &WindowSync) {
    let mut seen = 0u64;
    loop {
        wait_until(sync.pause, || sync.epoch.load(Ordering::Acquire) != seen);
        seen = sync.epoch.load(Ordering::Acquire);
        if sync.stop.load(Ordering::Relaxed) {
            return;
        }
        run_lane(lanes, lane, sync);
        sync.done.fetch_add(1, Ordering::Release);
        sync.control.unpark();
    }
}

/// Run lane `lane`'s share of the announced window and publish what the
/// barrier needs from it. A panic inside the window is parked in
/// `sync.panicked` for the control thread to resume once every lane has
/// arrived — the barrier must see them all to notice that one died — and
/// caught with the lane's guard still held, so the lock is released
/// unpoisoned and the parked message is the one that surfaces.
fn run_lane<S>(lanes: &[Lane<S>], lane: usize, sync: &WindowSync) {
    let me = &lanes[lane];
    let mut eng = me.eng();
    let busy0 = Instant::now();
    let window_end = Time::from_ps(sync.window_end.load(Ordering::Relaxed));
    let ran = catch_unwind(AssertUnwindSafe(|| {
        me.take_inbox(&mut eng);
        lane_run_window(&mut eng, window_end, u64::MAX);
        let sent_min = hand_over(&mut eng, lanes);
        eng.queue
            .next_time()
            .map_or(sent_min, |t| t.ps().min(sent_min))
    }));
    match ran {
        Ok(next) => me.next.store(next, Ordering::Relaxed),
        Err(payload) => {
            let mut slot = sync.panicked.lock().expect("panic slot lock");
            slot.get_or_insert(payload);
        }
    }
    let busy = busy0.elapsed().as_nanos() as u64;
    me.busy_ns.store(busy, Ordering::Relaxed);
}

/// Execute up to `limit` events on this lane with `time < window_end`.
/// Events the lane schedules for itself inside the window join the same
/// drain.
fn lane_run_window<S>(eng: &mut Engine<S>, window_end: Time, limit: u64) {
    lane_ctx(eng).window_end = window_end;
    let mut ran = 0;
    while ran < limit {
        let Some((time, key, slot)) = eng.queue.pop_before(window_end) else {
            break;
        };
        let (ctx, dest) = (lane_ctx(eng), key_dest(key));
        debug_assert!(
            dest != DRIVER && ctx.map.lane_of((dest - 1) as LocalityId) == ctx.lane,
            "lane {} popped an event at {time} for locality {}, which it does not own \
             (-1: the driver, which no lane does)",
            ctx.lane,
            dest as i64 - 1
        );
        eng.dispatch(time, key, slot);
        ran += 1;
    }
}

/// Give the events `eng`'s lane scheduled onto other lanes to their
/// inboxes. Returns the earliest of their times in picoseconds.
fn hand_over<S>(eng: &mut Engine<S>, lanes: &[Lane<S>]) -> u64 {
    let ctx = lane_ctx(eng);
    let sent = ctx
        .out
        .iter_mut()
        .zip(lanes)
        .filter(|(out, _)| !out.is_empty());
    for (out, lane) in sent {
        lane.inbox.lock().expect("inbox lock").append(out);
        out.shrink_to(KEEP);
    }
    std::mem::replace(&mut ctx.sent_min, u64::MAX)
}

/// Move the control engine's routed events into their lanes' inboxes.
fn move_outbox<S>(control: &mut Engine<S>, lanes: &[Lane<S>]) {
    for (lane, ev) in control_ctx(control).outbox.drain(..) {
        lanes[lane as usize].deliver(ev);
    }
}

/// The lane half of a lane engine.
fn lane_ctx<S>(eng: &mut Engine<S>) -> &mut LaneCtx<S> {
    match &mut eng.shard {
        ShardRole::Lane(ctx) => ctx,
        _ => unreachable!("lane engine lost its role"),
    }
}

/// The control half of the control engine.
fn control_ctx<S>(eng: &mut Engine<S>) -> &mut ControlCtx<S> {
    match &mut eng.shard {
        ShardRole::Control(ctx) => ctx,
        _ => unreachable!("control engine lost its role"),
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
}
