//! The discrete-event engine: a virtual clock and an event queue.
//!
//! Every behaviour in the simulator — wire transits, NIC DMA completions,
//! scheduler dispatches — is an *event*: an `FnOnce(&mut Engine<S>)`
//! executed at a scheduled instant of virtual time. The engine guarantees:
//!
//! * **causality** — events run in nondecreasing time order; scheduling in
//!   the past is a bug and panics in debug builds (clamped in release);
//! * **determinism** — ties at the same instant break by the event's *key*:
//!   the locality that scheduled it, then that locality's own schedule
//!   counter (see [the key layout](#event-keys)). A given seed and program
//!   produce an identical execution on every run and platform, and — because
//!   no part of the key is a global counter — on every partition of the
//!   localities across [`ShardedEngine`](crate::ShardedEngine) lanes. A
//!   running sum over the executed `(time, key)` pairs
//!   ([`Engine::trace_hash`]) lets tests assert this.
//!
//! # Event keys
//!
//! A queue entry is ordered by `(time, key)`; the key is one `u64`:
//!
//! ```text
//!  63        50 49               14 13         0
//! +------------+-------------------+------------+
//! |   origin   |      counter      |    dest    |
//! +------------+-------------------+------------+
//! ```
//!
//! * **origin** — who scheduled the event: the locality whose event was
//!   executing, or 0 for code outside any event (the *driver*: set-up,
//!   tests, a workload's issue loop). A locality `l` is stored as `l + 1`,
//!   so 14 bits hold at most [`MAX_LOCALITIES`] of them.
//! * **counter** — the origin's schedule count at the time, 36 bits.
//! * **dest** — the locality the event runs on (same encoding as origin;
//!   0 for a plain schedule from the driver). It is unique per
//!   `(origin, counter)` already and takes no part in the hash: it is
//!   how the engine knows which locality is executing, so a plain
//!   [`Engine::schedule`] inherits it, and how a shard lane checks that an
//!   event is its own.
//!
//! Running out of either field is an assertion, not a wrap.
//!
//! # Hot-path layout
//!
//! The engine executes hundreds of millions of events per experiment, so the
//! schedule→execute path is allocation-free for typical events:
//!
//! * closures whose captures fit three machine words are stored *inline* in
//!   the queue entry (`EventSlot`); only oversized captures fall back to a
//!   heap box, transparently;
//! * the pending set lives in a two-level calendar queue
//!   ([`TimeWheel`]) — O(1) insertion into fine buckets out to ≈ 8.4 µs and
//!   coarse ones out to ≈ 4.3 ms, where an O(log n) global heap would sift
//!   on every push and pop; only events beyond that pay a heap — with pop
//!   order bit-for-bit identical to the old `BinaryHeap` (proved by the
//!   shadow-model proptest in `tests/timewheel_shadow.rs`);
//! * the trace hash advances by a single 64×64→128-bit multiply per word
//!   ([`trace_mix`]) rather than a byte-at-a-time FNV loop, and by an
//!   addition per event — a sum, so shard lanes add theirs in any order.

use crate::nic::LocalityId;
use crate::shard::ShardRole;
use crate::time::Time;
use crate::timewheel::TimeWheel;
use std::mem::{ManuallyDrop, MaybeUninit};

/// Words of inline closure storage per event. Three words cover the common
/// captures (an id, a size, a small struct, an `Rc` handle plus a word) —
/// larger closures spill to a box.
const INLINE_WORDS: usize = 3;

type Payload = MaybeUninit<[u64; INLINE_WORDS]>;

/// A type-erased `FnOnce(&mut Engine<S>)` with small-closure optimization.
///
/// The closure's captures are written directly into `payload` when they fit
/// (size ≤ 3 words, align ≤ word); otherwise `payload` holds a thin pointer
/// to a heap box. One fn pointer serves both fates a slot can meet —
/// `call(p, Some(engine))` consumes the payload and runs the closure;
/// `call(p, None)` destroys it without running (engine dropped while events
/// were still pending). Exactly one of the two happens per slot, keeping
/// each queue entry at four words of metadata.
pub(crate) struct EventSlot<S> {
    payload: Payload,
    call: unsafe fn(*mut u8, Option<&mut Engine<S>>),
}

impl<S> EventSlot<S> {
    pub(crate) fn new<F>(f: F) -> EventSlot<S>
    where
        F: FnOnce(&mut Engine<S>) + 'static,
    {
        // SAFETY contracts: each thunk below is only ever paired with the
        // payload representation its `new` arm wrote, and runs exactly once.
        unsafe fn call_inline<S, F: FnOnce(&mut Engine<S>)>(
            p: *mut u8,
            eng: Option<&mut Engine<S>>,
        ) {
            match eng {
                Some(eng) => ((p as *mut F).read())(eng),
                None => std::ptr::drop_in_place(p as *mut F),
            }
        }
        unsafe fn call_boxed<S, F: FnOnce(&mut Engine<S>)>(
            p: *mut u8,
            eng: Option<&mut Engine<S>>,
        ) {
            let f = Box::from_raw((p as *mut *mut F).read());
            if let Some(eng) = eng {
                f(eng);
            }
        }

        let mut payload: Payload = MaybeUninit::uninit();
        if size_of::<F>() <= size_of::<Payload>() && align_of::<F>() <= align_of::<Payload>() {
            // SAFETY: F fits the payload in size and alignment; the payload
            // is uninitialized and owned by this slot.
            unsafe { (payload.as_mut_ptr() as *mut F).write(f) };
            EventSlot {
                payload,
                call: call_inline::<S, F>,
            }
        } else {
            // SAFETY: a thin `*mut F` (one word, word-aligned) always fits.
            unsafe { (payload.as_mut_ptr() as *mut *mut F).write(Box::into_raw(Box::new(f))) };
            EventSlot {
                payload,
                call: call_boxed::<S, F>,
            }
        }
    }

    /// Consume the slot, running its closure.
    pub(crate) fn run(self, eng: &mut Engine<S>) {
        let mut this = ManuallyDrop::new(self);
        // SAFETY: `self` is wrapped in ManuallyDrop, so this call is the
        // payload's only consumer — `Drop::drop` will not also run.
        unsafe { (this.call)(this.payload.as_mut_ptr() as *mut u8, Some(eng)) }
    }
}

impl<S> Drop for EventSlot<S> {
    fn drop(&mut self) {
        // Only reached for slots never passed to `run` (pending events
        // discarded with the engine).
        // SAFETY: the payload is still initialized and consumed exactly once.
        unsafe { (self.call)(self.payload.as_mut_ptr() as *mut u8, None) }
    }
}

/// The discrete-event simulation engine, generic over the user state `S`.
///
/// `S` holds everything the simulated world contains (localities, NICs,
/// runtime schedulers, application state); events receive `&mut Engine<S>`
/// and may read the clock, mutate `state`, and schedule further events.
///
/// ```
/// use netsim::{Engine, Time};
///
/// let mut eng = Engine::new(Vec::new(), /*seed*/ 1);
/// eng.schedule(Time::from_ns(20), |e| e.state.push("second"));
/// eng.schedule(Time::from_ns(10), |e| {
///     e.state.push("first");
///     e.schedule(Time::from_ns(30), |e| e.state.push("third"));
/// });
/// eng.run();
/// assert_eq!(eng.state, ["first", "second", "third"]);
/// assert_eq!(eng.now(), Time::from_ns(40));
/// ```
pub struct Engine<S> {
    /// The simulated world. Public: events address it directly.
    pub state: S,
    pub(crate) now: Time,
    pub(crate) keys: KeySource,
    pub(crate) queue: TimeWheel<EventSlot<S>>,
    seed: u64,
    pub(crate) executed: u64,
    pub(crate) trace_hash: u64,
    /// Which part a sharded run this engine plays, if any. Plain engines
    /// are always [`ShardRole::Seq`], which keeps every dispatch below a
    /// single-discriminant check on the hot path.
    pub(crate) shard: ShardRole<S>,
}

/// Bits of a key that hold a locality (origin or destination).
const LOC_BITS: u32 = 14;
/// Bits of a key that hold the origin's schedule counter.
const CTR_BITS: u32 = 36;
const ORIGIN_SHIFT: u32 = LOC_BITS + CTR_BITS;
const DEST_MASK: u64 = (1 << LOC_BITS) - 1;

/// The most localities an engine can tell apart: a key stores locality `l`
/// as `l + 1` in 14 bits, 0 being the driver.
pub const MAX_LOCALITIES: usize = (1 << LOC_BITS) - 1;

/// The origin (and destination) code of code that runs outside any event.
pub(crate) const DRIVER: u64 = 0;

/// How a key stores locality `loc`.
#[inline]
pub(crate) fn loc_code(loc: LocalityId) -> u64 {
    assert!(
        (loc as usize) < MAX_LOCALITIES,
        "locality {loc} does not fit an event key: at most {MAX_LOCALITIES} localities"
    );
    u64::from(loc) + 1
}

/// The destination code of `key`: the locality its event runs on.
#[inline]
pub(crate) fn key_dest(key: u64) -> u64 {
    key & DEST_MASK
}

/// Where an engine's keys come from: who is executing, and how many events
/// each origin has scheduled so far.
pub(crate) struct KeySource {
    /// The code of the locality whose event is executing; [`DRIVER`]
    /// between events.
    pub(crate) cur: u64,
    /// Per origin code, its schedule counter. Grows to the highest origin
    /// that has scheduled anything.
    ctr: Vec<u64>,
}

impl KeySource {
    fn new() -> KeySource {
        KeySource {
            cur: DRIVER,
            ctr: vec![0],
        }
    }

    /// The key of the next event the executing origin schedules onto
    /// destination code `dest`.
    #[inline]
    pub(crate) fn next(&mut self, dest: u64) -> u64 {
        let origin = self.cur;
        let o = origin as usize;
        if o >= self.ctr.len() {
            self.ctr.resize(o + 1, 0);
        }
        let n = self.ctr[o];
        assert!(
            n >> CTR_BITS == 0,
            "origin {origin} has scheduled 2^{CTR_BITS} events: the event key's counter is full"
        );
        self.ctr[o] = n + 1;
        origin << ORIGIN_SHIFT | n << LOC_BITS | dest
    }
}

/// Seed of each executed event's hash term (the FNV-1a offset basis, kept
/// from the original byte-loop hash; any nonzero constant would do).
const TRACE_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// One step of a running hash: fold `value` into `hash` with a single
/// 64×64→128-bit multiply (a mum-style mix).
///
/// This replaced a byte-at-a-time FNV-1a loop (16 multiplies per event). It
/// is a pure function of the `(hash, value)` pair with fixed constants, so
/// identical inputs hash identically on every platform, and folding is
/// order-sensitive.
#[inline]
pub fn trace_mix(hash: u64, value: u64) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15; // 2^64 / phi, odd
    let m = u128::from(hash ^ value) * u128::from(K);
    (m as u64) ^ ((m >> 64) as u64) ^ hash.rotate_left(32)
}

/// The term one executed event adds to [`Engine::trace_hash`]: a
/// [`trace_mix`] of its time and of its key without the destination field.
#[inline]
pub fn event_mix(time: Time, key: u64) -> u64 {
    trace_mix(trace_mix(TRACE_SEED, time.ps()), key >> LOC_BITS)
}

impl<S> Engine<S> {
    /// Create an engine over `state` with the run's `seed`.
    pub fn new(state: S, seed: u64) -> Engine<S> {
        Engine {
            state,
            now: Time::ZERO,
            keys: KeySource::new(),
            queue: TimeWheel::new(),
            seed,
            executed: 0,
            trace_hash: 0,
            shard: ShardRole::Seq,
        }
    }

    /// The current instant of virtual time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events executed so far.
    #[inline]
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events currently pending.
    #[inline]
    pub fn events_pending(&self) -> usize {
        self.queue.len()
    }

    /// Wrapping sum of [`event_mix`] over the `(time, key)` pairs of executed
    /// events.
    ///
    /// Two runs of the same program with the same seed must produce the same
    /// hash; the determinism property tests rely on this. A sum does not
    /// depend on the order of its terms — the order is in the keys: an
    /// execution that reorders two events of one locality hands the later
    /// schedules different counters.
    #[inline]
    pub fn trace_hash(&self) -> u64 {
        self.trace_hash
    }

    /// The run's seed. There is no engine-wide random stream: code that
    /// needs randomness keys a generator by this seed and something its
    /// own locality counts ([`Xoshiro256::keyed`](crate::rng::Xoshiro256::keyed)),
    /// so a draw is the same on one thread and on a shard lane. The lanes
    /// of a sharded run carry the control engine's seed.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Schedule `event` to run `delay` after the current instant.
    pub fn schedule<F>(&mut self, delay: Time, event: F)
    where
        F: FnOnce(&mut Engine<S>) + 'static,
    {
        let at = self.now + delay;
        self.schedule_at(at, event);
    }

    /// Schedule `event` at the absolute instant `at`, on the locality whose
    /// event is executing.
    ///
    /// Outside any event there is no such locality: the event, and whatever
    /// it goes on to schedule, belongs to the driver. Code that issues work
    /// *for* a locality from outside an event names it with
    /// [`Engine::schedule_at_loc`].
    ///
    /// Scheduling in the past violates causality: debug builds panic,
    /// release builds clamp to `now`.
    pub fn schedule_at<F>(&mut self, at: Time, event: F)
    where
        F: FnOnce(&mut Engine<S>) + 'static,
    {
        let at = self.clamp(at);
        if let ShardRole::Control(_) = self.shard {
            self.shard_schedule(at, None, EventSlot::new(event));
        } else {
            // On a lane too: the executing locality is the lane's own.
            let key = self.keys.next(self.keys.cur);
            self.queue.push(at, key, EventSlot::new(event));
        }
    }

    /// Schedule `event` at the absolute instant `at`, naming the locality
    /// whose state it touches.
    ///
    /// Protocol code must use this form for any event that runs on a
    /// *different* locality than the one scheduling it, and on every path
    /// the driver can enter: the named locality is the one executing while
    /// the event runs, so everything the event schedules is keyed to it. In
    /// a sharded run it also routes the event to the lane owning `loc`.
    pub fn schedule_at_loc<F>(&mut self, at: Time, loc: LocalityId, event: F)
    where
        F: FnOnce(&mut Engine<S>) + 'static,
    {
        let at = self.clamp(at);
        if let ShardRole::Seq = self.shard {
            let key = self.keys.next(loc_code(loc));
            self.queue.push(at, key, EventSlot::new(event));
        } else {
            self.shard_schedule(at, Some(loc), EventSlot::new(event));
        }
    }

    #[inline]
    fn clamp(&self, at: Time) -> Time {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: {at} < {}",
            self.now
        );
        at.max(self.now)
    }

    /// Execute one popped event: advance the clock to it, count and hash
    /// it, and run it as its destination locality.
    #[inline]
    pub(crate) fn dispatch(&mut self, time: Time, key: u64, ev: EventSlot<S>) {
        debug_assert!(time >= self.now, "causality violated");
        self.now = time;
        self.executed += 1;
        self.trace_hash = self.trace_hash.wrapping_add(event_mix(time, key));
        self.keys.cur = key_dest(key);
        ev.run(self);
        self.keys.cur = DRIVER;
    }

    /// Execute the next pending event, if any. Returns `false` when idle.
    pub fn step(&mut self) -> bool {
        let Some((time, key, ev)) = self.queue.pop() else {
            return false;
        };
        self.dispatch(time, key, ev);
        true
    }

    /// Run until the event queue drains (quiescence). Returns events executed.
    pub fn run(&mut self) -> u64 {
        let start = self.executed;
        while self.step() {}
        self.executed - start
    }

    /// Run until the queue drains or the clock would pass `deadline`.
    ///
    /// Events scheduled strictly after `deadline` remain pending and the
    /// clock is advanced to `deadline`; if instead the queue quiesces first,
    /// the clock stays at the last executed event.
    pub fn run_until(&mut self, deadline: Time) -> u64 {
        let start = self.executed;
        while let Some(next) = self.queue.next_time() {
            if next > deadline {
                self.now = deadline;
                break;
            }
            self.step();
        }
        self.executed - start
    }

    /// Run at most `n` further events.
    pub fn run_steps(&mut self, n: u64) -> u64 {
        let start = self.executed;
        while self.executed - start < n && self.step() {}
        self.executed - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_run_in_time_order() {
        let mut eng = Engine::new(Vec::<u32>::new(), 0);
        eng.schedule(Time::from_ns(30), |e| e.state.push(3));
        eng.schedule(Time::from_ns(10), |e| e.state.push(1));
        eng.schedule(Time::from_ns(20), |e| e.state.push(2));
        eng.run();
        assert_eq!(eng.state, vec![1, 2, 3]);
        assert_eq!(eng.now(), Time::from_ns(30));
    }

    #[test]
    fn simultaneous_events_run_in_schedule_order() {
        let mut eng = Engine::new(Vec::<u32>::new(), 0);
        for i in 0..10 {
            eng.schedule(Time::from_ns(5), move |e| e.state.push(i));
        }
        eng.run();
        assert_eq!(eng.state, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn ties_break_by_origin_then_by_its_counter() {
        // Three localities schedule onto locality 9 at one instant, in the
        // order 2, 0, 1, 2: the events run by origin, then by each origin's
        // own count — whatever order the schedules were made in.
        let mut eng = Engine::new(Vec::<(u32, u32)>::new(), 0);
        let at = Time::from_ns(50);
        for (origin, nth) in [(2, 0), (0, 0), (1, 0), (2, 1)] {
            eng.schedule_at_loc(Time::from_ns(10 + nth), origin, move |e| {
                e.schedule_at_loc(at, 9, move |e| e.state.push((origin, nth as u32)));
            });
        }
        // The driver's own event at that instant goes first: origin 0.
        eng.schedule_at_loc(at, 9, |e| e.state.push((99, 0)));
        eng.run();
        assert_eq!(eng.state, [(99, 0), (0, 0), (1, 0), (2, 0), (2, 1)]);
    }

    #[test]
    fn a_plain_schedule_inherits_the_executing_locality() {
        // Locality 3's event schedules plainly; the child runs as locality
        // 3 too, so its own child is keyed to origin 3 and beats origin 5.
        let mut eng = Engine::new(Vec::<&str>::new(), 0);
        let at = Time::from_ns(20);
        eng.schedule_at_loc(Time::from_ns(1), 5, move |e| {
            e.schedule_at(at, |e| e.state.push("from 5"));
        });
        eng.schedule_at_loc(Time::from_ns(2), 3, move |e| {
            e.schedule(Time::from_ns(1), move |e| {
                e.schedule_at(at, |e| e.state.push("from 3, two plain hops down"));
            });
        });
        eng.run();
        assert_eq!(eng.state, ["from 3, two plain hops down", "from 5"]);
    }

    #[test]
    #[should_panic(expected = "at most 16383 localities")]
    fn a_locality_beyond_the_key_field_is_refused() {
        let mut eng = Engine::new((), 0);
        eng.schedule_at_loc(Time::ZERO, MAX_LOCALITIES as LocalityId, |_| {});
    }

    #[test]
    fn the_last_locality_fits_the_key_field() {
        let mut eng = Engine::new(0u32, 0);
        let last = MAX_LOCALITIES as LocalityId - 1;
        eng.schedule_at_loc(Time::ZERO, last, |e| {
            e.schedule(Time::from_ns(1), |e| e.state += 1);
        });
        eng.run();
        assert_eq!(eng.state, 1);
    }

    #[test]
    #[should_panic(expected = "the event key's counter is full")]
    fn a_full_origin_counter_is_refused() {
        let mut eng = Engine::new((), 0);
        eng.keys.ctr[DRIVER as usize] = (1 << CTR_BITS) - 1;
        eng.schedule(Time::ZERO, |_| {}); // the last key the field holds
        eng.schedule(Time::ZERO, |_| {});
    }

    #[test]
    fn events_can_schedule_events() {
        let mut eng = Engine::new(0u64, 0);
        fn tick(e: &mut Engine<u64>) {
            e.state += 1;
            if e.state < 100 {
                e.schedule(Time::from_ns(1), tick);
            }
        }
        eng.schedule(Time::ZERO, tick);
        eng.run();
        assert_eq!(eng.state, 100);
        assert_eq!(eng.now(), Time::from_ns(99));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut eng = Engine::new(Vec::<u64>::new(), 0);
        for i in 1..=10 {
            eng.schedule(Time::from_ns(i * 10), move |e| e.state.push(i));
        }
        let ran = eng.run_until(Time::from_ns(45));
        assert_eq!(ran, 4);
        assert_eq!(eng.state, vec![1, 2, 3, 4]);
        assert_eq!(eng.now(), Time::from_ns(45));
        assert_eq!(eng.events_pending(), 6);
        eng.run();
        assert_eq!(eng.state.len(), 10);
    }

    #[test]
    fn run_until_early_quiescence_keeps_clock_at_last_event() {
        // The queue drains long before the deadline: the clock must stay at
        // the last executed event, not jump forward to the deadline.
        let mut eng = Engine::new(0u32, 0);
        eng.schedule(Time::from_ns(10), |e| e.state += 1);
        eng.schedule(Time::from_ns(25), |e| e.state += 1);
        let ran = eng.run_until(Time::from_us(1));
        assert_eq!(ran, 2);
        assert_eq!(eng.now(), Time::from_ns(25));
        assert_eq!(eng.events_pending(), 0);
        // An idle engine stays put too.
        assert_eq!(eng.run_until(Time::from_us(2)), 0);
        assert_eq!(eng.now(), Time::from_ns(25));
    }

    #[test]
    fn run_steps_limits_execution() {
        let mut eng = Engine::new(0u32, 0);
        for _ in 0..5 {
            eng.schedule(Time::ZERO, |e| e.state += 1);
        }
        assert_eq!(eng.run_steps(3), 3);
        assert_eq!(eng.state, 3);
        assert_eq!(eng.run_steps(10), 2);
        assert_eq!(eng.state, 5);
    }

    #[test]
    fn clock_does_not_go_backwards() {
        let mut eng = Engine::new((), 0);
        eng.schedule(Time::from_ns(100), |e| {
            // Scheduling with zero delay from t=100 stays at t=100.
            e.schedule(Time::ZERO, |e2| {
                assert_eq!(e2.now(), Time::from_ns(100));
            });
        });
        eng.run();
    }

    #[test]
    fn trace_hash_is_reproducible() {
        fn build() -> Engine<u64> {
            let mut eng = Engine::new(0u64, 99);
            for i in 0..50u64 {
                let jitter = crate::rng::mix64(eng.seed() ^ i) % 1000;
                eng.schedule(Time::from_ps(jitter + i), move |e| {
                    e.state = e.state.wrapping_add(i);
                });
            }
            eng
        }
        let mut a = build();
        let mut b = build();
        a.run();
        b.run();
        assert_eq!(a.trace_hash(), b.trace_hash());
        assert_eq!(a.state, b.state);
    }

    #[test]
    fn trace_hash_distinguishes_schedules() {
        let mut a = Engine::new((), 0);
        a.schedule(Time::from_ns(1), |_| {});
        a.run();
        let mut b = Engine::new((), 0);
        b.schedule(Time::from_ns(2), |_| {});
        b.run();
        assert_ne!(a.trace_hash(), b.trace_hash());
    }

    #[test]
    fn state_shared_with_events_via_rc() {
        // Events may capture shared handles as well as touch `state`.
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut eng = Engine::new((), 0);
        for i in 0..3 {
            let log = Rc::clone(&log);
            eng.schedule(Time::from_ns(i), move |_| log.borrow_mut().push(i));
        }
        eng.run();
        assert_eq!(*log.borrow(), vec![0, 1, 2]);
    }

    #[test]
    fn large_captures_fall_back_to_heap_and_still_run() {
        // 96 bytes of captures: exceeds the 24-byte inline payload, takes
        // the boxed path.
        let big = [7u64; 12];
        let mut eng = Engine::new(Vec::<u64>::new(), 0);
        eng.schedule(Time::from_ns(1), move |e| e.state.extend_from_slice(&big));
        eng.run();
        assert_eq!(eng.state, vec![7u64; 12]);
    }

    #[test]
    fn unexecuted_events_drop_their_captures() {
        // Dropping an engine with pending events must drop their captures —
        // both inline (an Rc alone) and boxed (Rc + bulky array).
        let token = Rc::new(());
        let mut eng = Engine::new((), 0);
        let t1 = Rc::clone(&token);
        eng.schedule(Time::from_ns(1), move |_| drop(t1));
        let t2 = Rc::clone(&token);
        let bulk = [0u64; 16];
        eng.schedule(Time::from_ns(2), move |_| {
            let _ = bulk;
            drop(t2);
        });
        assert_eq!(Rc::strong_count(&token), 3);
        drop(eng);
        assert_eq!(Rc::strong_count(&token), 1);
    }

    #[test]
    fn empty_engine_is_idle() {
        let mut eng = Engine::new((), 0);
        assert!(!eng.step());
        assert_eq!(eng.run(), 0);
        assert_eq!(eng.now(), Time::ZERO);
    }
}
