//! A two-level calendar/time-wheel event queue.
//!
//! The engine's hot path is `push` + `pop` of timestamped events. A single
//! `BinaryHeap` pays an O(log n) sift in the *total* number of pending
//! events on every pop, with cache-hostile strided access; discrete-event
//! workloads, however, schedule overwhelmingly into the near future. This
//! queue exploits that:
//!
//! * **level 0 — the fine wheel**: virtual time is quantized into
//!   `2^GRAIN_LOG2` picosecond quanta; the next `SLOTS` quanta (≈ 8.4 µs)
//!   each own an unsorted `Vec`. A push inside that horizon is an O(1)
//!   `Vec::push`; an occupancy bitmap finds the next nonempty bucket in a
//!   few word scans.
//! * **the active quantum**: when the wheel advances to a bucket, the
//!   bucket `Vec` is moved into place (copying nothing) and sorted
//!   *descending* by `(time, key)` once, so pops are plain `Vec::pop`
//!   calls off the tail — no per-event heap sifting. The spent buffer goes
//!   onto one LIFO spare pool, and a slot takes a spare when its first
//!   entry arrives: an empty slot holds no storage, so the wheel keeps
//!   buffers for the slots that are busy at one instant, not for every
//!   slot a dense quantum ever passed through.
//!   Events scheduled *into* the active quantum (zero-delay reschedules)
//!   extend that tail when they sort before it and land in a small
//!   side-heap otherwise; each pop takes whichever head is earlier, so
//!   ordering holds even while the quantum drains.
//! * **level 1 — the coarse wheel**: `SLOTS` more unsorted buckets, each
//!   `2^L1_SHIFT` quanta (≈ 4.2 µs) wide, with their own bitmap; horizon
//!   ≈ 4.3 ms. A push beyond level 0's horizon lands in its bucket in
//!   O(1). Once the next level-1 bucket starts no later than anything else
//!   pending, the wheel *cascades* it: the cursor moves to the quantum just
//!   before the bucket's start, and the bucket's entries are re-filed into
//!   level-0 slots, to be sorted once per quantum like every other event.
//!   A set-up burst of many requests queued on one transmit port lands
//!   here.
//! * **overflow heap**: only events beyond level 1's horizon go to an
//!   ordinary heap. They merge back quantum-by-quantum through the
//!   side-heap as the wheel reaches them, next to any level-0 or cascaded
//!   entries of the same quantum.
//!
//! Every pop returns the smallest pending `(time, key)` — bit-for-bit what
//! a single `BinaryHeap` would return (`tests/timewheel_shadow.rs` proves
//! this against a reference model). Keys need not arrive in order: the
//! engine's keys name the scheduling locality first, so an entry pushed at
//! the instant being drained may sort *below* the one just popped, and
//! simply becomes the next pop.

use crate::time::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// log2 of the bucket width in picoseconds: 2^13 ps ≈ 8.2 ns, matching the
/// o/g-scale gaps of the LogGP cost model so near-future events spread
/// across buckets instead of piling into one.
const GRAIN_LOG2: u32 = 13;

/// Buckets per level; with the grain above level 0's horizon is ≈ 8.4 µs
/// of virtual time. Must be a power of two.
const SLOTS: usize = 1024;

/// Occupancy-bitmap words per level.
const WORDS: usize = SLOTS / 64;

/// log2 of a level-1 bucket's width in level-0 quanta: 512 quanta ≈ 4.2
/// µs, half of level 0's horizon, so that with the cursor parked just
/// before a bucket's start the bucket's whole span lies inside level 0.
const L1_SHIFT: u32 = 9;

/// `TimeWheel::level1_next` while level 1 is empty: above every quantum.
const NO_BUCKET: u64 = u64::MAX;

#[inline]
fn quantum(t: Time) -> u64 {
    t.ps() >> GRAIN_LOG2
}

/// The smallest index `> cur` whose bit is set in `bits`, where bit `i %
/// SLOTS` stands for index `i` and every set index lies in `(cur, cur +
/// SLOTS)`.
fn next_occupied(bits: &[u64; WORDS], cur: u64) -> Option<u64> {
    let base = (cur % SLOTS as u64) as usize;
    // Scan bits (base+1..SLOTS), then the wrapped range (0..base]. Bit
    // `base` itself cannot be set: it would stand for `cur`.
    let s = scan(bits, base + 1, SLOTS).or_else(|| scan(bits, 0, base + 1))?;
    let offset = ((s + SLOTS - base) % SLOTS) as u64;
    debug_assert!(offset > 0, "occupied bit on the cursor's own slot");
    Some(cur + offset)
}

/// Index of the first set bit of `bits` in `[lo, hi)`, scanning a word at a
/// time.
fn scan(bits: &[u64; WORDS], lo: usize, hi: usize) -> Option<usize> {
    if lo >= hi {
        return None;
    }
    let first = lo / 64;
    for (i, mut word) in bits[first..=(hi - 1) / 64].iter().copied().enumerate() {
        let word_lo = (first + i) * 64;
        if word_lo < lo {
            word &= !0 << (lo - word_lo);
        }
        if word_lo + 64 > hi {
            word &= (1 << (hi - word_lo)) - 1;
        }
        if word != 0 {
            return Some(word_lo + word.trailing_zeros() as usize);
        }
    }
    None
}

struct Entry<T> {
    time: Time,
    key: u64,
    value: T,
}

impl<T> Entry<T> {
    #[inline]
    fn key(&self) -> (Time, u64) {
        (self.time, self.key)
    }
}

// Order by (time, key) only, inverted so `BinaryHeap` (a max-heap) pops the
// earliest entry first. The value takes no part in ordering.
impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// A priority queue of `(Time, key, T)` entries that pops the smallest
/// pending `(time, key)`, optimized for near-future insertion.
///
/// ```
/// use netsim::{TimeWheel, Time};
///
/// let mut q = TimeWheel::new();
/// q.push(Time::from_ns(20), 0, "late");
/// q.push(Time::from_ns(5), 1, "early");
/// q.push(Time::from_ns(5), 2, "tie breaks by key");
/// assert_eq!(q.pop(), Some((Time::from_ns(5), 1, "early")));
/// assert_eq!(q.pop(), Some((Time::from_ns(5), 2, "tie breaks by key")));
/// assert_eq!(q.pop(), Some((Time::from_ns(20), 0, "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct TimeWheel<T> {
    /// The active quantum's events, sorted descending by `(time, key)`:
    /// `cur.pop()` yields them in ascending order.
    cur: Vec<Entry<T>>,
    /// Events pushed into the active quantum after it was sorted.
    extra: BinaryHeap<Entry<T>>,
    /// The active quantum index (`time >> GRAIN_LOG2`), the wheel's
    /// cursor.
    cur_q: u64,
    /// Level 0, unsorted near-future buckets: slot `q % SLOTS` holds
    /// quantum `q` for `cur_q < q < cur_q + SLOTS`. An empty slot holds no
    /// allocation.
    slots: Box<[Vec<Entry<T>>]>,
    /// Empty buffers that `advance` took back, most recent last; `file`
    /// hands them to slots that fill.
    spare: Vec<Vec<Entry<T>>>,
    /// One bit per level-0 slot: set iff the slot's `Vec` is nonempty.
    occupied: [u64; WORDS],
    /// The first quantum of level 1's earliest nonempty bucket, or
    /// `NO_BUCKET` while level 1 is empty: `advance` reads this one word
    /// and touches level 1 only when a bucket is due.
    level1_next: u64,
    /// Level 1, out of line: the near-future path never touches it.
    level1: Box<Level1<T>>,
    /// Events beyond level 1's horizon.
    overflow: BinaryHeap<Entry<T>>,
    len: usize,
}

/// Level 1 of a [`TimeWheel`].
struct Level1<T> {
    /// Unsorted far-future buckets: slot `b % SLOTS` holds the quanta `b <<
    /// L1_SHIFT ..` of bucket `b`, for every `b` with `cur_q < b <<
    /// L1_SHIFT` and `b < (cur_q >> L1_SHIFT) + SLOTS`. A bucket's storage
    /// is released when it cascades.
    buckets: [Vec<Entry<T>>; SLOTS],
    /// One bit per bucket: set iff its `Vec` is nonempty.
    occupied: [u64; WORDS],
}

impl<T> TimeWheel<T> {
    /// An empty queue starting at the origin of time.
    pub fn new() -> TimeWheel<T> {
        TimeWheel {
            cur: Vec::new(),
            extra: BinaryHeap::new(),
            cur_q: 0,
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            spare: Vec::new(),
            occupied: [0; WORDS],
            level1_next: NO_BUCKET,
            level1: Box::new(Level1 {
                buckets: std::array::from_fn(|_| Vec::new()),
                occupied: [0; WORDS],
            }),
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    /// Pending entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert an entry. `key` must be unique per queue (the engine's event
    /// key) and `time` no earlier than the last popped entry's, or pop
    /// order is unspecified. At that same instant any key will do, below
    /// the last popped one included.
    pub fn push(&mut self, time: Time, key: u64, value: T) {
        // `cur_q` lags real time only while the queue is empty; the first
        // pop's advance re-syncs it, so no re-anchoring is needed here.
        let q = quantum(time);
        self.len += 1;
        let entry = Entry { time, key, value };
        let dq = q.wrapping_sub(self.cur_q);
        if dq.wrapping_sub(1) < SLOTS as u64 - 1 {
            // 1 <= q - cur_q < SLOTS: inside level 0's horizon.
            self.file(q, entry);
        } else if q <= self.cur_q {
            // Active-quantum push. `cur` is sorted descending and popped
            // from the back; an entry earlier than the tail extends that
            // order for free (a self-rescheduling event chain hits this on
            // every push). Only out-of-order entries need the side-heap.
            match self.cur.last() {
                Some(c) if entry.key() > c.key() => self.extra.push(entry),
                _ => self.cur.push(entry),
            }
        } else {
            self.push_far(q, entry);
        }
    }

    /// File `entry`, of quantum `q >= cur_q + SLOTS`, in its level-1 bucket,
    /// or in the overflow heap if it lies beyond level 1's horizon too. Out
    /// of line, so that `push` is no larger than its near-future path.
    #[inline(never)]
    fn push_far(&mut self, q: u64, entry: Entry<T>) {
        let b = q >> L1_SHIFT;
        // `b > cur_q >> L1_SHIFT`: the bucket starts after the cursor.
        if b - (self.cur_q >> L1_SHIFT) < SLOTS as u64 {
            let s = (b % SLOTS as u64) as usize;
            self.level1.buckets[s].push(entry);
            self.level1.occupied[s / 64] |= 1 << (s % 64);
            self.level1_next = self.level1_next.min(b << L1_SHIFT);
        } else {
            self.overflow.push(entry);
        }
    }

    /// File `entry`, of quantum `q` inside level 0's horizon, in its slot.
    #[inline]
    fn file(&mut self, q: u64, entry: Entry<T>) {
        let s = (q % SLOTS as u64) as usize;
        let slot = &mut self.slots[s];
        if slot.capacity() == 0 {
            if let Some(buf) = self.spare.pop() {
                *slot = buf;
            }
        }
        slot.push(entry);
        self.occupied[s / 64] |= 1 << (s % 64);
    }

    /// The earliest pending `(time, key)`'s time, if any. Advances the
    /// wheel's internal cursor but removes nothing.
    #[inline]
    pub fn next_time(&mut self) -> Option<Time> {
        loop {
            match (self.cur.last(), self.extra.peek()) {
                (Some(c), Some(x)) => return Some(c.time.min(x.time)),
                (Some(c), None) => return Some(c.time),
                (None, Some(x)) => return Some(x.time),
                (None, None) => {
                    if !self.advance() {
                        return None;
                    }
                }
            }
        }
    }

    /// The earliest pending `(time, key)`, if any. Advances the wheel's
    /// internal cursor but removes nothing.
    ///
    /// The sharded engine's micro-stepper uses this to find the globally
    /// next event across lanes without disturbing any queue.
    #[inline]
    pub fn next_key(&mut self) -> Option<(Time, u64)> {
        loop {
            match (self.cur.last(), self.extra.peek()) {
                (Some(c), Some(x)) => return Some(c.key().min(x.key())),
                (Some(c), None) => return Some(c.key()),
                (None, Some(x)) => return Some(x.key()),
                (None, None) => {
                    if !self.advance() {
                        return None;
                    }
                }
            }
        }
    }

    /// Remove and return the earliest entry only if its time is strictly
    /// below `limit`; otherwise leave the queue untouched.
    ///
    /// This is the shard lane's window loop: drain everything below the
    /// lookahead horizon, stop at the first entry beyond it.
    #[inline]
    pub fn pop_before(&mut self, limit: Time) -> Option<(Time, u64, T)> {
        if self.next_time()? >= limit {
            return None;
        }
        self.pop()
    }

    /// Remove and return the earliest entry by `(time, key)`.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, u64, T)> {
        let from_extra = loop {
            match (self.cur.last(), self.extra.peek()) {
                (Some(c), Some(x)) => break x.key() < c.key(),
                (Some(_), None) => break false,
                (None, Some(_)) => break true,
                (None, None) => {
                    if !self.advance() {
                        return None;
                    }
                }
            }
        };
        let e = if from_extra {
            self.extra.pop()?
        } else {
            self.cur.pop()?
        };
        self.len -= 1;
        Some((e.time, e.key, e.value))
    }

    /// Advance to the next quantum that has events (the active one is
    /// drained), sorting its wheel bucket in place and merging any overflow
    /// entries of the same quantum. A level-1 bucket that starts no later
    /// than that quantum cascades into level 0 first. Returns `false` if
    /// nothing is pending.
    fn advance(&mut self) -> bool {
        let mut wheel_next = next_occupied(&self.occupied, self.cur_q);
        let over_next = self.overflow.peek().map(|e| quantum(e.time));
        let due = wheel_next
            .unwrap_or(NO_BUCKET)
            .min(over_next.unwrap_or(NO_BUCKET));
        if self.level1_next <= due && self.level1_next != NO_BUCKET {
            wheel_next = self.cascade();
        }
        let next_q = match (wheel_next, over_next) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => return false,
        };
        self.cur_q = next_q;
        if wheel_next == Some(next_q) {
            let s = (next_q % SLOTS as u64) as usize;
            self.occupied[s / 64] &= !(1 << (s % 64));
            // Move, don't drain: the bucket becomes `cur` wholesale, and the
            // spent `cur` allocation goes to the pool, not to the slot it
            // emptied, which may not fill again for a lap.
            let spent = std::mem::replace(&mut self.cur, std::mem::take(&mut self.slots[s]));
            if spent.capacity() > 0 {
                self.spare.push(spent);
            }
            if self.cur.len() > 1 {
                // One descending sort per quantum beats a per-event heap
                // sift. Kept as `sort_unstable_by`: the clippy-preferred
                // `sort_unstable_by_key(|e| Reverse(e.key()))` benched
                // ~1.6x slower on the substrate microbench.
                #[allow(clippy::unnecessary_sort_by)]
                self.cur.sort_unstable_by(|a, b| b.key().cmp(&a.key()));
            }
        }
        while self
            .overflow
            .peek()
            .is_some_and(|e| quantum(e.time) == next_q)
        {
            let e = self.overflow.pop().expect("peeked");
            self.extra.push(e);
        }
        debug_assert!(
            !self.cur.is_empty() || !self.extra.is_empty(),
            "advance found no events"
        );
        true
    }

    /// Cascade level 1's earliest bucket, which starts no later than
    /// anything else pending: park the cursor on the quantum just before
    /// the bucket's start, which puts the bucket's whole span inside level
    /// 0's horizon, and re-file its entries there. Called with the active
    /// quantum drained; returns the next level-0 quantum after it.
    #[inline(never)]
    fn cascade(&mut self) -> Option<u64> {
        let start = self.level1_next;
        debug_assert!(self.cur_q < start, "the cursor passed a level-1 bucket");
        self.cur_q = start - 1;
        let b = start >> L1_SHIFT;
        let s = (b % SLOTS as u64) as usize;
        self.level1.occupied[s / 64] &= !(1 << (s % 64));
        // Take the storage along: a bucket is reused once per ≈ 4.3 ms
        // lap, and the capacity a set-up burst leaves behind would sit
        // idle for the rest of the run.
        for e in std::mem::take(&mut self.level1.buckets[s]) {
            self.file(quantum(e.time), e);
        }
        // The other buckets lie in (b, b + SLOTS).
        self.level1_next =
            next_occupied(&self.level1.occupied, b).map_or(NO_BUCKET, |b| b << L1_SHIFT);
        next_occupied(&self.occupied, self.cur_q)
    }
}

impl<T> Default for TimeWheel<T> {
    fn default() -> TimeWheel<T> {
        TimeWheel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_seq_order() {
        let mut q = TimeWheel::new();
        // Same instant: the key breaks the tie, regardless of push order.
        q.push(Time::from_ns(10), 5, ());
        q.push(Time::from_ns(10), 2, ());
        q.push(Time::from_ns(3), 9, ());
        assert_eq!(q.next_time(), Some(Time::from_ns(3)));
        assert_eq!(q.pop(), Some((Time::from_ns(3), 9, ())));
        assert_eq!(q.pop(), Some((Time::from_ns(10), 2, ())));
        assert_eq!(q.pop(), Some((Time::from_ns(10), 5, ())));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn a_key_below_the_last_popped_one_pops_next() {
        // A zero-delay event may carry a smaller key than its parent (the
        // key names the scheduling locality first): it is simply the
        // smallest pending entry, whether it extends the sorted tail or
        // shares the side-heap with larger keys.
        let at = Time::from_ns(10);
        let mut q = TimeWheel::new();
        q.push(at, 50, "parent");
        q.push(at, 60, "sibling");
        assert_eq!(q.pop(), Some((at, 50, "parent")));
        q.push(at, 70, "late child");
        q.push(at, 10, "early child");
        q.push(at, 5, "earlier child");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.1).collect();
        assert_eq!(order, [5, 10, 60, 70]);
    }

    #[test]
    fn far_future_events_overflow_and_return() {
        let mut q = TimeWheel::new();
        // Far beyond the wheel horizon (≈ 8.4 µs): lands in overflow.
        q.push(Time::from_ms(5), 0, "far");
        q.push(Time::from_ns(1), 1, "near");
        // Horizon-crossing pushes after the wheel re-anchors still order.
        assert_eq!(q.pop(), Some((Time::from_ns(1), 1, "near")));
        q.push(Time::from_ms(5), 2, "far tie");
        assert_eq!(q.pop(), Some((Time::from_ms(5), 0, "far")));
        assert_eq!(q.pop(), Some((Time::from_ms(5), 2, "far tie")));
        assert_eq!(q.pop(), None);
    }

    /// The start of quantum `q`, plus `ps`.
    fn at_q(q: u64, ps: u64) -> Time {
        Time::from_ps((q << GRAIN_LOG2) + ps)
    }

    /// Entries in level 1.
    fn level1_len<T>(q: &TimeWheel<T>) -> usize {
        q.level1.buckets.iter().map(Vec::len).sum()
    }

    /// Whether level 1 holds no entries and no storage.
    fn level1_is_released<T>(q: &TimeWheel<T>) -> bool {
        q.level1_next == NO_BUCKET
            && q.level1.occupied == [0; WORDS]
            && q.level1.buckets.iter().all(|b| b.capacity() == 0)
    }

    #[test]
    fn a_buckets_first_and_last_quantum_cascade_in_order() {
        let mut q = TimeWheel::new();
        let first = 10 << L1_SHIFT;
        let last = first + (1 << L1_SHIFT) - 1;
        // The neighbours' edges, pushed first: the last quantum of bucket
        // 9 and the first of bucket 11.
        q.push(at_q(first - 1, (1 << GRAIN_LOG2) - 1), 0, "bucket 9 end");
        q.push(at_q(last + 1, 0), 1, "bucket 11 start");
        q.push(
            at_q(last, (1 << GRAIN_LOG2) - 1),
            2,
            "last ps of the last quantum",
        );
        q.push(at_q(last, 0), 3, "last quantum");
        q.push(at_q(first, 0), 4, "first quantum");
        q.push(at_q(first, 0), 5, "first quantum, tie");
        assert_eq!((level1_len(&q), q.overflow.len()), (6, 0));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.1).collect();
        assert_eq!(order, [0, 4, 5, 3, 2, 1]);
        assert!(level1_is_released(&q));
    }

    #[test]
    fn a_level0_entry_and_a_cascaded_entry_share_a_quantum() {
        let mut q = TimeWheel::new();
        let shared = (3 << L1_SHIFT) + 64;
        q.push(at_q(shared, 100), 20, "cascaded");
        q.push(at_q(700, 0), 1, "near");
        assert_eq!(level1_len(&q), 1);
        assert_eq!(q.pop(), Some((at_q(700, 0), 1, "near")));
        // From quantum 700 the shared quantum is inside level 0, while its
        // bucket has not cascaded yet.
        q.push(at_q(shared, 100), 10, "level 0, same instant");
        q.push(at_q(shared, 50), 30, "level 0, earlier");
        assert_eq!(level1_len(&q), 1);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.1).collect();
        assert_eq!(order, [30, 10, 20]);
    }

    #[test]
    fn a_heap_entry_and_a_cascaded_entry_share_a_quantum() {
        let mut q = TimeWheel::new();
        // Bucket 1 100 lies past level 1's horizon from the origin; bucket
        // 1 000 does not.
        let shared = 1_100 << L1_SHIFT;
        q.push(at_q(shared, 7), 5, "heap");
        q.push(at_q(shared, 9), 6, "heap, later");
        q.push(at_q(1_000 << L1_SHIFT, 0), 1, "level 1");
        assert_eq!((q.overflow.len(), level1_len(&q)), (2, 1));
        assert_eq!(q.pop().map(|e| e.1), Some(1));
        // Now the shared quantum is inside level 1's horizon.
        q.push(at_q(shared, 7), 9, "level 1, same instant");
        q.push(at_q(shared, 8), 2, "level 1, between");
        assert_eq!((q.overflow.len(), level1_len(&q)), (2, 2));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.1).collect();
        assert_eq!(order, [5, 9, 2, 6]);
        assert!(level1_is_released(&q));
    }

    #[test]
    fn a_bucket_waits_for_an_earlier_heap_entry() {
        let mut q = TimeWheel::new();
        let start = 1_100 << L1_SHIFT;
        // From the origin, 600 quanta before bucket 1 100 is heap.
        q.push(at_q(start - 600, 0), 1, "heap");
        q.push(at_q(1_000 << L1_SHIFT, 0), 0, "level 1");
        assert_eq!(q.pop().map(|e| e.1), Some(0));
        // Bucket 1 100 is level 1 now. Cascading it before the heap entry
        // had popped would leave the cursor 600 quanta behind entries that
        // reach 900 and 1 030 quanta past it.
        q.push(at_q(start + 430, 0), 3, "level 1, later");
        q.push(at_q(start + 300, 0), 2, "level 1");
        assert_eq!((q.overflow.len(), level1_len(&q)), (1, 2));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.1).collect();
        assert_eq!(order, [1, 2, 3]);
    }

    #[test]
    fn a_push_at_the_instant_being_drained_after_a_cascade() {
        let mut q = TimeWheel::new();
        let t = at_q(5 << L1_SHIFT, 123);
        q.push(t, 10, "a");
        q.push(t, 20, "b");
        q.push(t + Time::from_ns(1), 15, "c");
        assert_eq!(level1_len(&q), 3);
        // The first pop cascades the bucket and leaves the cursor on `t`.
        assert_eq!(q.pop(), Some((t, 10, "a")));
        assert_eq!(level1_len(&q), 0);
        q.push(t, 5, "below the last popped key");
        q.push(t, 30, "above the pending one");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.1).collect();
        assert_eq!(order, [5, 20, 30, 15]);
    }

    #[test]
    fn a_set_up_burst_drains_in_order_without_the_heap() {
        // 262 144 requests at once, spread over 100 µs: the shape of a
        // driver issuing every locality's gets at t = 0 onto ports that
        // serialise them.
        const N: u64 = 1 << 18;
        let span = Time::from_us(100).ps();
        let mut q = TimeWheel::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for key in 0..N {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            q.push(Time::from_ps((x >> 11) % span), key, ());
        }
        assert!(level1_len(&q) > 0 && q.overflow.is_empty());
        let mut last = None;
        let mut popped = 0;
        while let Some((t, key, ())) = q.pop() {
            assert!(last < Some((t, key)), "order violated at {t}/{key}");
            last = Some((t, key));
            popped += 1;
        }
        assert_eq!(popped, N);
        assert_eq!(q.overflow.capacity(), 0, "the burst reached the heap");
        assert!(level1_is_released(&q));
    }

    #[test]
    fn a_drained_wheel_keeps_storage_for_its_busiest_instant_only() {
        // A dense quantum, drained before the next one fills: the closed
        // loop's synchronised waves, marching across two laps of level 0.
        const BURST: u64 = 256;
        let mut q = TimeWheel::new();
        let mut key = 0;
        for quantum in 1..=2 * SLOTS as u64 {
            for i in 0..BURST {
                q.push(at_q(quantum, i), key, ());
                key += 1;
            }
            for _ in 0..BURST {
                assert!(q.pop().is_some());
            }
        }
        assert!(q.is_empty());
        let buffers = q.slots.iter().chain(&q.spare).chain([&q.cur]);
        let held: usize = buffers.map(Vec::capacity).sum();
        assert!(
            held <= 4 * BURST as usize,
            "{held} entries of level-0 capacity kept after draining"
        );
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = TimeWheel::new();
        let mut seq = 0u64;
        let mut push = |q: &mut TimeWheel<u64>, t: u64| {
            q.push(Time::from_ps(t), seq, seq);
            seq += 1;
        };
        for i in 0..100 {
            push(&mut q, i * 977 % 50_000);
        }
        let mut last = (Time::ZERO, 0u64);
        let mut popped = 0;
        while let Some((t, s, _)) = q.pop() {
            assert!((t, s) > last || popped == 0, "order violated at {t}/{s}");
            last = (t, s);
            popped += 1;
            // Re-push into the active quantum now and then (a zero-delay
            // reschedule): must sort after already-popped entries.
            if popped % 7 == 0 && popped < 120 {
                q.push(t, 1000 + popped, 0);
            }
        }
        // 100 originals plus one reschedule per 7th pop (reschedules count
        // toward further reschedules): n = 100 + n/7 ⇒ n = 116.
        assert_eq!(popped, 116);
    }

    #[test]
    fn len_tracks_push_pop() {
        let mut q = TimeWheel::new();
        assert_eq!(q.len(), 0);
        for i in 0..10u64 {
            q.push(Time::from_us(i * 3), i, i);
        }
        assert_eq!(q.len(), 10);
        q.pop();
        assert_eq!(q.len(), 9);
        while q.pop().is_some() {}
        assert_eq!(q.len(), 0);
        assert_eq!(q.next_time(), None);
    }
}
