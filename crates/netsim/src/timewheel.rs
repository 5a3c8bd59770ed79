//! A two-level calendar/time-wheel event queue.
//!
//! The engine's hot path is `push` + `pop` of timestamped events. A single
//! `BinaryHeap` pays an O(log n) sift in the *total* number of pending
//! events on every pop, with cache-hostile strided access; discrete-event
//! workloads, however, schedule overwhelmingly into the near future. This
//! queue exploits that:
//!
//! * **level 0 — the wheel**: virtual time is quantized into `2^GRAIN_LOG2`
//!   picosecond buckets; the next `SLOTS` quanta each own an unsorted
//!   `Vec`. A push inside that horizon is an O(1) `Vec::push`; an occupancy
//!   bitmap finds the next nonempty bucket in a few word scans.
//! * **level 1 — the current quantum**: when the wheel advances to a
//!   bucket, the bucket `Vec` is swapped into place (recycling capacity,
//!   copying nothing) and sorted *descending* by `(time, key)` once, so
//!   pops are plain `Vec::pop` calls off the tail — no per-event heap
//!   sifting. Events scheduled *into* the active quantum (zero-delay
//!   reschedules) extend that tail when they sort before it and land in a
//!   small side-heap otherwise; each pop takes whichever head is earlier,
//!   so ordering holds even while the quantum drains.
//! * **overflow heap**: events beyond the wheel horizon go to an ordinary
//!   heap and merge back quantum-by-quantum as the wheel reaches them.
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

/// Buckets in the wheel; with the grain above the horizon is ≈ 8.4 µs of
/// virtual time. Must be a power of two.
const SLOTS: usize = 1024;

/// Occupancy-bitmap words.
const WORDS: usize = SLOTS / 64;

#[inline]
fn quantum(t: Time) -> u64 {
    t.ps() >> GRAIN_LOG2
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
    /// The active quantum index (`time >> GRAIN_LOG2`).
    cur_q: u64,
    /// Unsorted near-future buckets; slot `q % SLOTS` holds quantum `q`
    /// for `cur_q < q < cur_q + SLOTS`.
    slots: Box<[Vec<Entry<T>>]>,
    /// One bit per slot: set iff the slot's `Vec` is nonempty.
    occupied: [u64; WORDS],
    /// Events beyond the wheel horizon.
    overflow: BinaryHeap<Entry<T>>,
    len: usize,
}

impl<T> TimeWheel<T> {
    /// An empty queue starting at the origin of time.
    pub fn new() -> TimeWheel<T> {
        TimeWheel {
            cur: Vec::new(),
            extra: BinaryHeap::new(),
            cur_q: 0,
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; WORDS],
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
            // 1 <= q - cur_q < SLOTS: inside the wheel horizon.
            let s = (q % SLOTS as u64) as usize;
            self.slots[s].push(entry);
            self.occupied[s / 64] |= 1 << (s % 64);
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
            self.overflow.push(entry);
        }
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
    /// entries of the same quantum. Returns `false` if nothing is pending.
    fn advance(&mut self) -> bool {
        let wheel_next = self.next_wheel_quantum();
        let over_next = self.overflow.peek().map(|e| quantum(e.time));
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
            // Swap, don't drain: the bucket becomes `cur` wholesale and the
            // spent `cur` allocation recycles as the empty bucket.
            std::mem::swap(&mut self.cur, &mut self.slots[s]);
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

    /// The smallest quantum `> cur_q` with a nonempty wheel bucket.
    fn next_wheel_quantum(&self) -> Option<u64> {
        let base = (self.cur_q % SLOTS as u64) as usize;
        // Pending wheel quanta lie in (cur_q, cur_q + SLOTS), i.e. slot
        // offsets 1..SLOTS from `base`: scan bits (base+1..SLOTS), then the
        // wrapped range (0..base]. Slot `base` itself cannot be occupied —
        // its quantum was drained when the wheel advanced onto it.
        let s = self
            .scan(base + 1, SLOTS)
            .or_else(|| self.scan(0, base + 1))?;
        let offset = ((s + SLOTS - base) % SLOTS) as u64;
        debug_assert!(offset > 0, "occupied bit on the active slot");
        Some(self.cur_q + offset)
    }

    /// Index of the first set occupancy bit in `[lo, hi)`, scanning a word
    /// at a time.
    fn scan(&self, lo: usize, hi: usize) -> Option<usize> {
        if lo >= hi {
            return None;
        }
        let last = (hi - 1) / 64;
        for w in lo / 64..=last {
            let mut word = self.occupied[w];
            let word_lo = w * 64;
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
