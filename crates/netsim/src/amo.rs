//! NIC-executed active memory operations (AMOs).
//!
//! The paper's translation table already lets the NIC resolve a virtual
//! block address with no target-CPU involvement; this module pushes simple
//! data-centric operations into that same access-completion path ("Active
//! Access" style): fetch-and-add, compare-and-swap, masked-put, and small
//! gather/scatter execute **at the NIC** against the translated physical
//! words — one NIC visit does translation *and* the operation, and the
//! target CPU schedules zero events on the hot path.
//!
//! AMOs are not idempotent (a replayed fetch-and-add double-counts), so
//! exactly-once semantics under retry/duplication comes from a per-NIC
//! **responder cache** ([`AmoCache`]): each executed AMO is remembered
//! under a retry-stable key (initiator locality + the initiator's
//! GAS-level op id), and a replayed request re-emits the cached result
//! instead of re-executing. Cache entries travel with their block on
//! migration so a retry that chases a forward still deduplicates.

use crate::nic::LocalityId;

/// The operation a NIC executes against a translated virtual address.
///
/// All word operands are 8-byte little-endian words. `Scatter`/`Gather`
/// offsets are byte offsets **within the target block** (absolute, not
/// relative to the request's own offset), keeping the wire format simple.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AmoOp {
    /// `old = *word; *word = old + operand` (wrapping); returns `old`.
    FetchAdd {
        /// Value added to the target word.
        operand: u64,
    },
    /// `old = *word; if old == expected { *word = desired }`; returns
    /// `old` and whether the swap applied.
    CompareSwap {
        /// Value the target word must hold for the swap to apply.
        expected: u64,
        /// Value written on a successful compare.
        desired: u64,
    },
    /// `old = *word; *word = (old & !mask) | (value & mask)`; returns
    /// `old`. A 0xFF..FF mask is a plain atomic put.
    MaskedPut {
        /// Bits of the target word replaced by `value`.
        mask: u64,
        /// Replacement bits (only those under `mask` land).
        value: u64,
    },
    /// Write each `(offset, value)` word into the block, in order.
    Scatter {
        /// `(byte offset within block, word value)` pairs.
        writes: Box<[(u64, u64)]>,
    },
    /// Read the word at each offset; results come back in request order.
    Gather {
        /// Byte offsets within the block to read.
        offsets: Box<[u64]>,
    },
}

// Every in-flight AMO holds one inside its `Verb`: boxed slices, not
// `Vec`s, keep it at the two-word operand of `CompareSwap` plus the tag.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(size_of::<AmoOp>() <= 24);

impl AmoOp {
    /// Short label for traces and bench rows.
    pub fn label(&self) -> &'static str {
        match self {
            AmoOp::FetchAdd { .. } => "fadd",
            AmoOp::CompareSwap { .. } => "cas",
            AmoOp::MaskedPut { .. } => "mput",
            AmoOp::Scatter { .. } => "scatter",
            AmoOp::Gather { .. } => "gather",
        }
    }

    /// Whether every word this op touches (given the request's base
    /// `offset`) lies inside a block of `len` bytes. The NIC checks this
    /// against the translated entry before executing; the software
    /// handler checks it against the block class.
    pub fn bounds_ok(&self, offset: u64, len: u64) -> bool {
        let word_ok = |off: u64| off.checked_add(8).is_some_and(|end| end <= len);
        match self {
            AmoOp::FetchAdd { .. } | AmoOp::CompareSwap { .. } | AmoOp::MaskedPut { .. } => {
                word_ok(offset)
            }
            AmoOp::Scatter { writes } => writes.iter().all(|&(off, _)| word_ok(off)),
            AmoOp::Gather { offsets } => offsets.iter().all(|&off| word_ok(off)),
        }
    }

    /// Number of payload words the request carries on the wire (used for
    /// sanity caps; AMO requests are control-sized).
    pub fn wire_words(&self) -> usize {
        match self {
            AmoOp::FetchAdd { .. } | AmoOp::MaskedPut { .. } => 1,
            AmoOp::CompareSwap { .. } => 2,
            AmoOp::Scatter { writes } => 2 * writes.len(),
            AmoOp::Gather { offsets } => offsets.len(),
        }
    }

    /// Whether the op can modify memory. Non-mutating AMOs (gathers,
    /// zero-operand fetch-adds, zero-mask masked-puts) are idempotent
    /// reads: a retried execution simply re-reads, so they never consume
    /// responder-cache slots — crucial so that high-rate polling reads
    /// cannot evict the cached completions that guard exactly-once
    /// semantics for genuine mutations.
    pub fn mutates(&self) -> bool {
        match self {
            AmoOp::FetchAdd { operand } => *operand != 0,
            AmoOp::CompareSwap { .. } | AmoOp::Scatter { .. } => true,
            AmoOp::MaskedPut { mask, .. } => *mask != 0,
            AmoOp::Gather { .. } => false,
        }
    }

    /// Number of memory words the op reads or writes when it executes
    /// (drives the modeled DMA time and the software copy charge).
    pub fn touched_words(&self) -> usize {
        match self {
            AmoOp::FetchAdd { .. } | AmoOp::CompareSwap { .. } | AmoOp::MaskedPut { .. } => 1,
            AmoOp::Scatter { writes } => writes.len().max(1),
            AmoOp::Gather { offsets } => offsets.len().max(1),
        }
    }
}

/// What an executed AMO returns to its initiator.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AmoResult {
    /// Prior value of the target word (word ops; zero for scatter/gather).
    pub old: u64,
    /// Whether the op mutated memory (`false` only for a failed
    /// compare-and-swap).
    pub applied: bool,
    /// Gathered word values, in request order (empty otherwise).
    pub values: Vec<u64>,
}

/// Retry-stable identity of an AMO: the initiating locality plus the raw
/// generational id of the initiator's *GAS-level* pending op. Transport
/// attempts (photon op ids) change across retries; this key does not, so
/// the responder cache deduplicates across both fault-plane duplication
/// and deadline-driven re-issue.
pub type AmoKey = (LocalityId, u64);

/// Default bound on remembered completions per NIC.
pub const AMO_CACHE_CAP: usize = 1024;

/// One remembered completion. A cached AMO mutated memory, so it is never a
/// gather: the word result and the compare flag are all it returned.
#[derive(Clone, Copy, Default)]
struct Record {
    key_op: u64,
    block: u64,
    old: u64,
    key_loc: LocalityId,
    applied: bool,
}

// The ring holds `cap` of these: 32 KiB per NIC at the default cap.
const _: () = assert!(size_of::<Record>() == 32);

impl Record {
    fn key(&self) -> AmoKey {
        (self.key_loc, self.key_op)
    }

    fn result(&self) -> AmoResult {
        AmoResult {
            old: self.old,
            applied: self.applied,
            values: Vec::new(),
        }
    }
}

/// An empty index slot.
const EMPTY: u32 = u32::MAX;

/// Per-NIC responder cache giving AMOs exactly-once semantics.
///
/// Bounded FIFO: once full, the oldest remembered completion is evicted.
/// The bound must comfortably exceed the initiator-side retry window
/// (in-flight ops × max attempts); at the default 1024 it does by orders
/// of magnitude. Entries are keyed by [`AmoKey`] and tagged with the
/// block they executed against so [`AmoCache::take_for_block`] can ship
/// them alongside a migrating block.
///
/// Storage is fixed at the first install: a ring of `cap` 32-byte records
/// in FIFO order, and a linear-probing index of ring positions with at
/// least twice `cap` slots, so it is never more than half full. Deletion
/// shifts the probe run back instead of leaving a tombstone, so FIFO churn
/// never degrades or regrows it: 40 KiB per NIC at the default cap, however
/// many AMOs the NIC executes.
#[derive(Default)]
pub struct AmoCache {
    /// Remembered completions, oldest at `head`; empty until the first
    /// install, then exactly `cap` long.
    ring: Box<[Record]>,
    head: usize,
    len: usize,
    /// Ring positions by key hash; a power of two of at least `2 * cap`
    /// slots once the ring exists.
    index: Box<[u32]>,
    cap: usize,
}

impl AmoCache {
    /// A cache remembering up to `cap` completions.
    pub fn new(cap: usize) -> AmoCache {
        assert!(cap < EMPTY as usize, "AMO cache capacity {cap} too large");
        AmoCache {
            cap,
            ..AmoCache::default()
        }
    }

    /// The result previously produced for `key`, if still remembered.
    pub fn lookup(&self, key: AmoKey) -> Option<AmoResult> {
        self.find(key).map(|(_, pos)| self.ring[pos].result())
    }

    /// Remember the result of an executed AMO. Re-installing an existing
    /// key refreshes the stored result in place, keeping its FIFO position.
    pub fn install(&mut self, key: AmoKey, block: u64, result: AmoResult) {
        debug_assert!(result.values.is_empty(), "a gather is never cached");
        if let Some((_, pos)) = self.find(key) {
            let r = &mut self.ring[pos];
            (r.block, r.old, r.applied) = (block, result.old, result.applied);
            return;
        }
        if self.cap == 0 {
            return;
        }
        if self.ring.is_empty() {
            self.ring = vec![Record::default(); self.cap].into_boxed_slice();
            let slots = (2 * self.cap).next_power_of_two();
            self.index = vec![EMPTY; slots].into_boxed_slice();
        }
        if self.len == self.cap {
            let oldest = self.ring[self.head].key();
            self.unindex(oldest);
            self.head = (self.head + 1) % self.cap;
            self.len -= 1;
        }
        let pos = (self.head + self.len) % self.cap;
        self.ring[pos] = Record {
            key_op: key.1,
            block,
            old: result.old,
            key_loc: key.0,
            applied: result.applied,
        };
        self.len += 1;
        self.index_at(key, pos);
    }

    /// Extract every remembered completion for `block`, in deterministic
    /// (installation) order — called when the block migrates away so the
    /// new owner inherits the dedup state. The survivors close up in FIFO
    /// order and the index is rebuilt over their new positions.
    pub fn take_for_block(&mut self, block: u64) -> Vec<(AmoKey, AmoResult)> {
        let mut out = Vec::new();
        let mut kept = 0;
        for i in 0..self.len {
            let r = self.ring[(self.head + i) % self.cap];
            if r.block == block {
                out.push((r.key(), r.result()));
            } else {
                self.ring[(self.head + kept) % self.cap] = r;
                kept += 1;
            }
        }
        if !out.is_empty() {
            self.len = kept;
            self.index.fill(EMPTY);
            for i in 0..kept {
                let pos = (self.head + i) % self.cap;
                self.index_at(self.ring[pos].key(), pos);
            }
        }
        out
    }

    /// Adopt completions shipped with an arriving block (the counterpart
    /// of [`AmoCache::take_for_block`]).
    pub fn absorb(&mut self, block: u64, entries: Vec<(AmoKey, AmoResult)>) {
        for (key, result) in entries {
            self.install(key, block, result);
        }
    }

    /// Remembered completions currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The index slot `key`'s probe run starts at: a fixed multiply-mix,
    /// so slot choice (and with it the run) is the same in every process.
    fn home(&self, (loc, op): AmoKey) -> usize {
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        let x = (op ^ u64::from(loc).wrapping_mul(K)).wrapping_mul(K);
        let x = (x ^ (x >> 29)).wrapping_mul(K);
        (x >> 32) as usize & (self.index.len() - 1)
    }

    /// `key`'s index slot and ring position, if remembered.
    fn find(&self, key: AmoKey) -> Option<(usize, usize)> {
        if self.len == 0 {
            return None;
        }
        let mask = self.index.len() - 1;
        let mut slot = self.home(key);
        loop {
            let pos = self.index[slot];
            if pos == EMPTY {
                return None;
            }
            if self.ring[pos as usize].key() == key {
                return Some((slot, pos as usize));
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Point the first free slot of `key`'s probe run at ring `pos`.
    fn index_at(&mut self, key: AmoKey, pos: usize) {
        let mask = self.index.len() - 1;
        let mut slot = self.home(key);
        while self.index[slot] != EMPTY {
            slot = (slot + 1) & mask;
        }
        self.index[slot] = pos as u32;
    }

    /// Drop `key` from the index, shifting later members of its probe run
    /// back into the gap so every run stays unbroken (no tombstones).
    fn unindex(&mut self, key: AmoKey) {
        let Some((mut gap, _)) = self.find(key) else {
            return;
        };
        let mask = self.index.len() - 1;
        let mut slot = gap;
        loop {
            slot = (slot + 1) & mask;
            let pos = self.index[slot];
            if pos == EMPTY {
                break;
            }
            // An entry may fill the gap unless its home lies cyclically in
            // (gap, slot]: then the gap is before where its probe begins.
            let home = self.home(self.ring[pos as usize].key());
            if (slot.wrapping_sub(home) & mask) >= (slot.wrapping_sub(gap) & mask) {
                self.index[gap] = pos;
                gap = slot;
            }
        }
        self.index[gap] = EMPTY;
    }
}

fn read_word(block: &[u8], offset: u64) -> u64 {
    let o = offset as usize;
    u64::from_le_bytes(block[o..o + 8].try_into().expect("bounds checked"))
}

fn write_word(block: &mut [u8], offset: u64, value: u64) {
    let o = offset as usize;
    block[o..o + 8].copy_from_slice(&value.to_le_bytes());
}

/// Apply `op` to a block's bytes at `offset`. The caller must have
/// validated bounds with [`AmoOp::bounds_ok`] first — both the NIC commit
/// path and the software handler do, against the translated length and
/// the block class respectively.
pub fn execute(op: &AmoOp, block: &mut [u8], offset: u64) -> AmoResult {
    match op {
        AmoOp::FetchAdd { operand } => {
            let old = read_word(block, offset);
            write_word(block, offset, old.wrapping_add(*operand));
            AmoResult {
                old,
                applied: true,
                values: Vec::new(),
            }
        }
        AmoOp::CompareSwap { expected, desired } => {
            let old = read_word(block, offset);
            let applied = old == *expected;
            if applied {
                write_word(block, offset, *desired);
            }
            AmoResult {
                old,
                applied,
                values: Vec::new(),
            }
        }
        AmoOp::MaskedPut { mask, value } => {
            let old = read_word(block, offset);
            write_word(block, offset, (old & !mask) | (value & mask));
            AmoResult {
                old,
                applied: true,
                values: Vec::new(),
            }
        }
        AmoOp::Scatter { writes } => {
            for &(off, value) in writes {
                write_word(block, off, value);
            }
            AmoResult {
                old: 0,
                applied: true,
                values: Vec::new(),
            }
        }
        AmoOp::Gather { offsets } => AmoResult {
            old: 0,
            applied: true,
            values: offsets.iter().map(|&off| read_word(block, off)).collect(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_add_returns_old_and_adds() {
        let mut b = vec![0u8; 64];
        write_word(&mut b, 8, 40);
        let r = execute(&AmoOp::FetchAdd { operand: 2 }, &mut b, 8);
        assert_eq!(
            r,
            AmoResult {
                old: 40,
                applied: true,
                values: vec![]
            }
        );
        assert_eq!(read_word(&b, 8), 42);
        // Wrapping, not overflow.
        write_word(&mut b, 8, u64::MAX);
        let r = execute(&AmoOp::FetchAdd { operand: 3 }, &mut b, 8);
        assert_eq!(r.old, u64::MAX);
        assert_eq!(read_word(&b, 8), 2);
    }

    #[test]
    fn compare_swap_applies_only_on_match() {
        let mut b = vec![0u8; 64];
        write_word(&mut b, 0, 7);
        let miss = execute(
            &AmoOp::CompareSwap {
                expected: 9,
                desired: 1,
            },
            &mut b,
            0,
        );
        assert_eq!((miss.old, miss.applied), (7, false));
        assert_eq!(read_word(&b, 0), 7, "failed CAS must not write");
        let hit = execute(
            &AmoOp::CompareSwap {
                expected: 7,
                desired: 1,
            },
            &mut b,
            0,
        );
        assert_eq!((hit.old, hit.applied), (7, true));
        assert_eq!(read_word(&b, 0), 1);
    }

    #[test]
    fn masked_put_merges_bits() {
        let mut b = vec![0u8; 64];
        write_word(&mut b, 16, 0xFFFF_0000_FFFF_0000);
        let r = execute(
            &AmoOp::MaskedPut {
                mask: 0x0000_FFFF_0000_0000,
                value: 0x0000_ABCD_0000_0000,
            },
            &mut b,
            16,
        );
        assert_eq!(r.old, 0xFFFF_0000_FFFF_0000);
        assert_eq!(read_word(&b, 16), 0xFFFF_ABCD_FFFF_0000);
    }

    #[test]
    fn scatter_gather_round_trip() {
        let mut b = vec![0u8; 64];
        let w = execute(
            &AmoOp::Scatter {
                writes: Box::new([(0, 11), (24, 22), (56, 33)]),
            },
            &mut b,
            0,
        );
        assert!(w.applied);
        let r = execute(
            &AmoOp::Gather {
                offsets: Box::new([56, 0, 24]),
            },
            &mut b,
            0,
        );
        assert_eq!(r.values, vec![33, 11, 22], "gather preserves request order");
    }

    #[test]
    fn bounds_checks_cover_every_touched_word() {
        let op = AmoOp::FetchAdd { operand: 1 };
        assert!(op.bounds_ok(56, 64));
        assert!(!op.bounds_ok(57, 64), "word straddles the block end");
        assert!(!op.bounds_ok(u64::MAX - 3, u64::MAX), "offset overflow");
        let sc = AmoOp::Scatter {
            writes: Box::new([(0, 1), (64, 2)]),
        };
        assert!(!sc.bounds_ok(0, 64));
        assert!(sc.bounds_ok(0, 72));
        let ga = AmoOp::Gather {
            offsets: Box::new([0, 56]),
        };
        assert!(ga.bounds_ok(0, 64));
        assert!(!ga.bounds_ok(0, 63));
    }

    #[test]
    fn only_mutating_ops_need_replay_protection() {
        assert!(AmoOp::FetchAdd { operand: 1 }.mutates());
        assert!(!AmoOp::FetchAdd { operand: 0 }.mutates(), "atomic read");
        assert!(AmoOp::CompareSwap {
            expected: 0,
            desired: 0
        }
        .mutates());
        assert!(AmoOp::MaskedPut { mask: 1, value: 1 }.mutates());
        assert!(!AmoOp::MaskedPut { mask: 0, value: 7 }.mutates());
        assert!(AmoOp::Scatter {
            writes: Box::new([])
        }
        .mutates());
        assert!(!AmoOp::Gather {
            offsets: Box::new([0])
        }
        .mutates());
    }

    #[test]
    fn cache_deduplicates_by_key() {
        let mut c = AmoCache::new(8);
        let key = (3u32, 0x1234u64);
        assert!(c.lookup(key).is_none());
        c.install(
            key,
            42,
            AmoResult {
                old: 7,
                applied: true,
                values: vec![],
            },
        );
        assert_eq!(c.lookup(key).unwrap().old, 7);
        // Re-install refreshes rather than duplicating.
        c.install(
            key,
            42,
            AmoResult {
                old: 9,
                applied: true,
                values: vec![],
            },
        );
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup(key).unwrap().old, 9);
    }

    #[test]
    fn cache_evicts_fifo_at_capacity() {
        let mut c = AmoCache::new(2);
        for i in 0..3u64 {
            c.install(
                (0, i),
                i,
                AmoResult {
                    old: i,
                    applied: true,
                    values: vec![],
                },
            );
        }
        assert_eq!(c.len(), 2);
        assert!(c.lookup((0, 0)).is_none(), "oldest entry evicted");
        assert!(c.lookup((0, 1)).is_some());
        assert!(c.lookup((0, 2)).is_some());
    }

    #[test]
    fn take_for_block_extracts_in_install_order() {
        let mut c = AmoCache::new(8);
        c.install(
            (0, 1),
            5,
            AmoResult {
                old: 1,
                applied: true,
                values: vec![],
            },
        );
        c.install(
            (1, 2),
            9,
            AmoResult {
                old: 2,
                applied: true,
                values: vec![],
            },
        );
        c.install(
            (2, 3),
            5,
            AmoResult {
                old: 3,
                applied: true,
                values: vec![],
            },
        );
        let moved = c.take_for_block(5);
        assert_eq!(
            moved.iter().map(|(k, r)| (*k, r.old)).collect::<Vec<_>>(),
            vec![((0, 1), 1), ((2, 3), 3)]
        );
        assert_eq!(c.len(), 1, "block-9 entry stays");
        assert!(c.lookup((1, 2)).is_some());
        // Absorb on the destination reinstates dedup state.
        let mut d = AmoCache::new(8);
        d.absorb(5, moved);
        assert_eq!(d.lookup((0, 1)).unwrap().old, 1);
        assert_eq!(d.lookup((2, 3)).unwrap().old, 3);
    }

    #[test]
    fn zero_capacity_cache_remembers_nothing() {
        let mut c = AmoCache::new(0);
        c.install((0, 1), 5, AmoResult::default());
        assert!(c.lookup((0, 1)).is_none());
        assert!(c.is_empty());
    }
}
