//! Global virtual addresses.
//!
//! A GVA packs, HPX-5 style, everything the runtime needs to reason about a
//! global byte into 64 bits:
//!
//! ```text
//!   63            48 47      42 41                                   0
//!  +----------------+----------+--------------------------------------+
//!  |   home (16)    | class(6) |        seq (42-class) | offset(class)|
//!  +----------------+----------+--------------------------------------+
//! ```
//!
//! * **home** — the locality whose directory is authoritative for the
//!   block. In PGAS mode the home *is* the owner forever; in AGAS modes it
//!   is only the starting owner and the directory anchor.
//! * **class** — log2 of the block size; blocks are power-of-two sized
//!   (min 8 B, class 3) so offset arithmetic is mask-and-shift.
//! * **seq** — per-home, per-class block sequence number.
//! * **offset** — byte offset within the block (low `class` bits).
//!
//! The **block key** is the GVA with its offset bits cleared: the unit of
//! translation in the BTT, the owner caches, and — the paper's contribution
//! — the NIC translation tables.

use std::fmt;

/// Number of bits reserved for the home locality.
pub const HOME_BITS: u32 = 16;
/// Number of bits encoding the size class.
pub const CLASS_BITS: u32 = 6;
/// Bits shared by the sequence number and offset.
pub const REST_BITS: u32 = 64 - HOME_BITS - CLASS_BITS; // 42
/// Smallest legal size class (8-byte blocks).
pub const MIN_CLASS: u8 = 3;
/// Largest legal size class (1 GiB blocks; leaves ≥ 12 bits of seq).
pub const MAX_CLASS: u8 = 30;

// A one-sided request stores a physical target under this block word. Its
// size-class field is out of range, so no GVA's block key equals it.
const _: () =
    assert!((netsim::PHYS_BLOCK >> REST_BITS) & ((1 << CLASS_BITS) - 1) > MAX_CLASS as u64);

/// A global virtual address.
///
/// ```
/// use agas::Gva;
///
/// let g = Gva::new(/*home*/ 3, /*class*/ 12, /*seq*/ 7, /*offset*/ 100);
/// assert_eq!(g.home(), 3);
/// assert_eq!(g.block_size(), 4096);
/// assert_eq!(g.offset(), 100);
/// // Offsets never change the block key (the NIC translation unit):
/// assert_eq!(g.block_key(), g.with_offset(0).block_key());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Gva(pub u64);

impl Gva {
    /// The null address (class 0 is reserved, so no valid GVA encodes as 0).
    pub const NULL: Gva = Gva(0);

    /// Construct a GVA from its fields. Panics on out-of-range fields
    /// (construction happens at allocation time, never on fast paths).
    pub fn new(home: u32, class: u8, seq: u64, offset: u64) -> Gva {
        assert!(home < (1 << HOME_BITS), "home {home} out of range");
        assert!(
            (MIN_CLASS..=MAX_CLASS).contains(&class),
            "class {class} out of range"
        );
        let seq_bits = REST_BITS - class as u32;
        assert!(
            seq < (1u64 << seq_bits),
            "seq {seq} too large for class {class}"
        );
        assert!(
            offset < (1u64 << class),
            "offset {offset} exceeds block size"
        );
        let rest = (seq << class) | offset;
        Gva(((home as u64) << (CLASS_BITS + REST_BITS)) | ((class as u64) << REST_BITS) | rest)
    }

    /// Is this the null address?
    #[inline]
    pub fn is_null(self) -> bool {
        self.class_raw() == 0
    }

    /// The home locality (directory anchor / initial owner).
    #[inline]
    pub fn home(self) -> u32 {
        (self.0 >> (CLASS_BITS + REST_BITS)) as u32
    }

    #[inline]
    fn class_raw(self) -> u8 {
        ((self.0 >> REST_BITS) & ((1 << CLASS_BITS) - 1)) as u8
    }

    /// The size class (log2 of the block size).
    #[inline]
    pub fn class(self) -> u8 {
        let c = self.class_raw();
        debug_assert!((MIN_CLASS..=MAX_CLASS).contains(&c), "corrupt GVA {self:?}");
        c
    }

    /// Block size in bytes.
    #[inline]
    pub fn block_size(self) -> u64 {
        1u64 << self.class()
    }

    /// The per-home sequence number of the block.
    #[inline]
    pub fn seq(self) -> u64 {
        (self.0 & ((1u64 << REST_BITS) - 1)) >> self.class()
    }

    /// Byte offset within the block.
    #[inline]
    pub fn offset(self) -> u64 {
        self.0 & ((1u64 << self.class()) - 1)
    }

    /// The block key: this GVA with the offset bits cleared. The unit of
    /// translation everywhere (BTT, caches, NIC tables).
    #[inline]
    pub fn block_key(self) -> u64 {
        self.0 & !((1u64 << self.class()) - 1)
    }

    /// This block's base address (offset zero).
    #[inline]
    pub fn block_base(self) -> Gva {
        Gva(self.block_key())
    }

    /// The same block at byte `offset`.
    #[inline]
    pub fn with_offset(self, offset: u64) -> Gva {
        debug_assert!(offset < self.block_size());
        Gva(self.block_key() | offset)
    }

    /// Add `delta` bytes *within this block*. Panics in debug builds if the
    /// result would leave the block — cross-block arithmetic needs the
    /// allocation's distribution and lives in [`crate::alloc::GlobalArray`].
    // Not `impl Add`: the operand is a byte delta, not another `Gva`.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn add(self, delta: u64) -> Gva {
        let off = self.offset() + delta;
        debug_assert!(off < self.block_size(), "GVA arithmetic left the block");
        Gva(self.block_key() | off)
    }
}

impl fmt::Debug for Gva {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_null() {
            return write!(f, "Gva(NULL)");
        }
        write!(
            f,
            "Gva(home={}, class={}, seq={}, off={})",
            self.home(),
            self.class_raw(),
            self.seq(),
            self.offset()
        )
    }
}

impl fmt::Display for Gva {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#018x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_fields() {
        let g = Gva::new(42, 12, 1000, 77);
        assert_eq!(g.home(), 42);
        assert_eq!(g.class(), 12);
        assert_eq!(g.seq(), 1000);
        assert_eq!(g.offset(), 77);
        assert_eq!(g.block_size(), 4096);
    }

    #[test]
    fn null_is_detectable() {
        assert!(Gva::NULL.is_null());
        assert!(!Gva::new(0, 3, 0, 0).is_null());
    }

    #[test]
    fn block_key_masks_offset_only() {
        let a = Gva::new(7, 10, 5, 0);
        let b = Gva::new(7, 10, 5, 1023);
        assert_eq!(a.block_key(), b.block_key());
        let c = Gva::new(7, 10, 6, 0);
        assert_ne!(a.block_key(), c.block_key());
        let d = Gva::new(8, 10, 5, 0);
        assert_ne!(a.block_key(), d.block_key());
    }

    #[test]
    fn with_offset_and_add() {
        let g = Gva::new(1, 8, 3, 0);
        assert_eq!(g.with_offset(100).offset(), 100);
        assert_eq!(g.add(10).add(20).offset(), 30);
        assert_eq!(g.with_offset(100).block_base(), g);
    }

    #[test]
    #[should_panic(expected = "offset")]
    fn oversized_offset_rejected() {
        let _ = Gva::new(0, 6, 0, 64);
    }

    #[test]
    #[should_panic(expected = "seq")]
    fn oversized_seq_rejected() {
        let _ = Gva::new(0, 30, 1 << 12, 0);
    }

    #[test]
    #[should_panic(expected = "class")]
    fn class_out_of_range_rejected() {
        let _ = Gva::new(0, 31, 0, 0);
    }

    #[test]
    fn max_fields_encode() {
        let g = Gva::new(
            (1 << HOME_BITS) - 1,
            MAX_CLASS,
            (1u64 << (REST_BITS - MAX_CLASS as u32)) - 1,
            (1u64 << MAX_CLASS) - 1,
        );
        assert_eq!(g.home(), (1 << HOME_BITS) - 1);
        assert_eq!(g.class(), MAX_CLASS);
    }

    #[test]
    fn distinct_blocks_have_distinct_keys() {
        let mut keys = std::collections::HashSet::new();
        for home in 0..4 {
            for class in [3u8, 6, 12] {
                for seq in 0..64 {
                    assert!(keys.insert(Gva::new(home, class, seq, 0).block_key()));
                }
            }
        }
    }
}
