//! # optable — generational in-flight operation table
//!
//! Every layer of the stack that owns an *in-flight operation* keeps it
//! here: the GAS layer remembers which put/get/AMO requests await a
//! completion or a directory answer (photon hands a PWC completion back
//! under the very handle the GAS gave it, so that table is the one record
//! of a one-sided op), and the parcel runtime remembers which user-visible
//! completions (LCO sets, driver callbacks) fire when those finish. This
//! module is the shared backbone for both:
//!
//! * [`OpId`] — a typed handle `{ index, generation }` that replaces the
//!   raw `u64` "ctx words" previously threaded through the protocol.
//!   The generation makes slot reuse **ABA-safe**: once an op completes,
//!   its slot can be recycled for a new op, and any late message still
//!   carrying the old handle fails the generation check instead of being
//!   misdelivered to the new op.
//! * [`OpTable`] — a generational slab: O(1) insert/lookup/remove by slot
//!   index (no hashing on the hot path), a LIFO free list, deterministic
//!   iteration in slot order (the simulator's determinism contract forbids
//!   `HashMap` iteration anywhere on an executed path).
//! * [`OpError`] — the typed failure taxonomy. Lookups return
//!   `Result<_, OpError>`; unknown or stale handles become
//!   [`OpError::UnknownOp`] / [`OpError::StaleOp`] values that the caller
//!   counts and drops (or reports to the initiator) instead of panicking.
//!   Ops that exhaust their retry budget or outlive their deadline are
//!   delivered to the initiator as [`OpError::RetriesExhausted`] /
//!   [`OpError::DeadlineExceeded`].
//!
//! # Lifecycle
//!
//! ```text
//! issued ──▶ fast path (RDMA / software msg) ──▶ completed
//!    │             │
//!    │           NACK / SwRetry (bounce)
//!    │             ▼
//!    │       directory recovery (DirQuery → DirReply)
//!    │             ▼
//!    │       exponential backoff → reissue (attempt + 1)
//!    │             │ attempts exhausted ─▶ RetriesExhausted
//!    └─ deadline sweep ────────────────▶ DeadlineExceeded
//! ```
//!
//! The sweep is what turns a *lost* completion (dropped by fault injection,
//! or a protocol bug) into a deterministic, observable outcome instead of a
//! silent hang at quiescence.

use crate::time::Time;
use std::fmt;

/// Typed handle to an in-flight operation: a slab slot plus the generation
/// the slot had when the op was inserted.
///
/// `OpId` is the wire-visible "completion word": a PWC op's request and its
/// `PutDone`/`GetDone`/`Nack` answer carry it unchanged, the GAS layer
/// embeds it in its software-path messages, and the parcel runtime uses it
/// to key user completions. A handle is only ever valid for the table that
/// minted it; presenting it after the op finished yields
/// [`OpError::StaleOp`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId {
    index: u32,
    generation: u32,
}

impl OpId {
    /// The "no completion requested" sentinel (all bits set). Never minted
    /// by an [`OpTable`].
    pub const NONE: OpId = OpId {
        index: u32::MAX,
        generation: u32::MAX,
    };

    /// Construct a handle from explicit parts. Mainly for tests and for
    /// layers that mint untracked correlation tokens (generation 0).
    pub const fn from_parts(index: u32, generation: u32) -> OpId {
        OpId { index, generation }
    }

    /// Reconstruct a handle from its [`raw`](OpId::raw) packing (index in
    /// the low 32 bits, generation in the high 32).
    pub const fn from_raw(raw: u64) -> OpId {
        OpId {
            index: raw as u32,
            generation: (raw >> 32) as u32,
        }
    }

    /// Pack the handle into a `u64` (for embedding in serialized parcel
    /// arguments); inverse of [`from_raw`](OpId::from_raw).
    pub const fn raw(self) -> u64 {
        (self.generation as u64) << 32 | self.index as u64
    }

    /// Slot index within the owning table.
    pub const fn index(self) -> u32 {
        self.index
    }

    /// Generation the slot had when this op was inserted.
    pub const fn generation(self) -> u32 {
        self.generation
    }

    /// Is this the [`NONE`](OpId::NONE) sentinel?
    pub const fn is_none(self) -> bool {
        self.index == u32::MAX && self.generation == u32::MAX
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            write!(f, "op:none")
        } else {
            write!(f, "{}g{}", self.index, self.generation)
        }
    }
}

/// Why an operation lookup or an operation itself failed.
///
/// `UnknownOp`/`StaleOp` are *message-level* errors: a packet named a handle
/// this table never minted, or one whose slot has since been recycled. The
/// receiving layer counts and drops them (no panic is reachable from a
/// malformed or late protocol message). `DeadlineExceeded`/
/// `RetriesExhausted` are *operation-level* errors, delivered to the
/// initiator through `GasWorld::gas_op_failed`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpError {
    /// The handle's slot does not exist or holds no live op.
    UnknownOp { id: OpId },
    /// The handle's slot exists but has been recycled since (generation
    /// mismatch) — the classic ABA case, caught.
    StaleOp { id: OpId, current_generation: u32 },
    /// The op outlived its deadline with its retry budget spent; the
    /// per-locality sweep failed it.
    DeadlineExceeded { id: OpId, age: Time, attempts: u32 },
    /// The op bounced more than `max_attempts` times (livelock guard).
    RetriesExhausted { id: OpId, attempts: u32 },
    /// A message violated the protocol state machine (e.g. a completion
    /// for a rendezvous transfer that was never initiated).
    ProtocolViolation { detail: &'static str },
}

impl OpError {
    /// The handle involved, when the error concerns a specific op.
    pub fn id(&self) -> Option<OpId> {
        match *self {
            OpError::UnknownOp { id }
            | OpError::StaleOp { id, .. }
            | OpError::DeadlineExceeded { id, .. }
            | OpError::RetriesExhausted { id, .. } => Some(id),
            OpError::ProtocolViolation { .. } => None,
        }
    }
}

impl fmt::Display for OpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            OpError::UnknownOp { id } => write!(f, "unknown op {id}"),
            OpError::StaleOp {
                id,
                current_generation,
            } => write!(f, "stale op {id} (slot now at g{current_generation})"),
            OpError::DeadlineExceeded { id, age, attempts } => {
                write!(
                    f,
                    "op {id} exceeded deadline (age {age}, {attempts} attempts)"
                )
            }
            OpError::RetriesExhausted { id, attempts } => {
                write!(f, "op {id} exhausted retries ({attempts} attempts)")
            }
            OpError::ProtocolViolation { detail } => write!(f, "protocol violation: {detail}"),
        }
    }
}

impl std::error::Error for OpError {}

#[derive(Clone, Debug)]
struct Slot<T> {
    generation: u32,
    /// The generation the live op was inserted under ([`OpTable::origin`]);
    /// it fills the padding beside `generation` when `T` is 8-aligned.
    born: u32,
    value: Option<T>,
}

/// A generational slab of in-flight operations.
///
/// * `insert` is O(1): pop a free slot (LIFO) or grow the slot vector.
/// * `get`/`get_mut`/`remove` are O(1): index + generation compare — no
///   hashing, unlike the `HashMap<u64, _>` registries this replaced.
/// * `remove` bumps the slot's generation, so every handle the slot ever
///   minted before is detectably stale ([`OpError::StaleOp`]); so does
///   `renew`, which keeps the op live under a fresh handle.
/// * `iter` walks live entries in slot-index order — deterministic, so it
///   is safe to drive scheduled work (the deadline sweep) from it.
#[derive(Clone, Debug)]
pub struct OpTable<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    live: usize,
}

impl<T> Default for OpTable<T> {
    fn default() -> OpTable<T> {
        OpTable::new()
    }
}

impl<T> OpTable<T> {
    /// Bytes each slot takes: a table's footprint per op it has ever held
    /// at once.
    pub const SLOT_BYTES: usize = std::mem::size_of::<Slot<T>>();

    /// An empty table.
    pub fn new() -> OpTable<T> {
        OpTable {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Number of live (in-flight) ops.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Is the table empty (no op in flight)?
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Insert an op, minting its handle.
    pub fn insert(&mut self, value: T) -> OpId {
        self.live += 1;
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            debug_assert!(slot.value.is_none());
            slot.value = Some(value);
            slot.born = slot.generation;
            OpId {
                index,
                generation: slot.generation,
            }
        } else {
            let index = self.slots.len() as u32;
            assert!(index != u32::MAX, "op table overflow");
            self.slots.push(Slot {
                generation: 0,
                born: 0,
                value: Some(value),
            });
            OpId {
                index,
                generation: 0,
            }
        }
    }

    fn slot(&self, id: OpId) -> Result<&Slot<T>, OpError> {
        let slot = self
            .slots
            .get(id.index as usize)
            .ok_or(OpError::UnknownOp { id })?;
        if slot.generation != id.generation {
            return Err(OpError::StaleOp {
                id,
                current_generation: slot.generation,
            });
        }
        Ok(slot)
    }

    /// Look up a live op.
    pub fn get(&self, id: OpId) -> Result<&T, OpError> {
        self.slot(id)?
            .value
            .as_ref()
            .ok_or(OpError::UnknownOp { id })
    }

    /// Look up a live op, mutably.
    pub fn get_mut(&mut self, id: OpId) -> Result<&mut T, OpError> {
        match self.slot(id) {
            Ok(_) => {}
            Err(e) => return Err(e),
        }
        self.slots[id.index as usize]
            .value
            .as_mut()
            .ok_or(OpError::UnknownOp { id })
    }

    /// Is `id` a live op in this table?
    pub fn contains(&self, id: OpId) -> bool {
        self.get(id).is_ok()
    }

    /// The handle of the op currently live in slot `index`, if any. For
    /// layers that carry a handle in fewer than 64 bits (an LCO address
    /// packs the index and a truncated generation): they recover the full
    /// handle here and compare the bits they kept.
    pub fn live_id(&self, index: u32) -> Option<OpId> {
        let slot = self.slots.get(index as usize)?;
        slot.value.as_ref().map(|_| OpId {
            index,
            generation: slot.generation,
        })
    }

    /// Slots ever allocated — the high-water mark of simultaneously live
    /// ops, since a freed slot is reused before the table grows.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Give a live op a fresh handle in its own slot: the slot's
    /// generation is bumped, so every copy of `id` still in flight (the
    /// answer to an attempt the op has given up on) fails the generation
    /// check from now on, while the op itself stays live under the handle
    /// returned. Its [`origin`](OpTable::origin) is unchanged.
    pub fn renew(&mut self, id: OpId) -> Result<OpId, OpError> {
        self.get(id)?;
        let slot = &mut self.slots[id.index as usize];
        slot.generation = slot.generation.wrapping_add(1);
        Ok(OpId {
            index: id.index,
            generation: slot.generation,
        })
    }

    /// The handle the live op `id` names was inserted under: `id` itself
    /// unless the op has been [`renew`](OpTable::renew)ed since.
    pub fn origin(&self, id: OpId) -> Result<OpId, OpError> {
        self.get(id)?;
        Ok(OpId {
            index: id.index,
            generation: self.slots[id.index as usize].born,
        })
    }

    /// Remove a live op, retiring its handle: the slot's generation is
    /// bumped so the handle (and any copy of it still in flight) can never
    /// match again.
    pub fn remove(&mut self, id: OpId) -> Result<T, OpError> {
        match self.slot(id) {
            Ok(_) => {}
            Err(e) => return Err(e),
        }
        let slot = &mut self.slots[id.index as usize];
        let value = slot.value.take().ok_or(OpError::UnknownOp { id })?;
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(id.index);
        self.live -= 1;
        Ok(value)
    }

    /// Iterate live ops in slot-index order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (OpId, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, slot)| {
            slot.value.as_ref().map(|v| {
                (
                    OpId {
                        index: i as u32,
                        generation: slot.generation,
                    },
                    v,
                )
            })
        })
    }

    /// Remove every live op whose entry matches `pred`, returning the
    /// drained `(handle, entry)` pairs in slot-index order. Used by the
    /// deadline sweep and by fault injection.
    pub fn drain_filter(&mut self, mut pred: impl FnMut(OpId, &T) -> bool) -> Vec<(OpId, T)> {
        let mut out = Vec::new();
        for i in 0..self.slots.len() {
            let slot = &mut self.slots[i];
            let Some(v) = slot.value.as_ref() else {
                continue;
            };
            let id = OpId {
                index: i as u32,
                generation: slot.generation,
            };
            if pred(id, v) {
                let value = slot.value.take().expect("checked live");
                slot.generation = slot.generation.wrapping_add(1);
                self.free.push(i as u32);
                self.live -= 1;
                out.push((id, value));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t = OpTable::new();
        let a = t.insert("a");
        let b = t.insert("b");
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(a), Ok(&"a"));
        assert_eq!(t.get(b), Ok(&"b"));
        assert_eq!(t.remove(a), Ok("a"));
        assert_eq!(t.len(), 1);
        assert!(!t.contains(a));
        assert!(t.contains(b));
    }

    #[test]
    fn reuse_bumps_generation_and_stales_old_handle() {
        let mut t = OpTable::new();
        let a = t.insert(1u32);
        t.remove(a).unwrap();
        let b = t.insert(2u32);
        // The freed slot is recycled...
        assert_eq!(b.index(), a.index());
        assert_ne!(b.generation(), a.generation());
        // ...and the old handle is now detectably stale, not misdelivered.
        assert_eq!(
            t.get(a),
            Err(OpError::StaleOp {
                id: a,
                current_generation: b.generation(),
            })
        );
        assert_eq!(t.get(b), Ok(&2));
    }

    #[test]
    fn live_id_names_the_current_tenant_only() {
        let mut t = OpTable::new();
        assert_eq!(t.live_id(0), None);
        let a = t.insert(1u32);
        assert_eq!(t.live_id(a.index()), Some(a));
        t.remove(a).unwrap();
        assert_eq!(t.live_id(a.index()), None, "vacant slot has no tenant");
        let b = t.insert(2u32);
        assert_eq!(t.live_id(a.index()), Some(b));
        assert_eq!(t.capacity(), 1, "the freed slot was reused");
    }

    #[test]
    fn renew_stales_the_old_handle_and_keeps_the_op() {
        let mut t = OpTable::new();
        let a = t.insert("a");
        let b = t.renew(a).unwrap();
        let c = t.renew(b).unwrap();
        assert_eq!((c.index(), t.len()), (a.index(), 1));
        assert!(matches!(t.get(b), Err(OpError::StaleOp { .. })));
        assert!(t.renew(a).is_err(), "a stale handle renews nothing");
        assert_eq!(t.origin(c), Ok(a), "the op keeps its first handle");
        assert_eq!(t.remove(c), Ok("a"));
        let d = t.insert("d");
        assert!(![a, b, c].contains(&d), "the next tenant matches no handle");
        assert_eq!(t.origin(d), Ok(d));
    }

    #[test]
    fn unknown_index_is_typed_error() {
        let t = OpTable::<u8>::new();
        let bogus = OpId::from_parts(7, 0);
        assert_eq!(t.get(bogus), Err(OpError::UnknownOp { id: bogus }));
    }

    #[test]
    fn raw_roundtrip_and_none() {
        let id = OpId::from_parts(0x1234, 0x5678);
        assert_eq!(OpId::from_raw(id.raw()), id);
        assert!(OpId::NONE.is_none());
        assert!(!id.is_none());
        assert_eq!(OpId::from_raw(u64::MAX), OpId::NONE);
        assert_eq!(format!("{}", id), "4660g22136");
        assert_eq!(format!("{}", OpId::NONE), "op:none");
    }

    #[test]
    fn iteration_is_slot_ordered_and_live_only() {
        let mut t = OpTable::new();
        let a = t.insert("a");
        let b = t.insert("b");
        let c = t.insert("c");
        t.remove(b).unwrap();
        let got: Vec<_> = t.iter().collect();
        assert_eq!(got, vec![(a, &"a"), (c, &"c")]);
    }

    #[test]
    fn drain_filter_removes_matching() {
        let mut t = OpTable::new();
        let _a = t.insert(1);
        let b = t.insert(2);
        let _c = t.insert(3);
        let drained = t.drain_filter(|_, v| *v % 2 == 1);
        assert_eq!(drained.iter().map(|(_, v)| *v).collect::<Vec<_>>(), [1, 3]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(b), Ok(&2));
    }

    #[test]
    fn error_display_is_informative() {
        let id = OpId::from_parts(3, 1);
        assert!(format!("{}", OpError::UnknownOp { id }).contains("3g1"));
        assert!(format!(
            "{}",
            OpError::StaleOp {
                id,
                current_generation: 2
            }
        )
        .contains("g2"));
        assert!(format!(
            "{}",
            OpError::DeadlineExceeded {
                id,
                age: Time::from_us(5),
                attempts: 4
            }
        )
        .contains("deadline"));
    }
}
