//! Local control objects (LCOs) — the runtime's synchronization primitives.
//!
//! HPX-5 style: an LCO is a small global object with *trigger* semantics.
//! Setting it (possibly remotely, via an LCO-set parcel) may fire waiting
//! continuations. Three kinds:
//!
//! * **future** — set once with a value; waiters receive the value;
//! * **and-gate** — triggers after `n` sets (values ignored);
//! * **reduce** — accumulates `n` little-endian `u64` contributions with a
//!   [`ReduceOp`]; waiters receive the accumulated value.
//!
//! LCOs occupy the reserved GVA size class [`LCO_CLASS`]; they live at
//! their home locality and never migrate, so routing is pure address
//! arithmetic in every GAS mode.
//!
//! A waiter is either a parcel to spawn ([`attach_parcel`]) or a driver
//! callback ([`attach_driver`]); the callback lives in
//! [`World`]'s table and the LCO holds only its handle.
//!
//! **Lifecycle** (DESIGN.md §3.11). An LCO is a slot in its home's
//! generational [`OpTable`]; its address packs the slot index and the low
//! [`GEN_BITS`] bits of the slot's generation, so every lookup is an index
//! plus a compare. It **retires on delivery**: firing while it holds a
//! waiter hands the value to the waiters and frees the slot in the same
//! step; firing with no waiter keeps the value for [`peek`] and for the
//! first later `attach_*`, which consumes and retires it. Afterwards the
//! address names nothing: a late set is counted in
//! [`RtStats::stale_lco_sets`](crate::RtStats) and dropped, `peek` returns
//! `None`, and an attach panics.

use crate::parcel::{ActionId, Parcel, ACTION_LCO_SET};
use crate::sched;
use crate::world::World;
use agas::Gva;
use netsim::{Engine, LocalityId, OpId, OpTable};

/// The GVA size class reserved for LCOs (8-byte blocks, never in the BTT).
pub const LCO_CLASS: u8 = 3;

/// Low bits of an LCO address's 39-bit `seq` field that hold its table
/// slot: at most 2^24 LCOs are live at one locality at a time.
pub const SLOT_BITS: u32 = 24;
/// The remaining 15 `seq` bits hold the low bits of the slot's generation.
/// A retired address stays dead through `2^GEN_BITS - 1` reuses of its
/// slot; the next reuse mints the same address again (DESIGN.md §3.11).
pub const GEN_BITS: u32 = agas::gva::REST_BITS - LCO_CLASS as u32 - SLOT_BITS;

/// Reduction operators over `u64` contributions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    /// Wrapping sum.
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Bitwise xor.
    Xor,
}

impl ReduceOp {
    fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            ReduceOp::Sum => a.wrapping_add(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
            ReduceOp::Xor => a ^ b,
        }
    }

    fn identity(self) -> u64 {
        match self {
            ReduceOp::Sum => 0,
            ReduceOp::Min => u64::MAX,
            ReduceOp::Max => 0,
            ReduceOp::Xor => 0,
        }
    }
}

enum LcoKind {
    Future,
    And {
        remaining: u64,
    },
    Reduce {
        remaining: u64,
        op: ReduceOp,
        acc: u64,
    },
    Gather {
        remaining: u64,
        parts: Vec<(u32, Vec<u8>)>,
    },
}

enum Waiter {
    /// Spawn this parcel with the LCO value appended to `prefix` args.
    Parcel {
        target: Gva,
        action: ActionId,
        prefix: Vec<u8>,
        cont: Option<Gva>,
    },
    /// Invoke the driver callback this handle names in
    /// [`World`]'s table (benchmark harness / example drivers).
    Driver(OpId),
}

/// One LCO's state, stored at its home locality.
pub struct LcoState {
    kind: LcoKind,
    value: Option<Vec<u8>>,
    /// The first waiter, held inline: most LCOs get exactly one, and a
    /// `Vec` would allocate for it.
    first: Option<Waiter>,
    /// Waiters after the first (non-empty only while `first` is set).
    more: Vec<Waiter>,
}

impl LcoState {
    /// Has the LCO triggered? (If so it holds no waiter — it is keeping its
    /// value for the first `attach_*`.)
    pub fn is_set(&self) -> bool {
        self.value.is_some()
    }

    /// The triggered value (empty for and-gates).
    pub fn value(&self) -> Option<&[u8]> {
        self.value.as_deref()
    }
}

/// A live LCO still holding an undelivered waiter (see [`pending`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PendingLco {
    /// The LCO's address.
    pub lco: Gva,
    /// `"future"`, `"and"`, `"reduce"` or `"gather"`.
    pub kind: &'static str,
    /// Sets it still needs before it fires.
    pub remaining: u64,
    /// Continuations waiting on it.
    pub waiters: usize,
}

/// Every LCO homed at `loc` that still holds a waiter, in slot order: the
/// continuations a finished run never delivered.
pub fn pending(world: &World, loc: LocalityId) -> Vec<PendingLco> {
    let table = &world.rt[loc as usize].lcos;
    table
        .iter()
        .filter(|(_, s)| s.first.is_some())
        .map(|(id, s)| {
            let (kind, remaining) = match s.kind {
                LcoKind::Future => ("future", 1),
                LcoKind::And { remaining } => ("and", remaining),
                LcoKind::Reduce { remaining, .. } => ("reduce", remaining),
                LcoKind::Gather { remaining, .. } => ("gather", remaining),
            };
            PendingLco {
                lco: address(loc, id),
                kind,
                remaining,
                waiters: 1 + s.more.len(),
            }
        })
        .collect()
}

/// The generation bits of `id` that fit in an address.
fn packed_generation(id: OpId) -> u64 {
    u64::from(id.generation()) & ((1 << GEN_BITS) - 1)
}

/// The address of the LCO in slot `id` of `loc`'s table.
fn address(loc: LocalityId, id: OpId) -> Gva {
    let seq = packed_generation(id) << SLOT_BITS | u64::from(id.index());
    Gva::new(loc, LCO_CLASS, seq, 0)
}

/// The live entry of its home's `table` that `lco` names; `None` if the
/// address was never minted or its LCO has retired (the slot is vacant, or
/// a later tenant's generation is in it).
fn resolve(table: &OpTable<LcoState>, lco: Gva) -> Option<OpId> {
    debug_assert_eq!(lco.class(), LCO_CLASS, "not an LCO address: {lco:?}");
    let seq = lco.seq();
    let id = table.live_id((seq & ((1 << SLOT_BITS) - 1)) as u32)?;
    (packed_generation(id) == seq >> SLOT_BITS).then_some(id)
}

fn new_lco(eng: &mut Engine<World>, loc: LocalityId, kind: LcoKind) -> Gva {
    let id = eng.state.rt[loc as usize].lcos.insert(LcoState {
        kind,
        value: None,
        first: None,
        more: Vec::new(),
    });
    assert!(
        id.index() < 1 << SLOT_BITS,
        "more than 2^{SLOT_BITS} live LCOs at locality {loc}"
    );
    address(loc, id)
}

/// Create a future at `loc`.
pub fn new_future(eng: &mut Engine<World>, loc: LocalityId) -> Gva {
    new_lco(eng, loc, LcoKind::Future)
}

/// Create an and-gate at `loc` that triggers after `n` sets.
pub fn new_and(eng: &mut Engine<World>, loc: LocalityId, n: u64) -> Gva {
    assert!(n > 0, "and-gate needs at least one input");
    new_lco(eng, loc, LcoKind::And { remaining: n })
}

/// Create a reduce LCO at `loc` over `n` contributions.
pub fn new_reduce(eng: &mut Engine<World>, loc: LocalityId, n: u64, op: ReduceOp) -> Gva {
    assert!(n > 0, "reduction needs at least one input");
    new_lco(
        eng,
        loc,
        LcoKind::Reduce {
            remaining: n,
            op,
            acc: op.identity(),
        },
    )
}

/// Create a gather LCO at `loc` over `n` rank-prefixed contributions
/// (see [`set_gather`] / [`decode_gather`]).
pub fn new_gather(eng: &mut Engine<World>, loc: LocalityId, n: u64) -> Gva {
    assert!(n > 0, "gather needs at least one input");
    new_lco(
        eng,
        loc,
        LcoKind::Gather {
            remaining: n,
            parts: Vec::new(),
        },
    )
}

/// Contribute `value` from `rank` to a gather LCO.
pub fn set_gather(eng: &mut Engine<World>, from: LocalityId, lco: Gva, rank: u32, value: &[u8]) {
    let mut buf = Vec::with_capacity(value.len() + 4);
    buf.extend_from_slice(&rank.to_le_bytes());
    buf.extend_from_slice(value);
    lco_set(eng, from, lco, buf);
}

/// Decode a fired gather LCO's value into `(rank, bytes)` pairs, ordered
/// by rank.
pub fn decode_gather(bytes: &[u8]) -> Vec<(u32, Vec<u8>)> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let rank = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let len = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap()) as usize;
        out.push((rank, bytes[pos + 8..pos + 8 + len].to_vec()));
        pos += 8 + len;
    }
    out
}

/// Set/contribute to `lco` from `from`. Remote sets travel as parcels.
pub fn lco_set(eng: &mut Engine<World>, from: LocalityId, lco: Gva, value: Vec<u8>) {
    debug_assert_eq!(lco.class(), LCO_CLASS, "lco_set on a non-LCO address");
    let home = lco.home();
    if home == from {
        // Local set still pays a small scheduler cost for determinism with
        // the remote path's handler charge.
        let service = eng.state.rtcfg.lco_op;
        let now = eng.now();
        let (_, finish) = eng.state.cpus[from as usize].admit(now, service);
        eng.state.cluster.loc_mut(from).counters.cpu_busy += service;
        eng.schedule_at_loc(finish, home, move |eng| apply(eng, home, lco, value));
    } else {
        sched::send_parcel(
            eng,
            from,
            Parcel {
                target: lco,
                action: ACTION_LCO_SET,
                args: value,
                cont: None,
                src: from,
                hops: 0,
            },
        );
    }
}

/// Apply a set at the LCO's home (called by the scheduler for LCO parcels).
pub(crate) fn apply(eng: &mut Engine<World>, loc: LocalityId, lco: Gva, value: Vec<u8>) {
    let rt = &mut eng.state.rt[loc as usize];
    let Some(id) = resolve(&rt.lcos, lco) else {
        // Retired on delivery (or never minted): a duplicated or late set
        // must not reach the slot's next tenant. Count and drop.
        rt.stats.stale_lco_sets += 1;
        return;
    };
    rt.stats.lco_ops += 1;
    let state = rt.lcos.get_mut(id).expect("resolved LCO is live");
    let fired: Option<Vec<u8>> = match &mut state.kind {
        LcoKind::Future => {
            assert!(state.value.is_none(), "future {lco:?} set twice");
            Some(value)
        }
        LcoKind::And { remaining } => {
            assert!(*remaining > 0, "and-gate {lco:?} over-set");
            *remaining -= 1;
            (*remaining == 0).then(Vec::new)
        }
        LcoKind::Reduce { remaining, op, acc } => {
            assert!(*remaining > 0, "reduce {lco:?} over-set");
            let contribution = u64::from_le_bytes(
                value
                    .as_slice()
                    .try_into()
                    .expect("reduce contribution must be 8 bytes"),
            );
            *acc = op.apply(*acc, contribution);
            *remaining -= 1;
            (*remaining == 0).then(|| acc.to_le_bytes().to_vec())
        }
        LcoKind::Gather { remaining, parts } => {
            assert!(*remaining > 0, "gather {lco:?} over-set");
            assert!(value.len() >= 4, "gather contribution missing rank prefix");
            let rank = u32::from_le_bytes(value[..4].try_into().unwrap());
            parts.push((rank, value[4..].to_vec()));
            *remaining -= 1;
            (*remaining == 0).then(|| {
                parts.sort_by_key(|&(r, _)| r);
                let mut buf = Vec::new();
                for (r, data) in parts.iter() {
                    buf.extend_from_slice(&r.to_le_bytes());
                    buf.extend_from_slice(&(data.len() as u32).to_le_bytes());
                    buf.extend_from_slice(data);
                }
                buf
            })
        }
    };
    let Some(mut v) = fired else { return };
    if state.first.is_none() {
        // Nobody to hand it to yet: keep it for `peek` and the first attach.
        state.value = Some(v);
        return;
    }
    let state = rt.lcos.remove(id).expect("resolved LCO is live");
    let mut waiters = state.first.into_iter().chain(state.more).peekable();
    while let Some(w) = waiters.next() {
        // The last (usually only) waiter takes the value itself.
        let v = if waiters.peek().is_some() {
            v.clone()
        } else {
            std::mem::take(&mut v)
        };
        deliver(eng, loc, w, v);
    }
}

fn deliver(eng: &mut Engine<World>, loc: LocalityId, waiter: Waiter, value: Vec<u8>) {
    match waiter {
        Waiter::Parcel {
            target,
            action,
            mut prefix,
            cont,
        } => {
            prefix.extend_from_slice(&value);
            sched::send_parcel(
                eng,
                loc,
                Parcel {
                    target,
                    action,
                    args: prefix,
                    cont,
                    src: loc,
                    hops: 0,
                },
            );
        }
        Waiter::Driver(id) => {
            let cb = eng.state.driver_cbs.remove(id);
            let cb = cb.expect("driver waiter vanished");
            let now = eng.now();
            eng.schedule_at_loc(now, loc, move |eng| cb(eng, value));
        }
    }
}

/// Register `waiter` at `lco`'s home — or, if the LCO already fired, hand
/// it the kept value and retire the LCO.
fn attach(eng: &mut Engine<World>, lco: Gva, waiter: Waiter) {
    let loc = lco.home();
    let table = &mut eng.state.rt[loc as usize].lcos;
    let id = resolve(table, lco).unwrap_or_else(|| {
        panic!(
            "attach to {lco:?}: unknown LCO, or already retired on delivery \
             (a fired LCO serves the waiters it holds, or else one later attach)"
        )
    });
    let state = table.get_mut(id).expect("resolved LCO is live");
    if state.value.is_some() {
        let value = table.remove(id).expect("resolved LCO is live").value;
        deliver(eng, loc, waiter, value.expect("checked set"));
    } else if state.first.is_none() {
        state.first = Some(waiter);
    } else {
        state.more.push(waiter);
    }
}

/// When `lco` triggers, spawn `action` at `target` with `prefix ++ value`
/// as arguments. Must be called at the LCO's home locality (driver code can
/// always do this; actions receive LCO homes explicitly).
pub fn attach_parcel(
    eng: &mut Engine<World>,
    lco: Gva,
    target: Gva,
    action: ActionId,
    prefix: Vec<u8>,
    cont: Option<Gva>,
) {
    let waiter = Waiter::Parcel {
        target,
        action,
        prefix,
        cont,
    };
    attach(eng, lco, waiter);
}

/// When `lco` triggers, invoke `cb` with the value (driver-side waiting —
/// how benchmarks and examples observe completion) — at once, as a new
/// event at the LCO's home, if the LCO already fired.
pub fn attach_driver(
    eng: &mut Engine<World>,
    lco: Gva,
    cb: impl FnOnce(&mut Engine<World>, Vec<u8>) + 'static,
) {
    let id = eng.state.driver_cbs.insert(Box::new(cb));
    attach(eng, lco, Waiter::Driver(id));
}

/// Inspect a live LCO's state (driver/diagnostics); `None` once it has
/// retired on delivery.
pub fn peek(world: &World, lco: Gva) -> Option<&LcoState> {
    let table = &world.rt[lco.home() as usize].lcos;
    table.get(resolve(table, lco)?).ok()
}
