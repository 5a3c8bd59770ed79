//! The GAS operation state machines: memput, memget, routing, pinning, and
//! the protocol handlers.
//!
//! Every operation follows the same skeleton — resolve a target, take the
//! mode's fast path, recover through the home directory when the fast path
//! bounces — but the fast paths differ structurally, and that difference is
//! the paper:
//!
//! * **PGAS** — the initiator *computes* the physical placement (home from
//!   the address bits, physical base from the replicated allocation map)
//!   and issues plain RDMA. No translation at the target NIC; no mobility.
//! * **AGAS-SW** — the initiator sends a two-sided [`GasMsg::SwAccess`]
//!   parcel; the owner's **CPU** translates through its BTT, performs the
//!   copy, and replies. Every byte of remote access consumes target cores.
//! * **AGAS-NET** — the initiator issues RDMA on the *virtual* block key;
//!   the owner's **NIC** translates. The target CPU is never involved; a
//!   stale target answers with a NACK (or NIC-forwards), and the initiator
//!   re-resolves through the home and retries.
//!
//! Around the fast path every put, get and AMO, in every mode, runs one
//! pipeline: `start` records the op, chooses its path and, unless it must
//! wait for a send credit, admits and issues it; whichever path answers it
//! (a local commit, a shm commit, a [`GasMsg::SwReply`], a NIC completion)
//! hands an [`Applied`] answer to `settle`, which checks the answer's kind
//! against the op's and does the history, latency, landing-buffer and span
//! bookkeeping; `fail_op` is the one way an op fails. [`crate::GasStats`]
//! is the one ledger of those outcomes.
//!
//! Admitted operations live in the initiator's generational
//! [`netsim::OpTable`], the one record of each: wire messages carry the
//! typed [`OpId`] handle (a PWC op's is its photon wire token), and a
//! completion naming an unknown or stale handle is counted
//! (`stale_completions`) and dropped instead of panicking. A bounce that
//! gives up on an RDMA attempt renews the op's handle, so every answer to
//! that attempt arrives stale. Each entry
//! carries its issue time, attempt count, and optional deadline; the
//! per-locality sweep ([`GasConfig::op_deadline`]) turns a lost completion
//! into a retry through the home, or, once the retry budget is spent, into
//! a deterministic [`OpError::DeadlineExceeded`] delivered through
//! [`GasWorld::gas_op_failed`].
//!
//! [`GasConfig::op_deadline`]: crate::GasConfig::op_deadline

use crate::check::{value_hash, WordEvent, WordOp};
use crate::gva::Gva;
use crate::{
    GasMode, GasMsg, GasWorld, HistEvent, HistKind, OpPhase, OwnerHint, PendingOp, SendEntry,
    SwAccess, POST_DEPTH,
};
use netsim::{
    send_held, send_user_classed, AmoOp, AmoResult, Applied, Engine, FaultClass, LocalityId,
    NackReason, OpError, OpId, OpKind, PhysAddr, RdmaTarget, ShmDomain, Time, TraceKind, Verb,
};
use photon::pwc;
use std::collections::VecDeque;

fn copy_time(per_byte_ps: u64, len: usize) -> Time {
    Time::from_ps(len as u64 * per_byte_ps)
}

/// Record an operation's completion latency (nanosecond samples).
fn record_latency<S: GasWorld>(eng: &mut Engine<S>, loc: LocalityId, p: &PendingOp, done: Time) {
    let ns = done.saturating_sub(p.issued).as_ns();
    let g = eng.state.gas(loc);
    match p.verb.kind() {
        OpKind::Put => g.put_latency.record(ns),
        OpKind::Get => g.get_latency.record(ns),
        OpKind::Amo => g.amo_latency.record(ns),
    }
}

/// Append the word-level history events a completed AMO implies (no-op
/// when history recording is off). No-op observations (zero-operand
/// fetch-add, failed CAS, identity masked-put) log as reads so the
/// uniqueness rule only counts mutating consumption.
fn log_amo_words<S: GasWorld>(
    eng: &mut Engine<S>,
    loc: LocalityId,
    gva: Gva,
    amo: &AmoOp,
    result: &AmoResult,
    issued: Time,
    done: Time,
) {
    if !eng.state.gas(loc).cfg.record_history {
        return;
    }
    let off = gva.offset();
    let evs: Vec<(u64, WordOp)> = match amo {
        AmoOp::FetchAdd { operand } => {
            if *operand == 0 {
                vec![(off, WordOp::Read { value: result.old })]
            } else {
                vec![(
                    off,
                    WordOp::Rmw {
                        read: result.old,
                        written: result.old.wrapping_add(*operand),
                    },
                )]
            }
        }
        AmoOp::CompareSwap { desired, .. } => {
            if result.applied && *desired != result.old {
                vec![(
                    off,
                    WordOp::Rmw {
                        read: result.old,
                        written: *desired,
                    },
                )]
            } else {
                vec![(off, WordOp::Read { value: result.old })]
            }
        }
        AmoOp::MaskedPut { mask, value } => {
            let written = (result.old & !mask) | (value & mask);
            if written == result.old {
                vec![(off, WordOp::Read { value: result.old })]
            } else {
                vec![(
                    off,
                    WordOp::Rmw {
                        read: result.old,
                        written,
                    },
                )]
            }
        }
        AmoOp::Scatter { writes } => writes
            .iter()
            .map(|&(o, v)| (o, WordOp::Write { value: v }))
            .collect(),
        AmoOp::Gather { offsets } => offsets
            .iter()
            .zip(&result.values)
            .map(|(&o, &v)| (o, WordOp::Read { value: v }))
            .collect(),
    };
    let block = gva.block_key();
    let g = eng.state.gas(loc);
    for (offset, op) in evs {
        g.word_history.push(WordEvent {
            block,
            offset,
            op,
            issued,
            done: Some(done),
            ok: true,
            loc,
        });
    }
}

/// Append what a *terminally failed* AMO may still have done to memory:
/// scatter words stay candidate producers (their values are known), word
/// RMWs leave an opaque marker that exempts their word from the strict
/// rules, and gathers have no effect at all.
fn log_amo_failure<S: GasWorld>(eng: &mut Engine<S>, loc: LocalityId, p: &PendingOp) {
    let Verb::Amo { amo, .. } = &p.verb else {
        return;
    };
    if !eng.state.gas(loc).cfg.record_history {
        return;
    }
    let evs: Vec<(u64, WordOp)> = match amo {
        AmoOp::Scatter { writes } => writes
            .iter()
            .map(|&(o, v)| (o, WordOp::Write { value: v }))
            .collect(),
        AmoOp::Gather { .. } => Vec::new(),
        _ => vec![(p.gva.offset(), WordOp::Opaque)],
    };
    let block = p.gva.block_key();
    let issued = p.issued;
    let g = eng.state.gas(loc);
    for (offset, op) in evs {
        g.word_history.push(WordEvent {
            block,
            offset,
            op,
            issued,
            done: None,
            ok: false,
            loc,
        });
    }
}

/// Append the issue-side history event for a put or get (history
/// recording on). AMO words are checked by the word-level oracle, not the
/// byte-fingerprint history (workloads keep the slots disjoint).
fn hist_issue(
    g: &mut crate::GasLocal,
    loc: LocalityId,
    gva: Gva,
    verb: &Verb,
    now: Time,
) -> Option<u32> {
    if !g.cfg.record_history {
        return None;
    }
    let (kind, len, value) = match verb {
        Verb::Put { data, .. } => (HistKind::Put, data.len() as u32, value_hash(data)),
        Verb::Get { len, .. } => (HistKind::Get, *len, 0),
        Verb::Amo { .. } => return None,
    };
    g.history.push(HistEvent {
        kind,
        block: gva.block_key(),
        offset: gva.offset(),
        len,
        value,
        issued: now,
        done: None,
        ok: false,
        loc,
    });
    Some((g.history.len() - 1) as u32)
}

/// Mark an op's history event complete (and, for gets, record the value
/// fingerprint the initiator observed).
fn hist_done<S: GasWorld>(
    eng: &mut Engine<S>,
    loc: LocalityId,
    hist: Option<u32>,
    now: Time,
    value: Option<u64>,
) {
    if let Some(i) = hist {
        let e = &mut eng.state.gas(loc).history[i as usize];
        e.done = Some(now);
        e.ok = true;
        if let Some(v) = value {
            e.value = v;
        }
    }
}

/// Release the landing buffer an earlier RDMA get attempt left behind
/// (no-op for every other op).
fn free_scratch<S: GasWorld>(eng: &mut Engine<S>, loc: LocalityId, p: &PendingOp) {
    if let Some((addr, class)) = p.scratch() {
        eng.state.cluster().mem_mut(loc).free_block(addr, class);
    }
}

/// Size class of the landing buffer a `len`-byte get's RDMA attempts share.
pub(crate) fn scratch_class(len: u32) -> u8 {
    let needed = len.max(8);
    (u32::BITS - (needed - 1).leading_zeros()) as u8
}

/// Open the op's trace span (no-op when tracing is disabled).
fn open_span<S: GasWorld>(eng: &mut Engine<S>, loc: LocalityId, op: OpId) {
    let t = eng.now();
    eng.state
        .cluster()
        .tracer
        .record(t, TraceKind::OpSpanOpen { at: loc, op });
}

/// Close the op's trace span with its outcome.
fn close_span<S: GasWorld>(eng: &mut Engine<S>, loc: LocalityId, op: OpId, ok: bool) {
    let t = eng.now();
    eng.state
        .cluster()
        .tracer
        .record(t, TraceKind::OpSpanClose { at: loc, op, ok });
}

/// Account a removed op's `answer`, the one path every completed put, get
/// and AMO takes: history (a get's value fingerprint, an AMO's words),
/// latency to `done`, its landing buffer, the `completed` count and the
/// span of the op `id` identifies. Returns the initiator's handle to
/// deliver the answer to; an answer of another kind than the op fails the
/// op as a protocol violation instead, and returns `None`.
fn settle<S: GasWorld>(
    eng: &mut Engine<S>,
    loc: LocalityId,
    id: OpId,
    p: PendingOp,
    answer: &Applied<Vec<u8>>,
    done: Time,
) -> Option<OpId> {
    let now = eng.now();
    match (&p.verb, answer) {
        (Verb::Put { .. }, Applied::Put) => hist_done(eng, loc, p.hist(), now, None),
        (Verb::Get { .. }, Applied::Get(data)) => {
            let vhash = p.hist().map(|_| value_hash(data));
            hist_done(eng, loc, p.hist(), now, vhash);
        }
        (Verb::Amo { amo, .. }, Applied::Amo { result, .. }) => {
            log_amo_words(eng, loc, p.gva, amo, result, p.issued, now)
        }
        _ => {
            let detail = "answer of another kind than its op";
            fail_op(eng, loc, id, p, OpError::ProtocolViolation { detail });
            return None;
        }
    }
    record_latency(eng, loc, &p, done);
    free_scratch(eng, loc, &p);
    eng.state.gas(loc).stats.completed += 1;
    close_span(eng, loc, id, true);
    Some(p.ctx)
}

/// Remove the live op `op` names, with its identity: the handle `start`
/// minted, whatever handle the op holds now. An op taken with an attempt
/// posted gives its credit back, and the send queue's head is posted.
fn take<S: GasWorld>(eng: &mut Engine<S>, loc: LocalityId, op: OpId) -> Option<(OpId, PendingOp)> {
    let g = eng.state.gas(loc);
    let id = g.pending.origin(op).ok()?;
    let p = g.pending.remove(op).ok()?;
    if p.phase == OpPhase::Rdma {
        g.posted -= 1;
        if !g.send_queue.is_empty() {
            post_queued(eng, loc);
        }
    }
    Some((id, p))
}

/// Finish the op `op` names with `answer`, whichever path brought it (a
/// software reply, a shm commit, a NIC completion). A stale or duplicated
/// answer is counted and dropped.
fn complete<S: GasWorld>(eng: &mut Engine<S>, loc: LocalityId, op: OpId, answer: Applied<Vec<u8>>) {
    let Some((id, p)) = take(eng, loc, op) else {
        eng.state.gas(loc).stats.stale_completions += 1;
        return;
    };
    let now = eng.now();
    let Some(ctx) = settle(eng, loc, id, p, &answer, now) else {
        return;
    };
    match answer {
        Applied::Put => S::gas_put_done(eng, loc, ctx),
        Applied::Get(data) => S::gas_get_done(eng, loc, ctx, data),
        Applied::Amo { result, .. } => S::gas_amo_done(eng, loc, ctx, result),
    }
}

/// Terminally fail the removed op `id` identifies, the one failure path:
/// release its scratch, count it (by error kind too), close its span, and
/// deliver the typed error to the initiator.
fn fail_op<S: GasWorld>(
    eng: &mut Engine<S>,
    loc: LocalityId,
    id: OpId,
    p: PendingOp,
    err: OpError,
) {
    log_amo_failure(eng, loc, &p);
    free_scratch(eng, loc, &p);
    let stats = &mut eng.state.gas(loc).stats;
    stats.ops_failed += 1;
    match err {
        OpError::DeadlineExceeded { .. } => stats.deadline_exceeded += 1,
        OpError::ProtocolViolation { .. } => stats.protocol_violations += 1,
        _ => {}
    }
    close_span(eng, loc, id, false);
    S::gas_op_failed(eng, loc, p.ctx, p.gva, err);
}

/// Write `data` to the global address `gva`. Completion arrives via
/// [`GasWorld::gas_put_done`] with `ctx`; terminal failure (deadline,
/// retries exhausted) via [`GasWorld::gas_op_failed`]. The write must stay
/// within one block (use [`crate::GlobalArray::chunks`] to split larger
/// ranges).
pub fn memput<S: GasWorld>(
    eng: &mut Engine<S>,
    loc: LocalityId,
    gva: Gva,
    data: Vec<u8>,
    ctx: OpId,
) {
    assert!(
        gva.offset() + data.len() as u64 <= gva.block_size(),
        "memput crosses a block boundary"
    );
    assert!(!data.is_empty(), "empty memput");
    eng.state.gas(loc).stats.puts += 1;
    start(eng, loc, gva, Verb::put(data.into(), None), ctx);
}

/// Read `len` bytes from the global address `gva`. Completion (with the
/// data) arrives via [`GasWorld::gas_get_done`] with `ctx`; terminal
/// failure via [`GasWorld::gas_op_failed`].
pub fn memget<S: GasWorld>(eng: &mut Engine<S>, loc: LocalityId, gva: Gva, len: u32, ctx: OpId) {
    assert!(
        gva.offset() + len as u64 <= gva.block_size(),
        "memget crosses a block boundary"
    );
    assert!(len > 0, "empty memget");
    eng.state.gas(loc).stats.gets += 1;
    // `local` names the scratch landing buffer once an RDMA attempt has
    // allocated one.
    start(eng, loc, gva, Verb::Get { len, local: 0 }, ctx);
}

/// Execute `amo` atomically against the word(s) at `gva`. Completion
/// (with the observed/old values) arrives via [`GasWorld::gas_amo_done`]
/// with `ctx`; terminal failure via [`GasWorld::gas_op_failed`].
///
/// Under AGAS with a NIC table the operation executes **at the target
/// NIC** in the same visit that translates the virtual block — the target
/// CPU schedules nothing on the hot path. AMOs are not idempotent, so the
/// retry machinery shares one dedup identity per op (its [`Verb::Amo`]
/// `key`: the initiator plus the pending op's raw id, stable across re-issue)
/// with the target-side responder cache: a duplicated or re-issued
/// request re-emits the remembered result instead of re-executing,
/// whichever path (NIC, software fallback, post-migration local commit)
/// the retry lands on.
pub fn memamo<S: GasWorld>(eng: &mut Engine<S>, loc: LocalityId, gva: Gva, amo: AmoOp, ctx: OpId) {
    assert!(
        amo.bounds_ok(gva.offset(), gva.block_size()),
        "memamo touches words outside its block"
    );
    eng.state.gas(loc).stats.amos += 1;
    start(eng, loc, gva, Verb::amo(amo, (loc, 0)), ctx);
}

/// Submit a new op: record its history event, choose its path and arm the
/// sweep. An op bound for the wire while every send credit is in use
/// ([`POST_DEPTH`]) waits in the send queue unadmitted ([`SendEntry::waiting`]:
/// a get inline, a put or AMO boxed): no op-table slot, no span, no
/// deadline until [`post_queued`] admits it.
/// Any other op is admitted and takes its path now.
fn start<S: GasWorld>(eng: &mut Engine<S>, loc: LocalityId, gva: Gva, verb: Verb, ctx: OpId) {
    let now = eng.now();
    let hist = hist_issue(eng.state.gas(loc), loc, gva, &verb, now);
    let path = choose_path(eng, loc, gva, verb.kind(), false);
    arm_sweep(eng, loc);
    let g = eng.state.gas(loc);
    if matches!(path, Path::Rdma(..)) && g.posted >= POST_DEPTH {
        let entry = SendEntry::waiting(verb, gva, ctx, now, hist);
        g.send_queue.push_back(entry);
        return;
    }
    let op = admit(eng, loc, verb, gva, ctx, now, hist);
    take_path(eng, loc, op, gva, path);
}

/// Admit a submitted op to the op table: its record, with the submission
/// time `issued` and a deadline from now, its AMO key and its span.
fn admit<S: GasWorld>(
    eng: &mut Engine<S>,
    loc: LocalityId,
    verb: Verb,
    gva: Gva,
    ctx: OpId,
    issued: Time,
    hist: Option<u32>,
) -> OpId {
    let now = eng.now();
    let g = eng.state.gas(loc);
    let deadline = g.cfg.op_deadline.map(|d| now + d);
    let is_amo = verb.kind() == OpKind::Amo;
    let op = g
        .pending
        .insert(PendingOp::new(verb, gva, ctx, issued, deadline, hist));
    // An AMO's retry-stable responder-cache identity: the initiator plus
    // this *GAS-level* handle, which survives transport re-issue (photon
    // attempt ids do not) — known only now that the insert has minted it.
    if is_amo {
        if let Ok(PendingOp {
            verb: Verb::Amo { key_op, .. },
            ..
        }) = g.pending.get_mut(op)
        {
            *key_op = op.raw();
        }
    }
    open_span(eng, loc, op);
    op
}

/// Does this cluster translate in the NIC? Not over a fabric without a
/// table (`xlate_capacity: 0`, [`GasMode::net`]): PGAS and AGAS-SW.
pub(crate) fn nic_table<S: GasWorld>(world: &S) -> bool {
    world.cluster_ref().config.xlate_capacity > 0
}

/// Where an op goes next, as [`choose_path`] finds it.
#[derive(Clone, Copy)]
enum Path {
    /// Resident here at this base: commit locally.
    Local(PhysAddr),
    /// Co-located with this locality in its shared-memory domain.
    Shm(LocalityId, ShmDomain),
    /// Two-sided, to this locality's CPU.
    Sw(LocalityId),
    /// The software path's hint names the initiator, where the block is
    /// absent: stale by construction, so re-resolve.
    Stale,
    /// One-sided, toward this locality and target.
    Rdma(LocalityId, RdmaTarget),
}

/// Choose an op's path from what `loc` knows now, acting on nothing: the
/// BTT probe, the membership resolve, the owner-cache hint, shm reach and
/// whether the fabric translates, in that order.
fn choose_path<S: GasWorld>(
    eng: &mut Engine<S>,
    loc: LocalityId,
    gva: Gva,
    kind: OpKind,
    force_sw: bool,
) -> Path {
    let block = gva.block_key();
    // In every mode one BTT probe decides residency AND yields the base for
    // the local commit; the mode only picks the remote path.
    if let Some(base) = resident_base(eng, loc, block) {
        return Path::Local(base);
    }
    let home = gva.home();
    match eng.state.gas_mode() {
        GasMode::Pgas => {
            // A crashed home's blocks were re-issued at its take-over, at a
            // base no `PgasMap` entry names: only its CPU can place them.
            let member = &eng.state.gas_ref(loc).member;
            let crashed = member.is_crashed(home);
            let target_loc = if crashed {
                member.resolve(block, home)
            } else {
                home
            };
            if let Some(shm) = shm_reach(&eng.state, loc, target_loc) {
                // Co-located home: the access goes over shared memory and
                // the NIC never sees it.
                Path::Shm(target_loc, shm)
            } else if kind == OpKind::Amo || crashed {
                // PGAS NICs translate nothing, so there is no virtual
                // path for a remote AMO to ride; the home's CPU executes
                // it (the software handler resolves through its BTT), as
                // a take-over's does every op.
                Path::Sw(target_loc)
            } else {
                // The initiator's address table: where the home placed it.
                let base = *eng
                    .state
                    .pgas()
                    .get(&block)
                    .expect("PGAS op on unallocated block");
                Path::Rdma(home, RdmaTarget::Phys(base + gva.offset()))
            }
        }
        // AGAS, with or without a NIC table.
        _ => {
            let serving = eng.state.gas_ref(loc).member.resolve(block, home);
            let target_loc = hint_owner(eng, loc, block, serving);
            // The owner's CPU translates without a NIC table (AGAS-SW), and
            // for an op whose NIC-table misses degraded it to software.
            let sw = !nic_table(&eng.state) || force_sw;
            if let Some(shm) = shm_reach(&eng.state, loc, target_loc) {
                // Intra-domain short-circuit. Valid even under `force_sw`:
                // the shm path touches no NIC table, so capacity thrash
                // cannot bounce it.
                Path::Shm(target_loc, shm)
            } else if sw && target_loc == loc {
                Path::Stale
            } else if sw {
                Path::Sw(target_loc)
            } else {
                let offset = gva.offset();
                Path::Rdma(target_loc, RdmaTarget::Virt { block, offset })
            }
        }
    }
}

/// Send the admitted op `op` along `path`.
fn take_path<S: GasWorld>(eng: &mut Engine<S>, loc: LocalityId, op: OpId, gva: Gva, path: Path) {
    match path {
        Path::Local(base) => commit_local(eng, loc, op, base),
        Path::Shm(target_loc, shm) => issue_shm(eng, loc, op, gva, target_loc, shm),
        Path::Stale => bounce(eng, loc, op, gva.block_key(), false),
        Path::Sw(target_loc) => {
            eng.state.gas(loc).stats.remote_ops += 1;
            issue_sw(eng, loc, op, gva, target_loc);
        }
        Path::Rdma(target_loc, target) => issue_rdma(eng, loc, op, target_loc, target),
    }
}

/// Re-issue an admitted op: choose its path afresh and take it.
fn issue<S: GasWorld>(eng: &mut Engine<S>, loc: LocalityId, op: OpId) {
    let Ok(p) = eng.state.gas(loc).pending.get(op) else {
        return; // reclaimed (deadline sweep) between schedule and fire
    };
    let (gva, kind, force_sw) = (p.gva, p.verb.kind(), p.force_sw());
    let path = choose_path(eng, loc, gva, kind, force_sw);
    take_path(eng, loc, op, gva, path);
}

/// Issue the software (two-sided) remote access toward `target_loc`.
fn issue_sw<S: GasWorld>(
    eng: &mut Engine<S>,
    loc: LocalityId,
    op: OpId,
    gva: Gva,
    target_loc: LocalityId,
) {
    let (verb, released) = {
        let g = eng.state.gas(loc);
        let Ok(p) = g.pending.get_mut(op) else {
            return;
        };
        (p.verb.clone(), p.enter(OpPhase::Sw, &mut g.posted))
    };
    if released {
        post_queued(eng, loc);
    }
    let acc = Box::new(SwAccess {
        block: gva.block_key(),
        offset: gva.offset(),
        verb,
        ctx: op,
        reply_to: loc,
    });
    send_sw_access(eng, loc, target_loc, acc, FaultClass::Request);
}

/// Put a [`GasMsg::SwAccess`] on the wire. A put carries its data, a get
/// is control-sized, an AMO adds its operand words. The wire events hold
/// the request's own box, so sending allocates nothing.
pub(crate) fn send_sw_access<S: GasWorld>(
    eng: &mut Engine<S>,
    src: LocalityId,
    dst: LocalityId,
    acc: Box<SwAccess>,
    class: FaultClass,
) {
    let ctrl = eng.state.cluster_ref().config.ctrl_bytes;
    let wire = match &acc.verb {
        Verb::Put { data, .. } => data.len() as u32,
        Verb::Get { .. } => ctrl,
        Verb::Amo { amo, .. } => ctrl + 8 * amo.wire_words() as u32,
    };
    let open = |acc| S::wrap_gas(GasMsg::SwAccess(acc));
    send_held(eng, src, dst, wire, acc, open, class);
}

// ------------------------------------------------------- shm fast path

/// The shared-memory domain through which `loc` reaches `target_loc`, if
/// the two are distinct members of one.
fn shm_reach<S: GasWorld>(world: &S, loc: LocalityId, target_loc: LocalityId) -> Option<ShmDomain> {
    let shm = world.cluster_ref().config.shm?;
    (target_loc != loc && shm.same_domain(loc, target_loc)).then_some(shm)
}

/// Take the intra-domain shared-memory short-circuit to `target_loc`.
///
/// The access pays [`ShmDomain::access`] for the mapped load/store plus
/// copy, commits against the target's arena, and sends **zero wire
/// messages**. If the block migrated out from under the mapping, the op
/// falls back to ordinary directory recovery ([`bounce`]).
fn issue_shm<S: GasWorld>(
    eng: &mut Engine<S>,
    loc: LocalityId,
    op: OpId,
    gva: Gva,
    target_loc: LocalityId,
    shm: ShmDomain,
) {
    let (verb, released) = {
        let g = eng.state.gas(loc);
        let Ok(p) = g.pending.get_mut(op) else {
            return;
        };
        (p.verb.clone(), p.enter(OpPhase::Shm, &mut g.posted))
    };
    if released {
        post_queued(eng, loc);
    }
    let bytes = verb.touched_bytes();
    {
        let g = eng.state.gas(loc);
        g.stats.remote_ops += 1;
        g.stats.shm_ops += 1;
        g.stats.shm_bytes += bytes as u64;
    }
    let now = eng.now();
    eng.state.cluster().tracer.record(
        now,
        TraceKind::ShmOp {
            src: loc,
            dst: target_loc,
            bytes,
        },
    );
    // The commit runs on the target's lane (its arena, BTT, and responder
    // cache live there); the hop is a simulation artifact of shard
    // ownership, not a message. It either stays on one lane or crosses
    // a domain that straddles lanes, where the sharded engine's lookahead
    // is `load_store` <= `access()`: the hop respects the window.
    let at = now + shm.access(bytes);
    eng.schedule_at_loc(at, target_loc, move |eng| {
        shm_commit(eng, loc, target_loc, op, gva, verb, shm)
    });
}

/// Commit an intra-domain access at the co-located target's lane, then
/// deliver the completion back on the initiator's lane.
fn shm_commit<S: GasWorld>(
    eng: &mut Engine<S>,
    loc: LocalityId,
    target: LocalityId,
    op: OpId,
    gva: Gva,
    verb: Verb,
    shm: ShmDomain,
) {
    let block = gva.block_key();
    // Re-check residency at commit time: a migration or a free may have
    // raced the access.
    let base = resident_base(eng, target, block);
    let back = eng.now() + shm.load_store;
    let Some(base) = base else {
        // The mapping is stale (block migrated / freed): hop home and run
        // ordinary directory recovery.
        eng.schedule_at_loc(back, loc, move |eng| {
            if eng.state.gas(loc).pending.contains(op) {
                bounce(eng, loc, op, block, false);
            } else {
                eng.state.gas(loc).stats.stale_completions += 1;
            }
        });
        return;
    };
    let (size, offset) = (gva.block_size(), gva.offset());
    let applied = apply_resident(eng, target, block, base, size, offset, &verb)
        .expect("shm access outside its block");
    eng.schedule_at_loc(back, loc, move |eng| complete(eng, loc, op, applied));
}

/// Apply `verb` at `offset` within `block`, resident as `size` bytes at
/// `base` in `at`'s arena, through the one responder kernel
/// ([`netsim::Locality::apply`]) the NIC uses — so an AMO retried across
/// paths (NIC, software handler, shm, post-migration local commit) still
/// applies exactly once. Counts a responder-cache replay; `None` means the
/// access fell outside the block.
fn apply_resident<S: GasWorld>(
    eng: &mut Engine<S>,
    at: LocalityId,
    block: u64,
    base: PhysAddr,
    size: u64,
    offset: u64,
    verb: &Verb,
) -> Option<Applied<Vec<u8>>> {
    let l = eng.state.cluster().loc_mut(at);
    let applied = l.apply(block, base, size, offset, verb)?;
    if let Applied::Amo { replayed: true, .. } = applied {
        eng.state.gas(at).stats.amo_replays += 1;
    }
    Some(applied)
}

/// One BTT probe answering "resident here?" and, when yes, at what base —
/// so the issue path's residency check and the local commit share a single
/// probe sequence.
fn resident_base<S: GasWorld>(eng: &mut Engine<S>, loc: LocalityId, block: u64) -> Option<u64> {
    eng.state
        .gas(loc)
        .btt
        .lookup(block)
        .and_then(|e| (e.state == crate::BlockState::Resident).then_some(e.base))
}

/// Place `block` at `loc` as `class` bytes at `phys` under `generation`:
/// its BTT entry in every mode and, where the NIC keeps a table, the NIC
/// entry built from it (releasing any request the NIC parked on the
/// block). The one way a block becomes resident: allocation, a
/// migration's install and a crash re-issue all come here.
pub(crate) fn make_resident<S: GasWorld>(
    eng: &mut Engine<S>,
    loc: LocalityId,
    block: u64,
    phys: PhysAddr,
    class: u8,
    generation: u32,
) {
    let entry = eng
        .state
        .gas(loc)
        .btt
        .insert(block, phys, class, generation);
    if nic_table(&eng.state) {
        netsim::install_xlate(eng, loc, block, entry.xlate());
    }
}

fn hint_owner<S: GasWorld>(
    eng: &mut Engine<S>,
    loc: LocalityId,
    block: u64,
    home: LocalityId,
) -> LocalityId {
    eng.state
        .gas(loc)
        .cache
        .lookup(block)
        .map(|h| h.owner)
        .unwrap_or(home)
}

/// Issue the admitted op's one-sided access toward `target_loc`. Decide:
/// with every credit in use ([`POST_DEPTH`]) a re-issued op waits in its
/// locality's send queue, keeping its slot, until an answer frees one
/// ([`post_queued`]), and no deadline runs while it waits (`start` keeps a
/// fresh op out of the table instead). Post: otherwise (or if the op
/// already holds a credit) it takes a credit, its deadline starts if it
/// was queued, and photon
/// puts it on the wire: the target NIC translates (and, for an AMO,
/// executes in the same visit), and the completion or NACK/forward outcome
/// comes back like any PWC op.
fn issue_rdma<S: GasWorld>(
    eng: &mut Engine<S>,
    loc: LocalityId,
    op: OpId,
    target_loc: LocalityId,
    target: RdmaTarget,
) {
    let now = eng.now();
    let (mut verb, scratch) = {
        let g = eng.state.gas(loc);
        let Ok(p) = g.pending.get_mut(op) else {
            return;
        };
        if p.phase != OpPhase::Rdma && g.posted >= POST_DEPTH {
            p.phase = OpPhase::Queued;
            p.deadline = Time::MAX;
            g.send_queue.push_back(SendEntry::Retry(op));
            return;
        }
        if p.phase == OpPhase::Queued {
            p.deadline = g.cfg.op_deadline.map_or(Time::MAX, |d| now + d);
        }
        p.enter(OpPhase::Rdma, &mut g.posted);
        g.stats.remote_ops += 1;
        (p.verb.clone(), p.scratch())
    };
    // A get lands in a scratch buffer from the runtime's pre-registered
    // pool, allocated once and reused across retries.
    if let (Verb::Get { len, local }, None) = (&mut verb, scratch) {
        *local = eng
            .state
            .cluster()
            .mem_mut(loc)
            .alloc_block(scratch_class(*len))
            .expect("scratch allocation failed");
        if let Ok(p) = eng.state.gas(loc).pending.get_mut(op) {
            p.verb = verb.clone();
            p.set_scratch();
        }
    }
    pwc(eng, loc, target_loc, target, verb, op, None);
}

/// Post the send queue's oldest waiting ops while `loc` has credits free.
/// An unadmitted op is admitted first ([`admit`]). Each is issued afresh,
/// routed on what its locality knows now, so one that became local or
/// shm-reachable while it waited takes that path and leaves the credit to
/// the next. The queue drops a buffer sized for a burst once it empties.
/// Out of line and cold: it runs only while a burst outruns the credits.
#[cold]
#[inline(never)]
pub(crate) fn post_queued<S: GasWorld>(eng: &mut Engine<S>, loc: LocalityId) {
    loop {
        let g = eng.state.gas(loc);
        if g.posted >= POST_DEPTH {
            return;
        }
        let Some(entry) = g.send_queue.pop_front() else {
            return;
        };
        if g.send_queue.is_empty() && g.send_queue.capacity() > POST_DEPTH as usize {
            g.send_queue = VecDeque::new();
        }
        match entry.into_waiting() {
            Err(op) => {
                if g.pending.get(op).is_ok_and(|p| p.phase == OpPhase::Queued) {
                    issue(eng, loc, op);
                }
            }
            Ok(w) => {
                let op = admit(eng, loc, w.verb, w.gva, w.ctx, w.issued, w.hist);
                issue(eng, loc, op);
            }
        }
    }
}

/// Commit an operation against the block resident at `base` in `loc`'s
/// arena (the caller's own BTT probe, [`resident_base`], found it).
fn commit_local<S: GasWorld>(eng: &mut Engine<S>, loc: LocalityId, op: OpId, base: PhysAddr) {
    let (gva, len, per_byte) = {
        let g = eng.state.gas(loc);
        let Ok(p) = g.pending.get(op) else {
            return;
        };
        let len = p.verb.touched_bytes() as usize;
        (p.gva, len, g.cfg.copy_per_byte_ps)
    };
    let block = gva.block_key();
    let g = eng.state.gas(loc);
    g.stats.local_ops += 1;
    let delay = g.cfg.local_op + copy_time(per_byte, len);
    let Some((id, p)) = take(eng, loc, op) else {
        return;
    };
    // Perform the memory effect now (deterministic), deliver the callback
    // after the modeled local latency. An AMO's earlier attempt may already
    // have executed remotely (and its block since migrated here,
    // responder-cache entries riding along); the shared kernel consults the
    // cache before touching memory.
    let (size, offset) = (gva.block_size(), gva.offset());
    let applied = apply_resident(eng, loc, block, base, size, offset, &p.verb)
        .expect("local op out of bounds");
    let done = eng.now() + delay;
    let Some(ctx) = settle(eng, loc, id, p, &applied, done) else {
        return;
    };
    // One event per kind, each capturing only what its callback needs: a
    // put's fits the engine's inline event slot (`alloc_budget.rs` pins
    // what each allocates).
    match applied {
        Applied::Put => eng.schedule_at_loc(done, loc, move |eng| S::gas_put_done(eng, loc, ctx)),
        Applied::Get(data) => {
            eng.schedule_at_loc(done, loc, move |eng| S::gas_get_done(eng, loc, ctx, data))
        }
        Applied::Amo { result, .. } => {
            eng.schedule_at_loc(done, loc, move |eng| S::gas_amo_done(eng, loc, ctx, result))
        }
    }
}

/// A fast path bounced: invalidate the hint and re-resolve via the home.
/// An op that gives up on an RDMA attempt takes a fresh handle first, so a
/// late answer to that attempt (delayed or duplicated) drops as stale
/// instead of completing the re-issued op. `miss` says the bounce is a NIC
/// table's miss NACK: the third degrades the op to the software path. When
/// the retry budget runs out the op fails terminally with
/// [`OpError::RetriesExhausted`] instead of asserting.
fn bounce<S: GasWorld>(eng: &mut Engine<S>, loc: LocalityId, op: OpId, block: u64, miss: bool) {
    // Re-resolve through the *serving* home: a membership event (join
    // slice, drain hand-off, crash take-over) may have moved the block's
    // directory duty off its encoded home.
    let home = eng
        .state
        .gas_ref(loc)
        .member
        .resolve(block, Gva(block).home());
    let (give_up, attempts, rdma) = {
        let g = eng.state.gas(loc);
        let Ok(p) = g.pending.get_mut(op) else {
            return; // completed (or reclaimed) concurrently; nothing to retry
        };
        // Giving up a posted attempt returns its credit.
        let rdma = p.enter(OpPhase::DirRecovery, &mut g.posted);
        p.attempts = p.attempts.saturating_add(1);
        let saturated = p.attempts == u16::MAX;
        let attempts = u32::from(p.attempts);
        let mut sw_fallback = false;
        if miss && !p.force_sw() && p.note_miss() >= 3 {
            // Persistent NIC-table misses (capacity thrash): degrade to the
            // software path, which cannot miss at the true owner. A lost
            // message or a stale hint says nothing about the table.
            p.set_force_sw();
            sw_fallback = true;
        }
        g.stats.retries += 1;
        g.cache.invalidate(block);
        g.stats.dir_queries += 1;
        if sw_fallback {
            g.stats.sw_fallbacks += 1;
        }
        let give_up = attempts > g.cfg.max_attempts || saturated;
        (give_up, attempts, rdma)
    };
    if rdma {
        post_queued(eng, loc);
    }
    if give_up {
        let Some((id, p)) = take(eng, loc, op) else {
            return;
        };
        fail_op(eng, loc, id, p, OpError::RetriesExhausted { id, attempts });
        return;
    }
    let op = if rdma {
        eng.state.gas(loc).pending.renew(op).expect("live op")
    } else {
        op
    };
    let ctrl = eng.state.cluster_ref().config.ctrl_bytes;
    send_user_classed(
        eng,
        loc,
        home,
        ctrl,
        S::wrap_gas(GasMsg::DirQuery {
            block,
            ctx: op,
            reply_to: loc,
        }),
        FaultClass::Request,
    );
}

// ------------------------------------------------------------ deadline sweep

/// Arm the per-locality deadline sweep if deadlines are configured and it is
/// not already running. Called on every op issue; the sweep keeps
/// re-scheduling itself while ops remain in flight and disarms when the
/// table drains, so an idle locality schedules nothing.
pub(crate) fn arm_sweep<S: GasWorld>(eng: &mut Engine<S>, loc: LocalityId) {
    let g = eng.state.gas(loc);
    if g.sweep_armed || g.cfg.op_deadline.is_none() {
        return;
    }
    g.sweep_armed = true;
    let interval = g.cfg.sweep_interval;
    let at = eng.now() + interval;
    eng.schedule_at_loc(at, loc, move |eng| sweep(eng, loc));
}

/// Recover or fail every in-flight op whose deadline has passed
/// ([`crate::GasConfig::op_deadline`]). An expired op that still has bounce
/// budget is presumed to have *lost* a message (the fault plane dropped a
/// request or completion) rather than merely being slow: it is re-resolved
/// through the home directory, and its deadline is refreshed so the next
/// sweep leaves the retry alone. An op whose budget is spent fails with a
/// deterministic [`OpError::DeadlineExceeded`]. A lost completion thus
/// becomes a retry or a typed failure, never a hang.
fn sweep<S: GasWorld>(eng: &mut Engine<S>, loc: LocalityId) {
    let now = eng.now();
    let cfg = eng.state.gas(loc).cfg;
    let extension = cfg
        .op_deadline
        .expect("sweep runs only with deadlines configured");
    let candidates: Vec<(OpId, u64)> = eng
        .state
        .gas(loc)
        .pending
        .iter()
        .filter(|(_, p)| p.deadline <= now && u32::from(p.attempts) < cfg.max_attempts)
        .map(|(id, p)| (id, p.gva.block_key()))
        .collect();
    for (id, block) in candidates {
        let already_scheduled = {
            let g = eng.state.gas(loc);
            let Ok(p) = g.pending.get_mut(id) else {
                continue;
            };
            p.deadline = now + extension;
            // A Backoff-phase op already has its re-issue scheduled;
            // extending the deadline is the whole recovery.
            p.phase == OpPhase::Backoff
        };
        if !already_scheduled {
            eng.state.gas(loc).stats.deadline_retries += 1;
            bounce(eng, loc, id, block, false);
        }
    }
    // Remove every expired op before a failure callback can issue a new
    // one into a freed slot.
    let expired: Vec<OpId> = eng
        .state
        .gas(loc)
        .pending
        .iter()
        .filter(|(_, p)| p.deadline <= now)
        .map(|(op, _)| op)
        .collect();
    let expired: Vec<_> = expired
        .into_iter()
        .filter_map(|op| take(eng, loc, op))
        .collect();
    for (id, p) in expired {
        let age = now.saturating_sub(p.issued);
        let attempts = u32::from(p.attempts);
        fail_op(
            eng,
            loc,
            id,
            p,
            OpError::DeadlineExceeded { id, age, attempts },
        );
    }
    let g = eng.state.gas(loc);
    if g.pending.is_empty() {
        g.sweep_armed = false;
    } else {
        let interval = g.cfg.sweep_interval;
        eng.schedule(interval, move |eng| sweep(eng, loc));
    }
}

// ---------------------------------------------------------------- PWC glue

/// Route a [`photon::PhotonWorld::pwc_complete`] callback here. A bare
/// completion answers a put, or a get whose bytes have landed in its
/// scratch buffer; for any other op it is an answer of the wrong kind, and
/// `settle` fails the op. A stale or unknown handle (the op was reclaimed
/// by the deadline sweep, or the message is a duplicate) is counted and
/// dropped.
pub fn on_pwc_complete<S: GasWorld>(eng: &mut Engine<S>, loc: LocalityId, ctx: OpId) {
    let landed = match eng.state.gas(loc).pending.get(ctx) {
        Ok(p) => match (&p.verb, p.scratch()) {
            (&Verb::Get { len, .. }, Some((addr, _))) => Some((addr, len)),
            _ => None,
        },
        Err(_) => None,
    };
    let answer = match landed {
        Some((addr, len)) => {
            let mem = eng.state.cluster().mem(loc);
            Applied::Get(
                mem.read(addr, len as usize)
                    .expect("scratch vanished")
                    .to_vec(),
            )
        }
        None => Applied::Put,
    };
    complete(eng, loc, ctx, answer);
}

/// Route a [`photon::PhotonWorld::pwc_redirected`] callback here: the op's
/// request reached its block only through a NIC forward, and the completion
/// names the committing locality and its translation generation. Folding
/// that into the owner cache makes the forward a one-time path compression
/// — the next access to the block goes direct, with no NACK and no
/// directory round trip. Newest-generation-wins in [`OwnerCache::update`]
/// orders the hint against a late `DirReply`.
///
/// [`OwnerCache::update`]: crate::OwnerCache::update
pub fn on_pwc_redirected<S: GasWorld>(
    eng: &mut Engine<S>,
    loc: LocalityId,
    ctx: OpId,
    owner: LocalityId,
    generation: u32,
) {
    let g = eng.state.gas(loc);
    // An ack that left `owner` just before it crashed must not re-plant
    // the hint the crash notice purged (free when membership is inert).
    if g.member.is_crashed(owner) {
        return;
    }
    // A stale handle has no block to learn about; the completion callback
    // that follows counts it.
    if let Ok(p) = g.pending.get(ctx) {
        let block = p.gva.block_key();
        g.cache.update(block, OwnerHint { owner, generation });
        g.stats.hints_learned += 1;
    }
}

/// Route a [`photon::PhotonWorld::pwc_amo_complete`] callback here: the
/// target NIC executed (or replayed) the op and its result came back on
/// the completion path.
pub fn on_pwc_amo_complete<S: GasWorld>(
    eng: &mut Engine<S>,
    loc: LocalityId,
    ctx: OpId,
    result: AmoResult,
) {
    let answer = Applied::Amo {
        result,
        replayed: false,
    };
    complete(eng, loc, ctx, answer);
}

/// Route a [`photon::PhotonWorld::xlate_miss_local`] callback here: the
/// local NIC missed its table for an incoming one-sided operation. If the
/// block is in fact resident (the entry was evicted under capacity
/// pressure), software reinstalls it — the hardware analogue of a TLB miss
/// handler. The bounced initiator's retry then hits, and a forwarded
/// request the NIC parked on the miss is released by the install.
pub fn on_xlate_miss<S: GasWorld>(eng: &mut Engine<S>, loc: LocalityId, block: u64) {
    if !nic_table(&eng.state) {
        return;
    }
    // One probe: the copied entry answers both "owned here?" and
    // "resident?" (mid-migration blocks defer to the forwarding tombstone).
    let Some(entry) = eng.state.gas(loc).btt.lookup(block).copied() else {
        return; // genuinely absent (migrated away / freed): nothing to do
    };
    if entry.state != crate::BlockState::Resident {
        return; // mid-migration: the forwarding tombstone is authoritative
    }
    // Reinstalling is a software interrupt: charge the CPU briefly.
    let service = eng.state.gas(loc).cfg.dir_lookup;
    let now = eng.now();
    let (_, finish) = eng.state.cpu(loc).admit(now, service);
    eng.state.cluster().loc_mut(loc).counters.cpu_busy += service;
    eng.schedule_at(finish, move |eng| {
        // Re-check: the block may have started moving while queued.
        if !eng.state.gas(loc).btt.is_resident(block) {
            return;
        }
        netsim::install_xlate(eng, loc, block, entry.xlate());
    });
}

/// Route a [`photon::PhotonWorld::pwc_failed`] callback here.
pub fn on_pwc_failed<S: GasWorld>(
    eng: &mut Engine<S>,
    loc: LocalityId,
    ctx: OpId,
    _kind: OpKind,
    reason: NackReason,
    block: u64,
) {
    let g = eng.state.gas(loc);
    if !g.pending.contains(ctx) {
        g.stats.stale_completions += 1;
        return;
    }
    match reason {
        NackReason::Miss => g.stats.nacked_miss += 1,
        NackReason::TtlExceeded => g.stats.nacked_ttl += 1,
        NackReason::Bounds => g.stats.nacked_bounds += 1,
    }
    bounce(eng, loc, ctx, block, reason == NackReason::Miss);
}

// ---------------------------------------------------------------- handlers

/// Handle a [`GasMsg`] delivered to `at` from `from`. The world's
/// [`netsim::Protocol::deliver`] routes GAS-decoding `User` packets here.
pub fn handle_msg<S: GasWorld>(eng: &mut Engine<S>, from: LocalityId, at: LocalityId, msg: GasMsg) {
    // A crashed locality is dead silicon: it neither serves nor consumes
    // protocol traffic. The fault plane already blackholes its links, but
    // Bypass-class messages (migration control, shm doorbells) dodge the
    // plane by design — discard them here. Inert membership views make
    // both checks free no-ops.
    {
        let member = &eng.state.gas_ref(at).member;
        if member.is_crashed(at) || member.is_crashed(from) {
            return;
        }
    }
    match msg {
        GasMsg::SwAccess(acc) => handle_sw_access(eng, at, acc),
        GasMsg::SwReply { ctx, answer } => complete(eng, at, ctx, answer),
        GasMsg::SwRetry { ctx, block } => {
            if !eng.state.gas(at).pending.contains(ctx) {
                eng.state.gas(at).stats.stale_completions += 1;
                return;
            }
            bounce(eng, at, ctx, block, false);
        }
        GasMsg::DirQuery {
            block,
            ctx,
            reply_to,
        } => {
            // Directory lookups are software: they occupy the home's CPU.
            crate::migrate::at_home(eng, at, move |eng| {
                // A record that moved (membership) answers SwRetry, so the
                // initiator re-resolves through its (by then updated) view,
                // bounded by its attempts budget.
                let rec = eng.state.gas(at).dir_record(block);
                let ctrl = eng.state.cluster_ref().config.ctrl_bytes;
                let reply = match rec {
                    Some(rec) => GasMsg::DirReply {
                        block,
                        owner: rec.owner,
                        generation: rec.generation,
                        ctx,
                    },
                    None => GasMsg::SwRetry { ctx, block },
                };
                send_user_classed(
                    eng,
                    at,
                    reply_to,
                    ctrl,
                    S::wrap_gas(reply),
                    FaultClass::Completion,
                );
            });
        }
        GasMsg::DirReply {
            block,
            owner,
            generation,
            ctx,
        } => {
            let g = eng.state.gas(at);
            g.cache.update(block, OwnerHint { owner, generation });
            let (backoff, released) = match g.pending.get_mut(ctx) {
                Ok(p) => {
                    // A duplicated reply can find the op re-posted: it
                    // gives that attempt's credit back.
                    let released = p.enter(OpPhase::Backoff, &mut g.posted);
                    // Exponential back-off (capped): doubles per attempt so
                    // a contended block cannot livelock its initiators.
                    let shift = p.attempts.saturating_sub(1).min(12);
                    (Some(g.cfg.retry_backoff * (1u64 << shift)), released)
                }
                Err(_) => (None, false),
            };
            if released {
                post_queued(eng, at);
            }
            if let Some(backoff) = backoff {
                eng.schedule(backoff, move |eng| {
                    if eng.state.gas(at).pending.contains(ctx) {
                        issue(eng, at, ctx);
                    }
                });
            }
        }
        GasMsg::DirUpdate {
            block,
            owner,
            generation,
            reply_to,
        } => {
            crate::migrate::at_home(eng, at, move |eng| {
                let g = eng.state.gas(at);
                if g.member.is_enabled() && g.dir.lookup_opt(block).is_none() {
                    // The record isn't homed here (any more / yet). If the
                    // view points elsewhere, forward the update along the
                    // serving chain; otherwise adopt the record — a commit
                    // racing a hand-off lands on the new home before the
                    // DirHandoff batch does.
                    let serving = g.member.resolve(block, Gva(block).home());
                    let ctrl = eng.state.cluster_ref().config.ctrl_bytes;
                    if serving != at {
                        crate::migrate::send_ctrl(
                            eng,
                            at,
                            serving,
                            ctrl,
                            GasMsg::DirUpdate {
                                block,
                                owner,
                                generation,
                                reply_to,
                            },
                        );
                        return;
                    }
                    eng.state
                        .gas(at)
                        .dir
                        .install(block, crate::OwnerRec { owner, generation });
                    crate::migrate::send_ctrl(
                        eng,
                        at,
                        reply_to,
                        ctrl,
                        GasMsg::DirUpdateAck { block },
                    );
                    return;
                }
                eng.state
                    .gas(at)
                    .dir
                    .update(block, crate::OwnerRec { owner, generation });
                let ctrl = eng.state.cluster_ref().config.ctrl_bytes;
                crate::migrate::send_ctrl(eng, at, reply_to, ctrl, GasMsg::DirUpdateAck { block });
            });
        }
        GasMsg::DirUpdateAck { block } => crate::migrate::on_dir_update_ack(eng, at, block),
        GasMsg::OwnerRequest(req) => crate::migrate::on_owner_request(eng, at, req),
        GasMsg::MigData {
            block,
            class,
            generation,
            data,
            amo_log,
            src,
            ctx,
            reply_to,
        } => crate::migrate::on_mig_data(
            eng, at, block, class, generation, data, amo_log, src, ctx, reply_to,
        ),
        GasMsg::MigAck { block } => crate::migrate::on_mig_ack(eng, at, block),
        GasMsg::MigDone { ctx, block } => {
            let g = eng.state.gas(at);
            g.stats.migrations_done += 1;
            if g.cfg.record_history {
                // Context for history reports: when this block last moved
                // (migration preserves contents, so it carries no value).
                let now = eng.now();
                let g = eng.state.gas(at);
                g.history.push(HistEvent {
                    kind: HistKind::Migrate,
                    block,
                    offset: 0,
                    len: 0,
                    value: 0,
                    issued: now,
                    done: Some(now),
                    ok: true,
                    loc: at,
                });
            }
            // Drain-evacuation completions carry the membership sentinel
            // handle and finish inside the plane — no user callback.
            if ctx == crate::membership::evac_ctx(block)
                && eng.state.gas(at).member.evac.remove(&block)
            {
                return;
            }
            S::gas_migrate_done(eng, at, ctx, block);
        }
        GasMsg::DirUnregister {
            block,
            ctx,
            reply_to,
        } => crate::migrate::on_dir_unregister(eng, at, block, ctx, reply_to),
        GasMsg::FreeDone { ctx, block } => S::gas_free_done(eng, at, ctx, block),
        GasMsg::Member { update } => crate::membership::on_member_update(eng, at, update),
        GasMsg::DirHandoff { records } => crate::membership::on_dir_handoff(eng, at, records),
    }
}

/// Software-AGAS remote access at the (believed) owner: queue if the block
/// is mid-migration, otherwise charge the CPU and run the handler.
fn handle_sw_access<S: GasWorld>(eng: &mut Engine<S>, at: LocalityId, acc: Box<SwAccess>) {
    let (block, data_len) = (acc.block, acc.verb.touched_bytes() as usize);
    // Mid-migration: park the access; it is re-sent to the new owner on
    // MigAck (the initiator never notices).
    if let Some(ms) = eng.state.gas(at).moving.get_mut(&block) {
        ms.queued.push(acc);
        return;
    }
    let (service, per_byte) = {
        let g = eng.state.gas(at);
        (g.cfg.sw_handler, g.cfg.copy_per_byte_ps)
    };
    let service = service + copy_time(per_byte, data_len);
    let g = eng.state.gas(at);
    g.note_heat(block);
    // Host-cache hint for `run_sw_access`, which resolves the block the
    // same way once the handler has sat in the CPU queue.
    if let Some(base) = g.btt.peek(block).map(|e| e.base) {
        let addr = base.saturating_add(acc.offset);
        eng.state.cluster_ref().mem(at).prefetch(addr, data_len);
    }
    let now = eng.now();
    let (_, finish) = eng.state.cpu(at).admit(now, service);
    {
        let l = eng.state.cluster().loc_mut(at);
        l.counters.cpu_busy += service;
        l.counters.sw_handler_runs += 1;
    }
    eng.schedule_at(finish, move |eng| run_sw_access(eng, at, acc));
}

fn run_sw_access<S: GasWorld>(eng: &mut Engine<S>, at: LocalityId, acc: Box<SwAccess>) {
    let SwAccess {
        block,
        offset,
        ref verb,
        ctx,
        reply_to,
    } = *acc;
    // Re-check residency at execution time: a migration may have started
    // while the handler sat in the CPU queue.
    if let Some(ms) = eng.state.gas(at).moving.get_mut(&block) {
        ms.queued.push(acc);
        return;
    }
    // Resolve storage through the BTT, the placement record in every mode
    // (a PGAS home holds its blocks there too); a block not here answers
    // `SwRetry`.
    let resolved = eng
        .state
        .gas(at)
        .btt
        .lookup(block)
        .map(|e| (e.base, 1u64 << e.class));
    let ctrl = eng.state.cluster_ref().config.ctrl_bytes;
    let (reply, wire) = match resolved {
        None => (GasMsg::SwRetry { ctx, block }, ctrl),
        Some((base, size)) => {
            let Some(applied) = apply_resident(eng, at, block, base, size, offset, verb) else {
                // Out-of-bounds software access: reject it as a protocol
                // violation rather than corrupting the arena.
                eng.state.gas(at).stats.protocol_violations += 1;
                return;
            };
            let stats = &mut eng.state.gas(at).stats;
            let wire = match &applied {
                Applied::Put => {
                    stats.sw_puts_handled += 1;
                    // The ack is its `OpId`: the events hold that by value,
                    // not a boxed message.
                    let open = |ctx| {
                        S::wrap_gas(GasMsg::SwReply {
                            ctx,
                            answer: Applied::Put,
                        })
                    };
                    send_held(eng, at, reply_to, ctrl, ctx, open, FaultClass::Completion);
                    return;
                }
                Applied::Get(data) => {
                    stats.sw_gets_handled += 1;
                    data.len() as u32
                }
                Applied::Amo { .. } => {
                    stats.sw_amos_handled += 1;
                    ctrl
                }
            };
            (
                GasMsg::SwReply {
                    ctx,
                    answer: applied,
                },
                wire,
            )
        }
    };
    send_user_classed(
        eng,
        at,
        reply_to,
        wire,
        S::wrap_gas(reply),
        FaultClass::Completion,
    );
}

// ---------------------------------------------------------------- routing & pinning

/// Where a parcel targeting `gva` should go, as seen from `loc`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// The block is resident here: execute locally against this physical
    /// base (block base, not offset-adjusted).
    Local {
        /// Physical base of the block.
        base: PhysAddr,
        /// Size class.
        class: u8,
    },
    /// Send/forward toward this locality.
    Forward(LocalityId),
}

/// Resolve the parcel route for `gva` at `loc`. Message-driven runtimes
/// *forward* parcels toward data rather than keeping initiator state: a
/// stale step costs an extra hop, never a lost parcel.
pub fn route<S: GasWorld>(world: &mut S, loc: LocalityId, gva: Gva) -> Route {
    let block = gva.block_key();
    let home = gva.home();
    let pgas = world.gas_mode() == GasMode::Pgas;
    let g = world.gas(loc);
    // Membership may have re-homed the block's directory record (join
    // slice, drain hand-off, crash takeover).
    let serving = g.member.resolve(block, home);
    if let Some(e) = g.btt.lookup(block) {
        match e.state {
            crate::BlockState::Resident => Route::Local {
                base: e.base,
                class: e.class,
            },
            crate::BlockState::Moving => {
                let dst = g.moving.get(&block).map(|m| m.dst).unwrap_or(serving);
                Route::Forward(dst)
            }
        }
    } else if pgas {
        // Static placement: the data stays at its encoded home whoever
        // serves the block's directory record, unless that home crashed
        // and its take-over re-issued the block.
        if g.member.is_crashed(home) {
            Route::Forward(serving)
        } else {
            Route::Forward(home)
        }
    } else if serving == loc {
        // We are the authority: route to the directory's owner.
        match g.dir.lookup_opt(block) {
            Some(rec) => Route::Forward(rec.owner),
            // Record still in flight to us (hand-off racing the access):
            // fall back to the encoded home, whose own view will re-forward
            // as it catches up.
            None => Route::Forward(home),
        }
    } else if let Some(h) = g.cache.lookup(block) {
        Route::Forward(h.owner)
    } else {
        Route::Forward(serving)
    }
}

/// Pin `gva`'s block for a local handler. Returns the physical base and
/// class, or `None` if the block is not executable here (caller re-routes).
pub fn pin<S: GasWorld>(world: &mut S, loc: LocalityId, gva: Gva) -> Option<(PhysAddr, u8)> {
    let e = world.gas(loc).btt.pin(gva.block_key())?;
    Some((e.base, e.class))
}

/// Release a pin taken with [`pin`]; may start a deferred migration or
/// free.
pub fn unpin<S: GasWorld>(eng: &mut Engine<S>, loc: LocalityId, gva: Gva) {
    let block = gva.block_key();
    let pins = eng.state.gas(loc).btt.unpin(block);
    if pins == 0 {
        crate::migrate::retry_deferred(eng, loc, block);
    }
}
