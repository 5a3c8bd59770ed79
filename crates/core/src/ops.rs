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
//!   and issues plain RDMA. No translation state anywhere; no mobility.
//! * **AGAS-SW** — the initiator sends a two-sided [`GasMsg::SwAccess`]
//!   parcel; the owner's **CPU** translates through its BTT, performs the
//!   copy, and replies. Every byte of remote access consumes target cores.
//! * **AGAS-NET** — the initiator issues RDMA on the *virtual* block key;
//!   the owner's **NIC** translates. The target CPU is never involved; a
//!   stale target answers with a NACK (or NIC-forwards), and the initiator
//!   re-resolves through the home and retries.
//!
//! In-flight operations live in the initiator's generational
//! [`netsim::OpTable`]: wire messages carry the typed [`OpId`] handle, and a
//! completion naming an unknown or stale handle is counted
//! (`stale_completions`) and dropped instead of panicking. Each entry
//! carries its issue time, attempt count, and optional deadline; the
//! per-locality sweep ([`GasConfig::op_deadline`]) turns a lost completion
//! into a deterministic [`OpError::DeadlineExceeded`] delivered through
//! [`GasWorld::gas_op_failed`].
//!
//! [`GasConfig::op_deadline`]: crate::GasConfig::op_deadline

use crate::check::{value_hash, WordEvent, WordOp};
use crate::gva::Gva;
use crate::{
    GasMode, GasMsg, GasWorld, HistEvent, HistKind, OpPhase, OwnerHint, PendingOp, SwAccess,
};
use netsim::{
    send_held, send_user_classed, AmoOp, AmoResult, Applied, Engine, FaultClass, LocalityId,
    NackReason, OpError, OpId, OpKind, OpOutcome, PhysAddr, RdmaTarget, ShmDomain, Time, TraceKind,
    Verb,
};
use photon::pwc;

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

/// Append the issue-side history event for an op (history recording on).
fn hist_issue(
    g: &mut crate::GasLocal,
    loc: LocalityId,
    kind: HistKind,
    gva: Gva,
    len: u32,
    value: u64,
    now: Time,
) -> Option<u32> {
    if !g.cfg.record_history {
        return None;
    }
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

fn scratch_class(len: u32) -> u8 {
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

/// Record a successful outcome and close the span.
fn finish_ok<S: GasWorld>(eng: &mut Engine<S>, loc: LocalityId, op: OpId) {
    eng.state.gas(loc).outcomes.record(OpOutcome::Completed);
    close_span(eng, loc, op, true);
}

/// Terminally fail a removed op: release its scratch, count it, close its
/// span, and deliver the typed error to the initiator.
fn fail_op<S: GasWorld>(
    eng: &mut Engine<S>,
    loc: LocalityId,
    id: OpId,
    p: PendingOp,
    err: OpError,
    outcome: OpOutcome,
) {
    log_amo_failure(eng, loc, &p);
    free_scratch(eng, loc, &p);
    let g = eng.state.gas(loc);
    g.stats.ops_failed += 1;
    g.outcomes.record(outcome);
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
    let now = eng.now();
    let g = eng.state.gas(loc);
    g.stats.puts += 1;
    let deadline = g.cfg.op_deadline.map(|d| now + d);
    let vhash = if g.cfg.record_history {
        value_hash(&data)
    } else {
        0
    };
    let hist = hist_issue(g, loc, HistKind::Put, gva, data.len() as u32, vhash, now);
    let op = g.pending.insert(PendingOp {
        verb: Verb::Put {
            data: data.into(),
            remote_tag: None,
        },
        scratch: None,
        gva,
        ctx,
        attempts: 0,
        issued: now,
        deadline,
        phase: OpPhase::Issued,
        force_sw: false,
        attempt: None,
        hist,
    });
    open_span(eng, loc, op);
    arm_sweep(eng, loc);
    issue(eng, loc, op);
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
    let now = eng.now();
    let g = eng.state.gas(loc);
    g.stats.gets += 1;
    let deadline = g.cfg.op_deadline.map(|d| now + d);
    let hist = hist_issue(g, loc, HistKind::Get, gva, len, 0, now);
    let op = g.pending.insert(PendingOp {
        // `local` names the scratch landing buffer once an RDMA attempt
        // has allocated one.
        verb: Verb::Get { len, local: 0 },
        scratch: None,
        gva,
        ctx,
        attempts: 0,
        issued: now,
        deadline,
        phase: OpPhase::Issued,
        force_sw: false,
        attempt: None,
        hist,
    });
    open_span(eng, loc, op);
    arm_sweep(eng, loc);
    issue(eng, loc, op);
}

/// Vectored [`memput`]: issue every `(gva, data, ctx)` write at the same
/// instant. Each element completes (or fails) independently through
/// [`GasWorld::gas_put_done`] / [`GasWorld::gas_op_failed`]. Same-instant
/// issue is what the photon descriptor rings batch on: a vectored put whose
/// elements share a responder packs into one submission batch and rides a
/// single doorbell instead of one per element.
pub fn put_many<S: GasWorld>(
    eng: &mut Engine<S>,
    loc: LocalityId,
    puts: Vec<(Gva, Vec<u8>, OpId)>,
) {
    for (gva, data, ctx) in puts {
        memput(eng, loc, gva, data, ctx);
    }
}

/// Vectored [`memget`]: issue every `(gva, len, ctx)` read at the same
/// instant. Each element completes independently through
/// [`GasWorld::gas_get_done`]; with descriptor rings enabled, same-peer
/// elements share one doorbell (see [`put_many`]).
pub fn get_many<S: GasWorld>(eng: &mut Engine<S>, loc: LocalityId, gets: Vec<(Gva, u32, OpId)>) {
    for (gva, len, ctx) in gets {
        memget(eng, loc, gva, len, ctx);
    }
}

/// Execute `amo` atomically against the word(s) at `gva`. Completion
/// (with the observed/old values) arrives via [`GasWorld::gas_amo_done`]
/// with `ctx`; terminal failure via [`GasWorld::gas_op_failed`].
///
/// Under [`GasMode::AgasNetwork`] the operation executes **at the target
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
    let now = eng.now();
    let g = eng.state.gas(loc);
    g.stats.amos += 1;
    let deadline = g.cfg.op_deadline.map(|d| now + d);
    let op = g.pending.insert(PendingOp {
        verb: Verb::Amo { amo, key: (loc, 0) },
        scratch: None,
        gva,
        ctx,
        attempts: 0,
        issued: now,
        deadline,
        phase: OpPhase::Issued,
        force_sw: false,
        attempt: None,
        // AMO words are checked by the word-level oracle, not the
        // byte-fingerprint history (workloads keep the slots disjoint).
        hist: None,
    });
    // The retry-stable responder-cache identity: the initiator plus this
    // *GAS-level* handle, which survives transport re-issue (photon attempt
    // ids do not) — known only now that the insert has minted it.
    if let Ok(PendingOp {
        verb: Verb::Amo { key, .. },
        ..
    }) = g.pending.get_mut(op)
    {
        *key = (loc, op.raw());
    }
    open_span(eng, loc, op);
    arm_sweep(eng, loc);
    issue(eng, loc, op);
}

/// (Re-)issue a pending operation along the active mode's fast path.
fn issue<S: GasWorld>(eng: &mut Engine<S>, loc: LocalityId, op: OpId) {
    let mode = eng.state.gas_mode();
    let (gva, kind, force_sw) = {
        let g = eng.state.gas(loc);
        let Ok(p) = g.pending.get(op) else {
            return; // reclaimed (deadline sweep) between schedule and fire
        };
        (p.gva, p.verb.kind(), p.force_sw)
    };
    let block = gva.block_key();
    let home = gva.home();

    match mode {
        GasMode::Pgas => {
            if home == loc {
                commit_local(eng, loc, op, None);
            } else if try_shm(eng, loc, op, gva, home) {
                // Co-located home: the access went over shared memory and
                // the NIC never saw it.
            } else if kind == OpKind::Amo {
                // PGAS NICs translate nothing, so there is no virtual
                // path for a remote AMO to ride; the home's CPU executes
                // it (the software handler resolves through the
                // replicated placement map).
                eng.state.gas(loc).stats.remote_ops += 1;
                issue_sw(eng, loc, op, gva, home);
            } else {
                let base = *eng
                    .state
                    .pgas()
                    .get(&block)
                    .expect("PGAS op on unallocated block");
                let target = RdmaTarget::Phys(base + gva.offset());
                eng.state.gas(loc).stats.remote_ops += 1;
                issue_rdma(eng, loc, op, home, target);
            }
        }
        GasMode::AgasNetwork => {
            // One BTT probe decides residency AND yields the base for the
            // local commit (no second probe inside `commit_local`).
            if let Some(base) = resident_base(eng, loc, block) {
                commit_local(eng, loc, op, Some(base));
            } else {
                let serving = eng.state.gas_ref(loc).member.resolve(block, home);
                let target_loc = hint_owner(eng, loc, block, serving);
                if try_shm(eng, loc, op, gva, target_loc) {
                    // Intra-domain short-circuit. Valid even under
                    // `force_sw`: the shm path touches no NIC table, so
                    // capacity thrash cannot bounce it.
                } else if force_sw {
                    if target_loc == loc {
                        bounce(eng, loc, op, block);
                        return;
                    }
                    eng.state.gas(loc).stats.remote_ops += 1;
                    issue_sw(eng, loc, op, gva, target_loc);
                } else {
                    let target = RdmaTarget::Virt {
                        block,
                        offset: gva.offset(),
                    };
                    eng.state.gas(loc).stats.remote_ops += 1;
                    issue_rdma(eng, loc, op, target_loc, target);
                }
            }
        }
        GasMode::AgasSoftware => {
            if let Some(base) = resident_base(eng, loc, block) {
                commit_local(eng, loc, op, Some(base));
            } else {
                let serving = eng.state.gas_ref(loc).member.resolve(block, home);
                let target_loc = hint_owner(eng, loc, block, serving);
                if target_loc == loc {
                    // A hint naming ourselves while the block is absent is
                    // stale by construction; re-resolve.
                    bounce(eng, loc, op, block);
                    return;
                }
                if try_shm(eng, loc, op, gva, target_loc) {
                    return;
                }
                eng.state.gas(loc).stats.remote_ops += 1;
                issue_sw(eng, loc, op, gva, target_loc);
            }
        }
    }
}

/// Issue the software (two-sided) remote access toward `target_loc`.
fn issue_sw<S: GasWorld>(
    eng: &mut Engine<S>,
    loc: LocalityId,
    op: OpId,
    gva: Gva,
    target_loc: LocalityId,
) {
    let verb = {
        let g = eng.state.gas(loc);
        let Ok(p) = g.pending.get_mut(op) else {
            return;
        };
        p.phase = OpPhase::Sw;
        p.attempt = None; // any earlier photon attempt is superseded
        p.verb.clone()
    };
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

/// Try the intra-domain shared-memory short-circuit for a remote op
/// believed to live at `target_loc`. Returns `true` when the op took the
/// shm path (or was reclaimed concurrently); `false` means the caller
/// issues over the fabric as usual.
///
/// The access pays [`ShmDomain::access`] for the mapped load/store plus
/// copy, commits against the target's arena, and sends **zero wire
/// messages**. If the block migrated out from under the mapping, the op
/// falls back to ordinary directory recovery ([`bounce`]).
fn try_shm<S: GasWorld>(
    eng: &mut Engine<S>,
    loc: LocalityId,
    op: OpId,
    gva: Gva,
    target_loc: LocalityId,
) -> bool {
    let Some(shm) = eng.state.cluster_ref().config.shm else {
        return false;
    };
    if target_loc == loc || !shm.same_domain(loc, target_loc) {
        return false;
    }
    let verb = {
        let g = eng.state.gas(loc);
        let Ok(p) = g.pending.get_mut(op) else {
            return true; // reclaimed (deadline sweep); nothing to issue
        };
        p.phase = OpPhase::Shm;
        p.attempt = None; // any earlier photon attempt is superseded
        p.verb.clone()
    };
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
    true
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
    // Re-check residency at commit time: a migration may have raced the
    // access (PGAS placements never move, so the map lookup cannot fail).
    let base = match eng.state.gas_mode() {
        GasMode::Pgas => eng.state.pgas().get(&block).copied(),
        _ => resident_base(eng, target, block),
    };
    let back = eng.now() + shm.load_store;
    let Some(base) = base else {
        // The mapping is stale (block migrated / freed): hop home and run
        // ordinary directory recovery.
        eng.schedule_at_loc(back, loc, move |eng| {
            if eng.state.gas(loc).pending.contains(op) {
                bounce(eng, loc, op, block);
            } else {
                eng.state.gas(loc).stats.stale_completions += 1;
            }
        });
        return;
    };
    let (size, offset) = (gva.block_size(), gva.offset());
    let applied = apply_resident(eng, target, block, base, size, offset, &verb)
        .expect("shm access outside its block");
    eng.schedule_at_loc(back, loc, move |eng| match applied {
        Applied::Put => complete_put(eng, loc, op),
        Applied::Get(data) => complete_get(eng, loc, op, data),
        Applied::Amo { result, .. } => complete_amo(eng, loc, op, result),
    });
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
) -> Option<Applied> {
    let l = eng.state.cluster().loc_mut(at);
    let applied = l.apply(block, base, size, offset, verb)?;
    if let Applied::Amo { replayed: true, .. } = applied {
        eng.state.gas(at).stats.amo_replays += 1;
    }
    Some(applied)
}

/// Finish a put whose write is acknowledged (software ack or shm commit).
fn complete_put<S: GasWorld>(eng: &mut Engine<S>, loc: LocalityId, op: OpId) {
    let p = match eng.state.gas(loc).pending.remove(op) {
        Ok(p) => p,
        Err(_) => {
            eng.state.gas(loc).stats.stale_completions += 1;
            return;
        }
    };
    let now = eng.now();
    record_latency(eng, loc, &p, now);
    hist_done(eng, loc, p.hist, now, None);
    finish_ok(eng, loc, op);
    S::gas_put_done(eng, loc, p.ctx);
}

/// Finish a get whose data arrived by value (software reply or shm commit).
fn complete_get<S: GasWorld>(eng: &mut Engine<S>, loc: LocalityId, op: OpId, data: Vec<u8>) {
    let p = match eng.state.gas(loc).pending.remove(op) {
        Ok(p) => p,
        Err(_) => {
            eng.state.gas(loc).stats.stale_completions += 1;
            return;
        }
    };
    let now = eng.now();
    record_latency(eng, loc, &p, now);
    // An earlier RDMA attempt may have left a scratch buffer behind; these
    // paths never need one.
    free_scratch(eng, loc, &p);
    let vhash = p.hist.map(|_| value_hash(&data));
    hist_done(eng, loc, p.hist, now, vhash);
    finish_ok(eng, loc, op);
    S::gas_get_done(eng, loc, p.ctx, data);
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

/// Issue the one-sided access toward `target_loc` through photon: the
/// target NIC translates (and, for an AMO, executes in the same visit), and
/// the completion or NACK/forward outcome comes back like any PWC op.
fn issue_rdma<S: GasWorld>(
    eng: &mut Engine<S>,
    loc: LocalityId,
    op: OpId,
    target_loc: LocalityId,
    target: RdmaTarget,
) {
    let (mut verb, scratch) = {
        let g = eng.state.gas(loc);
        let Ok(p) = g.pending.get_mut(op) else {
            return;
        };
        p.phase = OpPhase::Rdma;
        (p.verb.clone(), p.scratch)
    };
    // A get lands in a scratch buffer from the runtime's pre-registered
    // pool, allocated once and reused across retries.
    if let (Verb::Get { len, local }, None) = (&mut verb, scratch) {
        let class = scratch_class(*len);
        *local = eng
            .state
            .cluster()
            .mem_mut(loc)
            .alloc_block(class)
            .expect("scratch allocation failed");
        if let Ok(p) = eng.state.gas(loc).pending.get_mut(op) {
            p.verb = verb.clone();
            p.scratch = Some(class);
        }
    }
    let att = pwc(eng, loc, target_loc, target, verb, op, None);
    if let Ok(p) = eng.state.gas(loc).pending.get_mut(op) {
        p.attempt = Some(att);
    }
}

/// Commit an operation against locally resident storage.
/// `base_hint` carries the physical base from the caller's own BTT probe
/// (see [`resident_base`]) so the commit doesn't re-translate.
fn commit_local<S: GasWorld>(
    eng: &mut Engine<S>,
    loc: LocalityId,
    op: OpId,
    base_hint: Option<netsim::PhysAddr>,
) {
    let mode = eng.state.gas_mode();
    let (gva, len, per_byte) = {
        let g = eng.state.gas(loc);
        let Ok(p) = g.pending.get(op) else {
            return;
        };
        let len = p.verb.touched_bytes() as usize;
        (p.gva, len, g.cfg.copy_per_byte_ps)
    };
    let block = gva.block_key();
    let base = match mode {
        GasMode::Pgas => *eng
            .state
            .pgas()
            .get(&block)
            .expect("PGAS local op on unknown block"),
        _ => base_hint.unwrap_or_else(|| {
            eng.state
                .gas(loc)
                .btt
                .lookup(block)
                .expect("local commit without residency")
                .base
        }),
    };
    let g = eng.state.gas(loc);
    g.stats.local_ops += 1;
    let delay = g.cfg.local_op + copy_time(per_byte, len);
    // Perform the memory effect now (deterministic), deliver the callback
    // after the modeled local latency.
    let now = eng.now();
    let Ok(p) = eng.state.gas(loc).pending.remove(op) else {
        return;
    };
    record_latency(eng, loc, &p, now + delay);
    finish_ok(eng, loc, op);
    free_scratch(eng, loc, &p);
    // An AMO's earlier attempt may already have executed remotely (and its
    // block since migrated here, responder-cache entries riding along);
    // the shared kernel consults the cache before touching memory.
    let (size, offset) = (gva.block_size(), gva.offset());
    let applied = apply_resident(eng, loc, block, base, size, offset, &p.verb)
        .expect("local op out of bounds");
    let ctx = p.ctx;
    match applied {
        Applied::Put => {
            hist_done(eng, loc, p.hist, now, None);
            eng.schedule_at_loc(now + delay, loc, move |eng| S::gas_put_done(eng, loc, ctx));
        }
        Applied::Get(data) => {
            let vhash = p.hist.map(|_| value_hash(&data));
            hist_done(eng, loc, p.hist, now, vhash);
            eng.schedule_at_loc(now + delay, loc, move |eng| {
                S::gas_get_done(eng, loc, ctx, data)
            });
        }
        Applied::Amo { result, .. } => {
            if let Verb::Amo { amo, .. } = &p.verb {
                log_amo_words(eng, loc, gva, amo, &result, p.issued, now);
            }
            eng.schedule_at_loc(now + delay, loc, move |eng| {
                S::gas_amo_done(eng, loc, ctx, result)
            });
        }
    }
}

/// A fast path bounced: invalidate the hint and re-resolve via the home.
/// When the retry budget runs out the op fails terminally with
/// [`OpError::RetriesExhausted`] instead of asserting.
fn bounce<S: GasWorld>(eng: &mut Engine<S>, loc: LocalityId, op: OpId, block: u64) {
    // Re-resolve through the *serving* home: a membership event (join
    // slice, drain hand-off, crash take-over) may have moved the block's
    // directory duty off its encoded home.
    let home = eng
        .state
        .gas_ref(loc)
        .member
        .resolve(block, Gva(block).home());
    let (give_up, attempts, stale_attempt) = {
        let g = eng.state.gas(loc);
        let Ok(p) = g.pending.get_mut(op) else {
            return; // completed (or reclaimed) concurrently; nothing to retry
        };
        let stale_attempt = p.attempt.take();
        p.attempts += 1;
        p.phase = OpPhase::DirRecovery;
        let attempts = p.attempts;
        let mut sw_fallback = false;
        if !p.force_sw && attempts >= 3 {
            // Persistent NIC-table misses (capacity thrash): degrade to the
            // software path, which cannot miss at the true owner.
            p.force_sw = true;
            sw_fallback = true;
        }
        g.stats.retries += 1;
        g.cache.invalidate(block);
        g.stats.dir_queries += 1;
        if sw_fallback {
            g.stats.sw_fallbacks += 1;
        }
        g.outcomes.record(OpOutcome::Retried { attempt: attempts });
        (attempts > g.cfg.max_attempts, attempts, stale_attempt)
    };
    // Retire the superseded photon attempt so a late echo of it (a delayed
    // or duplicated completion) is dropped as stale instead of completing
    // the re-issued op, and so a lost completion can't leak endpoint state.
    if let Some(att) = stale_attempt {
        eng.state.endpoint(loc).cancel_op(att);
    }
    if give_up {
        let Ok(p) = eng.state.gas(loc).pending.remove(op) else {
            return;
        };
        let now = eng.now();
        let age = now.saturating_sub(p.issued);
        // Counted under deadline_exceeded: the op exceeded its retry budget
        // and was given up on.
        fail_op(
            eng,
            loc,
            op,
            p,
            OpError::RetriesExhausted { id: op, attempts },
            OpOutcome::DeadlineExceeded { age, attempts },
        );
        return;
    }
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

/// Reclaim every in-flight op whose deadline has passed, delivering a
/// deterministic [`OpError::DeadlineExceeded`] to each initiator. A lost
/// completion (dropped NACK, vanished endpoint state) thus becomes a typed
/// failure instead of a hang.
fn sweep<S: GasWorld>(eng: &mut Engine<S>, loc: LocalityId) {
    let now = eng.now();
    let (retry_on, max_attempts, op_deadline) = {
        let g = eng.state.gas(loc);
        (
            g.cfg.retry_on_deadline,
            g.cfg.max_attempts,
            g.cfg.op_deadline,
        )
    };
    // Recovery mode ([`GasConfig::retry_on_deadline`]): an expired op that
    // still has bounce budget is presumed to have *lost* a message (the
    // fault plane dropped a request or completion) rather than merely being
    // slow; re-resolve it through the home directory instead of failing it.
    // The deadline is refreshed so the next sweep leaves the retry alone.
    if retry_on {
        let extension = op_deadline.expect("sweep runs only with deadlines configured");
        let candidates: Vec<(OpId, u64)> = eng
            .state
            .gas(loc)
            .pending
            .iter()
            .filter(|(_, p)| p.deadline.is_some_and(|d| d <= now) && p.attempts < max_attempts)
            .map(|(id, p)| (id, p.gva.block_key()))
            .collect();
        for (id, block) in candidates {
            let already_scheduled = {
                let g = eng.state.gas(loc);
                let Ok(p) = g.pending.get_mut(id) else {
                    continue;
                };
                p.deadline = Some(now + extension);
                // A Backoff-phase op already has its re-issue scheduled;
                // extending the deadline is the whole recovery.
                p.phase == OpPhase::Backoff
            };
            if !already_scheduled {
                eng.state.gas(loc).stats.deadline_retries += 1;
                bounce(eng, loc, id, block);
            }
        }
    }
    let expired = eng
        .state
        .gas(loc)
        .pending
        .drain_filter(|_, p| p.deadline.is_some_and(|d| d <= now));
    for (id, p) in expired {
        let age = now.saturating_sub(p.issued);
        let attempts = p.attempts;
        eng.state.gas(loc).stats.deadline_exceeded += 1;
        fail_op(
            eng,
            loc,
            id,
            p,
            OpError::DeadlineExceeded { id, age, attempts },
            OpOutcome::DeadlineExceeded { age, attempts },
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

/// Route a [`photon::PhotonWorld::pwc_complete`] callback here. A stale or
/// unknown handle (the op was reclaimed by the deadline sweep, or the
/// message is a duplicate) is counted and dropped.
pub fn on_pwc_complete<S: GasWorld>(eng: &mut Engine<S>, loc: LocalityId, ctx: OpId) {
    let p = match eng.state.gas(loc).pending.remove(ctx) {
        Ok(p) => p,
        Err(_) => {
            eng.state.gas(loc).stats.stale_completions += 1;
            return;
        }
    };
    let now = eng.now();
    record_latency(eng, loc, &p, now);
    match p.verb {
        Verb::Put { .. } => {
            hist_done(eng, loc, p.hist, now, None);
            finish_ok(eng, loc, ctx);
            S::gas_put_done(eng, loc, p.ctx);
        }
        Verb::Get { len, .. } => {
            let Some((addr, class)) = p.scratch() else {
                // Unreachable via the wire (gets allocate scratch before
                // issue); counted as a violation rather than panicking.
                let g = eng.state.gas(loc);
                g.stats.protocol_violations += 1;
                g.stats.ops_failed += 1;
                g.outcomes.record(OpOutcome::ProtocolViolation);
                close_span(eng, loc, ctx, false);
                S::gas_op_failed(
                    eng,
                    loc,
                    p.ctx,
                    p.gva,
                    OpError::ProtocolViolation {
                        detail: "get completed without a scratch buffer",
                    },
                );
                return;
            };
            let data = eng
                .state
                .cluster()
                .mem(loc)
                .read(addr, len as usize)
                .expect("scratch vanished")
                .to_vec();
            eng.state.cluster().mem_mut(loc).free_block(addr, class);
            let vhash = p.hist.map(|_| value_hash(&data));
            hist_done(eng, loc, p.hist, now, vhash);
            finish_ok(eng, loc, ctx);
            S::gas_get_done(eng, loc, p.ctx, data);
        }
        Verb::Amo { .. } => {
            // AMOs complete through the result-carrying path; a bare
            // completion means crossed wires somewhere below us.
            let g = eng.state.gas(loc);
            g.stats.protocol_violations += 1;
            g.stats.ops_failed += 1;
            g.outcomes.record(OpOutcome::ProtocolViolation);
            close_span(eng, loc, ctx, false);
            S::gas_op_failed(
                eng,
                loc,
                p.ctx,
                p.gva,
                OpError::ProtocolViolation {
                    detail: "result-less completion for an AMO op",
                },
            );
        }
    }
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

/// Finish a pending AMO with `result`, whichever path delivered it (NIC
/// completion via [`on_pwc_amo_complete`], or a [`GasMsg::SwAmoReply`]).
/// Stale or duplicated completions are counted and dropped.
fn complete_amo<S: GasWorld>(eng: &mut Engine<S>, loc: LocalityId, id: OpId, result: AmoResult) {
    let p = match eng.state.gas(loc).pending.remove(id) {
        Ok(p) => p,
        Err(_) => {
            eng.state.gas(loc).stats.stale_completions += 1;
            return;
        }
    };
    let now = eng.now();
    record_latency(eng, loc, &p, now);
    let Verb::Amo { amo, .. } = &p.verb else {
        // An AMO completion naming a put/get op: the wire protocol was
        // violated; fail the op rather than fabricating a result.
        let g = eng.state.gas(loc);
        g.stats.protocol_violations += 1;
        g.stats.ops_failed += 1;
        g.outcomes.record(OpOutcome::ProtocolViolation);
        close_span(eng, loc, id, false);
        S::gas_op_failed(
            eng,
            loc,
            p.ctx,
            p.gva,
            OpError::ProtocolViolation {
                detail: "AMO completion for a non-AMO op",
            },
        );
        return;
    };
    let amo = amo.clone();
    log_amo_words(eng, loc, p.gva, &amo, &result, p.issued, now);
    finish_ok(eng, loc, id);
    S::gas_amo_done(eng, loc, p.ctx, result);
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
    complete_amo(eng, loc, ctx, result);
}

/// Route a [`photon::PhotonWorld::xlate_miss_local`] callback here: the
/// local NIC missed its table for an incoming one-sided operation. If the
/// block is in fact resident (the entry was evicted under capacity
/// pressure), software reinstalls it — the hardware analogue of a TLB miss
/// handler. The bounced initiator's retry then hits, and a forwarded
/// request the NIC parked on the miss is released by the install.
pub fn on_xlate_miss<S: GasWorld>(eng: &mut Engine<S>, loc: LocalityId, block: u64) {
    if eng.state.gas_mode() != GasMode::AgasNetwork {
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
        netsim::install_xlate(
            eng,
            loc,
            block,
            netsim::XlateEntry {
                base: entry.base,
                len: 1u64 << entry.class,
                generation: entry.generation,
            },
        );
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
    g.outcomes.record(OpOutcome::Nacked { reason });
    bounce(eng, loc, ctx, block);
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
        GasMsg::SwAmoReply { ctx, result } => complete_amo(eng, at, ctx, result),
        GasMsg::SwPutAck { ctx } => complete_put(eng, at, ctx),
        GasMsg::SwGetReply { ctx, data } => complete_get(eng, at, ctx, data),
        GasMsg::SwRetry { ctx, block } => {
            if !eng.state.gas(at).pending.contains(ctx) {
                eng.state.gas(at).stats.stale_completions += 1;
                return;
            }
            bounce(eng, at, ctx, block);
        }
        GasMsg::DirQuery {
            block,
            ctx,
            reply_to,
        } => {
            // Directory lookups are software: they occupy the home's CPU.
            let service = eng.state.gas(at).cfg.dir_lookup;
            let now = eng.now();
            let (_, finish) = eng.state.cpu(at).admit(now, service);
            {
                let l = eng.state.cluster().loc_mut(at);
                l.counters.cpu_busy += service;
                l.counters.dir_lookups += 1;
            }
            eng.schedule_at(finish, move |eng| {
                // With the membership plane live, a query can legitimately
                // land at a home whose record moved (join slice or hand-off
                // in flight): answer SwRetry so the initiator re-resolves
                // through its (by then updated) view, bounded by its
                // attempts budget. Without membership the old invariant
                // stands: the home must know every block homed at it.
                let enabled = eng.state.gas_ref(at).member.is_enabled();
                let rec = if enabled {
                    eng.state.gas(at).dir.lookup_opt(block)
                } else {
                    Some(eng.state.gas(at).dir.lookup(block))
                };
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
            let backoff = match g.pending.get_mut(ctx) {
                Ok(p) => {
                    p.phase = OpPhase::Backoff;
                    // Exponential back-off (capped): doubles per attempt so
                    // a contended block cannot livelock its initiators.
                    let shift = p.attempts.saturating_sub(1).min(12);
                    Some(g.cfg.retry_backoff * (1u64 << shift))
                }
                Err(_) => None,
            };
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
            let service = eng.state.gas(at).cfg.dir_lookup;
            let now = eng.now();
            let (_, finish) = eng.state.cpu(at).admit(now, service);
            {
                let l = eng.state.cluster().loc_mut(at);
                l.counters.cpu_busy += service;
                l.counters.dir_lookups += 1;
            }
            eng.schedule_at(finish, move |eng| {
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
        GasMsg::MigRequest {
            block,
            dst,
            ctx,
            reply_to,
            hops,
        } => crate::migrate::on_mig_request(eng, at, block, dst, ctx, reply_to, hops),
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
        GasMsg::FreeRequest {
            block,
            ctx,
            reply_to,
            hops,
        } => crate::migrate::on_free_request(eng, at, block, ctx, reply_to, hops),
        GasMsg::DirUnregister {
            block,
            ctx,
            reply_to,
        } => crate::migrate::on_dir_unregister(eng, at, block, ctx, reply_to),
        GasMsg::FreeDone { ctx, block } => S::gas_free_done(eng, at, ctx, block),
        GasMsg::Member { update } => crate::membership::on_member_update(eng, at, update),
        GasMsg::DirHandoff { records, from } => {
            crate::membership::on_dir_handoff(eng, at, records, from)
        }
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
    eng.state.gas(at).note_heat(block);
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
    // Resolve storage: the BTT under AGAS; under PGAS (where the BTT is
    // empty by design) the replicated placement map — the home always
    // owns, so no retry path is needed there.
    let resolved = match eng.state.gas(at).btt.lookup(block).copied() {
        Some(e) => Some((e.base, 1u64 << e.class)),
        None if eng.state.gas_mode() == GasMode::Pgas => eng
            .state
            .pgas()
            .get(&block)
            .copied()
            .map(|base| (base, Gva(block).block_size())),
        None => None,
    };
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
            match applied {
                Applied::Put => {
                    stats.sw_puts_handled += 1;
                    (GasMsg::SwPutAck { ctx }, ctrl)
                }
                Applied::Get(data) => {
                    stats.sw_gets_handled += 1;
                    let wire = data.len() as u32;
                    (GasMsg::SwGetReply { ctx, data }, wire)
                }
                Applied::Amo { result, .. } => {
                    stats.sw_amos_handled += 1;
                    (GasMsg::SwAmoReply { ctx, result }, ctrl)
                }
            }
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
    match world.gas_mode() {
        GasMode::Pgas => {
            if home == loc {
                let base = *world
                    .pgas()
                    .get(&block)
                    .expect("route on unallocated block");
                Route::Local {
                    base,
                    class: gva.class(),
                }
            } else {
                Route::Forward(home)
            }
        }
        GasMode::AgasSoftware | GasMode::AgasNetwork => {
            let g = world.gas(loc);
            // Membership may have re-homed the block's directory record
            // (join slice, drain hand-off, crash takeover).
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
            } else if serving == loc {
                // We are the authority: route to the directory's owner.
                match g.dir.lookup_opt(block) {
                    Some(rec) => Route::Forward(rec.owner),
                    // Record still in flight to us (hand-off racing the
                    // access): fall back to the encoded home, whose own
                    // view will re-forward as it catches up.
                    None => Route::Forward(home),
                }
            } else if let Some(h) = g.cache.lookup(block) {
                Route::Forward(h.owner)
            } else {
                Route::Forward(serving)
            }
        }
    }
}

/// Pin `gva`'s block for a local handler. Returns the physical base and
/// class, or `None` if the block is not executable here (caller re-routes).
pub fn pin<S: GasWorld>(world: &mut S, loc: LocalityId, gva: Gva) -> Option<(PhysAddr, u8)> {
    let block = gva.block_key();
    match world.gas_mode() {
        GasMode::Pgas => {
            if gva.home() == loc {
                Some((*world.pgas().get(&block)?, gva.class()))
            } else {
                None
            }
        }
        _ => world.gas(loc).btt.pin(block).map(|e| (e.base, e.class)),
    }
}

/// Release a pin taken with [`pin`]; may start a deferred migration.
pub fn unpin<S: GasWorld>(eng: &mut Engine<S>, loc: LocalityId, gva: Gva) {
    let block = gva.block_key();
    if eng.state.gas_mode() == GasMode::Pgas {
        return;
    }
    let pins = eng.state.gas(loc).btt.unpin(block);
    if pins == 0 {
        crate::migrate::retry_deferred(eng, loc, block);
    }
}
