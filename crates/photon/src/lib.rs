//! # photon — RMA middleware reproduction
//!
//! A reproduction of the Photon remote-memory-access middleware (Kissel &
//! Swany, IPDRM'16) that HPX-5's network layer — and this paper's
//! network-managed address space — is built on. Photon's defining primitive
//! is **put/get-with-completion (PWC)**: a one-sided operation that delivers
//! a *local* completion identifier to the initiator and, for puts, a
//! *remote* completion identifier into a ledger at the target, letting a
//! message-driven runtime attach rendezvous-free notifications to RDMA.
//!
//! Provided here, over the [`netsim`] substrate:
//!
//! * [`pwc_put`] / [`pwc_get`] — one-sided ops on physical *or* virtual
//!   (NIC-translated) targets, with local/remote completion callbacks;
//! * [`send`] / [`post_recv`] — two-sided tag-matched messaging with an
//!   eager path (payload inline, one copy) and a rendezvous RTS/CTS path
//!   (zero-copy RDMA) above [`PhotonConfig::eager_threshold`];
//! * credit-based flow control over per-peer eager ledgers;
//! * a registration cache ([`rcache::RegCache`]) modeling memory-pinning
//!   costs.
//!
//! The layer above implements [`PhotonWorld`]: it stores one
//! [`PhotonEndpoint`] per locality, embeds [`PhotonMsg`] in its wire enum,
//! and receives completion callbacks.

pub mod config;
pub mod matching;
pub mod rcache;

pub use config::PhotonConfig;
pub use matching::{MatchQueue, Unexpected, ANY_TAG};
pub use rcache::RegCache;

use netsim::{
    rdma_issue, rdma_put, send_user, Access, AmoResult, Desc, DescSnapshot, Engine, FaultClass,
    LocalityId, NackReason, OpId, OpKind, OpTable, Packet, PhysAddr, Protocol, PushOutcome, PutReq,
    RdmaTarget, Ring, RingSet, RingStats, Time, TraceKind, Verb,
};
use std::collections::{HashMap, VecDeque};

/// Tag bit reserved for Photon's internal rendezvous-completion notes.
/// Upper-layer `remote_tag`s must keep this bit clear.
pub const RDV_NOTE_BIT: u64 = 1 << 63;

/// Photon's wire-control messages, embedded into the world's message enum
/// via [`PhotonWorld::wrap`].
#[derive(Debug)]
pub enum PhotonMsg {
    /// Small message: payload travels inline, lands in the eager ledger.
    Eager {
        /// Match tag.
        tag: u64,
        /// Sender-side handle (returned by [`send`]).
        send_id: u64,
        /// Inline payload.
        data: Vec<u8>,
    },
    /// Rendezvous request-to-send for a large payload.
    Rts {
        /// Match tag.
        tag: u64,
        /// Sender-side handle.
        send_id: u64,
        /// Payload length.
        len: u32,
    },
    /// Clear-to-send: the receiver allocated and registered a landing
    /// buffer at physical address `dst`.
    Cts {
        /// Echoed sender handle.
        send_id: u64,
        /// Landing buffer in the receiver's arena.
        dst: PhysAddr,
    },
    /// One eager-ledger credit flowing back to the sender.
    CreditReturn,
}

/// Endpoint statistics (per locality).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhotonStats {
    /// Eager-path sends injected.
    pub eager_sends: u64,
    /// Rendezvous-path sends started.
    pub rdv_sends: u64,
    /// Sends that stalled waiting for eager credits.
    pub stalled_sends: u64,
    /// PWC puts initiated.
    pub pwc_puts: u64,
    /// PWC gets initiated.
    pub pwc_gets: u64,
    /// PWC active operations (NIC-executed AMOs) initiated.
    pub pwc_amos: u64,
    /// Credits returned to peers.
    pub credits_returned: u64,
    /// Completions/NACKs naming an unknown or stale [`OpId`], dropped.
    pub stale_completions: u64,
    /// Control messages that violated the protocol state machine (e.g. a
    /// CTS for an unknown rendezvous send), dropped.
    pub protocol_violations: u64,
    /// AMO descriptors that shared a submission doorbell with another AMO
    /// to the same responder (only counted with the ring path enabled).
    pub amo_batched: u64,
}

enum Pending {
    Pwc { ctx: OpId },
    RdvData { send_id: u64 },
}

/// A completion's redirect hint — `(owner, generation)`: the request was
/// NIC-forwarded and committed at `owner` under that translation
/// generation (the ack's source plus the packet's `moved`).
type Redirect = (LocalityId, u32);

/// A completion buffered in the coalescing ring, waiting on the moderation
/// timer or the batch threshold.
enum CompEvent {
    /// A `PutDone`/`GetDone` naming endpoint-table handle `op`.
    Done { op: OpId, hint: Option<Redirect> },
    /// An `AmoDone` with its fetched result.
    AmoDone {
        op: OpId,
        result: AmoResult,
        hint: Option<Redirect>,
    },
}

struct RdvSend {
    dst: LocalityId,
    data: Vec<u8>,
    local_src: Option<(PhysAddr, u64)>,
}

struct RdvRecv {
    src: LocalityId,
    tag: u64,
    addr: PhysAddr,
    len: u32,
    class: u8,
}

/// Per-locality Photon endpoint state.
pub struct PhotonEndpoint {
    /// Tuning parameters.
    pub cfg: PhotonConfig,
    /// Endpoint statistics.
    pub stats: PhotonStats,
    ops: OpTable<Pending>,
    rcache: RegCache,
    matching: MatchQueue,
    credits: HashMap<LocalityId, usize>,
    backlog: HashMap<LocalityId, VecDeque<(u64, u64, Vec<u8>)>>, // (tag, send_id, data)
    rdv_sends: HashMap<u64, RdvSend>,
    rdv_recvs: HashMap<u64, RdvRecv>,
    next_send_id: u64,
    remote_ledger: VecDeque<(u64, u32)>,
    /// Per-peer submission rings (`Some` iff [`PhotonConfig::ring`] is set).
    subq: Option<RingSet<Box<Access>>>,
    /// The completion-coalescing ring, moderated by
    /// [`netsim::RingConfig::moderation`].
    compq: Option<Ring<CompEvent>>,
}

impl PhotonEndpoint {
    /// Create an endpoint with the given configuration.
    pub fn new(cfg: PhotonConfig) -> PhotonEndpoint {
        PhotonEndpoint {
            rcache: RegCache::new(),
            stats: PhotonStats::default(),
            ops: OpTable::new(),
            matching: MatchQueue::new(),
            credits: HashMap::new(),
            backlog: HashMap::new(),
            rdv_sends: HashMap::new(),
            rdv_recvs: HashMap::new(),
            next_send_id: 0,
            remote_ledger: VecDeque::new(),
            subq: cfg.ring.map(RingSet::new),
            compq: cfg.ring.map(Ring::new),
            cfg,
        }
    }

    /// Pop the oldest unconsumed remote-completion ledger entry
    /// (`photon_probe_ledger` in the original API): `(tag, len)` of a PWC
    /// put that landed here. Entries accumulate alongside the
    /// [`PhotonWorld::pwc_remote`] callback; polling consumers drain them.
    pub fn probe_ledger(&mut self) -> Option<(u64, u32)> {
        self.remote_ledger.pop_front()
    }

    /// Unconsumed remote-ledger entries.
    pub fn ledger_depth(&self) -> usize {
        self.remote_ledger.len()
    }

    /// Registration-cache statistics: `(hits, misses)` in pages.
    pub fn rcache_stats(&self) -> (u64, u64) {
        (self.rcache.hits(), self.rcache.misses())
    }

    /// Outstanding one-sided operations.
    pub fn outstanding_ops(&self) -> usize {
        self.ops.len()
    }

    /// Fault injection: forget every in-flight one-sided op *without*
    /// delivering its completion, as if the NIC lost the control messages.
    /// Returns how many ops were dropped. The layers above only recover
    /// via their deadline sweep — exactly what the dropped-completion
    /// tests exercise.
    pub fn drop_pending_ops(&mut self) -> usize {
        self.ops.drain_filter(|_, _| true).len()
    }

    /// Retire one specific in-flight one-sided op *without* delivering its
    /// completion: the initiator has presumed it lost and is re-issuing.
    /// Any later echo of the old attempt then drops as stale instead of
    /// double-completing. Returns whether the op was still live.
    pub fn cancel_op(&mut self, op: OpId) -> bool {
        self.ops.remove(op).is_ok()
    }

    /// The matching engine (exposed for tests and diagnostics).
    pub fn match_queue(&self) -> &MatchQueue {
        &self.matching
    }

    /// Descriptors waiting in the submission and completion rings (0 with
    /// rings disabled) — drained work that has not yet entered the fabric
    /// or reached its callback.
    pub fn ring_occupancy(&self) -> usize {
        self.subq.as_ref().map_or(0, RingSet::occupancy) + self.compq.as_ref().map_or(0, Ring::len)
    }

    /// Stuck-descriptor snapshots across both rings, for quiescence
    /// reports. `loc` names this endpoint's locality (completion-ring
    /// entries are local, so they report it as their peer).
    pub fn ring_snapshots(&self, loc: LocalityId, now: Time) -> Vec<DescSnapshot> {
        let mut out = self
            .subq
            .as_ref()
            .map_or_else(Vec::new, |r| r.snapshots(now));
        if let Some(c) = &self.compq {
            out.extend(c.snapshots(loc, now));
        }
        out
    }

    /// Pooled doorbell/occupancy/coalesce counters across both rings.
    pub fn ring_stats(&self) -> RingStats {
        let mut total = self
            .subq
            .as_ref()
            .map_or_else(RingStats::default, RingSet::stats);
        if let Some(c) = &self.compq {
            let cs = c.stats();
            total.doorbells += cs.doorbells;
            total.descs += cs.descs;
            total.coalesced += cs.coalesced;
            total.max_occupancy = total.max_occupancy.max(cs.max_occupancy);
        }
        total
    }

    /// Remaining eager credits toward `peer`.
    pub fn credits_to(&self, peer: LocalityId) -> usize {
        *self.credits.get(&peer).unwrap_or(&self.cfg.ledger_slots)
    }

    fn take_credit(&mut self, peer: LocalityId) -> bool {
        let slots = self.cfg.ledger_slots;
        let c = self.credits.entry(peer).or_insert(slots);
        if *c > 0 {
            *c -= 1;
            true
        } else {
            false
        }
    }

    fn return_credit(&mut self, peer: LocalityId) {
        let slots = self.cfg.ledger_slots;
        *self.credits.entry(peer).or_insert(slots) += 1;
    }
}

/// The contract between Photon and the layer above it.
pub trait PhotonWorld: Protocol {
    /// The endpoint owned by locality `loc`.
    fn endpoint(&mut self, loc: LocalityId) -> &mut PhotonEndpoint;
    /// Embed a Photon control message into the world's wire enum.
    fn wrap(msg: PhotonMsg) -> Self::Msg;

    /// An initiated PWC operation completed; `ctx` is the caller's typed
    /// op handle.
    fn pwc_complete(eng: &mut Engine<Self>, loc: LocalityId, ctx: OpId);
    /// A PWC put addressed *to this locality* became visible, carrying the
    /// initiator's `remote_tag` (Photon's remote completion ledger).
    fn pwc_remote(eng: &mut Engine<Self>, loc: LocalityId, tag: u64, len: u32);
    /// An initiated PWC operation bounced (translation miss/forward-fail).
    fn pwc_failed(
        eng: &mut Engine<Self>,
        loc: LocalityId,
        ctx: OpId,
        kind: OpKind,
        reason: NackReason,
        block: u64,
    );
    /// A two-sided message matched a posted receive and its payload is
    /// available.
    fn recv_complete(
        eng: &mut Engine<Self>,
        loc: LocalityId,
        src: LocalityId,
        tag: u64,
        data: Vec<u8>,
    );
    /// A two-sided send's payload has left the initiator (safe to reuse).
    fn send_complete(eng: &mut Engine<Self>, loc: LocalityId, send_id: u64);
    /// The local NIC raised a translation-table miss interrupt for `block`
    /// (an incoming one-sided op found no entry). Worlds running
    /// network-managed AGAS reinstall resident-but-evicted entries here;
    /// the default ignores it.
    fn xlate_miss_local(eng: &mut Engine<Self>, loc: LocalityId, block: u64) {
        let _ = (eng, loc, block);
    }
    /// The PWC operation `ctx`, about to complete, reached its block only
    /// through NIC forwarding: the block now lives at `owner` under
    /// translation `generation`. Called just before [`pwc_complete`] /
    /// [`pwc_amo_complete`], and only for forwarded completions; worlds
    /// that keep owner hints fold it in so the next access goes direct.
    /// The default ignores it.
    ///
    /// [`pwc_complete`]: PhotonWorld::pwc_complete
    /// [`pwc_amo_complete`]: PhotonWorld::pwc_amo_complete
    fn pwc_redirected(
        eng: &mut Engine<Self>,
        loc: LocalityId,
        ctx: OpId,
        owner: LocalityId,
        generation: u32,
    ) {
        let _ = (eng, loc, ctx, owner, generation);
    }
    /// An initiated PWC active operation ([`pwc`] with a [`Verb::Amo`])
    /// executed at the target NIC; `result` carries the fetched/old
    /// value(s). Worlds that never issue AMOs can keep the default (which
    /// drops the result).
    fn pwc_amo_complete(eng: &mut Engine<Self>, loc: LocalityId, ctx: OpId, result: AmoResult) {
        let _ = (eng, loc, ctx, result);
    }
}

fn copy_time(cfg: &PhotonConfig, len: usize) -> Time {
    Time::from_ps(len as u64 * cfg.copy_per_byte_ps)
}

fn size_class_for(len: u32) -> u8 {
    let needed = len.max(64);
    (u32::BITS - (needed - 1).leading_zeros()) as u8
}

// ------------------------------------------------------------------ rings

/// Post one not-yet-injected PWC op into the submission ring toward its
/// target, flushing or arming the doorbell timer as the ring directs. Only
/// called when [`PhotonConfig::ring`] is set.
fn ring_submit<S: PhotonWorld>(eng: &mut Engine<S>, src: LocalityId, req: Box<Access>) {
    let now = eng.now();
    let dst = req.target;
    let (kind, bytes) = match &req.verb {
        Verb::Put { data, .. } => ("put", data.len() as u32),
        Verb::Get { len, .. } => ("get", *len),
        Verb::Amo { amo, .. } => ("amo", 8 * amo.wire_words() as u32),
    };
    let rings = eng
        .state
        .endpoint(src)
        .subq
        .as_mut()
        .expect("ring_submit with rings disabled");
    let outcome = rings.push(
        dst,
        Desc {
            item: req,
            bytes,
            kind,
            enqueued: now,
        },
    );
    match outcome {
        PushOutcome::Flush => ring_doorbell(eng, src, dst),
        PushOutcome::Armed(epoch) => {
            let delay = rings.config().doorbell_delay;
            eng.schedule_at_loc(now + delay, src, move |eng| {
                let due = eng
                    .state
                    .endpoint(src)
                    .subq
                    .as_ref()
                    .is_some_and(|r| r.timer_due(dst, epoch));
                if due {
                    ring_doorbell(eng, src, dst);
                }
            });
        }
        PushOutcome::Buffered => {}
    }
}

/// Ring the submission doorbell toward `dst`: drain the ring and inject
/// every descriptor, in post order, under this one event.
fn ring_doorbell<S: PhotonWorld>(eng: &mut Engine<S>, src: LocalityId, dst: LocalityId) {
    let batch = match eng.state.endpoint(src).subq.as_mut() {
        Some(rings) => rings.drain(dst),
        None => return,
    };
    if batch.is_empty() {
        return;
    }
    let now = eng.now();
    eng.state.cluster().tracer.record(
        now,
        TraceKind::Doorbell {
            at: src,
            peer: dst,
            descs: batch.len() as u32,
        },
    );
    let amos = batch
        .iter()
        .filter(|d| d.item.verb.kind() == OpKind::Amo)
        .count() as u64;
    if amos >= 2 {
        eng.state.endpoint(src).stats.amo_batched += amos;
    }
    for desc in batch {
        rdma_issue(eng, src, desc.item);
    }
}

/// Buffer one NIC completion in the coalescing ring, flushing or arming
/// the moderation timer as the ring directs. Only called when
/// [`PhotonConfig::ring`] is set.
fn ring_coalesce_completion<S: PhotonWorld>(eng: &mut Engine<S>, at: LocalityId, ev: CompEvent) {
    let now = eng.now();
    let ring = eng
        .state
        .endpoint(at)
        .compq
        .as_mut()
        .expect("completion coalescing with rings disabled");
    let outcome = ring.push(Desc {
        item: ev,
        bytes: 0,
        kind: "completion",
        enqueued: now,
    });
    match outcome {
        PushOutcome::Flush => ring_deliver_completions(eng, at),
        PushOutcome::Armed(epoch) => {
            let moderation = eng
                .state
                .endpoint(at)
                .cfg
                .ring
                .expect("ring cfg")
                .moderation;
            eng.schedule_at_loc(now + moderation, at, move |eng| {
                let due = eng
                    .state
                    .endpoint(at)
                    .compq
                    .as_ref()
                    .is_some_and(|r| r.timer_due(epoch));
                if due {
                    ring_deliver_completions(eng, at);
                }
            });
        }
        PushOutcome::Buffered => {}
    }
}

/// The coalesced interrupt: drain the completion ring and deliver every
/// buffered completion through the normal endpoint-table path.
fn ring_deliver_completions<S: PhotonWorld>(eng: &mut Engine<S>, at: LocalityId) {
    let batch = match eng.state.endpoint(at).compq.as_mut() {
        Some(ring) => ring.drain(),
        None => return,
    };
    for desc in batch {
        match desc.item {
            CompEvent::Done { op, hint } => deliver_done(eng, at, op, hint),
            CompEvent::AmoDone { op, result, hint } => deliver_amo_done(eng, at, op, result, hint),
        }
    }
}

// ------------------------------------------------------------------ PWC

/// One-sided access with completion — the single PWC issue path. `ctx`
/// returns via [`PhotonWorld::pwc_complete`] (puts, gets),
/// [`PhotonWorld::pwc_amo_complete`] (AMOs: the target NIC translates the
/// block and executes the op in the same visit), or `pwc_failed`. A put's
/// `remote_tag`, if set, surfaces at the target via
/// [`PhotonWorld::pwc_remote`]; `local_src` describes the initiator-side
/// buffer for registration-cost accounting (`None` = pre-registered pool,
/// e.g. the runtime's scratch allocator).
///
/// The op is posted from the caller: it reaches the fabric (or the
/// submission ring) before `pwc` returns, so its first wire leg is keyed
/// from whoever issued it. The one wait PWC models is registration — a
/// `local_src` that misses the registration cache is posted by a single
/// event at `now + reg_delay`.
///
/// An AMO's operands ride in the control-sized request, so an AMO
/// registers nothing whatever `local_src` says. Its [`Verb::Amo`] `key` is
/// the caller's retry-stable dedup identity — it must survive re-issue
/// (use the GAS-level op id, not this attempt's wire token) so the
/// target's responder cache can recognize a retry of an already-executed
/// op.
pub fn pwc<S: PhotonWorld>(
    eng: &mut Engine<S>,
    src: LocalityId,
    dst: LocalityId,
    at: RdmaTarget,
    verb: Verb,
    ctx: OpId,
    local_src: Option<(PhysAddr, u64)>,
) -> OpId {
    if let Verb::Put {
        remote_tag: Some(tag),
        ..
    } = &verb
    {
        assert_eq!(tag & RDV_NOTE_BIT, 0, "remote_tag bit 63 is reserved");
    }
    let kind = verb.kind();
    let ep = eng.state.endpoint(src);
    match kind {
        OpKind::Put => ep.stats.pwc_puts += 1,
        OpKind::Get => ep.stats.pwc_gets += 1,
        OpKind::Amo => ep.stats.pwc_amos += 1,
    }
    let cfg = ep.cfg;
    let reg_delay = match local_src {
        Some((addr, len)) if kind != OpKind::Amo => ep.rcache.register(&cfg, addr, len),
        _ => Time::ZERO,
    };
    let ttl = eng.state.cluster_ref().config.forward_ttl;
    // The wire token *is* the endpoint-table handle: the completion or
    // NACK echoes it back, and a stale echo fails the generation check.
    let op = eng.state.endpoint(src).ops.insert(Pending::Pwc { ctx });
    let req = Box::new(Access {
        target: dst,
        at,
        verb,
        op,
        ttl,
        floor: 0,
        class: FaultClass::Request,
    });
    if reg_delay == Time::ZERO {
        inject(eng, src, req);
    } else {
        let at = eng.now() + reg_delay;
        eng.schedule_at_loc(at, src, move |eng| inject(eng, src, req));
    }
    op
}

/// Hand a built request to the fabric: through the submission ring when
/// rings are on, directly otherwise.
fn inject<S: PhotonWorld>(eng: &mut Engine<S>, src: LocalityId, req: Box<Access>) {
    if eng.state.endpoint(src).subq.is_some() {
        ring_submit(eng, src, req);
    } else {
        rdma_issue(eng, src, req);
    }
}

/// One-sided put with completion: [`pwc`] with a [`Verb::Put`].
#[allow(clippy::too_many_arguments)]
pub fn pwc_put<S: PhotonWorld>(
    eng: &mut Engine<S>,
    src: LocalityId,
    dst: LocalityId,
    target: RdmaTarget,
    data: Vec<u8>,
    ctx: OpId,
    remote_tag: Option<u64>,
    local_src: Option<(PhysAddr, u64)>,
) -> OpId {
    let data = data.into();
    let verb = Verb::Put { data, remote_tag };
    pwc(eng, src, dst, target, verb, ctx, local_src)
}

/// One-sided get with completion: [`pwc`] with a [`Verb::Get`], reading
/// `len` bytes from `target` at `dst` into the initiator's arena at
/// `local`.
#[allow(clippy::too_many_arguments)]
pub fn pwc_get<S: PhotonWorld>(
    eng: &mut Engine<S>,
    src: LocalityId,
    dst: LocalityId,
    target: RdmaTarget,
    len: u32,
    local: PhysAddr,
    ctx: OpId,
    local_src: Option<(PhysAddr, u64)>,
) -> OpId {
    let verb = Verb::Get { len, local };
    pwc(eng, src, dst, target, verb, ctx, local_src)
}

// ------------------------------------------------------------------ two-sided

/// Two-sided tag-matched send. Returns the send handle; completion of the
/// local buffer arrives via [`PhotonWorld::send_complete`]. Payloads at or
/// below the eager threshold travel inline (consuming one eager credit);
/// larger payloads run the rendezvous protocol. `local_src` feeds the
/// registration cache on the rendezvous path.
pub fn send<S: PhotonWorld>(
    eng: &mut Engine<S>,
    src: LocalityId,
    dst: LocalityId,
    tag: u64,
    data: Vec<u8>,
    local_src: Option<(PhysAddr, u64)>,
) -> u64 {
    let ep = eng.state.endpoint(src);
    let send_id = ep.next_send_id;
    ep.next_send_id += 1;
    let eager_threshold = ep.cfg.eager_threshold;
    if data.len() as u32 <= eager_threshold {
        if ep.take_credit(dst) {
            ep.stats.eager_sends += 1;
            inject_eager(eng, src, dst, tag, send_id, data);
        } else {
            ep.stats.stalled_sends += 1;
            ep.backlog
                .entry(dst)
                .or_default()
                .push_back((tag, send_id, data));
        }
    } else {
        ep.stats.rdv_sends += 1;
        let len = data.len() as u32;
        ep.rdv_sends.insert(
            send_id,
            RdvSend {
                dst,
                data,
                local_src,
            },
        );
        let ctrl = eng.state.cluster_ref().config.ctrl_bytes;
        send_user(
            eng,
            src,
            dst,
            ctrl,
            S::wrap(PhotonMsg::Rts { tag, send_id, len }),
        );
    }
    send_id
}

fn inject_eager<S: PhotonWorld>(
    eng: &mut Engine<S>,
    src: LocalityId,
    dst: LocalityId,
    tag: u64,
    send_id: u64,
    data: Vec<u8>,
) {
    let wire = data.len() as u32;
    send_user(
        eng,
        src,
        dst,
        wire,
        S::wrap(PhotonMsg::Eager { tag, send_id, data }),
    );
    // The payload is buffered/injected; the local buffer is reusable now.
    let now = eng.now();
    eng.schedule_at_loc(now, src, move |eng| S::send_complete(eng, src, send_id));
}

/// Post a receive for `tag` (or [`ANY_TAG`]) at `loc`. Matching messages —
/// already arrived or future — surface via [`PhotonWorld::recv_complete`].
pub fn post_recv<S: PhotonWorld>(eng: &mut Engine<S>, loc: LocalityId, tag: u64) {
    if let Some(msg) = eng.state.endpoint(loc).matching.post(tag) {
        dispatch_match(eng, loc, msg);
    }
}

fn dispatch_match<S: PhotonWorld>(eng: &mut Engine<S>, loc: LocalityId, msg: Unexpected) {
    match msg {
        Unexpected::Eager { src, tag, data, .. } => consume_eager(eng, loc, src, tag, data),
        Unexpected::Rts {
            src,
            tag,
            send_id,
            len,
        } => start_rdv_recv(eng, loc, src, tag, send_id, len),
    }
}

fn consume_eager<S: PhotonWorld>(
    eng: &mut Engine<S>,
    loc: LocalityId,
    src: LocalityId,
    tag: u64,
    data: Vec<u8>,
) {
    let ep = eng.state.endpoint(loc);
    let copy = ep.cfg.match_overhead + copy_time(&ep.cfg, data.len());
    ep.stats.credits_returned += 1;
    let ctrl = eng.state.cluster_ref().config.ctrl_bytes;
    send_user(eng, loc, src, ctrl, S::wrap(PhotonMsg::CreditReturn));
    let at = eng.now() + copy;
    eng.schedule_at_loc(at, loc, move |eng| {
        S::recv_complete(eng, loc, src, tag, data)
    });
}

fn start_rdv_recv<S: PhotonWorld>(
    eng: &mut Engine<S>,
    loc: LocalityId,
    src: LocalityId,
    tag: u64,
    send_id: u64,
    len: u32,
) {
    // The RTS went through the matching engine too.
    let match_cost = eng.state.endpoint(loc).cfg.match_overhead;
    eng.schedule(match_cost, move |eng| {
        start_rdv_recv_matched(eng, loc, src, tag, send_id, len);
    });
}

fn start_rdv_recv_matched<S: PhotonWorld>(
    eng: &mut Engine<S>,
    loc: LocalityId,
    src: LocalityId,
    tag: u64,
    send_id: u64,
    len: u32,
) {
    let class = size_class_for(len);
    let addr = eng
        .state
        .cluster()
        .mem_mut(loc)
        .alloc_block(class)
        .expect("rendezvous landing buffer allocation failed");
    eng.state.endpoint(loc).rdv_recvs.insert(
        send_id,
        RdvRecv {
            src,
            tag,
            addr,
            len,
            class,
        },
    );
    let ctrl = eng.state.cluster_ref().config.ctrl_bytes;
    send_user(
        eng,
        loc,
        src,
        ctrl,
        S::wrap(PhotonMsg::Cts { send_id, dst: addr }),
    );
}

// ------------------------------------------------------------------ dispatch

/// Handle a Photon control message delivered to `at` from `from`.
/// The world's [`Protocol::deliver`] routes `Packet::User` payloads that
/// decode to [`PhotonMsg`] here.
pub fn handle_msg<S: PhotonWorld>(
    eng: &mut Engine<S>,
    from: LocalityId,
    at: LocalityId,
    msg: PhotonMsg,
) {
    match msg {
        PhotonMsg::Eager { tag, send_id, data } => {
            let arrived = eng.state.endpoint(at).matching.arrive(Unexpected::Eager {
                src: from,
                tag,
                send_id,
                data,
            });
            if let Some(m) = arrived {
                dispatch_match(eng, at, m);
            }
        }
        PhotonMsg::Rts { tag, send_id, len } => {
            let arrived = eng.state.endpoint(at).matching.arrive(Unexpected::Rts {
                src: from,
                tag,
                send_id,
                len,
            });
            if let Some(m) = arrived {
                dispatch_match(eng, at, m);
            }
        }
        PhotonMsg::Cts { send_id, dst } => {
            let ep = eng.state.endpoint(at);
            let cfg = ep.cfg;
            let Some(rdv) = ep.rdv_sends.remove(&send_id) else {
                // A duplicate or forged CTS: count and drop.
                ep.stats.protocol_violations += 1;
                return;
            };
            debug_assert_eq!(rdv.dst, from);
            let reg_delay = match rdv.local_src {
                Some((addr, len)) => eng.state.endpoint(at).rcache.register(&cfg, addr, len),
                None => Time::ZERO,
            };
            let op = eng
                .state
                .endpoint(at)
                .ops
                .insert(Pending::RdvData { send_id });
            let req = PutReq {
                target: from,
                dst: RdmaTarget::Phys(dst),
                data: rdv.data,
                op,
                remote_tag: Some(RDV_NOTE_BIT | send_id),
                ttl: eng.state.cluster_ref().config.forward_ttl,
                class: FaultClass::Payload,
            };
            // As in `pwc`: an event only when registration takes time.
            if reg_delay == Time::ZERO {
                rdma_put(eng, at, req);
            } else {
                eng.schedule(reg_delay, move |eng| rdma_put(eng, at, req));
            }
        }
        PhotonMsg::CreditReturn => {
            let ep = eng.state.endpoint(at);
            ep.return_credit(from);
            // Drain at most one backlogged eager send toward that peer.
            let next = ep.backlog.get_mut(&from).and_then(VecDeque::pop_front);
            if let Some((tag, send_id, data)) = next {
                let took = eng.state.endpoint(at).take_credit(from);
                debug_assert!(took);
                eng.state.endpoint(at).stats.eager_sends += 1;
                inject_eager(eng, at, from, tag, send_id, data);
            }
        }
    }
}

/// Handle a NIC-generated packet (completion, remote note, NACK) delivered
/// to `at`. The world's [`Protocol::deliver`] routes every non-`User`
/// packet here.
pub fn handle_completion<S: PhotonWorld>(
    eng: &mut Engine<S>,
    from: LocalityId,
    at: LocalityId,
    packet: Packet<S::Msg>,
) {
    match packet {
        Packet::PutDone { op, moved } | Packet::GetDone { op, moved } => {
            let hint = moved.map(|generation| (from, generation));
            if eng.state.endpoint(at).compq.is_some() {
                ring_coalesce_completion(eng, at, CompEvent::Done { op, hint });
            } else {
                deliver_done(eng, at, op, hint);
            }
        }
        Packet::AmoDone { op, result, moved } => {
            let hint = moved.map(|generation| (from, generation));
            if eng.state.endpoint(at).compq.is_some() {
                ring_coalesce_completion(eng, at, CompEvent::AmoDone { op, result, hint });
            } else {
                deliver_amo_done(eng, at, op, result, hint);
            }
        }
        Packet::RemoteNote { tag, len } => {
            if tag & RDV_NOTE_BIT != 0 {
                let send_id = tag & !RDV_NOTE_BIT;
                let Some(rr) = eng.state.endpoint(at).rdv_recvs.remove(&send_id) else {
                    eng.state.endpoint(at).stats.protocol_violations += 1;
                    return;
                };
                let data = eng
                    .state
                    .cluster()
                    .mem(at)
                    .read(rr.addr, rr.len as usize)
                    .expect("rendezvous buffer vanished")
                    .to_vec();
                eng.state
                    .cluster()
                    .mem_mut(at)
                    .free_block(rr.addr, rr.class);
                S::recv_complete(eng, at, rr.src, rr.tag, data);
            } else {
                let ep = eng.state.endpoint(at);
                if ep.remote_ledger.len() >= 4096 {
                    ep.remote_ledger.pop_front();
                }
                ep.remote_ledger.push_back((tag, len));
                S::pwc_remote(eng, at, tag, len);
            }
        }
        Packet::XlateMiss { block } => S::xlate_miss_local(eng, at, block),
        Packet::Nack {
            op,
            kind,
            reason,
            block,
        } => match eng.state.endpoint(at).ops.remove(op) {
            Ok(Pending::Pwc { ctx }) => S::pwc_failed(eng, at, ctx, kind, reason, block),
            Ok(Pending::RdvData { .. }) => {
                // Rendezvous data rides on a physical target, which cannot
                // legitimately NACK — a protocol violation, not a crash.
                eng.state.endpoint(at).stats.protocol_violations += 1;
            }
            Err(_) => eng.state.endpoint(at).stats.stale_completions += 1,
        },
        Packet::User(_) => {
            panic!("handle_completion received a User packet; route it via handle_msg")
        }
    }
}

/// Deliver one `PutDone`/`GetDone` through the endpoint table. A redirect
/// hint is surfaced first, and only for a live PWC handle — a stale
/// completion's hint is dropped with it.
fn deliver_done<S: PhotonWorld>(
    eng: &mut Engine<S>,
    at: LocalityId,
    op: OpId,
    hint: Option<Redirect>,
) {
    match eng.state.endpoint(at).ops.remove(op) {
        Ok(Pending::Pwc { ctx }) => {
            if let Some((owner, generation)) = hint {
                S::pwc_redirected(eng, at, ctx, owner, generation);
            }
            S::pwc_complete(eng, at, ctx)
        }
        Ok(Pending::RdvData { send_id }) => S::send_complete(eng, at, send_id),
        // Stale or unknown handle (slot already retired): a late
        // duplicate, or the op was dropped by fault injection.
        Err(_) => eng.state.endpoint(at).stats.stale_completions += 1,
    }
}

/// Deliver one `AmoDone` through the endpoint table.
fn deliver_amo_done<S: PhotonWorld>(
    eng: &mut Engine<S>,
    at: LocalityId,
    op: OpId,
    result: AmoResult,
    hint: Option<Redirect>,
) {
    match eng.state.endpoint(at).ops.remove(op) {
        Ok(Pending::Pwc { ctx }) => {
            if let Some((owner, generation)) = hint {
                S::pwc_redirected(eng, at, ctx, owner, generation);
            }
            S::pwc_amo_complete(eng, at, ctx, result)
        }
        Ok(Pending::RdvData { .. }) => {
            // Rendezvous data never issues AMOs; an AmoDone naming a
            // rendezvous op is a protocol violation, not a crash.
            eng.state.endpoint(at).stats.protocol_violations += 1;
        }
        Err(_) => eng.state.endpoint(at).stats.stale_completions += 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{AmoOp, Cluster, Envelope, NetConfig, XlateEntry};

    enum Msg {
        P(PhotonMsg),
    }

    #[derive(Debug, PartialEq)]
    enum Event {
        PwcDone(u64),
        PwcRemote(u64, u32),
        PwcFail(u64),
        /// `(ctx, owner, generation)` of a redirect hint.
        Redirected(u64, u32, u32),
        AmoDone(u64, u64),
        Recv {
            src: u32,
            tag: u64,
            len: usize,
        },
        SendDone(u64),
    }

    struct World {
        cluster: Cluster,
        eps: Vec<PhotonEndpoint>,
        events: Vec<(Time, LocalityId, Event)>,
        payloads: Vec<Vec<u8>>,
    }

    impl World {
        fn new(n: usize, pcfg: PhotonConfig) -> World {
            World {
                cluster: Cluster::new(n, NetConfig::ideal(), 1 << 26),
                eps: (0..n).map(|_| PhotonEndpoint::new(pcfg)).collect(),
                events: Vec::new(),
                payloads: Vec::new(),
            }
        }
    }

    impl Protocol for World {
        type Msg = Msg;
        fn cluster(&mut self) -> &mut Cluster {
            &mut self.cluster
        }
        fn cluster_ref(&self) -> &Cluster {
            &self.cluster
        }
        fn deliver(eng: &mut Engine<Self>, env: Envelope<Msg>) {
            match env.packet {
                Packet::User(Msg::P(p)) => handle_msg(eng, env.src, env.dst, p),
                other => handle_completion(eng, env.src, env.dst, other),
            }
        }
    }

    impl PhotonWorld for World {
        fn endpoint(&mut self, loc: LocalityId) -> &mut PhotonEndpoint {
            &mut self.eps[loc as usize]
        }
        fn wrap(msg: PhotonMsg) -> Msg {
            Msg::P(msg)
        }
        fn pwc_complete(eng: &mut Engine<Self>, loc: LocalityId, ctx: OpId) {
            let now = eng.now();
            eng.state.events.push((now, loc, Event::PwcDone(ctx.raw())));
        }
        fn pwc_redirected(
            eng: &mut Engine<Self>,
            loc: LocalityId,
            ctx: OpId,
            owner: LocalityId,
            generation: u32,
        ) {
            let now = eng.now();
            let ev = Event::Redirected(ctx.raw(), owner, generation);
            eng.state.events.push((now, loc, ev));
        }
        fn pwc_remote(eng: &mut Engine<Self>, loc: LocalityId, tag: u64, len: u32) {
            let now = eng.now();
            eng.state
                .events
                .push((now, loc, Event::PwcRemote(tag, len)));
        }
        fn pwc_failed(
            eng: &mut Engine<Self>,
            loc: LocalityId,
            ctx: OpId,
            _kind: OpKind,
            _reason: NackReason,
            _block: u64,
        ) {
            let now = eng.now();
            eng.state.events.push((now, loc, Event::PwcFail(ctx.raw())));
        }
        fn recv_complete(
            eng: &mut Engine<Self>,
            loc: LocalityId,
            src: LocalityId,
            tag: u64,
            data: Vec<u8>,
        ) {
            let now = eng.now();
            let len = data.len();
            eng.state.payloads.push(data);
            eng.state
                .events
                .push((now, loc, Event::Recv { src, tag, len }));
        }
        fn send_complete(eng: &mut Engine<Self>, loc: LocalityId, send_id: u64) {
            let now = eng.now();
            eng.state.events.push((now, loc, Event::SendDone(send_id)));
        }
        fn pwc_amo_complete(eng: &mut Engine<Self>, loc: LocalityId, ctx: OpId, result: AmoResult) {
            let now = eng.now();
            eng.state
                .events
                .push((now, loc, Event::AmoDone(ctx.raw(), result.old)));
        }
    }

    fn world(n: usize) -> Engine<World> {
        Engine::new(World::new(n, PhotonConfig::default()), 5)
    }

    fn ring_world(n: usize, ring: netsim::RingConfig) -> Engine<World> {
        let pcfg = PhotonConfig {
            ring: Some(ring),
            ..PhotonConfig::default()
        };
        Engine::new(World::new(n, pcfg), 5)
    }

    fn events_of(eng: &Engine<World>, loc: LocalityId) -> Vec<&Event> {
        eng.state
            .events
            .iter()
            .filter(|(_, l, _)| *l == loc)
            .map(|(_, _, e)| e)
            .collect()
    }

    #[test]
    fn pwc_put_completes_with_remote_note() {
        let mut eng = world(2);
        let base = eng.state.cluster.mem_mut(1).alloc_block(12).unwrap();
        eng.state.cluster.install_xlate(
            1,
            77,
            XlateEntry {
                base,
                len: 4096,
                generation: 1,
            },
        );
        pwc_put(
            &mut eng,
            0,
            1,
            RdmaTarget::Virt {
                block: 77,
                offset: 128,
            },
            vec![0xAA; 64],
            OpId::from_raw(9),
            Some(500),
            None,
        );
        eng.run();
        assert_eq!(
            eng.state.cluster.mem(1).read(base + 128, 64).unwrap(),
            &[0xAA; 64][..]
        );
        assert_eq!(events_of(&eng, 0), vec![&Event::PwcDone(9)]);
        assert_eq!(events_of(&eng, 1), vec![&Event::PwcRemote(500, 64)]);
        assert_eq!(eng.state.eps[0].outstanding_ops(), 0);
    }

    #[test]
    fn pwc_get_completes() {
        let mut eng = world(2);
        let remote = eng.state.cluster.mem_mut(1).alloc_block(12).unwrap();
        eng.state
            .cluster
            .mem_mut(1)
            .write(remote, &[3u8; 256])
            .unwrap();
        eng.state.cluster.install_xlate(
            1,
            88,
            XlateEntry {
                base: remote,
                len: 4096,
                generation: 1,
            },
        );
        let local = eng.state.cluster.mem_mut(0).alloc_block(12).unwrap();
        pwc_get(
            &mut eng,
            0,
            1,
            RdmaTarget::Virt {
                block: 88,
                offset: 0,
            },
            256,
            local,
            OpId::from_raw(4),
            Some((local, 256)),
        );
        eng.run();
        assert_eq!(
            eng.state.cluster.mem(0).read(local, 256).unwrap(),
            &[3u8; 256][..]
        );
        assert_eq!(events_of(&eng, 0), vec![&Event::PwcDone(4)]);
    }

    #[test]
    fn pwc_put_to_unknown_block_fails() {
        let mut eng = world(2);
        pwc_put(
            &mut eng,
            0,
            1,
            RdmaTarget::Virt {
                block: 0xBAD,
                offset: 0,
            },
            vec![1; 8],
            OpId::from_raw(7),
            None,
            None,
        );
        eng.run();
        assert_eq!(events_of(&eng, 0), vec![&Event::PwcFail(7)]);
        assert_eq!(eng.state.eps[0].outstanding_ops(), 0);
    }

    #[test]
    fn eager_send_recv_round_trip() {
        let mut eng = world(2);
        post_recv(&mut eng, 1, 42);
        let id = send(&mut eng, 0, 1, 42, vec![9u8; 100], None);
        eng.run();
        assert!(events_of(&eng, 0).contains(&&Event::SendDone(id)));
        assert!(events_of(&eng, 1).contains(&&Event::Recv {
            src: 0,
            tag: 42,
            len: 100
        }));
        assert_eq!(eng.state.payloads[0], vec![9u8; 100]);
        // Credit flowed back.
        assert_eq!(
            eng.state.eps[0].credits_to(1),
            PhotonConfig::default().ledger_slots
        );
        assert_eq!(eng.state.eps[0].stats.eager_sends, 1);
        assert_eq!(eng.state.eps[0].stats.rdv_sends, 0);
    }

    #[test]
    fn unexpected_message_waits_for_post() {
        let mut eng = world(2);
        send(&mut eng, 0, 1, 13, vec![1u8; 10], None);
        eng.run();
        assert!(events_of(&eng, 1).is_empty());
        assert_eq!(eng.state.eps[1].match_queue().unexpected_len(), 1);
        post_recv(&mut eng, 1, 13);
        eng.run();
        assert!(events_of(&eng, 1).contains(&&Event::Recv {
            src: 0,
            tag: 13,
            len: 10
        }));
    }

    #[test]
    fn wildcard_recv_matches() {
        let mut eng = world(2);
        post_recv(&mut eng, 1, ANY_TAG);
        send(&mut eng, 0, 1, 0xFEED, vec![2u8; 4], None);
        eng.run();
        assert!(events_of(&eng, 1).contains(&&Event::Recv {
            src: 0,
            tag: 0xFEED,
            len: 4
        }));
    }

    #[test]
    fn large_send_uses_rendezvous_zero_copy() {
        let mut eng = world(2);
        post_recv(&mut eng, 1, 7);
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let id = send(&mut eng, 0, 1, 7, payload.clone(), None);
        eng.run();
        assert_eq!(eng.state.eps[0].stats.rdv_sends, 1);
        assert_eq!(eng.state.eps[0].stats.eager_sends, 0);
        assert!(events_of(&eng, 0).contains(&&Event::SendDone(id)));
        assert!(events_of(&eng, 1).contains(&&Event::Recv {
            src: 0,
            tag: 7,
            len: 100_000
        }));
        assert_eq!(eng.state.payloads[0], payload);
        // The landing buffer was freed.
        assert_eq!(eng.state.cluster.mem(1).live_blocks(), 0);
    }

    #[test]
    fn rendezvous_pays_handshake_at_threshold_boundary() {
        let time_for = |len: usize| {
            let mut eng = world(2);
            post_recv(&mut eng, 1, 1);
            send(&mut eng, 0, 1, 1, vec![0u8; len], None);
            eng.run();
            eng.state
                .events
                .iter()
                .find(|(_, l, e)| *l == 1 && matches!(e, Event::Recv { .. }))
                .map(|(t, _, _)| *t)
                .unwrap()
        };
        let thr = PhotonConfig::default().eager_threshold as usize;
        let eager = time_for(thr);
        let rdv = time_for(thr + 1);
        // One byte more crosses into rendezvous: two extra control latencies.
        assert!(rdv > eager + Time::from_ns(150), "eager={eager} rdv={rdv}");
    }

    #[test]
    fn eager_credit_stall_and_drain() {
        let pcfg = PhotonConfig {
            ledger_slots: 2,
            ..PhotonConfig::default()
        };
        let mut eng = Engine::new(World::new(2, pcfg), 5);
        for i in 0..5 {
            send(&mut eng, 0, 1, i, vec![i as u8; 16], None);
        }
        eng.run();
        assert_eq!(eng.state.eps[0].stats.stalled_sends, 3);
        assert_eq!(eng.state.eps[0].stats.eager_sends, 2);
        // Receiver now posts all five; credits recycle and drain the backlog.
        for _ in 0..5 {
            post_recv(&mut eng, 1, ANY_TAG);
        }
        eng.run();
        let recvs = events_of(&eng, 1)
            .iter()
            .filter(|e| matches!(e, Event::Recv { .. }))
            .count();
        assert_eq!(recvs, 5);
        assert_eq!(eng.state.eps[0].stats.eager_sends, 5);
    }

    #[test]
    fn registration_cache_amortizes_rendezvous_pins() {
        let run = |rcache_enabled: bool| {
            let pcfg = PhotonConfig {
                rcache_enabled,
                ..PhotonConfig::default()
            };
            let mut eng = Engine::new(World::new(2, pcfg), 5);
            let src_buf = eng.state.cluster.mem_mut(0).alloc_block(20).unwrap();
            // Two rendezvous sends from the same (registered) buffer.
            for round in 0..2u64 {
                post_recv(&mut eng, 1, round);
                send(
                    &mut eng,
                    0,
                    1,
                    round,
                    vec![0u8; 500_000],
                    Some((src_buf, 500_000)),
                );
                eng.run();
            }
            let now = eng.now();
            (now, eng.state.eps[0].rcache_stats())
        };
        let (t_cached, (hits, _)) = run(true);
        let (t_uncached, (hits_off, _)) = run(false);
        assert!(hits > 0);
        assert_eq!(hits_off, 0);
        assert!(t_cached < t_uncached, "{t_cached} !< {t_uncached}");
    }

    #[test]
    fn local_send_loops_back() {
        let mut eng = world(1);
        post_recv(&mut eng, 0, 3);
        send(&mut eng, 0, 0, 3, vec![5u8; 8], None);
        eng.run();
        assert!(events_of(&eng, 0).contains(&&Event::Recv {
            src: 0,
            tag: 3,
            len: 8
        }));
    }

    #[test]
    fn many_interleaved_sends_all_arrive_in_order() {
        let mut eng = world(2);
        for _ in 0..50 {
            post_recv(&mut eng, 1, ANY_TAG);
        }
        for i in 0..50u64 {
            send(&mut eng, 0, 1, i, vec![(i & 0xFF) as u8; 32], None);
        }
        eng.run();
        let tags: Vec<u64> = eng
            .state
            .events
            .iter()
            .filter_map(|(_, l, e)| match e {
                Event::Recv { tag, .. } if *l == 1 => Some(*tag),
                _ => None,
            })
            .collect();
        assert_eq!(tags, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn duplicated_put_ack_cannot_double_complete() {
        let mut eng = world(2);
        let addr = eng.state.cluster.mem_mut(1).alloc_block(10).unwrap();
        let op = pwc_put(
            &mut eng,
            0,
            1,
            RdmaTarget::Phys(addr),
            vec![1u8; 16],
            OpId::from_raw(4),
            None,
            None,
        );
        eng.run();
        assert_eq!(events_of(&eng, 0), vec![&Event::PwcDone(4)]);
        // A late duplicate of the hardware ack echoes a retired handle: the
        // generation check drops it instead of double-completing.
        let echo = Packet::<Msg>::PutDone { op, moved: None };
        handle_completion(&mut eng, 1, 0, echo);
        assert_eq!(events_of(&eng, 0), vec![&Event::PwcDone(4)]);
        assert_eq!(eng.state.eps[0].stats.stale_completions, 1);
    }

    #[test]
    fn duplicated_nack_cannot_double_fail() {
        let mut eng = world(2);
        let op = pwc_put(
            &mut eng,
            0,
            1,
            RdmaTarget::Virt {
                block: 0xBAD,
                offset: 0,
            },
            vec![1u8; 8],
            OpId::from_raw(6),
            None,
            None,
        );
        eng.run();
        assert_eq!(events_of(&eng, 0), vec![&Event::PwcFail(6)]);
        handle_completion(
            &mut eng,
            1,
            0,
            Packet::<Msg>::Nack {
                op,
                kind: OpKind::Put,
                reason: NackReason::Miss,
                block: 0xBAD,
            },
        );
        assert_eq!(events_of(&eng, 0), vec![&Event::PwcFail(6)]);
        assert_eq!(eng.state.eps[0].stats.stale_completions, 1);
    }

    #[test]
    fn fault_plane_duplication_is_absorbed_by_the_op_table() {
        use netsim::{FaultPlan, FaultPlane, FaultRates};
        let mut eng = world(2);
        // Duplicate *everything* faultable: the put request commits twice
        // (same bytes, idempotent) and each commit acks twice — three of
        // the four acks must be dropped as stale.
        eng.state.cluster.faults = Some(FaultPlane::new(FaultPlan {
            rates: FaultRates {
                dup: 1.0,
                ..FaultRates::lossless()
            },
            ..FaultPlan::lossless(99)
        }));
        let addr = eng.state.cluster.mem_mut(1).alloc_block(10).unwrap();
        pwc_put(
            &mut eng,
            0,
            1,
            RdmaTarget::Phys(addr),
            vec![7u8; 32],
            OpId::from_raw(3),
            None,
            None,
        );
        eng.run();
        assert_eq!(
            eng.state.cluster.mem(1).read(addr, 32).unwrap(),
            &[7u8; 32][..]
        );
        assert_eq!(events_of(&eng, 0), vec![&Event::PwcDone(3)]);
        assert_eq!(eng.state.eps[0].stats.stale_completions, 3);
        assert_eq!(eng.state.eps[0].outstanding_ops(), 0);
        let stats = eng.state.cluster.fault_stats();
        assert_eq!(stats.duplicated, 3, "one request dup + one dup per ack");
    }

    fn install_block(eng: &mut Engine<World>, loc: LocalityId, block: u64) -> PhysAddr {
        let base = eng.state.cluster.mem_mut(loc).alloc_block(12).unwrap();
        eng.state.cluster.install_xlate(
            loc,
            block,
            XlateEntry {
                base,
                len: 4096,
                generation: 1,
            },
        );
        base
    }

    #[test]
    fn pwc_injects_from_the_caller_unless_registration_takes_time() {
        let mut eng = world(2);
        install_block(&mut eng, 1, 9);
        let at = RdmaTarget::Virt {
            block: 9,
            offset: 0,
        };
        let local = eng.state.cluster.mem_mut(0).alloc_block(12).unwrap();
        let gets = |eng: &Engine<World>| eng.state.cluster.loc(0).counters.rdma_gets;
        let get = |eng: &mut Engine<World>, id, local_src| {
            pwc_get(eng, 0, 1, at, 8, local, OpId::from_raw(id), local_src);
        };
        // Pre-registered: on the wire before `pwc` returns, nothing left
        // to run at the issue instant.
        get(&mut eng, 1, None);
        assert_eq!(gets(&eng), 1);
        assert_eq!(eng.run_until(eng.now()), 0);
        eng.run();
        // A first-touch buffer waits for its pin in one event, then injects.
        let t0 = eng.now();
        let pending = eng.events_pending();
        get(&mut eng, 2, Some((local, 8)));
        assert_eq!((gets(&eng), eng.events_pending()), (1, pending + 1));
        let cfg = PhotonConfig::default();
        eng.run_until(t0 + cfg.reg_base + cfg.reg_per_page);
        assert_eq!(gets(&eng), 2);
        // The pin is cached now: the next get from that buffer is inline.
        get(&mut eng, 3, Some((local, 8)));
        assert_eq!(gets(&eng), 3);
        eng.run();
        assert_eq!(eng.state.eps[0].rcache_stats(), (1, 1));
        assert_eq!(eng.state.eps[0].outstanding_ops(), 0);
    }

    #[test]
    fn amo_registers_nothing_whatever_local_src_says() {
        let mut eng = world(2);
        install_block(&mut eng, 1, 5);
        let local = eng.state.cluster.mem_mut(0).alloc_block(12).unwrap();
        let amo = Verb::Amo {
            amo: AmoOp::FetchAdd { operand: 1 },
            key: (0, 1),
        };
        let at = RdmaTarget::Virt {
            block: 5,
            offset: 0,
        };
        pwc(&mut eng, 0, 1, at, amo, OpId::from_raw(1), Some((local, 8)));
        // Its operands ride in the request: no pin, no wait, already posted.
        assert_eq!(eng.state.cluster.loc(0).counters.rdma_amos, 1);
        assert_eq!(eng.state.eps[0].rcache_stats(), (0, 0));
        eng.run();
        assert_eq!(events_of(&eng, 0), vec![&Event::AmoDone(1, 0)]);
    }

    #[test]
    fn ring_batches_puts_under_one_doorbell() {
        let mut eng = ring_world(
            2,
            netsim::RingConfig {
                doorbell_batch: 4,
                ..netsim::RingConfig::default()
            },
        );
        let base = install_block(&mut eng, 1, 77);
        for i in 0..4u64 {
            pwc_put(
                &mut eng,
                0,
                1,
                RdmaTarget::Virt {
                    block: 77,
                    offset: i * 64,
                },
                vec![i as u8 + 1; 64],
                OpId::from_raw(i),
                None,
                None,
            );
        }
        eng.run();
        for i in 0..4u64 {
            assert_eq!(
                eng.state.cluster.mem(1).read(base + i * 64, 64).unwrap(),
                &[i as u8 + 1; 64][..]
            );
            assert!(events_of(&eng, 0).contains(&&Event::PwcDone(i)));
        }
        let stats = eng.state.eps[0].ring_stats();
        // Four descriptors entered the fabric under a single submission
        // doorbell (completions add their own ring doorbells).
        assert!(stats.descs >= 4, "expected 4+ descs, got {stats:?}");
        assert!(stats.coalesced >= 3, "expected coalescing, got {stats:?}");
        assert_eq!(eng.state.eps[0].ring_occupancy(), 0);
        assert_eq!(eng.state.eps[0].outstanding_ops(), 0);
    }

    #[test]
    fn redirect_hint_survives_coalescing_and_dies_with_a_retired_handle() {
        // Block 55 lives at locality 2 under generation 9; locality 1 (the
        // initiator's stale guess) keeps the forwarding tombstone.
        let mut eng = ring_world(3, netsim::RingConfig::default());
        let base = eng.state.cluster.mem_mut(2).alloc_block(12).unwrap();
        let entry = XlateEntry {
            base,
            len: 4096,
            generation: 9,
        };
        eng.state.cluster.install_xlate(2, 55, entry);
        eng.state
            .cluster
            .loc_mut(1)
            .nic
            .xlate
            .retire_to_forward(55, 2, 8);
        let at = RdmaTarget::Virt {
            block: 55,
            offset: 0,
        };
        let put = pwc_put(
            &mut eng,
            0,
            1,
            at,
            vec![7u8; 8],
            OpId::from_raw(1),
            None,
            None,
        );
        let amo = Verb::Amo {
            amo: AmoOp::FetchAdd { operand: 1 },
            key: (0, 2),
        };
        pwc(&mut eng, 0, 1, at, amo, OpId::from_raw(2), None);
        eng.run();
        // Both completions sat in the coalescing ring and came out with
        // their hint, each surfaced just before its completion callback.
        assert!(
            eng.state.eps[0].ring_stats().descs >= 4,
            "2 requests + 2 acks"
        );
        // Both inject from the caller, in issue order: the put lands
        // first, so the AMO fetches the bytes it wrote.
        assert_eq!(
            events_of(&eng, 0),
            vec![
                &Event::Redirected(1, 2, 9),
                &Event::PwcDone(1),
                &Event::Redirected(2, 2, 9),
                &Event::AmoDone(2, 0x0707_0707_0707_0707),
            ]
        );
        // A late echo of the hinted ack names a retired handle: it is
        // counted stale and its hint is dropped with it.
        let echo = Packet::<Msg>::PutDone {
            op: put,
            moved: Some(9),
        };
        handle_completion(&mut eng, 2, 0, echo);
        eng.run();
        assert_eq!(events_of(&eng, 0).len(), 4);
        assert_eq!(eng.state.eps[0].stats.stale_completions, 1);
        assert_eq!(eng.state.eps[0].ring_occupancy(), 0);
    }

    #[test]
    fn ring_doorbell_timer_flushes_partial_batch() {
        let mut eng = ring_world(2, netsim::RingConfig::default());
        let base = install_block(&mut eng, 1, 9);
        // Two puts: far below the 16-descriptor batch, so only the
        // doorbell_delay timer can inject them.
        for i in 0..2u64 {
            pwc_put(
                &mut eng,
                0,
                1,
                RdmaTarget::Virt {
                    block: 9,
                    offset: i * 8,
                },
                vec![0xEE; 8],
                OpId::from_raw(i),
                None,
                None,
            );
        }
        eng.run();
        assert_eq!(
            eng.state.cluster.mem(1).read(base, 8).unwrap(),
            &[0xEE; 8][..]
        );
        assert!(events_of(&eng, 0).contains(&&Event::PwcDone(0)));
        assert!(events_of(&eng, 0).contains(&&Event::PwcDone(1)));
        assert_eq!(eng.state.eps[0].ring_occupancy(), 0);
        // Ring-path latency includes the doorbell delay.
        let done_at = eng
            .state
            .events
            .iter()
            .find(|(_, l, e)| *l == 0 && matches!(e, Event::PwcDone(0)))
            .map(|(t, _, _)| *t)
            .unwrap();
        assert!(done_at >= netsim::RingConfig::default().doorbell_delay);
    }

    #[test]
    fn ring_batches_amos_and_counts_them() {
        let mut eng = ring_world(
            2,
            netsim::RingConfig {
                doorbell_batch: 3,
                ..netsim::RingConfig::default()
            },
        );
        let base = install_block(&mut eng, 1, 5);
        eng.state
            .cluster
            .mem_mut(1)
            .write(base, &7u64.to_le_bytes())
            .unwrap();
        for i in 0..3u64 {
            pwc(
                &mut eng,
                0,
                1,
                RdmaTarget::Virt {
                    block: 5,
                    offset: 0,
                },
                Verb::Amo {
                    amo: AmoOp::FetchAdd { operand: 1 },
                    key: (0, 1000 + i),
                },
                OpId::from_raw(i),
                None,
            );
        }
        eng.run();
        let olds: Vec<u64> = eng
            .state
            .events
            .iter()
            .filter_map(|(_, l, e)| match e {
                Event::AmoDone(_, old) if *l == 0 => Some(*old),
                _ => None,
            })
            .collect();
        assert_eq!(olds, vec![7, 8, 9], "FIFO ring order preserves AMO order");
        assert_eq!(eng.state.eps[0].stats.amo_batched, 3);
        assert_eq!(eng.state.eps[0].outstanding_ops(), 0);
    }

    #[test]
    fn ring_disabled_matches_legacy_issue_path() {
        // The same workload with and without a never-batching ring: the
        // ring adds scheduling hops but must not change outcomes.
        let outcome = |ring: Option<netsim::RingConfig>| {
            let pcfg = PhotonConfig {
                ring,
                ..PhotonConfig::default()
            };
            let mut eng = Engine::new(World::new(2, pcfg), 5);
            let base = install_block(&mut eng, 1, 77);
            for i in 0..5u64 {
                pwc_put(
                    &mut eng,
                    0,
                    1,
                    RdmaTarget::Virt {
                        block: 77,
                        offset: i * 8,
                    },
                    vec![i as u8; 8],
                    OpId::from_raw(i),
                    None,
                    None,
                );
            }
            eng.run();
            let mem: Vec<u8> = eng.state.cluster.mem(1).read(base, 40).unwrap().to_vec();
            let dones = events_of(&eng, 0).len();
            (mem, dones)
        };
        let plain = outcome(None);
        let ringed = outcome(Some(netsim::RingConfig {
            doorbell_batch: 1,
            ..netsim::RingConfig::default()
        }));
        assert_eq!(plain.0, ringed.0);
        assert_eq!(plain.1, ringed.1);
    }

    #[test]
    fn remote_ledger_accumulates_and_drains() {
        let mut eng = world(2);
        install_block(&mut eng, 1, 5);
        for tag in 0..4u64 {
            pwc_put(
                &mut eng,
                0,
                1,
                RdmaTarget::Virt {
                    block: 5,
                    offset: tag * 64,
                },
                vec![1u8; 16],
                OpId::from_raw(tag),
                Some(100 + tag),
                None,
            );
        }
        eng.run();
        assert_eq!(eng.state.eps[1].ledger_depth(), 4);
        assert_eq!(eng.state.eps[1].probe_ledger(), Some((100, 16)));
        assert_eq!(eng.state.eps[1].probe_ledger(), Some((101, 16)));
        assert_eq!(eng.state.eps[1].ledger_depth(), 2);
        assert_eq!(eng.state.eps[0].ledger_depth(), 0);
    }

    #[test]
    fn remote_ledger_is_capacity_bounded() {
        let mut eng = world(2);
        install_block(&mut eng, 1, 5);
        // Overflow the 4096-entry ring: oldest entries must be dropped,
        // never unbounded growth.
        for tag in 0..4200u64 {
            pwc_put(
                &mut eng,
                0,
                1,
                RdmaTarget::Virt {
                    block: 5,
                    offset: 0,
                },
                vec![1u8; 8],
                OpId::from_raw(tag),
                Some(tag),
                None,
            );
        }
        eng.run();
        assert_eq!(eng.state.eps[1].ledger_depth(), 4096);
        // The oldest surviving entry is 4200 - 4096 = 104.
        assert_eq!(eng.state.eps[1].probe_ledger(), Some((104, 8)));
    }
}
