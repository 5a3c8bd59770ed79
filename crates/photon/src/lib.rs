//! # photon — RMA middleware reproduction
//!
//! A reproduction of the Photon remote-memory-access middleware (Kissel &
//! Swany, IPDRM'16) that HPX-5's network layer — and this paper's
//! network-managed address space — is built on. Photon's defining primitive
//! is **put/get-with-completion (PWC)**: a one-sided operation that delivers
//! a *local* completion identifier to the initiator and, for puts, a
//! *remote* completion identifier at the target (here the
//! [`PhotonWorld::pwc_remote`] callback, the one remote-completion
//! channel), letting a message-driven runtime attach rendezvous-free
//! notifications to RDMA.
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
//!
//! Photon keeps no record of a PWC op. The caller's completion identifier
//! is the op's wire token, as on a NIC that hands the initiator back the
//! identifier it was given: every answer reaches the caller under that
//! handle, and the caller's own op table decides whether it is live.
//! Photon tracks only what it issues itself, a rendezvous payload put.

pub mod config;
pub mod matching;
pub mod rcache;

pub use config::PhotonConfig;
pub use matching::{MatchQueue, Unexpected, ANY_TAG};
pub use rcache::RegCache;

use netsim::{
    rdma_issue, rdma_put, send_user, Access, AmoResult, Engine, FaultClass, LocalityId, NackReason,
    OpId, OpKind, Packet, PhysAddr, Protocol, PutReq, RdmaTarget, Time, Verb,
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
    /// Duplicate acks of a rendezvous payload put that already completed,
    /// dropped.
    pub stale_completions: u64,
    /// Control messages that violated the protocol state machine (e.g. a
    /// CTS for an unknown rendezvous send), dropped.
    pub protocol_violations: u64,
}

/// Slot index of a rendezvous payload put's wire token, whose generation
/// is the send id. No [`netsim::OpTable`] mints this index, so a PWC
/// caller's handle never collides with one.
const RDV_TOKEN: u32 = u32::MAX;

/// The remote-note tag of `src`'s rendezvous payload put for `send_id`,
/// which also keys the receiver's landing record: every endpoint numbers
/// its sends from 0, so only the sender beside its send id names one
/// receive.
fn rdv_note(src: LocalityId, send_id: u64) -> u64 {
    debug_assert!(src < 1 << 31 && send_id <= u64::from(u32::MAX));
    RDV_NOTE_BIT | u64::from(src) << 32 | send_id
}

/// A completion's redirect hint — `(owner, generation)`: the request was
/// NIC-forwarded and committed at `owner` under that translation
/// generation (the ack's source plus the packet's `moved`).
type Redirect = (LocalityId, u32);

/// A rendezvous send, from its RTS until its payload put is acked.
struct RdvSend {
    dst: LocalityId,
    /// The payload, until the CTS posts it.
    data: Vec<u8>,
    local_src: Option<(PhysAddr, u64)>,
    /// Has the CTS posted the payload put?
    posted: bool,
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
    rcache: RegCache,
    matching: MatchQueue,
    credits: HashMap<LocalityId, usize>,
    backlog: HashMap<LocalityId, VecDeque<(u64, u64, Vec<u8>)>>, // (tag, send_id, data)
    rdv_sends: HashMap<u64, RdvSend>,
    /// Landing records, keyed by their payload put's [`rdv_note`] tag.
    rdv_recvs: HashMap<u64, RdvRecv>,
    /// Send ids stay within `u32` so a payload put's token carries one.
    next_send_id: u32,
}

impl PhotonEndpoint {
    /// Create an endpoint with the given configuration.
    pub fn new(cfg: PhotonConfig) -> PhotonEndpoint {
        PhotonEndpoint {
            rcache: RegCache::new(),
            stats: PhotonStats::default(),
            matching: MatchQueue::new(),
            credits: HashMap::new(),
            backlog: HashMap::new(),
            rdv_sends: HashMap::new(),
            rdv_recvs: HashMap::new(),
            next_send_id: 0,
            cfg,
        }
    }

    /// Registration-cache statistics: `(hits, misses)` in pages.
    pub fn rcache_stats(&self) -> (u64, u64) {
        (self.rcache.hits(), self.rcache.misses())
    }

    /// One-sided operations photon itself has in flight: rendezvous
    /// payload puts not yet acked. A PWC op is the caller's to track.
    pub fn outstanding_ops(&self) -> usize {
        self.rdv_sends.values().filter(|r| r.posted).count()
    }

    /// The matching engine (exposed for tests and diagnostics).
    pub fn match_queue(&self) -> &MatchQueue {
        &self.matching
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
    /// op handle, as given to [`pwc`].
    ///
    /// Every PWC callback passes the answer through under the caller's
    /// handle, unchecked: under a duplicating or delaying fault plane an
    /// answer can arrive twice, or after the caller gave up on that
    /// attempt, and the caller's own op table drops it.
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

// ------------------------------------------------------------------ PWC

/// One-sided access with completion — the single PWC issue path. `ctx` is
/// the op's wire token, returned as is: it comes back via
/// [`PhotonWorld::pwc_complete`] (puts, gets),
/// [`PhotonWorld::pwc_amo_complete`] (AMOs: the target NIC translates the
/// block and executes the op in the same visit), or `pwc_failed`. Its slot
/// index must not be `u32::MAX`, which photon keeps for its own puts. A put's
/// `remote_tag`, if set, surfaces at the target via
/// [`PhotonWorld::pwc_remote`]; `local_src` describes the initiator-side
/// buffer for registration-cost accounting (`None` = pre-registered pool,
/// e.g. the runtime's scratch allocator).
///
/// The op is posted from the caller: it reaches the fabric before `pwc`
/// returns, so its first wire leg is keyed from whoever issued it. Photon
/// keeps no record of a PWC op, so bounding how many are posted is the
/// caller's (the GAS posts at most `agas::POST_DEPTH` per locality and
/// queues the rest as bare handles). The one
/// wait PWC models is registration — a `local_src` that misses the
/// registration cache is posted by a single event at `now + reg_delay`.
///
/// An AMO's operands ride in the control-sized request, so an AMO
/// registers nothing whatever `local_src` says. Its [`Verb::Amo`] `key` is
/// the caller's retry-stable dedup identity — it must survive re-issue
/// (a caller that gives each attempt a fresh `ctx` keeps the op's first
/// handle here) so the target's responder cache can recognize a retry of
/// an already-executed op.
pub fn pwc<S: PhotonWorld>(
    eng: &mut Engine<S>,
    src: LocalityId,
    dst: LocalityId,
    at: RdmaTarget,
    verb: Verb,
    ctx: OpId,
    local_src: Option<(PhysAddr, u64)>,
) -> OpId {
    if let Some(tag) = verb.remote_tag() {
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
    debug_assert_ne!(ctx.index(), RDV_TOKEN, "slot index u32::MAX is photon's");
    let ttl = eng.state.cluster_ref().config.forward_ttl;
    let req = Box::new(Access::new(dst, at, verb, ctx, ttl, FaultClass::Request));
    if reg_delay == Time::ZERO {
        rdma_issue(eng, src, req);
    } else {
        let at = eng.now() + reg_delay;
        eng.schedule_at_loc(at, src, move |eng| rdma_issue(eng, src, req));
    }
    ctx
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
    let verb = Verb::put(data.into(), remote_tag);
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
    let send_id = u64::from(ep.next_send_id);
    ep.next_send_id = ep.next_send_id.wrapping_add(1);
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
                posted: false,
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
        rdv_note(src, send_id),
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
            let Some(rdv) = ep.rdv_sends.get_mut(&send_id).filter(|r| !r.posted) else {
                // A duplicate or forged CTS: count and drop.
                ep.stats.protocol_violations += 1;
                return;
            };
            debug_assert_eq!(rdv.dst, from);
            // The record stays until the put's ack, so a duplicate ack
            // finds it gone.
            rdv.posted = true;
            let (data, local_src) = (std::mem::take(&mut rdv.data), rdv.local_src);
            let reg_delay = match local_src {
                Some((addr, len)) => ep.rcache.register(&cfg, addr, len),
                None => Time::ZERO,
            };
            let req = PutReq {
                target: from,
                dst: RdmaTarget::Phys(dst),
                data,
                op: OpId::from_parts(RDV_TOKEN, send_id as u32),
                remote_tag: Some(rdv_note(at, send_id)),
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
            deliver_done(eng, at, op, None, hint);
        }
        Packet::AmoDone { op, result, moved } => {
            let hint = moved.map(|generation| (from, generation));
            deliver_done(eng, at, op, Some(result), hint);
        }
        Packet::RemoteNote { tag, len } => {
            if tag & RDV_NOTE_BIT != 0 {
                let Some(rr) = eng.state.endpoint(at).rdv_recvs.remove(&tag) else {
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
                S::pwc_remote(eng, at, tag, len);
            }
        }
        Packet::XlateMiss { block } => S::xlate_miss_local(eng, at, block),
        Packet::Nack {
            op,
            kind,
            reason,
            block,
        } => {
            if op.index() == RDV_TOKEN {
                // Rendezvous data rides on a physical target, which cannot
                // legitimately NACK — a protocol violation, not a crash.
                eng.state.endpoint(at).stats.protocol_violations += 1;
            } else {
                S::pwc_failed(eng, at, op, kind, reason, block);
            }
        }
        Packet::User(_) => {
            panic!("handle_completion received a User packet; route it via handle_msg")
        }
    }
}

/// Deliver one `PutDone`/`GetDone`, or an `AmoDone` with its `result`. A
/// PWC answer passes through under the caller's handle, its redirect hint
/// first; a rendezvous payload put's ack completes its send once.
fn deliver_done<S: PhotonWorld>(
    eng: &mut Engine<S>,
    at: LocalityId,
    op: OpId,
    result: Option<AmoResult>,
    hint: Option<Redirect>,
) {
    if op.index() != RDV_TOKEN {
        if let Some((owner, generation)) = hint {
            S::pwc_redirected(eng, at, op, owner, generation);
        }
        match result {
            None => S::pwc_complete(eng, at, op),
            Some(result) => S::pwc_amo_complete(eng, at, op, result),
        }
        return;
    }
    let send_id = u64::from(op.generation());
    let ep = eng.state.endpoint(at);
    match (ep.rdv_sends.get(&send_id).map(|r| r.posted), result) {
        (Some(true), None) => {
            ep.rdv_sends.remove(&send_id);
            S::send_complete(eng, at, send_id);
        }
        // The send already completed: a duplicated ack.
        (None, None) => ep.stats.stale_completions += 1,
        // An ack before the CTS posted the put, or an AmoDone for a put
        // that issues no AMO: a protocol violation, not a crash.
        _ => ep.stats.protocol_violations += 1,
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

    /// Two senders rendezvous to one receiver at once. Both number their
    /// first send 0; each payload must still land in its own receive.
    #[test]
    fn concurrent_rendezvous_from_two_senders_land_apart() {
        let mut eng = world(3);
        let before = eng.state.cluster.mem(2).live_blocks();
        post_recv(&mut eng, 2, ANY_TAG);
        post_recv(&mut eng, 2, ANY_TAG);
        let len = PhotonConfig::default().eager_threshold as usize + 1;
        for src in 0..2u32 {
            send(&mut eng, src, 2, 5, vec![src as u8 + 1; len], None);
        }
        eng.run();
        let mut got: Vec<(u32, &Vec<u8>)> = events_of(&eng, 2)
            .into_iter()
            .filter_map(|e| match e {
                Event::Recv { src, .. } => Some(*src),
                _ => None,
            })
            .zip(&eng.state.payloads)
            .collect();
        got.sort_unstable_by_key(|&(src, _)| src);
        assert_eq!(got.len(), 2, "one recv_complete per send");
        for (src, data) in got {
            assert_eq!(*data, vec![src as u8 + 1; len], "sender {src}'s bytes");
        }
        assert_eq!(eng.state.eps[2].stats.protocol_violations, 0);
        assert_eq!(eng.state.cluster.mem(2).live_blocks(), before);
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
        let run = |rcache_pages: usize| {
            let pcfg = PhotonConfig {
                rcache_pages,
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
        let (t_cached, (hits, _)) = run(PhotonConfig::default().rcache_pages);
        let (t_uncached, (hits_off, _)) = run(0);
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
    fn pwc_passes_every_answer_through_under_the_callers_handle() {
        use netsim::{FaultPlan, FaultPlane, FaultRates};
        let mut eng = world(2);
        // Duplicate *everything* faultable: the put request commits twice
        // (same bytes, idempotent) and each commit acks twice. Photon keeps
        // no record to drop the copies with; all four reach the caller.
        eng.state.cluster.faults = Some(FaultPlane::new(FaultPlan {
            rates: FaultRates {
                dup: 1.0,
                ..FaultRates::lossless()
            },
            ..FaultPlan::lossless(99)
        }));
        let addr = eng.state.cluster.mem_mut(1).alloc_block(10).unwrap();
        let op = pwc_put(
            &mut eng,
            0,
            1,
            RdmaTarget::Phys(addr),
            vec![7u8; 32],
            OpId::from_raw(3),
            None,
            None,
        );
        assert_eq!(op, OpId::from_raw(3), "the caller's handle is the token");
        assert_eq!(eng.state.eps[0].outstanding_ops(), 0);
        eng.run();
        assert_eq!(
            eng.state.cluster.mem(1).read(addr, 32).unwrap(),
            &[7u8; 32][..]
        );
        assert_eq!(events_of(&eng, 0), vec![&Event::PwcDone(3); 4]);
        assert_eq!(eng.state.cluster.fault_stats().duplicated, 3);
        // A NACK passes through the same way.
        eng.state.cluster.faults = None;
        let nack = Packet::<Msg>::Nack {
            op,
            kind: OpKind::Put,
            reason: NackReason::Miss,
            block: 0xBAD,
        };
        handle_completion(&mut eng, 1, 0, nack);
        assert_eq!(events_of(&eng, 0).last(), Some(&&Event::PwcFail(3)));
        assert_eq!(eng.state.eps[0].stats.stale_completions, 0);
    }

    /// A rendezvous send from 0 to 1, run to completion; returns its id.
    fn rendezvous(eng: &mut Engine<World>) -> u64 {
        post_recv(eng, 1, 7);
        let len = PhotonConfig::default().eager_threshold as usize + 1;
        let id = send(eng, 0, 1, 7, vec![1u8; len], None);
        // Photon tracks the payload put it issues itself, from the CTS to
        // its ack.
        let mut seen_in_flight = false;
        while eng.step() {
            seen_in_flight |= eng.state.eps[0].outstanding_ops() == 1;
        }
        assert!(seen_in_flight);
        assert_eq!(eng.state.eps[0].outstanding_ops(), 0);
        assert_eq!(events_of(eng, 0), vec![&Event::SendDone(id)]);
        id
    }

    #[test]
    fn a_duplicated_rendezvous_ack_completes_the_send_once() {
        let mut eng = world(2);
        let id = rendezvous(&mut eng);
        let echo = Packet::<Msg>::PutDone {
            op: OpId::from_parts(RDV_TOKEN, id as u32),
            moved: None,
        };
        handle_completion(&mut eng, 1, 0, echo);
        assert_eq!(events_of(&eng, 0), vec![&Event::SendDone(id)]);
        assert_eq!(eng.state.eps[0].stats.stale_completions, 1);
    }

    #[test]
    fn a_nack_for_a_rendezvous_put_is_a_protocol_violation() {
        let mut eng = world(2);
        let id = rendezvous(&mut eng);
        let nack = Packet::<Msg>::Nack {
            op: OpId::from_parts(RDV_TOKEN, id as u32),
            kind: OpKind::Put,
            reason: NackReason::Miss,
            block: 0,
        };
        handle_completion(&mut eng, 1, 0, nack);
        assert_eq!(events_of(&eng, 0), vec![&Event::SendDone(id)]);
        assert_eq!(eng.state.eps[0].stats.protocol_violations, 1);
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
        let amo = Verb::amo(AmoOp::FetchAdd { operand: 1 }, (0, 1));
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
    fn redirect_hint_precedes_each_completion() {
        // Block 55 lives at locality 2 under generation 9; locality 1 (the
        // initiator's stale guess) keeps the forwarding tombstone.
        let mut eng = world(3);
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
        pwc_put(
            &mut eng,
            0,
            1,
            at,
            vec![7u8; 8],
            OpId::from_raw(1),
            None,
            None,
        );
        let amo = Verb::amo(AmoOp::FetchAdd { operand: 1 }, (0, 2));
        pwc(&mut eng, 0, 1, at, amo, OpId::from_raw(2), None);
        eng.run();
        // Both inject from the caller, in issue order: the put lands
        // first, so the AMO fetches the bytes it wrote. Each completion
        // carries its hint, surfaced just before its completion callback.
        assert_eq!(
            events_of(&eng, 0),
            vec![
                &Event::Redirected(1, 2, 9),
                &Event::PwcDone(1),
                &Event::Redirected(2, 2, 9),
                &Event::AmoDone(2, 0x0707_0707_0707_0707),
            ]
        );
    }
}
