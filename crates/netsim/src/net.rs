//! Network operations over the simulated cluster.
//!
//! Two primitive operation classes, matching what the Photon middleware
//! needs from the fabric:
//!
//! * [`send_user`] — a two-sided message delivered to the destination's
//!   software handler ([`Protocol::deliver`]); target CPU cost is charged by
//!   the layer that runs the handler.
//! * [`rdma_issue`] — a one-sided [`Access`]: a write ([`rdma_put`]), a read
//!   ([`rdma_get`]) or a NIC-executed active operation, told apart only by
//!   their [`Verb`]. The target may be a raw physical address (classic
//!   registered-memory RDMA, the PGAS fast path) or a *virtual* block key +
//!   offset, translated by the **target NIC's** translation table with zero
//!   CPU involvement (the network-managed AGAS path). Stale/unknown blocks
//!   produce NACKs or NIC-level forwarding; a forward that outruns the
//!   block it chases parks at the destination NIC until
//!   [`install_xlate`] lands the translation. All three kinds ride one
//!   `issue → hop → arrive → commit` pipeline, and the commit applies the
//!   access through the same kernel ([`Locality::apply`]) the software
//!   paths above use.
//!
//! Every operation is decomposed into timed events: initiator-side CPU
//! overhead, transmit-port serialization, wire latency, receive-port
//! serialization, NIC translation, DMA, and the control-message ack/NACK on
//! the way back. Port reservations serialize per NIC, which is what produces
//! contention, bandwidth ceilings, and message-rate limits.

use crate::amo::{self, AmoKey, AmoOp, AmoResult};
use crate::config::NetConfig;
use crate::engine::Engine;
use crate::faults::{apply_corruption, FaultClass, FaultPlane, FaultStats, FaultVerdict};
use crate::memory::{Memory, PhysAddr};
use crate::nic::{LocalityId, Nic, Parked, Xlate, XlateEntry, PARK_TIMEOUT};
use crate::optable::OpId;
use crate::payload::Payload;
use crate::rng::Xoshiro256;
use crate::stats::Counters;
use crate::time::Time;
use crate::trace::{TraceKind, Tracer};
use std::num::NonZeroU64;

/// Which RDMA verb an `OpId` belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// One-sided write.
    Put,
    /// One-sided read.
    Get,
    /// NIC-executed active operation (fetch-add, CAS, masked-put,
    /// gather/scatter).
    Amo,
}

/// Why a NIC refused a one-sided operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NackReason {
    /// No translation entry for the block at the target NIC (never
    /// installed, evicted under capacity pressure, or forwarding disabled).
    Miss,
    /// The access fell outside the translated block.
    Bounds,
    /// Forwarding hops exceeded the configured TTL (migration chase).
    TtlExceeded,
}

/// Destination (or source) of a one-sided operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RdmaTarget {
    /// A raw physical address in the target's arena: the initiator resolved
    /// the placement itself (PGAS, or software-AGAS after consulting the
    /// owner's CPU).
    Phys(PhysAddr),
    /// A virtual block reference translated by the target NIC
    /// (network-managed AGAS). `block` is the GVA with offset bits masked;
    /// `offset` is the byte offset within the block.
    Virt { block: u64, offset: u64 },
}

/// The block word an [`Access`] stores for a [`RdmaTarget::Phys`] target.
/// No GVA block key encodes as it (its size-class field would be 63), so a
/// virtual target never collides with it.
pub const PHYS_BLOCK: u64 = u64::MAX;

/// What arrives at a locality: either an upper-layer message or a
/// NIC-generated notification.
#[derive(Debug)]
pub enum Packet<M> {
    /// A two-sided message from the layer above.
    User(M),
    /// An initiated put completed (remotely visible).
    ///
    /// Every completion's `moved` is the redirect hint: `Some(generation)`
    /// when the request reached the committing NIC through at least one
    /// forwarding hop — the block now lives at [`Envelope::src`] under that
    /// translation generation, so the initiator can address it directly
    /// next time. It rides in the ack's header (no extra bytes or message);
    /// requests that went straight to the owner carry `None`.
    PutDone { op: OpId, moved: Option<u32> },
    /// An initiated get completed (`local` buffer now holds the data).
    GetDone { op: OpId, moved: Option<u32> },
    /// An initiated active operation executed at the target NIC; `result`
    /// carries the fetched/old value(s).
    AmoDone {
        op: OpId,
        result: AmoResult,
        moved: Option<u32>,
    },
    /// Remote-completion notification at the *target* of a put that carried
    /// a `remote_tag` (Photon's put-with-completion ledger entry).
    RemoteNote { tag: u64, len: u32 },
    /// The local NIC missed its translation table for an incoming
    /// one-sided operation (a "table miss interrupt" raised to the host so
    /// software can reinstall a resident-but-evicted entry).
    XlateMiss {
        /// The block key that missed.
        block: u64,
    },
    /// A one-sided operation bounced.
    Nack {
        op: OpId,
        kind: OpKind,
        reason: NackReason,
        /// The block key the operation addressed (0 for `Phys` targets).
        block: u64,
    },
}

/// A delivered packet plus its endpoints.
#[derive(Debug)]
pub struct Envelope<M> {
    /// Originating locality of the packet (for NACKs/acks: the NIC that
    /// generated them).
    pub src: LocalityId,
    /// Destination locality (always the locality whose handler runs).
    pub dst: LocalityId,
    /// The payload.
    pub packet: Packet<M>,
}

/// The glue between the simulator substrate and the protocol stack above it:
/// the engine state exposes its [`Cluster`] and receives packet deliveries.
pub trait Protocol: Sized + 'static {
    /// The upper layer's message type (photon control, parcels, directory
    /// traffic, ...).
    type Msg: 'static;
    /// Mutable access to the embedded cluster.
    fn cluster(&mut self) -> &mut Cluster;
    /// Shared access to the embedded cluster.
    fn cluster_ref(&self) -> &Cluster;
    /// Invoked by the simulator when a packet reaches `env.dst`.
    fn deliver(eng: &mut Engine<Self>, env: Envelope<Self::Msg>);
}

/// One simulated node: NIC, memory arena, counters.
pub struct Locality {
    /// The node's NIC (ports + translation table).
    pub nic: Nic,
    /// The node's memory arena.
    pub mem: Memory,
    /// Protocol counters.
    pub counters: Counters,
    /// What the fault plane did to the messages this node sent.
    pub fault_stats: FaultStats,
    /// Wire messages this node has sent: the key of each one's random
    /// draws (see [`launch`]).
    pub(crate) wire_msgs: u64,
}

/// The simulated cluster: a set of localities and the shared cost model.
pub struct Cluster {
    /// Cost-model parameters (uniform fabric).
    pub config: NetConfig,
    locs: Vec<Locality>,
    next_op: u64,
    /// The (off-by-default) execution tracer.
    pub tracer: Tracer,
    /// Shared switch-core serialization state (oversubscribed fabrics): the
    /// one piece of wire state no single locality owns, which is why such a
    /// fabric runs on one shard lane.
    switch_free: Time,
    /// Per-byte cost on the switch core (0 = full bisection, skip).
    core_ps_per_byte: u64,
    /// Installed fault-injection plane (`None` ⇒ a perfectly reliable
    /// fabric, the pre-chaos behavior). It stays an `Option`, not an
    /// always-present lossless plane, so that `launch` stays draw-free
    /// and decision-free on the hot path of every fault-free run. Events
    /// only read it; what it did is counted per sender
    /// ([`Cluster::fault_stats`]).
    pub faults: Option<FaultPlane>,
}

impl Cluster {
    /// Build a cluster of `n` localities, each with an arena limited to
    /// `mem_limit` bytes. Each arena reserves its limit as address space
    /// ([`Memory::new`]); the host backs a page on the simulation's first
    /// write to it (2 MiB pages under transparent huge pages `always`), so
    /// a live-heap count must take the reservation for address space, not
    /// resident bytes. A limit the host refuses to reserve aborts here, as
    /// any failed allocation does, rather than as `OutOfMemory` later.
    pub fn new(n: usize, config: NetConfig, mem_limit: usize) -> Cluster {
        let locs = (0..n)
            .map(|_| Locality {
                nic: Nic::new(config.xlate_capacity, config.nic_ports),
                mem: Memory::new(mem_limit),
                counters: Counters::default(),
                fault_stats: FaultStats::default(),
                wire_msgs: 0,
            })
            .collect();
        let core_ps_per_byte = if config.oversubscription > 1 && n > 0 {
            // Aggregate core bandwidth = n/k × link ⇒ per-byte cost scales
            // by k/n relative to one link.
            config.gap_per_byte_ps * config.oversubscription / n as u64
        } else {
            0
        };
        Cluster {
            config,
            locs,
            next_op: 0,
            tracer: Tracer::new(),
            switch_free: Time::ZERO,
            core_ps_per_byte,
            faults: None,
        }
    }

    /// Reserve the shared switch core for a `bytes`-byte transit starting
    /// no earlier than `earliest`; returns when the transit clears the
    /// core (identity when full bisection is assumed).
    pub fn switch_reserve(&mut self, earliest: Time, bytes: u32) -> Time {
        if self.core_ps_per_byte == 0 {
            return earliest;
        }
        let dur =
            Time::from_ps((bytes as u64 + self.config.header_bytes as u64) * self.core_ps_per_byte);
        let start = earliest.max(self.switch_free);
        self.switch_free = start + dur;
        self.switch_free
    }

    /// Number of localities.
    pub fn len(&self) -> usize {
        self.locs.len()
    }

    /// True for a zero-node cluster (never useful, but keeps clippy honest).
    pub fn is_empty(&self) -> bool {
        self.locs.is_empty()
    }

    /// Shared access to locality `id`.
    pub fn loc(&self, id: LocalityId) -> &Locality {
        &self.locs[id as usize]
    }

    /// Mutable access to locality `id`.
    pub fn loc_mut(&mut self, id: LocalityId) -> &mut Locality {
        &mut self.locs[id as usize]
    }

    /// Memory arena of locality `id`.
    pub fn mem(&self, id: LocalityId) -> &Memory {
        &self.locs[id as usize].mem
    }

    /// Mutable memory arena of locality `id`.
    pub fn mem_mut(&mut self, id: LocalityId) -> &mut Memory {
        &mut self.locs[id as usize].mem
    }

    /// Allocate a fresh *untracked* operation token (generation 0, indices
    /// counting up). Substrate-level tests and layers without their own
    /// [`OpTable`](crate::optable::OpTable) use this; the protocol stack
    /// above mints tracked handles from the GAS op table instead.
    pub fn alloc_op(&mut self) -> OpId {
        let op = OpId::from_parts(self.next_op as u32, 0);
        self.next_op += 1;
        op
    }

    /// Install a NIC translation entry at `loc`, counting evictions. Set-up
    /// code with no engine in hand uses this; once traffic flows, install
    /// through [`install_xlate`] so requests parked for the block release.
    pub fn install_xlate(&mut self, loc: LocalityId, block_key: u64, entry: XlateEntry) {
        let l = self.loc_mut(loc);
        if l.nic.xlate.install(block_key, entry) {
            l.counters.xlate_evictions += 1;
        }
    }

    /// Per-locality NIC port utilization over `[0, horizon]`:
    /// `(tx_busy/horizon, rx_busy/horizon)` per locality.
    pub fn nic_utilization(&self, horizon: Time) -> Vec<(f64, f64)> {
        let h = horizon.ps().max(1) as f64;
        self.locs
            .iter()
            .map(|l| {
                (
                    l.counters.nic_tx_busy.ps() as f64 / h,
                    l.counters.nic_rx_busy.ps() as f64 / h,
                )
            })
            .collect()
    }

    /// Cluster-wide counter totals.
    pub fn total_counters(&self) -> Counters {
        let mut total = Counters::default();
        for l in &self.locs {
            total.merge(&l.counters);
        }
        total
    }

    /// What the fault plane did, summed over the senders.
    pub fn fault_stats(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for l in &self.locs {
            total.merge(&l.fault_stats);
        }
        total
    }

    /// Reserve `loc`'s receive port for `dur` starting no earlier than
    /// `earliest`; accounts busy time; returns the finish instant.
    fn rx(&mut self, loc: LocalityId, earliest: Time, dur: Time) -> Time {
        let l = self.loc_mut(loc);
        let (_, finish) = l.nic.rx_reserve(earliest, dur);
        l.counters.nic_rx_busy += dur;
        finish
    }
}

/// Where and how one wire message lands.
struct Landing {
    /// When it reaches the destination's receive port.
    at: Time,
    /// When its copy does, if the fault plane duplicated it.
    dup_at: Option<Time>,
    /// Nonzero: the fault plane corrupted it ([`apply_corruption`]).
    corrupt_mask: u64,
}

/// Put one `bytes`-byte message from `src` to `dst` on the wire: reserve
/// `src`'s transmit port from `earliest`, clear the switch core, ride the
/// wire, and take the fault plane's verdict. `None` if it is lost.
///
/// The message is `src`'s next wire message, and every random draw it
/// needs — the transit jitter (keyed by the engine seed), the fault
/// verdict and a duplicate's spacing (keyed by the plan's) — comes from a
/// generator keyed by that count. Everything here but an oversubscribed
/// switch core is the sender's own state, so the same message draws the
/// same numbers on one thread or on its shard lane. The count is not the
/// event key: a dropped message schedules nothing, so a second message
/// from the same event would get the first one's key, and its draws.
fn launch<S: Protocol>(
    eng: &mut Engine<S>,
    src: LocalityId,
    dst: LocalityId,
    earliest: Time,
    bytes: u32,
    class: FaultClass,
    can_dup: bool,
) -> Option<Landing> {
    let (seed, now) = (eng.seed(), eng.now());
    let c = eng.state.cluster();
    let cfg = c.config;
    let dur = cfg.serialize(bytes);
    let sender = c.loc_mut(src);
    let (_, tx_done) = sender.nic.tx_reserve(earliest, dur);
    sender.counters.nic_tx_busy += dur;
    let n = sender.wire_msgs;
    sender.wire_msgs += 1;
    let mut at = c.switch_reserve(tx_done, bytes) + cfg.latency;
    if cfg.jitter_ns > 0 {
        let mut rng = Xoshiro256::keyed(seed, u64::from(src), n);
        at += Time::from_ns(rng.next_below(cfg.jitter_ns + 1));
    }
    let Some(plane) = c.faults.as_ref().filter(|_| class != FaultClass::Bypass) else {
        return Some(Landing {
            at,
            dup_at: None,
            corrupt_mask: 0,
        });
    };
    let mut rng = plane.draws(src, n);
    let stats = &mut c.locs[src as usize].fault_stats;
    match plane.decide(now, src, dst, class, can_dup, &mut rng, stats) {
        FaultVerdict::Drop => None,
        FaultVerdict::Deliver {
            extra_delay,
            duplicate,
            corrupt_mask,
        } => {
            let at = at + extra_delay;
            let dup_at = duplicate.then(|| at + plane.dup_delay(src, dst, &mut rng));
            Some(Landing {
                at,
                dup_at,
                corrupt_mask,
            })
        }
    }
}

/// Deliver a packet that has no request box to ride in — a put's ack, a
/// table-miss interrupt, a remote note, a fault-plane duplicate's copy —
/// to `dst` at absolute time `at`. Gets, AMOs and NACKs come home in their
/// request's box instead ([`respond`], [`get_reply`]).
fn deliver_at<S: Protocol>(
    eng: &mut Engine<S>,
    at: Time,
    src: LocalityId,
    dst: LocalityId,
    packet: Packet<S::Msg>,
) {
    match packet {
        // A put's ack is two words; with its endpoints it exactly fills the
        // engine's inline event slot. It travels by value and is rebuilt
        // on delivery, where capturing a whole `Packet` (as wide as the
        // widest `S::Msg`) would box every ack. The rarer packets take
        // that box.
        Packet::PutDone { op, moved } => eng.schedule_at_loc(at, dst, move |eng| {
            deliver_now(eng, src, dst, Packet::PutDone { op, moved })
        }),
        packet => eng.schedule_at_loc(at, dst, move |eng| deliver_now(eng, src, dst, packet)),
    }
}

/// The delivery event of [`deliver_at`]: trace and count the arrival, then
/// hand the packet to the protocol.
fn deliver_now<S: Protocol>(
    eng: &mut Engine<S>,
    src: LocalityId,
    dst: LocalityId,
    packet: Packet<S::Msg>,
) {
    let now = eng.now();
    let c = eng.state.cluster();
    match packet {
        Packet::PutDone { .. } | Packet::GetDone { .. } | Packet::AmoDone { .. } => {
            c.tracer.record(now, TraceKind::Completion { at: dst });
        }
        Packet::Nack { .. } => {
            c.tracer.record(now, TraceKind::Nack { from: src, to: dst });
            c.loc_mut(dst).counters.nacks_recv += 1;
        }
        _ => {}
    }
    S::deliver(eng, Envelope { src, dst, packet });
}

/// Send a two-sided message of `wire_bytes` payload bytes from `src` to
/// `dst`. The message value `msg` is handed to [`Protocol::deliver`] when it
/// arrives (after tx serialization, wire latency, and rx serialization).
///
/// Messages sent through this entry point bypass the fault plane; traffic
/// whose protocol can survive loss declares so via [`send_user_classed`].
pub fn send_user<S: Protocol>(
    eng: &mut Engine<S>,
    src: LocalityId,
    dst: LocalityId,
    wire_bytes: u32,
    msg: S::Msg,
) {
    send_user_classed(eng, src, dst, wire_bytes, msg, FaultClass::Bypass)
}

/// [`send_user`] with an explicit [`FaultClass`]: the installed fault plane
/// may drop or delay the message (user messages are never duplicated — the
/// payload is opaque to the substrate and cannot be cloned).
pub fn send_user_classed<S: Protocol>(
    eng: &mut Engine<S>,
    src: LocalityId,
    dst: LocalityId,
    wire_bytes: u32,
    msg: S::Msg,
    class: FaultClass,
) {
    // The message rides through three nested events. One wider than a
    // pointer would push each past the engine's inline event slot (a box
    // and a copy of the message per event), so it is boxed once here and
    // the events carry the pointer.
    if size_of::<S::Msg>() > size_of::<usize>() {
        send_held(eng, src, dst, wire_bytes, Box::new(msg), |m| *m, class);
    } else {
        send_held(eng, src, dst, wire_bytes, msg, |m| m, class);
    }
}

/// [`send_user_classed`] over the message as its events hold it: `open`
/// turns `held` back into the message at delivery. A sender whose message
/// already lives in a box passes the box as `held` and rebuilds the message
/// around it, so the send allocates nothing; `held` must stay within a
/// pointer or each of the three events boxes its own copy.
pub fn send_held<S: Protocol, H: 'static>(
    eng: &mut Engine<S>,
    src: LocalityId,
    dst: LocalityId,
    wire_bytes: u32,
    held: H,
    open: impl FnOnce(H) -> S::Msg + Copy + 'static,
    class: FaultClass,
) {
    let now = eng.now();
    let cfg = eng.state.cluster().config;
    {
        let c = eng.state.cluster();
        c.tracer.record(
            now,
            TraceKind::MsgInject {
                src,
                dst,
                bytes: wire_bytes,
            },
        );
        let l = c.loc_mut(src);
        l.counters.msgs_sent += 1;
        l.counters.bytes_sent += wire_bytes as u64;
    }
    if src == dst {
        let at = now + cfg.loopback;
        eng.schedule_at_loc(at, dst, move |eng| {
            eng.state.cluster().loc_mut(dst).counters.msgs_recv += 1;
            S::deliver(
                eng,
                Envelope {
                    src,
                    dst,
                    packet: Packet::User(open(held)),
                },
            );
        });
        return;
    }
    let Some(land) = launch(eng, src, dst, now + cfg.o_send, wire_bytes, class, false) else {
        return;
    };
    eng.schedule_at_loc(land.at, dst, move |eng| {
        let now = eng.now();
        let dur = eng.state.cluster().config.serialize(wire_bytes);
        let rx_done = eng.state.cluster().rx(dst, now, dur);
        eng.schedule_at(rx_done, move |eng| {
            let now = eng.now();
            let c = eng.state.cluster();
            c.tracer.record(now, TraceKind::MsgDeliver { src, dst });
            c.loc_mut(dst).counters.msgs_recv += 1;
            S::deliver(
                eng,
                Envelope {
                    src,
                    dst,
                    packet: Packet::User(open(held)),
                },
            );
        });
    });
}

/// A one-sided write request.
#[derive(Clone, Debug)]
pub struct PutReq {
    /// Locality whose NIC should commit the write (the believed owner).
    pub target: LocalityId,
    /// Where within the target the bytes land.
    pub dst: RdmaTarget,
    /// Payload (snapshotted at initiation, as hardware DMA would).
    pub data: Vec<u8>,
    /// Completion token.
    pub op: OpId,
    /// When set, the target locality's handler receives
    /// [`Packet::RemoteNote`] with this tag once the data is visible —
    /// Photon's put-with-completion remote ledger entry.
    pub remote_tag: Option<u64>,
    /// Remaining NIC forwarding hops.
    pub ttl: u8,
    /// How the fault plane may abuse this request and its completions.
    pub class: FaultClass,
}

/// A one-sided read request.
#[derive(Clone, Debug)]
pub struct GetReq {
    /// Locality whose NIC should source the bytes (the believed owner).
    pub target: LocalityId,
    /// Where within the target the bytes come from.
    pub src: RdmaTarget,
    /// Bytes to read.
    pub len: u32,
    /// Physical destination in the *initiator's* arena.
    pub local: PhysAddr,
    /// Completion token.
    pub op: OpId,
    /// Remaining NIC forwarding hops.
    pub ttl: u8,
    /// How the fault plane may abuse this request and its completions.
    pub class: FaultClass,
}

/// What a one-sided access does to the storage it resolves to: the
/// kind-specific half of an [`Access`], and the snapshot every responder
/// path — NIC commit, software handler, shared-memory commit, local commit
/// — hands to [`Locality::apply`].
#[derive(Clone, Debug)]
pub enum Verb {
    /// Write `data` (snapshotted at initiation, as hardware DMA would).
    Put {
        /// Payload: one snapshot, shared by every holder of the verb.
        data: Payload,
        /// When set, a NIC commit also raises [`Packet::RemoteNote`] with
        /// this tag at the target once the data is visible — Photon's
        /// put-with-completion remote ledger entry. Stored plus one, so
        /// `None` needs no discriminant word: build it with [`Verb::put`]
        /// and read it with [`Verb::remote_tag`].
        remote_tag: Option<NonZeroU64>,
    },
    /// Read `len` bytes.
    Get {
        /// Bytes to read.
        len: u32,
        /// Where a NIC commit's payload-return leg lands them: a physical
        /// buffer in the *initiator's* arena.
        local: PhysAddr,
    },
    /// Execute a NIC-level active operation on the block's words.
    Amo {
        /// The operation.
        amo: AmoOp,
        /// Retry-stable dedup identity checked against the responder
        /// cache, [`Verb::amo_key`]: the initiating locality (this field)
        /// plus the initiator's GAS-level op id (`key_op`), unchanged
        /// across transport retries. Held as two fields, not an [`AmoKey`]
        /// pair, so this word fills the padding beside the tag.
        key_loc: LocalityId,
        /// The op-id half of the dedup identity.
        key_op: u64,
    },
}

// One rides in every in-flight access (the boxed `Access`, the GAS-level
// pending op, the software request), so its size is per-op memory.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(size_of::<Verb>() <= 40);

impl Verb {
    /// A put of `data`; `remote_tag`, when set, raises
    /// [`Packet::RemoteNote`] at the target once the data is visible.
    /// `u64::MAX` is not a valid tag.
    pub fn put(data: Payload, remote_tag: Option<u64>) -> Verb {
        let remote_tag = remote_tag.map(|tag| {
            NonZeroU64::new(tag.wrapping_add(1)).expect("remote_tag u64::MAX is reserved")
        });
        Verb::Put { data, remote_tag }
    }

    /// An active operation deduplicated at the responder under `key`.
    pub fn amo(amo: AmoOp, key: AmoKey) -> Verb {
        let (key_loc, key_op) = key;
        Verb::Amo {
            amo,
            key_loc,
            key_op,
        }
    }

    /// A put's remote-completion tag, if it asked for one.
    pub fn remote_tag(&self) -> Option<u64> {
        match self {
            Verb::Put { remote_tag, .. } => remote_tag.map(|t| t.get() - 1),
            _ => None,
        }
    }

    /// An AMO's responder-cache identity.
    pub fn amo_key(&self) -> Option<AmoKey> {
        match *self {
            Verb::Amo {
                key_loc, key_op, ..
            } => Some((key_loc, key_op)),
            _ => None,
        }
    }

    /// Which RDMA verb this is.
    pub fn kind(&self) -> OpKind {
        match self {
            Verb::Put { .. } => OpKind::Put,
            Verb::Get { .. } => OpKind::Get,
            Verb::Amo { .. } => OpKind::Amo,
        }
    }

    /// Bytes of responder storage the access touches — what DMA and copy
    /// costs scale with.
    pub fn touched_bytes(&self) -> u32 {
        match self {
            Verb::Put { data, .. } => data.len() as u32,
            Verb::Get { len, .. } => *len,
            Verb::Amo { amo, .. } => 8 * amo.touched_words() as u32,
        }
    }
}

/// What [`Locality::apply`] did. A read's bytes come back in the container
/// the caller names: a [`Payload`] on the NIC's reply leg, where a small
/// read rides inline and allocates nothing, or a `Vec` where the bytes go
/// straight to the initiator.
#[derive(Debug)]
pub enum Applied<B = Payload> {
    /// The bytes were written.
    Put,
    /// The bytes read.
    Get(B),
    /// The op's result; `replayed` when it came from the responder cache
    /// instead of a fresh execution.
    Amo {
        /// What the op observed/returned.
        result: AmoResult,
        /// Remembered from an earlier delivery of the same [`AmoKey`].
        replayed: bool,
    },
}

impl Locality {
    /// The responder-side apply kernel: run `verb` at `offset` within the
    /// `len`-byte resident extent at `base` (`block` tags responder-cache
    /// entries so they migrate with their block). `None` means the access
    /// fell outside the extent or the arena and nothing was touched.
    ///
    /// Every path that commits an access — the NIC, the software handler,
    /// the shared-memory short-circuit, the initiator-local commit — goes
    /// through here, so AMOs keep exactly-once semantics across path
    /// switches: the responder cache is consulted before execution, and
    /// only *mutating* ops install (reads re-execute harmlessly and must
    /// not evict entries that do guard a mutation). The verb's
    /// response-leg fields (`remote_tag`, `local`) play no part here.
    pub fn apply<B: for<'a> From<&'a [u8]>>(
        &mut self,
        block: u64,
        base: PhysAddr,
        len: u64,
        offset: u64,
        verb: &Verb,
    ) -> Option<Applied<B>> {
        let fits = |n: u32| offset.checked_add(n as u64).is_some_and(|end| end <= len);
        match verb {
            Verb::Put { data, .. } => {
                if !fits(data.len() as u32) {
                    return None;
                }
                self.mem.write(base + offset, data).ok()?;
                Some(Applied::Put)
            }
            Verb::Get { len: n, .. } => {
                if !fits(*n) {
                    return None;
                }
                let data = self.mem.read(base + offset, *n as usize).ok()?;
                Some(Applied::Get(data.into()))
            }
            Verb::Amo {
                amo,
                key_loc,
                key_op,
            } => {
                let key = (*key_loc, *key_op);
                if let Some(result) = self.nic.amo.lookup(key) {
                    return Some(Applied::Amo {
                        result,
                        replayed: true,
                    });
                }
                if !amo.bounds_ok(offset, len) {
                    return None;
                }
                let bytes = self.mem.slice_mut(base, len as usize).ok()?;
                let result = amo::execute(amo, bytes, offset);
                if amo.mutates() {
                    self.nic.amo.install(key, block, result.clone());
                }
                Some(Applied::Amo {
                    result,
                    replayed: false,
                })
            }
        }
    }
}

/// One one-sided access in flight — a put, get, or NIC-executed active
/// operation — and, once its target NIC has answered, that answer on its
/// way home. All three kinds ride the same `issue → hop → arrive → commit`
/// pipeline; only [`Verb`] (and the response leg it implies) differs.
///
/// The box [`rdma_issue`] puts it in is the op's one record for the round
/// trip, made when the access is posted, not while a caller holds it back
/// (the GAS queues one-sided ops past its send-queue depth as bare
/// handles): the committing NIC writes a get's bytes, an AMO's result or a
/// NACK over the request's own fields, the same box rides the response
/// legs, and the initiator unpacks it into a [`Packet`] and frees it. A
/// put's two-word ack travels by value instead, and its box is freed at
/// the commit.
#[derive(Clone, Debug)]
pub struct Access {
    /// Locality whose NIC should commit the access (the believed owner);
    /// on the way back, the NIC that answered.
    pub target: LocalityId,
    /// Completion token.
    pub op: OpId,
    /// Remaining NIC forwarding hops.
    pub ttl: u8,
    /// Lowest translation generation the block can have at `target`, as
    /// the NIC that forwarded the request there knows it: the generation
    /// its tombstone was retired at, plus one. 0 on the leg from the
    /// initiator, which claims no such knowledge.
    ///
    /// Sixteen bits, saturating, because that is what fits beside
    /// `target`, `ttl` and `class` in one word: one more word would push the
    /// boxed request from the 80-byte allocator chunk into the 96-byte one
    /// (a size class up cost 8 % of `gups_lanes2` host throughput). A
    /// saturated floor only under-claims: a tombstone retired at 65 535 or
    /// later is no longer recognised as stale and forwards on as it would
    /// without parking.
    pub floor: u16,
    /// How the fault plane may abuse this request and its completions.
    pub class: FaultClass,
    /// The request, or the answer that replaced it.
    leg: Leg,
}

/// What an [`Access`] carries on the current leg of its round trip. The
/// answers overlay the request they replace, so the record keeps one size
/// both ways.
#[derive(Clone, Debug)]
enum Leg {
    /// Outbound. `block` and `offset` are read back through
    /// [`Access::at`]: the block key of a [`RdmaTarget::Virt`] target and
    /// the offset within it, or [`PHYS_BLOCK`] and the physical address.
    Request { block: u64, offset: u64, verb: Verb },
    /// A get's bytes, bound for `local` in the initiator's arena.
    Got {
        data: Payload,
        local: PhysAddr,
        moved: Option<u32>,
    },
    /// An active operation's result.
    Amo {
        result: AmoResult,
        moved: Option<u32>,
    },
    /// The target NIC refused the access; `block` is 0 for a physical
    /// target.
    Nack {
        kind: OpKind,
        reason: NackReason,
        block: u64,
    },
}

// Every *posted* one-sided access holds one box of these (the GAS posts at
// most `agas::POST_DEPTH` per locality; a queued one holds none): 72 bytes
// is a glibc 80-byte chunk.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(size_of::<Access>() <= 72);

impl Access {
    /// A request from the initiator's own NIC: no forwarding floor yet.
    /// AMOs always address a [`RdmaTarget::Virt`] block: the NIC
    /// translates and executes in the same visit, so the target CPU
    /// schedules zero events on the hit path.
    pub fn new(
        target: LocalityId,
        at: RdmaTarget,
        verb: Verb,
        op: OpId,
        ttl: u8,
        class: FaultClass,
    ) -> Access {
        let (block, offset) = match at {
            RdmaTarget::Phys(addr) => (PHYS_BLOCK, addr),
            RdmaTarget::Virt { block, offset } => {
                debug_assert_ne!(block, PHYS_BLOCK, "block key {PHYS_BLOCK:#x} is reserved");
                (block, offset)
            }
        };
        Access {
            target,
            op,
            ttl,
            floor: 0,
            class,
            leg: Leg::Request {
                block,
                offset,
                verb,
            },
        }
    }

    /// The request's raw block word, offset and verb.
    fn request(&self) -> (u64, u64, &Verb) {
        match &self.leg {
            Leg::Request {
                block,
                offset,
                verb,
            } => (*block, *offset, verb),
            answer => unreachable!("the access was answered: {answer:?}"),
        }
    }

    /// What the access does at its target.
    pub(crate) fn verb(&self) -> &Verb {
        self.request().2
    }

    /// Where within the target the access lands.
    pub fn at(&self) -> RdmaTarget {
        match self.request() {
            (PHYS_BLOCK, addr, _) => RdmaTarget::Phys(addr),
            (block, offset, _) => RdmaTarget::Virt { block, offset },
        }
    }

    /// The block key the access addresses (0 for a physical target).
    pub(crate) fn block(&self) -> u64 {
        match self.request().0 {
            PHYS_BLOCK => 0,
            block => block,
        }
    }

    /// Payload bytes of the request on the wire (initial leg and every
    /// forwarding hop): a put carries its data; get and AMO requests are
    /// control-sized (AMO operands ride in the request header).
    fn wire_bytes(&self, cfg: &NetConfig) -> u32 {
        match self.verb() {
            Verb::Put { data, .. } => data.len() as u32,
            Verb::Get { .. } | Verb::Amo { .. } => cfg.ctrl_bytes,
        }
    }

    /// Unpack an answer at its initiator: the NIC that answered, the
    /// packet, and a get's bytes with the buffer they land in. The box is
    /// freed here, at the initiator, before the handler can issue the next
    /// op: taking the box, not the record, is the point.
    #[allow(clippy::boxed_local)]
    fn open<M>(self: Box<Self>) -> (LocalityId, Packet<M>, Option<(PhysAddr, Payload)>) {
        let Access {
            target, op, leg, ..
        } = *self;
        let (packet, bytes) = match leg {
            Leg::Got { data, local, moved } => (Packet::GetDone { op, moved }, Some((local, data))),
            Leg::Amo { result, moved } => (Packet::AmoDone { op, result, moved }, None),
            Leg::Nack {
                kind,
                reason,
                block,
            } => {
                let nack = Packet::Nack {
                    op,
                    kind,
                    reason,
                    block,
                };
                (nack, None)
            }
            Leg::Request { .. } => unreachable!("a request lands only at a NIC"),
        };
        (target, packet, bytes)
    }

    /// The answer as the initiator's handler sees it, copied: what a
    /// fault-plane duplicate of the response leg delivers. A get's copy
    /// carries no bytes — the duplicate's payload lands on a registration
    /// the initiator may have retired, so the NIC discards it while the
    /// completion still surfaces (the op table drops it as stale).
    fn packet<M>(&self) -> Packet<M> {
        let op = self.op;
        match &self.leg {
            &Leg::Got { moved, .. } => Packet::GetDone { op, moved },
            Leg::Amo { result, moved } => Packet::AmoDone {
                op,
                result: result.clone(),
                moved: *moved,
            },
            &Leg::Nack {
                kind,
                reason,
                block,
            } => Packet::Nack {
                op,
                kind,
                reason,
                block,
            },
            Leg::Request { .. } => unreachable!("a request is not an answer"),
        }
    }
}

impl From<PutReq> for Access {
    fn from(r: PutReq) -> Access {
        let verb = Verb::put(r.data.into(), r.remote_tag);
        Access::new(r.target, r.dst, verb, r.op, r.ttl, r.class)
    }
}

impl From<GetReq> for Access {
    fn from(r: GetReq) -> Access {
        let verb = Verb::Get {
            len: r.len,
            local: r.local,
        };
        Access::new(r.target, r.src, verb, r.op, r.ttl, r.class)
    }
}

/// The class of a NIC-generated response to a request of class `req`:
/// exempt traffic stays exempt end to end; everything else completes as
/// [`FaultClass::Completion`].
fn response_class(req: FaultClass) -> FaultClass {
    if req == FaultClass::Bypass {
        FaultClass::Bypass
    } else {
        FaultClass::Completion
    }
}

/// How a request reached the NIC visit that is about to commit it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Via {
    /// The initiator's own NIC: no wire, and the responses skip it too.
    Loopback,
    /// The wire leg from the initiator: the initiator's guess was current.
    Wire,
    /// A forwarding hop from a NIC holding the block's tombstone: the
    /// initiator's guess was stale, so the completion carries the redirect
    /// hint (`moved`).
    Forward,
}

/// Initiate a one-sided write from `initiator`.
pub fn rdma_put<S: Protocol>(eng: &mut Engine<S>, initiator: LocalityId, req: PutReq) {
    rdma_issue(eng, initiator, Access::from(req))
}

/// Initiate a one-sided read from `initiator`.
pub fn rdma_get<S: Protocol>(eng: &mut Engine<S>, initiator: LocalityId, req: GetReq) {
    rdma_issue(eng, initiator, Access::from(req))
}

/// Initiate any one-sided access from `initiator`: the single entry point
/// of the pipeline.
///
/// The request is boxed once here (pass a `Box<Access>` to reuse one the
/// caller already made), and that box is the posted op's one record for
/// the round trip — every *posted* access holds one: every hop's event, out and back, captures it as a pointer
/// and stays inline in its queue slot, and the target NIC writes its
/// answer into it. A remote get, AMO or NACK therefore allocates nothing
/// after this call; a put's ack travels by value.
pub fn rdma_issue<S: Protocol>(
    eng: &mut Engine<S>,
    initiator: LocalityId,
    req: impl Into<Box<Access>>,
) {
    let req: Box<Access> = req.into();
    let now = eng.now();
    let cfg = eng.state.cluster().config;
    let bytes = req.wire_bytes(&cfg);
    let kind = req.verb().kind();
    {
        let (src, dst) = (initiator, req.target);
        let touched = req.verb().touched_bytes();
        let c = eng.state.cluster();
        let counters = &mut c.loc_mut(initiator).counters;
        counters.bytes_sent += bytes as u64;
        let inject = match kind {
            OpKind::Put => {
                counters.rdma_puts += 1;
                TraceKind::PutInject {
                    src,
                    dst,
                    bytes: touched,
                }
            }
            OpKind::Get => {
                counters.rdma_gets += 1;
                TraceKind::GetInject {
                    src,
                    dst,
                    bytes: touched,
                }
            }
            OpKind::Amo => {
                counters.rdma_amos += 1;
                TraceKind::AmoInject { src, dst }
            }
        };
        c.tracer.record(now, inject);
    }
    if initiator == req.target {
        // Loop-back: the local NIC still translates and commits, but no
        // wire or port serialization is paid.
        prefetch_target(eng.state.cluster_ref().loc(initiator), &req);
        let at = now + cfg.loopback;
        eng.schedule_at_loc(at, initiator, move |eng| {
            commit(eng, initiator, req, Via::Loopback)
        });
        return;
    }
    hop(eng, initiator, initiator, now + cfg.o_send, req, Via::Wire);
}

/// Send one wire hop of a request (initial leg or a forwarding hop) from
/// `hop_src`'s transmit port, free from `earliest`, through the fault
/// plane. Only a put carries a payload to corrupt: get and AMO requests
/// are control messages, whose corruption draws already degrade to drops
/// in the plane — a corrupted AMO can never execute; it vanishes and the
/// initiator's deadline machinery retries it. Duplicated AMOs are safe
/// because the responder cache replays instead of re-executing.
fn hop<S: Protocol>(
    eng: &mut Engine<S>,
    initiator: LocalityId,
    hop_src: LocalityId,
    earliest: Time,
    mut req: Box<Access>,
    via: Via,
) {
    let bytes = req.wire_bytes(&eng.state.cluster_ref().config);
    let dst = req.target;
    let Some(land) = launch(eng, hop_src, dst, earliest, bytes, req.class, true) else {
        return;
    };
    if land.corrupt_mask != 0 {
        if let Leg::Request {
            verb: Verb::Put { data, .. },
            ..
        } = &mut req.leg
        {
            // Only this copy goes bad: the initiator's retry still holds
            // the bytes it snapshotted.
            let mut bytes = data.to_vec();
            apply_corruption(&mut bytes, land.corrupt_mask);
            *data = bytes.into();
        }
    }
    if let Some(dup_at) = land.dup_at {
        let copy = req.clone();
        eng.schedule_at_loc(dup_at, dst, move |eng| arrive(eng, initiator, copy, via));
    }
    eng.schedule_at_loc(land.at, dst, move |eng| arrive(eng, initiator, req, via));
}

/// A request reached its current target's receive port: pay rx
/// serialization plus, for virtual targets, the NIC's translation.
fn arrive<S: Protocol>(eng: &mut Engine<S>, initiator: LocalityId, req: Box<Access>, via: Via) {
    let now = eng.now();
    prefetch_target(eng.state.cluster_ref().loc(req.target), &req);
    let cfg = eng.state.cluster().config;
    let dur = cfg.serialize(req.wire_bytes(&cfg));
    let rx_done = eng.state.cluster().rx(req.target, now, dur);
    let xlate_cost = match req.at() {
        RdmaTarget::Virt { .. } => cfg.xlate_ns,
        RdmaTarget::Phys(_) => Time::ZERO,
    };
    eng.schedule_at(rx_done + xlate_cost, move |eng| {
        commit(eng, initiator, req, via)
    });
}

/// Host-cache hint for the [`commit`] that `req` has scheduled at `l`, its
/// target: start loading the arena bytes the access will touch, found
/// through a census read of the NIC table, so the commit's store or load
/// (and its table probe) find their lines cached. A request the table
/// cannot resolve now gets no hint. It reads only `l`'s own state and
/// changes nothing the simulation can observe.
fn prefetch_target(l: &Locality, req: &Access) {
    let addr = match req.at() {
        RdmaTarget::Phys(addr) => addr,
        RdmaTarget::Virt { block, offset } => match l.nic.xlate.peek(block) {
            Some(e) => e.base.saturating_add(offset),
            None => return,
        },
    };
    l.mem.prefetch(addr, req.verb().touched_bytes() as usize);
}

/// Translate and commit an access at its current target NIC; generate the
/// completion, remote note, NACK, or forwarding hop — or park the request.
/// A [`Via::Loopback`] visit's responses skip the wire; a [`Via::Forward`]
/// visit's completion carries the translation generation it committed
/// under, which — with the ack's source — tells the initiator where the
/// block lives now.
///
/// A forward hop stamps the request with a generation floor (the
/// tombstone's retired generation plus one). A [`Via::Forward`] visit that
/// finds no entry, or a tombstone retired *below* the floor, has outrun the
/// block: the hand-off that wrote the forwarder's tombstone has not
/// installed here yet. It parks ([`park`]) instead of NACKing or bouncing
/// back along the stale tombstone; [`install_xlate`] re-enters it here.
fn commit<S: Protocol>(eng: &mut Engine<S>, initiator: LocalityId, mut req: Box<Access>, via: Via) {
    let now = eng.now();
    let cfg = eng.state.cluster().config;
    let target = req.target;
    let class = response_class(req.class);
    let is_amo = req.verb().kind() == OpKind::Amo;
    let local = via == Via::Loopback;
    let block = req.block();
    // A duplicated or retried AMO re-acks its remembered result instead of
    // applying twice — before translation, so the replay needs no table
    // entry and leaves the table's recency order alone (a forwarded replay
    // peeks the generation for its hint without touching it either).
    if let Some(key) = req.verb().amo_key() {
        let l = eng.state.cluster().loc_mut(target);
        if let Some(result) = l.nic.amo.lookup(key) {
            l.counters.amo_replays += 1;
            let moved = match via {
                Via::Forward => l.nic.xlate.peek(block).map(|e| e.generation),
                _ => None,
            };
            req.leg = Leg::Amo { result, moved };
            let done = Answer::Boxed(req);
            respond(eng, target, initiator, done, now, local, class);
            return;
        }
    }
    let mut moved = None;
    // The resident extent `(base, len)` the access resolved to, and its
    // offset within it. A physical target is bounded by the arena alone.
    let resolved = match req.at() {
        RdmaTarget::Phys(addr) => Ok((addr, u64::MAX, 0)),
        RdmaTarget::Virt { offset, .. } => {
            let c = eng.state.cluster();
            let nic = &mut c.loc_mut(target).nic;
            // Only a request a tombstone sent here may wait for the block,
            // and only at a NIC that can ever hold its entry.
            let can_park = via == Via::Forward && nic.xlate.capacity() > 0 && nic.parked.has_room();
            match nic.xlate.lookup(block) {
                Xlate::Hit(entry) => {
                    if via == Via::Forward {
                        moved = Some(entry.generation);
                    }
                    Ok((entry.base, entry.len, offset))
                }
                Xlate::Forward { retired, .. } if can_park && retired < u32::from(req.floor) => {
                    // This tombstone is older than the one that forwarded
                    // the request: the block is on its way back here.
                    park(eng, initiator, req);
                    return;
                }
                Xlate::Forward { next, retired } if req.ttl > 0 => {
                    // Store-and-forward hop toward the new owner.
                    let counters = &mut c.loc_mut(target).counters;
                    counters.xlate_forwards += 1;
                    if is_amo {
                        counters.amo_forwarded += 1;
                    }
                    let at = target;
                    c.tracer
                        .record(now, TraceKind::XlateForward { at, next, block });
                    req.target = next;
                    req.ttl -= 1;
                    req.floor = u16::try_from(retired.saturating_add(1)).unwrap_or(u16::MAX);
                    hop(eng, initiator, target, now, req, Via::Forward);
                    return;
                }
                Xlate::Forward { .. } => Err(NackReason::TtlExceeded),
                Xlate::Miss => {
                    // The interrupt is raised whether or not the request
                    // waits: a resident-but-evicted entry is reinstalled by
                    // software, and that install releases the park.
                    c.loc_mut(target).counters.xlate_misses += 1;
                    c.tracer
                        .record(now, TraceKind::XlateMiss { at: target, block });
                    deliver_at(eng, now, target, target, Packet::XlateMiss { block });
                    if can_park {
                        park(eng, initiator, req);
                        return;
                    }
                    Err(NackReason::Miss)
                }
            }
        }
    };
    let c = eng.state.cluster();
    let applied = resolved.and_then(|(base, len, offset)| {
        c.loc_mut(target)
            .apply(block, base, len, offset, req.verb())
            .ok_or(NackReason::Bounds)
    });
    let applied = match applied {
        Ok(applied) => applied,
        Err(reason) => {
            nack(eng, initiator, req, reason, local);
            return;
        }
    };
    if let RdmaTarget::Virt { .. } = req.at() {
        c.loc_mut(target).counters.xlate_hits += 1;
        c.tracer
            .record(now, TraceKind::XlateHit { at: target, block });
    }
    let visible = now + cfg.dma(req.verb().touched_bytes());
    match (applied, req.verb()) {
        (Applied::Get(data), &Verb::Get { local: buf, .. }) => {
            req.leg = Leg::Got {
                data,
                local: buf,
                moved,
            };
            get_reply(eng, initiator, req, visible, local, class);
        }
        (Applied::Put, verb) => {
            if let Some(tag) = verb.remote_tag() {
                let len = verb.touched_bytes();
                let note = Packet::RemoteNote { tag, len };
                deliver_at(eng, visible, target, target, note);
            }
            let done = Answer::PutDone { op: req.op, moved };
            respond(eng, target, initiator, done, visible, local, class);
        }
        (Applied::Amo { result, .. }, _) => {
            c.loc_mut(target).counters.amo_executed += 1;
            req.leg = Leg::Amo { result, moved };
            let done = Answer::Boxed(req);
            respond(eng, target, initiator, done, visible, local, class);
        }
        _ => unreachable!("apply answers in the verb's own kind"),
    }
}

/// Refuse `req` at its current target NIC: NACK the initiator with `reason`,
/// written into the request's own box.
fn nack<S: Protocol>(
    eng: &mut Engine<S>,
    initiator: LocalityId,
    mut req: Box<Access>,
    reason: NackReason,
    local: bool,
) {
    let now = eng.now();
    let c = eng.state.cluster();
    let kind = req.verb().kind();
    if kind == OpKind::Amo {
        c.loc_mut(req.target).counters.amo_nacked += 1;
    }
    let ready = if local { now + c.config.loopback } else { now };
    let class = response_class(req.class);
    let block = req.block();
    req.leg = Leg::Nack {
        kind,
        reason,
        block,
    };
    let target = req.target;
    let done = Answer::Boxed(req);
    respond(eng, target, initiator, done, ready, local, class);
}

/// Hold a forwarded request in its target NIC's park queue until
/// [`install_xlate`] lands the block's translation there. The wait is
/// bounded: after [`PARK_TIMEOUT`] the NIC gives up and answers what a
/// chase that never caught the block always answered —
/// [`NackReason::TtlExceeded`] — so the initiator recovers through the
/// home directory.
fn park<S: Protocol>(eng: &mut Engine<S>, initiator: LocalityId, req: Box<Access>) {
    let now = eng.now();
    let target = req.target;
    let l = eng.state.cluster().loc_mut(target);
    l.counters.xlate_parked += 1;
    let ticket = l.nic.parked.push(initiator, req);
    eng.schedule_at(now + PARK_TIMEOUT, move |eng| {
        let l = eng.state.cluster().loc_mut(target);
        if let Some(Parked { initiator, req, .. }) = l.nic.parked.take_ticket(ticket) {
            l.counters.xlate_park_expired += 1;
            nack(eng, initiator, req, NackReason::TtlExceeded, false);
        }
    });
}

/// Install a NIC translation entry at `loc` and release the requests
/// parked there for `block`: the one way to install once traffic flows.
/// Released requests re-enter the commit in arrival order, still as
/// forwarded visits, so each completion carries the redirect hint. Callers
/// moving a block in must absorb its responder-cache log *first* — a
/// released duplicate of an AMO that already executed must replay.
pub fn install_xlate<S: Protocol>(
    eng: &mut Engine<S>,
    loc: LocalityId,
    block: u64,
    entry: XlateEntry,
) {
    let c = eng.state.cluster();
    c.install_xlate(loc, block, entry);
    let nic = &mut c.loc_mut(loc).nic;
    if nic.parked.is_empty() {
        return;
    }
    // Nothing parks at a NIC whose table rejects installs, and an accepted
    // install leaves the entry live: every released request hits.
    debug_assert!(nic.xlate.peek(block).is_some());
    for Parked { initiator, req, .. } in nic.parked.take_block(block) {
        commit(eng, initiator, req, Via::Forward);
    }
}

/// A NIC-generated response on its way from the NIC that answered to the
/// initiator.
enum Answer {
    /// A put's ack: two words, carried by value.
    PutDone { op: OpId, moved: Option<u32> },
    /// Any other answer, written into the request's box.
    Boxed(Box<Access>),
}

impl Answer {
    /// The answer as a packet, copied for a fault-plane duplicate.
    fn packet<M>(&self) -> Packet<M> {
        match *self {
            Answer::PutDone { op, moved } => Packet::PutDone { op, moved },
            Answer::Boxed(ref req) => req.packet(),
        }
    }
}

/// Send a control-sized response — put or AMO completion, or NACK — from
/// `target` back to `initiator` once it is `ready`: a loop-back visit
/// delivers directly; a remote one rides a control message through the
/// fault plane.
fn respond<S: Protocol>(
    eng: &mut Engine<S>,
    target: LocalityId,
    initiator: LocalityId,
    answer: Answer,
    ready: Time,
    local: bool,
    class: FaultClass,
) {
    let counters = &mut eng.state.cluster().loc_mut(target).counters;
    match &answer {
        Answer::Boxed(req) if matches!(req.leg, Leg::Nack { .. }) => counters.nacks_sent += 1,
        _ if !local => counters.ctrl_sent += 1,
        _ => {}
    }
    let at = if local {
        ready
    } else {
        let ctrl_bytes = eng.state.cluster().config.ctrl_bytes;
        let Some(land) = launch(eng, target, initiator, ready, ctrl_bytes, class, true) else {
            return;
        };
        if let Some(dup_at) = land.dup_at {
            deliver_at(eng, dup_at, target, initiator, answer.packet());
        }
        land.at
    };
    match answer {
        Answer::PutDone { op, moved } => {
            deliver_at(eng, at, target, initiator, Packet::PutDone { op, moved })
        }
        Answer::Boxed(req) => {
            eng.schedule_at_loc(at, initiator, move |eng| land(eng, initiator, req))
        }
    }
}

/// The get's own response leg: the box carries the payload `target →
/// initiator` (tx, wire, fault verdict, rx at the initiator), where
/// [`land`] writes it into the buffer the request named before `GetDone`
/// surfaces. A loop-back get is a DMA-speed copy within the node.
fn get_reply<S: Protocol>(
    eng: &mut Engine<S>,
    initiator: LocalityId,
    req: Box<Access>,
    ready: Time,
    local: bool,
    class: FaultClass,
) {
    if local {
        eng.schedule_at(ready, move |eng| land(eng, initiator, req));
        return;
    }
    let Leg::Got { ref data, .. } = req.leg else {
        unreachable!("a get reply carries the bytes read");
    };
    let (target, len) = (req.target, data.len() as u32);
    let cfg = eng.state.cluster().config;
    {
        let l = eng.state.cluster().loc_mut(target);
        l.counters.bytes_sent += len as u64;
        l.counters.ctrl_sent += 1;
    }
    let Some(wire) = launch(eng, target, initiator, ready, len, class, true) else {
        return;
    };
    let dur = cfg.serialize(len);
    if let Some(dup_at) = wire.dup_at {
        deliver_at(eng, dup_at, target, initiator, req.packet());
    }
    eng.schedule_at_loc(wire.at, initiator, move |eng| {
        let now = eng.now();
        let rx_done = eng.state.cluster().rx(initiator, now, dur);
        eng.schedule_at(rx_done, move |eng| land(eng, initiator, req));
    });
}

/// A boxed answer reaches its initiator: unpack it, land a get's bytes,
/// and hand the packet to the protocol.
fn land<S: Protocol>(eng: &mut Engine<S>, initiator: LocalityId, req: Box<Access>) {
    let (src, packet, bytes) = req.open();
    let Some((local, data)) = bytes else {
        return deliver_now(eng, src, initiator, packet);
    };
    eng.state
        .cluster()
        .mem_mut(initiator)
        .write(local, &data)
        .expect("get local buffer out of bounds");
    let dst = initiator;
    S::deliver(eng, Envelope { src, dst, packet });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPlan, FaultRates, LinkFlap, Partition};
    use crate::nic::XlateEntry;

    /// Minimal protocol: log every delivered envelope with its timestamp.
    struct TestWorld {
        cluster: Cluster,
        log: Vec<(Time, LocalityId, String)>,
    }

    impl TestWorld {
        fn new(n: usize, cfg: NetConfig) -> TestWorld {
            TestWorld {
                cluster: Cluster::new(n, cfg, 1 << 24),
                log: Vec::new(),
            }
        }
    }

    impl Protocol for TestWorld {
        type Msg = String;
        fn cluster(&mut self) -> &mut Cluster {
            &mut self.cluster
        }
        fn cluster_ref(&self) -> &Cluster {
            &self.cluster
        }
        fn deliver(eng: &mut Engine<Self>, env: Envelope<String>) {
            // A redirect hint logs as the pair the initiator learns: the
            // ack's source and the generation it carries.
            let hint = |moved: Option<u32>| match moved {
                Some(generation) => format!(":moved({},{generation})", env.src),
                None => String::new(),
            };
            let desc = match env.packet {
                Packet::User(s) => format!("user:{s}"),
                Packet::PutDone { op, moved } => format!("putdone:{op}{}", hint(moved)),
                Packet::GetDone { op, moved } => format!("getdone:{op}{}", hint(moved)),
                Packet::AmoDone { op, result, moved } => {
                    let vals: Vec<String> = result.values.iter().map(|v| v.to_string()).collect();
                    format!(
                        "amodone:{op}:{}:{}:[{}]{}",
                        result.old,
                        result.applied,
                        vals.join(","),
                        hint(moved)
                    )
                }
                Packet::RemoteNote { tag, len } => format!("note:{tag}:{len}"),
                Packet::XlateMiss { block } => format!("xmiss:{block}"),
                Packet::Nack { op, reason, .. } => format!("nack:{op}:{reason:?}"),
            };
            let now = eng.now();
            eng.state.log.push((now, env.dst, desc));
        }
    }

    fn engine(n: usize) -> Engine<TestWorld> {
        Engine::new(TestWorld::new(n, NetConfig::ideal()), 1)
    }

    #[test]
    fn user_message_arrival_time_matches_model() {
        let mut eng = engine(2);
        send_user(&mut eng, 0, 1, 100, "hi".into());
        eng.run();
        // ideal: o_send 10 + serialize(100)=110 + L 100 + rx 110 = 330ns.
        assert_eq!(eng.state.log.len(), 1);
        let (t, dst, ref desc) = eng.state.log[0];
        assert_eq!(dst, 1);
        assert_eq!(desc, "user:hi");
        assert_eq!(t, Time::from_ns(330));
        assert_eq!(eng.state.cluster.loc(0).counters.msgs_sent, 1);
        assert_eq!(eng.state.cluster.loc(1).counters.msgs_recv, 1);
    }

    /// Four senders' wire draws over many messages: every realised fault
    /// rate sits within 4σ of what the plan implies, per sender and
    /// overall; the jitter is uniform on `[0, jitter_ns]`; two senders at
    /// the same count draw apart; and a dropped message still uses up its
    /// sender's count.
    #[test]
    fn senders_draw_fair_and_independent() {
        const SENDERS: LocalityId = 4;
        const N: u64 = 20_000;
        const P: f64 = 0.1;
        const JITTER: u64 = 50;
        let cfg = NetConfig {
            jitter_ns: JITTER,
            ..NetConfig::ideal()
        };
        let mut eng = Engine::new(TestWorld::new(SENDERS as usize + 1, cfg), 5);
        let rates = FaultRates {
            drop: P,
            dup: P,
            corrupt: P,
            delay_p: P,
            delay_min_ns: 100,
            delay_max_ns: 200,
        };
        let plan = FaultPlan {
            rates,
            ..FaultPlan::lossless(17)
        };
        eng.state.cluster.faults = Some(FaultPlane::new(plan));
        // Each message leaves an idle port, so where it lands, less the
        // fixed costs, is its jitter plus any delay spike (≥ 100 ns).
        let fixed = cfg.serialize(8) + cfg.latency;
        let spike = Time::from_ns(JITTER);
        let mut verdicts = vec![Vec::new(); SENDERS as usize];
        let mut jitter = [0u64; JITTER as usize + 1];
        for s in 0..SENDERS {
            for i in 0..N {
                let at = Time::from_us(2 * i);
                let land = launch(&mut eng, s, SENDERS, at, 8, FaultClass::Request, true);
                verdicts[s as usize]
                    .push(land.map(|l| (l.dup_at.is_some(), l.at - at - fixed > spike)));
                let at = at + Time::from_us(1);
                let land = launch(&mut eng, s, SENDERS, at, 8, FaultClass::Bypass, true);
                jitter[((land.unwrap().at - at - fixed).ps() / 1000) as usize] += 1;
            }
        }

        let within = |what: String, got: u64, n: u64, p: f64| {
            let (rate, sigma) = (got as f64 / n as f64, (p * (1.0 - p) / n as f64).sqrt());
            assert!(
                (rate - p).abs() <= 4.0 * sigma,
                "{what}: {rate:.5} against {p:.5} ± 4σ = {:.5}",
                4.0 * sigma
            );
        };
        // A request's draws are checked in order: a drop ends it, then a
        // corruption (a link-CRC drop); dup and delay count on what is left.
        let q = 1.0 - P;
        let check = |who: &str, f: &FaultStats, n: u64| {
            within(format!("{who} dropped"), f.dropped, n, P);
            within(format!("{who} corrupt"), f.corrupt_drops, n, q * P);
            within(format!("{who} duplicated"), f.duplicated, n, q * q * P);
            within(format!("{who} delayed"), f.delayed, n, q * q * P);
        };
        for s in 0..SENDERS {
            let sender = eng.state.cluster.loc(s);
            check(&format!("sender {s}"), &sender.fault_stats, N);
            assert_eq!(
                sender.wire_msgs,
                2 * N,
                "sender {s}: drops use up counts too"
            );
        }
        check(
            "overall",
            &eng.state.cluster.fault_stats(),
            u64::from(SENDERS) * N,
        );

        let draws = u64::from(SENDERS) * N;
        let values = JITTER + 1;
        for (ns, &count) in jitter.iter().enumerate() {
            within(format!("jitter {ns} ns"), count, draws, 1.0 / values as f64);
        }
        let mean = jitter
            .iter()
            .zip(0u64..)
            .map(|(&c, ns)| c * ns)
            .sum::<u64>() as f64
            / draws as f64;
        let sigma = ((values * values - 1) as f64 / 12.0 / draws as f64).sqrt();
        let want = JITTER as f64 / 2.0;
        assert!(
            (mean - want).abs() <= 4.0 * sigma,
            "jitter mean {mean:.3} ns"
        );

        assert_ne!(
            verdicts[0][..200],
            verdicts[1][..200],
            "two senders drew alike"
        );
    }

    #[test]
    fn loopback_message_is_cheap() {
        let mut eng = engine(2);
        send_user(&mut eng, 0, 0, 100, "self".into());
        eng.run();
        assert_eq!(eng.state.log[0].0, Time::from_ns(20)); // ideal loopback
    }

    #[test]
    fn back_to_back_sends_serialize_on_tx_port() {
        let mut eng = engine(2);
        send_user(&mut eng, 0, 1, 100, "a".into());
        send_user(&mut eng, 0, 1, 100, "b".into());
        eng.run();
        let t_a = eng.state.log[0].0;
        let t_b = eng.state.log[1].0;
        // Second message waits a full serialize (110ns) behind the first on
        // both ports.
        assert_eq!(t_b - t_a, Time::from_ns(110));
    }

    fn amo_req(target: LocalityId, block: u64, offset: u64, amo: AmoOp, op: OpId) -> Access {
        let at = RdmaTarget::Virt { block, offset };
        let verb = Verb::amo(amo, (0, op.raw()));
        Access::new(target, at, verb, op, 2, FaultClass::Request)
    }

    fn seed_word(eng: &mut Engine<TestWorld>, loc: LocalityId, addr: PhysAddr, val: u64) {
        eng.state
            .cluster
            .mem_mut(loc)
            .write(addr, &val.to_le_bytes())
            .unwrap();
    }

    fn read_word(eng: &Engine<TestWorld>, loc: LocalityId, addr: PhysAddr) -> u64 {
        u64::from_le_bytes(
            eng.state.cluster.mem(loc).read(addr, 8).unwrap()[..8]
                .try_into()
                .unwrap(),
        )
    }

    #[test]
    fn amo_cas_success_and_failure() {
        let mut eng = engine(2);
        let base = eng.state.cluster.mem_mut(1).alloc_block(10).unwrap();
        eng.state.cluster.install_xlate(
            1,
            7,
            XlateEntry {
                base,
                len: 1024,
                generation: 1,
            },
        );
        seed_word(&mut eng, 1, base, 5);
        let op1 = eng.state.cluster.alloc_op();
        rdma_issue(
            &mut eng,
            0,
            amo_req(
                1,
                7,
                0,
                AmoOp::CompareSwap {
                    expected: 9,
                    desired: 100,
                },
                op1,
            ),
        );
        eng.run();
        assert_eq!(read_word(&eng, 1, base), 5, "failed CAS must not write");
        assert_eq!(
            eng.state.log[0].2,
            format!("amodone:{op1}:5:false:[]"),
            "failed CAS still completes, with applied=false"
        );
        let op2 = eng.state.cluster.alloc_op();
        rdma_issue(
            &mut eng,
            0,
            amo_req(
                1,
                7,
                0,
                AmoOp::CompareSwap {
                    expected: 5,
                    desired: 100,
                },
                op2,
            ),
        );
        eng.run();
        assert_eq!(read_word(&eng, 1, base), 100);
        assert_eq!(eng.state.log[1].2, format!("amodone:{op2}:5:true:[]"));
        assert_eq!(eng.state.cluster.loc(1).counters.amo_executed, 2);
    }

    #[test]
    fn amo_masked_put_and_gather_scatter() {
        let mut eng = engine(2);
        let base = eng.state.cluster.mem_mut(1).alloc_block(10).unwrap();
        eng.state.cluster.install_xlate(
            1,
            9,
            XlateEntry {
                base,
                len: 1024,
                generation: 1,
            },
        );
        let op1 = eng.state.cluster.alloc_op();
        rdma_issue(
            &mut eng,
            0,
            amo_req(
                1,
                9,
                8,
                AmoOp::MaskedPut {
                    mask: 0xFF,
                    value: 0x42,
                },
                op1,
            ),
        );
        let op2 = eng.state.cluster.alloc_op();
        rdma_issue(
            &mut eng,
            0,
            amo_req(
                1,
                9,
                0,
                AmoOp::Scatter {
                    writes: Box::new([(32, 11), (40, 22)]),
                },
                op2,
            ),
        );
        eng.run();
        assert_eq!(read_word(&eng, 1, base + 8), 0x42);
        assert_eq!(read_word(&eng, 1, base + 32), 11);
        let op3 = eng.state.cluster.alloc_op();
        rdma_issue(
            &mut eng,
            0,
            amo_req(
                1,
                9,
                0,
                AmoOp::Gather {
                    offsets: Box::new([40, 32, 8]),
                },
                op3,
            ),
        );
        eng.run();
        assert_eq!(
            eng.state.log.last().unwrap().2,
            format!("amodone:{op3}:0:true:[22,11,66]")
        );
    }

    #[test]
    fn oversubscription_throttles_disjoint_pairs() {
        // Two disjoint pairs send simultaneously. Full bisection: they do
        // not interact. 2:1 oversubscription on a 4-node fabric: the core
        // carries only 2 links' worth of aggregate bandwidth.
        let run = |oversub: u64| {
            let cfg = NetConfig {
                oversubscription: oversub,
                ..NetConfig::ideal()
            };
            let mut eng = Engine::new(TestWorld::new(4, cfg), 1);
            send_user(&mut eng, 0, 1, 60_000, "a".into());
            send_user(&mut eng, 2, 3, 60_000, "b".into());
            eng.run();
            eng.state.log.iter().map(|&(t, _, _)| t).max().unwrap()
        };
        let full = run(1);
        let half = run(4); // aggregate = 4/4 = 1 link for both flows
        assert!(half > full, "full={full} half={half}");
    }

    #[test]
    fn larger_put_takes_longer() {
        let run_one = |size: u32| {
            let mut eng = engine(2);
            let addr = eng.state.cluster.mem_mut(1).alloc_block(22).unwrap();
            let op = eng.state.cluster.alloc_op();
            rdma_put(
                &mut eng,
                0,
                PutReq {
                    target: 1,
                    dst: RdmaTarget::Phys(addr),
                    data: vec![0u8; size as usize],
                    op,
                    remote_tag: None,
                    ttl: 2,
                    class: FaultClass::Request,
                },
            );
            eng.run();
            eng.state.log[0].0
        };
        let small = run_one(8);
        let big = run_one(65_536);
        assert!(big > small * 10, "{small} vs {big}");
    }

    const KINDS: [OpKind; 3] = [OpKind::Put, OpKind::Get, OpKind::Amo];
    /// The block every generic access below addresses, the value its word 0
    /// holds beforehand, and the value the put writes there.
    const BLOCK: u64 = 0xB10C;
    const SEED: u64 = 40;
    const PUT: u64 = 0x1111_1111_1111_1111;
    /// The translation generation [`install_block`] installs it under.
    const GEN: u32 = 3;

    /// An 8-byte access of `kind` issued by locality 0: the put writes
    /// [`PUT`] (and asks for remote note 77), the get reads into `local`,
    /// the AMO fetch-adds 2.
    fn access(
        kind: OpKind,
        target: LocalityId,
        at: RdmaTarget,
        local: PhysAddr,
        op: OpId,
    ) -> Access {
        let verb = match kind {
            OpKind::Put => Verb::put(PUT.to_le_bytes().to_vec().into(), Some(77)),
            OpKind::Get => Verb::Get { len: 8, local },
            OpKind::Amo => Verb::amo(AmoOp::FetchAdd { operand: 2 }, (0, op.raw())),
        };
        Access::new(target, at, verb, op, 2, FaultClass::Request)
    }

    /// Allocate [`BLOCK`] (1 KiB) at `owner` with word 0 holding [`SEED`];
    /// returns its physical base and the entry that will translate it.
    fn place_block(eng: &mut Engine<TestWorld>, owner: LocalityId) -> (PhysAddr, XlateEntry) {
        place_block_in(&mut eng.state.cluster, owner)
    }

    /// [`place_block`] in any world's cluster.
    fn place_block_in(c: &mut Cluster, owner: LocalityId) -> (PhysAddr, XlateEntry) {
        let base = c.mem_mut(owner).alloc_block(10).unwrap();
        c.mem_mut(owner).write(base, &SEED.to_le_bytes()).unwrap();
        let entry = XlateEntry {
            base,
            len: 1024,
            generation: GEN,
        };
        (base, entry)
    }

    /// [`place_block`], translated by `owner`'s NIC from the start.
    fn install_block(eng: &mut Engine<TestWorld>, owner: LocalityId) -> PhysAddr {
        let (base, entry) = place_block(eng, owner);
        eng.state.cluster.install_xlate(owner, BLOCK, entry);
        base
    }

    /// Leave a forwarding tombstone for [`BLOCK`] at `at`, pointing to
    /// `next`, retired at generation `retired`.
    fn tombstone(eng: &mut Engine<TestWorld>, at: LocalityId, next: LocalityId, retired: u32) {
        let nic = &mut eng.state.cluster.loc_mut(at).nic;
        nic.xlate.retire_to_forward(BLOCK, next, retired);
    }

    #[test]
    fn severed_request_link_drops_every_kind() {
        // The request's first wire leg is the link initiator -> target: a
        // flap or partition window covering it must drop the request
        // before it reaches the target NIC, whatever the verb.
        let until = Time::from_us(10);
        for kind in KINDS {
            for flap in [true, false] {
                let mut plan = FaultPlan::lossless(9);
                if flap {
                    plan.flaps.push(LinkFlap {
                        src: 0,
                        dst: 1,
                        from: Time::ZERO,
                        to: until,
                    });
                } else {
                    plan.partitions.push(Partition {
                        from: Time::ZERO,
                        to: until,
                        group_a: vec![0],
                    });
                }
                let mut eng = engine(2);
                eng.state.cluster.faults = Some(FaultPlane::new(plan));
                let base = install_block(&mut eng, 1);
                let local = eng.state.cluster.mem_mut(0).alloc_block(10).unwrap();
                let op = eng.state.cluster.alloc_op();
                let at = RdmaTarget::Virt {
                    block: BLOCK,
                    offset: 0,
                };
                rdma_issue(&mut eng, 0, access(kind, 1, at, local, op));
                eng.run();
                let tag = format!("{kind:?}, flap={flap}");
                assert!(eng.state.log.is_empty(), "{tag}: {:?}", eng.state.log);
                assert_eq!(
                    read_word(&eng, 1, base),
                    SEED,
                    "{tag}: target memory touched"
                );
                let stats = eng.state.cluster.fault_stats();
                let want = if flap { (1, 0) } else { (0, 1) };
                assert_eq!((stats.flap_drops, stats.partition_drops), want, "{tag}");
            }
        }
    }

    /// The protocol situations one access can meet: the table's rows.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Case {
        /// Raw physical target at locality 1 (no translation).
        Phys,
        /// Virtual target, block resident at locality 1.
        VirtHit,
        /// Virtual target, nothing installed at locality 1.
        Miss,
        /// Resident block, access straddling its end.
        Bounds,
        /// Locality 1 holds a tombstone toward the owner, locality 2.
        Forward,
        /// A tombstone chain 1 -> 2 -> 3 ending at the owner, locality 3.
        Forward2,
        /// The same chain, its first tombstone far older than the second:
        /// a newer tombstone than the floor still forwards.
        ForwardNewer,
        /// Same tombstone, the request carrying `ttl` 0 (forwarding off).
        ForwardOff,
        /// A chain 1 -> 2 -> 3 -> ... one hop longer than the TTL.
        Ttl,
        /// Initiator and owner are both locality 0.
        Loopback,
        /// Loop-back at a NIC with nothing installed.
        LoopbackMiss,
        /// The 0 -> 1 link delivers every request twice.
        Duplicate,
        /// [`Case::Forward`] behind that doubling link: both copies chase
        /// the tombstone to locality 2.
        DuplicateForward,
        /// [`Case::Forward`], but the forward outruns the block: locality 2
        /// holds nothing until its install at [`LATE`].
        ParkMiss,
        /// As [`Case::ParkMiss`], with locality 2 still holding its older
        /// tombstone back toward 1 from the block's previous stay.
        ParkStale,
        /// [`Case::ParkMiss`] whose install never comes.
        ParkExpired,
        /// [`Case::ParkMiss`] behind the doubling link: both copies park.
        DupPark,
    }

    /// When the park cases install the block at its new owner (ns): after
    /// both copies of a duplicated request have arrived.
    const LATE: u64 = 3_000;

    /// The protocol table: one row per case, one `#[test]` per cell. A row
    /// gives the expected outcome (`None` = completes, `Some` = NACKs with
    /// that reason) and, per kind, the instant in ns under
    /// [`NetConfig::ideal`] at which the initiator hears it. Every request
    /// is 8 bytes on the wire here (ctrl = 8), so one leg is o_send 10 +
    /// tx 18 + wire 100 + rx 18 (+ xlate 5 for a virtual target); acks and
    /// NACKs cost tx 18 + wire 100, a get's payload another rx 18.
    ///
    /// A completion reached through a forward carries the redirect hint —
    /// `moved == Some(GEN)` from the committing locality; every other
    /// completion (phys, direct hit, loop-back) carries `None`. A put's ack
    /// crosses its delivery event by value and is rebuilt on the far side
    /// ([`deliver_at`]): the `Put` cells of `forward2` and `dup_forward` are
    /// what hold the rebuilt packet — both copies of it — to the hint and
    /// the source the ack left with.
    ///
    /// A parked request commits at the install ([`LATE`]) and is acked
    /// 118 ns on; an abandoned one is NACKed [`PARK_TIMEOUT`] after it
    /// parked (at 292 ns, the instant [`Case::Forward`] commits).
    macro_rules! protocol_table {
        ($($row:ident: $case:expr, $nack:expr, { $($kind:ident = $ns:expr),+ };)+) => {$(
            mod $row {
                use super::*;
                $(
                    #[test]
                    #[allow(non_snake_case)]
                    fn $kind() {
                        run_cell($case, OpKind::$kind, $nack, Time::from_ns($ns));
                    }
                )+
            }
        )+};
    }

    protocol_table! {
        phys:          Case::Phys,         None,                          { Put = 264, Get = 282 };
        virt_hit:      Case::VirtHit,      None,                          { Put = 269, Get = 287, Amo = 269 };
        miss:          Case::Miss,         Some(NackReason::Miss),        { Put = 269, Get = 269, Amo = 269 };
        bounds:        Case::Bounds,       Some(NackReason::Bounds),      { Put = 269, Get = 269, Amo = 269 };
        forward:       Case::Forward,      None,                          { Put = 410, Get = 428, Amo = 410 };
        forward2:      Case::Forward2,     None,                          { Put = 551, Get = 569, Amo = 551 };
        forward_newer_tombstone: Case::ForwardNewer, None,                { Put = 551, Get = 569, Amo = 551 };
        forward_off:   Case::ForwardOff,   Some(NackReason::TtlExceeded), { Put = 269, Get = 269, Amo = 269 };
        ttl:           Case::Ttl,          Some(NackReason::TtlExceeded), { Put = 551, Get = 551, Amo = 551 };
        loopback:      Case::Loopback,     None,                          { Put = 20,  Get = 20,  Amo = 20 };
        loopback_miss: Case::LoopbackMiss, Some(NackReason::Miss),        { Put = 40,  Get = 40,  Amo = 40 };
        // The copy's answer trails by the plane's fixed 1 us spacing.
        duplicate:     Case::Duplicate,    None,                          { Put = 269, Get = 287, Amo = 269 };
        // Both copies are forwarded, and both acks carry the same hint (the
        // AMO's second, a replay, peeks it).
        dup_forward:   Case::DuplicateForward, None,                      { Put = 410, Get = 428, Amo = 410 };
        park_miss:     Case::ParkMiss,     None,                          { Put = 3118, Get = 3136, Amo = 3118 };
        park_stale_tombstone: Case::ParkStale, None,                      { Put = 3118, Get = 3136, Amo = 3118 };
        park_expired:  Case::ParkExpired,  Some(NackReason::TtlExceeded), { Put = 50_410, Get = 50_410, Amo = 50_410 };
        // Both copies release at the install; the second ack queues one
        // control serialization (18 ns) behind the first on the tx port.
        dup_park:      Case::DupPark,      None,                          { Put = 3118, Get = 3136, Amo = 3118 };
    }

    /// Build the world for `case`, issue one `kind` access from locality 0
    /// (from its own NIC for the loop-back cases), and check the outcome,
    /// its instant, the memory effect, every counter and the trace.
    fn run_cell(case: Case, kind: OpKind, nack: Option<NackReason>, at: Time) {
        let tag = format!("{case:?}/{kind:?}");
        let mut eng = Engine::new(TestWorld::new(4, NetConfig::ideal()), 1);
        eng.state.cluster.tracer.enable(64);
        let parks = matches!(
            case,
            Case::ParkMiss | Case::ParkStale | Case::ParkExpired | Case::DupPark
        );
        let (target, owner) = match case {
            Case::Loopback | Case::LoopbackMiss => (0, 0),
            Case::Forward | Case::DuplicateForward => (1, 2),
            Case::Forward2 | Case::ForwardNewer => (1, 3),
            _ if parks => (1, 2),
            _ => (1, 1),
        };
        let duplicated = matches!(
            case,
            Case::Duplicate | Case::DuplicateForward | Case::DupPark
        );
        let resident = !matches!(
            case,
            Case::Miss | Case::ForwardOff | Case::Ttl | Case::LoopbackMiss | Case::ParkExpired
        );
        let base = resident.then(|| {
            if parks {
                // The bytes are there; the translation lands at LATE.
                let (base, entry) = place_block(&mut eng, owner);
                eng.schedule_at_loc(Time::from_ns(LATE), owner, move |eng| {
                    install_xlate(eng, owner, BLOCK, entry)
                });
                base
            } else {
                install_block(&mut eng, owner)
            }
        });
        // Tombstones remember the generation they were retired at; along a
        // chain it rises, ending one below the owner's GEN.
        match case {
            Case::Forward | Case::ForwardOff | Case::DuplicateForward => {
                tombstone(&mut eng, 1, 2, GEN - 1)
            }
            Case::Forward2 => {
                tombstone(&mut eng, 1, 2, GEN - 2);
                tombstone(&mut eng, 2, 3, GEN - 1);
            }
            Case::ForwardNewer => {
                tombstone(&mut eng, 1, 2, 0);
                tombstone(&mut eng, 2, 3, GEN - 1);
            }
            Case::Ttl => {
                tombstone(&mut eng, 1, 2, 1);
                tombstone(&mut eng, 2, 3, 2);
                tombstone(&mut eng, 3, 0, 3);
            }
            Case::ParkStale => {
                tombstone(&mut eng, 1, 2, GEN - 1);
                tombstone(&mut eng, 2, 1, GEN - 2);
            }
            _ if parks => tombstone(&mut eng, 1, 2, GEN - 1),
            _ => {}
        }
        if duplicated {
            let mut plan = FaultPlan::lossless(3);
            let twice = FaultRates {
                dup: 1.0,
                ..FaultRates::lossless()
            };
            plan.link_rates.push((0, 1, twice));
            eng.state.cluster.faults = Some(FaultPlane::new(plan));
        }
        let dst = match case {
            Case::Phys => RdmaTarget::Phys(base.unwrap()),
            Case::Bounds => RdmaTarget::Virt {
                block: BLOCK,
                offset: 1020,
            },
            _ => RdmaTarget::Virt {
                block: BLOCK,
                offset: 0,
            },
        };
        let local = eng.state.cluster.mem_mut(0).alloc_block(10).unwrap();
        let op = eng.state.cluster.alloc_op();
        let mut req = access(kind, target, dst, local, op);
        if case == Case::ForwardOff {
            req.ttl = 0;
        }
        rdma_issue(&mut eng, 0, req);
        eng.run();

        // What the initiator hears, and when: a forwarded completion names
        // the committing locality and its generation, any other carries no
        // hint. A duplicated request is answered twice with the same words,
        // 1 us apart — or back to back when both copies parked.
        let forwards = match case {
            Case::Forward | Case::ParkMiss | Case::ParkStale | Case::ParkExpired => 1,
            Case::Forward2 | Case::ForwardNewer | Case::Ttl => 2,
            Case::DuplicateForward | Case::DupPark => 2,
            _ => 0,
        };
        let hint = if forwards > 0 {
            format!(":moved({owner},{GEN})")
        } else {
            String::new()
        };
        let heard = match (nack, kind) {
            (Some(reason), _) => format!("nack:{op}:{reason:?}"),
            (None, OpKind::Put) => format!("putdone:{op}{hint}"),
            (None, OpKind::Get) => format!("getdone:{op}{hint}"),
            (None, OpKind::Amo) => format!("amodone:{op}:{SEED}:true:[]{hint}"),
        };
        let mut want = vec![(at, 0, heard.clone())];
        if duplicated {
            let gap = match case {
                // Released together: the get's 8 B payload and a control
                // ack both serialize in 18 ns.
                Case::DupPark => Time::from_ns(18),
                _ => Time::from_us(1),
            };
            want.push((at + gap, 0, heard));
        }
        // What NICs raise at their own hosts: a table-miss interrupt per
        // miss (at the NIC that missed), then a put's remote note per
        // commit (at the owner).
        let (interrupts, miss_at) = match case {
            Case::Miss | Case::LoopbackMiss => (1, target),
            Case::ParkMiss | Case::ParkExpired => (1, owner),
            Case::DupPark => (2, owner),
            _ => (0, owner),
        };
        let notes = if nack.is_none() && kind == OpKind::Put {
            want.len()
        } else {
            0
        };
        let log = &eng.state.log;
        let side: Vec<&(Time, LocalityId, String)> = log
            .iter()
            .filter(|(_, _, d)| d.starts_with("xmiss") || d.starts_with("note"))
            .collect();
        let answers: Vec<_> = log.iter().filter(|e| !side.contains(e)).cloned().collect();
        assert_eq!(answers, want, "{tag}");
        let mut side_want = vec![(miss_at, format!("xmiss:{BLOCK}")); interrupts];
        side_want.extend(vec![(owner, "note:77:8".to_string()); notes]);
        let side: Vec<(LocalityId, String)> =
            side.iter().map(|(_, l, d)| (*l, d.clone())).collect();
        assert_eq!(side, side_want, "{tag}");

        // Memory effect: applied exactly once on success, untouched on a
        // NACK (the get lands [`SEED`] in the initiator's buffer).
        if let Some(base) = base {
            let word = match (nack, kind) {
                (None, OpKind::Put) => PUT,
                (None, OpKind::Amo) => SEED + 2,
                _ => SEED,
            };
            assert_eq!(read_word(&eng, owner, base), word, "{tag}: owner word");
        }
        let landed = if nack.is_none() && kind == OpKind::Get {
            SEED
        } else {
            0
        };
        assert_eq!(read_word(&eng, 0, local), landed, "{tag}: landing buffer");

        // Counters.
        let total = eng.state.cluster.total_counters();
        let per_kind = [total.rdma_puts, total.rdma_gets, total.rdma_amos];
        let issued: Vec<u64> = KINDS.iter().map(|k| (*k == kind) as u64).collect();
        assert_eq!(per_kind.to_vec(), issued, "{tag}: issue counters");
        let nacked = nack.is_some() as u64;
        assert_eq!(
            (total.nacks_sent, total.nacks_recv),
            (nacked, nacked),
            "{tag}"
        );
        assert_eq!(total.xlate_forwards, forwards, "{tag}: forwards");
        assert_eq!(total.xlate_misses, interrupts as u64, "{tag}: misses");
        // Every park happens at the owner-to-be, one per arriving copy, and
        // none outlives the run: released by the install or expired.
        let parked = if parks { want.len() as u64 } else { 0 };
        let expired = (case == Case::ParkExpired) as u64;
        assert_eq!(
            (total.xlate_parked, total.xlate_park_expired),
            (parked, expired),
            "{tag}: parked/expired"
        );
        assert_eq!(
            eng.state.cluster.loc(owner).counters.xlate_parked,
            parked,
            "{tag}"
        );
        for l in 0..4 {
            assert!(
                eng.state.cluster.loc(l).nic.parked.is_empty(),
                "{tag}: park leaked at {l}"
            );
        }
        let commits = if nack.is_some() { 0 } else { want.len() as u64 };
        let replays = (kind == OpKind::Amo && duplicated) as u64;
        let hits = if case == Case::Phys {
            0
        } else {
            commits - replays
        };
        assert_eq!(total.xlate_hits, hits, "{tag}: hits");
        assert_eq!(
            eng.state.cluster.loc(owner).counters.xlate_hits,
            hits,
            "{tag}"
        );
        assert_eq!(total.sw_handler_runs, 0, "{tag}: target CPU ran");
        let amo = (kind == OpKind::Amo) as u64;
        let amo_want = [
            amo * (commits - replays),
            amo * replays,
            amo * nacked,
            amo * forwards,
        ];
        let amo_got = [
            total.amo_executed,
            total.amo_replays,
            total.amo_nacked,
            total.amo_forwarded,
        ];
        assert_eq!(
            amo_got, amo_want,
            "{tag}: executed/replays/nacked/forwarded"
        );
        if duplicated {
            assert_eq!(eng.state.cluster.fault_stats().duplicated, 1, "{tag}");
        }

        // The translation outcome is traced for every kind, at the NIC
        // that made it, in visit order.
        let xlate_trace: Vec<TraceKind> = eng
            .state
            .cluster
            .tracer
            .events()
            .iter()
            .map(|e| e.kind)
            .filter(|k| {
                matches!(
                    k,
                    TraceKind::XlateHit { .. }
                        | TraceKind::XlateForward { .. }
                        | TraceKind::XlateMiss { .. }
                )
            })
            .collect();
        let block = BLOCK;
        let fwd = |at, next| TraceKind::XlateForward { at, next, block };
        let miss = |at| TraceKind::XlateMiss { at, block };
        let hit = TraceKind::XlateHit { at: owner, block };
        let trace_want = match case {
            Case::Phys | Case::Bounds | Case::ForwardOff => Vec::new(),
            Case::Miss | Case::LoopbackMiss => vec![miss(target)],
            Case::Forward | Case::ParkStale => vec![fwd(1, 2), hit],
            Case::Forward2 | Case::ForwardNewer => vec![fwd(1, 2), fwd(2, 3), hit],
            Case::Ttl => vec![fwd(1, 2), fwd(2, 3)],
            Case::VirtHit | Case::Loopback => vec![hit],
            Case::Duplicate => vec![hit; hits as usize],
            // The copy trails a full microsecond: it is forwarded only
            // after the original has committed.
            Case::DuplicateForward => {
                [fwd(1, 2), hit, fwd(1, 2), hit][..2 + hits as usize].to_vec()
            }
            // A parked miss is traced when it parks; the hit when the
            // install releases it.
            Case::ParkMiss => vec![fwd(1, 2), miss(2), hit],
            Case::ParkExpired => vec![fwd(1, 2), miss(2)],
            Case::DupPark => {
                [fwd(1, 2), miss(2), fwd(1, 2), miss(2), hit, hit][..4 + hits as usize].to_vec()
            }
        };
        assert_eq!(xlate_trace, trace_want, "{tag}: trace");
    }

    #[test]
    fn a_saturated_floor_under_claims_and_parks_nothing_wrongly() {
        // Generations past the floor's sixteen bits. Locality 1's tombstone
        // (retired at 70 000) forwards with the floor saturated at 65 535,
        // so locality 2's stale tombstone (69 999) is not recognised as
        // stale: the request ping-pongs out its TTL, the answer it got
        // before parking existed.
        let mut eng = engine(3);
        tombstone(&mut eng, 1, 2, 70_000);
        tombstone(&mut eng, 2, 1, 69_999);
        let at = RdmaTarget::Virt {
            block: BLOCK,
            offset: 0,
        };
        let op = eng.state.cluster.alloc_op();
        rdma_issue(&mut eng, 0, access(OpKind::Get, 1, at, 0, op));
        eng.run();
        let heard: Vec<&str> = eng.state.log.iter().map(|(_, _, d)| d.as_str()).collect();
        assert_eq!(heard, [format!("nack:{op}:TtlExceeded")]);
        let total = eng.state.cluster.total_counters();
        assert_eq!((total.xlate_forwards, total.xlate_parked), (2, 0));
        // One generation below the saturation point the same shape parks.
        let mut eng = engine(3);
        tombstone(&mut eng, 1, 2, 65_534);
        tombstone(&mut eng, 2, 1, 65_533);
        let op = eng.state.cluster.alloc_op();
        rdma_issue(&mut eng, 0, access(OpKind::Get, 1, at, 0, op));
        eng.run();
        let total = eng.state.cluster.total_counters();
        assert_eq!((total.xlate_forwards, total.xlate_parked), (1, 1));
    }

    #[test]
    fn replayed_amo_after_a_forward_carries_the_hint() {
        // The block lives at 2; locality 1 keeps its tombstone. The first
        // attempt goes straight to the owner (no hint). A retry of the same
        // key aimed at the stale owner is forwarded, answered from the
        // responder cache — and still tells the initiator where it landed.
        let mut eng = engine(3);
        let base = install_block(&mut eng, 2);
        tombstone(&mut eng, 1, 2, GEN - 1);
        let at = RdmaTarget::Virt {
            block: BLOCK,
            offset: 0,
        };
        let op = eng.state.cluster.alloc_op();
        rdma_issue(&mut eng, 0, access(OpKind::Amo, 2, at, 0, op));
        eng.run();
        rdma_issue(&mut eng, 0, access(OpKind::Amo, 1, at, 0, op));
        eng.run();
        let heard: Vec<&str> = eng.state.log.iter().map(|(_, _, d)| d.as_str()).collect();
        let done = format!("amodone:{op}:{SEED}:true:[]");
        assert_eq!(heard, [done.clone(), format!("{done}:moved(2,{GEN})")]);
        assert_eq!(read_word(&eng, 2, base), SEED + 2, "applied exactly once");
        let owner = &eng.state.cluster.loc(2).counters;
        assert_eq!((owner.amo_executed, owner.amo_replays), (1, 1));
        // The replay peeked the generation: one translation hit, not two.
        assert_eq!(owner.xlate_hits, 1);
    }

    #[test]
    fn forward_from_the_initiators_own_nic_is_hinted() {
        // Loop-back visit, but the local NIC holds only a tombstone: the
        // request leaves through a forward hop, so its completion carries
        // the hint even though the first visit paid no wire.
        for kind in KINDS {
            let mut eng = engine(2);
            install_block(&mut eng, 1);
            tombstone(&mut eng, 0, 1, GEN - 1);
            let at = RdmaTarget::Virt {
                block: BLOCK,
                offset: 0,
            };
            let local = eng.state.cluster.mem_mut(0).alloc_block(10).unwrap();
            let op = eng.state.cluster.alloc_op();
            rdma_issue(&mut eng, 0, access(kind, 0, at, local, op));
            eng.run();
            let heard: Vec<&String> = eng
                .state
                .log
                .iter()
                .filter(|(_, l, _)| *l == 0)
                .map(|(_, _, d)| d)
                .collect();
            assert_eq!(heard.len(), 1, "{kind:?}: {heard:?}");
            let hint = format!(":moved(1,{GEN})");
            assert!(heard[0].ends_with(&hint), "{kind:?}: {heard:?}");
        }
    }

    #[test]
    fn apply_kernel_is_one_replay_policy_for_every_path() {
        // The NIC commit, the software handler, the shm commit and the
        // local commit all apply through `Locality::apply`; whichever of
        // them a retry lands on, one dedup key applies at most once.
        let mut eng = engine(2);
        let base = install_block(&mut eng, 1);
        let at = RdmaTarget::Virt {
            block: BLOCK,
            offset: 0,
        };
        let op = eng.state.cluster.alloc_op();
        // First attempt: over the wire, executed by the NIC.
        let first = access(OpKind::Amo, 1, at, 0, op);
        let verb = first.verb().clone();
        rdma_issue(&mut eng, 0, first);
        eng.run();
        assert_eq!(read_word(&eng, 1, base), SEED + 2);
        // Retries of the same key through the kernel directly — what the
        // software, shm and local paths call — replay the NIC's result.
        for _ in 0..3 {
            let l = eng.state.cluster.loc_mut(1);
            match l.apply::<Payload>(BLOCK, base, 1024, 0, &verb) {
                Some(Applied::Amo { result, replayed }) => {
                    assert!(replayed);
                    assert_eq!(result.old, SEED);
                }
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(read_word(&eng, 1, base), SEED + 2, "applied exactly once");
        assert_eq!(eng.state.cluster.loc(1).nic.amo.len(), 1);

        // A read-only AMO never installs: it re-executes on every
        // delivery and cannot evict an entry guarding a mutation.
        let gather = Verb::amo(
            AmoOp::Gather {
                offsets: Box::new([0]),
            },
            (0, 999),
        );
        for _ in 0..2 {
            let l = eng.state.cluster.loc_mut(1);
            match l.apply::<Payload>(BLOCK, base, 1024, 0, &gather) {
                Some(Applied::Amo { result, replayed }) => {
                    assert!(!replayed);
                    assert_eq!(result.values, vec![SEED + 2]);
                }
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(eng.state.cluster.loc(1).nic.amo.len(), 1);

        // Out-of-extent accesses touch nothing, whatever the verb.
        let l = eng.state.cluster.loc_mut(1);
        for kind in KINDS {
            let verb = access(kind, 1, at, 0, op).verb().clone();
            let verb = match verb {
                Verb::Amo { amo, .. } => Verb::amo(amo, (0, 7)),
                v => v,
            };
            assert!(
                l.apply::<Payload>(BLOCK, base, 1024, 1020, &verb).is_none(),
                "{kind:?}"
            );
        }
        assert_eq!(read_word(&eng, 1, base), SEED + 2);
    }

    /// A protocol that completes ops the way the layers above do, through a
    /// generation-checked [`OpTable`](crate::optable::OpTable): the first
    /// completion of an op is live and reads what it brought — the word in
    /// a get's landing buffer at that instant, an AMO's result, a NACK's
    /// words — and any later one is stale.
    struct OwnerWorld {
        cluster: Cluster,
        /// Each op's landing buffer (unused by AMOs).
        ops: crate::optable::OpTable<PhysAddr>,
        live: Vec<String>,
        stale: u32,
    }

    impl Protocol for OwnerWorld {
        type Msg = ();
        fn cluster(&mut self) -> &mut Cluster {
            &mut self.cluster
        }
        fn cluster_ref(&self) -> &Cluster {
            &self.cluster
        }
        fn deliver(eng: &mut Engine<Self>, env: Envelope<()>) {
            let w = &mut eng.state;
            let (op, desc) = match env.packet {
                Packet::GetDone { op, .. } => (op, None),
                Packet::AmoDone { op, result, .. } => (op, Some(format!("amo:{}", result.old))),
                Packet::Nack {
                    op,
                    kind,
                    reason,
                    block,
                } => (op, Some(format!("nack:{kind:?}:{reason:?}:{block:#x}"))),
                _ => return,
            };
            let Ok(buf) = w.ops.remove(op) else {
                w.stale += 1;
                return;
            };
            let desc = desc.unwrap_or_else(|| {
                let word = w.cluster.mem(env.dst).read(buf, 8).unwrap();
                format!("get:{}", u64::from_le_bytes(word[..8].try_into().unwrap()))
            });
            w.live.push(desc);
        }
    }

    /// Issue one 8-byte `kind` access from locality 0 at `target`'s view
    /// of [`BLOCK`] (resident at `owner` when `resident`), with the
    /// `owner → 0` link duplicating every message; run to quiescence.
    fn answered(
        kind: OpKind,
        target: LocalityId,
        owner: LocalityId,
        resident: bool,
    ) -> Engine<OwnerWorld> {
        let cluster = Cluster::new(2, NetConfig::ideal(), 1 << 24);
        let world = OwnerWorld {
            cluster,
            ops: Default::default(),
            live: Vec::new(),
            stale: 0,
        };
        let mut eng = Engine::new(world, 1);
        if resident {
            let (_, entry) = place_block_in(&mut eng.state.cluster, owner);
            eng.state.cluster.install_xlate(owner, BLOCK, entry);
        }
        let mut plan = FaultPlan::lossless(3);
        let twice = FaultRates {
            dup: 1.0,
            ..FaultRates::lossless()
        };
        plan.link_rates.push((owner, 0, twice));
        eng.state.cluster.faults = Some(FaultPlane::new(plan));
        let local = eng.state.cluster.mem_mut(0).alloc_block(10).unwrap();
        let op = eng.state.ops.insert(local);
        let at = RdmaTarget::Virt {
            block: BLOCK,
            offset: 0,
        };
        rdma_issue(&mut eng, 0, access(kind, target, at, local, op));
        eng.run();
        eng
    }

    #[test]
    fn a_duplicated_get_reply_completes_once_with_its_bytes() {
        let eng = answered(OpKind::Get, 1, 1, true);
        let w = &eng.state;
        assert_eq!(w.live, [format!("get:{SEED}")]);
        assert_eq!(w.stale, 1, "the duplicate lands stale");
        assert_eq!(w.cluster.fault_stats().duplicated, 1);
        assert!(w.ops.is_empty());
    }

    #[test]
    fn a_duplicated_amo_reply_completes_once_with_its_result() {
        let eng = answered(OpKind::Amo, 1, 1, true);
        let w = &eng.state;
        assert_eq!(w.live, [format!("amo:{SEED}")]);
        assert_eq!(w.stale, 1, "the duplicate lands stale");
        assert_eq!(w.cluster.fault_stats().duplicated, 1);
        let owner = &w.cluster.loc(1).counters;
        assert_eq!((owner.amo_executed, owner.amo_replays), (1, 0));
    }

    #[test]
    fn a_nack_carries_its_kind_reason_and_block_home() {
        for kind in KINDS {
            let eng = answered(kind, 1, 1, false);
            let w = &eng.state;
            assert_eq!(w.live, [format!("nack:{kind:?}:Miss:{BLOCK:#x}")]);
            assert_eq!(w.stale, 1, "{kind:?}: the duplicate lands stale");
            assert_eq!(w.cluster.total_counters().nacks_recv, 2, "{kind:?}");
        }
    }

    #[test]
    fn a_loop_back_get_lands_its_bytes() {
        let eng = answered(OpKind::Get, 0, 0, true);
        let w = &eng.state;
        assert_eq!(w.live, [format!("get:{SEED}")]);
        assert_eq!(w.stale, 0);
        assert_eq!(w.cluster.fault_stats().duplicated, 0, "no wire leg");
    }
}
