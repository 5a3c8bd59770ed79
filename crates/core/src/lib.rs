//! # agas — the network-managed virtual global address space
//!
//! This crate is the paper's primary contribution, reconstructed: a virtual
//! global address space for message-driven runtimes in which the
//! virtual→physical translation of global addresses is **managed by the
//! network layer** (the simulated NIC's translation table) rather than by
//! runtime software, while still supporting **block migration**.
//!
//! Three interchangeable implementations sit behind one API
//! ([`ops::memput`] / [`ops::memget`] / [`migrate::migrate_block`]):
//!
//! | mode | translation | remote access | mobility |
//! |---|---|---|---|
//! | [`GasMode::Pgas`] | address arithmetic | RDMA on physical addresses | none |
//! | [`GasMode::AgasSoftware`] | target-CPU BTT lookup | two-sided parcel + reply | yes |
//! | [`GasMode::AgasNetwork`] | **target-NIC table** | RDMA on *virtual* addresses | yes |
//!
//! AGAS-SW is AGAS with `xlate_capacity: 0`: both AGAS rows run one protocol,
//! and whether the fabric keeps a NIC table ([`GasMode::net`]) picks the path.
//!
//! Supporting machinery: [`gva`] address encoding, [`btt`] block translation
//! tables, [`directory`] home-based ownership, [`cache`] source-side owner
//! hints, [`alloc`] collective allocation, [`migrate`] the migration
//! protocol with NIC forwarding/NACK recovery.

pub mod alloc;
pub mod btt;
pub mod cache;
pub mod check;
pub mod config;
pub mod directory;
pub mod dist;
pub mod gva;
pub mod membership;
pub mod migrate;
pub mod ops;
pub mod simworld;

pub use alloc::{alloc_array, GlobalArray, PgasMap};
pub use btt::{BlockState, Btt, BttEntry};
pub use cache::{OwnerCache, OwnerHint};
pub use check::{
    assert_consistent, check_blocks, check_history, check_history_events,
    check_word_history_events, value_hash, HistEvent, HistKind, Violation, WordEvent, WordOp,
};
pub use config::{GasConfig, GasMode};
pub use directory::{Directory, OwnerRec};
pub use dist::Distribution;
pub use gva::Gva;
pub use membership::{MemberState, MemberUpdate, MembershipView};
pub use simworld::{AmoPumpKind, SimData, SimEv, SimLoc, SimMsg, SimWorld};

use netsim::flatmap::FlatTable;
use netsim::{
    AmoKey, AmoResult, Applied, Engine, LocalityId, OpError, OpId, OpKind, OpTable, PhysAddr,
    ServerPool, Time, Verb,
};
use photon::PhotonWorld;
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// The request of a [`GasMsg::SwAccess`].
#[derive(Debug)]
pub struct SwAccess {
    /// Target block key.
    pub block: u64,
    /// Byte offset within the block (word ops: of the target word;
    /// scatter/gather carry their own offsets).
    pub offset: u64,
    /// The access — the same snapshot the one-sided paths carry, so an
    /// AMO's retry-stable `key` deduplicates against the NIC responder
    /// cache even when a retry switches paths.
    pub verb: Verb,
    /// Initiator's operation handle.
    pub ctx: OpId,
    /// Where the reply goes.
    pub reply_to: LocalityId,
}

/// What an [`OwnerReq`] asks a block's current owner to do: the two
/// operations that change where a block lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OwnerOp {
    /// Move the block to `dst`.
    Migrate {
        /// Destination locality.
        dst: LocalityId,
    },
    /// Release the block and retire its directory record.
    Free,
}

/// A migrate or free request, routed requester → home → current owner.
#[derive(Clone, Copy, Debug)]
pub struct OwnerReq {
    /// Block key.
    pub block: u64,
    /// What the owner is asked to do.
    pub op: OwnerOp,
    /// Requester's op handle for the completion callback.
    pub ctx: OpId,
    /// The requester.
    pub reply_to: LocalityId,
    /// Routing hops consumed (guards against pathological chases).
    pub hops: u8,
}

/// GAS wire-protocol messages, embedded into the world's message enum via
/// [`GasWorld::wrap_gas`].
#[derive(Debug)]
pub enum GasMsg {
    /// Software remote access: the owner's **CPU** translates through its
    /// BTT, applies the request's verb and replies — every byte consumes
    /// target cores. The AGAS-SW fast path for puts and gets, and for AMOs
    /// the emulated baseline (PGAS, AGAS-SW, network-mode fallback) the
    /// NIC-executed path is measured against. Answered by
    /// [`GasMsg::SwReply`], or [`GasMsg::SwRetry`] when the block is not
    /// resident.
    ///
    /// Boxed by the initiator, once: the wire events, this message, a
    /// mid-migration queue and the target's handler event all pass the same
    /// box along.
    SwAccess(Box<SwAccess>),
    /// What the owner's handler did: a write's ack, a read's bytes or an
    /// AMO's result.
    SwReply {
        /// Initiator's operation handle.
        ctx: OpId,
        /// The answer, of the request's kind.
        answer: Applied<Vec<u8>>,
    },
    /// The believed owner no longer holds the block: initiator must
    /// re-resolve through the home directory.
    SwRetry {
        /// Initiator's operation handle.
        ctx: OpId,
        /// The block that bounced.
        block: u64,
    },
    /// Ask a block's home for the authoritative owner.
    DirQuery {
        /// Block key.
        block: u64,
        /// Initiator's operation handle.
        ctx: OpId,
        /// Where the reply goes.
        reply_to: LocalityId,
    },
    /// Authoritative ownership answer.
    DirReply {
        /// Block key.
        block: u64,
        /// Current owner.
        owner: LocalityId,
        /// Current generation.
        generation: u32,
        /// Echoed operation handle.
        ctx: OpId,
    },
    /// Commit a migration at the home directory.
    DirUpdate {
        /// Block key.
        block: u64,
        /// New owner.
        owner: LocalityId,
        /// New generation.
        generation: u32,
        /// Who to ack (the new owner).
        reply_to: LocalityId,
    },
    /// Home acknowledged the directory update.
    DirUpdateAck {
        /// Block key.
        block: u64,
    },
    /// Migrate or free a block; routed via the home to the current owner.
    OwnerRequest(OwnerReq),
    /// The block's bytes, moving from old owner to new owner.
    MigData {
        /// Block key.
        block: u64,
        /// Size class.
        class: u8,
        /// New generation (old + 1).
        generation: u32,
        /// Block contents.
        data: Vec<u8>,
        /// Remembered AMO completions for the block (responder-cache
        /// entries travel with the block so retries that chase the
        /// forward still deduplicate at the new owner).
        amo_log: Vec<(AmoKey, AmoResult)>,
        /// The old owner.
        src: LocalityId,
        /// Requester op handle, forwarded for the completion callback.
        ctx: OpId,
        /// The original requester.
        reply_to: LocalityId,
    },
    /// New owner → old owner: installation complete, drain queued accesses.
    MigAck {
        /// Block key.
        block: u64,
    },
    /// Migration fully committed (home updated); completion callback.
    MigDone {
        /// Requester op handle.
        ctx: OpId,
        /// The migrated block.
        block: u64,
    },
    /// Owner → home: retire the directory record for a freed block.
    DirUnregister {
        /// Block key.
        block: u64,
        /// Requester op handle, forwarded.
        ctx: OpId,
        /// Who receives the final FreeDone.
        reply_to: LocalityId,
    },
    /// A runtime free fully committed.
    FreeDone {
        /// Requester op handle.
        ctx: OpId,
        /// The freed block.
        block: u64,
    },
    /// A membership transition broadcast over the wire (a drain's final
    /// `Left`, carrying the re-homed block set).
    Member {
        /// The transition.
        update: membership::MemberUpdate,
    },
    /// A departing locality hands its directory shard to the take-over
    /// locality (installed newest-generation-wins).
    DirHandoff {
        /// The shard's records, sorted by block key.
        records: Vec<(u64, OwnerRec)>,
    },
}

// Every GAS message the world boxes for the wire is this wide.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<GasMsg>() == 80);

/// GAS-layer statistics (per locality).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GasStats {
    /// memput operations initiated.
    pub puts: u64,
    /// memget operations initiated.
    pub gets: u64,
    /// memamo operations initiated.
    pub amos: u64,
    /// Operations satisfied locally.
    pub local_ops: u64,
    /// Operations sent to a remote owner.
    pub remote_ops: u64,
    /// Operations that completed normally.
    pub completed: u64,
    /// Bounce/retry cycles (stale owner hints, NIC misses).
    pub retries: u64,
    /// NACK bounces (per bounce, not per op) whose NIC held no entry for
    /// the block ([`netsim::NackReason::Miss`]).
    pub nacked_miss: u64,
    /// NACK bounces that ran out of forwarding hops, or out of time parked
    /// behind a hand-off ([`netsim::NackReason::TtlExceeded`]).
    pub nacked_ttl: u64,
    /// NACK bounces for an access outside its block
    /// ([`netsim::NackReason::Bounds`]).
    pub nacked_bounds: u64,
    /// Directory queries issued.
    pub dir_queries: u64,
    /// Software put handlers executed here.
    pub sw_puts_handled: u64,
    /// Software get handlers executed here.
    pub sw_gets_handled: u64,
    /// Software AMO handlers executed here (the emulated path).
    pub sw_amos_handled: u64,
    /// AMO attempts answered from the responder cache by software (the
    /// software handler or a post-migration local commit) instead of
    /// re-executing — the CPU-side twin of the NIC's `amo_replays`.
    pub amo_replays: u64,
    /// Network-managed operations that degraded to the software path after
    /// repeated NIC-table misses.
    pub sw_fallbacks: u64,
    /// Migrations initiated from here (as the old owner).
    pub migrations_started: u64,
    /// Migration completions observed by this requester.
    pub migrations_done: u64,
    /// Completions/replies naming an unknown or stale op handle, dropped.
    pub stale_completions: u64,
    /// Protocol-state-machine violations observed and dropped (answers of
    /// the wrong kind, duplicate installs, frees of non-resident blocks).
    pub protocol_violations: u64,
    /// Ops the deadline sweep failed because their retry budget was spent.
    pub deadline_exceeded: u64,
    /// Expired ops the deadline sweep re-issued through directory recovery
    /// ([`GasConfig::op_deadline`] — the lost-message recovery path under
    /// fault injection).
    pub deadline_retries: u64,
    /// Ops delivered to the initiator as failed (deadline, retry budget or
    /// protocol violation).
    pub ops_failed: u64,
    /// Remote operations that short-circuited the NIC over an intra-domain
    /// shared-memory mapping ([`netsim::ShmDomain`]): zero wire messages.
    pub shm_ops: u64,
    /// Payload bytes moved over the shared-memory short-circuit.
    pub shm_bytes: u64,
    /// Directory records this locality took over through a membership join
    /// slice (counted at the joiner).
    pub blocks_rehomed: u64,
    /// Lost blocks re-issued here after a crash (zero-filled,
    /// generation-bumped — see `membership`).
    pub blocks_recovered: u64,
    /// NIC forward entries purged because their next hop crashed.
    pub stale_xlate_dropped: u64,
    /// Joining → Active transitions completed (counted at the joiner).
    pub members_joined: u64,
    /// Draining → Left transitions completed (counted at the drained
    /// locality).
    pub members_drained: u64,
    /// Localities declared Crashed (counted at the take-over locality).
    pub members_crashed: u64,
    /// Owner hints learned here from forwarded completions: the ack of an
    /// op that chased a NIC forward names the block's current owner and
    /// generation, so the next access goes direct.
    pub hints_learned: u64,
}

impl GasStats {
    /// Add `other`'s counts into `self` (cluster-wide totals).
    pub fn merge(&mut self, other: &GasStats) {
        self.puts += other.puts;
        self.gets += other.gets;
        self.amos += other.amos;
        self.local_ops += other.local_ops;
        self.remote_ops += other.remote_ops;
        self.completed += other.completed;
        self.retries += other.retries;
        self.nacked_miss += other.nacked_miss;
        self.nacked_ttl += other.nacked_ttl;
        self.nacked_bounds += other.nacked_bounds;
        self.dir_queries += other.dir_queries;
        self.sw_puts_handled += other.sw_puts_handled;
        self.sw_gets_handled += other.sw_gets_handled;
        self.sw_amos_handled += other.sw_amos_handled;
        self.amo_replays += other.amo_replays;
        self.sw_fallbacks += other.sw_fallbacks;
        self.migrations_started += other.migrations_started;
        self.migrations_done += other.migrations_done;
        self.stale_completions += other.stale_completions;
        self.protocol_violations += other.protocol_violations;
        self.deadline_exceeded += other.deadline_exceeded;
        self.deadline_retries += other.deadline_retries;
        self.ops_failed += other.ops_failed;
        self.shm_ops += other.shm_ops;
        self.shm_bytes += other.shm_bytes;
        self.blocks_rehomed += other.blocks_rehomed;
        self.blocks_recovered += other.blocks_recovered;
        self.stale_xlate_dropped += other.stale_xlate_dropped;
        self.members_joined += other.members_joined;
        self.members_drained += other.members_drained;
        self.members_crashed += other.members_crashed;
        self.hints_learned += other.hints_learned;
    }
}

/// Where an in-flight op last was in its lifecycle (diagnostics: stuck-op
/// reports, `repro ops`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpPhase {
    /// Submitted; routing decision not yet taken.
    Issued,
    /// Waiting in its locality's PWC send queue for a posting credit
    /// ([`POST_DEPTH`]); nothing is on the wire and no deadline runs. A
    /// fresh op waits there unadmitted, with no op-table slot (seen only
    /// in [`GasLocal::op_snapshots`]); a re-issued one keeps its slot.
    Queued,
    /// One-sided RDMA in flight (PGAS or network-managed path); holds one
    /// of its locality's [`POST_DEPTH`] credits.
    Rdma,
    /// Two-sided software request in flight.
    Sw,
    /// Intra-domain shared-memory access in flight (commit scheduled at
    /// the co-located target; no wire message exists to wait on).
    Shm,
    /// Bounced; waiting on the home directory's answer.
    DirRecovery,
    /// Directory answered; waiting out the exponential backoff.
    Backoff,
}

impl fmt::Display for OpPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpPhase::Issued => "issued",
            OpPhase::Queued => "queued",
            OpPhase::Rdma => "rdma-in-flight",
            OpPhase::Sw => "sw-in-flight",
            OpPhase::Shm => "shm-in-flight",
            OpPhase::DirRecovery => "dir-recovery",
            OpPhase::Backoff => "backoff",
        };
        f.write_str(s)
    }
}

/// A diagnostic snapshot of one in-flight op (for stuck-op reports and the
/// `repro ops` dump).
#[derive(Clone, Copy, Debug)]
pub struct OpSnapshot {
    /// The op's identity: the handle its admission to the op table minted,
    /// whichever handle a retry has given the op since; `None` while it
    /// waits in the send queue unadmitted.
    pub id: Option<OpId>,
    /// `"put"`, `"get"` or `"amo"`.
    pub kind: &'static str,
    /// The global address the op targets.
    pub gva: Gva,
    /// Bounce/retry cycles consumed so far.
    pub attempts: u32,
    /// When the op was submitted (not admitted: a wait in the send queue
    /// counts toward its age).
    pub issued: Time,
    /// Absolute deadline, if one was configured.
    pub deadline: Option<Time>,
    /// Last lifecycle state.
    pub phase: OpPhase,
}

impl OpSnapshot {
    /// Render the snapshot with `now` for the age computation.
    pub fn render(&self, now: Time) -> String {
        let id = self.id.map_or_else(|| "-".to_string(), |id| id.to_string());
        format!(
            "{} {} gva={} age={} attempts={} state={}",
            self.kind,
            id,
            self.gva,
            now - self.issued,
            self.attempts,
            self.phase
        )
    }
}

/// The one record of an in-flight put, get or AMO, from its admission to
/// its end: at submission, or, for one that waited in the send queue for a
/// credit, when it is posted. Its slot's handle is also the op's wire
/// token: photon hands a PWC answer back under it, a software request
/// carries it, and an answer naming a handle the slot no longer holds is
/// stale. When a bounce gives
/// up on an RDMA attempt, the op takes a fresh handle in its slot
/// ([`OpTable::renew`]), so a late answer to that attempt drops as stale;
/// its identity in spans, snapshots and errors stays the handle its
/// admission minted ([`OpTable::origin`]).
pub(crate) struct PendingOp {
    /// The access itself: the same snapshot every issue path (RDMA, shm,
    /// software, local commit) hands to the responder.
    pub verb: Verb,
    pub gva: Gva,
    pub ctx: OpId,
    /// When the operation was submitted (for the latency histograms and
    /// the stuck-op age report).
    pub issued: Time,
    /// Absolute instant after which the deadline sweep reclaims the op
    /// ([`Time::MAX`] when [`GasConfig::op_deadline`] is off).
    pub deadline: Time,
    /// Index of this op's [`HistEvent`] in the issuing locality's history
    /// log ([`NO_HIST`] unless [`GasConfig::record_history`] is on); read
    /// it through [`PendingOp::hist`].
    hist: u32,
    /// Bounce/retry cycles consumed so far; saturates, and a saturated
    /// count exhausts the retry budget whatever `max_attempts` says.
    pub attempts: u16,
    /// Last lifecycle state, for diagnostics.
    pub phase: OpPhase,
    /// [`FORCE_SW`], [`SCRATCH`] and the [`MISSES`] count.
    flags: u8,
}

/// [`PendingOp::hist`]'s "not recorded" word.
const NO_HIST: u32 = u32::MAX;
/// Set after three NIC-table misses: degrade this operation to the
/// software (two-sided) path, as real network-managed tables do under
/// capacity thrash.
const FORCE_SW: u8 = 1;
/// A get's RDMA attempts have allocated their shared landing buffer: its
/// address is the verb's `local`, its class follows from the length.
const SCRATCH: u8 = 2;
/// Two bits counting the op's NIC-table-miss NACKs, saturating at 3.
const MISSES: u8 = 0b1100;
/// One miss in [`MISSES`].
const MISS: u8 = 0b0100;

// Every op inserts and removes one entry, so the table's footprint is
// host-time (32 bytes more cost ~4 % of AGAS-SW GUPS throughput) and, with
// many ops outstanding, memory: an 88-byte slot per op in flight.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<PendingOp>() <= 80);
#[cfg(target_pointer_width = "64")]
const _: () = assert!(OpTable::<PendingOp>::SLOT_BYTES <= 88);

impl PendingOp {
    /// A freshly submitted op: no retries, no landing buffer.
    pub fn new(
        verb: Verb,
        gva: Gva,
        ctx: OpId,
        issued: Time,
        deadline: Option<Time>,
        hist: Option<u32>,
    ) -> PendingOp {
        PendingOp {
            verb,
            gva,
            ctx,
            issued,
            deadline: deadline.unwrap_or(Time::MAX),
            hist: hist.unwrap_or(NO_HIST),
            attempts: 0,
            phase: OpPhase::Issued,
            flags: 0,
        }
    }

    /// Move the op to `phase`, keeping `posted` equal to the ops in
    /// [`OpPhase::Rdma`]: entering it takes a credit, leaving it gives one
    /// back. Returns whether a credit came back; the caller then posts what
    /// waits for it ([`ops::post_queued`]).
    pub fn enter(&mut self, phase: OpPhase, posted: &mut u32) -> bool {
        let (was, is) = (self.phase == OpPhase::Rdma, phase == OpPhase::Rdma);
        self.phase = phase;
        match (was, is) {
            (true, false) => *posted -= 1,
            (false, true) => *posted += 1,
            _ => {}
        }
        was && !is
    }

    /// Index of this op's history event, if one was recorded.
    pub fn hist(&self) -> Option<u32> {
        (self.hist != NO_HIST).then_some(self.hist)
    }

    /// Whether the op has been degraded to the software path.
    pub fn force_sw(&self) -> bool {
        self.flags & FORCE_SW != 0
    }

    /// Count a NIC-table-miss NACK; returns the misses so far (at most 3).
    pub fn note_miss(&mut self) -> u8 {
        if self.flags & MISSES != MISSES {
            self.flags += MISS;
        }
        (self.flags & MISSES) / MISS
    }

    /// Degrade the op to the software path for the rest of its life.
    pub fn set_force_sw(&mut self) {
        self.flags |= FORCE_SW;
    }

    /// Record that the verb's `local` names an allocated landing buffer.
    pub fn set_scratch(&mut self) {
        self.flags |= SCRATCH;
    }

    /// The get's landing buffer `(addr, class)`, if an RDMA attempt has
    /// allocated one.
    pub fn scratch(&self) -> Option<(PhysAddr, u8)> {
        match self.verb {
            Verb::Get { len, local } if self.flags & SCRATCH != 0 => {
                Some((local, ops::scratch_class(len)))
            }
            _ => None,
        }
    }
}

/// An entry of a locality's PWC send queue ([`GasLocal::send_queue`]). A
/// fresh op that found every credit in use is not admitted yet: it holds
/// no op-table slot and no span, only what admitting it takes, and posting
/// it admits it with its submission time. What that is depends on its
/// kind, so each kind stores only its own.
pub(crate) enum SendEntry {
    /// A fresh get, inline: its verb is only a length until posting
    /// allocates its landing buffer (`Verb::Get::local` is 0 before).
    Get {
        gva: Gva,
        ctx: OpId,
        issued: Time,
        len: u32,
        /// The history index, [`NO_HIST`] when none was recorded.
        hist: u32,
    },
    /// A fresh put or AMO, whose verb carries a payload or operands: one
    /// box, freed when it is admitted.
    Boxed(Box<Waiting>),
    /// A re-issued op, in [`OpPhase::Queued`]: it keeps its slot, which
    /// holds its identity, AMO key, landing buffer and attempt count. Skipped
    /// when popped if the op has left that phase since.
    Retry(OpId),
}

/// A fresh put or AMO waiting in the send queue ([`SendEntry::Boxed`]).
pub(crate) struct Waiting {
    pub verb: Verb,
    pub gva: Gva,
    pub ctx: OpId,
    pub issued: Time,
    pub hist: Option<u32>,
}

impl SendEntry {
    /// The entry of a fresh op that waits for a credit. Out of line and
    /// cold, like posting it: only a burst that outruns the credits queues.
    #[cold]
    #[inline(never)]
    pub fn waiting(verb: Verb, gva: Gva, ctx: OpId, issued: Time, hist: Option<u32>) -> SendEntry {
        match verb {
            Verb::Get { len, .. } => SendEntry::Get {
                gva,
                ctx,
                issued,
                len,
                hist: hist.unwrap_or(NO_HIST),
            },
            verb => SendEntry::Boxed(Box::new(Waiting {
                verb,
                gva,
                ctx,
                issued,
                hist,
            })),
        }
    }

    /// What admitting a fresh op takes, a get's verb rebuilt with no
    /// landing buffer yet (a boxed one's box is freed here); a re-issued
    /// op's handle otherwise.
    pub fn into_waiting(self) -> Result<Waiting, OpId> {
        match self {
            SendEntry::Get {
                gva,
                ctx,
                issued,
                len,
                hist,
            } => Ok(Waiting {
                verb: Verb::Get { len, local: 0 },
                gva,
                ctx,
                issued,
                hist: (hist != NO_HIST).then_some(hist),
            }),
            SendEntry::Boxed(w) => Ok(*w),
            SendEntry::Retry(op) => Err(op),
        }
    }

    /// A waiting op's kind, address and submission time; `None` for a
    /// re-issued op (it shows through its slot).
    fn waiting_view(&self) -> Option<(OpKind, Gva, Time)> {
        match self {
            SendEntry::Get { gva, issued, .. } => Some((OpKind::Get, *gva, *issued)),
            SendEntry::Boxed(w) => Some((w.verb.kind(), w.gva, w.issued)),
            SendEntry::Retry(_) => None,
        }
    }
}

// A waiting get costs its queue entry alone, 4 096 of them a locality in
// the benchmark's set-up burst; an admitted op costs an 88-byte slot.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<SendEntry>() <= 40);

pub(crate) struct MovingState {
    pub dst: LocalityId,
    /// Requests parked until the hand-off completes, in the boxes they
    /// arrived in and will be re-sent in.
    #[allow(clippy::vec_box)]
    pub queued: Vec<Box<SwAccess>>,
}

pub(crate) struct PendingInstall {
    pub ctx: OpId,
    pub reply_to: LocalityId,
    pub old_owner: LocalityId,
}

/// How many PWC ops one locality keeps posted: its send-queue depth, as a
/// verbs send queue is bounded. Each op in [`OpPhase::Rdma`] holds one
/// credit; a further one-sided op waits in its locality's FIFO, a fresh one
/// unadmitted (no op-table slot until it is posted: a get as a 40-byte
/// `SendEntry`, a put or AMO boxed), a re-issued one as its bare
/// [`OpId`], and is posted, in order, when an answer or the deadline sweep
/// ends a posted attempt. 128 is the deepest window any
/// experiment drives and about three times the one-port bandwidth-delay
/// product on `ib_fdr` (≈ 2.4 µs round trip / ≈ 55 ns per control message
/// ≈ 44), so a port never idles for want of a credit; 64 already costs E4b
/// half its multi-port message rate.
pub const POST_DEPTH: u32 = 128;

/// Seed for the software heat map's flat table (fixed: deterministic runs).
const HEAT_SEED: u64 = 0x4ea7_5eed;

/// Per-locality GAS state.
pub struct GasLocal {
    /// Cost parameters.
    pub cfg: GasConfig,
    /// The block translation table (blocks owned here).
    pub btt: Btt,
    /// Source-side owner cache.
    pub cache: OwnerCache,
    /// Directory shard (authoritative for blocks homed here).
    pub dir: Directory,
    /// Per-block software-access heat (the software analogue of the NIC's
    /// hit telemetry; drained by [`GasLocal::take_heat`]).
    heat: FlatTable<u64>,
    /// Completion-latency histogram of memputs issued here (ns samples).
    pub put_latency: netsim::LogHistogram,
    /// Completion-latency histogram of memgets issued here (ns samples).
    pub get_latency: netsim::LogHistogram,
    /// Completion-latency histogram of memamos issued here (ns samples).
    pub amo_latency: netsim::LogHistogram,
    /// Statistics.
    pub stats: GasStats,
    /// Serializability-checker log of every put/get/migrate observed here
    /// (empty unless [`GasConfig::record_history`] is on).
    pub history: Vec<HistEvent>,
    /// Word-level linearizability log of every AMO issued here (empty
    /// unless [`GasConfig::record_history`] is on). AMO-touched words are
    /// checked by [`check::check_word_history_events`]; workloads keep
    /// them disjoint from put/get slots.
    pub word_history: Vec<WordEvent>,
    /// This locality's view of the elastic membership plane (inert — zero
    /// overhead, zero schedule change — until a membership event fires).
    pub member: MembershipView,
    pub(crate) pending: OpTable<PendingOp>,
    /// Posting credits in use: the ops in [`OpPhase::Rdma`], at most
    /// [`POST_DEPTH`].
    pub(crate) posted: u32,
    /// The PWC send queue, oldest first: ops waiting for a credit. It is
    /// non-empty only while every credit is in use, and drops a buffer of
    /// more than [`POST_DEPTH`] entries once it empties.
    pub(crate) send_queue: VecDeque<SendEntry>,
    pub(crate) next_seq: HashMap<u8, u64>,
    pub(crate) moving: HashMap<u64, MovingState>,
    pub(crate) pending_installs: HashMap<u64, PendingInstall>,
    /// Owner requests waiting for a pinned block's pins to drain.
    pub(crate) deferred: HashMap<u64, Vec<OwnerReq>>,
    /// Is the deadline sweep scheduled for this locality?
    pub(crate) sweep_armed: bool,
}

impl GasLocal {
    /// Fresh per-locality state.
    pub fn new(cfg: GasConfig) -> GasLocal {
        GasLocal {
            cache: OwnerCache::new(cfg.cache_capacity),
            cfg,
            btt: Btt::new(),
            dir: Directory::new(),
            heat: FlatTable::with_seed(HEAT_SEED),
            put_latency: netsim::LogHistogram::new(),
            get_latency: netsim::LogHistogram::new(),
            amo_latency: netsim::LogHistogram::new(),
            stats: GasStats::default(),
            history: Vec::new(),
            word_history: Vec::new(),
            member: MembershipView::default(),
            pending: OpTable::new(),
            posted: 0,
            send_queue: VecDeque::new(),
            next_seq: HashMap::new(),
            moving: HashMap::new(),
            pending_installs: HashMap::new(),
            deferred: HashMap::new(),
            sweep_armed: false,
        }
    }

    /// Count one software access to `block` handled here.
    #[inline]
    pub(crate) fn note_heat(&mut self, block: u64) {
        let (slot, _) = self.heat.upsert(block);
        *self.heat.value_at(slot) += 1;
    }

    /// Drain the per-block software-access counts, **sorted by block key**
    /// like [`netsim::nic::XlateTable::take_hit_telemetry`].
    pub fn take_heat(&mut self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = self.heat.iter().map(|(k, &hits, _)| (k, hits)).collect();
        self.heat.clear();
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    /// The directory record of a block homed here. With the membership
    /// plane live a home can be asked about a record that moved (join
    /// slice or hand-off in flight), and `None` says so; without it the
    /// home must know every block homed at it, and a miss panics.
    pub(crate) fn dir_record(&mut self, block: u64) -> Option<OwnerRec> {
        if self.member.is_enabled() {
            self.dir.lookup_opt(block)
        } else {
            Some(self.dir.lookup(block))
        }
    }

    pub(crate) fn alloc_seq(&mut self, class: u8) -> u64 {
        let s = self.next_seq.entry(class).or_insert(0);
        let out = *s;
        *s += 1;
        out
    }

    /// Outstanding initiator-side operations, admitted or waiting in the
    /// send queue.
    pub fn outstanding_ops(&self) -> usize {
        self.pending.len() + self.waiting().count()
    }

    /// The unadmitted ops in the send queue, oldest first.
    fn waiting(&self) -> impl Iterator<Item = (OpKind, Gva, Time)> + '_ {
        self.send_queue.iter().filter_map(SendEntry::waiting_view)
    }

    /// Op-table slots ever allocated: the most ops admitted at once.
    pub fn op_slots(&self) -> usize {
        self.pending.capacity()
    }

    /// Entries the send queue's buffer holds room for.
    pub fn send_queue_capacity(&self) -> usize {
        self.send_queue.capacity()
    }

    /// One-sided attempts posted and not yet answered or abandoned (at
    /// most [`POST_DEPTH`]).
    pub fn posted_ops(&self) -> u32 {
        self.posted
    }

    /// Entries in the PWC send queue ([`POST_DEPTH`]).
    pub fn queued_ops(&self) -> usize {
        self.send_queue.len()
    }

    /// The send-queue line of a stuck-op report: credits in use and queue
    /// length, or `None` when both are zero.
    pub fn send_queue_report(&self) -> Option<String> {
        (self.posted != 0 || !self.send_queue.is_empty()).then(|| {
            format!(
                "send queue: {} posted, {} queued (depth {POST_DEPTH})",
                self.posted,
                self.send_queue.len()
            )
        })
    }

    /// Fault injection: every op with an RDMA attempt in flight gives it up
    /// without a retry, as if the fabric lost each answer to it. Only the
    /// deadline sweep ([`GasConfig::op_deadline`]) recovers those ops.
    /// Returns how many ops it touched.
    pub fn lose_rdma_answers(&mut self) -> usize {
        let rdma: Vec<OpId> = self
            .pending
            .iter()
            .filter(|(_, p)| p.phase == OpPhase::Rdma)
            .map(|(id, _)| id)
            .collect();
        for &op in &rdma {
            self.pending.renew(op).expect("live op");
        }
        rdma.len()
    }

    /// Whether the deadline sweep currently has a tick scheduled. Always
    /// `false` when [`GasConfig::op_deadline`] is `None`.
    pub fn sweep_armed(&self) -> bool {
        self.sweep_armed
    }

    /// Diagnostic snapshots of every in-flight op issued here: the
    /// admitted ones in slot order, then the unadmitted ones in queue order
    /// (deterministic).
    pub fn op_snapshots(&self) -> Vec<OpSnapshot> {
        let kind = |kind: OpKind| match kind {
            OpKind::Put => "put",
            OpKind::Get => "get",
            OpKind::Amo => "amo",
        };
        let admitted = self.pending.iter().map(|(id, p)| OpSnapshot {
            id: Some(self.pending.origin(id).expect("live op")),
            kind: kind(p.verb.kind()),
            gva: p.gva,
            attempts: u32::from(p.attempts),
            issued: p.issued,
            deadline: (p.deadline != Time::MAX).then_some(p.deadline),
            phase: p.phase,
        });
        let waiting = self.waiting().map(|(op_kind, gva, issued)| OpSnapshot {
            id: None,
            kind: kind(op_kind),
            gva,
            attempts: 0,
            issued,
            deadline: None,
            phase: OpPhase::Queued,
        });
        admitted.chain(waiting).collect()
    }
}

/// The contract between the GAS and the world embedding it.
///
/// The world routes `Packet::User` payloads that decode to [`GasMsg`] into
/// [`ops::handle_msg`], and forwards its [`PhotonWorld`] PWC callbacks to
/// [`ops::on_pwc_complete`] / [`ops::on_pwc_redirected`] /
/// [`ops::on_pwc_amo_complete`] / [`ops::on_pwc_failed`] /
/// [`ops::on_xlate_miss`] (the GAS is the only issuer of PWC operations).
pub trait GasWorld: PhotonWorld {
    /// Per-locality GAS state.
    fn gas(&mut self, loc: LocalityId) -> &mut GasLocal;
    /// Shared access to per-locality GAS state (diagnostics/checkers).
    fn gas_ref(&self, loc: LocalityId) -> &GasLocal;
    /// The active GAS mode (uniform across the cluster).
    fn gas_mode(&self) -> GasMode;
    /// The PGAS initiators' address table: read by a PGAS remote access
    /// to address its RDMA, written by allocation and free. Targets in
    /// every mode resolve their blocks through their BTTs instead.
    fn pgas(&mut self) -> &mut PgasMap;
    /// The locality's CPU worker pool (shared with the runtime scheduler,
    /// so GAS software handlers and application actions contend for the
    /// same cores — the effect the network-managed design eliminates).
    fn cpu(&mut self, loc: LocalityId) -> &mut ServerPool;
    /// Embed a GAS protocol message into the world's wire enum.
    fn wrap_gas(msg: GasMsg) -> Self::Msg;

    /// A memput completed.
    fn gas_put_done(eng: &mut Engine<Self>, loc: LocalityId, ctx: OpId);
    /// A memget completed with its data.
    fn gas_get_done(eng: &mut Engine<Self>, loc: LocalityId, ctx: OpId, data: Vec<u8>);
    /// A memamo completed with its result.
    fn gas_amo_done(eng: &mut Engine<Self>, loc: LocalityId, ctx: OpId, result: AmoResult);
    /// A migration requested with handle `ctx` fully committed.
    fn gas_migrate_done(eng: &mut Engine<Self>, loc: LocalityId, ctx: OpId, block: u64);
    /// A runtime free requested with handle `ctx` fully committed.
    fn gas_free_done(eng: &mut Engine<Self>, loc: LocalityId, ctx: OpId, block: u64);
    /// An operation failed terminally: its deadline passed (the sweep
    /// reclaimed it) or its retry budget ran out. The typed error reaches
    /// the initiator here instead of a panic or a silent hang.
    fn gas_op_failed(eng: &mut Engine<Self>, loc: LocalityId, ctx: OpId, gva: Gva, err: OpError);
}
