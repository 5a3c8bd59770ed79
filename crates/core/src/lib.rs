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

pub use alloc::{alloc_array, free_array, GlobalArray, PgasMap};
pub use btt::{BlockState, Btt, BttEntry};
pub use cache::{OwnerCache, OwnerHint};
pub use check::{
    assert_consistent, check_blocks, check_history, check_history_events,
    check_word_history_events, value_hash, HistEvent, HistKind, Violation, WordEvent, WordOp,
};
pub use config::{GasConfig, GasMode, RecoveryPolicy};
pub use directory::{Directory, OwnerRec};
pub use dist::Distribution;
pub use gva::Gva;
pub use membership::{MemberState, MemberUpdate, MembershipView};
pub use simworld::{AmoPumpKind, SimData, SimEv, SimLoc, SimMsg, SimWorld};

use netsim::flatmap::FlatTable;
use netsim::{
    AmoKey, AmoResult, Engine, LocalityId, OpError, OpId, OpKind, OpTable, OutcomeCounters,
    PhysAddr, ServerPool, Time, Verb,
};
use photon::PhotonWorld;
use std::collections::HashMap;
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

/// GAS wire-protocol messages, embedded into the world's message enum via
/// [`GasWorld::wrap_gas`].
#[derive(Debug)]
pub enum GasMsg {
    /// Software remote access: the owner's **CPU** translates through its
    /// BTT, applies the request's verb and replies — every byte consumes
    /// target cores. The AGAS-SW fast path for puts and gets, and for AMOs
    /// the emulated baseline (PGAS, AGAS-SW, network-mode fallback) the
    /// NIC-executed path is measured against. Answered by
    /// [`GasMsg::SwPutAck`], [`GasMsg::SwGetReply`] or
    /// [`GasMsg::SwAmoReply`] by kind, or [`GasMsg::SwRetry`] when the block
    /// is not resident.
    ///
    /// Boxed by the initiator, once: the wire events, this message, a
    /// mid-migration queue and the target's handler event all pass the same
    /// box along.
    SwAccess(Box<SwAccess>),
    /// Ack of a software write.
    SwPutAck {
        /// Initiator's operation handle.
        ctx: OpId,
    },
    /// Data reply of a software read.
    SwGetReply {
        /// Initiator's operation handle.
        ctx: OpId,
        /// The data.
        data: Vec<u8>,
    },
    /// Result reply of a software active operation.
    SwAmoReply {
        /// Initiator's operation handle.
        ctx: OpId,
        /// What the op observed/returned.
        result: AmoResult,
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
    /// Request to migrate `block` to `dst`; routed via the home to the
    /// current owner.
    MigRequest {
        /// Block key.
        block: u64,
        /// Destination locality.
        dst: LocalityId,
        /// Requester's op handle for the completion callback.
        ctx: OpId,
        /// The requester.
        reply_to: LocalityId,
        /// Routing hops consumed (guards against pathological chases).
        hops: u8,
    },
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
    /// Free a block at runtime; routed via the home to the current owner.
    FreeRequest {
        /// Block key.
        block: u64,
        /// Requester op handle.
        ctx: OpId,
        /// The requester.
        reply_to: LocalityId,
        /// Routing hops consumed.
        hops: u8,
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
        /// The departing locality.
        from: LocalityId,
    },
}

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
    /// Bounce/retry cycles (stale owner hints, NIC misses).
    pub retries: u64,
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
    /// Protocol-state-machine violations observed and dropped (late acks,
    /// duplicate installs, frees of non-resident blocks).
    pub protocol_violations: u64,
    /// Ops reclaimed by the deadline sweep.
    pub deadline_exceeded: u64,
    /// Sweep-reclaimed ops re-issued through directory recovery instead of
    /// failed ([`GasConfig::retry_on_deadline`] — the lost-message recovery
    /// path under fault injection).
    pub deadline_retries: u64,
    /// Ops delivered to the initiator as failed (deadline or retry budget).
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
        self.retries += other.retries;
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
    /// One-sided RDMA in flight (PGAS or network-managed path).
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
    /// The op handle.
    pub id: OpId,
    /// `"put"` or `"get"`.
    pub kind: &'static str,
    /// The global address the op targets.
    pub gva: Gva,
    /// Bounce/retry cycles consumed so far.
    pub attempts: u32,
    /// When the op was submitted.
    pub issued: Time,
    /// Absolute deadline, if one was configured.
    pub deadline: Option<Time>,
    /// Last lifecycle state.
    pub phase: OpPhase,
}

impl OpSnapshot {
    /// Render the snapshot with `now` for the age computation.
    pub fn render(&self, now: Time) -> String {
        format!(
            "{} {} gva={} age={} attempts={} state={}",
            self.kind,
            self.id,
            self.gva,
            now - self.issued,
            self.attempts,
            self.phase
        )
    }
}

pub(crate) struct PendingOp {
    /// The access itself: the same snapshot every issue path (RDMA, shm,
    /// software, local commit) hands to the responder.
    pub verb: Verb,
    /// Size class of the landing buffer a get's RDMA attempts share, once
    /// one is allocated (its address is the verb's `local`); reused across
    /// retries and freed when the op retires.
    pub scratch: Option<u8>,
    pub gva: Gva,
    pub ctx: OpId,
    pub attempts: u32,
    /// When the operation was submitted (for the latency histograms and
    /// the stuck-op age report).
    pub issued: Time,
    /// Absolute instant after which the deadline sweep reclaims the op
    /// (`None` when [`GasConfig::op_deadline`] is off).
    pub deadline: Option<Time>,
    /// Last lifecycle state, for diagnostics.
    pub phase: OpPhase,
    /// Set after repeated NIC-table misses: degrade this operation to the
    /// software (two-sided) path, as real network-managed tables do under
    /// capacity thrash.
    pub force_sw: bool,
    /// The endpoint-table handle of the op's current photon attempt, so a
    /// bounce can retire it and a completion of a superseded attempt is
    /// recognized as stale rather than double-completing.
    pub attempt: Option<OpId>,
    /// Index of this op's [`HistEvent`] in the issuing locality's history
    /// log (only when [`GasConfig::record_history`] is on). `u32` keeps the
    /// entry at 120 bytes: the table is touched twice per op, and its
    /// footprint shows in host throughput.
    pub hist: Option<u32>,
}

// Every op inserts and removes one entry, so the table's footprint is
// host-time: 32 bytes more cost ~4 % of AGAS-SW GUPS throughput.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<PendingOp>() <= 120);

impl PendingOp {
    /// The get's landing buffer `(addr, class)`, if an RDMA attempt has
    /// allocated one.
    pub fn scratch(&self) -> Option<(PhysAddr, u8)> {
        match (&self.verb, self.scratch) {
            (Verb::Get { local, .. }, Some(class)) => Some((*local, class)),
            _ => None,
        }
    }
}

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
    /// Terminal-event rollup for the ops issued here.
    pub outcomes: OutcomeCounters,
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
    pub(crate) next_seq: HashMap<u8, u64>,
    pub(crate) moving: HashMap<u64, MovingState>,
    pub(crate) pending_installs: HashMap<u64, PendingInstall>,
    pub(crate) deferred_migs: HashMap<u64, Vec<(LocalityId, OpId, LocalityId)>>,
    pub(crate) deferred_frees: HashMap<u64, Vec<(OpId, LocalityId)>>,
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
            outcomes: OutcomeCounters::default(),
            history: Vec::new(),
            word_history: Vec::new(),
            member: MembershipView::default(),
            pending: OpTable::new(),
            next_seq: HashMap::new(),
            moving: HashMap::new(),
            pending_installs: HashMap::new(),
            deferred_migs: HashMap::new(),
            deferred_frees: HashMap::new(),
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

    pub(crate) fn alloc_seq(&mut self, class: u8) -> u64 {
        let s = self.next_seq.entry(class).or_insert(0);
        let out = *s;
        *s += 1;
        out
    }

    /// Outstanding initiator-side operations.
    pub fn outstanding_ops(&self) -> usize {
        self.pending.len()
    }

    /// Whether the deadline sweep currently has a tick scheduled. Always
    /// `false` when [`GasConfig::op_deadline`] is `None`.
    pub fn sweep_armed(&self) -> bool {
        self.sweep_armed
    }

    /// Diagnostic snapshots of every in-flight op issued here, in slot
    /// order (deterministic).
    pub fn op_snapshots(&self) -> Vec<OpSnapshot> {
        self.pending
            .iter()
            .map(|(id, p)| OpSnapshot {
                id,
                kind: match p.verb.kind() {
                    OpKind::Put => "put",
                    OpKind::Get => "get",
                    OpKind::Amo => "amo",
                },
                gva: p.gva,
                attempts: p.attempts,
                issued: p.issued,
                deadline: p.deadline,
                phase: p.phase,
            })
            .collect()
    }
}

/// The contract between the GAS and the world embedding it.
///
/// The world routes `Packet::User` payloads that decode to [`GasMsg`] into
/// [`ops::handle_msg`], and forwards its [`PhotonWorld`] PWC callbacks to
/// [`ops::on_pwc_complete`] / [`ops::on_pwc_redirected`] /
/// [`ops::on_pwc_failed`] (the GAS is the only issuer of PWC operations).
pub trait GasWorld: PhotonWorld {
    /// Per-locality GAS state.
    fn gas(&mut self, loc: LocalityId) -> &mut GasLocal;
    /// Shared access to per-locality GAS state (diagnostics/checkers).
    fn gas_ref(&self, loc: LocalityId) -> &GasLocal;
    /// The active GAS mode (uniform across the cluster).
    fn gas_mode(&self) -> GasMode;
    /// The replicated PGAS physical-placement registry.
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
