//! The owner-request protocol: block migration and runtime free.
//!
//! Migration is what AGAS buys over PGAS, and handling it cheaply is what
//! the network-managed design buys over software AGAS. Migrate and free
//! are the two operations that change where a block lives, and both travel
//! as one [`GasMsg::OwnerRequest`] routed requester → home → owner:
//!
//! ```text
//!  requester ──OwnerRequest──▶ home ──OwnerRequest──▶ owner
//!                                                       │ pinned? defer until unpin
//!                                                       │ hand-off in flight? re-chase via home
//!  Migrate:                                             │ BTT→Moving, NIC→forward-tombstone
//!                                              new owner ◀──MigData(bytes, gen+1)
//!                                                       │ install BTT (+NIC entry)
//!                                                       ├──DirUpdate──▶ home
//!                                                       ◀──DirUpdateAck─┘
//!                                                       ├──MigAck──▶ old owner (drain queued accesses)
//!                                                       └──MigDone──▶ requester
//!  Free: the owner releases the block and its BTT/NIC entries
//!        ──DirUnregister──▶ home ──FreeDone──▶ requester
//! ```
//!
//! In-flight traffic during a migration window:
//! * network-managed: the old owner's NIC holds a **forwarding tombstone**,
//!   so RDMA ops chase the block with one extra hop (or NACK back to the
//!   initiator when forwarding is disabled — ablation A3);
//! * software: accesses arriving at the old owner queue against the Moving
//!   entry and are re-sent to the new owner on MigAck;
//! * stragglers that arrive after the tombstone/queue window bounce and
//!   re-resolve through the home, whose record is updated before MigDone.

use crate::gva::Gva;
use crate::{
    GasMode, GasMsg, GasWorld, MemberState, MovingState, OwnerOp, OwnerReq, PendingInstall,
};
use netsim::{send_user, Engine, LocalityId, OpId, Time};

const MAX_ROUTE_HOPS: u8 = 64;

/// Send one migration/free/membership *control* message from `src` to
/// `dst`: the one place those protocols' control messages leave a
/// locality. Bulk `MigData` payloads and queued data-path accesses go out
/// elsewhere.
pub(crate) fn send_ctrl<S: GasWorld>(
    eng: &mut Engine<S>,
    src: LocalityId,
    dst: LocalityId,
    bytes: u32,
    msg: GasMsg,
) {
    send_user(eng, src, dst, bytes, S::wrap_gas(msg));
}

/// Request that `gva`'s block move to `dst`. Completion arrives via
/// [`GasWorld::gas_migrate_done`] with `ctx`. Panics in PGAS mode (static
/// placement is the point of PGAS — this is experiment E8's contrast).
pub fn migrate_block<S: GasWorld>(
    eng: &mut Engine<S>,
    loc: LocalityId,
    gva: Gva,
    dst: LocalityId,
    ctx: OpId,
) {
    assert!(
        eng.state.gas_mode().supports_migration(),
        "migration requested under PGAS"
    );
    request(eng, loc, gva, OwnerOp::Migrate { dst }, ctx);
}

/// Free `gva`'s block at runtime. Completion arrives via
/// [`GasWorld::gas_free_done`] with `ctx`. The caller must guarantee no
/// operations are in flight against the block (freeing live data is the
/// distributed use-after-free; the simulator panics when it detects it).
pub fn free_block<S: GasWorld>(eng: &mut Engine<S>, loc: LocalityId, gva: Gva, ctx: OpId) {
    request(eng, loc, gva, OwnerOp::Free, ctx);
}

/// Send an owner request for `gva`'s block from `loc` to its home.
fn request<S: GasWorld>(eng: &mut Engine<S>, loc: LocalityId, gva: Gva, op: OwnerOp, ctx: OpId) {
    let block = gva.block_key();
    // Membership may have re-homed the block's directory record; aim the
    // request at whoever serves the home role in this locality's view.
    let home = eng.state.gas_ref(loc).member.resolve(block, gva.home());
    let ctrl = eng.state.cluster_ref().config.ctrl_bytes;
    let req = OwnerReq {
        block,
        op,
        ctx,
        reply_to: loc,
        hops: 0,
    };
    send_ctrl(eng, loc, home, ctrl, GasMsg::OwnerRequest(req));
}

/// An owner request arrived at `at` (the home, the owner, or a stale
/// former owner).
pub(crate) fn on_owner_request<S: GasWorld>(eng: &mut Engine<S>, at: LocalityId, req: OwnerReq) {
    if req.hops >= MAX_ROUTE_HOPS {
        // A request that chased this long is stale or forged: drop it and
        // count the violation (the requester's deadline sweep reclaims it).
        eng.state.gas(at).stats.protocol_violations += 1;
        return;
    }
    let g = eng.state.gas(at);
    if let OwnerOp::Migrate { dst } = req.op {
        if dst != at && g.member.is_enabled() && g.member.state_of(dst) != MemberState::Active {
            // The destination left (or is leaving) the cluster between
            // request and arrival: complete as a no-op rather than strand
            // the block on a dying locality. The requester's ctx resolves
            // normally.
            mig_done(eng, at, req);
            return;
        }
    }
    if let Some(entry) = g.btt.lookup(req.block) {
        if req.op == (OwnerOp::Migrate { dst: at }) {
            // Already here: trivially complete.
            mig_done(eng, at, req);
        } else if entry.pins > 0 {
            g.deferred.entry(req.block).or_default().push(req);
        } else if g.moving.contains_key(&req.block) {
            // A hand-off is already in flight: chase it.
            rechase(eng, at, req);
        } else {
            serve(eng, at, req);
        }
        return;
    }
    if at != g.member.resolve(req.block, Gva(req.block).home()) {
        // Stale delivery: bounce through the home.
        rechase(eng, at, req);
        return;
    }
    // Authoritative routing through the directory (software cost).
    at_home(eng, at, move |eng| {
        let Some(rec) = eng.state.gas(at).dir_record(req.block) else {
            // Record in flight to us (hand-off racing the request).
            rechase(eng, at, req);
            return;
        };
        let next = match req.op {
            OwnerOp::Migrate { .. } if rec.owner == at => Gva(req.block).home(),
            _ => rec.owner,
        };
        let ctrl = eng.state.cluster_ref().config.ctrl_bytes;
        let req = OwnerReq {
            hops: req.hops + 1,
            ..req
        };
        send_ctrl(eng, at, next, ctrl, GasMsg::OwnerRequest(req));
    });
}

/// Charge `at`'s CPU one directory lookup, then run `then` when the
/// lookup finishes: every directory service at a home starts here.
pub(crate) fn at_home<S: GasWorld>(
    eng: &mut Engine<S>,
    at: LocalityId,
    then: impl FnOnce(&mut Engine<S>) + 'static,
) {
    let service = eng.state.gas(at).cfg.dir_lookup;
    let now = eng.now();
    let (_, finish) = eng.state.cpu(at).admit(now, service);
    let l = eng.state.cluster().loc_mut(at);
    l.counters.cpu_busy += service;
    l.counters.dir_lookups += 1;
    eng.schedule_at(finish, then);
}

/// Carry out `req` at the block's unpinned, resident owner `at`.
fn serve<S: GasWorld>(eng: &mut Engine<S>, at: LocalityId, req: OwnerReq) {
    match req.op {
        OwnerOp::Migrate { dst } => start_handoff(eng, at, req, dst),
        OwnerOp::Free => commit_free(eng, at, req),
    }
}

/// Complete a migration that had nothing to move.
fn mig_done<S: GasWorld>(eng: &mut Engine<S>, at: LocalityId, req: OwnerReq) {
    let ctrl = eng.state.cluster_ref().config.ctrl_bytes;
    let (ctx, block) = (req.ctx, req.block);
    send_ctrl(eng, at, req.reply_to, ctrl, GasMsg::MigDone { ctx, block });
}

/// Re-send `req` through the home after a back-off that doubles with its
/// hop count, so a churning block cannot exhaust the hop budget.
fn rechase<S: GasWorld>(eng: &mut Engine<S>, at: LocalityId, req: OwnerReq) {
    let backoff = eng.state.gas(at).cfg.retry_backoff * (1u64 << req.hops.min(12));
    resend_via_home(eng, at, req, backoff);
}

/// Send `req` one hop further, from `at` to the serving home, after `delay`.
/// The re-send names `at`: a driver-phase `unpin` reaches here outside any
/// event, and a plain `schedule` would key it to the driver on the
/// sequential engine but to `at` on a shard lane.
fn resend_via_home<S: GasWorld>(eng: &mut Engine<S>, at: LocalityId, req: OwnerReq, delay: Time) {
    let when = eng.now() + delay;
    eng.schedule_at_loc(when, at, move |eng| {
        // Resolve the serving home at *send* time: by the time a backoff
        // fires, a drain hand-off or crash takeover may have moved the
        // record, and re-aiming at a Left locality would strand the chase.
        let home = eng
            .state
            .gas_ref(at)
            .member
            .resolve(req.block, Gva(req.block).home());
        let ctrl = eng.state.cluster_ref().config.ctrl_bytes;
        let req = OwnerReq {
            hops: req.hops + 1,
            ..req
        };
        send_ctrl(eng, at, home, ctrl, GasMsg::OwnerRequest(req));
    });
}

/// Called when a block's pin count drops to zero: run what waited on it.
/// A deferred free wins (once freed, nothing else can apply) and a second
/// one is a double free; otherwise the first migration starts and the rest
/// re-chase through the home.
pub(crate) fn retry_deferred<S: GasWorld>(eng: &mut Engine<S>, at: LocalityId, block: u64) {
    let g = eng.state.gas(at);
    // Every pinned access unpins through here; outside a migration or a
    // free the map is empty, and the answer needs no hashing.
    if g.deferred.is_empty() {
        return;
    }
    let Some(waiting) = g.deferred.remove(&block) else {
        return;
    };
    let mut frees = waiting.iter().filter(|r| r.op == OwnerOp::Free);
    if let Some(&free) = frees.next() {
        assert!(
            frees.next().is_none(),
            "double free of block {block:#x} detected"
        );
        commit_free(eng, at, free);
        return;
    }
    let Some((&first, rest)) = waiting.split_first() else {
        return;
    };
    for &req in rest {
        // Re-route the rest through the home; they will find the new owner.
        resend_via_home(eng, at, OwnerReq { hops: 0, ..req }, Time::ZERO);
    }
    serve(eng, at, first);
}

/// Begin the hand-off to `dst` at the current owner.
fn start_handoff<S: GasWorld>(eng: &mut Engine<S>, at: LocalityId, req: OwnerReq, dst: LocalityId) {
    let OwnerReq {
        block,
        ctx,
        reply_to,
        ..
    } = req;
    let g = eng.state.gas(at);
    // One BTT probe: snapshot the entry and flip it to Moving in place
    // (the old lookup + set_moving pair probed twice).
    let Some(e) = g.btt.lookup_mut(block) else {
        // The block left between routing and hand-off: a stale request.
        g.stats.protocol_violations += 1;
        return;
    };
    assert_eq!(e.pins, 0, "cannot move a pinned block");
    let entry = *e;
    e.state = crate::BlockState::Moving;
    g.stats.migrations_started += 1;
    g.moving.insert(
        block,
        MovingState {
            dst,
            queued: Vec::new(),
        },
    );
    if eng.state.stack().nic_table() {
        // The paper's mechanism: the NIC keeps a forwarding tombstone so
        // in-flight one-sided traffic chases the block in hardware. It
        // remembers the generation the block leaves under, so `dst`'s NIC
        // can tell these forwards run ahead of `MigData` and hold them.
        eng.state
            .cluster()
            .loc_mut(at)
            .nic
            .xlate
            .retire_to_forward(block, dst, entry.generation);
    }
    let size = 1usize << entry.class;
    let data = eng
        .state
        .cluster()
        .mem(at)
        .read(entry.base, size)
        .expect("BTT base out of arena")
        .to_vec();
    eng.state
        .cluster()
        .mem_mut(at)
        .free_block(entry.base, entry.class);
    // The block's remembered AMO completions move with it: a retry that
    // chases the forward to the new owner must still deduplicate.
    let amo_log = eng
        .state
        .cluster()
        .loc_mut(at)
        .nic
        .amo
        .take_for_block(block);
    eng.state.cluster().loc_mut(at).counters.migrations_out += 1;
    send_user(
        eng,
        at,
        dst,
        size as u32,
        S::wrap_gas(GasMsg::MigData {
            block,
            class: entry.class,
            generation: entry.generation + 1,
            data,
            amo_log,
            src: at,
            ctx,
            reply_to,
        }),
    );
}

/// Block bytes arrived at the new owner: install, then commit at the home.
#[allow(clippy::too_many_arguments)]
pub(crate) fn on_mig_data<S: GasWorld>(
    eng: &mut Engine<S>,
    at: LocalityId,
    block: u64,
    class: u8,
    generation: u32,
    data: Vec<u8>,
    amo_log: Vec<(netsim::AmoKey, netsim::AmoResult)>,
    src: LocalityId,
    ctx: OpId,
    reply_to: LocalityId,
) {
    // A hand-off whose source has since crashed must not install: the
    // recovery path already re-issued the block at a dominating
    // generation, and installing these bytes would resurrect a stale copy.
    if eng.state.gas_ref(at).member.is_crashed(src) {
        eng.state.gas(at).stats.protocol_violations += 1;
        return;
    }
    // Installation is software work (allocate, copy, table updates).
    let (service, per_byte) = {
        let g = eng.state.gas(at);
        (g.cfg.sw_handler, g.cfg.copy_per_byte_ps)
    };
    let service = service + Time::from_ps(data.len() as u64 * per_byte);
    let now = eng.now();
    let (_, finish) = eng.state.cpu(at).admit(now, service);
    eng.state.cluster().loc_mut(at).counters.cpu_busy += service;
    eng.schedule_at(finish, move |eng| {
        let phys = eng
            .state
            .cluster()
            .mem_mut(at)
            .alloc_block(class)
            .expect("arena exhausted installing migrated block");
        eng.state
            .cluster()
            .mem_mut(at)
            .write(phys, &data)
            .expect("install write failed");
        eng.state
            .cluster()
            .loc_mut(at)
            .nic
            .amo
            .absorb(block, amo_log);
        // After `amo.absorb` above: a request parked here ahead of the
        // block may be the duplicate of an AMO the old owner executed.
        crate::ops::make_resident(eng, at, block, phys, class, generation);
        let g = eng.state.gas(at);
        g.cache.update(
            block,
            crate::OwnerHint {
                owner: at,
                generation,
            },
        );
        g.pending_installs.insert(
            block,
            PendingInstall {
                ctx,
                reply_to,
                old_owner: src,
            },
        );
        eng.state.cluster().loc_mut(at).counters.migrations_in += 1;
        let home = eng
            .state
            .gas_ref(at)
            .member
            .resolve(block, Gva(block).home());
        let ctrl = eng.state.cluster_ref().config.ctrl_bytes;
        send_ctrl(
            eng,
            at,
            home,
            ctrl,
            GasMsg::DirUpdate {
                block,
                owner: at,
                generation,
                reply_to: at,
            },
        );
    });
}

/// The home committed the new ownership: notify the old owner (drain its
/// queue) and the requester.
pub(crate) fn on_dir_update_ack<S: GasWorld>(eng: &mut Engine<S>, at: LocalityId, block: u64) {
    let Some(pi) = eng.state.gas(at).pending_installs.remove(&block) else {
        // Duplicate or forged ack: nothing is waiting on it.
        eng.state.gas(at).stats.protocol_violations += 1;
        return;
    };
    let ctrl = eng.state.cluster_ref().config.ctrl_bytes;
    send_ctrl(eng, at, pi.old_owner, ctrl, GasMsg::MigAck { block });
    send_ctrl(
        eng,
        at,
        pi.reply_to,
        ctrl,
        GasMsg::MigDone { ctx: pi.ctx, block },
    );
}

/// The new owner is installed: the old owner retires its Moving entry and
/// re-sends every access that queued during the window.
pub(crate) fn on_mig_ack<S: GasWorld>(eng: &mut Engine<S>, at: LocalityId, block: u64) {
    let Some(ms) = eng.state.gas(at).moving.remove(&block) else {
        // Duplicate or forged ack: the hand-off already retired.
        eng.state.gas(at).stats.protocol_violations += 1;
        return;
    };
    eng.state.gas(at).btt.remove(block);
    for acc in ms.queued {
        crate::ops::send_sw_access(eng, at, ms.dst, acc, netsim::FaultClass::Bypass);
    }
}

/// Release the block at its owner and retire the directory record.
fn commit_free<S: GasWorld>(eng: &mut Engine<S>, at: LocalityId, req: OwnerReq) {
    let OwnerReq {
        block,
        ctx,
        reply_to,
        ..
    } = req;
    let Some(entry) = eng.state.gas(at).btt.remove(block) else {
        // The block already left (racing free/migration): stale request.
        eng.state.gas(at).stats.protocol_violations += 1;
        return;
    };
    eng.state
        .cluster()
        .mem_mut(at)
        .free_block(entry.base, entry.class);
    eng.state.cluster().loc_mut(at).nic.xlate.invalidate(block);
    eng.state.gas(at).cache.invalidate(block);
    let home = eng
        .state
        .gas_ref(at)
        .member
        .resolve(block, Gva(block).home());
    let ctrl = eng.state.cluster_ref().config.ctrl_bytes;
    send_ctrl(
        eng,
        at,
        home,
        ctrl,
        GasMsg::DirUnregister {
            block,
            ctx,
            reply_to,
        },
    );
}

/// The home retires the record and notifies the requester.
pub(crate) fn on_dir_unregister<S: GasWorld>(
    eng: &mut Engine<S>,
    at: LocalityId,
    block: u64,
    ctx: OpId,
    reply_to: LocalityId,
) {
    at_home(eng, at, move |eng| {
        let g = eng.state.gas(at);
        if g.dir.unregister(block).is_none() && g.member.is_enabled() {
            // The record moved with a membership hand-off; retire it at
            // whoever serves the home role now (if that's still us, the
            // record is simply gone and the free already took effect).
            let serving = g.member.resolve(block, Gva(block).home());
            if serving != at {
                let ctrl = eng.state.cluster_ref().config.ctrl_bytes;
                send_ctrl(
                    eng,
                    at,
                    serving,
                    ctrl,
                    GasMsg::DirUnregister {
                        block,
                        ctx,
                        reply_to,
                    },
                );
                return;
            }
        }
        // Only PGAS allocation placed the block in the shared table.
        if eng.state.gas_mode() == GasMode::Pgas {
            eng.state.pgas().remove(&block);
        }
        let ctrl = eng.state.cluster_ref().config.ctrl_bytes;
        send_ctrl(eng, at, reply_to, ctrl, GasMsg::FreeDone { ctx, block });
    });
}
