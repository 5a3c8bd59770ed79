//! The block-migration protocol.
//!
//! Migration is what AGAS buys over PGAS, and handling it cheaply is what
//! the network-managed design buys over software AGAS. The protocol:
//!
//! ```text
//!  requester ──MigRequest──▶ home ──MigRequest──▶ owner
//!                                                   │ pins drained?
//!                                                   │ BTT→Moving, NIC→forward-tombstone
//!                                                   ▼
//!                                          new owner ◀──MigData(bytes, gen+1)
//!                                                   │ install BTT (+NIC entry)
//!                                                   ├──DirUpdate──▶ home
//!                                                   ◀──DirUpdateAck─┘
//!                                                   ├──MigAck──▶ old owner (drain queued accesses)
//!                                                   └──MigDone──▶ requester
//! ```
//!
//! In-flight traffic during the window:
//! * network-managed: the old owner's NIC holds a **forwarding tombstone**,
//!   so RDMA ops chase the block with one extra hop (or NACK back to the
//!   initiator when forwarding is disabled — ablation A3);
//! * software: accesses arriving at the old owner queue against the Moving
//!   entry and are re-sent to the new owner on MigAck;
//! * stragglers that arrive after the tombstone/queue window bounce and
//!   re-resolve through the home, whose record is updated before MigDone.

use crate::gva::Gva;
use crate::{GasMode, GasMsg, GasWorld, MovingState, PendingInstall};
use netsim::{send_user, Engine, LocalityId, OpId, Time, XlateEntry};

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
    let block = gva.block_key();
    // Membership may have re-homed the block's directory record; aim the
    // request at whoever serves the home role in this locality's view.
    let home = eng.state.gas_ref(loc).member.resolve(block, gva.home());
    let ctrl = eng.state.cluster_ref().config.ctrl_bytes;
    send_ctrl(
        eng,
        loc,
        home,
        ctrl,
        GasMsg::MigRequest {
            block,
            dst,
            ctx,
            reply_to: loc,
            hops: 0,
        },
    );
}

/// A migration request arrived at `at` (the home, the owner, or a stale
/// former owner).
pub(crate) fn on_mig_request<S: GasWorld>(
    eng: &mut Engine<S>,
    at: LocalityId,
    block: u64,
    dst: LocalityId,
    ctx: OpId,
    reply_to: LocalityId,
    hops: u8,
) {
    if hops >= MAX_ROUTE_HOPS {
        // A request that chased this long is stale or forged: drop it and
        // count the violation (the requester's deadline sweep reclaims it).
        eng.state.gas(at).stats.protocol_violations += 1;
        return;
    }
    let ctrl = eng.state.cluster_ref().config.ctrl_bytes;
    let g = eng.state.gas(at);
    if dst != at && g.member.is_enabled() && g.member.state_of(dst) != crate::MemberState::Active {
        // The destination left (or is leaving) the cluster between request
        // and arrival: complete as a no-op rather than strand the block on
        // a dying locality. The requester's ctx resolves normally.
        send_ctrl(eng, at, reply_to, ctrl, GasMsg::MigDone { ctx, block });
        return;
    }
    let g = eng.state.gas(at);
    if let Some(entry) = g.btt.lookup(block) {
        if dst == at {
            // Already here: trivially complete.
            send_ctrl(eng, at, reply_to, ctrl, GasMsg::MigDone { ctx, block });
            return;
        }
        if entry.pins > 0 {
            g.deferred_migs
                .entry(block)
                .or_default()
                .push((dst, ctx, reply_to));
            return;
        }
        if g.moving.contains_key(&block) {
            // A hand-off is already in flight; chase it with exponential
            // backoff so a churning block cannot exhaust the hop budget.
            let backoff = g.cfg.retry_backoff * (1u64 << hops.min(12));
            resend_request_via_home(eng, at, block, dst, ctx, reply_to, hops, backoff);
            return;
        }
        start_handoff(eng, at, block, dst, ctx, reply_to);
        return;
    }
    let serving = g.member.resolve(block, Gva(block).home());
    if at == serving {
        // Authoritative routing through the directory (software cost).
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
            let rec = if g.member.is_enabled() {
                g.dir.lookup_opt(block)
            } else {
                Some(g.dir.lookup(block))
            };
            let Some(rec) = rec else {
                // Record in flight to us (hand-off racing the request):
                // re-chase after a backoff so the hop budget isn't burned.
                let backoff = eng.state.gas(at).cfg.retry_backoff * (1u64 << hops.min(12));
                resend_request_via_home(eng, at, block, dst, ctx, reply_to, hops, backoff);
                return;
            };
            let owner = rec.owner;
            let ctrl = eng.state.cluster_ref().config.ctrl_bytes;
            let next = if owner == at {
                Gva(block).home()
            } else {
                owner
            };
            send_ctrl(
                eng,
                at,
                next,
                ctrl,
                GasMsg::MigRequest {
                    block,
                    dst,
                    ctx,
                    reply_to,
                    hops: hops + 1,
                },
            );
        });
    } else {
        // Stale delivery: bounce through the home, backing off as the chase
        // lengthens (the block is actively churning).
        let backoff = eng.state.gas(at).cfg.retry_backoff * (1u64 << hops.min(12));
        resend_request_via_home(eng, at, block, dst, ctx, reply_to, hops, backoff);
    }
}

#[allow(clippy::too_many_arguments)]
fn resend_request_via_home<S: GasWorld>(
    eng: &mut Engine<S>,
    at: LocalityId,
    block: u64,
    dst: LocalityId,
    ctx: OpId,
    reply_to: LocalityId,
    hops: u8,
    delay: Time,
) {
    eng.schedule(delay, move |eng| {
        // Resolve the serving home at *send* time: by the time a backoff
        // fires, a drain hand-off or crash takeover may have moved the
        // record, and re-aiming at a Left locality would strand the chase.
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
            GasMsg::MigRequest {
                block,
                dst,
                ctx,
                reply_to,
                hops: hops + 1,
            },
        );
    });
}

/// Begin the hand-off at the current owner.
fn start_handoff<S: GasWorld>(
    eng: &mut Engine<S>,
    at: LocalityId,
    block: u64,
    dst: LocalityId,
    ctx: OpId,
    reply_to: LocalityId,
) {
    let mode = eng.state.gas_mode();
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
    if mode == GasMode::AgasNetwork {
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
        let g = eng.state.gas(at);
        g.btt.insert(block, phys, class, generation);
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
        if eng.state.gas_mode() == GasMode::AgasNetwork {
            // After `amo.absorb` above: a request parked here ahead of the
            // block may be the duplicate of an AMO the old owner executed.
            netsim::install_xlate(
                eng,
                at,
                block,
                XlateEntry {
                    base: phys,
                    len: 1u64 << class,
                    generation,
                },
            );
        }
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

/// Free `gva`'s block at runtime. Completion arrives via
/// [`GasWorld::gas_free_done`] with `ctx`. The caller must guarantee no
/// operations are in flight against the block (freeing live data is the
/// distributed use-after-free; the simulator panics when it detects it).
pub fn free_block<S: GasWorld>(eng: &mut Engine<S>, loc: LocalityId, gva: Gva, ctx: OpId) {
    let block = gva.block_key();
    let home = eng.state.gas_ref(loc).member.resolve(block, gva.home());
    let ctrl = eng.state.cluster_ref().config.ctrl_bytes;
    send_ctrl(
        eng,
        loc,
        home,
        ctrl,
        GasMsg::FreeRequest {
            block,
            ctx,
            reply_to: loc,
            hops: 0,
        },
    );
}

/// A free request arrived at `at` (the home, the owner, or a stale node).
pub(crate) fn on_free_request<S: GasWorld>(
    eng: &mut Engine<S>,
    at: LocalityId,
    block: u64,
    ctx: OpId,
    reply_to: LocalityId,
    hops: u8,
) {
    if hops >= MAX_ROUTE_HOPS {
        eng.state.gas(at).stats.protocol_violations += 1;
        return;
    }
    let g = eng.state.gas(at);
    if let Some(entry) = g.btt.lookup(block) {
        if entry.pins > 0 {
            g.deferred_frees
                .entry(block)
                .or_default()
                .push((ctx, reply_to));
            return;
        }
        if g.moving.contains_key(&block) {
            let backoff = g.cfg.retry_backoff * (1u64 << hops.min(12));
            eng.schedule(backoff, move |eng| {
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
                    GasMsg::FreeRequest {
                        block,
                        ctx,
                        reply_to,
                        hops: hops + 1,
                    },
                );
            });
            return;
        }
        commit_free(eng, at, block, ctx, reply_to);
        return;
    }
    let serving = g.member.resolve(block, Gva(block).home());
    if at == serving {
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
            let rec = if g.member.is_enabled() {
                g.dir.lookup_opt(block)
            } else {
                Some(g.dir.lookup(block))
            };
            let Some(rec) = rec else {
                // Record in flight to us (hand-off racing the free):
                // re-chase after a backoff.
                let backoff = eng.state.gas(at).cfg.retry_backoff * (1u64 << hops.min(12));
                eng.schedule(backoff, move |eng| {
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
                        GasMsg::FreeRequest {
                            block,
                            ctx,
                            reply_to,
                            hops: hops + 1,
                        },
                    );
                });
                return;
            };
            let ctrl = eng.state.cluster_ref().config.ctrl_bytes;
            send_ctrl(
                eng,
                at,
                rec.owner,
                ctrl,
                GasMsg::FreeRequest {
                    block,
                    ctx,
                    reply_to,
                    hops: hops + 1,
                },
            );
        });
    } else {
        let backoff = eng.state.gas(at).cfg.retry_backoff * (1u64 << hops.min(12));
        eng.schedule(backoff, move |eng| {
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
                GasMsg::FreeRequest {
                    block,
                    ctx,
                    reply_to,
                    hops: hops + 1,
                },
            );
        });
    }
}

/// Release the block at its owner and retire the directory record.
fn commit_free<S: GasWorld>(
    eng: &mut Engine<S>,
    at: LocalityId,
    block: u64,
    ctx: OpId,
    reply_to: LocalityId,
) {
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
    if eng.state.gas_mode() == GasMode::Pgas {
        // Unreachable (free routes via AGAS machinery), kept for clarity.
    }
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
        eng.state.pgas().remove(&block);
        let ctrl = eng.state.cluster_ref().config.ctrl_bytes;
        send_ctrl(eng, at, reply_to, ctrl, GasMsg::FreeDone { ctx, block });
    });
}

/// Called when a block's pin count drops to zero: start one deferred
/// migration (later requests re-chase through the home).
pub(crate) fn retry_deferred<S: GasWorld>(eng: &mut Engine<S>, at: LocalityId, block: u64) {
    // Deferred frees take priority: once freed, nothing else can apply.
    if let Some(frees) = eng.state.gas(at).deferred_frees.remove(&block) {
        let mut frees = frees.into_iter();
        if let Some((ctx, reply_to)) = frees.next() {
            assert!(
                frees.next().is_none(),
                "double free of block {block:#x} detected"
            );
            eng.state.gas(at).deferred_migs.remove(&block);
            commit_free(eng, at, block, ctx, reply_to);
            return;
        }
    }
    let Some(mut waiting) = eng.state.gas(at).deferred_migs.remove(&block) else {
        return;
    };
    if waiting.is_empty() {
        return;
    }
    let (dst, ctx, reply_to) = waiting.remove(0);
    for (dst2, ctx2, reply2) in waiting {
        // Re-route the rest through the home; they will find the new owner.
        resend_request_via_home(eng, at, block, dst2, ctx2, reply2, 0, Time::ZERO);
    }
    if dst == at {
        let ctrl = eng.state.cluster_ref().config.ctrl_bytes;
        send_ctrl(eng, at, reply_to, ctrl, GasMsg::MigDone { ctx, block });
    } else {
        start_handoff(eng, at, block, dst, ctx, reply_to);
    }
}
