//! The per-locality parcel scheduler.
//!
//! Arriving parcels are routed (local execute vs. forward toward the
//! block's owner), charged against the locality's worker pool, pinned
//! against their target block, and run. The worker pool is *shared* with
//! the GAS software handlers — in software-AGAS mode remote memory traffic
//! and application actions fight for the same cores, which is precisely
//! the contention the network-managed design removes.
//!
//! Everything here is generic over [`RtWorld`], so the same scheduler
//! drives the classic single-threaded [`crate::World`] and the lane-safe
//! [`crate::ShardWorld`] running under a
//! [`ShardedEngine`](netsim::ShardedEngine).

use crate::lco::{self, LCO_CLASS};
use crate::parcel::{ActionCtx, Parcel, ACTION_LCO_SET};
use crate::world::{Msg, RtWorld, Transport, PARCEL_TAG};

use netsim::{send_user, Desc, Engine, LocalityId, PushOutcome, Time, TraceKind};

const MAX_PARCEL_HOPS: u8 = 64;

/// Inject `parcel` from `from`: route it toward the believed owner of its
/// target and send (loop-back when the first hop is local).
pub fn send_parcel<W: RtWorld>(eng: &mut Engine<W>, from: LocalityId, parcel: Parcel) {
    eng.state.rt(from).stats.parcels_sent += 1;
    let first_hop = if parcel.target.class() == LCO_CLASS {
        parcel.target.home()
    } else {
        match agas::ops::route(&mut eng.state, from, parcel.target) {
            agas::ops::Route::Local { .. } => from,
            agas::ops::Route::Forward(next) => next,
        }
    };
    transmit(eng, from, first_hop, parcel);
}

/// Put a parcel on the wire toward `next` using the configured transport.
pub(crate) fn transmit<W: RtWorld>(
    eng: &mut Engine<W>,
    from: LocalityId,
    next: LocalityId,
    parcel: Parcel,
) {
    match eng.state.rtcfg().transport {
        Transport::Pwc => {
            if from != next && eng.state.rt(from).parcel_rings.is_some() {
                ring_submit(eng, from, next, parcel);
                return;
            }
            let wire = parcel.wire_size();
            send_user(eng, from, next, wire, Msg::Parcel(parcel));
        }
        Transport::Isir => {
            // Serialize and go through the tag-matching two-sided path
            // (eager/rendezvous + credits), as an MPI-backed runtime would.
            let bytes = parcel.encode();
            photon::send(eng, from, next, PARCEL_TAG, bytes, None);
        }
    }
}

/// Post `parcel` as a descriptor into `from`'s submission ring toward
/// `next`, ringing the doorbell when the batch threshold trips and arming
/// the moderation timer when the ring transitions from empty.
fn ring_submit<W: RtWorld>(
    eng: &mut Engine<W>,
    from: LocalityId,
    next: LocalityId,
    parcel: Parcel,
) {
    let now = eng.now();
    let desc = Desc {
        bytes: parcel.wire_size(),
        item: parcel,
        kind: "parcel",
        enqueued: now,
    };
    let rings = eng
        .state
        .rt(from)
        .parcel_rings
        .as_mut()
        .expect("ring_submit without rings configured");
    match rings.push(next, desc) {
        PushOutcome::Flush => ring_doorbell(eng, from, next),
        PushOutcome::Armed(epoch) => {
            let delay = rings.config().doorbell_delay;
            eng.schedule_at_loc(now + delay, from, move |eng| {
                let due = eng
                    .state
                    .rt(from)
                    .parcel_rings
                    .as_ref()
                    .is_some_and(|r| r.timer_due(next, epoch));
                if due {
                    ring_doorbell(eng, from, next);
                }
            });
        }
        PushOutcome::Buffered => {}
    }
}

/// Ring the doorbell: drain `from`'s submission ring toward `next` and send
/// the whole batch as one wire message (summed payloads + one shared header).
fn ring_doorbell<W: RtWorld>(eng: &mut Engine<W>, from: LocalityId, next: LocalityId) {
    let (parcels, wire) = eng
        .state
        .rt(from)
        .parcel_rings
        .as_mut()
        .expect("doorbell without rings configured")
        .drain_items(next);
    if parcels.is_empty() {
        return;
    }
    eng.state.rt(from).stats.batches_sent += 1;
    let now = eng.now();
    eng.state.cluster().tracer.record(
        now,
        TraceKind::Doorbell {
            at: from,
            peer: next,
            descs: parcels.len() as u32,
        },
    );
    send_user(eng, from, next, wire, Msg::ParcelBatch(parcels));
}

/// A parcel arrived at `dst` (called from the world's packet dispatch).
pub fn parcel_arrive<W: RtWorld>(
    eng: &mut Engine<W>,
    _src: LocalityId,
    dst: LocalityId,
    parcel: Parcel,
) {
    // LCO parcels: handled at the LCO's home with a light CPU charge.
    if parcel.target.class() == LCO_CLASS {
        let home = parcel.target.home();
        if home != dst {
            forward(eng, dst, parcel, home);
            return;
        }
        debug_assert_eq!(parcel.action, ACTION_LCO_SET, "non-set parcel at an LCO");
        let service = eng.state.rtcfg().lco_op;
        let now = eng.now();
        let (_, finish) = eng.state.cpu(dst).admit(now, service);
        eng.state.cluster().loc_mut(dst).counters.cpu_busy += service;
        let (lco, value) = (parcel.target, parcel.args);
        eng.schedule_at(finish, move |eng| lco::apply(eng, dst, lco, value));
        return;
    }
    match agas::ops::route(&mut eng.state, dst, parcel.target) {
        agas::ops::Route::Local { .. } => {
            // Charge the action dispatch + argument handling to a worker.
            let (base_cost, per_byte) = {
                let c = eng.state.rtcfg();
                (c.action_base, c.recv_per_byte_ps)
            };
            let service = base_cost + Time::from_ps(parcel.args.len() as u64 * per_byte);
            let now = eng.now();
            let (_, finish) = eng.state.cpu(dst).admit(now, service);
            eng.state.cluster().loc_mut(dst).counters.cpu_busy += service;
            let prof = &mut eng.state.rt(dst).action_profile;
            let id = parcel.action.0 as usize;
            if prof.len() <= id {
                prof.resize(id + 1, (0, Time::ZERO));
            }
            prof[id].0 += 1;
            prof[id].1 += service;
            eng.schedule_at(finish, move |eng| execute(eng, dst, parcel));
        }
        agas::ops::Route::Forward(next) => {
            // Owner-cache hints are only trusted for the first hops; a
            // parcel still bouncing re-routes through the authoritative
            // home (stale caches can otherwise ping-pong it forever).
            let home = parcel.target.home();
            let next = if parcel.hops >= 2 && dst != home && next != home {
                home
            } else {
                next
            };
            forward(eng, dst, parcel, next);
        }
    }
}

fn forward<W: RtWorld>(eng: &mut Engine<W>, at: LocalityId, mut parcel: Parcel, next: LocalityId) {
    assert!(
        parcel.hops < MAX_PARCEL_HOPS,
        "parcel to {:?} forwarded {} times (routing loop?)",
        parcel.target,
        parcel.hops
    );
    parcel.hops += 1;
    eng.state.rt(at).stats.parcels_forwarded += 1;
    // A long chase means the target block is churning: back off so the
    // migration can commit instead of racing our retransmissions.
    let delay = if parcel.hops > 4 {
        Time::from_ns(500) * (1u64 << (parcel.hops as u64 - 4).min(12))
    } else {
        Time::ZERO
    };
    let now = eng.now();
    eng.schedule_at_loc(now + delay, at, move |eng| {
        transmit(eng, at, next, parcel);
    });
}

/// Run the action: pin the target block, invoke the handler, unpin.
fn execute<W: RtWorld>(eng: &mut Engine<W>, dst: LocalityId, parcel: Parcel) {
    let Some((base, class)) = agas::ops::pin(&mut eng.state, dst, parcel.target) else {
        // The block moved while the parcel queued; chase it.
        parcel_arrive(eng, dst, dst, parcel);
        return;
    };
    eng.state.rt(dst).stats.parcels_executed += 1;
    let target = parcel.target;
    let ctx = ActionCtx {
        loc: dst,
        target,
        base,
        class,
        args: parcel.args,
        cont: parcel.cont,
        src: parcel.src,
    };
    W::run_action(eng, parcel.action, ctx);
    agas::ops::unpin(eng, dst, target);
}

/// Send `value` to an action's continuation LCO, if it has one. The usual
/// last line of an action that produces a result.
pub fn reply<W: RtWorld>(eng: &mut Engine<W>, ctx: &ActionCtx, value: Vec<u8>) {
    if let Some(cont) = ctx.cont {
        lco::lco_set(eng, ctx.loc, cont, value);
    }
}
