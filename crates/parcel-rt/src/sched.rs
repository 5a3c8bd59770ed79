//! The per-locality parcel scheduler.
//!
//! Arriving parcels are routed (local execute vs. forward toward the
//! block's owner), charged against the locality's worker pool, pinned
//! against their target block, and run. The worker pool is *shared* with
//! the GAS software handlers — in software-AGAS mode remote memory traffic
//! and application actions fight for the same cores, which is precisely
//! the contention the network-managed design removes.
//!
//! With [`RtConfig::ring`](crate::RtConfig::ring) set, a parcel bound for
//! another locality waits in a per-peer `PeerBatch` instead of going out
//! alone. A batch flushes when it reaches `doorbell_batch` parcels or
//! `max_bytes` wire bytes, or when the timer armed by its first parcel
//! fires `doorbell_delay` later; the flush sends every parcel, in push
//! order, as one `ParcelBatch` message. Each flush bumps the batch's epoch,
//! so a timer armed before it finds a newer epoch and does nothing. Local
//! parcels never wait. Batching is a PWC feature: ISIR parcels go through
//! the tag-matching engine one by one, and
//! [`RuntimeBuilder::boot`](crate::RuntimeBuilder::boot) refuses a ring
//! on that transport.

use crate::lco::{self, LCO_CLASS};
use crate::parcel::{ActionCtx, Parcel, ACTION_LCO_SET};
use crate::world::{Msg, Transport, World, PARCEL_TAG};

use netsim::{send_user, telemetry, Engine, LocalityId, RingConfig, Time, TraceKind};

const MAX_PARCEL_HOPS: u8 = 64;

/// One locality's parcels waiting for one peer.
#[derive(Debug, Default)]
pub(crate) struct PeerBatch {
    /// Waiting parcels in push order. The buffer keeps its capacity from
    /// one batch to the next.
    parcels: Vec<Parcel>,
    /// Summed wire bytes of `parcels`.
    bytes: u32,
    /// Flushes so far; a timer carries the epoch it was armed in.
    epoch: u64,
    /// When the batch went non-empty.
    since: Time,
    /// Parcels this peer's flushes have sent.
    sent: u64,
}

impl PeerBatch {
    /// Parcels this peer's flushes have sent.
    pub(crate) fn sent(&self) -> u64 {
        self.sent
    }

    /// A quiescence-report line for a waiting batch, `None` when empty.
    pub(crate) fn report(&self, peer: LocalityId, now: Time) -> Option<String> {
        (!self.parcels.is_empty()).then(|| {
            format!(
                "parcel batch peer={peer} parcels={} bytes={} oldest_age={}",
                self.parcels.len(),
                self.bytes,
                now - self.since
            )
        })
    }
}

/// Inject `parcel` from `from`: route it toward the believed owner of its
/// target and send (loop-back when the first hop is local).
pub fn send_parcel(eng: &mut Engine<World>, from: LocalityId, parcel: Parcel) {
    eng.state.rt[from as usize].stats.parcels_sent += 1;
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
pub(crate) fn transmit(
    eng: &mut Engine<World>,
    from: LocalityId,
    next: LocalityId,
    parcel: Parcel,
) {
    let cfg = eng.state.rtcfg;
    match cfg.transport {
        Transport::Pwc => {
            if let Some(ring) = cfg.ring.filter(|_| from != next) {
                ring_submit(eng, from, next, parcel, ring);
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

/// Add `parcel` to `from`'s batch toward `next`: flush it when it reaches
/// a limit, or arm its timer when it was empty.
fn ring_submit(
    eng: &mut Engine<World>,
    from: LocalityId,
    next: LocalityId,
    parcel: Parcel,
    ring: RingConfig,
) {
    let now = eng.now();
    let batches = &mut eng.state.rt[from as usize].batches;
    if batches.len() <= next as usize {
        batches.resize_with(next as usize + 1, PeerBatch::default);
    }
    let b = &mut batches[next as usize];
    if b.parcels.is_empty() {
        b.since = now;
    }
    b.bytes += parcel.wire_size();
    b.parcels.push(parcel);
    if b.parcels.len() >= ring.doorbell_batch || b.bytes >= ring.max_bytes {
        ring_doorbell(eng, from, next);
    } else if b.parcels.len() == 1 {
        let epoch = b.epoch;
        eng.schedule_at_loc(now + ring.doorbell_delay, from, move |eng| {
            if eng.state.rt[from as usize].batches[next as usize].epoch == epoch {
                ring_doorbell(eng, from, next);
            }
        });
    }
}

/// Ring the doorbell: send `from`'s non-empty batch toward `next` as one
/// wire message (summed payloads + one shared header) and start a new one.
fn ring_doorbell(eng: &mut Engine<World>, from: LocalityId, next: LocalityId) {
    let rt = &mut eng.state.rt[from as usize];
    let b = &mut rt.batches[next as usize];
    let parcels: Vec<Parcel> = b.parcels.drain(..).collect();
    let wire = std::mem::take(&mut b.bytes);
    b.epoch += 1;
    let n = parcels.len() as u64;
    b.sent += n;
    rt.stats.batches_sent += 1;
    telemetry::record_ring(1, n, n - 1);
    let now = eng.now();
    eng.state.cluster.tracer.record(
        now,
        TraceKind::Doorbell {
            at: from,
            peer: next,
            descs: n as u32,
        },
    );
    send_user(eng, from, next, wire, Msg::ParcelBatch(parcels));
}

/// A parcel arrived at `dst` (called from the world's packet dispatch).
pub fn parcel_arrive(eng: &mut Engine<World>, _src: LocalityId, dst: LocalityId, parcel: Parcel) {
    // LCO parcels: handled at the LCO's home with a light CPU charge.
    if parcel.target.class() == LCO_CLASS {
        let home = parcel.target.home();
        if home != dst {
            forward(eng, dst, parcel, home);
            return;
        }
        debug_assert_eq!(parcel.action, ACTION_LCO_SET, "non-set parcel at an LCO");
        let service = eng.state.rtcfg.lco_op;
        let now = eng.now();
        let (_, finish) = eng.state.cpus[dst as usize].admit(now, service);
        eng.state.cluster.loc_mut(dst).counters.cpu_busy += service;
        let (lco, value) = (parcel.target, parcel.args);
        eng.schedule_at(finish, move |eng| lco::apply(eng, dst, lco, value));
        return;
    }
    match agas::ops::route(&mut eng.state, dst, parcel.target) {
        agas::ops::Route::Local { base, .. } => {
            // Host-cache hint for the action's access to the target word.
            let addr = base.saturating_add(parcel.target.offset());
            eng.state.cluster.mem(dst).prefetch(addr, 8);
            // Charge the action dispatch + argument handling to a worker.
            let c = eng.state.rtcfg;
            let service =
                c.action_base + Time::from_ps(parcel.args.len() as u64 * c.recv_per_byte_ps);
            let now = eng.now();
            let (_, finish) = eng.state.cpus[dst as usize].admit(now, service);
            eng.state.cluster.loc_mut(dst).counters.cpu_busy += service;
            let prof = &mut eng.state.rt[dst as usize].action_profile;
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

fn forward(eng: &mut Engine<World>, at: LocalityId, mut parcel: Parcel, next: LocalityId) {
    assert!(
        parcel.hops < MAX_PARCEL_HOPS,
        "parcel to {:?} forwarded {} times (routing loop?)",
        parcel.target,
        parcel.hops
    );
    parcel.hops += 1;
    eng.state.rt[at as usize].stats.parcels_forwarded += 1;
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
fn execute(eng: &mut Engine<World>, dst: LocalityId, parcel: Parcel) {
    let Some((base, class)) = agas::ops::pin(&mut eng.state, dst, parcel.target) else {
        // The block moved while the parcel queued; chase it.
        parcel_arrive(eng, dst, dst, parcel);
        return;
    };
    eng.state.rt[dst as usize].stats.parcels_executed += 1;
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
    let registry = eng.state.registry.clone();
    registry.get(parcel.action)(eng, ctx);
    agas::ops::unpin(eng, dst, target);
}

/// Send `value` to an action's continuation LCO, if it has one. The usual
/// last line of an action that produces a result.
pub fn reply(eng: &mut Engine<World>, ctx: &ActionCtx, value: Vec<u8>) {
    if let Some(cont) = ctx.cont {
        lco::lco_set(eng, ctx.loc, cont, value);
    }
}
