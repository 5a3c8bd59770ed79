//! Structured execution tracing.
//!
//! When enabled, the cluster records a timeline of protocol-level events
//! (injections, deliveries, NIC translations, NACKs, forwards). The trace
//! is what the `trace_timeline` example prints, what debugging a protocol
//! change starts from, and the simulator's stand-in for the
//! instrumentation stack (APEX) the original runtime shipped with.
//!
//! Tracing is off by default and costs one branch per potential event.

use crate::nic::LocalityId;
use crate::optable::OpId;
use crate::time::Time;
use std::fmt;

/// What happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A two-sided message entered the fabric.
    MsgInject {
        /// Sender.
        src: LocalityId,
        /// Receiver.
        dst: LocalityId,
        /// Payload bytes.
        bytes: u32,
    },
    /// A two-sided message reached software.
    MsgDeliver {
        /// Sender.
        src: LocalityId,
        /// Receiver.
        dst: LocalityId,
    },
    /// A one-sided put entered the fabric.
    PutInject {
        /// Initiator.
        src: LocalityId,
        /// Believed owner.
        dst: LocalityId,
        /// Payload bytes.
        bytes: u32,
    },
    /// A one-sided get request entered the fabric.
    GetInject {
        /// Initiator.
        src: LocalityId,
        /// Believed owner.
        dst: LocalityId,
        /// Bytes requested.
        bytes: u32,
    },
    /// A NIC-executed active operation entered the fabric.
    AmoInject {
        /// Initiator.
        src: LocalityId,
        /// Believed owner.
        dst: LocalityId,
    },
    /// A NIC translated a virtual block (hit).
    XlateHit {
        /// The translating NIC's locality.
        at: LocalityId,
        /// Block key.
        block: u64,
    },
    /// A NIC missed its table.
    XlateMiss {
        /// The missing NIC's locality.
        at: LocalityId,
        /// Block key.
        block: u64,
    },
    /// A NIC forwarded an op via a tombstone.
    XlateForward {
        /// The forwarding NIC's locality.
        at: LocalityId,
        /// Next hop.
        next: LocalityId,
        /// Block key.
        block: u64,
    },
    /// A NACK went back to an initiator.
    Nack {
        /// NACKing NIC.
        from: LocalityId,
        /// Initiator.
        to: LocalityId,
    },
    /// A one-sided operation completed at its initiator.
    Completion {
        /// The initiator.
        at: LocalityId,
    },
    /// A tracked GAS operation was issued: its trace span opens.
    OpSpanOpen {
        /// The initiating locality.
        at: LocalityId,
        /// The op-table handle.
        op: OpId,
    },
    /// A tracked GAS operation reached its outcome: its trace span closes.
    OpSpanClose {
        /// The initiating locality.
        at: LocalityId,
        /// The op-table handle.
        op: OpId,
        /// Completed normally (`true`) or failed — deadline exceeded,
        /// retries exhausted (`false`).
        ok: bool,
    },
    /// A parcel-batch doorbell rang: one batch of parcels entered the
    /// fabric as a single wire message.
    Doorbell {
        /// The sending locality.
        at: LocalityId,
        /// The peer the batch is for.
        peer: LocalityId,
        /// Parcels in the batch.
        descs: u32,
    },
    /// An intra-domain operation bypassed the NIC over shared memory.
    ShmOp {
        /// Initiator.
        src: LocalityId,
        /// Co-located target.
        dst: LocalityId,
        /// Payload bytes.
        bytes: u32,
    },
}

/// A timestamped trace record.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// When it happened.
    pub t: Time,
    /// What happened.
    pub kind: TraceKind,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:>12}  ", format!("{}", self.t))?;
        match self.kind {
            TraceKind::MsgInject { src, dst, bytes } => {
                write!(f, "msg   {src} → {dst}  ({bytes} B)")
            }
            TraceKind::MsgDeliver { src, dst } => write!(f, "deliver {src} → {dst}"),
            TraceKind::PutInject { src, dst, bytes } => {
                write!(f, "put   {src} → {dst}  ({bytes} B)")
            }
            TraceKind::GetInject { src, dst, bytes } => {
                write!(f, "get   {src} → {dst}  ({bytes} B)")
            }
            TraceKind::AmoInject { src, dst } => {
                write!(f, "amo   {src} → {dst}")
            }
            TraceKind::XlateHit { at, block } => {
                write!(f, "xlate HIT   @{at}  block {block:#x}")
            }
            TraceKind::XlateMiss { at, block } => {
                write!(f, "xlate MISS  @{at}  block {block:#x}")
            }
            TraceKind::XlateForward { at, next, block } => {
                write!(f, "xlate FWD   @{at} → {next}  block {block:#x}")
            }
            TraceKind::Nack { from, to } => write!(f, "nack  {from} → {to}"),
            TraceKind::Completion { at } => write!(f, "done  @{at}"),
            TraceKind::OpSpanOpen { at, op } => write!(f, "span+ @{at}  op {op}"),
            TraceKind::OpSpanClose { at, op, ok } => {
                write!(
                    f,
                    "span- @{at}  op {op}  {}",
                    if ok { "ok" } else { "FAIL" }
                )
            }
            TraceKind::Doorbell { at, peer, descs } => {
                write!(f, "ring  @{at} → {peer}  ({descs} descs)")
            }
            TraceKind::ShmOp { src, dst, bytes } => {
                write!(f, "shm   {src} → {dst}  ({bytes} B)")
            }
        }
    }
}

/// The (off-by-default) trace recorder.
#[derive(Default)]
pub struct Tracer {
    enabled: bool,
    events: Vec<TraceEvent>,
    capacity: usize,
}

impl Tracer {
    /// A disabled tracer.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Start recording, keeping at most `capacity` events (oldest dropped).
    pub fn enable(&mut self, capacity: usize) {
        self.enabled = true;
        self.capacity = capacity.max(1);
        self.events.clear();
    }

    /// Is recording active?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record an event (no-op when disabled).
    #[inline]
    pub fn record(&mut self, t: Time, kind: TraceKind) {
        if !self.enabled {
            return;
        }
        if self.events.len() >= self.capacity {
            self.events.remove(0);
        }
        self.events.push(TraceEvent { t, kind });
    }

    /// The recorded timeline, oldest first.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Drop all recorded events.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Render the timeline as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&format!("{e}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new();
        tr.record(Time::from_ns(1), TraceKind::Completion { at: 0 });
        assert!(tr.events().is_empty());
        assert!(!tr.is_enabled());
    }

    #[test]
    fn enabled_tracer_records_in_order() {
        let mut tr = Tracer::new();
        tr.enable(16);
        tr.record(Time::from_ns(1), TraceKind::Completion { at: 0 });
        tr.record(Time::from_ns(2), TraceKind::Nack { from: 1, to: 0 });
        assert_eq!(tr.events().len(), 2);
        assert_eq!(tr.events()[0].t, Time::from_ns(1));
        let text = tr.render();
        assert!(text.contains("done"));
        assert!(text.contains("nack"));
    }

    #[test]
    fn capacity_drops_oldest() {
        let mut tr = Tracer::new();
        tr.enable(3);
        for i in 0..5 {
            tr.record(Time::from_ns(i), TraceKind::Completion { at: i as u32 });
        }
        assert_eq!(tr.events().len(), 3);
        assert_eq!(tr.events()[0].t, Time::from_ns(2));
    }

    #[test]
    fn display_formats_every_kind() {
        let kinds = [
            TraceKind::MsgInject {
                src: 0,
                dst: 1,
                bytes: 8,
            },
            TraceKind::MsgDeliver { src: 0, dst: 1 },
            TraceKind::PutInject {
                src: 0,
                dst: 1,
                bytes: 64,
            },
            TraceKind::GetInject {
                src: 0,
                dst: 1,
                bytes: 64,
            },
            TraceKind::AmoInject { src: 0, dst: 1 },
            TraceKind::XlateHit { at: 1, block: 0x40 },
            TraceKind::XlateMiss { at: 1, block: 0x40 },
            TraceKind::XlateForward {
                at: 1,
                next: 2,
                block: 0x40,
            },
            TraceKind::Nack { from: 1, to: 0 },
            TraceKind::Completion { at: 0 },
            TraceKind::OpSpanOpen {
                at: 0,
                op: OpId::from_parts(3, 1),
            },
            TraceKind::OpSpanClose {
                at: 0,
                op: OpId::from_parts(3, 1),
                ok: false,
            },
            TraceKind::Doorbell {
                at: 0,
                peer: 1,
                descs: 16,
            },
            TraceKind::ShmOp {
                src: 0,
                dst: 1,
                bytes: 64,
            },
        ];
        for k in kinds {
            let e = TraceEvent {
                t: Time::from_ns(5),
                kind: k,
            };
            assert!(!format!("{e}").is_empty());
        }
    }
}
