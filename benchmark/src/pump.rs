//! The benchmark's closed-loop load generator over the full stack.
//!
//! `localities × window` simulated clients: each completion issues that
//! locality's next operation at the same simulated instant. The pump owns
//! the per-op bookkeeping the end-to-end metrics need — exact simulated
//! issue→completion latency samples, completion and mismatch counts, the
//! simulated makespan — and, in the traced binary, the host time spent
//! inside `issue` calls.

use crate::probe::Recorder;
use netsim::{Engine, LocalityId, Time};
use parcel_rt::World;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// A completion callback handed to the stack with one operation.
pub type DoneCb = Box<dyn FnOnce(&mut Engine<World>, Vec<u8>)>;

/// One workload's operation stream: what locality `loc`'s `seq`-th
/// operation is, and whether its completion payload is legal.
pub trait OpStream {
    /// Start operation `(loc, seq)`; `done` must fire exactly once with
    /// the operation's result bytes.
    fn issue(&self, eng: &mut Engine<World>, loc: LocalityId, seq: u64, done: DoneCb);
    /// Is `data` a legal result for operation `(loc, seq)`?
    fn check(&self, loc: LocalityId, seq: u64, data: &[u8]) -> bool;
}

/// Pump bookkeeping shared by every in-flight completion closure.
pub struct Pump {
    per_loc: u64,
    next: Vec<u64>,
    /// Operations started.
    pub issued: u64,
    /// Operations whose completion fired.
    pub completed: u64,
    /// Completions whose payload failed [`OpStream::check`].
    pub mismatches: u64,
    /// Simulated issue→completion latency of every op, in ns (floor).
    pub lat_ns: Vec<u32>,
    /// Simulated instant of the last completion.
    pub last_done: Time,
    /// Span recorder (traced runs only).
    pub rec: Option<Recorder>,
}

pub type SharedPump = Rc<RefCell<Pump>>;

impl Pump {
    /// `lat_ns` is the (reused) sample buffer; it is cleared and grown to
    /// hold every sample up front.
    pub fn new(
        n_locs: u32,
        per_loc: u64,
        mut lat_ns: Vec<u32>,
        rec: Option<Recorder>,
    ) -> SharedPump {
        lat_ns.clear();
        lat_ns.reserve((per_loc * u64::from(n_locs)) as usize);
        Rc::new(RefCell::new(Pump {
            per_loc,
            next: vec![0; n_locs as usize],
            issued: 0,
            completed: 0,
            mismatches: 0,
            lat_ns,
            last_done: Time::ZERO,
            rec,
        }))
    }
}

/// Issue `loc`'s next operation, if its budget allows.
fn issue_next(eng: &mut Engine<World>, pump: &SharedPump, ops: &Rc<dyn OpStream>, loc: LocalityId) {
    let (seq, traced) = {
        let mut p = pump.borrow_mut();
        let seq = p.next[loc as usize];
        if seq >= p.per_loc {
            return;
        }
        p.next[loc as usize] = seq + 1;
        p.issued += 1;
        (seq, p.rec.is_some())
    };
    let issued_at = eng.now();
    let (pump2, ops2) = (pump.clone(), ops.clone());
    let done: DoneCb = Box::new(move |eng, data| {
        let ok = ops2.check(loc, seq, &data);
        {
            let mut p = pump2.borrow_mut();
            let now = eng.now();
            let lat = (now - issued_at).ps() / netsim::time::NS;
            p.lat_ns.push(u32::try_from(lat).unwrap_or(u32::MAX));
            p.completed += 1;
            p.mismatches += u64::from(!ok);
            p.last_done = now;
        }
        issue_next(eng, &pump2, &ops2, loc);
    });
    if traced {
        let start = Instant::now();
        ops.issue(eng, loc, seq, done);
        if let Some(rec) = pump.borrow_mut().rec.as_mut() {
            rec.issue(start);
        }
    } else {
        ops.issue(eng, loc, seq, done);
    }
}

/// Open every client's window: `window` operations from each locality.
pub fn prime(
    eng: &mut Engine<World>,
    pump: &SharedPump,
    ops: &Rc<dyn OpStream>,
    n_locs: u32,
    window: usize,
) {
    for loc in 0..n_locs {
        for _ in 0..window {
            issue_next(eng, pump, ops, loc);
        }
    }
}
