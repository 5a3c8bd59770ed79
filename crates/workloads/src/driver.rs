//! Driver-side asynchronous operation pumps.
//!
//! Benchmark drivers keep a fixed *window* of operations in flight per
//! locality: each completion immediately issues the next operation. This is
//! the standard way message-driven benchmarks (GUPS, message-rate tests)
//! are written, and it is what saturates NICs and CPUs in the simulator.

use netsim::{Engine, LocalityId, OpId};
use parcel_rt::{Completion, World};
use std::cell::RefCell;
use std::rc::Rc;

/// Issues one operation: receives the engine, the issuing locality, the
/// operation's sequence number, and the completion `ctx` the operation must
/// eventually fire (pass it as the GAS op ctx, or fire it manually).
pub type IssueFn = dyn Fn(&mut Engine<World>, LocalityId, u64, OpId);

/// Runs once after the pump's final completion.
type DoneFn = Box<dyn FnOnce(&mut Engine<World>)>;

struct PumpState {
    loc: LocalityId,
    next: u64,
    total: u64,
    outstanding: usize,
    issue: Rc<IssueFn>,
    on_done: Option<DoneFn>,
}

/// Run `total` operations from `loc`, keeping up to `window` in flight.
/// `issue` starts one op and must arrange for its `ctx` completion to fire
/// exactly once. `on_done` runs after the final completion.
pub fn pump(
    eng: &mut Engine<World>,
    loc: LocalityId,
    total: u64,
    window: usize,
    issue: Rc<IssueFn>,
    on_done: impl FnOnce(&mut Engine<World>) + 'static,
) {
    assert!(window >= 1, "pump needs a window of at least 1");
    if total == 0 {
        let now = eng.now();
        eng.schedule_at_loc(now, loc, on_done);
        return;
    }
    let st = Rc::new(RefCell::new(PumpState {
        loc,
        next: 0,
        total,
        outstanding: 0,
        issue,
        on_done: Some(Box::new(on_done)),
    }));
    let initial = window.min(total as usize);
    for _ in 0..initial {
        issue_one(eng, st.clone());
    }
}

fn issue_one(eng: &mut Engine<World>, st: Rc<RefCell<PumpState>>) {
    let (loc, seq, issue) = {
        let mut s = st.borrow_mut();
        debug_assert!(s.next < s.total);
        let seq = s.next;
        s.next += 1;
        s.outstanding += 1;
        (s.loc, seq, s.issue.clone())
    };
    let st2 = st.clone();
    let ctx = eng
        .state
        .new_completion(Completion::Driver(Box::new(move |eng, _| {
            advance(eng, st2);
        })));
    issue(eng, loc, seq, ctx);
}

fn advance(eng: &mut Engine<World>, st: Rc<RefCell<PumpState>>) {
    let (more, done_now) = {
        let mut s = st.borrow_mut();
        s.outstanding -= 1;
        let more = s.next < s.total;
        let finished = !more && s.outstanding == 0;
        (
            more,
            finished.then(|| s.on_done.take().expect("pump finished twice")),
        )
    };
    if more {
        issue_one(eng, st);
    }
    if let Some(cb) = done_now {
        cb(eng);
    }
}

/// Convenience: run one pump per locality and invoke `all_done` when every
/// locality's pump has drained.
pub fn pump_all(
    eng: &mut Engine<World>,
    n_locs: u32,
    total_per_loc: u64,
    window: usize,
    issue: Rc<IssueFn>,
    all_done: impl FnOnce(&mut Engine<World>) + 'static,
) {
    let remaining = Rc::new(RefCell::new(n_locs));
    let all_done = Rc::new(RefCell::new(Some(
        Box::new(all_done) as Box<dyn FnOnce(&mut Engine<World>)>
    )));
    for loc in 0..n_locs {
        let remaining = remaining.clone();
        let all_done = all_done.clone();
        pump(eng, loc, total_per_loc, window, issue.clone(), move |eng| {
            *remaining.borrow_mut() -= 1;
            if *remaining.borrow() == 0 {
                let cb = all_done.borrow_mut().take().expect("all_done fired twice");
                cb(eng);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agas::{Distribution, GasMode};
    use parcel_rt::Runtime;
    use std::cell::Cell;

    #[test]
    fn pump_runs_exact_count() {
        let mut rt = Runtime::builder(2, GasMode::AgasNetwork).boot();
        let arr = rt.alloc(2, 12, Distribution::Cyclic);
        let issued = Rc::new(Cell::new(0u64));
        let i2 = issued.clone();
        let gva = arr.block(1);
        let issue: Rc<IssueFn> = Rc::new(move |eng, loc, _seq, ctx| {
            i2.set(i2.get() + 1);
            agas::ops::memput(eng, loc, gva, vec![1u8; 8], ctx);
        });
        let done = Rc::new(Cell::new(false));
        let d2 = done.clone();
        pump(&mut rt.eng, 0, 25, 4, issue, move |_| d2.set(true));
        rt.run();
        assert_eq!(issued.get(), 25);
        assert!(done.get());
    }

    #[test]
    fn pump_zero_total_fires_done() {
        let mut rt = Runtime::builder(1, GasMode::Pgas).boot();
        let done = Rc::new(Cell::new(false));
        let d2 = done.clone();
        let issue: Rc<IssueFn> = Rc::new(|_, _, _, _| panic!("must not issue"));
        pump(&mut rt.eng, 0, 0, 4, issue, move |_| d2.set(true));
        rt.run();
        assert!(done.get());
    }

    #[test]
    fn window_limits_outstanding() {
        // With window 1 and a high-latency fabric, ops strictly serialize:
        // total time ≈ n × per-op latency.
        let mut rt = Runtime::builder(2, GasMode::AgasNetwork).boot();
        let arr = rt.alloc(2, 12, Distribution::Cyclic);
        let gva = arr.block(1);
        let issue: Rc<IssueFn> = Rc::new(move |eng, loc, _seq, ctx| {
            agas::ops::memput(eng, loc, gva, vec![1u8; 8], ctx);
        });
        pump(&mut rt.eng, 0, 10, 1, issue.clone(), |_| {});
        rt.run();
        let serial = rt.now();

        let mut rt2 = Runtime::builder(2, GasMode::AgasNetwork).boot();
        let arr2 = rt2.alloc(2, 12, Distribution::Cyclic);
        let gva2 = arr2.block(1);
        let issue2: Rc<IssueFn> = Rc::new(move |eng, loc, _seq, ctx| {
            agas::ops::memput(eng, loc, gva2, vec![1u8; 8], ctx);
        });
        pump(&mut rt2.eng, 0, 10, 10, issue2, |_| {});
        rt2.run();
        let pipelined = rt2.now();
        assert!(pipelined < serial, "pipelined={pipelined} serial={serial}");
        let _ = gva;
    }

    #[test]
    fn pump_all_waits_for_every_locality() {
        let mut rt = Runtime::builder(4, GasMode::AgasNetwork).boot();
        let arr = rt.alloc(8, 12, Distribution::Cyclic);
        let done = Rc::new(Cell::new(false));
        let d2 = done.clone();
        let blocks = arr.blocks.clone();
        let issue: Rc<IssueFn> = Rc::new(move |eng, loc, seq, ctx| {
            let gva = blocks[((seq + loc as u64) % 8) as usize];
            agas::ops::memput(eng, loc, gva, vec![2u8; 8], ctx);
        });
        pump_all(&mut rt.eng, 4, 12, 3, issue, move |_| d2.set(true));
        rt.run();
        assert!(done.get());
        assert_eq!(rt.eng.state.total_gas_stats().puts, 48);
    }
}
