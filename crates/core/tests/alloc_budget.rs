//! What the layers allocate, held to a budget.
//!
//! A counting global allocator (per thread, so the tests of this binary do
//! not see each other) measures the three things the stack promises about
//! its own footprint:
//!
//! * an endpoint that has not registered a buffer holds no registration
//!   table;
//! * a remote put in steady state allocates the request that crosses the
//!   wire and, past the inline limit, one shared payload buffer — no copy
//!   per holder, no box per nested event; a remote get or AMO allocates
//!   only its request, whose box carries the answer home (a small get's
//!   bytes inline), plus, for a get, the `Vec` its completion hands the
//!   caller — also while a burst of thousands is issued and drains, with
//!   no locality holding more than `POST_DEPTH` requests at once;
//! * an outstanding get holds a fixed number of live heap bytes across the
//!   layers (a 40-byte send-queue entry while it waits for a credit; once
//!   posted, its GAS pending op, the boxed request and its queued event),
//!   so a record that regrows fails; a put or AMO that waits for a credit
//!   boxes its verb once, and the box is freed when the op is admitted;
//! * a drained engine keeps little of what its event queue held at its
//!   densest instants: a closed loop of puts leaves its time wheel with
//!   storage for the slots busy at one instant, not for every slot a
//!   dense quantum passed through;
//! * a local put, get or AMO allocates only what its completion hands
//!   the caller, in every GAS mode, and an AGAS-SW get or AMO only its
//!   request and one reply;
//! * a NIC's AMO responder cache is fixed at its first install: once
//!   `AMO_CACHE_CAP` completions wrap it many times over it holds at most
//!   40 KiB, and further AMOs allocate nothing in it;
//! * a retry re-sends the payload the op already holds: a put that bounces
//!   through the directory, or loses its completion and is re-issued by the
//!   deadline sweep, allocates no second buffer and still writes the right
//!   bytes.
//!
//! The caller's own `Vec` is built outside the counted region, except where
//! [`spent_per_op`] counts it.

use agas::migrate::migrate_block;
use agas::ops::{memamo, memget, memput};
use agas::{alloc_array, Distribution, GasMode, GlobalArray, Gva, SimWorld, POST_DEPTH};
use netsim::amo::AMO_CACHE_CAP;
use netsim::{Access, AmoOp, Engine, NetConfig, OpId, Payload, Time};
use photon::{PhotonConfig, PhotonEndpoint};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Puts issued before counting starts.
const WARM: u64 = 4096;

/// Allocations this large are payload buffers in these tests.
const BIG: usize = 1024;

#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Tally {
    allocs: u64,
    bytes: u64,
    big: u64,
    /// Bytes handed back (requested sizes, like `bytes`).
    freed: u64,
    /// Live allocations of an [`Access`]'s size: the requests in flight.
    requests: i64,
    /// The most `requests` ever reached.
    peak_requests: i64,
}

impl Tally {
    /// Requested bytes still allocated.
    fn live(&self) -> i64 {
        self.bytes as i64 - self.freed as i64
    }
}

thread_local! {
    static TALLY: Cell<Tally> =
        const { Cell::new(Tally { allocs: 0, bytes: 0, big: 0, freed: 0, requests: 0, peak_requests: 0 }) };
}

struct Counting;

fn count(size: usize) {
    TALLY.with(|t| {
        let mut v = t.get();
        v.allocs += 1;
        v.bytes += size as u64;
        v.big += u64::from(size >= BIG);
        if size == size_of::<Access>() {
            v.requests += 1;
            v.peak_requests = v.peak_requests.max(v.requests);
        }
        t.set(v);
    });
}

fn count_free(size: usize) {
    TALLY.with(|t| {
        let mut v = t.get();
        v.freed += size as u64;
        v.requests -= i64::from(size == size_of::<Access>());
        t.set(v);
    });
}

// SAFETY: every request is forwarded unchanged to the system allocator; the
// tally is a `Cell` in const-initialised thread-local storage with no
// destructor, so touching it neither allocates nor can outlive its thread.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // Forwarded, not left to the default `alloc` + zero-fill, which
        // would write (and make resident) every locality's whole arena.
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_free(layout.size());
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        count_free(layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f`; report what this thread allocated meanwhile.
fn counted<R>(f: impl FnOnce() -> R) -> (R, Tally) {
    let before = TALLY.with(Cell::get);
    let r = f();
    let after = TALLY.with(Cell::get);
    let spent = Tally {
        allocs: after.allocs - before.allocs,
        bytes: after.bytes - before.bytes,
        big: after.big - before.big,
        freed: after.freed - before.freed,
        requests: after.requests - before.requests,
        peak_requests: after.peak_requests - before.requests,
    };
    (r, spent)
}

/// A quiet world of `n` localities with one 4 KiB block homed at each.
fn world(n: usize, mode: GasMode, net: NetConfig) -> (Engine<SimWorld>, GlobalArray) {
    let mut eng = Engine::new(SimWorld::new(n, mode, net), 42);
    eng.state.data.record_events = false;
    let arr = alloc_array(&mut eng, n as u64, 12, Distribution::Cyclic);
    eng.run();
    (eng, arr)
}

/// The bytes of `gva`'s block as its current owner holds them.
fn block_bytes(eng: &mut Engine<SimWorld>, gva: Gva, len: usize) -> Vec<u8> {
    let key = gva.block_key();
    let data = &mut *eng.state.data;
    let (owner, base) = data
        .gas
        .iter_mut()
        .enumerate()
        .find_map(|(l, g)| g.btt.lookup(key).map(|e| (l as u32, e.base)))
        .expect("block has an owner");
    data.cluster.mem(owner).read(base, len).unwrap().to_vec()
}

/// Allocations per remote `len`-byte put from locality 0, in steady state:
/// `WARM` puts so every time-wheel bucket, table and histogram has grown to
/// its working size, then 256 counted ones.
fn per_put(mode: GasMode, len: usize) -> f64 {
    let (mut eng, arr) = world(2, mode, NetConfig::ib_fdr());
    let gva = arr.block(1);
    let put = |eng: &mut Engine<SimWorld>, i: u64, data: Vec<u8>| {
        memput(eng, 0, gva, data, OpId::from_raw(i));
        eng.run();
    };
    for i in 0..WARM {
        put(&mut eng, i, vec![i as u8; len]);
    }
    let mut payloads: Vec<Vec<u8>> = (0..256).rev().map(|i| vec![i as u8; len]).collect();
    let ((), spent) = counted(|| {
        for i in 0..256 {
            put(&mut eng, WARM + i, payloads.pop().unwrap());
        }
    });
    assert_eq!(eng.state.put_acks(), WARM + 256);
    assert_eq!(eng.state.op_failures(), 0);
    assert_eq!(block_bytes(&mut eng, gva, len), vec![255; len]);
    spent.allocs as f64 / 256.0
}

/// Allocations per remote op from locality 0, in steady state (as
/// [`per_put`]); `issue` starts op `i` on `gva`.
fn per_op(mode: GasMode, issue: impl Fn(&mut Engine<SimWorld>, Gva, u64)) -> f64 {
    spent_per_op(mode, 1, issue).0
}

/// Allocations and requested bytes per op from locality 0 on the block
/// homed at locality `home`, in steady state (as [`per_put`]); `issue`
/// starts op `i` on `gva`, and whatever it builds is counted too.
fn spent_per_op(
    mode: GasMode,
    home: u64,
    issue: impl Fn(&mut Engine<SimWorld>, Gva, u64),
) -> (f64, f64) {
    let (mut eng, arr) = world(2, mode, NetConfig::ib_fdr());
    let gva = arr.block(home);
    let op = |eng: &mut Engine<SimWorld>, i: u64| {
        issue(eng, gva, i);
        eng.run();
    };
    for i in 0..WARM {
        op(&mut eng, i);
    }
    let ((), spent) = counted(|| {
        for i in 0..256 {
            op(&mut eng, WARM + i);
        }
    });
    let acks = eng.state.put_acks() + eng.state.get_acks() + eng.state.amo_acks();
    assert_eq!(acks, WARM + 256);
    assert_eq!(eng.state.op_failures(), 0);
    (spent.allocs as f64 / 256.0, spent.bytes as f64 / 256.0)
}

/// An 8-byte put of `i`'s low byte, its `Vec` built by the call.
fn put8(eng: &mut Engine<SimWorld>, gva: Gva, i: u64) {
    memput(eng, 0, gva, vec![i as u8; 8], OpId::from_raw(i))
}

/// An 8-byte get.
fn get8(eng: &mut Engine<SimWorld>, gva: Gva, i: u64) {
    memget(eng, 0, gva, 8, OpId::from_raw(i))
}

/// A fetch-add of one.
fn fetch_add(eng: &mut Engine<SimWorld>, gva: Gva, i: u64) {
    memamo(
        eng,
        0,
        gva,
        AmoOp::FetchAdd { operand: 1 },
        OpId::from_raw(i),
    )
}

/// Allocations per remote `len`-byte get from locality 0 ([`per_op`]).
fn per_get(mode: GasMode, len: u32) -> f64 {
    per_op(mode, |eng, gva, i| {
        memget(eng, 0, gva, len, OpId::from_raw(i))
    })
}

#[test]
fn an_endpoint_holds_no_table_until_it_registers_a_buffer() {
    let (ep, spent) = counted(|| PhotonEndpoint::new(PhotonConfig::default()));
    assert!(spent.bytes < 4096, "a fresh endpoint allocated {spent:?}");
    assert_eq!(ep.rcache_stats(), (0, 0));
}

#[test]
fn a_payload_clone_never_allocates() {
    for len in [1, 8, 22, 23, 64, 4096] {
        let p = Payload::from(vec![9u8; len]);
        let (q, spent) = counted(|| p.clone());
        assert_eq!(spent, Tally::default(), "cloning {len} bytes");
        assert_eq!(*q, *p);
    }
}

#[test]
fn a_small_network_put_allocates_only_its_request() {
    // The boxed `Access`; the payload rides inline and the ack by value.
    assert_eq!(per_put(GasMode::AgasNetwork, 8), 1.0);
}

#[test]
fn a_larger_network_put_adds_one_shared_buffer() {
    assert_eq!(per_put(GasMode::AgasNetwork, 64), 2.0);
}

#[test]
fn a_small_network_get_allocates_its_request_and_the_callers_vec() {
    // The boxed `Access`, which carries the 8 read bytes home inline, and
    // the `Vec` the completion hands the caller.
    assert_eq!(per_get(GasMode::AgasNetwork, 8), 2.0);
}

#[test]
fn a_network_amo_allocates_only_its_request() {
    // The boxed `Access`, which carries the result home.
    assert_eq!(per_op(GasMode::AgasNetwork, fetch_add), 1.0);
}

/// The most heap one NIC's AMO responder cache may hold: a ring of
/// `AMO_CACHE_CAP` 32-byte records and an index of twice as many 4-byte
/// ring positions.
const AMO_CACHE_BUDGET: u64 = 40 << 10;

#[test]
fn a_nics_amo_cache_holds_its_budget_and_stops_allocating() {
    let cap = AMO_CACHE_CAP as u64;
    let (mut eng, arr) = world(2, GasMode::AgasNetwork, NetConfig::ib_fdr());
    let gva = arr.block(1);
    let op = |eng: &mut Engine<SimWorld>, i: u64| {
        fetch_add(eng, gva, i);
        eng.run();
    };
    // Every AMO has its own key, so the cache fills and wraps ten times.
    for i in 0..10 * cap {
        op(&mut eng, i);
    }
    let ((), spent) = counted(|| {
        for i in 10 * cap..20 * cap {
            op(&mut eng, i);
        }
    });
    assert_eq!(eng.state.amo_acks(), 20 * cap);
    assert_eq!(eng.state.op_failures(), 0);
    assert_eq!(
        (spent.allocs, spent.live()),
        (10 * cap, 0),
        "a further {} AMOs allocated more than their requests",
        10 * cap
    );
    // What the cache holds is what dropping it frees.
    let cache = std::mem::take(&mut eng.state.data.cluster.loc_mut(1).nic.amo);
    assert_eq!(cache.len(), AMO_CACHE_CAP);
    let ((), dropped) = counted(|| drop(cache));
    assert!(
        dropped.freed <= AMO_CACHE_BUDGET,
        "the AMO cache held {} B, budget {AMO_CACHE_BUDGET} B",
        dropped.freed
    );
}

/// Allocations and requested bytes of one local 8-byte put, get and
/// fetch-add, the caller's `Vec` included: the put allocates only that
/// `Vec` (8 B), whose bytes ride inline from there on, and its completion
/// event fits the engine's inline slot; the get allocates the `Vec` its
/// completion hands the caller (8 B) and the boxed completion event that
/// carries it (40 B); the AMO only the boxed completion event with its
/// result (56 B). A completion that outgrows the inline slot, or a wider
/// capture, moves these.
const LOCAL_PUT: (f64, f64) = (1.0, 8.0);
const LOCAL_GET: (f64, f64) = (2.0, 48.0);
const LOCAL_AMO: (f64, f64) = (1.0, 56.0);

#[test]
fn a_local_op_allocates_only_what_its_completion_carries() {
    for mode in GasMode::ALL {
        assert_eq!(spent_per_op(mode, 0, put8), LOCAL_PUT, "{mode:?} put");
        assert_eq!(spent_per_op(mode, 0, get8), LOCAL_GET, "{mode:?} get");
        assert_eq!(spent_per_op(mode, 0, fetch_add), LOCAL_AMO, "{mode:?} amo");
    }
}

/// Allocations and requested bytes of one remote AGAS-SW 8-byte get: the
/// boxed `SwAccess` (72 B), the boxed reply message (80 B) and the `Vec`
/// it carries (8 B).
const SW_GET: (f64, f64) = (3.0, 160.0);
/// The same for one remote AGAS-SW fetch-add: the boxed `SwAccess` and the
/// boxed reply message carrying the result.
const SW_AMO: (f64, f64) = (2.0, 152.0);

#[test]
fn a_software_get_or_amo_allocates_its_request_and_one_reply() {
    assert_eq!(spent_per_op(GasMode::AgasSoftware, 1, get8), SW_GET, "get");
    assert_eq!(
        spent_per_op(GasMode::AgasSoftware, 1, fetch_add),
        SW_AMO,
        "amo"
    );
}

/// Gets issued per locality by
/// [`a_burst_of_gets_drains_without_a_record_per_reply`].
const BURST: u64 = 4096;

#[test]
fn a_burst_of_gets_drains_without_a_record_per_reply() {
    // 8 localities each issue BURST 8-byte gets to the next one's block,
    // then the engine drains them all. Each locality posts POST_DEPTH and
    // queues the rest as bare handles; each reply rides its request's box
    // home and its answer posts the next. So issue and drain together
    // allocate one box per get and the `Vec` each completion hands its
    // caller, plus table and queue growth, and no locality ever holds
    // more than POST_DEPTH boxes.
    const N: usize = 8;
    let (mut eng, arr) = world(N, GasMode::AgasNetwork, NetConfig::ib_fdr());
    let ((), spent) = counted(|| {
        for loc in 0..N as u32 {
            let gva = arr.block((u64::from(loc) + 1) % N as u64);
            for i in 0..BURST {
                memget(&mut eng, loc, gva, 8, OpId::from_raw(i));
            }
        }
        while eng.step() {
            for g in &eng.state.data.gas {
                assert!(g.posted_ops() <= POST_DEPTH, "{} posted", g.posted_ops());
            }
        }
    });
    let gets = N as u64 * BURST;
    assert_eq!(eng.state.get_acks(), gets);
    assert_eq!(eng.state.op_failures(), 0);
    let per_get = spent.allocs as f64 / gets as f64;
    assert!(
        per_get <= 2.05,
        "{per_get:.3} allocations per get while the burst was issued and drained"
    );
    assert!(
        spent.peak_requests <= N as i64 * i64::from(POST_DEPTH),
        "{} requests live at once",
        spent.peak_requests
    );
    assert_eq!(spent.requests, 0, "every request freed");
}

#[test]
fn a_software_put_allocates_only_its_request() {
    // The boxed `SwAccess`, carried through to the handler; the ack rides
    // its events by value.
    assert_eq!(per_put(GasMode::AgasSoftware, 8), 1.0);
}

#[test]
fn a_put_retried_through_the_directory_reuses_its_payload() {
    // No forwarding hops: the first attempt meets the tombstone the
    // migration left at the home and is refused.
    let net = NetConfig {
        forward_ttl: 0,
        ..NetConfig::ib_fdr()
    };
    let (mut eng, arr) = world(3, GasMode::AgasNetwork, net);
    let gva = arr.block(1);
    migrate_block(&mut eng, 0, gva, 2, OpId::from_raw(900));
    eng.run();
    let data: Vec<u8> = (0..2048).map(|i| (i % 251) as u8).collect();
    let payload = data.clone();
    let ((), spent) = counted(|| {
        memput(&mut eng, 0, gva, payload, OpId::from_raw(1));
        eng.run();
    });
    let stats = eng.state.data.gas[0].stats;
    assert_eq!((stats.retries, stats.dir_queries), (1, 1));
    assert_eq!(eng.state.total_counters().nacks_sent, 1);
    assert_eq!(eng.state.put_acks(), 1);
    assert_eq!(
        spent.big, 1,
        "one payload buffer for both attempts: {spent:?}"
    );
    assert_eq!(block_bytes(&mut eng, gva, 2048), data);
}

#[test]
fn a_put_reissued_after_a_lost_completion_still_carries_its_bytes() {
    let (mut eng, arr) = world(2, GasMode::AgasNetwork, NetConfig::ib_fdr());
    for g in &mut eng.state.data.gas {
        g.cfg.op_deadline = Some(Time::from_us(20));
        g.cfg.sweep_interval = Time::from_us(5);
    }
    let gva = arr.block(1);
    let data: Vec<u8> = (0..2048).map(|i| (i % 239) as u8).collect();
    let payload = data.clone();
    // The op gives up on its attempt while it is on the wire, so the ack
    // comes back stale; once the write has landed it is wiped, so only a
    // re-issue carrying the original bytes can restore it.
    eng.schedule(Time::from_ns(150), |eng| {
        assert_eq!(eng.state.data.gas[0].lose_rdma_answers(), 1);
    });
    eng.schedule(Time::from_us(10), move |eng| {
        let data = &mut *eng.state.data;
        let base = data.gas[1].btt.lookup(gva.block_key()).unwrap().base;
        let mem = data.cluster.mem_mut(1);
        assert_eq!(mem.read(base, 4).unwrap(), [0, 1, 2, 3]);
        mem.write(base, &[0u8; 2048]).unwrap();
    });
    let ((), spent) = counted(|| {
        memput(&mut eng, 0, gva, payload, OpId::from_raw(1));
        eng.run();
    });
    assert_eq!(eng.state.data.gas[0].stats.deadline_retries, 1);
    assert_eq!(eng.state.total_counters().rdma_puts, 2);
    assert_eq!((eng.state.put_acks(), eng.state.op_failures()), (1, 0));
    assert_eq!(
        spent.big, 1,
        "one payload buffer for both attempts: {spent:?}"
    );
    assert_eq!(block_bytes(&mut eng, gva, 2048), data);
}

/// Gets issued per locality by [`live_bytes_per_outstanding_get`].
const OUTSTANDING: u64 = 4096;

/// Live heap bytes one outstanding 8-byte AGAS-NET get holds, summed over
/// every layer, as [`live_bytes_per_outstanding_get`] measures them
/// (requested sizes, not allocator chunks): a get past the send queue's
/// depth is not admitted yet and holds only its 40-byte queue entry
/// (address, context, submission time, length and history index; no verb),
/// so the queue's buffer of 4 096 entries is 40 bytes a get; the posted
/// gets' share adds 6: POST_DEPTH of the 4 096 hold a GAS pending-op slot
/// (88), a boxed `Access` (72) and a queued wire event with the time
/// wheel's bucket growth. Its 8-byte landing buffer costs no heap bytes:
/// the arena is reserved whole when the world is built, so carving a block
/// from it allocates nothing.
const LIVE_BYTES_PER_GET: i64 = 46;

#[test]
fn an_outstanding_get_holds_its_byte_budget() {
    let per_op = live_bytes_per_outstanding_get();
    assert!(
        (per_op - LIVE_BYTES_PER_GET).abs() < 8,
        "{per_op} live bytes per outstanding get, budget {LIVE_BYTES_PER_GET}"
    );
}

/// Issue [`OUTSTANDING`] 8-byte gets from each of 8 localities to the next
/// locality's block without running the engine, on a fresh world; return
/// the live heap bytes that added, per get. Every table starts empty, so
/// the figure includes each slab's growth (4 096 is a power of two, so a
/// doubling `Vec` ends exactly full).
fn live_bytes_per_outstanding_get() -> i64 {
    const N: usize = 8;
    let (mut eng, arr) = world(N, GasMode::AgasNetwork, NetConfig::ib_fdr());
    let ((), spent) = counted(|| {
        for loc in 0..N as u32 {
            let gva = arr.block((u64::from(loc) + 1) % N as u64);
            for i in 0..OUTSTANDING {
                memget(&mut eng, loc, gva, 8, OpId::from_raw(i));
            }
        }
    });
    let ops = N as i64 * OUTSTANDING as i64;
    for g in &eng.state.data.gas {
        assert_eq!(g.outstanding_ops(), OUTSTANDING as usize);
    }
    eng.run();
    assert_eq!(eng.state.get_acks(), ops as u64);
    assert_eq!(eng.state.op_failures(), 0);
    spent.live() / ops
}

/// Ops of each kind [`a_burst_of_puts_past_the_depth_boxes_each_waiting_put_once`]
/// queues behind the posted gets.
const QUEUED: u64 = 32;

#[test]
fn a_burst_of_puts_past_the_depth_boxes_each_waiting_put_once() {
    // Locality 0 posts POST_DEPTH gets, taking every credit, then queues
    // QUEUED 8-byte gets, puts and fetch-adds, in that order: 3 * QUEUED
    // entries, within the buffer a drained queue keeps, so the burst runs
    // twice and only the second, on a warm world, is counted.
    const ACCESS: i64 = size_of::<Access>() as i64;
    let (mut eng, arr) = world(2, GasMode::AgasNetwork, NetConfig::ib_fdr());
    let gva = arr.block(1);
    for round in 0..2 {
        let ctx = |i: u64| OpId::from_raw(round * 1000 + i);
        let mut payloads: Vec<Vec<u8>> = (0..QUEUED).map(|i| vec![i as u8; 8]).collect();
        let ((), posted) = counted(|| {
            for i in 0..u64::from(POST_DEPTH) {
                memget(&mut eng, 0, gva, 8, ctx(i));
            }
        });
        let ((), gets) = counted(|| {
            for i in 0..QUEUED {
                memget(&mut eng, 0, gva.with_offset(8), 8, ctx(200 + i));
            }
        });
        let ((), puts) = counted(|| {
            for i in 0..QUEUED {
                let data = payloads.pop().unwrap();
                memput(&mut eng, 0, gva.with_offset(16), data, ctx(300 + i));
            }
        });
        let ((), amos) = counted(|| {
            for i in 0..QUEUED {
                fetch_add(&mut eng, gva.with_offset(24), 400 + i + round * 1000);
            }
        });
        let g = &eng.state.data.gas[0];
        assert_eq!(g.posted_ops(), POST_DEPTH);
        assert_eq!(g.queued_ops() as u64, 3 * QUEUED);
        if round == 0 {
            // The first burst grows the queue's buffer and every table.
            eng.run();
            continue;
        }
        assert_eq!(posted.requests, i64::from(POST_DEPTH), "one per post");
        assert_eq!(gets.allocs, 0, "a queued get is stored inline: {gets:?}");
        assert_eq!(puts.allocs, QUEUED, "one box per queued put: {puts:?}");
        assert_eq!(amos.allocs, QUEUED, "one box per queued AMO: {amos:?}");
        assert_eq!(amos.freed, 0);
        assert_eq!(puts.bytes, amos.bytes, "one box type for both kinds");
        // When the queue has just emptied every queued op is admitted and
        // the puts and AMOs, queued last, are all still posted: what the
        // burst holds then is the posted ops' requests and no box (less
        // the puts' 8-byte `Vec`s, built outside the count and freed when
        // their bytes went inline).
        let ((), drained) = counted(|| {
            while eng.state.data.gas[0].queued_ops() != 0 {
                assert!(eng.step());
            }
        });
        let still = i64::from(eng.state.data.gas[0].posted_ops());
        let issued = posted.live() + gets.live() + puts.live() + amos.live();
        assert_eq!(
            issued + drained.live(),
            still * ACCESS - 8 * QUEUED as i64,
            "each waiting op's box freed when it was admitted"
        );
        eng.run();
    }
    let ops = 2 * (u64::from(POST_DEPTH) + 3 * QUEUED);
    let acks = eng.state.put_acks() + eng.state.get_acks() + eng.state.amo_acks();
    assert_eq!(acks, ops);
    assert_eq!(eng.state.op_failures(), 0);
}

/// Live heap bytes a drained run of [`self_pumped_puts`] may leave behind.
const DRAINED_RUN_BUDGET: i64 = 768 << 10;

#[test]
fn a_drained_engine_keeps_little_of_its_queue_storage() {
    let live = self_pumped_puts();
    assert!(
        live <= DRAINED_RUN_BUDGET,
        "the drained run left {} KiB allocated, budget {} KiB",
        live >> 10,
        DRAINED_RUN_BUDGET >> 10
    );
}

/// Run the self-pumped GUPS loop of the benchmark's sharded workload on
/// the sequential engine — 64 localities, each keeping 16 puts in flight
/// until 2 048 have completed — and return the live heap bytes the run
/// leaves allocated once no event is pending. Its synchronised waves put
/// up to a few hundred events into one quantum of the time wheel.
fn self_pumped_puts() -> i64 {
    const N: u32 = 64;
    const WINDOW: usize = 16;
    const PUTS: u64 = 2048;
    let mut eng = Engine::new(
        SimWorld::new(N as usize, GasMode::AgasNetwork, NetConfig::ib_fdr()),
        42,
    );
    eng.state.data.record_events = false;
    let arr = alloc_array(&mut eng, 16 * u64::from(N), 13, Distribution::Cyclic);
    eng.run();
    eng.state.set_pump_blocks(arr.blocks.clone());
    for l in 0..N {
        eng.state.arm_gups(l, PUTS, 42);
    }
    let ((), spent) = counted(|| {
        for l in 0..N {
            for _ in 0..WINDOW {
                SimWorld::pump_prime(&mut eng, l);
            }
        }
        eng.run();
    });
    assert_eq!(eng.state.put_acks(), u64::from(N) * PUTS);
    assert_eq!(eng.state.op_failures(), 0);
    spent.live()
}
