//! The five fixed-work workloads: parameters, set-up, timed phase, and
//! the output checks that run on every repetition.
//!
//! Work is fixed by operation count, never by duration, so every
//! simulated statistic repeats exactly for a seed. The seed only shapes
//! the operation stream; engines always boot with [`ENGINE_SEED`].

use crate::counters::Raw;
use crate::probe::Recorder;
use crate::pump::{self, DoneCb, OpStream, Pump, SharedPump};
use agas::{alloc_array, Distribution, GasConfig, GasMode, GlobalArray, Gva, SimWorld};
use netsim::rng::{mix64, Xoshiro256, Zipf};
use netsim::{AmoOp, Engine, LocalityId, NetConfig, OpId, RingConfig, ShardedEngine, Time};
use parcel_rt::{
    ActionId, ArgWriter, BalancerConfig, Completion, Parcel, RtConfig, Runtime, World,
};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

/// Seed every engine boots with. The benchmark's `--seed` never reaches
/// the stack except through the generated operation stream.
pub const ENGINE_SEED: u64 = 0xC0FFEE;

/// Warming gets each locality issues during set-up, at least: small
/// tables are swept several times so set-up is long enough to time.
const WARM_TOUCHES_PER_LOC: u64 = 4096;

/// Table geometry shared by the GUPS workloads: 8 KiB blocks, 16 per
/// locality, spread cyclically.
pub const BLOCK_CLASS: u8 = 13;
pub const BLOCK_BYTES: u64 = 1 << BLOCK_CLASS;
const CELLS_PER_BLOCK: u64 = BLOCK_BYTES / 8;
pub const GUPS_BLOCKS_PER_LOC: u64 = 16;

/// `churn_mix` geometry: the first 512 B of a block hold the FetchAdd
/// counter (word 0); puts and gets stay in `[512, 8192)` so AMO words and
/// byte slots never overlap.
pub const CHURN_BLOCKS: u64 = 256;
const CHURN_CAPACITY: usize = 32;
pub const CHURN_THETA: f64 = 1.1;
const GET_BYTES: u32 = 512;
const PUT_BYTES: u64 = 64;

/// Drain slices recorded by the traced run (equal simulated spans, so
/// warm-up and steady state show as separate spans).
const DRAIN_SLICES: u64 = 100;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    GupsNet,
    GupsSw,
    ChurnMix,
    ParcelGups,
    GupsLanes2,
}

/// One workload's fixed parameters. Op counts are sized from rates
/// measured on the 2-core reference host so a timed phase lasts ≈1.5 s
/// and one `run_seconds` run takes the median of about seven of them.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub localities: u32,
    pub window: usize,
    /// Operations per locality in one timed phase.
    pub full_ops_per_loc: u64,
    pub why: &'static str,
}

pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "gups_net",
        kind: Kind::GupsNet,
        localities: 64,
        window: 16,
        full_ops_per_loc: 32_768,
        why: "fast path: one-sided RDMA + NIC translation hit; netsim and photon do the work",
    },
    Spec {
        name: "gups_sw",
        kind: Kind::GupsSw,
        localities: 64,
        window: 16,
        full_ops_per_loc: 32_768,
        why: "same stream under AGAS-SW: two-sided request, target-CPU handler, ServerPool",
    },
    Spec {
        name: "churn_mix",
        kind: Kind::ChurnMix,
        localities: 16,
        window: 8,
        full_ops_per_loc: 98_304,
        why: "slow path: Zipf get/put/FetchAdd mix under migration with 8x-undersized caches",
    },
    Spec {
        name: "parcel_gups",
        kind: Kind::ParcelGups,
        localities: 16,
        window: 64,
        full_ops_per_loc: 49_152,
        why: "parcel -> XOR action -> LCO continuation with per-peer coalescing rings on",
    },
    Spec {
        name: "gups_lanes2",
        kind: Kind::GupsLanes2,
        localities: 64,
        window: 16,
        full_ops_per_loc: 20_480,
        why: "the gups_net put on ShardedEngine with 2 lanes; netsim::shard dominates",
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

impl Spec {
    /// Operations per locality after the caller's divisor (`--check`
    /// runs at 1/32).
    pub fn ops_per_loc(&self, div: u64) -> u64 {
        (self.full_ops_per_loc / div).max(self.window as u64)
    }
}

/// What one repetition (set-up + timed phase + checks) produced.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    pub setup_s: f64,
    pub host_s: f64,
    pub issued: u64,
    pub completed: u64,
    /// Ops that did not complete, completed with an illegal payload, or
    /// were reported failed by the stack.
    pub failed: u64,
    pub sim_makespan_ps: u64,
    pub lat_p50_ns: u64,
    pub lat_p99_ns: u64,
    pub lat_p999_ns: u64,
    pub lat_samples: u64,
    pub trace_hash: u64,
    /// Layer counters over the timed phase (telemetry fields unset).
    pub raw: Raw,
    /// Output checks that failed, as `check: detail`.
    pub check_failures: Vec<String>,
    /// Median simulated duration of the post-run migration probe (traced
    /// `churn_mix` only), in ps.
    pub migrate_p50_ps: u64,
    /// Traced runs: host ns inside `issue` calls / inside `drain` spans.
    pub issue_ns: u64,
    pub drain_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Sharded runs only.
    pub shard: Option<netsim::ShardStats>,
}

impl Rep {
    pub fn ops_per_s(&self) -> f64 {
        self.completed as f64 / self.host_s
    }
    pub fn sim_ns_per_op(&self) -> f64 {
        self.sim_makespan_ps as f64 / 1e3 / self.completed as f64
    }
}

/// The benchmark's own big buffers, allocated once per process and reused
/// by every repetition: freeing and re-allocating megabytes per repetition
/// made peak memory — and first-touch page faults inside the timed phase —
/// depend on the allocator's mood rather than on the simulator.
#[derive(Default)]
pub struct Scratch {
    lat_ns: Vec<u32>,
    written: Vec<bool>,
    /// The host-speed probe; every repetition samples it four times
    /// (start, after set-up, after the timed phase, after the checks).
    pub calib: crate::calib::Calib,
}

impl Scratch {
    fn take_written(&mut self, cells: u64) -> Vec<bool> {
        let mut w = std::mem::take(&mut self.written);
        w.clear();
        w.resize(cells as usize, false);
        w
    }
}

/// How a repetition is instrumented.
pub struct Trace {
    pub rec: Recorder,
    /// Simulated makespan of an earlier identical run, to cut the drain
    /// into equal simulated slices.
    pub makespan_ps: u64,
}

// ---------------------------------------------------------------- streams

fn cell_for(seed: u64, loc: LocalityId, seq: u64, total_cells: u64) -> u64 {
    mix64(seed ^ (u64::from(loc) << 32) ^ seq) % total_cells
}

/// 8-byte put of a self-describing value `(loc, seq)` to a uniform-random
/// cell: the final table can be checked cell by cell without replaying
/// the simulated commit order.
struct GupsPut {
    table: GlobalArray,
    seed: u64,
    n: u32,
    per_loc: u64,
    total_cells: u64,
    written: RefCell<Vec<bool>>,
}

impl GupsPut {
    fn value(loc: LocalityId, seq: u64) -> u64 {
        (u64::from(loc + 1) << 40) | seq
    }
}

impl OpStream for GupsPut {
    fn issue(&self, eng: &mut Engine<World>, loc: LocalityId, seq: u64, done: DoneCb) {
        let cell = cell_for(self.seed, loc, seq, self.total_cells);
        self.written.borrow_mut()[cell as usize] = true;
        let gva = self.table.at_byte(cell * 8);
        let ctx = eng.state.new_completion(Completion::Driver(done));
        let data = Self::value(loc, seq).to_le_bytes().to_vec();
        agas::ops::memput(eng, loc, gva, data, ctx);
    }
    fn check(&self, _loc: LocalityId, _seq: u64, data: &[u8]) -> bool {
        data.is_empty()
    }
}

impl GupsPut {
    /// Table contents against the host-side shadow: an untouched cell is
    /// zero; a touched cell holds a value some op really wrote *there*.
    fn verify(&self, rt: &Runtime) -> Result<(), String> {
        let written = self.written.borrow();
        for (b, gva) in self.table.blocks.iter().enumerate() {
            let bytes = rt.read_block(*gva);
            for (j, w) in bytes.chunks_exact(8).enumerate() {
                let v = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
                let cell = b as u64 * CELLS_PER_BLOCK + j as u64;
                let ok = if v == 0 {
                    !written[cell as usize]
                } else {
                    let (loc, seq) = ((v >> 40).wrapping_sub(1), v & ((1 << 40) - 1));
                    loc < u64::from(self.n)
                        && seq < self.per_loc
                        && cell_for(self.seed, loc as u32, seq, self.total_cells) == cell
                };
                if !ok {
                    return Err(format!("cell {cell} holds {v:#x}"));
                }
            }
        }
        Ok(())
    }
}

/// GUPS action variant: parcel → XOR action → LCO continuation.
struct ParcelGups {
    table: GlobalArray,
    seed: u64,
    total_cells: u64,
    action: ActionId,
    xor_acc: Cell<u64>,
}

impl OpStream for ParcelGups {
    fn issue(&self, eng: &mut Engine<World>, loc: LocalityId, seq: u64, done: DoneCb) {
        let cell = cell_for(self.seed, loc, seq, self.total_cells);
        let val = mix64((u64::from(loc) << 40) | seq);
        self.xor_acc.set(self.xor_acc.get() ^ val);
        let lco = parcel_rt::new_future(eng, loc);
        parcel_rt::attach_driver(eng, lco, done);
        parcel_rt::send_parcel(
            eng,
            loc,
            Parcel {
                target: self.table.at_byte(cell * 8),
                action: self.action,
                args: ArgWriter::new().u64(val).finish(),
                cont: Some(lco),
                src: loc,
                hops: 0,
            },
        );
    }
    fn check(&self, _loc: LocalityId, _seq: u64, data: &[u8]) -> bool {
        data.is_empty()
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum ChurnOp {
    Get,
    Put,
    Faa,
}

/// Zipf-skewed 70 % get / 20 % put / 10 % FetchAdd mix. The op a
/// `(loc, seq)` pair denotes is a pure function of the seed, so the
/// completion check recomputes it instead of remembering it.
struct ChurnMix {
    data: GlobalArray,
    seed: u64,
    zipf: Zipf,
    /// `false` = the ladder's get-only primitive.
    mixed: bool,
    faa_issued: RefCell<Vec<u64>>,
}

impl ChurnMix {
    fn cell_value(block: u64, word: u64) -> u64 {
        (((block + 1) << 16) | word).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    fn op_of(&self, loc: LocalityId, seq: u64) -> (u64, ChurnOp, u64) {
        let mut r = Xoshiro256::seed_from_u64(self.seed ^ (u64::from(loc) << 32) ^ seq);
        let block = self.zipf.sample(&mut r) as u64;
        let u = r.next_u64();
        let kind = match seq % 10 {
            _ if !self.mixed => ChurnOp::Get,
            0..=6 => ChurnOp::Get,
            7 | 8 => ChurnOp::Put,
            _ => ChurnOp::Faa,
        };
        let offset = match kind {
            ChurnOp::Get => {
                u64::from(GET_BYTES) * (1 + u % (BLOCK_BYTES / u64::from(GET_BYTES) - 1))
            }
            ChurnOp::Put => 512 + PUT_BYTES * (u % ((BLOCK_BYTES - 512) / PUT_BYTES)),
            ChurnOp::Faa => 0,
        };
        (block, kind, offset)
    }

    fn words_legal(block: u64, offset: u64, bytes: &[u8]) -> bool {
        bytes.chunks_exact(8).enumerate().all(|(i, w)| {
            let v = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
            v == 0 || v == Self::cell_value(block, offset / 8 + i as u64)
        })
    }

    /// Every data word is 0 or f(cell); every block's counter equals the
    /// FetchAdds issued at it.
    fn verify(&self, rt: &Runtime) -> Result<(), String> {
        let faa = self.faa_issued.borrow();
        for (b, gva) in self.data.blocks.iter().enumerate() {
            let bytes = rt.read_block(*gva);
            let counter = u64::from_le_bytes(bytes[..8].try_into().expect("counter word"));
            if counter != faa[b] {
                return Err(format!(
                    "block {b}: FetchAdd counter {counter}, {} issued",
                    faa[b]
                ));
            }
            if !Self::words_legal(b as u64, 512, &bytes[512..]) {
                return Err(format!("block {b}: a data word is neither 0 nor f(cell)"));
            }
        }
        Ok(())
    }
}

impl OpStream for ChurnMix {
    fn issue(&self, eng: &mut Engine<World>, loc: LocalityId, seq: u64, done: DoneCb) {
        let (block, kind, offset) = self.op_of(loc, seq);
        let gva = self.data.block(block).with_offset(offset);
        let ctx = eng.state.new_completion(Completion::Driver(done));
        match kind {
            ChurnOp::Get => agas::ops::memget(eng, loc, gva, GET_BYTES, ctx),
            ChurnOp::Put => {
                let data: Vec<u8> = (0..PUT_BYTES / 8)
                    .flat_map(|i| Self::cell_value(block, offset / 8 + i).to_le_bytes())
                    .collect();
                agas::ops::memput(eng, loc, gva, data, ctx);
            }
            ChurnOp::Faa => {
                self.faa_issued.borrow_mut()[block as usize] += 1;
                agas::ops::memamo(eng, loc, gva, AmoOp::FetchAdd { operand: 1 }, ctx);
            }
        }
    }
    fn check(&self, loc: LocalityId, seq: u64, data: &[u8]) -> bool {
        let (block, kind, offset) = self.op_of(loc, seq);
        match kind {
            ChurnOp::Get => {
                data.len() == GET_BYTES as usize && Self::words_legal(block, offset, data)
            }
            ChurnOp::Put => data.is_empty(),
            ChurnOp::Faa => parcel_rt::decode_amo_result(data).applied,
        }
    }
}

/// Which block and 512-byte slot a locality's `i`-th warming get reads.
fn warm_target(blocks: &[Gva], loc: LocalityId, i: u64) -> Gva {
    let nb = blocks.len() as u64;
    let block = (i + u64::from(loc)) % nb;
    let slot = 1 + (i / nb) % (BLOCK_BYTES / 512 - 1);
    blocks[block as usize].with_offset(512 * slot)
}

fn warm_per_loc(blocks: &[Gva]) -> u64 {
    (blocks.len() as u64).max(WARM_TOUCHES_PER_LOC)
}

/// Set-up's warming touch: 8-byte gets sweeping every block from every
/// locality (fills owner caches and NIC tables before the timed phase).
struct WarmTouch {
    blocks: Vec<Gva>,
}

impl OpStream for WarmTouch {
    fn issue(&self, eng: &mut Engine<World>, loc: LocalityId, seq: u64, done: DoneCb) {
        let gva = warm_target(&self.blocks, loc, seq);
        let ctx = eng.state.new_completion(Completion::Driver(done));
        agas::ops::memget(eng, loc, gva, 8, ctx);
    }
    fn check(&self, _loc: LocalityId, _seq: u64, data: &[u8]) -> bool {
        data.len() == 8
    }
}

// ------------------------------------------------------- runtime workloads

/// Which operation stream a runtime repetition drives. The ladder's top
/// depth reuses this with the workload's dominant primitive.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum RtStream {
    /// 8-byte puts (`gups_net`, `gups_sw`).
    Put,
    /// The full get/put/FetchAdd mix with the balancer migrating.
    ChurnMixed,
    /// 512-byte Zipf gets only, no migration, default cache sizes.
    ChurnGetOnly,
    /// Parcel → action → LCO updates.
    Parcel,
}

enum Built {
    Put(Rc<GupsPut>),
    Churn(Rc<ChurnMix>),
    Parcel(Rc<ParcelGups>),
}

impl Built {
    fn blocks(&self) -> &[Gva] {
        match self {
            Built::Put(s) => &s.table.blocks,
            Built::Parcel(s) => &s.table.blocks,
            Built::Churn(s) => &s.data.blocks,
        }
    }

    fn stream(&self) -> Rc<dyn OpStream> {
        match self {
            Built::Put(s) => s.clone(),
            Built::Churn(s) => s.clone(),
            Built::Parcel(s) => s.clone(),
        }
    }
}

fn boot(n: u32, mode: GasMode, stream: RtStream) -> Runtime {
    let mut b = Runtime::builder(n as usize, mode).seed(ENGINE_SEED);
    match stream {
        RtStream::ChurnMixed => {
            b = b
                .net(NetConfig {
                    xlate_capacity: CHURN_CAPACITY,
                    ..NetConfig::ib_fdr()
                })
                .gas_config(GasConfig {
                    cache_capacity: CHURN_CAPACITY,
                    ..GasConfig::default()
                });
        }
        RtStream::Parcel => {
            b = b.rt_config(RtConfig {
                ring: Some(RingConfig::default()),
                ..RtConfig::default()
            });
            workloads::gups::register_actions(&mut b);
        }
        RtStream::Put | RtStream::ChurnGetOnly => {}
    }
    b.boot()
}

fn percentile(sorted: &[u32], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    u64::from(sorted[rank - 1])
}

/// Run `ops` from every locality to quiescence and return the pump.
fn run_warm(rt: &mut Runtime, n: u32, blocks: Vec<Gva>) -> Result<(), String> {
    let per_loc = warm_per_loc(&blocks);
    let ops: Rc<dyn OpStream> = Rc::new(WarmTouch { blocks });
    let warm = Pump::new(n, per_loc, Vec::new(), None);
    pump::prime(&mut rt.eng, &warm, &ops, n, 16);
    rt.run();
    let w = warm.borrow();
    if w.completed != per_loc * u64::from(n) || w.mismatches != 0 {
        return Err(format!(
            "warm touch: {} of {} completed, {} mismatches",
            w.completed,
            per_loc * u64::from(n),
            w.mismatches
        ));
    }
    Ok(())
}

/// What one repetition on the full runtime runs.
#[derive(Clone, Copy)]
pub struct RtJob {
    pub n: u32,
    pub mode: GasMode,
    pub stream: RtStream,
    pub window: usize,
    pub per_loc: u64,
    pub seed: u64,
}

/// Run `f` inside a span of the pump's recorder (a plain call when the
/// repetition is untraced). Drain slices close with their `issue`
/// aggregate.
fn spanned<T>(pump: &SharedPump, name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = pump.borrow_mut().rec.as_mut().map(|r| r.begin(name));
    let out = f();
    if let (Some(r), Some(id)) = (pump.borrow_mut().rec.as_mut(), id) {
        if name == "drain" {
            r.end_slice(id);
        } else {
            r.end(id);
        }
    }
    out
}

fn alloc_gups_table(rt: &mut Runtime) -> GlobalArray {
    rt.alloc(
        GUPS_BLOCKS_PER_LOC * u64::from(rt.n()),
        BLOCK_CLASS,
        Distribution::Cyclic,
    )
}

/// One repetition on the full `parcel_rt::Runtime`: set-up (boot, alloc,
/// warming touch), the timed closed-loop phase, then every output check.
pub fn run_rt(job: RtJob, scratch: &mut Scratch, trace: Option<Trace>) -> (Rep, Option<Recorder>) {
    let RtJob {
        n,
        mode,
        stream,
        window,
        per_loc,
        seed,
    } = job;
    let mut rep = Rep::default();
    let (rec, hint_ps) = match trace {
        Some(t) => (Some(t.rec), t.makespan_ps),
        None => (None, 0),
    };
    let traced = rec.is_some();
    let pump = Pump::new(n, per_loc, std::mem::take(&mut scratch.lat_ns), rec);

    // ---- set-up
    scratch.calib.probe();
    let t_setup = Instant::now();
    let (mut rt, built) = spanned(&pump, "setup", || {
        let mut rt = boot(n, mode, stream);
        let built = match stream {
            RtStream::Put => {
                let table = alloc_gups_table(&mut rt);
                let total_cells = table.len_blocks() * CELLS_PER_BLOCK;
                Built::Put(Rc::new(GupsPut {
                    table,
                    seed,
                    n,
                    per_loc,
                    total_cells,
                    written: RefCell::new(scratch.take_written(total_cells)),
                }))
            }
            RtStream::Parcel => {
                let table = alloc_gups_table(&mut rt);
                let total_cells = table.len_blocks() * CELLS_PER_BLOCK;
                let action = rt
                    .eng
                    .state
                    .registry_lookup("gups_xor")
                    .expect("gups_xor registered at boot");
                Built::Parcel(Rc::new(ParcelGups {
                    table,
                    seed,
                    total_cells,
                    action,
                    xor_acc: Cell::new(0),
                }))
            }
            RtStream::ChurnMixed | RtStream::ChurnGetOnly => {
                let data = rt.alloc(CHURN_BLOCKS, BLOCK_CLASS, Distribution::Blocked);
                Built::Churn(Rc::new(ChurnMix {
                    data,
                    seed,
                    zipf: Zipf::new(CHURN_BLOCKS as usize, CHURN_THETA),
                    mixed: stream == RtStream::ChurnMixed,
                    faa_issued: RefCell::new(vec![0; CHURN_BLOCKS as usize]),
                }))
            }
        };
        if let Err(e) = run_warm(&mut rt, n, built.blocks().to_vec()) {
            rep.check_failures.push(e);
        }
        (rt, built)
    });
    rep.setup_s = t_setup.elapsed().as_secs_f64();
    scratch.calib.probe();

    // ---- timed phase
    let ops = built.stream();
    let before = Raw::of_runtime(&rt);
    let failures_before = rt.eng.state.op_failures.len();
    let (allocs0, bytes0) = crate::probe::alloc_counts();
    let t0 = Instant::now();
    let sim_t0 = rt.now();
    if stream == RtStream::ChurnMixed {
        rt.start_balancer(BalancerConfig {
            period: Time::from_us(100),
            ..BalancerConfig::default()
        });
    }
    spanned(&pump, "prime", || {
        pump::prime(&mut rt.eng, &pump, &ops, n, window);
    });
    if traced {
        // Equal simulated slices of the known makespan; the final drain
        // is then the tail (balancer idle rounds, straggling acks).
        for i in 1..=DRAIN_SLICES {
            let until = sim_t0 + Time::from_ps(hint_ps * i / DRAIN_SLICES);
            spanned(&pump, "drain", || rt.eng.run_until(until));
        }
    }
    spanned(&pump, "drain", || rt.run());
    rep.host_s = t0.elapsed().as_secs_f64();
    let (allocs1, bytes1) = crate::probe::alloc_counts();
    rep.allocs = allocs1 - allocs0;
    rep.alloc_bytes = bytes1 - bytes0;
    scratch.calib.probe();
    rep.raw = Raw::of_runtime(&rt).since(&before);
    rep.trace_hash = rt.eng.trace_hash();

    // ---- checks
    spanned(&pump, "verify", || {
        {
            let mut p = pump.borrow_mut();
            rep.issued = p.issued;
            rep.completed = p.completed;
            rep.sim_makespan_ps = (p.last_done - sim_t0).ps();
            p.lat_ns.sort_unstable();
            rep.lat_p50_ns = percentile(&p.lat_ns, 0.50);
            rep.lat_p99_ns = percentile(&p.lat_ns, 0.99);
            rep.lat_p999_ns = percentile(&p.lat_ns, 0.999);
            rep.lat_samples = p.lat_ns.len() as u64;
            let stack_failed = (rt.eng.state.op_failures.len() - failures_before) as u64;
            rep.failed = (p.issued - p.completed) + p.mismatches + stack_failed;
            if p.issued != per_loc * u64::from(n) {
                rep.check_failures.push(format!(
                    "issued: {} of {}",
                    p.issued,
                    per_loc * u64::from(n)
                ));
            }
            if rep.failed != 0 {
                rep.check_failures.push(format!(
                    "completions: {} issued, {} completed, {} illegal payloads, {} failed in \
                     the stack",
                    p.issued, p.completed, p.mismatches, stack_failed
                ));
            }
        }
        rt.assert_quiescent();
        let verdict = match &built {
            Built::Put(s) => s.verify(&rt).map_err(|e| format!("table vs shadow: {e}")),
            Built::Churn(s) => s.verify(&rt).map_err(|e| format!("slot-legal values: {e}")),
            Built::Parcel(s) => {
                let got = workloads::gups::table_checksum(&rt, &s.table);
                if got == s.xor_acc.get() {
                    Ok(())
                } else {
                    Err(format!(
                        "checksum: table {got:#x}, expected {:#x}",
                        s.xor_acc.get()
                    ))
                }
            }
        };
        if let Err(e) = verdict {
            rep.check_failures.push(e);
        }
    });
    if traced && stream == RtStream::ChurnMixed {
        rep.migrate_p50_ps = spanned(&pump, "migrate-probe", || {
            migrate_probe(&mut rt, built.blocks())
        });
    }
    scratch.lat_ns = std::mem::take(&mut pump.borrow_mut().lat_ns);
    if let Built::Put(s) = &built {
        scratch.written = s.written.take();
    }
    let rec = pump.borrow_mut().rec.take();
    if let Some(r) = &rec {
        rep.issue_ns = r.issue_ns;
        rep.drain_ns = r.total_ns("drain");
    }
    scratch.calib.probe();
    (rep, rec)
}

/// Unloaded migration latency: move 64 blocks one at a time on the now
/// quiescent runtime and take the median simulated duration. (The
/// balancer's own migrations carry no completion the benchmark can time.)
fn migrate_probe(rt: &mut Runtime, blocks: &[Gva]) -> u64 {
    let n = rt.n();
    let mut durs = Vec::new();
    for (i, gva) in blocks.iter().take(64).enumerate() {
        let done = Rc::new(Cell::new(None));
        let d2 = done.clone();
        let t0 = rt.now();
        let from = (i as u32) % n;
        let dst = (i as u32 * 7 + 3) % n;
        rt.migrate_cb(from, *gva, dst, move |eng, _| d2.set(Some(eng.now())));
        rt.run();
        if let Some(t) = done.get() {
            durs.push((t - t0).ps());
        }
    }
    durs.sort_unstable();
    durs.get(durs.len() / 2).copied().unwrap_or(0)
}

// --------------------------------------------------------- sharded workload

/// Completion token namespace for the warming touch on [`SimWorld`]: bit
/// 38 keeps it clear of the GUPS pump (plain) and the AMO pump (bit 39).
fn warm_ctx(loc: LocalityId, i: u64) -> OpId {
    OpId::from_raw((u64::from(loc) << 40) | (1 << 38) | i)
}

fn sim_world(n: u32, per_loc: u64, seed: u64) -> SimWorld {
    let mut w = SimWorld::new(n as usize, GasMode::AgasNetwork, NetConfig::ib_fdr());
    w.data.record_events = false;
    for l in 0..n {
        w.arm_gups(l, per_loc, seed);
    }
    w
}

/// Check the table [`SimWorld`]'s pump wrote: it puts the raw draw `r` at
/// block `r % nblocks`, slot `(r >> 32) % slots`, so every non-zero cell
/// names its own address; replaying each locality's private RNG tells
/// which cells must be non-zero.
fn verify_sim_table(
    w: &SimWorld,
    blocks: &[Gva],
    n: u32,
    per_loc: u64,
    seed: u64,
    written: &mut [bool],
) -> Result<(), String> {
    let nblocks = blocks.len() as u64;
    for l in 0..n {
        let mut rng = Xoshiro256::seed_from_u64(seed ^ (u64::from(l) << 32));
        for _ in 0..per_loc {
            let r = rng.next_u64();
            let cell = (r % nblocks) * CELLS_PER_BLOCK + (r >> 32) % CELLS_PER_BLOCK;
            written[cell as usize] = true;
        }
    }
    for (b, gva) in blocks.iter().enumerate() {
        let home = gva.home();
        let entry = w.data.gas[home as usize]
            .btt
            .lookup(gva.block_key())
            .ok_or_else(|| format!("block {b} not resident at its home"))?;
        let bytes = w
            .data
            .cluster
            .mem(home)
            .read(entry.base, BLOCK_BYTES as usize)
            .map_err(|e| format!("block {b}: {e:?}"))?;
        for (j, word) in bytes.chunks_exact(8).enumerate() {
            let v = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
            let cell = b as u64 * CELLS_PER_BLOCK + j as u64;
            let ok = if v == 0 {
                !written[cell as usize]
            } else {
                v % nblocks == b as u64 && (v >> 32) % CELLS_PER_BLOCK == j as u64
            };
            if !ok {
                return Err(format!("cell {cell} holds {v:#x}"));
            }
        }
    }
    Ok(())
}

/// Exact per-op latencies from the per-locality completion logs: with a
/// window of `w`, a locality's `j`-th put was issued by its `(j - w)`-th
/// completion (the first `w` by the prime at `t0`).
fn sim_latencies(w: &SimWorld, window: usize, t0: Time) -> Vec<u32> {
    let mut out = Vec::new();
    for sl in &w.data.locs {
        let done: Vec<(Time, u64)> = sl
            .events
            .iter()
            .filter_map(|(t, ev)| match ev {
                agas::SimEv::PutDone(ctx) if ctx & (1 << 38) == 0 => {
                    Some((*t, ctx & ((1 << 38) - 1)))
                }
                _ => None,
            })
            .collect();
        for &(t, j) in &done {
            let issued = if (j as usize) < window {
                t0
            } else {
                done[j as usize - window].0
            };
            let ns = (t - issued).ps() / netsim::time::NS;
            out.push(u32::try_from(ns).unwrap_or(u32::MAX));
        }
    }
    out
}

/// The `gups_lanes2` stream on the plain sequential engine: the oracle
/// for the trace hash and the source of exact latency samples. Completion
/// logging is on (it schedules nothing, so the simulated run is
/// bit-identical to the unlogged sharded one).
pub fn run_sim_seq(n: u32, window: usize, per_loc: u64, seed: u64, scratch: &mut Scratch) -> Rep {
    let mut rep = Rep::default();
    let t_setup = Instant::now();
    let mut eng = Engine::new(sim_world(n, per_loc, seed), ENGINE_SEED);
    let arr = alloc_array(
        &mut eng,
        GUPS_BLOCKS_PER_LOC * u64::from(n),
        BLOCK_CLASS,
        Distribution::Cyclic,
    );
    eng.state.set_pump_blocks(arr.blocks.clone());
    for l in 0..n {
        for i in 0..warm_per_loc(&arr.blocks) {
            agas::ops::memget(
                &mut eng,
                l,
                warm_target(&arr.blocks, l, i),
                8,
                warm_ctx(l, i),
            );
        }
    }
    eng.run();
    rep.setup_s = t_setup.elapsed().as_secs_f64();
    let warm_gets = eng.state.get_acks();
    if warm_gets != u64::from(n) * warm_per_loc(&arr.blocks) {
        rep.check_failures
            .push(format!("warm touch: {warm_gets} gets completed"));
    }
    eng.state.data.record_events = true;
    let before = Raw::of_simworld(&eng.state, eng.events_executed());
    let t0 = Instant::now();
    let sim_t0 = eng.now();
    for l in 0..n {
        for _ in 0..window {
            SimWorld::pump_prime(&mut eng, l);
        }
    }
    eng.run();
    rep.host_s = t0.elapsed().as_secs_f64();
    rep.raw = Raw::of_simworld(&eng.state, eng.events_executed()).since(&before);
    rep.trace_hash = eng.trace_hash();
    rep.sim_makespan_ps = (eng.now() - sim_t0).ps();
    finish_sim(&mut rep, &eng.state, &arr.blocks, n, per_loc, seed, scratch);
    let mut lat = sim_latencies(&eng.state, window, sim_t0);
    lat.sort_unstable();
    rep.lat_p50_ns = percentile(&lat, 0.50);
    rep.lat_p99_ns = percentile(&lat, 0.99);
    rep.lat_p999_ns = percentile(&lat, 0.999);
    rep.lat_samples = lat.len() as u64;
    rep
}

fn finish_sim(
    rep: &mut Rep,
    w: &SimWorld,
    blocks: &[Gva],
    n: u32,
    per_loc: u64,
    seed: u64,
    scratch: &mut Scratch,
) {
    rep.issued = per_loc * u64::from(n);
    rep.completed = w.pump_completed();
    rep.failed = (rep.issued - rep.completed) + w.op_failures() + w.data_mismatches();
    if rep.failed != 0 {
        rep.check_failures.push(format!(
            "completions: {} issued, {} completed, {} failed in the stack",
            rep.issued,
            rep.completed,
            w.op_failures()
        ));
    }
    for (l, g) in w.data.gas.iter().enumerate() {
        if g.outstanding_ops() != 0 || w.data.eps[l].outstanding_ops() != 0 {
            rep.check_failures
                .push(format!("quiescence: locality {l} still has ops in flight"));
        }
    }
    let mut written = scratch.take_written(blocks.len() as u64 * CELLS_PER_BLOCK);
    if let Err(e) = verify_sim_table(w, blocks, n, per_loc, seed, &mut written) {
        rep.check_failures.push(format!("table vs shadow: {e}"));
    }
    scratch.written = written;
}

/// One `gups_lanes2` repetition: [`SimWorld`]'s self-pumping GUPS on a
/// [`ShardedEngine`] with `lanes` lanes.
pub fn run_sim_sharded(
    n: u32,
    window: usize,
    per_loc: u64,
    seed: u64,
    lanes: usize,
    scratch: &mut Scratch,
    trace: Option<Trace>,
) -> (Rep, Option<Recorder>) {
    let mut rep = Rep::default();
    let (mut rec, hint_ps) = match trace {
        Some(t) => (Some(t.rec), t.makespan_ps),
        None => (None, 0),
    };
    scratch.calib.probe();
    let t_setup = Instant::now();
    let span = rec.as_mut().map(|r| r.begin("setup"));
    let mut sh = ShardedEngine::new(sim_world(n, per_loc, seed), ENGINE_SEED, lanes);
    let arr = sh.drive(|e| {
        alloc_array(
            e,
            GUPS_BLOCKS_PER_LOC * u64::from(n),
            BLOCK_CLASS,
            Distribution::Cyclic,
        )
    });
    sh.state().set_pump_blocks(arr.blocks.clone());
    for l in 0..n {
        sh.drive_at(l, |e| {
            for i in 0..warm_per_loc(&arr.blocks) {
                agas::ops::memget(e, l, warm_target(&arr.blocks, l, i), 8, warm_ctx(l, i));
            }
        });
    }
    sh.run();
    let warm_gets = sh.state_ref().get_acks();
    if warm_gets != u64::from(n) * warm_per_loc(&arr.blocks) {
        rep.check_failures
            .push(format!("warm touch: {warm_gets} gets completed"));
    }
    if let (Some(r), Some(id)) = (rec.as_mut(), span) {
        r.end(id);
    }
    rep.setup_s = t_setup.elapsed().as_secs_f64();
    scratch.calib.probe();

    let before = Raw::of_simworld(sh.state_ref(), sh.events_executed());
    let stats_before = sh.stats().clone();
    let (allocs0, bytes0) = crate::probe::alloc_counts();
    let t0 = Instant::now();
    let sim_t0 = sh.now();
    let span = rec.as_mut().map(|r| r.begin("prime"));
    for l in 0..n {
        sh.drive_at(l, |e| {
            for _ in 0..window {
                SimWorld::pump_prime(e, l);
            }
        });
    }
    if let (Some(r), Some(id)) = (rec.as_mut(), span) {
        r.end(id);
    }
    if let Some(r) = rec.as_mut() {
        for i in 1..=DRAIN_SLICES {
            let id = r.begin("drain");
            sh.run_until(sim_t0 + Time::from_ps(hint_ps * i / DRAIN_SLICES));
            r.end_slice(id);
        }
        let id = r.begin("drain");
        sh.run();
        r.end_slice(id);
    } else {
        sh.run();
    }
    rep.host_s = t0.elapsed().as_secs_f64();
    let (allocs1, bytes1) = crate::probe::alloc_counts();
    rep.allocs = allocs1 - allocs0;
    rep.alloc_bytes = bytes1 - bytes0;
    scratch.calib.probe();
    rep.raw = Raw::of_simworld(sh.state_ref(), sh.events_executed()).since(&before);
    rep.trace_hash = sh.trace_hash();
    rep.sim_makespan_ps = (sh.now() - sim_t0).ps();
    rep.shard = Some(shard_delta(sh.stats(), &stats_before));

    let span = rec.as_mut().map(|r| r.begin("verify"));
    finish_sim(
        &mut rep,
        sh.state_ref(),
        &arr.blocks,
        n,
        per_loc,
        seed,
        scratch,
    );
    if let (Some(r), Some(id)) = (rec.as_mut(), span) {
        r.end(id);
    }
    if let Some(r) = rec.as_ref() {
        rep.issue_ns = r.total_ns("prime");
        rep.drain_ns = r.total_ns("drain");
    }
    scratch.calib.probe();
    (rep, rec)
}

/// Shard telemetry over the timed phase only (set-up ran windows too).
fn shard_delta(after: &netsim::ShardStats, before: &netsim::ShardStats) -> netsim::ShardStats {
    let sub = |a: &[u64], b: &[u64]| a.iter().zip(b).map(|(x, y)| x - y).collect();
    netsim::ShardStats {
        windows: after.windows - before.windows,
        barrier_wait_ns: after.barrier_wait_ns - before.barrier_wait_ns,
        replay_ns: after.replay_ns - before.replay_ns,
        wall_ns: after.wall_ns - before.wall_ns,
        lane_events: sub(&after.lane_events, &before.lane_events),
        lane_busy_ns: sub(&after.lane_busy_ns, &before.lane_busy_ns),
        serial_windows: after.serial_windows - before.serial_windows,
        widened: after.widened - before.widened,
        narrowed: after.narrowed - before.narrowed,
        max_mult_seen: after.max_mult_seen,
    }
}

/// Run one repetition of `spec` with `per_loc` operations per locality
/// (0 = set-up and checks only).
pub fn run_rep_sized(
    spec: &Spec,
    seed: u64,
    per_loc: u64,
    scratch: &mut Scratch,
    trace: Option<Trace>,
) -> (Rep, Option<Recorder>) {
    let job = |mode, stream| RtJob {
        n: spec.localities,
        mode,
        stream,
        window: spec.window,
        per_loc,
        seed,
    };
    let job = match spec.kind {
        Kind::GupsNet => job(GasMode::AgasNetwork, RtStream::Put),
        Kind::GupsSw => job(GasMode::AgasSoftware, RtStream::Put),
        Kind::ChurnMix => job(GasMode::AgasNetwork, RtStream::ChurnMixed),
        Kind::ParcelGups => job(GasMode::AgasNetwork, RtStream::Parcel),
        Kind::GupsLanes2 => {
            return run_sim_sharded(
                spec.localities,
                spec.window,
                per_loc,
                seed,
                2,
                scratch,
                trace,
            )
        }
    };
    run_rt(job, scratch, trace)
}
