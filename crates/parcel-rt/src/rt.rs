//! The runtime façade: boot, action registration, and the driver-facing
//! asynchronous API (spawn / memput / memget / migrate / LCO waiting).
//!
//! A `Runtime` wraps the deterministic engine; "programs" are driver code
//! that registers actions, allocates global arrays, injects initial
//! parcels/operations, and runs the engine to quiescence, reading results
//! out of LCOs, driver callbacks, or global memory.

use crate::collective::{self, Collectives};
use crate::lco::{self, ReduceOp};
use crate::parcel::{ActionCtx, ActionId, ActionRegistry, Parcel};
use crate::sched;
use crate::world::{Completion, RtConfig, Transport, World, NO_COMPLETION, PARCEL_TAG};
use agas::{alloc_array, Distribution, GasConfig, GasMode, GlobalArray, Gva, Stack};
use netsim::{Engine, FaultPlan, FaultPlane, LocalityId, NetConfig, Time};
use photon::PhotonConfig;

/// Configures and boots a [`Runtime`].
pub struct RuntimeBuilder {
    n: usize,
    seed: u64,
    mode: GasMode,
    net: NetConfig,
    photon: PhotonConfig,
    gas: GasConfig,
    rt: RtConfig,
    mem_limit: usize,
    registry: ActionRegistry,
    faults: Option<FaultPlan>,
}

impl RuntimeBuilder {
    /// Start configuring a cluster of `n` localities under `mode`.
    pub fn new(n: usize, mode: GasMode) -> RuntimeBuilder {
        RuntimeBuilder {
            n,
            seed: 0xC0FFEE,
            mode,
            net: NetConfig::ib_fdr(),
            photon: PhotonConfig::default(),
            gas: GasConfig::default(),
            rt: RtConfig::default(),
            mem_limit: 1 << 30,
            registry: ActionRegistry::new(),
            faults: None,
        }
    }

    /// Set the determinism seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replace the network cost model.
    pub fn net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Replace the Photon middleware configuration.
    pub fn photon(mut self, cfg: PhotonConfig) -> Self {
        self.photon = cfg;
        self
    }

    /// Replace the GAS cost configuration.
    pub fn gas_config(mut self, cfg: GasConfig) -> Self {
        self.gas = cfg;
        self
    }

    /// Replace the runtime scheduler configuration.
    pub fn rt_config(mut self, cfg: RtConfig) -> Self {
        self.rt = cfg;
        self
    }

    /// Cap each locality's arena (default 1 GiB). The cap is reserved
    /// address space, made once per locality: the host backs a page only
    /// when the simulation first writes it (in 2 MiB pages under
    /// transparent huge pages `always`), so a count of live heap bytes per
    /// locality must not read the reservation as resident. The host must
    /// be able to reserve it: see [`Cluster::new`](netsim::Cluster::new).
    pub fn mem_limit(mut self, bytes: usize) -> Self {
        self.mem_limit = bytes;
        self
    }

    /// Install a network fault plan. Every faultable message then passes
    /// through the seed-deterministic fault plane; `FaultPlan::lossless`
    /// plans are draw-free and perturb no schedule.
    ///
    /// A plan that is not [`FaultPlan::is_lossless`] can drop a completion,
    /// which without a deadline leaves its operation waiting forever: such
    /// a plan needs [`GasConfig::op_deadline`] set, or [`Self::boot`]
    /// panics.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Register an action (must happen before boot; ids are uniform
    /// cluster-wide, as in any SPMD runtime).
    pub fn register(
        &mut self,
        name: &str,
        f: impl Fn(&mut Engine<World>, ActionCtx) + 'static,
    ) -> ActionId {
        self.registry.register(name, f)
    }

    /// Boot the cluster. Panics on a fault plan that is not lossless when
    /// no operation deadline is set (see [`Self::faults`]), and on parcel
    /// batching ([`RtConfig::ring`]) over the ISIR transport, which sends
    /// every parcel on its own.
    pub fn boot(mut self) -> Runtime {
        assert!(
            self.rt.ring.is_none() || self.rt.transport == Transport::Pwc,
            "RtConfig::ring batches PWC parcels only: the ISIR transport would \
             send every parcel unbatched"
        );
        if let Some(plan) = &self.faults {
            assert!(
                plan.is_lossless() || self.gas.op_deadline.is_some(),
                "a fault plan that is not lossless needs GasConfig::op_deadline set: \
                 without it a dropped completion waits forever"
            );
        }
        let collectives = collective::install(&mut self.registry);
        let mut stack = Stack::new(
            self.n,
            self.mode,
            self.net,
            self.photon,
            self.gas,
            self.rt.workers,
            self.mem_limit,
        );
        stack.cluster.faults = self.faults.map(FaultPlane::new);
        let world = World::new(stack, self.rt, self.registry);
        let mut eng = Engine::new(world, self.seed);
        if self.rt.transport == Transport::Isir {
            // Arm the tag-matching engine: one standing wildcard-class
            // receive per locality, re-posted on every delivery.
            for loc in 0..self.n as u32 {
                photon::post_recv(&mut eng, loc, PARCEL_TAG);
            }
        }
        let anchors = collective::alloc_anchors(&mut eng);
        Runtime {
            eng,
            collectives,
            anchors,
        }
    }
}

/// A booted simulated runtime.
pub struct Runtime {
    /// The engine (public: drivers inspect `eng.state` freely).
    pub eng: Engine<World>,
    /// Installed collective actions.
    pub collectives: Collectives,
    /// One anchor block per locality (targets for locality-addressed
    /// parcels such as broadcasts).
    pub anchors: GlobalArray,
}

impl Runtime {
    /// Shorthand for [`RuntimeBuilder::new`].
    pub fn builder(n: usize, mode: GasMode) -> RuntimeBuilder {
        RuntimeBuilder::new(n, mode)
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.eng.now()
    }

    /// Run to quiescence; returns events executed.
    pub fn run(&mut self) -> u64 {
        self.eng.run()
    }

    /// Number of localities.
    pub fn n(&self) -> u32 {
        self.eng.state.n_localities()
    }

    /// The active GAS mode.
    pub fn mode(&self) -> GasMode {
        self.eng.state.mode
    }

    /// The anchor GVA of locality `loc` (a per-locality parcel target).
    pub fn anchor(&self, loc: LocalityId) -> Gva {
        self.anchors.block(loc as u64)
    }

    /// Collectively allocate a global array.
    pub fn alloc(&mut self, n_blocks: u64, class: u8, dist: Distribution) -> GlobalArray {
        alloc_array(&mut self.eng, n_blocks, class, dist)
    }

    /// Spawn a parcel from `from`.
    pub fn spawn(
        &mut self,
        from: LocalityId,
        target: Gva,
        action: ActionId,
        args: Vec<u8>,
        cont: Option<Gva>,
    ) {
        sched::send_parcel(
            &mut self.eng,
            from,
            Parcel {
                target,
                action,
                args,
                cont,
                src: from,
                hops: 0,
            },
        );
    }

    /// Asynchronous global write; `cb` runs on completion.
    pub fn memput_cb(
        &mut self,
        loc: LocalityId,
        gva: Gva,
        data: Vec<u8>,
        cb: impl FnOnce(&mut Engine<World>, Vec<u8>) + 'static,
    ) {
        let ctx = self
            .eng
            .state
            .new_completion(Completion::Driver(Box::new(cb)));
        agas::ops::memput(&mut self.eng, loc, gva, data, ctx);
    }

    /// Asynchronous global write that sets `lco` when remotely visible.
    pub fn memput_lco(&mut self, loc: LocalityId, gva: Gva, data: Vec<u8>, lco: Gva) {
        let ctx = self.eng.state.new_completion(Completion::Lco(lco));
        agas::ops::memput(&mut self.eng, loc, gva, data, ctx);
    }

    /// Fire-and-forget global write.
    pub fn memput(&mut self, loc: LocalityId, gva: Gva, data: Vec<u8>) {
        agas::ops::memput(&mut self.eng, loc, gva, data, NO_COMPLETION);
    }

    /// Asynchronous NIC-executed atomic; `cb` receives the encoded
    /// [`netsim::AmoResult`] (see [`crate::world::encode_amo_result`]).
    pub fn memamo_cb(
        &mut self,
        loc: LocalityId,
        gva: Gva,
        amo: netsim::AmoOp,
        cb: impl FnOnce(&mut Engine<World>, Vec<u8>) + 'static,
    ) {
        let ctx = self
            .eng
            .state
            .new_completion(Completion::Driver(Box::new(cb)));
        agas::ops::memamo(&mut self.eng, loc, gva, amo, ctx);
    }

    /// Fire-and-forget NIC-executed atomic.
    pub fn memamo(&mut self, loc: LocalityId, gva: Gva, amo: netsim::AmoOp) {
        agas::ops::memamo(&mut self.eng, loc, gva, amo, NO_COMPLETION);
    }

    /// Asynchronous global read; `cb` receives the data.
    pub fn memget_cb(
        &mut self,
        loc: LocalityId,
        gva: Gva,
        len: u32,
        cb: impl FnOnce(&mut Engine<World>, Vec<u8>) + 'static,
    ) {
        let ctx = self
            .eng
            .state
            .new_completion(Completion::Driver(Box::new(cb)));
        agas::ops::memget(&mut self.eng, loc, gva, len, ctx);
    }

    /// Request a block migration; `cb` runs when committed.
    pub fn migrate_cb(
        &mut self,
        from: LocalityId,
        gva: Gva,
        dst: LocalityId,
        cb: impl FnOnce(&mut Engine<World>, Vec<u8>) + 'static,
    ) {
        let ctx = self
            .eng
            .state
            .new_completion(Completion::Driver(Box::new(cb)));
        agas::migrate::migrate_block(&mut self.eng, from, gva, dst, ctx);
    }

    /// Fire-and-forget migration.
    pub fn migrate(&mut self, from: LocalityId, gva: Gva, dst: LocalityId) {
        agas::migrate::migrate_block(&mut self.eng, from, gva, dst, NO_COMPLETION);
    }

    /// Start the periodic load-balancer service (AGAS modes only).
    pub fn start_balancer(&mut self, cfg: crate::balancer::BalancerConfig) {
        crate::balancer::start(&mut self.eng, cfg);
    }

    /// Free a global block at runtime; `cb` runs when the owner released
    /// the storage and the home retired the record. The caller must ensure
    /// no operations are in flight against the block.
    pub fn free_block_cb(
        &mut self,
        from: LocalityId,
        gva: Gva,
        cb: impl FnOnce(&mut Engine<World>, Vec<u8>) + 'static,
    ) {
        let ctx = self
            .eng
            .state
            .new_completion(Completion::Driver(Box::new(cb)));
        agas::migrate::free_block(&mut self.eng, from, gva, ctx);
    }

    /// Write a byte range that may span multiple blocks of `array`
    /// (split into per-block memputs; `cb` runs when all are visible).
    pub fn memput_range_cb(
        &mut self,
        loc: LocalityId,
        array: &GlobalArray,
        start_byte: u64,
        data: &[u8],
        cb: impl FnOnce(&mut Engine<World>, Vec<u8>) + 'static,
    ) {
        let chunks = array.chunks(start_byte, data.len() as u64);
        let gate = lco::new_and(&mut self.eng, loc, chunks.len() as u64);
        lco::attach_driver(&mut self.eng, gate, cb);
        let mut off = 0usize;
        for (gva, len) in chunks {
            let piece = data[off..off + len as usize].to_vec();
            off += len as usize;
            let ctx = self.eng.state.new_completion(Completion::Lco(gate));
            agas::ops::memput(&mut self.eng, loc, gva, piece, ctx);
        }
    }

    /// Read a byte range that may span multiple blocks of `array`; `cb`
    /// receives the reassembled bytes.
    pub fn memget_range_cb(
        &mut self,
        loc: LocalityId,
        array: &GlobalArray,
        start_byte: u64,
        len: u64,
        cb: impl FnOnce(&mut Engine<World>, Vec<u8>) + 'static,
    ) {
        use std::cell::RefCell;
        use std::rc::Rc;
        let chunks = array.chunks(start_byte, len);
        let n = chunks.len();
        let parts: Rc<RefCell<Vec<Option<Vec<u8>>>>> = Rc::new(RefCell::new(vec![None; n]));
        let remaining = Rc::new(std::cell::Cell::new(n));
        let cb = Rc::new(RefCell::new(Some(
            Box::new(cb) as Box<dyn FnOnce(&mut Engine<World>, Vec<u8>)>
        )));
        for (i, (gva, clen)) in chunks.into_iter().enumerate() {
            let parts = parts.clone();
            let remaining = remaining.clone();
            let cb = cb.clone();
            self.memget_cb(loc, gva, clen as u32, move |eng, data| {
                parts.borrow_mut()[i] = Some(data);
                remaining.set(remaining.get() - 1);
                if remaining.get() == 0 {
                    let assembled: Vec<u8> = parts
                        .borrow_mut()
                        .iter_mut()
                        .flat_map(|p| p.take().unwrap())
                        .collect();
                    let cb = cb.borrow_mut().take().expect("range get fired twice");
                    cb(eng, assembled);
                }
            });
        }
    }

    /// Global-to-global copy: a memget chained into a memput. The ranges
    /// must each stay within one block; `cb` runs when the destination
    /// write is remotely visible.
    pub fn memcpy_cb(
        &mut self,
        loc: LocalityId,
        src: Gva,
        dst: Gva,
        len: u32,
        cb: impl FnOnce(&mut Engine<World>, Vec<u8>) + 'static,
    ) {
        let put_ctx = self
            .eng
            .state
            .new_completion(Completion::Driver(Box::new(cb)));
        let get_ctx =
            self.eng
                .state
                .new_completion(Completion::Driver(Box::new(move |eng, data| {
                    agas::ops::memput(eng, loc, dst, data, put_ctx);
                })));
        agas::ops::memget(&mut self.eng, loc, src, len, get_ctx);
    }

    /// Create a future LCO at `loc`.
    pub fn new_future(&mut self, loc: LocalityId) -> Gva {
        lco::new_future(&mut self.eng, loc)
    }

    /// Create an and-gate LCO at `loc` over `n` inputs.
    pub fn new_and(&mut self, loc: LocalityId, n: u64) -> Gva {
        lco::new_and(&mut self.eng, loc, n)
    }

    /// Create a reduce LCO at `loc` over `n` `u64` contributions.
    pub fn new_reduce(&mut self, loc: LocalityId, n: u64, op: ReduceOp) -> Gva {
        lco::new_reduce(&mut self.eng, loc, n, op)
    }

    /// Driver-side wait: `cb` runs (with the LCO value) when `lco` fires.
    pub fn wait_lco(&mut self, lco: Gva, cb: impl FnOnce(&mut Engine<World>, Vec<u8>) + 'static) {
        lco::attach_driver(&mut self.eng, lco, cb);
    }

    /// Broadcast `action` (with `args`) to every locality's anchor via a
    /// binomial tree rooted at `root`. Each delivery contributes to `done`
    /// if provided.
    pub fn broadcast(
        &mut self,
        root: LocalityId,
        action: ActionId,
        args: Vec<u8>,
        done: Option<Gva>,
    ) {
        collective::broadcast(self, root, action, args, done);
    }

    /// Read `len` bytes at a physical location in `loc`'s arena
    /// (driver-side inspection of results).
    pub fn read_local(&self, loc: LocalityId, addr: netsim::PhysAddr, len: usize) -> Vec<u8> {
        self.eng
            .state
            .cluster
            .mem(loc)
            .read(addr, len)
            .expect("driver read out of bounds")
            .to_vec()
    }

    /// Read the contents of an entire global block (driver-side; the block
    /// must be resident wherever [`Stack::locate`] finds it).
    pub fn read_block(&self, gva: Gva) -> Vec<u8> {
        let (owner, base) = self.eng.state.locate(gva);
        self.read_local(owner, base, 1 << gva.class())
    }

    /// Write bytes directly into a global block at `offset` (driver-side
    /// *setup* utility: bypasses the network and charges no simulated time;
    /// never use it to model application traffic).
    pub fn write_block(&mut self, gva: Gva, offset: u64, bytes: &[u8]) {
        let (owner, base) = self.eng.state.locate(gva);
        self.eng
            .state
            .cluster
            .mem_mut(owner)
            .write(base + offset, bytes)
            .expect("driver write out of bounds");
    }

    /// Assert the cluster is truly quiescent: nothing in flight in the GAS
    /// stack ([`agas::Stack::in_flight_report`]: GAS ops, send queues, PWC
    /// ops, requests parked at a NIC), no parcels waiting in any per-peer
    /// batch, no undelivered completions. Call after `run()` in
    /// tests/drivers to catch protocol leaks early. On failure one report
    /// lists every stuck record — waiting batches with peer, parcel count,
    /// bytes and the oldest parcel's age — followed by each locality's
    /// membership view and by the continuations that never ran
    /// ([`Self::pending_lcos`], unfired driver slots). Those alone never
    /// fail the check: a program may legitimately end holding a gate it
    /// stopped caring about.
    pub fn assert_quiescent(&self) {
        let w = &self.eng.state;
        let now = self.eng.now();
        let mut stuck = w.in_flight_report(now, true);
        let mut membership = String::new();
        for (l, (r, g)) in (0u32..).zip(w.rt.iter().zip(&w.gas)) {
            for (peer, b) in (0u32..).zip(&r.batches) {
                if let Some(line) = b.report(peer, now) {
                    stuck.push(format!("locality {l}: {line}"));
                }
            }
            if let Some(m) = g.member.render() {
                membership += &format!("  locality {l} view: {m}\n");
            }
        }
        assert!(
            stuck.is_empty(),
            "{} record(s) still in flight after run():\n  {}\n{}{}",
            stuck.len(),
            stuck.join("\n  "),
            membership,
            self.continuation_report()
        );
        assert!(
            w.completions.is_empty(),
            "{} completions never fired\n{}",
            w.completions.len(),
            self.continuation_report()
        );
    }

    /// Every live LCO still holding an undelivered waiter, in
    /// locality-then-slot order — where a hung continuation chain stopped.
    pub fn pending_lcos(&self) -> Vec<lco::PendingLco> {
        (0..self.n())
            .flat_map(|l| lco::pending(&self.eng.state, l))
            .collect()
    }

    /// Render [`Self::pending_lcos`] and the count of driver callbacks
    /// whose LCO never fired, for quiescence-failure messages.
    fn continuation_report(&self) -> String {
        let mut out = vec![format!(
            "undelivered continuations: {} driver slot(s) never fired",
            self.eng.state.live_driver_slots()
        )];
        for p in self.pending_lcos() {
            out.push(format!(
                "  locality {}: {} {:?} needs {} more set(s), holds {} waiter(s)",
                p.lco.home(),
                p.kind,
                p.lco,
                p.remaining,
                p.waiters
            ));
        }
        out.join("\n")
    }

    /// Cluster-wide hardware counters.
    pub fn counters(&self) -> netsim::Counters {
        self.eng.state.cluster.total_counters()
    }
}
