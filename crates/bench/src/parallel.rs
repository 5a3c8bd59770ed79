//! The parallel-scaling GUPS kernel (`repro parallel`, EXPERIMENTS.md).
//!
//! Drives the self-pumping GUPS generator in [`SimWorld`] — every put
//! completion immediately issues the next random-block put from the
//! completing locality — over network-managed AGAS, once on the
//! sequential engine and once per requested lane count on the sharded
//! engine, on two fixed fabrics ([`parallel_fabrics`]): FDR, and FDR with
//! transit jitter. Every message draws its jitter from a generator keyed by
//! its sender, so on both fabrics lanes execute their windows fully in
//! parallel and the barrier — a minimum over the lanes' next pending times
//! — is the only serial section.
//!
//! Unlike every other experiment in this crate, the measurement here is
//! **wall-clock**, not simulated time: the point is the simulator's own
//! event throughput at different lane counts. The simulated results —
//! trace hash, final clock, event and update counts — must still be
//! bit-identical across lane counts; `repro parallel` and CI gate on
//! that.

use agas::{alloc_array, Distribution, GasMode, SimWorld};
use netsim::{Engine, NetConfig, ShardedEngine, Time};
use std::time::Instant;

/// Workload shape for one parallel-scaling series.
#[derive(Clone, Copy, Debug)]
pub struct ParallelGupsConfig {
    /// Localities (= GUPS table blocks, one homed per locality).
    pub localities: usize,
    /// Pump budget per locality (total updates = localities × this).
    pub updates_per_loc: u64,
    /// Table block size class (blocks of 2^class bytes).
    pub block_class: u8,
    /// Pump RNG seed (also the engine seed).
    pub seed: u64,
}

impl Default for ParallelGupsConfig {
    fn default() -> ParallelGupsConfig {
        ParallelGupsConfig {
            localities: 256,
            updates_per_loc: 1 << 10,
            block_class: 13,
            seed: 42,
        }
    }
}

/// One measured point of the parallel series.
#[derive(Clone, Debug)]
pub struct ParallelGupsRow {
    /// Lane count (1 = the plain sequential engine, no threads).
    pub shards: usize,
    /// Localities simulated.
    pub localities: usize,
    /// Pump puts completed (equals the issued budget: lossless fabric).
    pub updates: u64,
    /// Events executed.
    pub events: u64,
    /// Execution trace hash — must match across lane counts.
    pub trace_hash: u64,
    /// Final simulated clock.
    pub sim: Time,
    /// Wall-clock seconds.
    pub wall_secs: f64,
    /// Synchronization windows executed (0 when sequential).
    pub windows: u64,
    /// Per-lane busy/wall utilization (empty when sequential).
    pub utilization: Vec<f64>,
    /// Fraction of wall time in barrier waits + the barrier's serial part.
    pub sync_overhead: f64,
    /// That time in wall nanoseconds per executed event (0 when sequential):
    /// what the shard layer costs over the engine beneath it.
    pub barrier_ns_per_event: f64,
}

impl ParallelGupsRow {
    /// Wall-clock events per second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.events as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

fn arm(world: &mut SimWorld, cfg: &ParallelGupsConfig) {
    world.data.record_events = false;
    for l in 0..cfg.localities as u32 {
        world.arm_gups(l, cfg.updates_per_loc, cfg.seed);
    }
}

/// The fabrics `repro parallel` runs its lane ladder on, by series name:
/// FDR, and FDR with 50 ns of transit jitter.
pub fn parallel_fabrics() -> [(&'static str, NetConfig); 2] {
    let jittery = NetConfig {
        jitter_ns: 50,
        ..NetConfig::ib_fdr()
    };
    [
        ("gups_parallel", NetConfig::ib_fdr()),
        ("gups_parallel_jitter", jittery),
    ]
}

/// Run the pump on `net` to quiescence at `shards` lanes (1 = sequential
/// engine).
pub fn parallel_gups(cfg: &ParallelGupsConfig, net: NetConfig, shards: usize) -> ParallelGupsRow {
    let n = cfg.localities;
    let mut world = SimWorld::new(n, GasMode::AgasNetwork, net);
    arm(&mut world, cfg);
    if shards <= 1 {
        let mut eng = Engine::new(world, cfg.seed);
        let arr = alloc_array(&mut eng, n as u64, cfg.block_class, Distribution::Cyclic);
        eng.state.set_pump_blocks(arr.blocks.clone());
        let t = Instant::now();
        for l in 0..n as u32 {
            SimWorld::pump_prime(&mut eng, l);
        }
        eng.run();
        ParallelGupsRow {
            shards: 1,
            localities: n,
            updates: eng.state.pump_completed(),
            events: eng.events_executed(),
            trace_hash: eng.trace_hash(),
            sim: eng.now(),
            wall_secs: t.elapsed().as_secs_f64(),
            windows: 0,
            utilization: Vec::new(),
            sync_overhead: 0.0,
            barrier_ns_per_event: 0.0,
        }
    } else {
        let mut sh = ShardedEngine::new(world, cfg.seed, shards);
        let arr = sh.drive(|e| alloc_array(e, n as u64, cfg.block_class, Distribution::Cyclic));
        sh.state().set_pump_blocks(arr.blocks.clone());
        let t = Instant::now();
        for l in 0..n as u32 {
            sh.drive_at(l, move |e| SimWorld::pump_prime(e, l));
        }
        sh.run();
        let wall_secs = t.elapsed().as_secs_f64();
        let stats = sh.stats().clone();
        let events = sh.events_executed();
        ParallelGupsRow {
            shards,
            localities: n,
            updates: sh.state().pump_completed(),
            events,
            trace_hash: sh.trace_hash(),
            sim: sh.now(),
            wall_secs,
            windows: stats.windows,
            utilization: stats.utilization(),
            sync_overhead: stats.sync_overhead(),
            barrier_ns_per_event: (stats.barrier_wait_ns + stats.replay_ns) as f64
                / events.max(1) as f64,
        }
    }
}

/// Lane counts to sweep for a `--shards max` request: powers of two up to
/// and including `max` (plus `max` itself when it is not a power of two).
pub fn shard_ladder(max: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut k = 1;
    while k < max {
        v.push(k);
        k *= 2;
    }
    v.push(max.max(1));
    v
}
