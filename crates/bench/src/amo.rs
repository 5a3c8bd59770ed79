//! The NIC-executed active-operation series (`repro amo`, EXPERIMENTS.md).
//!
//! Drives the self-pumping AMO generator in [`SimWorld`] — every
//! completion immediately starts the completing locality's next logical
//! op — against a **single contended block** homed at locality 0, so
//! every initiator hammers the same eight words. Two workloads:
//!
//! * **Contended fetch-and-add** (`AmoPumpKind::FetchAdd`): one
//!   `FetchAdd { operand: 1 }` per logical op. The paper's headline AMO
//!   claim in kernel form — translation + op in one NIC visit, zero
//!   target-CPU events on the hot path.
//! * **CAS-retry increment** (`AmoPumpKind::CasRetry`): atomic read, then
//!   compare-and-swap `old → old + 1`, retrying with the NACK-carried
//!   fresh value until the swap lands. Measures how optimistic
//!   concurrency degrades under contention in each execution model.
//!
//! Each workload runs as an A/B between the NIC-executed path
//! (`AgasNetwork`: the responder NIC performs the op during translation;
//! the cluster's [`netsim::Counters::amo_executed`] counts these) and the emulated
//! round-trip (`AgasSoftware`: the request is bounced to the owner's CPU
//! as a `SwAccess` message and executes as a software handler — the NIC
//! counters stay zero, which *is* the measurement). Simulated time is the
//! measurand; wall-clock is reported only as context.

use agas::{alloc_array, AmoPumpKind, Distribution, GasMode, SimWorld};
use netsim::{Engine, NetConfig, Time};
use std::time::Instant;

/// Workload shape for one AMO contention series.
#[derive(Clone, Copy, Debug)]
pub struct AmoBenchConfig {
    /// Initiating localities (all target the one hot block).
    pub localities: usize,
    /// Logical ops per locality (a landed CAS = one logical op).
    pub ops_per_loc: u64,
    /// Hot-block size class (blocks of 2^class bytes).
    pub block_class: u8,
    /// Pump RNG seed (also the engine seed).
    pub seed: u64,
}

impl Default for AmoBenchConfig {
    fn default() -> AmoBenchConfig {
        AmoBenchConfig {
            localities: 8,
            ops_per_loc: 512,
            block_class: 13,
            seed: 47,
        }
    }
}

/// One measured point of the AMO series.
#[derive(Clone, Debug)]
pub struct AmoBenchRow {
    /// Which pump workload ran.
    pub kind: AmoPumpKind,
    /// Execution model under test (NIC-side vs. emulated).
    pub mode: GasMode,
    /// Initiating localities.
    pub localities: usize,
    /// Logical ops completed (must equal the armed budget: lossless wire).
    pub ops: u64,
    /// Logical ops armed across the cluster.
    pub budget: u64,
    /// CAS attempts that lost the race and were re-issued.
    pub cas_retries: u64,
    /// AMO completions delivered to initiators (FAA: = ops; CAS: read +
    /// every swap attempt).
    pub amo_acks: u64,
    /// Terminal op failures (must be zero on the lossless fabric).
    pub op_failures: u64,
    /// Events executed.
    pub events: u64,
    /// Execution trace hash (determinism witness across re-runs).
    pub trace_hash: u64,
    /// Final simulated clock.
    pub sim: Time,
    /// Wall-clock seconds (context only; the series measures `sim`).
    pub wall_secs: f64,
    /// AMOs executed at a NIC, summed over the cell's own cluster (zero in
    /// software mode).
    pub nic_executed: u64,
    /// AMO requests NACKed back to initiators.
    pub nic_nacked: u64,
    /// AMO requests re-injected through forwarding entries.
    pub nic_forwarded: u64,
}

impl AmoBenchRow {
    /// Completed logical ops per simulated microsecond.
    pub fn ops_per_sim_us(&self) -> f64 {
        let us = self.sim.ps() as f64 / 1e6;
        if us > 0.0 {
            self.ops as f64 / us
        } else {
            0.0
        }
    }

    /// Mean simulated nanoseconds per completed logical op — the
    /// round-trip number the NIC-vs-emulated A/B compares.
    pub fn ns_per_op(&self) -> f64 {
        if self.ops > 0 {
            self.sim.ps() as f64 / 1e3 / self.ops as f64
        } else {
            0.0
        }
    }

    /// Short label for the pump workload.
    pub fn kind_label(&self) -> &'static str {
        match self.kind {
            AmoPumpKind::FetchAdd => "faa",
            AmoPumpKind::CasRetry => "cas",
        }
    }

    /// Everything finished and nothing failed.
    pub fn clean(&self) -> bool {
        self.ops == self.budget && self.op_failures == 0
    }
}

/// Run one (workload, mode, contenders) cell to quiescence.
pub fn amo_bench(cfg: &AmoBenchConfig, kind: AmoPumpKind, mode: GasMode) -> AmoBenchRow {
    let n = cfg.localities;
    let mut world = SimWorld::new(n, mode, NetConfig::ib_fdr());
    world.data.record_events = false;
    for l in 0..n as u32 {
        world.arm_amo(l, kind, cfg.ops_per_loc, cfg.seed);
    }
    let mut eng = Engine::new(world, cfg.seed);
    // One block homed at locality 0: every remote initiator's ops cross
    // the wire to the same responder, the worst-case contention shape.
    let arr = alloc_array(&mut eng, 1, cfg.block_class, Distribution::Single(0));
    eng.state.set_pump_blocks(arr.blocks.clone());
    let t = Instant::now();
    for l in 0..n as u32 {
        SimWorld::amo_pump_prime(&mut eng, l);
    }
    eng.run();
    let wall_secs = t.elapsed().as_secs_f64();
    // Set-up executes no AMO, so the world's totals are the cell's.
    let c = eng.state.total_counters();
    AmoBenchRow {
        kind,
        mode,
        localities: n,
        ops: eng.state.amo_pump_completed(),
        budget: n as u64 * cfg.ops_per_loc,
        cas_retries: eng.state.amo_cas_retries(),
        amo_acks: eng.state.amo_acks(),
        op_failures: eng.state.op_failures(),
        events: eng.events_executed(),
        trace_hash: eng.trace_hash(),
        sim: eng.now(),
        wall_secs,
        nic_executed: c.amo_executed,
        nic_nacked: c.amo_nacked,
        nic_forwarded: c.amo_forwarded,
    }
}
