//! Seed-deterministic feedback controllers for the two hottest batching
//! knobs: the shard barrier's lookahead window and the descriptor rings'
//! doorbell batch.
//!
//! Static presets leave throughput on the table whenever queue depth
//! diverges from the preset — exactly the regime interrupt moderation and
//! NIC-side batching adapt to in real hardware. Both controllers here are
//! **pure functions of (config, observed history)**: no clocks, no RNG, no
//! thread-dependent input. Feed either one the same observation sequence
//! and it emits the same decision sequence, which is what lets the shadow
//! tests prove adaptive schedules replay bit-identically at any lane
//! count (see `DESIGN.md` §3.8 for the full determinism argument).
//!
//! * [`WindowController`] — hysteresis-damped widening/narrowing of the
//!   barrier window multiplier, plus a serial-execution hint for windows
//!   too shallow to amortize a thread hand-off.
//! * [`RingController`] — AIMD adjustment of a ring's effective doorbell
//!   batch between a configured floor and ceiling, driven by an EWMA of
//!   occupancy observed at flush time.

/// Configuration of the adaptive barrier-window controller
/// ([`WindowController`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdaptiveWindow {
    /// Ceiling on the window multiplier. The sharded engine additionally
    /// clamps this to the widest *provably safe* multiplier for its
    /// fabric (see `ShardedEngine::safe_window_cap`): widening past the
    /// minimum cross-lane event delay would let a lane see an event
    /// another lane schedules inside the same window.
    pub max_mult: u32,
    /// Widen when total pending events across lanes at the barrier meet
    /// this threshold (deep queues: more work per window is available
    /// without extra barrier crossings).
    pub widen_at: u64,
    /// Narrow when a window executed at most this many events (the window
    /// ran empty; narrower windows cost nothing and bound widening drift).
    pub narrow_at: u64,
    /// Consecutive same-direction observations required before a step —
    /// the hysteresis damping that keeps one bursty window from flapping
    /// the multiplier.
    pub hysteresis: u32,
    /// Execute a window inline on the control thread (no lane hand-off)
    /// while the events-per-window EWMA is below this. Zero disables
    /// serial execution.
    pub serial_below: u64,
    /// EWMA weight = `1 / 2^ewma_shift` for the events-per-window average.
    pub ewma_shift: u32,
}

impl Default for AdaptiveWindow {
    fn default() -> AdaptiveWindow {
        AdaptiveWindow {
            max_mult: 8,
            widen_at: 256,
            narrow_at: 16,
            hysteresis: 2,
            serial_below: 8,
            ewma_shift: 2,
        }
    }
}

/// One step of the window controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowDecision {
    /// Multiplier increased by one.
    Widened,
    /// Multiplier decreased by one.
    Narrowed,
    /// No change this window.
    Held,
}

/// Hysteresis-damped controller for the shard barrier's window width.
///
/// After every window the engine reports `(executed, pending)` — events
/// the window ran and events still queued across all lanes at the
/// barrier. Both inputs are global functions of the merged deterministic
/// schedule (independent of lane count and thread timing), so the
/// controller's decision sequence is too.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowController {
    cfg: AdaptiveWindow,
    mult: u32,
    widen_streak: u32,
    narrow_streak: u32,
    /// Events-per-window EWMA in 1/16ths (fixed point).
    ewma_x16: u64,
}

impl WindowController {
    /// A controller starting at multiplier 1. `max_mult` below 1 is
    /// treated as 1 (adaptivity off).
    pub fn new(cfg: AdaptiveWindow) -> WindowController {
        WindowController {
            cfg,
            mult: 1,
            widen_streak: 0,
            narrow_streak: 0,
            ewma_x16: 0,
        }
    }

    /// The controller's configuration.
    pub fn config(&self) -> AdaptiveWindow {
        self.cfg
    }

    /// Current window multiplier (effective window = `mult * L`).
    pub fn mult(&self) -> u32 {
        self.mult
    }

    /// Events-per-window EWMA, rounded down to whole events.
    pub fn ewma(&self) -> u64 {
        self.ewma_x16 >> 4
    }

    /// Should the next window run inline on the control thread?
    pub fn serial(&self) -> bool {
        self.cfg.serial_below > 0 && self.ewma_x16 < self.cfg.serial_below * 16
    }

    /// Record one finished window: `executed` events ran inside it,
    /// `pending` remain queued across all lanes at the barrier. Returns
    /// the (possibly held) decision; the caller applies `mult()` to the
    /// next window and counts telemetry off the decision.
    pub fn observe(&mut self, executed: u64, pending: u64) -> WindowDecision {
        let s = self.cfg.ewma_shift.min(16);
        self.ewma_x16 = self.ewma_x16 - (self.ewma_x16 >> s) + ((executed * 16) >> s);
        let max = self.cfg.max_mult.max(1);
        if pending >= self.cfg.widen_at {
            self.narrow_streak = 0;
            self.widen_streak += 1;
            if self.widen_streak >= self.cfg.hysteresis.max(1) && self.mult < max {
                self.widen_streak = 0;
                self.mult += 1;
                return WindowDecision::Widened;
            }
        } else if executed <= self.cfg.narrow_at {
            self.widen_streak = 0;
            self.narrow_streak += 1;
            if self.narrow_streak >= self.cfg.hysteresis.max(1) && self.mult > 1 {
                self.narrow_streak = 0;
                self.mult -= 1;
                return WindowDecision::Narrowed;
            }
        } else {
            self.widen_streak = 0;
            self.narrow_streak = 0;
        }
        if self.mult > max {
            // A config change mid-run (tests) still converges.
            self.mult = max;
        }
        WindowDecision::Held
    }
}

/// Configuration of the adaptive doorbell-batch controller
/// ([`RingController`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdaptiveRing {
    /// Smallest effective batch the controller may reach (keeps latency
    /// bounded on trickle traffic).
    pub floor: u32,
    /// Largest effective batch the controller may reach (keeps a burst
    /// from deferring its doorbell indefinitely).
    pub ceil: u32,
    /// Additive-increase step applied when a flush fills the batch.
    pub add: u32,
    /// EWMA weight = `1 / 2^ewma_shift` for flush-time occupancy.
    pub ewma_shift: u32,
}

impl Default for AdaptiveRing {
    fn default() -> AdaptiveRing {
        AdaptiveRing {
            floor: 2,
            ceil: 64,
            add: 4,
            ewma_shift: 2,
        }
    }
}

/// One step of the ring controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RingDecision {
    /// Effective batch raised (additive increase).
    Raised,
    /// Effective batch lowered (multiplicative decrease).
    Lowered,
    /// No change this flush.
    Held,
}

/// AIMD controller for a descriptor ring's effective doorbell batch.
///
/// The ring reports every flush: occupancy at drain time and whether the
/// flush was forced by a full batch (producer outran the batch — raise
/// additively toward the ceiling) or fired on the moderation timer (the
/// batch never filled — if the occupancy EWMA shows the ring running
/// light, halve back toward the floor). Flush-time occupancy is a pure
/// function of the simulated schedule, so the decision sequence is too.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RingController {
    cfg: AdaptiveRing,
    eff_batch: u32,
    /// Flush-occupancy EWMA in 1/16ths (fixed point).
    ewma_x16: u64,
}

impl RingController {
    /// A controller starting from the ring's configured static batch,
    /// clamped into `[floor, ceil]`.
    pub fn new(cfg: AdaptiveRing, base_batch: u32) -> RingController {
        let floor = cfg.floor.max(1);
        let ceil = cfg.ceil.max(floor);
        RingController {
            cfg,
            eff_batch: base_batch.clamp(floor, ceil),
            ewma_x16: u64::from(base_batch.clamp(floor, ceil)) * 16,
        }
    }

    /// The controller's configuration.
    pub fn config(&self) -> AdaptiveRing {
        self.cfg
    }

    /// Current effective doorbell batch (the ring's flush threshold).
    pub fn eff_batch(&self) -> u32 {
        self.eff_batch
    }

    /// Flush-occupancy EWMA, rounded down to whole descriptors.
    pub fn ewma(&self) -> u64 {
        self.ewma_x16 >> 4
    }

    /// Record one flush: `occupancy` descriptors drained, `timer` set when
    /// the moderation timer (not a full batch) forced it. Returns the
    /// (possibly held) decision.
    pub fn on_flush(&mut self, occupancy: u32, timer: bool) -> RingDecision {
        let s = self.cfg.ewma_shift.min(16);
        self.ewma_x16 = self.ewma_x16 - (self.ewma_x16 >> s) + ((u64::from(occupancy) * 16) >> s);
        let floor = self.cfg.floor.max(1);
        let ceil = self.cfg.ceil.max(floor);
        if !timer && occupancy >= self.eff_batch {
            let next = self.eff_batch.saturating_add(self.cfg.add).min(ceil);
            if next != self.eff_batch {
                self.eff_batch = next;
                return RingDecision::Raised;
            }
        } else if timer && self.ewma_x16 < u64::from(self.eff_batch) * 8 {
            // EWMA below half the batch: traffic is trickling; halve.
            let next = (self.eff_batch / 2).max(floor);
            if next != self.eff_batch {
                self.eff_batch = next;
                return RingDecision::Lowered;
            }
        }
        RingDecision::Held
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_widens_under_depth_and_narrows_when_empty() {
        let mut c = WindowController::new(AdaptiveWindow::default());
        assert_eq!(c.mult(), 1);
        // Two consecutive deep observations (hysteresis = 2) per step.
        assert_eq!(c.observe(100, 1000), WindowDecision::Held);
        assert_eq!(c.observe(100, 1000), WindowDecision::Widened);
        assert_eq!(c.mult(), 2);
        // Empty windows walk it back down.
        assert_eq!(c.observe(0, 0), WindowDecision::Held);
        assert_eq!(c.observe(0, 0), WindowDecision::Narrowed);
        assert_eq!(c.mult(), 1);
        // Never below 1.
        for _ in 0..10 {
            c.observe(0, 0);
        }
        assert_eq!(c.mult(), 1);
    }

    #[test]
    fn window_respects_max_mult() {
        let cfg = AdaptiveWindow {
            max_mult: 3,
            hysteresis: 1,
            ..AdaptiveWindow::default()
        };
        let mut c = WindowController::new(cfg);
        for _ in 0..10 {
            c.observe(1000, 1_000_000);
        }
        assert_eq!(c.mult(), 3);
    }

    #[test]
    fn window_hysteresis_damps_flapping() {
        let cfg = AdaptiveWindow {
            hysteresis: 3,
            ..AdaptiveWindow::default()
        };
        let mut c = WindowController::new(cfg);
        // Alternating deep/empty never accumulates a 3-streak.
        for _ in 0..20 {
            assert_eq!(c.observe(100, 1000), WindowDecision::Held);
            assert_eq!(c.observe(0, 0), WindowDecision::Held);
        }
        assert_eq!(c.mult(), 1);
    }

    #[test]
    fn serial_hint_follows_ewma() {
        let mut c = WindowController::new(AdaptiveWindow {
            serial_below: 8,
            ..AdaptiveWindow::default()
        });
        assert!(c.serial(), "fresh controller starts serial");
        for _ in 0..8 {
            c.observe(1000, 0);
        }
        assert!(!c.serial(), "busy windows switch to parallel");
        for _ in 0..32 {
            c.observe(0, 0);
        }
        assert!(c.serial(), "empty windows settle back to serial");
    }

    #[test]
    fn ring_aimd_raises_and_lowers_within_bounds() {
        let cfg = AdaptiveRing {
            floor: 2,
            ceil: 32,
            add: 4,
            ewma_shift: 2,
        };
        let mut c = RingController::new(cfg, 16);
        assert_eq!(c.eff_batch(), 16);
        // Full flushes raise additively to the ceiling.
        assert_eq!(c.on_flush(16, false), RingDecision::Raised);
        assert_eq!(c.eff_batch(), 20);
        for _ in 0..10 {
            c.on_flush(c.eff_batch(), false);
        }
        assert_eq!(c.eff_batch(), 32);
        // Timer flushes with a light EWMA halve to the floor.
        let mut lowered = 0;
        for _ in 0..40 {
            if c.on_flush(1, true) == RingDecision::Lowered {
                lowered += 1;
            }
        }
        assert!(lowered >= 4);
        assert_eq!(c.eff_batch(), 2);
    }

    #[test]
    fn ring_base_batch_clamped_into_bounds() {
        let cfg = AdaptiveRing {
            floor: 4,
            ceil: 8,
            add: 1,
            ewma_shift: 2,
        };
        assert_eq!(RingController::new(cfg, 1).eff_batch(), 4);
        assert_eq!(RingController::new(cfg, 100).eff_batch(), 8);
    }

    #[test]
    fn controllers_are_pure_functions_of_history() {
        // Same observation sequence → same decision sequence and state,
        // regardless of when or where the controller runs.
        let obs: Vec<(u64, u64)> = (0..200)
            .map(|i: u64| ((i * 37) % 400, (i * 91) % 2000))
            .collect();
        // Each run builds its own controller from the (never mutated)
        // config. Passing two identical freshly-built controllers by value
        // into a closure that mutates its parameter is miscompiled by
        // rustc 1.95 at opt-level 3: MIR GVN folds the two argument
        // temporaries into one local and the second run starts from the
        // first run's final state (see CHANGES.md, PR 14).
        let run = |cfg: AdaptiveWindow| {
            let mut c = WindowController::new(cfg);
            let mut out = Vec::new();
            for &(e, p) in &obs {
                out.push((c.observe(e, p), c.mult(), c.serial()));
            }
            out
        };
        let a = run(AdaptiveWindow::default());
        let b = run(AdaptiveWindow::default());
        assert_eq!(a, b);
        assert_eq!(a[0], (WindowDecision::Held, 1, true), "starts fresh");

        let flushes: Vec<(u32, bool)> =
            (0..200).map(|i: u32| ((i * 13) % 70, i % 3 == 0)).collect();
        let run = |cfg: AdaptiveRing| {
            let mut c = RingController::new(cfg, 16);
            let mut out = Vec::new();
            for &(o, t) in &flushes {
                out.push((c.on_flush(o, t), c.eff_batch()));
            }
            out
        };
        let a = run(AdaptiveRing::default());
        let b = run(AdaptiveRing::default());
        assert_eq!(a, b);
    }
}
