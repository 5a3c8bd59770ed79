//! GAS-layer tuning parameters.

use netsim::Time;

/// Which global-address-space implementation is active.
///
/// This is the paper's experimental variable: every benchmark runs once per
/// mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GasMode {
    /// Static PGAS: a block's home (from its address bits) owns it forever.
    /// Remote access is direct RDMA on initiator-computed physical
    /// addresses; blocks can never move.
    Pgas,
    /// Software-managed AGAS: blocks migrate, and every remote access is a
    /// two-sided message handled by the owner's *CPU*, which performs the
    /// BTT translation and the copy (the classic HPX-5 AGAS baseline).
    AgasSoftware,
    /// Network-managed AGAS (the paper's contribution): blocks migrate, and
    /// remote accesses are one-sided RDMA on *virtual* addresses translated
    /// by the target **NIC** with zero CPU involvement.
    AgasNetwork,
}

impl GasMode {
    /// All modes, in presentation order.
    pub const ALL: [GasMode; 3] = [GasMode::Pgas, GasMode::AgasSoftware, GasMode::AgasNetwork];

    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            GasMode::Pgas => "PGAS",
            GasMode::AgasSoftware => "AGAS-SW",
            GasMode::AgasNetwork => "AGAS-NET",
        }
    }

    /// Can blocks migrate under this mode?
    pub fn supports_migration(self) -> bool {
        !matches!(self, GasMode::Pgas)
    }
}

/// How the membership plane recovers and evacuates blocks when the
/// locality set changes (see `core::membership`).
///
/// Crash recovery always re-issues: every block whose directory record
/// names the crashed locality as owner comes back at the locality serving
/// its home as a zero-filled, generation-bumped replacement, and the dead
/// home's census (including blocks still alive on survivors) is installed
/// at the take-over locality.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Generation bump applied to re-issued blocks, large enough to
    /// dominate any in-flight migration commit racing the recovery.
    pub generation_bump: u32,
    /// Blocks a draining locality evacuates per pump round.
    pub evac_batch: usize,
    /// Delay between evacuation pump rounds.
    pub evac_interval: Time,
}

impl Default for RecoveryPolicy {
    fn default() -> RecoveryPolicy {
        RecoveryPolicy {
            generation_bump: 1 << 20,
            evac_batch: 4,
            evac_interval: Time::from_ns(2_000),
        }
    }
}

/// Cost parameters of the GAS software paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GasConfig {
    /// CPU time to dispatch and run a software remote-access handler
    /// (software-AGAS path), excluding the per-byte copy.
    pub sw_handler: Time,
    /// CPU time of a directory lookup/update at the home.
    pub dir_lookup: Time,
    /// Fixed cost of a purely local GAS access.
    pub local_op: Time,
    /// Per-byte copy cost of software-path data handling (ps/B).
    pub copy_per_byte_ps: u64,
    /// Source-side owner-cache capacity, in blocks.
    pub cache_capacity: usize,
    /// Abort an operation after this many bounce/retry cycles.
    pub max_attempts: u32,
    /// Base back-off before re-issuing a bounced operation (doubled per
    /// attempt, capped, to guarantee progress past in-flight migrations).
    pub retry_backoff: Time,
    /// If set, an in-flight op older than this is reclaimed by the
    /// per-locality sweep and fails with `DeadlineExceeded` instead of
    /// hanging forever on a lost completion. `None` (the default) disables
    /// the sweep entirely and perturbs no schedule.
    pub op_deadline: Option<Time>,
    /// How often the deadline sweep wakes while ops are in flight.
    pub sweep_interval: Time,
    /// When the deadline sweep reclaims an op that still has bounce budget
    /// left, retry it through the directory-recovery path instead of
    /// failing it — the recovery mode for messages *lost* by the fault
    /// plane (a lost completion otherwise looks identical to a slow one).
    /// Off by default: it perturbs no schedule and keeps the legacy
    /// fail-on-deadline semantics.
    pub retry_on_deadline: bool,
    /// Record every put/get/migrate issued or handled here into
    /// [`crate::GasLocal::history`] for the serializability checker. Off by
    /// default (zero cost, zero memory growth).
    pub record_history: bool,
    /// Membership-plane recovery/evacuation tuning. Inert until a
    /// membership event fires (the defaults change no schedule).
    pub recovery: RecoveryPolicy,
}

impl Default for GasConfig {
    fn default() -> GasConfig {
        GasConfig {
            sw_handler: Time::from_ns(500),
            dir_lookup: Time::from_ns(200),
            local_op: Time::from_ns(80),
            copy_per_byte_ps: 25,
            cache_capacity: 1 << 16,
            max_attempts: 64,
            retry_backoff: Time::from_ns(400),
            op_deadline: None,
            sweep_interval: Time::from_ns(2_000),
            retry_on_deadline: false,
            record_history: false,
            recovery: RecoveryPolicy::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<&str> = GasMode::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(labels, vec!["PGAS", "AGAS-SW", "AGAS-NET"]);
    }

    #[test]
    fn migration_support() {
        assert!(!GasMode::Pgas.supports_migration());
        assert!(GasMode::AgasSoftware.supports_migration());
        assert!(GasMode::AgasNetwork.supports_migration());
    }

    #[test]
    fn default_config_sane() {
        let c = GasConfig::default();
        assert!(c.max_attempts >= 8);
        assert!(c.sw_handler > c.local_op);
    }
}
