//! GAS-layer tuning parameters.

use netsim::{NetConfig, Time};

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
    /// Software-managed AGAS: AGAS with `xlate_capacity: 0`, so every remote
    /// access is a two-sided message handled by the owner's *CPU*, which
    /// performs the BTT translation and the copy (the classic HPX-5 AGAS baseline).
    AgasSoftware,
    /// Network-managed AGAS (the paper's contribution): blocks migrate, and
    /// remote accesses are one-sided RDMA on *virtual* addresses translated
    /// by the target **NIC** with zero CPU involvement. Over a fabric with
    /// `xlate_capacity: 0` it is [`GasMode::AgasSoftware`].
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

    /// The fabric this mode runs on, as every world constructor builds it:
    /// `net` without its NIC table (`xlate_capacity: 0`) unless the mode is
    /// AGAS-NET. PGAS NICs translate nothing; AGAS-SW is AGAS without one.
    pub fn net(self, net: NetConfig) -> NetConfig {
        match self {
            GasMode::AgasNetwork => net,
            _ => NetConfig {
                xlate_capacity: 0,
                ..net
            },
        }
    }

    /// Can blocks migrate under this mode?
    pub fn supports_migration(self) -> bool {
        !matches!(self, GasMode::Pgas)
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
    /// If set, an in-flight op older than this is presumed to have lost a
    /// message (a lost completion looks identical to a slow one): the
    /// per-locality sweep re-resolves it through its home while it has
    /// [`Self::max_attempts`] budget left, and fails it with
    /// `DeadlineExceeded` once the budget is spent — never a hang. `None`
    /// (the default) disables the sweep entirely and perturbs no schedule.
    /// Kept because lossy fault plans need it: a runtime booted with a
    /// plan that is not lossless must set it (the builder refuses the plan
    /// otherwise).
    pub op_deadline: Option<Time>,
    /// How often the deadline sweep wakes while ops are in flight.
    pub sweep_interval: Time,
    /// Record every put/get/migrate issued or handled here into
    /// [`crate::GasLocal::history`] for the serializability checker. This
    /// is the checker's input: the chaos matrix and the lock-free queue
    /// turn it on; the benchmark leaves it off (zero cost, zero memory
    /// growth).
    pub record_history: bool,
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
            record_history: false,
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
