//! Photon middleware tuning parameters.

use netsim::Time;

/// Configuration of a [`crate::PhotonEndpoint`].
///
/// The defaults mirror the published Photon configuration on FDR InfiniBand:
/// a 4 KiB eager threshold, 64-deep ledgers, and an enabled registration
/// cache. Ablations A1/A2 sweep `rcache_pages` and `eager_threshold`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhotonConfig {
    /// Two-sided messages at or below this payload size travel eagerly
    /// (data inline, one copy at the target); above it the rendezvous
    /// RTS/CTS protocol runs (two extra control latencies, zero-copy).
    pub eager_threshold: u32,
    /// Per-peer eager-ledger depth: the credit window for eager sends.
    pub ledger_slots: usize,
    /// Target-side copy cost out of the eager buffer, ps per byte.
    pub copy_per_byte_ps: u64,
    /// Target-side cost of one tag-matching pass (queue walk + descriptor
    /// handling) on the two-sided path.
    pub match_overhead: Time,
    /// Registration-cache capacity, in pages. `0` caches nothing, so every
    /// registered-buffer RMA pays the full pin cost (ablation A1's off arm).
    pub rcache_pages: usize,
    /// Fixed cost of a memory-registration (pin) syscall.
    pub reg_base: Time,
    /// Incremental cost per newly pinned page.
    pub reg_per_page: Time,
    /// Page size for registration accounting.
    pub page_bytes: u64,
}

impl Default for PhotonConfig {
    fn default() -> PhotonConfig {
        PhotonConfig {
            eager_threshold: 4096,
            ledger_slots: 64,
            copy_per_byte_ps: 25, // ~40 GB/s memcpy
            match_overhead: Time::from_ns(250),
            rcache_pages: 1 << 16,
            reg_base: Time::from_us(10),
            reg_per_page: Time::from_ns(180),
            page_bytes: 4096,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = PhotonConfig::default();
        assert!(c.eager_threshold >= 1024);
        assert!(c.ledger_slots >= 1);
        assert!(c.rcache_pages > 0);
        assert!(c.reg_base > Time::ZERO);
    }
}
