//! The registration cache.
//!
//! RDMA hardware can only address *pinned* (registered) memory, and pinning
//! is a heavyweight kernel operation. Photon keeps an LRU cache of pinned
//! pages so repeated RMA on the same buffers pays the cost once. Ablation A1
//! sizes the cache at zero pages to show the penalty on bandwidth-bound
//! transfers.
//!
//! The pinned set is a [`FlatTable`] bounded by
//! [`PhotonConfig::rcache_pages`] at insert time, so an endpoint that never
//! registers a buffer — every endpoint on the pre-registered fast path —
//! holds no table at all. Its probes are bookkeeping, not address
//! translation: they go through [`FlatTable::promote`], which stays out of
//! the translation telemetry.

use crate::config::PhotonConfig;
use netsim::flatmap::FlatTable;
use netsim::{PhysAddr, Time};

/// Seed for the pinned-page table's hash (fixed: deterministic runs).
const RCACHE_SEED: u64 = 0x9e61_5eed;

/// Per-endpoint registration cache: a set of currently pinned pages.
pub struct RegCache {
    pages: FlatTable<()>,
    hits: u64,
    misses: u64,
}

impl Default for RegCache {
    fn default() -> RegCache {
        RegCache::new()
    }
}

impl RegCache {
    /// An empty cache; capacity comes from the config passed to
    /// [`RegCache::register`].
    pub fn new() -> RegCache {
        RegCache {
            pages: FlatTable::with_seed(RCACHE_SEED),
            hits: 0,
            misses: 0,
        }
    }

    /// Account a registration of `[addr, addr+len)` and return the pin
    /// delay the caller must charge before posting its RMA operation.
    ///
    /// Only pages not already pinned cost anything; a zero-page cache pins
    /// nothing, so every call pays the base cost plus every page.
    pub fn register(&mut self, cfg: &PhotonConfig, addr: PhysAddr, len: u64) -> Time {
        if len == 0 {
            return Time::ZERO;
        }
        let first = addr / cfg.page_bytes;
        let last = (addr + len - 1) / cfg.page_bytes;
        let mut new_pages = 0u64;
        for page in first..=last {
            if self.pages.promote(page).is_some() {
                self.hits += 1;
            } else {
                self.pages.insert_lru(page, (), cfg.rcache_pages);
                self.misses += 1;
                new_pages += 1;
            }
        }
        if new_pages == 0 {
            Time::ZERO
        } else {
            cfg.reg_base + cfg.reg_per_page * new_pages
        }
    }

    /// The pinned pages, most recently used first.
    pub fn pinned(&self) -> impl Iterator<Item = u64> + '_ {
        self.pages.iter_lru().map(|(page, ())| page)
    }

    /// Cache hits so far (page granularity).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (pages actually pinned) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PhotonConfig {
        PhotonConfig::default()
    }

    #[test]
    fn first_touch_pays_then_free() {
        let c = cfg();
        let mut rc = RegCache::new();
        let d1 = rc.register(&c, 0, 8192); // 2 pages
        assert_eq!(d1, c.reg_base + c.reg_per_page * 2);
        let d2 = rc.register(&c, 0, 8192);
        assert_eq!(d2, Time::ZERO);
        assert_eq!(rc.misses(), 2);
        assert_eq!(rc.hits(), 2);
    }

    #[test]
    fn partial_overlap_pins_only_new_pages() {
        let c = cfg();
        let mut rc = RegCache::new();
        rc.register(&c, 0, 4096); // page 0
        let d = rc.register(&c, 2048, 4096); // pages 0..=1, page 1 new
        assert_eq!(d, c.reg_base + c.reg_per_page);
    }

    #[test]
    fn zero_page_cache_always_pays() {
        let c = PhotonConfig {
            rcache_pages: 0,
            ..cfg()
        };
        let mut rc = RegCache::new();
        let d1 = rc.register(&c, 0, 4096);
        let d2 = rc.register(&c, 0, 4096);
        assert_eq!(d1, d2);
        assert!(d1 > Time::ZERO);
        assert_eq!(rc.hits(), 0);
    }

    #[test]
    fn zero_length_is_free() {
        let c = cfg();
        let mut rc = RegCache::new();
        assert_eq!(rc.register(&c, 123, 0), Time::ZERO);
    }

    #[test]
    fn capacity_eviction_forces_repin() {
        let c = PhotonConfig {
            rcache_pages: 2,
            ..cfg()
        };
        let mut rc = RegCache::new();
        rc.register(&c, 0, 4096); // page 0
        rc.register(&c, 4096, 4096); // page 1
        rc.register(&c, 8192, 4096); // page 2 evicts page 0
        let d = rc.register(&c, 0, 4096); // page 0 again: repin
        assert_eq!(d, c.reg_base + c.reg_per_page);
    }
}
