//! The registration cache against its contract written plainly.
//!
//! [`RegCache`] keeps its pinned pages in a flat open-addressed table that
//! is empty until the first registration; [`Model`] keeps them in a `Vec`,
//! most recently used first. Over random registration streams — ranges that
//! overlap, straddle pages and run past the capacity — both must charge the
//! same pin delay on every call, count the same hits and misses, and end
//! with the same pages pinned in the same recency order — and none of it
//! may show up as address translation in the telemetry.

use netsim::{PhysAddr, Time};
use photon::{PhotonConfig, RegCache};
use proptest::prelude::*;

#[derive(Default)]
struct Model {
    /// Pinned pages, most recently used first.
    pages: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl Model {
    fn register(&mut self, cfg: &PhotonConfig, addr: PhysAddr, len: u64) -> Time {
        if len == 0 {
            return Time::ZERO;
        }
        let (first, last) = (addr / cfg.page_bytes, (addr + len - 1) / cfg.page_bytes);
        let mut pinned = 0;
        for page in first..=last {
            match self.pages.iter().position(|&p| p == page) {
                Some(pos) => {
                    self.pages.remove(pos);
                    self.hits += 1;
                }
                None => {
                    self.misses += 1;
                    pinned += 1;
                }
            }
            self.pages.insert(0, page);
            self.pages.truncate(cfg.rcache_pages);
        }
        // The syscall is paid only when something had to be pinned, which
        // a zero-page cache always has.
        if pinned == 0 {
            Time::ZERO
        } else {
            cfg.reg_base + cfg.reg_per_page * pinned
        }
    }
}

proptest! {
    #[test]
    fn regcache_matches_the_model(
        capacity in 0usize..5,
        regs in proptest::collection::vec((0u64..40 * 4096, 0u64..5 * 4096), 0..300),
    ) {
        let cfg = PhotonConfig {
            rcache_pages: [0, 1, 2, 7, 64][capacity],
            ..PhotonConfig::default()
        };
        let translations = netsim::telemetry::snapshot().xlate_lookups;
        let mut real = RegCache::new();
        let mut model = Model::default();
        for (i, (addr, len)) in regs.into_iter().enumerate() {
            prop_assert_eq!(
                real.register(&cfg, addr, len),
                model.register(&cfg, addr, len),
                "pin delay of call {} ({:#x}, {})", i, addr, len
            );
            prop_assert_eq!((real.hits(), real.misses()), (model.hits, model.misses));
        }
        prop_assert_eq!(real.pinned().collect::<Vec<_>>(), model.pages);
        // The table flushes its batched lookup counts when it drops: a
        // registration probe is bookkeeping and must not be among them.
        drop(real);
        prop_assert_eq!(netsim::telemetry::snapshot().xlate_lookups, translations);
    }
}
