//! The per-locality block translation table (BTT).
//!
//! The software side of AGAS: every locality records, for each block it
//! currently *owns*, where the block's bytes live in the local arena, the
//! block's migration generation, and its pin count. Action handlers pin a
//! block while operating on it; migration of a pinned block is deferred
//! until the last pin drops.
//!
//! Backed by [`netsim::flatmap::FlatTable`]: `lookup` is the hottest
//! software-path translation in the system (every local commit goes
//! through it), and the flat layout resolves the common hit in a single
//! probe over one cache line instead of a SipHash + bucket walk.

use netsim::flatmap::FlatTable;
use netsim::{PhysAddr, XlateEntry};

/// Lifecycle of a locally owned block.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BlockState {
    /// Resident and serving accesses.
    #[default]
    Resident,
    /// Hand-off in progress: data sent to the new owner, installation not
    /// yet acknowledged. Incoming software accesses queue.
    Moving,
}

/// One BTT entry.
#[derive(Clone, Copy, Debug, Default)]
pub struct BttEntry {
    /// Physical base of the block in this locality's arena.
    pub base: PhysAddr,
    /// Size class (block is `1 << class` bytes).
    pub class: u8,
    /// Migration generation (starts at 1, bumps on every move).
    pub generation: u32,
    /// Active pins (handlers currently operating on the block).
    pub pins: u32,
    /// Residency state.
    pub state: BlockState,
}

impl BttEntry {
    /// The NIC translation entry that serves this block under AGAS-NET.
    pub fn xlate(&self) -> XlateEntry {
        XlateEntry {
            base: self.base,
            len: 1u64 << self.class,
            generation: self.generation,
        }
    }
}

/// Seed for the BTT's flat table (fixed: deterministic runs).
const BTT_SEED: u64 = 0xb77_5eed;

/// The block translation table.
pub struct Btt {
    entries: FlatTable<BttEntry>,
}

impl Default for Btt {
    fn default() -> Btt {
        Btt::new()
    }
}

impl Btt {
    /// An empty table.
    pub fn new() -> Btt {
        Btt {
            entries: FlatTable::with_seed(BTT_SEED),
        }
    }

    /// Record ownership of `block_key`; returns the new entry.
    pub fn insert(
        &mut self,
        block_key: u64,
        base: PhysAddr,
        class: u8,
        generation: u32,
    ) -> BttEntry {
        let entry = BttEntry {
            base,
            class,
            generation,
            pins: 0,
            state: BlockState::Resident,
        };
        let prev = self.entries.insert(block_key, entry);
        debug_assert!(prev.is_none(), "BTT double-insert for {block_key:#x}");
        entry
    }

    /// Drop ownership (block migrated away or freed). Returns the entry.
    pub fn remove(&mut self, block_key: u64) -> Option<BttEntry> {
        let e = self.entries.remove(block_key);
        debug_assert!(
            e.is_none_or(|e| e.pins == 0),
            "removed a pinned block {block_key:#x}"
        );
        e
    }

    /// Translate a block key; `None` means "not owned here".
    pub fn lookup(&self, block_key: u64) -> Option<&BttEntry> {
        self.entries.get(block_key)
    }

    /// A census read of the entry for `block_key`: not a translation, so
    /// it stays out of the lookup telemetry.
    pub fn peek(&self, block_key: u64) -> Option<&BttEntry> {
        self.entries.peek(block_key)
    }

    /// Mutable entry access.
    pub fn lookup_mut(&mut self, block_key: u64) -> Option<&mut BttEntry> {
        self.entries.get_mut(block_key)
    }

    /// Is the block resident (owned and not mid-migration)? A census read,
    /// not a translation: it stays out of the lookup telemetry.
    pub fn is_resident(&self, block_key: u64) -> bool {
        self.peek(block_key)
            .is_some_and(|e| e.state == BlockState::Resident)
    }

    /// Pin `block_key` for a handler. Returns the entry snapshot, or `None`
    /// if the block is not resident here (caller must re-route).
    pub fn pin(&mut self, block_key: u64) -> Option<BttEntry> {
        let e = self.entries.get_mut(block_key)?;
        if e.state != BlockState::Resident {
            return None;
        }
        e.pins += 1;
        Some(*e)
    }

    /// Release a pin. Returns the remaining pin count.
    pub fn unpin(&mut self, block_key: u64) -> u32 {
        let e = self
            .entries
            .get_mut(block_key)
            .expect("unpin of unknown block");
        assert!(e.pins > 0, "unpin underflow for {block_key:#x}");
        e.pins -= 1;
        e.pins
    }

    /// Mark a block as mid-migration. Panics if pinned (callers must wait
    /// for pins to drain first).
    pub fn set_moving(&mut self, block_key: u64) {
        let e = self
            .entries
            .get_mut(block_key)
            .expect("set_moving on unknown block");
        assert_eq!(e.pins, 0, "cannot move a pinned block");
        e.state = BlockState::Moving;
    }

    /// Number of blocks owned here (any state).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no blocks are owned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate owned block keys (deterministic slot order).
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries.keys()
    }

    /// Remove every entry regardless of state or pin count — the locality
    /// crashed, and its pins die with it. Returns the entries sorted by
    /// block key so teardown (arena frees, censuses) is deterministic.
    pub fn take_all(&mut self) -> Vec<(u64, BttEntry)> {
        let mut v: Vec<(u64, BttEntry)> = self.entries.iter().map(|(k, e, _)| (k, *e)).collect();
        v.sort_unstable_by_key(|&(k, _)| k);
        self.entries.clear();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_reads_count_no_lookup() {
        let mut btt = Btt::new();
        btt.insert(100, 0x40, 6, 1);
        let counts = btt.entries.pending_counts();
        assert_eq!(btt.peek(100).map(|e| e.base), Some(0x40));
        assert!(btt.peek(200).is_none());
        assert!(btt.is_resident(100));
        assert_eq!(btt.entries.pending_counts(), counts);
        assert!(btt.lookup(100).is_some());
        assert_eq!(btt.entries.pending_counts().0, counts.0 + 1);
    }

    #[test]
    fn insert_lookup_remove() {
        let mut btt = Btt::new();
        btt.insert(100, 0x40, 6, 1);
        let e = btt.lookup(100).unwrap();
        assert_eq!(e.base, 0x40);
        assert_eq!(e.generation, 1);
        assert!(btt.is_resident(100));
        assert!(btt.lookup(200).is_none());
        let removed = btt.remove(100).unwrap();
        assert_eq!(removed.base, 0x40);
        assert!(btt.lookup(100).is_none());
    }

    #[test]
    fn pin_unpin_counts() {
        let mut btt = Btt::new();
        btt.insert(1, 0, 6, 1);
        assert!(btt.pin(1).is_some());
        assert!(btt.pin(1).is_some());
        assert_eq!(btt.lookup(1).unwrap().pins, 2);
        assert_eq!(btt.unpin(1), 1);
        assert_eq!(btt.unpin(1), 0);
    }

    #[test]
    fn pin_missing_block_fails() {
        let mut btt = Btt::new();
        assert!(btt.pin(9).is_none());
    }

    #[test]
    fn moving_blocks_reject_pins() {
        let mut btt = Btt::new();
        btt.insert(1, 0, 6, 1);
        btt.set_moving(1);
        assert!(!btt.is_resident(1));
        assert!(btt.pin(1).is_none());
    }

    #[test]
    #[should_panic(expected = "pinned")]
    fn cannot_move_pinned_block() {
        let mut btt = Btt::new();
        btt.insert(1, 0, 6, 1);
        btt.pin(1);
        btt.set_moving(1);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn unpin_underflow_panics() {
        let mut btt = Btt::new();
        btt.insert(1, 0, 6, 1);
        btt.unpin(1);
    }
}
