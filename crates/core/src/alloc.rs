//! Collective global allocation.
//!
//! Mirrors `hpx_gas_alloc_cyclic` and friends: the driver allocates a global
//! array of power-of-two blocks spread over the cluster by a
//! [`Distribution`]. Allocation is a boot-time collective — every locality
//! learns the block set synchronously, which is also when PGAS mode performs
//! its rkey/physical-address exchange (the [`PgasMap`]) and network-managed
//! AGAS installs the initial NIC translation entries. In every mode the home
//! records the block in its BTT, the one placement record a target reads.

use crate::dist::Distribution;
use crate::gva::Gva;
use crate::{GasMode, GasWorld};
use netsim::{Engine, PhysAddr};
use std::collections::HashMap;

/// The PGAS initiator's address table: block key → physical base at the
/// block's home. Models the symmetric-allocation/rkey-exchange knowledge
/// every PGAS initiator has. Only a PGAS initiator's remote access reads
/// it; a target resolves its blocks through its BTT, and AGAS modes never
/// touch it.
pub type PgasMap = HashMap<u64, PhysAddr>;

/// A handle to a collectively allocated global array.
#[derive(Clone, Debug)]
pub struct GlobalArray {
    /// Size class of every block.
    pub class: u8,
    /// The distribution the array was created with.
    pub dist: Distribution,
    /// The blocks, in allocation (index) order.
    pub blocks: Vec<Gva>,
}

impl GlobalArray {
    /// Block size in bytes.
    pub fn block_size(&self) -> u64 {
        1u64 << self.class
    }

    /// Number of blocks.
    pub fn len_blocks(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// Total bytes across all blocks.
    pub fn total_bytes(&self) -> u64 {
        self.len_blocks() * self.block_size()
    }

    /// The `i`-th block's base address.
    pub fn block(&self, i: u64) -> Gva {
        self.blocks[i as usize]
    }

    /// The GVA of global byte `byte` (array-linear addressing).
    pub fn at_byte(&self, byte: u64) -> Gva {
        let bs = self.block_size();
        self.blocks[(byte / bs) as usize].with_offset(byte % bs)
    }

    /// Split the linear byte range `[start, start+len)` into per-block
    /// `(gva, len)` chunks — the unit a single memput/memget can address.
    pub fn chunks(&self, start: u64, len: u64) -> Vec<(Gva, u64)> {
        assert!(start + len <= self.total_bytes(), "range outside array");
        let bs = self.block_size();
        let mut out = Vec::new();
        let mut cur = start;
        let end = start + len;
        while cur < end {
            let in_block = bs - (cur % bs);
            let take = in_block.min(end - cur);
            out.push((self.at_byte(cur), take));
            cur += take;
        }
        out
    }
}

/// Collectively allocate `n_blocks` blocks of size class `class`,
/// distributed by `dist`. Blocks are zeroed, made resident at their homes
/// (`ops::make_resident`: the BTT entry, plus the NIC translation
/// entry under AGAS-NET) and registered with their home directories; under
/// PGAS each base is also entered into the initiators' [`PgasMap`].
pub fn alloc_array<S: GasWorld>(
    eng: &mut Engine<S>,
    n_blocks: u64,
    class: u8,
    dist: Distribution,
) -> GlobalArray {
    let nloc = eng.state.cluster_ref().len() as u32;
    let mode = eng.state.gas_mode();
    let mut blocks = Vec::with_capacity(n_blocks as usize);
    for i in 0..n_blocks {
        let home = dist.home(i, n_blocks, nloc);
        let seq = eng.state.gas(home).alloc_seq(class);
        let gva = Gva::new(home, class, seq, 0);
        let key = gva.block_key();
        let phys = eng
            .state
            .cluster()
            .mem_mut(home)
            .alloc_block(class)
            .expect("arena exhausted during global allocation");
        crate::ops::make_resident(eng, home, key, phys, class, 1);
        eng.state.gas(home).dir.register(key, home);
        if mode == GasMode::Pgas {
            eng.state.pgas().insert(key, phys);
        }
        blocks.push(gva);
    }
    GlobalArray {
        class,
        dist,
        blocks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array_of(class: u8, n: u64) -> GlobalArray {
        GlobalArray {
            class,
            dist: Distribution::Cyclic,
            blocks: (0..n)
                .map(|i| Gva::new((i % 4) as u32, class, i / 4, 0))
                .collect(),
        }
    }

    #[test]
    fn linear_addressing() {
        let a = array_of(10, 8); // 1 KiB blocks
        assert_eq!(a.block_size(), 1024);
        assert_eq!(a.total_bytes(), 8192);
        assert_eq!(a.at_byte(0), a.block(0));
        assert_eq!(a.at_byte(1023).offset(), 1023);
        assert_eq!(a.at_byte(1024).block_base(), a.block(1));
        assert_eq!(a.at_byte(5000).block_base(), a.block(4));
        assert_eq!(a.at_byte(5000).offset(), 5000 % 1024);
    }

    #[test]
    fn chunks_respect_block_boundaries() {
        let a = array_of(6, 4); // 64 B blocks
        let chunks = a.chunks(50, 100);
        // 50..64 (14 bytes in block 0), 64..128 (64 in block 1), 128..150 (22 in block 2)
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0], (a.block(0).with_offset(50), 14));
        assert_eq!(chunks[1], (a.block(1), 64));
        assert_eq!(chunks[2], (a.block(2), 22));
        assert_eq!(chunks.iter().map(|&(_, l)| l).sum::<u64>(), 100);
    }

    #[test]
    fn chunks_within_one_block() {
        let a = array_of(6, 4);
        let chunks = a.chunks(10, 20);
        assert_eq!(chunks, vec![(a.block(0).with_offset(10), 20)]);
    }

    #[test]
    #[should_panic(expected = "outside array")]
    fn chunks_out_of_range_panics() {
        let a = array_of(6, 4);
        let _ = a.chunks(200, 100);
    }
}
