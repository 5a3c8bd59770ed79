//! An arena's host footprint: `Memory::new` reserves its whole limit as
//! address space, and the host backs a page only once the simulation
//! writes to it. Reading a never-written block maps the kernel's shared
//! zero page, which the resident set does not count.
//!
//! Linux only: the resident set is read from `/proc/self/status`. The one
//! test is alone in this binary, so no other test allocates in the process
//! while it measures.
#![cfg(target_os = "linux")]

use netsim::Memory;

const PAGE: i64 = 4096;

/// Block size class: 8 KiB blocks, two pages each.
const CLASS: u8 = 13;

/// 64 MiB of blocks in a 256 MiB arena.
const BLOCKS: i64 = (64 << 20) >> CLASS;

/// This process's resident set, in bytes.
fn rss() -> i64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib: i64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .expect("a VmRSS line in kB");
    kib << 10
}

/// Whether transparent huge pages back every anonymous region (`always`):
/// then a written region is backed in 2 MiB pages, a whole block each.
fn thp_always() -> bool {
    std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
        .is_ok_and(|s| s.contains("[always]"))
}

#[test]
fn arena_pages_are_backed_on_first_write() {
    let mut blocks = Vec::with_capacity(BLOCKS as usize);
    let before = rss();
    let mut mem = Memory::new(256 << 20);
    for _ in 0..BLOCKS {
        blocks.push(mem.alloc_block(CLASS).expect("the arena holds 64 MiB"));
    }
    for &b in &blocks {
        let block = mem.read(b, 1 << CLASS).expect("allocated");
        assert!(block.iter().all(|&x| x == 0), "a fresh block reads zeros");
    }
    let read = rss();
    assert!(
        read - before < 4 << 20,
        "allocating and reading 64 MiB of blocks made {} KiB resident",
        (read - before) >> 10
    );

    for &b in &blocks {
        mem.write(b, &[1]).expect("allocated");
    }
    let per_block = (rss() - read) / BLOCKS;
    let backed = if thp_always() { 2 * PAGE } else { PAGE };
    assert!(
        (backed * 9 / 10..=backed * 11 / 10).contains(&per_block),
        "one written byte per block made {per_block} bytes resident per block, expected ~{backed}"
    );
}
