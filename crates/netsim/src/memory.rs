//! Per-locality memory: a byte arena plus a power-of-two block allocator.
//!
//! Global-address-space *blocks* live in these arenas; a "physical address"
//! in the simulator is a byte offset into a locality's arena. The allocator
//! is segregated by power-of-two size class — exactly the granularity of the
//! GVA encoding's size classes — with a bump pointer for fresh storage and a
//! per-class free list for reuse (blocks are freed on migration hand-off).

/// A physical address: a byte offset into one locality's arena.
pub type PhysAddr = u64;

/// Error type for arena operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemError {
    /// The arena cannot grow to satisfy the request.
    OutOfMemory,
    /// An access fell outside the arena or its target allocation.
    Bounds,
}

/// A locality's memory arena and block allocator: one zeroed reservation
/// of the whole limit, bumped through by `top`. The limit is reserved
/// address space; the host backs a page when the simulation first writes
/// it (a read of an unwritten page maps the shared zero page).
pub struct Memory {
    /// The reservation (`len()` is the limit).
    data: Vec<u8>,
    top: usize,
    /// Freed blocks by size class (LIFO), indexed by class: every RDMA get
    /// allocates and frees a landing buffer here.
    free: Vec<Vec<PhysAddr>>,
    allocated_bytes: u64,
    live_blocks: u64,
}

impl Memory {
    /// Reserve `limit` bytes of address space (above glibc's 32 MiB mmap
    /// threshold, backed on first write; in 2 MiB pages under transparent
    /// huge pages `always`): a live-heap count must not count it as resident.
    pub fn new(limit: usize) -> Memory {
        Memory {
            data: vec![0; limit],
            top: 0,
            free: Vec::new(),
            allocated_bytes: 0,
            live_blocks: 0,
        }
    }

    /// Bytes currently backing live allocations.
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated_bytes
    }

    /// Number of live blocks.
    pub fn live_blocks(&self) -> u64 {
        self.live_blocks
    }

    /// Allocate one block of size class `class` (block size `1 << class`
    /// bytes), zero-initialized.
    pub fn alloc_block(&mut self, class: u8) -> Result<PhysAddr, MemError> {
        let size = 1usize << class;
        let reused = self.free.get_mut(usize::from(class)).and_then(Vec::pop);
        let addr = if let Some(addr) = reused {
            // Reused storage must be zeroed: a migrated-in block overwrites
            // it anyway, but fresh allocations observe zeros.
            let a = addr as usize;
            self.data[a..a + size].fill(0);
            addr
        } else {
            if self.top + size > self.data.len() {
                return Err(MemError::OutOfMemory);
            }
            self.top += size;
            (self.top - size) as PhysAddr
        };
        self.allocated_bytes += size as u64;
        self.live_blocks += 1;
        Ok(addr)
    }

    /// Return a block of size class `class` at `addr` to the free list.
    pub fn free_block(&mut self, addr: PhysAddr, class: u8) {
        let class_ix = usize::from(class);
        if self.free.len() <= class_ix {
            self.free.resize_with(class_ix + 1, Vec::new);
        }
        self.free[class_ix].push(addr);
        self.allocated_bytes = self.allocated_bytes.saturating_sub(1 << class);
        self.live_blocks = self.live_blocks.saturating_sub(1);
    }

    /// Read `len` bytes starting at `addr`.
    pub fn read(&self, addr: PhysAddr, len: usize) -> Result<&[u8], MemError> {
        let a = addr as usize;
        let live = &self.data[..self.top];
        live.get(a..a + len).ok_or(MemError::Bounds)
    }

    /// Copy `src` into the arena starting at `addr`.
    pub fn write(&mut self, addr: PhysAddr, src: &[u8]) -> Result<(), MemError> {
        self.slice_mut(addr, src.len())?.copy_from_slice(src);
        Ok(())
    }

    /// Mutable view of `len` bytes at `addr` (action handlers operate on
    /// pinned blocks through this).
    pub fn slice_mut(&mut self, addr: PhysAddr, len: usize) -> Result<&mut [u8], MemError> {
        let a = addr as usize;
        let live = &mut self.data[..self.top];
        live.get_mut(a..a + len).ok_or(MemError::Bounds)
    }

    /// Host-cache hint: start loading the host cache lines that hold
    /// `[addr, addr + len)`, so that an access the simulation is about to
    /// make there does not wait for host memory. It changes nothing a
    /// simulation can observe: no byte, no allocator state. An address
    /// outside the live arena, and every address on a host other than
    /// x86_64, is ignored.
    #[inline]
    pub fn prefetch(&self, addr: PhysAddr, len: usize) {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            const LINE: usize = 64;
            let Ok(a) = usize::try_from(addr) else {
                return;
            };
            let end = a.saturating_add(len).min(self.top);
            let Some(bytes) = self.data.get(a..end) else {
                return;
            };
            let Some(last) = bytes.len().checked_sub(1) else {
                return;
            };
            // Step from the line that holds the first byte to the one that
            // holds the last, whatever the bytes' alignment.
            let first = bytes.as_ptr();
            let skew = first as usize % LINE;
            for step in (0..=skew + last).step_by(LINE) {
                // SAFETY: a prefetch is a hint that never faults and
                // reads no value into the program, so any address is
                // sound; SSE, which it needs, is part of x86_64.
                unsafe { _mm_prefetch::<_MM_HINT_T0>(first.wrapping_add(step).cast()) };
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = (addr, len);
    }

    /// Atomic-style read-modify-write of a little-endian `u64` cell
    /// (the GUPS update primitive).
    pub fn xor_u64(&mut self, addr: PhysAddr, val: u64) -> Result<u64, MemError> {
        let cell: &mut [u8; 8] = self.slice_mut(addr, 8)?.try_into().expect("8 bytes");
        let new = u64::from_le_bytes(*cell) ^ val;
        *cell = new.to_le_bytes();
        Ok(new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_zeroed_and_distinct() {
        let mut m = Memory::new(1 << 20);
        let a = m.alloc_block(6).unwrap();
        let b = m.alloc_block(6).unwrap();
        assert_ne!(a, b);
        assert_eq!(m.read(a, 64).unwrap(), &[0u8; 64][..]);
        assert_eq!(m.live_blocks(), 2);
        assert_eq!(m.allocated_bytes(), 128);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut m = Memory::new(1 << 20);
        let a = m.alloc_block(8).unwrap();
        let payload: Vec<u8> = (0..=255).collect();
        m.write(a, &payload).unwrap();
        assert_eq!(m.read(a, 256).unwrap(), &payload[..]);
    }

    #[test]
    fn free_list_reuses_and_rezeroes() {
        let mut m = Memory::new(1 << 20);
        let a = m.alloc_block(6).unwrap();
        m.write(a, &[0xAB; 64]).unwrap();
        m.free_block(a, 6);
        assert_eq!(m.live_blocks(), 0);
        let b = m.alloc_block(6).unwrap();
        assert_eq!(a, b, "free list should hand the slot back");
        assert_eq!(m.read(b, 64).unwrap(), &[0u8; 64][..]);
    }

    #[test]
    fn free_lists_are_per_class() {
        let mut m = Memory::new(1 << 20);
        let a = m.alloc_block(6).unwrap();
        m.free_block(a, 6);
        let c = m.alloc_block(7).unwrap();
        assert_ne!(a, c, "different class must not reuse the slot");
    }

    #[test]
    fn out_of_memory_is_reported() {
        let mut m = Memory::new(100);
        assert_eq!(m.alloc_block(7), Err(MemError::OutOfMemory)); // 128 > 100
        let a = m.alloc_block(6); // 64 <= 100
        assert!(a.is_ok());
        assert_eq!(m.alloc_block(6), Err(MemError::OutOfMemory));
    }

    #[test]
    fn bounds_are_checked() {
        let mut m = Memory::new(1 << 10);
        let a = m.alloc_block(6).unwrap();
        assert_eq!(m.read(a + 60, 8), Err(MemError::Bounds));
        assert_eq!(m.write(1 << 20, &[1]), Err(MemError::Bounds));
        assert!(m.read(a, 64).is_ok());
    }

    #[test]
    fn prefetch_is_inert_at_any_address() {
        let limit = 1 << 12;
        let mut m = Memory::new(limit);
        let a = m.alloc_block(7).unwrap();
        m.write(a, &[0x5A; 128]).unwrap();
        let top = a + 128;
        for (addr, len) in [
            (a + 60, 8),
            (a, 128),
            (top, 64),
            (top + 1, 64),
            (limit as PhysAddr + 1, 8),
            (u64::MAX, 8),
            (u64::MAX - 3, usize::MAX),
        ] {
            m.prefetch(addr, len);
            assert_eq!(m.read(a, 128).unwrap(), &[0x5A; 128][..]);
            assert_eq!((m.top, m.allocated_bytes(), m.live_blocks()), (128, 128, 1));
            assert!(m.data.iter().skip(128).all(|&b| b == 0), "{addr:#x}");
        }
    }

    #[test]
    fn xor_u64_read_modify_write() {
        let mut m = Memory::new(1 << 10);
        let a = m.alloc_block(6).unwrap();
        assert_eq!(m.xor_u64(a, 0xDEAD).unwrap(), 0xDEAD);
        assert_eq!(m.xor_u64(a, 0xDEAD).unwrap(), 0);
        assert_eq!(m.xor_u64(a + 64, 1), Err(MemError::Bounds));
    }
}
