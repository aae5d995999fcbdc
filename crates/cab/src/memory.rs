//! CAB memory: the data-memory image, its heap allocator, and the
//! page-grained protection hardware.
//!
//! §2.2 of the paper: "the CAB memory is split into two regions: one
//! intended for use as program memory, the other as data memory. …
//! The data memory region contains 1 Mbyte of RAM." Mailbox message
//! buffers live here as *real bytes at real offsets*, managed by a
//! first-fit free-list allocator (§3.3: "buffer space for messages is
//! allocated from a common heap"), because the zero-copy operations —
//! Enqueue, header trim — are pointer manipulations whose correctness
//! is worth testing against a real address space.
//!
//! §2.2 also: "Memory protection hardware on the CAB allows access
//! permissions to be associated with each 1 Kbyte page. Multiple
//! protection domains are provided, each with its own set of access
//! permissions. Changing the protection domain is accomplished by
//! reloading a single register."

/// Size of the data memory region (paper: 1 MiB of 35 ns SRAM).
pub const DATA_MEMORY_SIZE: usize = 1 << 20;
/// Protection page size (paper: 1 KiB).
pub const PAGE_SIZE: usize = 1024;
/// Number of protection domains.
pub const DOMAINS: usize = 8;

/// A CAB physical address in data memory.
pub type CabAddr = u32;

/// Access kinds checked by the protection hardware.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    Read,
    Write,
}

/// Per-page permissions for one domain.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PagePerms {
    pub read: bool,
    pub write: bool,
}

impl PagePerms {
    pub const RW: PagePerms = PagePerms { read: true, write: true };
    pub const RO: PagePerms = PagePerms { read: true, write: false };
    pub const NONE: PagePerms = PagePerms { read: false, write: false };

    fn allows(self, access: Access) -> bool {
        match access {
            Access::Read => self.read,
            Access::Write => self.write,
        }
    }
}

/// A memory-access fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemFault {
    /// Address or range beyond the 1 MiB region.
    OutOfRange { addr: CabAddr, len: usize },
    /// The current domain lacks permission on some page of the range.
    Protection { addr: CabAddr, access: Access, domain: u8 },
}

/// The data memory image plus protection state.
///
/// [`DATA_MEMORY_SIZE`] bounds every access, but only `[base, base +
/// backed)` is held in host memory: a zero-filled image that
/// [`DataMemory::cover`] grows in pages as the heap hands addresses out.
///
/// Protection is enforced through [`DataMemory::read`] /
/// [`DataMemory::write`] when a non-system domain is active; the system
/// domain (0) bypasses checks, as kernel-mode accesses did on the CAB.
/// Domains 1.. see no page until the first `protect` allocates their tables.
#[derive(Debug)]
pub struct DataMemory {
    /// The lowest backed address; below it is modelled out-of-band.
    base: CabAddr,
    /// Backing for `[base, base + bytes.len())`.
    bytes: Vec<u8>,
    /// perms[(domain - 1) * PAGES + page]; empty until the first `protect`.
    perms: Vec<PagePerms>,
    current_domain: u8,
}

/// Protection pages in the address space.
const PAGES: usize = DATA_MEMORY_SIZE / PAGE_SIZE;

impl DataMemory {
    /// An empty image whose backing will start at `base`.
    pub fn new(base: CabAddr) -> Self {
        DataMemory { base, bytes: Vec::new(), perms: Vec::new(), current_domain: 0 }
    }

    /// Bytes of the address space backed by host memory.
    pub fn backed(&self) -> usize {
        self.bytes.len()
    }

    /// Back `[base, end)` with zero-filled bytes, rounded up to a page;
    /// bytes already backed keep their contents.
    pub fn cover(&mut self, end: usize) {
        let want = end.saturating_sub(self.base as usize);
        if want > self.bytes.len() {
            let limit = DATA_MEMORY_SIZE - self.base as usize;
            self.bytes.resize(want.next_multiple_of(PAGE_SIZE).min(limit), 0);
        }
    }

    /// Switch the active protection domain ("reloading a single
    /// register").
    pub fn set_domain(&mut self, domain: u8) {
        assert!((domain as usize) < DOMAINS, "bad domain");
        self.current_domain = domain;
    }

    pub fn domain(&self) -> u8 {
        self.current_domain
    }

    /// Grant `perms` to `domain` over the page range covering
    /// `[addr, addr+len)`. The system domain always has full access.
    pub fn protect(&mut self, domain: u8, addr: CabAddr, len: usize, perms: PagePerms) {
        assert!((domain as usize) < DOMAINS, "bad domain");
        let first = addr as usize / PAGE_SIZE;
        let last = ((addr as usize + len.max(1) - 1) / PAGE_SIZE).min(PAGES - 1);
        self.cover((last + 1) * PAGE_SIZE);
        if domain == 0 {
            return;
        }
        if self.perms.is_empty() {
            self.perms = vec![PagePerms::NONE; (DOMAINS - 1) * PAGES];
        }
        let table = (domain as usize - 1) * PAGES;
        if let Some(pages) = self.perms.get_mut(table + first..=table + last) {
            pages.fill(perms);
        }
    }

    fn check(&self, addr: CabAddr, len: usize, access: Access) -> Result<(), MemFault> {
        let end = addr as usize + len;
        if end > DATA_MEMORY_SIZE {
            return Err(MemFault::OutOfRange { addr, len });
        }
        if self.current_domain == 0 || len == 0 {
            return Ok(());
        }
        let table = (self.current_domain as usize - 1) * PAGES;
        let first = addr as usize / PAGE_SIZE;
        let last = (end - 1) / PAGE_SIZE;
        for page in first..=last {
            if !self.perms.get(table + page).is_some_and(|p| p.allows(access)) {
                return Err(MemFault::Protection { addr, access, domain: self.current_domain });
            }
        }
        Ok(())
    }

    /// The image offsets of `[addr, addr+len)`.
    fn span(&self, addr: CabAddr, len: usize) -> std::ops::Range<usize> {
        let at = addr.checked_sub(self.base).expect("access below the backed image") as usize;
        at..at + len
    }

    /// Protected read of `len` bytes at `addr`.
    pub fn read(&self, addr: CabAddr, len: usize) -> Result<&[u8], MemFault> {
        self.check(addr, len, Access::Read)?;
        Ok(self.dma_read(addr, len))
    }

    /// Protected write at `addr`.
    pub fn write(&mut self, addr: CabAddr, data: &[u8]) -> Result<(), MemFault> {
        self.check(addr, data.len(), Access::Write)?;
        self.dma_write(addr, data);
        Ok(())
    }

    /// Unchecked system access (DMA engines bypass protection).
    pub fn dma_read(&self, addr: CabAddr, len: usize) -> &[u8] {
        &self.bytes[self.span(addr, len)]
    }

    /// Unchecked system write (DMA).
    pub fn dma_write(&mut self, addr: CabAddr, data: &[u8]) {
        self.cover(addr as usize + data.len());
        let span = self.span(addr, data.len());
        self.bytes[span].copy_from_slice(data);
    }
}

/// A first-fit free-list heap over a region of data memory.
///
/// Allocation metadata is kept out-of-band (in this struct, not in the
/// byte array): the CAB's allocator kept headers in memory, but
/// modelling header corruption is not a goal of this reproduction, and
/// out-of-band metadata lets property tests state exact invariants
/// (no-overlap, full coalescing).
#[derive(Debug)]
pub struct Heap {
    base: CabAddr,
    size: usize,
    /// Free blocks as (offset, len), sorted by offset, fully coalesced.
    free: Vec<(u32, u32)>,
    /// Live allocations (offset → len) for double-free detection.
    live: std::collections::BTreeMap<u32, u32>,
    /// High-water mark of bytes in use.
    pub peak_in_use: usize,
    in_use: usize,
}

/// Allocation alignment: SPARC doubleword.
pub const ALIGN: usize = 8;

impl Heap {
    pub fn new(base: CabAddr, size: usize) -> Self {
        assert_eq!(base as usize % ALIGN, 0);
        Heap {
            base,
            size,
            free: vec![(base, size as u32)],
            live: std::collections::BTreeMap::new(),
            peak_in_use: 0,
            in_use: 0,
        }
    }

    pub fn bytes_free(&self) -> usize {
        self.free.iter().map(|&(_, l)| l as usize).sum()
    }

    pub fn bytes_in_use(&self) -> usize {
        self.in_use
    }

    fn round(len: usize) -> u32 {
        (((len.max(1)) + ALIGN - 1) & !(ALIGN - 1)) as u32
    }

    /// First-fit allocation. Returns the address or `None` when no
    /// block fits (the caller blocks, as Begin_Put does).
    pub fn alloc(&mut self, len: usize) -> Option<CabAddr> {
        let want = Self::round(len);
        let idx = self.free.iter().position(|&(_, flen)| flen >= want)?;
        let (off, flen) = self.free[idx];
        if flen == want {
            self.free.remove(idx);
        } else {
            self.free[idx] = (off + want, flen - want);
        }
        self.live.insert(off, want);
        self.in_use += want as usize;
        self.peak_in_use = self.peak_in_use.max(self.in_use);
        Some(off)
    }

    /// Free a previous allocation, coalescing with neighbours.
    /// Panics on double-free or foreign pointers — those are runtime
    /// bugs, not recoverable conditions.
    pub fn free(&mut self, addr: CabAddr) {
        let len = self.live.remove(&addr).expect("free of unallocated address");
        self.in_use -= len as usize;
        let at = self.free.partition_point(|&(off, _)| off < addr);
        // coalesce with successor
        let mut len = len;
        if at < self.free.len() && addr + len == self.free[at].0 {
            len += self.free[at].1;
            self.free.remove(at);
        }
        // coalesce with predecessor
        if at > 0 {
            let (poff, plen) = self.free[at - 1];
            if poff + plen == addr {
                self.free[at - 1] = (poff, plen + len);
                return;
            }
        }
        self.free.insert(at, (addr, len));
    }

    /// The size recorded for a live allocation.
    pub fn size_of(&self, addr: CabAddr) -> Option<usize> {
        self.live.get(&addr).map(|&l| l as usize)
    }

    /// Invariant check used by property tests: free list sorted,
    /// coalesced, in-range, and disjoint from live allocations.
    pub fn check_invariants(&self) {
        let mut prev_end = self.base;
        let mut first = true;
        for &(off, len) in &self.free {
            assert!(len > 0, "empty free block");
            assert!(off >= self.base && (off + len) as usize <= self.base as usize + self.size);
            if !first {
                assert!(off > prev_end, "free list unsorted or overlapping");
                assert!(off != prev_end, "uncoalesced adjacent free blocks");
            }
            prev_end = off + len;
            first = false;
        }
        // live allocations disjoint from free blocks
        for (&a, &l) in &self.live {
            for &(off, flen) in &self.free {
                assert!(a + l <= off || a >= off + flen, "live allocation overlaps free block");
            }
        }
        // accounting
        let total: usize = self.bytes_free() + self.in_use;
        assert_eq!(total, self.size, "bytes leaked or double-counted");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut m = DataMemory::new(0);
        m.write(4096, b"payload").unwrap();
        assert_eq!(m.read(4096, 7).unwrap(), b"payload");
    }

    #[test]
    fn out_of_range_faults() {
        let mut m = DataMemory::new(0);
        assert!(matches!(
            m.write(DATA_MEMORY_SIZE as u32 - 2, b"xyz"),
            Err(MemFault::OutOfRange { .. })
        ));
        assert!(matches!(m.read(DATA_MEMORY_SIZE as u32, 1), Err(MemFault::OutOfRange { .. })));
        // the fault is architectural: it fires at the same bound however
        // little of the image is backed, and the last byte still works
        assert_eq!(m.backed(), 0);
        m.write(DATA_MEMORY_SIZE as u32 - 1, b"z").unwrap();
        assert_eq!(m.backed(), DATA_MEMORY_SIZE);
        assert!(matches!(m.read(DATA_MEMORY_SIZE as u32 - 1, 2), Err(MemFault::OutOfRange { .. })));
    }

    #[test]
    fn image_grows_in_pages_and_keeps_its_bytes() {
        let mut m = DataMemory::new(64 * 1024);
        assert_eq!(m.backed(), 0, "a fresh image backs nothing");
        m.dma_write(64 * 1024 + 10, b"early");
        assert_eq!(m.backed(), PAGE_SIZE);
        // a write across the old end grows the image; the bytes written
        // before the growth survive it
        let old_end = (64 * 1024 + PAGE_SIZE) as u32;
        m.write(old_end - 3, b"straddle").unwrap();
        assert_eq!(m.backed(), 2 * PAGE_SIZE);
        assert_eq!(m.dma_read(64 * 1024 + 10, 5), b"early");
        assert_eq!(m.read(old_end - 3, 8).unwrap(), b"straddle");
        // newly backed bytes read as zero
        assert_eq!(m.dma_read(old_end + 5, 4), &[0; 4]);
    }

    #[test]
    fn domains_see_nothing_before_the_first_protect() {
        let mut m = DataMemory::new(0);
        m.write(0, b"sys").unwrap();
        m.set_domain(3);
        assert!(matches!(m.read(0, 3), Err(MemFault::Protection { domain: 3, .. })));
        // granting one domain leaves every other one at NONE
        m.protect(1, 0, PAGE_SIZE, PagePerms::RW);
        assert!(matches!(m.read(0, 3), Err(MemFault::Protection { domain: 3, .. })));
        m.set_domain(1);
        assert_eq!(m.read(0, 3).unwrap(), b"sys");
    }

    #[test]
    fn protection_domains_enforced() {
        let mut m = DataMemory::new(0);
        m.protect(1, 0, 2048, PagePerms::RO);
        m.protect(1, 2048, 1024, PagePerms::RW);
        m.set_domain(1);
        assert!(m.read(0, 100).is_ok());
        assert!(matches!(
            m.write(0, b"no"),
            Err(MemFault::Protection { access: Access::Write, domain: 1, .. })
        ));
        assert!(m.write(2048, b"yes").is_ok());
        // unmapped page: no access at all
        assert!(matches!(m.read(8192, 4), Err(MemFault::Protection { .. })));
        // spanning ranges check every page: pages 1 (RO) and 2 (RW) are
        // both readable, page 2 (RW) and the unmapped page 3 are not
        assert!(m.read(1500, 1000).is_ok());
        assert!(matches!(
            m.read(2500, 1000),
            Err(MemFault::Protection { access: Access::Read, domain: 1, .. })
        ));
        assert!(matches!(m.write(1500, &[0; 1000]), Err(MemFault::Protection { .. })));
        // system domain bypasses
        m.set_domain(0);
        assert!(m.write(0, b"sys").is_ok());
    }

    #[test]
    fn heap_alloc_free_coalesce() {
        let mut h = Heap::new(0, 1024);
        let a = h.alloc(100).unwrap();
        let b = h.alloc(100).unwrap();
        let c = h.alloc(100).unwrap();
        assert_ne!(a, b);
        assert_ne!(b, c);
        h.check_invariants();
        // free middle, then first, then last: must coalesce to one block
        h.free(b);
        h.check_invariants();
        h.free(a);
        h.check_invariants();
        h.free(c);
        h.check_invariants();
        assert_eq!(h.bytes_free(), 1024);
        assert_eq!(h.free.len(), 1);
    }

    #[test]
    fn heap_first_fit_reuses_holes() {
        let mut h = Heap::new(0, 1024);
        let a = h.alloc(128).unwrap();
        let _b = h.alloc(128).unwrap();
        h.free(a);
        let c = h.alloc(64).unwrap();
        assert_eq!(c, a, "first fit should reuse the first hole");
        h.check_invariants();
    }

    #[test]
    fn heap_exhaustion_returns_none() {
        let mut h = Heap::new(0, 256);
        assert!(h.alloc(300).is_none());
        let a = h.alloc(256).unwrap();
        assert!(h.alloc(1).is_none());
        h.free(a);
        assert!(h.alloc(1).is_some());
    }

    #[test]
    #[should_panic(expected = "free of unallocated")]
    fn heap_double_free_panics() {
        let mut h = Heap::new(0, 256);
        let a = h.alloc(8).unwrap();
        h.free(a);
        h.free(a);
    }

    #[test]
    fn heap_alignment() {
        let mut h = Heap::new(0, 1024);
        let a = h.alloc(3).unwrap();
        let b = h.alloc(5).unwrap();
        assert_eq!(a as usize % ALIGN, 0);
        assert_eq!(b as usize % ALIGN, 0);
        assert_eq!(h.size_of(a), Some(8));
        // zero-size allocations still get a slot
        let z = h.alloc(0).unwrap();
        assert_eq!(h.size_of(z), Some(8));
    }

    #[test]
    fn peak_tracking() {
        let mut h = Heap::new(0, 1024);
        let a = h.alloc(512).unwrap();
        h.free(a);
        let _ = h.alloc(8).unwrap();
        assert_eq!(h.peak_in_use, 512);
        assert_eq!(h.bytes_in_use(), 8);
    }
}
