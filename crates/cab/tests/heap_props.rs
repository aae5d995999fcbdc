//! Property tests on the CAB heap allocator: the invariants the
//! mailbox buffer manager depends on (§3.3: "buffer space for messages
//! is allocated from a common heap").

use nectar_sim::check;

use nectar_cab::memory::{Heap, ALIGN};

#[derive(Clone, Debug)]
enum Op {
    Alloc(usize),
    Free(usize), // index into live allocations, modulo
}

fn ops(g: &mut check::Gen) -> Vec<Op> {
    let n = g.usize_in(1, 200);
    (0..n)
        .map(|_| {
            if g.rng.chance(0.5) {
                Op::Alloc(g.usize_in(1, 5000))
            } else {
                Op::Free(g.usize_in(0, 64))
            }
        })
        .collect()
}

/// After any sequence of allocs and frees: the free list stays
/// sorted, coalesced and disjoint from live allocations; no bytes
/// leak; allocations never overlap and respect alignment.
#[test]
fn heap_invariants_hold_under_churn() {
    check::cases(128, |g| {
        let ops = ops(g);
        let size = 64 * 1024;
        let mut h = Heap::new(0, size);
        let mut live: Vec<(u32, usize)> = Vec::new();
        for op in ops {
            match op {
                Op::Alloc(n) => {
                    if let Some(addr) = h.alloc(n) {
                        assert_eq!(addr as usize % ALIGN, 0);
                        // no overlap with any live allocation
                        let len = h.size_of(addr).unwrap();
                        for &(a, l) in &live {
                            assert!(
                                addr as usize + len <= a as usize
                                    || a as usize + l <= addr as usize,
                                "overlap: new ({addr},{len}) vs live ({a},{l})"
                            );
                        }
                        live.push((addr, len));
                    }
                }
                Op::Free(i) => {
                    if !live.is_empty() {
                        let (addr, _) = live.swap_remove(i % live.len());
                        h.free(addr);
                    }
                }
            }
            h.check_invariants();
        }
        // free everything: the heap must return to one maximal block
        for (addr, _) in live.drain(..) {
            h.free(addr);
        }
        h.check_invariants();
        assert_eq!(h.bytes_free(), size);
        assert_eq!(h.bytes_in_use(), 0);
    });
}

/// Writes through one allocation never corrupt another.
#[test]
fn allocations_do_not_alias() {
    use nectar_cab::memory::DataMemory;
    check::cases(128, |g| {
        let count = g.usize_in(2, 30);
        let sizes: Vec<usize> = (0..count).map(|_| g.usize_in(1, 600)).collect();
        let mut mem = DataMemory::new(65536);
        let mut h = Heap::new(65536, 64 * 1024);
        let mut allocs = Vec::new();
        for (i, &n) in sizes.iter().enumerate() {
            if let Some(addr) = h.alloc(n) {
                let fill = vec![(i as u8).wrapping_mul(37).wrapping_add(1); n];
                mem.dma_write(addr, &fill);
                allocs.push((addr, fill));
            }
        }
        for (addr, fill) in &allocs {
            assert_eq!(mem.dma_read(*addr, fill.len()), &fill[..]);
        }
    });
}
