//! Property tests for the node-pool handles: arbitrary alloc/dealloc
//! interleavings across size classes against a `HashMap` oracle — live
//! blocks never alias (within or across classes), payloads survive
//! magazine refill/return round-trips untouched, and the per-handle
//! counters balance once everything is freed.

use std::collections::HashMap;

use proptest::prelude::*;
use ts_alloc::pool::{dealloc_bytes, dealloc_node, PoolHandle, HEADER_BYTES};
use ts_alloc::size_classes::{class_of, class_size};

/// One pooled node shape per interesting size region: three small
/// classes, one mid class, and one past `MAX_SMALL` (system passthrough).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    W2,   // 16 B payload  -> class of 32
    W8,   // 64 B payload  -> mid class
    W24,  // 192 B payload -> node-sized class
    W120, // 960 B payload -> large class
    W700, // 5600 B payload -> system passthrough
}

impl Shape {
    fn words(self) -> usize {
        match self {
            Shape::W2 => 2,
            Shape::W8 => 8,
            Shape::W24 => 24,
            Shape::W120 => 120,
            Shape::W700 => 700,
        }
    }

    /// Bytes the pool actually reserves for this shape (block or exact).
    fn resident_bytes(self) -> usize {
        let total = HEADER_BYTES + self.words() * 8;
        match class_of(total) {
            Some(c) => class_size(c),
            None => total,
        }
    }

    fn alloc(self, pool: &PoolHandle, tag: u64) -> usize {
        // Each arm monomorphizes a distinct node type; every word of the
        // payload carries the tag so aliasing clobbers are detectable.
        match self {
            Shape::W2 => pool.alloc_node([tag; 2]) as usize,
            Shape::W8 => pool.alloc_node([tag; 8]) as usize,
            Shape::W24 => pool.alloc_node([tag; 24]) as usize,
            Shape::W120 => pool.alloc_node([tag; 120]) as usize,
            Shape::W700 => pool.alloc_node([tag; 700]) as usize,
        }
    }

    /// Checks every payload word still holds `tag`, then frees the node.
    ///
    /// # Safety
    ///
    /// `addr` came from `alloc` with the same shape and is freed once.
    unsafe fn check_and_free(self, addr: usize, tag: u64) -> bool {
        let words = self.words();
        let p = addr as *const u64;
        for i in 0..words {
            if p.add(i).read() != tag {
                return false;
            }
        }
        match self {
            Shape::W2 => dealloc_node(addr as *mut [u64; 2]),
            Shape::W8 => dealloc_node(addr as *mut [u64; 8]),
            Shape::W24 => dealloc_node(addr as *mut [u64; 24]),
            Shape::W120 => dealloc_node(addr as *mut [u64; 120]),
            Shape::W700 => dealloc_node(addr as *mut [u64; 700]),
        }
        true
    }
}

#[derive(Debug, Clone)]
enum PoolOp {
    Alloc(Shape),
    /// Free the `idx % live`-th live node.
    Free(usize),
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::W2),
        Just(Shape::W8),
        Just(Shape::W24),
        Just(Shape::W120),
        Just(Shape::W700),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pool_interleavings_match_oracle(
        ops in proptest::collection::vec(
            prop_oneof![
                shape_strategy().prop_map(PoolOp::Alloc),
                (0usize..64).prop_map(PoolOp::Free),
            ],
            1..250,
        )
    ) {
        let pool = PoolHandle::new("proptest-pool");
        // Oracle: address -> (shape, tag). Insertion order kept separately
        // so Free picks deterministically.
        let mut oracle: HashMap<usize, (Shape, u64)> = HashMap::new();
        let mut order: Vec<usize> = Vec::new();
        let mut next_tag = 1u64;
        let mut expected_allocs = 0usize;
        let mut expected_frees = 0usize;

        for op in ops {
            match op {
                PoolOp::Alloc(shape) => {
                    let addr = shape.alloc(&pool, next_tag);
                    prop_assert!(addr != 0);
                    prop_assert_eq!(addr % 16, 0, "payload must be 16-aligned");
                    // No aliasing with any live node, same class or not.
                    prop_assert!(
                        oracle.insert(addr, (shape, next_tag)).is_none(),
                        "pool handed out a live address twice"
                    );
                    order.push(addr);
                    next_tag += 1;
                    expected_allocs += 1;
                }
                PoolOp::Free(idx) => {
                    if order.is_empty() {
                        continue;
                    }
                    let addr = order.swap_remove(idx % order.len());
                    let (shape, tag) = oracle.remove(&addr).unwrap();
                    // SAFETY: live node from this run, freed exactly once.
                    prop_assert!(
                        unsafe { shape.check_and_free(addr, tag) },
                        "payload clobbered while live"
                    );
                    expected_frees += 1;
                }
            }
        }

        // Mid-run counters: resident bytes must equal the oracle's notion
        // of what is still live.
        let live_bytes: usize = oracle.values().map(|(s, _)| s.resident_bytes()).sum();
        let mid = pool.stats();
        prop_assert_eq!(mid.allocs, expected_allocs);
        prop_assert_eq!(mid.frees, expected_frees);
        prop_assert_eq!(mid.bytes_resident, live_bytes);

        // Drain the survivors; counters must balance exactly.
        for addr in order {
            let (shape, tag) = oracle.remove(&addr).unwrap();
            // SAFETY: as above.
            prop_assert!(unsafe { shape.check_and_free(addr, tag) });
        }
        let end = pool.stats();
        prop_assert_eq!(end.allocs, end.frees, "counters must balance at drop");
        prop_assert_eq!(end.bytes_resident, 0);
    }

    /// Magazine round-trips: blocks freed to the magazine come back out
    /// on the next allocation of the same class with contents rewritten,
    /// and pure LIFO cycling performs no depot refills after warmup.
    #[test]
    fn magazine_roundtrip_recycles_without_refills(cycles in 10usize..200) {
        let pool = PoolHandle::new("proptest-magazine");
        let warm: *mut [u64; 8] = {
            let p = pool.alloc_node([0u64; 8]);
            // SAFETY: allocated above.
            unsafe { dealloc_node(p) };
            p
        };
        let refills_after_warmup = pool.stats().magazine_refills;
        for i in 0..cycles {
            let p: *mut [u64; 8] = pool.alloc_node([i as u64; 8]);
            // LIFO magazine: the warm block keeps coming back.
            prop_assert_eq!(p, warm);
            // SAFETY: allocated above.
            unsafe {
                prop_assert_eq!((*p)[7], i as u64);
                dealloc_node(p);
            }
        }
        prop_assert_eq!(pool.stats().magazine_refills, refills_after_warmup);
    }

    /// Raw-size nodes: `alloc_bytes` hands out 16-aligned, non-aliasing
    /// blocks of exactly the requested payload size (any size, class or
    /// passthrough), charges the block its size class implies, and
    /// `dealloc_bytes` returns every one of them.
    #[test]
    fn alloc_bytes_roundtrip(sizes in proptest::collection::vec(1usize..6000, 1..64)) {
        let pool = PoolHandle::new("proptest-bytes");
        let mut live: Vec<(*mut u8, usize, u8)> = Vec::new();
        let mut resident = 0usize;
        for (i, &size) in sizes.iter().enumerate() {
            let p = pool.alloc_bytes(size);
            prop_assert_eq!(p as usize % 16, 0, "payload must be 16-aligned");
            let tag = i as u8 | 1;
            // SAFETY: `size` fresh bytes.
            unsafe { p.write_bytes(tag, size) };
            live.push((p, size, tag));
            let total = HEADER_BYTES + size;
            resident += class_of(total).map_or(total, class_size);
        }
        let s = pool.stats();
        prop_assert_eq!(s.allocs, sizes.len());
        prop_assert_eq!(s.bytes_resident, resident);
        for (p, size, tag) in live {
            // SAFETY: live block of `size` bytes, freed exactly once.
            unsafe {
                prop_assert_eq!(p.read(), tag, "payload clobbered while live");
                prop_assert_eq!(p.add(size - 1).read(), tag, "payload clobbered while live");
                dealloc_bytes(p);
            }
        }
        let end = pool.stats();
        prop_assert_eq!((end.allocs, end.frees, end.bytes_resident), (sizes.len(), sizes.len(), 0));
    }
}
