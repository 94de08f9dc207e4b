//! Node allocation policy: global heap (the default) or a per-structure
//! [`ts_alloc::PoolHandle`].
//!
//! Every structure in this crate allocates its nodes through a
//! [`NodeAlloc`] captured at construction. The default, [`NodeAlloc::Global`],
//! is exactly the historical `Box::into_raw(Box::new(..))` path — zero
//! cost, no behavior change. [`NodeAlloc::Pool`] routes nodes through a
//! size-class pool handle instead: the per-thread size-class cache, batched depot
//! refills, and per-structure alloc/free/bytes-resident counters, which
//! is both the fast path (`malloc`/`free` never contend in the common
//! case, and freed nodes recycle LIFO-warm) and the pressure signal the
//! adaptive collect policy consumes.
//!
//! Deferred frees are the subtlety: SMR drop functions are stateless
//! `unsafe fn(*mut u8)`, chosen when the node is *retired* and run long
//! after, on any thread. [`NodeAlloc::drop_fn`] therefore hands each
//! structure a function pointer matching its policy — `Box::from_raw`
//! for `Global`, the pool's header-driven [`ts_alloc::dealloc_node`] for
//! `Pool` — and structures store it once and pass it to every `retire`.
//!
//! Nodes whose size is known only at run time (the skip list's
//! variable-height towers) use the raw-size twins
//! [`NodeAlloc::alloc_bytes`] and [`NodeAlloc::bytes_drop_fn`]. A pooled
//! block records its own size in its header; a global-heap block does
//! not, so under `Global` the structure supplies a drop function that
//! rebuilds the layout from the node itself.

use std::alloc::Layout;

use ts_smr::DropFn;

/// How a structure allocates and frees its nodes.
///
/// Cheap to clone (a pool handle is one pointer); cloning shares the
/// underlying pool and its counters.
#[derive(Debug, Clone, Copy, Default)]
pub enum NodeAlloc {
    /// `Box`-based allocation from the global heap — the zero-cost
    /// default, bit-for-bit the pre-pool behavior.
    #[default]
    Global,
    /// Per-structure node pool over the `ts-alloc` size classes.
    Pool(ts_alloc::PoolHandle),
}

impl NodeAlloc {
    /// Allocates a node holding `value`. Never null.
    #[inline]
    pub fn alloc<T>(&self, value: T) -> *mut T {
        match self {
            NodeAlloc::Global => Box::into_raw(Box::new(value)),
            NodeAlloc::Pool(pool) => pool.alloc_node(value),
        }
    }

    /// The matching stateless deallocator for nodes of type `T`: drops
    /// the value and releases its memory. This is what structures pass
    /// to `Guard::retire` (and use themselves for unpublished nodes and
    /// teardown walks), so a node is always freed the way it was
    /// allocated — even when the free runs on another thread after the
    /// structure is gone.
    #[inline]
    pub fn drop_fn<T>(&self) -> DropFn {
        match self {
            NodeAlloc::Global => drop_boxed::<T>,
            NodeAlloc::Pool(_) => drop_pooled::<T>,
        }
    }

    /// Allocates `layout.size()` uninitialized bytes for a node whose size
    /// is only known at run time. Never null (aborts on OOM). Pooled
    /// blocks are 16-byte aligned, so `layout.align()` must not exceed 16.
    #[inline]
    pub fn alloc_bytes(&self, layout: Layout) -> *mut u8 {
        match self {
            NodeAlloc::Global => {
                assert!(layout.size() > 0, "zero-sized node");
                // SAFETY: non-zero size, checked above.
                let p = unsafe { std::alloc::alloc(layout) };
                if p.is_null() {
                    std::alloc::handle_alloc_error(layout);
                }
                p
            }
            NodeAlloc::Pool(pool) => {
                assert!(layout.align() <= 16, "pooled nodes are 16-byte aligned");
                pool.alloc_bytes(layout.size())
            }
        }
    }

    /// The stateless deallocator for nodes from [`NodeAlloc::alloc_bytes`]:
    /// the pool's header-driven [`ts_alloc::dealloc_bytes`] under `Pool`,
    /// and `global` — which must rebuild the node's layout from the node
    /// and free it with `std::alloc::dealloc` — under `Global`.
    #[inline]
    pub fn bytes_drop_fn(&self, global: DropFn) -> DropFn {
        match self {
            NodeAlloc::Global => global,
            NodeAlloc::Pool(_) => ts_alloc::dealloc_bytes,
        }
    }
}

/// Frees a `Global`-allocated node.
///
/// # Safety
///
/// `p` came from `Box::into_raw(Box::<T>::new(..))`, freed at most once.
unsafe fn drop_boxed<T>(p: *mut u8) {
    drop(Box::from_raw(p.cast::<T>()));
}

/// Frees a `Pool`-allocated node.
///
/// # Safety
///
/// `p` came from `PoolHandle::alloc_node::<T>`, freed at most once.
unsafe fn drop_pooled<T>(p: *mut u8) {
    ts_alloc::dealloc_node(p.cast::<T>());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_global() {
        assert!(matches!(NodeAlloc::default(), NodeAlloc::Global));
    }

    #[test]
    fn global_roundtrip_uses_box() {
        let alloc = NodeAlloc::Global;
        let p = alloc.alloc(41u64);
        let drop_fn = alloc.drop_fn::<u64>();
        // SAFETY: allocated above with the matching policy.
        unsafe {
            assert_eq!(*p, 41);
            drop_fn(p as *mut u8);
        }
    }

    #[test]
    fn pooled_roundtrip_credits_the_handle() {
        let pool = ts_alloc::PoolHandle::new("node-alloc-test");
        let alloc = NodeAlloc::Pool(pool);
        let p = alloc.alloc([7u64; 10]);
        let drop_fn = alloc.drop_fn::<[u64; 10]>();
        // SAFETY: allocated above with the matching policy.
        unsafe {
            assert_eq!((*p)[9], 7);
            drop_fn(p as *mut u8);
        }
        let s = pool.stats();
        assert_eq!((s.allocs, s.frees, s.bytes_resident), (1, 1, 0));
    }

    #[test]
    fn raw_size_roundtrip_under_both_policies() {
        /// The `Global` drop fn a caller supplies: here every node is
        /// 40 bytes, so the layout is a constant.
        unsafe fn drop_forty(p: *mut u8) {
            std::alloc::dealloc(p, Layout::from_size_align(40, 8).unwrap());
        }
        let pool = ts_alloc::PoolHandle::new("node-alloc-bytes");
        for alloc in [NodeAlloc::Global, NodeAlloc::Pool(pool)] {
            let p = alloc.alloc_bytes(Layout::from_size_align(40, 8).unwrap());
            assert_eq!(p as usize % 8, 0);
            // SAFETY: 40 fresh bytes, freed once with the matching fn.
            unsafe {
                p.write_bytes(0xC3, 40);
                assert_eq!(p.add(39).read(), 0xC3);
                alloc.bytes_drop_fn(drop_forty)(p);
            }
        }
        let s = pool.stats();
        assert_eq!((s.allocs, s.frees, s.bytes_resident), (1, 1, 0));
    }
}
