//! Per-structure node pools: explicit allocation handles over the
//! size-class machinery.
//!
//! The global-hook path ([`crate::TsAlloc`]) routes *every* allocation in
//! the process through the size classes. A [`PoolHandle`] is the opposite
//! end of the design space: an explicit, per-data-structure handle whose
//! `alloc_node::<T>()`/[`dealloc_node`] entry points (and their raw-size
//! twins `alloc_bytes`/[`dealloc_bytes`]) go straight to the thread cache
//! ([`crate::cache`]) — no `GlobalAlloc` dispatch, no layout round-trip,
//! and per-handle accounting (allocs, frees, magazine refills, bytes
//! resident) that the benchmark harness reads per structure instead of
//! per process.
//!
//! Layout: a pooled node is a 16-byte `Header` plus one block from
//! `cache::alloc(class)`. The header records the block's size class and
//! the owning handle's counters. Deferred frees (SMR `retire` drop
//! functions are plain `unsafe fn(*mut u8)` with no captured state)
//! recover everything they need from the header, so a node allocated
//! through any handle can be freed from any thread at any later time with
//! just its pointer.
//!
//! Pools keep no cache of their own: the thread cache is shared with the
//! global hook, and blocks of one class are fungible between them. A
//! handle's `magazine_refills` counts the cache refills its own
//! allocations triggered.
//!
//! Handle counters are leaked (`&'static`): a few words per handle ever
//! created, in exchange for deferred frees never racing a handle drop.

use core::marker::PhantomData;
use core::sync::atomic::{AtomicUsize, Ordering};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::Mutex;

use crate::cache;
use crate::size_classes::{class_of, class_size, CLASS_ALIGN};

/// Bytes of bookkeeping preceding every pooled node. 16 keeps the payload
/// on the same alignment the size classes guarantee.
pub const HEADER_BYTES: usize = 16;

/// Class tag for allocations too large for any size class (served by the
/// system allocator, but still headered and counted).
const LARGE_CLASS: u32 = u32::MAX;

/// Bookkeeping stored immediately before each pooled node.
#[repr(C)]
struct Header {
    /// The owning handle's counters; `'static` by construction.
    counters: *const PoolCounters,
    /// Size-class index, or [`LARGE_CLASS`] for system-allocator blocks.
    class: u32,
    /// Total allocation size including this header (used to rebuild the
    /// layout of large blocks; informational for class blocks).
    size: u32,
}

/// Per-handle counters (relaxed; diagnostics and benches only). Leaked on
/// handle creation so deferred frees can update them forever.
pub struct PoolCounters {
    name: &'static str,
    allocs: AtomicUsize,
    frees: AtomicUsize,
    magazine_refills: AtomicUsize,
    bytes_resident: AtomicUsize,
}

/// Bytes currently resident across *all* pool handles in the process —
/// the allocator-pressure signal adaptive collect policies subscribe to.
static POOL_BYTES_RESIDENT: AtomicUsize = AtomicUsize::new(0);

/// Every handle's counters ever created, for [`pool_stats`].
static REGISTRY: Mutex<Vec<&'static PoolCounters>> = Mutex::new(Vec::new());

/// A point-in-time copy of one handle's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// The label the handle was created with.
    pub name: &'static str,
    /// Nodes handed out by `alloc_node` / `alloc_bytes`.
    pub allocs: usize,
    /// Nodes returned through `dealloc_node` / `dealloc_bytes`.
    pub frees: usize,
    /// Thread-cache refills from the central depot (each one lock
    /// acquisition) attributed to this handle's allocations.
    pub magazine_refills: usize,
    /// Bytes currently resident (allocated minus freed, in block sizes).
    pub bytes_resident: usize,
}

impl PoolCounters {
    fn snapshot(&self) -> PoolStats {
        PoolStats {
            name: self.name,
            allocs: self.allocs.load(Ordering::Relaxed),
            frees: self.frees.load(Ordering::Relaxed),
            magazine_refills: self.magazine_refills.load(Ordering::Relaxed),
            bytes_resident: self.bytes_resident.load(Ordering::Relaxed),
        }
    }
}

/// Snapshots of every pool handle ever created, in creation order.
pub fn pool_stats() -> Vec<PoolStats> {
    REGISTRY
        .lock()
        .expect("pool registry poisoned")
        .iter()
        .map(|c| c.snapshot())
        .collect()
}

/// Bytes currently resident across all pool handles (process-wide).
/// Cheap (one relaxed load): safe to poll from hot paths such as an
/// adaptive collect trigger.
pub fn pool_bytes_resident() -> usize {
    POOL_BYTES_RESIDENT.load(Ordering::Relaxed)
}

/// An explicit allocation handle, typically one per data structure.
///
/// Cloning is free (the handle is one pointer to leaked counters); clones
/// share the same accounting. Deallocation does not need the handle at
/// all — see [`dealloc_node`].
///
/// ```
/// use ts_alloc::pool::{dealloc_node, PoolHandle};
///
/// let pool = PoolHandle::new("example");
/// let p: *mut [u64; 4] = pool.alloc_node([1, 2, 3, 4]);
/// // SAFETY: freshly allocated above, freed exactly once.
/// unsafe {
///     assert_eq!((*p)[2], 3);
///     dealloc_node(p);
/// }
/// let s = pool.stats();
/// assert_eq!((s.allocs, s.frees, s.bytes_resident), (1, 1, 0));
/// ```
#[derive(Clone, Copy)]
pub struct PoolHandle {
    counters: &'static PoolCounters,
}

impl core::fmt::Debug for PoolHandle {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PoolHandle")
            .field("name", &self.counters.name)
            .finish_non_exhaustive()
    }
}

/// Monomorphization-time guard: pooled blocks only guarantee 16-byte
/// alignment, so over-aligned node types must not go through a pool.
struct AlignCheck<T>(PhantomData<T>);
impl<T> AlignCheck<T> {
    const OK: () = assert!(
        core::mem::align_of::<T>() <= CLASS_ALIGN,
        "pooled node types must not require alignment above 16"
    );
}

impl PoolHandle {
    /// Creates a handle labeled `name` (shown in [`pool_stats`]). The
    /// label and counters are leaked — a few words per handle ever
    /// created — so deferred frees can outlive the handle.
    pub fn new(name: impl Into<String>) -> Self {
        let counters: &'static PoolCounters = Box::leak(Box::new(PoolCounters {
            name: String::leak(name.into()),
            allocs: AtomicUsize::new(0),
            frees: AtomicUsize::new(0),
            magazine_refills: AtomicUsize::new(0),
            bytes_resident: AtomicUsize::new(0),
        }));
        REGISTRY
            .lock()
            .expect("pool registry poisoned")
            .push(counters);
        Self { counters }
    }

    /// The handle's label.
    pub fn name(&self) -> &'static str {
        self.counters.name
    }

    /// A snapshot of this handle's counters.
    pub fn stats(&self) -> PoolStats {
        self.counters.snapshot()
    }

    /// Allocates a node holding `value`, headered for a later
    /// [`dealloc_node`] from any thread. Never returns null (aborts on
    /// OOM, like `Box::new`).
    pub fn alloc_node<T>(&self, value: T) -> *mut T {
        let () = AlignCheck::<T>::OK;
        let payload = self.alloc_bytes(core::mem::size_of::<T>()).cast::<T>();
        // SAFETY: fresh, 16-aligned (≥ align_of::<T>, checked above)
        // block of at least size_of::<T>() bytes.
        unsafe { payload.write(value) };
        payload
    }

    /// Allocates `size` uninitialized payload bytes, 16-byte aligned and
    /// headered for a later [`dealloc_bytes`] from any thread — the
    /// raw-size path for nodes whose size is only known at run time
    /// (variable-height skip-list towers). Never returns null (aborts on
    /// OOM, like `Box::new`).
    ///
    /// ```
    /// use ts_alloc::pool::{dealloc_bytes, PoolHandle};
    ///
    /// let pool = PoolHandle::new("bytes-example");
    /// let p = pool.alloc_bytes(40);
    /// // SAFETY: 40 fresh bytes, freed exactly once.
    /// unsafe {
    ///     p.write_bytes(0x5A, 40);
    ///     dealloc_bytes(p);
    /// }
    /// assert_eq!(pool.stats().bytes_resident, 0);
    /// ```
    pub fn alloc_bytes(&self, size: usize) -> *mut u8 {
        let total = HEADER_BYTES + size;
        let (block, class, resident) = match class_of(total) {
            Some(class) => {
                let block = cache::alloc(class, || {
                    self.counters
                        .magazine_refills
                        .fetch_add(1, Ordering::Relaxed);
                });
                (block, class as u32, class_size(class))
            }
            None => {
                assert!(total <= u32::MAX as usize, "pooled node too large");
                // SAFETY: total >= HEADER_BYTES > 0; CLASS_ALIGN is a
                // power of two.
                let block =
                    unsafe { System.alloc(Layout::from_size_align_unchecked(total, CLASS_ALIGN)) };
                (block, LARGE_CLASS, total)
            }
        };
        assert!(!block.is_null(), "pool allocation failed (OOM)");
        self.counters.allocs.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes_resident
            .fetch_add(resident, Ordering::Relaxed);
        POOL_BYTES_RESIDENT.fetch_add(resident, Ordering::Relaxed);
        // SAFETY: `block` is a fresh allocation of at least `total` bytes;
        // the header occupies the first 16 and the payload starts on a
        // 16-byte boundary (classes and the large path both align to 16).
        unsafe {
            (block as *mut Header).write(Header {
                counters: self.counters,
                class,
                size: total as u32,
            });
            block.add(HEADER_BYTES)
        }
    }
}

/// Drops a pooled node in place and returns its block to the pool.
///
/// Needs no handle: the header in front of the node records its class and
/// owning counters, which is what lets SMR drop functions (stateless
/// `unsafe fn(*mut u8)`) free pooled nodes long after the allocating
/// scope ended.
///
/// # Safety
///
/// `ptr` came from [`PoolHandle::alloc_node`] with the same `T` and is
/// freed at most once; no other reference to the node exists.
pub unsafe fn dealloc_node<T>(ptr: *mut T) {
    core::ptr::drop_in_place(ptr);
    dealloc_bytes(ptr.cast());
}

/// Returns a pooled block (payload pointer) to its pool. Like
/// [`dealloc_node`], it needs no handle.
///
/// # Safety
///
/// `payload` came from [`PoolHandle::alloc_bytes`] (or
/// [`PoolHandle::alloc_node`], with the node's destructor already run or
/// trivial) and is freed at most once; no other reference to it exists.
pub unsafe fn dealloc_bytes(payload: *mut u8) {
    let block = payload.sub(HEADER_BYTES);
    let header = (block as *const Header).read();
    // SAFETY: counters are leaked at handle creation, hence still live.
    let counters = &*header.counters;
    counters.frees.fetch_add(1, Ordering::Relaxed);
    if header.class == LARGE_CLASS {
        let total = header.size as usize;
        counters.bytes_resident.fetch_sub(total, Ordering::Relaxed);
        POOL_BYTES_RESIDENT.fetch_sub(total, Ordering::Relaxed);
        // SAFETY: allocated in `alloc_bytes` with exactly this layout.
        System.dealloc(block, Layout::from_size_align_unchecked(total, CLASS_ALIGN));
        return;
    }
    let class = header.class as usize;
    counters
        .bytes_resident
        .fetch_sub(class_size(class), Ordering::Relaxed);
    POOL_BYTES_RESIDENT.fetch_sub(class_size(class), Ordering::Relaxed);
    // SAFETY: caller contract — the block came from `cache::alloc(class)`
    // in `alloc_bytes` and is exclusively ours.
    cache::free(class, block);
}

/// Orders the unit tests that move process-wide pool totals (every test
/// that allocates pool memory) against the ones that assert on them:
/// the former share the lock, the latter hold it alone.
#[cfg(test)]
pub(crate) mod test_totals {
    use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

    static TOTALS: RwLock<()> = RwLock::new(());

    /// Held by a test that allocates pool memory.
    pub(crate) fn moves() -> RwLockReadGuard<'static, ()> {
        TOTALS.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Held by a test that asserts on process-wide pool totals.
    pub(crate) fn reads() -> RwLockWriteGuard<'static, ()> {
        TOTALS.write().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_balances_counters() {
        let _totals = test_totals::moves();
        let pool = PoolHandle::new("roundtrip");
        let mut live: Vec<*mut [u8; 40]> =
            (0..64).map(|i| pool.alloc_node([i as u8; 40])).collect();
        let s = pool.stats();
        assert_eq!(s.allocs, 64);
        assert_eq!(s.frees, 0);
        let class = class_of(HEADER_BYTES + 40).unwrap();
        assert_eq!(s.bytes_resident, 64 * class_size(class));
        for p in live.drain(..) {
            // SAFETY: allocated above, freed once.
            unsafe { dealloc_node(p) };
        }
        let s = pool.stats();
        assert_eq!(s.allocs, s.frees);
        assert_eq!(s.bytes_resident, 0);
    }

    #[test]
    fn values_survive_and_blocks_are_distinct() {
        let _totals = test_totals::moves();
        let pool = PoolHandle::new("distinct");
        let ptrs: Vec<*mut u64> = (0..200u64).map(|i| pool.alloc_node(i * 3)).collect();
        let mut seen = std::collections::HashSet::new();
        for (i, &p) in ptrs.iter().enumerate() {
            // SAFETY: live allocation from above.
            assert_eq!(unsafe { *p }, i as u64 * 3);
            assert!(seen.insert(p as usize), "double-handed block");
            assert_eq!(p as usize % CLASS_ALIGN, 0, "payload must be aligned");
        }
        for p in ptrs {
            unsafe { dealloc_node(p) };
        }
    }

    #[test]
    fn dealloc_without_handle_credits_the_owner() {
        let _totals = test_totals::moves();
        // The deferred-free path: allocate here, free from another thread
        // that never saw the handle.
        let pool = PoolHandle::new("deferred");
        let p: *mut u64 = pool.alloc_node(7);
        let addr = p as usize;
        std::thread::spawn(move || {
            // SAFETY: sole owner of the allocation.
            unsafe { dealloc_node(addr as *mut u64) };
        })
        .join()
        .unwrap();
        let s = pool.stats();
        assert_eq!((s.allocs, s.frees, s.bytes_resident), (1, 1, 0));
    }

    #[test]
    fn large_nodes_pass_through_with_accounting() {
        let _totals = test_totals::moves();
        let pool = PoolHandle::new("large");
        let p: *mut [u8; 8192] = pool.alloc_node([0xAB; 8192]);
        let s = pool.stats();
        assert_eq!(s.allocs, 1);
        assert_eq!(s.bytes_resident, HEADER_BYTES + 8192);
        // SAFETY: allocated above.
        unsafe {
            assert_eq!((*p)[100], 0xAB);
            dealloc_node(p);
        }
        assert_eq!(pool.stats().bytes_resident, 0);
    }

    #[test]
    fn drop_glue_runs_on_dealloc() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Noisy;
        impl Drop for Noisy {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let _totals = test_totals::moves();
        let pool = PoolHandle::new("droppy");
        let p = pool.alloc_node(Noisy);
        assert_eq!(DROPS.load(Ordering::SeqCst), 0);
        // SAFETY: allocated above.
        unsafe { dealloc_node(p) };
        assert_eq!(DROPS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn global_bytes_resident_tracks_all_pools() {
        let _totals = test_totals::reads();
        let a = PoolHandle::new("global-a");
        let b = PoolHandle::new("global-b");
        let before = pool_bytes_resident();
        let pa: *mut u64 = a.alloc_node(1);
        let pb: *mut u64 = b.alloc_node(2);
        assert!(pool_bytes_resident() >= before + 2 * class_size(0));
        // SAFETY: allocated above.
        unsafe {
            dealloc_node(pa);
            dealloc_node(pb);
        }
        assert_eq!(pool_bytes_resident(), before);
    }

    #[test]
    fn pool_stats_lists_created_handles() {
        let _totals = test_totals::moves();
        let h = PoolHandle::new("listed-handle");
        let p: *mut u64 = h.alloc_node(9);
        // SAFETY: allocated above.
        unsafe { dealloc_node(p) };
        let all = pool_stats();
        let mine = all
            .iter()
            .find(|s| s.name == "listed-handle")
            .expect("handle must appear in pool_stats");
        assert_eq!(mine.allocs, 1);
        assert_eq!(mine.frees, 1);
    }

    #[test]
    fn freed_pool_block_is_the_next_cache_block_of_its_class() {
        // Pools keep no cache of their own: a block `dealloc_bytes` frees
        // is on top of the thread cache, so the next `cache::alloc` of
        // its class on this thread returns it without a depot fill.
        let _totals = test_totals::moves();
        let pool = PoolHandle::new("one-cache");
        let size = 40;
        let class = class_of(HEADER_BYTES + size).unwrap();
        let payload = pool.alloc_bytes(size);
        // SAFETY: `payload` is live, so its header block is too.
        let block = unsafe { payload.sub(HEADER_BYTES) };
        let fills_before = crate::stats::thread_stats().cache_fills;
        // SAFETY: allocated above, freed once.
        unsafe { dealloc_bytes(payload) };
        let again = cache::alloc(class, || panic!("must not refill"));
        assert_eq!(again, block, "the pool's free must feed the thread cache");
        assert_eq!(crate::stats::thread_stats().cache_fills, fills_before);
        // SAFETY: allocated from the cache just above, freed once.
        unsafe { cache::free(class, again) };
    }

    #[test]
    fn lifo_reuse_stays_magazine_local() {
        let _totals = test_totals::moves();
        let pool = PoolHandle::new("lifo");
        // Warm the magazine.
        let warm: *mut u64 = pool.alloc_node(0);
        // SAFETY: allocated above.
        unsafe { dealloc_node(warm) };
        let refills_before = pool.stats().magazine_refills;
        for i in 0..100u64 {
            let p = pool.alloc_node(i);
            // SAFETY: allocated above.
            unsafe { dealloc_node(p) };
        }
        assert_eq!(
            pool.stats().magazine_refills,
            refills_before,
            "LIFO alloc/free cycles must not touch the depot"
        );
    }
}
