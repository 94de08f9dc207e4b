//! Allocator counters (relaxed; diagnostics and benches only).

use core::cell::Cell;
use core::sync::atomic::{AtomicUsize, Ordering};

use crate::size_classes::{NUM_CLASSES, SPAN_BYTES};

/// Process-global allocator counters.
pub(crate) struct Counters {
    small_allocs: AtomicUsize,
    small_frees: AtomicUsize,
    large_allocs: AtomicUsize,
    large_frees: AtomicUsize,
    spans: AtomicUsize,
    cache_fills: AtomicUsize,
    cache_flushes: AtomicUsize,
    class_allocs: [AtomicUsize; NUM_CLASSES],
    class_frees: [AtomicUsize; NUM_CLASSES],
}

pub(crate) static COUNTERS: Counters = Counters {
    small_allocs: AtomicUsize::new(0),
    small_frees: AtomicUsize::new(0),
    large_allocs: AtomicUsize::new(0),
    large_frees: AtomicUsize::new(0),
    spans: AtomicUsize::new(0),
    cache_fills: AtomicUsize::new(0),
    cache_flushes: AtomicUsize::new(0),
    class_allocs: [const { AtomicUsize::new(0) }; NUM_CLASSES],
    class_frees: [const { AtomicUsize::new(0) }; NUM_CLASSES],
};

thread_local! {
    /// The calling thread's share of `spans` and `cache_fills`: the only
    /// view of those counters that sibling threads cannot move. `Cell`s
    /// with const init and no destructor, so reading them from inside the
    /// allocator neither allocates nor fails during TLS teardown.
    static THREAD_SPANS: Cell<usize> = const { Cell::new(0) };
    static THREAD_FILLS: Cell<usize> = const { Cell::new(0) };
}

impl Counters {
    #[inline]
    pub(crate) fn note_small_alloc(&self) {
        self.small_allocs.fetch_add(1, Ordering::Relaxed);
    }
    #[inline]
    pub(crate) fn note_small_free(&self) {
        self.small_frees.fetch_add(1, Ordering::Relaxed);
    }
    #[inline]
    pub(crate) fn note_large_alloc(&self) {
        self.large_allocs.fetch_add(1, Ordering::Relaxed);
    }
    #[inline]
    pub(crate) fn note_large_free(&self) {
        self.large_frees.fetch_add(1, Ordering::Relaxed);
    }
    #[inline]
    pub(crate) fn note_span(&self) {
        self.spans.fetch_add(1, Ordering::Relaxed);
        THREAD_SPANS.with(|n| n.set(n.get() + 1));
    }
    #[inline]
    pub(crate) fn note_fill(&self) {
        self.cache_fills.fetch_add(1, Ordering::Relaxed);
        THREAD_FILLS.with(|n| n.set(n.get() + 1));
    }
    #[inline]
    pub(crate) fn note_flush(&self) {
        self.cache_flushes.fetch_add(1, Ordering::Relaxed);
    }
    #[inline]
    pub(crate) fn note_class_alloc(&self, class: usize) {
        self.class_allocs[class].fetch_add(1, Ordering::Relaxed);
    }
    #[inline]
    pub(crate) fn note_class_free(&self, class: usize) {
        self.class_frees[class].fetch_add(1, Ordering::Relaxed);
    }
}

/// A snapshot of the allocator's lifetime activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Small (size-class) allocations served.
    pub small_allocs: usize,
    /// Small blocks freed.
    pub small_frees: usize,
    /// Large (passthrough) allocations.
    pub large_allocs: usize,
    /// Large frees.
    pub large_frees: usize,
    /// Spans carved from the system allocator.
    pub spans: usize,
    /// Bytes reserved in spans.
    pub span_bytes: usize,
    /// Thread-cache refills from the depot (each one lock acquisition).
    pub cache_fills: usize,
    /// Thread-cache flushes to the depot.
    pub cache_flushes: usize,
    /// Allocations per size class (indexed like
    /// [`crate::size_classes::class_size`]). Covers both the global hook
    /// and the node pools.
    pub class_allocs: [usize; NUM_CLASSES],
    /// Frees per size class.
    pub class_frees: [usize; NUM_CLASSES],
}

/// Reads the current allocator counters.
pub fn stats() -> AllocStats {
    let spans = COUNTERS.spans.load(Ordering::Relaxed);
    let mut class_allocs = [0usize; NUM_CLASSES];
    let mut class_frees = [0usize; NUM_CLASSES];
    for c in 0..NUM_CLASSES {
        class_allocs[c] = COUNTERS.class_allocs[c].load(Ordering::Relaxed);
        class_frees[c] = COUNTERS.class_frees[c].load(Ordering::Relaxed);
    }
    AllocStats {
        small_allocs: COUNTERS.small_allocs.load(Ordering::Relaxed),
        small_frees: COUNTERS.small_frees.load(Ordering::Relaxed),
        large_allocs: COUNTERS.large_allocs.load(Ordering::Relaxed),
        large_frees: COUNTERS.large_frees.load(Ordering::Relaxed),
        spans,
        span_bytes: spans * SPAN_BYTES,
        cache_fills: COUNTERS.cache_fills.load(Ordering::Relaxed),
        cache_flushes: COUNTERS.cache_flushes.load(Ordering::Relaxed),
        class_allocs,
        class_frees,
    }
}

/// The calling thread's own lifetime tallies of the depot traffic that
/// [`AllocStats`] counts process-wide. Tests that assert on depot
/// traffic read these: other threads allocating at the same time move
/// the global counters but never these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadAllocStats {
    /// Spans this thread carved from the system allocator.
    pub spans: usize,
    /// Depot refills (thread cache or pool magazine) made by this thread.
    pub cache_fills: usize,
}

/// Reads the calling thread's depot tallies.
pub fn thread_stats() -> ThreadAllocStats {
    ThreadAllocStats {
        spans: THREAD_SPANS.with(Cell::get),
        cache_fills: THREAD_FILLS.with(Cell::get),
    }
}

impl AllocStats {
    /// Small allocations per depot lock acquisition — the amortization
    /// the thread-cache design exists to provide.
    pub fn allocs_per_lock(&self) -> f64 {
        let locks = self.cache_fills + self.cache_flushes;
        if locks == 0 {
            0.0
        } else {
            self.small_allocs as f64 / locks as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_monotone_under_activity() {
        let before = stats();
        COUNTERS.note_small_alloc();
        COUNTERS.note_span();
        let after = stats();
        assert!(after.small_allocs > before.small_allocs);
        assert!(after.spans > before.spans);
        assert_eq!(after.span_bytes, after.spans * SPAN_BYTES);
    }

    #[test]
    fn thread_tallies_ignore_other_threads() {
        let before = thread_stats();
        std::thread::spawn(|| {
            COUNTERS.note_span();
            COUNTERS.note_fill();
            assert_eq!(
                thread_stats(),
                ThreadAllocStats {
                    spans: 1,
                    cache_fills: 1
                }
            );
        })
        .join()
        .unwrap();
        assert_eq!(thread_stats(), before);
        COUNTERS.note_fill();
        assert_eq!(thread_stats().cache_fills, before.cache_fills + 1);
    }

    #[test]
    fn allocs_per_lock_handles_zero() {
        let s = AllocStats {
            small_allocs: 0,
            small_frees: 0,
            large_allocs: 0,
            large_frees: 0,
            spans: 0,
            span_bytes: 0,
            cache_fills: 0,
            cache_flushes: 0,
            class_allocs: [0; NUM_CLASSES],
            class_frees: [0; NUM_CLASSES],
        };
        assert_eq!(s.allocs_per_lock(), 0.0);
    }

    #[test]
    fn class_counters_track_their_class() {
        let before = stats();
        COUNTERS.note_class_alloc(3);
        COUNTERS.note_class_alloc(3);
        COUNTERS.note_class_free(3);
        let after = stats();
        assert_eq!(after.class_allocs[3], before.class_allocs[3] + 2);
        assert_eq!(after.class_frees[3], before.class_frees[3] + 1);
    }
}
