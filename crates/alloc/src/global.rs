//! The [`GlobalAlloc`] front end.
//!
//! Dispatch is purely on `Layout` — `GlobalAlloc`'s contract guarantees
//! `dealloc` receives the same layout `alloc` was called with, so no
//! per-block metadata or page map is needed: small layouts (≤ 4 KiB,
//! align ≤ 16) go through the class machinery, everything else through
//! the system allocator.

use std::alloc::{GlobalAlloc, Layout, System};

use crate::cache;
use crate::size_classes::{class_of, CLASS_ALIGN};
use crate::stats::COUNTERS;

/// The thread-caching allocator. Install with
/// `#[global_allocator] static A: TsAlloc = TsAlloc;`
/// or call the `GlobalAlloc` methods explicitly.
pub struct TsAlloc;

/// Whether `layout` is served by the size-class machinery.
#[inline]
fn small_class(layout: Layout) -> Option<usize> {
    if layout.align() > CLASS_ALIGN {
        return None;
    }
    class_of(layout.size().max(1))
}

// SAFETY: `alloc` returns blocks that satisfy `layout` (classes are
// multiples of 16 and at least the requested size; passthrough delegates
// to System), and `dealloc` routes each block back by the identical
// layout dispatch.
unsafe impl GlobalAlloc for TsAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        match small_class(layout) {
            Some(class) => cache::alloc(class, || {}),
            None => {
                COUNTERS.note_large_alloc();
                System.alloc(layout)
            }
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        match small_class(layout) {
            Some(class) => cache::free(class, ptr),
            None => {
                COUNTERS.note_large_free();
                System.dealloc(ptr, layout);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(size: usize, align: usize) -> Layout {
        Layout::from_size_align(size, align).unwrap()
    }

    #[test]
    fn small_layouts_map_to_classes() {
        assert!(small_class(layout(1, 1)).is_some());
        assert!(small_class(layout(64, 8)).is_some());
        assert!(small_class(layout(4096, 16)).is_some());
        assert!(small_class(layout(4097, 8)).is_none(), "too big");
        assert!(small_class(layout(64, 32)).is_none(), "over-aligned");
    }

    #[test]
    fn alloc_respects_layout_and_roundtrips() {
        let a = TsAlloc;
        for (size, align) in [(1, 1), (24, 8), (100, 4), (512, 16), (5000, 8), (64, 64)] {
            let l = layout(size, align);
            // SAFETY: valid layout; block written within bounds then freed
            // with the same layout.
            unsafe {
                let p = a.alloc(l);
                assert!(!p.is_null());
                assert_eq!(p as usize % align, 0, "alignment for {size}/{align}");
                p.write_bytes(0xA5, size);
                assert_eq!(p.read(), 0xA5);
                a.dealloc(p, l);
            }
        }
    }

    #[test]
    fn distinct_live_blocks_dont_alias() {
        let a = TsAlloc;
        let l = layout(40, 8);
        // SAFETY: every block freed with its allocation layout.
        unsafe {
            let blocks: Vec<*mut u8> = (0..64).map(|_| a.alloc(l)).collect();
            for (i, &p) in blocks.iter().enumerate() {
                p.write_bytes(i as u8, 40);
            }
            for (i, &p) in blocks.iter().enumerate() {
                assert_eq!(p.read(), i as u8, "block {i} clobbered");
                a.dealloc(p, l);
            }
        }
    }

    #[test]
    fn zero_size_allocations_are_served() {
        // Rust never passes size 0 through GlobalAlloc, but the class
        // mapping should still be total for size 1 after the max(1).
        let a = TsAlloc;
        let l = layout(1, 1);
        // SAFETY: freed with the same layout.
        unsafe {
            let p = a.alloc(l);
            assert!(!p.is_null());
            a.dealloc(p, l);
        }
    }

    #[test]
    fn cross_thread_free_is_sound() {
        // Allocate here, free on another thread: blocks migrate through
        // that thread's cache to the depot and back out safely.
        let a = TsAlloc;
        let l = layout(64, 8);
        // SAFETY: blocks handed to the other thread by value; freed once.
        unsafe {
            let blocks: Vec<usize> = (0..100).map(|_| a.alloc(l) as usize).collect();
            std::thread::spawn(move || {
                let a = TsAlloc;
                for p in blocks {
                    a.dealloc(p as *mut u8, Layout::from_size_align(64, 8).unwrap());
                }
            })
            .join()
            .unwrap();
            // Re-allocate plenty; must not crash or alias live data.
            let again: Vec<*mut u8> = (0..100).map(|_| a.alloc(l)).collect();
            for p in again {
                a.dealloc(p, l);
            }
        }
    }
}
