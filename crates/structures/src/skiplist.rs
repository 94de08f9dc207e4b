//! Lock-based optimistic skip list — the paper's third evaluation
//! structure (§6: "Lock-based Skip List ... with 104 byte nodes
//! (representing the maximum size due to height)").
//!
//! This is the lazy skip list of Herlihy, Lev, Luchangco and Shavit
//! ("A Simple Optimistic Skiplist Algorithm", SIROCCO 2007):
//!
//! * **Traversals take no locks** — `contains` is wait-free and invisible,
//!   which is exactly what makes reclamation hard and this structure a
//!   good ThreadScan testcase.
//! * `insert`/`remove` lock only the affected predecessors per level,
//!   validate optimistically, and retry on conflict.
//! * Removal marks the victim (logical) before unlinking every level
//!   (physical), then retires it through the reclamation scheme. Only the
//!   marking thread retires, so the victim cannot be freed while a
//!   concurrent remover still examines it.
//! * The head is a **sentinel node with a real lock**, not a bare array
//!   of pointers: two critical sections whose pred is the head (a remove
//!   splicing out the first node and an insert at the front) must be
//!   mutually exclusive, or their validate-then-store sequences race and
//!   can resurrect a spliced-out node. The priority queue variant of this
//!   structure hit exactly that race under `delete_min` pressure; see
//!   `priority_queue`'s module docs.
//!
//! **Variable-height towers**, as in §6, where a node's size follows its
//! height and the paper's 104 bytes is the maximum. A node is a 16-byte
//! header (key, top level, lock and the two flags) followed by exactly
//! `top_level + 1` links, [`node_bytes`]`(top_level)` bytes in all: a
//! height-1 node is 24 bytes and the tallest, at [`MAX_HEIGHT`], is 112.
//! A traversal step reads the key and one link; the key and the low links
//! lie within the node's first 40 bytes, so a step usually touches one
//! cache line. Every link access goes through one accessor
//! that debug-asserts `level <= top_level`; a traversal only ever reads
//! level `l` of a node it reached at level `l`, so it never runs off a
//! short tower. Removal retires the node with its exact allocation size,
//! so range matching covers the whole node, links included. The sentinel
//! is allocated the same way, at full height.
//!
//! `PriorityQueue` keeps fixed full-height towers on purpose: it is not a
//! benchmark structure, and its layout is left as it is.

use core::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::alloc::Layout;
use std::cell::Cell;
use std::marker::PhantomData;

use ts_smr::{DropFn, Guard, Smr, SmrHandle};

use crate::node_alloc::NodeAlloc;
use crate::set_trait::ConcurrentSet;

/// Maximum tower height. 2^12 = 4096× fan-out covers the paper's 128,000
/// resident keys with headroom.
pub const MAX_HEIGHT: usize = 12;

/// Hazard-pointer slots required by one skip-list operation: a pred and a
/// succ per level, plus two roving slots for `contains`.
pub const REQUIRED_SLOTS: usize = 2 * MAX_HEIGHT + 2;

/// A node's header. The tower of `top_level + 1` links follows it in the
/// same allocation (see [`node_bytes`]); only [`link`] reaches them.
#[repr(C)]
struct SkipNode {
    key: u64,
    /// Highest level this node is linked at; its tower has
    /// `top_level + 1` links.
    top_level: u32,
    lock: AtomicBool,
    marked: AtomicBool,
    fully_linked: AtomicBool,
}

const _: () = assert!(core::mem::size_of::<SkipNode>() == 16);

/// Bytes of a node whose tower reaches `top_level`: the 16-byte header
/// plus one 8-byte link per level, `16 + 8·(top_level + 1)`.
pub const fn node_bytes(top_level: usize) -> usize {
    core::mem::size_of::<SkipNode>() + core::mem::size_of::<AtomicPtr<u8>>() * (top_level + 1)
}

/// The allocation layout of a node whose tower reaches `top_level`.
fn node_layout(top_level: usize) -> Layout {
    Layout::from_size_align(node_bytes(top_level), core::mem::align_of::<SkipNode>())
        .expect("skip-list node layout")
}

/// The `level` link of `node`'s tower.
///
/// # Safety
///
/// `node` points to a live node (the allocation, not a reference to its
/// header, so the pointer covers the tower) and `level <= top_level`.
#[inline]
unsafe fn link<'a>(node: *const SkipNode, level: usize) -> &'a AtomicPtr<u8> {
    debug_assert!(level <= (*node).top_level as usize, "link above the tower");
    &*node.add(1).cast::<AtomicPtr<u8>>().add(level)
}

impl SkipNode {
    /// Allocates a node through `alloc` with key `key`, a tower reaching
    /// `top_level`, and link `l` set to `links(l)`.
    fn alloc(
        alloc: &NodeAlloc,
        key: u64,
        top_level: usize,
        links: impl Fn(usize) -> *mut SkipNode,
    ) -> *mut SkipNode {
        let node = alloc.alloc_bytes(node_layout(top_level)).cast::<SkipNode>();
        // SAFETY: a fresh allocation of node_bytes(top_level) bytes,
        // aligned for the header and its links.
        unsafe {
            node.write(SkipNode {
                key,
                top_level: top_level as u32,
                lock: AtomicBool::new(false),
                marked: AtomicBool::new(false),
                fully_linked: AtomicBool::new(false),
            });
            let tower = node.add(1).cast::<AtomicPtr<u8>>();
            for level in 0..=top_level {
                tower.add(level).write(AtomicPtr::new(links(level).cast()));
            }
        }
        node
    }

    /// Spinlock acquire (per-node fine-grained lock, as in the paper's
    /// "fine-grained locks on the two nodes adjacent" description).
    fn lock(&self) {
        while self
            .lock
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
        }
    }

    fn unlock(&self) {
        self.lock.store(false, Ordering::Release);
    }
}

/// Frees a global-heap node, rebuilding its layout from its height.
///
/// # Safety
///
/// `p` came from [`SkipNode::alloc`] under [`NodeAlloc::Global`], freed
/// at most once.
unsafe fn drop_global_node(p: *mut u8) {
    let top_level = (*p.cast::<SkipNode>()).top_level as usize;
    std::alloc::dealloc(p, node_layout(top_level));
}

/// The lock-based skip list.
pub struct SkipList<S: Smr> {
    /// Sentinel head node, full height; its key is conceptually −∞ and
    /// never compared. It locks like any node and is never marked or
    /// removed; it frees with the list, never through a retire.
    head: *mut SkipNode,
    /// Where nodes come from (global heap by default, or a pool).
    alloc: NodeAlloc,
    /// The matching stateless deallocator, passed to every retire.
    drop_node: DropFn,
    _scheme: PhantomData<fn(&S)>,
}

// SAFETY: `head` is owned by the list (allocated in `with_alloc`, freed
// only in `Drop`); every node field written after publication is atomic,
// and node lifetime is managed through `S`. `alloc` is a `Copy` handle to
// thread-safe pool counters and `drop_node` a plain function pointer.
unsafe impl<S: Smr> Send for SkipList<S> {}
unsafe impl<S: Smr> Sync for SkipList<S> {}

thread_local! {
    /// Cheap per-thread xorshift state for geometric tower heights.
    static HEIGHT_RNG: Cell<u64> = const { Cell::new(0x9E3779B97F4A7C15) };
}

/// Geometric(1/2) tower height in `1..=MAX_HEIGHT`, from a thread-local
/// xorshift64* generator (no allocation, no locking).
fn random_top_level() -> usize {
    HEIGHT_RNG.with(|state| {
        let mut x = state.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        state.set(x);
        // Mix in the thread so identically-seeded threads diverge.
        let mixed = x.wrapping_mul(0x2545F4914F6CDD1D);
        ((mixed.trailing_ones() as usize) % MAX_HEIGHT).min(MAX_HEIGHT - 1)
    })
}

impl<S: Smr> SkipList<S> {
    /// An empty skip list allocating nodes from the global heap.
    pub fn new() -> Self {
        Self::with_alloc(NodeAlloc::Global)
    }

    /// An empty skip list allocating its nodes (sentinel included)
    /// through `alloc`.
    pub fn with_alloc(alloc: NodeAlloc) -> Self {
        Self {
            head: SkipNode::alloc(&alloc, 0, MAX_HEIGHT - 1, |_| std::ptr::null_mut()),
            drop_node: alloc.bytes_drop_fn(drop_global_node),
            alloc,
            _scheme: PhantomData,
        }
    }

    /// Full find: fills `preds`/`succs` for every level and returns the
    /// level at which `key` was first found. Null pointers denote the
    /// (virtual) +∞ tail; `preds[l]` null denotes the head tower.
    ///
    /// Hazard protocol: each level owns the slot pair `{2l, 2l+1}`.
    /// Advancing transfers protection **by swapping slot roles** (the node
    /// already protected as curr simply *becomes* the pred) — never by
    /// re-loading a pointer into the pred slot, which would leave the node
    /// whose field is being read momentarily unprotected. The final
    /// pred/succ of every level remain protected in that level's pair (or
    /// a higher level's, when the pred was inherited), so the caller can
    /// lock and validate them safely.
    fn find(
        &self,
        g: &Guard<'_, S::Handle>,
        key: u64,
        preds: &mut [*mut SkipNode; MAX_HEIGHT],
        succs: &mut [*mut SkipNode; MAX_HEIGHT],
    ) -> Option<usize> {
        'retry: loop {
            let mut lfound = None;
            let mut pred: *mut SkipNode = self.head;
            for level in (0..MAX_HEIGHT).rev() {
                // curr/pred protection alternates between this level's two
                // slots; `pred` enters protected by a higher level's slot
                // (or is the immortal sentinel).
                let mut pred_slot = 2 * level;
                let mut curr_slot = 2 * level + 1;
                // SAFETY: pred is the sentinel or protected
                // (higher-level slot), and reached at a level >= this one.
                let mut curr = g.load(curr_slot, unsafe { link(pred, level) }) as *mut SkipNode;
                // The protection chain requires that pred was live when
                // its field was read; marking is monotonic, so a
                // post-load check suffices. A marked pred's (stale) next
                // could point at an already-retired node — restart.
                if Self::pred_died(pred) {
                    continue 'retry;
                }
                loop {
                    if curr.is_null() {
                        break;
                    }
                    // SAFETY: curr protected in curr_slot.
                    if unsafe { (*curr).key } >= key {
                        break;
                    }
                    // Advance: the protected curr *becomes* the pred (slot
                    // role swap, no re-load); the next node is loaded into
                    // the slot that held the now-dead previous pred.
                    pred = curr;
                    std::mem::swap(&mut pred_slot, &mut curr_slot);
                    // SAFETY: pred protected in pred_slot, reached at
                    // this level.
                    curr = g.load(curr_slot, unsafe { link(pred, level) }) as *mut SkipNode;
                    if Self::pred_died(pred) {
                        continue 'retry;
                    }
                }
                preds[level] = pred;
                succs[level] = curr;
                if lfound.is_none() && !curr.is_null() {
                    // SAFETY: protected.
                    if unsafe { (*curr).key } == key {
                        lfound = Some(level);
                    }
                }
            }
            return lfound;
        }
    }

    /// Whether a (protected) pred node has been logically deleted —
    /// breaking the traversal's protection chain. The sentinel is never
    /// marked.
    #[inline]
    fn pred_died(pred: *mut SkipNode) -> bool {
        // SAFETY: pred is the sentinel or protected by the caller.
        unsafe { (*pred).marked.load(Ordering::Acquire) }
    }

    /// Unlocks `preds[0..=locked_levels]`, skipping duplicates (a pred —
    /// including the sentinel — may repeat across levels under one lock).
    fn unlock_preds(preds: &[*mut SkipNode; MAX_HEIGHT], locked_levels: usize) {
        let mut prev: *mut SkipNode = std::ptr::null_mut();
        for &p in preds.iter().take(locked_levels + 1) {
            if p != prev {
                // SAFETY: locked by us; locked nodes are never retired by
                // others.
                unsafe { (*p).unlock() };
                prev = p;
            }
        }
    }

    /// Locks and validates `preds[0..=top]` against `expect_succ`. The
    /// sentinel locks like any node — this is what makes head-pred
    /// critical sections mutually exclusive (see module docs). On `false`
    /// the caller must `unlock_preds` up to the returned level.
    fn lock_and_validate(
        preds: &[*mut SkipNode; MAX_HEIGHT],
        top: usize,
        expect_succ: impl Fn(usize) -> *mut SkipNode,
    ) -> (bool, usize) {
        let mut prev: *mut SkipNode = std::ptr::null_mut();
        let mut locked_up_to = 0usize;
        let mut valid = true;
        for (level, &pred) in preds.iter().enumerate().take(top + 1) {
            if pred != prev {
                // SAFETY: pred is the sentinel or protected from find.
                unsafe { (*pred).lock() };
                prev = pred;
            }
            locked_up_to = level;
            // SAFETY: locked above; pred was found at this level. The
            // sentinel is never marked.
            let pred_ok = !unsafe { (*pred).marked.load(Ordering::Acquire) };
            let link_ok = unsafe { link(pred, level) }.load(Ordering::Acquire) as *mut SkipNode
                == expect_succ(level);
            valid = pred_ok && link_ok;
            if !valid {
                break;
            }
        }
        (valid, locked_up_to)
    }
}

impl<S: Smr> Default for SkipList<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Smr> ConcurrentSet<S> for SkipList<S> {
    /// Wait-free, lock-free, write-free membership test — the
    /// "unsynchronized traversal" of the paper's introduction.
    fn contains(&self, h: &S::Handle, key: u64) -> bool {
        let g = h.pin();
        // Two roving slots; protection moves by swapping roles, and the
        // traversal restarts if a pred turns out deleted (see `find`).
        'retry: loop {
            let mut pred_slot = 2 * MAX_HEIGHT;
            let mut curr_slot = 2 * MAX_HEIGHT + 1;
            let mut pred: *mut SkipNode = self.head;
            let mut found: *mut SkipNode = std::ptr::null_mut();
            for level in (0..MAX_HEIGHT).rev() {
                // SAFETY: pred protected in pred_slot (or the sentinel),
                // reached at a level >= this one.
                let mut curr = g.load(curr_slot, unsafe { link(pred, level) }) as *mut SkipNode;
                if Self::pred_died(pred) {
                    continue 'retry;
                }
                loop {
                    if curr.is_null() {
                        break;
                    }
                    // SAFETY: protected in curr_slot.
                    let curr_key = unsafe { (*curr).key };
                    if curr_key > key {
                        break;
                    }
                    if curr_key == key {
                        found = curr;
                        break;
                    }
                    // Advance by slot-role swap; old pred's slot is
                    // recycled for the new curr.
                    pred = curr;
                    std::mem::swap(&mut pred_slot, &mut curr_slot);
                    // SAFETY: pred protected in pred_slot, reached at
                    // this level.
                    curr = g.load(curr_slot, unsafe { link(pred, level) }) as *mut SkipNode;
                    if Self::pred_died(pred) {
                        continue 'retry;
                    }
                }
                if !found.is_null() {
                    break;
                }
            }
            break 'retry if found.is_null() {
                false
            } else {
                // SAFETY: `found` is protected in curr_slot.
                let node = unsafe { &*found };
                node.fully_linked.load(Ordering::Acquire) && !node.marked.load(Ordering::Acquire)
            };
        }
    }

    fn insert(&self, h: &S::Handle, key: u64) -> bool {
        let g = h.pin();
        debug_assert!(g.protection_slots().is_none_or(|n| n >= REQUIRED_SLOTS));
        let top = random_top_level();
        let mut preds = [std::ptr::null_mut(); MAX_HEIGHT];
        let mut succs = [std::ptr::null_mut(); MAX_HEIGHT];
        'retry: loop {
            if let Some(lfound) = self.find(&g, key, &mut preds, &mut succs) {
                let found = succs[lfound];
                // SAFETY: protected by find.
                let found_node = unsafe { &*found };
                if !found_node.marked.load(Ordering::Acquire) {
                    // Wait for the inserter to finish linking, then report
                    // "already present".
                    while !found_node.fully_linked.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                    break 'retry false;
                }
                // Found but marked: its removal is in flight; retry.
                continue 'retry;
            }
            let (valid, locked) = Self::lock_and_validate(&preds, top, |l| succs[l]);
            if !valid {
                Self::unlock_preds(&preds, locked);
                continue 'retry;
            }
            // Private until linked below: its tower points at the succs.
            let node = SkipNode::alloc(&self.alloc, key, top, |l| succs[l]);
            for (level, &pred) in preds.iter().enumerate().take(top + 1) {
                // SAFETY: locked + validated at this level.
                unsafe { link(pred, level) }.store(node as *mut u8, Ordering::Release);
            }
            // SAFETY: linked, and not retirable before it is fully linked.
            unsafe { &*node }
                .fully_linked
                .store(true, Ordering::Release);
            Self::unlock_preds(&preds, locked);
            break 'retry true;
        }
    }

    fn remove(&self, h: &S::Handle, key: u64) -> bool {
        let g = h.pin();
        debug_assert!(g.protection_slots().is_none_or(|n| n >= REQUIRED_SLOTS));
        let mut preds = [std::ptr::null_mut(); MAX_HEIGHT];
        let mut succs = [std::ptr::null_mut(); MAX_HEIGHT];
        let mut victim: *mut SkipNode = std::ptr::null_mut();
        let mut marked_by_us = false;
        let mut top = 0usize;
        'retry: loop {
            let lfound = self.find(&g, key, &mut preds, &mut succs);
            if !marked_by_us {
                let Some(level) = lfound else {
                    break 'retry false;
                };
                let candidate = succs[level];
                // SAFETY: protected by find.
                let cand = unsafe { &*candidate };
                if !(cand.fully_linked.load(Ordering::Acquire)
                    && cand.top_level as usize == level
                    && !cand.marked.load(Ordering::Acquire))
                {
                    break 'retry false;
                }
                top = cand.top_level as usize;
                cand.lock();
                if cand.marked.load(Ordering::Acquire) {
                    cand.unlock();
                    break 'retry false;
                }
                cand.marked.store(true, Ordering::Release);
                marked_by_us = true;
                victim = candidate;
                // From here the victim cannot be retired by anyone else
                // (only the marking thread retires), so raw access to it
                // stays sound across retries.
            }
            let (valid, locked) = Self::lock_and_validate(&preds, top, |_| victim);
            if !valid {
                Self::unlock_preds(&preds, locked);
                continue 'retry;
            }
            for level in (0..=top).rev() {
                // SAFETY: preds locked + validated at every level up to
                // the victim's top; the victim is ours (see above).
                unsafe {
                    link(preds[level], level).store(
                        link(victim, level).load(Ordering::Acquire),
                        Ordering::Release,
                    )
                };
            }
            // SAFETY: see the invariant above.
            unsafe { &*victim }.unlock();
            Self::unlock_preds(&preds, locked);
            // SAFETY: unlinked from every level; the mark ownership makes
            // this the unique retire. The size is the whole allocation.
            unsafe { g.retire(victim as usize, node_bytes(top), self.drop_node) };
            break 'retry true;
        }
    }

    fn kind(&self) -> &'static str {
        "skip-list"
    }
}

impl<S: Smr> SkipList<S> {
    /// Sequential walk of the bottom level (tests): calls `f` on every
    /// unmarked node.
    fn for_each_sequential(&self, mut f: impl FnMut(&SkipNode)) {
        // SAFETY: the sentinel lives as long as the list; every linked
        // node is live while no remove runs concurrently.
        let mut cur = unsafe { link(self.head, 0) }.load(Ordering::Acquire) as *const SkipNode;
        while !cur.is_null() {
            // SAFETY: a linked node, live as argued above.
            let node = unsafe { &*cur };
            if !node.marked.load(Ordering::Acquire) {
                f(node);
            }
            // SAFETY: as above; every tower has a level 0.
            cur = unsafe { link(cur, 0) }.load(Ordering::Acquire) as *const SkipNode;
        }
    }

    /// Sequential bottom-level key dump (tests; unmarked nodes only).
    pub fn keys_sequential(&self) -> Vec<u64> {
        let mut keys = Vec::new();
        self.for_each_sequential(|node| keys.push(node.key));
        keys
    }

    /// Sequential size (tests).
    pub fn len_sequential(&self) -> usize {
        self.keys_sequential().len()
    }

    /// Sequential census of tower heights (tests): entry `l` counts the
    /// unmarked nodes whose top level is `l`. The sentinel is not counted.
    pub fn top_level_counts_sequential(&self) -> [usize; MAX_HEIGHT] {
        let mut counts = [0usize; MAX_HEIGHT];
        self.for_each_sequential(|node| counts[node.top_level as usize] += 1);
        counts
    }
}

impl<S: Smr> Drop for SkipList<S> {
    fn drop(&mut self) {
        // Exclusive access: free the bottom-level chain (it contains every
        // node exactly once), then the sentinel.
        let mut cur = self.head.cast::<u8>();
        while !cur.is_null() {
            // SAFETY: &mut self; bottom level links every node once (next
            // read before the node is freed).
            unsafe {
                let next = link(cur.cast::<SkipNode>(), 0).load(Ordering::Relaxed);
                (self.drop_node)(cur);
                cur = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use ts_smr::{EpochScheme, HazardPointers, Leaky};

    #[test]
    fn node_layout_is_header_plus_exact_tower() {
        // §6: nodes sized to their own height. A 16-byte header, then one
        // 8-byte link per level and nothing else.
        assert_eq!(core::mem::size_of::<SkipNode>(), 16);
        for h in 0..MAX_HEIGHT {
            assert_eq!(node_bytes(h), 16 + 8 * (h + 1), "height {h}");
            assert_eq!(node_layout(h).size(), node_bytes(h));
        }
        assert_eq!(node_bytes(0), 24);
        assert_eq!(node_bytes(MAX_HEIGHT - 1), 112);
        assert_eq!(REQUIRED_SLOTS, 26);
    }

    /// A scheme that records every retire's `(addr, size)` together with
    /// the node's top level and the address of its top link, then frees
    /// the node at once.
    mod recording {
        use super::*;
        use std::sync::{Arc, Mutex};
        use ts_smr::DropFn;

        /// `(addr, size, top_level, top_link_addr)` per retire.
        pub type Retires = Arc<Mutex<Vec<(usize, usize, usize, usize)>>>;

        #[derive(Default)]
        pub struct Recording(pub Retires);
        pub struct RecordingHandle(Retires);

        impl Smr for Recording {
            type Handle = RecordingHandle;
            fn register(&self) -> RecordingHandle {
                RecordingHandle(Arc::clone(&self.0))
            }
            fn name(&self) -> &'static str {
                "recording"
            }
        }

        impl SmrHandle for RecordingHandle {
            unsafe fn retire(&self, addr: usize, size: usize, drop_fn: DropFn) {
                let node = addr as *const SkipNode;
                let top = (*node).top_level as usize;
                let top_link = link(node, top) as *const AtomicPtr<u8> as usize;
                self.0.lock().unwrap().push((addr, size, top, top_link));
                drop_fn(addr as *mut u8);
            }
        }
    }

    #[test]
    fn retire_size_covers_the_whole_tower() {
        let scheme = recording::Recording::default();
        let pool = ts_alloc::PoolHandle::new("skiplist-retire-size");
        for alloc in [NodeAlloc::Global, NodeAlloc::Pool(pool)] {
            let sl = SkipList::<recording::Recording>::with_alloc(alloc);
            let h = scheme.register();
            for k in 0..2_000u64 {
                assert!(sl.insert(&h, k));
            }
            for k in 0..2_000u64 {
                assert!(sl.remove(&h, k));
            }
        }
        let retires = scheme.0.lock().unwrap();
        assert_eq!(retires.len(), 4_000);
        let mut seen = [false; MAX_HEIGHT];
        for &(addr, size, top, top_link) in retires.iter() {
            assert_eq!(
                size,
                node_bytes(top),
                "retire must pass the allocation size"
            );
            assert!(
                addr <= top_link && top_link + 8 <= addr + size,
                "[addr, addr+size) must cover the top link"
            );
            assert_eq!(top_link + 8, addr + size, "the top link ends the node");
            seen[top] = true;
        }
        assert!(
            seen[..8].iter().all(|&s| s),
            "heights 0..8 exercised: {seen:?}"
        );
        let s = pool.stats();
        assert_eq!((s.allocs, s.frees, s.bytes_resident), (2_001, 2_001, 0));
    }

    #[test]
    fn random_levels_are_geometricish() {
        let mut counts = [0usize; MAX_HEIGHT];
        for _ in 0..20_000 {
            counts[random_top_level()] += 1;
        }
        assert!(counts[0] > counts[2], "level 0 must dominate level 2");
        assert!(
            counts[0] > 5_000,
            "about half of towers should be height 1, got {}",
            counts[0]
        );
    }

    macro_rules! skiplist_semantics {
        ($modname:ident, $ty:ty, $scheme:expr) => {
            mod $modname {
                use super::*;

                #[test]
                fn roundtrip() {
                    let scheme = $scheme;
                    let sl = SkipList::<$ty>::new();
                    let h = scheme.register();
                    assert!(!sl.contains(&h, 10));
                    assert!(sl.insert(&h, 10));
                    assert!(!sl.insert(&h, 10));
                    assert!(sl.contains(&h, 10));
                    assert!(sl.remove(&h, 10));
                    assert!(!sl.remove(&h, 10));
                    assert!(!sl.contains(&h, 10));
                }

                #[test]
                fn bulk_sorted() {
                    let scheme = $scheme;
                    let sl = SkipList::<$ty>::new();
                    let h = scheme.register();
                    let keys = [44u64, 2, 99, 17, 8, 63, 30, 5, 71];
                    for &k in &keys {
                        assert!(sl.insert(&h, k));
                    }
                    let mut want = keys.to_vec();
                    want.sort_unstable();
                    assert_eq!(sl.keys_sequential(), want);
                    for &k in &keys {
                        assert!(sl.contains(&h, k));
                    }
                    for &k in &keys {
                        assert!(sl.remove(&h, k));
                    }
                    assert_eq!(sl.len_sequential(), 0);
                }
            }
        };
    }

    skiplist_semantics!(leaky_semantics, Leaky, Leaky::new());
    skiplist_semantics!(epoch_semantics, EpochScheme, EpochScheme::with_threshold(8));
    skiplist_semantics!(
        hazard_semantics,
        HazardPointers,
        HazardPointers::with_params(REQUIRED_SLOTS, 8)
    );

    #[test]
    fn concurrent_disjoint_ranges() {
        let scheme = Arc::new(EpochScheme::with_threshold(64));
        let sl = Arc::new(SkipList::<EpochScheme>::new());
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let scheme = Arc::clone(&scheme);
                let sl = Arc::clone(&sl);
                s.spawn(move || {
                    let h = scheme.register();
                    let base = t * 100_000;
                    for i in 0..300u64 {
                        assert!(sl.insert(&h, base + i));
                    }
                    for i in (0..300u64).step_by(3) {
                        assert!(sl.remove(&h, base + i));
                    }
                    for i in 0..300u64 {
                        assert_eq!(sl.contains(&h, base + i), i % 3 != 0);
                    }
                });
            }
        });
        assert_eq!(sl.len_sequential(), 8 * 200);
        scheme.quiesce();
        assert_eq!(scheme.outstanding(), 0);
    }

    #[test]
    fn concurrent_same_key_contention() {
        // All threads fight over the same tiny key space; set semantics
        // (no duplicates, remove⇒was present) must survive.
        let scheme = Arc::new(EpochScheme::with_threshold(16));
        let sl = Arc::new(SkipList::<EpochScheme>::new());
        use std::sync::atomic::AtomicI64;
        let balance: Arc<[AtomicI64; 8]> = Arc::new([(); 8].map(|_| AtomicI64::new(0)));
        std::thread::scope(|s| {
            for t in 0..8usize {
                let scheme = Arc::clone(&scheme);
                let sl = Arc::clone(&sl);
                let balance = Arc::clone(&balance);
                s.spawn(move || {
                    let h = scheme.register();
                    for i in 0..2_000usize {
                        let k = ((t * 31 + i * 17) % 8) as u64;
                        if (t + i) % 2 == 0 {
                            if sl.insert(&h, k) {
                                balance[k as usize].fetch_add(1, Ordering::SeqCst);
                            }
                        } else if sl.remove(&h, k) {
                            balance[k as usize].fetch_sub(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        // Successful inserts minus successful removes must equal final
        // membership, per key.
        for k in 0..8u64 {
            let b = balance[k as usize].load(Ordering::SeqCst);
            let present = sl.keys_sequential().contains(&k);
            assert_eq!(
                b,
                if present { 1 } else { 0 },
                "key {k}: balance {b} vs present {present}"
            );
        }
        scheme.quiesce();
        assert_eq!(scheme.outstanding(), 0);
    }

    /// Regression for the sentinel-head race: all traffic on the smallest
    /// keys makes the head the pred of nearly every critical section;
    /// with lock-free head entries, a front remove and a front insert
    /// could both validate against the same link and resurrect a
    /// spliced-out node.
    #[test]
    fn head_contention_churn_stays_consistent() {
        let scheme = Arc::new(EpochScheme::with_threshold(16));
        let sl = Arc::new(SkipList::<EpochScheme>::new());
        use std::sync::atomic::AtomicI64;
        let balance: Arc<[AtomicI64; 4]> = Arc::new([(); 4].map(|_| AtomicI64::new(0)));
        std::thread::scope(|s| {
            for t in 0..4usize {
                let scheme = Arc::clone(&scheme);
                let sl = Arc::clone(&sl);
                let balance = Arc::clone(&balance);
                s.spawn(move || {
                    let h = scheme.register();
                    let mut seed = 0xACE1u64 ^ (t as u64);
                    for _ in 0..5_000usize {
                        seed = seed
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let k = (seed >> 60) % 4; // only keys 0..4: head preds
                        if seed & 1 == 0 {
                            if sl.insert(&h, k) {
                                balance[k as usize].fetch_add(1, Ordering::SeqCst);
                            }
                        } else if sl.remove(&h, k) {
                            balance[k as usize].fetch_sub(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        for k in 0..4u64 {
            let b = balance[k as usize].load(Ordering::SeqCst);
            let present = sl.keys_sequential().contains(&k);
            assert_eq!(b, i64::from(present), "key {k}: balance {b} vs {present}");
        }
        scheme.quiesce();
        assert_eq!(scheme.outstanding(), 0);
    }

    #[test]
    fn readers_race_removals_under_hazard_pointers() {
        let scheme = Arc::new(HazardPointers::with_params(REQUIRED_SLOTS, 32));
        let sl = Arc::new(SkipList::<HazardPointers>::new());
        {
            let h = scheme.register();
            for k in 0..256u64 {
                sl.insert(&h, k);
            }
        }
        std::thread::scope(|s| {
            for _ in 0..3 {
                let scheme = Arc::clone(&scheme);
                let sl = Arc::clone(&sl);
                s.spawn(move || {
                    let h = scheme.register();
                    for _ in 0..30 {
                        for k in 0..256u64 {
                            let _ = sl.contains(&h, k);
                        }
                    }
                });
            }
            let scheme2 = Arc::clone(&scheme);
            let sl2 = Arc::clone(&sl);
            s.spawn(move || {
                let h = scheme2.register();
                for k in 0..256u64 {
                    assert!(sl2.remove(&h, k));
                }
            });
        });
        assert_eq!(sl.len_sequential(), 0);
        scheme.quiesce();
        assert_eq!(scheme.outstanding(), 0);
    }
}
