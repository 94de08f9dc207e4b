//! The master buffer: the sorted aggregation every scan runs against.
//!
//! `TS-Collect` (Algorithm 1, line 2) sorts the delete buffer "to speed up
//! the scan process"; scanning threads binary-search it and set mark bits.
//! After all acknowledgments, unmarked entries are reclaimed and marked
//! entries survive into the next reclamation phase.
//!
//! This implementation *shards* the master buffer: entries are partitioned
//! by address into `CollectorConfig::shards` contiguous address ranges, and
//! the reclaimer sorts each shard in turn, on its own thread, before any
//! other thread is signaled — the paper's one sort, done shard by shard.
//! A scan does a fence lookup (binary search over at most `S - 1`
//! shard-boundary addresses) followed by a binary search inside one
//! shard, so handler-side work is O(log S + log(n/S)) and stays
//! async-signal-safe. With `shards = 1` the construction degenerates to
//! the original single sorted array, bit for bit.

use core::sync::atomic::{AtomicU8, Ordering};

use crate::config::{CollectorConfig, MatchMode};
use crate::retired::Retired;
use crate::session::{ScanSession, ShardView};

/// Minimum entries per shard worth splitting for: below this, fence
/// overhead outweighs the smaller per-shard searches, so the builder uses
/// fewer shards than configured.
const MIN_SHARD_LEN: usize = 16;

/// One address-contiguous shard: entries sorted ascending by address, with
/// the search-key / end / mark arrays kept separate for cache-dense binary
/// search from signal handlers.
struct Shard {
    entries: Vec<Retired>,
    /// Search keys, parallel to `entries`: the entry address, with the
    /// low-order bits already masked off in [`MatchMode::Exact`] (matching
    /// happens in masked-key space on *both* sides — see `find_exact`).
    addrs: Vec<usize>,
    /// `entries[i].end()`, parallel to `addrs`.
    ends: Vec<usize>,
    /// `marks[i] != 0` means entry `i` may still be referenced.
    marks: Vec<AtomicU8>,
}

impl Shard {
    /// Builds one shard from entries pre-sorted by raw address.
    fn from_sorted(entries: Vec<Retired>, key_mask: usize) -> Self {
        let addrs: Vec<usize> = entries.iter().map(|e| e.addr() & key_mask).collect();
        let ends: Vec<usize> = entries.iter().map(Retired::end).collect();
        let marks = (0..entries.len()).map(|_| AtomicU8::new(0)).collect();
        Self {
            entries,
            addrs,
            ends,
            marks,
        }
    }
}

/// Sharded, markable aggregation of retired nodes for one reclamation
/// phase. Shards partition the address space contiguously, so the
/// concatenation of the shards is globally sorted; the public index-based
/// API (`mark`, `is_marked`, `partition`) operates on that global order.
pub struct MasterBuffer {
    /// Non-empty address-partitioned shards (exactly one — possibly empty —
    /// shard when there is nothing to split).
    shards: Vec<Shard>,
    /// `fences[k]` is the first search key of shard `k + 1`; a scanned key
    /// `w` belongs to shard `partition_point(fences, |f| f <= w)`.
    fences: Vec<usize>,
    /// `offsets[k]` is the global index of shard `k`'s first entry
    /// (`offsets.len() == shards.len() + 1`).
    offsets: Vec<usize>,
    mode: MatchMode,
    low_bit_mask: usize,
    /// Wall time spent partitioning and sorting, in nanoseconds.
    sort_ns: usize,
}

/// Whether an (already non-decreasing) key sequence has no duplicates,
/// i.e. no adjacent equal elements. Backs the build-time `debug_assert!`s
/// (whose conditions still type-check in release, so no `cfg` gate here).
fn all_adjacent_distinct(mut keys: impl Iterator<Item = usize>) -> bool {
    let mut prev: Option<usize> = None;
    keys.all(|k| {
        let ok = prev != Some(k);
        prev = Some(k);
        ok
    })
}

/// Picks `shards - 1` pivot addresses from a sorted sample of the input so
/// the address-range buckets come out roughly balanced even under skew.
fn select_pivots(entries: &[Retired], shards: usize) -> Vec<usize> {
    let step = (entries.len() / (shards * 8)).max(1);
    let mut sample: Vec<usize> = entries.iter().step_by(step).map(Retired::addr).collect();
    sample.sort_unstable();
    (1..shards)
        .map(|k| sample[k * sample.len() / shards])
        .collect()
}

/// Number of shards [`MasterBuffer::build`] will target for a phase of
/// `len` entries: the configured count, but never so many that shards
/// drop below [`MIN_SHARD_LEN`] entries.
fn shard_target(len: usize, config: &CollectorConfig) -> usize {
    config.shards.max(1).min((len / MIN_SHARD_LEN).max(1))
}

/// Nanoseconds elapsed since `start`, clamped into a `usize`.
pub(crate) fn elapsed_ns(start: std::time::Instant) -> usize {
    start.elapsed().as_nanos().min(usize::MAX as u128) as usize
}

/// Sorts one address-range bucket and builds its shard. Each bucket
/// covers a disjoint address range, so the locally sorted shards
/// concatenate globally sorted.
fn sort_bucket(mut bucket: Vec<Retired>, key_mask: usize) -> Shard {
    bucket.sort_unstable_by_key(Retired::addr);
    Shard::from_sorted(bucket, key_mask)
}

impl MasterBuffer {
    /// Partitions `entries` by address into shards and sorts each shard
    /// on the calling thread (the reclaimer). Touches nothing outside the
    /// calling thread, so a forced collect is safe to run from any
    /// context.
    ///
    /// Duplicate addresses indicate a double `retire` in application code;
    /// this is rejected in debug builds.
    pub fn build(entries: Vec<Retired>, config: &CollectorConfig) -> Self {
        let start = std::time::Instant::now();
        // In Exact mode both the buffer keys and the probe words are
        // masked, so a node retired at a tagged/unaligned address still
        // matches a stably held (tagged) reference to it.
        // Masking must preserve address order, or the pre-masked key
        // arrays (and the fences derived from them) would not be sorted
        // and both binary searches would silently miss present keys.
        // Clearing bits preserves order exactly when the mask is a
        // contiguous low-bit run (2^k - 1).
        debug_assert!(
            config.match_mode != MatchMode::Exact
                || config.low_bit_mask.wrapping_add(1).is_power_of_two(),
            "low_bit_mask must be a contiguous low-bit mask (2^k - 1)"
        );
        let key_mask = match config.match_mode {
            MatchMode::Range => usize::MAX,
            MatchMode::Exact => !config.low_bit_mask,
        };
        let shard_target = shard_target(entries.len(), config);

        let shards: Vec<Shard> = if shard_target <= 1 {
            vec![sort_bucket(entries, key_mask)]
        } else {
            let pivots = select_pivots(&entries, shard_target);
            let mut buckets: Vec<Vec<Retired>> = (0..shard_target).map(|_| Vec::new()).collect();
            for e in entries {
                buckets[pivots.partition_point(|&p| p <= e.addr())].push(e);
            }
            buckets
                .into_iter()
                .filter(|b| !b.is_empty())
                .map(|b| sort_bucket(b, key_mask))
                .collect()
        };

        debug_assert!(
            all_adjacent_distinct(
                shards
                    .iter()
                    .flat_map(|s| s.entries.iter().map(Retired::addr))
            ),
            "double-retire detected: duplicate address in the delete buffer"
        );
        // In Exact mode, matching happens on masked keys: two nodes
        // retired within one low_bit_mask-aligned granule would alias, a
        // probe would mark only one of them, and the other would be freed
        // while possibly still referenced. Catch the contract violation
        // (README: retire addresses must be distinct after masking) here
        // rather than as a silent use-after-free.
        debug_assert!(
            config.match_mode != MatchMode::Exact
                || all_adjacent_distinct(shards.iter().flat_map(|s| s.addrs.iter().copied())),
            "Exact-mode aliasing: two retired nodes share a masked key \
             (addresses must be distinct after masking off low_bit_mask)"
        );

        let mut offsets = Vec::with_capacity(shards.len() + 1);
        let mut total = 0usize;
        offsets.push(0);
        for s in &shards {
            total += s.entries.len();
            offsets.push(total);
        }
        let fences: Vec<usize> = shards.iter().skip(1).map(|s| s.addrs[0]).collect();
        let sort_ns = elapsed_ns(start);

        Self {
            shards,
            fences,
            offsets,
            mode: config.match_mode,
            low_bit_mask: config.low_bit_mask,
            sort_ns,
        }
    }

    /// Number of retired nodes in this phase.
    pub fn len(&self) -> usize {
        *self.offsets.last().unwrap_or(&0)
    }

    /// Whether this phase has nothing to reclaim.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of (non-empty) shards the entries were partitioned into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Entry count of each shard, shard order (per-phase load diagnostic).
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.entries.len()).collect()
    }

    /// Nanoseconds spent partitioning and sorting in [`Self::build`].
    pub fn sort_ns(&self) -> usize {
        self.sort_ns
    }

    /// Creates the signal-handler-facing view of this buffer.
    ///
    /// The returned session borrows `self`; the borrow checker guarantees
    /// the master buffer outlives every scan that uses the session, and the
    /// collect protocol guarantees handlers are done before the session is
    /// dropped (the last thing a handler does is acknowledge).
    pub fn session(&self) -> ScanSession<'_> {
        let views: Vec<ShardView<'_>> = self
            .shards
            .iter()
            .map(|s| ShardView::new(&s.addrs, &s.ends, &s.marks))
            .collect();
        ScanSession::new(views, &self.fences, self.mode, self.low_bit_mask)
    }

    /// Maps a global entry index to its shard and in-shard index.
    fn locate(&self, i: usize) -> (usize, usize) {
        let shard = self.offsets.partition_point(|&o| o <= i) - 1;
        (shard, i - self.offsets[shard])
    }

    /// Marks entry `i` (global sorted order) directly — used by the
    /// reclaimer for roots it can see without a scan, and by tests.
    pub fn mark(&self, i: usize) {
        let (s, j) = self.locate(i);
        self.shards[s].marks[j].store(1, Ordering::Release);
    }

    /// Whether entry `i` (global sorted order) has been marked.
    pub fn is_marked(&self, i: usize) -> bool {
        let (s, j) = self.locate(i);
        self.shards[s].marks[j].load(Ordering::Acquire) != 0
    }

    /// Consumes the phase: returns `(reclaimable, survivors)` —
    /// Algorithm 1 lines 11-15 split into "free now" and "carry over".
    pub fn partition(self) -> (Vec<Retired>, Vec<Retired>) {
        let mut reclaimable = Vec::new();
        let mut survivors = Vec::new();
        for shard in self.shards {
            for (entry, mark) in shard.entries.into_iter().zip(shard.marks.iter()) {
                if mark.load(Ordering::Acquire) == 0 {
                    reclaimable.push(entry);
                } else {
                    survivors.push(entry);
                }
            }
        }
        (reclaimable, survivors)
    }

    /// The entries in global sorted order (diagnostics/tests).
    pub fn entries(&self) -> Vec<&Retired> {
        self.shards.iter().flat_map(|s| s.entries.iter()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retired::noop_drop;
    use proptest::prelude::*;

    fn rec(addr: usize, size: usize) -> Retired {
        unsafe { Retired::from_raw_parts(addr, size, noop_drop) }
    }

    fn cfg() -> CollectorConfig {
        CollectorConfig::default()
    }

    fn cfg_sharded(shards: usize) -> CollectorConfig {
        CollectorConfig::default().with_shards(shards)
    }

    #[test]
    fn new_sorts_by_address() {
        let mb = MasterBuffer::build(vec![rec(0x300, 8), rec(0x100, 8), rec(0x200, 8)], &cfg());
        let addrs: Vec<usize> = mb.entries().iter().map(|e| e.addr()).collect();
        assert_eq!(addrs, vec![0x100, 0x200, 0x300]);
    }

    #[test]
    fn sharded_concatenation_is_globally_sorted() {
        let entries: Vec<Retired> = (0..256).rev().map(|i| rec(0x1000 + i * 64, 32)).collect();
        let mb = MasterBuffer::build(entries, &cfg_sharded(4));
        assert!(mb.shard_count() > 1, "256 entries must actually shard");
        assert_eq!(mb.shard_sizes().iter().sum::<usize>(), 256);
        let addrs: Vec<usize> = mb.entries().iter().map(|e| e.addr()).collect();
        assert!(addrs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn tiny_phases_collapse_to_one_shard() {
        let mb = MasterBuffer::build(vec![rec(0x100, 8), rec(0x200, 8)], &cfg_sharded(8));
        assert_eq!(mb.shard_count(), 1);
    }

    #[test]
    fn unmarked_entries_are_reclaimable() {
        let mb = MasterBuffer::build(vec![rec(0x100, 8), rec(0x200, 8), rec(0x300, 8)], &cfg());
        mb.mark(1);
        let (reclaimable, survivors) = mb.partition();
        let free: Vec<usize> = reclaimable.iter().map(Retired::addr).collect();
        let keep: Vec<usize> = survivors.iter().map(Retired::addr).collect();
        assert_eq!(free, vec![0x100, 0x300]);
        assert_eq!(keep, vec![0x200]);
    }

    #[test]
    fn global_mark_indices_cross_shard_boundaries() {
        let entries: Vec<Retired> = (0..128).map(|i| rec(0x1000 + i * 64, 32)).collect();
        let mb = MasterBuffer::build(entries, &cfg_sharded(4));
        assert!(mb.shard_count() > 1);
        for i in (0..128).step_by(3) {
            mb.mark(i);
        }
        for i in 0..128 {
            assert_eq!(mb.is_marked(i), i % 3 == 0, "entry {i}");
        }
    }

    #[test]
    fn session_scan_marks_via_range_match() {
        let mb = MasterBuffer::build(vec![rec(0x1000, 64), rec(0x2000, 64)], &cfg());
        let session = mb.session();
        // Interior pointer into the first node; nothing touching the second.
        session.scan_word(0x1020);
        session.scan_word(0x3000);
        drop(session);
        assert!(mb.is_marked(0));
        assert!(!mb.is_marked(1));
    }

    #[test]
    fn session_scan_exact_mode_ignores_interior() {
        let config = CollectorConfig::default().with_match_mode(MatchMode::Exact);
        let mb = MasterBuffer::build(vec![rec(0x1000, 64)], &config);
        let session = mb.session();
        session.scan_word(0x1020); // interior: not a match in exact mode
        session.scan_word(0x1001); // tagged base pointer: match
        drop(session);
        assert!(mb.is_marked(0));
    }

    #[test]
    fn exact_mode_masks_buffer_addresses_too() {
        // Regression (Exact-mode mask asymmetry): a node retired at an
        // address carrying tag bits used to be unmatchable, because only
        // the probe word was masked. Both sides are masked now.
        let config = CollectorConfig::default().with_match_mode(MatchMode::Exact);
        let mb = MasterBuffer::build(vec![rec(0x1001, 64)], &config);
        let session = mb.session();
        assert!(session.scan_word(0x1003), "masked keys must meet");
        drop(session);
        assert!(mb.is_marked(0));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "contiguous low-bit mask")]
    fn non_contiguous_mask_rejected_in_debug() {
        let mut config = CollectorConfig::default().with_match_mode(MatchMode::Exact);
        config.low_bit_mask = 0b100; // would reorder masked keys
        let _ = MasterBuffer::build(vec![rec(0x1003, 2)], &config);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "Exact-mode aliasing")]
    fn exact_mode_masked_alias_rejected_in_debug() {
        let config = CollectorConfig::default().with_match_mode(MatchMode::Exact);
        // 0x1001 and 0x1004 share masked key 0x1000 under the 0b111 mask.
        let _ = MasterBuffer::build(vec![rec(0x1001, 2), rec(0x1004, 2)], &config);
    }

    #[test]
    fn empty_master_buffer_partitions_to_nothing() {
        let mb = MasterBuffer::build(Vec::new(), &cfg());
        assert!(mb.is_empty());
        let (reclaimable, survivors) = mb.partition();
        assert!(reclaimable.is_empty());
        assert!(survivors.is_empty());
    }

    proptest! {
        /// Partition conserves the retired multiset: every entry comes out
        /// exactly once, on the side its mark dictates — at every shard
        /// count, against the global sorted order.
        #[test]
        fn partition_conserves_entries(
            addrs in proptest::collection::btree_set(1usize..1_000_000, 0..128),
            mark_bits in proptest::collection::vec(any::<bool>(), 128),
            shards in 1usize..9,
        ) {
            let entries: Vec<Retired> =
                addrs.iter().map(|&a| rec(a * 8, 8)).collect();
            let n = entries.len();
            let mb = MasterBuffer::build(entries, &cfg_sharded(shards));
            let mut expect_keep = Vec::new();
            let mut expect_free = Vec::new();
            for (i, &bit) in mark_bits.iter().enumerate().take(n) {
                if bit {
                    mb.mark(i);
                    expect_keep.push(mb.entries()[i].addr());
                } else {
                    expect_free.push(mb.entries()[i].addr());
                }
            }
            let (reclaimable, survivors) = mb.partition();
            let free: Vec<usize> = reclaimable.iter().map(Retired::addr).collect();
            let keep: Vec<usize> = survivors.iter().map(Retired::addr).collect();
            prop_assert_eq!(free, expect_free);
            prop_assert_eq!(keep, expect_keep);
        }
    }
}
