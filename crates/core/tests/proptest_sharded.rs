//! Observational equivalence of the sharded master buffer.
//!
//! The sharded layout (fence lookup + per-shard binary search) must be
//! indistinguishable from the legacy single sorted array for every entry
//! set, probe word, shard count, and match mode: same hit/miss per word,
//! same marks, same `(reclaimable, survivors)` partition. Checked both
//! against an explicit 1-shard buffer and against the linear-scan oracles
//! from `threadscan::scan` (the `find_range_linear` pattern).

use proptest::prelude::*;
use threadscan::master::MasterBuffer;
use threadscan::retired::{noop_drop, Retired};
use threadscan::scan::{find_exact_linear, find_range_linear};
use threadscan::{CollectorConfig, MatchMode};

/// Builds disjoint nodes from (gap, size) pairs. Addresses are multiples
/// of 8 so Exact-mode masked keys stay distinct (masked collisions would
/// make "which duplicate gets marked" ambiguous — a non-goal here; the
/// unit tests cover tagged/unaligned retire addresses).
fn build_nodes(gaps: &[(usize, usize)]) -> Vec<(usize, usize)> {
    let mut cursor = 0x1000usize;
    let mut nodes = Vec::new();
    for &(gap, size) in gaps {
        cursor += gap * 8;
        nodes.push((cursor, size));
        cursor += size.next_multiple_of(8);
    }
    nodes
}

fn entries_of(nodes: &[(usize, usize)]) -> Vec<Retired> {
    nodes
        .iter()
        .map(|&(a, s)| unsafe { Retired::from_raw_parts(a, s, noop_drop) })
        .collect()
}

/// Runs one full phase (build, scan all words, partition) and returns the
/// freed and surviving address lists.
fn run_phase(
    nodes: &[(usize, usize)],
    words: &[usize],
    shards: usize,
    mode: MatchMode,
) -> (Vec<usize>, Vec<usize>, usize) {
    let config = CollectorConfig::default()
        .with_shards(shards)
        .with_match_mode(mode);
    let master = MasterBuffer::build(entries_of(nodes), &config);
    let session = master.session();
    let mut hits = 0usize;
    for &w in words {
        if session.scan_word(w) {
            hits += 1;
        }
    }
    drop(session);
    let (freed, kept) = master.partition();
    (
        freed.iter().map(Retired::addr).collect(),
        kept.iter().map(Retired::addr).collect(),
        hits,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sharded scan ≡ 1-shard (legacy) scan, and both agree with the
    /// linear oracle, for arbitrary entry sets / probes / shard counts
    /// and both match modes.
    #[test]
    fn sharded_scan_is_observationally_equivalent_to_one_shard(
        gaps in proptest::collection::vec((1usize..200, 1usize..256), 0..96),
        probes in proptest::collection::vec(any::<usize>(), 0..48),
        shards in 2usize..17,
        mode in prop_oneof![Just(MatchMode::Range), Just(MatchMode::Exact)],
    ) {
        let nodes = build_nodes(&gaps);

        // Probe arbitrary words plus words aimed at every node: base,
        // tagged base, interior, one-past-end.
        let mut words = probes;
        for &(a, s) in &nodes {
            words.extend_from_slice(&[a, a | 0b101, a + s / 2, a + s]);
        }

        let (freed_1, kept_1, hits_1) = run_phase(&nodes, &words, 1, mode);
        let (freed_s, kept_s, hits_s) = run_phase(&nodes, &words, shards, mode);
        prop_assert_eq!(&freed_s, &freed_1, "freed sets must match legacy");
        prop_assert_eq!(&kept_s, &kept_1, "survivor sets must match legacy");
        prop_assert_eq!(hits_s, hits_1, "per-word hit counts must match");

        // Oracle cross-check (the find_range_linear pattern): a node
        // survives iff some word hits it per the linear kernels.
        let mut sorted = nodes.clone();
        sorted.sort_unstable();
        let addrs: Vec<usize> = sorted.iter().map(|&(a, _)| a).collect();
        let ends: Vec<usize> = sorted.iter().map(|&(a, s)| a + s).collect();
        let mask = CollectorConfig::default().low_bit_mask;
        let mut marked = vec![false; sorted.len()];
        for &w in &words {
            let hit = match mode {
                MatchMode::Range => find_range_linear(&addrs, &ends, w),
                MatchMode::Exact => find_exact_linear(&addrs, w, mask),
            };
            if let Some(i) = hit {
                marked[i] = true;
            }
        }
        let expect_kept: Vec<usize> = sorted
            .iter()
            .zip(&marked)
            .filter(|(_, &m)| m)
            .map(|(&(a, _), _)| a)
            .collect();
        prop_assert_eq!(kept_s, expect_kept, "survivors must match the oracle");
    }

    /// Direct-mark equivalence: global mark indices address the same
    /// entries regardless of shard count.
    #[test]
    fn global_mark_indices_are_shard_invariant(
        gaps in proptest::collection::vec((1usize..100, 8usize..64), 1..64),
        mark_bits in proptest::collection::vec(any::<bool>(), 64),
        shards in 2usize..9,
    ) {
        let nodes = build_nodes(&gaps);
        let config_1 = CollectorConfig::default().with_shards(1);
        let config_s = CollectorConfig::default().with_shards(shards);
        let mb_1 = MasterBuffer::build(entries_of(&nodes), &config_1);
        let mb_s = MasterBuffer::build(entries_of(&nodes), &config_s);
        prop_assert_eq!(mb_1.len(), mb_s.len());
        for (i, &bit) in mark_bits.iter().enumerate().take(nodes.len()) {
            if bit {
                mb_1.mark(i);
                mb_s.mark(i);
            }
            prop_assert_eq!(mb_1.is_marked(i), mb_s.is_marked(i), "index {}", i);
        }
        let (f1, k1) = mb_1.partition();
        let (fs, ks) = mb_s.partition();
        let key = |v: &[Retired]| v.iter().map(Retired::addr).collect::<Vec<_>>();
        prop_assert_eq!(key(&f1), key(&fs));
        prop_assert_eq!(key(&k1), key(&ks));
    }
}
