//! Every structure, allocated through a per-structure node pool: nodes
//! created by inserts, retired by removes, and freed by teardown must all
//! route through the same handle, so after drop + quiesce each pool's
//! counters balance exactly and nothing stays resident.

use std::sync::Arc;

use ts_alloc::pool::HEADER_BYTES;
use ts_alloc::size_classes::{class_of, class_size};
use ts_alloc::PoolHandle;
use ts_smr::{EpochScheme, Smr};
use ts_structures::skiplist::node_bytes;
use ts_structures::{
    ConcurrentSet, HarrisList, LazyList, LockFreeHashTable, NodeAlloc, PqAsSet, SkipList,
    SplitOrderedSet, MAX_HEIGHT,
};

/// Drives a structure through insert/contains/remove churn, drops it, and
/// asserts its pool balanced.
fn churn_and_check(name: &str, build: impl Fn(NodeAlloc) -> Box<dyn ConcurrentSet<EpochScheme>>) {
    let pool = PoolHandle::new(name.to_string());
    let scheme = EpochScheme::with_threshold(8);
    {
        let set = build(NodeAlloc::Pool(pool));
        let h = scheme.register();
        for k in 0..200u64 {
            set.insert(&h, k);
        }
        for k in (0..200u64).step_by(2) {
            set.remove(&h, k);
        }
        for k in 0..200u64 {
            let _ = set.contains(&h, k);
        }
        scheme.quiesce();
        let mid = pool.stats();
        assert!(mid.allocs > 0, "{name}: inserts must hit the pool");
        assert!(
            mid.frees > 0,
            "{name}: retired nodes must return to the pool"
        );
        assert!(mid.bytes_resident > 0, "{name}: survivors stay resident");
    }
    scheme.quiesce();
    let end = pool.stats();
    assert_eq!(
        end.allocs, end.frees,
        "{name}: teardown must return every node to its pool"
    );
    assert_eq!(end.bytes_resident, 0, "{name}: nothing left resident");
}

#[test]
fn harris_list_balances_its_pool() {
    churn_and_check("it-harris", |a| Box::new(HarrisList::with_alloc(a)));
}

#[test]
fn lazy_list_balances_its_pool() {
    churn_and_check("it-lazy", |a| Box::new(LazyList::with_alloc(a)));
}

#[test]
fn skiplist_balances_its_pool() {
    churn_and_check("it-skip", |a| Box::new(SkipList::with_alloc(a)));
}

/// Skip-list towers come in every height, each node in the pool block
/// that fits its own height; nodes inserted on one thread and removed on
/// the other go back to the pool, and nothing stays resident.
#[test]
fn skiplist_towers_of_every_height_free_across_threads() {
    const PER_THREAD: u64 = 16_000;
    let block = |top: usize| class_size(class_of(HEADER_BYTES + node_bytes(top)).unwrap());
    let pool = PoolHandle::new("it-skip-heights");
    let scheme = Arc::new(EpochScheme::with_threshold(32));
    {
        let sl = Arc::new(SkipList::<EpochScheme>::with_alloc(NodeAlloc::Pool(pool)));
        // Thread t owns the keys congruent to t mod 2.
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let (scheme, sl) = (Arc::clone(&scheme), Arc::clone(&sl));
                s.spawn(move || {
                    let h = scheme.register();
                    for i in 0..PER_THREAD {
                        assert!(sl.insert(&h, 2 * i + t));
                    }
                });
            }
        });
        let counts = sl.top_level_counts_sequential();
        assert!(
            counts.iter().all(|&n| n > 0),
            "every height 1..={MAX_HEIGHT} must occur: {counts:?}"
        );
        assert_eq!(counts.iter().sum::<usize>() as u64, 2 * PER_THREAD);
        // The pool holds the full-height sentinel plus one block per node
        // sized to the node's own height.
        let sized: usize = (0..MAX_HEIGHT).map(|top| counts[top] * block(top)).sum();
        assert_eq!(
            pool.stats().bytes_resident,
            block(MAX_HEIGHT - 1) + sized,
            "resident bytes must follow the tower heights"
        );
        // Each thread removes the keys the other inserted, so every
        // retired node is freed away from the thread that allocated it.
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let (scheme, sl) = (Arc::clone(&scheme), Arc::clone(&sl));
                s.spawn(move || {
                    let h = scheme.register();
                    for i in 0..PER_THREAD {
                        assert!(sl.remove(&h, 2 * i + (1 - t)));
                    }
                });
            }
        });
        assert_eq!(sl.len_sequential(), 0);
        scheme.quiesce();
        let s = pool.stats();
        assert_eq!(s.frees, 2 * PER_THREAD as usize, "every removed node freed");
        assert_eq!(s.bytes_resident, block(MAX_HEIGHT - 1), "only the sentinel");
    }
    let s = pool.stats();
    assert_eq!(s.allocs, s.frees, "teardown frees the sentinel too");
    assert_eq!(s.bytes_resident, 0);
}

#[test]
fn hash_table_balances_its_pool() {
    churn_and_check("it-hash", |a| Box::new(LockFreeHashTable::with_alloc(8, a)));
}

#[test]
fn split_ordered_balances_its_pool() {
    // Dummies and regulars share the pool; splits allocate extra dummies.
    churn_and_check("it-split", |a| {
        Box::new(SplitOrderedSet::with_buckets_and_alloc(2, a))
    });
}

#[test]
fn pq_as_set_balances_its_pool() {
    churn_and_check("it-pq", |a| Box::new(PqAsSet::with_alloc(a)));
}

#[test]
fn pooled_structures_survive_concurrent_churn() {
    let pool = PoolHandle::new("it-concurrent");
    let scheme = Arc::new(EpochScheme::with_threshold(32));
    {
        let list = Arc::new(HarrisList::<EpochScheme>::with_alloc(NodeAlloc::Pool(pool)));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let scheme = Arc::clone(&scheme);
                let list = Arc::clone(&list);
                s.spawn(move || {
                    let h = scheme.register();
                    let base = t * 10_000;
                    for i in 0..500u64 {
                        assert!(list.insert(&h, base + i));
                        if i % 2 == 0 {
                            assert!(list.remove(&h, base + i));
                        }
                    }
                });
            }
        });
        assert_eq!(list.len_sequential(), 4 * 250);
    }
    scheme.quiesce();
    let s = pool.stats();
    assert_eq!(s.allocs, s.frees, "cross-thread frees must credit the pool");
    assert_eq!(s.bytes_resident, 0);
}
