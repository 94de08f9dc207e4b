//! Directory-growth ablation: drive the split-ordered table from 2^8
//! buckets to past the old 2^20 directory cap, and show that growth is
//! incremental — no stop-the-world resize.
//!
//! Worker threads insert distinct keys (with a slice of remove+reinsert
//! traffic so the collector actually has retirements to process) while
//! the main thread watches the bucket count. At every doubling it emits
//! a checkpoint: buckets, resident keys, elapsed time, the collector's
//! collect-latency percentiles so far, and the worst *single-op* latency
//! any worker has seen — the number a stop-the-world resize would blow
//! up and an incremental segment-tree grow keeps flat.
//!
//! ```text
//! cargo run -p ts-bench --release --bin ablation_growth -- \
//!     [--threads 4] [--target-buckets 2097152] [--load-factor 1] \
//!     [--timeout 120] [--json out.jsonl]
//! ```
//!
//! `--quick` shrinks the target to 2^12 buckets for CI smoke runs.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ts_bench::cli::{machine_info, CliArgs};
use ts_sigscan::SignalPlatform;
use ts_smr::dynamic::{DynSmr, ErasedSmr};
use ts_smr::{Smr, ThreadScanSmr};
use ts_structures::{ConcurrentSet, SplitOrderedSet};
use ts_workload::json::ObjectBuilder;

const START_BUCKETS: usize = 256; // 2^8
const OLD_CAP: usize = 1 << 20;

fn main() {
    let args = CliArgs::parse();
    let quick = args.get_flag("quick");
    let threads = args.get_usize("threads", 4);
    let target_buckets = args.get_usize("target-buckets", if quick { 1 << 12 } else { 1 << 21 });
    let load_factor = args.get_usize("load-factor", 1);
    let timeout_s = args.get_usize("timeout", 120) as u64;
    let json = args.get("json");
    args.finish();

    println!(
        "# Directory growth: 2^8 -> {target_buckets} buckets ({})",
        machine_info()
    );
    println!("# threads={threads} load_factor={load_factor} old_cap=2^20={OLD_CAP}");

    let platform = SignalPlatform::new().expect("signal platform unavailable");
    // Small delete buffers force collect phases during the sweep, so the
    // latency histogram has data at every checkpoint.
    let config = threadscan::CollectorConfig::default().with_buffer_capacity(256);
    let scheme: Arc<dyn DynSmr> = Arc::new(ThreadScanSmr::with_config(platform, config));
    let erased = Arc::new(ErasedSmr::new(Arc::clone(&scheme)));
    let set = Arc::new(
        SplitOrderedSet::<ErasedSmr>::with_buckets(START_BUCKETS).with_load_factor(load_factor),
    );

    let stop = Arc::new(AtomicBool::new(false));
    let inserted = Arc::new(AtomicUsize::new(0));
    // Worst single-op wall time (ns) any worker observed, sampled on
    // every op: a stop-the-world resize would spike this by orders of
    // magnitude at each doubling.
    let max_op_ns = Arc::new(AtomicU64::new(0));

    let t0 = Instant::now();
    let mut checkpoints: Vec<String> = Vec::new();
    std::thread::scope(|s| {
        for t in 0..threads {
            let erased = Arc::clone(&erased);
            let set = Arc::clone(&set);
            let stop = Arc::clone(&stop);
            let inserted = Arc::clone(&inserted);
            let max_op_ns = Arc::clone(&max_op_ns);
            s.spawn(move || {
                let handle = erased.register();
                let mut local_max = 0u64;
                // Distinct keys per thread: k = i * threads + t.
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let key = i * threads as u64 + t as u64;
                    let op_start = Instant::now();
                    if set.insert(&handle, key) {
                        inserted.fetch_add(1, Ordering::Relaxed);
                    }
                    // Every 8th key: churn an older key so nodes retire
                    // and the collector has real work during growth.
                    if i % 8 == 7 && i >= 8 {
                        let victim = (i - 8) * threads as u64 + t as u64;
                        if set.remove(&handle, victim) {
                            set.insert(&handle, victim);
                        }
                    }
                    let ns = op_start.elapsed().as_nanos() as u64;
                    if ns > local_max {
                        local_max = ns;
                        max_op_ns.fetch_max(ns, Ordering::Relaxed);
                    }
                    i += 1;
                }
            });
        }

        // Watcher: checkpoint at every doubling until the target.
        let mut next_mark = START_BUCKETS * 2;
        loop {
            std::thread::sleep(std::time::Duration::from_millis(2));
            let buckets = set.bucket_count();
            while buckets >= next_mark {
                checkpoints.push(checkpoint_json(
                    next_mark,
                    inserted.load(Ordering::Relaxed),
                    t0.elapsed().as_secs_f64(),
                    max_op_ns.load(Ordering::Relaxed),
                    &*scheme,
                ));
                let line = checkpoints.last().unwrap();
                println!("{line}");
                next_mark *= 2;
            }
            if buckets >= target_buckets {
                break;
            }
            assert!(
                t0.elapsed().as_secs() < timeout_s,
                "growth stalled: {buckets}/{target_buckets} buckets after {timeout_s}s"
            );
        }
        stop.store(true, Ordering::Relaxed);
    });

    let buckets = set.bucket_count();
    let resident = inserted.load(Ordering::Relaxed);
    println!(
        "# final: {buckets} buckets, {resident} resident keys, {:.2}s",
        t0.elapsed().as_secs_f64()
    );
    if buckets > OLD_CAP {
        println!("# crossed the old 2^20 directory cap");
    }
    assert!(buckets >= target_buckets);

    if let Some(path) = json {
        std::fs::write(path, checkpoints.join("\n") + "\n").expect("write json");
        println!("# json written to {path}");
    }
}

/// One checkpoint as a JSON line: directory size, residency, elapsed,
/// sampled worst op latency, and the collector's latency percentiles.
fn checkpoint_json(
    buckets: usize,
    resident: usize,
    elapsed_s: f64,
    max_op_ns: u64,
    scheme: &dyn DynSmr,
) -> String {
    let mut b = ObjectBuilder::new()
        .num("buckets", buckets as f64)
        .num("resident_keys", resident as f64)
        .num("elapsed_s", elapsed_s)
        .num("max_op_us", max_op_ns as f64 / 1e3)
        .bool("past_old_cap", buckets > OLD_CAP);
    if let Some(ts) = scheme
        .as_any()
        .downcast_ref::<ThreadScanSmr<SignalPlatform>>()
    {
        let st = ts.stats();
        b = b
            .num("collects", st.collects as f64)
            .num("collect_us_p50", st.collect_us_percentile(0.50))
            .num("collect_us_p95", st.collect_us_percentile(0.95))
            .num("collect_us_p99", st.collect_us_percentile(0.99));
    }
    b.build()
}
