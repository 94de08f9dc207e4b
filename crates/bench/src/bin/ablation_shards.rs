//! Ablation I: master-buffer shard count — collect latency vs sharding.
//!
//! The reclaimer's per-phase cost is dominated by sorting the aggregated
//! delete buffer, which grows linearly with thread count × buffer size.
//! Sharding partitions the buffer by address and sorts each shard
//! independently (fence lookup + per-shard binary search on the scan
//! side); this sweep measures what that buys: throughput, reclaimer
//! collect latency (mean/max), per-phase sort time, and the per-shard
//! load balance. `--shards 1` is the paper's single sorted delete buffer.

use std::time::Duration;

use ts_bench::cli::{machine_info, write_json_report, CliArgs};
use ts_workload::{run_combo, Report, SchemeKind, StructureKind, WorkloadParams};

fn main() {
    let args = CliArgs::parse();
    let quick = args.get_flag("quick");
    let duration =
        Duration::from_secs_f64(args.get_f64("duration", if quick { 0.25 } else { 2.0 }));
    let scale = args.get_usize("scale", if quick { 64 } else { 1 });
    let threads = args.get_usize("threads", 4);
    let shard_list = args.get_usize_list("shards", &[1, 2, 4, 8]);
    let buffer = args.get_usize("buffer", if quick { 256 } else { 1024 });
    let json = args.get("json");
    args.finish();

    println!(
        "# Ablation I: master-buffer shard count ({})",
        machine_info()
    );
    println!(
        "# structure=hash threads={threads} buffer={buffer} duration={duration:?} scale=1/{scale}"
    );
    println!(
        "{:>8} {:>12} {:>10} {:>14} {:>14} {:>14} {:>14}",
        "shards", "Mops/s", "collects", "mean-coll-µs", "max-coll-µs", "mean-sort-µs", "max-shard"
    );

    let mut report = Report::new("ablation-shards");
    for &shards in &shard_list {
        let params = WorkloadParams::fig3(StructureKind::Hash, threads)
            .scaled_down(scale)
            .with_duration(duration)
            .with_ts_buffer(buffer)
            .with_ts_shards(shards);
        let r = run_combo(SchemeKind::ThreadScan, &params);
        let ts = r.threadscan.clone().unwrap_or_default();
        println!(
            "{:>8} {:>12.3} {:>10} {:>14.1} {:>14.1} {:>14.3} {:>14}",
            shards,
            r.ops_per_sec / 1e6,
            ts.collects,
            ts.mean_collect_us,
            ts.max_collect_us,
            ts.mean_sort_us,
            ts.max_shard_len,
        );
        if !ts.shard_sizes.is_empty() {
            println!("#   last-phase shard sizes: {:?}", ts.shard_sizes);
        }
        report.push(r);
    }
    println!("# shards=1 is the paper's single sorted delete buffer");

    write_json_report(json, &report);
}
