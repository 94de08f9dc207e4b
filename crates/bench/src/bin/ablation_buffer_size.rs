//! Ablation A: ThreadScan delete-buffer size sweep.
//!
//! §6 observes the trade-off directly: "Increasing the size of the delete
//! buffer, and thereby reducing the frequency of reclamation iterations,
//! is a useful way of amortizing the cost of signals and of waiting.
//! However, it also increases the size of the list of pointers." This
//! binary sweeps the per-thread buffer capacity on the hash-table workload
//! and reports throughput plus the collector's own amortization counters
//! (collect frequency, words scanned per collect).

use std::time::Duration;

use ts_bench::cli::{machine_info, write_json_report, CliArgs};
use ts_workload::{run_combo, Report, SchemeKind, StructureKind, WorkloadParams};

fn main() {
    let args = CliArgs::parse();
    let quick = args.get_flag("quick");
    let duration =
        Duration::from_secs_f64(args.get_f64("duration", if quick { 0.25 } else { 2.0 }));
    let scale = args.get_usize("scale", if quick { 64 } else { 1 });
    let threads = args.get_usize(
        "threads",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            * 2,
    );
    let sizes = args.get_usize_list(
        "sizes",
        &if quick {
            vec![64, 256]
        } else {
            vec![256, 512, 1024, 2048, 4096, 8192, 16384]
        },
    );
    let json = args.get("json");
    args.finish();

    println!(
        "# Ablation A: delete-buffer size sweep ({})",
        machine_info()
    );
    println!("# structure=hash threads={threads} duration={duration:?} scale=1/{scale}");
    println!(
        "{:>8} {:>12} {:>10} {:>14} {:>16}",
        "buffer", "Mops/s", "collects", "freed", "words/collect"
    );

    let mut report = Report::new("ablation-buffer-size");
    for &size in &sizes {
        let params = WorkloadParams::fig3(StructureKind::Hash, threads)
            .scaled_down(scale)
            .with_duration(duration)
            .with_ts_buffer(size);
        let r = run_combo(SchemeKind::ThreadScan, &params);
        let ts = r.threadscan.clone().unwrap_or_default();
        let wpc = if ts.collects > 0 {
            ts.words_scanned as f64 / ts.collects as f64
        } else {
            0.0
        };
        println!(
            "{:>8} {:>12.3} {:>10} {:>14} {:>16.0}",
            size,
            r.ops_per_sec / 1e6,
            ts.collects,
            ts.freed,
            wpc
        );
        report.push(r);
    }

    write_json_report(json, &report);
}
