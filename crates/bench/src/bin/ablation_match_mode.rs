//! Ablation H: word-matching kernel — range (ours) vs masked exact (the
//! paper's §4.2).
//!
//! Range matching (`addr <= w < addr + size`) is this port's deviation:
//! Rust traversals may hold interior pointers, which the paper's masked
//! equality would miss (and then free a live node). The Harris list is
//! the one structure whose traversals provably hold only node-base
//! pointers (`next` is the first field), so the paper's exact kernel is
//! sound there — making it the right place to measure what the stronger
//! conservatism costs: throughput, scan words, and survivor counts.

use std::time::Duration;

use ts_bench::cli::{machine_info, write_json_report, CliArgs};
use ts_workload::{run_combo, Report, SchemeKind, StructureKind, WorkloadParams};

fn main() {
    let args = CliArgs::parse();
    let quick = args.get_flag("quick");
    let duration =
        Duration::from_secs_f64(args.get_f64("duration", if quick { 0.25 } else { 2.0 }));
    let scale = args.get_usize("scale", if quick { 64 } else { 1 });
    let threads_list = args.get_usize_list("threads", &[2, 4]);
    let json = args.get("json");
    args.finish();

    println!("# Ablation H: range vs exact matching ({})", machine_info());
    println!("# structure=list duration={duration:?} scale=1/{scale} update%=20");
    println!(
        "{:>8} {:>13} {:>13} {:>13} {:>13} {:>13} {:>13}",
        "threads",
        "range Mops/s",
        "exact Mops/s",
        "range surv",
        "exact surv",
        "range lat-µs",
        "exact lat-µs"
    );

    let mut report = Report::new("ablation-match-mode");
    for &threads in &threads_list {
        let base = WorkloadParams::fig3(StructureKind::List, threads)
            .scaled_down(scale)
            .with_duration(duration);

        let range = run_combo(SchemeKind::ThreadScan, &base);

        let mut exact_params = base.clone();
        exact_params.ts_exact_match = true;
        let exact = run_combo(SchemeKind::ThreadScan, &exact_params);

        let r = range.threadscan.clone().unwrap_or_default();
        let e = exact.threadscan.clone().unwrap_or_default();
        println!(
            "{:>8} {:>13.3} {:>13.3} {:>13} {:>13} {:>13.1} {:>13.1}",
            threads,
            range.ops_per_sec / 1e6,
            exact.ops_per_sec / 1e6,
            r.survivors,
            e.survivors,
            r.mean_collect_us,
            e.mean_collect_us,
        );
        report.push(range);
        report.push(exact);
    }
    println!("# exact matching may retain fewer survivors (no interior-pointer hits)");

    write_json_report(json, &report);
}
