//! Ablation F: priority-queue stress (beyond the paper's figures).
//!
//! `delete_min` retires a node on *every* successful call, so at a 50/50
//! insert/delete-min mix half of all operations hit the reclamation path
//! — roughly 5× the retire pressure of the paper's 20%-update set
//! workloads. This sweep shows how each scheme holds up when reclamation
//! dominates, and how ThreadScan's signal amortization compares to the
//! per-step costs of hazard pointers on skiplist-shaped traversals.

use std::time::Duration;

use ts_bench::cli::{machine_info, write_json_report, CliArgs};
use ts_workload::{run_pq_combo, PqParams, Report, SchemeKind};

fn main() {
    let args = CliArgs::parse();
    let quick = args.get_flag("quick");
    let duration =
        Duration::from_secs_f64(args.get_f64("duration", if quick { 0.25 } else { 1.5 }));
    let prefill = args.get_usize("prefill", if quick { 1_000 } else { 20_000 });
    let threads_list = args.get_usize_list("threads", &[1, 2, 4, 8]);
    let schemes = [
        SchemeKind::Leaky,
        SchemeKind::Hazard,
        SchemeKind::Epoch,
        SchemeKind::ThreadScan,
    ];
    let json = args.get("json");
    args.finish();

    println!("# Ablation F: priority-queue stress ({})", machine_info());
    println!("# prefill={prefill} insert/delete-min=50/50 duration={duration:?}");
    println!(
        "{:>8} {:>14} {:>14} {:>14} {:>14}",
        "threads", "leaky", "hazard", "epoch", "threadscan"
    );

    let mut report = Report::new("ablation-priority-queue");
    for &threads in &threads_list {
        let mut row = format!("{threads:>8}");
        for scheme in schemes {
            let params = PqParams::default()
                .with_prefill(prefill)
                .with_duration(duration)
                .with_threads(threads);
            let r = run_pq_combo(scheme, &params);
            row.push_str(&format!("{:>14.3}", r.ops_per_sec / 1e6));
            report.push(r);
        }
        println!("{row}");
    }
    println!("# columns are Mops/s");

    write_json_report(json, &report);
}
