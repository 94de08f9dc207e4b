//! Ablation B: update-ratio sweep.
//!
//! §6 argues ThreadScan's reclamation cost "is amortized ... against
//! reclaimed nodes": more removals mean more scans but also more freed
//! memory per scan. This binary sweeps the update percentage on the list
//! and hash workloads for {Leaky, Epoch, ThreadScan} so the overhead-vs-
//! reclamation-pressure relationship is visible.

use std::time::Duration;

use ts_bench::cli::{machine_info, write_json_report, CliArgs};
use ts_workload::{run_combo, Report, SchemeKind, StructureKind, WorkloadParams};

fn main() {
    let args = CliArgs::parse();
    let quick = args.get_flag("quick");
    let duration =
        Duration::from_secs_f64(args.get_f64("duration", if quick { 0.25 } else { 1.5 }));
    let scale = args.get_usize("scale", if quick { 64 } else { 1 });
    let threads = args.get_usize(
        "threads",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            * 2,
    );
    let ratios = args.get_usize_list("ratios", &[0, 10, 20, 50, 100]);
    let json = args.get("json");
    args.finish();

    println!("# Ablation B: update-ratio sweep ({})", machine_info());
    println!("# threads={threads} duration={duration:?} scale=1/{scale}");

    let mut report = Report::new("ablation-update-ratio");
    for structure in [StructureKind::List, StructureKind::Hash] {
        println!("\n## structure={}", structure.label());
        println!(
            "{:>8} {:>14} {:>14} {:>14}",
            "update%", "leaky", "epoch", "threadscan"
        );
        for &pct in &ratios {
            let mut row = format!("{pct:>8}");
            for scheme in [SchemeKind::Leaky, SchemeKind::Epoch, SchemeKind::ThreadScan] {
                let params = WorkloadParams::fig3(structure, threads)
                    .scaled_down(scale)
                    .with_duration(duration)
                    .with_update_pct(pct as u32);
                let r = run_combo(scheme, &params);
                row.push_str(&format!("{:>14.3}", r.ops_per_sec / 1e6));
                report.push(r);
            }
            println!("{row}");
        }
    }

    write_json_report(json, &report);
}
