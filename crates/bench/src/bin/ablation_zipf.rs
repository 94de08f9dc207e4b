//! Ablation G: key-skew sweep (beyond the paper's figures).
//!
//! The paper's methodology draws keys uniformly. Under zipfian skew a hot
//! set concentrates traffic — hot nodes are overwhelmingly likely to sit
//! in *some* thread's stack at scan time, so ThreadScan's conservative
//! mark keeps resurrecting them as survivors, while epoch schemes are
//! indifferent to which node was retired. This sweep measures throughput
//! (and ThreadScan's survivor counts, printed as a second table) as skew
//! rises from uniform to strongly zipfian.

use std::time::Duration;

use ts_bench::cli::{machine_info, write_json_report, CliArgs};
use ts_workload::{run_combo, KeyDist, Report, SchemeKind, StructureKind, WorkloadParams};

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
    let thetas = [0.0f64, 0.5, 0.9, 0.99]; // 0.0 = uniform
    let schemes = [SchemeKind::Leaky, SchemeKind::Epoch, SchemeKind::ThreadScan];
    let json = args.get("json");
    args.finish();

    println!("# Ablation G: key-skew sweep ({})", machine_info());
    println!("# threads={threads} duration={duration:?} scale=1/{scale} update%=20");

    let mut report = Report::new("ablation-zipf");
    for structure in [StructureKind::Hash, StructureKind::List] {
        println!("\n## structure={}", structure.label());
        println!(
            "{:>10} {:>14} {:>14} {:>14} {:>12}",
            "skew", "leaky", "epoch", "threadscan", "ts-survivors"
        );
        for &theta in &thetas {
            let dist = if theta == 0.0 {
                KeyDist::Uniform
            } else {
                KeyDist::Zipf { theta }
            };
            let mut row = format!("{:>10}", dist.label());
            let mut survivors = 0usize;
            for scheme in schemes {
                let params = WorkloadParams::fig3(structure, threads)
                    .scaled_down(scale)
                    .with_duration(duration)
                    .with_key_dist(dist);
                let r = run_combo(scheme, &params);
                row.push_str(&format!("{:>14.3}", r.ops_per_sec / 1e6));
                if let Some(ts) = &r.threadscan {
                    survivors = ts.survivors;
                }
                report.push(r);
            }
            row.push_str(&format!("{survivors:>12}"));
            println!("{row}");
        }
    }
    println!("# throughput columns are Mops/s");

    write_json_report(json, &report);
}
