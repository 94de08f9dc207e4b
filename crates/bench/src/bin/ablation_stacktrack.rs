//! Ablation E: the StackTrack comparator (§6 text).
//!
//! The paper compares against StackTrack on the skip list (whose original
//! implementation StackTrack provided). HTM being unavailable, our
//! `StackTrackSim` emulates its reclaimer-pays-consistency property with
//! asymmetric fences (see DESIGN.md §6). This binary runs the extended
//! scheme set on the skip list so StackTrack's position relative to the
//! five legend schemes is visible.

use std::time::Duration;

use ts_bench::cli::{machine_info, write_json_report, CliArgs};
use ts_workload::{run_combo, Report, SchemeKind, StructureKind, WorkloadParams};

fn main() {
    let args = CliArgs::parse();
    let quick = args.get_flag("quick");
    let duration =
        Duration::from_secs_f64(args.get_f64("duration", if quick { 0.25 } else { 2.0 }));
    let scale = args.get_usize("scale", if quick { 64 } else { 1 });
    let threads = args.get_usize_list("threads", &{
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        vec![1, hw.max(2), hw * 2]
    });
    let json = args.get("json");
    args.finish();

    println!(
        "# Ablation E: StackTrack comparator on the skip list ({})",
        machine_info()
    );
    println!("# duration={duration:?} scale=1/{scale} threads={threads:?}");

    let mut report = Report::new("ablation-stacktrack");
    for &t in &threads {
        let params = WorkloadParams::fig3(StructureKind::Skip, t)
            .scaled_down(scale)
            .with_duration(duration);
        for scheme in SchemeKind::EXTENDED {
            let r = run_combo(scheme, &params);
            eprintln!(
                "  t={:<3} {:12} {:>10.3} Mops/s",
                t,
                r.scheme,
                r.ops_per_sec / 1e6
            );
            report.push(r);
        }
    }
    println!("{}", report.render_series());
    write_json_report(json, &report);
}
