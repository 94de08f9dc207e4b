//! Ablation K: what does telemetry cost?
//!
//! Runs the same fig3-scale ThreadScan cell with telemetry off and on
//! and reports the throughput delta. The subsystem's contract is that
//! **off is free** — the disabled hot path executes zero additional
//! atomic operations (the sink is a plain `Option` field) — and that
//! **on is cheap**: the signal handler writes one ring cell per scan,
//! workers flush batched counters every 1024 ops, and the reclaimer
//! stamps ~11 events per collect. This binary pins both claims with
//! numbers on the current machine.
//!
//! ```text
//! cargo run -p ts-bench --release --bin ablation_telemetry -- \
//!     [--structure list] [--threads 2,4] [--duration 1.5] \
//!     [--repeats 3] [--scale 1] [--json out.jsonl]
//! ```
//!
//! Interleaves `repeats` off/on pairs per cell and compares means, so
//! slow machine-wide drift lands on both sides. The JSON rows carry the
//! telemetry state in the scheme label (`threadscan[telemetry-off]` /
//! `threadscan[telemetry-on]`).

use std::time::Duration;

use ts_bench::cli::{machine_info, write_json_report, CliArgs};
use ts_workload::{run_combo, Report, SchemeKind, StructureKind, WorkloadParams};

fn main() {
    let args = CliArgs::parse();
    let quick = args.get_flag("quick");
    let duration =
        Duration::from_secs_f64(args.get_f64("duration", if quick { 0.25 } else { 1.5 }));
    let repeats = args.get_usize("repeats", if quick { 1 } else { 3 });
    let scale = args.get_usize("scale", if quick { 64 } else { 1 });
    let threads_list = args.get_usize_list("threads", &[2, 4]);
    let structures = args.get_structures("structure", &[StructureKind::List]);
    let json = args.get("json");
    args.finish();

    println!("# Ablation K: telemetry overhead ({})", machine_info());
    println!("# scheme=threadscan duration={duration:?} repeats={repeats} scale=1/{scale}");
    println!(
        "# {:>9} {:>8} {:>14} {:>14} {:>10}",
        "structure", "threads", "off Mops/s", "on Mops/s", "overhead"
    );

    let mut report = Report::new("ablation-telemetry");
    for &structure in &structures {
        for &threads in &threads_list {
            let base = WorkloadParams::fig3(structure, threads)
                .scaled_down(scale)
                .with_duration(duration);
            let mut off_acc = 0.0f64;
            let mut on_acc = 0.0f64;
            let mut last_off = None;
            let mut last_on = None;
            for _ in 0..repeats {
                let off = run_combo(SchemeKind::ThreadScan, &base);
                off_acc += off.ops_per_sec;
                last_off = Some(off);
                let on = run_combo(SchemeKind::ThreadScan, &base.clone().with_telemetry(true));
                on_acc += on.ops_per_sec;
                last_on = Some(on);
            }
            let off_mean = off_acc / repeats as f64;
            let on_mean = on_acc / repeats as f64;
            // Positive = telemetry made the run slower.
            let overhead_pct = (off_mean - on_mean) / off_mean * 100.0;
            println!(
                "# {:>9} {:>8} {:>14.3} {:>14.3} {:>9.2}%",
                structure.label(),
                threads,
                off_mean / 1e6,
                on_mean / 1e6,
                overhead_pct
            );
            let mut off = last_off.expect("repeats >= 1");
            off.ops_per_sec = off_mean;
            off.scheme = "threadscan[telemetry-off]".to_string();
            report.push(off);
            let mut on = last_on.expect("repeats >= 1");
            on.ops_per_sec = on_mean;
            on.scheme = "threadscan[telemetry-on]".to_string();
            report.push(on);
        }
    }

    // What the enabled side actually recorded, for scale.
    let page = ts_telemetry::render_prometheus();
    for line in page.lines() {
        if line.starts_with("threadscan_collects_total")
            || line.starts_with("threadscan_worker_ops_total")
            || line.starts_with("threadscan_telemetry_dropped_events")
        {
            println!("# {line}");
        }
    }

    write_json_report(json, &report);
}
