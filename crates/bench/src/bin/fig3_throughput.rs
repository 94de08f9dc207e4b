//! Figure 3 regeneration: throughput vs thread count for the lock-free
//! linked list, lock-free hash table, and locked skip list under
//! {Leaky, Hazard Pointers, Epoch, Slow Epoch, ThreadScan}.
//!
//! Paper methodology (§6): 20% updates, structure-specific sizes, each
//! point the average of `--repeats` runs of `--duration` seconds.
//!
//! ```text
//! cargo run -p ts-bench --release --bin fig3_throughput -- \
//!     [--duration 2.0] [--repeats 3] [--threads 1,2,4,8] \
//!     [--scale 1] [--structures list,hash,skiplist] [--json out.jsonl]
//! ```
//!
//! `--scale N` divides structure sizes by N (use for quick smoke runs);
//! `--quick` is shorthand for a fast sanity sweep.

use std::time::Duration;

use ts_bench::cli::{machine_info, thread_ladder, write_json_report, CliArgs};
use ts_workload::{run_combo, Report, SchemeKind, StructureKind, WorkloadParams};

fn main() {
    let args = CliArgs::parse();
    let quick = args.get_flag("quick");
    let duration =
        Duration::from_secs_f64(args.get_f64("duration", if quick { 0.25 } else { 2.0 }));
    let repeats = args.get_usize("repeats", if quick { 1 } else { 3 });
    let scale = args.get_usize("scale", if quick { 64 } else { 1 });
    let threads = args.get_usize_list("threads", &if quick { vec![1, 2] } else { thread_ladder() });
    let structures = args.get_structures("structures", &StructureKind::ALL);
    let json = args.get("json");
    args.finish();

    println!("# Figure 3: throughput vs threads ({})", machine_info());
    println!("# duration={duration:?} repeats={repeats} scale=1/{scale} threads={threads:?}");

    let mut report = Report::new("fig3");
    for &structure in &structures {
        for &t in &threads {
            for scheme in SchemeKind::ALL {
                let params = WorkloadParams::fig3(structure, t)
                    .scaled_down(scale)
                    .with_duration(duration);
                let mut acc = 0.0f64;
                let mut last = None;
                for _ in 0..repeats {
                    let r = run_combo(scheme, &params);
                    acc += r.ops_per_sec;
                    last = Some(r);
                }
                let mut r = last.expect("repeats >= 1");
                r.ops_per_sec = acc / repeats as f64;
                r.total_ops = (r.ops_per_sec * r.duration_s) as u64;
                eprintln!(
                    "  {:9} {:10} t={:<3} {:>10.3} Mops/s",
                    r.structure,
                    r.scheme,
                    t,
                    r.ops_per_sec / 1e6
                );
                report.push(r);
            }
        }
    }

    println!("{}", report.render_series());
    write_json_report(json, &report);
}
