//! Heterogeneous-workload figure: several structure types sharing one
//! collector, per scheme.
//!
//! The paper's pitch is process-wide automatic reclamation — the
//! collector serves whatever structures sit on top. This bench makes
//! that shape measurable: each run drives a weighted mix of structures
//! (default hash + skiplist + priority queue) through one shared scheme
//! instance and reports per-structure throughput alongside the total.
//!
//! ```text
//! cargo run -p ts-bench --release --bin fig_hetero -- \
//!     [--duration 2.0] [--threads 1,2,4,8] [--scale 1] \
//!     [--mixes "hash:50,skiplist:30,pq:20;hash:80,pq:20"] \
//!     [--schemes leaky,epoch,...] [--json out.jsonl]
//! ```
//!
//! `--mixes` takes semicolon-separated mix specs (each spec is
//! comma-separated `label:weight` pairs); `--quick` is shorthand for a
//! fast sanity sweep.

use std::time::Duration;

use ts_bench::cli::{machine_info, thread_ladder, write_json_report, CliArgs};
use ts_workload::{
    run_hetero_combo, Report, SchemeKind, StructureKind, StructureMix, WorkloadParams,
};

/// The 3-structure mix of the acceptance criteria: a hash table, a skip
/// list, and a priority queue over one collector.
const DEFAULT_MIXES: &str = "hash:50,skiplist:30,pq:20";

fn main() {
    let args = CliArgs::parse();
    let quick = args.get_flag("quick");
    let duration =
        Duration::from_secs_f64(args.get_f64("duration", if quick { 0.25 } else { 2.0 }));
    let scale = args.get_usize("scale", if quick { 64 } else { 1 });
    let threads = args.get_usize_list("threads", &if quick { vec![2] } else { thread_ladder() });
    let mixes: Vec<StructureMix> = args
        .get("mixes")
        .unwrap_or(DEFAULT_MIXES)
        .split(';')
        .map(|spec| StructureMix::parse(spec).unwrap_or_else(|e| panic!("--mixes: {e}")))
        .collect();
    let schemes = args.get_schemes("schemes", &SchemeKind::EXTENDED);
    let json = args.get("json");
    args.finish();

    println!(
        "# Heterogeneous mixes: one collector, many structures ({})",
        machine_info()
    );
    println!("# duration={duration:?} scale=1/{scale} threads={threads:?}");
    for mix in &mixes {
        println!("# mix: {}", mix.label());
    }

    let mut report = Report::new("fig_hetero");
    for mix in &mixes {
        for &t in &threads {
            for &scheme in &schemes {
                // The base cell borrows the hash preset; each structure in
                // the mix is re-sized by its own preset via `hetero_cell`.
                let params = WorkloadParams::fig3(StructureKind::Hash, t)
                    .scaled_down(scale)
                    .with_duration(duration)
                    .with_structure_mix(mix.clone());
                let r = run_hetero_combo(scheme, &params);
                let split = r
                    .per_structure
                    .iter()
                    .map(|s| format!("{} {:.3}M", s.structure, s.ops_per_sec / 1e6))
                    .collect::<Vec<_>>()
                    .join(", ");
                eprintln!(
                    "  {:10} t={:<3} {:>8.3} Mops/s  [{split}]",
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
