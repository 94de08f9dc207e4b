//! Ablation I: the allocator substrate (§6 setup: "we used the highly
//! scalable TCMalloc allocator").
//!
//! This binary runs the same Figure-3 list/hash cells as
//! `fig3_throughput`, with the global allocator selected **at runtime**:
//!
//! * default — the system allocator (the baseline rows);
//! * `--real-alloc` — [`ts_alloc`]'s TCMalloc-style thread-caching
//!   allocator, flipped on before any workload runs via the one-way
//!   [`ts_alloc::SwitchableAlloc`] switch.
//!
//! Under `--real-alloc` every `RunResult` carries the run's
//! allocator-counter deltas (the `ts-alloc-nodes` feature of
//! `ts-workload`), which land in the JSON as an `alloc` block — so the
//! amortization claim ("allocs per depot lock") is checkable per cell,
//! not just per process.

use std::time::Duration;

use ts_alloc::SwitchableAlloc;
use ts_bench::cli::{machine_info, write_json_report, CliArgs};
use ts_workload::{run_combo, Report, SchemeKind, StructureKind, WorkloadParams};

#[global_allocator]
static ALLOC: SwitchableAlloc = SwitchableAlloc;

fn main() {
    let args = CliArgs::parse();
    let real_alloc = args.get_flag("real-alloc");
    if real_alloc {
        // One-way: must happen before the workloads allocate anything.
        ts_alloc::enable_ts_alloc();
    }
    let quick = args.get_flag("quick");
    let duration =
        Duration::from_secs_f64(args.get_f64("duration", if quick { 0.25 } else { 1.5 }));
    let scale = args.get_usize("scale", if quick { 64 } else { 1 });
    let threads_list = args.get_usize_list("threads", &[2, 4]);
    let json = args.get("json");
    args.finish();
    let schemes = [SchemeKind::Leaky, SchemeKind::Epoch, SchemeKind::ThreadScan];

    println!("# Ablation I: allocator substrate ({})", machine_info());
    println!(
        "# global allocator = {} (--real-alloc toggles the thread-caching ts-alloc)",
        if real_alloc { "ts-alloc" } else { "system" }
    );
    println!("# duration={duration:?} scale=1/{scale} update%=20");

    let mut report = Report::new("ablation-allocator");
    for structure in [StructureKind::List, StructureKind::Hash] {
        println!("\n## structure={}", structure.label());
        println!(
            "{:>8} {:>14} {:>14} {:>14}",
            "threads", "leaky", "epoch", "threadscan"
        );
        for &threads in &threads_list {
            let mut row = format!("{threads:>8}");
            for scheme in schemes {
                let params = WorkloadParams::fig3(structure, threads)
                    .scaled_down(scale)
                    .with_duration(duration);
                let r = run_combo(scheme, &params);
                row.push_str(&format!("{:>14.3}", r.ops_per_sec / 1e6));
                if let Some(alloc) = &r.alloc {
                    eprintln!(
                        "  {:6} {:10} t={threads}: {} small allocs, {:.1} allocs/depot-lock",
                        structure.label(),
                        scheme.label(),
                        alloc.small_allocs,
                        alloc.allocs_per_lock()
                    );
                }
                report.push(r);
            }
            println!("{row}");
        }
    }

    let s = ts_alloc::stats();
    println!("\n# allocator counters (process lifetime):");
    println!("#   small allocs     {:>12}", s.small_allocs);
    println!("#   small frees      {:>12}", s.small_frees);
    println!(
        "#   spans carved     {:>12} ({} MiB)",
        s.spans,
        s.span_bytes >> 20
    );
    println!(
        "#   depot locks      {:>12}",
        s.cache_fills + s.cache_flushes
    );
    println!("#   allocs per lock  {:>12.1}", s.allocs_per_lock());
    if real_alloc {
        // Only classes with traffic: an idle class row is noise.
        println!("#\n# active size classes:");
        println!(
            "# {:>5} {:>8} {:>12} {:>12} {:>12}",
            "class", "size", "allocs", "frees", "resident"
        );
        for class in 0..ts_alloc::NUM_CLASSES {
            let (allocs, frees) = (s.class_allocs[class], s.class_frees[class]);
            if allocs == 0 && frees == 0 {
                continue;
            }
            let size = ts_alloc::class_size(class);
            println!(
                "# {:>5} {:>8} {:>12} {:>12} {:>12}",
                class,
                size,
                allocs,
                frees,
                allocs.saturating_sub(frees) * size
            );
        }
    } else {
        println!("#   (all zero: system allocator active; pass --real-alloc)");
    }

    write_json_report(json, &report);
}
