//! Ablation J: per-structure node pools × collect policies.
//!
//! Sweeps the PR's two allocation/reclamation knobs against each other
//! under ThreadScan, per structure:
//!
//! * **node pool** off/on — off boxes nodes through the global allocator;
//!   on routes them through a per-structure [`ts_alloc::PoolHandle`]
//!   (the shared per-thread size-class cache over the depot);
//! * **collect policy** fixed/adaptive — fixed collects only on full
//!   local buffers (the paper's trigger); adaptive additionally fires on
//!   the outstanding-garbage watermark, plus the pools' bytes-resident
//!   gauge when both knobs are on.
//!
//! Each cell's JSON row carries the allocator-counter deltas (the `alloc`
//! block — pooled cells drive the size-class counters even without
//! `--real-alloc`-style global hooks) and the collect-latency percentiles
//! (`threadscan.collect_us_p50/p95/p99`), with the cell's knob setting
//! encoded in the `scheme` label. Pool-handle deltas (allocs, frees,
//! magazine refills) print per cell on stderr.

use std::time::Duration;

use ts_bench::cli::{machine_info, write_json_report, CliArgs};
use ts_workload::{run_combo, Report, SchemeKind, StructureKind, WorkloadParams};

/// Sums of every pool handle's counters at one instant.
#[derive(Default, Clone, Copy)]
struct PoolTotals {
    allocs: usize,
    frees: usize,
    refills: usize,
}

fn pool_totals() -> PoolTotals {
    ts_alloc::pool_stats()
        .iter()
        .fold(PoolTotals::default(), |t, s| PoolTotals {
            allocs: t.allocs + s.allocs,
            frees: t.frees + s.frees,
            refills: t.refills + s.magazine_refills,
        })
}

fn main() {
    let args = CliArgs::parse();
    let quick = args.get_flag("quick");
    let duration =
        Duration::from_secs_f64(args.get_f64("duration", if quick { 0.25 } else { 1.5 }));
    let scale = args.get_usize("scale", if quick { 64 } else { 1 });
    let threads_list = args.get_usize_list("threads", &[2, 4]);
    // 0 = the collector's auto watermark (buffer capacity x threads / 2).
    let watermark = args.get_usize("watermark", 0);
    let json = args.get("json");
    args.finish();

    // (node_pool, adaptive, label) — the four knob corners.
    let cells = [
        (false, false, "global/fixed"),
        (true, false, "pool/fixed"),
        (false, true, "global/adaptive"),
        (true, true, "pool/adaptive"),
    ];

    println!(
        "# Ablation J: node pools x collect policies ({})",
        machine_info()
    );
    println!("# scheme=threadscan duration={duration:?} scale=1/{scale} update%=20");
    println!(
        "# pending watermark = {} (0 = auto: buffer capacity x threads / 2)",
        watermark
    );

    let mut report = Report::new("ablation-nodepool");
    for structure in [
        StructureKind::List,
        StructureKind::Hash,
        StructureKind::SplitOrdered,
    ] {
        println!("\n## structure={} (Mops/s)", structure.label());
        let mut header = format!("{:>8}", "threads");
        for (_, _, tag) in cells {
            header.push_str(&format!("{tag:>18}"));
        }
        println!("{header}");
        for &threads in &threads_list {
            let mut row = format!("{threads:>8}");
            for (pool, adaptive, tag) in cells {
                let params = WorkloadParams::fig3(structure, threads)
                    .scaled_down(scale)
                    .with_duration(duration)
                    .with_node_pool(pool)
                    .with_ts_adaptive_collect(adaptive)
                    .with_ts_pending_watermark(watermark);
                let before = pool_totals();
                let mut r = run_combo(SchemeKind::ThreadScan, &params);
                let after = pool_totals();
                row.push_str(&format!("{:>18.3}", r.ops_per_sec / 1e6));
                if let Some(ts) = &r.threadscan {
                    eprintln!(
                        "  {:12} {:16} t={threads}: collects={} (adaptive {}), \
                         p50/p95/p99 = {:.0}/{:.0}/{:.0} us",
                        structure.label(),
                        tag,
                        ts.collects,
                        ts.adaptive_collects,
                        ts.collect_us_p50,
                        ts.collect_us_p95,
                        ts.collect_us_p99
                    );
                }
                if pool {
                    eprintln!(
                        "  {:12} {:16} t={threads}: pool {} allocs / {} frees, {} magazine refills",
                        structure.label(),
                        tag,
                        after.allocs - before.allocs,
                        after.frees - before.frees,
                        after.refills - before.refills
                    );
                }
                // Encode the knob corner in the scheme label so the JSON
                // rows of one structure stay distinguishable.
                r.scheme = format!("threadscan[{tag}]");
                report.push(r);
            }
            println!("{row}");
        }
    }

    println!("\n# pool handles (process lifetime):");
    let stats = ts_alloc::pool_stats();
    if stats.is_empty() {
        println!("#   (none created: all cells ran with node_pool=off)");
    }
    for s in stats {
        println!(
            "#   {:24} {:>10} allocs {:>10} frees {:>8} refills {:>10} B resident",
            s.name, s.allocs, s.frees, s.magazine_refills, s.bytes_resident
        );
    }

    write_json_report(json, &report);
}
