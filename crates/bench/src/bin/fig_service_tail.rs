//! Open-loop service-tail figure: per-op latency under offered load.
//!
//! The throughput figures drive closed loops, where a reclamation stall
//! only lowers ops/s — it never shows up as *latency*, because the
//! worker simply issues the next op later (coordinated omission). This
//! bench offers load on a schedule instead ([`LoadModel::OpenPoisson`],
//! or duty-cycled bursts with `--burst-ms`): every operation has an
//! intended arrival time, latency is measured from intended arrival to
//! completion, and a worker running behind bills its backlog to every
//! queued request — so a ThreadScan collect phase (or an epoch stall)
//! surfaces as a p99/p999 excursion, exactly as a service would see it.
//!
//! Keys are zipfian over a multi-million-key range by default: hot keys
//! are revisited constantly, so hot nodes are likely to sit in some
//! thread's stack at scan time, exercising the survivor carry-over path
//! while the tail is measured.
//!
//! ```text
//! cargo run -p ts-bench --release --bin fig_service_tail -- \
//!     [--qps 100000,300000,1000000] [--schemes leaky,epoch,threadscan] \
//!     [--threads 8] [--duration 3.0] [--keys 4000000] [--theta 0.99] \
//!     [--burst-ms 10 --duty 0.25] [--drop-ms 50] [--json out.jsonl] \
//!     [--telemetry] [--trace-out trace.json]
//! ```
//!
//! `--quick` is the CI shape: Leaky vs ThreadScan at two QPS levels on a
//! scaled-down table. `--drop-ms` switches the backlog policy to
//! deadline shedding ([`BacklogPolicy::DropAfter`]); drops then appear
//! in the `open_loop` block instead of unbounded queueing latency.

use std::time::Duration;

use ts_bench::cli::{machine_info, write_json_report, CliArgs};
use ts_workload::{
    run_combo, BacklogPolicy, KeyDist, LoadModel, Report, SchemeKind, StructureKind, WorkloadParams,
};

fn main() {
    let args = CliArgs::parse();
    let quick = args.get_flag("quick");
    let duration = Duration::from_secs_f64(args.get_f64("duration", if quick { 0.3 } else { 3.0 }));
    let threads = args.get_usize("threads", if quick { 2 } else { 8 });
    let keys = args.get_usize("keys", if quick { 262_144 } else { 4_000_000 }) as u64;
    let theta = args.get_f64("theta", 0.99);
    let qps_levels = args.get_f64_list(
        "qps",
        &if quick {
            vec![20_000.0, 60_000.0]
        } else {
            vec![100_000.0, 300_000.0, 1_000_000.0]
        },
    );
    let schemes = args.get_schemes(
        "schemes",
        &if quick {
            vec![SchemeKind::Leaky, SchemeKind::ThreadScan]
        } else {
            vec![SchemeKind::Leaky, SchemeKind::Epoch, SchemeKind::ThreadScan]
        },
    );
    let backlog = match args.get("drop-ms") {
        Some(_) => {
            BacklogPolicy::DropAfter(Duration::from_secs_f64(args.get_f64("drop-ms", 50.0) / 1e3))
        }
        None => BacklogPolicy::Queue,
    };
    let burst_ms = args.get("burst-ms").map(|_| args.get_f64("burst-ms", 10.0));
    let duty = args.get_f64("duty", 0.25);
    let telemetry = args.telemetry_requested();
    let json = args.get("json");
    args.finish();

    println!(
        "# Service tail: open-loop latency vs offered QPS ({})",
        machine_info()
    );
    println!(
        "# threads={threads} duration={duration:?} keys={keys} zipf(theta={theta}) backlog={backlog:?}"
    );
    println!(
        "# {:>10} {:>10} {:>12} {:>10} {:>10} {:>10} {:>10} {:>9} {:>12}",
        "scheme",
        "qps",
        "achieved/s",
        "p50_us",
        "p99_us",
        "p999_us",
        "max_us",
        "drops",
        "lag_max_us"
    );

    let mut report = Report::new("fig_service_tail");
    for &qps in &qps_levels {
        let model = match burst_ms {
            Some(ms) => LoadModel::OpenBursty {
                qps,
                burst: Duration::from_secs_f64(ms / 1e3),
                duty,
            },
            None => LoadModel::OpenPoisson { qps },
        };
        for &scheme in &schemes {
            let mut params = WorkloadParams::fig3(StructureKind::Hash, threads)
                .with_duration(duration)
                .with_key_dist(KeyDist::Zipf { theta })
                .with_load_model(model)
                .with_backlog(backlog)
                .with_telemetry(telemetry);
            params.key_range = keys;
            params.initial_size = (keys / 2) as usize;
            let r = run_combo(scheme, &params);
            let lat = r.latency.as_ref().expect("open-loop runs measure latency");
            let ol = r.open_loop.as_ref().expect("open-loop extras present");
            println!(
                "  {:>10} {:>10.0} {:>12.0} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>9} {:>12.1}",
                r.scheme,
                qps,
                r.ops_per_sec,
                lat.p50_ns / 1e3,
                lat.p99_ns / 1e3,
                lat.p999_ns / 1e3,
                lat.max_ns as f64 / 1e3,
                ol.dropped,
                ol.sched_lag_max_ns as f64 / 1e3,
            );
            report.push(r);
        }
    }

    args.write_trace();
    write_json_report(json, &report);
}
