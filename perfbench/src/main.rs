//! The repository benchmark: ThreadScan under three skip-list workloads.
//!
//! ```text
//! perfbench --workload <skip_churn|skip_read|skip_service> --seed <n>
//!           --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run. `--trace
//! 1` runs the workload untraced and then traced, half the seconds each,
//! and prints the per-layer metrics of the traced run plus the tracing
//! overhead. Every run ends with one JSON line: `correct`, `attempted`, `failed` and
//! `metrics` (name → value and unit). See `README.md` beside this file
//! for the workloads, the metrics and which layer moves which figure.

mod host;
mod recorder;
mod trace;
mod workload;

use recorder::Recorder;
use trace::PhaseSummary;
use workload::{
    trial, RunData, WorkerRecs, Workload, OP_NAMES, SETUPS, SLICE_NS, SLOW_OP_NS, WORKERS,
};

const USAGE: &str =
    "usage: perfbench --workload <skip_churn|skip_read|skip_service> --seed <n> --seconds <n> --trace <0|1>";

/// Checked command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
                "--seconds" => {
                    let s: u64 = value.parse().map_err(|_| bad("expected an integer"))?;
                    if !(1..=600).contains(&s) {
                        return Err(bad("expected 1 to 600"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }

    /// The measured window of each trial. A traced run splits its
    /// seconds between the untraced and the traced trial, so every run
    /// measures for `--seconds` in total.
    fn window_ns(&self) -> u64 {
        let ns = self.seconds * 1_000_000_000;
        if self.trace {
            ns / 2
        } else {
            ns
        }
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Metrics in print order, plus the run's accounting.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn new() -> Report {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.into(), value, unit));
    }

    /// Folds one measured run's checks and op counts into the report.
    fn account(&mut self, label: &str, recs: &[WorkerRecs], data: &RunData) {
        let c = &data.checks;
        println!(
            "check {label}: membership swept {} expected {} | outstanding after quiesce {} | dropped events {} => {}",
            c.swept,
            c.expected,
            c.outstanding_after,
            c.dropped_events,
            if c.ok() { "ok" } else { "FAILED" }
        );
        let attempted: u64 = recs.iter().map(|r| r.tally.attempted).sum();
        let unserved: u64 = recs.iter().map(|r| r.tally.unserved).sum();
        self.attempted += attempted;
        self.failed += if c.ok() { unserved } else { attempted };
        self.correct &= c.ok();
    }

    fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("  {name:<36} {value:>16.6} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// The end-to-end figures of one run: medians over the window's slices.
struct EndToEnd {
    ops_per_s: f64,
    p50_us: f64,
    p99_us: f64,
}

impl EndToEnd {
    fn of(recs: &[WorkerRecs], data: &RunData) -> EndToEnd {
        let slices = recs[0].slice_ops.len();
        let (mut rates, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
        let mut slice = Recorder::new();
        let mut whole = Recorder::new();
        for i in 0..slices {
            slice.clear();
            let ops: u64 = recs.iter().map(|r| r.slice_ops[i]).sum();
            recs.iter().for_each(|r| slice.merge(&r.slice_lat[i]));
            whole.merge(&slice);
            rates.push(ops as f64 / (SLICE_NS as f64 / 1e9));
            p50s.push(slice.quantile(0.50) / 1e3);
            p99s.push(slice.quantile(0.99) / 1e3);
        }
        let mut lag = Recorder::new();
        recs.iter().for_each(|r| lag.merge(&r.lag));
        let window_s = (data.window_end - data.window_start) as f64 / 1e9;
        let cpu_share = (data.after.cpu_s - data.before.cpu_s) / (window_s * WORKERS as f64);
        println!(
            "latency over the whole window: n {} p50 {:.2} us p99 {:.2} us p99.9 {:.2} us max {:.2} us",
            whole.count(),
            whole.quantile(0.50) / 1e3,
            whole.quantile(0.99) / 1e3,
            whole.quantile(0.999) / 1e3,
            whole.max() as f64 / 1e3
        );
        println!(
            "share of ops at or above 20 us {:.4}% / 100 us {:.4}% / 1 ms {:.4}%",
            whole.share_at_or_above(20_000) * 100.0,
            whole.share_at_or_above(100_000) * 100.0,
            whole.share_at_or_above(1_000_000) * 100.0
        );
        println!(
            "host noise: cpu share {:.3} | timekeeper lateness p99 {:.1} us max {:.1} us | arrival lag p99 {:.1} us max {:.1} us",
            cpu_share,
            data.tick_lag.quantile(0.99) / 1e3,
            data.tick_lag.max() as f64 / 1e3,
            lag.quantile(0.99) / 1e3,
            lag.max() as f64 / 1e3
        );
        let kops: Vec<u64> = rates.iter().map(|r| (r / 1e3) as u64).collect();
        println!("slice rates (kops/s): {kops:?}");
        EndToEnd {
            ops_per_s: median(rates),
            p50_us: median(p50s),
            p99_us: median(p99s),
        }
    }
}

/// Sets up `SETUPS - 1` rigs and tears them down unused, returning their
/// setup times. Both kinds of run start with these, so every measured
/// trial begins from the same process and heap state.
fn unused_setups(args: &Args, recs: &mut [WorkerRecs]) -> Vec<f64> {
    (1..SETUPS)
        .map(|_| trial(args.workload, args.seed, None, false, recs).0)
        .collect()
}

/// One measured trial: its setup time and what it recorded.
fn measured(args: &Args, recs: &mut [WorkerRecs], traced: bool) -> (f64, RunData) {
    let (setup_s, data) = trial(
        args.workload,
        args.seed,
        Some(args.window_ns()),
        traced,
        recs,
    );
    (setup_s, data.expect("a measured trial returns its data"))
}

fn run_untraced(args: &Args, recs: &mut [WorkerRecs]) -> Report {
    let mut report = Report::new();
    let mut setups = unused_setups(args, recs);
    let (setup_s, data) = measured(args, recs, false);
    setups.push(setup_s);
    println!("setup times (s): {setups:.4?}");
    let e2e = EndToEnd::of(recs, &data);
    report.account("untraced", recs, &data);
    report.put("ops_per_s", e2e.ops_per_s, "1/s");
    report.put("p50_us", e2e.p50_us, "us");
    report.put(
        "peak_rss_mb",
        host::peak_rss_mb().expect("VmHWM readable from /proc/self/status"),
        "MB",
    );
    report.put("setup_s", median(setups), "s");
    report
}

fn run_traced(args: &Args, recs: &mut [WorkerRecs]) -> Report {
    let mut report = Report::new();
    unused_setups(args, recs);
    let (_, plain) = measured(args, recs, false);
    let plain_e2e = EndToEnd::of(recs, &plain);
    report.account("untraced", recs, &plain);
    let plain_failed = report.failed;

    let (_, data) = measured(args, recs, true);
    let traced_ops = EndToEnd::of(recs, &data).ops_per_s;
    report.account("traced", recs, &data);

    let (b, a) = (&data.before, &data.after);
    let window_s = (data.window_end - data.window_start) as f64 / 1e9;
    let phases = PhaseSummary::from_events(&data.events, data.window_start, data.window_end);
    let us = |r: &Recorder, q: f64| r.quantile(q) / 1e3;

    // structures: time inside each ConcurrentSet call.
    for (kind, name) in OP_NAMES.iter().enumerate() {
        let mut r = Recorder::new();
        recs.iter().for_each(|w| r.merge(&w.op_ns[kind]));
        report.put(format!("structures.{name}_ns_p50"), r.quantile(0.50), "ns");
        report.put(format!("structures.{name}_ns_p99"), r.quantile(0.99), "ns");
    }
    let updates: u64 = recs.iter().map(|r| r.tally.updates).sum();
    let updates_ok: u64 = recs.iter().map(|r| r.tally.updates_ok).sum();
    report.put(
        "structures.update_success_ratio",
        ratio(updates_ok as f64, updates as f64),
        "ratio",
    );
    let slow: Vec<(u64, u64)> = recs.iter().flat_map(|r| r.slow.iter().copied()).collect();
    let slow_dropped: u64 = recs.iter().map(|r| r.tally.slow_dropped).sum();
    let in_collect = slow
        .iter()
        .filter(|&&(s, e)| phases.overlaps_collect(s, e))
        .count();
    report.put(
        "structures.slow_ops",
        (slow.len() as u64 + slow_dropped) as f64,
        "count",
    );
    report.put(
        "structures.slow_in_collect_frac",
        ratio(in_collect as f64, slow.len() as f64),
        "ratio",
    );

    // smr: the retired-but-unfreed backlog.
    report.put("smr.outstanding_max", data.outstanding_max as f64, "nodes");
    report.put(
        "smr.outstanding_after",
        data.checks.outstanding_after as f64,
        "nodes",
    );

    // collector: counts from stats(), times from the telemetry spans.
    let collects = (a.collects - b.collects) as f64;
    let words = (a.words_scanned - b.words_scanned) as f64;
    report.put("collector.collects", collects, "count");
    report.put(
        "collector.collects_skipped",
        (a.collects_skipped - b.collects_skipped) as f64,
        "count",
    );
    report.put(
        "collector.busy_frac",
        phases.busy_ns as f64 / (window_s * 1e9 * WORKERS as f64),
        "ratio",
    );
    report.put(
        "collector.collect_us_p50",
        us(&phases.collect_ns, 0.50),
        "us",
    );
    report.put(
        "collector.collect_us_p99",
        us(&phases.collect_ns, 0.99),
        "us",
    );
    report.put("collector.sort_us_p50", us(&phases.sort_ns, 0.50), "us");
    report.put("collector.free_us_p50", us(&phases.free_ns, 0.50), "us");
    report.put(
        "collector.entries_per_collect",
        ratio(phases.entries as f64, phases.collects as f64),
        "count",
    );
    report.put(
        "collector.survivor_ratio",
        ratio(phases.survivors as f64, phases.entries as f64),
        "ratio",
    );
    report.put(
        "collector.words_per_collect",
        ratio(words, collects),
        "count",
    );
    report.put(
        "collector.hits_per_kword",
        ratio((a.mark_hits - b.mark_hits) as f64 * 1e3, words),
        "count",
    );
    report.put("collector.sort_share", phases.sort_share, "ratio");
    report.put("collector.round_share", phases.round_share, "ratio");
    report.put("collector.free_share", phases.free_share, "ratio");
    let attributed = phases.sort_share + phases.round_share + phases.free_share;
    report.put(
        "collector.unattributed_share",
        if phases.collects > 0 {
            1.0 - attributed
        } else {
            0.0
        },
        "ratio",
    );

    // sigscan: signal rounds and the per-thread scans inside them.
    report.put("sigscan.rounds", (a.rounds - b.rounds) as f64, "count");
    report.put(
        "sigscan.signals_sent",
        (a.signals_sent - b.signals_sent) as f64,
        "count",
    );
    report.put("sigscan.round_us_p50", us(&phases.round_ns, 0.50), "us");
    report.put("sigscan.round_us_p99", us(&phases.round_ns, 0.99), "us");
    report.put("sigscan.scan_us_p50", us(&phases.scan_ns, 0.50), "us");

    // alloc: the structure's node pool (idle on the global-heap workload).
    let allocs = (a.pool_allocs - b.pool_allocs) as f64;
    report.put("alloc.pool_allocs", allocs, "count");
    report.put(
        "alloc.pool_frees",
        (a.pool_frees - b.pool_frees) as f64,
        "count",
    );
    report.put(
        "alloc.refills_per_kalloc",
        ratio((a.pool_refills - b.pool_refills) as f64 * 1e3, allocs),
        "count",
    );
    report.put(
        "alloc.bytes_resident_max",
        data.pool_bytes_max as f64,
        "bytes",
    );

    // driver: the untraced tail, and what explains noise.
    report.put("driver.p99_us", plain_e2e.p99_us, "us");
    let mut lag = Recorder::new();
    recs.iter().for_each(|r| lag.merge(&r.lag));
    report.put("driver.lag_us_p99", us(&lag, 0.99), "us");
    report.put("driver.tick_lag_us_p99", us(&data.tick_lag, 0.99), "us");
    report.put(
        "driver.cpu_share",
        (a.cpu_s - b.cpu_s) / (window_s * WORKERS as f64),
        "ratio",
    );
    report.put(
        "driver.tracing_overhead",
        ratio(traced_ops, plain_e2e.ops_per_s),
        "ratio",
    );
    report.put(
        "driver.dropped_events",
        data.checks.dropped_events as f64,
        "count",
    );
    report.put(
        "driver.failed_frac",
        ratio(report.failed as f64, report.attempted as f64),
        "ratio",
    );
    println!(
        "traced run: {} ops/s vs untraced {} ops/s; {} telemetry events; slow-op threshold {} us; untraced failures {}",
        traced_ops,
        plain_e2e.ops_per_s,
        data.events.len(),
        SLOW_OP_NS / 1000,
        plain_failed
    );
    report
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} | {} workers, {} cores available",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        WORKERS,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    // Every recorder is allocated here, before the first setup.
    let slices = args.window_ns().div_ceil(SLICE_NS) as usize;
    let mut recs: Vec<WorkerRecs> = (0..WORKERS).map(|_| WorkerRecs::new(slices)).collect();
    let report = if args.trace {
        run_traced(&args, &mut recs)
    } else {
        run_untraced(&args, &mut recs)
    };
    report.print();
}
