//! The three workloads and the trial that sets one up, runs it and checks
//! it.
//!
//! A trial builds the scheme and the skip list through the library's
//! registries, prefills it, registers the workers, warms up, and then
//! measures a window cut into fixed slices. Workers drive
//! `ConcurrentSet::{contains,insert,remove}` directly from seeded
//! `OpMix` streams (and, for the open loop, seeded `ArrivalSchedule`s),
//! timing every operation with one clock read into preallocated
//! recorders. After the window the trial checks membership and
//! reclamation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

use ts_sigscan::SignalPlatform;
use ts_smr::dynamic::{DynSmr, ErasedSmr};
use ts_smr::{ErasedHandle, Smr, ThreadScanSmr};
use ts_structures::ConcurrentSet;
use ts_workload::{
    prefill_keys, ArrivalSchedule, LoadModel, Op, OpMix, SchemeKind, StructureKind, WorkloadParams,
};

use crate::recorder::Recorder;

/// Worker threads per workload: one per core of the 2-core target, so
/// the load never oversubscribes.
pub const WORKERS: usize = 2;
/// Offered load of the open-loop workload, across both workers.
const OPEN_QPS: f64 = 400_000.0;
/// Untimed run before the window, so caches, pools and the collector
/// reach their steady state.
const WARMUP: Duration = Duration::from_secs(1);
/// Length of one measurement slice. Every end-to-end figure is the
/// median over slices, so one host stall moves at most one slice.
pub const SLICE_NS: u64 = 500_000_000;
/// How long after the window the open loop keeps serving arrivals that
/// were due inside it; whatever is still queued then counts as failed.
const GRACE_NS: u64 = 1_000_000_000;
/// Period of the timekeeper thread (lateness probe, samplers, drains).
const TICK_NS: u64 = 5_000_000;
/// Traced runs drain the telemetry rings this often; at ~120 collects/s
/// a 1024-event ring would overflow in under a second.
const DRAIN_EVERY_NS: u64 = 50_000_000;
/// Traced operations at least this slow keep their span for the join
/// against collect spans.
pub const SLOW_OP_NS: u64 = 50_000;
/// Slow spans kept per worker; later ones are only counted.
const SLOW_CAP: usize = 1 << 15;
/// Setups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, 50 % updates, pooled nodes: collector-heavy.
    Churn,
    /// Closed loop, 2 % updates, pooled nodes: traversal-heavy.
    Read,
    /// Open-loop Poisson arrivals, 50 % updates, global-heap nodes.
    Service,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Churn, Workload::Read, Workload::Service];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Churn => "skip_churn",
            Workload::Read => "skip_read",
            Workload::Service => "skip_service",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether arrivals follow a schedule instead of the previous reply.
    pub fn is_open(self) -> bool {
        self == Workload::Service
    }

    /// The library parameters: the Figure 3 skip list (128,000 resident
    /// keys over a 256,000-key range, uniform keys) under the stock
    /// ThreadScan configuration.
    pub fn params(self, telemetry: bool) -> WorkloadParams {
        let update_pct = match self {
            Workload::Read => 2,
            Workload::Churn | Workload::Service => 50,
        };
        WorkloadParams::fig3_skip(WORKERS)
            .with_update_pct(update_pct)
            .with_node_pool(self != Workload::Service)
            .with_telemetry(telemetry)
    }
}

/// Splitmix64 finalizer: derives independent stream seeds from `--seed`.
fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Nanoseconds on a process-local monotonic clock.
fn local_ns() -> u64 {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    ANCHOR.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Operation kinds, indexing [`WorkerRecs::op_ns`].
pub const OP_NAMES: [&str; 3] = ["contains", "insert", "remove"];

/// What one worker counted, outside the recorders.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Successful inserts minus successful removes over the whole run,
    /// warm-up and grace included (the membership check's input).
    pub net: i64,
    /// Updates attempted inside the window.
    pub updates: u64,
    /// Updates inside the window that changed the set.
    pub updates_ok: u64,
    /// Operations attempted inside the window: completions for the
    /// closed loop, arrivals due inside it for the open loop.
    pub attempted: u64,
    /// Open-loop arrivals still unserved when the grace period ended.
    pub unserved: u64,
    /// Slow spans that did not fit the span buffer.
    pub slow_dropped: u64,
}

/// One worker's preallocated measurement state. Built once, before any
/// setup, and cleared between trials, so recording never allocates.
pub struct WorkerRecs {
    /// Completions per slice.
    pub slice_ops: Vec<u64>,
    /// End-to-end latency per slice: from the previous completion
    /// (closed loop) or from the intended arrival (open loop).
    pub slice_lat: Vec<Recorder>,
    /// Open-loop lateness: service start minus intended arrival.
    pub lag: Recorder,
    /// Traced runs: time inside each `ConcurrentSet` call, by kind.
    pub op_ns: [Recorder; 3],
    /// Traced runs: `(start, end)` of operations at least
    /// [`SLOW_OP_NS`] long, on the telemetry clock.
    pub slow: Vec<(u64, u64)>,
    /// Counters.
    pub tally: Tally,
}

impl WorkerRecs {
    /// Recorders for a window of `slices` slices.
    pub fn new(slices: usize) -> Self {
        Self {
            slice_ops: vec![0; slices],
            slice_lat: (0..slices).map(|_| Recorder::new()).collect(),
            lag: Recorder::new(),
            op_ns: [Recorder::new(), Recorder::new(), Recorder::new()],
            slow: Vec::with_capacity(SLOW_CAP),
            tally: Tally::default(),
        }
    }

    fn clear(&mut self) {
        self.slice_ops.fill(0);
        self.slice_lat.iter_mut().for_each(Recorder::clear);
        self.lag.clear();
        self.op_ns.iter_mut().for_each(Recorder::clear);
        self.slow.clear();
        self.tally = Tally::default();
    }
}

/// Collector and allocator counters at one instant.
#[derive(Default)]
pub struct Counters {
    pub collects: usize,
    pub collects_skipped: usize,
    pub words_scanned: usize,
    pub mark_hits: usize,
    pub rounds: usize,
    pub signals_sent: usize,
    pub pool_allocs: usize,
    pub pool_frees: usize,
    pub pool_refills: usize,
    pub cpu_s: f64,
}

/// The outcome of the correctness checks run after every window.
#[derive(Default)]
pub struct Checks {
    /// Keys the single-threaded sweep found.
    pub swept: u64,
    /// Prefill plus the workers' net successful updates.
    pub expected: u64,
    /// `outstanding()` after `quiesce()`.
    pub outstanding_after: usize,
    /// Telemetry events lost during a traced trial (0 when untraced).
    pub dropped_events: u64,
}

impl Checks {
    /// Every check passed.
    pub fn ok(&self) -> bool {
        self.swept == self.expected && self.outstanding_after == 0 && self.dropped_events == 0
    }
}

/// What a measured trial leaves for the report.
pub struct RunData {
    pub window_start: u64,
    pub window_end: u64,
    pub before: Counters,
    pub after: Counters,
    /// Timekeeper wake-up lateness.
    pub tick_lag: Recorder,
    /// Sampled maxima over the window (traced runs).
    pub outstanding_max: usize,
    pub pool_bytes_max: usize,
    /// Telemetry phase events drained during the trial (traced runs).
    pub events: Vec<ts_telemetry::EventRecord>,
    pub checks: Checks,
}

/// The built scheme and structure.
struct Rig {
    scheme: Arc<dyn DynSmr>,
    erased: Arc<ErasedSmr>,
    set: Arc<dyn ConcurrentSet<ErasedSmr>>,
    /// Index of the structure's node pool in `ts_alloc::pool_stats()`.
    pool: Option<usize>,
}

impl Rig {
    /// Builds the rig and prefills it with the library's prefill keys in
    /// a seeded random order. Inserting in key order would lay the nodes
    /// out in memory in traversal order, a locality the updates then
    /// erode over tens of seconds, so throughput would drift down through
    /// the window instead of starting at its steady state.
    fn build(w: Workload, seed: u64, traced: bool) -> Rig {
        let params = w.params(traced);
        let scheme = SchemeKind::ThreadScan.build(&params);
        let erased = Arc::new(ErasedSmr::new(Arc::clone(&scheme)));
        let pools_before = ts_alloc::pool_stats().len();
        let set = StructureKind::Skip.build_set::<ErasedSmr>(&params);
        let pool = params.node_pool.then_some(pools_before);
        let mut keys: Vec<u64> = prefill_keys(params.initial_size, params.key_range).collect();
        for i in (1..keys.len()).rev() {
            let j = mix_seed(seed, i as u64) % (i as u64 + 1);
            keys.swap(i, j as usize);
        }
        {
            let handle = erased.register();
            for key in keys {
                set.insert(&handle, key);
            }
        }
        Rig {
            scheme,
            erased,
            set,
            pool,
        }
    }

    fn threadscan(&self) -> &ThreadScanSmr<SignalPlatform> {
        self.scheme
            .as_any()
            .downcast_ref::<ThreadScanSmr<SignalPlatform>>()
            .expect("every workload runs under ThreadScan")
    }

    fn counters(&self) -> Counters {
        let ts = self.threadscan();
        let st = ts.stats();
        let platform = ts.collector().platform();
        let pool = self
            .pool
            .map(|i| ts_alloc::pool_stats()[i])
            .unwrap_or(ts_alloc::PoolStats {
                name: "",
                allocs: 0,
                frees: 0,
                magazine_refills: 0,
                bytes_resident: 0,
            });
        Counters {
            collects: st.collects,
            collects_skipped: st.collects_skipped,
            words_scanned: st.words_scanned,
            mark_hits: st.mark_hits,
            rounds: platform.rounds(),
            signals_sent: platform.signals_sent(),
            pool_allocs: pool.allocs,
            pool_frees: pool.frees,
            pool_refills: pool.magazine_refills,
            cpu_s: crate::host::cpu_seconds().unwrap_or(0.0),
        }
    }
}

/// Timing plan shared by the workers of one trial, on the trial's clock.
#[derive(Clone, Copy)]
struct Plan {
    clock: fn() -> u64,
    traced: bool,
    /// Origin of the arrival schedules.
    t0: u64,
    window_start: u64,
    window_end: u64,
}

impl Plan {
    fn slice(&self, end: u64) -> usize {
        ((end.min(self.window_end - 1) - self.window_start) / SLICE_NS) as usize
    }
}

/// Runs one operation; returns its kind index and whether it changed
/// the set.
#[inline]
fn exec(set: &dyn ConcurrentSet<ErasedSmr>, handle: &ErasedHandle, op: Op) -> (usize, bool) {
    match op {
        Op::Contains(k) => (0, set.contains(handle, k)),
        Op::Insert(k) => (1, set.insert(handle, k)),
        Op::Remove(k) => (2, set.remove(handle, k)),
    }
}

impl WorkerRecs {
    /// Accounts one completed operation that ended inside the window.
    #[inline]
    fn window_op(&mut self, plan: &Plan, kind: usize, changed: bool, start: u64, end: u64) {
        if kind != 0 {
            self.tally.updates += 1;
            self.tally.updates_ok += u64::from(changed);
        }
        if plan.traced {
            self.op_ns[kind].record(end - start);
            if end - start >= SLOW_OP_NS {
                if self.slow.len() < SLOW_CAP {
                    self.slow.push((start, end));
                } else {
                    self.tally.slow_dropped += 1;
                }
            }
        }
    }

    fn closed_loop(
        &mut self,
        plan: &Plan,
        set: &dyn ConcurrentSet<ErasedSmr>,
        handle: &ErasedHandle,
        mix: &mut OpMix,
    ) {
        let clock = plan.clock;
        let mut prev = clock();
        loop {
            let op = mix.next_op();
            let start = if plan.traced { clock() } else { prev };
            let (kind, changed) = exec(set, handle, op);
            self.tally.net += net_delta(kind, changed);
            let end = clock();
            if end >= plan.window_end {
                break;
            }
            if end >= plan.window_start {
                let slice = plan.slice(end);
                self.slice_ops[slice] += 1;
                self.slice_lat[slice].record(end - prev);
                self.tally.attempted += 1;
                self.window_op(plan, kind, changed, start, end);
            }
            prev = end;
        }
    }

    fn open_loop(
        &mut self,
        plan: &Plan,
        set: &dyn ConcurrentSet<ErasedSmr>,
        handle: &ErasedHandle,
        mix: &mut OpMix,
        schedule: &mut ArrivalSchedule,
    ) {
        let clock = plan.clock;
        loop {
            let intended = plan.t0 + schedule.next_ns();
            if intended >= plan.window_end {
                break;
            }
            let mut now = clock();
            while now < intended {
                let wait = intended - now;
                if wait > 300_000 {
                    std::thread::sleep(Duration::from_nanos(wait - 200_000));
                } else if wait > 5_000 {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
                now = clock();
            }
            let in_window = intended >= plan.window_start;
            if now >= plan.window_end + GRACE_NS {
                // Give up: this arrival and every later one due inside
                // the window stay unserved.
                let mut unserved = u64::from(in_window);
                loop {
                    let next = plan.t0 + schedule.next_ns();
                    if next >= plan.window_end {
                        break;
                    }
                    unserved += u64::from(next >= plan.window_start);
                }
                self.tally.attempted += unserved;
                self.tally.unserved += unserved;
                break;
            }
            let (kind, changed) = exec(set, handle, mix.next_op());
            self.tally.net += net_delta(kind, changed);
            let end = clock();
            if (plan.window_start..plan.window_end).contains(&end) {
                self.slice_ops[plan.slice(end)] += 1;
            }
            if in_window {
                self.tally.attempted += 1;
                self.slice_lat[plan.slice(end)].record(end - intended);
                self.lag.record(now - intended);
                self.window_op(plan, kind, changed, now, end);
            }
        }
    }
}

fn net_delta(kind: usize, changed: bool) -> i64 {
    match (kind, changed) {
        (1, true) => 1,
        (2, true) => -1,
        _ => 0,
    }
}

/// Sets `w` up once and measures the setup. With `window_ns` of `None`
/// the workers only register and exit; otherwise they warm up, run the
/// window and the trial checks the result.
pub fn trial(
    w: Workload,
    seed: u64,
    window_ns: Option<u64>,
    traced: bool,
    recs: &mut [WorkerRecs],
) -> (f64, Option<RunData>) {
    assert_eq!(recs.len(), WORKERS);
    recs.iter_mut().for_each(WorkerRecs::clear);
    let clock: fn() -> u64 = if traced {
        ts_telemetry::monotonic_ns
    } else {
        local_ns
    };
    let dropped_before = ts_telemetry::dropped_events();
    let setup_start = Instant::now();
    let rig = Rig::build(w, seed, traced);
    let params = w.params(traced);

    let registered = Barrier::new(WORKERS + 1);
    let go = Barrier::new(WORKERS + 1);
    // Published by the timekeeper before `go` releases the workers.
    let plan_cell: OnceLock<Plan> = OnceLock::new();
    let setup_s = AtomicU64::new(0);
    let mut run = None;

    std::thread::scope(|s| {
        for (t, rec) in recs.iter_mut().enumerate() {
            let (rig, registered, go, plan_cell, params) =
                (&rig, &registered, &go, &plan_cell, &params);
            s.spawn(move || {
                let handle = rig.erased.register();
                registered.wait();
                go.wait();
                let Some(plan) = plan_cell.get() else {
                    return; // setup-only trial
                };
                let mut mix = OpMix::new(
                    mix_seed(seed, t as u64 + 1),
                    params.key_range,
                    params.update_pct,
                );
                if w.is_open() {
                    let model = LoadModel::OpenPoisson { qps: OPEN_QPS };
                    let mut schedule =
                        ArrivalSchedule::for_worker(&model, mix_seed(seed, 0xA441), t, WORKERS)
                            .expect("open model has a schedule");
                    rec.open_loop(plan, &*rig.set, &handle, &mut mix, &mut schedule);
                } else {
                    rec.closed_loop(plan, &*rig.set, &handle, &mut mix);
                }
                // `handle` drops here: the worker unregisters before it
                // exits, as the signal platform requires.
            });
        }
        registered.wait();
        setup_s.store(setup_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let Some(window_ns) = window_ns else {
            go.wait();
            return;
        };
        let t0 = clock() + TICK_NS;
        let window_start = t0 + WARMUP.as_nanos() as u64;
        let plan = Plan {
            clock,
            traced,
            t0,
            window_start,
            window_end: window_start + window_ns,
        };
        let plan = plan_cell.get_or_init(|| plan);
        go.wait();
        run = Some(timekeeper(&rig, plan));
    });

    let setup_s = setup_s.load(Ordering::Relaxed) as f64 / 1e9;
    let Some(mut data) = run else {
        return (setup_s, None);
    };

    // Membership: a single-threaded sweep of the key range must find the
    // prefill plus every worker's net successful updates.
    let net: i64 = recs.iter().map(|r| r.tally.net).sum();
    let swept = {
        let handle = rig.erased.register();
        (0..params.key_range)
            .filter(|&k| rig.set.contains(&handle, k))
            .count() as u64
    };
    // Reclamation: with every handle gone, a quiesce must free all.
    rig.scheme.quiesce();
    if traced {
        data.events.extend(ts_telemetry::drain_events());
    }
    data.checks = Checks {
        swept,
        expected: (params.initial_size as i64 + net) as u64,
        outstanding_after: rig.scheme.outstanding(),
        dropped_events: ts_telemetry::dropped_events() - dropped_before,
    };
    (setup_s, Some(data))
}

/// The main thread's part of a measured trial: wakes every tick to
/// record its own lateness, snapshots counters at the window edges and,
/// when traced, samples gauges and drains the telemetry rings.
fn timekeeper(rig: &Rig, plan: &Plan) -> RunData {
    let Plan {
        clock,
        traced,
        t0,
        window_start,
        window_end,
    } = *plan;
    let mut data = RunData {
        window_start,
        window_end,
        before: Counters::default(),
        after: Counters::default(),
        tick_lag: Recorder::new(),
        outstanding_max: 0,
        pool_bytes_max: 0,
        events: Vec::new(),
        checks: Checks::default(),
    };
    let mut last_drain = t0;
    let mut due = t0;
    while due < window_end {
        due += TICK_NS;
        let now = clock();
        if due > now {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
        let now = clock();
        if due == window_start {
            data.before = rig.counters();
        }
        if due > window_start {
            data.tick_lag.record(now.saturating_sub(due));
            if traced {
                data.outstanding_max = data.outstanding_max.max(rig.scheme.outstanding());
                if let Some(i) = rig.pool {
                    data.pool_bytes_max = data
                        .pool_bytes_max
                        .max(ts_alloc::pool_stats()[i].bytes_resident);
                }
            }
        }
        if traced && now - last_drain >= DRAIN_EVERY_NS {
            data.events.extend(ts_telemetry::drain_events());
            last_drain = now;
        }
    }
    data.after = rig.counters();
    data
}
