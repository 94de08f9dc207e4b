//! The full evaluation matrix as a smoke grid: every scheme × every
//! structure runs the workload harness briefly and must (a) complete,
//! (b) make reclamation progress where applicable, and (c) keep the
//! structure consistent.

use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

use ts_workload::{run_combo, SchemeKind, StructureKind, WorkloadParams};

/// Every run spawns worker threads that compete for the same cores, so a
/// sibling test running at the same time would slow one side of a
/// throughput comparison. Comparisons hold this alone; the other tests
/// share it.
static CORES: RwLock<()> = RwLock::new(());

fn share_cores() -> RwLockReadGuard<'static, ()> {
    CORES.read().unwrap_or_else(|e| e.into_inner())
}

fn own_cores() -> RwLockWriteGuard<'static, ()> {
    CORES.write().unwrap_or_else(|e| e.into_inner())
}

fn quick(structure: StructureKind, threads: usize) -> WorkloadParams {
    WorkloadParams::fig3(structure, threads)
        .scaled_down(64)
        .with_duration(Duration::from_millis(150))
}

#[test]
fn full_matrix_completes() {
    let _cores = share_cores();
    for structure in StructureKind::EXTENDED {
        for scheme in SchemeKind::ALL {
            let r = run_combo(scheme, &quick(structure, 2));
            assert!(
                r.total_ops > 0,
                "{}/{} produced no operations",
                scheme.label(),
                structure.label()
            );
        }
    }
}

#[test]
fn reclaiming_schemes_free_memory() {
    let _cores = share_cores();
    // With frequent updates and small structures, every reclaiming scheme
    // must show bounded outstanding garbage after quiescing.
    for scheme in [
        SchemeKind::Hazard,
        SchemeKind::Epoch,
        SchemeKind::ThreadScan,
    ] {
        let mut p = quick(StructureKind::List, 3).with_update_pct(50);
        p.ts_buffer_capacity = 64;
        p.duration = Duration::from_millis(300);
        let r = run_combo(scheme, &p);
        let outstanding = r.outstanding_after.expect("reclaiming scheme");
        assert!(
            outstanding < 5_000,
            "{}: outstanding {} after quiesce",
            scheme.label(),
            outstanding
        );
    }
}

#[test]
fn leaky_leaks_proportionally_to_updates() {
    let _cores = share_cores();
    let read_only = run_combo(
        SchemeKind::Leaky,
        &quick(StructureKind::Hash, 2).with_update_pct(0),
    );
    let heavy = run_combo(
        SchemeKind::Leaky,
        &quick(StructureKind::Hash, 2).with_update_pct(100),
    );
    assert_eq!(read_only.leaked, Some(0), "no updates ⇒ no leaks");
    assert!(heavy.leaked.unwrap() > 0, "updates ⇒ leaks under Leaky");
}

#[test]
fn slow_epoch_throughput_collapses_vs_epoch() {
    let _cores = own_cores();
    // The paper's Slow Epoch point: one delayed thread wrecks the scheme.
    // With a 40ms stall per 4096 ops per the errant thread, epoch should
    // beat slow-epoch clearly on the same workload.
    let mut p = quick(StructureKind::List, 2);
    p.duration = Duration::from_millis(400);
    p.slow_epoch_period_ops = 512; // stall often enough to be visible
    let epoch = run_combo(SchemeKind::Epoch, &p);
    let slow = run_combo(SchemeKind::SlowEpoch, &p);
    assert!(
        slow.ops_per_sec < epoch.ops_per_sec,
        "slow-epoch ({:.0}) should underperform epoch ({:.0})",
        slow.ops_per_sec,
        epoch.ops_per_sec
    );
}

#[test]
fn oversubscription_smoke() {
    let _cores = share_cores();
    // 4× more threads than this machine has: everything still completes
    // and ThreadScan still reclaims (Figure 4's regime).
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads = (hw * 4).max(4);
    for scheme in SchemeKind::OVERSUB {
        let mut p = quick(StructureKind::Hash, threads);
        p.duration = Duration::from_millis(250);
        let r = run_combo(scheme, &p);
        assert!(r.total_ops > 0, "{} stalled oversubscribed", scheme.label());
        if scheme == SchemeKind::ThreadScan {
            let outstanding = r.outstanding_after.unwrap();
            assert!(
                outstanding < 10_000,
                "threadscan outstanding {outstanding} oversubscribed"
            );
        }
    }
}

#[test]
fn tuned_buffer_reduces_collect_frequency() {
    let _cores = share_cores();
    // §6's tuning argument, checked directly via collector counters.
    let mut small = quick(StructureKind::Hash, 3).with_update_pct(50);
    small.duration = Duration::from_millis(300);
    small.ts_buffer_capacity = 64;
    let mut large = small.clone();
    large.ts_buffer_capacity = 1024;

    let r_small = run_combo(SchemeKind::ThreadScan, &small);
    let r_large = run_combo(SchemeKind::ThreadScan, &large);
    let c_small = r_small.threadscan.unwrap().collects;
    let c_large = r_large.threadscan.unwrap().collects;
    assert!(
        c_small > c_large,
        "small buffers must collect more often ({c_small} vs {c_large})"
    );
}
