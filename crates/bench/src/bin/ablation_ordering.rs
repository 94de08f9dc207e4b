//! Ablation: memory-ordering relaxations on the reclamation fast paths.
//!
//! Times exactly the sites the ordering-relaxation pass touches — the
//! epoch `begin_op`/`end_op` bracket, the epoch retire stamp path, the
//! `LocalBuffer` push + occupancy probe, and the hazard-pointer
//! protect/release cycle — so each relaxation lands with a measured
//! before/after delta (run this binary at the parent commit and at the
//! relaxation commit; the README ordering-policy table records the
//! numbers). Single-threaded on purpose: these are uncontended fast-path
//! costs, where an x86 `SeqCst` store (`xchg`/`mfence`) versus a plain
//! store is the entire story.
//!
//! `--json <path>` writes machine-readable results.

use std::sync::atomic::AtomicPtr;
use std::time::Instant;

use threadscan::buffer::LocalBuffer;
use threadscan::retired::{noop_drop, Retired};
use ts_bench::cli::{machine_info, CliArgs};
use ts_smr::{retire_box, EpochScheme, HazardPointers, Smr, SmrHandle};

/// Runs `iters` iterations of `op` `trials` times; returns the fastest
/// trial in ns/op (min filters scheduler noise better than mean for
/// single-threaded fixed-work loops).
fn time_ns_per_op(trials: usize, iters: usize, mut op: impl FnMut(usize)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..trials {
        let t0 = Instant::now();
        for i in 0..iters {
            op(i);
        }
        let ns = t0.elapsed().as_nanos() as f64 / iters as f64;
        best = best.min(ns);
    }
    best
}

fn main() {
    let args = CliArgs::parse();
    let quick = args.get_flag("quick");
    let iters = args.get_usize("iters", if quick { 200_000 } else { 2_000_000 });
    let trials = args.get_usize("trials", if quick { 3 } else { 7 });
    let json = args.get("json");
    args.finish();

    println!(
        "# Ablation: fast-path memory orderings ({})",
        machine_info()
    );
    println!("# iters={iters} trials={trials} (fastest trial, ns/op)");

    let mut results: Vec<(&str, f64)> = Vec::new();

    // Epoch fast path: the begin_op announce (global load + state store)
    // and the end_op clear — the "two writes per method" the paper charges
    // the epoch scheme.
    {
        let scheme = EpochScheme::new();
        let handle = scheme.register();
        let ns = time_ns_per_op(trials, iters, |_| {
            handle.begin_op();
            handle.end_op();
        });
        results.push(("epoch_begin_end_pair", ns));
    }

    // Epoch retire path: stamp load + bag push (+ opportunistic expiry
    // probe). Threshold high enough that no advance runs inside the
    // timed region; nodes are pre-allocated so allocation cost stays out.
    {
        let scheme = EpochScheme::with_threshold(usize::MAX);
        let retire_iters = iters.min(400_000); // bag grows linearly
        let mut best = f64::INFINITY;
        for _ in 0..trials {
            let handle = scheme.register();
            let nodes: Vec<*mut u64> = (0..retire_iters)
                .map(|i| Box::into_raw(Box::new(i as u64)))
                .collect();
            let t0 = Instant::now();
            for &p in &nodes {
                // SAFETY: fresh Box, never shared, retired exactly once.
                unsafe { retire_box(&handle, p) };
            }
            let ns = t0.elapsed().as_nanos() as f64 / retire_iters as f64;
            best = best.min(ns);
            drop(handle); // bequeaths the bag to the orphan list...
            scheme.quiesce(); // ...which quiesce then frees
        }
        results.push(("epoch_retire", best));
    }

    // LocalBuffer fast path: the SPSC push plus the occupancy probe the
    // retire path uses to decide whether to trigger a phase.
    {
        let buf = LocalBuffer::new(4096);
        let mut out = Vec::new();
        let ns = time_ns_per_op(trials, iters, |i| {
            // SAFETY: single-threaded — sole producer and consumer.
            unsafe {
                if buf
                    .push(Retired::from_raw_parts(
                        0x1000 + (i % 4096) * 8,
                        8,
                        noop_drop,
                    ))
                    .is_err()
                {
                    buf.drain_into(&mut out);
                    out.clear();
                }
            }
            std::hint::black_box(buf.len());
        });
        results.push(("buffer_push_len", ns));
    }

    // Hazard fast path: publish + SeqCst fence + validate, then the
    // end_op slot clear — the per-reference cost the paper charges hazard
    // pointers.
    {
        let scheme = HazardPointers::new();
        let handle = scheme.register();
        let target = Box::into_raw(Box::new(0u64)).cast::<u8>();
        let shared = AtomicPtr::new(target);
        let ns = time_ns_per_op(trials, iters, |_| {
            std::hint::black_box(handle.load_protected(0, &shared));
            handle.end_op();
        });
        // SAFETY: never retired, no other reference.
        unsafe { drop(Box::from_raw(target.cast::<u64>())) };
        results.push(("hazard_protect_release", ns));
    }

    println!("{:>24} {:>12}", "site", "ns/op");
    for (name, ns) in &results {
        println!("{name:>24} {ns:>12.2}");
    }

    if let Some(path) = json {
        let entries: Vec<String> = results
            .iter()
            .map(|(name, ns)| format!("  {{\"bench\": \"{name}\", \"ns_per_op\": {ns:.3}}}"))
            .collect();
        let json = format!(
            "{{\"ablation\": \"ordering\", \"iters\": {iters}, \"trials\": {trials}, \"results\": [\n{}\n]}}\n",
            entries.join(",\n")
        );
        std::fs::write(path, json).expect("write json");
        println!("# json written to {path}");
    }
}
