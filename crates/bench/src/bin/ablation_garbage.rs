//! Ablation D: outstanding-garbage growth over time.
//!
//! The paper's Slow Epoch discussion (§6): "a thread that wants to free
//! its pointers cannot do so until the errant thread updates its epoch
//! counter" — garbage grows without bound while throughput suffers.
//! ThreadScan's signals cannot be stalled by application code, so its
//! outstanding garbage stays bounded by the buffer sizing. This binary
//! samples retired-but-unfreed counts over the run for
//! {epoch, slow-epoch, threadscan}.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ts_bench::cli::{machine_info, CliArgs};
use ts_sigscan::SignalPlatform;
use ts_smr::{EpochScheme, Smr, ThreadScanSmr};
use ts_structures::{ConcurrentSet, HarrisList};

fn sample_run<S: Smr + 'static>(
    label: &str,
    scheme: Arc<S>,
    threads: usize,
    duration: Duration,
    samples: usize,
) {
    let list = Arc::new(HarrisList::<S>::new());
    {
        let h = scheme.register();
        for k in 0..512u64 {
            list.insert(&h, k * 2);
        }
    }
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        for t in 0..threads {
            let scheme = Arc::clone(&scheme);
            let list = Arc::clone(&list);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let h = scheme.register();
                let mut k = t as u64;
                while !stop.load(Ordering::Relaxed) {
                    let key = k % 1024;
                    if list.remove(&h, key) {
                        list.insert(&h, key);
                    }
                    k = k.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
            });
        }
        let t0 = Instant::now();
        let step = duration / samples as u32;
        print!("{label:>12}:");
        for _ in 0..samples {
            std::thread::sleep(step);
            print!(" {:>8}", scheme.outstanding());
        }
        println!("   ({:.2?} elapsed)", t0.elapsed());
        stop.store(true, Ordering::Relaxed);
    });
}

fn main() {
    let args = CliArgs::parse();
    let quick = args.get_flag("quick");
    let duration = Duration::from_secs_f64(args.get_f64("duration", if quick { 0.5 } else { 3.0 }));
    let samples = args.get_usize("samples", 8);
    let threads = args.get_usize("threads", 4);
    args.finish();

    println!(
        "# Ablation D: outstanding garbage over time ({})",
        machine_info()
    );
    println!("# list workload, {threads} threads, {samples} samples over {duration:?}");
    println!("# columns = retired-but-unfreed node counts at each sample instant");

    sample_run(
        "epoch",
        Arc::new(EpochScheme::with_threshold(256)),
        threads,
        duration,
        samples,
    );
    sample_run(
        "slow-epoch",
        Arc::new(EpochScheme::slow(256, Duration::from_millis(40), 2048)),
        threads,
        duration,
        samples,
    );
    sample_run(
        "threadscan",
        Arc::new(ThreadScanSmr::with_config(
            SignalPlatform::new().expect("signals"),
            threadscan::CollectorConfig::default().with_buffer_capacity(256),
        )),
        threads,
        duration,
        samples,
    );
    println!(
        "# expected shape: threadscan stays an order of magnitude below the \
         epoch schemes (its buffers bound garbage directly); slow-epoch \
         spikes while its errant thread stalls inside an operation"
    );
}
