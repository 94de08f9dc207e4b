//! Fixed-footprint log-linear latency recorder.
//!
//! Values (nanoseconds) below `2 * SUB` land in exact unit-wide buckets;
//! above that every power of two is split into `SUB` equal sub-buckets,
//! so a bucket is at most `1/SUB` of its lower bound wide. Percentiles
//! report the bucket midpoint, which bounds the relative error at
//! `1 / (2 * SUB)` ≈ 0.4 % — well inside the 1 % the benchmark needs to
//! see a 10 % change. The counts live in one boxed array whose size is
//! fixed at construction, so recording never allocates and the
//! recorder's footprint does not grow with the sample count.

/// Sub-buckets per power of two, as a bit count.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values at or above `2^MAX_BITS` ns (about 18 minutes) clamp into the
/// last bucket.
const MAX_BITS: u32 = 40;
/// One bucket per exact value below `2 * SUB`, then `SUB` per octave.
const BUCKETS: usize = ((MAX_BITS - SUB_BITS) as usize + 1) * SUB as usize;

/// A mergeable log-linear histogram of nanosecond values.
pub struct Recorder {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
    max: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder. Allocates its whole footprint here, once.
    pub fn new() -> Self {
        let counts: Box<[u64; BUCKETS]> = vec![0u64; BUCKETS]
            .into_boxed_slice()
            .try_into()
            .expect("slice has exactly BUCKETS entries");
        Self {
            counts,
            total: 0,
            max: 0,
        }
    }

    fn index(v: u64) -> usize {
        let v = v.min((1u64 << MAX_BITS) - 1);
        if v < 2 * SUB {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        (u64::from(shift) * SUB + (v >> shift)) as usize
    }

    /// The `[low, low + width)` range bucket `idx` covers.
    fn bucket_range(idx: usize) -> (u64, u64) {
        let idx = idx as u64;
        if idx < 2 * SUB {
            return (idx, 1);
        }
        let shift = idx / SUB - 1;
        let mantissa = idx - shift * SUB;
        (mantissa << shift, 1 << shift)
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
        self.max = self.max.max(ns);
    }

    /// Adds every count of `other` into `self`.
    pub fn merge(&mut self, other: &Recorder) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// Empties the recorder, keeping its allocation.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
        self.max = 0;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest recorded value (exact).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Share of recorded values at or above `ns` (to bucket precision).
    pub fn share_at_or_above(&self, ns: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let above: u64 = self.counts[Self::index(ns)..].iter().sum();
        above as f64 / self.total as f64
    }

    /// The value at quantile `q` in `[0, 1]`: the midpoint of the bucket
    /// holding the `ceil(q * count)`-th smallest value, or 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (low, width) = Self::bucket_range(idx);
                let mid = low as f64 + (width - 1) as f64 / 2.0;
                // The midpoint never reads above the true maximum.
                return mid.min(self.max as f64);
            }
        }
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn exact_quantile(sorted: &[u64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank - 1] as f64
    }

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        let mut next = 0;
        for idx in 0..BUCKETS {
            let (low, width) = Recorder::bucket_range(idx);
            assert_eq!(low, next, "bucket {idx} must start where {} ended", idx - 1);
            assert_eq!(Recorder::index(low), idx);
            assert_eq!(Recorder::index(low + width - 1), idx);
            // Width is at most 1/SUB of the lower bound above the exact range.
            assert!(low < 2 * SUB || width * SUB <= low, "bucket {idx} too wide");
            next = low + width;
        }
        assert_eq!(next, 1 << MAX_BITS);
    }

    #[test]
    fn percentiles_match_exact_sorted_samples_within_one_percent() {
        let mut rng = SmallRng::seed_from_u64(7);
        for spread in [1_000u64, 100_000, 50_000_000] {
            let mut rec = Recorder::new();
            let mut samples: Vec<u64> = (0..200_000)
                .map(|_| {
                    // Log-uniform-ish: heavy tails like real op latencies.
                    let e = rng.gen_range(0.0..(spread as f64).ln());
                    e.exp() as u64 + rng.gen_range(0..50u64)
                })
                .collect();
            for &s in &samples {
                rec.record(s);
            }
            samples.sort_unstable();
            assert_eq!(rec.count(), samples.len() as u64);
            assert_eq!(rec.max(), *samples.last().unwrap());
            for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let exact = exact_quantile(&samples, q);
                let got = rec.quantile(q);
                let err = (got - exact).abs() / exact.max(1.0);
                assert!(
                    err <= 0.01,
                    "spread {spread} q {q}: recorder {got} vs exact {exact} ({:.3}%)",
                    err * 100.0
                );
            }
        }
    }

    #[test]
    fn small_values_are_exact_and_huge_values_clamp() {
        let mut rec = Recorder::new();
        for v in 0..256 {
            rec.record(v);
        }
        assert_eq!(rec.quantile(0.5), 127.0);
        assert_eq!(rec.quantile(1.0), 255.0);
        rec.record(u64::MAX);
        assert_eq!(rec.count(), 257);
        assert_eq!(rec.max(), u64::MAX);
        assert!(rec.quantile(1.0) >= (1u64 << (MAX_BITS - 1)) as f64);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let mut a = Recorder::new();
        let mut b = Recorder::new();
        let mut all = Recorder::new();
        for v in 0..10_000u64 {
            let x = v * v % 1_000_003;
            if v % 3 == 0 { &mut a } else { &mut b }.record(x);
            all.record(x);
        }
        a.merge(&b);
        for q in [0.1, 0.5, 0.99] {
            assert_eq!(a.quantile(q), all.quantile(q));
        }
        assert_eq!(a.count(), all.count());
        a.clear();
        assert_eq!((a.count(), a.quantile(0.5)), (0, 0.0));
    }

    #[test]
    fn empty_recorder_reads_zero() {
        assert_eq!(Recorder::new().quantile(0.99), 0.0);
    }
}
