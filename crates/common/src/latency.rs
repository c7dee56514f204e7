//! Log-bucketed latency histogram (HDR-style) for tail accounting.
//!
//! The serve path (each reader's `ServeStats`, `nmctl serve`) and
//! `nm-bench update` need p50/p99/p999 over millions of samples without
//! keeping the samples. An exact array is too big and a fixed linear
//! histogram cannot span the nanosecond-to-second range, so this uses the
//! classic trick: one octave per power of two, each split into
//! `2^SUB_BITS` linear sub-buckets. The relative quantization error is
//! bounded by `2^-SUB_BITS` (~3.1% here), which is far below run-to-run
//! noise for any latency we report.
//!
//! Recording is `&mut self` and allocation-free; each worker thread owns a
//! histogram and the aggregator folds them together with
//! [`LatencyHistogram::merge`].

/// Linear sub-buckets per octave, as a power of two.
const SUB_BITS: u32 = 5;
/// Linear sub-buckets per octave (32 → ≤3.125% relative error).
const SUB: usize = 1 << SUB_BITS;
/// Values below `2*SUB` get one exact bucket each.
const EXACT: usize = 2 * SUB;
/// Octaves above the exact region: exponents `SUB_BITS+1 ..= 63`.
const OCTAVES: usize = 63 - SUB_BITS as usize;
/// Total bucket count.
const BUCKETS: usize = EXACT + OCTAVES * SUB;

/// A mergeable log-bucketed histogram of `u64` latency samples
/// (nanoseconds by convention, but any unit works).
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a sample. Values `< EXACT` are exact; larger values
/// keep the top `SUB_BITS` bits after the leading one.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < EXACT as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // >= SUB_BITS + 1
    let sub = ((v >> (exp - SUB_BITS)) as usize) & (SUB - 1);
    EXACT + (exp - SUB_BITS - 1) as usize * SUB + sub
}

/// Inclusive-exclusive value range `[lo, hi)` covered by bucket `i` — the
/// inverse of [`bucket_of`], used for percentile interpolation.
#[inline]
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < EXACT {
        return (i as u64, i as u64 + 1);
    }
    let rel = i - EXACT;
    let exp = (rel / SUB) as u32 + SUB_BITS + 1;
    let sub = (rel % SUB) as u64;
    let width = 1u64 << (exp - SUB_BITS);
    let lo = (1u64 << exp) + sub * width;
    (lo, lo.saturating_add(width))
}

impl LatencyHistogram {
    /// An empty histogram (allocates the fixed bucket array once).
    pub fn new() -> Self {
        Self { counts: vec![0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records a `Duration` as nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&mut self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded samples (exact — tracked outside the buckets).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`), linearly interpolated inside the
    /// winning bucket and clamped to the observed `[min, max]` so exact
    /// extremes stay exact. Returns 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the sample we want, 1-based.
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                let (lo, hi) = bucket_bounds(i);
                let within = (target - seen - 1) as f64 / c as f64;
                let v = lo as f64 + (hi - lo) as f64 * within;
                return v.clamp(self.min as f64, self.max as f64);
            }
            seen += c;
        }
        self.max as f64
    }

    /// Folds `other` into `self` (for aggregating per-thread histograms).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Convenience summary in microseconds for JSON artifacts.
    pub fn summary_us(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            mean_us: self.mean() / 1e3,
            p50_us: self.percentile(0.50) / 1e3,
            p99_us: self.percentile(0.99) / 1e3,
            p999_us: self.percentile(0.999) / 1e3,
            max_us: self.max() as f64 / 1e3,
        }
    }
}

/// Percentile digest of a nanosecond-sampled histogram, in microseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencySummary {
    /// Samples behind the digest.
    pub count: u64,
    /// Exact mean.
    pub mean_us: f64,
    /// Median.
    pub p50_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// 99.9th percentile.
    pub p999_us: f64,
    /// Observed maximum (exact).
    pub max_us: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_invert_bucket_of() {
        // Every bucket's bounds must round-trip: lo maps into the bucket,
        // hi-1 maps into the bucket, hi maps into the next.
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_of(lo), i, "lo of bucket {i}");
            if hi > lo && hi != u64::MAX {
                assert_eq!(bucket_of(hi - 1), i, "hi-1 of bucket {i}");
            }
        }
        // Spot-check the exact region and the first octave boundary.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(EXACT as u64 - 1), EXACT - 1);
        assert_eq!(bucket_of(EXACT as u64), EXACT);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn exact_region_is_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..EXACT as u64 {
            h.record(v);
        }
        // Percentiles over 0..63 recorded once each: the q-quantile is the
        // ceil(q*64)-th smallest value, exactly.
        assert_eq!(h.percentile(0.0), 0.0);
        assert!((h.percentile(0.5) - 31.5).abs() < 1.0);
        assert_eq!(h.percentile(1.0), (EXACT - 1) as f64);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), EXACT as u64 - 1);
    }

    #[test]
    fn relative_error_is_bounded() {
        // For any single large value, the interpolated percentile must land
        // within one sub-bucket width (2^-SUB_BITS relative).
        let mut rng = crate::rng::SplitMix64::new(7);
        for _ in 0..1_000 {
            let v = rng.next_u64() >> (rng.below(40) as u32);
            let mut h = LatencyHistogram::new();
            h.record(v);
            let got = h.percentile(0.5);
            let err = (got - v as f64).abs() / (v as f64).max(1.0);
            assert!(err <= 1.0 / SUB as f64 + 1e-9, "v={v} got={got} err={err}");
        }
    }

    #[test]
    fn percentiles_are_monotone_and_ordered() {
        let mut rng = crate::rng::SplitMix64::new(42);
        let mut h = LatencyHistogram::new();
        for _ in 0..100_000 {
            h.record(rng.below(10_000_000) + 50);
        }
        let qs = [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0];
        let vals: Vec<f64> = qs.iter().map(|&q| h.percentile(q)).collect();
        for w in vals.windows(2) {
            assert!(w[0] <= w[1] + 1e-9, "non-monotone: {vals:?}");
        }
        assert!(vals[0] >= h.min() as f64);
        assert!(*vals.last().unwrap() <= h.max() as f64 + 1e-9);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut rng = crate::rng::SplitMix64::new(3);
        let mut whole = LatencyHistogram::new();
        let mut parts: Vec<LatencyHistogram> = (0..4).map(|_| LatencyHistogram::new()).collect();
        for i in 0..40_000u64 {
            let v = rng.below(1 << 30);
            whole.record(v);
            parts[(i % 4) as usize].record(v);
        }
        let mut merged = LatencyHistogram::new();
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged.count(), whole.count());
        assert_eq!(merged.min(), whole.min());
        assert_eq!(merged.max(), whole.max());
        assert_eq!(merged.mean(), whole.mean());
        for q in [0.5, 0.9, 0.99, 0.999] {
            assert_eq!(merged.percentile(q), whole.percentile(q), "q={q}");
        }
    }

    #[test]
    fn merge_across_worker_threads() {
        // The intended aggregation shape: each thread records into its own
        // histogram, the parent absorbs them after join.
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut h = LatencyHistogram::new();
                    let mut rng = crate::rng::SplitMix64::new(t + 1);
                    for _ in 0..10_000 {
                        h.record(rng.below(1_000_000));
                    }
                    h
                })
            })
            .collect();
        let mut total = LatencyHistogram::new();
        for j in handles {
            total.merge(&j.join().unwrap());
        }
        assert_eq!(total.count(), 40_000);
        assert!(total.percentile(0.5) > 0.0);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(0.99), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        let s = h.summary_us();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99_us, 0.0);
    }
}
