//! Order statistics used by every phase: nearest-rank percentiles, medians,
//! fixed time windows, and the best-decile aggregation every end-to-end
//! timing is reported through.
//!
//! The box is a 2-vCPU guest on a shared host. Other tenants slow
//! everything memory-bound for seconds to tens of seconds at a time (a
//! logged 20 s stretch: per-key lookups 1.9x slower, `clone` 2x, a pure ALU
//! loop 1.05x), and in a busy hour such stretches cover most of a run, so a
//! median over the run reports the neighbours. Interference only ever slows
//! the program down. Every rate and latency is therefore measured per pass
//! or per short window, the windows of a phase are spread over the whole
//! run, and the run reports the window at the **best decile**: the speed the
//! program reaches whenever the host lets it, which moves one for one with
//! a change to the program and hardly at all with the neighbours.

use crate::metrics::Better;

/// Nearest-rank `q`-quantile (`q` in `[0, 1]`) of the samples, which it
/// sorts in place; 0 for no samples.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median (nearest rank, so always an observed value).
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The run's value from its per-window (or per-pass) samples: the one a
/// tenth of the way in from the good end, so at least a tenth of the
/// windows were that good or better (of three samples, the best).
pub fn best_decile(samples: &mut [f64], better: Better) -> f64 {
    percentile(samples, if better == Better::Higher { 0.9 } else { 0.1 })
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Samples bucketed into equal time windows by the time they belong to
/// (an open-loop request belongs to its *scheduled* send time).
pub struct Windows {
    window_ns: u64,
    buckets: Vec<Vec<f64>>,
}

impl Windows {
    /// Windows of `window_ns` covering `[0, span_ns)`. A trailing partial
    /// window is not created, so samples past the last full window are
    /// dropped by [`Windows::record`].
    pub fn new(window_ns: u64, span_ns: u64) -> Self {
        let window_ns = window_ns.max(1);
        Self { window_ns, buckets: vec![Vec::new(); (span_ns / window_ns) as usize] }
    }

    /// Files `value` under the window containing `at_ns`.
    pub fn record(&mut self, at_ns: u64, value: f64) {
        if let Some(b) = self.buckets.get_mut((at_ns / self.window_ns) as usize) {
            b.push(value);
        }
    }

    /// Each measured window's `q`-quantile (after `skip` warm-up windows).
    /// Empty windows are left out: a window without samples has no latency.
    pub fn quantiles(&mut self, q: f64, skip: usize) -> Vec<f64> {
        self.buckets
            .iter_mut()
            .skip(skip)
            .filter(|b| !b.is_empty())
            .map(|b| percentile(b, q))
            .collect()
    }

    /// Each measured window's samples per second.
    pub fn rates_per_s(&self, skip: usize) -> Vec<f64> {
        let per_s = 1e9 / self.window_ns as f64;
        self.buckets.iter().skip(skip).map(|b| b.len() as f64 * per_s).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn best_decile_ignores_a_slow_majority() {
        // 20 passes: 14 slowed to 0.6 by a neighbour, 6 at the program's 1.0.
        let mut rates: Vec<f64> = (0..20).map(|i| if i % 10 < 7 { 0.6 } else { 1.0 }).collect();
        assert_eq!(median(&mut rates), 0.6);
        assert_eq!(best_decile(&mut rates, Better::Higher), 1.0);
        let mut times: Vec<f64> = rates.iter().map(|r| 1.0 / r).collect();
        assert_eq!(best_decile(&mut times, Better::Lower), 1.0);
        assert_eq!(best_decile(&mut [3.0, 1.0, 2.0], Better::Lower), 1.0);
        // A single lucky window is not the result.
        let mut one_lucky: Vec<f64> = (0..20).map(|i| if i == 0 { 2.0 } else { 1.0 }).collect();
        assert_eq!(best_decile(&mut one_lucky, Better::Higher), 1.0);
    }

    #[test]
    fn one_stalled_window_does_not_move_the_window_median() {
        // Five 1-second windows of 100 samples at 10 µs; the third window
        // also holds a stall that puts 10 samples at 10 ms.
        let mut w = Windows::new(1_000_000_000, 5_000_000_000);
        for win in 0..5u64 {
            for i in 0..100u64 {
                let stalled = win == 2 && i < 10;
                w.record(win * 1_000_000_000 + i, if stalled { 10_000.0 } else { 10.0 });
            }
        }
        assert_eq!(median(&mut w.quantiles(0.99, 0)), 10.0);
        // The whole-run p99 would have reported the stall.
        let mut all: Vec<f64> = w.buckets.iter().flatten().copied().collect();
        assert_eq!(percentile(&mut all, 0.99), 10_000.0);
    }

    #[test]
    fn windows_skip_warm_up_and_drop_the_partial_tail() {
        let mut w = Windows::new(10, 35); // three full windows
        for t in 0..35u64 {
            w.record(t, t as f64);
        }
        assert_eq!(w.rates_per_s(0), vec![1e9, 1e9, 1e9]);
        assert_eq!(w.rates_per_s(1), vec![1e9, 1e9]);
        // Windows 1 and 2 hold 10..=19 and 20..=29; their medians are 14
        // and 24.
        assert_eq!(w.quantiles(0.5, 1), vec![14.0, 24.0]);
    }
}
