//! The §3.9 / Figure 7 update model.
//!
//! Updates move rules from the RQ-RMI iSets to the remainder classifier;
//! throughput is "a weighted average between that of NuevoMatch and the
//! remainder implementation, based on the number of rules in each". With
//! updates arriving uniformly at rate `u` over `r` rules, the expected
//! fraction of rules still unmodified after time `t` is `e^(−u·t/r)`.
//! Retraining every `τ` seconds (taking `T` seconds per round) resets the
//! drift — but only for updates that arrived before the retrain *started*.
//!
//! ## Partial retraining (the publish-period term)
//!
//! Incremental leaf-level retraining (`nuevomatch`'s
//! `ClassifierHandle::retrain_partial`) changes exactly one parameter of
//! this model: the **publish period** `T` drops from full-rebuild training
//! time to the partial patch time. The drift accumulated at the worst point
//! of a steady-state cycle is `u·(τ+T)/r`, so [`drift_floor`] rises as `T`
//! shrinks; model a partial-retrain deployment by setting
//! [`UpdateModel::train_time`] to the measured partial latency.
//! `nm-bench update` measures both latencies and reports both
//! predicted floors next to the measured curve.

/// Model parameters.
#[derive(Clone, Copy, Debug)]
pub struct UpdateModel {
    /// Total rules `r`.
    pub rules: f64,
    /// Updates per second that move a rule to the remainder (`u`).
    pub update_rate: f64,
    /// Retrain period `τ` (seconds).
    pub retrain_period: f64,
    /// Training duration (seconds; the paper's baseline is ~a minute for
    /// 500K rules).
    pub train_time: f64,
    /// Relative throughput of the build-fresh classifier (normalised 1.0).
    pub fresh_throughput: f64,
    /// Relative throughput of the remainder alone (e.g. 1/speedup; the
    /// update-free speedup is `fresh/remainder`).
    pub remainder_throughput: f64,
}

/// The steady-state throughput floor: the weighted average at the worst
/// point of a retrain cycle, just before a retrain that started at `k·τ`
/// publishes at `k·τ + T` — by then the freshest model is `τ + T` old, so
/// the drifted fraction peaks at `1 − e^(−u·(τ+T)/r)`.
///
/// This is the quantity partial retraining exists to lift: `τ` can shrink
/// to just above `T`, and `T` itself drops from full training time to the
/// leaf-patch time, so the floor approaches the fresh throughput.
pub fn drift_floor(m: &UpdateModel) -> f64 {
    let unmodified = (-m.update_rate * (m.retrain_period + m.train_time) / m.rules).exp();
    unmodified * m.fresh_throughput + (1.0 - unmodified) * m.remainder_throughput
}

/// Throughput at elapsed time `t` under the model: the drift accumulated
/// since the last *completed* retrain determines the weighted average.
pub fn throughput_at(m: &UpdateModel, t: f64) -> f64 {
    // Retrains start at k·τ and land at k·τ + T. The freshest model at time
    // t was trained on the state at time s = the latest k·τ with
    // k·τ + T ≤ t (0 if none). Updates since s sit in the remainder.
    let k = ((t - m.train_time) / m.retrain_period).floor();
    let s = if k >= 1.0 { k * m.retrain_period } else { 0.0 };
    let drift_time = t - s;
    let unmodified = (-m.update_rate * drift_time / m.rules).exp();
    unmodified * m.fresh_throughput + (1.0 - unmodified) * m.remainder_throughput
}

/// Samples the Figure 7 curve: `points` samples over `[0, horizon]`.
pub fn throughput_over_time(m: &UpdateModel, horizon: f64, points: usize) -> Vec<(f64, f64)> {
    (0..points)
        .map(|i| {
            let t = horizon * i as f64 / (points.max(2) - 1) as f64;
            (t, throughput_at(m, t))
        })
        .collect()
}

/// The paper's sustained-rate estimate (§3.9): the update rate at which the
/// *average* throughput over a retrain period equals `target_fraction` of
/// the update-free speedup (they quote ≈4K updates/s for 500K rules at half
/// speedup with minute-long training). Solved by bisection on the rate.
pub fn sustained_update_rate(
    rules: f64,
    retrain_period: f64,
    train_time: f64,
    fresh_throughput: f64,
    remainder_throughput: f64,
    target_fraction: f64,
) -> f64 {
    let avg_for = |rate: f64| -> f64 {
        let m = UpdateModel {
            rules,
            update_rate: rate,
            retrain_period,
            train_time,
            fresh_throughput,
            remainder_throughput,
        };
        // Average over one steady-state period after the first retrain.
        let t0 = retrain_period + train_time;
        let samples = 64;
        (0..samples)
            .map(|i| throughput_at(&m, t0 + retrain_period * i as f64 / samples as f64))
            .sum::<f64>()
            / samples as f64
    };
    let target = target_fraction * fresh_throughput;
    let (mut lo, mut hi) = (0.0f64, rules); // r updates/s redoes the whole set
    for _ in 0..60 {
        let mid = (lo + hi) / 2.0;
        if avg_for(mid) > target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo + hi) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> UpdateModel {
        UpdateModel {
            rules: 500_000.0,
            update_rate: 4_000.0,
            retrain_period: 120.0,
            train_time: 60.0,
            fresh_throughput: 1.0,
            remainder_throughput: 1.0 / 2.6, // paper's tm-scale speedup
        }
    }

    #[test]
    fn throughput_decays_between_retrains() {
        let m = model();
        let t0 = throughput_at(&m, 0.0);
        let t1 = throughput_at(&m, 60.0);
        assert!(t1 < t0, "{t0} -> {t1}");
        assert!(t1 > m.remainder_throughput, "never below remainder floor");
    }

    #[test]
    fn retrain_restores_throughput() {
        let m = model();
        // Just before the first retrain lands (t = τ + T) vs just after.
        let before = throughput_at(&m, m.retrain_period + m.train_time - 1.0);
        let after = throughput_at(&m, m.retrain_period + m.train_time + 1.0);
        assert!(after > before, "retrain must help: {before} -> {after}");
    }

    #[test]
    fn slower_training_means_lower_floor() {
        // Figure 7's message: the slower the training, the worse the dips.
        let fast = UpdateModel { train_time: 10.0, ..model() };
        let slow = UpdateModel { train_time: 110.0, ..model() };
        let probe = 240.0;
        assert!(throughput_at(&fast, probe) >= throughput_at(&slow, probe));
    }

    #[test]
    fn drift_floor_bounds_the_curve_and_rises_with_partial_retraining() {
        let m = model();
        let floor = drift_floor(&m);
        // The floor bounds the steady-state curve from below...
        for i in 0..200 {
            let t = m.retrain_period + m.train_time + i as f64 * 3.0;
            assert!(throughput_at(&m, t) >= floor - 1e-12, "t={t}");
        }
        // ...is approached just before a steady-state publish...
        let worst = throughput_at(&m, 2.0 * m.retrain_period + m.train_time - 1e-6);
        assert!((worst - floor).abs() < 0.01, "worst {worst} vs floor {floor}");
        // ...and rises when the publish period shrinks (partial retrains).
        let partial = UpdateModel { train_time: m.train_time / 20.0, ..m };
        assert!(drift_floor(&partial) > floor);
        assert!(partial.retrain_period == m.retrain_period && partial.rules == m.rules);
    }

    #[test]
    fn curve_is_well_formed() {
        let m = model();
        let curve = throughput_over_time(&m, 600.0, 100);
        assert_eq!(curve.len(), 100);
        assert!(curve.iter().all(|&(_, y)| y > 0.0 && y <= 1.0));
        assert_eq!(curve[0].0, 0.0);
    }

    #[test]
    fn sustained_rate_is_thousands_for_500k() {
        // The §3.9 claim: ≈4K updates/s sustains about half the update-free
        // speedup for 500K rules with minute-long training. Our model should
        // land in the same order of magnitude.
        let rate = sustained_update_rate(500_000.0, 120.0, 60.0, 1.0, 1.0 / 2.6, 0.75);
        assert!(
            (500.0..50_000.0).contains(&rate),
            "sustained rate {rate:.0} not in the paper's ballpark"
        );
    }
}
