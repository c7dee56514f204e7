//! The measured Figure 7 experiment (§3.9): throughput under a live update
//! stream with background retrains, plus the partial-vs-full retrain
//! latency comparison. `--bin update_bench` is the one consumer.

use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::time::{Duration, Instant};

use nm_common::classifier::{Classifier, MatchResult};
use nm_common::packet::TraceBuf;
use nm_common::ruleset::RuleSet;
use nm_common::update::{BatchUpdatable, Generation, UpdateBatch};
use nm_common::Error;
use nuevomatch::{ClassifierHandle, NuevoMatch};

/// Parameters for [`measure_update_curve`] — the measured analogue of the
/// paper's Figure 7 experiment.
#[derive(Clone, Copy, Debug)]
pub struct UpdateBenchConfig {
    /// Total measurement horizon (seconds).
    pub duration_s: f64,
    /// Sampling period for throughput points (seconds).
    pub sample_every_s: f64,
    /// Target update rate (rule updates per second); `<= 0.0` disables
    /// updates.
    pub updates_per_s: f64,
    /// Updates grouped per [`UpdateBatch`] transaction.
    pub ops_per_batch: usize,
    /// Retrain trigger period (seconds); `<= 0.0` disables retraining.
    pub retrain_period_s: f64,
    /// Classification batch size for the reader (paper: 128).
    pub batch: usize,
}

impl Default for UpdateBenchConfig {
    fn default() -> Self {
        Self {
            duration_s: 10.0,
            sample_every_s: 0.25,
            updates_per_s: 1_000.0,
            ops_per_batch: 32,
            retrain_period_s: 4.0,
            batch: 128,
        }
    }
}

/// One sample of the measured Figure 7 curve.
#[derive(Clone, Copy, Debug)]
pub struct UpdateCurvePoint {
    /// Sample time since measurement start (seconds).
    pub t_s: f64,
    /// Reader throughput over the sample window (packets per second).
    pub pps: f64,
    /// Published generation at the sample instant.
    pub generation: Generation,
    /// Fraction of rules served by the remainder at the sample instant.
    pub remainder_fraction: f64,
    /// Retrains completed so far.
    pub retrains: u64,
}

/// Builds the §3.9 *concentrated* (single-leaf) drift batch: `ops` modifies
/// that re-insert — boxes unchanged — the rules at the lowest positions of
/// the classifier's largest iSet. Positions are sorted by the iSet field's
/// lower bound, so the drift lands in one or two neighbouring leaf
/// submodels: the cheap case for a partial retrain, and the workload the
/// retrain-latency comparison is defined over.
pub fn concentrated_drift<R: Classifier>(
    nm: &NuevoMatch<R>,
    set: &RuleSet,
    ops: usize,
) -> Result<UpdateBatch, Error> {
    let iset = nm.isets().first().ok_or_else(|| Error::Build {
        msg: "concentrated_drift: no iSet formed (nothing to drift from)".to_string(),
    })?;
    let mut batch = UpdateBatch::new();
    for pos in 0..ops.min(iset.len()) {
        batch = batch.modify(set.rule(iset.rule_id_at(pos)).clone());
    }
    Ok(batch)
}

/// Latencies of the two retrain flavours under the same reproducible
/// concentrated drift (see [`measure_retrain_latencies`]).
#[derive(Clone, Copy, Debug)]
pub struct RetrainLatencies {
    /// Seconds to republish via the partial (leaf-level) path.
    pub partial_s: f64,
    /// Seconds to republish via the full rebuild.
    pub full_s: f64,
    /// Update ops in the concentrated drift batch.
    pub drift_ops: usize,
    /// Fraction of the drifted iSet's leaf submodels holding tombstones
    /// just before the partial retrain (the drift-concentration profile
    /// from `TrainedISet::leaf_tombstone_counts`).
    pub dirty_leaf_fraction: f64,
}

impl RetrainLatencies {
    /// How many times faster the partial path republished.
    pub fn speedup(&self) -> f64 {
        self.full_s / self.partial_s.max(1e-9)
    }
}

/// Measures partial vs full retrain latency on `handle` (built over `set`)
/// under a [`concentrated_drift`] workload — the §3.9 refinement's
/// headline number.
///
/// Protocol: full retrain to reach a drift-free baseline, apply the
/// concentrated drift and time [`ClassifierHandle::retrain_partial`], then
/// apply the same drift again and time [`ClassifierHandle::retrain_full`].
/// The handle ends drift-free. The drifted rules are re-inserted with
/// unchanged boxes, so they are always fully re-admittable and the default
/// partial-retrain gates pass.
pub fn measure_retrain_latencies<R>(
    handle: &ClassifierHandle<R>,
    set: &RuleSet,
) -> Result<RetrainLatencies, Error>
where
    R: BatchUpdatable + Clone,
{
    handle.retrain_full()?;
    let drift_ops = (set.len() / 100).clamp(4, 512);
    let drift = concentrated_drift(handle.snapshot().engine(), set, drift_ops)?;
    handle.apply(&drift);
    let dirty_leaf_fraction = {
        let snap = handle.snapshot();
        let counts = snap.engine().isets()[0].leaf_tombstone_counts();
        counts.iter().filter(|&&c| c > 0).count() as f64 / counts.len().max(1) as f64
    };
    let t0 = Instant::now();
    handle.retrain_partial()?;
    let partial_s = t0.elapsed().as_secs_f64();
    handle.apply(&drift);
    let t0 = Instant::now();
    handle.retrain_full()?;
    let full_s = t0.elapsed().as_secs_f64();
    Ok(RetrainLatencies { partial_s, full_s, drift_ops, dirty_leaf_fraction })
}

/// What [`measure_update_curve`] measured: the sampled throughput curve
/// plus the per-batch service-latency histogram (one sample per
/// `classify_batch` call, nanoseconds).
#[derive(Clone, Debug, Default)]
pub struct UpdateCurve {
    /// Windowed throughput samples over the run.
    pub points: Vec<UpdateCurvePoint>,
    /// Reader-side per-batch classification latency.
    pub batch_latency: nm_common::LatencyHistogram,
}

/// Measures throughput-under-updates (Figure 7, §3.9) against a live
/// [`ClassifierHandle`]: one reader thread classifies the trace in batches
/// continuously, an updater thread applies `make_batch(i)` transactions at
/// the configured rate, and retrains fire on their period in the background.
/// Readers never block on any of it — that is the property under test.
///
/// Returns the sampled curve plus the per-batch latency histogram;
/// validate the curve against `nm_analysis::throughput_at` to close the
/// loop with the analytic model.
pub fn measure_update_curve<R, F>(
    handle: &ClassifierHandle<R>,
    trace: &TraceBuf,
    cfg: &UpdateBenchConfig,
    mut make_batch: F,
) -> UpdateCurve
where
    R: BatchUpdatable + Clone + Send + Sync + 'static,
    F: FnMut(u64) -> UpdateBatch + Send,
{
    let n = trace.len();
    if n == 0 || cfg.duration_s <= 0.0 {
        return UpdateCurve::default();
    }
    let stride = trace.stride();
    let raw = trace.raw();
    let batch = cfg.batch.max(1);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let mut curve = Vec::new();
    let mut batch_latency = nm_common::LatencyHistogram::new();

    std::thread::scope(|scope| {
        // Updater: one due transaction per step (else sleep a beat), and a
        // background retrain whenever the period elapsed and none is in
        // flight. Every spawned retrain is joined before the thread exits,
        // so the caller reads settled stats and no trainer outlives the run
        // (an "already in flight" loss is benign).
        scope.spawn(|| {
            let interval = (cfg.updates_per_s > 0.0).then(|| {
                Duration::from_secs_f64(cfg.ops_per_batch.max(1) as f64 / cfg.updates_per_s)
            });
            let mut next_fire = Instant::now();
            let mut last_retrain = next_fire;
            let mut retrains = Vec::new();
            let mut seq = 0u64;
            while !stop.load(SeqCst) {
                match interval {
                    Some(interval) if Instant::now() >= next_fire => {
                        handle.apply(&make_batch(seq));
                        seq += 1;
                        next_fire += interval;
                    }
                    _ => std::thread::sleep(Duration::from_micros(200)),
                }
                if cfg.retrain_period_s > 0.0
                    && last_retrain.elapsed().as_secs_f64() >= cfg.retrain_period_s
                    && !handle.retrain_in_progress()
                {
                    last_retrain = Instant::now();
                    retrains.push(handle.spawn_retrain());
                }
            }
            for join in retrains {
                let _ = join.join();
            }
        });

        // Reader: the measured data plane. One snapshot pin per batch.
        let mut out: Vec<Option<MatchResult>> = vec![None; batch];
        let mut lo = 0usize;
        let mut window_packets = 0u64;
        let mut window_start = start;
        while start.elapsed().as_secs_f64() < cfg.duration_s {
            let hi = (lo + batch).min(n);
            let t0 = Instant::now();
            handle.classify_batch(&raw[lo * stride..hi * stride], stride, &mut out[..hi - lo]);
            batch_latency.record_duration(t0.elapsed());
            window_packets += (hi - lo) as u64;
            lo = if hi == n { 0 } else { hi };
            let window_s = window_start.elapsed().as_secs_f64();
            if window_s >= cfg.sample_every_s {
                let snap = handle.snapshot();
                curve.push(UpdateCurvePoint {
                    t_s: start.elapsed().as_secs_f64(),
                    pps: window_packets as f64 / window_s,
                    generation: snap.generation(),
                    remainder_fraction: snap.engine().remainder_fraction(),
                    retrains: handle.retrains_completed(),
                });
                window_packets = 0;
                window_start = Instant::now();
            }
        }
        stop.store(true, SeqCst);
    });
    UpdateCurve { points: curve, batch_latency }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_common::{FieldsSpec, FiveTuple, LinearSearch};
    use nuevomatch::{NuevoMatchConfig, RqRmiParams};

    #[test]
    fn measure_update_curve_samples_under_load() {
        let rules: Vec<_> = (0..200u16)
            .map(|i| {
                FiveTuple::new().dst_port_range(i * 100, i * 100 + 99).into_rule(i as u32, i as u32)
            })
            .collect();
        let set = RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap();
        let nm_cfg = NuevoMatchConfig {
            rqrmi: RqRmiParams { samples_init: 256, ..Default::default() },
            ..Default::default()
        };
        let h = ClassifierHandle::new(&set, &nm_cfg, LinearSearch::build).unwrap();
        let mut trace = TraceBuf::new(5);
        let mut s = nm_common::SplitMix64::new(7);
        for _ in 0..4_000 {
            trace.push(&[0, 0, 0, s.below(20_000), 0]);
        }
        let cfg = UpdateBenchConfig {
            duration_s: 0.6,
            sample_every_s: 0.1,
            updates_per_s: 2_000.0,
            ops_per_batch: 16,
            retrain_period_s: 0.2,
            batch: 128,
        };
        let mut next_port = 30_000u16;
        let curve = measure_update_curve(&h, &trace, &cfg, |seq| {
            let mut b = UpdateBatch::new();
            for k in 0..16u64 {
                next_port = next_port.wrapping_add(1).max(30_000);
                let id = (seq * 16 + k) as u32 % 200;
                b = b.modify(FiveTuple::new().dst_port_exact(next_port).into_rule(id, id));
            }
            b
        });
        let points = &curve.points;
        assert!(points.len() >= 3, "expected several samples, got {}", points.len());
        assert!(points.iter().all(|p| p.pps > 0.0));
        let last = points.last().unwrap();
        assert!(last.generation > 1, "updates must have published generations");
        // The set drifts under modify load...
        assert!(points.iter().any(|p| p.remainder_fraction > 0.0));
        assert!(!h.retrain_in_progress(), "no retrain left dangling");
        // One latency sample per classify_batch call, with sane tails.
        assert!(curve.batch_latency.count() > 0);
        assert!(curve.batch_latency.percentile(0.99) >= curve.batch_latency.percentile(0.50));
    }
}
