//! Measured Figure 7 — throughput under a live update stream with
//! background retrains, against a `ClassifierHandle`, validated against the
//! analytic §3.9 model (`nm_analysis::throughput_at`), plus the
//! partial-vs-full retrain latency comparison.
//!
//! Where `fig7` *models* the curve, this experiment *measures* it: one
//! reader thread classifies batches against lock-free snapshots while an
//! updater drifts rules to the remainder at a fixed rate and retrains fire
//! on their period.
//!
//! ## Methodology
//!
//! * The update stream is §3.9's worst structural case with the drift
//!   dynamics isolated: every op is a **matching-set change** (modify), so
//!   the live version always migrates to the remainder; the re-inserted box
//!   is unchanged, so a retrain can always restore the build-time structure.
//!   (Updates that also *degrade* the rule-set's iSet coverage measure
//!   partition quality, not the Figure 7 drift model.)
//! * Both curves are normalised at the first in-run sample. This box has
//!   one core, so the updater and retrainer time-share with the reader; the
//!   constant share they steal cancels under self-normalisation, while the
//!   *shape* — exponential decay to the remainder floor, recovery at each
//!   retrain publish — is exactly what the model predicts and what is
//!   compared.
//! * Samples whose window straddles a retrain publish are excluded from the
//!   error statistic: the model steps at exactly `k·τ + T`, the measurement
//!   a scheduler tick later, and comparing across that step measures timing
//!   jitter, not the drift model. The rest are the "modeled drift points":
//!   mean relative error ≤ 20% prints PASS, a miss WARN.
//!
//! ## Partial vs full retraining
//!
//! After the curve, the experiment measures the §3.9 refinement directly: a
//! **single-leaf drift** workload (modifies concentrated in neighbouring
//! positions of the largest iSet, boxes unchanged) is applied to two
//! identical handles; one republishes through
//! `ClassifierHandle::retrain_partial`, the other through `retrain_full`.
//! The verdicts of both results are compared bit-identically over the whole
//! trace — a divergence is a correctness bug and fails the run — and the
//! latency ratio is reported (target: partial ≥ 5× faster, PASS/WARN)
//! beside the analytic drift floors under both publish periods.

use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::time::{Duration, Instant};

use crate::{nm_tm_config, nm_tm_handle, Ctx, Outcome};
use nm_analysis::{drift_floor, throughput_at, Json, Table, UpdateModel};
use nm_classbench::{generate, AppKind};
use nm_common::classifier::{Classifier, MatchResult};
use nm_common::packet::TraceBuf;
use nm_common::ruleset::RuleSet;
use nm_common::update::{BatchUpdatable, Generation, UpdateBatch};
use nm_common::{LatencyHistogram, SplitMix64};
use nm_trace::uniform_trace;
use nm_tuplemerge::TupleMerge;
use nuevomatch::system::parallel::{run_batched, BATCH};
use nuevomatch::{ClassifierHandle, NuevoMatch, PartialRetrainPolicy};

/// Parameters for [`measure_update_curve`] — the measured analogue of the
/// paper's Figure 7 experiment.
#[derive(Clone, Copy, Debug)]
struct UpdateBenchConfig {
    /// Total measurement horizon (seconds).
    duration_s: f64,
    /// Sampling period for throughput points (seconds).
    sample_every_s: f64,
    /// Target update rate (rule updates per second).
    updates_per_s: f64,
    /// Updates grouped per [`UpdateBatch`] transaction.
    ops_per_batch: usize,
    /// Retrain trigger period (seconds).
    retrain_period_s: f64,
}

/// One sample of the measured Figure 7 curve.
#[derive(Clone, Copy, Debug)]
struct UpdateCurvePoint {
    /// Sample time since measurement start (seconds).
    t_s: f64,
    /// Reader throughput over the sample window (packets per second).
    pps: f64,
    /// Published generation at the sample instant.
    generation: Generation,
    /// Fraction of rules served by the remainder at the sample instant.
    remainder_fraction: f64,
    /// Retrains completed so far.
    retrains: u64,
}

/// Builds the §3.9 *concentrated* (single-leaf) drift batch: `ops` modifies
/// that re-insert — boxes unchanged — the rules at the lowest positions of
/// the classifier's largest iSet. Positions are sorted by the iSet field's
/// lower bound, so the drift lands in one or two neighbouring leaf
/// submodels: the cheap case for a partial retrain, and the workload the
/// retrain-latency comparison is defined over.
fn concentrated_drift<R: Classifier>(nm: &NuevoMatch<R>, set: &RuleSet, ops: usize) -> UpdateBatch {
    let iset = nm.isets().first().expect("an iSet to drift from");
    let mut batch = UpdateBatch::new();
    for pos in 0..ops.min(iset.len()) {
        batch = batch.modify(set.rule(iset.rule_id_at(pos)).clone());
    }
    batch
}

/// Measures throughput-under-updates (Figure 7, §3.9) against a live
/// [`ClassifierHandle`]: one reader thread classifies the trace in batches
/// continuously, an updater thread applies `make_batch(i)` transactions at
/// the configured rate, and retrains fire on their period in the background.
/// Readers never block on any of it — that is the property under test.
///
/// Returns the windowed throughput samples plus the reader-side per-batch
/// latency histogram (one sample per `classify_batch` call); validate the
/// curve against `nm_analysis::throughput_at` to close the loop with the
/// analytic model.
fn measure_update_curve<R, F>(
    handle: &ClassifierHandle<R>,
    trace: &TraceBuf,
    cfg: &UpdateBenchConfig,
    mut make_batch: F,
) -> (Vec<UpdateCurvePoint>, LatencyHistogram)
where
    R: BatchUpdatable + Clone + Send + Sync + 'static,
    F: FnMut(u64) -> UpdateBatch + Send,
{
    let n = trace.len();
    if n == 0 || cfg.duration_s <= 0.0 {
        return Default::default();
    }
    let stride = trace.stride();
    let raw = trace.raw();
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let mut curve = Vec::new();
    let mut batch_latency = LatencyHistogram::new();

    std::thread::scope(|scope| {
        // Updater: one due transaction per step (else sleep a beat), and a
        // background retrain whenever the period elapsed and none is in
        // flight. Every spawned retrain is joined before the thread exits,
        // so the caller reads settled stats and no trainer outlives the run
        // (an "already in flight" loss is benign).
        scope.spawn(|| {
            let interval =
                Duration::from_secs_f64(cfg.ops_per_batch.max(1) as f64 / cfg.updates_per_s);
            let mut next_fire = Instant::now();
            let mut last_retrain = next_fire;
            let mut retrains = Vec::new();
            let mut seq = 0u64;
            while !stop.load(SeqCst) {
                if Instant::now() >= next_fire {
                    handle.apply(&make_batch(seq));
                    seq += 1;
                    next_fire += interval;
                } else {
                    std::thread::sleep(Duration::from_micros(200));
                }
                if last_retrain.elapsed().as_secs_f64() >= cfg.retrain_period_s
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
        let mut out: Vec<Option<MatchResult>> = vec![None; BATCH];
        let mut lo = 0usize;
        let mut window_packets = 0u64;
        let mut window_start = start;
        while start.elapsed().as_secs_f64() < cfg.duration_s {
            let hi = (lo + BATCH).min(n);
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
    (curve, batch_latency)
}

/// One update transaction: `ops` uniform-random rules re-inserted with
/// unchanged boxes — each a §3.9 matching-set change that tombstones the
/// iSet copy and lands the live version in the remainder.
fn drift_batch(set: &RuleSet, rng: &mut SplitMix64, ops: usize) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    for _ in 0..ops {
        let rule = set.rule_at(rng.below(set.len() as u64) as usize);
        batch = batch.modify(rule.clone());
    }
    batch
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let s = &ctx.scale;
    let n = if s.full { 100_000 } else { 10_000 };
    let (horizon, retrain_period) = if s.full { (30.0, 10.0) } else { (12.0, 4.0) };
    // u·t/r reaches ~1.2 over the horizon; 128-op transactions keep the
    // copy-on-write writer to a few publishes per second.
    let update_rate = n as f64 / 10.0;
    let ops_per_batch = 128;
    let set = generate(AppKind::Acl, n, 0x716);
    let trace = uniform_trace(&set, s.trace_len.min(100_000), 0x717);

    out.say(format!(
        "=== update — measured Figure 7 ({n} rules, {update_rate:.0} updates/s) ===\n"
    ));

    // Measured baselines: remainder-only throughput (TupleMerge over the
    // full set) and fresh NuevoMatch throughput parameterise the model's
    // floor and ceiling. The curve handle disables partial retraining: the
    // Figure 7 baseline is the *full-rebuild* regime the analytic model
    // describes; the partial regime is measured separately below.
    let tm = TupleMerge::build(&set);
    let tm_pps = run_batched(&tm, &trace, BATCH).pps;
    let full_only = nuevomatch::NuevoMatchConfig {
        partial_retrain: PartialRetrainPolicy::never(),
        ..nm_tm_config()
    };
    let handle: ClassifierHandle<TupleMerge> =
        ClassifierHandle::new(&set, &full_only, TupleMerge::build).expect("nm/tm handle build");
    let fresh_pps = run_batched(&handle, &trace, BATCH).pps;
    let remainder_ratio = (tm_pps / fresh_pps).min(1.0);
    // Time one retrain under realistic drift to parameterise the model's T
    // (and leave the handle fresh for the measured run).
    let mut rng = SplitMix64::new(0x718);
    handle.apply(&drift_batch(&set, &mut rng, (update_rate as usize).max(1)));
    let t0 = Instant::now();
    handle.retrain().expect("warmup retrain");
    let train_time = t0.elapsed().as_secs_f64();
    out.say(format!(
        "fresh: {fresh_pps:.3e} pps   remainder-only: {tm_pps:.3e} pps (ratio {remainder_ratio:.3})   \
         measured train time: {train_time:.2}s\n"
    ));

    // The measured run.
    let cfg = UpdateBenchConfig {
        duration_s: horizon,
        sample_every_s: horizon / 40.0,
        updates_per_s: update_rate,
        ops_per_batch,
        retrain_period_s: retrain_period,
    };
    let (curve, batch_latency) =
        measure_update_curve(&handle, &trace, &cfg, |_| drift_batch(&set, &mut rng, ops_per_batch));
    let batch_lat = batch_latency.summary_us();
    if curve.len() < 4 {
        out.say(format!("WARN: too few samples ({}) to compare against the model", curve.len()));
    } else {
        let model = UpdateModel {
            rules: n as f64,
            update_rate,
            retrain_period,
            train_time,
            fresh_throughput: 1.0,
            remainder_throughput: remainder_ratio,
        };
        // Anchor both curves at the first sample: constant single-core
        // measurement overhead cancels, the drift/recovery shape remains.
        let anchor_pps = curve[0].pps.max(1e-9);
        let anchor_model = throughput_at(&model, curve[0].t_s);

        let mut table = Table::new(&[
            "t (s)",
            "pps",
            "measured",
            "modeled",
            "err",
            "rem-frac",
            "retrains",
            "generation",
        ]);
        let mut errs = Vec::new();
        let mut prev_retrains = curve[0].retrains;
        for p in &curve {
            let measured = p.pps / anchor_pps;
            let modeled = throughput_at(&model, p.t_s) / anchor_model;
            let err = (measured - modeled) / modeled;
            // A sample whose window straddles a retrain publish compares two
            // different regimes; keep it out of the drift-point statistic.
            let at_swap = p.retrains != prev_retrains;
            prev_retrains = p.retrains;
            if !at_swap {
                errs.push(err.abs());
            }
            table.row(vec![
                format!("{:.2}", p.t_s),
                format!("{:.3e}", p.pps),
                format!("{measured:.3}"),
                format!("{modeled:.3}"),
                format!("{:.1}%{}", err * 100.0, if at_swap { "*" } else { "" }),
                format!("{:.3}", p.remainder_fraction),
                format!("{}", p.retrains),
                format!("{}", p.generation),
            ]);
        }
        out.table("curve", table);
        let mean_err = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
        let within = errs.iter().filter(|e| **e <= 0.20).count();
        out.say(format!(
            "\nmodel tracking at {} drift points (samples at a retrain swap, marked *, \
             excluded): mean |err| {:.1}%, {}/{} within 20%",
            errs.len(),
            mean_err * 100.0,
            within,
            errs.len()
        ));
        out.say(if mean_err <= 0.20 {
            "PASS: measured curve tracks the analytic model"
        } else {
            "WARN: tracking above 20% (single-core time-sharing skews the measurement)"
        });
    }

    out.say(format!(
        "\nper-batch classify latency under the update stream ({} samples): \
         p50 {:.1}us  p99 {:.1}us  p99.9 {:.1}us",
        batch_lat.count, batch_lat.p50_us, batch_lat.p99_us, batch_lat.p999_us
    ));

    // === Partial vs full retraining (single-leaf drift) ======================
    //
    // The §3.9 refinement head-to-head: two identical handles take the same
    // concentrated drift (neighbouring positions of the largest iSet,
    // boxes unchanged — one or two leaf submodels' key regions, always fully
    // re-admittable, so the default partial-retrain gates pass); one
    // republishes via the leaf-level partial path, the other via a full
    // rebuild. Same rule truth in, so the verdicts must be bit-identical.
    out.say("\n=== partial vs full retrain (single-leaf drift) ===\n");
    let (h_partial, h_full) = (nm_tm_handle(&set), nm_tm_handle(&set));
    let drift_ops = (n / 100).clamp(4, 512);
    let drift = concentrated_drift(h_partial.snapshot().engine(), &set, drift_ops);
    h_partial.apply(&drift);
    h_full.apply(&drift);
    // The drift-concentration profile: the share of the drifted iSet's leaf
    // submodels holding tombstones.
    let dirty_fraction = {
        let snap = h_partial.snapshot();
        let counts = snap.engine().isets()[0].leaf_tombstone_counts();
        counts.iter().filter(|&&c| c > 0).count() as f64 / counts.len().max(1) as f64
    };
    let t0 = Instant::now();
    h_partial.retrain_partial().expect("partial retrain (concentrated drift must pass gates)");
    let partial_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    h_full.retrain_full().expect("full retrain");
    let full_s = t0.elapsed().as_secs_f64();
    let speedup = full_s / partial_s.max(1e-9);

    let checksum =
        |h: &ClassifierHandle<TupleMerge>| run_batched(&*h.snapshot(), &trace, BATCH).checksum;
    let equivalent = checksum(&h_partial) == checksum(&h_full);
    out.check(equivalent, || "partial and full retrain verdicts diverged".into());

    // The floor each publish latency *enables*: retraining as fast as the
    // publish period permits (τ = 2T), drift peaks at u·3T/r — the §3.9
    // refinement's payoff is that T (and with it the whole cycle) shrinks.
    let floor_at = |train_time: f64| {
        drift_floor(&UpdateModel {
            rules: n as f64,
            update_rate,
            retrain_period: 2.0 * train_time,
            train_time,
            fresh_throughput: 1.0,
            remainder_throughput: remainder_ratio,
        })
    };
    let (floor_full, floor_partial) = (floor_at(full_s), floor_at(partial_s));
    out.say(format!(
        "drift: {drift_ops} ops, {:.0}% of leaves dirty\n\
         partial retrain: {partial_s:.4}s   full rebuild: {full_s:.4}s   speedup: {speedup:.1}x\n\
         verdicts: {} over {} packets\n\
         modeled drift floor at tau=2T (normalised): full {floor_full:.4} -> partial \
         {floor_partial:.4}",
        dirty_fraction * 100.0,
        if equivalent { "bit-identical" } else { "DIVERGED" },
        trace.len(),
    ));
    out.say(if speedup >= 5.0 {
        "PASS: partial retrain republishes >= 5x faster than a full rebuild"
    } else {
        "WARN: partial retrain speedup below 5x"
    });

    out.scalar("rules", n);
    out.scalar("update_rate", Json::num(update_rate, 1));
    out.scalar("retrain_period_s", Json::num(retrain_period, 2));
    out.scalar("remainder_ratio", Json::num(remainder_ratio, 4));
    out.scalar("batch_p50_us", Json::num(batch_lat.p50_us, 3));
    out.scalar("batch_p99_us", Json::num(batch_lat.p99_us, 3));
    out.scalar("batch_p999_us", Json::num(batch_lat.p999_us, 3));
    out.scalar("train_full_s", Json::num(full_s, 5));
    out.scalar("train_partial_s", Json::num(partial_s, 5));
    out.scalar("partial_speedup", Json::num(speedup, 2));
    out.scalar("drift_ops", drift_ops);
    out.scalar("dirty_leaf_fraction", Json::num(dirty_fraction, 4));
    out.scalar("drift_floor_full", Json::num(floor_full, 4));
    out.scalar("drift_floor_partial", Json::num(floor_partial, 4));
    out
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
        let (points, batch_latency) = curve;
        assert!(points.len() >= 3, "expected several samples, got {}", points.len());
        assert!(points.iter().all(|p| p.pps > 0.0));
        let last = points.last().unwrap();
        assert!(last.generation > 1, "updates must have published generations");
        // The set drifts under modify load...
        assert!(points.iter().any(|p| p.remainder_fraction > 0.0));
        assert!(!h.retrain_in_progress(), "no retrain left dangling");
        // One latency sample per classify_batch call, with sane tails.
        assert!(batch_latency.count() > 0);
        assert!(batch_latency.percentile(0.99) >= batch_latency.percentile(0.50));
    }
}
