//! Measured Figure 7 — throughput under a live update stream with
//! background retrains, against a `ClassifierHandle`, validated against the
//! analytic §3.9 model (`nm_analysis::throughput_at`).
//!
//! Where `fig7` *models* the curve, this binary *measures* it: one reader
//! thread classifies batches against lock-free snapshots while an updater
//! drifts rules to the remainder at a fixed rate and retrains fire on their
//! period.
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
//!   mean relative error ≤ 20% passes; a miss prints WARN (and fails the
//!   process only under `NM_STRICT=1`).
//!
//! ## Partial vs full retraining
//!
//! After the curve, the binary measures the §3.9 refinement directly: a
//! **single-leaf drift** workload (modifies concentrated in neighbouring
//! positions of the largest iSet, boxes unchanged) is applied to two
//! identical handles; one republishes through
//! `ClassifierHandle::retrain_partial`, the other through `retrain_full`.
//! The verdicts of both results are compared bit-identically over the whole
//! trace, the latency ratio is reported (acceptance: partial ≥ 5× faster),
//! and a `BENCH_update.json` artifact records the latencies, update rate
//! and the analytic drift floors under both publish periods (override the
//! path with `NM_BENCH_JSON`).
//!
//! ```sh
//! cargo run -p nm-bench --release --bin update_bench
//! ```

use nm_analysis::{drift_floor, throughput_at, UpdateModel};
use nm_bench::update::{
    concentrated_drift, measure_retrain_latencies, measure_update_curve, UpdateBenchConfig,
};
use nm_bench::{nm_tm_config, scale};
use nm_classbench::{generate, AppKind};
use nm_common::{Classifier, SplitMix64, UpdateBatch};
use nm_trace::uniform_trace;
use nm_tuplemerge::TupleMerge;
use nuevomatch::system::parallel::run_batched;
use nuevomatch::{ClassifierHandle, PartialRetrainPolicy};

/// One update transaction: `ops` uniform-random rules re-inserted with
/// unchanged boxes — each a §3.9 matching-set change that tombstones the
/// iSet copy and lands the live version in the remainder.
fn drift_batch(set: &nm_common::RuleSet, rng: &mut SplitMix64, ops: usize) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    for _ in 0..ops {
        let rule = set.rule_at(rng.below(set.len() as u64) as usize);
        batch = batch.modify(rule.clone());
    }
    batch
}

fn main() {
    let s = scale();
    let n = if s.full { 100_000 } else { 10_000 };
    let (horizon, retrain_period) = if s.full { (30.0, 10.0) } else { (12.0, 4.0) };
    // u·t/r reaches ~1.2 over the horizon; 128-op transactions keep the
    // copy-on-write writer to a few publishes per second.
    let update_rate = n as f64 / 10.0;
    let ops_per_batch = 128;
    let set = generate(AppKind::Acl, n, 0x716);
    let trace = uniform_trace(&set, s.trace_len.min(100_000), 0x717);

    println!("=== update_bench — measured Figure 7 ({n} rules, {update_rate:.0} updates/s) ===\n");

    // Measured baselines: remainder-only throughput (TupleMerge over the
    // full set) and fresh NuevoMatch throughput parameterise the model's
    // floor and ceiling. The curve handle disables partial retraining: the
    // Figure 7 baseline is the *full-rebuild* regime the analytic model
    // describes; the partial regime is measured separately below.
    let tm = TupleMerge::build(&set);
    let tm_pps = run_batched(&tm, &trace, 128).pps;
    let full_only = nuevomatch::NuevoMatchConfig {
        partial_retrain: PartialRetrainPolicy::never(),
        ..nm_tm_config()
    };
    let handle: ClassifierHandle<TupleMerge> =
        ClassifierHandle::new(&set, &full_only, TupleMerge::build).expect("nm/tm handle build");
    let fresh_pps = run_batched(&handle, &trace, 128).pps;
    let remainder_ratio = (tm_pps / fresh_pps).min(1.0);
    // Time one retrain under realistic drift to parameterise the model's T
    // (and leave the handle fresh for the measured run).
    let mut rng = SplitMix64::new(0x718);
    handle.apply(&drift_batch(&set, &mut rng, (update_rate as usize).max(1)));
    let t0 = std::time::Instant::now();
    handle.retrain().expect("warmup retrain");
    let train_time = t0.elapsed().as_secs_f64();
    println!(
        "fresh: {fresh_pps:.3e} pps   remainder-only: {tm_pps:.3e} pps (ratio {remainder_ratio:.3})   \
         measured train time: {train_time:.2}s\n"
    );

    // The measured run.
    let cfg = UpdateBenchConfig {
        duration_s: horizon,
        sample_every_s: horizon / 40.0,
        updates_per_s: update_rate,
        ops_per_batch,
        retrain_period_s: retrain_period,
        batch: 128,
    };
    let measured =
        measure_update_curve(&handle, &trace, &cfg, |_| drift_batch(&set, &mut rng, ops_per_batch));
    let curve = &measured.points;
    let batch_lat = measured.batch_latency.summary_us();
    let mut curve_pass = true;
    if curve.len() < 4 {
        println!("WARN: too few samples ({}) to compare against the model", curve.len());
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

        println!(
            "{:>7}  {:>12}  {:>9}  {:>9}  {:>8}  {:>9}  {:>8}",
            "t (s)", "pps", "measured", "modeled", "err", "rem-frac", "retrains"
        );
        let mut errs = Vec::new();
        let mut prev_retrains = curve[0].retrains;
        for p in curve {
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
            println!(
                "{:>7.2}  {:>12.3e}  {:>9.3}  {:>9.3}  {:>7.1}%{}  {:>9.3}  {:>8}",
                p.t_s,
                p.pps,
                measured,
                modeled,
                err * 100.0,
                if at_swap { "*" } else { " " },
                p.remainder_fraction,
                p.retrains
            );
            println!(
            "UPDATE_BENCH {{\"t_s\":{:.3},\"pps\":{:.1},\"normalized\":{:.4},\"modeled\":{:.4},\
             \"generation\":{},\"update_rate\":{:.1},\"remainder_fraction\":{:.4},\"retrains\":{}}}",
            p.t_s, p.pps, measured, modeled, p.generation, update_rate, p.remainder_fraction,
            p.retrains
        );
        }
        let mean_err = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
        let within = errs.iter().filter(|e| **e <= 0.20).count();
        println!(
            "\nmodel tracking at {} drift points (samples at a retrain swap excluded): \
         mean |err| {:.1}%, {}/{} within 20%",
            errs.len(),
            mean_err * 100.0,
            within,
            errs.len()
        );
        curve_pass = mean_err <= 0.20;
        println!(
            "{}",
            if curve_pass {
                "PASS: measured curve tracks the analytic model"
            } else {
                "WARN: tracking above 20% (single-core time-sharing skews the measurement)"
            }
        );
    }

    println!(
        "\nper-batch classify latency under the update stream ({} samples): \
         p50 {:.1}us  p99 {:.1}us  p99.9 {:.1}us",
        batch_lat.count, batch_lat.p50_us, batch_lat.p99_us, batch_lat.p999_us
    );

    // === Partial vs full retraining (single-leaf drift) ======================
    //
    // The §3.9 refinement head-to-head: two identical handles take the same
    // concentrated drift (neighbouring positions of the largest iSet,
    // boxes unchanged — one or two leaf submodels' key regions); one
    // republishes via the leaf-level partial path, the other via a full
    // rebuild. Same rule truth in, so the verdicts must be bit-identical.
    println!("\n=== partial vs full retrain (single-leaf drift) ===\n");
    let h_partial = ClassifierHandle::new(&set, &nm_tm_config(), TupleMerge::build)
        .expect("nm/tm handle build");
    let h_full = ClassifierHandle::new(&set, &nm_tm_config(), TupleMerge::build)
        .expect("nm/tm handle build");
    // Latency (`measure_retrain_latencies`): concentrated drift at the low
    // end of the largest iSet, partial vs full timed on the same handle.
    // Leaves h_full drift-free.
    let lat = measure_retrain_latencies(&h_full, &set)
        .expect("retrain latency measurement (concentrated drift must pass gates)");
    let (partial_s, full_s) = (lat.partial_s, lat.full_s);
    let (drift_ops, dirty_fraction) = (lat.drift_ops, lat.dirty_leaf_fraction);
    let speedup = lat.speedup();

    // Verdict equivalence: the same concentrated drift on both handles, one
    // republishing through each path — then bit-identical over the trace.
    let leaf_batch = concentrated_drift(h_partial.snapshot().engine(), &set, drift_ops)
        .expect("concentrated drift batch");
    h_partial.apply(&leaf_batch);
    h_full.apply(&leaf_batch);
    h_partial.retrain_partial().expect("partial retrain");
    h_full.retrain_full().expect("full retrain");
    let (raw, stride, packets) = (trace.raw(), trace.stride(), trace.len());
    let (sp, sf) = (h_partial.snapshot(), h_full.snapshot());
    let mut mismatches = 0usize;
    let mut out_p = vec![None; 128];
    let mut out_f = vec![None; 128];
    let mut lo = 0usize;
    while lo < packets {
        let hi = (lo + 128).min(packets);
        sp.classify_batch(&raw[lo * stride..hi * stride], stride, &mut out_p[..hi - lo]);
        sf.classify_batch(&raw[lo * stride..hi * stride], stride, &mut out_f[..hi - lo]);
        mismatches += (0..hi - lo).filter(|&i| out_p[i] != out_f[i]).count();
        lo = hi;
    }
    let equivalent = mismatches == 0;

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
    println!(
        "drift: {drift_ops} ops, {:.0}% of leaves dirty\n\
         partial retrain: {partial_s:.4}s   full rebuild: {full_s:.4}s   speedup: {speedup:.1}x\n\
         verdicts: {}\n\
         modeled drift floor at tau=2T (normalised): full {floor_full:.4} -> partial \
         {floor_partial:.4}",
        dirty_fraction * 100.0,
        if equivalent {
            format!("bit-identical over {packets} packets")
        } else {
            format!("DIVERGED on {mismatches}/{packets} packets")
        },
    );
    let partial_pass = speedup >= 5.0 && equivalent;
    println!(
        "{}",
        if !equivalent {
            "FAIL: partial and full retrain verdicts diverged — correctness bug"
        } else if partial_pass {
            "PASS: partial retrain republishes >= 5x faster than a full rebuild"
        } else {
            "WARN: partial retrain speedup below 5x"
        }
    );

    // Machine-readable artifact for the CI update-soak job (perf trajectory
    // over time); NM_BENCH_JSON overrides the output path.
    let json_path =
        std::env::var("NM_BENCH_JSON").unwrap_or_else(|_| "BENCH_update.json".to_string());
    let artifact = format!(
        "{{\"rules\":{n},\"update_rate\":{update_rate:.1},\"retrain_period_s\":{retrain_period:.2},\
         \"train_full_s\":{full_s:.5},\"train_partial_s\":{partial_s:.5},\
         \"partial_speedup\":{speedup:.2},\"drift_ops\":{drift_ops},\
         \"dirty_leaf_fraction\":{dirty_fraction:.4},\"verdict_equivalent\":{equivalent},\
         \"drift_floor_full\":{floor_full:.4},\"drift_floor_partial\":{floor_partial:.4},\
         \"curve_points\":{},\"remainder_ratio\":{remainder_ratio:.4},\
         \"batch_p50_us\":{:.3},\"batch_p99_us\":{:.3},\"batch_p999_us\":{:.3}}}\n",
        curve.len(),
        batch_lat.p50_us,
        batch_lat.p99_us,
        batch_lat.p999_us
    );
    match std::fs::write(&json_path, &artifact) {
        Ok(()) => println!("\nwrote {json_path}"),
        Err(e) => println!("\nWARN: could not write {json_path}: {e}"),
    }

    // A verdict divergence is a correctness bug, not measurement noise: it
    // always fails the process — but only after the artifact is on disk so
    // CI records the regression instead of losing it.
    if !equivalent {
        std::process::exit(2);
    }
    if (!curve_pass || !partial_pass) && std::env::var("NM_STRICT").as_deref() == Ok("1") {
        std::process::exit(1);
    }
}
