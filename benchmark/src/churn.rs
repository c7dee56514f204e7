//! Churn phase: one reader classifies beside one writer that applies the
//! seeded update stream and retrains — the only place snapshot pins,
//! copy-on-write applies, drift into the remainder and retrain publishes
//! are all exercised together.
//!
//! The writer works in **cycles**: 0.25 s of 10-op transactions at
//! 1000 ops/s, then one synchronous `retrain()`. A cycle is the phase's
//! window: it holds the whole saw-tooth (drift slows the reader, the retrain
//! competes with it, the publish resets it), so cycles compare with each
//! other and the run can report its best decile of them.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

use nm_common::{Classifier, TraceBuf};
use nm_tuplemerge::TupleMerge;
use nuevomatch::ClassifierHandle;

use crate::inputs::{UpdateStream, APPLY_STRETCH_S, BATCH, OPS_PER_BATCH, UPDATE_OPS_PER_S};
use crate::metrics::Better;
use crate::spans::Tracer;
use crate::stats::{best_decile, mean, median, percentile};
use crate::Report;

/// Samples of the churn phase, pooled over the run's rounds.
#[derive(Default)]
pub struct ChurnSamples {
    /// Per cycle: reader packets / the cycle's wall time, in Mpkt/s.
    pub cycle_mpps: Vec<f64>,
    /// Per cycle: median wall time of its `handle.apply(10-op batch)` calls.
    cycle_apply_us_p50: Vec<f64>,
    /// Wall time of every `handle.apply`.
    pub apply_us: Vec<f64>,
    /// Wall time of each `handle.retrain()`, and the same split by the path
    /// it took.
    pub retrain_ms: Vec<f64>,
    partial_ms: Vec<f64>,
    full_ms: Vec<f64>,
    reader: ReaderTotals,
    generations: u64,
}

impl ChurnSamples {
    /// The `system.handle` layer's metrics.
    pub fn put_layer_metrics(&mut self, report: &mut Report) {
        report.put("handle.apply_us_per_op", mean(&self.apply_us) / OPS_PER_BATCH as f64);
        // `apply_us` is still in the order the applies ran: the run's last
        // quarter against its first shows what the handle's history costs.
        let quarter = (self.apply_us.len() / 4).max(1);
        let (mut first, mut last) = (
            self.apply_us[..quarter].to_vec(),
            self.apply_us[self.apply_us.len() - quarter..].to_vec(),
        );
        report.put("handle.apply_growth_ratio", median(&mut last) / median(&mut first));
        let cycles = &mut self.cycle_apply_us_p50;
        report.put("handle.apply_us_p50", best_decile(cycles, Better::Lower));
        report.put("handle.apply_us_p95", percentile(&mut self.apply_us, 0.95));
        report.put("handle.generations", self.generations as f64);
        let samples = self.reader.remainder_fraction_samples.max(1) as f64;
        report.put("handle.remainder_fraction_mean", self.reader.remainder_fraction_sum / samples);
        report.put("handle.remainder_fraction_peak", self.reader.remainder_fraction_peak);
        report.put("handle.retrain_ms_p50", median(&mut self.retrain_ms));
        report.put("handle.retrain_partial_ms", mean(&self.partial_ms));
        report.put("handle.retrain_full_ms", mean(&self.full_ms));
        let retrains = self.retrain_ms.len().max(1) as f64;
        report.put("handle.partial_share", self.partial_ms.len() as f64 / retrains);
        report.put("handle.reader_stall_us_max", self.reader.longest_batch_ns as f64 / 1e3);
    }
}

/// What the reader thread saw, summed over the rounds.
#[derive(Default)]
struct ReaderTotals {
    packets: u64,
    batches: u64,
    generation_regressions: u64,
    longest_batch_ns: u64,
    remainder_fraction_sum: f64,
    remainder_fraction_peak: f64,
    remainder_fraction_samples: u64,
}

/// Classifies the trace in batches of 128 until told to stop, pinning one
/// snapshot per batch and checking that generations never go backwards.
fn reader(
    handle: &ClassifierHandle<TupleMerge>,
    trace: &TraceBuf,
    stop: &AtomicBool,
    packets: &AtomicU64,
) -> ReaderTotals {
    let (raw, stride, n) = (trace.raw(), trace.stride(), trace.len());
    let mut out = vec![None; BATCH];
    let mut t = ReaderTotals::default();
    let mut last_generation = 0;
    let mut lo = 0;
    while !stop.load(Relaxed) {
        let hi = (lo + BATCH).min(n);
        let start = Instant::now();
        let snap = handle.snapshot();
        snap.classify_batch(&raw[lo * stride..hi * stride], stride, &mut out[..hi - lo]);
        t.longest_batch_ns = t.longest_batch_ns.max(start.elapsed().as_nanos() as u64);
        t.generation_regressions += (snap.generation() < last_generation) as u64;
        last_generation = snap.generation();
        if t.batches.is_multiple_of(64) {
            let f = snap.engine().remainder_fraction();
            t.remainder_fraction_sum += f;
            t.remainder_fraction_peak = t.remainder_fraction_peak.max(f);
            t.remainder_fraction_samples += 1;
        }
        t.packets += (hi - lo) as u64;
        packets.store(t.packets, Relaxed); // the writer reads it at cycle ends
        t.batches += 1;
        lo = if hi == n { 0 } else { hi };
    }
    t
}

/// Runs whole cycles for about `budget_s`, at least one. The writer is the
/// calling thread.
pub fn churn_round(
    handle: &ClassifierHandle<TupleMerge>,
    trace: &TraceBuf,
    updates: &mut UpdateStream,
    budget_s: f64,
    samples: &mut ChurnSamples,
    report: &mut Report,
    tr: &mut Tracer,
) {
    let stop = AtomicBool::new(false);
    let packets = AtomicU64::new(0);
    let apply_every = Duration::from_secs_f64(OPS_PER_BATCH as f64 / UPDATE_OPS_PER_S);
    let stretch = Duration::from_secs_f64(APPLY_STRETCH_S);
    let budget = Duration::from_secs_f64(budget_s);
    let generation_before = handle.generation();

    let totals = std::thread::scope(|scope| {
        let reading = scope.spawn(|| reader(handle, trace, &stop, &packets));
        let start = Instant::now();
        let mut first = true;
        // The next cycle starts if its applies fit the budget; its retrain
        // may run over (0.1 s as a rule, 2 s when it falls back to a full
        // rebuild, after which a rule that looked at the last cycle's
        // length would give up the rest of the round).
        while std::mem::take(&mut first) || start.elapsed() + stretch < budget {
            let (cycle_start, packets_before) = (Instant::now(), packets.load(Relaxed));
            let mut apply_us = Vec::new();
            let mut next_apply = Duration::ZERO;
            while next_apply < stretch {
                std::thread::sleep(next_apply.saturating_sub(cycle_start.elapsed()));
                let batch = updates.next_batch();
                let t = Instant::now();
                tr.span("handle.apply", |_| handle.apply(&batch));
                apply_us.push(t.elapsed().as_secs_f64() * 1e6);
                report.count(1, 0, "");
                next_apply += apply_every;
            }
            let partial_so_far = handle.partial_retrains_completed();
            let t = Instant::now();
            let published = tr.span("handle.retrain", |_| handle.retrain());
            let ms = t.elapsed().as_secs_f64() * 1e3;
            report.check(published.is_ok(), "retrain failed");
            samples.retrain_ms.push(ms);
            if handle.partial_retrains_completed() > partial_so_far {
                samples.partial_ms.push(ms);
            } else {
                samples.full_ms.push(ms);
            }
            let cycle_s = cycle_start.elapsed().as_secs_f64();
            let classified = packets.load(Relaxed) - packets_before;
            samples.cycle_mpps.push(classified as f64 / cycle_s / 1e6);
            samples.cycle_apply_us_p50.push(median(&mut apply_us));
            samples.apply_us.append(&mut apply_us);
        }
        stop.store(true, Relaxed);
        reading.join().expect("churn reader panicked")
    });

    report.count(
        totals.batches,
        totals.generation_regressions,
        "reader saw a generation go backwards",
    );
    samples.generations += handle.generation() - generation_before;
    let r = &mut samples.reader;
    r.longest_batch_ns = r.longest_batch_ns.max(totals.longest_batch_ns);
    r.remainder_fraction_sum += totals.remainder_fraction_sum;
    r.remainder_fraction_peak = r.remainder_fraction_peak.max(totals.remainder_fraction_peak);
    r.remainder_fraction_samples += totals.remainder_fraction_samples;
}

/// Cost of pinning a snapshot (`ClassifierHandle::snapshot`), ns per pin.
pub fn pin_probe(handle: &ClassifierHandle<TupleMerge>, report: &mut Report, tr: &mut Tracer) {
    const PINS: u32 = 1_000_000;
    let t = Instant::now();
    tr.span("handle.snapshot", |_| {
        for _ in 0..PINS {
            std::hint::black_box(handle.snapshot());
        }
    });
    report.put("handle.pin_ns", t.elapsed().as_nanos() as f64 / PINS as f64);
}
