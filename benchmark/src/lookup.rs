//! Lookup phases (batched, per-key, through the worker runtime) and the
//! traced run's probes of the layers under them.
//!
//! Nanosecond-scale layers are never timed per packet: every number here is
//! a whole pass over the trace divided by its length, and the per-layer
//! costs are cumulative prefixes differenced (the paper's Figure 14 method,
//! extended to the batched pipeline).

use std::hint::black_box;
use std::time::Instant;

use nm_common::{Classifier, LinearSearch, MatchResult, Priority, Rule, SplitMix64, TraceBuf};
use nm_tuplemerge::TupleMerge;
use nuevomatch::system::runtime::Replicated;
use nuevomatch::{
    partition_isets, CompiledRqRmi, NuevoMatch, NuevoMatchConfig, PinPolicy, Runtime,
    RuntimeConfig, TrainedISet,
};

use crate::inputs::BATCH;
use crate::metrics::Better;
use crate::spans::Tracer;
use crate::stats::{best_decile, percentile};
use crate::Report;

pub type Engine = NuevoMatch<TupleMerge>;

/// Keys replayed against the `LinearSearch` oracle per check (two checks a
/// run: the built rules, and the final rules after the last churn round).
pub const ORACLE_SAMPLES: usize = 1_000;

/// Same fold as the runtime's `RunStats::checksum`, so the two compare.
fn fold(checksum: &mut u64, m: Option<MatchResult>) {
    let v = m.map_or(u64::MAX, |r| r.rule as u64);
    *checksum = checksum.wrapping_mul(0x100_0000_01b3).wrapping_add(v);
}

/// Per-key verdicts over the whole trace and their order-sensitive fold.
pub struct Verdicts {
    pub per_key: Vec<Option<MatchResult>>,
    pub checksum: u64,
}

pub fn scalar_verdicts(c: &impl Classifier, trace: &TraceBuf) -> Verdicts {
    let mut checksum = 0;
    let per_key = trace
        .iter()
        .map(|key| {
            let m = c.classify(key);
            fold(&mut checksum, m);
            m
        })
        .collect();
    Verdicts { per_key, checksum }
}

/// Replays seeded sample keys against a `LinearSearch` over `rules`.
pub fn oracle_check(
    rules: Vec<Rule>,
    trace: &TraceBuf,
    verdicts: &[Option<MatchResult>],
    seed: u64,
    what: &str,
    report: &mut Report,
) {
    let oracle = LinearSearch::from_rules(rules);
    let mut rng = SplitMix64::new(seed);
    let wrong = (0..ORACLE_SAMPLES)
        .filter(|_| {
            let i = rng.below(trace.len() as u64) as usize;
            oracle.classify(trace.key(i)) != verdicts[i]
        })
        .count();
    report.count(ORACLE_SAMPLES as u64, wrong as u64, what);
}

/// Runs `pass` until `budget_s` is spent, at least once.
fn timed_passes(budget_s: f64, mut pass: impl FnMut()) {
    let start = Instant::now();
    pass();
    while start.elapsed().as_secs_f64() < budget_s {
        pass();
    }
}

/// One sample per pass over the trace, pooled over the run's rounds; the
/// reported value is the best decile of each list.
#[derive(Default)]
pub struct Passes {
    pub batch_mpps: Vec<f64>,
    /// p99 of the per-128-batch wall times within the pass.
    pub batch_p99_us: Vec<f64>,
    pub scalar_mpps: Vec<f64>,
    pub runtime_mpps: Vec<f64>,
    pub runtime_batch_latency_us: Vec<f64>,
}

/// `classify_batch` at batch 128 on one thread.
pub fn batch_round(
    nm: &Engine,
    trace: &TraceBuf,
    want: u64,
    budget_s: f64,
    passes: &mut Passes,
    report: &mut Report,
    tr: &mut Tracer,
) {
    let (raw, stride, n) = (trace.raw(), trace.stride(), trace.len());
    let mut out = vec![None; BATCH];
    let mut batch_ns: Vec<f64> = Vec::with_capacity(n / BATCH + 1);
    timed_passes(budget_s, || {
        tr.span("system.classify_batch", |_| {
            batch_ns.clear();
            let mut checksum = 0u64;
            let start = Instant::now();
            let mut prev = start;
            for lo in (0..n).step_by(BATCH) {
                let hi = (lo + BATCH).min(n);
                nm.classify_batch(&raw[lo * stride..hi * stride], stride, &mut out[..hi - lo]);
                for &m in &out[..hi - lo] {
                    fold(&mut checksum, m);
                }
                let now = Instant::now();
                batch_ns.push((now - prev).as_nanos() as f64);
                prev = now;
            }
            passes.batch_mpps.push(n as f64 / (prev - start).as_secs_f64() / 1e6);
            passes.batch_p99_us.push(percentile(&mut batch_ns, 0.99) / 1e3);
            report.check(checksum == want, "batch pass checksum != per-key checksum");
        })
    });
}

/// The per-key `classify` loop (guards the second code path).
pub fn scalar_round(
    nm: &Engine,
    trace: &TraceBuf,
    want: u64,
    budget_s: f64,
    passes: &mut Passes,
    report: &mut Report,
    tr: &mut Tracer,
) {
    timed_passes(budget_s, || {
        tr.span("system.classify", |_| {
            let start = Instant::now();
            let mut checksum = 0u64;
            for key in trace.iter() {
                fold(&mut checksum, nm.classify(key));
            }
            passes.scalar_mpps.push(trace.len() as f64 / start.elapsed().as_secs_f64() / 1e6);
            report.check(checksum == want, "per-key pass checksum changed between passes");
        })
    });
}

/// `Runtime::run` over one replicated worker: dispatcher + 1 worker thread,
/// batch 128, 4 batches in flight, no pinning.
pub fn runtime_round(
    nm: &Engine,
    trace: &TraceBuf,
    want: u64,
    budget_s: f64,
    passes: &mut Passes,
    report: &mut Report,
    tr: &mut Tracer,
) {
    let rt = Runtime::new(RuntimeConfig {
        batch: BATCH,
        pipeline_depth: 4,
        workers_per_shard: 1,
        pin: PinPolicy::Never,
        flow_cache: 0,
    });
    let plan = Replicated::new(nm, 1);
    timed_passes(budget_s, || {
        let run = tr.span("runtime.run", |_| rt.run(&plan, trace));
        report.check(
            matches!(&run, Ok(s) if s.checksum == want),
            "Runtime::run failed or its checksum differs",
        );
        if let Ok(s) = run {
            passes.runtime_mpps.push(s.pps / 1e6);
            passes.runtime_batch_latency_us.push(s.mean_batch_latency_ns / 1e3);
        }
    });
}

/// ns per packet of `pass`: the fastest of five runs, to sit beside
/// end-to-end numbers that are best deciles.
fn ns_per_pkt(n: usize, mut pass: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    best_decile(&mut v, Better::Lower)
}

/// What the traced run already measured end to end, for the differences.
pub struct EndToEnd {
    pub batch_mpps: f64,
    pub scalar_mpps: f64,
    pub runtime_mpps: f64,
    pub runtime_batch_latency_us: f64,
}

/// Per-layer costs of the lookup path (traced run only).
#[allow(clippy::too_many_arguments)]
pub fn layer_probes(
    nm: &Engine,
    set: &nm_common::RuleSet,
    cfg: &NuevoMatchConfig,
    trace: &TraceBuf,
    verdicts: &Verdicts,
    e2e: &EndToEnd,
    report: &mut Report,
    tr: &mut Tracer,
) {
    let (raw, stride, n) = (trace.raw(), trace.stride(), trace.len());
    let isets = nm.isets();
    let batches = || (0..n).step_by(BATCH).map(|lo| (lo, (lo + BATCH).min(n)));

    // --- build-side layers: partition and training, re-run in isolation ---
    let t = Instant::now();
    let partition =
        tr.span("iset.partition", |_| partition_isets(set, cfg.max_isets, cfg.min_iset_coverage));
    report.put("iset.partition_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    tr.span("rqrmi.train", |tr| {
        for iset in &partition.isets {
            let built = tr.span("rqrmi.train_iset", |_| TrainedISet::build(set, iset, cfg));
            report.check(built.is_ok(), "TrainedISet::build failed");
        }
    });
    report.put("rqrmi.train_s", t.elapsed().as_secs_f64());
    report.put("iset.count", isets.len() as f64);
    report.put("iset.coverage", nm.coverage());
    report.put(
        "rqrmi.model_bytes",
        isets.iter().map(TrainedISet::memory_bytes).sum::<usize>() as f64,
    );

    // --- scalar path: cumulative prefixes, differenced ---
    let mut err_sum = 0u64;
    let infer = tr.span("rqrmi.predict", |_| {
        ns_per_pkt(n, || {
            err_sum = 0;
            for key in trace.iter() {
                for iset in isets {
                    err_sum += iset.predict(key).1 as u64;
                }
            }
        })
    });
    let plus_search = tr.span("system.search", |_| {
        ns_per_pkt(n, || {
            for key in trace.iter() {
                for iset in isets {
                    let (pred, err) = iset.predict(key);
                    black_box(iset.search(pred, err, key));
                }
            }
        })
    });
    let plus_validate = tr.span("system.classify_isets", |_| {
        ns_per_pkt(n, || {
            for key in trace.iter() {
                black_box(nm.classify_isets(key));
            }
        })
    });
    report.put("rqrmi.infer_ns_per_pkt", infer);
    report.put("rqrmi.err_bound_mean", err_sum as f64 / (n * isets.len().max(1)) as f64);
    report.put("system.search_ns_per_pkt", (plus_search - infer).max(0.0));
    report.put("system.validate_ns_per_pkt", (plus_validate - plus_search).max(0.0));

    // Counting pass (untimed): who wins, and how many searches validate.
    // The iSet-side candidates also give the remainder its priority floors.
    let (mut searched, mut validated, mut iset_wins) = (0u64, 0u64, 0u64);
    let mut floors: Vec<Priority> = Vec::with_capacity(n);
    for (i, key) in trace.iter().enumerate() {
        let mut best = None;
        for iset in isets {
            let (pred, err) = iset.predict(key);
            if let Some(pos) = iset.search(pred, err, key) {
                searched += 1;
                let hit = iset.validate(pos, key);
                validated += hit.is_some() as u64;
                best = MatchResult::better(best, hit);
            }
        }
        iset_wins += (best.is_some() && best == verdicts.per_key[i]) as u64;
        floors.push(best.map_or(Priority::MAX, |b| b.priority));
    }
    report.put("system.iset_hit_ratio", iset_wins as f64 / n as f64);
    report.put("system.validate_pass_ratio", validated as f64 / searched.max(1) as f64);

    // The remainder on its own, fed the floors the iSets would hand it.
    let rem = nm.remainder();
    let rem_scalar = tr.span("tuplemerge.classify", |_| {
        ns_per_pkt(n, || {
            for (key, &floor) in trace.iter().zip(&floors) {
                black_box(if floor == Priority::MAX {
                    rem.classify(key)
                } else {
                    rem.classify_with_floor(key, floor)
                });
            }
        })
    });
    let scalar_e2e = 1e3 / e2e.scalar_mpps;
    report.put("system.residue_scalar_ns_per_pkt", scalar_e2e - plus_validate - rem_scalar);

    // --- batched path ---
    let compiled: Vec<(CompiledRqRmi, Vec<u64>)> = isets
        .iter()
        .map(|iset| {
            let vals = trace.iter().map(|key| key[iset.dim()]).collect();
            (CompiledRqRmi::new(iset.model()), vals)
        })
        .collect();
    let (mut preds, mut errs) = (vec![0usize; 64], vec![0u32; 64]);
    let infer_batch = tr.span("rqrmi.predict_batch", |_| {
        ns_per_pkt(n, || {
            for (model, vals) in &compiled {
                for chunk in vals.chunks(64) {
                    model.predict_batch(chunk, &mut preds[..chunk.len()], &mut errs[..chunk.len()]);
                }
            }
            black_box(&preds);
        })
    });
    report.put("rqrmi.infer_batch_ns_per_pkt", infer_batch);

    let mut out = vec![None; BATCH];
    let isets_batch = tr.span("system.classify_isets_batch", |_| {
        ns_per_pkt(n, || {
            for (lo, hi) in batches() {
                nm.classify_isets_batch(
                    &raw[lo * stride..hi * stride],
                    stride,
                    &mut out[..hi - lo],
                );
            }
            black_box(&out);
        })
    });
    let rem_batch = tr.span("tuplemerge.classify_batch_with_floors", |_| {
        ns_per_pkt(n, || {
            for (lo, hi) in batches() {
                rem.classify_batch_with_floors(
                    &raw[lo * stride..hi * stride],
                    stride,
                    &floors[lo..hi],
                    &mut out[..hi - lo],
                );
            }
            black_box(&out);
        })
    });
    let rem_batch_no_floors = tr.span("tuplemerge.classify_batch", |_| {
        ns_per_pkt(n, || {
            for (lo, hi) in batches() {
                rem.classify_batch(&raw[lo * stride..hi * stride], stride, &mut out[..hi - lo]);
            }
            black_box(&out);
        })
    });
    let batch_e2e = 1e3 / e2e.batch_mpps;
    let residue = batch_e2e - isets_batch - rem_batch;
    report.put("system.isets_batch_ns_per_pkt", isets_batch);
    report.put("system.residue_ns_per_pkt", residue);
    report.put("system.residue_share", residue.abs() / batch_e2e);
    report.put("tuplemerge.remainder_rules", rem.num_rules() as f64);
    report.put("tuplemerge.remainder_bytes", rem.memory_bytes() as f64);
    report.put("tuplemerge.remainder_ns_per_pkt", rem_batch);
    report.put("tuplemerge.remainder_share", rem_batch / batch_e2e);
    report.put("tuplemerge.floor_prune_ratio", 1.0 - rem_batch / rem_batch_no_floors.max(1e-9));

    // The paper's baseline: the whole rule-set in TupleMerge.
    let tm = tr.span("tuplemerge.build", |_| TupleMerge::build(set));
    let mut tm_sum = 0u64;
    let tm_ns = tr.span("tuplemerge.standalone", |_| {
        ns_per_pkt(n, || {
            tm_sum = 0;
            for (lo, hi) in batches() {
                tm.classify_batch(&raw[lo * stride..hi * stride], stride, &mut out[..hi - lo]);
                for &m in &out[..hi - lo] {
                    fold(&mut tm_sum, m);
                }
            }
        })
    });
    report.check(tm_sum == verdicts.checksum, "standalone TupleMerge disagrees with NuevoMatch");
    report.put("tuplemerge.standalone_bytes", tm.memory_bytes() as f64);
    report.put("tuplemerge.standalone_ns_per_pkt", tm_ns);

    report.put("runtime.overhead_ns_per_pkt", 1e3 / e2e.runtime_mpps - batch_e2e);
    report.put("runtime.batch_latency_us", e2e.runtime_batch_latency_us);
}

/// `persist::{save,load}_snapshot` round trip of the built engine.
pub fn persist_probe(
    nm: &Engine,
    trace: &TraceBuf,
    verdicts: &Verdicts,
    report: &mut Report,
    tr: &mut Tracer,
) {
    let t = Instant::now();
    let image = tr.span("persist.save_snapshot", |_| nuevomatch::save_snapshot(nm, 1));
    report.put("persist.save_ms", t.elapsed().as_secs_f64() * 1e3);
    report.put("persist.snapshot_bytes", image.len() as f64);
    let t = Instant::now();
    let builder: fn(&nm_common::RuleSet) -> TupleMerge = TupleMerge::build;
    let loaded = tr.span("persist.load_snapshot", |_| nuevomatch::load_snapshot(&image, &builder));
    report.put("persist.load_ms", t.elapsed().as_secs_f64() * 1e3);
    let same = loaded.is_ok_and(|(restored, _)| {
        (0..ORACLE_SAMPLES).all(|i| restored.classify(trace.key(i)) == verdicts.per_key[i])
    });
    report.check(same, "snapshot round trip changed verdicts");
}
