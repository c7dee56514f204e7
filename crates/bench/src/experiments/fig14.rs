//! Figure 14 — coverage and lookup-time breakdown vs the number of iSets
//! (remainder = CutSplit, single core).
//!
//! Paper: coverage saturates near 100% by 2 iSets; past that, extra iSets
//! add inference/validation time without shrinking the remainder — 1–2
//! iSets are the sweet spot. The bars split lookup time into remainder /
//! secondary search / validation / inference.
//!
//! Timed are the batched public calls the data plane serves, as cumulative
//! prefixes over one trace per set, each the best of [`PASSES`] passes:
//! [`CompiledRqRmi::predict_batch`] over each iSet's field in 64-key chunks
//! (inference), [`NuevoMatch::classify_isets_batch`] in [`BATCH`]-key
//! chunks (+ search and validation), and [`run_batched`] at [`BATCH`]
//! (+ the remainder), whose checksum must equal the per-key loop's
//! (`run_batched` at batch 1) or the run fails. Each column is the difference of two prefixes. Search and
//! validation share one: the batched pipeline fuses them per chunk, so no
//! prefix ends between them and the paper's split of the two is not
//! separable there. Means are arithmetic, per set and across sets, and a
//! negative difference prints as measured. The argmin of the mean total is
//! a timing target against the paper's 1–2 iSets: PASS/WARN, never a failure.

use crate::{nm_config, suite, Ctx, Outcome};
use nm_analysis::{Json, Table};
use nm_common::TraceBuf;
use nm_cutsplit::CutSplit;
use nm_trace::uniform_trace;
use nuevomatch::rqrmi::CompiledRqRmi;
use nuevomatch::system::parallel::{run_batched, BATCH};
use nuevomatch::NuevoMatch;
use std::hint::black_box;
use std::time::Instant;

/// Measured passes per prefix; the fastest is kept.
const PASSES: usize = 5;

/// The three prefixes' ns per packet — inference, the iSet side, the whole
/// lookup — and the batched checksum.
fn prefixes(nm: &NuevoMatch<CutSplit>, trace: &TraceBuf) -> ([f64; 3], u64) {
    let (n, stride, raw) = (trace.len(), trace.stride(), trace.raw());
    let field = |dim: usize| trace.iter().map(|key| key[dim]).collect::<Vec<u64>>();
    let models: Vec<_> =
        nm.isets().iter().map(|iset| (CompiledRqRmi::new(iset.model()), field(iset.dim()))).collect();
    let (mut preds, mut errs, mut out) = ([0usize; 64], [0u32; 64], vec![None; BATCH]);
    let (mut best, mut checksum) = ([f64::MAX; 3], 0);
    for _ in 0..PASSES {
        let start = Instant::now();
        for (model, vals) in &models {
            for chunk in vals.chunks(64) {
                model.predict_batch(chunk, &mut preds[..chunk.len()], &mut errs[..chunk.len()]);
            }
        }
        black_box(&preds);
        let inference = start.elapsed().as_secs_f64();
        let start = Instant::now();
        for lo in (0..n).step_by(BATCH) {
            let hi = (lo + BATCH).min(n);
            nm.classify_isets_batch(&raw[lo * stride..hi * stride], stride, &mut out[..hi - lo]);
        }
        black_box(&out);
        let isets = start.elapsed().as_secs_f64();
        let whole = run_batched(nm, trace, BATCH);
        checksum = whole.checksum;
        for (b, secs) in best.iter_mut().zip([inference, isets, whole.seconds]) {
            *b = b.min(secs * 1e9 / n as f64);
        }
    }
    (best, checksum)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let s = &ctx.scale;
    let n = *s.sizes.last().unwrap();
    out.say(format!("Figure 14 — batched lookup breakdown vs #iSets, {n} rules, remainder = cs\n"));
    let mut table = Table::new(&[
        "#iSets",
        "set",
        "coverage",
        "inference ns",
        "search+validate ns",
        "remainder ns",
        "total ns",
    ]);
    let sets = suite(n, s);
    let mut totals = Vec::new();
    for k in 0..=6usize {
        // coverage, inference, search+validate, remainder, total
        let mut mean = [0.0; 5];
        for (app, set) in &sets {
            let nm = NuevoMatch::build(set, &nm_config(k, 0.0), CutSplit::build).expect("build");
            let trace = uniform_trace(set, (s.trace_len / 4).max(10_000), 0xf14);
            let ([infer, isets, whole], checksum) = prefixes(&nm, &trace);
            out.check(checksum == run_batched(&nm, &trace, 1).checksum, || {
                format!("{app} at {k} iSets: batch {BATCH} diverged from batch 1")
            });
            let cells = [nm.coverage(), infer, isets - infer, whole - isets, whole];
            table.row(row(k, app, &cells));
            for (m, cell) in mean.iter_mut().zip(cells) {
                *m += cell / sets.len() as f64;
            }
        }
        table.row(row(k, "mean", &mean));
        let names = ["inference", "search_validate", "remainder", "total"];
        for (name, ns) in names.iter().zip(&mean[1..]) {
            out.scalar(&format!("isets_{k}_{name}_ns"), Json::num(*ns, 1));
        }
        totals.push(mean[4]);
    }
    out.table("breakdown", table);
    let argmin = (0..totals.len()).min_by(|&a, &b| totals[a].total_cmp(&totals[b])).unwrap();
    out.scalar("argmin_isets", argmin);
    out.say(format!(
        "\n{}: the mean lookup is fastest at {argmin} iSets ({:.1} ns/pkt; paper: 1–2 iSets)",
        if (1..=2).contains(&argmin) { "PASS" } else { "WARN" },
        totals[argmin],
    ));
    out
}

/// One row: iSet count, set, coverage in percent, then the ns cells as
/// measured (a negative difference prints negative).
fn row(k: usize, set: &str, cells: &[f64; 5]) -> Vec<String> {
    let mut row = vec![k.to_string(), set.to_string(), format!("{:.1}%", cells[0] * 100.0)];
    row.extend(cells[1..].iter().map(|ns| format!("{ns:.1}")));
    row
}
