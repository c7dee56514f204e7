//! Table 1 — submodel inference time by instruction set.
//!
//! Paper (Xeon Silver 4116): Serial(1) 126 ns, SSE(4) 62 ns, AVX(8) 49 ns
//! per inference. This experiment times what a served packet runs: the
//! single-key walk [`CompiledRqRmi::predict`], compiled per instruction set
//! over one trained `[1, 4, 128]` model, as a **dependent chain** — each
//! key is derived from the previous prediction, so a step cannot start
//! before the last one ends and every step meets another leaf submodel. A
//! predict is one kernel per stage plus routing; the table shows the
//! predict and its share per kernel, the figure to hold against the
//! paper's column. The chain's keys are replayed through `predict_batch`;
//! a disagreement fails the run.
//!
//! Honesty note: on a modern core the rows come out flat — ≈ 58–68 ns a
//! predict, ≈ 19–23 ns a kernel on every instruction set. One key's walk is
//! a latency chain (load the routed submodel, multiply-add, reduce, route)
//! and vector width shortens only the eight-lane arithmetic in its middle,
//! which rustc vectorises for the "serial" row too (its ReLU is a select,
//! not a branch). The paper's 2.6× serial → AVX gap is not here to
//! reproduce; the instruction sets differ in *throughput* — many keys'
//! chains in flight at once, what the batched pipeline pays — and
//! `nm-bench batch`'s inference table has that per ISA (≈ 20 / 15 / 13 /
//! 4.4 ns per key).

use crate::{Ctx, Outcome};
use nm_analysis::Table;
use nm_common::FieldRange;
use nuevomatch::rqrmi::{detect, train_rqrmi, CompiledRqRmi, Isa};
use nuevomatch::RqRmiParams;
use std::hint::black_box;
use std::time::Instant;

const BITS: u8 = 32;
/// Range count that selects Table 4's `[1, 4, 128]` shape.
const RANGES: u64 = 50_000;
/// Chain steps per timed pass, and passes per row (the best is kept: the
/// box is shared, and a chain this long eats any neighbour's burst).
const STEPS: usize = 400_000;
const PASSES: usize = 3;
/// Chain steps replayed through `predict_batch`.
const REPLAYED: usize = 4_096;

/// Walks `steps` dependent predictions from `key`, handing each
/// `(key, prediction)` to `seen`; returns the key after the last. The next
/// key is a golden-ratio hop scaled by the prediction just made.
fn chain(
    model: &CompiledRqRmi,
    mut key: u64,
    steps: usize,
    mut seen: impl FnMut(u64, (usize, u32)),
) -> u64 {
    for _ in 0..steps {
        let predicted = model.predict(key);
        seen(key, predicted);
        key = key.wrapping_add((predicted.0 as u64 + 1).wrapping_mul(0x9e37_79b9))
            & ((1 << BITS) - 1);
    }
    key
}

pub fn run(_: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let step = (1 << BITS) / RANGES;
    let ranges: Vec<FieldRange> =
        (0..RANGES).map(|i| FieldRange::new(i * step, i * step + step / 2)).collect();
    let model = train_rqrmi(&ranges, BITS, &RqRmiParams::default()).expect("training");
    let kernels = model.widths().len();

    let mut table = Table::new(&[
        "Instruction set (width)",
        "ns per predict",
        "ns per kernel",
        "paper (ns per inference)",
    ]);
    // The FMA row is this repo's addition: the paper's 2016-era Xeon had no
    // AVX2/FMA, so Table 1 stops at AVX(8).
    let rows: &[(&str, Isa, &str)] = &[
        ("Serial(1)", Isa::Scalar, "126"),
        ("SSE(4)", Isa::Sse, "62"),
        ("AVX(8)", Isa::Avx, "49"),
        ("AVX2+FMA(8)", Isa::AvxFma, "-"),
    ];
    out.say(format!(
        "Table 1: a dependent chain of single-key predicts over a {:?} model (detected best: {:?})\n",
        model.widths(),
        detect()
    ));
    for &(name, isa, paper) in rows {
        if !isa.available() {
            let na = format!("n/a (no {isa:?})");
            table.row(vec![name.into(), na.clone(), na, paper.into()]);
            continue;
        }
        let compiled = CompiledRqRmi::with_isa(&model, isa);
        let mut best = f64::MAX;
        for pass in 0..PASSES {
            let t0 = Instant::now();
            black_box(chain(&compiled, black_box(pass as u64), STEPS, |_, _| {}));
            best = best.min(t0.elapsed().as_nanos() as f64 / STEPS as f64);
        }
        table.row(vec![
            name.into(),
            format!("{best:.1}"),
            format!("{:.1}", best / kernels as f64),
            paper.into(),
        ]);

        let (mut keys, mut chained) = (Vec::new(), Vec::new());
        chain(&compiled, 0, REPLAYED, |key, predicted| {
            keys.push(key);
            chained.push(predicted);
        });
        let (mut preds, mut errs) = (vec![0usize; REPLAYED], vec![0u32; REPLAYED]);
        compiled.predict_batch(&keys, &mut preds, &mut errs);
        let leaves: std::collections::HashSet<usize> =
            keys.iter().map(|&key| model.route(key)).collect();
        out.check(preds.iter().copied().zip(errs).eq(chained), || {
            format!("{isa:?}: the predict chain and predict_batch disagree on the chain's keys")
        });
        out.check(leaves.len() * 2 > model.widths()[kernels - 1], || {
            format!("{isa:?}: the chain stayed on {} leaf submodels", leaves.len())
        });
    }
    out.table("inference", table);
    out.say(
        "\nNote: one key's walk is a latency chain; vector width shortens only its eight-lane\n\
         middle, so the rows are flat. `nm-bench batch` has the per-ISA throughput, where\n\
         they differ.",
    );
    out
}
