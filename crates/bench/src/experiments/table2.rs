//! Table 2 — cumulative iSet coverage (%) for 1–4 iSets, by rule-set size,
//! plus the Stanford-backbone-like row.
//!
//! Paper (mean ± std over 12 ClassBench sets):
//! 1K 20.2/28.9/34.6/38.7 · 10K 45.1/59.6/62.6/65.1 ·
//! 100K 80.0/96.5/98.1/98.8 · 500K 84.2/98.8/99.4/99.7 ·
//! Stanford-183K 57.8/91.6/96.5/98.2.
//! The shape: coverage improves with rule-set size; Stanford (single field)
//! needs 2–3 iSets for 90 %+.

use crate::{suite, Ctx, Outcome};
use nm_analysis::Table;
use nuevomatch::iset::coverage_curve;

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let s = &ctx.scale;
    out.say(format!(
        "Table 2: iSet coverage (%), mean ± std over {} applications per size (NM_SCALE={})\n",
        s.apps,
        if s.full { "full" } else { "quick" }
    ));
    let mut table = Table::new(&["rules", "1 iSet", "2 iSets", "3 iSets", "4 iSets"]);

    for &n in &s.sizes {
        let mut per_k: Vec<Vec<f64>> = vec![Vec::new(); 4];
        for (_, set) in suite(n, s) {
            let curve = coverage_curve(&set, 4);
            for k in 0..4 {
                per_k[k].push(curve[k] * 100.0);
            }
        }
        let cell = |v: &Vec<f64>| {
            let mean = v.iter().sum::<f64>() / v.len() as f64;
            let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / v.len() as f64;
            format!("{mean:.1} ± {:.1}", var.sqrt())
        };
        let mut row = vec![format!("{n}")];
        row.extend(per_k.iter().map(cell));
        table.row(row);
    }

    // Stanford-like FIB row (paper: ~183K single-field rules).
    let fib_n = if s.full { 183_376 } else { 20_000 };
    let fib = nm_classbench::stanford_fib(fib_n, 0x57a4);
    let mut row = vec![format!("stanford-{fib_n}")];
    row.extend(coverage_curve(&fib, 4).iter().map(|c| format!("{:.1}", c * 100.0)));
    table.row(row);

    out.table("coverage", table);
    out.say("\nPaper row for 500K: 84.2 / 98.8 / 99.4 / 99.7; Stanford: 57.8 / 91.6 / 96.5 / 98.2");
    out
}
