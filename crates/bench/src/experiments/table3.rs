//! Table 3 — throughput and single-iSet coverage vs the fraction of
//! low-diversity rules blended into a ClassBench set.
//!
//! Paper (500K, remainder = TupleMerge):
//! 70% low-div → 25% coverage, 1.07× · 50% → 50%, 1.14× · 30% → 70%, 1.60×.
//! The shape: the partitioner segregates low-diversity rules into the
//! remainder (coverage ≈ 1 − fraction), and speedup grows with coverage.

use crate::{nm_tm, seq_speedup, Ctx, Outcome};
use nm_analysis::Table;
use nm_classbench::{blend_low_diversity, generate, AppKind};
use nm_trace::uniform_trace;
use nm_tuplemerge::TupleMerge;

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let s = &ctx.scale;
    let n = *s.sizes.last().unwrap();
    let base = generate(AppKind::Acl, n, 0x7ab1e3);
    out.say(format!("Table 3: low-diversity blends over a {n}-rule ACL set, remainder = tm\n"));
    let mut table =
        Table::new(&["% low-diversity", "% coverage (1 iSet)", "speedup (throughput)", "paper"]);

    for &(frac, paper) in &[(0.7, "25% / 1.07x"), (0.5, "50% / 1.14x"), (0.3, "70% / 1.60x")] {
        let blended = blend_low_diversity(&base, frac, 12, 0x10d1);
        let trace = uniform_trace(&blended, s.trace_len, 0x7ace);
        let tm = TupleMerge::build(&blended);
        let nm = nm_tm(&blended);
        let cov = nuevomatch::iset::coverage_curve(&blended, 1)[0];
        table.row(vec![
            format!("{:.0}%", frac * 100.0),
            format!("{:.0}%", cov * 100.0),
            format!("{:.2}x", seq_speedup(&mut out, &tm, &nm, &trace, s.warmups)),
            paper.into(),
        ]);
    }
    out.table("blends", table);
    out
}
