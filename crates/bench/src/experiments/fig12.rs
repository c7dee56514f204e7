//! Figure 12 — skewed traffic: NuevoMatch speedup over CutSplit and
//! TupleMerge under Zipf skews, a CAIDA-like trace, and the same trace with
//! a restricted L3 (CAIDA*).
//!
//! Paper (500K geomean): vs cs 2.06/1.95/1.84/1.62× across Zipf 80–95%,
//! 1.79× CAIDA, 2.26× CAIDA*; vs tm 1.14/1.06/0.99/0.89×, 1.05× CAIDA,
//! 1.16× CAIDA*. Shape: skew shrinks the gains (caches absorb hot flows);
//! restricting L3 restores them.

use crate::{nm_cs, nm_tm, seq_speedup, suite, Ctx, Outcome};
use nm_analysis::{geomean, CacheThrasher, Table};
use nm_cutsplit::CutSplit;
use nm_trace::{caida_like_trace, zipf_trace, FIG12_SKEWS};
use nm_tuplemerge::TupleMerge;

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let s = &ctx.scale;
    let n = *s.sizes.last().unwrap();
    out.say(format!("Figure 12 — skewed traffic, {n}-rule sets, geomean over {} apps\n", s.apps));
    let mut table = Table::new(&["workload", "nm w/ cs", "nm w/ tm", "paper cs", "paper tm"]);
    let paper: &[(&str, &str, &str)] = &[
        ("Zipf 80% (a=1.05)", "2.06x", "1.14x"),
        ("Zipf 85% (a=1.10)", "1.95x", "1.06x"),
        ("Zipf 90% (a=1.15)", "1.84x", "0.99x"),
        ("Zipf 95% (a=1.25)", "1.62x", "0.89x"),
        ("CAIDA-like", "1.79x", "1.05x"),
        ("CAIDA-like*", "2.26x", "1.16x"),
    ];

    // Pre-build engines once per set; traces vary per workload row.
    let sets = suite(n, s);
    let engines: Vec<_> = sets
        .iter()
        .map(|(_, set)| (set, CutSplit::build(set), nm_cs(set), TupleMerge::build(set), nm_tm(set)))
        .collect();

    for (row, &(label, p_cs, p_tm)) in paper.iter().enumerate() {
        let mut sp_cs = Vec::new();
        let mut sp_tm = Vec::new();
        // CAIDA* restricts effective L3 with a thrasher.
        let thrasher = (row == 5).then(CacheThrasher::start);
        for (set, cs, nmcs, tm, nmtm) in &engines {
            let trace = match row {
                0..=3 => zipf_trace(set, s.trace_len, FIG12_SKEWS[row].1, 0xf12 + row as u64),
                _ => caida_like_trace(set, s.trace_len, 0xf12ca),
            };
            sp_cs.push(seq_speedup(&mut out, cs, nmcs, &trace, s.warmups));
            sp_tm.push(seq_speedup(&mut out, tm, nmtm, &trace, s.warmups));
        }
        drop(thrasher);
        table.row(vec![
            label.into(),
            format!("{:.2}x", geomean(&sp_cs)),
            format!("{:.2}x", geomean(&sp_tm)),
            p_cs.into(),
            p_tm.into(),
        ]);
    }
    out.table("skew", table);
    out.say("\nShape check: speedups shrink as skew grows; the thrashed row recovers them.");
    out
}
