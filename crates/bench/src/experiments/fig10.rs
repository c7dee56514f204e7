//! Figure 10 — real-world(-like) Stanford backbone forwarding rule-sets:
//! NuevoMatch with a TupleMerge remainder vs stand-alone TupleMerge.
//!
//! Paper: four ~180K single-field (dst-IP) sets; nm achieves ≈3.5× higher
//! throughput and ≈7.5× lower latency than tm on all four. The single-field
//! structure is the interesting part: fewer partitioning opportunities, yet
//! 2–3 iSets reach 90 %+ coverage (Table 2's last row).

use crate::{measure_seq, nm_tm, Ctx, Outcome};
use nm_analysis::Table;
use nm_classbench::stanford_fib;
use nm_trace::uniform_trace;
use nm_tuplemerge::TupleMerge;

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let s = &ctx.scale;
    // The effect needs tm's tables to outgrow the fast caches; below ~50K
    // single-field rules everything fits and nm has nothing to compress
    // (same regime as the paper's small-set Figure 17).
    let n = if s.full { 183_376 } else { 60_000 };
    out.say(format!("Figure 10 — Stanford-like FIBs ({n} single-field rules), nm w/ tm vs tm\n"));
    let mut table =
        Table::new(&["set", "tm pps", "nm pps", "thr speedup", "lat speedup", "coverage"]);

    for i in 0..4u64 {
        let set = stanford_fib(n, 0x57a4 + i);
        let trace = uniform_trace(&set, s.trace_len, 0xf10 + i);
        let tm = TupleMerge::build(&set);
        let nm = nm_tm(&set);
        let (tm_pps, tm_ns, tm_sum) = measure_seq(&tm, &trace, s.warmups);
        let (nm_pps, nm_ns, nm_sum) = measure_seq(&nm, &trace, s.warmups);
        out.same_results("tm", tm_sum, "nm", nm_sum);
        table.row(vec![
            format!("{}", i + 1),
            format!("{:.2e}", tm_pps),
            format!("{:.2e}", nm_pps),
            format!("{:.2}x", nm_pps / tm_pps),
            format!("{:.2}x", tm_ns / nm_ns),
            format!("{:.0}%", nm.coverage() * 100.0),
        ]);
    }
    out.table("fibs", table);
    out.say("\nPaper: ~3.5x throughput, ~7.5x latency on all four sets (two cores).");
    out
}
