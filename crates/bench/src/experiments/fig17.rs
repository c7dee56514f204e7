//! Figure 17 (appendix) — small rule-sets (1K / 10K): NuevoMatch vs
//! CutSplit and TupleMerge, latency and throughput.
//!
//! Paper: for small sets the baselines already fit in L1, so nm gains
//! little throughput (≈1× or below) but still improves latency (2.2× / 1.9×
//! on average); sets without large-enough iSets fall back to the baseline
//! and are omitted from the chart.

use crate::{nm_cs, nm_tm, seq_speedup, suite, Ctx, Outcome};
use nm_analysis::{geomean, Table};
use nm_cutsplit::CutSplit;
use nm_trace::uniform_trace;
use nm_tuplemerge::TupleMerge;

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let s = &ctx.scale;
    out.say("Figure 17 — small rule-sets, single core\n");
    let mut table = Table::new(&["set", "rules", "thr/cs", "thr/tm", "nm coverage"]);
    let mut sp_cs = Vec::new();
    let mut sp_tm = Vec::new();

    for &n in &[1_000usize, 10_000] {
        for (name, set) in suite(n, s) {
            let trace = uniform_trace(&set, s.trace_len, 0xf17 + n as u64);
            let nmcs = nm_cs(&set);
            // Paper: "classifiers with no valid iSets are not displayed".
            let (thr_cs, thr_tm) = if nmcs.isets().is_empty() {
                ("fallback".to_string(), "fallback".to_string())
            } else {
                let cs = seq_speedup(&mut out, &CutSplit::build(&set), &nmcs, &trace, s.warmups);
                let tm = seq_speedup(
                    &mut out,
                    &TupleMerge::build(&set),
                    &nm_tm(&set),
                    &trace,
                    s.warmups,
                );
                sp_cs.push(cs);
                sp_tm.push(tm);
                (format!("{cs:.2}x"), format!("{tm:.2}x"))
            };
            table.row(vec![
                format!("{name}-{n}"),
                format!("{n}"),
                thr_cs,
                thr_tm,
                format!("{:.0}%", nmcs.coverage() * 100.0),
            ]);
        }
    }
    table.row(vec![
        "GM".into(),
        String::new(),
        format!("{:.2}x", geomean(&sp_cs)),
        format!("{:.2}x", geomean(&sp_tm)),
        String::new(),
    ]);
    out.table("small_sets", table);
    out.say(
        "\nPaper: small sets fit the baselines in L1, so throughput speedups hover at \
         or below 1x — nm is not expected to win here.",
    );
    out
}
