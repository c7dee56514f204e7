//! Figure 11 — throughput vs number of rules for TupleMerge alone and
//! NuevoMatch/TupleMerge, annotated with coverage and index sizes.
//!
//! The paper's "source of speedups" figure: tm's throughput collapses as its
//! tables outgrow L1/L2, while nm compresses the hot index (remainder +
//! RQ-RMI) back into fast cache and holds throughput. Annotations are
//! `coverage%` and `remainder-size : total-size`.

use crate::{measure_seq, nm_tm, Ctx, Outcome};
use nm_analysis::Table;
use nm_classbench::{generate, AppKind};
use nm_common::memsize::human_bytes;
use nm_common::Classifier;
use nm_trace::uniform_trace;
use nm_tuplemerge::TupleMerge;

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let s = &ctx.scale;
    out.say("Figure 11 — throughput vs rules (ACL profile), tm vs nm w/ tm\n");
    let mut table = Table::new(&[
        "rules",
        "tm pps",
        "nm pps",
        "speedup",
        "coverage",
        "tm index",
        "nm remainder:total",
    ]);

    for &n in &s.sizes {
        let set = generate(AppKind::Acl, n, 0xac1_0000 + n as u64);
        let trace = uniform_trace(&set, s.trace_len, 0xf11 + n as u64);
        let tm = TupleMerge::build(&set);
        let nm = nm_tm(&set);
        let (tm_pps, _, tm_sum) = measure_seq(&tm, &trace, s.warmups);
        let (nm_pps, _, nm_sum) = measure_seq(&nm, &trace, s.warmups);
        out.same_results("tm", tm_sum, "nm", nm_sum);
        let rem = nm.remainder().memory_bytes();
        let total = nm.memory_bytes();
        table.row(vec![
            format!("{n}"),
            format!("{:.2e}", tm_pps),
            format!("{:.2e}", nm_pps),
            format!("{:.2}x", nm_pps / tm_pps),
            format!("{:.0}%", nm.coverage() * 100.0),
            human_bytes(tm.memory_bytes()),
            format!("{} : {}", human_bytes(rem), human_bytes(total)),
        ]);
    }
    out.table("throughput", table);
    out.say(
        "\nPaper annotations (500K ACL): tm 10MB vs nm 7.9:46.1 KB at 99% coverage; \
         speedup appears once tm spills out of L2.",
    );
    out
}
