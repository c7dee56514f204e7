//! Figure 14 — coverage and lookup-time breakdown vs the number of iSets
//! (remainder = CutSplit, single core).
//!
//! Paper: coverage saturates near 100% by 2 iSets; past that, extra iSets
//! add inference/validation time without shrinking the remainder — 1–2
//! iSets are the sweet spot. The bars split lookup time into remainder /
//! secondary search / validation / inference.

use crate::{nm_config, suite, Ctx, Outcome};
use nm_analysis::{geomean, Table};
use nm_cutsplit::CutSplit;
use nm_trace::uniform_trace;
use nuevomatch::system::measure_breakdown;
use nuevomatch::NuevoMatch;

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let s = &ctx.scale;
    let n = *s.sizes.last().unwrap();
    out.say(format!("Figure 14 — breakdown vs #iSets, {n} rules, remainder = cs\n"));
    let mut table = Table::new(&[
        "#iSets",
        "coverage",
        "inference ns",
        "search ns",
        "validation ns",
        "remainder ns",
        "total ns",
    ]);

    for k in 0..=6usize {
        let mut cov = Vec::new();
        let mut parts = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        for (_, set) in suite(n, s) {
            let nm = NuevoMatch::build(&set, &nm_config(k, 0.0), CutSplit::build).expect("build");
            let trace = uniform_trace(&set, (s.trace_len / 4).max(10_000), 0xf14);
            let b = measure_breakdown(&nm, &trace);
            cov.push(nm.coverage().max(1e-9));
            parts[0].push(b.inference_ns.max(1e-9));
            parts[1].push(b.search_ns.max(1e-9));
            parts[2].push(b.validation_ns.max(1e-9));
            parts[3].push(b.remainder_ns.max(1e-9));
        }
        let gm = |v: &Vec<f64>| geomean(v);
        let total = gm(&parts[0]) + gm(&parts[1]) + gm(&parts[2]) + gm(&parts[3]);
        table.row(vec![
            format!("{k}"),
            format!("{:.1}%", gm(&cov) * 100.0),
            format!("{:.0}", gm(&parts[0])),
            format!("{:.0}", gm(&parts[1])),
            format!("{:.0}", gm(&parts[2])),
            format!("{:.0}", gm(&parts[3])),
            format!("{total:.0}"),
        ]);
    }
    out.table("breakdown", table);
    out.say(
        "\nShape check: remainder time falls steeply to ~2 iSets, then compute overhead \
         (inference + validation) grows with diminishing coverage returns.",
    );
    out
}
