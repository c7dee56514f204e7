//! §5.2.1 — performance under L3 cache contention.
//!
//! Paper: restricting L3 to 1.5MB costs CutSplit ~50% of its throughput but
//! NuevoMatch (w/ cs remainder) only ~30%, because nm's hot index fits the
//! private caches. Intel CAT is substituted by a cache-thrasher antagonist
//! thread (`nm_analysis::thrash`).

use crate::{measure_seq, nm_cs, suite, Ctx, Outcome};
use nm_analysis::{CacheThrasher, Table};
use nm_cutsplit::CutSplit;
use nm_trace::uniform_trace;

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let s = &ctx.scale;
    let n = *s.sizes.last().unwrap();
    let (name, set) = suite(n, s).into_iter().next().expect("one set");
    out.say(format!("Section 5.2.1 — L3 contention on {name}-{n}, cs vs nm w/ cs\n"));

    let cs = CutSplit::build(&set);
    let nm = nm_cs(&set);
    let trace = uniform_trace(&set, s.trace_len, 0x5c21);

    let (cs_free, _, a) = measure_seq(&cs, &trace, s.warmups);
    let (nm_free, _, b) = measure_seq(&nm, &trace, s.warmups);
    out.same_results("cs", a, "nm", b);

    let thrasher = CacheThrasher::start(); // sweeps 12 MB to evict L3
    let (cs_thr, _, _) = measure_seq(&cs, &trace, s.warmups);
    let (nm_thr, _, _) = measure_seq(&nm, &trace, s.warmups);
    thrasher.stop();

    let mut table = Table::new(&["engine", "free pps", "contended pps", "retained", "paper"]);
    table.row(vec![
        "cs".into(),
        format!("{cs_free:.2e}"),
        format!("{cs_thr:.2e}"),
        format!("{:.0}%", 100.0 * cs_thr / cs_free),
        "~50%".into(),
    ]);
    table.row(vec![
        "nm w/ cs".into(),
        format!("{nm_free:.2e}"),
        format!("{nm_thr:.2e}"),
        format!("{:.0}%", 100.0 * nm_thr / nm_free),
        "~70%".into(),
    ]);
    out.table("contention", table);
    out.say(format!(
        "\nSpeedup free: {:.2}x, contended: {:.2}x (paper: contention increases the speedup).",
        nm_free / cs_free,
        nm_thr / cs_thr
    ));
    out
}
