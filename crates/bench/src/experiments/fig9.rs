//! Figure 9 — ClassBench end-to-end, single core with early termination:
//! throughput speedup of NuevoMatch over CutSplit, NeuroCuts, TupleMerge.
//!
//! Paper (500K geomean): 2.4× / 2.6× / 1.6× over cs / nc / tm (latency
//! speedups equal throughput speedups on one core). This experiment is the
//! apples-to-apples comparison on a single-core host.

use crate::{nc_config, nm_cs, nm_nc, nm_tm, seq_speedup, suite, Ctx, Outcome};
use nm_analysis::{geomean, Table};
use nm_cutsplit::{CutSplit, NeuroCuts};
use nm_trace::uniform_trace;
use nm_tuplemerge::TupleMerge;

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let s = &ctx.scale;
    for n in s.large_sizes() {
        out.say(format!("=== Figure 9 — {n} rules, single core, early termination ===\n"));
        let mut table = Table::new(&["set", "thr/cs", "thr/nc", "thr/tm", "nm cov."]);
        let mut sp = [Vec::new(), Vec::new(), Vec::new()];

        for (name, set) in suite(n, s) {
            let trace = uniform_trace(&set, s.trace_len, 0xf19 + n as u64);
            let cov;
            // One baseline/NuevoMatch pair alive at a time.
            let row = [
                {
                    let nm = nm_cs(&set);
                    cov = nm.coverage();
                    seq_speedup(&mut out, &CutSplit::build(&set), &nm, &trace, s.warmups)
                },
                {
                    let nc = NeuroCuts::with_config(&set, nc_config(!s.full));
                    seq_speedup(&mut out, &nc, &nm_nc(&set, !s.full), &trace, s.warmups)
                },
                seq_speedup(&mut out, &TupleMerge::build(&set), &nm_tm(&set), &trace, s.warmups),
            ];
            let mut cells = vec![name];
            for i in 0..3 {
                sp[i].push(row[i]);
                cells.push(format!("{:.2}x", row[i]));
            }
            cells.push(format!("{:.0}%", cov * 100.0));
            table.row(cells);
        }
        let mut gm = vec!["GM".to_string()];
        gm.extend(sp.iter().map(|v| format!("{:.2}x", geomean(v))));
        gm.push(String::new());
        table.row(gm);
        out.table(&format!("rules_{n}"), table);
        out.say("\nPaper 500K GM: 2.4x / 2.6x / 1.6x over cs / nc / tm\n");
    }
    out
}
