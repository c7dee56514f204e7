//! Figure 8 — ClassBench end-to-end, two workers: latency and throughput
//! speedups of NuevoMatch over CutSplit, NeuroCuts and TupleMerge.
//!
//! Paper (500K geomean): latency 2.7× / 4.4× / 2.6× lower, throughput 1.3× /
//! 2.2× / 1.2× higher vs cs / nc / tm. For 100K: 2.0× / 3.6× / 2.6× and
//! 1.0× / 1.7× / 1.2×.
//!
//! Methodology mirror of §5.1: NuevoMatch splits iSets and remainder across
//! two workers; baselines run two replicated instances with the input split
//! between them; batches of 128. **This repo's CI box has one physical
//! core** — workers time-share, so expect muted parallel gains; the
//! single-core Figure 9 is the apples-to-apples shape on this machine.

use crate::{nc_config, nm_config, nm_tm_handle, suite, Ctx, Outcome};
use nm_analysis::{geomean, Table};
use nm_common::{Classifier, RuleSet, TraceBuf};
use nm_cutsplit::{CutSplit, NeuroCuts};
use nm_trace::uniform_trace;
use nm_tuplemerge::TupleMerge;
use nuevomatch::system::parallel::BATCH;
use nuevomatch::system::runtime::{Replicated, SplitPlan};
use nuevomatch::{ClassifierHandle, Runtime, RuntimeConfig};

/// (latency, throughput) speedups of NuevoMatch's iSet/remainder two-worker
/// split over two replicated `base` instances (the §5.1 baseline mode),
/// both through the worker runtime.
fn versus<R: Classifier>(
    rt: &Runtime,
    base: &dyn Classifier,
    nm: &ClassifierHandle<R>,
    trace: &TraceBuf,
) -> (f64, f64) {
    let base = rt.run(&Replicated::new(base, 2), trace).expect("replicated runtime");
    let ours = rt.run(&SplitPlan::new(nm), trace).expect("two-worker runtime");
    (base.mean_batch_latency_ns / ours.mean_batch_latency_ns, ours.pps / base.pps)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let rt = Runtime::new(RuntimeConfig { batch: BATCH, ..Default::default() });
    let s = &ctx.scale;
    for n in s.large_sizes() {
        out.say(format!("=== Figure 8 — {n} rules, two workers, uniform traffic ===\n"));
        let mut table = Table::new(&[
            "set",
            "lat-speedup/cs",
            "lat/nc",
            "lat/tm",
            "thr-speedup/cs",
            "thr/nc",
            "thr/tm",
        ]);
        // Columns 0..3 latency vs cs/nc/tm, 3..6 throughput.
        let mut columns: [Vec<f64>; 6] = Default::default();

        for (name, set) in suite(n, s) {
            let trace = uniform_trace(&set, s.trace_len, 0xf18 + n as u64);
            // The tree remainders share `nm_cs` / `nm_nc`'s §5.1
            // configuration (25 % minimum coverage, at most 2 iSets).
            let tree_cfg = nm_config(2, 0.25);
            let nc_cfg = nc_config(!s.full);
            let nc_builder = move |rem: &RuleSet| NeuroCuts::with_config(rem, nc_cfg);
            let nm_cs = ClassifierHandle::new(&set, &tree_cfg, CutSplit::build).expect("nm/cs");
            let nm_nc = ClassifierHandle::new(&set, &tree_cfg, nc_builder).expect("nm/nc");
            let pairs = [
                versus(&rt, &CutSplit::build(&set), &nm_cs, &trace),
                versus(&rt, &NeuroCuts::with_config(&set, nc_cfg), &nm_nc, &trace),
                versus(&rt, &TupleMerge::build(&set), &nm_tm_handle(&set), &trace),
            ];
            let row: Vec<f64> =
                pairs.iter().map(|p| p.0).chain(pairs.iter().map(|p| p.1)).collect();
            let mut cells = vec![name];
            for (column, v) in columns.iter_mut().zip(row) {
                column.push(v);
                cells.push(format!("{v:.2}x"));
            }
            table.row(cells);
        }
        let mut gm = vec!["GM".to_string()];
        gm.extend(columns.iter().map(|v| format!("{:.2}x", geomean(v))));
        table.row(gm);
        out.table(&format!("rules_{n}"), table);
        out.say(
            "\nPaper 500K GM: latency 2.7x/4.4x/2.6x, throughput 1.3x/2.2x/1.2x (12 cores; \
             this host: 1 core, see benchmark/README.md)\n",
        );
    }
    out
}
