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

use nm_analysis::{geomean, Table};
use nm_bench::{nc_config, nm_cs, nm_nc, nm_tm, scale, suite};
use nm_common::{Classifier, TraceBuf};
use nm_cutsplit::CutSplit;
use nm_neurocuts::NeuroCuts;
use nm_trace::uniform_trace;
use nm_tuplemerge::TupleMerge;
use nuevomatch::system::parallel::BATCH;
use nuevomatch::system::runtime::{Replicated, SplitPlan};
use nuevomatch::{ClassifierHandle, RunStats, Runtime, RuntimeConfig};

/// Two replicated baseline instances (the §5.1 baseline mode) through the
/// worker runtime.
fn run_replicated(rt: &Runtime, c: &dyn Classifier, trace: &TraceBuf) -> RunStats {
    rt.run(&Replicated::new(c, 2), trace).expect("replicated runtime")
}

/// NuevoMatch's iSet/remainder two-worker split through the worker runtime.
fn run_two_workers<R: Classifier>(
    rt: &Runtime,
    handle: &ClassifierHandle<R>,
    trace: &TraceBuf,
) -> RunStats {
    rt.run(&SplitPlan::new(handle), trace).expect("two-worker runtime")
}

fn main() {
    let rt = Runtime::new(RuntimeConfig { batch: BATCH, ..Default::default() });
    let s = scale();
    let sizes: Vec<usize> = s.sizes.iter().copied().filter(|&n| n >= 100_000).collect();
    let sizes = if sizes.is_empty() { vec![*s.sizes.last().unwrap()] } else { sizes };

    for n in sizes {
        println!("=== Figure 8 — {n} rules, two workers, uniform traffic ===\n");
        let mut table = Table::new(&[
            "set",
            "lat-speedup/cs",
            "lat/nc",
            "lat/tm",
            "thr-speedup/cs",
            "thr/nc",
            "thr/tm",
        ]);
        let mut lat = [Vec::new(), Vec::new(), Vec::new()];
        let mut thr = [Vec::new(), Vec::new(), Vec::new()];

        for (name, set) in suite(n, &s) {
            let trace = uniform_trace(&set, s.trace_len, 0xf18 + n as u64);
            let mut lat_row = Vec::new();
            let mut thr_row = Vec::new();

            // vs CutSplit.
            {
                let cs = CutSplit::build(&set);
                let nm = nm_cs(&set);
                let base = run_replicated(&rt, &cs, &trace);
                let ours = run_two_workers(&rt, &ClassifierHandle::read_only(nm), &trace);
                lat_row.push(base.mean_batch_latency_ns / ours.mean_batch_latency_ns);
                thr_row.push(ours.pps / base.pps);
            }
            // vs NeuroCuts.
            {
                let nc = NeuroCuts::with_config(&set, nc_config(!s.full));
                let nm = nm_nc(&set, !s.full);
                let base = run_replicated(&rt, &nc, &trace);
                let ours = run_two_workers(&rt, &ClassifierHandle::read_only(nm), &trace);
                lat_row.push(base.mean_batch_latency_ns / ours.mean_batch_latency_ns);
                thr_row.push(ours.pps / base.pps);
            }
            // vs TupleMerge.
            {
                let tm = TupleMerge::build(&set);
                let nm = nm_tm(&set);
                let base = run_replicated(&rt, &tm, &trace);
                let ours = run_two_workers(&rt, &ClassifierHandle::read_only(nm), &trace);
                lat_row.push(base.mean_batch_latency_ns / ours.mean_batch_latency_ns);
                thr_row.push(ours.pps / base.pps);
            }

            for i in 0..3 {
                lat[i].push(lat_row[i]);
                thr[i].push(thr_row[i]);
            }
            table.row(vec![
                name,
                format!("{:.2}x", lat_row[0]),
                format!("{:.2}x", lat_row[1]),
                format!("{:.2}x", lat_row[2]),
                format!("{:.2}x", thr_row[0]),
                format!("{:.2}x", thr_row[1]),
                format!("{:.2}x", thr_row[2]),
            ]);
        }
        table.row(vec![
            "GM".into(),
            format!("{:.2}x", geomean(&lat[0])),
            format!("{:.2}x", geomean(&lat[1])),
            format!("{:.2}x", geomean(&lat[2])),
            format!("{:.2}x", geomean(&thr[0])),
            format!("{:.2}x", geomean(&thr[1])),
            format!("{:.2}x", geomean(&thr[2])),
        ]);
        print!("{}", table.render());
        println!(
            "\nPaper 500K GM: latency 2.7x/4.4x/2.6x, throughput 1.3x/2.2x/1.2x (12 cores; \
             this host: 1 core, see benchmark/README.md)\n"
        );
    }
}
