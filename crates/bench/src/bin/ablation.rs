//! Ablations of the system's design choices.
//!
//! 1. **Early termination** (§4): query the remainder with/without the
//!    iSets' best-priority floor.
//! 2. **Flow cache front** (§5.2's OVS discussion): an exact-match cache
//!    absorbs skew; the classifier sees the miss stream, so unskewed
//!    speedups are the deployment-relevant ones.
//! 3. **Sampling mode** (train.rs docs): rank labels vs the paper-literal
//!    rejection sampling — achieved error bounds at equal budget.
//! 4. **Trainer** (nm-nn): closed-form hinge vs hinge+Adam refinement —
//!    achieved bounds and training time.
//! 5. **iSet count for a TupleMerge remainder** (§5.3.2: tm benefits from
//!    more iSets than cs).

use nm_analysis::Table;
use nm_bench::{measure_seq, rqrmi_params, scale, suite};
use nm_classbench::{generate, AppKind};
use nm_trace::{uniform_trace, zipf_trace};
use nm_tuplemerge::TupleMerge;
use nuevomatch::rqrmi::{train_rqrmi_mode, SampleMode};
use nuevomatch::system::FlowCache;
use nuevomatch::{NuevoMatch, NuevoMatchConfig, RqRmiParams, TrainerKind};
use std::time::Instant;

fn main() {
    let s = scale();
    let n = *s.sizes.last().unwrap();
    let (name, set) = suite(n, &s).into_iter().next().expect("set");
    let trace = uniform_trace(&set, s.trace_len, 0xab1a);

    // 1. Early termination.
    println!("Ablation 1 — early termination ({name}-{n}, nm w/ tm, uniform):\n");
    {
        let mut cfg = NuevoMatchConfig {
            max_isets: 4,
            min_iset_coverage: 0.05,
            rqrmi: rqrmi_params(),
            early_termination: true,
            partial_retrain: Default::default(),
        };
        let with_et = NuevoMatch::build(&set, &cfg, TupleMerge::build).unwrap();
        cfg.early_termination = false;
        let without = NuevoMatch::build(&set, &cfg, TupleMerge::build).unwrap();
        let (a, _, ca) = measure_seq(&with_et, &trace, s.warmups);
        let (b, _, cb) = measure_seq(&without, &trace, s.warmups);
        assert_eq!(ca, cb, "early termination changed results");
        println!("  with early termination:    {a:.3e} pps");
        println!("  without:                   {b:.3e} pps");
        println!("  early-termination speedup: {:.2}x\n", a / b);
    }

    // 2. Flow cache front under skew.
    println!("Ablation 2 — exact-match flow cache in front of nm w/ tm:\n");
    {
        let cfg = NuevoMatchConfig {
            max_isets: 4,
            min_iset_coverage: 0.05,
            rqrmi: rqrmi_params(),
            early_termination: true,
            partial_retrain: Default::default(),
        };
        let mut table = Table::new(&["trace", "bare pps", "cached pps", "cache hit rate"]);
        for (label, t) in [
            ("uniform", uniform_trace(&set, s.trace_len, 1)),
            ("zipf a=1.25", zipf_trace(&set, s.trace_len, 1.25, 1)),
        ] {
            let nm = NuevoMatch::build(&set, &cfg, TupleMerge::build).unwrap();
            let (bare, _, c1) = measure_seq(&nm, &t, s.warmups);
            let cached =
                FlowCache::new(NuevoMatch::build(&set, &cfg, TupleMerge::build).unwrap(), 1 << 16);
            let (fast, _, c2) = measure_seq(&cached, &t, s.warmups);
            assert_eq!(c1, c2, "cache changed results");
            table.row(vec![
                label.into(),
                format!("{bare:.3e}"),
                format!("{fast:.3e}"),
                format!("{:.1}%", cached.stats().hit_rate() * 100.0),
            ]);
        }
        print!("{}", table.render());
        println!();
    }

    // 3 + 4. Sampling mode and trainer: achieved bounds on one iSet.
    println!("Ablation 3/4 — leaf error bounds by sampling mode and trainer:\n");
    {
        let acl = generate(AppKind::Acl, n.min(50_000), 0xab34);
        let part = nuevomatch::iset::partition_isets(&acl, 1, 0.0);
        let iset = &part.isets[0];
        let ranges: Vec<nm_common::FieldRange> =
            iset.rule_ids.iter().map(|&id| acl.rule(id).fields[iset.dim]).collect();
        let bits = acl.spec().bits(iset.dim);
        let mut table = Table::new(&["configuration", "achieved bound", "train time (s)"]);
        let configs: Vec<(&str, RqRmiParams, SampleMode)> = vec![
            ("hinge + rank labels (default)", RqRmiParams::default(), SampleMode::Rank),
            ("hinge + rejection (paper-literal)", RqRmiParams::default(), SampleMode::Reject),
            (
                "hinge+adam + rank labels",
                RqRmiParams {
                    trainer: TrainerKind::HingeThenAdam(nm_nn::AdamConfig {
                        epochs: 60,
                        ..Default::default()
                    }),
                    max_attempts: 3,
                    ..Default::default()
                },
                SampleMode::Rank,
            ),
        ];
        for (label, params, mode) in configs {
            let t0 = Instant::now();
            let model = train_rqrmi_mode(&ranges, bits, &params, mode).unwrap();
            table.row(vec![
                label.into(),
                format!("{}", model.max_error_bound()),
                format!("{:.2}", t0.elapsed().as_secs_f64()),
            ]);
        }
        print!("{}", table.render());
        println!();
    }

    // 5. iSet count with a TupleMerge remainder.
    println!("Ablation 5 — iSet count, tm remainder ({name}-{n}, uniform):\n");
    {
        let mut table = Table::new(&["max iSets", "coverage", "pps"]);
        for k in [1usize, 2, 4, 6] {
            let cfg = NuevoMatchConfig {
                max_isets: k,
                min_iset_coverage: 0.0,
                rqrmi: rqrmi_params(),
                early_termination: true,
                partial_retrain: Default::default(),
            };
            let nm = NuevoMatch::build(&set, &cfg, TupleMerge::build).unwrap();
            let (pps, _, _) = measure_seq(&nm, &trace, s.warmups);
            table.row(vec![
                format!("{k}"),
                format!("{:.1}%", nm.coverage() * 100.0),
                format!("{pps:.3e}"),
            ]);
        }
        print!("{}", table.render());
        println!("\nPaper §5.3.2: tm remainders keep improving up to ~4 iSets (cs peaks at 1-2).");
    }
}
