//! Ablations of the system's design choices.
//!
//! 1. **Early termination** (§4): query the remainder with/without the
//!    iSets' best-priority floor.
//! 2. **Flow cache front** (§5.2's OVS discussion): an exact-match cache
//!    absorbs skew; the classifier sees the miss stream, so unskewed
//!    speedups are the deployment-relevant ones. Both columns are one
//!    runtime worker over the same engine, its private table off or on. The
//!    table starts cold every run and probes a whole batch before it
//!    installs, so it absorbs less than a warmed, per-key cache would: most
//!    of a skewed trace still, and on uniform traffic it only costs.
//! 3. **Sampling mode** (train.rs docs): rank labels vs the paper-literal
//!    rejection sampling — achieved error bounds at equal budget.
//! 4. **Trainer** (nm-nn): closed-form hinge vs the paper's Adam from a
//!    random init — achieved bounds and training time.
//! 5. **iSet count for a TupleMerge remainder** (§5.3.2: tm benefits from
//!    more iSets than cs).

use crate::{largest_iset_ranges, measure_seq, nm_config, nm_tm, nm_tm_config, suite};
use crate::{Ctx, Outcome};
use nm_analysis::Table;
use nm_classbench::{generate, AppKind};
use nm_common::TraceBuf;
use nm_trace::{uniform_trace, zipf_trace};
use nm_tuplemerge::TupleMerge;
use nuevomatch::rqrmi::{train_rqrmi_mode, SampleMode};
use nuevomatch::system::runtime::Replicated;
use nuevomatch::{
    NuevoMatch, NuevoMatchConfig, PinPolicy, RqRmiParams, Runtime, RuntimeConfig, TrainerKind,
};
use std::time::Instant;

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let s = &ctx.scale;
    let n = *s.sizes.last().unwrap();
    let (name, set) = suite(n, s).into_iter().next().expect("set");
    let trace = uniform_trace(&set, s.trace_len, 0xab1a);

    // 1. Early termination.
    out.say(format!("Ablation 1 — early termination ({name}-{n}, nm w/ tm, uniform):\n"));
    {
        let with_et = nm_tm(&set);
        let cfg = NuevoMatchConfig { early_termination: false, ..nm_tm_config() };
        let without = NuevoMatch::build(&set, &cfg, TupleMerge::build).unwrap();
        let (a, _, ca) = measure_seq(&with_et, &trace, s.warmups);
        let (b, _, cb) = measure_seq(&without, &trace, s.warmups);
        out.check(ca == cb, || "early termination changed results".into());
        out.say(format!("  with early termination:    {a:.3e} pps"));
        out.say(format!("  without:                   {b:.3e} pps"));
        out.say(format!("  early-termination speedup: {:.2}x\n", a / b));
    }

    // 2. Flow cache front under skew.
    out.say("Ablation 2 — per-worker exact-match flow cache in front of nm w/ tm:\n");
    {
        let nm = nm_tm(&set);
        let plan = Replicated::new(&nm, 1);
        let run = |t: &TraceBuf, flow_cache| {
            let cfg = RuntimeConfig { pin: PinPolicy::Never, flow_cache, ..Default::default() };
            Runtime::new(cfg).run(&plan, t).expect("runtime run")
        };
        let mut table = Table::new(&["trace", "bare pps", "cached pps", "cache hit rate"]);
        for (label, t) in [
            ("uniform", uniform_trace(&set, s.trace_len, 1)),
            ("zipf a=1.25", zipf_trace(&set, s.trace_len, 1.25, 1)),
        ] {
            let (bare, cached) = (run(&t, 0), run(&t, 1 << 16));
            out.check(bare.checksum == cached.checksum, || {
                format!("flow cache changed results on the {label} trace")
            });
            table.row(vec![
                label.into(),
                format!("{:.3e}", bare.pps),
                format!("{:.3e}", cached.pps),
                format!("{:.1}%", cached.cache.hit_rate() * 100.0),
            ]);
        }
        out.table("flow_cache", table);
        out.say("");
    }

    // 3 + 4. Sampling mode and trainer: achieved bounds on one iSet.
    out.say("Ablation 3/4 — leaf error bounds by sampling mode and trainer:\n");
    {
        let (ranges, bits) = largest_iset_ranges(&generate(AppKind::Acl, n.min(50_000), 0xab34));
        let mut table = Table::new(&["configuration", "achieved bound", "train time (s)"]);
        let configs: Vec<(&str, RqRmiParams, SampleMode)> = vec![
            ("hinge + rank labels (default)", RqRmiParams::default(), SampleMode::Rank),
            ("hinge + rejection (paper-literal)", RqRmiParams::default(), SampleMode::Reject),
            (
                "adam + rank labels (paper)",
                RqRmiParams {
                    trainer: TrainerKind::Adam { epochs: 60 },
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
        out.table("leaf_bounds", table);
        out.say("");
    }

    // 5. iSet count with a TupleMerge remainder.
    out.say(format!("Ablation 5 — iSet count, tm remainder ({name}-{n}, uniform):\n"));
    {
        let mut table = Table::new(&["max iSets", "coverage", "pps"]);
        for k in [1usize, 2, 4, 6] {
            let nm = NuevoMatch::build(&set, &nm_config(k, 0.0), TupleMerge::build).unwrap();
            let (pps, _, _) = measure_seq(&nm, &trace, s.warmups);
            table.row(vec![
                format!("{k}"),
                format!("{:.1}%", nm.coverage() * 100.0),
                format!("{pps:.3e}"),
            ]);
        }
        out.table("iset_count", table);
        out.say("\nPaper §5.3.2: tm remainders keep improving up to ~4 iSets (cs peaks at 1-2).");
    }
    out
}
