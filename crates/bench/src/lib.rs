//! # nm-bench — the experiment harness
//!
//! One library, one binary, one experiment per paper table/figure plus the
//! batch, shard and update sweeps:
//!
//! ```text
//! cargo run -p nm-bench --release -- --list             # the 20 names
//! cargo run -p nm-bench --release -- table1 fig9        # run some
//! cargo run -p nm-bench --release -- --json out.json all
//! ```
//!
//! Each experiment is a module under `experiments` exposing
//! `fn run(&Ctx) -> Outcome`: it reads its settings from the [`Ctx`], and
//! returns the rows/series the paper reports as [`nm_analysis::Table`]s and
//! prose, named scalars, and the checks that failed (checksum mismatches
//! between engines, fan-out accounting, verdict divergence). The
//! [`drive`]r prints the reports, writes the one `--json` document, and
//! exits nonzero when any check failed. Timing
//! *targets* (`batch`'s tree speedup, `update`'s model tracking, `fig14`'s
//! fastest iSet count) print PASS/WARN and never fail a run — timing
//! regressions are judged by `benchmark/`, whose bounds were measured.
//!
//! `NM_SCALE`, the one environment variable read, selects the workload
//! scale (any other value is a usage error):
//!
//! * `quick` (default, also when unset) — sizes up to 100K rules, 3
//!   applications, 100K-packet traces; minutes on a laptop core.
//! * `full` — the paper's 500K rule-sets, 12 applications, 700K-packet
//!   traces; budget hours on one core.
//!
//! This module holds the pieces every experiment shares: scale selection,
//! classifier constructors with the paper's §5.1 configurations, and timing
//! wrappers.

#![warn(missing_docs)]

mod driver;
mod experiments;

pub use driver::{drive, Ctx, Outcome};
pub use experiments::{Experiment, EXPERIMENTS};

use nm_common::{Classifier, FieldRange, RuleSet, TraceBuf};
use nm_cutsplit::{CutSplit, NeuroCuts, NeuroCutsConfig};
use nm_tuplemerge::TupleMerge;
use nuevomatch::system::parallel::run_batched;
use nuevomatch::{ClassifierHandle, NuevoMatch, NuevoMatchConfig, RqRmiParams};

/// Workload scale for the harness.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Rule-set sizes to sweep.
    pub sizes: Vec<usize>,
    /// Applications per size (names from the 12-app suite).
    pub apps: usize,
    /// Packets per trace.
    pub trace_len: usize,
    /// Warm-up passes before the measured pass (paper: 5 + 1).
    pub warmups: usize,
    /// Whether this is the full-paper scale.
    pub full: bool,
}

impl Scale {
    /// The scale `NM_SCALE` names: `full`, `quick` or empty (unset) for
    /// quick, `None` for anything else.
    pub fn named(name: &str) -> Option<Self> {
        let full = match name {
            "" | "quick" => false,
            "full" => true,
            _ => return None,
        };
        let mut sizes = vec![1_000, 10_000, 100_000];
        sizes.extend(full.then_some(500_000));
        Some(Scale {
            sizes,
            apps: if full { 12 } else { 3 },
            trace_len: if full { 700_000 } else { 100_000 },
            warmups: if full { 2 } else { 1 },
            full,
        })
    }

    /// The sizes the end-to-end figures run at: 100K rules and up (else the
    /// scale's largest).
    pub fn large_sizes(&self) -> Vec<usize> {
        let large: Vec<usize> = self.sizes.iter().copied().filter(|&n| n >= 100_000).collect();
        if large.is_empty() {
            self.sizes.last().copied().into_iter().collect()
        } else {
            large
        }
    }
}

/// The named application suite at one size, truncated to the scale's app
/// count (quick keeps acl1, fw1, ipc1 — one per family).
pub fn suite(n: usize, s: &Scale) -> Vec<(String, RuleSet)> {
    let all = nm_classbench::suite_12(n, 0x5eed_0000 + n as u64);
    if s.apps >= 12 {
        all
    } else {
        // One representative per family, in family order.
        let picks = ["acl1", "fw1", "ipc1"];
        all.into_iter().filter(|(name, _)| picks.contains(&name.as_str())).collect()
    }
}

/// The harness configuration with `max_isets` iSets of at least
/// `min_iset_coverage` each: RQ-RMI error threshold 64 (paper §5.1), early
/// termination on, default partial-retrain policy.
pub fn nm_config(max_isets: usize, min_iset_coverage: f64) -> NuevoMatchConfig {
    NuevoMatchConfig {
        max_isets,
        min_iset_coverage,
        rqrmi: RqRmiParams { error_target: 64, ..Default::default() },
        ..Default::default()
    }
}

/// The §5.1 configuration for a TupleMerge remainder: iSets below 5%
/// coverage discarded, 4 iSets best for tm. One definition serves both the
/// static build and the handles, so the measured-update baselines can never
/// drift from the table/figure experiments.
pub fn nm_tm_config() -> NuevoMatchConfig {
    nm_config(4, 0.05)
}

/// NuevoMatch paired with a TupleMerge remainder ([`nm_tm_config`]).
pub fn nm_tm(set: &RuleSet) -> NuevoMatch<TupleMerge> {
    NuevoMatch::build(set, &nm_tm_config(), TupleMerge::build).expect("nm/tm build")
}

/// The [`nm_tm`] configuration served through a live [`ClassifierHandle`]:
/// lock-free snapshot lookups, transactional updates, background retrains.
pub fn nm_tm_handle(set: &RuleSet) -> ClassifierHandle<TupleMerge> {
    ClassifierHandle::new(set, &nm_tm_config(), TupleMerge::build).expect("nm/tm handle build")
}

/// NuevoMatch paired with a CutSplit remainder (§5.1: 25% minimum coverage,
/// 1–2 iSets are the sweet spot).
pub fn nm_cs(set: &RuleSet) -> NuevoMatch<CutSplit> {
    NuevoMatch::build(set, &nm_config(2, 0.25), CutSplit::build).expect("nm/cs build")
}

/// NuevoMatch paired with a NeuroCuts remainder.
pub fn nm_nc(set: &RuleSet, quick: bool) -> NuevoMatch<NeuroCuts> {
    let nc_cfg = nc_config(quick);
    NuevoMatch::build(set, &nm_config(2, 0.25), |rem: &RuleSet| NeuroCuts::with_config(rem, nc_cfg))
        .expect("nm/nc build")
}

/// NeuroCuts configuration per scale (the paper gave nc a 36-hour sweep; the
/// quick harness gives the search a few dozen evaluations).
pub fn nc_config(quick: bool) -> NeuroCutsConfig {
    NeuroCutsConfig {
        iterations: if quick { 12 } else { 32 },
        sample: if quick { 2_048 } else { 4_096 },
    }
}

/// The largest iSet's projection of `set` — its rules' ranges in the iSet's
/// field, in index order, plus that field's width in bits: what one RQ-RMI
/// of the real build trains on.
pub fn largest_iset_ranges(set: &RuleSet) -> (Vec<FieldRange>, u8) {
    let part = nuevomatch::iset::partition_isets(set, 1, 0.0);
    let iset = &part.isets[0];
    let ranges = iset.rule_ids.iter().map(|&id| set.rule(id).fields[iset.dim]).collect();
    (ranges, set.spec().bits(iset.dim))
}

/// Measured per-key throughput — [`run_batched`] at batch 1: `warmups`
/// passes then one timed pass. Returns (packets/s, ns/packet, checksum).
pub fn measure_seq(c: &dyn Classifier, trace: &TraceBuf, warmups: usize) -> (f64, f64, u64) {
    for _ in 0..warmups {
        let _ = run_batched(c, trace, 1);
    }
    let stats = run_batched(c, trace, 1);
    (stats.pps, 1e9 / stats.pps.max(1e-9), stats.checksum)
}

/// Sequential-throughput speedup of `ours` over `base` on `trace`; the two
/// must have produced identical per-packet results, or `out` records it.
pub fn seq_speedup(
    out: &mut Outcome,
    base: &dyn Classifier,
    ours: &dyn Classifier,
    trace: &TraceBuf,
    warmups: usize,
) -> f64 {
    let (b, _, base_sum) = measure_seq(base, trace, warmups);
    let (o, _, ours_sum) = measure_seq(ours, trace, warmups);
    out.same_results(base.name(), base_sum, ours.name(), ours_sum);
    o / b
}
