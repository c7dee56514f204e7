//! # nm-bench — the experiment harness
//!
//! One binary per paper table/figure:
//!
//! ```text
//! cargo run -p nm-bench --release --bin table1       # … table2, table3
//! cargo run -p nm-bench --release --bin fig7         # … fig8 … fig17
//! cargo run -p nm-bench --release --bin fields contention search_dist
//! cargo run -p nm-bench --release --bin update_bench # measured Figure 7
//! ```
//!
//! `update_bench` is the live counterpart to `fig7`: it drives a
//! `ClassifierHandle` with a paced update stream plus background retrains,
//! measures the throughput-vs-time curve a lock-free reader actually sees,
//! and validates it against the analytic §3.9 model.
//!
//! Every binary prints the same rows/series the paper reports. The `NM_SCALE`
//! environment variable selects the workload scale:
//!
//! * `quick` (default) — sizes up to 100K rules, 3 applications, 100K-packet
//!   traces; minutes on a laptop core.
//! * `full` — the paper's 500K rule-sets, 12 applications, 700K-packet
//!   traces; budget hours on one core.
//!
//! This module holds the pieces every binary shares: scale selection,
//! classifier constructors with the paper's §5.1 configurations, and timing
//! wrappers.
//!
//! ## The batch sweep (`--bin batch`)
//!
//! `cargo run -p nm-bench --release --bin batch` sweeps the batched lookup
//! pipeline over batch sizes 1/8/32/128/512 (single core, uniform traffic)
//! for **every batched engine** — NuevoMatch, TupleMerge, CutSplit and
//! NeuroCuts — and prints both a table and machine-readable `BENCH {...}`
//! json lines, plus a divergent-leaf microbench (gather kernel vs
//! per-packet broadcast vs the shared kernel). The whole run is written to
//! a `BENCH_batch.json` artifact (`NM_BENCH_JSON` overrides the path;
//! uploaded by CI) so the batched data plane's perf trajectory is tracked
//! over time. It honours `NM_SCALE` like every other binary: `quick`
//! (default) runs the three-application suite at the largest quick size;
//! `NM_SCALE=full` runs the 12-application 500K-rule suite — budget
//! accordingly. `NM_APPS`/`NM_ENGINES` (comma-separated) focus a rerun on
//! a subset; `NM_STRICT=1` turns the perf targets into hard failures.
//! Columns report Mpps through `run_batched` (the `classify_batch` path);
//! the `seq` column is the per-key `classify` loop for reference, and
//! every batched row's checksum is asserted equal to it, so the sweep
//! doubles as a batch/scalar equivalence check on real traffic.

#![warn(missing_docs)]

pub mod update;

use nm_common::{Classifier, RuleSet, ShardPlanConfig, ShardStrategy, TraceBuf};
use nm_cutsplit::CutSplit;
use nm_neurocuts::{NeuroCuts, NeuroCutsConfig};
use nm_tuplemerge::TupleMerge;
use nuevomatch::{ClassifierHandle, NuevoMatch, NuevoMatchConfig, RqRmiParams, ShardedHandle};

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

/// Reads `NM_SCALE` (`quick` | `full`).
pub fn scale() -> Scale {
    match std::env::var("NM_SCALE").as_deref() {
        Ok("full") => Scale {
            sizes: vec![1_000, 10_000, 100_000, 500_000],
            apps: 12,
            trace_len: 700_000,
            warmups: 2,
            full: true,
        },
        _ => Scale {
            sizes: vec![1_000, 10_000, 100_000],
            apps: 3,
            trace_len: 100_000,
            warmups: 1,
            full: false,
        },
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

/// RQ-RMI parameters used by every harness build (paper §5.1: error
/// threshold 64).
pub fn rqrmi_params() -> RqRmiParams {
    RqRmiParams { error_target: 64, ..Default::default() }
}

/// The §5.1 configuration for a TupleMerge remainder: iSets below 5%
/// coverage discarded, 4 iSets best for tm. One definition serves both the
/// static build and the handle, so the measured-update baselines can never
/// drift from the table/figure benches.
pub fn nm_tm_config() -> NuevoMatchConfig {
    NuevoMatchConfig {
        max_isets: 4,
        min_iset_coverage: 0.05,
        rqrmi: rqrmi_params(),
        early_termination: true,
        partial_retrain: Default::default(),
    }
}

/// NuevoMatch paired with a TupleMerge remainder ([`nm_tm_config`]).
pub fn nm_tm(set: &RuleSet) -> NuevoMatch<TupleMerge> {
    NuevoMatch::build(set, &nm_tm_config(), TupleMerge::build).expect("nm/tm build")
}

/// The [`nm_tm`] configuration served through a live [`ClassifierHandle`]:
/// lock-free snapshot readers, transactional updates, background retrains.
/// `--bin update_bench` and the update-soak jobs go through this.
pub fn nm_tm_handle(set: &RuleSet) -> ClassifierHandle<TupleMerge> {
    ClassifierHandle::new(set, &nm_tm_config(), TupleMerge::build).expect("nm/tm handle build")
}

/// The [`nm_tm`] configuration sharded `shards` ways (range steering on an
/// auto-picked field, wildcard-heavy rules in the broadcast shard) behind
/// per-shard handle replicas — what `--bin shard` sweeps and the CI
/// sharded-runtime smoke drives.
pub fn nm_tm_sharded(set: &RuleSet, shards: usize) -> ShardedHandle<TupleMerge> {
    let plan = ShardPlanConfig { shards, dim: None, strategy: ShardStrategy::Range };
    ShardedHandle::new(set, &nm_tm_config(), &plan, TupleMerge::build).expect("sharded nm/tm build")
}

/// NuevoMatch paired with a CutSplit remainder (§5.1: 25% minimum coverage,
/// 1–2 iSets are the sweet spot).
pub fn nm_cs(set: &RuleSet) -> NuevoMatch<CutSplit> {
    let cfg = NuevoMatchConfig {
        max_isets: 2,
        min_iset_coverage: 0.25,
        rqrmi: rqrmi_params(),
        early_termination: true,
        partial_retrain: Default::default(),
    };
    NuevoMatch::build(set, &cfg, CutSplit::build).expect("nm/cs build")
}

/// NuevoMatch paired with a NeuroCuts remainder.
pub fn nm_nc(set: &RuleSet, quick: bool) -> NuevoMatch<NeuroCuts> {
    let cfg = NuevoMatchConfig {
        max_isets: 2,
        min_iset_coverage: 0.25,
        rqrmi: rqrmi_params(),
        early_termination: true,
        partial_retrain: Default::default(),
    };
    let nc_cfg = nc_config(quick);
    NuevoMatch::build(set, &cfg, |rem: &RuleSet| NeuroCuts::with_config(rem, nc_cfg))
        .expect("nm/nc build")
}

/// NeuroCuts configuration per scale (the paper gave nc a 36-hour sweep; the
/// quick harness gives the search a few dozen evaluations).
pub fn nc_config(quick: bool) -> NeuroCutsConfig {
    NeuroCutsConfig {
        iterations: if quick { 12 } else { 32 },
        sample: if quick { 2_048 } else { 4_096 },
        ..Default::default()
    }
}

/// Measured sequential throughput: `warmups` passes then one timed pass.
/// Returns (packets/s, ns/packet, checksum).
pub fn measure_seq(c: &dyn Classifier, trace: &TraceBuf, warmups: usize) -> (f64, f64, u64) {
    for _ in 0..warmups {
        let _ = nuevomatch::system::parallel::run_sequential(c, trace);
    }
    let stats = nuevomatch::system::parallel::run_sequential(c, trace);
    (stats.pps, 1e9 / stats.pps.max(1e-9), stats.checksum)
}

/// Sanity assertion used by every end-to-end binary: two engines must have
/// produced identical per-packet results on the measured trace.
pub fn assert_same_results(name_a: &str, a: u64, name_b: &str, b: u64) {
    assert_eq!(a, b, "{name_a} and {name_b} disagree on the trace — correctness bug");
}
