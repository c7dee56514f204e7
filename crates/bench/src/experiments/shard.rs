//! Sharded-runtime sweep — throughput and correctness of the NUMA-aware
//! worker runtime over shard × worker grids.
//!
//! For each application rule-set this sweeps the [`Runtime`] over
//! `shards ∈ {1, 2, 4} × workers-per-shard ∈ {1, 2}` with NuevoMatch/tm
//! replicas behind a `ShardedHandle` (range steering on an auto-picked
//! field, wildcard-heavy rules in the broadcast shard), plus a replicated
//! plan at 2 workers for the §5.1 baseline shape. **Every row's checksum is
//! checked against the per-key whole-set reference** (`run_batched` at
//! batch 1, whose throughput the `vs b=1` column divides by), so the sweep is
//! also the end-to-end proof that steering + per-shard replicas + priority
//! merge are verdict-equivalent to one engine — including after a fanned
//! `UpdateBatch`, which is applied to both the sharded and the whole-set
//! handle and re-verified. A divergence fails the run.
//!
//! One more row per set prices the runtime itself: `Replicated × 1` through
//! [`Runtime::run`] against `run_batched` on the same engine, as ns/pkt of
//! overhead (fastest of [`OVERHEAD_PASSES`] alternating passes each; the
//! dispatcher's one wake-up per batch is what it measures — see the runtime's
//! module docs). It prints PASS/WARN at ≤ [`OVERHEAD_TARGET_NS`] and never
//! fails the run: it is a timing.
//!
//! On this repository's single-core CI box the workers time-share and the
//! topology degrades to unpinned scheduling (see
//! `nuevomatch::system::runtime::topology`), so the pps columns measure
//! overhead, not scaling; the structure is what CI guards.

use crate::{nm_tm_config, nm_tm_handle, suite, Ctx, Outcome};
use nm_analysis::{Json, Table};
use nm_common::{FiveTuple, UpdateBatch};
use nm_tuplemerge::TupleMerge;
use nm_trace::uniform_trace;
use nuevomatch::system::parallel::{run_batched, BATCH};
use nuevomatch::system::runtime::Replicated;
use nuevomatch::{PinPolicy, RunStats, Runtime, RuntimeConfig, ShardedHandle};

const SHARDS: &[usize] = &[1, 2, 4];
const WORKERS: &[usize] = &[1, 2];
/// Alternating passes per side of the overhead row.
const OVERHEAD_PASSES: usize = 7;
/// ns/pkt the runtime may add to the batched loop before the row warns.
const OVERHEAD_TARGET_NS: f64 = 30.0;

/// Largest shard's packet share over the ideal equal share (1.0 = perfect
/// balance; replicated and 1-shard rows are 1.0 by definition).
fn imbalance(steered: &[u64]) -> f64 {
    let total: u64 = steered.iter().sum();
    let max = steered.iter().copied().max().unwrap_or(0);
    if total == 0 || steered.is_empty() {
        return 1.0;
    }
    max as f64 / (total as f64 / steered.len() as f64)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let s = &ctx.scale;
    // The sweep builds (1 + 2 + 4) handle grids per app; the mid-size set
    // keeps that affordable on the CI box while staying representative.
    let n = s.sizes[s.sizes.len() / 2];
    let topo = nuevomatch::Topology::discover();
    out.say(format!(
        "=== Sharded-runtime sweep — {n} rules, uniform traffic, {} NUMA node(s) / {} CPU(s) ===",
        topo.nodes().len(),
        topo.num_cpus()
    ));
    out.say("(columns in Mpps; every row checksum-checked against run_batched at batch 1)\n");

    let mut table = Table::new(&[
        "set", "mode", "shards", "workers", "Mpps", "vs b=1", "bcast%", "imbal", "pinned",
    ]);
    // One grid row; `broadcast` is the plan's broadcast fraction (sharded
    // rows only).
    let mut row = |out: &mut Outcome,
                   app: &str,
                   mode: &str,
                   stats: &RunStats,
                   per_key: &RunStats,
                   broadcast: Option<f64>| {
        out.check(stats.checksum == per_key.checksum, || {
            format!(
                "{app}: {mode} {} shard(s) x {} worker(s) diverged from the per-key reference",
                stats.shards, stats.workers
            )
        });
        table.row(vec![
            app.to_string(),
            mode.to_string(),
            format!("{}", stats.shards),
            format!("{}", stats.workers),
            format!("{:.2}", stats.pps / 1e6),
            format!("{:.2}x", stats.pps / per_key.pps.max(1e-9)),
            broadcast.map_or("-".into(), |b| format!("{:.1}", b * 100.0)),
            format!("{:.2}", imbalance(&stats.steered)),
            format!("{}", stats.pinned_workers),
        ]);
    };
    let mut overhead = Table::new(&["set", "run_batched ns/pkt", "Runtime::run ns/pkt", "overhead"]);
    let mut overheads: Vec<f64> = Vec::new();
    for (app, set) in suite(n, s) {
        let trace = uniform_trace(&set, s.trace_len, 0x5a4d + n as u64);

        for &shards in SHARDS {
            // Fresh whole-set reference per grid column: both control
            // planes receive the same update stream from the same state.
            let reference = nm_tm_handle(&set);
            let sharded = ShardedHandle::new(&set, &nm_tm_config(), shards, TupleMerge::build)
                .expect("sharded nm/tm build");
            // Fan a concrete update through both control planes before
            // measuring: the sweep then also proves the fan-out path keeps
            // the shards verdict-equivalent to the whole-set handle.
            let drift = UpdateBatch::new()
                .modify(FiveTuple::new().dst_port_range(40_000, 40_200).into_rule(3, 3))
                .insert(FiveTuple::new().dst_port_exact(61_234).into_rule(900_001, 900_001))
                .remove(11);
            let (ra, rb) = (reference.apply(&drift), sharded.apply(&drift));
            out.check(ra == rb, || format!("{app}/{shards}: fan-out accounting diverged"));
            let per_key = run_batched(&reference, &trace, 1);
            for &workers in WORKERS {
                let rt = Runtime::new(RuntimeConfig {
                    workers_per_shard: workers,
                    ..Default::default()
                });
                let stats = rt.run(&sharded, &trace).expect("sharded run");
                let broadcast = sharded.plan().broadcast_fraction();
                row(&mut out, &app, "sharded", &stats, &per_key, Some(broadcast));
            }
        }
        // Baseline shape: the replicated plan (2 whole-set workers).
        let engine = nm_tm_handle(&set);
        let rt = Runtime::new(RuntimeConfig::default());
        let stats = rt.run(&Replicated::new(&engine, 2), &trace).expect("replicated run");
        row(&mut out, &app, "replicated", &stats, &run_batched(&engine, &trace, 1), None);

        // The runtime's own price: one unpinned replicated worker against
        // the same engine's batched loop on this thread.
        let rt = Runtime::new(RuntimeConfig { pin: PinPolicy::Never, ..Default::default() });
        let (mut batched_ns, mut runtime_ns) = (f64::MAX, f64::MAX);
        for _ in 0..OVERHEAD_PASSES {
            let batched = run_batched(&engine, &trace, BATCH);
            let through = rt.run(&Replicated::new(&engine, 1), &trace).expect("replicated run");
            out.check(through.checksum == batched.checksum, || {
                format!("{app}: Replicated x 1 diverged from run_batched")
            });
            batched_ns = batched_ns.min(1e9 / batched.pps);
            runtime_ns = runtime_ns.min(1e9 / through.pps);
        }
        let over = runtime_ns - batched_ns;
        overheads.push(over);
        overhead.row(vec![
            app,
            format!("{batched_ns:.1}"),
            format!("{runtime_ns:.1}"),
            format!("{over:.1}"),
        ]);
    }
    out.table("grid", table);
    if let Some(worst) = overheads.into_iter().reduce(f64::max) {
        out.say("\nRuntime overhead: Replicated x 1 through Runtime::run vs run_batched, ns/pkt");
        out.table("overhead", overhead);
        out.say(format!(
            "{}: runtime overhead {worst:.1} ns/pkt on the worst set (target <= \
             {OVERHEAD_TARGET_NS} with a CPU to spare for the dispatcher)",
            if worst <= OVERHEAD_TARGET_NS { "PASS" } else { "WARN" }
        ));
        out.scalar("runtime_overhead_ns_per_pkt", Json::num(worst, 1));
    }
    if out.failures().is_empty() {
        out.say(
            "\nPASS: every shard x worker grid point is checksum-equivalent to the per-key \
             whole-set reference (including after a fanned update batch)",
        );
    }
    out.scalar("rules", n);
    out.scalar("numa_nodes", topo.nodes().len());
    out.scalar("cpus", topo.num_cpus());
    out
}
