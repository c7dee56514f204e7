//! The NUMA-aware sharded worker runtime: partition a rule-set along one
//! field, serve each shard from its own NuevoMatch replica behind a
//! [`ShardedHandle`], steer packets per batch, and merge per-shard verdicts
//! by priority — checksum-equivalent to one whole-set engine, but built to
//! scale past a socket (per-shard working sets, per-worker flow caches,
//! workers pinned to their shard's NUMA node).
//!
//! Also shows the control plane: one `UpdateBatch` fans out across the
//! shard replicas and publishes a single logical generation, so readers can
//! never observe half a transaction.
//!
//! ```sh
//! cargo run -p nm-bench --release --example sharded_runtime
//! ```

use nm_classbench::{generate, AppKind};
use nm_common::{FiveTuple, UpdateBatch};
use nm_trace::uniform_trace;
use nm_tuplemerge::TupleMerge;
use nuevomatch::system::parallel::run_batched;
use nuevomatch::{NuevoMatchConfig, Runtime, RuntimeConfig, ShardedHandle, Topology};

fn main() {
    let set = generate(AppKind::Acl, 10_000, 21);
    let trace = uniform_trace(&set, 100_000, 22);

    // Partition: 2 home shards, steering field auto-picked to minimise the
    // busiest worker's load (its home shard plus the broadcast shard of
    // wildcard-heavy rules every packet must consult).
    let sharded = ShardedHandle::new(&set, &NuevoMatchConfig::default(), 2, TupleMerge::build)
        .expect("sharded build");
    println!(
        "plan: {} shards over field {} ({:.1}% broadcast), logical generation {}",
        sharded.plan().shards(),
        set.spec().field(sharded.plan().dim()).name,
        sharded.plan().broadcast_fraction() * 100.0,
        sharded.generation(),
    );

    // The runtime discovers the machine shape; on a 1-CPU box it degrades
    // to unpinned scheduling (structure identical, numbers time-share).
    let topo = Topology::discover();
    println!("topology: {} NUMA node(s), {} CPU(s)", topo.nodes().len(), topo.num_cpus());
    let rt = Runtime::new(RuntimeConfig { workers_per_shard: 2, ..Default::default() });

    // Verdict equivalence is the contract: the sharded grid's checksum
    // equals a sequential whole-set pass over the very same handle.
    let seq = run_batched(&sharded, &trace, 1);
    let stats = rt.run(&sharded, &trace).expect("sharded run");
    assert_eq!(stats.checksum, seq.checksum, "sharded ≠ sequential");
    println!(
        "run: {:.2e} pps over {} workers ({} pinned), steered {:?}, checksum OK",
        stats.pps, stats.workers, stats.pinned_workers, stats.steered,
    );

    // Control plane: one transaction fans across the shards — a modify that
    // moves a rule into another shard's steering range lands as a remove on
    // the old shard and an insert on the new one, under ONE new generation.
    let g0 = sharded.generation();
    let report = sharded.apply(
        &UpdateBatch::new()
            .modify(FiveTuple::new().dst_port_range(64_000, 64_100).into_rule(17, 17))
            .insert(FiveTuple::new().dst_port_exact(64_050).into_rule(900_000, 900_000))
            .remove(23),
    );
    println!(
        "update fan-out: +{} -{} ~{} → generation {} (was {})",
        report.inserted,
        report.removed,
        report.replaced,
        sharded.generation(),
        g0,
    );

    // Retrains fan the same way: every shard folds its drift back into
    // fresh models, then one epoch publishes them together.
    let g = sharded.retrain().expect("sharded retrain");
    let stats = rt.run(&sharded, &trace).expect("post-retrain run");
    let seq = run_batched(&sharded, &trace, 1);
    assert_eq!(stats.checksum, seq.checksum, "post-retrain sharded ≠ sequential");
    println!(
        "retrain: republished at generation {g}, remainder fraction {:.2}%, checksum OK",
        sharded.remainder_fraction() * 100.0,
    );
}
