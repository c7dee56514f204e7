//! Sharded-runtime sweep — throughput and correctness of the NUMA-aware
//! worker runtime over shard × worker grids.
//!
//! For each application rule-set this sweeps the [`Runtime`] over
//! `shards ∈ {1, 2, 4} × workers-per-shard ∈ {1, 2}` with NuevoMatch/tm
//! replicas behind a [`ShardedHandle`] (range steering on an auto-picked
//! field, wildcard-heavy rules in the broadcast shard), plus a replicated
//! plan at 2 workers for the §5.1 baseline shape. **Every row's checksum is
//! asserted against the sequential whole-set reference**, so the sweep is
//! also the end-to-end proof that steering + per-shard replicas + priority
//! merge are verdict-equivalent to one engine — including after a fanned
//! `UpdateBatch`, which is applied to both the sharded and the whole-set
//! handle and re-verified.
//!
//! On this repository's single-core CI box the workers time-share and the
//! topology degrades to unpinned scheduling (see
//! `nuevomatch::system::runtime::topology`), so the pps columns measure
//! overhead, not scaling; the structure is what CI guards. A
//! `BENCH_shard.json` artifact (path overridable with `NM_BENCH_JSON`)
//! captures the grid for the perf trajectory, next to `BENCH_batch.json`
//! and `BENCH_update.json`.

use nm_analysis::Table;
use nm_bench::{nm_tm_sharded, scale, suite};
use nm_common::{FiveTuple, UpdateBatch};
use nm_trace::uniform_trace;
use nm_tuplemerge::TupleMerge;
use nuevomatch::system::parallel::run_sequential;
use nuevomatch::system::runtime::Replicated;
use nuevomatch::{ClassifierHandle, Runtime, RuntimeConfig};

const SHARDS: &[usize] = &[1, 2, 4];
const WORKERS: &[usize] = &[1, 2];

struct GridRow {
    app: String,
    mode: String,
    shards: usize,
    workers: usize,
    pps: f64,
    pinned: usize,
    broadcast_fraction: f64,
    /// Largest shard's packet share over the ideal equal share (1.0 =
    /// perfect balance; RoundRobin and 1-shard rows are 1.0 by definition).
    imbalance: f64,
}

impl GridRow {
    fn json(&self, rules: usize) -> String {
        format!(
            "{{\"app\":\"{}\",\"mode\":\"{}\",\"rules\":{rules},\"shards\":{},\
             \"workers\":{},\"mpps\":{:.4},\"pinned_workers\":{},\
             \"broadcast_fraction\":{:.4},\"imbalance\":{:.3}}}",
            self.app,
            self.mode,
            self.shards,
            self.workers,
            self.pps / 1e6,
            self.pinned,
            self.broadcast_fraction,
            self.imbalance
        )
    }
}

fn imbalance(steered: &[u64]) -> f64 {
    let total: u64 = steered.iter().sum();
    let max = steered.iter().copied().max().unwrap_or(0);
    if total == 0 || steered.is_empty() {
        return 1.0;
    }
    max as f64 / (total as f64 / steered.len() as f64)
}

fn main() {
    let s = scale();
    // The sweep builds (1 + 2 + 4) handle grids per app; the mid-size set
    // keeps that affordable on the CI box while staying representative.
    let n = s.sizes[s.sizes.len() / 2];
    let want = |var: &str, name: &str| {
        std::env::var(var).map_or(true, |v| v.split(',').any(|w| w.trim() == name))
    };
    let topo = nuevomatch::Topology::discover();
    println!(
        "=== Sharded-runtime sweep — {n} rules, uniform traffic, {} NUMA node(s) / {} CPU(s) ===",
        topo.nodes().len(),
        topo.num_cpus()
    );
    println!("(columns in Mpps; every row checksum-asserted against run_sequential)\n");

    let mut table = Table::new(&[
        "set", "mode", "shards", "workers", "Mpps", "vs seq", "bcast%", "imbal", "pinned",
    ]);
    let mut rows: Vec<GridRow> = Vec::new();
    for (app, set) in suite(n, &s) {
        if !want("NM_APPS", &app) {
            continue;
        }
        let trace = uniform_trace(&set, s.trace_len, 0x5a4d + n as u64);

        for &shards in SHARDS {
            // Fresh whole-set reference per grid column: both control
            // planes receive the same update stream from the same state.
            let reference = nm_bench::nm_tm_handle(&set);
            let sharded = nm_tm_sharded(&set, shards);
            // Fan a concrete update through both control planes before
            // measuring: the sweep then also proves the fan-out path keeps
            // the shards verdict-equivalent to the whole-set handle.
            let drift = UpdateBatch::new()
                .modify(FiveTuple::new().dst_port_range(40_000, 40_200).into_rule(3, 3))
                .insert(FiveTuple::new().dst_port_exact(61_234).into_rule(900_001, 900_001))
                .remove(11);
            let ra = reference.apply(&drift);
            let rb = sharded.apply(&drift);
            assert_eq!(ra, rb, "{app}/{shards}: fan-out accounting diverged");
            let seq = run_sequential(&reference, &trace);
            for &workers in WORKERS {
                let rt = Runtime::new(RuntimeConfig {
                    workers_per_shard: workers,
                    ..Default::default()
                });
                let stats = rt.run(&sharded, &trace).expect("sharded run");
                assert_eq!(
                    stats.checksum, seq.checksum,
                    "{app}: {shards} shard(s) x {workers} worker(s) diverged from sequential"
                );
                let row = GridRow {
                    app: app.clone(),
                    mode: "sharded".into(),
                    shards: stats.shards,
                    workers: stats.workers,
                    pps: stats.pps,
                    pinned: stats.pinned_workers,
                    broadcast_fraction: sharded.plan().broadcast_fraction(),
                    imbalance: imbalance(&stats.steered),
                };
                table.row(vec![
                    app.clone(),
                    row.mode.clone(),
                    format!("{}", row.shards),
                    format!("{}", row.workers),
                    format!("{:.2}", row.pps / 1e6),
                    format!("{:.2}x", row.pps / seq.pps.max(1e-9)),
                    format!("{:.1}", row.broadcast_fraction * 100.0),
                    format!("{:.2}", row.imbalance),
                    format!("{}", row.pinned),
                ]);
                println!(
                    "BENCH {{\"bench\":\"shard\",\"app\":\"{app}\",\"mode\":\"sharded\",\
                     \"shards\":{},\"workers\":{},\"mpps\":{:.4}}}",
                    row.shards,
                    row.workers,
                    row.pps / 1e6
                );
                rows.push(row);
            }
        }
        // Baseline shape: the replicated plan (2 whole-set workers).
        let engine = ClassifierHandle::new(&set, &nm_bench::nm_tm_config(), TupleMerge::build)
            .expect("nm/tm handle");
        let rt = Runtime::new(RuntimeConfig::default());
        let stats = rt.run(&Replicated::new(&engine, 2), &trace).expect("replicated run");
        let seq = run_sequential(&engine, &trace);
        assert_eq!(stats.checksum, seq.checksum, "{app}: replicated diverged from sequential");
        let row = GridRow {
            app: app.clone(),
            mode: "replicated".into(),
            shards: stats.shards,
            workers: stats.workers,
            pps: stats.pps,
            pinned: stats.pinned_workers,
            broadcast_fraction: 0.0,
            imbalance: imbalance(&stats.steered),
        };
        table.row(vec![
            app.clone(),
            row.mode.clone(),
            format!("{}", row.shards),
            format!("{}", row.workers),
            format!("{:.2}", row.pps / 1e6),
            format!("{:.2}x", row.pps / seq.pps.max(1e-9)),
            "-".into(),
            format!("{:.2}", row.imbalance),
            format!("{}", row.pinned),
        ]);
        rows.push(row);
    }
    print!("{}", table.render());
    println!(
        "\nPASS: every shard x worker grid point is checksum-equivalent to the sequential \
         whole-set reference (including after a fanned update batch)"
    );

    let json_path = std::env::var("NM_BENCH_JSON").unwrap_or_else(|_| "BENCH_shard.json".into());
    let row_json: Vec<String> = rows.iter().map(|r| r.json(n)).collect();
    let artifact = format!(
        "{{\"rules\":{n},\"numa_nodes\":{},\"cpus\":{},\"rows\":[{}]}}\n",
        topo.nodes().len(),
        topo.num_cpus(),
        row_json.join(",")
    );
    match std::fs::write(&json_path, &artifact) {
        Ok(()) => println!("wrote {json_path}"),
        Err(e) => println!("WARN: could not write {json_path}: {e}"),
    }
}
