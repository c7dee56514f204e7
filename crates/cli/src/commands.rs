//! Subcommand implementations.

use crate::args::{Args, ParsedCommand};
use nm_analysis::{centrality_1d, diversity, Json, Table};
use nm_classbench::{generate, parse_classbench, AppKind};
use nm_common::memsize::human_bytes;
use nm_common::{fivetuple, Classifier, FiveTuple, LinearSearch, Rule, RuleSet};
use nm_common::{UpdateBatch, UpdateOp};
use nm_cutsplit::{CutSplit, NeuroCuts, NeuroCutsConfig};
use nm_trace::{caida_like_trace, uniform_trace, zipf_trace};
use nm_tuplemerge::{TupleMerge, TupleSpaceSearch};
use nuevomatch::system::parallel::{run_batched, run_sequential};
use nuevomatch::system::runtime::{PinPolicy, RunStats, Runtime, RuntimeConfig, ShardedClassifier};
use nuevomatch::{NuevoMatch, NuevoMatchConfig, ShardedHandle, Topology};
use nuevomatch::{OracleTable, ServeClient, ServeConfig, ServePlane, Server, Transport};

/// Usage text.
pub const HELP: &str = "\
nmctl — NuevoMatch reproduction toolkit

USAGE:
  nmctl generate --kind <acl|fw|ipc> [--rules N] [--seed S]        # ClassBench text to stdout
  nmctl inspect  <rules.cb>                                        # structure metrics
  nmctl bench    <rules.cb> [--engine E] [--trace T] [--packets N] [--batch B] [--json true]
                 [--shards S] [--workers W] [--pin true|false]     # sharded worker runtime
  nmctl classify <rules.cb> --key a.b.c.d,a.b.c.d,sport,dport,proto
  nmctl train    <rules.cb> --out <model.rqrmi>                    # persist largest-iSet RQ-RMI
  nmctl serve    <rules.cb> [--seconds S] [--readers K] [--update-rate U]
                 [--retrain-every R] [--batch B] [--json true]     # wire service + live updates
                 [--listen IP:PORT] [--transport udp|tcp|both] [--max-batch N]
                 [--deadline-us D] [--validate-every N]            # micro-batching + oracle
                 [--udp-readers N]                                 # SO_REUSEPORT reader fleet
                 [--shards S] [--pin true|false]                   # sharded handle replicas

engines: linear tss tm cs nc nm-tm nm-cs nm-nc     traces: uniform zipf:<alpha> caida
        (tm/cs/nc also accept tuplemerge/cutsplit/neurocuts; with --batch B > 1
         every engine takes its batched pipeline — tm's table-major probe, the
         cs/nc level-synchronous tree descent, nm's phase pipeline)
sharding: --shards S > 1 partitions the rule-set (range steering on an
        auto-picked field, wildcard-heavy rules broadcast) with one engine
        replica per shard; --workers W threads per shard; --pin pins each
        shard's workers to one NUMA node's CPUs (no-op on 1-CPU machines —
        the runtime degrades to unpinned there). bench and serve run the
        same sharded plane: bench over engines built once, serve over
        per-shard NuevoMatch replicas in one publication cell, fanning its
        update stream across them and publishing one epoch per logical
        generation — the broadcast shard included, so a wildcard inserted
        later is served (--shards 1, the default, is the one-replica case
        of the same control plane).
serving: serve binds real loopback sockets (--listen, port 0 = ephemeral):
        length-prefixed key frames in, (rule, priority, generation) verdicts
        out. Requests micro-batch per reader — flush at --max-batch, after
        --deadline-us, or once the socket is empty and nobody else is
        expected inside the deadline — and every batch classifies against
        one pinned generation. --udp-readers N serves UDP from N reader
        threads, each on a private SO_REUSEPORT socket with batched
        recvmmsg/sendmmsg I/O (the kernel hashes flows across them; falls
        back to one shared socket where REUSEPORT is unavailable).
        --readers K drives K loopback *client* threads against the service;
        --json reports measured p50/p99/p99.9 wire service latency plus
        syscalls-per-packet and the per-UDP-reader request spread. 1 in
        --validate-every verdicts (default 16 in debug builds, 0 = off in
        release) is replayed against a LinearSearch oracle at the pinned
        generation; any mismatch makes serve exit 1.
";

/// Runs a parsed command, returning the text to print (errors as `Err`).
pub fn run(cmd: ParsedCommand) -> Result<String, String> {
    match cmd {
        ParsedCommand::Help => Ok(HELP.to_string()),
        ParsedCommand::Generate(a) => cmd_generate(&a),
        ParsedCommand::Inspect(a) => cmd_inspect(&a),
        ParsedCommand::Bench(a) => cmd_bench(&a),
        ParsedCommand::Classify(a) => cmd_classify(&a),
        ParsedCommand::Train(a) => cmd_train(&a),
        ParsedCommand::Serve(a) => cmd_serve(&a),
    }
}

fn load_rules(a: &Args) -> Result<RuleSet, String> {
    let path = a.positional.first().ok_or_else(|| "expected a rule file argument".to_string())?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    parse_classbench(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn cmd_generate(a: &Args) -> Result<String, String> {
    let kind = match a.get_or("kind", "acl") {
        "acl" => AppKind::Acl,
        "fw" => AppKind::Fw,
        "ipc" => AppKind::Ipc,
        other => return Err(format!("unknown --kind '{other}' (acl|fw|ipc)")),
    };
    let rules: usize = a.num_or("rules", 1_000)?;
    let seed: u64 = a.num_or("seed", 1)?;
    let set = generate(kind, rules, seed);
    Ok(nm_classbench::parse::to_classbench(&set))
}

fn cmd_inspect(a: &Args) -> Result<String, String> {
    let set = load_rules(a)?;
    let mut out = format!("rules: {}   fields: {}\n\n", set.len(), set.num_fields());
    let mut table = Table::new(&["field", "bits", "diversity", "centrality(1-D)"]);
    for d in 0..set.num_fields() {
        table.row(vec![
            set.spec().field(d).name.clone(),
            format!("{}", set.spec().bits(d)),
            format!("{:.3}", diversity(&set, d)),
            format!("{}", centrality_1d(&set, d)),
        ]);
    }
    out.push_str(&table.render());
    // Port-class and protocol census for 5-tuple sets.
    if set.num_fields() == 5 {
        let c = nm_common::stats::PortClassCensus::of(&set, nm_common::DST_PORT);
        out.push_str(&format!(
            "\ndst-port classes: WC {} / HI {} / LO {} / EM {} / AR {}\n",
            c.wildcard, c.high, c.low, c.exact, c.arbitrary
        ));
        let protos = nm_common::stats::protocol_census(&set, nm_common::PROTO);
        let top: Vec<String> = protos
            .iter()
            .take(4)
            .map(|&(p, n)| match p {
                256 => format!("* x{n}"),
                257 => format!("range x{n}"),
                v => format!("{v} x{n}"),
            })
            .collect();
        out.push_str(&format!("protocols: {}\n", top.join(", ")));
    }
    let curve = nuevomatch::iset::coverage_curve(&set, 4);
    out.push_str(&format!(
        "\niSet coverage (1..4): {:.1}% {:.1}% {:.1}% {:.1}%\n",
        curve[0] * 100.0,
        curve[1] * 100.0,
        curve[2] * 100.0,
        curve[3] * 100.0
    ));
    Ok(out)
}

fn build_engine(name: &str, set: &RuleSet) -> Result<Box<dyn Classifier>, String> {
    let nm_cfg = NuevoMatchConfig::default();
    Ok(match name {
        "linear" => Box::new(nm_common::LinearSearch::build(set)),
        "tss" => Box::new(TupleSpaceSearch::build(set)),
        "tm" | "tuplemerge" => Box::new(TupleMerge::build(set)),
        "cs" | "cutsplit" => Box::new(CutSplit::build(set)),
        "nc" | "neurocuts" => {
            Box::new(NeuroCuts::with_config(set, NeuroCutsConfig { iterations: 12, sample: 2_048 }))
        }
        "nm-tm" => {
            Box::new(NuevoMatch::build(set, &nm_cfg, TupleMerge::build).map_err(|e| e.to_string())?)
        }
        "nm-cs" => {
            Box::new(NuevoMatch::build(set, &nm_cfg, CutSplit::build).map_err(|e| e.to_string())?)
        }
        "nm-nc" => Box::new(
            NuevoMatch::build(set, &nm_cfg, |rem: &RuleSet| {
                NeuroCuts::with_config(rem, NeuroCutsConfig { iterations: 12, sample: 2_048 })
            })
            .map_err(|e| e.to_string())?,
        ),
        other => return Err(format!("unknown --engine '{other}'")),
    })
}

fn cmd_bench(a: &Args) -> Result<String, String> {
    let set = load_rules(a)?;
    let engine_name = a.get_or("engine", "nm-tm").to_string();
    let packets: usize = a.num_or("packets", 100_000)?;
    let seed: u64 = a.num_or("seed", 1)?;
    let trace_spec = a.get_or("trace", "uniform");
    let trace = if trace_spec == "uniform" {
        uniform_trace(&set, packets, seed)
    } else if trace_spec == "caida" {
        caida_like_trace(&set, packets, seed)
    } else if let Some(alpha) = trace_spec.strip_prefix("zipf:") {
        let alpha: f64 = alpha.parse().map_err(|_| format!("bad zipf alpha '{alpha}'"))?;
        zipf_trace(&set, packets, alpha, seed)
    } else {
        return Err(format!("unknown --trace '{trace_spec}'"));
    };

    let batch: usize = a.num_or("batch", 1)?;
    let json: bool = a.num_or("json", false)?;
    let shards: usize = a.num_or("shards", 1)?;
    let workers: usize = a.num_or("workers", 1)?;
    let pin: bool = a.num_or("pin", true)?;
    if shards == 0 || workers == 0 {
        return Err("--shards and --workers must be >= 1".into());
    }

    // `--shards`/`--workers` route through the worker runtime: one engine
    // replica per shard (range steering, broadcast shard for wildcard-heavy
    // rules), workers pinned per NUMA node unless --pin false. Engines are
    // built per subset up front so an unknown engine name (or a failing
    // build) surfaces as an error, not a panic inside a builder closure.
    if shards > 1 || workers > 1 {
        let t0 = std::time::Instant::now();
        let plan = nm_common::ShardPlan::build(&set, shards).map_err(|e| e.to_string())?;
        let (home_sets, broadcast_set) = plan.subsets(&set);
        let home = home_sets
            .iter()
            .map(|s| build_engine(&engine_name, s))
            .collect::<Result<Vec<_>, _>>()?;
        let broadcast = if broadcast_set.is_empty() {
            None
        } else {
            Some(build_engine(&engine_name, &broadcast_set)?)
        };
        let sharded =
            ShardedClassifier::from_parts(plan, home, broadcast).map_err(|e| e.to_string())?;
        let build_s = t0.elapsed().as_secs_f64();
        let rt = Runtime::new(RuntimeConfig {
            batch: batch.max(1),
            workers_per_shard: workers,
            pin: if pin { PinPolicy::Numa } else { PinPolicy::Never },
            ..Default::default()
        });
        let stats = rt.run(&sharded, &trace).map_err(|e| e.to_string())?;
        if json {
            let broadcast = Some(sharded.plan().broadcast_fraction());
            let batch = batch.max(1);
            return Ok(bench_json(
                &engine_name,
                &set,
                build_s,
                &sharded,
                &trace,
                batch,
                &stats,
                broadcast,
            ));
        }
        return Ok(format!(
            "engine: {} (sharded runtime)\nrules: {}\nbuild time: {:.2}s\nindex memory: {}\n\
             packets: {}\nbatch: {}\nshards: {} (broadcast {:.1}%)\nworkers: {} ({} pinned)\n\
             throughput: {:.3e} pps ({:.0} ns/packet)\n",
            engine_name,
            set.len(),
            build_s,
            human_bytes(sharded.memory_bytes()),
            trace.len(),
            batch.max(1),
            stats.shards,
            sharded.plan().broadcast_fraction() * 100.0,
            stats.workers,
            stats.pinned_workers,
            stats.pps,
            1e9 / stats.pps.max(1e-9),
        ));
    }

    let t0 = std::time::Instant::now();
    let engine = build_engine(&engine_name, &set)?;
    let build_s = t0.elapsed().as_secs_f64();
    // --batch 1 (default) is the per-key reference loop; larger sizes go
    // through the engine's batched pipeline (`classify_batch`).
    let stats = if batch <= 1 {
        run_sequential(engine.as_ref(), &trace)
    } else {
        run_batched(engine.as_ref(), &trace, batch)
    };
    if json {
        let engine = engine.as_ref();
        return Ok(bench_json(&engine_name, &set, build_s, engine, &trace, batch, &stats, None));
    }
    Ok(format!(
        "engine: {}\nrules: {}\nbuild time: {:.2}s\nindex memory: {}\npackets: {}\nbatch: {}\nthroughput: {:.3e} pps ({:.0} ns/packet)\ngeneration: {}\n",
        engine_name,
        set.len(),
        build_s,
        human_bytes(engine.memory_bytes()),
        trace.len(),
        batch,
        stats.pps,
        1e9 / stats.pps.max(1e-9),
        engine.generation(),
    ))
}

/// `bench --json`: one object, shape-compatible with `serve --json` (static
/// benches report generation 0 and update_rate 0). `broadcast_fraction` is
/// the shard plan's when the run went through the sharded worker runtime;
/// the plain loops run on the caller's thread — one shard, one worker,
/// nothing pinned.
#[allow(clippy::too_many_arguments)]
fn bench_json(
    engine_name: &str,
    set: &RuleSet,
    build_s: f64,
    engine: &dyn Classifier,
    trace: &nm_common::TraceBuf,
    batch: usize,
    stats: &RunStats,
    broadcast_fraction: Option<f64>,
) -> String {
    let (shards, workers, pinned_workers, broadcast_fraction) = match broadcast_fraction {
        Some(f) => (stats.shards, stats.workers, stats.pinned_workers, Json::num(f, 4)),
        None => (1, 1, 0, Json::num(0.0, 1)),
    };
    let doc = Json::obj([
        ("engine", engine_name.into()),
        ("rules", set.len().into()),
        ("build_s", Json::num(build_s, 3)),
        ("memory_bytes", engine.memory_bytes().into()),
        ("packets", trace.len().into()),
        ("batch", batch.into()),
        ("pps", Json::num(stats.pps, 1)),
        ("ns_per_packet", Json::num(1e9 / stats.pps.max(1e-9), 1)),
        ("generation", engine.generation().into()),
        ("update_rate", Json::num(0.0, 1)),
        ("shards", shards.into()),
        ("workers", workers.into()),
        ("pinned_workers", pinned_workers.into()),
        ("broadcast_fraction", broadcast_fraction),
    ]);
    format!("{doc}\n")
}

fn cmd_classify(a: &Args) -> Result<String, String> {
    let set = load_rules(a)?;
    let key = parse_key(a.require("key")?)?;
    let engine = build_engine(a.get_or("engine", "nm-tm"), &set)?;
    Ok(match engine.classify(&key) {
        Some(m) => format!("match: rule {} (priority {})\n", m.rule, m.priority),
        None => "no match\n".to_string(),
    })
}

fn cmd_train(a: &Args) -> Result<String, String> {
    let set = load_rules(a)?;
    let out_path = a.require("out")?;
    let part = nuevomatch::iset::partition_isets(&set, 1, 0.0);
    let iset = part.isets.first().ok_or_else(|| "no iSet could be formed".to_string())?;
    let ranges: Vec<nm_common::FieldRange> =
        iset.rule_ids.iter().map(|&id| set.rule(id).fields[iset.dim]).collect();
    let bits = set.spec().bits(iset.dim);
    let t0 = std::time::Instant::now();
    let model = nuevomatch::train_rqrmi(&ranges, bits, &nuevomatch::RqRmiParams::default())
        .map_err(|e| e.to_string())?;
    let dt = t0.elapsed().as_secs_f64();
    let bytes = nuevomatch::save_rqrmi(&model);
    std::fs::write(out_path, &bytes).map_err(|e| format!("writing {out_path}: {e}"))?;
    Ok(format!(
        "trained RQ-RMI over field '{}' ({} of {} rules, {:.1}% coverage) in {:.2}s\n\
         worst error bound: {}\nmodel: {} -> {}\n",
        set.spec().field(iset.dim).name,
        iset.len(),
        set.len(),
        100.0 * iset.len() as f64 / set.len() as f64,
        dt,
        model.max_error_bound(),
        human_bytes(bytes.len()),
        out_path,
    ))
}

/// Builds one transaction of the update stream `serve` replays: `ops`
/// existing rules modified to fresh random dst-port ranges, so every op
/// drifts one rule from its iSet to the remainder (the worst case for §3.9,
/// and the one Figure 7 models).
fn drift_batch(set: &RuleSet, rng: &mut nm_common::SplitMix64, ops: usize) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    for _ in 0..ops {
        let rule = set.rule_at(rng.below(set.len() as u64) as usize);
        let lo = rng.below(60_000) as u16;
        batch = batch.modify(
            FiveTuple::new()
                .dst_port_range(lo, lo.saturating_add(200))
                .into_rule(rule.id, rule.priority),
        );
    }
    batch
}

/// Folds an update batch into the oracle's rule truth (upsert on id).
fn apply_truth(truth: &mut std::collections::HashMap<u32, Rule>, batch: &UpdateBatch) {
    for op in batch.ops() {
        match op {
            UpdateOp::Insert(r) | UpdateOp::Modify(r) => {
                truth.insert(r.id, r.clone());
            }
            UpdateOp::Remove(id) => {
                truth.remove(id);
            }
        }
    }
}

/// Ground truth the serve updater publishes into the validator's
/// [`OracleTable`] whenever the served generation moves.
struct OracleTruth {
    rules: Option<std::collections::HashMap<u32, Rule>>,
    last_published: Option<u64>,
}

impl OracleTruth {
    /// Seeds the truth from the initial rule-set (`None` when sampling is
    /// off — release builds by default).
    fn new(enabled: bool, set: &RuleSet) -> Self {
        let rules = enabled.then(|| set.rules().iter().map(|r| (r.id, r.clone())).collect());
        Self { rules, last_published: None }
    }

    fn absorb(&mut self, batch: &UpdateBatch) {
        if let Some(t) = self.rules.as_mut() {
            apply_truth(t, batch);
        }
    }

    /// Publishes the current truth at `generation` if that generation has
    /// not been published yet. Generations skipped between calls (a pacer
    /// applying several batches per tick) are simply never published — the
    /// validator counts samples at those generations as skipped, never as
    /// mismatches.
    fn publish(&mut self, oracle: &OracleTable, generation: u64) {
        let Some(t) = self.rules.as_ref() else { return };
        if self.last_published == Some(generation) {
            return;
        }
        oracle.publish(generation, LinearSearch::from_rules(t.values().cloned().collect()));
        self.last_published = Some(generation);
    }
}

/// What one wire-serving run produced, for the report.
struct WireOutcome {
    stats: nuevomatch::ServeStats,
    driver_served: u64,
    driver_timeouts: u64,
    updates_applied: u64,
    retrains: u64,
    udp_addr: Option<std::net::SocketAddr>,
    tcp_addr: Option<std::net::SocketAddr>,
    tcp_drivers: usize,
    /// Per-UDP-reader snapshots (taken before shutdown), for the spread
    /// report — a skewed reader is a flow-steering problem percentile
    /// folds would hide.
    udp_reader_stats: Vec<nuevomatch::ServeStats>,
}

/// One loopback load-driver thread: windows of trace keys out, verdicts
/// back, closed-loop. Returns (verdicts received, receive timeouts).
fn drive_clients(
    addr: std::net::SocketAddr,
    udp: bool,
    trace: &nm_common::TraceBuf,
    window: usize,
    stop: &std::sync::atomic::AtomicBool,
) -> (u64, u64) {
    let client = if udp { ServeClient::udp(addr) } else { ServeClient::tcp(addr) };
    let Ok(mut client) = client else { return (0, 0) };
    let (raw, stride, n) = (trace.raw(), trace.stride(), trace.len());
    let window = window.clamp(1, 512);
    let (mut served, mut timeouts) = (0u64, 0u64);
    let mut lo = 0usize;
    'outer: while !stop.load(std::sync::atomic::Ordering::Relaxed) {
        let hi = (lo + window).min(n);
        if client.send_batch(lo as u64, &raw[lo * stride..hi * stride], stride).is_err() {
            break;
        }
        let want = hi - lo;
        let mut got = 0usize;
        while got < want {
            match client.recv(Some(std::time::Duration::from_millis(100))) {
                Ok(frames) if frames.is_empty() => break 'outer, // clean TCP EOF
                Ok(frames) => got += frames.len(),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    // Lost datagram (UDP has no delivery guarantee even on
                    // loopback) or a slow flush; resend from the next window.
                    timeouts += 1;
                    break;
                }
                Err(_) => break 'outer,
            }
        }
        served += got as u64;
        lo = if hi >= n { 0 } else { hi };
    }
    (served, timeouts)
}

/// Starts a [`Server`] over `plane`, drives it with `readers` loopback
/// client threads replaying `trace`, and runs `updater` (the update /
/// retrain / oracle-publishing loop, which also decides the duration) on
/// the calling thread. Returns once everything drained.
fn serve_wire<P, U>(
    plane: P,
    scfg: &ServeConfig,
    trace: &nm_common::TraceBuf,
    readers: usize,
    window: usize,
    updater: U,
) -> Result<WireOutcome, String>
where
    P: ServePlane,
    U: FnOnce(&OracleTable) -> (u64, u64),
{
    let server =
        Server::start(plane, scfg).map_err(|e| format!("serve: binding {}: {e}", scfg.listen))?;
    let (udp_addr, tcp_addr) = (server.udp_addr(), server.tcp_addr());
    let oracle = server.oracle();
    let stop = std::sync::atomic::AtomicBool::new(false);
    let mut driver_served = 0u64;
    let mut driver_timeouts = 0u64;
    let mut tcp_drivers = 0usize;
    let mut counts = (0u64, 0u64);
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for r in 0..readers.max(1) {
            let use_udp = match scfg.transport {
                Transport::Udp => true,
                Transport::Tcp => false,
                Transport::Both => r % 2 == 0,
            };
            tcp_drivers += usize::from(!use_udp);
            let addr = if use_udp { udp_addr } else { tcp_addr }.expect("transport bound");
            let stop = &stop;
            joins.push(scope.spawn(move || drive_clients(addr, use_udp, trace, window, stop)));
        }
        counts = updater(&oracle);
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        for j in joins {
            let (s, t) = j.join().expect("load driver panicked");
            driver_served += s;
            driver_timeouts += t;
        }
    });
    let udp_reader_stats = server
        .per_reader_stats()
        .into_iter()
        .filter(|(kind, _)| *kind == nuevomatch::system::serve::ReaderKind::Udp)
        .map(|(_, st)| st)
        .collect();
    let stats = server.shutdown();
    Ok(WireOutcome {
        stats,
        driver_served,
        driver_timeouts,
        updates_applied: counts.0,
        retrains: counts.1,
        udp_addr,
        tcp_addr,
        tcp_drivers,
        udp_reader_stats,
    })
}

fn cmd_serve(a: &Args) -> Result<String, String> {
    let set = load_rules(a)?;
    if set.is_empty() {
        return Err("serve: the rule file holds no rules (nothing to update or classify)".into());
    }
    let seconds: f64 = a.num_or("seconds", 2.0)?;
    let readers: usize = a.num_or("readers", 2)?;
    let update_rate: f64 = a.num_or("update-rate", 1_000.0)?;
    let retrain_every: f64 = a.num_or("retrain-every", 0.0)?;
    let batch: usize = a.num_or("batch", 128)?;
    let packets: usize = a.num_or("packets", 50_000)?;
    let seed: u64 = a.num_or("seed", 1)?;
    let json: bool = a.num_or("json", false)?;
    let shards: usize = a.num_or("shards", 1)?;
    let pin: bool = a.num_or("pin", true)?;
    if shards == 0 {
        return Err("--shards must be >= 1".into());
    }
    let mut scfg = ServeConfig {
        listen: a
            .get_or("listen", "127.0.0.1:0")
            .parse()
            .map_err(|e| format!("bad --listen address: {e}"))?,
        transport: a.get_or("transport", "both").parse()?,
        max_batch: a.num_or("max-batch", 128usize)?.max(1),
        deadline: std::time::Duration::from_micros(a.num_or("deadline-us", 20u64)?),
        stride: set.num_fields(),
        udp_readers: a.num_or("udp-readers", 1usize)?.clamp(1, 64),
        pin,
        ..ServeConfig::default()
    };
    scfg.validate_every = a.num_or("validate-every", scfg.validate_every)?;

    let trace = uniform_trace(&set, packets, seed);
    let t0 = std::time::Instant::now();
    // One control plane whatever the shard count: per-shard replicas in one
    // publication cell (one replica when `--shards 1`).
    let serve = ShardedHandle::new(&set, &NuevoMatchConfig::default(), shards, TupleMerge::build)
        .map_err(|e| e.to_string())?;
    let build_s = t0.elapsed().as_secs_f64();

    let ops_per_batch = 16usize;
    let validate = scfg.validate_every > 0;
    let mut rng = nm_common::SplitMix64::new(seed ^ 0xdead_beef);
    let start = std::time::Instant::now();
    // Paced fan-out applies; retrains fan across every shard on a background
    // thread, so a multi-second retrain neither stalls this updater loop nor
    // overshoots the requested duration — the serve path keeps pinning
    // coherent epochs.
    let wire = serve_wire(serve.clone(), &scfg, &trace, readers, batch, |oracle| {
        let mut truth = OracleTruth::new(validate, &set);
        truth.publish(oracle, serve.generation());
        let interval = (update_rate > 0.0)
            .then(|| std::time::Duration::from_secs_f64(ops_per_batch as f64 / update_rate));
        let mut next_fire = std::time::Instant::now();
        let mut last_retrain = std::time::Instant::now();
        let mut retrain_joins = Vec::new();
        let mut applied = 0u64;
        while start.elapsed().as_secs_f64() < seconds {
            match interval {
                Some(dt) if std::time::Instant::now() >= next_fire => {
                    let batch = drift_batch(&set, &mut rng, ops_per_batch);
                    applied += batch.len() as u64;
                    truth.absorb(&batch);
                    serve.apply(&batch);
                    next_fire += dt;
                }
                _ => std::thread::sleep(std::time::Duration::from_micros(200)),
            }
            let idle = retrain_joins.last().map_or(true, std::thread::JoinHandle::is_finished);
            if retrain_every > 0.0 && idle && last_retrain.elapsed().as_secs_f64() >= retrain_every
            {
                last_retrain = std::time::Instant::now();
                let serve = serve.clone();
                retrain_joins.push(std::thread::spawn(move || serve.retrain()));
            }
            truth.publish(oracle, serve.generation());
        }
        // Wait out every spawned retrain so the stats below are settled and
        // no trainer is killed by process exit; a retrain bumps the
        // generation with the same rule truth.
        let retrains =
            retrain_joins.into_iter().filter_map(|j| j.join().ok()).filter(Result::is_ok).count()
                as u64;
        truth.publish(oracle, serve.generation());
        (applied, retrains)
    })?;
    let elapsed = start.elapsed().as_secs_f64();
    let stats = &wire.stats;
    let lat = stats.latency.summary_us();
    // Serve-side reader threads pinned round-robin over the topology: the
    // UDP readers plus one connection thread per TCP driver (no-op and
    // reported 0 on 1-CPU boxes or with --pin false).
    let pinning = pin && Topology::discover().num_cpus() > 1;
    let pinned_readers = if pinning {
        scfg.udp_readers * usize::from(scfg.transport.udp()) + wire.tcp_drivers
    } else {
        0
    };
    let reader_requests_min = wire.udp_reader_stats.iter().map(|r| r.requests).min().unwrap_or(0);
    let reader_requests_max = wire.udp_reader_stats.iter().map(|r| r.requests).max().unwrap_or(0);
    // A served verdict that disagrees with its pinned generation's oracle
    // fails the run; the report still prints, on stderr.
    let done = |report: String| match stats.mismatches {
        0 => Ok(report),
        n => Err(format!("{report}serve: {n} of {} sampled verdicts disagreed", stats.validated)),
    };
    if json {
        let doc = Json::obj([
            ("engine", "nm-tm".into()),
            ("rules", set.len().into()),
            ("build_s", Json::num(build_s, 3)),
            ("readers", readers.max(1).into()),
            ("seconds", Json::num(elapsed, 3)),
            ("packets", stats.responses.into()),
            ("pps", Json::num(stats.responses as f64 / elapsed, 1)),
            ("update_rate", Json::num(update_rate, 1)),
            ("updates_applied", wire.updates_applied.into()),
            ("generation", serve.generation().into()),
            ("retrains", wire.retrains.into()),
            ("remainder_fraction", Json::num(serve.remainder_fraction(), 4)),
            ("shards", shards.into()),
            ("pinned_readers", pinned_readers.into()),
            ("udp_readers", scfg.udp_readers.into()),
            ("transport", scfg.transport.to_string().into()),
            ("max_batch", scfg.max_batch.into()),
            ("deadline_us", scfg.deadline.as_micros().into()),
            ("served", wire.driver_served.into()),
            ("driver_timeouts", wire.driver_timeouts.into()),
            ("batches", stats.batches.into()),
            ("full_flushes", stats.full_flushes.into()),
            ("deadline_flushes", stats.deadline_flushes.into()),
            ("idle_flushes", stats.idle_flushes.into()),
            ("drain_flushes", stats.drain_flushes.into()),
            ("decode_errors", stats.decode_errors.into()),
            ("recv_calls", stats.recv_calls.into()),
            ("empty_recv_calls", stats.empty_recv_calls.into()),
            ("send_calls", stats.send_calls.into()),
            ("syscalls_per_packet", Json::num(stats.syscalls_per_packet(), 4)),
            ("reader_requests_min", reader_requests_min.into()),
            ("reader_requests_max", reader_requests_max.into()),
            ("validated", stats.validated.into()),
            ("oracle_skipped", stats.oracle_skipped.into()),
            ("mismatches", stats.mismatches.into()),
            ("p50_us", Json::num(lat.p50_us, 1)),
            ("p99_us", Json::num(lat.p99_us, 1)),
            ("p999_us", Json::num(lat.p999_us, 1)),
            ("mean_us", Json::num(lat.mean_us, 1)),
        ]);
        return done(format!("{doc}\n"));
    }
    let addr =
        |a: Option<std::net::SocketAddr>| a.map_or_else(|| "-".to_string(), |sa| sa.to_string());
    done(format!(
        "served {} verdicts over {:.2}s on the wire (udp {} / tcp {}, {} shard(s)): {:.3e} pps\n\
         {} loopback drivers, window {}; {} batches ({} full / {} deadline / {} idle / {} drain), \
         {} decode errors\n\
         syscalls: {} recv + {} send for {} requests = {:.4}/pkt \
         ({} udp reader(s), requests {}..{})\n\
         service latency: p50 {:.1}us  p99 {:.1}us  p99.9 {:.1}us  mean {:.1}us\n\
         updates applied: {} ({:.0}/s target) -> generation {}\n\
         retrains completed: {}   remainder fraction now: {:.1}%\n\
         oracle validation: {} sampled, {} mismatches ({} skipped)\n\
         readers never blocked: every batch classified one pinned generation\n",
        stats.responses,
        elapsed,
        addr(wire.udp_addr),
        addr(wire.tcp_addr),
        shards,
        stats.responses as f64 / elapsed,
        readers.max(1),
        batch.clamp(1, 512),
        stats.batches,
        stats.full_flushes,
        stats.deadline_flushes,
        stats.idle_flushes,
        stats.drain_flushes,
        stats.decode_errors,
        stats.recv_calls,
        stats.send_calls,
        stats.requests,
        stats.syscalls_per_packet(),
        scfg.udp_readers,
        reader_requests_min,
        reader_requests_max,
        lat.p50_us,
        lat.p99_us,
        lat.p999_us,
        lat.mean_us,
        wire.updates_applied,
        update_rate,
        serve.generation(),
        wire.retrains,
        serve.remainder_fraction() * 100.0,
        stats.validated,
        stats.mismatches,
        stats.oracle_skipped,
    ))
}

/// Parses `a.b.c.d,a.b.c.d,sport,dport,proto` into a 5-tuple key.
pub fn parse_key(s: &str) -> Result<[u64; 5], String> {
    let parts: Vec<&str> = s.split(',').collect();
    if parts.len() != 5 {
        return Err(format!("--key needs 5 comma-separated values, got {}", parts.len()));
    }
    let ip = |t: &str| -> Result<u64, String> {
        if t.contains('.') {
            let o: Vec<&str> = t.split('.').collect();
            if o.len() != 4 {
                return Err(format!("bad IPv4 '{t}'"));
            }
            let mut b = [0u8; 4];
            for (i, part) in o.iter().enumerate() {
                b[i] = part.parse().map_err(|_| format!("bad octet '{part}'"))?;
            }
            Ok(fivetuple::ipv4(b))
        } else {
            t.parse().map_err(|_| format!("bad numeric field '{t}'"))
        }
    };
    Ok([
        ip(parts[0])?,
        ip(parts[1])?,
        parts[2].parse().map_err(|_| format!("bad port '{}'", parts[2]))?,
        parts[3].parse().map_err(|_| format!("bad port '{}'", parts[3]))?,
        parts[4].parse().map_err(|_| format!("bad proto '{}'", parts[4]))?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_command;

    fn v(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn help_is_returned_for_no_args() {
        let out = run(parse_command(&v(&[])).unwrap()).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn generate_emits_classbench_text() {
        let cmd = parse_command(&v(&["generate", "--kind", "fw", "--rules", "25"])).unwrap();
        let out = run(cmd).unwrap();
        assert_eq!(out.lines().count(), 25);
        assert!(out.starts_with('@'));
        // And it parses back.
        assert_eq!(parse_classbench(&out).unwrap().len(), 25);
    }

    #[test]
    fn generate_rejects_bad_kind() {
        let cmd = parse_command(&v(&["generate", "--kind", "bogus"])).unwrap();
        assert!(run(cmd).is_err());
    }

    #[test]
    fn full_file_workflow() {
        let dir = std::env::temp_dir().join(format!("nmctl-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rules = dir.join("rules.cb");
        let gen = run(parse_command(&v(&["generate", "--kind", "acl", "--rules", "300"])).unwrap())
            .unwrap();
        std::fs::write(&rules, gen).unwrap();
        let rp = rules.to_str().unwrap();

        let out = run(parse_command(&v(&["inspect", rp])).unwrap()).unwrap();
        assert!(out.contains("rules: 300"));
        assert!(out.contains("iSet coverage"));

        let out =
            run(parse_command(&v(&["bench", rp, "--engine", "tm", "--packets", "2000"])).unwrap())
                .unwrap();
        assert!(out.contains("throughput"));

        let out =
            run(parse_command(&v(&["classify", rp, "--key", "10.0.0.1,10.0.0.2,1,2,6"])).unwrap())
                .unwrap();
        assert!(out.contains("match") || out.contains("no match"));

        let model = dir.join("m.rqrmi");
        let out = run(parse_command(&v(&["train", rp, "--out", model.to_str().unwrap()])).unwrap())
            .unwrap();
        assert!(out.contains("worst error bound"));
        // The persisted model loads back.
        let bytes = std::fs::read(&model).unwrap();
        assert!(nuevomatch::load_rqrmi(&bytes).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batched_bench_covers_tree_engines_with_aliases() {
        let dir = std::env::temp_dir().join(format!("nmctl-batch-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rules = dir.join("rules.cb");
        let gen = run(parse_command(&v(&["generate", "--kind", "fw", "--rules", "200"])).unwrap())
            .unwrap();
        std::fs::write(&rules, gen).unwrap();
        let rp = rules.to_str().unwrap();
        // cs/nc (and their long aliases) run the batched pipeline and emit
        // the same JSON fields as the nm/tm runs.
        for engine in ["cs", "cutsplit", "neurocuts", "tuplemerge"] {
            let out = run(parse_command(&v(&[
                "bench",
                rp,
                "--engine",
                engine,
                "--packets",
                "1500",
                "--batch",
                "128",
                "--json",
                "true",
            ]))
            .unwrap())
            .unwrap();
            for field in ["\"engine\":", "\"batch\":128", "\"pps\":", "\"generation\":"] {
                assert!(out.contains(field), "{engine}: missing {field} in {out}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_smoke() {
        let dir = std::env::temp_dir().join(format!("nmctl-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rules = dir.join("rules.cb");
        let gen = run(parse_command(&v(&["generate", "--kind", "acl", "--rules", "300"])).unwrap())
            .unwrap();
        std::fs::write(&rules, gen).unwrap();
        let rp = rules.to_str().unwrap();

        let out = run(parse_command(&v(&[
            "serve",
            rp,
            "--seconds",
            "0.4",
            "--readers",
            "2",
            "--udp-readers",
            "2",
            "--update-rate",
            "500",
            "--retrain-every",
            "0.2",
            "--packets",
            "3000",
        ]))
        .unwrap())
        .unwrap();
        assert!(out.contains("updates applied"), "{out}");
        assert!(out.contains("retrains completed"), "{out}");
        assert!(out.contains("service latency:"), "{out}");
        // The batched-I/O accounting line: recv/send syscalls plus the
        // per-UDP-reader request spread across the SO_REUSEPORT fleet.
        assert!(out.contains("syscalls:"), "{out}");
        assert!(out.contains("2 udp reader(s)"), "{out}");
        // Debug builds sample served verdicts against the oracle at the
        // pinned generation; any disagreement is a torn generation.
        assert!(out.contains(", 0 mismatches"), "oracle mismatches: {out}");

        let out = run(parse_command(&v(&[
            "bench",
            rp,
            "--engine",
            "tm",
            "--packets",
            "2000",
            "--json",
            "true",
        ]))
        .unwrap())
        .unwrap();
        assert!(out.contains("\"generation\":0"), "{out}");
        assert!(out.contains("\"update_rate\":0.0"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_bench_and_serve_emit_runtime_fields() {
        let dir = std::env::temp_dir().join(format!("nmctl-shard-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rules = dir.join("rules.cb");
        let gen = run(parse_command(&v(&["generate", "--kind", "acl", "--rules", "300"])).unwrap())
            .unwrap();
        std::fs::write(&rules, gen).unwrap();
        let rp = rules.to_str().unwrap();

        // bench through the sharded worker runtime: 2 shards × 2 workers.
        let out = run(parse_command(&v(&[
            "bench",
            rp,
            "--engine",
            "tm",
            "--packets",
            "2000",
            "--batch",
            "64",
            "--shards",
            "2",
            "--workers",
            "2",
            "--json",
            "true",
        ]))
        .unwrap())
        .unwrap();
        for field in [
            "\"shards\":2",
            "\"workers\":4",
            "\"pinned_workers\":",
            "\"broadcast_fraction\":",
            "\"pps\":",
            "\"generation\":",
        ] {
            assert!(out.contains(field), "sharded bench missing {field}: {out}");
        }

        // The unsharded path reports the same fields (trivial values) so
        // downstream JSON consumers see one shape.
        let out = run(parse_command(&v(&[
            "bench",
            rp,
            "--engine",
            "tm",
            "--packets",
            "1000",
            "--json",
            "true",
        ]))
        .unwrap())
        .unwrap();
        assert!(out.contains("\"shards\":1"), "{out}");
        assert!(out.contains("\"workers\":1"), "{out}");

        // serve with per-shard replicas: updates fan out, retrains
        // republish one logical generation.
        let out = run(parse_command(&v(&[
            "serve",
            rp,
            "--seconds",
            "0.4",
            "--readers",
            "2",
            "--udp-readers",
            "2",
            "--update-rate",
            "500",
            "--retrain-every",
            "0.2",
            "--packets",
            "3000",
            "--shards",
            "2",
            "--json",
            "true",
        ]))
        .unwrap())
        .unwrap();
        for field in [
            "\"shards\":2",
            "\"pinned_readers\":",
            "\"udp_readers\":2",
            "\"generation\":",
            "\"retrains\":",
            "\"transport\":\"both\"",
            "\"served\":",
            "\"p50_us\":",
            "\"p99_us\":",
            "\"p999_us\":",
            "\"mean_us\":",
            "\"recv_calls\":",
            "\"empty_recv_calls\":",
            "\"send_calls\":",
            "\"syscalls_per_packet\":",
            "\"reader_requests_min\":",
            "\"reader_requests_max\":",
            "\"mismatches\":0",
        ] {
            assert!(out.contains(field), "sharded serve missing {field}: {out}");
        }

        // Bad grids are rejected up front.
        assert!(run(parse_command(&v(&[
            "bench", rp, "--engine", "tm", "--shards", "0", "--json", "true",
        ]))
        .unwrap())
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_json_is_byte_identical_to_the_hand_formatted_report_it_replaced() {
        let rules = (0..3u16).map(|i| FiveTuple::new().dst_port_exact(i).into_rule(i as u32, 0));
        let set = RuleSet::new(nm_common::FieldsSpec::five_tuple(), rules.collect()).unwrap();
        let engine = LinearSearch::build(&set);
        let trace = uniform_trace(&set, 2_000, 1);
        let at = |pps: f64| RunStats {
            pps,
            shards: 2,
            workers: 4,
            pinned_workers: 3,
            ..run_sequential(&engine, &trace)
        };
        assert_eq!(
            bench_json("tm", &set, 0.01249, &engine, &trace, 1, &at(4e6), None),
            format!(
                r#"{{"engine":"tm","rules":3,"build_s":0.012,"memory_bytes":{},"packets":2000,"batch":1,"pps":4000000.0,"ns_per_packet":250.0,"generation":0,"update_rate":0.0,"shards":1,"workers":1,"pinned_workers":0,"broadcast_fraction":0.0}}
"#,
                engine.memory_bytes()
            )
        );
        let sharded = bench_json("nm-tm", &set, 1.0, &engine, &trace, 64, &at(3e6), Some(0.25));
        assert!(
            sharded.ends_with(
                r#""pps":3000000.0,"ns_per_packet":333.3,"generation":0,"update_rate":0.0,"shards":2,"workers":4,"pinned_workers":3,"broadcast_fraction":0.2500}
"#
            ),
            "{sharded}"
        );
    }

    #[test]
    fn parse_key_formats() {
        assert_eq!(parse_key("10.0.0.1,0.0.0.2,80,443,6").unwrap(), [0x0a00_0001, 2, 80, 443, 6]);
        assert_eq!(parse_key("1,2,3,4,5").unwrap(), [1, 2, 3, 4, 5]);
        assert!(parse_key("1,2,3,4").is_err());
        assert!(parse_key("1.2.3,2,3,4,5").is_err());
    }
}
