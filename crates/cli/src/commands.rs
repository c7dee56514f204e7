//! Subcommand implementations.

use crate::args::{Args, ParsedCommand};
use nm_analysis::{centrality_1d, diversity, Json, Table};
use nm_classbench::{generate, parse_classbench, AppKind};
use nm_common::memsize::human_bytes;
use nm_common::{fivetuple, Classifier, FiveTuple, LinearSearch, RuleSet};
use nm_common::{BatchUpdatable, UpdateBatch};
use nm_cutsplit::{CutSplit, NeuroCuts, NeuroCutsConfig};
use nm_trace::{caida_like_trace, uniform_trace, zipf_trace};
use nm_tuplemerge::{TupleMerge, TupleSpaceSearch};
use nuevomatch::system::parallel::run_batched;
use nuevomatch::system::runtime::{PinPolicy, RunStats, Runtime, RuntimeConfig, ShardedClassifier};
use nuevomatch::{NuevoMatch, NuevoMatchConfig, ReaderKind, ShardedHandle, Topology};
use nuevomatch::{OracleTable, ServeClient, ServeConfig, Server, Transport};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Usage text.
const HELP: &str = "\
nmctl — NuevoMatch reproduction toolkit

USAGE:
  nmctl generate --kind <acl|fw|ipc> [--rules N] [--seed S]        # ClassBench text to stdout
  nmctl inspect  <rules.cb>                                        # structure metrics
  nmctl bench    <rules.cb> [--engine E] [--trace T] [--packets N] [--batch B] [--seed S]
                 [--shards S] [--workers W] [--pin true|false]     # sharded worker runtime
  nmctl classify <rules.cb> --key a.b.c.d,a.b.c.d,sport,dport,proto [--engine E]
  nmctl train    <rules.cb> --out <model.rqrmi>                    # persist largest-iSet RQ-RMI
  nmctl serve    <rules.cb> [--seconds S] [--readers K] [--update-rate U]
                 [--retrain-every R] [--batch B] [--packets N] [--seed S]
                 [--listen IP:PORT] [--transport udp|tcp|both] [--max-batch N]
                 [--deadline-us D] [--validate-every N]            # micro-batching + oracle
                 [--udp-readers N]                                 # SO_REUSEPORT reader fleet
                 [--shards S] [--pin true|false]                   # sharded handle replicas

output: bench and serve print one JSON object per run on stdout. An
        unknown command, a flag or argument the command does not read, or a
        value out of range (every count >= 1; serve's --batch <= 512,
        --max-batch <= 2339, and --readers, --udp-readers and --shards <= 64;
        bench's --shards x --workers <= 64) is an error: exit 1, the token
        named on stderr.
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
        one pinned generation. --udp-readers N (1..=64) serves UDP from N
        reader threads, each on a private SO_REUSEPORT socket with batched
        recvmmsg/sendmmsg I/O (the kernel hashes flows across them; falls
        back to one shared socket where REUSEPORT is unavailable).
        --readers K drives K loopback *client* threads against the service,
        each keeping a window of --batch B (1..=512) keys in flight; the
        report holds measured p50/p99/p99.9 wire service latency, syscall
        and I/O-error counts, and the per-UDP-reader request spread. 1 in
        --validate-every verdicts (default 16 in debug builds, 0 = off in
        release) is replayed against a LinearSearch oracle at the pinned
        generation; any mismatch makes serve exit 1.
";

/// The most threads one count flag may start: serve's client drivers, UDP
/// readers or retrain shards, and bench's shards × workers.
const MAX_THREADS: usize = 64;

/// Runs a parsed command, returning the text to print (errors as `Err`).
pub fn run(cmd: ParsedCommand) -> Result<String, String> {
    match cmd {
        ParsedCommand::Help => Ok(HELP.to_string()),
        ParsedCommand::Generate(a) => cmd_generate(a),
        ParsedCommand::Inspect(a) => cmd_inspect(a),
        ParsedCommand::Bench(a) => cmd_bench(a),
        ParsedCommand::Classify(a) => cmd_classify(a),
        ParsedCommand::Train(a) => cmd_train(a),
        ParsedCommand::Serve(a) => cmd_serve(a),
    }
}

fn rule_file(a: &mut Args) -> Result<String, String> {
    a.positional().ok_or_else(|| "expected a rule file argument".to_string())
}

fn load_rules(path: &str) -> Result<RuleSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    parse_classbench(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn cmd_generate(mut a: Args) -> Result<String, String> {
    let kind = a.get_or("kind", "acl");
    let rules: usize = a.num_or("rules", 1_000)?;
    let seed: u64 = a.num_or("seed", 1)?;
    a.finish()?;
    let kind = match kind.as_str() {
        "acl" => AppKind::Acl,
        "fw" => AppKind::Fw,
        "ipc" => AppKind::Ipc,
        other => return Err(format!("unknown --kind '{other}' (acl|fw|ipc)")),
    };
    let set = generate(kind, rules, seed);
    Ok(nm_classbench::parse::to_classbench(&set))
}

fn cmd_inspect(mut a: Args) -> Result<String, String> {
    let path = rule_file(&mut a)?;
    a.finish()?;
    let set = load_rules(&path)?;
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

fn cmd_bench(mut a: Args) -> Result<String, String> {
    let path = rule_file(&mut a)?;
    let engine_name = a.get_or("engine", "nm-tm");
    let packets: usize = a.num_or("packets", 100_000)?;
    let seed: u64 = a.num_or("seed", 1)?;
    let trace_spec = a.get_or("trace", "uniform");
    let batch: usize = a.num_in("batch", 1, 1..)?;
    let shards: usize = a.num_in("shards", 1, 1..=MAX_THREADS)?;
    let workers: usize = a.num_in("workers", 1, 1..=MAX_THREADS / shards)?;
    let pin: bool = a.num_or("pin", true)?;
    a.finish()?;
    let set = load_rules(&path)?;
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

    // `--shards`/`--workers` route through the worker runtime: one engine
    // replica per shard (range steering, broadcast shard for wildcard-heavy
    // rules), workers pinned per NUMA node unless --pin false. Engines are
    // built per subset up front so an unknown engine name (or a failing
    // build) surfaces as an error, not a panic inside a builder closure.
    if shards > 1 || workers > 1 {
        let t0 = Instant::now();
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
            batch,
            workers_per_shard: workers,
            pin: if pin { PinPolicy::Numa } else { PinPolicy::Never },
            ..Default::default()
        });
        let stats = rt.run(&sharded, &trace).map_err(|e| e.to_string())?;
        let f = Some(sharded.plan().broadcast_fraction());
        return Ok(bench_json(&engine_name, &set, build_s, &sharded, &trace, batch, &stats, f));
    }

    let t0 = Instant::now();
    let engine = build_engine(&engine_name, &set)?;
    let build_s = t0.elapsed().as_secs_f64();
    // --batch 1 (default) is the per-key loop, one key per lookup call;
    // larger sizes go through the engine's batched pipeline.
    let stats = run_batched(engine.as_ref(), &trace, batch);
    Ok(bench_json(&engine_name, &set, build_s, engine.as_ref(), &trace, batch, &stats, None))
}

/// The bench report: one object, shape-compatible with serve's (static
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

fn cmd_classify(mut a: Args) -> Result<String, String> {
    let path = rule_file(&mut a)?;
    let key = a.require("key")?;
    let engine_name = a.get_or("engine", "nm-tm");
    a.finish()?;
    let set = load_rules(&path)?;
    let key = parse_key(&key)?;
    let engine = build_engine(&engine_name, &set)?;
    let mut verdict = [None];
    engine.classify_batch(&key, key.len(), &mut verdict);
    Ok(match verdict[0] {
        Some(m) => format!("match: rule {} (priority {})\n", m.rule, m.priority),
        None => "no match\n".to_string(),
    })
}

fn cmd_train(mut a: Args) -> Result<String, String> {
    let path = rule_file(&mut a)?;
    let out_path = a.require("out")?;
    a.finish()?;
    let set = load_rules(&path)?;
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
    std::fs::write(&out_path, &bytes).map_err(|e| format!("writing {out_path}: {e}"))?;
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

/// Ground truth the serve updater publishes into the validator's
/// [`OracleTable`] whenever the served generation moves: a `LinearSearch`
/// every batch is applied to, so the truth folds updates with the same
/// op accounting (`apply_ops`, upsert on id) every engine uses.
struct OracleTruth {
    rules: Option<LinearSearch>,
    last_published: Option<u64>,
}

impl OracleTruth {
    /// Seeds the truth from the initial rule-set (`None` when sampling is
    /// off — release builds by default).
    fn new(enabled: bool, set: &RuleSet) -> Self {
        Self { rules: enabled.then(|| LinearSearch::build(set)), last_published: None }
    }

    fn absorb(&mut self, batch: &UpdateBatch) {
        if let Some(t) = self.rules.as_mut() {
            t.apply(batch);
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
        oracle.publish(generation, t.clone());
        self.last_published = Some(generation);
    }
}

/// One loopback load-driver thread: windows of trace keys out, verdicts
/// back, closed-loop. Returns (verdicts received, receive timeouts).
fn drive_clients(
    addr: std::net::SocketAddr,
    udp: bool,
    trace: &nm_common::TraceBuf,
    window: usize,
    stop: &AtomicBool,
) -> (u64, u64) {
    let client = if udp { ServeClient::udp(addr) } else { ServeClient::tcp(addr) };
    let Ok(mut client) = client else { return (0, 0) };
    let (raw, stride, n) = (trace.raw(), trace.stride(), trace.len());
    let (mut served, mut timeouts) = (0u64, 0u64);
    let mut lo = 0usize;
    'outer: while !stop.load(Ordering::Relaxed) {
        let hi = (lo + window).min(n);
        if client.send_batch(lo as u64, &raw[lo * stride..hi * stride], stride).is_err() {
            break;
        }
        let want = hi - lo;
        let mut got = 0usize;
        while got < want {
            match client.recv(Some(Duration::from_millis(100))) {
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

/// Serves the rule file on real sockets for `--seconds`: `--readers`
/// loopback client threads replay a trace against a [`Server`] over a
/// [`ShardedHandle`] while this thread applies the update stream, spawns
/// retrains and publishes the oracle's truth. Prints one JSON report.
fn cmd_serve(mut a: Args) -> Result<String, String> {
    let path = rule_file(&mut a)?;
    let seconds: f64 = a.num_or("seconds", 2.0)?;
    let readers: usize = a.num_in("readers", 2, 1..=MAX_THREADS)?;
    let update_rate: f64 = a.num_or("update-rate", 1_000.0)?;
    let retrain_every: f64 = a.num_or("retrain-every", 0.0)?;
    let window: usize = a.num_in("batch", 128, 1..=512)?;
    let packets: usize = a.num_or("packets", 50_000)?;
    let seed: u64 = a.num_or("seed", 1)?;
    let shards: usize = a.num_in("shards", 1, 1..=MAX_THREADS)?;
    let mut scfg = ServeConfig {
        listen: a
            .get_or("listen", "127.0.0.1:0")
            .parse()
            .map_err(|e| format!("bad --listen address: {e}"))?,
        transport: a.get_or("transport", "both").parse()?,
        max_batch: a.num_in("max-batch", 128, 1..=ServeConfig::MAX_BATCH)?,
        deadline: Duration::from_micros(a.num_or("deadline-us", 20)?),
        udp_readers: a.num_in("udp-readers", 1, 1..=MAX_THREADS)?,
        pin: a.num_or("pin", true)?,
        ..ServeConfig::default()
    };
    scfg.validate_every = a.num_or("validate-every", scfg.validate_every)?;
    a.finish()?;
    let set = load_rules(&path)?;
    if set.is_empty() {
        return Err("serve: the rule file holds no rules (nothing to update or classify)".into());
    }
    scfg.stride = set.num_fields();

    let trace = uniform_trace(&set, packets, seed);
    let t0 = Instant::now();
    // One control plane whatever the shard count: per-shard replicas in one
    // publication cell (one replica when `--shards 1`).
    let serve = ShardedHandle::new(&set, &NuevoMatchConfig::default(), shards, TupleMerge::build)
        .map_err(|e| e.to_string())?;
    let build_s = t0.elapsed().as_secs_f64();

    let ops_per_batch = 16usize;
    let mut rng = nm_common::SplitMix64::new(seed ^ 0xdead_beef);
    let start = Instant::now();
    let server = Server::start(serve.clone(), &scfg)
        .map_err(|e| format!("serve: binding {}: {e}", scfg.listen))?;
    let (udp_addr, tcp_addr) = (server.udp_addr(), server.tcp_addr());
    let oracle = server.oracle();
    // Under `both` the load drivers alternate transports, UDP first.
    let udp_driver = |r: usize| match scfg.transport {
        Transport::Udp => true,
        Transport::Tcp => false,
        Transport::Both => r % 2 == 0,
    };
    let stop = AtomicBool::new(false);
    let (served, timeouts, applied, retrains) = std::thread::scope(|scope| {
        let drivers: Vec<_> = (0..readers)
            .map(|r| {
                let udp = udp_driver(r);
                let addr = if udp { udp_addr } else { tcp_addr }.expect("transport bound");
                let (trace, stop) = (&trace, &stop);
                scope.spawn(move || drive_clients(addr, udp, trace, window, stop))
            })
            .collect();
        // Paced fan-out applies; retrains fan across every shard on a
        // background thread, so a multi-second retrain neither stalls this
        // updater loop nor overshoots the requested duration — the serve
        // path keeps pinning coherent epochs.
        let mut truth = OracleTruth::new(scfg.validate_every > 0, &set);
        truth.publish(&oracle, serve.generation());
        let interval = (update_rate > 0.0)
            .then(|| Duration::from_secs_f64(ops_per_batch as f64 / update_rate));
        let mut next_fire = Instant::now();
        let mut last_retrain = Instant::now();
        let mut retrain_joins = Vec::new();
        let mut applied = 0u64;
        while start.elapsed().as_secs_f64() < seconds {
            match interval {
                Some(dt) if Instant::now() >= next_fire => {
                    let batch = drift_batch(&set, &mut rng, ops_per_batch);
                    applied += batch.len() as u64;
                    truth.absorb(&batch);
                    serve.apply(&batch);
                    next_fire += dt;
                }
                _ => std::thread::sleep(Duration::from_micros(200)),
            }
            let idle = retrain_joins.last().map_or(true, std::thread::JoinHandle::is_finished);
            if retrain_every > 0.0 && idle && last_retrain.elapsed().as_secs_f64() >= retrain_every
            {
                last_retrain = Instant::now();
                let serve = serve.clone();
                retrain_joins.push(std::thread::spawn(move || serve.retrain()));
            }
            truth.publish(&oracle, serve.generation());
        }
        // Wait out every spawned retrain so the stats below are settled and
        // no trainer is killed by process exit; a retrain bumps the
        // generation with the same rule truth.
        let retrains =
            retrain_joins.into_iter().filter_map(|j| j.join().ok()).filter(Result::is_ok).count();
        truth.publish(&oracle, serve.generation());
        stop.store(true, Ordering::SeqCst);
        let (mut served, mut timeouts) = (0u64, 0u64);
        for d in drivers {
            let (s, t) = d.join().expect("load driver panicked");
            served += s;
            timeouts += t;
        }
        (served, timeouts, applied, retrains)
    });
    // Per-UDP-reader request counts (taken before shutdown), for the spread
    // report — a skewed reader is a flow-steering problem percentile folds
    // would hide.
    let udp_reader_requests: Vec<u64> = server
        .per_reader_stats()
        .into_iter()
        .filter(|(kind, _)| *kind == ReaderKind::Udp)
        .map(|(_, st)| st.requests)
        .collect();
    let stats = server.shutdown();
    let elapsed = start.elapsed().as_secs_f64();
    let lat = stats.latency.summary_us();
    // Serve-side reader threads pinned round-robin over the topology: the
    // UDP readers plus one connection thread per TCP driver (no-op and
    // reported 0 on 1-CPU boxes or with --pin false).
    let pinned_readers = if scfg.pin && Topology::discover().num_cpus() > 1 {
        let tcp_drivers = (0..readers).filter(|&r| !udp_driver(r)).count();
        scfg.udp_readers * usize::from(scfg.transport.udp()) + tcp_drivers
    } else {
        0
    };
    let addr = |a: Option<std::net::SocketAddr>| a.map_or(Json::Null, |a| a.to_string().into());
    let doc = Json::obj([
        ("engine", "nm-tm".into()),
        ("rules", set.len().into()),
        ("build_s", Json::num(build_s, 3)),
        ("readers", readers.into()),
        ("window", window.into()),
        ("seconds", Json::num(elapsed, 3)),
        ("requests", stats.requests.into()),
        ("packets", stats.responses.into()),
        ("pps", Json::num(stats.responses as f64 / elapsed, 1)),
        ("update_rate", Json::num(update_rate, 1)),
        ("updates_applied", applied.into()),
        ("generation", serve.generation().into()),
        ("retrains", retrains.into()),
        ("remainder_fraction", Json::num(serve.remainder_fraction(), 4)),
        ("shards", shards.into()),
        ("pinned_readers", pinned_readers.into()),
        ("udp_readers", scfg.udp_readers.into()),
        ("transport", scfg.transport.to_string().into()),
        ("udp_addr", addr(udp_addr)),
        ("tcp_addr", addr(tcp_addr)),
        ("max_batch", scfg.max_batch.into()),
        ("deadline_us", scfg.deadline.as_micros().into()),
        ("served", served.into()),
        ("driver_timeouts", timeouts.into()),
        ("batches", stats.batches.into()),
        ("full_flushes", stats.full_flushes.into()),
        ("deadline_flushes", stats.deadline_flushes.into()),
        ("idle_flushes", stats.idle_flushes.into()),
        ("drain_flushes", stats.drain_flushes.into()),
        ("decode_errors", stats.decode_errors.into()),
        ("recv_calls", stats.recv_calls.into()),
        ("empty_recv_calls", stats.empty_recv_calls.into()),
        ("blocking_recv_calls", stats.blocking_recv_calls.into()),
        ("recv_errors", stats.recv_errors.into()),
        ("send_calls", stats.send_calls.into()),
        ("send_errors", stats.send_errors.into()),
        ("syscalls_per_packet", Json::num(stats.syscalls_per_packet(), 4)),
        ("reader_requests_min", udp_reader_requests.iter().min().copied().unwrap_or(0).into()),
        ("reader_requests_max", udp_reader_requests.iter().max().copied().unwrap_or(0).into()),
        ("validated", stats.validated.into()),
        ("oracle_skipped", stats.oracle_skipped.into()),
        ("mismatches", stats.mismatches.into()),
        ("p50_us", Json::num(lat.p50_us, 1)),
        ("p99_us", Json::num(lat.p99_us, 1)),
        ("p999_us", Json::num(lat.p999_us, 1)),
        ("mean_us", Json::num(lat.mean_us, 1)),
    ]);
    // A served verdict that disagrees with its pinned generation's oracle
    // fails the run; the report still prints, on stderr.
    match stats.mismatches {
        0 => Ok(format!("{doc}\n")),
        n => Err(format!("{doc}\nserve: {n} of {} sampled verdicts disagreed", stats.validated)),
    }
}

/// Parses `a.b.c.d,a.b.c.d,sport,dport,proto` into a 5-tuple key.
fn parse_key(s: &str) -> Result<[u64; 5], String> {
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

    fn run_args(s: &[&str]) -> Result<String, String> {
        run(parse_command(&v(s))?)
    }

    /// `out` as the one JSON object a report command prints: one line, one
    /// `{…}`.
    fn report(out: &str) -> &str {
        assert!(out.starts_with('{') && out.ends_with("}\n") && out.lines().count() == 1, "{out}");
        out
    }

    /// The raw value text of `key` in a flat one-line JSON object.
    fn field<'a>(json: &'a str, key: &str) -> &'a str {
        let pat = format!("\"{key}\":");
        let at = json.find(&pat).unwrap_or_else(|| panic!("missing {key} in {json}"));
        let rest = &json[at + pat.len()..];
        &rest[..rest.find([',', '}']).unwrap()]
    }

    /// A temp dir holding a generated `rules.cb`; removed on drop.
    struct RuleFile(std::path::PathBuf);

    impl RuleFile {
        fn new(tag: &str, kind: &str, rules: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("nmctl-{tag}-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let gen = run_args(&["generate", "--kind", kind, "--rules", rules]).unwrap();
            std::fs::write(dir.join("rules.cb"), gen).unwrap();
            Self(dir)
        }

        fn path(&self) -> String {
            self.0.join("rules.cb").to_str().unwrap().to_string()
        }
    }

    impl Drop for RuleFile {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    #[test]
    fn help_is_returned_for_no_args() {
        for argv in [&[][..], &["help"], &["--help"]] {
            assert!(run_args(argv).unwrap().contains("USAGE"), "{argv:?}");
        }
    }

    #[test]
    fn generate_emits_classbench_text() {
        let out = run_args(&["generate", "--kind", "fw", "--rules", "25"]).unwrap();
        assert_eq!(out.lines().count(), 25);
        assert!(out.starts_with('@'));
        // And it parses back.
        assert_eq!(parse_classbench(&out).unwrap().len(), 25);
    }

    #[test]
    fn generate_rejects_bad_kind() {
        assert!(run_args(&["generate", "--kind", "bogus"]).is_err());
    }

    #[test]
    fn full_file_workflow() {
        let file = RuleFile::new("test", "acl", "300");
        let rp = &file.path();

        let out = run_args(&["inspect", rp]).unwrap();
        assert!(out.contains("rules: 300"));
        assert!(out.contains("iSet coverage"));

        let out = run_args(&["bench", rp, "--engine", "tm", "--packets", "2000"]).unwrap();
        assert_eq!(field(report(&out), "packets"), "2000");

        let out = run_args(&["classify", rp, "--key", "10.0.0.1,10.0.0.2,1,2,6"]).unwrap();
        assert!(out.contains("match") || out.contains("no match"));

        let model = file.0.join("m.rqrmi");
        let out = run_args(&["train", rp, "--out", model.to_str().unwrap()]).unwrap();
        assert!(out.contains("worst error bound"));
        // The persisted model loads back.
        let bytes = std::fs::read(&model).unwrap();
        assert!(nuevomatch::load_rqrmi(&bytes).is_ok());
    }

    #[test]
    fn batched_bench_covers_tree_engines_with_aliases() {
        let file = RuleFile::new("batch-test", "fw", "200");
        let rp = &file.path();
        // cs/nc (and their long aliases) run the batched pipeline and emit
        // the same JSON fields as the nm/tm runs.
        for engine in ["cs", "cutsplit", "neurocuts", "tuplemerge"] {
            let out =
                run_args(&["bench", rp, "--engine", engine, "--packets", "1500", "--batch", "128"])
                    .unwrap();
            let out = report(&out);
            assert_eq!(field(out, "engine"), format!("\"{engine}\""));
            assert_eq!(field(out, "batch"), "128");
            field(out, "pps");
            field(out, "generation");
        }
    }

    #[test]
    fn serve_smoke() {
        let file = RuleFile::new("serve-test", "acl", "300");
        let rp = &file.path();

        let out = run_args(&[
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
        ])
        .unwrap();
        let out = report(&out);
        assert_ne!(field(out, "updates_applied"), "0", "{out}");
        field(out, "retrains");
        for key in ["p50_us", "p99_us", "p999_us", "mean_us"] {
            field(out, key);
        }
        // The batched-I/O accounting: recv/send syscalls, their errors, and
        // the per-UDP-reader request spread across the SO_REUSEPORT fleet.
        for key in ["recv_calls", "send_calls", "syscalls_per_packet", "reader_requests_min"] {
            field(out, key);
        }
        let count = |key| field(out, key).parse::<u64>().unwrap();
        count("recv_errors");
        count("send_errors");
        assert_eq!(field(out, "udp_readers"), "2");
        // `packets` counts the responses: the requests read, less any whose
        // reply a departed client never took.
        assert!(count("packets") > 0 && count("requests") >= count("packets"), "{out}");
        // Debug builds sample served verdicts against the oracle at the
        // pinned generation; any disagreement is a torn generation.
        assert_eq!(field(out, "mismatches"), "0", "oracle mismatches: {out}");

        let out = run_args(&["bench", rp, "--engine", "tm", "--packets", "2000"]).unwrap();
        assert_eq!(field(report(&out), "generation"), "0");
        assert_eq!(field(&out, "update_rate"), "0.0");
    }

    #[test]
    fn sharded_bench_and_serve_emit_runtime_fields() {
        let file = RuleFile::new("shard-test", "acl", "300");
        let rp = &file.path();

        // bench through the sharded worker runtime: 2 shards × 2 workers.
        let out = run_args(&[
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
        ])
        .unwrap();
        let out = report(&out);
        assert_eq!(field(out, "shards"), "2", "{out}");
        assert_eq!(field(out, "workers"), "4", "{out}");
        for key in ["pinned_workers", "broadcast_fraction", "pps", "generation"] {
            field(out, key);
        }

        // The unsharded path reports the same fields (trivial values) so
        // downstream JSON consumers see one shape.
        let out = run_args(&["bench", rp, "--engine", "tm", "--packets", "1000"]).unwrap();
        assert_eq!(field(report(&out), "shards"), "1");
        assert_eq!(field(&out, "workers"), "1");

        // serve with per-shard replicas: updates fan out, retrains
        // republish one logical generation.
        let out = run_args(&[
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
            "--batch",
            "64",
        ])
        .unwrap();
        let out = report(&out);
        assert_eq!(field(out, "shards"), "2");
        assert_eq!(field(out, "udp_readers"), "2");
        assert_eq!(field(out, "transport"), "\"both\"");
        assert_eq!(field(out, "window"), "64");
        assert_eq!(field(out, "mismatches"), "0");
        // Both transports bound on loopback, each at its own ephemeral port.
        for key in ["udp_addr", "tcp_addr"] {
            assert!(field(out, key).starts_with("\"127.0.0.1:"), "{key}: {out}");
        }
        for key in ["pinned_readers", "generation", "retrains", "served", "empty_recv_calls"] {
            field(out, key);
        }
        for key in
            ["reader_requests_max", "driver_timeouts", "build_s", "p99_us", "blocking_recv_calls"]
        {
            field(out, key);
        }
    }

    #[test]
    fn unread_input_is_an_error_naming_it() {
        // Each is refused before the (absent) rule file is read.
        for (argv, token) in [
            (&["bench", "f.cb", "--shard", "4"][..], "--shard"),
            (&["serve", "f.cb", "--validate-evry", "64"], "--validate-evry"),
            (&["bench", "f.cb", "g.cb"], "'g.cb'"),
            (&["srve", "f.cb"], "'srve'"),
            (&["bench", "f.cb", "--json", "true"], "--json"),
            (&["serve", "f.cb", "--json", "true"], "--json"),
            (&["inspect", "f.cb", "--engine", "tm"], "--engine"),
            (&["generate", "extra"], "'extra'"),
        ] {
            let err = run_args(argv).unwrap_err();
            assert!(err.contains(token), "{argv:?}: {err}");
        }
        // With a readable rule file too: a misspelt flag is not a default.
        let file = RuleFile::new("unread-test", "acl", "50");
        let err = run_args(&["bench", &file.path(), "--packets", "100", "--shard", "4"]);
        assert_eq!(err.unwrap_err(), "unknown flag --shard for this command");
    }

    #[test]
    fn out_of_range_values_are_errors_not_clamped() {
        for (argv, message) in [
            (&["serve", "f.cb", "--readers", "0"][..], "--readers must be in 1..=64, got 0"),
            (&["serve", "f.cb", "--readers", "65"], "--readers must be in 1..=64, got 65"),
            (
                &["serve", "f.cb", "--udp-readers", "100"],
                "--udp-readers must be in 1..=64, got 100",
            ),
            (&["serve", "f.cb", "--udp-readers", "0"], "--udp-readers must be in 1..=64, got 0"),
            (&["serve", "f.cb", "--batch", "0"], "--batch must be in 1..=512, got 0"),
            (&["serve", "f.cb", "--batch", "513"], "--batch must be in 1..=512, got 513"),
            (&["serve", "f.cb", "--max-batch", "0"], "--max-batch must be in 1..=2339, got 0"),
            (
                &["serve", "f.cb", "--max-batch", "100000000000"],
                "--max-batch must be in 1..=2339, got 100000000000",
            ),
            (&["serve", "f.cb", "--shards", "0"], "--shards must be in 1..=64, got 0"),
            (&["serve", "f.cb", "--shards", "65"], "--shards must be in 1..=64, got 65"),
            (&["bench", "f.cb", "--batch", "0"], "--batch must be in 1.., got 0"),
            (&["bench", "f.cb", "--shards", "0"], "--shards must be in 1..=64, got 0"),
            (&["bench", "f.cb", "--shards", "65"], "--shards must be in 1..=64, got 65"),
            (&["bench", "f.cb", "--workers", "0"], "--workers must be in 1..=64, got 0"),
            (&["bench", "f.cb", "--workers", "65"], "--workers must be in 1..=64, got 65"),
            (
                &["bench", "f.cb", "--shards", "4", "--workers", "17"],
                "--workers must be in 1..=16, got 17",
            ),
        ] {
            assert_eq!(run_args(argv).unwrap_err(), message, "{argv:?}");
        }
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
            ..run_batched(&engine, &trace, 1)
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
