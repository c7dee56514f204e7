//! The repo's one benchmark. See `benchmark/README.md` for the workloads,
//! the metric definitions and how the layers are expected to interact.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --seed 1          # whole suite
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --aa              # suite twice, compared
//! ... -- --workload acl500k-tm --seed 3 --seconds 32 --trace 0                   # one run, JSON last line
//! ```
//!
//! It drives the system only through public functions; the spans of the
//! traced run are recorded here, around the calls into each layer.

mod churn;
mod inputs;
mod lookup;
mod metrics;
mod spans;
mod stats;
mod wire;

use std::time::Instant;

use nm_common::{Classifier, RuleSet, TraceBuf};
use nm_trace::uniform_trace;
use nm_tuplemerge::TupleMerge;
use nuevomatch::{ClassifierHandle, Server};

use inputs::{sub_seed, Phase, UpdateStream, Workload, BATCH, TRACE_LEN};
use metrics::{unit_of, Better, END_TO_END, PER_LAYER, RUN_SECONDS};
use spans::Tracer;
use stats::{best_decile, median, percentile};
use Better::{Higher, Lower};

/// Set-ups per untraced run; `setup_s` is the fastest of them.
const SETUPS: usize = 3;
/// Every run goes through its phases this many times, a quarter of each
/// phase's seconds per round, and pools the samples. The host's slow
/// stretches last seconds to tens of seconds: a phase measured in one
/// stretch is hit whole or not at all, a phase spread over the run gets its
/// share of whatever quiet time the run had.
const ROUNDS: usize = 4;

/// Metrics and the operations count of one run.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn count(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.failures.push(format!("{failed}/{attempted}: {what}"));
        }
    }

    pub fn check(&mut self, ok: bool, what: &str) {
        self.count(1, !ok as u64, what);
    }

    fn get(&self, name: &str) -> f64 {
        self.metrics.iter().find(|m| m.0 == name).map_or(f64::NAN, |m| m.1)
    }

    /// The contract's result line.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v)| {
                let v = if v.is_finite() { *v } else { 0.0 }; // already counted as a failure
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}", unit_of(name))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// What a set-up produces: the rules and the live handle over them.
struct Built {
    set: RuleSet,
    handle: ClassifierHandle<TupleMerge>,
}

/// Rule generation + `ClassifierHandle::new` + `Server::start`. The server
/// is stopped again at once: each wire phase starts its own, so an idle
/// reader never ticks beside the lookup phases.
fn set_up(w: &Workload, tr: &mut Tracer) -> (Built, f64) {
    let t = Instant::now();
    let built = tr.span("setup", |tr| {
        let set = tr.span("classbench.generate", |_| w.rules());
        let handle = tr.span("handle.new", |_| {
            ClassifierHandle::new(&set, &w.config(), TupleMerge::build).expect("nm/tm build")
        });
        let server = tr.span("serve.start", |_| {
            Server::start(handle.clone(), &wire::serve_config(set.num_fields()))
                .expect("bind loopback")
        });
        drop(server);
        Built { set, handle }
    });
    (built, t.elapsed().as_secs_f64())
}

/// Verdicts of the live snapshot over `keys` through the batched path.
fn batch_verdicts(
    handle: &ClassifierHandle<TupleMerge>,
    keys: &TraceBuf,
) -> Vec<Option<nm_common::MatchResult>> {
    let snap = handle.snapshot();
    let mut out = vec![None; keys.len()];
    for (k, o) in keys.raw().chunks(BATCH * keys.stride()).zip(out.chunks_mut(BATCH)) {
        snap.classify_batch(k, keys.stride(), o);
    }
    out
}

/// One run of one workload: set-up, then [`ROUNDS`] rounds of the phases
/// (three untraced, six traced), then either the end-to-end metrics
/// (`traced == false`) or the per-layer ones.
fn run(w: &Workload, seed: u64, seconds: f64, traced: bool) -> std::io::Result<Report> {
    let mut report = Report::default();
    let mut tr = Tracer::new(traced);
    // The traced run spends half its seconds on the phases, half on probes.
    let scale = if traced { 0.5 } else { 1.0 } / ROUNDS as f64;
    let budget = |phase: Phase| seconds * scale * w.share(phase, traced);

    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..if traced { 1 } else { SETUPS } {
        drop(built.take()); // one rule-set in memory at a time
        let (b, s) = set_up(w, &mut tr);
        setups.push(s);
        built = Some(b);
    }
    let Built { set, handle } = built.expect("at least one set-up");
    let stride = set.num_fields();
    let trace = uniform_trace(&set, TRACE_LEN, sub_seed(seed, 2));
    // The lookup phases stay on the built snapshot through every round, so
    // their passes measure one engine however far the churn has moved on.
    let snap = handle.snapshot();
    let nm = snap.engine();

    // Correctness before timing: per-key verdicts are the reference for the
    // batched passes, and a sample of them is replayed against LinearSearch.
    // This pass also warms the caches.
    let verdicts = lookup::scalar_verdicts(nm, &trace);
    lookup::oracle_check(
        set.rules().to_vec(),
        &trace,
        &verdicts.per_key,
        sub_seed(seed, 3),
        "verdict differs from LinearSearch",
        &mut report,
    );

    let sum = verdicts.checksum;
    let mut updates = UpdateStream::new(&set, sub_seed(seed, 4));
    let (mut passes, mut recorder_off) = (lookup::Passes::default(), lookup::Passes::default());
    let mut churned = churn::ChurnSamples::default();
    let mut wired = wire::WireSamples::default();
    let mut after = Vec::new();
    for round in 0..ROUNDS as u64 {
        let (p, r, t) = (&mut passes, &mut report, &mut tr);
        lookup::batch_round(nm, &trace, sum, budget(Phase::Batch), p, r, t);
        churn::churn_round(&handle, &trace, &mut updates, budget(Phase::Churn), &mut churned, r, t);
        // Quiesced: what the live handle now answers is what the wire must.
        after = batch_verdicts(&handle, &trace);
        let open_s = budget(Phase::WireOpen);
        wire::open_round(
            &handle,
            stride,
            &trace,
            &after,
            open_s,
            sub_seed(seed, 6 + round),
            &mut wired,
            r,
            t,
        )?;
        if traced {
            // Same batch phase with the recorder off: the ratio is what
            // tracing costs.
            let (p, t) = (&mut recorder_off, &mut Tracer::new(false));
            lookup::batch_round(nm, &trace, sum, budget(Phase::Batch), p, r, t);
            let (p, t) = (&mut passes, &mut tr);
            lookup::scalar_round(nm, &trace, sum, budget(Phase::Scalar), p, r, t);
            lookup::runtime_round(nm, &trace, sum, budget(Phase::Runtime), p, r, t);
            let closed_s = budget(Phase::WireClosed);
            wire::closed_round(&handle, stride, &trace, &after, closed_s, &mut wired, r, t)?;
        }
    }
    // The handle must now serve exactly the update stream's rule truth.
    lookup::oracle_check(
        updates.truth(),
        &trace,
        &after,
        sub_seed(seed, 5),
        "post-churn verdict differs from LinearSearch over the final rules",
        &mut report,
    );

    let batch_mpps = best_decile(&mut passes.batch_mpps, Higher);
    let churn_mpps = best_decile(&mut churned.cycle_mpps, Higher);
    let wire_p50_us = best_decile(&mut wired.p50_us, Lower);
    let late_us_p99 = percentile(&mut wired.late_us, 0.99);
    if late_us_p99 > 1_000.0 {
        println!(
            "# NOTE generator sent late (p99 {late_us_p99:.0} us): wire latencies are its own"
        );
    }
    println!(
        "# windows: {} set-ups, batch passes {}, churn cycles {} ({} applies), \
         wire 50 ms windows {} ({} requests)",
        setups.len(),
        passes.batch_mpps.len(),
        churned.cycle_mpps.len(),
        churned.apply_us.len(),
        wired.p50_us.len(),
        wired.open_requests,
    );
    // What the same windows' medians say: how far the host held the run back.
    println!(
        "# medians over the windows (reported: best deciles): classify_mpps {:.4}, \
         churn_classify_mpps {:.4}, wire_p50_us {:.2}",
        median(&mut passes.batch_mpps),
        median(&mut churned.cycle_mpps),
        median(&mut wired.p50_us),
    );

    if traced {
        let scalar_mpps = best_decile(&mut passes.scalar_mpps, Higher);
        let runtime_mpps = best_decile(&mut passes.runtime_mpps, Higher);
        let wire_sat_kpps = best_decile(&mut wired.sat_per_s, Higher) / 1e3;
        let e2e = lookup::EndToEnd {
            batch_mpps,
            scalar_mpps,
            runtime_mpps,
            runtime_batch_latency_us: best_decile(&mut passes.runtime_batch_latency_us, Lower),
        };
        let (r, t) = (&mut report, &mut tr);
        lookup::layer_probes(nm, &set, &w.config(), &trace, &verdicts, &e2e, r, t);
        lookup::persist_probe(nm, &trace, &verdicts, r, t);
        r.put("system.batch_p99_us", best_decile(&mut passes.batch_p99_us, Lower));
        r.put("system.scalar_mpps", scalar_mpps);
        r.put("runtime.mpps", runtime_mpps);
        let untraced_mpps = best_decile(&mut recorder_off.batch_mpps, Higher);
        r.put("trace.overhead_ratio", batch_mpps / untraced_mpps);
        churn::pin_probe(&handle, r, t);
        churned.put_layer_metrics(r);

        let (open, closed) = (&wired.open_stats, &wired.closed_stats);
        let server_us = open.latency.summary_us();
        r.put("serve.syscalls_per_pkt", closed.syscalls_per_packet());
        r.put(
            "serve.empty_recv_per_pkt",
            open.empty_recv_calls as f64 / open.requests.max(1) as f64,
        );
        r.put("serve.batch_fill_mean", closed.requests as f64 / closed.batches.max(1) as f64);
        r.put(
            "serve.deadline_flush_ratio",
            open.deadline_flushes as f64 / open.batches.max(1) as f64,
        );
        r.put("serve.server_p50_us", server_us.p50_us);
        r.put("serve.server_p99_us", server_us.p99_us);
        r.put("serve.wire_p99_us", best_decile(&mut wired.p99_us, Lower));
        r.put("serve.wire_residue_us", wire_p50_us - server_us.p50_us);
        r.put("serve.wire_sat_kpps", wire_sat_kpps);
        r.put("serve.classify_share", (1e3 / batch_mpps) / (1e6 / wire_sat_kpps));
        let null_kpps = wire::null_plane_probe(stride, &trace, seconds * 0.06, r, t)?;
        r.put("serve.null_plane_sat_kpps", null_kpps);
        wire::ladder_probe(
            &handle,
            stride,
            &trace,
            &after,
            seconds * 0.025,
            sub_seed(seed, 99),
            r,
            t,
        )?;
        wire::frame_probe(&trace, r, t);
        wire::sysio_probe(r, t)?;
        r.put("loadgen.late_us_p99", late_us_p99);
        let retransmits = wired.open_retransmits as f64 / wired.open_requests.max(1) as f64;
        r.put("loadgen.retransmit_ratio", retransmits);
        r.put("loadgen.threads", 1.0);
        tr.write_json(std::path::Path::new(&format!("benchmark/results/trace-{}.json", w.name)))?;
        // Keep only the declared per-layer metrics, in declared order.
        let all = std::mem::take(&mut report.metrics);
        report.metrics = PER_LAYER
            .iter()
            .map(|m| (m.name, all.iter().find(|a| a.0 == m.name).map_or(f64::NAN, |a| a.1)))
            .collect();
    } else {
        report.put("setup_s", best_decile(&mut setups, Lower));
        report.put("index_bytes", nm.memory_bytes() as f64);
        report.put("classify_mpps", batch_mpps);
        report.put("churn_classify_mpps", churn_mpps);
        report.put("wire_p50_us", wire_p50_us);
    }
    let unmeasured: Vec<_> =
        report.metrics.iter().filter(|m| !m.1.is_finite()).map(|m| m.0).collect();
    report.check(unmeasured.is_empty(), &format!("metrics without a value: {unmeasured:?}"));
    Ok(report)
}

fn print_report(w: &Workload, seed: u64, traced: bool, r: &Report) {
    let kind = if traced { "per-layer (traced)" } else { "end-to-end (untraced)" };
    println!("## {} seed {seed} — {kind}", w.name);
    for (name, v) in &r.metrics {
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == *name)
            .map_or(String::new(), |m| format!("  (regression bound {:.0} %)", m.bound * 100.0));
        println!("{name:<36} {v:>16.4} {}{bound}", unit_of(name));
    }
    println!("operations: {} attempted, {} failed", r.attempted, r.failed);
    for f in &r.failures {
        println!("FAILED {f}");
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    aa: bool,
    print_manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        traced: false,
        aa: false,
        print_manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.traced = value()? != "0",
            "--aa" => a.aa = true,
            "--print-manifest" => a.print_manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(a.seconds.is_finite() && a.seconds >= 1.0) {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(a)
}

/// Runs the untraced suite twice and judges each metric's change against
/// its bound. Returns whether every pairing passed.
fn aa(seed: u64, seconds: f64) -> std::io::Result<bool> {
    let mut all_pass = true;
    for w in &inputs::WORKLOADS {
        let first = run(w, seed, seconds, false)?;
        let second = run(w, seed, seconds, false)?;
        println!("## {} seed {seed} — A/A", w.name);
        for m in &END_TO_END {
            let (a, b) = (first.get(m.name), second.get(m.name));
            let worse = if m.better == Better::Lower { (b - a) / a } else { (a - b) / a };
            let pass = worse <= m.bound;
            all_pass &= pass && first.failed + second.failed == 0;
            println!(
                "{:<26} {a:>14.4} {b:>14.4} {:<7} {:>+7.2} % (bound {:.0} %) {}",
                m.name,
                m.unit,
                (b - a) / a * 100.0,
                m.bound * 100.0,
                if pass { "PASS" } else { "FAIL" }
            );
        }
    }
    Ok(all_pass)
}

fn main() -> std::process::ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return 2.into();
        }
    };
    if args.print_manifest {
        print!("{}", metrics::manifest());
        return 0.into();
    }
    println!(
        "# nm-benchmark: {} hardware threads, {}-{}, loopback UDP only; at most 2 runnable \
         benchmark-side threads; no number here is a scaling result",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        std::env::consts::ARCH,
        std::env::consts::OS,
    );
    let outcome = match (&args.workload, args.aa) {
        (Some(name), _) => {
            let Some(w) = inputs::workload(name) else {
                eprintln!("unknown workload {name}");
                return 2.into();
            };
            run(w, args.seed, args.seconds, args.traced).map(|r| {
                print_report(w, args.seed, args.traced, &r);
                // The contract's result: the last line of standard output.
                println!("{}", r.json());
                r.failed == 0
            })
        }
        (None, true) => aa(args.seed, args.seconds),
        (None, false) => inputs::WORKLOADS.iter().try_fold(true, |ok, w| {
            let untraced = run(w, args.seed, args.seconds, false)?;
            print_report(w, args.seed, false, &untraced);
            let traced = run(w, args.seed, args.seconds, true)?;
            print_report(w, args.seed, true, &traced);
            Ok(ok && untraced.failed + traced.failed == 0)
        }),
    };
    match outcome {
        Ok(true) => 0.into(),
        Ok(false) => 1.into(),
        Err(e) => {
            eprintln!("benchmark could not run: {e}");
            3.into()
        }
    }
}
