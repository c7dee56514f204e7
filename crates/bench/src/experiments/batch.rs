//! Batch-size sweep — throughput of the batched lookup pipeline.
//!
//! The paper batches 128 packets for parallelization (§5.1); this experiment
//! quantifies what batching buys on a single core, for **every batched
//! engine**: NuevoMatch's phase pipeline (stage-synchronous cross-packet
//! inference, prefetched secondary-search windows, batch-wide early
//! termination), TupleMerge's table-major probe, and the
//! CutSplit/NeuroCuts level-synchronous tree descent. Sweeps batch sizes
//! 1/8/32/128/512 through
//! [`nuevomatch::system::parallel::run_batched`] over the scale's
//! application suite at its largest size, plus a `fib` row pair —
//! `stanford_fib` at the same size in 8 iSets against bare TupleMerge, the
//! paper's own comparison on the rule-set where the iSets are the whole
//! lookup. Columns report Mpps; the `b=1` column is the reference: the
//! engine's one lookup hook called on one key per packet (the small-batch
//! branch of the engines that have one).
//!
//! Every row's checksum at every batch size is checked against its `b=1`
//! checksum, so the sweep double-checks batch-size equivalence on the
//! measured trace — a mismatch fails the run. An inference table times
//! `CompiledRqRmi::predict_batch` on its own: ns/key over independent
//! 64-key chunks of uniform keys, one row per instruction set this CPU
//! runs, one model per Table 4 width shape — a *throughput*, what the
//! pipeline's predict phase pays per key, where a dependent chain of
//! predicts (`table1`) reports a latency the pipeline never waits for. The
//! five perf targets (tree engines ≥ 1.5x at batch 128 on fw; tm and nm/tm
//! at batch 128 ≥ the per-key loop on acl; nm/tm ≥ 1.5x tm at batch 128 on
//! acl; nm/tm ≥ tm at batch 128 on fib; inference ≤ 6 ns/key on AVX2+FMA)
//! print PASS/WARN.
//!
//! A probe ledger breaks a TupleMerge lookup on the acl trace into counts
//! per packet ([`TupleMerge::probe_tally`]) — tables reached, tables the
//! table filter lets through (each a hash and a slot load), slot hits, run
//! entries walked, rules box-checked, wins and where the winner sat — for
//! NuevoMatch's remainder under the iSets' floors and for bare TupleMerge.
//! A filter that lets every table through still returns every verdict, so
//! only this table can see it rot: a remainder of 16 tables or more whose
//! filter pruned nothing fails the run.

use crate::{nc_config, nm_config, nm_tm, suite, Ctx, Outcome};
use nm_analysis::{geomean, Json, Table};
use nm_common::{Classifier, FieldRange, Priority, SplitMix64, TraceBuf};
use nm_cutsplit::{CutSplit, NeuroCuts};
use nm_trace::uniform_trace;
use nm_tuplemerge::{ProbeTally, TupleMerge};
use nuevomatch::rqrmi::{detect, train_rqrmi, CompiledRqRmi, Isa};
use nuevomatch::system::parallel::run_batched;
use nuevomatch::{NuevoMatch, RqRmiParams};
use std::cell::RefCell;

/// Batch sizes swept; the first, 1, is every row's reference.
const BATCHES: &[usize] = &[1, 8, 32, 128, 512];

/// Measured passes per point; the best is kept. The box this sweep runs on
/// is a shared single core, so any single pass can eat an unrelated
/// scheduling hiccup — best-of-k treats both sides of every ratio equally.
const PASSES: usize = 3;

/// Builds one engine of the sweep on demand.
type Build<'a> = &'a dyn Fn() -> Box<dyn Classifier + 'a>;

/// Sweeps one engine over one rule-set, adds its row to `table`, and
/// returns the batch-128 speedup over batch 1 (the one-key loop) and the
/// batch-128 throughput itself (packets/s).
fn sweep(
    out: &mut Outcome,
    engine: &str,
    app: &str,
    c: &dyn Classifier,
    trace: &TraceBuf,
    warmups: usize,
    table: &mut Table,
) -> (f64, f64) {
    // Batch 1, the per-key loop, is the honest "before" point. All batch
    // sizes are measured round-robin PASSES times so machine drift between
    // measurements lands on both sides of every ratio; the best pass per
    // point is kept.
    for &b in BATCHES {
        for _ in 0..warmups {
            let _ = run_batched(c, trace, b);
        }
    }
    let mut pps = vec![0.0f64; BATCHES.len()];
    let mut per_key_sum = None;
    for _ in 0..PASSES {
        for (i, &b) in BATCHES.iter().enumerate() {
            let stats = run_batched(c, trace, b);
            let want = *per_key_sum.get_or_insert(stats.checksum);
            out.check(stats.checksum == want, || {
                format!("{engine}/{app}: batch {b} diverged from batch 1")
            });
            pps[i] = pps[i].max(stats.pps);
        }
    }
    let pps_128 = pps[BATCHES.iter().position(|&b| b == 128).expect("128 is swept")];
    let speedup = pps_128 / pps[0];
    let mut row = vec![app.to_string(), engine.to_string()];
    row.extend(pps.iter().map(|p| format!("{:.2}", p / 1e6)));
    row.push(format!("{speedup:.2}x"));
    table.row(row);
    (speedup, pps_128)
}

/// What the remainder's per-key probe does on `trace` under the floors the
/// batched lookup hands it: one past each key's iSet candidate.
fn remainder_tally(nm: &NuevoMatch<TupleMerge>, trace: &TraceBuf) -> ProbeTally {
    let mut isets = vec![None; trace.len()];
    nm.classify_isets_batch(trace.raw(), trace.stride(), &mut isets);
    let floor = |m: &Option<nm_common::MatchResult>| {
        m.map_or(Priority::MAX, |m| m.priority.saturating_add(1))
    };
    let floors: Vec<Priority> = isets.iter().map(floor).collect();
    nm.remainder().probe_tally(trace.raw(), trace.stride(), Some(&floors))
}

/// One probe-ledger row: `tally` per packet of a `packets`-key trace.
fn ledger_row(app: &str, engine: &str, tally: &ProbeTally, packets: usize) -> Vec<String> {
    let per_pkt = |n: u64| format!("{:.2}", n as f64 / packets as f64);
    let won = (tally.won_in_first + tally.won_in_second + tally.won_in_later).max(1) as f64;
    vec![
        app.to_string(),
        engine.to_string(),
        tally.tables.to_string(),
        per_pkt(tally.passed_floor),
        per_pkt(tally.admitted),
        per_pkt(tally.slot_hits),
        per_pkt(tally.entries_walked),
        per_pkt(tally.box_checks),
        per_pkt(tally.wins),
        format!(
            "{:.2}/{:.2}/{:.2}",
            tally.won_in_first as f64 / won,
            tally.won_in_second as f64 / won,
            tally.won_in_later as f64 / won
        ),
    ]
}

/// The inference table: `predict_batch` ns/key (the best pass) over
/// independent 64-key chunks of uniform keys, one row per instruction set
/// this CPU runs, one column per Table 4 width shape — each model trained
/// on a range count that selects its shape. Returns the best ISA
/// ([`detect`]'s, the last row) with its slowest shape. Checks on the way
/// that the batched walk equals the single-key walk and that every covered
/// key's window holds its range.
fn inference_throughput(out: &mut Outcome) -> (Isa, f64) {
    const KEYS: usize = 1 << 16;
    const BITS: u8 = 32;
    let mut rng = SplitMix64::new(0x1fe2);
    let keys: Vec<u64> = (0..KEYS).map(|_| rng.below(1 << BITS)).collect();
    let isas = [Isa::Scalar, Isa::Sse, Isa::Avx, Isa::AvxFma];
    let mut rows: Vec<(Isa, Vec<f64>)> =
        isas.into_iter().filter(|isa| isa.available()).map(|isa| (isa, Vec::new())).collect();
    let mut header = vec!["isa".to_string()];
    for n in [500u64, 5_000, 50_000, 200_000, 500_000] {
        let step = (1 << BITS) / n;
        let ranges: Vec<FieldRange> =
            (0..n).map(|i| FieldRange::new(i * step, i * step + step / 2)).collect();
        let model = train_rqrmi(&ranges, BITS, &RqRmiParams::default()).expect("training");
        header.push(format!("{:?}", model.widths()));
        for (isa, row) in &mut rows {
            let compiled = CompiledRqRmi::with_isa(&model, *isa);
            let (mut preds, mut errs) = (vec![0usize; KEYS], vec![0u32; KEYS]);
            let mut best = f64::MAX;
            // A pass is a millisecond or less: many of them, so that one
            // lands outside a neighbour's burst.
            for _ in 0..16 * PASSES {
                let t0 = std::time::Instant::now();
                let chunks = keys.chunks(64).zip(preds.chunks_mut(64)).zip(errs.chunks_mut(64));
                for ((keys, preds), errs) in chunks {
                    compiled.predict_batch(keys, preds, errs);
                }
                best = best.min(t0.elapsed().as_nanos() as f64 / KEYS as f64);
            }
            let agrees = keys.iter().zip(preds.iter().zip(&errs)).all(|(&key, (&pred, &err))| {
                // `n * step` stops short of the domain's end: no range there.
                let covered = key / step < n && key % step <= step / 2;
                (pred, err) == compiled.predict(key)
                    && (!covered || pred.abs_diff((key / step) as usize) <= err as usize)
            });
            out.check(agrees, || {
                format!("{isa:?} predict_batch went wrong on the {:?} model", model.widths())
            });
            row.push(best);
        }
    }
    let mut table = Table::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    for (isa, row) in &rows {
        let mut cells = vec![format!("{isa:?}")];
        cells.extend(row.iter().map(|ns| format!("{ns:.2}")));
        table.row(cells);
    }
    out.table("inference", table);
    let (best_isa, best_row) = rows.last().expect("Scalar is always available");
    (*best_isa, best_row.iter().copied().fold(0.0, f64::max))
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let s = &ctx.scale;
    let n = *s.sizes.last().expect("scale has sizes");
    out.say(format!("=== Batch-size sweep — {n} rules, uniform traffic, single core ==="));
    out.say("(columns in Mpps; b=1 = one key per lookup call; speedup = batch 128 vs b=1)\n");
    let mut table = Table::new(&["set", "engine", "b=1", "b=8", "b=32", "b=128", "b=512", "128/1"]);
    let mut ledger = Table::new(&[
        "set", "engine", "tables", "reached", "hashed", "slot hits", "walked", "box checks",
        "wins", "won 1st/2nd/later",
    ]);
    let mut filter_targets = Vec::new();
    // (engine, app, batch-128 speedup over the per-key loop, batch-128
    // packets/s) per swept row.
    let mut rows: Vec<(&str, String, f64, f64)> = Vec::new();
    for (app, set) in suite(n, s) {
        let trace = uniform_trace(&set, s.trace_len, 0xba7c4 + n as u64);
        // Built one at a time, so one engine is alive at a time; the two
        // TupleMerge users leave their probe tally behind on acl.
        let acl = app.starts_with("acl");
        let tallies = RefCell::new(Vec::new());
        let engines: [(&str, Build<'_>); 4] = [
            ("nm/tm", &|| {
                let nm = nm_tm(&set);
                if acl {
                    tallies.borrow_mut().push(("nm/tm remainder", remainder_tally(&nm, &trace)));
                }
                Box::new(nm)
            }),
            ("tm", &|| {
                let tm = TupleMerge::build(&set);
                if acl {
                    let tally = tm.probe_tally(trace.raw(), trace.stride(), None);
                    tallies.borrow_mut().push(("tm", tally));
                }
                Box::new(tm)
            }),
            ("cs", &|| Box::new(CutSplit::build(&set))),
            ("nc", &|| Box::new(NeuroCuts::with_config(&set, nc_config(!s.full)))),
        ];
        for (engine, build) in engines {
            let (speedup, pps_128) =
                sweep(&mut out, engine, &app, &*build(), &trace, s.warmups, &mut table);
            rows.push((engine, app.clone(), speedup, pps_128));
        }
        for (engine, tally) in tallies.into_inner() {
            ledger.row(ledger_row(&app, engine, &tally, trace.len()));
            if engine == "tm" {
                continue; // reported, not judged: most of its tables are wide
            }
            // Each table the filter turns away saves a hash and a slot load.
            let (reached, hashed) = (tally.passed_floor, tally.admitted);
            filter_targets.push(format!(
                "{}: {app} remainder hashes {:.2} of the tables a packet reaches (target 0.5)",
                if hashed * 2 <= reached { "PASS" } else { "WARN" },
                hashed as f64 / reached.max(1) as f64,
            ));
            out.check(tally.tables < 16 || hashed < reached, || {
                format!("{app}: the table filter pruned nothing over {} tables", tally.tables)
            });
            out.scalar(&format!("{app}_remainder_tables"), tally.tables);
            let hashed_per_pkt = Json::num(hashed as f64 / trace.len() as f64, 3);
            out.scalar(&format!("{app}_remainder_hashed_per_pkt"), hashed_per_pkt);
        }
    }
    // The paper's comparison where the iSets are the whole lookup: a FIB in
    // 8 iSets (remainder near empty) against the whole set in TupleMerge.
    let set = nm_classbench::stanford_fib(n, 0xf1b + n as u64);
    let trace = uniform_trace(&set, s.trace_len, 0xba7c4 + n as u64);
    let engines: [(&str, Build<'_>); 2] = [
        ("nm/tm", &|| {
            let built = NuevoMatch::build(&set, &nm_config(8, 0.0), TupleMerge::build);
            Box::new(built.expect("nm/tm build"))
        }),
        ("tm", &|| Box::new(TupleMerge::build(&set))),
    ];
    let fib_pps = engines.map(|(engine, build)| {
        sweep(&mut out, engine, "fib", &*build(), &trace, s.warmups, &mut table).1
    });
    out.table("sweep", table);
    out.say("\n=== Probe ledger — TupleMerge's per-key probe on the acl trace ===");
    out.say("(per packet; reached = tables before the packet's bound ends the probe, hashed = \
             those the table filter lets through)\n");
    out.table("probe_ledger", ledger);
    filter_targets.into_iter().for_each(|line| out.say(line));

    let nm_speedups: Vec<f64> = rows.iter().filter(|r| r.0 == "nm/tm").map(|r| r.2).collect();
    let gm = geomean(&nm_speedups);
    out.say(format!(
        "\nNuevoMatch batch-128 speedup over the per-key loop, geomean across apps: {gm:.2}x"
    ));

    // Batch-128 over the per-key loop. The tree engines: level-synchronous
    // descent should lift the remainder-heavy fw-style set by ≥ 1.5x.
    // TupleMerge, bare and as NuevoMatch's remainder: the table-major sweep
    // must at least not lose to the per-key probe on acl.
    let mut target_pass = |engines: [&str; 2], app_prefix: &str, target: f64| {
        let mut pass = true;
        for (engine, app, sp, _) in
            rows.iter().filter(|r| engines.contains(&r.0) && r.1.starts_with(app_prefix))
        {
            let ok = *sp >= target;
            pass &= ok;
            out.say(format!(
                "{}: {engine}/{app} batch-128 vs per-key {sp:.2}x (target {target}x)",
                if ok { "PASS" } else { "WARN" },
            ));
        }
        pass
    };
    let tree_pass = target_pass(["cs", "nc"], "fw", 1.5);
    let tm_pass = target_pass(["tm", "nm/tm"], "acl", 1.0);
    // NuevoMatch over bare TupleMerge where the remainder is most of the
    // lookup, both behind the same table filter.
    let pps_128 = |engine: &str| {
        let row = rows.iter().find(|r| r.0 == engine && r.1.starts_with("acl"));
        row.expect("every suite has an acl set").3
    };
    let nm_vs_tm_acl = pps_128("nm/tm") / pps_128("tm");
    out.say(format!(
        "{}: nm/tm vs tm on acl at batch 128 {nm_vs_tm_acl:.2}x (target 1.5x)",
        if nm_vs_tm_acl >= 1.5 { "PASS" } else { "WARN" },
    ));
    // NuevoMatch over the engine it is meant to beat, on the rule-set built
    // to show it.
    let nm_vs_tm_fib = fib_pps[0] / fib_pps[1];
    out.say(format!(
        "{}: nm/tm vs tm on fib at batch 128 {nm_vs_tm_fib:.2}x (target 1x)",
        if nm_vs_tm_fib >= 1.0 { "PASS" } else { "WARN" },
    ));

    out.say("\n=== Inference throughput — predict_batch, 64-key chunks ===");
    out.say("(ns per key, uniform keys; one model per Table 4 width shape)\n");
    let (best_isa, worst) = inference_throughput(&mut out);
    // The target is the 8-key AVX2+FMA kernel's; the older ISAs run their
    // single-key kernel once per key and are reported, not held to it.
    const TARGET_NS: f64 = 6.0;
    let inference_pass = best_isa != Isa::AvxFma || worst <= TARGET_NS;
    out.say(if best_isa != Isa::AvxFma {
        format!("SKIP: no AVX2+FMA on this host — worst shape {worst:.2} ns/key, no target")
    } else {
        format!(
            "{}: {best_isa:?} worst shape {worst:.2} ns/key (target <= {TARGET_NS} ns/key)",
            if inference_pass { "PASS" } else { "WARN" },
        )
    });

    out.scalar("rules", n);
    out.scalar("isa", format!("{:?}", detect()));
    out.scalar("nm_tm_geomean_128_vs_b1", Json::num(gm, 3));
    out.scalar("tree_target_pass", tree_pass);
    out.scalar("tm_target_pass", tm_pass);
    out.scalar("nm_vs_tm_acl_128", Json::num(nm_vs_tm_acl, 3));
    out.scalar("nm_vs_tm_fib_128", Json::num(nm_vs_tm_fib, 3));
    out.scalar("inference_ns_per_key_worst", Json::num(worst, 3));
    out.scalar("inference_target_pass", inference_pass);
    out
}
