//! Worker-runtime integration: every execution plan — the two-worker
//! iSet/remainder split, the replicated baseline, and the sharded data
//! planes — must produce exactly the sequential results on real generated
//! workloads, at several batch sizes and worker grids, on all four engine
//! families (nm/tm/cs/nc).
//!
//! The update-facing tests drive the [`ShardedHandle`] control plane: a
//! fanned `UpdateBatch` stream must keep the shards verdict-equivalent to a
//! whole-set [`ClassifierHandle`] receiving the same stream (property-
//! checked below), and a pinned [`ShardEpoch`] must never mix generations
//! across shards — one batch of one transaction is visible everywhere or
//! nowhere.

use std::sync::Arc;

use proptest::prelude::*;

use nm_classbench::{generate, AppKind};
use nm_common::{
    Classifier, Error, FieldsSpec, FiveTuple, Generation, LinearSearch, RuleSet, UpdateBatch,
    UpdateReport,
};
use nm_cutsplit::{CutSplit, NeuroCuts, NeuroCutsConfig};
use nm_trace::{uniform_trace, zipf_trace};
use nm_tuplemerge::TupleMerge;
use nuevomatch::system::parallel::run_batched;
use nuevomatch::system::runtime::{Replicated, SplitPlan};
use nuevomatch::{
    ClassifierHandle, NuevoMatchConfig, RqRmiParams, Runtime, RuntimeConfig, ShardedClassifier,
    ShardedHandle,
};

fn fast_cfg() -> NuevoMatchConfig {
    NuevoMatchConfig {
        rqrmi: RqRmiParams { samples_init: 512, ..Default::default() },
        ..Default::default()
    }
}

fn build(n: usize, seed: u64) -> (ClassifierHandle<TupleMerge>, nm_common::RuleSet) {
    let set = generate(AppKind::Acl, n, seed);
    (ClassifierHandle::new(&set, &fast_cfg(), TupleMerge::build).unwrap(), set)
}

fn runtime(batch: usize) -> Runtime {
    Runtime::new(RuntimeConfig { batch, ..Default::default() })
}

#[test]
fn two_workers_equal_sequential_across_batch_sizes() {
    let (nm, set) = build(1_500, 31);
    let trace = uniform_trace(&set, 6_000, 32);
    let seq = run_batched(&nm, &trace, 1);
    for batch in [1usize, 7, 128, 1_024, 10_000] {
        let par = runtime(batch).run(&SplitPlan::new(&nm), &trace).unwrap();
        assert_eq!(par.checksum, seq.checksum, "batch {batch}");
    }
}

#[test]
fn two_workers_on_skewed_traffic() {
    let (nm, set) = build(1_000, 33);
    let trace = zipf_trace(&set, 6_000, 1.25, 34);
    let seq = run_batched(&nm, &trace, 1);
    let par = runtime(128).run(&SplitPlan::new(&nm), &trace).unwrap();
    assert_eq!(par.checksum, seq.checksum);
}

#[test]
fn replicated_equals_sequential_at_every_width() {
    // The plan-based replicated mode merges in trace order, so the checksum
    // is comparable at any thread count (the legacy XOR fold was not).
    let (nm, set) = build(800, 35);
    let trace = uniform_trace(&set, 4_000, 36);
    let seq = run_batched(&nm, &trace, 1);
    for threads in [1usize, 2, 4] {
        let rep = runtime(64).run(&Replicated::new(&nm, threads), &trace).unwrap();
        assert_eq!(rep.checksum, seq.checksum, "threads {threads}");
        assert!(rep.pps > 0.0);
        assert!(rep.seconds > 0.0);
    }
}

#[test]
fn trace_shorter_than_batch() {
    let (nm, set) = build(300, 39);
    let trace = uniform_trace(&set, 50, 40);
    let seq = run_batched(&nm, &trace, 1);
    let par = runtime(128).run(&SplitPlan::new(&nm), &trace).unwrap();
    assert_eq!(par.checksum, seq.checksum);
}

/// The acceptance matrix: the sharded runtime is checksum-equivalent to
/// the per-key loop (`run_batched` at batch 1) over the whole-set engine on
/// all four engine families, across shard counts and worker widths.
#[test]
fn sharded_runtime_equals_sequential_on_all_four_engines() {
    let set = generate(AppKind::Acl, 1_200, 41);
    let trace = uniform_trace(&set, 5_000, 42);
    let grids = [(2usize, 1usize), (3, 2)];

    // nm (handle replicas — the live control plane's data path).
    {
        let whole = ClassifierHandle::new(&set, &fast_cfg(), TupleMerge::build).unwrap();
        let seq = run_batched(&whole, &trace, 1);
        for &(shards, wps) in &grids {
            let sharded = ShardedHandle::new(&set, &fast_cfg(), shards, TupleMerge::build).unwrap();
            let rt = Runtime::new(RuntimeConfig { workers_per_shard: wps, ..Default::default() });
            let stats = rt.run(&sharded, &trace).unwrap();
            assert_eq!(stats.checksum, seq.checksum, "nm {shards}x{wps}");
            // The steering stage saw every packet exactly once.
            assert_eq!(stats.steered.iter().sum::<u64>(), trace.len() as u64);
        }
    }
    // tm / cs / nc (static per-shard replicas).
    let check_static =
        |name: &str, engine: &dyn Classifier, sharded: &ShardedClassifier<Box<dyn Classifier>>| {
            let seq = run_batched(engine, &trace, 1);
            let rt = Runtime::new(RuntimeConfig { workers_per_shard: 2, ..Default::default() });
            let stats = rt.run(sharded, &trace).unwrap();
            assert_eq!(stats.checksum, seq.checksum, "{name}");
            // And the sharded engine's own (single-threaded) batch path agrees.
            let direct = run_batched(sharded, &trace, 1);
            assert_eq!(direct.checksum, seq.checksum, "{name} per-key steer");
        };
    let tm = TupleMerge::build(&set);
    let tm_sharded = ShardedClassifier::build(&set, 2, |s: &RuleSet| {
        Box::new(TupleMerge::build(s)) as Box<dyn Classifier>
    })
    .unwrap();
    check_static("tm", &tm, &tm_sharded);
    let cs = CutSplit::build(&set);
    let cs_sharded = ShardedClassifier::build(&set, 2, |s: &RuleSet| {
        Box::new(CutSplit::build(s)) as Box<dyn Classifier>
    })
    .unwrap();
    check_static("cs", &cs, &cs_sharded);
    let nc_cfg = NeuroCutsConfig { iterations: 8, sample: 1_024 };
    let nc = NeuroCuts::with_config(&set, nc_cfg);
    let nc_sharded = ShardedClassifier::build(&set, 2, move |s: &RuleSet| {
        Box::new(NeuroCuts::with_config(s, nc_cfg)) as Box<dyn Classifier>
    })
    .unwrap();
    check_static("nc", &nc, &nc_sharded);
}

/// A pinned epoch can never mix generations across shards: one transaction
/// that touches two shards is visible everywhere or nowhere, no matter how
/// the reader's pin races the writer's fan-out.
#[test]
fn epoch_pins_never_mix_generations_across_shards() {
    // Two rules steered to different shards (low vs high dst-port range).
    let rules: Vec<_> = (0..120u16)
        .map(|i| {
            FiveTuple::new().dst_port_range(i * 500, i * 500 + 450).into_rule(i as u32, i as u32)
        })
        .collect();
    let set = RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap();
    let sharded = ShardedHandle::new(&set, &fast_cfg(), 2, nm_common::LinearSearch::build).unwrap();
    // Rule 2 lives in shard 0's range, rule 100 in shard 1's.
    assert_ne!(
        sharded.plan().steer(&[0, 0, 0, 1_100, 0]),
        sharded.plan().steer(&[0, 0, 0, 50_100, 0]),
        "test needs the probes on different shards"
    );
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writer = sharded.clone();
        let stop_ref = &stop;
        scope.spawn(move || {
            // Each batch moves BOTH rules between state A (priority tag via
            // distinct target ports) and state B, atomically.
            let mut flip = false;
            while !stop_ref.load(std::sync::atomic::Ordering::SeqCst) {
                let (p2, p100) = if flip { (1_100u16, 50_100u16) } else { (40_000, 2_000) };
                writer.apply(
                    &UpdateBatch::new()
                        .modify(FiveTuple::new().dst_port_exact(p2).into_rule(2, 2))
                        .modify(FiveTuple::new().dst_port_exact(p100).into_rule(100, 100)),
                );
                flip = !flip;
            }
        });
        let keys = [0u64, 0, 0, 1_100, 0, 0, 0, 0, 50_100, 0];
        let state = |out: &[Option<nm_common::MatchResult>; 2]| {
            let a_state = out[0].map(|m| m.rule) == Some(2); // rule 2 at 1_100 = state A
            let b_state = out[1].map(|m| m.rule) == Some(100); // rule 100 at 50_100 = state A
            assert_eq!(a_state, b_state, "one transaction split across shard generations: {out:?}");
        };
        for _ in 0..2_000 {
            let epoch = sharded.epoch();
            // Capture the pinned epoch's verdicts *before* the writer gets
            // a chance to race, probe, then re-read: a pinned epoch is
            // frozen, so its verdicts must still be the captured ones.
            let mut pinned = [None, None];
            epoch.classify_batch(&keys, 5, &mut pinned);
            state(&pinned);
            // Coherence across shards: one *epoch-pinned* read covers both
            // shards — the Classifier impl pins once per batch, so both
            // probes land in one batch_lookup call.
            let mut out = [None, None];
            sharded.classify_batch(&keys, 5, &mut out);
            state(&out);
            let mut again = [None, None];
            epoch.classify_batch(&keys, 5, &mut again);
            assert_eq!(again, pinned, "a pinned epoch's verdicts moved under the writer");
        }
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
    });
}

/// Regression: a `ShardedHandle` built over a set with nothing to broadcast
/// used to skip its broadcast shard for good (the epoch re-derived "is there
/// a broadcast engine" from a rule count that never moved), so a wildcard
/// inserted later was accounted for and never served.
#[test]
fn insert_into_an_initially_empty_broadcast_shard_is_served() {
    use nuevomatch::{PinnedPlane, ServePlane};
    let rules: Vec<_> = (0..200u16)
        .map(|i| {
            FiveTuple::new().dst_port_range(i * 300, i * 300 + 20).into_rule(i as u32, i as u32)
        })
        .collect();
    let set = RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap();
    let whole = ClassifierHandle::new(&set, &fast_cfg(), nm_common::LinearSearch::build).unwrap();
    let sharded = ShardedHandle::new(&set, &fast_cfg(), 2, nm_common::LinearSearch::build).unwrap();
    assert_eq!(sharded.plan().shards(), 2);
    assert_eq!(sharded.plan().broadcast_fraction(), 0.0, "the set must start broadcast-free");

    // Beats every base rule but 0 and (on the id tie-break) 1.
    let batch = UpdateBatch::new().insert(FiveTuple::new().into_rule(900, 1));
    assert_eq!(sharded.apply(&batch), whole.apply(&batch));

    let mut trace = nm_common::TraceBuf::new(5);
    for port in (0u64..65_536).step_by(37) {
        trace.push(&[7, 7, 7, port, 6]);
    }
    let want: Vec<_> = trace.iter().map(|key| whole.classify(key)).collect();
    assert!(want.iter().any(|m| m.map(|m| m.rule) == Some(900)), "the wildcard must win somewhere");
    let scalar: Vec<_> = trace.iter().map(|key| sharded.classify(key)).collect();
    assert_eq!(scalar, want, "per-key");
    let mut out = vec![None; trace.len()];
    sharded.classify_batch(trace.raw(), trace.stride(), &mut out);
    assert_eq!(out, want, "batched");
    out.fill(None);
    ServePlane::pin(&sharded).classify_batch(trace.raw(), trace.stride(), &mut out);
    assert_eq!(out, want, "serve pin");
    let run = runtime(64).run(&sharded, &trace).unwrap();
    assert_eq!(run.checksum, run_batched(&whole, &trace, 1).checksum, "Runtime::run");
    assert_eq!((sharded.num_rules(), whole.num_rules()), (201, 201));
}

/// What licenses `nmctl serve` driving a `ShardedHandle` at every shard
/// count: a 1-shard sharded handle is the same control plane as a plain
/// `ClassifierHandle`. Fed one seeded stream of update batches (inserts,
/// removes, modifies, misses) and retrains, both report the same accounting
/// and the same generation after every step, and the same verdicts over a
/// trace through the per-key, batched and serve-pin paths.
#[test]
fn one_shard_sharded_handle_equals_classifier_handle_step_by_step() {
    use nuevomatch::{PinnedPlane, ServePlane};
    let (plain, set) = build(500, 51);
    let sharded = ShardedHandle::new(&set, &fast_cfg(), 1, TupleMerge::build).unwrap();
    let trace = uniform_trace(&set, 2_000, 52);
    let verdicts_agree = |step: &str| {
        assert_eq!(sharded.generation(), plain.generation(), "generation after {step}");
        let seq = run_batched(&plain, &trace, 1);
        assert_eq!(run_batched(&sharded, &trace, 1).checksum, seq.checksum, "per-key, {step}");
        let (pin, mut out) = (ServePlane::pin(&sharded), vec![None; trace.len()]);
        assert_eq!(pin.generation(), plain.generation(), "pinned generation after {step}");
        pin.classify_batch(trace.raw(), trace.stride(), &mut out);
        let per_key: Vec<_> = trace.iter().map(|key| plain.classify(key)).collect();
        assert_eq!(out, per_key, "serve pin, {step}");
    };
    verdicts_agree("build");
    let mut rng = nm_common::SplitMix64::new(53);
    for step in 0..24u32 {
        let mut batch = UpdateBatch::new();
        for _ in 0..1 + rng.below(6) {
            let id = rng.below(560) as u32; // ids >= 500 miss until inserted
            let port = rng.below(60_000) as u16;
            batch = match rng.below(4) {
                0 => batch.insert(FiveTuple::new().dst_port_exact(port).into_rule(id, id)),
                1 => batch.remove(id),
                _ => batch.modify(
                    FiveTuple::new()
                        .dst_port_range(port, port.saturating_add(200))
                        .into_rule(id, id),
                ),
            };
        }
        assert_eq!(sharded.apply(&batch), plain.apply(&batch), "accounting, step {step}");
        verdicts_agree(&format!("apply {step}"));
        if step % 6 == 5 {
            assert_eq!(sharded.retrain().unwrap(), plain.retrain().unwrap(), "retrain stamp");
            verdicts_agree(&format!("retrain after step {step}"));
        }
    }
}

/// Mid-run control traffic: runtime executions complete while fanned
/// updates and sharded retrains land, every batch internally pinned to one
/// logical generation; after quiescing, the shards serve exactly what a
/// whole-set handle fed the same stream serves.
#[test]
fn sharded_runtime_survives_mid_run_updates_and_retrains() {
    let (reference, set) = build(600, 47);
    let sharded = ShardedHandle::new(&set, &fast_cfg(), 2, TupleMerge::build).unwrap();
    let trace = uniform_trace(&set, 4_000, 48);
    let rt = runtime(128);
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writer = sharded.clone();
        let ref_writer = reference.clone();
        let stop_ref = &stop;
        scope.spawn(move || {
            let mut i = 0u32;
            while !stop_ref.load(std::sync::atomic::Ordering::SeqCst) {
                let id = i % 600;
                let port = 30_000 + (i % 20_000) as u16;
                let batch = UpdateBatch::new()
                    .modify(FiveTuple::new().dst_port_exact(port).into_rule(id, id));
                writer.apply(&batch);
                ref_writer.apply(&batch);
                i += 1;
                if i % 512 == 0 {
                    let _ = writer.retrain();
                }
            }
        });
        for _ in 0..4 {
            let stats = rt.run(&sharded, &trace).expect("run under updates");
            assert!(stats.pps > 0.0);
            assert!(stats.generations.0 <= stats.generations.1);
        }
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
    });
    // Quiesced: both control planes received the same stream; the sharded
    // run must now equal the whole-set sequential reference exactly.
    let seq = run_batched(&reference, &trace, 1);
    let stats = rt.run(&sharded, &trace).unwrap();
    assert_eq!(stats.checksum, seq.checksum, "post-quiesce sharded ≠ whole-set");
    assert!(sharded.generation() > 1, "updates must have published epochs");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Property: after every fanned update batch — inserts, removes,
    /// modifies that move rules across shards, and wide rules that land in
    /// the broadcast shard — the sharded runtime's checksum equals
    /// the per-key loop over a whole-set handle fed the same transactions,
    /// for random shard counts and batches, whether or not the set starts
    /// with anything to broadcast.
    #[test]
    fn prop_sharded_equals_whole_set_under_update_batches(
        seed in 0u64..1_000,
        shards in 2usize..5,
        seed_wildcards in 0u32..3,
        ops in proptest::collection::vec((0u8..4, 0u16..60_000, 0u32..160), 4..40),
        batch_size in 1usize..4,
    ) {
        // 120 base rules with unique priorities (= ids), non-overlapping;
        // every range cut falls on a rule's lower bound, so none of them
        // straddles one and only the seeded wildcards broadcast.
        let mut rules: Vec<_> = (0..120u16)
            .map(|i| {
                FiveTuple::new()
                    .dst_port_range(i * 500, i * 500 + 450)
                    .into_rule(i as u32, i as u32)
            })
            .collect();
        rules.extend((0..seed_wildcards).map(|i| FiveTuple::new().into_rule(3_000 + i, 60 + i)));
        let set = RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap();
        let reference =
            ClassifierHandle::new(&set, &fast_cfg(), nm_common::LinearSearch::build).unwrap();
        let sharded =
            ShardedHandle::new(&set, &fast_cfg(), shards, nm_common::LinearSearch::build).unwrap();
        prop_assert_eq!(sharded.plan().broadcast().len(), seed_wildcards as usize);
        let trace = uniform_trace(&set, 1_500, seed ^ 0xfeed);
        let rt = runtime(64);

        // Apply the op stream in batches of `batch_size` transactions,
        // verifying full equivalence after each transaction lands.
        for chunk in ops.chunks(batch_size.max(1)) {
            let mut batch = UpdateBatch::new();
            for &(kind, port, id) in chunk {
                // Priority = id keeps priorities unique across the stream.
                batch = match kind {
                    0 => batch.insert(
                        FiveTuple::new().dst_port_exact(port).into_rule(1_000 + id, 1_000 + id),
                    ),
                    1 => batch.remove(id),
                    2 => batch.modify(
                        FiveTuple::new()
                            .dst_port_range(port, port.saturating_add(90))
                            .into_rule(id, id),
                    ),
                    // A rule no home shard can own — a wildcard, or a range
                    // wide enough to straddle a cut — at a priority that
                    // beats part of the base set.
                    _ => batch.insert(
                        if port % 2 == 0 {
                            FiveTuple::new()
                        } else {
                            FiveTuple::new().dst_port_range(port, port.saturating_add(30_000))
                        }
                        .into_rule(2_000 + id % 8, id),
                    ),
                };
            }
            let ra = reference.apply(&batch);
            let rb = sharded.apply(&batch);
            prop_assert_eq!(ra, rb, "fan-out accounting diverged");
            prop_assert_eq!(
                ClassifierHandle::generation(&reference) > 1,
                ShardedHandle::generation(&sharded) > 1,
                "publish parity"
            );
            let seq = run_batched(&reference, &trace, 1);
            let run = rt.run(&sharded, &trace).unwrap();
            prop_assert_eq!(seq.checksum, run.checksum, "verdicts diverged after a batch");
            // No batch mixed generations: the quiesced run pinned exactly
            // one logical generation throughout.
            prop_assert_eq!(run.generations.0, run.generations.1);
        }
    }
}

/// Either handle, as the gated-retrain test drives it.
trait LiveHandle: Classifier + Clone + Send + 'static {
    fn apply(&self, batch: &UpdateBatch) -> UpdateReport;
    fn retrain(&self) -> Result<Generation, Error>;
    fn pin(&self) -> Arc<dyn Classifier + Send + Sync>;
    /// The ids of the rules the live publication serves, where the handle
    /// exposes them.
    fn live_ids(&self) -> Option<Vec<u32>>;
}

impl LiveHandle for ClassifierHandle<LinearSearch> {
    fn apply(&self, batch: &UpdateBatch) -> UpdateReport {
        ClassifierHandle::apply(self, batch)
    }

    fn retrain(&self) -> Result<Generation, Error> {
        ClassifierHandle::retrain(self)
    }

    fn pin(&self) -> Arc<dyn Classifier + Send + Sync> {
        self.snapshot()
    }

    fn live_ids(&self) -> Option<Vec<u32>> {
        Some(self.snapshot().engine().live_rules().iter().map(|r| r.id).collect())
    }
}

impl LiveHandle for ShardedHandle<LinearSearch> {
    fn apply(&self, batch: &UpdateBatch) -> UpdateReport {
        ShardedHandle::apply(self, batch)
    }

    fn retrain(&self) -> Result<Generation, Error> {
        ShardedHandle::retrain(self)
    }

    fn pin(&self) -> Arc<dyn Classifier + Send + Sync> {
        self.epoch()
    }

    fn live_ids(&self) -> Option<Vec<u32>> {
        None
    }
}

/// A remainder builder the gated-retrain test can park.
type GatedBuilder = Box<dyn Fn(&RuleSet) -> LinearSearch + Send + Sync>;

/// A retrain trains with the control lock released. With the retrain's
/// `builders` builder calls parked (gate shut), an insert, a pure-miss
/// batch and a modify that moves a rule (across shards, on a two-shard
/// plan) each return; the insert and the modify are visible at once and
/// the pure miss publishes nothing. Once the gate opens, the retrain
/// publishes next, serves exactly the folded rule truth, each id once, and
/// the view pinned before all of it never moved.
fn apply_is_not_blocked_by_a_retrain_in_flight<H: LiveHandle>(
    what: &str,
    builders: usize,
    make: impl FnOnce(&RuleSet, &NuevoMatchConfig, GatedBuilder) -> H,
) {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
    use std::sync::{Condvar, Mutex};

    let (set, moved) = gated_set();
    // The gate: once armed, every builder call counts itself in and parks
    // until the test opens it.
    let armed = Arc::new(AtomicBool::new(false));
    let parked = Arc::new(AtomicUsize::new(0));
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let builder = {
        let (armed, parked, gate) = (armed.clone(), parked.clone(), gate.clone());
        Box::new(move |rem: &RuleSet| {
            if armed.load(SeqCst) {
                parked.fetch_add(1, SeqCst);
                let mut open = gate.0.lock().unwrap();
                while !*open {
                    open = gate.1.wait(open).unwrap();
                }
            }
            LinearSearch::build(rem)
        })
    };
    let full_only = NuevoMatchConfig {
        partial_retrain: nuevomatch::PartialRetrainPolicy::never(),
        ..fast_cfg()
    };
    let handle = make(&set, &full_only, builder);
    let key = [0u64, 0, 0, 61_234, 0];
    assert_eq!(handle.classify(&key), None, "{what}");

    armed.store(true, SeqCst);
    let before = handle.pin();
    let g0 = before.generation();
    let probe: Vec<u64> = (0u64..65_536).step_by(97).flat_map(|p| [0, 0, 0, p, 0]).collect();
    let mut frozen = vec![None; probe.len() / 5];
    before.classify_batch(&probe, 5, &mut frozen);
    let retrainer = {
        let handle = handle.clone();
        std::thread::spawn(move || handle.retrain())
    };
    while parked.load(SeqCst) < builders {
        std::thread::yield_now();
    }

    // Mid-retrain, gate still shut: each of these must return, not wait.
    let inserted = FiveTuple::new().dst_port_exact(61_234).into_rule(900, 0);
    let report = handle.apply(&UpdateBatch::new().insert(inserted.clone()));
    assert_eq!(report.inserted, 1, "{what}");
    assert_eq!(handle.generation(), g0 + 1, "{what}");
    assert_eq!(handle.classify(&key).map(|m| m.rule), Some(900), "{what}: visible at once");
    let report = handle.apply(&UpdateBatch::new().remove(9_999).remove(9_998));
    assert_eq!((report.missing, report.changed()), (2, false), "{what}");
    assert_eq!(handle.generation(), g0 + 1, "{what}: a pure-miss batch published");
    let report = handle.apply(&UpdateBatch::new().modify(moved.clone()));
    assert_eq!((report.replaced, report.inserted), (1, 1), "{what}");
    assert_eq!(handle.generation(), g0 + 2, "{what}");
    assert!(!retrainer.is_finished(), "{what}: the gate is shut, the retrain cannot publish");

    *gate.0.lock().unwrap() = true;
    gate.1.notify_all();
    let g_retrain = retrainer.join().unwrap().expect("retrain");
    assert_eq!(g_retrain, g0 + 3, "{what}: one publication each, in order");
    assert_eq!(handle.generation(), g_retrain, "{what}");

    // The folded truth, served exactly: each id once, every verdict equal.
    let truth: Vec<_> = set
        .rules()
        .iter()
        .map(|r| if r.id == moved.id { moved.clone() } else { r.clone() })
        .chain([inserted])
        .collect();
    assert_eq!(handle.num_rules(), truth.len(), "{what}: replayed into the fresh models");
    if let Some(mut ids) = handle.live_ids() {
        let served = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), served, "{what}: an id is served twice");
    }
    let oracle = LinearSearch::from_rules(truth);
    for port in (0u64..65_536).step_by(7) {
        let key = [0, 0, 0, port, 0];
        assert_eq!(handle.classify(&key), oracle.classify(&key), "{what}: port {port}");
    }

    // The view pinned before all of it never moved.
    let mut after = vec![None; frozen.len()];
    before.classify_batch(&probe, 5, &mut after);
    assert_eq!(after, frozen, "{what}");
    assert_eq!(before.classify(&key), None, "{what}");
}

/// 120 disjoint dst-port rules, and a modify of rule 2 that moves it from
/// the bottom of the port space to the top.
fn gated_set() -> (RuleSet, nm_common::Rule) {
    let rules: Vec<_> = (0..120u16)
        .map(|i| {
            FiveTuple::new().dst_port_range(i * 500, i * 500 + 450).into_rule(i as u32, i as u32)
        })
        .collect();
    let moved = FiveTuple::new().dst_port_range(60_460, 60_480).into_rule(2, 2);
    (RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap(), moved)
}

/// `ShardedHandle::retrain` on one shard and on two: the retrain parks one
/// builder per home shard plus the broadcast shard's.
#[test]
fn sharded_apply_is_not_blocked_by_a_retrain_in_flight() {
    for shards in [1usize, 2] {
        apply_is_not_blocked_by_a_retrain_in_flight(
            &format!("{shards} shard(s)"),
            shards + 1,
            |set, cfg, builder| {
                let sharded = ShardedHandle::new(set, cfg, shards, builder).unwrap();
                if shards == 2 {
                    let (old, new) = ([0, 0, 0, 1_200, 0], [0, 0, 0, 60_470, 0]);
                    assert_ne!(sharded.plan().steer(&old), sharded.plan().steer(&new));
                }
                sharded
            },
        );
    }
}

/// `ClassifierHandle::retrain` under the same traffic: one builder call.
#[test]
fn plain_apply_is_not_blocked_by_a_retrain_in_flight() {
    apply_is_not_blocked_by_a_retrain_in_flight("plain", 1, |set, cfg, builder| {
        ClassifierHandle::new(set, cfg, builder).unwrap()
    });
}
