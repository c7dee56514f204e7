//! Concurrent soak test for the control-plane/data-plane split: reader
//! threads classify continuously against `ClassifierHandle` snapshots while
//! a writer thread applies proptest-generated `UpdateBatch` scripts and
//! periodically retrains.
//!
//! The correctness bar is generation-exact: every classification a reader
//! performs must equal a `LinearSearch` oracle rebuilt from the rule truth
//! *at the reader's pinned generation* — not the latest truth. Zero
//! mismatches across the whole run also demonstrates the liveness property
//! the redesign exists for: readers keep classifying (and keep being right)
//! straight through update publishes and retrain swaps, never blocking on
//! either.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Barrier, Mutex};

use nm_common::{
    BatchUpdatable, Classifier, FieldsSpec, FiveTuple, LinearSearch, MatchResult, Rule, RuleSet,
    SplitMix64, UpdateBatch, UpdateReport,
};
use nm_tuplemerge::TupleMerge;
use nuevomatch::{ClassifierHandle, NuevoMatchConfig, RqRmiParams};
use proptest::prelude::*;

const N_RULES: u16 = 400;
const READERS: usize = 2;
const KEYS_PER_CHECK: usize = 64;

fn base_set() -> RuleSet {
    let rules: Vec<_> = (0..N_RULES)
        .map(|i| {
            FiveTuple::new().dst_port_range(i * 150, i * 150 + 120).into_rule(i as u32, i as u32)
        })
        .collect();
    RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap()
}

fn cfg() -> NuevoMatchConfig {
    NuevoMatchConfig {
        rqrmi: RqRmiParams { samples_init: 256, ..Default::default() },
        ..Default::default()
    }
}

/// Rule-truth history keyed by published generation. The writer records the
/// post-batch truth for every generation it publishes; readers resolve their
/// pinned generation to the truth that produced it.
type History = Mutex<HashMap<u64, Arc<Vec<Rule>>>>;

/// One scripted control-plane op: `(kind, x, y)` decodes to remove / insert
/// / modify with pseudo-random-but-deterministic targets.
fn decode_op(truth: &mut Vec<Rule>, next_id: &mut u32, kind: u64, x: u64, y: u64) -> UpdateBatch {
    match kind {
        0 => {
            // Remove an id that may or may not exist (misses must be safe).
            let id = (x % (N_RULES as u64 + 40)) as u32;
            truth.retain(|r| r.id != id);
            UpdateBatch::new().remove(id)
        }
        1 => {
            let id = *next_id;
            *next_id += 1;
            let port = (x * 131 + y) % 65_000;
            let rule = FiveTuple::new()
                .dst_port_range(port as u16, (port as u16).saturating_add(90))
                .into_rule(id, id);
            truth.push(rule.clone());
            UpdateBatch::new().insert(rule)
        }
        _ => {
            let id = (x % N_RULES as u64) as u32;
            let port = (y * 137) % 64_000;
            let rule = FiveTuple::new()
                .dst_port_range(port as u16, (port as u16).saturating_add(70))
                .into_rule(id, id);
            truth.retain(|r| r.id != id);
            truth.push(rule.clone());
            UpdateBatch::new().modify(rule)
        }
    }
}

/// Pins a snapshot AND the truth that generated it. A reader may observe a
/// generation a beat before the writer records its truth; re-pinning until
/// the entry exists keeps the pairing exact without ever blocking the
/// writer.
fn pin_with_truth(
    handle: &ClassifierHandle<TupleMerge>,
    history: &History,
) -> (Arc<nuevomatch::NmSnapshot<TupleMerge>>, Arc<Vec<Rule>>) {
    loop {
        let snap = handle.snapshot();
        if let Some(rules) = history.lock().unwrap().get(&snap.generation()).cloned() {
            return (snap, rules);
        }
        std::thread::yield_now();
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

    /// The satellite acceptance test: concurrent updater + readers, every
    /// batched classification checked against the pinned-generation oracle.
    #[test]
    fn concurrent_soak_matches_pinned_generation_oracle(
        script in proptest::collection::vec((0u64..3, 0u64..65_536, 0u64..65_536), 30..60),
        key_seed in 1u64..1_000_000,
    ) {
        let set = base_set();
        let handle = ClassifierHandle::new(&set, &cfg(), TupleMerge::build).unwrap();
        let history: History = Mutex::new(HashMap::new());
        history
            .lock()
            .unwrap()
            .insert(handle.generation(), Arc::new(set.rules().to_vec()));

        let stop = AtomicBool::new(false);
        let checks = AtomicU64::new(0);
        std::thread::scope(|scope| {
            // Readers: pin, oracle at the pinned generation, batched
            // classification, compare per key.
            let mut joins = Vec::new();
            for reader in 0..READERS {
                let handle = handle.clone();
                let history = &history;
                let stop = &stop;
                let checks = &checks;
                joins.push(scope.spawn(move || {
                    let mut rng = SplitMix64::new(key_seed + reader as u64 * 7_919);
                    let mut keys = vec![0u64; KEYS_PER_CHECK * 5];
                    let mut out = vec![None; KEYS_PER_CHECK];
                    while !stop.load(SeqCst) {
                        let (snap, truth) = pin_with_truth(&handle, history);
                        let oracle = LinearSearch::from_rules((*truth).clone());
                        for k in keys.iter_mut() {
                            *k = rng.below(66_000);
                        }
                        // Keys are 5-tuples; zero the non-port fields so the
                        // port-range rules above decide everything.
                        for i in 0..KEYS_PER_CHECK {
                            keys[i * 5] = 0;
                            keys[i * 5 + 1] = 0;
                            keys[i * 5 + 4] = 0;
                        }
                        snap.classify_batch(&keys, 5, &mut out);
                        for i in 0..KEYS_PER_CHECK {
                            let key = &keys[i * 5..(i + 1) * 5];
                            let want = oracle.classify(key);
                            assert_eq!(
                                out[i],
                                want,
                                "reader {reader} diverged from generation-{} oracle on {key:?}",
                                snap.generation()
                            );
                        }
                        checks.fetch_add(KEYS_PER_CHECK as u64, SeqCst);
                    }
                }));
            }

            // Writer: apply the script, retraining every ~15 ops. The truth
            // entry for each published generation is recorded before readers
            // can resolve it (they spin on the history map, not on a lock
            // the writer holds during classification).
            let mut truth = set.rules().to_vec();
            let mut next_id = N_RULES as u32 + 1_000;
            for (i, &(kind, x, y)) in script.iter().enumerate() {
                let batch = decode_op(&mut truth, &mut next_id, kind, x, y);
                handle.apply(&batch);
                history
                    .lock()
                    .unwrap()
                    .insert(handle.generation(), Arc::new(truth.clone()));
                if i % 15 == 14 {
                    // Synchronous retrain: same truth, new generation. The
                    // readers keep running right through the swap.
                    handle.retrain().unwrap();
                    history
                        .lock()
                        .unwrap()
                        .insert(handle.generation(), Arc::new(truth.clone()));
                }
            }
            // Let the readers chew on the final state briefly, then stop.
            std::thread::sleep(std::time::Duration::from_millis(30));
            stop.store(true, SeqCst);
            for j in joins {
                j.join().expect("reader panicked");
            }
        });

        prop_assert!(checks.load(SeqCst) > 0, "readers never got to classify");
        prop_assert!(handle.retrains_completed() >= 1, "script too short to retrain");
        // Final agreement: the handle equals a fresh oracle over the final
        // truth at every port.
        let truth = handle.snapshot();
        let final_rules: Vec<Rule> = {
            let h = history.lock().unwrap();
            (**h.get(&truth.generation()).unwrap()).clone()
        };
        let oracle = LinearSearch::from_rules(final_rules);
        for port in (0u64..66_000).step_by(61) {
            let key = [0, 0, 0, port, 0];
            prop_assert_eq!(truth.classify(&key), oracle.classify(&key), "port {}", port);
        }
    }
}

/// Readers must keep making progress *during* a retrain — the lock-free
/// acceptance criterion, measured rather than assumed.
#[test]
fn readers_progress_while_retrain_runs() {
    let set = base_set();
    let handle = ClassifierHandle::new(&set, &cfg(), TupleMerge::build).unwrap();
    // Drift some rules so the retrain has real work.
    for i in 0..80u32 {
        handle.apply(&UpdateBatch::new().modify(
            FiveTuple::new().dst_port_range((i * 97) as u16, (i * 97 + 50) as u16).into_rule(i, i),
        ));
    }
    let during = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let join = handle.spawn_retrain();
        let handle2 = handle.clone();
        let during = &during;
        let reader = scope.spawn(move || {
            let key = [0u64, 0, 0, 1_234, 0];
            // Classify as long as the retrain is in flight (or until it was
            // too fast to observe at all).
            loop {
                let _ = handle2.classify(&key);
                during.fetch_add(1, SeqCst);
                if !handle2.retrain_in_progress() {
                    break;
                }
            }
        });
        join.join().unwrap().unwrap();
        reader.join().unwrap();
    });
    assert!(during.load(SeqCst) > 0, "reader made no progress during retrain");
    assert_eq!(handle.retrains_completed(), 1);
}

/// A retrain whose builder panics must not wedge the handle: the panic
/// reaches the joiner, the in-flight mark clears (so `apply` stops queueing
/// ops nobody will replay), updates keep being served, and the next retrain
/// succeeds.
#[test]
fn a_panicking_retrain_leaves_the_handle_usable() {
    let set = base_set();
    let armed = Arc::new(AtomicBool::new(false));
    let fuse = armed.clone();
    let builder = move |rem: &RuleSet| {
        assert!(!fuse.swap(false, SeqCst), "injected builder fault");
        TupleMerge::build(rem)
    };
    let full_only =
        NuevoMatchConfig { partial_retrain: nuevomatch::PartialRetrainPolicy::never(), ..cfg() };
    let handle = ClassifierHandle::new(&set, &full_only, builder).unwrap();
    let g0 = handle.generation();

    armed.store(true, SeqCst);
    assert!(handle.spawn_retrain().join().is_err(), "the join must report the panic");
    assert!(!handle.retrain_in_progress(), "a dead retrain left the in-flight mark set");
    assert_eq!((handle.retrains_completed(), handle.generation()), (0, g0));

    // An update made after the failure is served, and survives the retrain.
    let key = [0u64, 0, 0, 64_900, 0];
    assert_eq!(handle.classify(&key), None);
    handle.apply(
        &UpdateBatch::new()
            .insert(FiveTuple::new().dst_port_range(64_800, 64_999).into_rule(9_000, 0)),
    );
    assert_eq!(handle.classify(&key).map(|m| m.rule), Some(9_000));
    handle.retrain().expect("the retrain after the failed one must succeed");
    assert_eq!(handle.retrains_completed(), 1);
    assert!(handle.generation() > g0 + 1);
    assert_eq!(handle.classify(&key).map(|m| m.rule), Some(9_000));
    assert_eq!(handle.classify(&[0, 0, 0, 1_550, 0]).map(|m| m.rule), Some(10));
}

/// A TupleMerge remainder whose `apply` panics when it was built armed, so
/// the fault lands in a retrain's replay, under the writer lock.
#[derive(Clone)]
struct Fragile {
    tm: TupleMerge,
    armed: bool,
}

impl Classifier for Fragile {
    fn classify(&self, key: &[u64]) -> Option<MatchResult> {
        self.tm.classify(key)
    }

    fn memory_bytes(&self) -> usize {
        self.tm.memory_bytes()
    }

    fn name(&self) -> &'static str {
        "fragile"
    }

    fn num_rules(&self) -> usize {
        self.tm.num_rules()
    }
}

impl BatchUpdatable for Fragile {
    fn apply(&mut self, batch: &UpdateBatch) -> UpdateReport {
        assert!(!self.armed, "injected replay fault");
        self.tm.apply(batch)
    }

    fn export_rules(&self) -> Vec<Rule> {
        self.tm.export_rules()
    }
}

/// A retrain that panics mid-replay must not wedge the handle either. The
/// panic unwinds with the writer lock held, and the in-flight guard's drop
/// takes that lock again: the lock must recover, not abort the process.
/// Afterwards the batch applied during the retrain stays published and
/// served, the next apply publishes and the next retrain succeeds.
#[test]
fn a_retrain_that_panics_mid_replay_leaves_the_handle_usable() {
    let arm = Arc::new(AtomicBool::new(false));
    let gate = Arc::new(Barrier::new(2));
    let builder = {
        let (arm, gate) = (arm.clone(), gate.clone());
        move |rem: &RuleSet| {
            let armed = arm.swap(false, SeqCst);
            if armed {
                gate.wait(); // the retrain is in flight, its pin taken
                gate.wait(); // a batch is queued for its replay
            }
            Fragile { tm: TupleMerge::build(rem), armed }
        }
    };
    let handle = ClassifierHandle::new(&base_set(), &cfg(), builder).unwrap();

    arm.store(true, SeqCst);
    let retrain = {
        let handle = handle.clone();
        std::thread::spawn(move || handle.retrain_full())
    };
    gate.wait();
    let key = [0u64, 0, 0, 64_900, 0];
    handle.apply(
        &UpdateBatch::new()
            .insert(FiveTuple::new().dst_port_range(64_800, 64_999).into_rule(9_000, 0)),
    );
    let published = handle.generation();
    gate.wait();
    assert!(retrain.join().is_err(), "the join must report the panic");
    assert!(!handle.retrain_in_progress(), "a dead retrain left the in-flight mark set");
    assert_eq!((handle.retrains_completed(), handle.generation()), (0, published));
    assert_eq!(handle.classify(&key).map(|m| m.rule), Some(9_000));

    handle.apply(&UpdateBatch::new().remove(10));
    assert_eq!(handle.generation(), published + 1, "the next apply must publish");
    assert_eq!(handle.classify(&[0, 0, 0, 1_550, 0]), None);
    handle.retrain_full().expect("the disarmed retrain must succeed");
    assert_eq!((handle.retrains_completed(), handle.generation()), (1, published + 2));
    assert_eq!(handle.classify(&key).map(|m| m.rule), Some(9_000));
    assert_eq!(handle.classify(&[0, 0, 0, 1_550, 0]), None);
}

/// A batch whose apply panics while a retrain is in flight never
/// published, so the retrain must not publish it either: an apply queues
/// its ops for the replay only together with its own publish. Here the
/// live engine's remainder is built armed, so the insert panics under the
/// writer lock, and the retrain's builder builds unarmed, so a replay of
/// the insert would succeed and serve it.
#[test]
fn a_batch_whose_apply_panics_during_a_retrain_is_not_replayed() {
    let builds = Arc::new(AtomicU64::new(0));
    let gate = Arc::new(Barrier::new(2));
    let builder = {
        let (builds, gate) = (builds.clone(), gate.clone());
        move |rem: &RuleSet| {
            let build = builds.fetch_add(1, SeqCst);
            if build == 1 {
                gate.wait(); // the retrain is in flight, its pin taken
                gate.wait(); // the panicking apply has returned
            }
            Fragile { tm: TupleMerge::build(rem), armed: build == 0 }
        }
    };
    let handle = ClassifierHandle::new(&base_set(), &cfg(), builder).unwrap();
    let g0 = handle.generation();

    let retrain = {
        let handle = handle.clone();
        std::thread::spawn(move || handle.retrain_full())
    };
    gate.wait();
    let key = [0u64, 0, 0, 64_900, 0];
    let insert = UpdateBatch::new()
        .insert(FiveTuple::new().dst_port_range(64_800, 64_999).into_rule(9_000, 0));
    let applied = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle.apply(&insert)));
    assert!(applied.is_err(), "the armed remainder's apply must panic");
    assert_eq!(handle.generation(), g0, "a panicking apply published");
    gate.wait();
    let g = retrain.join().unwrap().expect("the retrain publishes");
    assert_eq!(g, g0 + 1);
    assert_eq!(handle.classify(&key), None, "the retrain replayed a batch that never published");
    assert_eq!(handle.snapshot().num_rules(), N_RULES as usize);

    // The fresh remainder is unarmed: the same insert now publishes.
    assert_eq!(handle.apply(&insert).inserted, 1);
    assert_eq!(handle.classify(&key).map(|m| m.rule), Some(9_000));
}
