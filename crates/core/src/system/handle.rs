//! `ClassifierHandle` — the control-plane/data-plane split for NuevoMatch.
//!
//! The paper's §3.9 lifecycle (updates drift rules to the remainder until a
//! background retrain swaps in a fresh model, Figure 7) needs three roles
//! running *concurrently*:
//!
//! * **Readers** classify packets continuously. They must never block — not
//!   on updates and not on the retrain swap.
//! * A single **writer** applies [`UpdateBatch`] transactions: tombstones in
//!   the iSets, inserts/removes in the remainder. A batch is published only
//!   when its report shows an effective change — pure-miss batches bump
//!   nothing and invalidate nothing.
//! * A **retrainer** periodically resets the remainder drift and publishes
//!   the result. Two paths exist: the **full rebuild**
//!   ([`ClassifierHandle::retrain_full`]) retrains every iSet from the rule
//!   truth; the **partial retrain** ([`ClassifierHandle::retrain_partial`],
//!   §3.9 refinement) patches only the drifted RQ-RMI leaf submodels and
//!   re-admits remainder rules in place, publishing orders of magnitude
//!   sooner. [`ClassifierHandle::retrain`] picks partial when the
//!   configured [`PartialRetrainPolicy`](crate::config::PartialRetrainPolicy)
//!   gates pass and falls back to full otherwise (drift too broad, too few
//!   rules re-admittable, or validation failure) — both paths are
//!   verdict-equivalent, so readers cannot tell which one published.
//!
//! The handle implements this with epoch-style snapshot publication: the
//! live classifier is an immutable [`NmSnapshot`] in a [`Published`] cell
//! ([`super::publish`]) whose writer lock also guards the control state.
//! Readers [`ClassifierHandle::snapshot`] (two atomic ops, never a lock)
//! and classify against the pinned generation; the writer
//! clones the current `NuevoMatch` — cheap, because the trained models and
//! packed arrays sit behind `Arc`s and only tombstones + remainder are
//! copied — applies the batch to the clone, and publishes it under the next
//! generation. A batch is therefore **atomic**: readers observe all of it or
//! none of it.
//!
//! Every handle is built with its retrain recipe — the build parameters
//! and the remainder builder — so every handle can retrain; there
//! is no serve-only state.
//! Retraining pins a snapshot under the control lock — the rule truth is
//! whatever that snapshot serves ([`NuevoMatch::live_rules`]); the handle
//! keeps no second copy of the rules — trains *without* the lock (readers
//! and the writer proceed untouched), then replays the updates that arrived
//! during training and publishes. The swap itself is
//! one atomic pointer store; readers pinned to the old generation finish
//! their batches on it and drop it.
//! [`ShardedHandle`](super::runtime::ShardedHandle) writes through the same
//! two bodies (`Shared::apply_with`, `Shared::retrain_with`) and supplies
//! only its routing; the cell's writer lock is their only synchronisation,
//! and the `model_*` tests at the end of this file explore them as written
//! under `--cfg nm_model`. The classifier inside either is unversioned.

use std::sync::Arc;

use nm_common::classifier::{Classifier, MatchResult};
use nm_common::rule::Priority;
use nm_common::ruleset::RuleSet;
use nm_common::update::{BatchUpdatable, Generation, Snapshot, UpdateBatch, UpdateReport};
use nm_common::Error;

use crate::config::NuevoMatchConfig;
use crate::system::publish::Published;
use crate::system::NuevoMatch;

/// A generation-stamped immutable NuevoMatch — what the handle publishes and
/// readers pin.
pub type NmSnapshot<R> = Snapshot<NuevoMatch<R>>;

/// How to rebuild the classifier from scratch: the build parameters plus the
/// remainder builder, held by the control plane for every retrain.
pub(crate) struct RetrainRecipe<R> {
    pub(crate) cfg: NuevoMatchConfig,
    pub(crate) builder: Arc<dyn Fn(&RuleSet) -> R + Send + Sync>,
}

/// What a retrain makes: the fresh payload, and whether the partial
/// (leaf-level) path made all of it.
pub(crate) type Made<T> = (T, bool);

impl<R: BatchUpdatable + Clone> RetrainRecipe<R> {
    /// The partial path: leaf-level work on `engine`.
    fn patch(&self, engine: &NuevoMatch<R>) -> Result<Made<NuevoMatch<R>>, Error> {
        let (patched, _report) = engine.partial_retrain(&self.cfg)?;
        Ok((patched, true))
    }

    /// The full path: the long pole. Rebuilds in priority order, not export
    /// order: engines whose build is insertion-order-sensitive (TupleMerge's
    /// table formation) degrade badly on a shuffled rule order, and
    /// determinism makes retrains reproducible.
    fn rebuild(&self, engine: &NuevoMatch<R>) -> Result<Made<NuevoMatch<R>>, Error> {
        let mut rules = engine.live_rules();
        rules.sort_by_key(|r| (r.priority, r.id));
        let set = RuleSet::new(engine.spec().clone(), rules)?;
        Ok((NuevoMatch::build(&set, &self.cfg, &*self.builder)?, false))
    }

    /// The auto path: the patch when the policy allows it and its gates
    /// pass, the rebuild otherwise (a gate error falls back).
    pub(crate) fn remake(&self, engine: &NuevoMatch<R>) -> Result<Made<NuevoMatch<R>>, Error> {
        if self.cfg.partial_retrain.enabled {
            if let Ok(patched) = self.patch(engine) {
                return Ok(patched);
            }
        }
        self.rebuild(engine)
    }
}

/// The ops one apply applied to a publication of payload `T`: a retrain in
/// flight queues them, and applies them again to its fresh payload.
pub(crate) trait Replay<T> {
    /// Applies these ops to `payload`.
    fn apply_to(&self, payload: &mut T);
}

/// A plain handle's ops are the whole batch: its one engine applied all of it.
impl<R: BatchUpdatable> Replay<NuevoMatch<R>> for UpdateBatch {
    fn apply_to(&self, payload: &mut NuevoMatch<R>) {
        payload.apply(self);
    }
}

/// A handle's writer-locked control state: its routing `C`, the replay
/// queue — `Some` exactly while a retrain is between its pin and its
/// publish — and the retrain counters (all, and the partial ones).
pub(crate) struct Ctl<C, Q> {
    route: C,
    pending: Option<Vec<Q>>,
    retrains: u64,
    partial_retrains: u64,
}

/// A handle's shared state: the publication cell of payload `T`, whose
/// writer lock guards the control state, and the retrain recipe over
/// remainder engine `R`. That lock is the only synchronisation a write
/// needs: every apply and retrain decides and publishes under it.
pub(crate) struct Shared<T, C, Q, R> {
    pub(crate) cell: Published<T, Ctl<C, Q>>,
    recipe: RetrainRecipe<R>,
}

impl<T, C, Q, R> Shared<T, C, Q, R> {
    pub(crate) fn new(
        payload: T,
        generation: Generation,
        route: C,
        recipe: RetrainRecipe<R>,
    ) -> Self {
        let ctl = Ctl { route, pending: None, retrains: 0, partial_retrains: 0 };
        Self { cell: Published::new(payload, generation, ctl), recipe }
    }
}

impl<T, C, Q: Replay<T>, R> Shared<T, C, Q, R> {
    /// The one retrain body: begin (refuse an overlap, install the queue and
    /// pin, in one lock section), `make` the fresh payload with no lock
    /// held, then end, replay the queue and publish in one lock section.
    /// `what` names the caller in the error an overlapping retrain gets.
    pub(crate) fn retrain_with(
        &self,
        what: &str,
        make: impl FnOnce(Arc<Snapshot<T>>, &RetrainRecipe<R>) -> Result<Made<T>, Error>,
    ) -> Result<Generation, Error> {
        let (in_flight, pinned) = InFlight::begin(self, what)?;
        let (mut fresh, partial) = make(pinned, &self.recipe)?;
        let mut ctl = self.cell.write();
        // The retrain ends in its publish's lock section: nothing is left
        // for the drop to undo.
        std::mem::forget(in_flight);
        for ops in ctl.pending.take().into_iter().flatten() {
            ops.apply_to(&mut fresh);
        }
        let generation = ctl.publish(fresh);
        ctl.retrains += 1;
        ctl.partial_retrains += u64::from(partial);
        Ok(generation)
    }
}

impl<T: Clone, C, Q: Replay<T>, R> Shared<T, C, Q, R> {
    /// The one apply body: under the lock, clone the live payload and let
    /// `mutate` route `batch` into the clone, returning the report and the
    /// ops it applied. Only on a change, and in the same lock section, it
    /// queues those ops for a retrain in flight and publishes. That is
    /// enough: a retrain's fresh payload serves its pin's rules, each later
    /// publication is the pin plus the queued ops in order, and a batch
    /// that changed nothing left the rules as they were.
    pub(crate) fn apply_with(
        &self,
        batch: &UpdateBatch,
        mutate: impl FnOnce(&mut C, &mut T, &UpdateBatch) -> (UpdateReport, Q),
    ) -> UpdateReport {
        if batch.is_empty() {
            // Cloning the payload for zero ops would change nothing.
            return UpdateReport::default();
        }
        let mut ctl = self.cell.write();
        let mut next = self.cell.pin().engine().clone();
        let (report, ops) = mutate(&mut ctl.route, &mut next, batch);
        if report.changed() {
            if let Some(pending) = &mut ctl.pending {
                pending.push(ops);
            }
            // Seeded mutation for the model checker: publish apart.
            #[cfg(nm_model_mutate_protocol = "queue")]
            let mut ctl = (drop(ctl), self.cell.write()).1;
            ctl.publish(next);
        }
        report
    }
}

/// A retrain between its pin and its publish: the queue is `Some` exactly
/// while one lives. A retrain that publishes ends it in that lock section;
/// one that errors or unwinds drops it, which sets the queue back to
/// `None`, so later retrains are not refused and later applies queue
/// nothing.
struct InFlight<'a, T, C, Q, R>(&'a Shared<T, C, Q, R>);

impl<'a, T, C, Q, R> InFlight<'a, T, C, Q, R> {
    /// Refuses an overlap, installs an empty queue and pins, in one lock
    /// section: every batch published after the pin is queued, none before.
    fn begin(
        shared: &'a Shared<T, C, Q, R>,
        what: &str,
    ) -> Result<(Self, Arc<Snapshot<T>>), Error> {
        let mut ctl = shared.cell.write();
        if ctl.pending.is_some() {
            return Err(Error::Build { msg: format!("{what}: a retrain is already in flight") });
        }
        ctl.pending = Some(Vec::new());
        // Seeded mutation for the model checker: pin apart.
        #[cfg(nm_model_mutate_protocol = "pin")]
        drop(ctl);
        Ok((Self(shared), shared.cell.pin()))
    }
}

impl<T, C, Q, R> Drop for InFlight<'_, T, C, Q, R> {
    fn drop(&mut self) {
        self.0.cell.write().pending = None;
    }
}

/// Shared handle to a live NuevoMatch classifier: lock-free reads against an
/// atomically swapped immutable snapshot, transactional writes, background
/// retrains. Clone it freely — clones address the same classifier.
///
/// ```
/// use nm_common::{Classifier, FieldsSpec, FiveTuple, LinearSearch, RuleSet, UpdateBatch};
/// use nuevomatch::{ClassifierHandle, NuevoMatchConfig, RqRmiParams};
///
/// let rules: Vec<_> = (0..300u16)
///     .map(|i| FiveTuple::new().dst_port_range(i * 100, i * 100 + 99).into_rule(i as u32, i as u32))
///     .collect();
/// let set = RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap();
/// let cfg = NuevoMatchConfig {
///     rqrmi: RqRmiParams { samples_init: 256, ..Default::default() },
///     ..Default::default()
/// };
/// let handle = ClassifierHandle::new(&set, &cfg, LinearSearch::build).unwrap();
///
/// // Reader side: pin a snapshot, classify lock-free.
/// let snap = handle.snapshot();
/// assert_eq!(snap.classify(&[0, 0, 0, 550, 0]).unwrap().rule, 5);
///
/// // Writer side: one transaction, atomically visible.
/// handle.apply(&UpdateBatch::new().remove(5));
/// assert_eq!(handle.classify(&[0, 0, 0, 550, 0]), None);
/// assert_eq!(snap.classify(&[0, 0, 0, 550, 0]).unwrap().rule, 5); // pinned view unchanged
///
/// // Control side: retrain folds the drift back into fresh models.
/// handle.retrain().unwrap();
/// assert_eq!(handle.classify(&[0, 0, 0, 550, 0]), None);
/// ```
pub struct ClassifierHandle<R: Classifier> {
    shared: Arc<Shared<NuevoMatch<R>, (), UpdateBatch, R>>,
}

impl<R: Classifier> Clone for ClassifierHandle<R> {
    fn clone(&self) -> Self {
        Self { shared: self.shared.clone() }
    }
}

impl<R: Classifier> ClassifierHandle<R> {
    /// Builds the classifier from `set` and wraps it in a handle that can
    /// update and retrain. The builder is retained: every retrain re-invokes
    /// it on the rules the then-live snapshot serves.
    pub fn new<B>(set: &RuleSet, cfg: &NuevoMatchConfig, builder: B) -> Result<Self, Error>
    where
        B: Fn(&RuleSet) -> R + Send + Sync + 'static,
    {
        let nm = NuevoMatch::build(set, cfg, &builder)?;
        Ok(Self::assemble(nm, 1, RetrainRecipe { cfg: cfg.clone(), builder: Arc::new(builder) }))
    }

    fn assemble(nm: NuevoMatch<R>, generation: Generation, recipe: RetrainRecipe<R>) -> Self {
        Self { shared: Arc::new(Shared::new(nm, generation, (), recipe)) }
    }

    /// Pins the current snapshot. Never blocks (two atomic ops); the
    /// returned `Arc` keeps that generation's models alive for as long as
    /// the reader holds it, regardless of concurrent updates and retrains.
    #[inline]
    pub fn snapshot(&self) -> Arc<NmSnapshot<R>> {
        self.shared.cell.pin()
    }

    /// The published generation (bumps on every effective applied batch and
    /// every retrain publish), read off the live snapshot itself: pin
    /// first, and `generation() >= snapshot.generation()` holds at every
    /// instant.
    pub fn generation(&self) -> Generation {
        self.shared.cell.generation()
    }

    /// True while a retrain is between pin and publish (read under the lock).
    pub fn retrain_in_progress(&self) -> bool {
        self.shared.cell.write().pending.is_some()
    }

    /// Completed retrain publishes since construction (partial + full).
    pub fn retrains_completed(&self) -> u64 {
        self.shared.cell.write().retrains
    }

    /// Completed retrains that took the partial (leaf-level) path.
    pub fn partial_retrains_completed(&self) -> u64 {
        self.shared.cell.write().partial_retrains
    }
}

impl<R: BatchUpdatable + Clone> ClassifierHandle<R> {
    /// Warm-starts a handle from a [`crate::persist::save_snapshot`] image:
    /// models, iSet tables, tombstones and remainder rules all load as
    /// persisted — no retraining — and the handle resumes at the persisted
    /// generation, ready to update and retrain.
    pub fn from_snapshot<B>(data: &[u8], cfg: &NuevoMatchConfig, builder: B) -> Result<Self, Error>
    where
        B: Fn(&RuleSet) -> R + Send + Sync + 'static,
    {
        let (nm, generation) = crate::persist::load_snapshot(data, &builder)?;
        let recipe = RetrainRecipe { cfg: cfg.clone(), builder: Arc::new(builder) };
        Ok(Self::assemble(nm, generation.max(1), recipe))
    }

    /// Serialises the live snapshot (see [`crate::persist::save_snapshot`]);
    /// a later [`ClassifierHandle::from_snapshot`] resumes from it without
    /// retraining.
    pub fn save(&self) -> Vec<u8> {
        let snap = self.snapshot();
        crate::persist::save_snapshot(snap.engine(), snap.generation())
    }

    /// Applies one transaction and publishes the result as a new snapshot.
    ///
    /// Concurrent readers never see a partially-applied batch: they keep
    /// classifying against the previous snapshot until the atomic swap, then
    /// see all of it. Writers are serialised by the control lock; returns
    /// the same accounting as [`NuevoMatch::apply`]. The body is
    /// `Shared::apply_with`, the sharded handle's too; this handle routes
    /// the whole batch into a clone of its one engine.
    pub fn apply(&self, batch: &UpdateBatch) -> UpdateReport {
        self.shared.apply_with(batch, |_, next, batch| (next.apply(batch), batch.clone()))
    }

    /// Retrains and atomically swaps in the result, resetting the §3.9
    /// remainder drift. Returns the published generation.
    ///
    /// When the retained config's
    /// [`PartialRetrainPolicy`](crate::config::PartialRetrainPolicy) allows
    /// it, this first attempts the **partial** (leaf-level) path —
    /// [`ClassifierHandle::retrain_partial`] — and falls back to the full
    /// rebuild ([`ClassifierHandle::retrain_full`]) when a gate fires:
    /// drift spread over too many leaf submodels, too few drifted rules
    /// re-admittable, or post-patch validation failure. Both attempts are
    /// one retrain — one pin, one replay queue. Either way the published
    /// snapshot serves exactly the current rule truth; the two paths are
    /// verdict-equivalent.
    ///
    /// Errors if a retrain is already in flight or if training fails.
    pub fn retrain(&self) -> Result<Generation, Error> {
        self.shared.retrain_with("ClassifierHandle::retrain", |pinned, recipe| {
            recipe.remake(pinned.engine())
        })
    }

    /// Incremental (partial) retrain: patches the pinned snapshot through
    /// [`NuevoMatch::partial_retrain`] — re-admitting drifted remainder
    /// rules into their iSets and re-fitting only the affected RQ-RMI leaf
    /// submodels — and publishes the result. The patch runs *without* the
    /// control lock; batches applied meanwhile are replayed before the
    /// publish, exactly like the full path. Because only a few leaves
    /// train, the publish period (and hence the Figure 7 drift floor) drops
    /// by the measured partial/full latency ratio.
    ///
    /// Errors — **without** falling back — when the policy gates refuse
    /// (use [`ClassifierHandle::retrain`] for automatic fallback) or when a
    /// retrain is already in flight.
    pub fn retrain_partial(&self) -> Result<Generation, Error> {
        self.shared.retrain_with("ClassifierHandle::retrain_partial", |pinned, recipe| {
            recipe.patch(pinned.engine())
        })
    }

    /// Rebuilds the classifier from scratch over the rules the live snapshot
    /// serves and atomically swaps it in, resetting the §3.9 remainder drift
    /// completely (including the iSet partition). Training runs *without*
    /// the control lock, so the writer keeps applying batches (they are
    /// replayed onto the fresh classifier before it publishes) and readers
    /// never block. Returns the published generation.
    ///
    /// Errors if a retrain is already in flight or if training fails.
    pub fn retrain_full(&self) -> Result<Generation, Error> {
        self.shared.retrain_with("ClassifierHandle::retrain_full", |pinned, recipe| {
            recipe.rebuild(pinned.engine())
        })
    }
}

impl<R: BatchUpdatable + Clone + Send + Sync + 'static> ClassifierHandle<R> {
    /// Kicks a retrain off on a background thread and returns its join
    /// handle. Dropping the join handle detaches the retrain; its publish
    /// still lands.
    pub fn spawn_retrain(&self) -> std::thread::JoinHandle<Result<Generation, Error>> {
        let handle = self.clone();
        std::thread::spawn(move || handle.retrain())
    }
}

impl<R: Classifier> Classifier for ClassifierHandle<R> {
    fn classify(&self, key: &[u64]) -> Option<MatchResult> {
        self.snapshot().classify(key)
    }

    fn classify_with_floor(&self, key: &[u64], floor: Priority) -> Option<MatchResult> {
        self.snapshot().classify_with_floor(key, floor)
    }

    /// One snapshot pin per batch: every packet in the batch is classified
    /// against the same generation.
    fn batch_lookup(
        &self,
        keys: &[u64],
        stride: usize,
        floors: Option<&[Priority]>,
        out: &mut [Option<MatchResult>],
    ) {
        self.snapshot().batch_lookup(keys, stride, floors, out);
    }

    fn memory_bytes(&self) -> usize {
        self.snapshot().memory_bytes()
    }

    fn name(&self) -> &'static str {
        self.snapshot().name()
    }

    fn num_rules(&self) -> usize {
        self.snapshot().num_rules()
    }

    fn generation(&self) -> Generation {
        ClassifierHandle::generation(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RqRmiParams;
    use nm_common::{FieldsSpec, FiveTuple, LinearSearch};
    use std::sync::atomic::Ordering::SeqCst;

    fn port_set(n: u16) -> RuleSet {
        let rules: Vec<_> = (0..n)
            .map(|i| {
                FiveTuple::new().dst_port_range(i * 100, i * 100 + 99).into_rule(i as u32, i as u32)
            })
            .collect();
        RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap()
    }

    fn fast_cfg() -> NuevoMatchConfig {
        NuevoMatchConfig {
            rqrmi: RqRmiParams { samples_init: 256, ..Default::default() },
            ..Default::default()
        }
    }

    fn handle(n: u16) -> ClassifierHandle<LinearSearch> {
        ClassifierHandle::new(&port_set(n), &fast_cfg(), LinearSearch::build).unwrap()
    }

    #[test]
    fn apply_is_atomic_and_pinned_snapshots_are_stable() {
        let h = handle(200);
        let pinned = h.snapshot();
        let g0 = h.generation();
        let report = h.apply(
            &UpdateBatch::new()
                .remove(5)
                .insert(FiveTuple::new().dst_port_exact(61_000).into_rule(900, 0)),
        );
        assert_eq!((report.removed, report.inserted), (1, 1));
        assert_eq!(h.generation(), g0 + 1);
        // New reads see the whole batch.
        assert_eq!(h.classify(&[0, 0, 0, 550, 0]), None);
        assert_eq!(h.classify(&[0, 0, 0, 61_000, 0]).unwrap().rule, 900);
        // The pinned generation is frozen.
        assert_eq!(pinned.generation(), g0);
        assert_eq!(pinned.classify(&[0, 0, 0, 550, 0]).unwrap().rule, 5);
        assert_eq!(pinned.classify(&[0, 0, 0, 61_000, 0]), None);
        // An empty transaction publishes nothing and bumps nothing (the
        // generation contract: bumps only when content changes).
        assert_eq!(h.apply(&UpdateBatch::new()), UpdateReport::default());
        assert_eq!(h.generation(), g0 + 1);
    }

    #[test]
    fn generation_mirror_never_under_reports_the_live_snapshot() {
        // Regression: `publish` used to store the snapshot first and update
        // a separate atomic generation mirror afterwards, so a reader that
        // pinned the fresh snapshot could still see `handle.generation()`
        // reporting the previous stamp. The stamp now lives inside the
        // snapshot itself: once a snapshot is visible, `generation()` must
        // already reflect it (pin first, then compare).
        let h = handle(150);
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let mut joins = Vec::new();
            for _ in 0..2 {
                let h = h.clone();
                let stop = &stop;
                joins.push(scope.spawn(move || {
                    while !stop.load(SeqCst) {
                        let snap = h.snapshot();
                        let g = h.generation();
                        assert!(
                            g >= snap.generation(),
                            "generation() {g} trails the already-visible snapshot {}",
                            snap.generation()
                        );
                    }
                }));
            }
            for i in 0..400u32 {
                let port = 40_000 + (i % 20_000) as u16;
                h.apply(
                    &UpdateBatch::new()
                        .modify(FiveTuple::new().dst_port_exact(port).into_rule(i % 150, i % 150)),
                );
            }
            stop.store(true, SeqCst);
            for j in joins {
                j.join().unwrap();
            }
        });
        // And a snapshot pinned after any quiescent point agrees exactly.
        assert_eq!(h.generation(), h.snapshot().generation());
    }

    #[test]
    fn noop_batch_publishes_nothing() {
        let h = handle(100);
        let g0 = h.generation();
        let pinned = h.snapshot();
        let report = h.apply(&UpdateBatch::new().remove(9_999).remove(8_888));
        assert_eq!((report.missing, report.changed()), (2, false));
        assert_eq!(h.generation(), g0, "miss-only batch must not bump");
        assert!(
            Arc::ptr_eq(&pinned, &h.snapshot()),
            "miss-only batch must not publish a new snapshot"
        );
    }

    #[test]
    fn retrain_partial_resets_concentrated_drift() {
        let set = port_set(300);
        let cfg = NuevoMatchConfig {
            partial_retrain: crate::config::PartialRetrainPolicy::always(),
            ..fast_cfg()
        };
        let h = ClassifierHandle::new(&set, &cfg, LinearSearch::build).unwrap();
        // Concentrated drift: re-insert a few neighbouring rules unchanged.
        let mut batch = UpdateBatch::new();
        for i in 40..48u32 {
            batch = batch.modify(
                FiveTuple::new()
                    .dst_port_range(i as u16 * 100, i as u16 * 100 + 99)
                    .into_rule(i, i),
            );
        }
        h.apply(&batch);
        assert!(h.snapshot().engine().remainder_fraction() > 0.0);
        let oracle: Vec<_> =
            (0u64..40_000).step_by(41).map(|p| h.classify(&[0, 0, 0, p, 0])).collect();
        let g = h.retrain_partial().unwrap();
        assert_eq!(g, h.generation());
        assert_eq!(h.partial_retrains_completed(), 1);
        assert_eq!(h.retrains_completed(), 1);
        assert_eq!(
            h.snapshot().engine().remainder_fraction(),
            0.0,
            "unchanged boxes must fully re-admit"
        );
        for (i, p) in (0u64..40_000).step_by(41).enumerate() {
            assert_eq!(h.classify(&[0, 0, 0, p, 0]), oracle[i], "port {p}");
        }
    }

    #[test]
    fn auto_retrain_falls_back_to_full_when_partial_is_gated() {
        let set = port_set(200);
        // min_readmit_fraction 1.0: any unadmittable drifted rule gates the
        // partial path, forcing the full rebuild.
        let cfg = NuevoMatchConfig {
            partial_retrain: crate::config::PartialRetrainPolicy {
                enabled: true,
                max_refit_fraction: 1.0,
                min_readmit_fraction: 1.0,
            },
            ..fast_cfg()
        };
        let h = ClassifierHandle::new(&set, &cfg, LinearSearch::build).unwrap();
        // Rule 7 drifts to a range overlapping live rule 10: unadmittable.
        h.apply(
            &UpdateBatch::new()
                .modify(FiveTuple::new().dst_port_range(1_000, 1_050).into_rule(7, 7)),
        );
        let oracle: Vec<_> =
            (0u64..21_000).step_by(23).map(|p| h.classify(&[0, 0, 0, p, 0])).collect();
        h.retrain().unwrap();
        assert_eq!(h.retrains_completed(), 1);
        assert_eq!(h.partial_retrains_completed(), 0, "gated partial must not count");
        for (i, p) in (0u64..21_000).step_by(23).enumerate() {
            assert_eq!(h.classify(&[0, 0, 0, p, 0]), oracle[i], "port {p}");
        }
    }

    #[test]
    fn updates_during_partial_retrain_are_replayed() {
        let set = port_set(300);
        let cfg = NuevoMatchConfig {
            partial_retrain: crate::config::PartialRetrainPolicy::always(),
            ..fast_cfg()
        };
        let h = ClassifierHandle::new(&set, &cfg, LinearSearch::build).unwrap();
        let mut batch = UpdateBatch::new();
        for i in 10..20u32 {
            batch = batch.modify(
                FiveTuple::new()
                    .dst_port_range(i as u16 * 100, i as u16 * 100 + 99)
                    .into_rule(i, i),
            );
        }
        h.apply(&batch);
        // Race inserts against background auto-retrains (partial-first).
        let join = h.spawn_retrain();
        for i in 0..20u32 {
            h.apply(&UpdateBatch::new().insert(
                FiveTuple::new().dst_port_exact(50_000 + i as u16).into_rule(10_000 + i, 0),
            ));
        }
        join.join().unwrap().unwrap();
        for i in 0..20u32 {
            let key = [0u64, 0, 0, 50_000 + i as u64, 0];
            assert_eq!(h.classify(&key).unwrap().rule, 10_000 + i, "update {i} lost by retrain");
        }
    }

    #[test]
    fn retrain_resets_drift_and_preserves_semantics() {
        let h = handle(300);
        // Drift a quarter of the rules to the remainder.
        for i in 0..75u32 {
            let port = 40_000 + i as u16;
            h.apply(
                &UpdateBatch::new()
                    .modify(FiveTuple::new().dst_port_range(port, port).into_rule(i, i)),
            );
        }
        let drifted = h.snapshot().engine().remainder_fraction();
        assert!(drifted > 0.2, "expected drift, got {drifted}");
        let oracle_before: Vec<_> =
            (0u64..65_536).step_by(97).map(|p| h.classify(&[0, 0, 0, p, 0])).collect();
        let gen = h.retrain().unwrap();
        assert_eq!(gen, h.generation());
        assert_eq!(h.retrains_completed(), 1);
        let fresh = h.snapshot().engine().remainder_fraction();
        assert!(fresh < drifted, "retrain must shrink the remainder: {drifted} -> {fresh}");
        // Same classification behaviour, new structure. Priorities are
        // unique here, so rule identity must be preserved exactly.
        for (i, p) in (0u64..65_536).step_by(97).enumerate() {
            assert_eq!(h.classify(&[0, 0, 0, p, 0]), oracle_before[i], "port {p}");
        }
    }

    #[test]
    fn updates_during_retrain_are_replayed() {
        let h = handle(300);
        // Start a slow-ish retrain on a background thread, then race updates
        // against it.
        let join = h.spawn_retrain();
        for i in 0..20u32 {
            h.apply(&UpdateBatch::new().insert(
                FiveTuple::new().dst_port_exact(50_000 + i as u16).into_rule(10_000 + i, 0),
            ));
        }
        join.join().unwrap().unwrap();
        // Whether an update landed before the pin or during training, the
        // published classifier must serve it.
        for i in 0..20u32 {
            let key = [0u64, 0, 0, 50_000 + i as u64, 0];
            assert_eq!(h.classify(&key).unwrap().rule, 10_000 + i, "update {i} lost by retrain");
        }
    }

    #[test]
    fn num_rules_tracks_inserts_removes_and_upserts() {
        let cfg = NuevoMatchConfig {
            partial_retrain: crate::config::PartialRetrainPolicy::always(),
            ..fast_cfg()
        };
        let h = ClassifierHandle::new(&port_set(200), &cfg, LinearSearch::build).unwrap();
        let same_box = |i: u32| {
            FiveTuple::new().dst_port_range(i as u16 * 100, i as u16 * 100 + 99).into_rule(i, i)
        };
        let fresh = |i: u32| FiveTuple::new().dst_port_exact(30_000 + i as u16).into_rule(i, i);
        // +5 fresh inserts, −3 removes (one id twice: the second is a miss),
        // upserts and modifies of live ids (±0), a modify of an absent id
        // (+1) whose box overlaps live rule 10, so no iSet can take it back.
        let mut batch = UpdateBatch::new();
        for i in 1_000..1_005 {
            batch = batch.insert(fresh(i));
        }
        batch = batch.remove(3).remove(4).remove(5).remove(5);
        for i in 40..48 {
            batch = batch.modify(same_box(i));
        }
        let overlapping = FiveTuple::new().dst_port_range(1_000, 1_050).into_rule(2_000, 2_000);
        batch = batch.insert(same_box(60)).insert(fresh(1_000)).modify(overlapping);
        let report = h.apply(&batch);
        assert_eq!((report.inserted, report.replaced, report.removed), (16, 10, 3));
        let live = 200 + 5 - 3 + 1;
        let in_remainder = (5 + 8 + 1 + 1) as f64;
        let check = |h: &ClassifierHandle<LinearSearch>, drifted: f64, step: &str| {
            let snap = h.snapshot();
            assert_eq!(snap.num_rules(), live, "{step}");
            assert_eq!(snap.engine().live_rules().len(), live, "{step}");
            assert_eq!(snap.engine().remainder_fraction(), drifted / live as f64, "{step}");
            assert_eq!(snap.engine().coverage(), 1.0 - drifted / live as f64, "{step}");
        };
        check(&h, in_remainder, "apply");
        let warm = ClassifierHandle::from_snapshot(&h.save(), &cfg, LinearSearch::build).unwrap();
        check(&warm, in_remainder, "save -> from_snapshot");
        // The partial retrain re-admits everything but the overlapping rule.
        h.retrain_partial().unwrap();
        check(&h, 1.0, "retrain_partial");
        // So does a full rebuild: no iSet holds two overlapping rules.
        h.retrain_full().unwrap();
        check(&h, 1.0, "retrain_full");
        warm.retrain_full().unwrap();
        check(&warm, 1.0, "retrain_full of the warm-started handle");
    }

    #[test]
    fn retrain_full_rebuilds_exactly_the_folded_update_stream() {
        // The handle keeps no copy of the rules: a full retrain rebuilds
        // from what the pinned snapshot serves. Fold the same stream into an
        // independent truth and demand the two agree, rule for rule.
        let set = port_set(250);
        let h = ClassifierHandle::new(&set, &fast_cfg(), LinearSearch::build).unwrap();
        let mut truth: std::collections::HashMap<_, _> =
            set.rules().iter().map(|r| (r.id, r.clone())).collect();
        let mut rng = nm_common::SplitMix64::new(77);
        for step in 0..40 {
            let mut batch = UpdateBatch::new();
            for _ in 0..1 + rng.below(5) {
                let id = rng.below(300) as u32; // ids >= 250 miss until inserted
                let port = rng.below(60_000) as u16;
                let rule = FiveTuple::new()
                    .dst_port_range(port, port.saturating_add(rng.below(300) as u16))
                    .into_rule(id, rng.below(400) as u32);
                batch = match rng.below(3) {
                    0 => {
                        truth.insert(id, rule.clone());
                        batch.insert(rule)
                    }
                    1 => {
                        truth.remove(&id);
                        batch.remove(id)
                    }
                    _ => {
                        truth.insert(id, rule.clone());
                        batch.modify(rule)
                    }
                };
            }
            h.apply(&batch);
            if step == 19 {
                h.retrain_full().unwrap();
            }
        }
        h.retrain_full().unwrap();
        let mut want: Vec<_> = truth.into_values().collect();
        want.sort_by_key(|r| r.id);
        let snap = h.snapshot();
        let mut served = snap.engine().live_rules();
        served.sort_by_key(|r| r.id);
        assert_eq!(served, want);
        assert_eq!(snap.num_rules(), want.len());
        let oracle = LinearSearch::from_rules(want);
        for port in (0u64..61_000).step_by(7) {
            let key = [0, 0, 0, port, 0];
            assert_eq!(h.classify(&key), oracle.classify(&key), "port {port}");
        }
    }

    #[test]
    fn concurrent_retrain_attempts_do_not_stack() {
        let h = handle(250);
        let a = h.spawn_retrain();
        let b = h.spawn_retrain();
        let (ra, rb) = (a.join().unwrap(), b.join().unwrap());
        // At least one must succeed; both may if they did not overlap.
        assert!(ra.is_ok() || rb.is_ok());
        assert!(h.retrains_completed() >= 1);
        assert!(!h.retrain_in_progress());
    }
}

/// Model-checker tests (compiled only under `--cfg nm_model`): bounded
/// interleavings of the production writer protocol — `Shared::apply_with`,
/// `Shared::retrain_with` and `InFlight`, the code both handles run — over
/// an op-log payload, so a replay that drops an op and one that applies it
/// twice both show. The only synchronisation is the `Published` cell, whose
/// writer mutex is `nm_model`'s under this cfg.
#[cfg(all(test, nm_model))]
mod model_tests {
    use super::*;
    use nm_common::update::UpdateOp;
    use nm_model::thread;

    /// The payload is the log of the op ids applied to it, and an apply's
    /// ops are the ids it appends.
    impl Replay<Vec<u32>> for Vec<u32> {
        fn apply_to(&self, log: &mut Vec<u32>) {
            log.extend(self);
        }
    }

    type Log = Shared<Vec<u32>, (), Vec<u32>, ()>;

    fn log() -> Arc<Log> {
        let builder = Arc::new(|_: &RuleSet| ());
        let recipe = RetrainRecipe { cfg: NuevoMatchConfig::default(), builder };
        Arc::new(Shared::new(Vec::new(), 1, (), recipe))
    }

    /// Appends `id` through the production apply skeleton.
    fn apply(log: &Log, id: u32) {
        let report = log.apply_with(&UpdateBatch::new().remove(id), |_, next, batch| {
            let ids: Vec<u32> = batch.ops().iter().map(UpdateOp::id).collect();
            ids.apply_to(next);
            (UpdateReport { inserted: ids.len(), ..UpdateReport::default() }, ids)
        });
        assert!(report.changed());
    }

    /// Asserts the publication `live` carries each of `ids` exactly once.
    fn assert_once(live: &Snapshot<Vec<u32>>, ids: &[u32]) {
        for id in ids {
            let n = live.engine().iter().filter(|&x| x == id).count();
            assert_eq!(n, 1, "op {id} lost or duplicated: {:?}", live.engine());
        }
    }

    /// One applier (two single-op batches), one retrainer whose make copies
    /// the pin and meanwhile tries to overlap a second retrain, one reader.
    fn apply_retrain_read() {
        let log = log();
        let applier = {
            let log = log.clone();
            thread::spawn(move || {
                apply(&log, 1);
                apply(&log, 2);
            })
        };
        let retrainer = {
            let log = log.clone();
            thread::spawn(move || {
                let copy =
                    |pinned: Arc<Snapshot<Vec<u32>>>, _: &_| Ok((pinned.engine().clone(), false));
                log.retrain_with("outer", |pinned, recipe| {
                    assert!(log.retrain_with("overlap", copy).is_err(), "overlapping retrain ran");
                    copy(pinned, recipe)
                })
                .expect("the retrain in flight publishes");
            })
        };
        // The root thread is the reader: what its first pin serves, both
        // pins serve exactly once.
        let (first, second) = (log.cell.pin(), log.cell.pin());
        let (g1, g2) = (first.generation(), second.generation());
        assert!(g2 >= g1, "reader generation went backwards: {g1} -> {g2}");
        for pin in [&first, &second] {
            assert_once(pin, first.engine());
        }
        applier.join();
        retrainer.join();
        assert_once(&log.cell.pin(), &[1, 2]);
        // Two applies and one retrain published, and the retrain is over.
        assert_eq!(log.cell.generation(), 4);
        let ctl = log.cell.write();
        assert!(ctl.pending.is_none());
        assert_eq!((ctl.retrains, ctl.partial_retrains), (1, 0));
    }

    /// An op whose apply returned is in every later publication exactly
    /// once; of two overlapping retrains one errors and one publishes; each
    /// reader's generation is monotone.
    #[cfg(not(any(
        nm_model_mutate,
        nm_model_mutate_protocol = "pin",
        nm_model_mutate_protocol = "queue"
    )))]
    #[test]
    fn model_applies_survive_a_concurrent_retrain_exactly_once() {
        let out = nm_model::check("apply/retrain protocol", apply_retrain_read);
        assert!(out.schedules > 1, "exploration degenerated to one schedule");
        eprintln!("apply/retrain: {} schedules, complete: {}", out.schedules, out.complete);
    }

    /// A retrain whose make fails publishes nothing and leaves no queue,
    /// whatever an apply does meanwhile.
    #[cfg(not(any(
        nm_model_mutate,
        nm_model_mutate_protocol = "pin",
        nm_model_mutate_protocol = "queue"
    )))]
    #[test]
    fn model_a_failed_retrain_publishes_nothing_and_ends_its_queue() {
        let out = nm_model::check("failed retrain", || {
            let log = log();
            let applier = {
                let log = log.clone();
                thread::spawn(move || apply(&log, 1))
            };
            let failed = log.retrain_with("failing", |_, _| {
                Err(Error::Build { msg: "make failed".to_string() })
            });
            assert!(failed.is_err());
            applier.join();
            assert_once(&log.cell.pin(), &[1]);
            assert_eq!(log.cell.generation(), 2, "only the apply publishes");
            let ctl = log.cell.write();
            assert!(ctl.pending.is_none(), "a failed retrain left its queue behind");
            assert_eq!(ctl.retrains, 0);
        });
        eprintln!("failed retrain: {} schedules, complete: {}", out.schedules, out.complete);
    }

    /// Teeth: pinning in a lock section apart from the queue's installation
    /// lets an apply land in both the pin and the queue.
    #[cfg(nm_model_mutate_protocol = "pin")]
    #[test]
    fn model_mutation_pin_apart_from_the_queue_duplicates_an_op() {
        let v = nm_model::find_violation(apply_retrain_read)
            .expect("a pin outside begin's lock section must surface");
        assert!(v.message.contains("lost or duplicated"), "unexpected violation: {}", v.message);
    }

    /// Teeth: deciding whether to queue in a lock section apart from the
    /// publish lets a retrain pin between them and lose the op.
    #[cfg(nm_model_mutate_protocol = "queue")]
    #[test]
    fn model_mutation_queue_apart_from_the_publish_loses_an_op() {
        let v = nm_model::find_violation(apply_retrain_read)
            .expect("a queueing decision outside the publish's lock section must surface");
        assert!(v.message.contains("lost or duplicated"), "unexpected violation: {}", v.message);
    }
}
