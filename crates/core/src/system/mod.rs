//! The end-to-end NuevoMatch classifier (paper §3.8, §4).
//!
//! Build: partition into iSets → train one RQ-RMI per iSet → hand the
//! remainder to an external classifier. Lookup: query every iSet (predict →
//! secondary search → multi-field validation), query the remainder, return
//! the highest-priority candidate. With early termination (§4) the remainder
//! is queried *after* the iSets and may prune all work that cannot beat the
//! iSets' best candidate.

pub mod breakdown;
pub mod flow_cache;
pub mod handle;
pub mod parallel;
pub mod publish;
pub mod retrain;
pub mod runtime;
pub mod serve;
pub mod update;

pub use breakdown::{measure_breakdown, LookupBreakdown};
pub use flow_cache::{CacheStats, FlowCache};
pub use handle::{ClassifierHandle, NmSnapshot};
pub use parallel::run_batched;
pub use retrain::PartialRetrainReport;
pub use runtime::{
    PinPolicy, RunStats, Runtime, RuntimeConfig, ShardedClassifier, ShardedHandle, Topology,
};

use std::sync::Arc;

use nm_common::prefetch::prefetch_index;

use nm_common::classifier::{Classifier, MatchResult};
use nm_common::rule::{Priority, Rule, RuleId};
use nm_common::ruleset::{FieldsSpec, RuleSet};
use nm_common::update::{EngineBuilder, Generation};
use nm_common::Error;

use crate::config::NuevoMatchConfig;
use crate::iset::{partition_isets, ISet};
use crate::rqrmi::{train_rqrmi, CompiledRqRmi, RqRmi};

/// The immutable, snapshot-shareable part of a trained iSet: the compiled
/// RQ-RMI plus the packed lookup arrays. Never mutated after training, so
/// every snapshot generation shares one copy behind an `Arc` — cloning a
/// [`TrainedISet`] for a copy-on-write update costs a pointer bump plus the
/// tombstone vector, not a model.
struct ISetCore {
    /// Field this iSet does not overlap in.
    dim: usize,
    model: CompiledRqRmi,
    reference: RqRmi,
    /// Sorted range lower bounds in `dim` (the RQ-RMI value array order).
    los: Vec<u64>,
    /// Matching upper bounds.
    his: Vec<u64>,
    /// Rule id per position.
    rule_ids: Vec<RuleId>,
    /// Rule priority per position.
    priorities: Vec<Priority>,
    /// Flattened `[lo, hi]` per field per rule (`nfields * 2` per position),
    /// packed so one rule's validation data is contiguous (§4 packs field
    /// values to minimise cache lines touched).
    boxes: Vec<u64>,
    nfields: usize,
}

/// One iSet lowered for the lookup hot path: a compiled RQ-RMI over the
/// iSet's field projection, the sorted range arrays for the secondary
/// search, and flattened rule boxes for multi-field validation.
///
/// The trained arrays live in a shared immutable core; only the per-snapshot
/// tombstone vector (§3.9 deletions) is owned, which is what makes
/// [`NuevoMatch`] cloneable at update rates.
#[derive(Clone)]
pub struct TrainedISet {
    core: Arc<ISetCore>,
    /// Tombstones for §3.9 updates: a deleted rule fails validation.
    deleted: Vec<bool>,
}

impl TrainedISet {
    /// Trains the RQ-RMI and packs the lookup arrays for one iSet.
    pub fn build(set: &RuleSet, iset: &ISet, cfg: &NuevoMatchConfig) -> Result<Self, Error> {
        let dim = iset.dim;
        let bits = set.spec().bits(dim);
        let nfields = set.num_fields();
        let n = iset.rule_ids.len();

        let mut los = Vec::with_capacity(n);
        let mut his = Vec::with_capacity(n);
        let mut rule_ids = Vec::with_capacity(n);
        let mut priorities = Vec::with_capacity(n);
        let mut boxes = Vec::with_capacity(n * nfields * 2);
        for &id in &iset.rule_ids {
            let rule = set.rule(id);
            los.push(rule.fields[dim].lo);
            his.push(rule.fields[dim].hi);
            rule_ids.push(id);
            priorities.push(rule.priority);
            for f in &rule.fields {
                boxes.push(f.lo);
                boxes.push(f.hi);
            }
        }
        let ranges: Vec<nm_common::FieldRange> =
            los.iter().zip(&his).map(|(&lo, &hi)| nm_common::FieldRange::new(lo, hi)).collect();
        let reference = train_rqrmi(&ranges, bits, &cfg.rqrmi)?;
        Ok(Self::from_parts(dim, reference, los, his, rule_ids, priorities, boxes, vec![false; n]))
    }

    /// Assembles an iSet from already-trained parts (snapshot restore; also
    /// the tail of [`TrainedISet::build`]). The arrays must be position-
    /// aligned and `los`/`his` sorted in model order.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        dim: usize,
        reference: RqRmi,
        los: Vec<u64>,
        his: Vec<u64>,
        rule_ids: Vec<RuleId>,
        priorities: Vec<Priority>,
        boxes: Vec<u64>,
        deleted: Vec<bool>,
    ) -> Self {
        let n = rule_ids.len();
        debug_assert_eq!(los.len(), n);
        debug_assert_eq!(his.len(), n);
        debug_assert_eq!(deleted.len(), n);
        let nfields = if n == 0 { 0 } else { boxes.len() / (n * 2) };
        let model = CompiledRqRmi::new(&reference);
        Self {
            core: Arc::new(ISetCore {
                dim,
                model,
                reference,
                los,
                his,
                rule_ids,
                priorities,
                boxes,
                nfields,
            }),
            deleted,
        }
    }

    /// Field this iSet does not overlap in.
    pub fn dim(&self) -> usize {
        self.core.dim
    }

    /// Number of rules in the iSet.
    pub fn len(&self) -> usize {
        self.core.rule_ids.len()
    }

    /// True when the iSet holds no rules.
    pub fn is_empty(&self) -> bool {
        self.core.rule_ids.is_empty()
    }

    /// The trained model (diagnostics: error bounds, widths).
    pub fn model(&self) -> &RqRmi {
        &self.core.reference
    }

    /// Phase 1 — RQ-RMI inference: predicted index + error bound for the
    /// key's value in this iSet's field.
    #[inline]
    pub fn predict(&self, key: &[u64]) -> (usize, u32) {
        self.core.model.predict(key[self.core.dim])
    }

    /// Phase 2 — secondary search: binary search within
    /// `[pred − err, pred + err]` for the range containing the field value.
    /// Returns the position in the iSet arrays.
    #[inline]
    pub fn search(&self, pred: usize, err: u32, key: &[u64]) -> Option<usize> {
        self.search_value(pred, err, key[self.core.dim])
    }

    /// [`TrainedISet::search`] on an already-extracted field value (the
    /// batched pipeline gathers the projection once per batch).
    #[inline]
    pub fn search_value(&self, pred: usize, err: u32, v: u64) -> Option<usize> {
        let n = self.core.los.len();
        if n == 0 {
            // An iSet emptied by updates has nothing to search; without this
            // guard the `n - 1` window clamp below underflows.
            return None;
        }
        let lo = pred.saturating_sub(err as usize);
        let hi = (pred + err as usize).min(n - 1);
        // First range in the window whose upper bound is >= v.
        let off = self.core.his[lo..=hi].partition_point(|&h| h < v);
        let pos = lo + off;
        (pos <= hi && self.core.los[pos] <= v).then_some(pos)
    }

    /// Phase 3 — multi-field validation (§3.6): checks the candidate rule's
    /// box on every field and returns the match on success.
    #[inline]
    pub fn validate(&self, pos: usize, key: &[u64]) -> Option<MatchResult> {
        if self.deleted[pos] {
            return None;
        }
        let nfields = self.core.nfields;
        let base = pos * nfields * 2;
        let b = &self.core.boxes[base..base + nfields * 2];
        for (d, &v) in key.iter().enumerate() {
            if v < b[2 * d] || v > b[2 * d + 1] {
                return None;
            }
        }
        Some(MatchResult::new(self.core.rule_ids[pos], self.core.priorities[pos]))
    }

    /// Full iSet lookup: predict → search → validate.
    #[inline]
    pub fn lookup(&self, key: &[u64]) -> Option<MatchResult> {
        let (pred, err) = self.predict(key);
        let pos = self.search(pred, err, key)?;
        self.validate(pos, key)
    }

    /// Batched iSet lookup over a flat key buffer, phase-structured (§4's
    /// three lookup phases run batch-wide instead of packet-wide):
    ///
    /// 1. **predict** — gather this iSet's field projection and run the
    ///    RQ-RMI over 8 packets per register ([`CompiledRqRmi::predict_batch`]);
    /// 2. **prefetch** — touch each packet's `his`/`los` secondary-search
    ///    window so the (data-dependent, cache-missing) loads overlap;
    /// 3. **search** — the short windowed binary searches, prefetching the
    ///    validation boxes of every hit;
    /// 4. **validate + merge** — full multi-field check, folding winners
    ///    into `best` via [`MatchResult::better`].
    ///
    /// `best[i]` is merged, not overwritten, so callers chain iSets by
    /// passing the same buffer. Results are bit-identical to per-key
    /// [`TrainedISet::lookup`] merges (see `rqrmi::simd` docs for why the
    /// batch kernels cannot change search outcomes).
    pub fn lookup_batch(&self, keys: &[u64], stride: usize, best: &mut [Option<MatchResult>]) {
        const CHUNK: usize = 64;
        let n = best.len();
        assert!(stride > 0, "lookup_batch: stride must be positive");
        assert_eq!(keys.len(), stride * n, "lookup_batch: key buffer length mismatch");
        assert!(self.core.dim < stride, "lookup_batch: iSet field outside key stride");
        let core = &*self.core;
        let mut vals = [0u64; CHUNK];
        let mut preds = [0usize; CHUNK];
        let mut errs = [0u32; CHUNK];
        let mut pos = [usize::MAX; CHUNK];
        let mut base = 0;
        // nm-lint: hotpath
        while base < n {
            let m = CHUNK.min(n - base);
            // Phase 1: gather the projection, predict across packets.
            for i in 0..m {
                vals[i] = keys[(base + i) * stride + core.dim];
            }
            core.model.predict_batch(&vals[..m], &mut preds[..m], &mut errs[..m]);
            // Phase 2: prefetch every search window before any search runs,
            // so the misses resolve in parallel. The first two binary-search
            // probe addresses are deterministic (midpoint, then one of the
            // quarter points), so prefetching ends + mid + quarters covers
            // the first three levels of every search.
            for i in 0..m {
                let lo = preds[i].saturating_sub(errs[i] as usize);
                let hi = (preds[i] + errs[i] as usize).min(core.los.len().saturating_sub(1));
                let mid = lo + (hi - lo) / 2;
                prefetch_index(&core.his, lo);
                prefetch_index(&core.his, mid);
                prefetch_index(&core.his, hi);
                prefetch_index(&core.his, lo + (mid - lo) / 2);
                prefetch_index(&core.his, mid + (hi - mid) / 2);
                prefetch_index(&core.los, mid);
            }
            // Phase 3: secondary searches; prefetch hit boxes for phase 4.
            for i in 0..m {
                pos[i] = match self.search_value(preds[i], errs[i], vals[i]) {
                    Some(p) => {
                        prefetch_index(&core.boxes, p * core.nfields * 2);
                        p
                    }
                    None => usize::MAX,
                };
            }
            // Phase 4: validate and merge.
            for i in 0..m {
                if pos[i] != usize::MAX {
                    let key = &keys[(base + i) * stride..(base + i + 1) * stride];
                    best[base + i] =
                        MatchResult::better(best[base + i], self.validate(pos[i], key));
                }
            }
            base += m;
        }
        // nm-lint: end-hotpath
    }

    /// Index memory: the RQ-RMI weights (the sorted projections and boxes
    /// are rule storage, which the paper's footprint excludes — §5.2.1).
    pub fn memory_bytes(&self) -> usize {
        self.core.reference.memory_bytes()
    }

    /// Marks the rule at `pos` deleted (updates, §3.9).
    pub(crate) fn tombstone(&mut self, pos: usize) {
        self.deleted[pos] = true;
    }

    /// True when the rule at `pos` has been tombstoned.
    pub(crate) fn is_deleted(&self, pos: usize) -> bool {
        self.deleted[pos]
    }

    /// Number of tombstoned positions — this iSet's share of the §3.9 drift.
    pub fn tombstones(&self) -> usize {
        self.deleted.iter().filter(|&&d| d).count()
    }

    /// The sorted `dim` projection of the live (non-tombstoned) positions —
    /// the occupied intervals a partial retrain admits candidates against.
    /// Reads the packed arrays directly; no per-position `Rule` is built.
    pub(crate) fn live_projection(&self) -> (Vec<u64>, Vec<u64>) {
        let mut los = Vec::with_capacity(self.live_len());
        let mut his = Vec::with_capacity(self.live_len());
        for (pos, &dead) in self.deleted.iter().enumerate() {
            if !dead {
                los.push(self.core.los[pos]);
                his.push(self.core.his[pos]);
            }
        }
        (los, his)
    }

    /// Rules still served by this iSet (len minus tombstones).
    pub fn live_len(&self) -> usize {
        self.len() - self.tombstones()
    }

    /// Tombstone count per leaf submodel of this iSet's RQ-RMI — the drift
    /// *concentration* profile. A partial retrain refits only the leaves
    /// whose key region changed, so a profile with most tombstones in a few
    /// leaves is the cheap case; `nm-bench update` reports the
    /// dirty fraction from this.
    pub fn leaf_tombstone_counts(&self) -> Vec<u32> {
        let leaves = self.core.reference.leaf_error_bounds().len();
        let mut counts = vec![0u32; leaves];
        for (pos, &dead) in self.deleted.iter().enumerate() {
            if dead {
                counts[self.core.reference.route(self.core.los[pos])] += 1;
            }
        }
        counts
    }

    /// Incremental (partial) retrain of this one iSet — the §3.9
    /// refinement's structural half: compacts the tombstoned positions out
    /// of the lookup arrays, splices in `admitted` rules (their `dim`
    /// projections must not overlap the survivors or each other — see
    /// [`crate::iset::admit_into_iset`]), and patches the RQ-RMI **leaf
    /// stage only** through [`crate::rqrmi::retrain_leaves`], keeping every
    /// internal submodel and the compiled routing bit-identical.
    ///
    /// Errors propagate `retrain_leaves`'s gates (empty result, drift too
    /// broad for `max_refit_fraction`); callers fall back to a full rebuild.
    pub(crate) fn partial_retrain(
        &self,
        admitted: &[Rule],
        params: &crate::config::RqRmiParams,
        max_refit_fraction: f64,
    ) -> Result<(Self, crate::rqrmi::LeafRetrainStats), Error> {
        let core = &*self.core;
        let (dim, nfields) = (core.dim, core.nfields);
        let n_new = self.live_len() + admitted.len();
        if n_new == 0 {
            return Err(Error::Build {
                msg: "partial_retrain: iSet emptied by updates (drop it instead)".into(),
            });
        }
        // Merge survivors and admitted rules in lo order (both sides are
        // individually sorted after the sort below; survivors already are).
        let mut extra: Vec<&Rule> = admitted.iter().collect();
        extra.sort_unstable_by_key(|r| r.fields[dim].lo);
        let mut los = Vec::with_capacity(n_new);
        let mut his = Vec::with_capacity(n_new);
        let mut rule_ids = Vec::with_capacity(n_new);
        let mut priorities = Vec::with_capacity(n_new);
        let mut boxes = Vec::with_capacity(n_new * nfields * 2);
        let mut push_rule = |lo: u64, hi: u64, id: RuleId, pri: Priority, rb: &[u64]| {
            los.push(lo);
            his.push(hi);
            rule_ids.push(id);
            priorities.push(pri);
            boxes.extend_from_slice(rb);
        };
        let mut e = 0usize;
        for pos in 0..core.rule_ids.len() {
            if self.deleted[pos] {
                continue;
            }
            while e < extra.len() && extra[e].fields[dim].lo < core.los[pos] {
                let r = extra[e];
                let rb: Vec<u64> = r.fields.iter().flat_map(|f| [f.lo, f.hi]).collect();
                push_rule(r.fields[dim].lo, r.fields[dim].hi, r.id, r.priority, &rb);
                e += 1;
            }
            let base = pos * nfields * 2;
            push_rule(
                core.los[pos],
                core.his[pos],
                core.rule_ids[pos],
                core.priorities[pos],
                &core.boxes[base..base + nfields * 2],
            );
        }
        while e < extra.len() {
            let r = extra[e];
            let rb: Vec<u64> = r.fields.iter().flat_map(|f| [f.lo, f.hi]).collect();
            push_rule(r.fields[dim].lo, r.fields[dim].hi, r.id, r.priority, &rb);
            e += 1;
        }
        debug_assert_eq!(rule_ids.len(), n_new);

        let old_ranges: Vec<nm_common::FieldRange> = core
            .los
            .iter()
            .zip(&core.his)
            .map(|(&lo, &hi)| nm_common::FieldRange::new(lo, hi))
            .collect();
        let new_ranges: Vec<nm_common::FieldRange> =
            los.iter().zip(&his).map(|(&lo, &hi)| nm_common::FieldRange::new(lo, hi)).collect();
        let (model, stats) = crate::rqrmi::retrain_leaves(
            &core.reference,
            &old_ranges,
            &new_ranges,
            params,
            max_refit_fraction,
        )?;
        // Belt and braces on top of the analytic bounds: the patched model
        // must place every surviving range boundary within its search
        // window, or the partial path refuses and the caller rebuilds.
        let compiled = CompiledRqRmi::new(&model);
        for (idx, r) in new_ranges.iter().enumerate() {
            for key in [r.lo, r.hi] {
                let (pred, err) = compiled.predict(key);
                if pred.abs_diff(idx) > err as usize {
                    return Err(Error::Build {
                        msg: format!(
                            "partial_retrain: validation failed at key {key} \
                             (true {idx}, predicted {pred} ± {err})"
                        ),
                    });
                }
            }
        }
        Ok((
            Self::from_parts(dim, model, los, his, rule_ids, priorities, boxes, vec![false; n_new]),
            stats,
        ))
    }

    /// Rule id at a position (updates bookkeeping; positions are sorted by
    /// the iSet field's lower bound, so neighbouring positions are
    /// neighbouring key ranges — benches use this to build concentrated
    /// drift workloads).
    pub fn rule_id_at(&self, pos: usize) -> RuleId {
        self.core.rule_ids[pos]
    }

    /// Reconstructs the full rule stored at `pos` from the packed arrays
    /// (snapshot persistence and control-plane rule exports).
    pub fn rule_at(&self, pos: usize) -> Rule {
        let nfields = self.core.nfields;
        let base = pos * nfields * 2;
        let fields = (0..nfields)
            .map(|d| {
                nm_common::FieldRange::new(
                    self.core.boxes[base + 2 * d],
                    self.core.boxes[base + 2 * d + 1],
                )
            })
            .collect();
        Rule::new(self.core.rule_ids[pos], self.core.priorities[pos], fields)
    }

    /// Raw parts for snapshot persistence: `(dim, model, los, his, rule_ids,
    /// priorities, boxes, deleted)`.
    #[allow(clippy::type_complexity)]
    pub(crate) fn parts(
        &self,
    ) -> (usize, &RqRmi, &[u64], &[u64], &[RuleId], &[Priority], &[u64], &[bool]) {
        let c = &*self.core;
        (c.dim, &c.reference, &c.los, &c.his, &c.rule_ids, &c.priorities, &c.boxes, &self.deleted)
    }
}

/// The NuevoMatch classifier: iSets + a remainder engine `R`.
///
/// `R` is any [`Classifier`]; the paper evaluates TupleMerge, CutSplit and
/// NeuroCuts remainders. Build with [`NuevoMatch::build`], passing any
/// [`EngineBuilder`] — a plain `Fn(&RuleSet) -> R` (such as
/// `TupleMerge::build`) works via the blanket impl.
///
/// `NuevoMatch` is a pure **data-plane** value: lookups take `&self`.
/// Direct `&mut self` updates exist for single-threaded callers (see
/// [`update`]); the concurrent lifecycle — lock-free readers, transactional
/// updates, background retrains — lives in [`ClassifierHandle`], which
/// publishes clones of this type. Cloning shares the trained models and
/// copies only the tombstones and the remainder engine.
#[derive(Clone)]
pub struct NuevoMatch<R> {
    isets: Vec<TrainedISet>,
    remainder: R,
    early_termination: bool,
    total_rules: usize,
    /// Schema of the rule-set this classifier was built over.
    spec: FieldsSpec,
    /// Update stamp (see [`Classifier::generation`]).
    pub(crate) generation: Generation,
    /// Rules that migrated to the remainder through updates (§3.9).
    pub(crate) moved_updates: usize,
    /// Drifted rules that a previous *partial* retrain could not re-admit
    /// (their ids fell out of `loc` when the patched iSets were
    /// reassembled, so later admission-yield gates cannot see them in the
    /// routing map). Carried forward so the gate compares against the full
    /// accumulated drift; a full rebuild resets it to zero.
    pub(crate) residual_drift: usize,
    /// id → (iset, position) routing map. Immutable after build (tombstones
    /// are recorded in the iSets, not here), so snapshots share one copy.
    pub(crate) loc: Arc<std::collections::HashMap<RuleId, (u32, u32)>>,
}

impl<R: Classifier> NuevoMatch<R> {
    /// Partitions, trains and assembles the full classifier.
    ///
    /// `remainder_builder` receives the remainder rule subset (ids and
    /// priorities preserved) and returns the external classifier. Pass the
    /// same builder to [`ClassifierHandle::new`] so background retrains can
    /// reconstruct the remainder.
    pub fn build(
        set: &RuleSet,
        cfg: &NuevoMatchConfig,
        remainder_builder: impl EngineBuilder<Engine = R>,
    ) -> Result<Self, Error> {
        let partition = partition_isets(set, cfg.max_isets, cfg.min_iset_coverage);
        let mut isets = Vec::with_capacity(partition.isets.len());
        for iset in &partition.isets {
            isets.push(TrainedISet::build(set, iset, cfg)?);
        }
        let remainder_set = set.subset(&partition.remainder);
        let remainder = remainder_builder.build_engine(&remainder_set);
        Ok(Self::assemble(isets, remainder, cfg.early_termination, set.len(), set.spec().clone()))
    }

    /// Final assembly shared by [`NuevoMatch::build`] and snapshot restore:
    /// derives the routing map from the iSets.
    pub(crate) fn assemble(
        isets: Vec<TrainedISet>,
        remainder: R,
        early_termination: bool,
        total_rules: usize,
        spec: FieldsSpec,
    ) -> Self {
        let mut loc = std::collections::HashMap::new();
        for (i, iset) in isets.iter().enumerate() {
            for pos in 0..iset.len() {
                loc.insert(iset.rule_id_at(pos), (i as u32, pos as u32));
            }
        }
        Self {
            isets,
            remainder,
            early_termination,
            total_rules,
            spec,
            generation: 0,
            moved_updates: 0,
            residual_drift: 0,
            loc: Arc::new(loc),
        }
    }

    /// Drifted rules no partial retrain has managed to re-admit so far
    /// (see [`retrain::PartialRetrainReport`]); a full rebuild folds them
    /// back into the partition and resets this to zero.
    pub fn residual_drift(&self) -> usize {
        self.residual_drift
    }

    /// The trained iSets.
    pub fn isets(&self) -> &[TrainedISet] {
        &self.isets
    }

    /// Mutable iSets (update path).
    pub(crate) fn isets_mut(&mut self) -> &mut [TrainedISet] {
        &mut self.isets
    }

    /// The schema of the rule-set this classifier serves.
    pub fn spec(&self) -> &FieldsSpec {
        &self.spec
    }

    /// Whether early termination (§4) is enabled.
    pub fn early_termination(&self) -> bool {
        self.early_termination
    }

    /// The remainder engine.
    pub fn remainder(&self) -> &R {
        &self.remainder
    }

    /// Mutable remainder engine (update path). Callers that mutate rules
    /// through this must rely on the engine's own generation bump for cache
    /// invalidation (see [`Classifier::generation`]).
    pub fn remainder_mut(&mut self) -> &mut R {
        &mut self.remainder
    }

    /// Fraction of rules indexed by iSets at build time.
    pub fn coverage(&self) -> f64 {
        if self.total_rules == 0 {
            return 0.0;
        }
        let covered: usize = self.isets.iter().map(TrainedISet::len).sum();
        covered as f64 / self.total_rules as f64
    }

    /// Best candidate across the iSets only (phase API for Figure 14).
    #[inline]
    pub fn classify_isets(&self, key: &[u64]) -> Option<MatchResult> {
        let mut best = None;
        for iset in &self.isets {
            best = MatchResult::better(best, iset.lookup(key));
        }
        best
    }

    /// Batched [`NuevoMatch::classify_isets`]: runs every iSet's phase
    /// pipeline over the whole batch (each iSet's model and arrays stay hot
    /// across all packets) and leaves the merged iSet-side candidates in
    /// `out`. The two-worker split sends this to the iSet worker.
    pub fn classify_isets_batch(
        &self,
        keys: &[u64],
        stride: usize,
        out: &mut [Option<MatchResult>],
    ) {
        assert!(stride > 0, "classify_isets_batch: stride must be positive");
        assert_eq!(
            keys.len(),
            stride * out.len(),
            "classify_isets_batch: key buffer length mismatch"
        );
        out.fill(None);
        for iset in &self.isets {
            iset.lookup_batch(keys, stride, out);
        }
    }
}

impl<R: Classifier> Classifier for NuevoMatch<R> {
    fn classify(&self, key: &[u64]) -> Option<MatchResult> {
        let best = self.classify_isets(key);
        let rem = match best {
            // The remainder may prune what cannot even *tie* the iSets'
            // candidate; a tie is kept, for `better` to settle by id.
            Some(b) if self.early_termination && b.priority < Priority::MAX => {
                self.remainder.classify_with_floor(key, b.priority + 1)
            }
            _ => self.remainder.classify(key),
        };
        MatchResult::better(best, rem)
    }

    fn classify_with_floor(&self, key: &[u64], floor: Priority) -> Option<MatchResult> {
        self.classify(key).filter(|m| m.priority < floor)
    }

    /// The batched pipeline: all iSets sweep the batch first (phase
    /// structure inside [`TrainedISet::lookup_batch`]), then the remainder
    /// runs with **batch-wide early termination** — every key that already
    /// holds an iSet candidate hands the remainder its priority floor, so
    /// the remainder prunes exactly as in the per-key path. Caller floors
    /// are folded into the remainder's pruning floors and applied as a
    /// final filter, which together mirror the per-key
    /// `classify(key).filter(p < floor)` dispatch of
    /// [`NuevoMatch::classify_with_floor`] bit-for-bit: the fold can only
    /// suppress remainder candidates the filter would discard.
    fn batch_lookup(
        &self,
        keys: &[u64],
        stride: usize,
        caller_floors: Option<&[Priority]>,
        out: &mut [Option<MatchResult>],
    ) {
        const CHUNK: usize = 128;
        self.classify_isets_batch(keys, stride, out);
        let mut rem = [None; CHUNK];
        let mut floors = [Priority::MAX; CHUNK];
        let mut base = 0;
        while base < out.len() {
            let m = CHUNK.min(out.len() - base);
            let chunk_keys = &keys[base * stride..(base + m) * stride];
            if self.early_termination {
                // Batch-wide early termination: each key's remainder floor
                // is one past its iSet candidate's priority (what cannot
                // even tie it is pruned; MAX = no candidate, and a candidate
                // at MAX saturates into the same "prune nothing"), folded
                // with the caller's floor — any remainder result at or
                // above the caller floor would be discarded by the final
                // filter anyway, so the remainder may prune against it.
                for i in 0..m {
                    let cand =
                        out[base + i].map_or(Priority::MAX, |b| b.priority.saturating_add(1));
                    floors[i] = cand.min(caller_floors.map_or(Priority::MAX, |f| f[base + i]));
                }
                self.remainder.classify_batch_with_floors(
                    chunk_keys,
                    stride,
                    &floors[..m],
                    &mut rem[..m],
                );
            } else {
                self.remainder.classify_batch(chunk_keys, stride, &mut rem[..m]);
            }
            for i in 0..m {
                out[base + i] = MatchResult::better(out[base + i], rem[i]);
            }
            base += m;
        }
        if let Some(f) = caller_floors {
            for i in 0..out.len() {
                if f[i] != Priority::MAX {
                    out[i] = out[i].filter(|m| m.priority < f[i]);
                }
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        let isets: usize = self.isets.iter().map(TrainedISet::memory_bytes).sum();
        isets + self.remainder.memory_bytes()
    }

    fn name(&self) -> &'static str {
        "nm"
    }

    fn num_rules(&self) -> usize {
        self.total_rules
    }

    fn generation(&self) -> Generation {
        // Sum with the remainder's own stamp so rule changes applied
        // straight through `remainder_mut` (bypassing this type's update
        // path) still invalidate caches layered above. Both terms are
        // monotone, so the sum is.
        self.generation + self.remainder.generation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RqRmiParams;
    use nm_common::{FieldsSpec, FiveTuple, LinearSearch};

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

    #[test]
    fn agrees_with_linear_search() {
        let set = port_set(500);
        let nm = NuevoMatch::build(&set, &fast_cfg(), LinearSearch::build).unwrap();
        let oracle = LinearSearch::build(&set);
        for port in (0u64..65536).step_by(53) {
            let key = [1, 2, 3, port, 6];
            assert_eq!(nm.classify(&key), oracle.classify(&key), "diverged at port {port}");
        }
    }

    #[test]
    fn full_coverage_single_iset() {
        let set = port_set(400);
        let nm = NuevoMatch::build(&set, &fast_cfg(), LinearSearch::build).unwrap();
        assert_eq!(nm.isets().len(), 1);
        assert_eq!(nm.coverage(), 1.0);
        assert_eq!(nm.remainder().num_rules(), 0);
    }

    #[test]
    fn early_termination_equivalence() {
        let set = port_set(300);
        let mut cfg = fast_cfg();
        cfg.early_termination = true;
        let with_et = NuevoMatch::build(&set, &cfg, LinearSearch::build).unwrap();
        cfg.early_termination = false;
        let without = NuevoMatch::build(&set, &cfg, LinearSearch::build).unwrap();
        for port in (0u64..65536).step_by(101) {
            let key = [9, 9, 9, port, 17];
            assert_eq!(with_et.classify(&key), without.classify(&key));
        }
    }

    #[test]
    fn memory_is_dominated_by_model_not_rules() {
        let set = port_set(600);
        let nm = NuevoMatch::build(&set, &fast_cfg(), LinearSearch::build).unwrap();
        // The RQ-RMI index for 600 rules must be way below the raw rule data.
        let iset_bytes: usize = nm.isets().iter().map(TrainedISet::memory_bytes).sum();
        assert!(iset_bytes < set.storage_bytes() / 2, "{iset_bytes} vs {}", set.storage_bytes());
    }

    #[test]
    fn classify_batch_bit_identical_to_per_key() {
        use nm_common::Classifier as _;
        let set = port_set(400);
        for et in [true, false] {
            let cfg = NuevoMatchConfig { early_termination: et, ..fast_cfg() };
            let nm = NuevoMatch::build(&set, &cfg, LinearSearch::build).unwrap();
            let keys: Vec<u64> =
                (0..600u64).flat_map(|i| [i, i * 3, i % 7, (i * 131) % 65_536, i % 256]).collect();
            let n = keys.len() / 5;
            // Ragged batch sizes exercise both the 8-lane groups and tails.
            for batch in [1usize, 3, 8, 127, 128, 600] {
                let mut out = vec![None; n];
                let mut lo = 0;
                while lo < n {
                    let hi = (lo + batch).min(n);
                    nm.classify_batch(&keys[lo * 5..hi * 5], 5, &mut out[lo..hi]);
                    lo = hi;
                }
                for i in 0..n {
                    let expect = nm.classify(&keys[i * 5..(i + 1) * 5]);
                    assert_eq!(out[i], expect, "et={et} batch={batch} packet {i}");
                }
            }
        }
    }

    #[test]
    fn classify_batch_handles_priority_max_candidates() {
        use nm_common::Classifier as _;
        // A wildcard rule (remainder, smaller id) and an iSet rule share
        // priority MAX — the batch path must not let the no-candidate floor
        // sentinel swallow the iSet candidate's floor. max_isets = 1 keeps
        // the wildcard in the remainder (with more iSets allowed it would
        // become a trivial single-rule iSet of its own).
        let mut rules = vec![FiveTuple::new().into_rule(0, Priority::MAX)];
        for i in 0..60u16 {
            let pri = if i == 30 { Priority::MAX } else { i as u32 };
            rules.push(
                FiveTuple::new().dst_port_range(i * 100, i * 100 + 99).into_rule(1 + i as u32, pri),
            );
        }
        let set = RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap();
        let cfg = NuevoMatchConfig {
            early_termination: true,
            max_isets: 1,
            min_iset_coverage: 0.0,
            ..fast_cfg()
        };
        let nm = NuevoMatch::build(&set, &cfg, LinearSearch::build).unwrap();
        assert!(nm.remainder().num_rules() > 0, "wildcard must stay in the remainder");
        let keys: Vec<u64> = (0..60u64).flat_map(|i| [1, 2, 3, i * 100 + 50, 6]).collect();
        let mut out = vec![None; 60];
        nm.classify_batch(&keys, 5, &mut out);
        for i in 0..60 {
            let key = &keys[i * 5..(i + 1) * 5];
            assert_eq!(out[i], nm.classify(key), "packet {i} (port {})", key[3]);
        }
    }

    #[test]
    fn phase_api_consistent_with_lookup() {
        let set = port_set(200);
        let nm = NuevoMatch::build(&set, &fast_cfg(), LinearSearch::build).unwrap();
        let iset = &nm.isets()[0];
        let key = [0u64, 0, 0, 12_345, 0];
        let (pred, err) = iset.predict(&key);
        let pos = iset.search(pred, err, &key).unwrap();
        let m = iset.validate(pos, &key).unwrap();
        assert_eq!(iset.lookup(&key), Some(m));
        assert_eq!(m.rule, 123);
    }
}
