//! Control-plane types: update transactions and versioned snapshots.
//!
//! The workspace splits every classifier's lifecycle into a **data plane**
//! (immutable lookup structures, shared by any number of reader threads)
//! and a **control plane** (rule updates and rebuilds, driven by a single
//! writer). This module holds the vocabulary both sides agree on:
//!
//! * [`UpdateBatch`] / [`UpdateOp`] — a transaction of inserts, removes and
//!   modifies. Engines apply a whole batch through
//!   [`BatchUpdatable::apply`]; the ops inside one batch become visible
//!   together (trivially so for `&mut` engines, and via snapshot swap for
//!   `nuevomatch`'s `ClassifierHandle`).
//! * [`Snapshot`] — a generation-stamped immutable wrapper around any
//!   classifier, the unit the data plane publishes and readers pin. The
//!   stamp lives here and nowhere else: engines are unversioned values.
//!
//! The paper's §3.9 update story maps onto these directly: a writer applies
//! [`UpdateBatch`]es (rules drift to the remainder), a background retrain
//! invokes the stored builder — any `Fn(&RuleSet) -> E`, such as
//! `TupleMerge::build` — and publishes a fresh [`Snapshot`] under a new
//! generation.

use crate::classifier::{Classifier, MatchResult};
use crate::rule::{Priority, Rule, RuleId};

/// Monotone data-plane version number: the stamp a publication carries.
/// Only a publishing handle mints one (per effective update batch, and per
/// retrain); engines carry none, and generation `0` means "not published".
pub type Generation = u64;

/// One rule update (paper §3.9's taxonomy; action changes are external to
/// the classifier and have no structural op).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UpdateOp {
    /// A new rule. Upsert semantics on id: engines replace any live version
    /// carrying the same [`RuleId`] (use [`UpdateOp::Modify`] when the
    /// replacement is the point — it reports the removal explicitly).
    Insert(Rule),
    /// Removal by id.
    Remove(RuleId),
    /// Matching-set change: atomically replaces the rule with this id.
    Modify(Rule),
}

impl UpdateOp {
    /// The id the op targets.
    pub fn id(&self) -> RuleId {
        match self {
            UpdateOp::Insert(r) | UpdateOp::Modify(r) => r.id,
            UpdateOp::Remove(id) => *id,
        }
    }
}

/// A transaction of rule updates, applied as a unit.
///
/// Build one with the chaining helpers and hand it to
/// [`BatchUpdatable::apply`] (or `nuevomatch::ClassifierHandle::apply`,
/// which additionally guarantees concurrent readers observe either none or
/// all of the batch):
///
/// ```
/// use nm_common::{BatchUpdatable, FieldsSpec, FiveTuple, LinearSearch, RuleSet, UpdateBatch};
/// let set = RuleSet::new(FieldsSpec::five_tuple(), vec![]).unwrap();
/// let mut ls = LinearSearch::build(&set);
/// let batch = UpdateBatch::new()
///     .insert(FiveTuple::new().dst_port_exact(443).into_rule(0, 0))
///     .insert(FiveTuple::new().dst_port_exact(80).into_rule(1, 1))
///     .remove(7);
/// let report = ls.apply(&batch);
/// assert_eq!((report.inserted, report.removed, report.missing), (2, 0, 1));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UpdateBatch {
    ops: Vec<UpdateOp>,
}

impl UpdateBatch {
    /// An empty transaction.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues an insertion (chaining).
    pub fn insert(mut self, rule: Rule) -> Self {
        self.ops.push(UpdateOp::Insert(rule));
        self
    }

    /// Queues a removal (chaining).
    pub fn remove(mut self, id: RuleId) -> Self {
        self.ops.push(UpdateOp::Remove(id));
        self
    }

    /// Queues a matching-set change (chaining).
    pub fn modify(mut self, rule: Rule) -> Self {
        self.ops.push(UpdateOp::Modify(rule));
        self
    }

    /// Appends an already-constructed op.
    pub fn push(&mut self, op: UpdateOp) {
        self.ops.push(op);
    }

    /// The ops, in application order.
    pub fn ops(&self) -> &[UpdateOp] {
        &self.ops
    }

    /// Number of ops in the transaction.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the transaction holds no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl FromIterator<UpdateOp> for UpdateBatch {
    fn from_iter<I: IntoIterator<Item = UpdateOp>>(iter: I) -> Self {
        Self { ops: iter.into_iter().collect() }
    }
}

impl IntoIterator for UpdateBatch {
    type Item = UpdateOp;
    type IntoIter = std::vec::IntoIter<UpdateOp>;

    fn into_iter(self) -> Self::IntoIter {
        self.ops.into_iter()
    }
}

/// Per-batch accounting returned by [`BatchUpdatable::apply`].
///
/// `removed` counts **true deletions** only ([`UpdateOp::Remove`] hits). A
/// live version displaced by an upsert ([`UpdateOp::Insert`] of an existing
/// id, or the remove half of a [`UpdateOp::Modify`] that found its target)
/// counts under `replaced` instead — the rule kept existing, its content
/// changed. Conflating the two over-reports removal rates in update
/// benchmarks and breaks `modify()`-style "did the target exist" returns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateReport {
    /// Rules inserted (including the insert half of every modify).
    pub inserted: usize,
    /// Rules deleted by [`UpdateOp::Remove`] ops that found their target.
    pub removed: usize,
    /// Live versions displaced by an upsert: [`UpdateOp::Insert`] over an
    /// existing id, or the remove half of a [`UpdateOp::Modify`] hit.
    pub replaced: usize,
    /// Remove/modify ops whose target id was absent.
    pub missing: usize,
}

impl UpdateReport {
    /// Folds another report into this one (batch-of-batches accounting).
    pub fn absorb(&mut self, other: UpdateReport) {
        self.inserted += other.inserted;
        self.removed += other.removed;
        self.replaced += other.replaced;
        self.missing += other.missing;
    }

    /// True when the batch changed the served rule content — the condition
    /// under which a handle publishes a new generation. A batch made
    /// entirely of misses (removes of absent ids) changes nothing, and
    /// publishing for it would stampede the caches layered above.
    pub fn changed(&self) -> bool {
        self.inserted > 0 || self.removed > 0 || self.replaced > 0
    }
}

/// Derives the standard [`BatchUpdatable::apply`] loop from an engine's
/// single-rule primitives: inserts are id-upserts (any live same-id version
/// is displaced first and counted as `replaced`), removes report presence,
/// and a modify is a replace-or-miss followed by an insert. Engines whose
/// batch semantics match (LinearSearch, TupleMerge) delegate here so the op
/// accounting has exactly one definition.
pub fn apply_ops<T>(
    target: &mut T,
    batch: &UpdateBatch,
    mut insert: impl FnMut(&mut T, Rule),
    mut remove: impl FnMut(&mut T, RuleId) -> bool,
) -> UpdateReport {
    let mut report = UpdateReport::default();
    for op in batch.ops() {
        match op {
            UpdateOp::Insert(rule) => {
                // Upsert on id: displacing a live version is a replacement,
                // not a deletion — the id keeps existing.
                if remove(target, rule.id) {
                    report.replaced += 1;
                }
                insert(target, rule.clone());
                report.inserted += 1;
            }
            UpdateOp::Remove(id) => {
                if remove(target, *id) {
                    report.removed += 1;
                } else {
                    report.missing += 1;
                }
            }
            UpdateOp::Modify(rule) => {
                if remove(target, rule.id) {
                    report.replaced += 1;
                } else {
                    report.missing += 1;
                }
                insert(target, rule.clone());
                report.inserted += 1;
            }
        }
    }
    report
}

/// Classifiers that accept transactional rule updates (§3.9) — the update
/// path of the control-plane/data-plane split.
///
/// `apply` replaced the old per-op `Updatable` `&mut self` insert/remove
/// pair (removed after its one-release deprecation): a whole [`UpdateBatch`]
/// lands at once, which lets an engine amortise bookkeeping across the batch
/// and lets a snapshot handle make the batch atomic with respect to
/// readers. An engine keeps no version of its own: the handle that
/// publishes it stamps each publication, and the report's
/// [`UpdateReport::changed`] tells it whether there is anything to publish.
pub trait BatchUpdatable: Classifier {
    /// Applies every op in order. With `&mut self` the batch is trivially
    /// atomic; wrappers that expose concurrent readers must not let a
    /// partially-applied batch become visible.
    fn apply(&mut self, batch: &UpdateBatch) -> UpdateReport;

    /// The live rules currently indexed, in no particular order. This is the
    /// control plane's escape hatch: retrains and snapshot persistence
    /// rebuild rule-sets from it.
    fn export_rules(&self) -> Vec<Rule>;
}

/// A generation-stamped immutable classifier — the unit the data plane
/// publishes and readers pin.
///
/// `Snapshot` only adds the stamp; all lookup entry points delegate to the
/// wrapped engine. Readers that need a *consistent* view across several
/// lookups hold one `Snapshot` (usually behind an `Arc`) and classify
/// against it; [`Classifier::generation`] then reports the pinned
/// generation, letting caches and oracles key off it.
#[derive(Clone, Debug)]
pub struct Snapshot<C> {
    engine: C,
    generation: Generation,
}

impl<C> Snapshot<C> {
    /// Stamps `engine` with `generation`.
    pub fn new(engine: C, generation: Generation) -> Self {
        Self { engine, generation }
    }

    /// The pinned generation.
    pub fn generation(&self) -> Generation {
        self.generation
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &C {
        &self.engine
    }
}

impl<C: Classifier> Classifier for Snapshot<C> {
    fn batch_lookup(
        &self,
        keys: &[u64],
        stride: usize,
        floors: Option<&[Priority]>,
        out: &mut [Option<MatchResult>],
    ) {
        self.engine.batch_lookup(keys, stride, floors, out);
    }

    fn memory_bytes(&self) -> usize {
        self.engine.memory_bytes()
    }

    fn name(&self) -> &'static str {
        self.engine.name()
    }

    fn num_rules(&self) -> usize {
        self.engine.num_rules()
    }

    fn generation(&self) -> Generation {
        self.generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fivetuple::FiveTuple;
    use crate::linear::LinearSearch;
    use crate::ruleset::{FieldsSpec, RuleSet};

    fn rule(id: u32, port: u16) -> Rule {
        FiveTuple::new().dst_port_exact(port).into_rule(id, id)
    }

    #[test]
    fn batch_builder_orders_ops() {
        let b = UpdateBatch::new().insert(rule(1, 10)).remove(2).modify(rule(3, 30));
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.ops()[0].id(), 1);
        assert_eq!(b.ops()[1], UpdateOp::Remove(2));
        assert_eq!(b.ops()[2].id(), 3);
    }

    #[test]
    fn snapshot_delegates_and_stamps() {
        let set = RuleSet::new(FieldsSpec::five_tuple(), vec![rule(0, 80), rule(1, 443)]).unwrap();
        let snap = Snapshot::new(LinearSearch::build(&set), 42);
        assert_eq!(snap.generation(), 42);
        assert_eq!(Classifier::generation(&snap), 42);
        let key = [0u64, 0, 0, 443, 0];
        assert_eq!(snap.classify(&key).unwrap().rule, 1);
        assert_eq!(snap.classify(&key), snap.engine().classify(&key));
        assert_eq!(snap.num_rules(), 2);
    }

    #[test]
    fn report_absorb_accumulates() {
        let mut a = UpdateReport { inserted: 1, removed: 2, replaced: 1, missing: 0 };
        a.absorb(UpdateReport { inserted: 3, removed: 0, replaced: 2, missing: 5 });
        assert_eq!(a, UpdateReport { inserted: 4, removed: 2, replaced: 3, missing: 5 });
    }

    #[test]
    fn report_changed_ignores_misses() {
        assert!(!UpdateReport::default().changed());
        assert!(!UpdateReport { missing: 3, ..Default::default() }.changed());
        assert!(UpdateReport { inserted: 1, ..Default::default() }.changed());
        assert!(UpdateReport { removed: 1, ..Default::default() }.changed());
        assert!(UpdateReport { replaced: 1, ..Default::default() }.changed());
    }

    #[test]
    fn apply_ops_distinguishes_replacement_from_deletion() {
        let set = RuleSet::new(FieldsSpec::five_tuple(), vec![rule(0, 80), rule(1, 443)]).unwrap();
        let mut ls = LinearSearch::build(&set);
        // Insert over a live id is a replacement (upsert), not a removal.
        let r = ls.apply(&UpdateBatch::new().insert(rule(0, 8080)));
        assert_eq!((r.inserted, r.removed, r.replaced, r.missing), (1, 0, 1, 0));
        assert_eq!(ls.num_rules(), 2, "upsert must not duplicate the id");
        assert_eq!(ls.classify(&[0, 0, 0, 8080, 0]).unwrap().rule, 0);
        assert_eq!(ls.classify(&[0, 0, 0, 80, 0]), None, "stale version must die");
        // A modify hit is also a replacement; a true delete is `removed`.
        let r = ls.apply(&UpdateBatch::new().modify(rule(1, 444)).remove(0).remove(99));
        assert_eq!((r.inserted, r.removed, r.replaced, r.missing), (1, 1, 1, 1));
    }
}
