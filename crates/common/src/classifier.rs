//! The classifier interface every engine in the workspace implements.

use crate::rule::{Priority, RuleId};

/// Result of a successful classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MatchResult {
    /// The matched rule.
    pub rule: RuleId,
    /// Its priority (cached so selectors never re-fetch the rule).
    pub priority: Priority,
}

impl MatchResult {
    /// Convenience constructor.
    #[inline]
    pub fn new(rule: RuleId, priority: Priority) -> Self {
        Self { rule, priority }
    }

    /// Keeps the better of two optional candidates (smaller priority, then
    /// smaller id; `None` always loses).
    #[inline]
    pub fn better(a: Option<MatchResult>, b: Option<MatchResult>) -> Option<MatchResult> {
        match (a, b) {
            (None, x) | (x, None) => x,
            (Some(x), Some(y)) => {
                let (rule, priority) =
                    crate::rule::better((x.rule, x.priority), (y.rule, y.priority));
                Some(MatchResult { rule, priority })
            }
        }
    }
}

/// A packet classifier — the **data-plane** read interface.
///
/// Implementations: [`crate::LinearSearch`], `nm_tuplemerge::TupleMerge`,
/// `nm_cutsplit::Forest` (the one tree classifier, built as CutSplit or as
/// NeuroCuts), `nuevomatch::NuevoMatch` (which *wraps* one of the others as
/// its remainder engine), and the wrappers layered above them:
/// [`crate::Snapshot`] (a generation-stamped immutable view) and
/// `nuevomatch::ClassifierHandle` (lock-free reads against an atomically
/// swapped snapshot).
///
/// Every method takes `&self` and implementations are `Send + Sync`, so a
/// built classifier can be shared by any number of reader threads. Writes
/// go through the separate control-plane traits: [`crate::BatchUpdatable`]
/// for engines that accept transactional [`crate::UpdateBatch`]es, and a
/// plain `Fn(&RuleSet) -> E` for (re)construction. Engines carry no version:
/// the [`Self::generation`] stamp belongs to the publication a view reads
/// (a [`crate::Snapshot`]), which is how caches above the classifier
/// invalidate.
///
/// ## One lookup hook
///
/// [`Self::batch_lookup`] is the one lookup method an implementation
/// writes; §5.1 of the paper serves packets in batches of 128, and every
/// data path here calls it. [`Self::classify`], [`Self::classify_with_floor`],
/// [`Self::classify_batch`] and [`Self::classify_batch_with_floors`] are
/// provided: each validates its arguments and calls the hook with one key
/// or many. An engine whose batched walk costs more on a key or two keeps
/// its per-key walk as the small-batch branch of its own hook.
///
/// ## Tie semantics
///
/// When several rules match, the one with the smallest priority value wins;
/// among matching rules that share that priority, the smallest id.
/// [`crate::LinearSearch`] is the reference, and `nm_tuplemerge`'s engines
/// and `nuevomatch::NuevoMatch` over them reproduce it exactly: candidates
/// are compared as `(priority, id)`, and because a floor is strict on
/// priority, a caller that holds a candidate and wants ties settled by id
/// passes its priority **plus one** and merges with
/// [`MatchResult::better`]. The tree engines (`nm_cutsplit`'s CutSplit and
/// NeuroCuts) agree on the winning *priority* only: their walks bound later
/// scans strictly below the best match so far, so an equal-priority rule
/// with a smaller id met later never replaces it. Give rules unique
/// priorities (the ClassBench position convention, and effectively what
/// OpenFlow requires) when the exact rule identity matters there.
pub trait Classifier: Send + Sync {
    /// The lookup hook: classifies `out.len()` keys packed back-to-back in
    /// `keys`, each `stride` fields wide in the rule-set's schema order (the
    /// [`crate::TraceBuf`] layout — `trace.raw()` + `trace.stride()` feed
    /// this directly), and writes key `i`'s verdict — the best matching
    /// rule, or `None` — to `out[i]`.
    ///
    /// `floors` carries early termination (§4 of the paper): `floors[i]` is
    /// the priority of a candidate the caller already holds for key `i`, and
    /// the engine may prune any work that cannot produce a strictly smaller
    /// priority, returning `None` for "nothing better". `Priority::MAX` is
    /// the "no candidate" sentinel — no filter for that key, not a `< MAX`
    /// one — and `floors == None` means no key carries a floor. NuevoMatch
    /// hands its remainder engine the iSet candidates' priorities this way.
    ///
    /// Callers go through the provided methods, which validate lengths
    /// first, or (a wrapper, NuevoMatch's remainder call) pass lengths that
    /// already hold, so an implementation may assume `stride > 0`,
    /// `keys.len() == stride * out.len()` and, when present,
    /// `floors.len() == out.len()`. Whatever the batch size, a key's verdict
    /// is the same: `tests/it_batch.rs` checks every engine at batch sizes
    /// from 1 up against LinearSearch.
    fn batch_lookup(
        &self,
        keys: &[u64],
        stride: usize,
        floors: Option<&[Priority]>,
        out: &mut [Option<MatchResult>],
    );

    /// Returns the highest-priority rule matching `key`, or `None`: the
    /// hook on one key. `key` has one `u64` per field in the rule-set's
    /// schema order.
    ///
    /// Panics if `key` is empty.
    fn classify(&self, key: &[u64]) -> Option<MatchResult> {
        assert!(!key.is_empty(), "classify: a key has at least one field");
        let mut out = [None];
        self.batch_lookup(key, key.len(), None, &mut out);
        out[0]
    }

    /// Early-termination variant (§4 of the paper): like [`Self::classify`],
    /// but the caller already holds a candidate with priority `floor`, and
    /// only a strictly smaller priority is returned (`None` means "nothing
    /// better than `floor`"). The filter is strict for every floor, so
    /// `Priority::MAX` excludes rules at `MAX` too.
    ///
    /// Panics if `key` is empty.
    fn classify_with_floor(&self, key: &[u64], floor: Priority) -> Option<MatchResult> {
        assert!(!key.is_empty(), "classify_with_floor: a key has at least one field");
        let mut out = [None];
        self.batch_lookup(key, key.len(), Some(&[floor]), &mut out);
        out[0].filter(|m| m.priority < floor)
    }

    /// Batched lookup over a flat key buffer: [`Self::batch_lookup`] with no
    /// floors, after checking the lengths.
    ///
    /// Panics if `keys.len() != stride * out.len()` or `stride == 0`.
    fn classify_batch(&self, keys: &[u64], stride: usize, out: &mut [Option<MatchResult>]) {
        assert!(stride > 0, "classify_batch: stride must be positive");
        assert_eq!(
            keys.len(),
            stride * out.len(),
            "classify_batch: key buffer length must equal stride * out.len()"
        );
        self.batch_lookup(keys, stride, None, out);
    }

    /// Batched lookup with **per-key priority floors**: [`Self::batch_lookup`]
    /// with `Some(floors)`, after checking the lengths. `floors[i] ==
    /// Priority::MAX` means plain [`Self::classify`] for key `i`; any other
    /// floor means [`Self::classify_with_floor`].
    ///
    /// Panics on the same length mismatches as [`Self::classify_batch`],
    /// plus `floors.len() != out.len()`.
    fn classify_batch_with_floors(
        &self,
        keys: &[u64],
        stride: usize,
        floors: &[Priority],
        out: &mut [Option<MatchResult>],
    ) {
        assert!(stride > 0, "classify_batch_with_floors: stride must be positive");
        assert_eq!(
            keys.len(),
            stride * out.len(),
            "classify_batch_with_floors: key buffer length must equal stride * out.len()"
        );
        assert_eq!(
            floors.len(),
            out.len(),
            "classify_batch_with_floors: one floor per output slot"
        );
        self.batch_lookup(keys, stride, Some(floors), out);
    }

    /// The stamp of the publication this view reads (see
    /// [`crate::Generation`]), and `0` for an engine that is not published.
    ///
    /// Engines keep the default: a bare engine is a value, and whoever
    /// changes it through `&mut` owns it outright. A [`crate::Snapshot`]
    /// reports its stamp, and the handles that publish snapshots
    /// (`nuevomatch::ClassifierHandle`, `nuevomatch::ShardedHandle`) report
    /// the live one. The runtime's per-worker flow caches key on the stamp
    /// of each batch's pin to drop stale verdicts.
    fn generation(&self) -> crate::update::Generation {
        0
    }

    /// Bytes used by the *index* data structures (hash tables, tree nodes,
    /// model weights) — excluding the rules themselves, matching the paper's
    /// §5.2.1 memory-footprint definition.
    fn memory_bytes(&self) -> usize;

    /// Short engine name for reports ("tm", "cs", "nc", "nm", "linear").
    fn name(&self) -> &'static str;

    /// Number of rules currently indexed.
    fn num_rules(&self) -> usize;
}

/// Applies caller floors as the last step of a [`Classifier::batch_lookup`]
/// whose sweep computed unfloored verdicts: each key keeps only a verdict
/// strictly below its floor (`Priority::MAX` is the "no floor" sentinel,
/// not a `< MAX` filter).
#[inline]
pub fn apply_floors(floors: Option<&[Priority]>, out: &mut [Option<MatchResult>]) {
    if let Some(f) = floors {
        for (o, &floor) in out.iter_mut().zip(f) {
            if floor != Priority::MAX {
                *o = o.filter(|m| m.priority < floor);
            }
        }
    }
}

// Boxed classifiers (the CLI's `Box<dyn Classifier>` engines) are
// classifiers themselves, so generic code — `nmctl`'s sharded runtime —
// can hold them without knowing the concrete engine. Every required or
// overridden method forwards, so a boxed engine keeps its lookup hook and
// a boxed snapshot its generation stamp.
impl<C: Classifier + ?Sized> Classifier for Box<C> {
    fn batch_lookup(
        &self,
        keys: &[u64],
        stride: usize,
        floors: Option<&[Priority]>,
        out: &mut [Option<MatchResult>],
    ) {
        (**self).batch_lookup(keys, stride, floors, out)
    }

    fn generation(&self) -> crate::update::Generation {
        (**self).generation()
    }

    fn memory_bytes(&self) -> usize {
        (**self).memory_bytes()
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn num_rules(&self) -> usize {
        (**self).num_rules()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_classify_batch_matches_per_key() {
        use crate::range::FieldRange;
        use crate::ruleset::{FieldsSpec, RuleSet};
        let rows: Vec<Vec<FieldRange>> =
            (0..40u64).map(|i| vec![FieldRange::new(i * 25, i * 25 + 20)]).collect();
        let set = RuleSet::from_ranges(FieldsSpec::single("f", 10), rows).unwrap();
        let ls = crate::LinearSearch::build(&set);
        let keys: Vec<u64> = (0..200u64).map(|i| i * 5 % 1024).collect();
        let mut out = vec![None; keys.len()];
        ls.classify_batch(&keys, 1, &mut out);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(out[i], ls.classify(std::slice::from_ref(k)));
        }
        // Empty batch is a no-op.
        ls.classify_batch(&[], 1, &mut []);
    }

    #[test]
    #[should_panic]
    fn classify_batch_checks_lengths() {
        let ls = crate::LinearSearch::from_rules(Vec::new());
        let mut out = [None; 2];
        ls.classify_batch(&[1, 2, 3], 2, &mut out);
    }

    #[test]
    fn better_prefers_lower_priority() {
        let a = Some(MatchResult::new(4, 10));
        let b = Some(MatchResult::new(7, 3));
        assert_eq!(MatchResult::better(a, b), b);
        assert_eq!(MatchResult::better(a, None), a);
        assert_eq!(MatchResult::better(None, None), None);
        // Equal priority: smaller id wins.
        let c = Some(MatchResult::new(2, 10));
        assert_eq!(MatchResult::better(a, c), c);
    }
}
