//! The end-to-end NuevoMatch classifier (paper §3.8, §4).
//!
//! Build: partition into iSets → train one RQ-RMI per iSet → hand the
//! remainder to an external classifier. Lookup: query every iSet (predict →
//! secondary search → multi-field validation), query the remainder, return
//! the highest-priority candidate. With early termination (§4) the remainder
//! is queried *after* the iSets and may prune all work that cannot beat the
//! iSets' best candidate.

pub mod flow_cache;
pub mod handle;
pub mod parallel;
#[cfg(test)]
mod proptests;
pub mod publish;
pub mod retrain;
pub mod runtime;
pub mod serve;
pub mod update;

pub use flow_cache::CacheStats;
pub use handle::{ClassifierHandle, NmSnapshot};
pub use parallel::run_batched;
pub use retrain::PartialRetrainReport;
pub use runtime::{
    PinPolicy, RunStats, Runtime, RuntimeConfig, ShardedClassifier, ShardedHandle, Topology,
};

use std::sync::Arc;

use nm_common::prefetch::prefetch_index;

use nm_common::classifier::{apply_floors, Classifier, MatchResult};
use nm_common::rule::{Priority, Rule, RuleId};
use nm_common::ruleset::{FieldsSpec, RuleSet};
use nm_common::Error;

use crate::config::NuevoMatchConfig;
use crate::iset::{partition_isets, ISet};
use crate::par;
use crate::rqrmi::{train_rqrmi, CompiledRqRmi, RqRmi};

/// A word of the search array and the validation records: `u32` when every
/// field of the schema is at most 32 bits wide, `u64` otherwise. Comparisons
/// widen the stored word ([`wide`]), never narrow the key, so a key beyond
/// the field's domain simply matches nothing.
pub(crate) trait Word:
    Copy + Default + Into<u64> + TryFrom<u64> + Send + Sync + 'static
{
    /// The [`Table`] variant holding storage of this word.
    fn table(packed: Packed<Self>) -> Table;
}

impl Word for u32 {
    fn table(packed: Packed<Self>) -> Table {
        Table::Narrow(packed)
    }
}

impl Word for u64 {
    fn table(packed: Packed<Self>) -> Table {
        Table::Wide(packed)
    }
}

#[inline(always)]
pub(crate) fn wide<W: Word>(w: W) -> u64 {
    w.into()
}

/// Bit `i` of a bitmap of 64-bit words (tombstones, found-bits).
#[inline(always)]
fn bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 == 1
}

/// The rule storage of one iSet in the layout [`TrainedISet`] documents,
/// generic over the [`Word`]: the search array `his` and one validation
/// record per position.
pub(crate) struct Packed<W> {
    his: Vec<W>,
    /// Record storage, over-allocated by up to a line so that `base` can
    /// sit on a 64-byte boundary. Sized once in [`Packed::new`] and never
    /// grown, so the boundary stays where it was found.
    words: Vec<W>,
    /// First word of record 0.
    base: usize,
    /// Words per record slot.
    stride: usize,
    nfields: usize,
    /// Field this iSet does not overlap in.
    dim: usize,
}

/// Bytes of one record slot for `nfields` fields of `word`-byte words: the
/// record rounded up to a power of two while it fits a line, to whole lines
/// beyond.
pub(crate) fn slot_bytes(nfields: usize, word: usize) -> usize {
    let bytes = (2 * nfields + 2) * word;
    if bytes <= 64 {
        bytes.next_power_of_two()
    } else {
        bytes.next_multiple_of(64)
    }
}

impl<W: Word> Packed<W> {
    /// Empty storage with room for exactly `n` records.
    fn new(dim: usize, nfields: usize, n: usize) -> Self {
        let word = std::mem::size_of::<W>();
        let (stride, line) = (slot_bytes(nfields, word) / word, 64 / word);
        let words = vec![W::default(); n * stride + line - 1];
        // Only speed depends on the boundary: if the platform cannot say
        // where it is, the records start at word 0.
        let base = Some(words.as_ptr().align_offset(64)).filter(|&o| o < line).unwrap_or(0);
        Self { his: Vec::with_capacity(n), words, base, stride, nfields, dim }
    }

    /// The record slot at `pos` (`stride` words; the first `2·nfields + 2`
    /// are meaningful).
    #[inline(always)]
    pub(crate) fn record(&self, pos: usize) -> &[W] {
        &self.words[self.base + pos * self.stride..][..self.stride]
    }

    /// All record slots, back to back, as a snapshot image stores them.
    pub(crate) fn records(&self) -> &[W] {
        &self.words[self.base..][..self.his.len() * self.stride]
    }

    /// Fills empty storage with `n` record slots read word by word from
    /// `next` (snapshot restore); the search array follows from them.
    pub(crate) fn read_records(&mut self, n: usize, next: impl FnMut() -> W) {
        self.words[self.base..][..n * self.stride].fill_with(next);
        self.his = (0..n).map(|pos| self.record(pos)[2 * self.dim + 1]).collect();
    }

    /// Appends an already-packed record (a survivor of a partial retrain).
    fn push_record(&mut self, rec: &[W]) {
        let at = self.base + self.his.len() * self.stride;
        self.words[at..at + self.stride].copy_from_slice(rec);
        self.his.push(rec[2 * self.dim + 1]);
    }

    /// Packs `rule` as the next record. Fails when the rule does not fit
    /// the schema this storage was sized for (field count, word width).
    fn push_rule(&mut self, rule: &Rule) -> Result<(), Error> {
        let nf = self.nfields;
        let fit = |v: u64| {
            W::try_from(v).map_err(|_| Error::Build {
                msg: format!("rule {}: {v} exceeds the schema's field width", rule.id),
            })
        };
        if rule.fields.len() != nf {
            return Err(Error::SchemaMismatch {
                rule: rule.id,
                expected: nf,
                got: rule.fields.len(),
            });
        }
        let at = self.base + self.his.len() * self.stride;
        let rec = &mut self.words[at..at + self.stride];
        for (d, f) in rule.fields.iter().enumerate() {
            rec[2 * d] = fit(f.lo)?;
            rec[2 * d + 1] = fit(f.hi)?;
        }
        rec[2 * nf] = fit(rule.id as u64)?;
        rec[2 * nf + 1] = fit(rule.priority as u64)?;
        self.his.push(rec[2 * self.dim + 1]);
        Ok(())
    }

    /// Position of the first range in `[pred − err, pred + err]` whose
    /// upper bound is ≥ `v`, clamped to the window's last position (where
    /// the record then fails the containment check). `his` must not be
    /// empty.
    #[inline(always)]
    fn window_pos(&self, pred: usize, err: u32, v: u64) -> usize {
        let lo = pred.saturating_sub(err as usize);
        let hi = (pred + err as usize).min(self.his.len() - 1);
        (lo + self.his[lo..=hi].partition_point(|&h| wide(h) < v)).min(hi)
    }

    /// True when `v` lies inside the record's range on field `d`.
    /// Branch-free, like its callers: on FIB traffic a key matches ~2.5 of
    /// 8 iSets, a coin flip per test.
    #[inline(always)]
    fn holds(rec: &[W], d: usize, v: u64) -> bool {
        (wide(rec[2 * d]) <= v) & (v <= wide(rec[2 * d + 1]))
    }

    /// True when `key` lies inside the record's box on every field.
    #[inline(always)]
    fn contains(&self, rec: &[W], key: &[u64]) -> bool {
        key[..self.nfields].iter().enumerate().fold(true, |ok, (d, &v)| ok & Self::holds(rec, d, v))
    }

    /// The record's `priority << 32 | id`: candidates ordered as integers
    /// are ordered by `(priority, id)`, the workspace's tie rule.
    #[inline(always)]
    fn candidate(&self, rec: &[W]) -> u64 {
        wide(rec[2 * self.nfields + 1]) << 32 | wide(rec[2 * self.nfields])
    }

    /// The batched lookup of one chunk of ≤ 64 keys; see
    /// [`TrainedISet::lookup_batch`], which dispatches here once per batch.
    fn lookup_chunk(
        &self,
        model: &CompiledRqRmi,
        deleted: &[u64],
        keys: &[u64],
        stride: usize,
        best: &mut [u64],
    ) -> u64 {
        let m = best.len();
        let mut vals = [0u64; CHUNK];
        let mut preds = [0usize; CHUNK];
        let mut errs = [0u32; CHUNK];
        // nm-lint: hotpath
        // Phase 1: gather the projection, predict across packets.
        for i in 0..m {
            vals[i] = keys[i * stride + self.dim];
        }
        model.predict_batch(&vals[..m], &mut preds[..m], &mut errs[..m]);
        // Phase 2: prefetch every search window before any search runs, so
        // the misses resolve in parallel. Ends + midpoint + quarter points
        // are the first three probe levels of every search, and at the mean
        // error bound they are the whole window.
        for i in 0..m {
            let lo = preds[i].saturating_sub(errs[i] as usize);
            let hi = (preds[i] + errs[i] as usize).min(self.his.len() - 1);
            let mid = lo + (hi - lo) / 2;
            for at in [lo, lo + (mid - lo) / 2, mid, mid + (hi - mid) / 2, hi] {
                prefetch_index(&self.his, at);
            }
        }
        // Phase 3: the windowed searches; prefetch each landing record.
        for i in 0..m {
            preds[i] = self.window_pos(preds[i], errs[i], vals[i]);
            prefetch_index(&self.words, self.base + preds[i] * self.stride);
        }
        // Phase 4: validate and merge without a branch — a miss folds in as
        // `u64::MAX`, which `min` ignores.
        let mut found = 0u64;
        for i in 0..m {
            let (pos, rec) = (preds[i], self.record(preds[i]));
            let ok = !bit(deleted, pos) & self.contains(rec, &keys[i * stride..(i + 1) * stride]);
            best[i] = best[i].min(self.candidate(rec) | (ok as u64).wrapping_sub(1));
            found |= (ok as u64) << i;
        }
        // nm-lint: end-hotpath
        found
    }
}

/// Keys per pass of [`Packed::lookup_chunk`]: one word of found-bits.
const CHUNK: usize = 64;

/// [`Packed`] at the word the schema allows, chosen once when the storage
/// is created; lookups match on it once per key or per batch.
pub(crate) enum Table {
    /// Every field of the schema is ≤ 32 bits.
    Narrow(Packed<u32>),
    Wide(Packed<u64>),
}

/// Runs one generic body on whichever [`Packed`] a [`Table`] holds.
macro_rules! with_table {
    ($table:expr, $t:ident => $body:expr) => {
        match $table {
            Table::Narrow($t) => $body,
            Table::Wide($t) => $body,
        }
    };
}
pub(crate) use with_table;

impl Table {
    /// Empty storage for `n` rules of `spec`, indexed on field `dim`.
    pub(crate) fn new(spec: &FieldsSpec, dim: usize, n: usize) -> Self {
        if Self::word_bytes(spec) == 4 {
            Word::table(Packed::<u32>::new(dim, spec.len(), n))
        } else {
            Word::table(Packed::<u64>::new(dim, spec.len(), n))
        }
    }

    /// Bytes per word of the storage `spec` gets: 4 when every field is at
    /// most 32 bits wide, else 8.
    pub(crate) fn word_bytes(spec: &FieldsSpec) -> usize {
        if spec.iter().all(|f| f.bits <= 32) {
            4
        } else {
            8
        }
    }

    fn len(&self) -> usize {
        with_table!(self, t => t.his.len())
    }

    fn dim(&self) -> usize {
        with_table!(self, t => t.dim)
    }

    fn nfields(&self) -> usize {
        with_table!(self, t => t.nfields)
    }

    /// Word `w` of the record at `pos`, widened (control-plane reads; the
    /// lookup path stays inside [`Packed`]).
    fn word(&self, pos: usize, w: usize) -> u64 {
        with_table!(self, t => wide(t.record(pos)[w]))
    }

    /// The iSet-field range of the record at `pos`.
    fn range(&self, pos: usize) -> nm_common::FieldRange {
        let d = self.dim();
        nm_common::FieldRange::new(self.word(pos, 2 * d), self.word(pos, 2 * d + 1))
    }
}

/// The immutable, snapshot-shareable part of a trained iSet: the compiled
/// RQ-RMI plus the packed rule storage. Never mutated after training, so
/// every snapshot generation shares one copy behind an `Arc` — cloning a
/// [`TrainedISet`] for a copy-on-write update costs a pointer bump plus the
/// tombstone bitmap, not a model.
struct ISetCore {
    model: CompiledRqRmi,
    reference: RqRmi,
    table: Table,
}

/// One iSet lowered for the lookup hot path: a compiled RQ-RMI over the
/// iSet's field projection, and the rules in the layout a hit touches (§4
/// "pack field values to minimise cache lines touched"):
///
/// * a dense **search array** — the sorted upper bounds in the iSet's field
///   and nothing else, `u32` when every field of the schema is at most 32
///   bits wide and `u64` otherwise, so a `±err` window is `2·err + 1` words;
/// * one **validation record** per position — `[lo, hi]` per field, then
///   id, then priority, in the same words — starting on a 64-byte boundary
///   and strided by the record rounded up to a power of two while it fits a
///   line (16 B for a 1-field/32 FIB, 64 B for a 5-tuple) and to whole
///   lines beyond, so a record of ≤ 64 B never straddles two lines;
/// * a **tombstone bitmap** (§3.9 deletions), one bit per position.
///
/// The secondary search takes its `lo` check from the record and validation
/// finds that line hot, so after inference a hit touches ≤ 3 lines of the
/// search array (the window at the mean error bound), 1 record line, and one
/// bit of the bitmap (n/8 bytes — 62 KB per 500K rules, L2-resident).
///
/// Array and records live in a shared immutable core; only the bitmap is
/// owned per snapshot, which is what makes [`NuevoMatch`] cloneable at
/// update rates.
#[derive(Clone)]
pub struct TrainedISet {
    core: Arc<ISetCore>,
    /// One bit per position: a deleted rule fails validation.
    deleted: Vec<u64>,
}

impl TrainedISet {
    /// Trains the RQ-RMI and packs the rule storage for one iSet.
    pub fn build(set: &RuleSet, iset: &ISet, cfg: &NuevoMatchConfig) -> Result<Self, Error> {
        let n = iset.rule_ids.len();
        let mut table = Table::new(set.spec(), iset.dim, n);
        let mut ranges = Vec::with_capacity(n);
        for &id in &iset.rule_ids {
            let rule = set.rule(id);
            with_table!(&mut table, t => t.push_rule(rule))?;
            ranges.push(rule.fields[iset.dim]);
        }
        let reference = train_rqrmi(&ranges, set.spec().bits(iset.dim), &cfg.rqrmi)?;
        Ok(Self::from_parts(reference, table, vec![0; n.div_ceil(64)]))
    }

    /// Assembles an iSet from already-trained parts (snapshot restore; also
    /// the tail of [`TrainedISet::build`]). `table` must hold its records in
    /// model order and `deleted` one bit per record.
    pub(crate) fn from_parts(reference: RqRmi, table: Table, deleted: Vec<u64>) -> Self {
        debug_assert_eq!(deleted.len(), table.len().div_ceil(64));
        let model = CompiledRqRmi::new(&reference);
        Self { core: Arc::new(ISetCore { model, reference, table }), deleted }
    }

    /// Field this iSet does not overlap in.
    pub fn dim(&self) -> usize {
        self.core.table.dim()
    }

    /// Number of rules in the iSet.
    pub fn len(&self) -> usize {
        self.core.table.len()
    }

    /// True when the iSet holds no rules.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The trained model (diagnostics: error bounds, widths).
    pub fn model(&self) -> &RqRmi {
        &self.core.reference
    }

    /// Phase 1 — RQ-RMI inference: predicted index + error bound for the
    /// key's value in this iSet's field.
    #[inline]
    pub fn predict(&self, key: &[u64]) -> (usize, u32) {
        self.core.model.predict(key[self.dim()])
    }

    /// Phase 2 — secondary search: binary search within
    /// `[pred − err, pred + err]` for the range containing the field value.
    /// Returns the position in the iSet's storage. The `lo` check reads the
    /// position's record, which [`TrainedISet::validate`] then finds hot.
    #[inline]
    pub fn search(&self, pred: usize, err: u32, key: &[u64]) -> Option<usize> {
        with_table!(&self.core.table, t => {
            if t.his.is_empty() {
                // An iSet emptied by updates has nothing to search.
                return None;
            }
            let pos = t.window_pos(pred, err, key[t.dim]);
            Packed::holds(t.record(pos), t.dim, key[t.dim]).then_some(pos)
        })
    }

    /// Phase 3 — multi-field validation (§3.6): checks the tombstone and
    /// the candidate rule's box on every field of the schema, and returns
    /// the match on success.
    #[inline]
    pub fn validate(&self, pos: usize, key: &[u64]) -> Option<MatchResult> {
        with_table!(&self.core.table, t => {
            let rec = t.record(pos);
            (!self.is_deleted(pos) & t.contains(rec, key)).then(|| {
                let c = t.candidate(rec);
                MatchResult::new(c as RuleId, (c >> 32) as Priority)
            })
        })
    }

    /// Full iSet lookup: predict → search → validate.
    #[inline]
    pub fn lookup(&self, key: &[u64]) -> Option<MatchResult> {
        let (pred, err) = self.predict(key);
        let pos = self.search(pred, err, key)?;
        self.validate(pos, key)
    }

    /// Batched iSet lookup over a flat key buffer: §4's three lookup phases
    /// run batch-wide instead of packet-wide, 64 keys at a time — predict
    /// ([`CompiledRqRmi::predict_batch`], all 64 keys one model stage at a
    /// time), prefetch every search window, search (prefetching the record
    /// each search lands on), then validate + merge from the record without
    /// a branch.
    ///
    /// `best[i]` holds key `i`'s best candidate so far as
    /// `priority << 32 | id` (`u64::MAX` before any) and is merged with
    /// `min`, so callers chain iSets by passing the same buffers. Bit
    /// `i % 64` of `found[i / 64]` is set once key `i` has a candidate at
    /// all — a rule at `(Priority::MAX, RuleId::MAX)` packs to `u64::MAX`
    /// too, and the bit is what tells it from "none". Results equal per-key
    /// [`TrainedISet::lookup`] merges (see `rqrmi::simd` docs for why the
    /// batch kernels cannot change search outcomes). The caller,
    /// [`NuevoMatch::classify_isets_batch`], has checked the lengths.
    fn lookup_batch(&self, keys: &[u64], stride: usize, best: &mut [u64], found: &mut [u64]) {
        if self.is_empty() {
            return;
        }
        let (model, deleted) = (&self.core.model, &self.deleted[..]);
        // nm-lint: hotpath
        with_table!(&self.core.table, t => {
            let chunks = keys.chunks(CHUNK * stride).zip(best.chunks_mut(CHUNK));
            for ((keys, best), found) in chunks.zip(found) {
                *found |= t.lookup_chunk(model, deleted, keys, stride, best);
            }
        });
        // nm-lint: end-hotpath
    }

    /// Index memory: the RQ-RMI weights (the search array, records and
    /// tombstones are rule storage, which the paper's footprint excludes —
    /// §5.2.1).
    pub fn memory_bytes(&self) -> usize {
        self.core.reference.memory_bytes()
    }

    /// Marks the rule at `pos` deleted (updates, §3.9).
    pub(crate) fn tombstone(&mut self, pos: usize) {
        self.deleted[pos / 64] |= 1 << (pos % 64);
    }

    /// True when the rule at `pos` has been tombstoned.
    #[inline(always)]
    pub(crate) fn is_deleted(&self, pos: usize) -> bool {
        bit(&self.deleted, pos)
    }

    /// Number of tombstoned positions — this iSet's share of the §3.9 drift.
    pub fn tombstones(&self) -> usize {
        self.deleted.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// What [`TrainedISet::from_parts`] takes (snapshot persistence).
    pub(crate) fn parts(&self) -> (&RqRmi, &Table, &[u64]) {
        (&self.core.reference, &self.core.table, &self.deleted)
    }

    /// The live (non-tombstoned) positions, in order.
    fn live_positions(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).filter(|&pos| !self.is_deleted(pos))
    }

    /// The sorted `dim` projection of the live (non-tombstoned) positions —
    /// the occupied intervals a partial retrain admits candidates against.
    /// Reads the records directly; no per-position `Rule` is built.
    pub(crate) fn live_projection(&self) -> (Vec<u64>, Vec<u64>) {
        self.live_positions().map(|pos| self.core.table.range(pos)).map(|r| (r.lo, r.hi)).unzip()
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
        let mut counts = vec![0u32; self.core.reference.leaf_error_bounds().len()];
        for pos in (0..self.len()).filter(|&pos| self.is_deleted(pos)) {
            counts[self.core.reference.route(self.core.table.range(pos).lo)] += 1;
        }
        counts
    }

    /// Incremental (partial) retrain of this one iSet — the §3.9
    /// refinement's structural half: compacts the tombstoned positions out
    /// of the rule storage, splices in `admitted` rules (their `dim`
    /// projections must not overlap the survivors or each other — see
    /// [`crate::iset::admit_into_iset`]), and patches the RQ-RMI **leaf
    /// stage only** through [`crate::rqrmi::retrain_leaves`], keeping every
    /// internal submodel and the compiled routing bit-identical.
    ///
    /// Errors propagate `retrain_leaves`'s gates (empty result, drift too
    /// broad for `max_refit_fraction`) and an admitted rule that does not
    /// fit the schema; callers fall back to a full rebuild.
    pub(crate) fn partial_retrain(
        &self,
        admitted: &[Rule],
        params: &crate::config::RqRmiParams,
        max_refit_fraction: f64,
    ) -> Result<(Self, crate::rqrmi::LeafRetrainStats), Error> {
        let old = &self.core.table;
        let dim = old.dim();
        let n_new = self.live_len() + admitted.len();
        if n_new == 0 {
            return Err(Error::Build {
                msg: "partial_retrain: iSet emptied by updates (drop it instead)".into(),
            });
        }
        // Merge survivors and admitted rules in lo order (survivors already
        // are; the admitted side is sorted here), record by record.
        let mut extra: Vec<&Rule> = admitted.iter().collect();
        extra.sort_unstable_by_key(|r| r.fields[dim].lo);
        let table = with_table!(old, t => {
            let mut fresh = Packed::new(dim, t.nfields, n_new);
            let mut extra = extra.into_iter().peekable();
            for pos in self.live_positions() {
                let rec = t.record(pos);
                while let Some(r) = extra.next_if(|r| r.fields[dim].lo < wide(rec[2 * dim])) {
                    fresh.push_rule(r)?;
                }
                fresh.push_record(rec);
            }
            extra.try_for_each(|r| fresh.push_rule(r))?;
            Word::table(fresh)
        });
        debug_assert_eq!(table.len(), n_new);

        let ranges = |t: &Table| (0..t.len()).map(|pos| t.range(pos)).collect::<Vec<_>>();
        let new_ranges = ranges(&table);
        let (model, stats) = crate::rqrmi::retrain_leaves(
            &self.core.reference,
            &ranges(old),
            &new_ranges,
            params,
            max_refit_fraction,
        )?;
        // Belt and braces on top of the analytic bounds: the patched model
        // must place every surviving range boundary within its search
        // window, or the partial path refuses and the caller rebuilds.
        // `predict_batch` equals `predict` bit for bit, so this covers the
        // batched data plane's walk too.
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
        Ok((Self::from_parts(model, table, vec![0; n_new.div_ceil(64)]), stats))
    }

    /// Rule id at a position (updates bookkeeping; positions are sorted by
    /// the iSet field's lower bound, so neighbouring positions are
    /// neighbouring key ranges — benches use this to build concentrated
    /// drift workloads).
    pub fn rule_id_at(&self, pos: usize) -> RuleId {
        self.core.table.word(pos, 2 * self.core.table.nfields()) as RuleId
    }

    /// Reconstructs the full rule stored at `pos` from its record (snapshot
    /// persistence and control-plane rule exports).
    pub fn rule_at(&self, pos: usize) -> Rule {
        let t = &self.core.table;
        let nf = t.nfields();
        let fields = (0..nf)
            .map(|d| nm_common::FieldRange::new(t.word(pos, 2 * d), t.word(pos, 2 * d + 1)))
            .collect();
        Rule::new(self.rule_id_at(pos), t.word(pos, 2 * nf + 1) as Priority, fields)
    }
}

/// The NuevoMatch classifier: iSets + a remainder engine `R`.
///
/// `R` is any [`Classifier`]; the paper evaluates TupleMerge, CutSplit and
/// NeuroCuts remainders. Build with [`NuevoMatch::build`], passing any
/// `Fn(&RuleSet) -> R` (such as `TupleMerge::build`) as the remainder
/// builder.
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
    /// Rules currently served — live iSet rules plus the remainder's. Every
    /// applied batch moves it ([`Classifier::num_rules`]).
    total_rules: usize,
    /// Schema of the rule-set this classifier was built over.
    spec: FieldsSpec,
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
    ///
    /// The remainder builds beside the iSets' training, on the cores the
    /// machine has; the result is the same on one. A panic in either comes
    /// out of this call with its own payload.
    pub fn build(
        set: &RuleSet,
        cfg: &NuevoMatchConfig,
        remainder_builder: impl Fn(&RuleSet) -> R + Sync,
    ) -> Result<Self, Error> {
        let partition = partition_isets(set, cfg.max_isets, cfg.min_iset_coverage);
        let (remainder, isets) = par::join(
            || remainder_builder(&set.subset(&partition.remainder)),
            || par::map(&partition.isets, |iset| TrainedISet::build(set, iset, cfg)),
        );
        let isets = isets.into_iter().collect::<Result<_, _>>()?;
        Ok(Self::assemble(isets, remainder, cfg.early_termination, set.spec().clone()))
    }

    /// Final assembly shared by [`NuevoMatch::build`], the partial retrain
    /// and snapshot restore: derives the routing map and the live rule count
    /// from the parts.
    pub(crate) fn assemble(
        isets: Vec<TrainedISet>,
        remainder: R,
        early_termination: bool,
        spec: FieldsSpec,
    ) -> Self {
        let total_rules =
            isets.iter().map(TrainedISet::live_len).sum::<usize>() + remainder.num_rules();
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

    /// Mutable remainder engine (update path; crate-private because
    /// [`NuevoMatch::apply`] must see every rule change to keep the live
    /// count right).
    pub(crate) fn remainder_mut(&mut self) -> &mut R {
        &mut self.remainder
    }

    /// Fraction of the live rules ([`Classifier::num_rules`]) the iSets
    /// serve — the complement of [`NuevoMatch::remainder_fraction`]. On a
    /// fresh build this is the partition's coverage; it falls as updates
    /// drift rules to the remainder and a retrain restores it.
    pub fn coverage(&self) -> f64 {
        if self.total_rules == 0 {
            return 0.0;
        }
        (self.total_rules - self.remainder.num_rules()) as f64 / self.total_rules as f64
    }

    /// Best candidate across the iSets only: the iSet side of a batch too
    /// short for the pipeline (one key included), also timed on its own by
    /// `nm-bench fields` (§5.3.5) and by the benchmark's scalar probes.
    #[inline]
    pub fn classify_isets(&self, key: &[u64]) -> Option<MatchResult> {
        let mut best = None;
        for iset in &self.isets {
            best = MatchResult::better(best, iset.lookup(key));
        }
        best
    }

    /// Runs the remainder engine over the batch, `N` keys per call, and
    /// merges its verdicts into the iSets' candidates in `out`. With early
    /// termination each key's remainder floor is one past its candidate's
    /// priority (a tie is kept, for `better` to settle by id; `MAX` = no
    /// candidate, and a candidate at `MAX` saturates into the same "prune
    /// nothing"), folded with the caller's floor.
    fn merge_remainder<const N: usize>(
        &self,
        keys: &[u64],
        stride: usize,
        caller_floors: Option<&[Priority]>,
        out: &mut [Option<MatchResult>],
    ) {
        let mut rem = [None; N];
        let mut floors = [Priority::MAX; N];
        for (c, (keys, out)) in keys.chunks(N * stride).zip(out.chunks_mut(N)).enumerate() {
            let (rem, floors) = (&mut rem[..out.len()], &mut floors[..out.len()]);
            if self.early_termination {
                for (i, floor) in floors.iter_mut().enumerate() {
                    let cand = out[i].map_or(Priority::MAX, |b| b.priority.saturating_add(1));
                    *floor = cand.min(caller_floors.map_or(Priority::MAX, |f| f[c * N + i]));
                }
                self.remainder.batch_lookup(keys, stride, Some(floors), rem);
            } else {
                self.remainder.batch_lookup(keys, stride, None, rem);
            }
            for (o, &r) in out.iter_mut().zip(rem.iter()) {
                *o = MatchResult::better(*o, r);
            }
        }
    }

    /// Batched [`NuevoMatch::classify_isets`]: 128 keys at a time, every
    /// iSet's phase pipeline sweeps the chunk (its model and storage stay
    /// hot across the packets) and folds its candidates into one packed
    /// buffer; the merged iSet-side candidates are unpacked into `out` once
    /// per chunk. A batch of fewer than 8 keys (a wire flush of one or two)
    /// has no 8-lane group to fill and takes the per-key path. The
    /// two-worker split sends this to the iSet worker.
    pub fn classify_isets_batch(
        &self,
        keys: &[u64],
        stride: usize,
        out: &mut [Option<MatchResult>],
    ) {
        // Keys whose candidates are merged before unpacking: two passes of
        // `Packed::lookup_chunk`.
        const SWEEP: usize = 2 * CHUNK;
        assert!(stride > 0, "classify_isets_batch: stride must be positive");
        assert_eq!(
            keys.len(),
            stride * out.len(),
            "classify_isets_batch: key buffer length mismatch"
        );
        if out.len() < 8 {
            for (key, o) in keys.chunks_exact(stride).zip(out) {
                *o = self.classify_isets(key);
            }
            return;
        }
        for (keys, out) in keys.chunks(SWEEP * stride).zip(out.chunks_mut(SWEEP)) {
            let mut best = [u64::MAX; SWEEP];
            let mut found = [0u64; SWEEP / CHUNK];
            let (best, found) = (&mut best[..out.len()], &mut found[..out.len().div_ceil(CHUNK)]);
            for iset in &self.isets {
                iset.lookup_batch(keys, stride, best, found);
            }
            for (i, o) in out.iter_mut().enumerate() {
                *o = bit(found, i)
                    .then(|| MatchResult::new(best[i] as RuleId, (best[i] >> 32) as Priority));
            }
        }
    }
}

impl<R: Classifier> Classifier for NuevoMatch<R> {
    /// The batched pipeline: all iSets sweep the batch first
    /// ([`NuevoMatch::classify_isets_batch`]), then the remainder runs with
    /// **batch-wide early termination** — every key that already holds an
    /// iSet candidate hands the remainder its priority floor, so the
    /// remainder prunes what cannot even tie it. Caller floors are folded
    /// into the remainder's pruning floors and applied as a final filter;
    /// the fold can only suppress remainder candidates the filter would
    /// discard. A batch too short for the iSets' 8-lane groups uses an
    /// 8-key remainder scratch, so one key does not clear 128 slots.
    fn batch_lookup(
        &self,
        keys: &[u64],
        stride: usize,
        floors: Option<&[Priority]>,
        out: &mut [Option<MatchResult>],
    ) {
        self.classify_isets_batch(keys, stride, out);
        if out.len() < 8 {
            self.merge_remainder::<8>(keys, stride, floors, out);
        } else {
            self.merge_remainder::<128>(keys, stride, floors, out);
        }
        apply_floors(floors, out);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RqRmiParams;
    use nm_common::{FieldRange, FieldsSpec, FiveTuple, LinearSearch};

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
    fn a_panicking_remainder_builder_panics_out_of_build_with_its_message() {
        let set = port_set(500);
        let builder = |rem: &RuleSet| -> LinearSearch {
            panic!("remainder builder refused {} rules", rem.len());
        };
        let payload = std::panic::catch_unwind(|| NuevoMatch::build(&set, &fast_cfg(), builder))
            .err()
            .expect("the builder's panic comes out of build");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("remainder builder refused 0 rules")
        );
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
    fn priority_max_rule_with_the_largest_id_is_a_candidate_not_none() {
        use nm_common::Classifier as _;
        // The iSet rule at `(Priority::MAX, RuleId::MAX)` packs to the very
        // `u64::MAX` the batched merge starts from; the found-bit has to
        // tell it from "no candidate". Rule 5 (remainder: it spans two of
        // the iSet's port ranges) shares its priority and has the smaller
        // id, so it wins the tie on the keys it matches (source port 9, up
        // to port 3_060) and the iSet rule is the verdict on the rest.
        let mut rules = vec![FiveTuple::new()
            .dst_port_range(2_950, 3_060)
            .src_port_exact(9)
            .into_rule(5, Priority::MAX)];
        for i in 0..60u16 {
            let (id, pri) =
                if i == 30 { (RuleId::MAX, Priority::MAX) } else { (100 + i as u32, 1) };
            rules.push(FiveTuple::new().dst_port_range(i * 100, i * 100 + 99).into_rule(id, pri));
        }
        let set = RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap();
        let cfg = NuevoMatchConfig { max_isets: 1, min_iset_coverage: 0.0, ..fast_cfg() };
        let nm = NuevoMatch::build(&set, &cfg, LinearSearch::build).unwrap();
        assert_eq!(nm.remainder().num_rules(), 1, "rule 5 must be the remainder");
        let oracle = LinearSearch::build(&set);
        let keys: Vec<u64> = (0..64u64).flat_map(|i| [1, 2, 9 * (i % 2), 3_000 + i, 6]).collect();
        let (mut out, mut isets) = (vec![None; 64], vec![None; 64]);
        nm.classify_batch(&keys, 5, &mut out);
        nm.classify_isets_batch(&keys, 5, &mut isets);
        let own = Some(MatchResult::new(RuleId::MAX, Priority::MAX));
        for (i, key) in keys.chunks_exact(5).enumerate() {
            let want = oracle.classify(key);
            assert_eq!(
                want.map(|m| m.rule),
                Some(if i % 2 == 1 && i <= 60 { 5 } else { RuleId::MAX })
            );
            assert_eq!(nm.classify(key), want, "per-key, key {i}");
            assert_eq!(out[i], want, "batched, key {i}");
            assert_eq!(nm.classify_isets(key), own, "iSet side per-key, key {i}");
            assert_eq!(isets[i], own, "iSet side batched, key {i}");
        }
    }

    #[test]
    fn records_are_line_aligned_and_never_straddle() {
        fn check<W: Word>(t: &Packed<W>, want_slot_bytes: usize) {
            let slot = t.stride * std::mem::size_of::<W>();
            assert_eq!(slot, want_slot_bytes);
            assert_eq!(t.record(0).as_ptr() as usize % 64, 0, "records start on a line");
            for pos in 0..t.his.len() {
                let addr = t.record(pos).as_ptr() as usize;
                if slot <= 64 {
                    assert!(addr % 64 + slot <= 64, "record {pos} straddles a line");
                } else {
                    assert_eq!(addr % 64, 0, "record {pos} is not whole lines");
                }
            }
        }
        // (field widths, expected slot bytes): FIB 16 B, 5-tuple 64 B, a
        // 40-bit field (u64 words) 32 B, 5 wide fields 2 whole lines.
        for (bits, slot) in
            [(vec![32], 16), (vec![32, 32, 16, 16, 8], 64), (vec![40], 32), (vec![40; 5], 128)]
        {
            let spec =
                FieldsSpec::new(bits.iter().map(|&b| nm_common::FieldSpec::new("f", b)).collect());
            let rows =
                (0..37u64).map(|i| vec![FieldRange::new(i * 6, i * 6 + 3); bits.len()]).collect();
            let set = RuleSet::from_ranges(spec, rows).unwrap();
            let nm = NuevoMatch::build(&set, &fast_cfg(), LinearSearch::build).unwrap();
            assert_eq!(nm.isets()[0].len(), 37);
            with_table!(nm.isets()[0].parts().1, t => check(t, slot));
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
