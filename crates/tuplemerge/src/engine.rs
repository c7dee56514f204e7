//! The TupleMerge / Tuple Space Search engines.
//!
//! One flat representation (crate docs: "Layout") is both what
//! [`BatchUpdatable::apply`] mutates and what lookups read; nothing is
//! allocated per rule, so `Clone` — one per copy-on-write apply in the
//! layers above — copies a few arrays per table.
//!
//! **Lookup.** A key first reads the table filter ([`crate::filter`]): one
//! row per address field, indexed by the field's top 12 bits and ANDed,
//! names the tables that file a rule whose range reaches the key's rows;
//! the rest are skipped unhashed.
//! The named tables are probed in ascending `best_priority` order. Per table
//! the key hashes its non-wildcard fields and tests its slot with one load —
//! empty test, early-exit test and *per-slot* floor test at once; only a
//! slot that passes has its sorted run walked, and the walk stops at the
//! first entry the key's bound rules out, before any rule is touched. A key
//! leaves the probe at the first table whose `best_priority` — conservative,
//! where slot bests are exact — cannot beat or tie its bound. A batch turns
//! this table-major: each key's candidate tables are scattered into
//! per-table key lists once per 128 keys, and each table hashes, slot-tests
//! and scans only its own list.
//!
//! **Filter upkeep.** A table lays its column when it files its first rule
//! (so does a table `split` re-lays), an insert sets the rows its range
//! reaches per address field and a removal leaves its bits: a superset stays
//! exact. Once removals since the last recompute exceed a quarter of the
//! live rules, the batch that crossed the line rebuilds the filter from the
//! filed rules and makes every table's `best_priority` exact — an emptied
//! table then has an empty column and is never hashed again. Only the first
//! 64 tables have bits; a table past them is probed by every key.
//!
//! **Ties.** Candidates compare as `(priority, id)`, so among equal
//! priorities the smaller id wins whichever table holds it — the verdict of
//! [`nm_common::LinearSearch`] and of `MatchResult::better`.

use crate::filter::{Filter, FILTERED};
use crate::rules::Rules;
use crate::table::{Table, EMPTY};
use crate::tuple::Tuple;
use nm_common::classifier::{Classifier, MatchResult};
use nm_common::memsize;
use nm_common::rule::{Priority, Rule, RuleId};
use nm_common::ruleset::{FieldsSpec, RuleSet};
use nm_common::update::{BatchUpdatable, UpdateBatch, UpdateReport};
use std::collections::HashMap;

/// TupleMerge parameters: the default is TupleMerge, [`TupleSpaceSearch`]
/// the one other setting outside tests.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TupleMergeConfig {
    /// Maximum bucket size before a table splits (paper: 40, §5.1).
    pub(crate) collision_limit: usize,
    /// Relax natural tuples so related tuples share tables (TupleMerge).
    /// `false` gives classic Tuple Space Search.
    pub(crate) relax: bool,
}

impl Default for TupleMergeConfig {
    fn default() -> Self {
        Self { collision_limit: 40, relax: true }
    }
}

/// Hash-based classifier with tuple merging and online updates (via
/// [`BatchUpdatable`]; `Clone` supports copy-on-write snapshot pipelines).
#[derive(Clone)]
pub struct TupleMerge {
    spec: FieldsSpec,
    cfg: TupleMergeConfig,
    tables: Vec<Table>,
    /// Table indices sorted by `best_priority` — the probe order that makes
    /// early exit effective. Re-sorted once per batch, when `order_stale`.
    order: Vec<u32>,
    order_stale: bool,
    filter: Filter,
    /// Removals since the filter was last recomputed (their bits are stale).
    removed: usize,
    rules: Rules,
    by_id: HashMap<RuleId, u32>,
    name: &'static str,
}

/// What a candidate must beat for one key: its `(priority, id)`, packed as
/// `priority << 32 | id`, may be at most `bound`; `lim` is the same limit as
/// an exclusive priority, for slot and table bests (`0`: nothing qualifies).
#[derive(Clone, Copy)]
struct Cut {
    bound: u64,
    lim: Priority,
}

impl Cut {
    /// No floor and no candidate yet: everything qualifies.
    const OPEN: Cut = Cut { bound: u64::MAX, lim: EMPTY };

    /// Only priorities strictly below `floor` qualify, except that
    /// `Priority::MAX` means no floor (the batch convention).
    fn for_floor(floor: Priority) -> Cut {
        match floor {
            Priority::MAX => Cut::OPEN,
            0 => Cut { bound: 0, lim: 0 },
            _ => Cut { bound: ((floor - 1) as u64) << 32 | u32::MAX as u64, lim: floor },
        }
    }

    /// Only candidates strictly better than `m` qualify — an equal priority
    /// with a smaller id included, so `lim` admits `m`'s priority.
    fn beating(m: MatchResult) -> Cut {
        let bound = ((m.priority as u64) << 32 | m.rule as u64).saturating_sub(1);
        Cut { bound, lim: ((bound >> 32) as Priority).saturating_add(1) }
    }
}

impl TupleMerge {
    /// Builds a TupleMerge classifier over a rule-set.
    pub fn build(set: &RuleSet) -> Self {
        Self::with_config(set, TupleMergeConfig::default())
    }

    /// Builds with explicit parameters.
    pub(crate) fn with_config(set: &RuleSet, cfg: TupleMergeConfig) -> Self {
        let mut tm = Self {
            spec: set.spec().clone(),
            cfg,
            tables: Vec::new(),
            order: Vec::new(),
            order_stale: false,
            filter: Filter::new(set.spec()),
            removed: 0,
            rules: Rules::new(set.spec().len(), set.len()),
            by_id: HashMap::with_capacity(set.len()),
            name: if cfg.relax { "tm" } else { "tss" },
        };
        for rule in set.rules() {
            tm.insert_rule(rule);
        }
        tm.resort_order();
        tm
    }

    /// Number of tuple tables currently allocated (Figure 11 diagnostics —
    /// more tables means more probes per lookup).
    pub fn num_tables(&self) -> usize {
        self.tables.iter().filter(|t| !t.is_empty()).count()
    }

    /// Largest bucket across tables (collision-limit verification).
    pub fn max_bucket(&self) -> usize {
        self.tables.iter().map(Table::max_bucket).max().unwrap_or(0)
    }

    /// Picks the finest existing table the rule fits in (the earliest of
    /// equally fine ones), if any.
    fn find_table(&self, natural: &Tuple) -> Option<usize> {
        let fits = self.tables.iter().enumerate().filter(|(_, t)| natural.fits_in(&t.lens));
        fits.rev().max_by_key(|(_, t)| t.fineness).map(|(i, _)| i)
    }

    /// Brings `order` back in line with the tables' `best_priority`s; runs
    /// once per build or batch, and only if one of them moved.
    fn resort_order(&mut self) {
        if std::mem::take(&mut self.order_stale) {
            self.order = (0..self.tables.len() as u32).collect();
            let tables = &self.tables;
            self.order.sort_by_key(|&i| tables[i as usize].best_priority);
        }
    }

    /// Rebuilds the filter from the filed rules, dropping the bits removals
    /// left behind, and makes every `best_priority` exact — once removals
    /// since the last time exceed a quarter of the live rules, so a rule
    /// pays for a constant share of a pass.
    fn refilter_if_stale(&mut self) {
        if self.removed * 4 <= self.by_id.len() {
            return;
        }
        self.removed = 0;
        self.filter.clear();
        for (t, table) in self.tables.iter_mut().enumerate() {
            let before = table.best_priority;
            table.tighten();
            self.order_stale |= table.best_priority != before;
            if !table.is_empty() {
                self.filter.lay_column(t, &table.lens);
            }
            for m in table.members() {
                self.filter.add(t, &table.lens, self.rules.bounds(m));
            }
        }
    }

    /// Files a stored rule in the finest table it fits (a fresh one under
    /// its own relaxed tuple if none does), splitting the table if
    /// `may_split` and its bucket overflows.
    fn file(&mut self, idx: u32, may_split: bool) {
        let natural = Tuple::natural_of_bounds(self.rules.bounds(idx), &self.spec);
        let ti = self.find_table(&natural).unwrap_or_else(|| {
            let lens = if self.cfg.relax { natural.relaxed(&self.spec) } else { natural };
            self.tables.push(Table::new(lens, &self.spec));
            self.order_stale = true;
            self.tables.len() - 1
        });
        self.rules.set_home(idx, ti as u32);
        let table = &mut self.tables[ti];
        if table.is_empty() {
            self.filter.lay_column(ti, &table.lens);
        }
        self.filter.add(ti, &table.lens, self.rules.bounds(idx));
        let before = table.best_priority;
        let bucket_len = table.insert(idx, &self.rules);
        self.order_stale |= table.best_priority != before;
        if may_split && bucket_len > self.cfg.collision_limit {
            self.split(ti);
        }
    }

    /// Splits an overflowing table: refine the field where the most members
    /// have headroom (their natural lengths allow a longer mask) and re-file
    /// every rule. Rules are re-filed through the normal path, so they land
    /// in the refined table when they fit and in coarser tables (or a fresh
    /// one matching their own relaxed tuple) otherwise.
    ///
    /// The refinement step is the smallest *positive* headroom among the
    /// members that can refine at all — a single mask-exact rule in a mixed
    /// bucket must not veto the split (it simply stays behind in a coarser
    /// table). Min-over-everyone here made table formation brutally
    /// insertion-order-sensitive: one early coarse rule could pin thousands
    /// of later, finer rules into an unsplittable bucket, which is exactly
    /// what control-plane retrains (which re-file the whole rule list) ran
    /// into.
    fn split(&mut self, table_idx: usize) {
        let mut lens = self.tables[table_idx].lens.clone();
        let members = self.tables[table_idx].members();
        // Per-field: how many members could accept a longer mask, and the
        // smallest positive headroom among them.
        let nf = lens.0.len();
        let mut refinable = vec![0usize; nf];
        let mut step = vec![u8::MAX; nf];
        for &m in &members {
            let nat = Tuple::natural_of_bounds(self.rules.bounds(m), &self.spec);
            for d in 0..nf {
                let hr = nat.0[d].saturating_sub(lens.0[d]);
                if hr > 0 {
                    refinable[d] += 1;
                    step[d] = step[d].min(hr);
                }
            }
        }
        let best_dim = (0..nf).max_by_key(|&d| refinable[d]).unwrap_or(0);
        if refinable[best_dim] == 0 {
            // Nothing to refine (identical natural tuples): accept the long
            // bucket — correctness is unaffected, the scan just costs more.
            return;
        }
        lens.0[best_dim] += step[best_dim].clamp(1, 4);
        self.tables[table_idx] = Table::new(lens, &self.spec);
        self.order_stale = true;
        for m in members {
            // One refinement round per overflow keeps splits terminating; if
            // a bucket still exceeds the limit the next insert refines again.
            self.file(m, false);
        }
    }

    /// The best rule in slot `s`'s run that matches `key` and is within
    /// `bound`. Runs are sorted, so that is the first match, and the walk
    /// ends at the first entry `bound` rules out.
    #[inline]
    fn scan(
        &self,
        table: &Table,
        s: usize,
        key: &[u64],
        bound: u64,
        tally: &mut impl Tally,
    ) -> Option<MatchResult> {
        let (max_priority, max_id) = ((bound >> 32) as Priority, bound as RuleId);
        for e in table.run(s) {
            tally.add(|t| &mut t.entries_walked);
            if e.priority > max_priority {
                break;
            }
            tally.add(|t| &mut t.box_checks);
            if self.rules.matches(e.rule, key) {
                let id = self.rules.id(e.rule);
                // Same priority as the bound: only a smaller id qualifies,
                // and later entries only have larger ones.
                return (e.priority < max_priority || id <= max_id)
                    .then_some(MatchResult::new(id, e.priority));
            }
        }
        None
    }

    /// Per-key probe: every table the filter names that can still beat or
    /// tie `cut`. Lookups pass `()` for `tally`, which compiles away.
    #[inline]
    fn probe(&self, key: &[u64], mut cut: Cut, tally: &mut impl Tally) -> Option<MatchResult> {
        let cand = self.filter.candidates(key);
        let mut best = None;
        // Tables hashed so far, and how many had been when `best` was found.
        let (mut hashed, mut won_at) = (0, 0);
        for &ti in &self.order {
            let table = &self.tables[ti as usize];
            if table.best_priority >= cut.lim {
                break; // sorted order: no remaining table can qualify either
            }
            tally.add(|t| &mut t.passed_floor);
            if (ti as usize) < FILTERED && cand >> ti & 1 == 0 {
                continue;
            }
            tally.add(|t| &mut t.admitted);
            hashed += 1;
            let (s, key_bit) = table.place(table.hash(|d| key[d]));
            if table.may_hold(s, key_bit, cut.lim) {
                tally.add(|t| &mut t.slot_hits);
                if let Some(m) = self.scan(table, s, key, cut.bound, tally) {
                    tally.add(|t| &mut t.wins);
                    (best, won_at) = (Some(m), hashed);
                    cut = Cut::beating(m);
                }
            }
        }
        if best.is_some() {
            tally.add(|t| match won_at {
                1 => &mut t.won_in_first,
                2 => &mut t.won_in_second,
                _ => &mut t.won_in_later,
            });
        }
        best
    }

    /// What the per-key probe does on `keys` (flat, `stride` words each,
    /// `floors[i]` as in [`Classifier::classify_batch_with_floors`]), summed
    /// over the keys — the ledger rows of `nm-bench batch`, and the only way
    /// to see a filter that has stopped pruning: one that admits every table
    /// still returns every verdict.
    pub fn probe_tally(
        &self,
        keys: &[u64],
        stride: usize,
        floors: Option<&[Priority]>,
    ) -> ProbeTally {
        let mut tally = ProbeTally { tables: self.tables.len() as u64, ..Default::default() };
        for (i, key) in keys.chunks_exact(stride).enumerate() {
            self.probe(key, floors.map_or(Cut::OPEN, |f| Cut::for_floor(f[i])), &mut tally);
        }
        tally
    }

    /// Table-major batched probe — the batch form of [`TupleMerge::probe`],
    /// with per-key results identical to it: the loop interchange never
    /// reorders work *within* a key, and each key keeps its own [`Cut`].
    ///
    /// Per 128 keys, each key's candidate tables go into per-table key
    /// lists. Then per table, in probe order, the listed keys are hashed
    /// field-major, one branch-free sweep tests each key's slot (the slot
    /// test subsumes the key's limit test: a slot's best is never below its
    /// table's) and appends the survivors — a few percent of the probes — to
    /// a hit list; only those walk runs and touch rules. The walk ends at
    /// the first table whose `best_priority` no key of the chunk came in
    /// able to use (tables come sorted).
    fn probe_batch(
        &self,
        keys: &[u64],
        stride: usize,
        floors: Option<&[Priority]>,
        out: &mut [Option<MatchResult>],
    ) {
        const CHUNK: usize = 128;
        let filtered = self.tables.len().min(FILTERED);
        // nm-lint: hotpath
        // Per filtered table, the keys of the chunk that name it: `fill[t]`
        // of them in `lists[t]`. `every` lists them all, for a table past
        // the filter.
        let mut lists = [[0u8; CHUNK]; FILTERED];
        let mut fill = [0u8; FILTERED];
        let every: [u8; CHUNK] = std::array::from_fn(|i| i as u8);
        for (c, out) in out.chunks_mut(CHUNK).enumerate() {
            let keys = &keys[c * CHUNK * stride..][..out.len() * stride];
            let mut lim = [0 as Priority; CHUNK];
            let mut bound = [0u64; CHUNK];
            let mut hashes = [0u64; CHUNK];
            let mut hits = [(0u8, 0u32); CHUNK];
            let mut max_lim = 0;
            fill[..filtered].fill(0);
            for (i, key) in keys.chunks_exact(stride).enumerate() {
                let cut = floors.map_or(Cut::OPEN, |f| Cut::for_floor(f[c * CHUNK + i]));
                (lim[i], bound[i], out[i]) = (cut.lim, cut.bound, None);
                max_lim = max_lim.max(cut.lim);
                let mut cand = self.filter.candidates(key);
                while cand != 0 {
                    let t = cand.trailing_zeros() as usize;
                    cand &= cand - 1;
                    lists[t][fill[t] as usize] = i as u8;
                    fill[t] += 1;
                }
            }
            for &ti in &self.order {
                let (ti, table) = (ti as usize, &self.tables[ti as usize]);
                if table.best_priority >= max_lim {
                    break;
                }
                let list = if ti < FILTERED {
                    &lists[ti][..fill[ti] as usize]
                } else {
                    &every[..out.len()]
                };
                table.hash_batch(keys, stride, list, &mut hashes);
                let mut nhits = 0;
                for (&i, &hash) in list.iter().zip(&hashes) {
                    let (s, key_bit) = table.place(hash);
                    hits[nhits] = (i, s as u32);
                    nhits += table.may_hold(s, key_bit, lim[i as usize]) as usize;
                }
                for &(i, s) in &hits[..nhits] {
                    let i = i as usize;
                    let key = &keys[i * stride..][..stride];
                    if let Some(m) = self.scan(table, s as usize, key, bound[i], &mut ()) {
                        let cut = Cut::beating(m);
                        (lim[i], bound[i], out[i]) = (cut.lim, cut.bound, Some(m));
                    }
                }
            }
        }
        // nm-lint: end-hotpath
    }
}

/// What [`TupleMerge::probe_tally`] counts, summed over the keys it probed
/// (divide by their number for per-packet figures).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProbeTally {
    /// Tables in the engine, emptied ones included (not a sum).
    pub tables: u64,
    /// Tables a key reached before its bound ended the probe.
    pub passed_floor: u64,
    /// Of those, tables the filter let through: each costs a hash and a
    /// slot load.
    pub admitted: u64,
    /// Slots that could hold the key (its key bit set, best within bound).
    pub slot_hits: u64,
    /// Run entries looked at, the one that ended a walk included.
    pub entries_walked: u64,
    /// Rules whose box was compared with the key.
    pub box_checks: u64,
    /// Walks that found a better match than the key held.
    pub wins: u64,
    /// Keys whose final match came from the first table they hashed.
    pub won_in_first: u64,
    /// … from the second.
    pub won_in_second: u64,
    /// … from a later one.
    pub won_in_later: u64,
}

/// Where a probe reports what it does. Lookups report to `()`, which counts
/// nothing, so the tallied walk and the served one are one function.
trait Tally {
    fn add(&mut self, _counter: impl FnOnce(&mut ProbeTally) -> &mut u64) {}
}

impl Tally for () {}

impl Tally for ProbeTally {
    fn add(&mut self, counter: impl FnOnce(&mut ProbeTally) -> &mut u64) {
        *counter(self) += 1;
    }
}

impl Classifier for TupleMerge {
    fn batch_lookup(
        &self,
        keys: &[u64],
        stride: usize,
        floors: Option<&[Priority]>,
        out: &mut [Option<MatchResult>],
    ) {
        // Below this the sweep's per-chunk scratch costs more than it saves
        // (the serving path flushes 1–2 keys at low load).
        const SMALL_BATCH: usize = 3;
        if out.len() < SMALL_BATCH {
            for (i, key) in keys.chunks_exact(stride).enumerate() {
                let cut = floors.map_or(Cut::OPEN, |f| Cut::for_floor(f[i]));
                out[i] = self.probe(key, cut, &mut ());
            }
        } else {
            self.probe_batch(keys, stride, floors, out);
        }
    }

    /// The lookup-path index — everything a probe walks: the table filter,
    /// per table the slot arrays, the entry arena (with its inlined
    /// priorities) and the hash recipe, plus the probe order. Not the rule arena (boxes, ids,
    /// priorities): that is rule storage, as `ISetCore::boxes` is for an
    /// iSet; nor `by_id`, which is update bookkeeping.
    fn memory_bytes(&self) -> usize {
        self.tables.iter().map(Table::memory_bytes).sum::<usize>()
            + memsize::vec_bytes(&self.order)
            + self.filter.memory_bytes()
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn num_rules(&self) -> usize {
        self.by_id.len()
    }
}

impl BatchUpdatable for TupleMerge {
    fn apply(&mut self, batch: &UpdateBatch) -> UpdateReport {
        let report = nm_common::update::apply_ops(
            self,
            batch,
            |s, rule| s.insert_rule(&rule),
            |s, id| s.remove_rule(id),
        );
        self.refilter_if_stale();
        self.resort_order();
        report
    }

    fn export_rules(&self) -> Vec<Rule> {
        self.rules.export()
    }
}

impl TupleMerge {
    /// Single-rule insert primitive shared by construction and the batch
    /// path. The id must not be live: a `RuleSet`'s ids are unique and `apply_ops` removes first.
    fn insert_rule(&mut self, rule: &Rule) {
        let idx = self.rules.store(rule);
        let stale = self.by_id.insert(rule.id, idx);
        debug_assert!(stale.is_none(), "rule {} inserted over a live version", rule.id);
        self.file(idx, true);
    }

    fn remove_rule(&mut self, id: RuleId) -> bool {
        let Some(idx) = self.by_id.remove(&id) else { return false };
        let table = &mut self.tables[self.rules.home(idx) as usize];
        let before = table.best_priority;
        table.remove(idx, &self.rules);
        self.order_stale |= table.best_priority != before;
        self.rules.release(idx);
        self.removed += 1;
        true
    }
}

#[cfg(test)]
impl TupleMerge {
    /// Checks every table's update-in-place invariants, the probe order and
    /// the rule ↔ table bookkeeping.
    pub(crate) fn assert_invariants(&self) {
        assert!(!self.order_stale);
        let bests: Vec<Priority> =
            self.order.iter().map(|&t| self.tables[t as usize].best_priority).collect();
        assert!(bests.windows(2).all(|w| w[0] <= w[1]), "probe order is not sorted: {bests:?}");
        let mut order = self.order.clone();
        order.sort_unstable();
        assert_eq!(order, (0..self.tables.len() as u32).collect::<Vec<_>>());
        for (t, table) in self.tables.iter().enumerate() {
            table.assert_invariants(&self.rules);
            let members = table.members();
            assert!(members.iter().all(|&m| self.rules.home(m) == t as u32));
            if !table.is_empty() {
                let filed = members.iter().map(|&m| self.rules.bounds(m));
                self.filter.assert_names(t, &table.lens, filed);
            }
        }
        let filed: usize = self.tables.iter().map(|t| t.members().len()).sum();
        assert_eq!(filed, self.by_id.len());
        assert!(self.by_id.iter().all(|(&id, &idx)| self.rules.id(idx) == id));
    }
}

/// Classic Tuple Space Search: one table per natural tuple, no merging.
pub struct TupleSpaceSearch;

impl TupleSpaceSearch {
    /// Builds a TSS classifier (a [`TupleMerge`] with relaxation disabled
    /// and no collision limit).
    pub fn build(set: &RuleSet) -> TupleMerge {
        TupleMerge::with_config(set, TupleMergeConfig { collision_limit: usize::MAX, relax: false })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_common::{FieldRange, FiveTuple, LinearSearch, SplitMix64};

    fn random_set(seed: u64, n: usize) -> RuleSet {
        let mut rng = SplitMix64::new(seed);
        let rules: Vec<Rule> = (0..n)
            .map(|i| {
                let mut ft = FiveTuple::new();
                match rng.below(4) {
                    0 => {
                        ft = ft
                            .src_prefix_raw(rng.next_u64() as u32, 8 + rng.below(25) as u8)
                            .proto_exact(6);
                    }
                    1 => {
                        ft = ft
                            .dst_prefix_raw(rng.next_u64() as u32, 8 + rng.below(25) as u8)
                            .dst_port_exact(rng.below(1024) as u16);
                    }
                    2 => {
                        let lo = rng.below(60_000) as u16;
                        ft = ft.dst_port_range(lo, lo + rng.below(5_000) as u16);
                    }
                    _ => {
                        ft = ft
                            .src_prefix_raw(rng.next_u64() as u32, 16)
                            .dst_prefix_raw(rng.next_u64() as u32, 16);
                    }
                }
                ft.into_rule(i as RuleId, i as Priority)
            })
            .collect();
        RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap()
    }

    fn random_keys(seed: u64, n: usize, set: &RuleSet) -> Vec<[u64; 5]> {
        // Half random, half generated inside random rules so matches happen.
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|i| {
                if i % 2 == 0 || set.is_empty() {
                    [
                        rng.next_u64() & 0xffff_ffff,
                        rng.next_u64() & 0xffff_ffff,
                        rng.below(65_536),
                        rng.below(65_536),
                        rng.below(256),
                    ]
                } else {
                    let rule = set.rule_at(rng.below(set.len() as u64) as usize);
                    let mut k = [0u64; 5];
                    for (d, f) in rule.fields.iter().enumerate() {
                        k[d] = rng.range_inclusive(f.lo, f.hi);
                    }
                    k
                }
            })
            .collect()
    }

    #[test]
    fn agrees_with_linear_search() {
        for seed in [1u64, 2] {
            let set = random_set(seed, 300);
            let tm = TupleMerge::build(&set);
            let tss = TupleSpaceSearch::build(&set);
            let oracle = LinearSearch::build(&set);
            for key in random_keys(seed + 100, 500, &set) {
                let want = oracle.classify(&key);
                assert_eq!(tm.classify(&key), want, "tm diverged on {key:?}");
                assert_eq!(tss.classify(&key), want, "tss diverged on {key:?}");
            }
        }
    }

    #[test]
    fn merging_uses_fewer_tables_than_tss() {
        let set = random_set(7, 500);
        let tm = TupleMerge::build(&set);
        let tss = TupleSpaceSearch::build(&set);
        assert!(
            tm.num_tables() <= tss.num_tables(),
            "tm {} vs tss {}",
            tm.num_tables(),
            tss.num_tables()
        );
    }

    #[test]
    fn collision_limit_triggers_splits() {
        // 300 exact dst-IP rules under /0 would share one bucket without
        // splitting; the limit must refine the table.
        let rules: Vec<Rule> = (0..300u32)
            .map(|i| FiveTuple::new().dst_prefix_raw(0x0a00_0000 | i, 32).into_rule(i, i))
            .collect();
        let set = RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap();
        let tm = TupleMerge::with_config(&set, Default::default());
        assert!(tm.max_bucket() <= 40, "max bucket {}", tm.max_bucket());
        let oracle = LinearSearch::build(&set);
        for i in 0..300u64 {
            let key = [0, 0x0a00_0000 | i, 0, 0, 0];
            assert_eq!(tm.classify(&key), oracle.classify(&key));
        }
    }

    #[test]
    fn floor_prunes_consistently() {
        let set = random_set(3, 200);
        let tm = TupleMerge::build(&set);
        for key in random_keys(33, 300, &set) {
            let full = tm.classify(&key);
            for floor in [0u32, 10, 100, Priority::MAX] {
                let got = tm.classify_with_floor(&key, floor);
                let want = full.filter(|m| m.priority < floor);
                assert_eq!(got, want, "floor {floor} key {key:?}");
            }
        }
    }

    #[test]
    fn updates_match_rebuild() {
        let set = random_set(5, 200);
        let mut tm = TupleMerge::build(&set);
        // One transaction: remove every third rule, add 20 new ones.
        let mut rules: Vec<Rule> = set.rules().to_vec();
        rules.retain(|r| r.id % 3 != 0);
        let mut batch = UpdateBatch::new();
        for id in 0..200u32 {
            if id % 3 == 0 {
                batch = batch.remove(id);
            }
        }
        for i in 0..20u32 {
            let rule =
                FiveTuple::new().dst_port_exact(40_000 + i as u16).into_rule(1_000 + i, 500 + i);
            rules.push(rule.clone());
            batch = batch.insert(rule);
        }
        let report = tm.apply(&batch);
        assert_eq!(report.removed, 67);
        assert_eq!(report.inserted, 20);
        assert_eq!(report.missing, 0);
        let rebuilt = RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap();
        let oracle = LinearSearch::build(&rebuilt);
        for key in random_keys(55, 400, &rebuilt) {
            assert_eq!(tm.classify(&key), oracle.classify(&key), "key {key:?}");
        }
        assert_eq!(tm.num_rules(), rebuilt.len());
        let mut exported = tm.export_rules();
        exported.sort_by_key(|r| r.id);
        assert_eq!(exported.len(), rebuilt.len());
    }

    #[test]
    fn upsert_reports_replaced_and_noop_batches_do_not_bump() {
        let set = random_set(31, 80);
        let mut tm = TupleMerge::build(&set);
        // Re-insert a live id: replacement, not removal.
        let r = tm.apply(&UpdateBatch::new().insert(set.rule_at(5).clone()));
        assert_eq!((r.inserted, r.replaced, r.removed), (1, 1, 0));
        assert_eq!(tm.num_rules(), 80);
        // Only a non-empty batch of pure misses reports no change — the
        // report a handle gates its publish on.
        let r = tm.apply(
            &UpdateBatch::new()
                .remove(9_999)
                .modify(FiveTuple::new().dst_port_exact(1).into_rule(8_888, 0)),
        );
        // The modify inserts its new version even on a miss, so only the
        // pure-remove miss leaves content untouched.
        assert_eq!(r.missing, 2);
        assert!(r.changed(), "modify-of-absent still inserts");
        let r = tm.apply(&UpdateBatch::new().remove(9_999).remove(9_998));
        assert_eq!((r.missing, r.changed()), (2, false));
    }

    #[test]
    fn clone_then_update_leaves_original_untouched() {
        // The copy-on-write property snapshot pipelines rely on.
        let set = random_set(13, 150);
        let tm = TupleMerge::build(&set);
        let mut copy = tm.clone();
        copy.apply(&UpdateBatch::new().remove(0).remove(1).remove(2));
        assert_eq!(tm.num_rules(), 150);
        assert_eq!(copy.num_rules(), 147);
        let oracle = LinearSearch::build(&set);
        for key in random_keys(77, 200, &set) {
            assert_eq!(tm.classify(&key), oracle.classify(&key), "original drifted on {key:?}");
        }
    }

    #[test]
    fn memory_grows_with_rules() {
        let small = TupleMerge::build(&random_set(9, 50));
        let large = TupleMerge::build(&random_set(9, 2_000));
        assert!(large.memory_bytes() > small.memory_bytes());
    }

    #[test]
    fn empty_set_classifies_nothing() {
        let set = RuleSet::new(FieldsSpec::five_tuple(), vec![]).unwrap();
        let tm = TupleMerge::build(&set);
        assert_eq!(tm.classify(&[1, 2, 3, 4, 5]), None);
        assert_eq!(tm.num_rules(), 0);
    }

    #[test]
    fn range_rules_survive_relaxation() {
        // Arbitrary port ranges whose covering prefix is /0 must still match.
        let rules = vec![
            FiveTuple::new().dst_port_range(100, 40_000).into_rule(0, 0),
            FiveTuple::new().dst_port_range(30_000, 65_000).into_rule(1, 1),
        ];
        let set = RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap();
        let tm = TupleMerge::build(&set);
        assert_eq!(tm.classify(&[0, 0, 0, 35_000, 0]).unwrap().rule, 0);
        assert_eq!(tm.classify(&[0, 0, 0, 50_000, 0]).unwrap().rule, 1);
        assert_eq!(tm.classify(&[0, 0, 0, 99, 0]), None);
    }

    /// Per-key and batched verdicts of one key, which must agree.
    fn verdicts(tm: &TupleMerge, key: &[u64; 5]) -> Option<MatchResult> {
        let scalar = tm.classify(key);
        // Four copies reach the table-major sweep, not the small-batch path.
        let mut out = [None; 4];
        tm.classify_batch(&key.repeat(4), 5, &mut out);
        assert_eq!(out, [scalar; 4], "batch diverged from per-key on {key:?}");
        scalar
    }

    #[test]
    fn equal_priorities_resolve_by_id_not_table_order() {
        // Two tables, one priority: the smaller id must win whichever table
        // is probed first (it used to be the earlier table's rule, 5).
        let rules = vec![
            FiveTuple::new().src_prefix([10, 10, 0, 0], 16).into_rule(5, 1),
            FiveTuple::new().dst_prefix([11, 11, 0, 0], 16).into_rule(2, 1),
        ];
        let key = [0x0a0a_0101, 0x0b0b_0101, 7, 7, 6];
        let set = RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap();
        let want = LinearSearch::build(&set).classify(&key);
        assert_eq!(want, Some(MatchResult::new(2, 1)));
        for engine in [TupleMerge::build(&set), TupleSpaceSearch::build(&set)] {
            assert_eq!(verdicts(&engine, &key), want, "{}", engine.name());
            // A floor one past the tie keeps it; a floor at it prunes it.
            assert_eq!(engine.classify_with_floor(&key, 2), want);
            assert_eq!(engine.classify_with_floor(&key, 1), None);
        }
    }

    #[test]
    fn priority_max_rules_are_served() {
        // `Priority::MAX` doubles as the slots' "empty" marker and the batch
        // "no floor" sentinel; a rule that really has it must still match.
        let rules = vec![
            FiveTuple::new().dst_port_exact(80).into_rule(9, Priority::MAX),
            FiveTuple::new().src_prefix([10, 0, 0, 0], 8).into_rule(4, Priority::MAX),
        ];
        let set = RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap();
        let tm = TupleMerge::build(&set);
        assert_eq!(verdicts(&tm, &[1, 2, 3, 80, 6]), Some(MatchResult::new(9, Priority::MAX)));
        assert_eq!(
            verdicts(&tm, &[0x0a00_0001, 2, 3, 80, 6]),
            Some(MatchResult::new(4, Priority::MAX))
        );
        // An explicit floor is strict, so MAX admits everything but MAX.
        assert_eq!(tm.classify_with_floor(&[1, 2, 3, 80, 6], Priority::MAX), None);
    }

    #[test]
    fn bookkeeping_survives_churn() {
        let set = random_set(17, 400);
        let mut tm = TupleMerge::build(&set);
        tm.assert_invariants();
        let mut batch = UpdateBatch::new();
        for id in (0..400u32).step_by(2) {
            batch = batch.remove(id);
        }
        for rule in random_set(18, 300).rules() {
            batch = batch.insert(rule.clone()); // ids 0..300: half upserts
        }
        tm.apply(&batch);
        tm.assert_invariants();
        assert_eq!(tm.num_rules(), 350);
        // Vacated rule indices were reused, not leaked.
        assert!(tm.export_rules().len() == 350 && tm.rules.export().len() == 350);
    }

    /// Checks per-key and batched verdicts on `keys` (flat) against the
    /// oracle over `set`.
    fn assert_serves(tm: &TupleMerge, set: &RuleSet, keys: &[u64]) {
        let stride = set.spec().len();
        let oracle = LinearSearch::build(set);
        let want: Vec<_> = keys.chunks_exact(stride).map(|k| oracle.classify(k)).collect();
        let got: Vec<_> = keys.chunks_exact(stride).map(|k| tm.classify(k)).collect();
        assert_eq!(got, want, "per-key");
        let mut out = vec![None; want.len()];
        tm.classify_batch(keys, stride, &mut out);
        assert_eq!(out, want, "batch");
    }

    /// A point inside every rule of `set` and as many arbitrary keys, flat.
    fn keys_in_and_around(set: &RuleSet, seed: u64) -> Vec<u64> {
        let mut rng = SplitMix64::new(seed);
        let mut keys = Vec::new();
        for rule in set.rules() {
            keys.extend(rule.fields.iter().map(|f| rng.range_inclusive(f.lo, f.hi)));
            keys.extend((0..set.spec().len()).map(|d| rng.below(set.spec().max_value(d)) + 1));
        }
        keys
    }

    #[test]
    fn filter_survives_row_widening_and_tables_past_the_64th() {
        // `span * span` natural (src length, dst length) tuples, finest
        // first so that none fits an earlier one's table, three rules each
        // with varying top bytes: Tuple Space Search opens a table per
        // tuple, so the filter's rows widen at 8, 16, … tables while earlier
        // columns are in use, and at 81 tables 17 lie past the last bit.
        for span in [3u8, 5, 9] {
            let mut rules = Vec::new();
            let lens = (0..span).rev().flat_map(|a| (0..span).rev().map(move |b| (8 + a, 8 + b)));
            for (src_len, dst_len) in lens {
                for i in 0..3u32 {
                    let id = rules.len() as u32;
                    let (src, dst) =
                        (id.wrapping_mul(0x9e37_79b9), (id + i).wrapping_mul(0x85eb_ca6b));
                    let ft =
                        FiveTuple::new().src_prefix_raw(src, src_len).dst_prefix_raw(dst, dst_len);
                    rules.push(ft.into_rule(id, id % 7));
                }
            }
            let set = RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap();
            let tss = TupleSpaceSearch::build(&set);
            assert_eq!(tss.num_tables(), (span as usize).pow(2));
            tss.assert_invariants();
            let keys = keys_in_and_around(&set, span as u64);
            assert_serves(&tss, &set, &keys);
            assert_serves(&TupleMerge::build(&set), &set, &keys);
            // Varying top bytes: the filter turns most tables away, though
            // past the 64th table it has no say.
            let tally = tss.probe_tally(&keys, 5, None);
            assert_eq!(tally.tables, (span as u64).pow(2));
            assert!(tally.admitted * 2 < tally.passed_floor, "{tally:?}");
        }
    }

    #[test]
    fn one_field_and_address_free_schemas_are_served() {
        // A FIB: one 32-bit field, prefixes of every length, longest first
        // (a /0 filed first would take every later rule in).
        let fib: Vec<Rule> = (0..=32u32)
            .rev()
            .flat_map(|len| (0..4u32).map(move |i| (len, (len * 4 + i).wrapping_mul(0x9e37_79b9))))
            .enumerate()
            .map(|(id, (len, v))| {
                Rule::new(
                    id as u32,
                    32 - len,
                    vec![FieldRange::from_prefix(v as u64, len as u8, 32)],
                )
            })
            .collect();
        let set = RuleSet::new(FieldsSpec::single("dst", 32), fib).unwrap();
        let tm = TupleMerge::build(&set);
        tm.assert_invariants();
        let keys = keys_in_and_around(&set, 11);
        assert_serves(&tm, &set, &keys);
        let tally = tm.probe_tally(&keys, 1, None);
        assert!(tally.admitted < tally.passed_floor, "one field is enough to prune: {tally:?}");

        // No field wider than 16 bits: no rows, every table probed.
        let ports: Vec<Rule> = (0..60u32)
            .map(|i| {
                let mut fields = vec![FieldRange::wildcard(16); 3];
                fields[i as usize % 3] = FieldRange::exact(i as u64 * 1_000);
                fields[(i as usize + 1) % 3] = FieldRange::new(i as u64, 40_000 + i as u64);
                Rule::new(i, i % 5, fields)
            })
            .collect();
        let set = RuleSet::new(FieldsSpec::uniform(3, 16), ports).unwrap();
        let tm = TupleMerge::build(&set);
        tm.assert_invariants();
        assert!(tm.num_tables() >= 3);
        let keys = keys_in_and_around(&set, 12);
        assert_serves(&tm, &set, &keys);
        let tally = tm.probe_tally(&keys, 3, None);
        assert_eq!(tally.admitted, tally.passed_floor);
    }

    #[test]
    fn emptied_tables_stop_being_probed() {
        // 30 rules under one tuple (src /24) beside 200 port rules.
        let mut rules: Vec<Rule> = (0..30u32)
            .map(|i| FiveTuple::new().src_prefix_raw(0x0a00_0000 | i << 8, 24).into_rule(i, i))
            .collect();
        rules.extend(
            (30..230u32).map(|i| FiveTuple::new().dst_port_exact(i as u16).into_rule(i, i)),
        );
        let set = RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap();
        let mut tm = TupleMerge::build(&set);
        assert_eq!(tm.num_tables(), 2);
        // Keys in the /24s' filter row (10.0/12) that match nothing: every
        // table they hash is waste.
        let keys: Vec<u64> = (0..64u64).flat_map(|i| [0x0a0f_0000 | i, 0, 0, 0, 6]).collect();
        let remove = |tm: &mut TupleMerge, ids: std::ops::Range<u32>| {
            tm.apply(&ids.fold(UpdateBatch::new(), |batch, id| batch.remove(id)));
            tm.assert_invariants();
        };
        // Short of the threshold the emptied table keeps its bits and its
        // bound, and goes on being hashed.
        remove(&mut tm, 0..30);
        assert_eq!((tm.num_tables(), tm.tables.len()), (1, 2));
        assert_eq!(tm.probe_tally(&keys, 5, None).admitted, 2 * 64);
        // 30 + 21 removals exceed a quarter of the 179 rules left: the
        // filter is recomputed, the table's column and bound are empty.
        remove(&mut tm, 30..51);
        let tally = tm.probe_tally(&keys, 5, None);
        assert_eq!((tally.tables, tally.passed_floor, tally.admitted), (2, 64, 64));
        // It is found again by the next rule that fits it.
        let rule = FiveTuple::new().src_prefix_raw(0x0a0f_0000, 24).into_rule(900, 0);
        tm.apply(&UpdateBatch::new().insert(rule));
        tm.assert_invariants();
        assert_eq!(tm.classify(&keys[..5]), Some(MatchResult::new(900, 0)));
        assert_eq!(tm.probe_tally(&keys, 5, None).wins, 64);
    }

    #[test]
    fn split_tables_lay_their_column_again() {
        // A /4 opens a table that masks the source to a nibble — every
        // filter row — and 50 /24s under one nibble overflow its bucket: the
        // split re-lays it at /8, where a column holds one row per rule.
        let mut rules = vec![FiveTuple::new().src_prefix_raw(0, 4).into_rule(0, 0)];
        rules.extend((1..=50u32).map(|i| {
            FiveTuple::new()
                .src_prefix_raw(0x1000_0000 | (i % 16) << 24 | i << 16, 24)
                .into_rule(i, i)
        }));
        let set = RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap();
        let tm = TupleMerge::build(&set);
        tm.assert_invariants();
        assert_serves(&tm, &set, &keys_in_and_around(&set, 5));
        let coarse = tm.tables.iter().filter(|t| t.lens.0[0] < 8).count() as u64;
        assert!(coarse >= 1 && tm.num_tables() as u64 > coarse, "the bucket never split");
        // No rule has a source under 0xf0/8: only the coarse tables are hashed.
        let keys: Vec<u64> = (0..32u64).flat_map(|i| [0xf000_0000 | i, i, 1, 2, 6]).collect();
        let tally = tm.probe_tally(&keys, 5, None);
        assert_eq!(
            (tally.passed_floor, tally.admitted),
            (32 * tm.num_tables() as u64, 32 * coarse)
        );
    }
}
