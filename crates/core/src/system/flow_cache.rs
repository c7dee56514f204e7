//! Exact-match flow cache in front of any classifier.
//!
//! §5.2 of the paper observes that production pipelines (Open vSwitch) put
//! an exact-match cache in front of the classifier and invoke the full
//! lookup only on cache misses — which is why the paper expects its
//! *unskewed* numbers to be the representative ones for an OVS integration:
//! the cache absorbs the skew, the classifier sees the miss stream. This
//! module implements that front so the claim can be measured
//! (`cargo run -p nm-bench --release -- ablation`).
//!
//! Two pieces, split by who owns the state:
//!
//! * `FlowTable` — **the table**: a fixed-size, 2-way set-associative array
//!   keyed by the full field vector, touch-ordered eviction within the set,
//!   its hit/miss counters. A plain `&mut self` struct that classifies
//!   nothing itself; its two halves are `probe` (resolve the hits of a
//!   batch, list the misses) and `install` (file the misses' fresh
//!   verdicts). A runtime worker owns one outright — one thread, no lock —
//!   with the batch's pin as the source of truth
//!   ([`crate::system::runtime`]).
//! * [`FlowCache`] — **the wrapper**: a table behind the one `Mutex` that
//!   lets it implement [`Classifier`] (`&self`) over any inner engine. It
//!   locks once to probe and once to install, and classifies the misses
//!   *between* the two, outside the lock.
//!
//! Updates invalidate by generation: every probe is handed the source's
//! [`Classifier::generation`] stamp and compares it against the one recorded
//! at the last probe; a newer stamp (a snapshot published behind a
//! `ClassifierHandle`, a new epoch pinned by the runtime) invalidates the
//! whole table in O(1), and stale entries die lazily on their next probe.
//! Only a publication mints a stamp — engines are unversioned — so a cache
//! over a bare engine never invalidates, and there is no way to change that
//! engine under it: a cached classifier that must change is a handle, and
//! its updates and retrains go through the handle's clones.

use nm_common::classifier::{apply_floors, Classifier, MatchResult};
use nm_common::rule::Priority;
use nm_common::update::Generation;
use parking_lot::Mutex;

const WAYS: usize = 2;

#[derive(Clone, Debug)]
struct Entry {
    /// Full key (field values). Empty = vacant.
    key: Vec<u64>,
    /// Cached verdict (None = the classifier reported no match).
    verdict: Option<MatchResult>,
    /// The source stamp the verdict was read at; an entry at any other is
    /// stale (a vacant one is at `Generation::MAX`, never a source's).
    generation: Generation,
    /// Per-set recency counter.
    stamp: u64,
}

/// Cache statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Probes that returned a fresh cached verdict.
    pub hits: u64,
    /// Probes that fell through to the classifier.
    pub misses: u64,
}

impl CacheStats {
    /// Folds another cache's counters into this one — the runtime keeps one
    /// private table per worker (no shared cache line ping-pong) and
    /// aggregates their stats with this after a run.
    pub fn absorb(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }

    /// Hit fraction in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The cache's table: entries, the source stamp, recency tick and counters.
/// Owned by exactly one party at a time — a [`FlowCache`]'s mutex or a
/// runtime worker — so every method takes `&mut self`.
pub(crate) struct FlowTable {
    entries: Vec<Entry>,
    mask: usize,
    /// The newest [`Classifier::generation`] a probe has observed. Entries
    /// are tagged with the stamp they were read at, so a newer one
    /// invalidates every entry at once.
    source_generation: Generation,
    tick: u64,
    stats: CacheStats,
}

impl FlowTable {
    /// An empty table of at least `capacity` flows (rounded up to a power
    /// of two of sets × 2 ways).
    pub(crate) fn new(capacity: usize) -> Self {
        let sets = (capacity.div_ceil(WAYS)).next_power_of_two().max(8);
        let vacant =
            Entry { key: Vec::new(), verdict: None, generation: Generation::MAX, stamp: 0 };
        Self {
            entries: vec![vacant; sets * WAYS],
            mask: sets - 1,
            source_generation: 0,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Hit/miss counters since construction.
    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }

    fn memory_bytes(&self) -> usize {
        let per =
            std::mem::size_of::<Entry>() + self.entries.first().map_or(0, |e| e.key.capacity() * 8);
        self.entries.len() * per
    }

    /// Index of the first way of `key`'s set.
    fn base(&self, key: &[u64]) -> usize {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &v in key {
            h ^= v;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        (h as usize & self.mask) * WAYS
    }

    /// First half of a cached lookup: resolves every key the table holds a
    /// fresh verdict for into `out` and appends the indices of the rest to
    /// `miss_idx`, for the caller to classify against the source it read
    /// `source` from and hand to [`Self::install`].
    pub(crate) fn probe(
        &mut self,
        source: Generation,
        keys: &[u64],
        stride: usize,
        out: &mut [Option<MatchResult>],
        miss_idx: &mut Vec<usize>,
    ) {
        // Fold the source's stamp in, forward only: generations are
        // monotone, so a smaller observed stamp is just a reader that sampled
        // before a concurrent publish — rolling back would make two
        // interleaved readers ping-pong whole-table invalidations.
        self.source_generation = self.source_generation.max(source);
        let generation = self.source_generation;
        for (i, verdict) in out.iter_mut().enumerate() {
            let key = &keys[i * stride..(i + 1) * stride];
            let base = self.base(key);
            self.tick += 1;
            let tick = self.tick;
            let hit = self.entries[base..base + WAYS]
                .iter_mut()
                .find(|e| e.generation == generation && e.key == key);
            match hit {
                Some(e) => {
                    e.stamp = tick;
                    *verdict = e.verdict;
                    self.stats.hits += 1;
                }
                None => {
                    self.stats.misses += 1;
                    miss_idx.push(i);
                }
            }
        }
    }

    /// Second half: files `verdicts[j]` for key `miss_idx[j]`, evicting a
    /// stale/vacant way or the least recently touched one — but only if the
    /// source has not moved since the probe that read `source`: an update
    /// in between could otherwise stamp these (possibly stale) verdicts into
    /// the new generation. If a verdict is stale under the *old* generation
    /// the next probe's sync invalidates it.
    pub(crate) fn install(
        &mut self,
        source: Generation,
        keys: &[u64],
        stride: usize,
        miss_idx: &[usize],
        verdicts: &[Option<MatchResult>],
    ) {
        if self.source_generation != source {
            return;
        }
        let (generation, tick) = (source, self.tick);
        for (&i, &verdict) in miss_idx.iter().zip(verdicts) {
            let key = &keys[i * stride..(i + 1) * stride];
            let base = self.base(key);
            let victim = self.entries[base..base + WAYS]
                .iter_mut()
                .min_by_key(|e| if e.generation != generation { (0, 0) } else { (1, e.stamp) })
                .expect("ways > 0");
            *victim = Entry { key: key.to_vec(), verdict, generation, stamp: tick };
        }
    }
}

/// The miss path between a [`FlowTable::probe`] and its
/// [`FlowTable::install`]: gathers the keys at `miss_idx` into one
/// contiguous buffer, runs `classify` over it once (the source's batched
/// path), scatters the fresh verdicts into `out` and returns them.
pub(crate) fn classify_misses(
    keys: &[u64],
    stride: usize,
    miss_idx: &[usize],
    out: &mut [Option<MatchResult>],
    classify: impl FnOnce(&[u64], &mut [Option<MatchResult>]),
) -> Vec<Option<MatchResult>> {
    let mut miss_keys = Vec::with_capacity(miss_idx.len() * stride);
    for &i in miss_idx {
        miss_keys.extend_from_slice(&keys[i * stride..(i + 1) * stride]);
    }
    let mut verdicts = vec![None; miss_idx.len()];
    classify(&miss_keys, &mut verdicts);
    for (&i, &verdict) in miss_idx.iter().zip(&verdicts) {
        out[i] = verdict;
    }
    verdicts
}

/// An exact-match flow cache wrapping an inner classifier.
///
/// The wrapper itself implements [`Classifier`], so it can front NuevoMatch,
/// TupleMerge, or anything else in the workspace. Interior mutability keeps
/// the `classify(&self)` signature intact: one `Mutex` around the table,
/// never held while the inner engine classifies. In a multi-worker datapath
/// the cache shards per worker — exactly how OVS does it — which the worker
/// runtime ([`crate::system::runtime`]) does without this wrapper: each
/// worker owns a table, and the per-worker [`CacheStats`] aggregate through
/// [`CacheStats::absorb`].
pub struct FlowCache<C> {
    inner: C,
    table: Mutex<FlowTable>,
}

impl<C: Classifier> FlowCache<C> {
    /// Wraps `inner` with a cache of at least `capacity` flows (rounded up
    /// to a power of two of sets × 2 ways).
    pub fn new(inner: C, capacity: usize) -> Self {
        Self { inner, table: Mutex::new(FlowTable::new(capacity)) }
    }

    /// The wrapped classifier.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Hit/miss counters since construction.
    pub fn stats(&self) -> CacheStats {
        self.table.lock().stats()
    }
}

impl<C: Classifier> Classifier for FlowCache<C> {
    /// The batch of one, through the same probe and install; only the miss
    /// goes to the inner engine's per-key path instead of its batched one.
    fn classify(&self, key: &[u64]) -> Option<MatchResult> {
        let source = self.inner.generation();
        let (mut out, mut miss_idx) = ([None], Vec::new());
        self.table.lock().probe(source, key, key.len(), &mut out, &mut miss_idx);
        if !miss_idx.is_empty() {
            out[0] = self.inner.classify(key);
            self.table.lock().install(source, key, key.len(), &miss_idx, &out);
        }
        out[0]
    }

    /// Batched probe: all hits resolve under one lock acquisition, the
    /// misses flow through the inner classifier's own `classify_batch` in a
    /// single gathered call outside the lock (the classifier may be slow;
    /// holding it would serialise concurrent readers), and the fresh
    /// verdicts install under one more acquisition. Verdicts are
    /// bit-identical to the inner engine's (a key duplicated inside one
    /// batch is classified once per duplicate and both installs write the
    /// same entry). Caller floors filter at the end, exactly as the per-key
    /// `classify(key).filter(p < floor)` dispatch does — the table always
    /// stores the unfloored verdict.
    fn batch_lookup(
        &self,
        keys: &[u64],
        stride: usize,
        floors: Option<&[Priority]>,
        out: &mut [Option<MatchResult>],
    ) {
        let source = self.inner.generation();
        let mut miss_idx = Vec::new();
        self.table.lock().probe(source, keys, stride, out, &mut miss_idx);
        if !miss_idx.is_empty() {
            let fresh = classify_misses(keys, stride, &miss_idx, out, |k, o| {
                self.inner.classify_batch(k, stride, o)
            });
            self.table.lock().install(source, keys, stride, &miss_idx, &fresh);
        }
        apply_floors(floors, out);
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes() + self.table.lock().memory_bytes()
    }

    fn name(&self) -> &'static str {
        "flow-cache"
    }

    fn num_rules(&self) -> usize {
        self.inner.num_rules()
    }

    fn generation(&self) -> Generation {
        // The cache serves verdicts exactly as fresh as the inner stamp
        // (stale entries are invalidated on the probe that observes a newer
        // one), so forwarding keeps stacked caches honest.
        self.inner.generation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NuevoMatchConfig, RqRmiParams};
    use crate::system::ClassifierHandle;
    use nm_common::{FieldsSpec, FiveTuple, LinearSearch, RuleSet, UpdateBatch};

    type Cached = FlowCache<ClassifierHandle<LinearSearch>>;

    fn handle(set: &RuleSet) -> ClassifierHandle<LinearSearch> {
        let cfg = NuevoMatchConfig {
            rqrmi: RqRmiParams { samples_init: 256, ..Default::default() },
            ..Default::default()
        };
        ClassifierHandle::new(set, &cfg, LinearSearch::build).unwrap()
    }

    fn port_set() -> RuleSet {
        let rules: Vec<_> = (0..100u16)
            .map(|i| {
                FiveTuple::new().dst_port_range(i * 100, i * 100 + 99).into_rule(i as u32, i as u32)
            })
            .collect();
        RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap()
    }

    /// A cache over a live handle: updates and retrains go through a clone
    /// of the handle, never through the cache.
    fn engine() -> Cached {
        FlowCache::new(handle(&port_set()), 1_024)
    }

    #[test]
    fn cached_verdicts_match_inner() {
        let c = engine();
        for port in (0u64..10_000).step_by(11) {
            let key = [1, 2, 3, port, 6];
            let a = c.classify(&key);
            let b = c.inner().classify(&key);
            assert_eq!(a, b);
            // Second probe must hit and agree.
            assert_eq!(c.classify(&key), b);
        }
        let stats = c.stats();
        assert!(stats.hits >= 900, "expected heavy hits, got {stats:?}");
    }

    #[test]
    fn caches_negative_verdicts_too() {
        let c = engine();
        let miss_key = [1u64, 2, 3, 60_000, 6];
        assert_eq!(c.classify(&miss_key), None);
        let before = c.stats().hits;
        assert_eq!(c.classify(&miss_key), None);
        assert_eq!(c.stats().hits, before + 1, "negative verdict should be cached");
    }

    #[test]
    fn hot_flow_hit_rate_is_high() {
        let c = engine();
        // 10 hot flows, 10K probes.
        for i in 0..10_000u64 {
            let flow = i % 10;
            c.classify(&[9, 9, 9, flow * 77, 17]);
        }
        assert!(c.stats().hit_rate() > 0.99, "hit rate {:.3}", c.stats().hit_rate());
    }

    #[test]
    fn batch_probe_matches_per_key_and_caches() {
        let c = engine();
        let keys: Vec<u64> = (0..300u64).flat_map(|i| [1, 2, 3, (i % 40) * 111, 6]).collect();
        let n = keys.len() / 5;
        let mut out = vec![None; n];
        c.classify_batch(&keys, 5, &mut out);
        for i in 0..n {
            assert_eq!(out[i], c.inner().classify(&keys[i * 5..(i + 1) * 5]), "packet {i}");
        }
        // Second pass over the same batch must be all hits.
        let misses_before = c.stats().misses;
        c.classify_batch(&keys, 5, &mut out);
        assert_eq!(c.stats().misses, misses_before, "re-probe should not miss");
        for i in 0..n {
            assert_eq!(out[i], c.inner().classify(&keys[i * 5..(i + 1) * 5]));
        }
    }

    #[test]
    fn per_key_batch_of_one_and_batch_of_many_agree() {
        // One probe and one install serve all three shapes: the same key
        // sequence must produce the inner engine's verdicts and the same
        // counters whichever way it is fed.
        let keys: Vec<u64> = (0..200u64).flat_map(|i| [1, 2, 3, (i % 70) * 151, 6]).collect();
        let n = keys.len() / 5;
        let reference = engine();
        let want: Vec<_> = keys.chunks_exact(5).map(|k| reference.inner().classify(k)).collect();
        let per_key = engine();
        let got: Vec<_> = keys.chunks_exact(5).map(|k| per_key.classify(k)).collect();
        assert_eq!(got, want, "per key");
        let ones = engine();
        for (i, k) in keys.chunks_exact(5).enumerate() {
            let mut out = [None];
            ones.classify_batch(k, 5, &mut out);
            assert_eq!(out[0], want[i], "batch of one, packet {i}");
        }
        let many = engine();
        let mut out = vec![None; n];
        many.classify_batch(&keys, 5, &mut out);
        assert_eq!(out, want, "batch of many");
        let total = |c: &Cached| c.stats().hits + c.stats().misses;
        assert_eq!((total(&per_key), total(&ones), total(&many)), (n as u64, n as u64, n as u64));
        // Fed one at a time a repeat hits the entry its first sight filed;
        // inside one batch every repeat is probed before anything installs.
        assert_eq!((per_key.stats().misses, ones.stats().misses), (70, 70));
        assert_eq!(many.stats().misses, n as u64);
    }

    #[test]
    fn remove_invalidates_cached_verdict() {
        // Regression: a cached verdict used to survive a `remove()` of its
        // rule. The generation sync is the only invalidation there is, so it
        // must catch every publication the handle's clone makes — applies
        // and retrains alike — on the next probe, per key and batched.
        let c = engine();
        let writer = c.inner().clone();
        let keys: Vec<u64> = (0..64u64).flat_map(|i| [1, 2, 3, i * 157 % 10_000, 6]).collect();
        let fresh = |step: &str| {
            let live = writer.snapshot();
            let want: Vec<_> = keys.chunks_exact(5).map(|k| live.classify(k)).collect();
            // Twice: the second pass is served from the table.
            for pass in 0..2 {
                let per_key: Vec<_> = keys.chunks_exact(5).map(|k| c.classify(k)).collect();
                assert_eq!(per_key, want, "{step}: stale per-key verdict, pass {pass}");
                let mut out = vec![None; want.len()];
                c.classify_batch(&keys, 5, &mut out);
                assert_eq!(out, want, "{step}: stale batched verdict, pass {pass}");
            }
        };
        let key = [1u64, 2, 3, 550, 6]; // rule 5
        assert_eq!(c.classify(&key).unwrap().rule, 5);
        assert_eq!(c.classify(&key).unwrap().rule, 5); // cached
        fresh("build");
        writer.apply(&UpdateBatch::new().remove(5));
        assert_eq!(c.classify(&key), None, "cached verdict survived its rule's removal");
        fresh("remove");
        writer.apply(
            &UpdateBatch::new()
                .remove(6)
                .modify(FiveTuple::new().dst_port_range(0, 9_999).into_rule(7, 200)),
        );
        fresh("remove + widening modify");
        writer.retrain().unwrap();
        fresh("retrain");
        writer.apply(
            &UpdateBatch::new().insert(FiveTuple::new().dst_port_exact(550).into_rule(5, 5)),
        );
        assert_eq!(c.classify(&key).unwrap().rule, 5, "re-inserted rule not served");
        fresh("re-insert");
        writer.retrain_full().unwrap();
        fresh("full retrain");
    }

    #[test]
    fn generation_forwards_inner_stamp() {
        let c = engine();
        let writer = c.inner().clone();
        assert_eq!(Classifier::generation(&c), 1);
        writer.apply(&UpdateBatch::new().remove(1));
        assert_eq!(Classifier::generation(&c), 2);
        let g = writer.retrain().unwrap();
        assert_eq!(Classifier::generation(&c), g);
        // A bare engine is never published: its cache reports (and keys on)
        // generation 0 for good.
        let bare = FlowCache::new(LinearSearch::build(&port_set()), 64);
        assert_eq!(Classifier::generation(&bare), 0);
    }

    #[test]
    fn associativity_survives_set_conflicts() {
        // Tiny cache: force evictions, verdicts must stay correct.
        let rules: Vec<_> = (0..50u16)
            .map(|i| FiveTuple::new().dst_port_exact(i).into_rule(i as u32, i as u32))
            .collect();
        let set = RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap();
        let c = FlowCache::new(handle(&set), 8);
        for round in 0..3 {
            for port in 0..50u64 {
                let got = c.classify(&[0, 0, 0, port, 0]);
                assert_eq!(got.map(|m| m.rule), Some(port as u32), "round {round}");
            }
        }
    }
}
