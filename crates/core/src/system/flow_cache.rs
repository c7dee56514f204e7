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
//! The cache is a fixed-size, open-addressed, 2-way set-associative table
//! keyed by the full field vector. Eviction is touch-ordered within the
//! set (the older way is replaced). Updates invalidate by generation, two
//! ways:
//!
//! * **automatically** — every probe compares the inner classifier's
//!   [`Classifier::generation`] stamp against the one recorded at the last
//!   probe; a bump (an applied `UpdateBatch`, a snapshot swap behind a
//!   `ClassifierHandle`) invalidates the whole cache in O(1). This closes
//!   the staleness hole where a cached verdict outlived a `remove()` of its
//!   rule because the caller forgot the manual step;
//! * **manually** — [`FlowCache::invalidate_all`] remains for rule changes
//!   the generation stamp cannot see (e.g. an engine mutated through
//!   interior paths that predate the stamp).
//!
//! Stale entries die lazily on their next probe either way.

use nm_common::classifier::{Classifier, MatchResult};
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
    /// Generation stamp; mismatched entries are stale.
    generation: u64,
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
    /// private cache per worker (no shared cache line ping-pong) and
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

/// An exact-match flow cache wrapping an inner classifier.
///
/// The wrapper itself implements [`Classifier`], so it can front NuevoMatch,
/// TupleMerge, or anything else in the workspace. Interior mutability keeps
/// `classify(&self)` signature intact; a `Mutex` per cache keeps this simple
/// and correct. In a multi-worker datapath the cache shards per worker —
/// exactly how OVS does it — which is what the worker runtime
/// ([`crate::system::runtime`]) does: each worker owns a private
/// `FlowCache` over its shard pin and the per-worker [`CacheStats`]
/// aggregate through [`CacheStats::absorb`].
pub struct FlowCache<C> {
    inner: C,
    sets: Mutex<CacheState>,
    mask: usize,
}

struct CacheState {
    entries: Vec<Entry>,
    generation: u64,
    /// The inner classifier's [`Classifier::generation`] observed at the
    /// last probe; a change invalidates every entry.
    source_generation: Generation,
    tick: u64,
    stats: CacheStats,
}

impl CacheState {
    /// Folds the inner classifier's current stamp in, invalidating the
    /// cache when the data plane moved underneath it. Strictly forward-only:
    /// generations are monotone, so a smaller observed stamp is just a
    /// reader that sampled before a concurrent bump — rolling back would
    /// make two interleaved readers ping-pong whole-cache invalidations.
    fn sync_source(&mut self, source: Generation) {
        if source > self.source_generation {
            self.source_generation = source;
            self.generation += 1;
        }
    }
}

impl<C: Classifier> FlowCache<C> {
    /// Wraps `inner` with a cache of at least `capacity` flows (rounded up
    /// to a power of two of sets × 2 ways).
    pub fn new(inner: C, capacity: usize) -> Self {
        let sets = (capacity.div_ceil(WAYS)).next_power_of_two().max(8);
        let vacant = Entry { key: Vec::new(), verdict: None, generation: 0, stamp: 0 };
        let source_generation = inner.generation();
        Self {
            inner,
            sets: Mutex::new(CacheState {
                entries: vec![vacant; sets * WAYS],
                generation: 1,
                source_generation,
                tick: 0,
                stats: CacheStats::default(),
            }),
            mask: sets - 1,
        }
    }

    /// The wrapped classifier.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Mutable access to the wrapped classifier.
    ///
    /// Rule changes applied through an engine that bumps
    /// [`Classifier::generation`] (every `BatchUpdatable` in the workspace)
    /// are picked up automatically on the next probe. Only mutations
    /// invisible to the stamp still require a manual
    /// [`FlowCache::invalidate_all`].
    pub fn inner_mut(&mut self) -> &mut C {
        &mut self.inner
    }

    /// Drops every cached verdict in O(1) (generation bump).
    pub fn invalidate_all(&self) {
        self.sets.lock().generation += 1;
    }

    /// Hit/miss counters since construction.
    pub fn stats(&self) -> CacheStats {
        self.sets.lock().stats
    }

    fn hash_key(key: &[u64]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &v in key {
            h ^= v;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// Installs `verdict` for `key` in the set at `base`, evicting a
    /// stale/vacant way or the least recently touched one.
    fn install(state: &mut CacheState, base: usize, key: &[u64], verdict: Option<MatchResult>) {
        let tick = state.tick;
        let generation = state.generation;
        let victim = (0..WAYS)
            .min_by_key(|&w| {
                let e = &state.entries[base + w];
                if e.generation != generation || e.key.is_empty() {
                    (0, 0)
                } else {
                    (1, e.stamp)
                }
            })
            .expect("ways > 0");
        state.entries[base + victim] =
            Entry { key: key.to_vec(), verdict, generation, stamp: tick };
    }
}

impl<C: Classifier> Classifier for FlowCache<C> {
    fn classify(&self, key: &[u64]) -> Option<MatchResult> {
        let set = (Self::hash_key(key) as usize) & self.mask;
        let base = set * WAYS;
        let source = self.inner.generation();
        {
            let mut state = self.sets.lock();
            state.sync_source(source);
            state.tick += 1;
            let tick = state.tick;
            let generation = state.generation;
            for way in 0..WAYS {
                let e = &mut state.entries[base + way];
                if e.generation == generation && e.key == key {
                    e.stamp = tick;
                    let verdict = e.verdict;
                    state.stats.hits += 1;
                    return verdict;
                }
            }
            state.stats.misses += 1;
        }
        // Miss path: full lookup outside the lock (the classifier may be
        // slow; holding the lock would serialise concurrent workers).
        let verdict = self.inner.classify(key);
        let mut state = self.sets.lock();
        // Install only if the data plane has not moved since we probed: a
        // concurrent update could otherwise stamp this (possibly stale)
        // verdict into the new generation. If the verdict is stale under the
        // *old* generation the next probe's sync invalidates it.
        if state.source_generation == source {
            Self::install(&mut state, base, key, verdict);
        }
        verdict
    }

    fn classify_with_floor(&self, key: &[u64], floor: Priority) -> Option<MatchResult> {
        self.classify(key).filter(|m| m.priority < floor)
    }

    /// Batched probe: all hits resolve under one lock acquisition, the
    /// misses flow through the inner classifier's own `classify_batch` in a
    /// single gathered call, and the fresh verdicts install under one more
    /// lock acquisition. Verdicts are bit-identical to per-key `classify`
    /// (a key duplicated inside one batch is classified once per duplicate
    /// and both installs write the same entry). Caller floors filter the
    /// cached (unfloored) verdicts at the end, exactly as the per-key
    /// `classify(key).filter(p < floor)` dispatch does — the cache always
    /// stores the unfloored verdict.
    fn batch_lookup(
        &self,
        keys: &[u64],
        stride: usize,
        floors: Option<&[Priority]>,
        out: &mut [Option<MatchResult>],
    ) {
        // Hash outside the lock, like the per-key path (holding it through
        // the hash loop would serialise concurrent workers); the bases are
        // reused by the install pass below.
        let bases: Vec<usize> = keys
            .chunks_exact(stride)
            .map(|key| ((Self::hash_key(key) as usize) & self.mask) * WAYS)
            .collect();
        let source = self.inner.generation();
        let mut miss_idx: Vec<usize> = Vec::new();
        {
            let mut state = self.sets.lock();
            state.sync_source(source);
            for (i, key) in keys.chunks_exact(stride).enumerate() {
                let base = bases[i];
                state.tick += 1;
                let tick = state.tick;
                let generation = state.generation;
                let mut hit = false;
                for way in 0..WAYS {
                    let e = &mut state.entries[base + way];
                    if e.generation == generation && e.key == key {
                        e.stamp = tick;
                        out[i] = e.verdict;
                        hit = true;
                        break;
                    }
                }
                if hit {
                    state.stats.hits += 1;
                } else {
                    state.stats.misses += 1;
                    miss_idx.push(i);
                }
            }
        }
        if !miss_idx.is_empty() {
            // Gather the missing keys into one contiguous buffer for the
            // inner engine's batched path.
            let mut miss_keys = Vec::with_capacity(miss_idx.len() * stride);
            for &i in &miss_idx {
                miss_keys.extend_from_slice(&keys[i * stride..(i + 1) * stride]);
            }
            let mut verdicts = vec![None; miss_idx.len()];
            self.inner.classify_batch(&miss_keys, stride, &mut verdicts);
            let mut state = self.sets.lock();
            // Same install guard as the per-key path: never stamp verdicts
            // from a superseded generation into a newer one.
            let install = state.source_generation == source;
            for (j, &i) in miss_idx.iter().enumerate() {
                let key = &keys[i * stride..(i + 1) * stride];
                out[i] = verdicts[j];
                if install {
                    Self::install(&mut state, bases[i], key, verdicts[j]);
                }
            }
        }
        if let Some(f) = floors {
            for i in 0..out.len() {
                if f[i] != Priority::MAX {
                    out[i] = out[i].filter(|m| m.priority < f[i]);
                }
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        let state = self.sets.lock();
        let entries = state.entries.len();
        let per = std::mem::size_of::<Entry>()
            + state.entries.first().map_or(0, |e| e.key.capacity() * 8);
        self.inner.memory_bytes() + entries * per
    }

    fn name(&self) -> &'static str {
        "flow-cache"
    }

    fn num_rules(&self) -> usize {
        self.inner.num_rules()
    }

    fn generation(&self) -> Generation {
        // The cache serves verdicts exactly as fresh as the inner stamp
        // (stale entries are invalidated on the probe that observes a bump),
        // so forwarding keeps stacked caches honest.
        self.inner.generation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_common::{FieldsSpec, FiveTuple, LinearSearch, RuleSet};

    fn engine() -> FlowCache<LinearSearch> {
        let rules: Vec<_> = (0..100u16)
            .map(|i| {
                FiveTuple::new().dst_port_range(i * 100, i * 100 + 99).into_rule(i as u32, i as u32)
            })
            .collect();
        let set = RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap();
        FlowCache::new(LinearSearch::build(&set), 1_024)
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
    fn invalidate_all_forces_misses() {
        let c = engine();
        let key = [1u64, 2, 3, 500, 6];
        c.classify(&key);
        c.classify(&key);
        assert!(c.stats().hits >= 1);
        c.invalidate_all();
        let misses_before = c.stats().misses;
        c.classify(&key);
        assert_eq!(c.stats().misses, misses_before + 1);
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
    fn remove_invalidates_cached_verdict() {
        // Regression: a cached verdict used to survive a `remove()` of its
        // rule unless the caller remembered to call `invalidate_all`. The
        // generation sync must now catch it on the next probe.
        use nm_common::{BatchUpdatable, UpdateBatch};
        let mut c = engine();
        let key = [1u64, 2, 3, 550, 6]; // rule 5
        assert_eq!(c.classify(&key).unwrap().rule, 5);
        assert_eq!(c.classify(&key).unwrap().rule, 5); // cached
        c.inner_mut().apply(&UpdateBatch::new().remove(5));
        // No manual invalidate_all: the stale verdict must still die.
        assert_eq!(c.classify(&key), None, "cached verdict survived its rule's removal");
        // And the batched probe path must agree.
        c.inner_mut().apply(&UpdateBatch::new().remove(6));
        let batch_key = [1u64, 2, 3, 650, 6];
        let mut out = [None];
        let mut flat = Vec::new();
        flat.extend_from_slice(&batch_key);
        c.classify_batch(&flat, 5, &mut out);
        assert_eq!(out[0], None, "batched probe served a stale verdict");
    }

    #[test]
    fn generation_forwards_inner_stamp() {
        use nm_common::{BatchUpdatable, UpdateBatch};
        let mut c = engine();
        assert_eq!(Classifier::generation(&c), 0);
        c.inner_mut().apply(&UpdateBatch::new().remove(1));
        assert_eq!(Classifier::generation(&c), 1);
    }

    #[test]
    fn associativity_survives_set_conflicts() {
        // Tiny cache: force evictions, verdicts must stay correct.
        let rules: Vec<_> = (0..50u16)
            .map(|i| FiveTuple::new().dst_port_exact(i).into_rule(i as u32, i as u32))
            .collect();
        let set = RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap();
        let c = FlowCache::new(LinearSearch::build(&set), 8);
        for round in 0..3 {
            for port in 0..50u64 {
                let got = c.classify(&[0, 0, 0, port, 0]);
                assert_eq!(got.map(|m| m.rule), Some(port as u32), "round {round}");
            }
        }
    }
}
