//! Exact-match flow cache in front of a classifier.
//!
//! §5.2 of the paper observes that production pipelines (Open vSwitch) put
//! an exact-match cache in front of the classifier and invoke the full
//! lookup only on cache misses — which is why the paper expects its
//! *unskewed* numbers to be the representative ones for an OVS integration:
//! the cache absorbs the skew, the classifier sees the miss stream. OVS keeps
//! one cache per datapath thread, and so does this repository: with
//! `RuntimeConfig::flow_cache` set, every runtime worker owns one
//! `FlowTable` outright — one thread, no lock — with the batch's pin as the
//! source of truth ([`crate::system::runtime`]). `cargo run -p nm-bench
//! --release -- ablation` measures it.
//!
//! `FlowTable` is a fixed-size, 2-way set-associative array keyed by the
//! full field vector, with touch-ordered eviction within the set and its
//! hit/miss counters. It classifies nothing itself: a cached lookup is
//! `probe` (resolve the hits of a batch, list the misses), one batched call
//! of the source over the misses (`classify_misses`) and `install` (file
//! the misses' fresh verdicts).
//!
//! Updates invalidate by generation: every probe is handed the source's
//! [`Classifier::generation`](nm_common::Classifier::generation) stamp and
//! compares it against the one recorded at the last probe; a newer stamp (a
//! new snapshot or epoch pinned by the runtime) invalidates the whole table
//! in O(1), and stale entries die lazily on their next probe. Only a
//! publication mints a stamp — engines are unversioned — so a table over a
//! bare engine never invalidates: a plane that changes is a handle, pinned
//! afresh for every batch.

use nm_common::classifier::MatchResult;
use nm_common::update::Generation;

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
/// Owned by one runtime worker, so every method takes `&mut self`.
pub(crate) struct FlowTable {
    entries: Vec<Entry>,
    mask: usize,
    /// The newest source stamp a probe has observed. Entries are tagged
    /// with the stamp they were read at, so a newer one invalidates every
    /// entry at once.
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
    /// stale/vacant way or the least recently touched one — but only if no
    /// probe has seen a newer stamp since the one that read `source`: filed
    /// at their old stamp these verdicts could never hit, and filing them
    /// would evict the newer stamp's live entries.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NuevoMatchConfig, RqRmiParams};
    use crate::system::ClassifierHandle;
    use nm_common::{Classifier, FieldsSpec, FiveTuple, LinearSearch, RuleSet, UpdateBatch};

    fn port_set() -> RuleSet {
        let rules: Vec<_> = (0..100u16)
            .map(|i| {
                FiveTuple::new().dst_port_range(i * 100, i * 100 + 99).into_rule(i as u32, i as u32)
            })
            .collect();
        RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap()
    }

    /// One cached lookup of 5-field `keys` the way a runtime worker makes
    /// it: probe at the source's stamp, classify the misses in one batch,
    /// install their verdicts.
    fn lookup(
        table: &mut FlowTable,
        source: &dyn Classifier,
        keys: &[u64],
    ) -> Vec<Option<MatchResult>> {
        let stamp = source.generation();
        let (mut out, mut miss_idx) = (vec![None; keys.len() / 5], Vec::new());
        table.probe(stamp, keys, 5, &mut out, &mut miss_idx);
        if !miss_idx.is_empty() {
            let fresh = classify_misses(keys, 5, &miss_idx, &mut out, |k, o| {
                source.classify_batch(k, 5, o)
            });
            table.install(stamp, keys, 5, &miss_idx, &fresh);
        }
        out
    }

    #[test]
    fn cached_verdicts_match_inner() {
        let (engine, mut table) = (LinearSearch::build(&port_set()), FlowTable::new(1_024));
        for port in (0u64..10_000).step_by(11) {
            let key = [1, 2, 3, port, 6];
            let want = engine.classify(&key);
            assert_eq!(lookup(&mut table, &engine, &key), [want]);
            // Second probe must hit and agree.
            assert_eq!(lookup(&mut table, &engine, &key), [want]);
        }
        let stats = table.stats();
        assert!(stats.hits >= 900, "expected heavy hits, got {stats:?}");
    }

    #[test]
    fn caches_negative_verdicts_too() {
        let (engine, mut table) = (LinearSearch::build(&port_set()), FlowTable::new(1_024));
        let miss_key = [1u64, 2, 3, 60_000, 6];
        assert_eq!(lookup(&mut table, &engine, &miss_key), [None]);
        let before = table.stats().hits;
        assert_eq!(lookup(&mut table, &engine, &miss_key), [None]);
        assert_eq!(table.stats().hits, before + 1, "negative verdict should be cached");
    }

    #[test]
    fn hot_flow_hit_rate_is_high() {
        let (engine, mut table) = (LinearSearch::build(&port_set()), FlowTable::new(1_024));
        // 10 hot flows, 10K probes.
        for i in 0..10_000u64 {
            let flow = i % 10;
            lookup(&mut table, &engine, &[9, 9, 9, flow * 77, 17]);
        }
        let rate = table.stats().hit_rate();
        assert!(rate > 0.99, "hit rate {rate:.3}");
    }

    #[test]
    fn batch_probe_matches_per_key_and_caches() {
        let (engine, mut table) = (LinearSearch::build(&port_set()), FlowTable::new(1_024));
        let keys: Vec<u64> = (0..300u64).flat_map(|i| [1, 2, 3, (i % 40) * 111, 6]).collect();
        let want: Vec<_> = keys.chunks_exact(5).map(|k| engine.classify(k)).collect();
        assert_eq!(lookup(&mut table, &engine, &keys), want);
        // Second pass over the same batch must be all hits.
        let misses_before = table.stats().misses;
        assert_eq!(lookup(&mut table, &engine, &keys), want);
        assert_eq!(table.stats().misses, misses_before, "re-probe should not miss");
    }

    #[test]
    fn per_key_batch_of_one_and_batch_of_many_agree() {
        // One probe and one install serve both shapes: the same key sequence
        // must produce the engine's verdicts and the same probe count
        // whichever way it is fed.
        let keys: Vec<u64> = (0..200u64).flat_map(|i| [1, 2, 3, (i % 70) * 151, 6]).collect();
        let n = keys.len() as u64 / 5;
        let engine = LinearSearch::build(&port_set());
        let want: Vec<_> = keys.chunks_exact(5).map(|k| engine.classify(k)).collect();
        let mut ones = FlowTable::new(1_024);
        let got: Vec<_> =
            keys.chunks_exact(5).flat_map(|k| lookup(&mut ones, &engine, k)).collect();
        assert_eq!(got, want, "batches of one");
        let mut many = FlowTable::new(1_024);
        assert_eq!(lookup(&mut many, &engine, &keys), want, "batch of many");
        let total = |t: &FlowTable| t.stats().hits + t.stats().misses;
        assert_eq!((total(&ones), total(&many)), (n, n));
        // Fed one at a time a repeat hits the entry its first sight filed;
        // inside one batch every repeat is probed before anything installs.
        assert_eq!((ones.stats().misses, many.stats().misses), (70, n));
    }

    #[test]
    fn remove_invalidates_cached_verdict() {
        // Regression: a cached verdict used to survive a `remove()` of its
        // rule. The source stamp is the only invalidation there is, so every
        // publication the handle makes — applies and retrains alike — must
        // reach the table through the next pin, per key and batched.
        let cfg = NuevoMatchConfig {
            rqrmi: RqRmiParams { samples_init: 256, ..Default::default() },
            ..Default::default()
        };
        let handle = ClassifierHandle::new(&port_set(), &cfg, LinearSearch::build).unwrap();
        let mut table = FlowTable::new(1_024);
        let pinned = |table: &mut FlowTable, keys: &[u64]| lookup(table, &*handle.snapshot(), keys);
        let keys: Vec<u64> = (0..64u64).flat_map(|i| [1, 2, 3, i * 157 % 10_000, 6]).collect();
        let fresh = |table: &mut FlowTable, step: &str| {
            let live = handle.snapshot();
            let want: Vec<_> = keys.chunks_exact(5).map(|k| live.classify(k)).collect();
            // Twice: the second pass is served from the table.
            for pass in 0..2 {
                let per_key: Vec<_> = keys.chunks_exact(5).flat_map(|k| pinned(table, k)).collect();
                assert_eq!(per_key, want, "{step}: stale per-key verdict, pass {pass}");
                assert_eq!(
                    pinned(table, &keys),
                    want,
                    "{step}: stale batched verdict, pass {pass}"
                );
            }
        };
        let key = [1u64, 2, 3, 550, 6]; // rule 5
        let rule = |table: &mut FlowTable| pinned(table, &key)[0].map(|m| m.rule);
        assert_eq!(rule(&mut table), Some(5));
        assert_eq!(rule(&mut table), Some(5)); // cached
        fresh(&mut table, "build");
        handle.apply(&UpdateBatch::new().remove(5));
        assert_eq!(rule(&mut table), None, "cached verdict survived its rule's removal");
        fresh(&mut table, "remove");
        handle.apply(
            &UpdateBatch::new()
                .remove(6)
                .modify(FiveTuple::new().dst_port_range(0, 9_999).into_rule(7, 200)),
        );
        fresh(&mut table, "remove + widening modify");
        handle.retrain().unwrap();
        fresh(&mut table, "retrain");
        handle.apply(
            &UpdateBatch::new().insert(FiveTuple::new().dst_port_exact(550).into_rule(5, 5)),
        );
        assert_eq!(rule(&mut table), Some(5), "re-inserted rule not served");
        fresh(&mut table, "re-insert");
        handle.retrain_full().unwrap();
        fresh(&mut table, "full retrain");
    }

    #[test]
    fn install_from_an_overtaken_probe_files_nothing() {
        // A verdict read at stamp 1 must not land once the table has probed
        // stamp 2: it could never hit, and it would take a live entry's way.
        let key = [1u64, 2, 3, 4, 5];
        let verdict = Some(MatchResult { rule: 5, priority: 5 });
        let mut table = FlowTable::new(64);
        let (mut out, mut miss_idx) = ([None], Vec::new());
        table.probe(1, &key, 5, &mut out, &mut miss_idx);
        table.probe(2, &key, 5, &mut out, &mut Vec::new());
        table.install(1, &key, 5, &miss_idx, &[verdict]);
        let filed = table.entries.iter().filter(|e| !e.key.is_empty()).count();
        assert_eq!(filed, 0, "a verdict from an overtaken probe was filed");
        // The same install at the current stamp files it, and it hits.
        table.install(2, &key, 5, &miss_idx, &[verdict]);
        table.probe(2, &key, 5, &mut out, &mut Vec::new());
        assert_eq!((out[0], table.stats().hits), (verdict, 1));
    }

    #[test]
    fn associativity_survives_set_conflicts() {
        // Tiny cache: force evictions, verdicts must stay correct.
        let rules: Vec<_> = (0..50u16)
            .map(|i| FiveTuple::new().dst_port_exact(i).into_rule(i as u32, i as u32))
            .collect();
        let set = RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap();
        let (engine, mut table) = (LinearSearch::build(&set), FlowTable::new(8));
        for round in 0..3 {
            for port in 0..50u64 {
                let got = lookup(&mut table, &engine, &[0, 0, 0, port, 0]);
                assert_eq!(got[0].map(|m| m.rule), Some(port as u32), "round {round}");
            }
        }
        assert!(table.stats().misses > 50, "a 16-entry table must evict");
    }
}
