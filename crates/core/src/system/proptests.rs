//! Property test of the packed iSet layout: random rule-sets over a narrow
//! 5-tuple, a narrow 1-field/32 and a wide (40-bit field, `u64` words)
//! schema, priorities duplicated across iSets on purpose, random
//! tombstones and drift — every lookup entry point against
//! [`LinearSearch`] over the same live rules, before and after a partial
//! retrain and a snapshot round trip.

use std::collections::BTreeMap;

use nm_common::{
    Classifier, FieldRange, FieldSpec, FieldsSpec, LinearSearch, MatchResult, Rule, RuleId,
    RuleSet, SplitMix64, UpdateBatch,
};
use proptest::prelude::*;

use crate::config::{NuevoMatchConfig, PartialRetrainPolicy, RqRmiParams};
use crate::persist::{load_snapshot, save_snapshot};
use crate::system::NuevoMatch;

/// Batch sizes around the 8-lane group, the 64-key pass and the 128-key chunk.
const BATCHES: [usize; 10] = [1, 2, 7, 8, 9, 63, 64, 65, 128, 129];

fn specs() -> [FieldsSpec; 3] {
    let wide = vec![FieldSpec::new("mac-ish", 40), FieldSpec::new("port", 16)];
    [FieldsSpec::five_tuple(), FieldsSpec::uniform(1, 32), FieldsSpec::new(wide)]
}

/// A random box: field 0 a short range (so iSets form on it), the others a
/// mix of wildcards and ranges; one of four priorities, so iSets tie.
fn rule(spec: &FieldsSpec, id: RuleId, rng: &mut SplitMix64) -> Rule {
    let fields = (0..spec.len())
        .map(|d| {
            let max = spec.max_value(d);
            if d > 0 && rng.below(3) == 0 {
                return FieldRange::new(0, max);
            }
            let lo = rng.below(max);
            FieldRange::new(lo, lo.saturating_add(rng.below(max / 64 + 2)).min(max))
        })
        .collect();
    Rule::new(id, rng.below(4) as u32, fields)
}

/// Asserts every lookup entry point of `nm` agrees with linear search over
/// `live` on `keys` (flat, `spec.len()` words per key).
fn assert_agrees(nm: &NuevoMatch<LinearSearch>, live: &BTreeMap<RuleId, Rule>, keys: &[u64]) {
    let stride = nm.spec().len();
    // What each iSet should serve: its live positions, which must
    // reconstruct the very rules that went in.
    let per_iset: Vec<LinearSearch> = (nm.isets().iter())
        .map(|iset| {
            let rules = (0..iset.len()).filter(|&pos| !iset.is_deleted(pos)).map(|pos| {
                let rule = iset.rule_at(pos);
                assert_eq!(Some(&rule), live.get(&rule.id), "record {pos} does not round-trip");
                assert_eq!(iset.rule_id_at(pos), rule.id);
                rule
            });
            LinearSearch::from_rules(rules.collect())
        })
        .collect();
    let oracle = LinearSearch::from_rules(live.values().cloned().collect());
    let want: Vec<_> = keys.chunks_exact(stride).map(|k| oracle.classify(k)).collect();
    let want_isets: Vec<Option<MatchResult>> = (keys.chunks_exact(stride))
        .map(|k| per_iset.iter().fold(None, |b, o| MatchResult::better(b, o.classify(k))))
        .collect();
    for (i, key) in keys.chunks_exact(stride).enumerate() {
        assert_eq!(nm.classify(key), want[i], "classify {key:?}");
        assert_eq!(nm.classify_isets(key), want_isets[i], "classify_isets {key:?}");
        for (iset, oracle) in nm.isets().iter().zip(&per_iset) {
            let (pred, err) = iset.predict(key);
            let pos = iset.search(pred, err, key);
            if let Some(pos) = pos {
                let range = iset.rule_at(pos).fields[iset.dim()];
                assert!(range.contains(key[iset.dim()]), "search landed outside its range");
            }
            let got = pos.and_then(|pos| iset.validate(pos, key));
            assert_eq!(got, oracle.classify(key), "predict/search/validate {key:?}");
            assert_eq!(iset.lookup(key), got);
        }
    }
    for batch in BATCHES {
        let (mut out, mut isets) = (vec![None; want.len()], vec![None; want.len()]);
        for lo in (0..want.len()).step_by(batch) {
            let hi = (lo + batch).min(want.len());
            nm.classify_batch(&keys[lo * stride..hi * stride], stride, &mut out[lo..hi]);
            nm.classify_isets_batch(&keys[lo * stride..hi * stride], stride, &mut isets[lo..hi]);
        }
        assert_eq!(out, want, "classify_batch at {batch}");
        assert_eq!(isets, want_isets, "classify_isets_batch at {batch}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn packed_layout_matches_oracle_through_updates_retrain_and_reload(
        seed in 0u64..u64::MAX,
        n in 40u32..160,
    ) {
        let cfg = NuevoMatchConfig {
            rqrmi: RqRmiParams { samples_init: 256, max_attempts: 2, ..Default::default() },
            min_iset_coverage: 0.0,
            partial_retrain: PartialRetrainPolicy::always(),
            ..Default::default()
        };
        for spec in specs() {
            let mut rng = SplitMix64::new(seed);
            let mut live: BTreeMap<RuleId, Rule> =
                (0..n).map(|i| (3 * i + 1, rule(&spec, 3 * i + 1, &mut rng))).collect();
            let set = RuleSet::new(spec.clone(), live.values().cloned().collect()).unwrap();
            let mut nm = NuevoMatch::build(&set, &cfg, LinearSearch::build).unwrap();
            prop_assert!(!nm.isets().is_empty());

            // Keys: corners and interiors of live boxes, plus uniform ones
            // (above 2^32 on the wide field).
            let stride = spec.len();
            let keys = |live: &BTreeMap<RuleId, Rule>, rng: &mut SplitMix64| -> Vec<u64> {
                let rules: Vec<&Rule> = live.values().collect();
                (0..260).flat_map(|i| {
                    let r = rules[rng.below(rules.len() as u64) as usize];
                    (0..stride)
                        .map(|d| match i % 3 {
                            0 => rng.below(spec.max_value(d)),
                            1 => r.fields[d].lo + rng.below(r.fields[d].hi - r.fields[d].lo + 1),
                            _ => r.fields[d].hi,
                        })
                        .collect::<Vec<u64>>()
                })
                .collect()
            };
            assert_agrees(&nm, &live, &keys(&live, &mut rng));

            // Tombstones, drift (same box re-inserted: the remainder copy
            // can be re-admitted) and fresh rules at the tied priorities.
            let mut batch = UpdateBatch::new();
            for id in live.keys().copied().collect::<Vec<_>>() {
                match rng.below(10) {
                    0 | 1 => {
                        live.remove(&id);
                        batch = batch.remove(id);
                    }
                    2 => batch = batch.modify(live[&id].clone()),
                    _ => {}
                }
            }
            for id in 0..6 {
                let fresh = rule(&spec, 3 * id, &mut rng);
                live.insert(fresh.id, fresh.clone());
                batch = batch.insert(fresh);
            }
            nm.apply(&batch);
            let probe = keys(&live, &mut rng);
            assert_agrees(&nm, &live, &probe);
            let (reloaded, _) = load_snapshot(&save_snapshot(&nm, 3), &LinearSearch::build).unwrap();
            assert_agrees(&reloaded, &live, &probe);

            if let Ok((patched, _)) = nm.partial_retrain(&cfg) {
                assert_agrees(&patched, &live, &probe);
                let image = save_snapshot(&patched, 4);
                let (reloaded, _) = load_snapshot(&image, &LinearSearch::build).unwrap();
                assert_agrees(&reloaded, &live, &probe);
            }
        }
    }
}
