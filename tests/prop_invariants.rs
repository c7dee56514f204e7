//! Property-based tests over the workspace's core invariants.

use nm_common::Classifier;
use nm_common::{FieldRange, FieldsSpec, LinearSearch, RuleSet, SplitMix64};
use proptest::prelude::*;

/// Strategy: a sorted list of disjoint inclusive ranges in a 16-bit domain.
fn disjoint_ranges() -> impl Strategy<Value = Vec<FieldRange>> {
    proptest::collection::vec(0u64..65_536, 2..80).prop_map(|mut cuts| {
        cuts.sort_unstable();
        cuts.dedup();
        cuts.chunks_exact(2)
            .map(|c| FieldRange::new(c[0], c[1]))
            .scan(None::<u64>, |prev, r| {
                let keep = prev.map_or(true, |p| r.lo > p);
                if keep {
                    *prev = Some(r.hi);
                    Some(Some(r))
                } else {
                    Some(None)
                }
            })
            .flatten()
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The paper's Theorem A.13 as a property: for arbitrary disjoint range
    /// sets, every covered key's true index lies within predicted ± bound.
    #[test]
    fn rqrmi_bound_holds(ranges in disjoint_ranges()) {
        prop_assume!(!ranges.is_empty());
        let params = nuevomatch::RqRmiParams {
            samples_init: 128,
            max_attempts: 2,
            ..Default::default()
        };
        let model = nuevomatch::rqrmi::train_rqrmi(&ranges, 16, &params).unwrap();
        let mut rng = SplitMix64::new(1);
        for (idx, r) in ranges.iter().enumerate() {
            for key in [r.lo, r.hi, rng.range_inclusive(r.lo, r.hi)] {
                let (pred, err) = model.predict(key);
                let dist = (pred as i64 - idx as i64).unsigned_abs();
                prop_assert!(dist <= err as u64,
                    "key {key}: idx {idx} pred {pred} err {err}");
            }
        }
    }

    /// Interval scheduling maximisation is optimal (checked against brute
    /// force over all subsets for small inputs).
    #[test]
    fn interval_scheduling_is_optimal(ranges in proptest::collection::vec((0u64..256, 0u64..64), 1..10)) {
        let rows: Vec<Vec<FieldRange>> = ranges
            .iter()
            .map(|&(lo, w)| vec![FieldRange::new(lo, lo + w)])
            .collect();
        let set = RuleSet::from_ranges(FieldsSpec::single("f", 16), rows).unwrap();
        let ids: Vec<u32> = (0..set.len() as u32).collect();
        let greedy = nuevomatch::iset::largest_iset_in_dim(&set, &ids, 0).len();
        // Brute force: largest subset with pairwise-disjoint ranges.
        let n = set.len();
        let mut best = 0usize;
        for mask in 0u32..(1 << n) {
            let chosen: Vec<&FieldRange> = (0..n)
                .filter(|&i| mask & (1 << i) != 0)
                .map(|i| &set.rule(i as u32).fields[0])
                .collect();
            let ok = chosen.iter().enumerate().all(|(i, a)| {
                chosen.iter().skip(i + 1).all(|b| !a.overlaps(b))
            });
            if ok {
                best = best.max(chosen.len());
            }
        }
        prop_assert_eq!(greedy, best);
    }

    /// The covering prefix contains the whole range.
    #[test]
    fn covering_prefix_covers(lo in 0u64..65_536, w in 0u64..65_536) {
        let hi = (lo + w).min(65_535);
        let r = FieldRange::new(lo, hi);
        let (base, plen) = r.covering_prefix(16);
        let block = FieldRange::from_prefix(base, plen, 16);
        prop_assert!(block.covers(&r));
    }

    /// The tuple-table hashing invariant TupleMerge correctness rests on:
    /// every value inside a rule's range masks to the rule's own masked
    /// value under any tuple the rule fits in.
    #[test]
    fn tuple_mask_invariant(lo in 0u64..65_000, w in 0u64..512, probe in 0u64..512) {
        use nm_tuplemerge::tuple::Tuple;
        let hi = (lo + w).min(65_535);
        let r = FieldRange::new(lo, hi);
        let spec = FieldsSpec::single("port", 16);
        let natural = Tuple::natural(&[r], &spec);
        let v = lo + probe.min(hi - lo);
        // For every table length <= the natural length:
        for len in 0..=natural.0[0] {
            let table = Tuple(vec![len]);
            prop_assert_eq!(
                table.mask_value(0, v, 16),
                table.mask_value(0, r.lo, 16),
                "len {} value {}", len, v
            );
        }
    }

    /// NuevoMatch over arbitrary 2-field boxes agrees with linear search.
    #[test]
    fn nuevomatch_agrees_on_arbitrary_boxes(
        boxes in proptest::collection::vec((0u64..60_000, 0u64..8_000, 0u64..60_000, 0u64..8_000), 1..60),
        probes in proptest::collection::vec((0u64..65_536, 0u64..65_536), 40),
    ) {
        let rows: Vec<Vec<FieldRange>> = boxes
            .iter()
            .map(|&(lo0, w0, lo1, w1)| {
                vec![
                    FieldRange::new(lo0, (lo0 + w0).min(65_535)),
                    FieldRange::new(lo1, (lo1 + w1).min(65_535)),
                ]
            })
            .collect();
        let set = RuleSet::from_ranges(FieldsSpec::uniform(2, 16), rows).unwrap();
        let cfg = nuevomatch::NuevoMatchConfig {
            min_iset_coverage: 0.0,
            rqrmi: nuevomatch::RqRmiParams { samples_init: 128, max_attempts: 2, ..Default::default() },
            ..Default::default()
        };
        let nm = nuevomatch::NuevoMatch::build(&set, &cfg, LinearSearch::build).unwrap();
        let oracle = LinearSearch::build(&set);
        for &(a, b) in &probes {
            prop_assert_eq!(nm.classify(&[a, b]), oracle.classify(&[a, b]));
        }
        // Probe rule corners too (the adversarial points).
        for rule in set.rules().iter().take(20) {
            let k = rule.witness_key();
            prop_assert_eq!(nm.classify(&k), oracle.classify(&k));
        }
    }

    /// ClassBench parser round-trip through the serialiser.
    #[test]
    fn parser_roundtrip(seed in 0u64..500) {
        let set = nm_classbench::generate(nm_classbench::AppKind::Ipc, 40, seed);
        let text = nm_classbench::parse::to_classbench(&set);
        let back = nm_classbench::parse_classbench(&text).unwrap();
        prop_assert_eq!(back.len(), set.len());
        for (a, b) in set.rules().iter().zip(back.rules()) {
            prop_assert_eq!(&a.fields, &b.fields);
        }
    }

    /// TupleMerge under random update interleavings equals a fresh build.
    /// Ops flow through the transactional `UpdateBatch` path (one batch per
    /// op keeps the interleaving maximal).
    #[test]
    fn tuplemerge_updates_equal_rebuild(ops in proptest::collection::vec((0u64..3, 0u64..50), 1..40)) {
        use nm_common::{BatchUpdatable, FiveTuple, Rule, UpdateBatch};
        let base = nm_classbench::generate(nm_classbench::AppKind::Acl, 50, 77);
        let mut tm = nm_tuplemerge::TupleMerge::build(&base);
        let mut rules: Vec<Rule> = base.rules().to_vec();
        let mut next = 100u32;
        for &(kind, x) in &ops {
            match kind {
                0 => {
                    let id = x as u32;
                    tm.apply(&UpdateBatch::new().remove(id));
                    rules.retain(|r| r.id != id);
                }
                1 => {
                    let rule = FiveTuple::new()
                        .dst_port_exact((x * 997 % 65_536) as u16)
                        .into_rule(next, next);
                    next += 1;
                    tm.apply(&UpdateBatch::new().insert(rule.clone()));
                    rules.push(rule);
                }
                _ => {
                    let id = x as u32;
                    let rule = FiveTuple::new()
                        .src_port_range((x * 131 % 60_000) as u16, (x * 131 % 60_000) as u16 + 100)
                        .into_rule(id, id);
                    tm.apply(&UpdateBatch::new().modify(rule.clone()));
                    rules.retain(|r| r.id != id);
                    rules.push(rule);
                }
            }
        }
        let oracle = LinearSearch::from_rules(rules);
        let mut rng = SplitMix64::new(5);
        for _ in 0..100 {
            let key = [
                rng.next_u64() & 0xffff_ffff,
                rng.next_u64() & 0xffff_ffff,
                rng.below(65_536),
                rng.below(65_536),
                rng.below(256),
            ];
            prop_assert_eq!(tm.classify(&key), oracle.classify(&key));
        }
    }
}
