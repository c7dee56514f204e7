//! Adversarial and boundary-condition stress tests across the stack.

use nm_common::{Classifier, FieldRange, FieldsSpec, FiveTuple, LinearSearch, RuleSet, SplitMix64};
use nm_tuplemerge::TupleMerge;
use nuevomatch::{NuevoMatch, NuevoMatchConfig, RqRmiParams};

fn fast_cfg() -> NuevoMatchConfig {
    NuevoMatchConfig {
        min_iset_coverage: 0.0,
        rqrmi: RqRmiParams { samples_init: 512, ..Default::default() },
        ..Default::default()
    }
}

/// f32 resolution stress: at the top of a 32-bit domain, adjacent keys are
/// 256 ULPs apart in key space but collapse to ~the same f32. Dense exact
/// rules up there force the error bounds to absorb quantisation collapse.
#[test]
fn rqrmi_survives_f32_quantisation_collapse() {
    let base = u32::MAX as u64 - 20_000;
    let ranges: Vec<FieldRange> = (0..10_000).map(|i| FieldRange::exact(base + i * 2)).collect();
    let model = nuevomatch::train_rqrmi(&ranges, 32, &RqRmiParams::default()).unwrap();
    for (idx, r) in ranges.iter().enumerate().step_by(7) {
        let (pred, err) = model.predict(r.lo);
        let dist = (pred as i64 - idx as i64).unsigned_abs();
        assert!(dist <= err as u64, "key {}: dist {dist} > bound {err}", r.lo);
    }
}

/// Rules and keys at the extreme domain corners (0 and 2^32−1, port 65535,
/// proto 255).
#[test]
fn domain_corners() {
    let rules = vec![
        FiveTuple::new().src_prefix_raw(0, 32).into_rule(0, 0),
        FiveTuple::new().src_prefix_raw(u32::MAX, 32).into_rule(1, 1),
        FiveTuple::new().dst_port_exact(65_535).proto_exact(255).into_rule(2, 2),
        FiveTuple::new().dst_port_exact(0).into_rule(3, 3),
    ];
    let set = RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap();
    let oracle = LinearSearch::build(&set);
    let nm = NuevoMatch::build(&set, &fast_cfg(), TupleMerge::build).unwrap();
    let keys: Vec<[u64; 5]> = vec![
        [0, 0, 0, 0, 0],
        [u32::MAX as u64, 0, 0, 0, 0],
        [u32::MAX as u64, u32::MAX as u64, 65_535, 65_535, 255],
        [5, 5, 5, 0, 5],
        [5, 5, 5, 65_535, 255],
    ];
    for key in keys {
        assert_eq!(nm.classify(&key), oracle.classify(&key), "key {key:?}");
    }
}

/// TupleMerge under extreme bucket pressure: thousands of rules under one
/// relaxed tuple, forcing repeated splits (and, for identical natural
/// tuples, the accept-long-bucket fallback).
#[test]
fn tuplemerge_split_cascade() {
    let mut rng = SplitMix64::new(1);
    let mut rules = Vec::new();
    // 2 000 exact dst IPs under the same /8 (split cascade refines the mask)
    for i in 0..2_000u32 {
        rules.push(
            FiveTuple::new()
                .dst_prefix_raw(0x0a00_0000 | rng.below(1 << 24) as u32, 32)
                .into_rule(i, i),
        );
    }
    // plus 100 rules with *identical* natural tuples and identical masked
    // bits (same /16 block, wildcard everything else): unsplittable bucket.
    for i in 0..100u32 {
        rules.push(
            FiveTuple::new()
                .src_prefix_raw(0xc0a8_0000, 16)
                .dst_port_exact(i as u16)
                .into_rule(2_000 + i, 2_000 + i),
        );
    }
    let set = RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap();
    let tm = TupleMerge::build(&set);
    let oracle = LinearSearch::build(&set);
    let mut rng = SplitMix64::new(2);
    for _ in 0..2_000 {
        let key = if rng.below(2) == 0 {
            [
                0xc0a8_0000u64 | rng.below(1 << 16),
                0x0a00_0000 | rng.below(1 << 24),
                rng.below(65_536),
                rng.below(100),
                rng.below(256),
            ]
        } else {
            [rng.next_u64() & 0xffff_ffff, rng.next_u64() & 0xffff_ffff, 0, 0, 6]
        };
        assert_eq!(tm.classify(&key), oracle.classify(&key), "key {key:?}");
    }
}

/// The ClassBench parser must reject garbage without panicking.
#[test]
fn parser_never_panics_on_garbage() {
    let good = "@1.2.3.4/32\t5.6.7.8/0\t0 : 65535\t80 : 80\t0x06/0xFF";
    let mutations: Vec<String> = (0..good.len())
        .flat_map(|i| {
            let mut b = good.as_bytes().to_vec();
            let deleted: String = {
                let mut c = b.clone();
                c.remove(i);
                String::from_utf8_lossy(&c).into_owned()
            };
            b[i] = b'!';
            vec![String::from_utf8_lossy(&b).into_owned(), deleted]
        })
        .collect();
    for m in mutations {
        let _ = nm_classbench::parse_classbench(&m); // Ok or Err, never panic
    }
    // Structured garbage.
    for bad in [
        "@",
        "@/",
        "@1.2.3.4/33 0.0.0.0/0 0 : 0 0 : 0 0x06/0xFF",
        "@1.2.3.4/32 0.0.0.0/0 2 : 1 0 : 0 0x06/0xFF",
        "@1.2.3.4/32 0.0.0.0/0 0 : 0 0 : 0 0x06",
        "@1.2.3.4/32 0.0.0.0/0 0 : 0 0 : 0 zz/0xFF",
        "@999.2.3.4/32 0.0.0.0/0 0 : 0 0 : 0 0x06/0xFF",
    ] {
        assert!(nm_classbench::parse_classbench(bad).is_err(), "accepted: {bad}");
    }
}

/// A rule-set where *every* rule overlaps every other (nested ranges):
/// centrality = n, one rule per iSet, everything lands in the remainder.
#[test]
fn fully_nested_rules_degrade_gracefully() {
    let n = 200u64;
    let rows: Vec<Vec<FieldRange>> = (0..n).map(|i| vec![FieldRange::new(i, 2 * n - i)]).collect();
    let set = RuleSet::from_ranges(FieldsSpec::single("f", 16), rows).unwrap();
    let cfg = NuevoMatchConfig { max_isets: 4, min_iset_coverage: 0.25, ..fast_cfg() };
    let nm = NuevoMatch::build(&set, &cfg, TupleMerge::build).unwrap();
    // Each iSet can hold exactly one nested rule -> coverage below the 25%
    // gate -> full fallback.
    assert!(nm.isets().is_empty());
    let oracle = LinearSearch::build(&set);
    for key in 0..2 * n {
        assert_eq!(nm.classify(&[key]), oracle.classify(&[key]));
    }
}

/// Equal priorities: the *winning priority* is guaranteed across engines;
/// which of the tied rules is reported is unspecified (see the `Classifier`
/// trait docs — early-termination floors use strict priority comparison, so
/// id-level tie-breaking cannot survive engine boundaries). Real rule-sets
/// use unique priorities, as OpenFlow effectively requires.
#[test]
fn priority_ties_agree_on_winning_priority() {
    let rules = vec![
        FiveTuple::new().dst_port_range(0, 100).into_rule(5, 9),
        FiveTuple::new().dst_port_range(50, 150).into_rule(2, 9), // same priority
        FiveTuple::new().dst_port_range(60, 70).into_rule(9, 9),  // same priority
    ];
    let set = RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap();
    let oracle = LinearSearch::build(&set);
    let nm = NuevoMatch::build(&set, &fast_cfg(), TupleMerge::build).unwrap();
    let tm = TupleMerge::build(&set);
    for port in [60u64, 65, 70] {
        let key = [0, 0, 0, port, 0];
        let want = oracle.classify(&key).unwrap();
        assert_eq!(want.priority, 9);
        assert_eq!(nm.classify(&key).unwrap().priority, 9);
        assert_eq!(tm.classify(&key).unwrap().priority, 9);
        // LinearSearch itself does guarantee the id tie-break.
        assert_eq!(want.rule, 2);
    }
}
