//! The size-based pre-partitioning both tree engines start from.
//!
//! A rule is *small* in a dimension when its range covers at most
//! `2^(bits − 16)` values — i.e. it is at least a `/16` prefix (CutSplit's
//! threshold). Cutting along a dimension where every rule is small produces
//! little replication, which is CutSplit's whole premise: partition first so
//! each subset has dimensions that are safe to cut.

use nm_common::rule::Rule;
use nm_common::ruleset::FieldsSpec;

/// A rule is small in a dimension when it is at least a `/SMALL_PREFIX`.
const SMALL_PREFIX: u8 = 16;

/// The two dimensions the partition looks at: source and destination IP
/// (fields 0 and 1) — or field 0 twice in a one-field schema.
pub fn ip_dims(spec: &FieldsSpec) -> (usize, usize) {
    if spec.len() == 1 {
        (0, 0)
    } else {
        (0, 1)
    }
}

/// True when `rule` is small in `dim`.
fn is_small(rule: &Rule, dim: usize, spec: &FieldsSpec) -> bool {
    let bits = spec.bits(dim);
    if SMALL_PREFIX >= bits {
        return rule.fields[dim].width() == 1;
    }
    rule.fields[dim].width() <= 1u64 << (bits - SMALL_PREFIX)
}

/// Splits rules into the four smallness subsets over [`ip_dims`], in the
/// order small-small, small-big, big-small, big-big (small or big in the
/// first dimension, then in the second).
pub fn partition(rules: &[Rule], spec: &FieldsSpec) -> [Vec<Rule>; 4] {
    let (dim0, dim1) = ip_dims(spec);
    let mut groups: [Vec<Rule>; 4] = Default::default();
    for rule in rules {
        let g = match (is_small(rule, dim0, spec), is_small(rule, dim1, spec)) {
            (true, true) => 0,
            (true, false) => 1,
            (false, true) => 2,
            (false, false) => 3,
        };
        groups[g].push(rule.clone());
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_common::{FieldsSpec, FiveTuple};

    #[test]
    fn partitions_by_prefix_length() {
        let spec = FieldsSpec::five_tuple();
        let rules = vec![
            FiveTuple::new()
                .src_prefix([10, 0, 0, 0], 24)
                .dst_prefix([10, 0, 0, 0], 24)
                .into_rule(0, 0),
            FiveTuple::new().src_prefix([10, 0, 0, 0], 24).into_rule(1, 1), // dst wildcard
            FiveTuple::new().dst_prefix([10, 0, 0, 0], 24).into_rule(2, 2), // src wildcard
            FiveTuple::new().into_rule(3, 3),                               // both wildcard
        ];
        let groups = partition(&rules, &spec);
        for (g, group) in groups.iter().enumerate() {
            let ids: Vec<u32> = group.iter().map(|r| r.id).collect();
            assert_eq!(ids, [g as u32], "group {g}");
        }
    }

    #[test]
    fn threshold_boundary() {
        let spec = FieldsSpec::five_tuple();
        // A /16 prefix is exactly small; /15 is big.
        let r16 = FiveTuple::new().src_prefix([10, 1, 0, 0], 16).into_rule(0, 0);
        let r15 = FiveTuple::new().src_prefix([10, 0, 0, 0], 15).into_rule(1, 1);
        assert!(is_small(&r16, 0, &spec));
        assert!(!is_small(&r15, 0, &spec));
    }
}
