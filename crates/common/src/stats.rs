//! Rule-set structure census.
//!
//! The ClassBench paper characterises rule-sets by per-field structure:
//! port-class mix and protocol census among them. This module computes
//! those two from any [`RuleSet`] — used by `nmctl inspect` and by tests
//! that validate the generators against their target profiles.

use crate::range::FieldRange;
use crate::ruleset::RuleSet;

/// Port-class census for a 16-bit field (the ClassBench taxonomy).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PortClassCensus {
    /// Full wildcard `0:65535`.
    pub wildcard: usize,
    /// Exactly `1024:65535`.
    pub high: usize,
    /// Exactly `0:1023`.
    pub low: usize,
    /// Single value.
    pub exact: usize,
    /// Anything else.
    pub arbitrary: usize,
}

impl PortClassCensus {
    /// Classifies one range.
    pub fn classify(r: &FieldRange) -> &'static str {
        if r.is_wildcard(16) {
            "WC"
        } else if r.lo == 1024 && r.hi == 65_535 {
            "HI"
        } else if r.lo == 0 && r.hi == 1_023 {
            "LO"
        } else if r.lo == r.hi {
            "EM"
        } else {
            "AR"
        }
    }

    /// Censuses field `dim` (must be 16-bit) of a rule-set.
    pub fn of(set: &RuleSet, dim: usize) -> PortClassCensus {
        let mut c = PortClassCensus::default();
        for rule in set.rules() {
            match Self::classify(&rule.fields[dim]) {
                "WC" => c.wildcard += 1,
                "HI" => c.high += 1,
                "LO" => c.low += 1,
                "EM" => c.exact += 1,
                _ => c.arbitrary += 1,
            }
        }
        c
    }

    /// Total rules censused.
    pub fn total(&self) -> usize {
        self.wildcard + self.high + self.low + self.exact + self.arbitrary
    }
}

/// Protocol census for a 5-tuple set (field 4): `(value, count)` sorted by
/// count, with 256 standing for the wildcard.
pub fn protocol_census(set: &RuleSet, dim: usize) -> Vec<(u16, usize)> {
    let bits = set.spec().bits(dim);
    let mut counts: std::collections::HashMap<u16, usize> = std::collections::HashMap::new();
    for rule in set.rules() {
        let r = &rule.fields[dim];
        let key = if r.is_wildcard(bits) {
            256
        } else if r.lo == r.hi {
            r.lo as u16
        } else {
            257 // ranged protocol — exotic but representable
        };
        *counts.entry(key).or_default() += 1;
    }
    let mut out: Vec<(u16, usize)> = counts.into_iter().collect();
    out.sort_by_key(|&(v, c)| (std::cmp::Reverse(c), v));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fivetuple::FiveTuple;
    use crate::ruleset::FieldsSpec;

    fn sample() -> RuleSet {
        let rules = vec![
            FiveTuple::new()
                .src_prefix([10, 0, 0, 0], 8)
                .dst_port_exact(80)
                .proto_exact(6)
                .into_rule(0, 0),
            FiveTuple::new().dst_port_range(1024, 65_535).proto_exact(6).into_rule(1, 1),
            FiveTuple::new().dst_port_range(0, 1_023).proto_exact(17).into_rule(2, 2),
            FiveTuple::new().dst_port_range(100, 200).into_rule(3, 3),
            FiveTuple::new().into_rule(4, 4),
        ];
        RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap()
    }

    #[test]
    fn port_census_classifies_all_five_classes() {
        let set = sample();
        let c = PortClassCensus::of(&set, crate::fivetuple::DST_PORT);
        assert_eq!(c.exact, 1);
        assert_eq!(c.high, 1);
        assert_eq!(c.low, 1);
        assert_eq!(c.arbitrary, 1);
        assert_eq!(c.wildcard, 1);
        assert_eq!(c.total(), 5);
    }

    #[test]
    fn protocol_census_counts() {
        let set = sample();
        let census = protocol_census(&set, crate::fivetuple::PROTO);
        // TCP twice, UDP once, wildcard twice.
        assert!(census.contains(&(6, 2)));
        assert!(census.contains(&(17, 1)));
        assert!(census.contains(&(256, 2)));
    }

    #[test]
    fn empty_set_is_fine() {
        let set = RuleSet::new(FieldsSpec::five_tuple(), vec![]).unwrap();
        assert_eq!(PortClassCensus::of(&set, crate::fivetuple::DST_PORT).total(), 0);
        assert!(protocol_census(&set, 4).is_empty());
    }
}
