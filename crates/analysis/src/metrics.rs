//! Rule-set diversity and centrality (§3.7).
//!
//! These two metrics predict whether NuevoMatch can accelerate a rule-set:
//!
//! * **Diversity** of a field = unique values (ranges) in it / total rules.
//!   "The rule-set diversity is an upper bound on the fraction of rules in
//!   the largest iSet of that field" — low diversity means iSet partitioning
//!   on that field cannot cover much.
//! * **Centrality** = the maximum number of rules that all share a common
//!   point. "The rule-set centrality is a lower bound on the number of iSets
//!   required for full coverage" — all those rules pairwise overlap in every
//!   field, so no two of them fit in the same iSet.

use nm_common::{RuleSet, SplitMix64};
use std::collections::HashSet;

/// Diversity of field `dim`: distinct ranges divided by rule count.
pub fn diversity(set: &RuleSet, dim: usize) -> f64 {
    if set.is_empty() {
        return 0.0;
    }
    let distinct: HashSet<(u64, u64)> =
        set.rules().iter().map(|r| (r.fields[dim].lo, r.fields[dim].hi)).collect();
    distinct.len() as f64 / set.len() as f64
}

/// Exact 1-D centrality (max stabbing number) of field `dim` via an
/// endpoint sweep: the maximum number of ranges containing one point.
pub fn centrality_1d(set: &RuleSet, dim: usize) -> usize {
    let mut events: Vec<(u64, i32)> = Vec::with_capacity(set.len() * 2);
    for r in set.rules() {
        let f = &r.fields[dim];
        events.push((f.lo, 1));
        events.push((f.hi, -1)); // close processed after opens at same point
    }
    // Opens before closes at equal coordinate: a range [x, x] must count.
    events.sort_by_key(|&(x, d)| (x, -d));
    let mut depth = 0i64;
    let mut best = 0i64;
    for (_, d) in events {
        depth += d as i64;
        best = best.max(depth);
    }
    best.max(0) as usize
}

/// Sampled multi-dimensional centrality: stab counts at rule corner points
/// (the maximum over box corners equals the true maximum for axis-aligned
/// boxes when all corners are enumerated; sampling `samples` corners gives a
/// lower-bound estimate that is exact for small sets).
pub fn centrality_sampled(set: &RuleSet, samples: usize, seed: u64) -> usize {
    if set.is_empty() {
        return 0;
    }
    let rules = set.rules();
    let mut rng = SplitMix64::new(seed);
    let n = rules.len();
    let stab = |point: &[u64]| rules.iter().filter(|r| r.matches(point)).count();
    let mut best = 0usize;
    if n * n <= samples {
        // Small set: every rule's low corner, exhaustively.
        for r in rules {
            best = best.max(stab(&r.witness_key()));
        }
    } else {
        for _ in 0..samples {
            let r = &rules[rng.below(n as u64) as usize];
            best = best.max(stab(&r.witness_key()));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_common::{FieldRange, FieldsSpec, RuleSet};

    fn set_1d(ranges: &[(u64, u64)]) -> RuleSet {
        let rows = ranges.iter().map(|&(lo, hi)| vec![FieldRange::new(lo, hi)]).collect();
        RuleSet::from_ranges(FieldsSpec::single("f", 16), rows).unwrap()
    }

    #[test]
    fn diversity_counts_distinct() {
        let set = set_1d(&[(0, 10), (0, 10), (5, 20), (30, 40)]);
        assert_eq!(diversity(&set, 0), 3.0 / 4.0);
    }

    #[test]
    fn centrality_sweep_exact() {
        // [0,10], [5,20], [7,8], [30,40]: point 7 stabs three ranges.
        let set = set_1d(&[(0, 10), (5, 20), (7, 8), (30, 40)]);
        assert_eq!(centrality_1d(&set, 0), 3);
        // Touching endpoints count: [0,5] and [5,9] share 5.
        let set = set_1d(&[(0, 5), (5, 9)]);
        assert_eq!(centrality_1d(&set, 0), 2);
        // Disjoint.
        let set = set_1d(&[(0, 1), (3, 4), (6, 7)]);
        assert_eq!(centrality_1d(&set, 0), 1);
    }

    #[test]
    fn centrality_lower_bounds_isets() {
        // §3.7: centrality c ⇒ at least c iSets. Build 5 nested ranges
        // (all share point 50) — centrality 5, and indeed 5 iSets needed.
        let set = set_1d(&[(50, 50), (45, 55), (40, 60), (0, 100), (30, 70)]);
        assert_eq!(centrality_1d(&set, 0), 5);
        let parts = nuevomatch_isets(&set);
        assert!(parts >= 5);
    }

    // Tiny local copy of the greedy partition count to avoid a dependency
    // cycle (nuevomatch depends on nothing here; analysis stays lean).
    fn nuevomatch_isets(set: &RuleSet) -> usize {
        let mut remaining: Vec<&nm_common::Rule> = set.rules().iter().collect();
        let mut isets = 0;
        while !remaining.is_empty() {
            let mut by_hi: Vec<&nm_common::Rule> = remaining.clone();
            by_hi.sort_by_key(|r| r.fields[0].hi);
            let mut last: Option<u64> = None;
            let mut picked = std::collections::HashSet::new();
            for r in by_hi {
                if last.map_or(true, |h| r.fields[0].lo > h) {
                    last = Some(r.fields[0].hi);
                    picked.insert(r.id);
                }
            }
            remaining.retain(|r| !picked.contains(&r.id));
            isets += 1;
        }
        isets
    }

    #[test]
    fn sampled_centrality_matches_exact_on_1d() {
        let set = set_1d(&[(0, 10), (5, 20), (7, 8), (30, 40)]);
        assert_eq!(centrality_sampled(&set, 10_000, 1), centrality_1d(&set, 0));
    }

    #[test]
    fn multi_dim_centrality_requires_common_point() {
        // Two rules overlapping in dim0 but not dim1: centrality 1.
        let spec = FieldsSpec::uniform(2, 8);
        let rows = vec![
            vec![FieldRange::new(0, 10), FieldRange::new(0, 10)],
            vec![FieldRange::new(5, 15), FieldRange::new(20, 30)],
        ];
        let set = RuleSet::from_ranges(spec, rows).unwrap();
        assert_eq!(centrality_sampled(&set, 1_000, 2), 1);
    }

    #[test]
    fn empty_set() {
        let set = RuleSet::new(FieldsSpec::single("f", 8), vec![]).unwrap();
        assert_eq!(diversity(&set, 0), 0.0);
        assert_eq!(centrality_1d(&set, 0), 0);
        assert_eq!(centrality_sampled(&set, 100, 3), 0);
    }
}
