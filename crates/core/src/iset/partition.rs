//! Greedy iSet construction via interval-scheduling maximisation.
//!
//! For one field, finding the largest subset of rules with pairwise
//! non-overlapping ranges is exactly the classical interval scheduling
//! maximisation problem: sort by upper bound, repeatedly take the interval
//! with the smallest upper bound that does not overlap the previous pick
//! (§3.6.1, citing Kleinberg & Tardos). Across fields the paper's heuristic
//! is greedy: build the largest candidate in every field, keep the overall
//! largest, remove its rules, repeat.

use nm_common::rule::RuleId;
use nm_common::ruleset::RuleSet;

use crate::par;

/// One independent set: rules that do not overlap in field `dim`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ISet {
    /// The field whose projection is conflict-free.
    pub dim: usize,
    /// Member rules, sorted by their range's lower bound in `dim` —
    /// exactly the value-array order the RQ-RMI will index.
    pub rule_ids: Vec<RuleId>,
}

impl ISet {
    /// Number of member rules.
    pub fn len(&self) -> usize {
        self.rule_ids.len()
    }

    /// True when the iSet holds no rules.
    pub fn is_empty(&self) -> bool {
        self.rule_ids.is_empty()
    }
}

/// Output of [`partition_isets`].
#[derive(Clone, Debug)]
pub struct PartitionResult {
    /// Kept iSets, largest first.
    pub isets: Vec<ISet>,
    /// Rules not covered by any kept iSet.
    pub remainder: Vec<RuleId>,
    /// Total rules in the input (for coverage math).
    pub total: usize,
}

impl PartitionResult {
    /// Fraction of input rules covered by the kept iSets.
    pub fn coverage(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let covered: usize = self.isets.iter().map(ISet::len).sum();
        covered as f64 / self.total as f64
    }
}

/// Finds the largest conflict-free subset of the rules at `candidates` —
/// positions in `set.rules()` — in field `dim` (interval scheduling
/// maximisation). Returns their positions, sorted by range lower bound.
///
/// Intervals are taken in ascending `(hi, lo, id)` order, which is unique
/// per rule, so the pick is a function of the rules alone. Picks in
/// ascending `hi` that do not overlap also ascend in `lo`, so the pick order
/// is already the value-array order.
pub fn largest_iset_in_dim(set: &RuleSet, candidates: &[u32], dim: usize) -> Vec<u32> {
    let rules = set.rules();
    let mut intervals: Vec<(u64, u64, RuleId, u32)> = candidates
        .iter()
        .map(|&pos| {
            let rule = &rules[pos as usize];
            let r = rule.fields[dim];
            (r.hi, r.lo, rule.id, pos)
        })
        .collect();
    intervals.sort_unstable();
    let mut picked = Vec::new();
    let mut last_hi: Option<u64> = None;
    for (hi, lo, _, pos) in intervals {
        if last_hi.map_or(true, |prev| lo > prev) {
            picked.push(pos);
            last_hi = Some(hi);
        }
    }
    picked
}

/// Partitions a rule-set into at most `max_isets` iSets plus a remainder
/// (the paper's greedy heuristic, §3.6.1).
///
/// Construction stops early once the best remaining candidate covers less
/// than `min_coverage` of the *input* rules — small iSets cost an RQ-RMI
/// query each without offloading enough of the remainder (§3.7).
///
/// Works on rule positions throughout; a round scans every field at once
/// and keeps the first of the largest candidates.
pub fn partition_isets(set: &RuleSet, max_isets: usize, min_coverage: f64) -> PartitionResult {
    let total = set.len();
    let rules = set.rules();
    let dims: Vec<usize> = (0..set.num_fields()).collect();
    let mut remaining: Vec<u32> = (0..total as u32).collect();
    // One bit per position: taken by a kept iSet.
    let mut taken = vec![0u64; total.div_ceil(64)];
    let mut isets = Vec::new();

    while isets.len() < max_isets && !remaining.is_empty() {
        let mut picks = par::map(&dims, |&dim| largest_iset_in_dim(set, &remaining, dim))
            .into_iter()
            .enumerate();
        let mut best = picks.next().expect("at least one field");
        for (dim, picked) in picks {
            if picked.len() > best.1.len() {
                best = (dim, picked);
            }
        }
        let (dim, picked) = best;
        if (picked.len() as f64) < min_coverage * total as f64 || picked.is_empty() {
            break;
        }
        for &pos in &picked {
            taken[pos as usize / 64] |= 1 << (pos % 64);
        }
        remaining.retain(|&pos| taken[pos as usize / 64] & (1 << (pos % 64)) == 0);
        isets.push(ISet {
            dim,
            rule_ids: picked.iter().map(|&pos| rules[pos as usize].id).collect(),
        });
    }

    let remainder = remaining.iter().map(|&pos| rules[pos as usize].id).collect();
    PartitionResult { isets, remainder, total }
}

/// Greedy re-admission for partial retrains (§3.9 refinement): which of
/// `candidates` — `(rule id, lo, hi)` projections in the iSet's field — fit
/// into the occupied interval set (`occ_los`/`occ_his`, sorted, disjoint)
/// without overlapping it or each other.
///
/// Same interval-scheduling idea as [`largest_iset_in_dim`]: candidates are
/// taken in ascending `(hi, lo, id)` order so the pick maximises the number
/// admitted; occupied intervals are immovable. Returns the admitted ids (the
/// rest stay in the remainder — admission is best-effort, never required).
pub fn admit_into_iset(
    occ_los: &[u64],
    occ_his: &[u64],
    candidates: &[(RuleId, u64, u64)],
) -> Vec<RuleId> {
    debug_assert_eq!(occ_los.len(), occ_his.len());
    let mut order: Vec<(u64, u64, RuleId)> =
        candidates.iter().map(|&(id, lo, hi)| (hi, lo, id)).collect();
    order.sort_unstable();
    let mut admitted = Vec::new();
    // Upper bound of the last admitted candidate: candidates are processed
    // in ascending hi, so overlap among picks reduces to this single bound.
    let mut last_admitted_hi: Option<u64> = None;
    for (hi, lo, id) in order {
        if last_admitted_hi.is_some_and(|prev| lo <= prev) {
            continue;
        }
        // Overlap against the occupied set: the first occupied interval
        // whose hi is >= lo must start after our hi.
        let i = occ_his.partition_point(|&h| h < lo);
        if i < occ_los.len() && occ_los[i] <= hi {
            continue;
        }
        admitted.push(id);
        last_admitted_hi = Some(hi);
    }
    admitted
}

/// Cumulative coverage after 1..=k iSets with no minimum-coverage cutoff —
/// the Table 2 measurement.
pub fn coverage_curve(set: &RuleSet, k: usize) -> Vec<f64> {
    let result = partition_isets(set, k, 0.0);
    let total = set.len().max(1) as f64;
    let mut out = Vec::with_capacity(k);
    let mut covered = 0usize;
    for i in 0..k {
        covered += result.isets.get(i).map_or(0, ISet::len);
        out.push(covered as f64 / total);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_common::{FieldRange, FieldSpec, FieldsSpec, RuleSet};

    fn figure2_set() -> RuleSet {
        // The paper's running example (Figure 2): IP address x port.
        let ip = |a: u64, b: u64, c: u64, d: u64| (a << 24) | (b << 16) | (c << 8) | d;
        let spec = FieldsSpec::new(vec![FieldSpec::new("ip", 32), FieldSpec::new("port", 16)]);
        let rows = vec![
            vec![FieldRange::from_prefix(ip(10, 10, 0, 0), 16, 32), FieldRange::new(10, 18)], // R0
            vec![FieldRange::from_prefix(ip(10, 10, 1, 0), 24, 32), FieldRange::new(15, 25)], // R1
            vec![FieldRange::from_prefix(ip(10, 0, 0, 0), 8, 32), FieldRange::new(5, 8)],     // R2
            vec![FieldRange::from_prefix(ip(10, 10, 3, 0), 24, 32), FieldRange::new(7, 20)],  // R3
            vec![FieldRange::exact(ip(10, 10, 3, 100)), FieldRange::exact(19)],               // R4
        ];
        RuleSet::from_ranges(spec, rows).unwrap()
    }

    #[test]
    fn figure6_partition() {
        // The paper's Figure 6: two iSets cover all five rules —
        // {R0, R2, R4} by port and {R1, R3} by IP.
        let set = figure2_set();
        let result = partition_isets(&set, 8, 0.0);
        assert_eq!(result.isets.len(), 2);
        assert_eq!(result.coverage(), 1.0);
        assert!(result.remainder.is_empty());
        let mut first = result.isets[0].rule_ids.clone();
        first.sort_unstable();
        assert_eq!(result.isets[0].dim, 1, "first iSet is by port");
        assert_eq!(first, vec![0, 2, 4]);
        let mut second = result.isets[1].rule_ids.clone();
        second.sort_unstable();
        assert_eq!(result.isets[1].dim, 0, "second iSet is by IP");
        assert_eq!(second, vec![1, 3]);
    }

    #[test]
    fn isets_are_internally_conflict_free() {
        let set = figure2_set();
        let result = partition_isets(&set, 8, 0.0);
        for iset in &result.isets {
            for pair in iset.rule_ids.windows(2) {
                let a = &set.rule(pair[0]).fields[iset.dim];
                let b = &set.rule(pair[1]).fields[iset.dim];
                assert!(!a.overlaps(b), "iSet dim {} rules {:?} overlap", iset.dim, pair);
            }
        }
    }

    #[test]
    fn partition_is_a_partition() {
        let set = figure2_set();
        let result = partition_isets(&set, 8, 0.0);
        let mut all: Vec<RuleId> = result
            .isets
            .iter()
            .flat_map(|i| i.rule_ids.iter().copied())
            .chain(result.remainder.iter().copied())
            .collect();
        all.sort_unstable();
        let expect: Vec<RuleId> = (0..set.len() as RuleId).collect();
        assert_eq!(all, expect);
    }

    #[test]
    fn min_coverage_cuts_small_isets() {
        let set = figure2_set();
        // Requiring 50% coverage keeps only the 3-of-5 port iSet.
        let result = partition_isets(&set, 8, 0.5);
        assert_eq!(result.isets.len(), 1);
        assert_eq!(result.remainder.len(), 2);
    }

    #[test]
    fn max_isets_respected() {
        let set = figure2_set();
        let result = partition_isets(&set, 1, 0.0);
        assert_eq!(result.isets.len(), 1);
        assert_eq!(result.remainder.len(), 2);
    }

    #[test]
    fn coverage_curve_is_monotone() {
        let set = figure2_set();
        let curve = coverage_curve(&set, 4);
        assert_eq!(curve.len(), 4);
        for w in curve.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!((curve[1] - 1.0).abs() < 1e-12, "two iSets suffice: {curve:?}");
    }

    #[test]
    fn duplicate_ranges_cannot_share_an_iset() {
        let spec = FieldsSpec::uniform(1, 8);
        let rows = vec![
            vec![FieldRange::new(0, 10)],
            vec![FieldRange::new(0, 10)],
            vec![FieldRange::new(20, 30)],
        ];
        let set = RuleSet::from_ranges(spec, rows).unwrap();
        let picked = largest_iset_in_dim(&set, &[0, 1, 2], 0);
        assert_eq!(picked.len(), 2, "one copy of the duplicate plus the disjoint rule");
    }

    #[test]
    fn admit_into_iset_respects_occupied_and_self_overlap() {
        // Occupied: [10,20], [40,50].
        let occ_los = [10u64, 40];
        let occ_his = [20u64, 50];
        let candidates = vec![
            (1u32, 22, 30), // fits between the occupied intervals
            (2, 25, 35),    // overlaps candidate 1 — loses (larger hi)
            (3, 15, 18),    // inside occupied — rejected
            (4, 51, 60),    // fits after the last occupied interval
            (5, 38, 45),    // straddles occupied [40,50] — rejected
            (6, 0, 9),      // fits before everything
        ];
        let mut admitted = admit_into_iset(&occ_los, &occ_his, &candidates);
        admitted.sort_unstable();
        assert_eq!(admitted, vec![1, 4, 6]);
        // Empty occupied set: pure interval scheduling.
        let all = admit_into_iset(&[], &[], &candidates);
        assert!(all.len() >= 4, "{all:?}");
        // No candidates: nothing admitted.
        assert!(admit_into_iset(&occ_los, &occ_his, &[]).is_empty());
    }

    #[test]
    fn empty_set() {
        let spec = FieldsSpec::uniform(1, 8);
        let set = RuleSet::from_ranges(spec, vec![]).unwrap();
        let result = partition_isets(&set, 4, 0.25);
        assert!(result.isets.is_empty());
        assert_eq!(result.coverage(), 0.0);
    }
}
