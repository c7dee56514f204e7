//! The CutSplit classifier: smallness partition + one tree per subset.

use crate::partition::{partition, Partition};
use crate::policy::CutSplitPolicy;
use crate::tree::{DTree, TreeConfig, TreeStats};
use nm_common::classifier::{Classifier, MatchResult};
use nm_common::rule::Priority;
use nm_common::ruleset::RuleSet;

/// CutSplit parameters (paper §5.1: `binth = 8`).
#[derive(Clone, Copy, Debug)]
pub struct CutSplitConfig {
    /// Maximum rules per leaf.
    pub binth: usize,
    /// Smallness threshold: a rule is small in an IP dim when it is at
    /// least a `/threshold` prefix (CutSplit uses 16).
    pub small_threshold: u8,
    /// Dimensions used for the smallness partition (src-ip, dst-ip for
    /// 5-tuple sets; for other schemas pass the two widest fields).
    pub ip_dims: (usize, usize),
    /// Tree build limits.
    pub tree: TreeConfig,
}

impl Default for CutSplitConfig {
    fn default() -> Self {
        Self { binth: 8, small_threshold: 16, ip_dims: (0, 1), tree: TreeConfig::default() }
    }
}

/// The CutSplit decision-tree classifier.
pub struct CutSplit {
    trees: Vec<DTree>,
    /// Trees ordered by their best priority, for early exit across subsets.
    order: Vec<(Priority, u32)>,
    total_rules: usize,
}

impl CutSplit {
    /// Builds with default parameters.
    pub fn build(set: &RuleSet) -> Self {
        Self::with_config(set, CutSplitConfig::default())
    }

    /// Builds with explicit parameters.
    pub fn with_config(set: &RuleSet, cfg: CutSplitConfig) -> Self {
        let spec = set.spec();
        let nf = spec.len();
        let (d0, d1) = if nf == 1 { (0, 0) } else { cfg.ip_dims };
        let parts: Partition = partition(set.rules(), spec, d0, d1, cfg.small_threshold);
        let mut tree_cfg = cfg.tree;
        tree_cfg.binth = cfg.binth;

        let mut trees = Vec::new();
        for (g, rules) in parts.groups.into_iter().enumerate() {
            if rules.is_empty() {
                continue;
            }
            let cut_dims = match g {
                0 => {
                    if d0 == d1 {
                        vec![d0]
                    } else {
                        vec![d0, d1]
                    }
                }
                1 => vec![d0],
                2 => vec![d1],
                _ => vec![], // big-big: split only
            };
            let policy = CutSplitPolicy::for_subset(cut_dims, cfg.binth);
            trees.push(DTree::build(rules, spec, &policy, &tree_cfg));
        }
        let mut order: Vec<(Priority, u32)> =
            trees.iter().enumerate().map(|(i, t)| (t.best_priority(), i as u32)).collect();
        order.sort_unstable();
        Self { trees, order, total_rules: set.len() }
    }

    /// Per-tree structural statistics.
    pub fn stats(&self) -> Vec<TreeStats> {
        self.trees.iter().map(DTree::stats).collect()
    }
}

impl Classifier for CutSplit {
    fn classify(&self, key: &[u64]) -> Option<MatchResult> {
        self.classify_with_floor(key, Priority::MAX)
    }

    fn classify_with_floor(&self, key: &[u64], floor: Priority) -> Option<MatchResult> {
        let mut best: Option<MatchResult> = None;
        for &(tree_best, ti) in &self.order {
            let bound = best.map_or(floor, |b| b.priority.min(floor));
            if bound <= tree_best {
                break;
            }
            let cand = self.trees[ti as usize].classify_floor(key, bound);
            best = MatchResult::better(best, cand);
        }
        best.filter(|m| m.priority < floor)
    }

    /// Level-synchronous batched descent over the subset trees (see
    /// [`crate::batched`]): the whole batch advances one tree level per
    /// iteration with the frontier's child nodes prefetched, instead of one
    /// full pointer chase per key.
    fn batch_lookup(
        &self,
        keys: &[u64],
        stride: usize,
        floors: Option<&[Priority]>,
        out: &mut [Option<MatchResult>],
    ) {
        crate::batched::classify_forest_batch(&self.trees, &self.order, keys, stride, floors, out);
    }

    fn memory_bytes(&self) -> usize {
        self.trees.iter().map(DTree::memory_bytes).sum::<usize>()
            + self.order.len() * std::mem::size_of::<(Priority, u32)>()
    }

    fn name(&self) -> &'static str {
        "cs"
    }

    fn num_rules(&self) -> usize {
        self.total_rules
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_common::{FieldsSpec, FiveTuple, LinearSearch, SplitMix64};

    fn acl_like(seed: u64, n: usize) -> RuleSet {
        let mut rng = SplitMix64::new(seed);
        let rules: Vec<_> = (0..n)
            .map(|i| {
                let mut ft = FiveTuple::new();
                match rng.below(5) {
                    0 => {
                        ft = ft
                            .src_prefix_raw(rng.next_u64() as u32, 24 + rng.below(9) as u8)
                            .dst_prefix_raw(rng.next_u64() as u32, 24)
                            .proto_exact(6);
                    }
                    1 => {
                        ft = ft
                            .dst_prefix_raw(rng.next_u64() as u32, 16)
                            .dst_port_exact(rng.below(1024) as u16);
                    }
                    2 => {
                        ft = ft.src_prefix_raw(rng.next_u64() as u32, 8);
                    }
                    3 => {
                        let lo = rng.below(30_000) as u16;
                        ft = ft.dst_port_range(lo, lo + rng.below(20_000) as u16);
                    }
                    _ => {}
                }
                ft.into_rule(i as u32, i as u32)
            })
            .collect();
        RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap()
    }

    #[test]
    fn agrees_with_oracle() {
        for seed in [1u64, 5] {
            let set = acl_like(seed, 400);
            let cs = CutSplit::build(&set);
            let oracle = LinearSearch::build(&set);
            let mut rng = SplitMix64::new(seed + 7);
            for i in 0..1_500 {
                let key = if i % 2 == 0 {
                    [
                        rng.next_u64() & 0xffff_ffff,
                        rng.next_u64() & 0xffff_ffff,
                        rng.below(65_536),
                        rng.below(65_536),
                        rng.below(256),
                    ]
                } else {
                    let rule = set.rule_at(rng.below(set.len() as u64) as usize);
                    let mut k = [0u64; 5];
                    for (d, f) in rule.fields.iter().enumerate() {
                        k[d] = rng.range_inclusive(f.lo, f.hi);
                    }
                    k
                };
                assert_eq!(cs.classify(&key), oracle.classify(&key), "key {key:?}");
            }
        }
    }

    #[test]
    fn floor_equivalence() {
        let set = acl_like(3, 300);
        let cs = CutSplit::build(&set);
        let mut rng = SplitMix64::new(11);
        for _ in 0..300 {
            let key = [
                rng.next_u64() & 0xffff_ffff,
                rng.next_u64() & 0xffff_ffff,
                rng.below(65_536),
                rng.below(65_536),
                rng.below(256),
            ];
            let full = cs.classify(&key);
            for floor in [0u32, 100, 250] {
                assert_eq!(
                    cs.classify_with_floor(&key, floor),
                    full.filter(|m| m.priority < floor)
                );
            }
        }
    }

    #[test]
    fn builds_multiple_subset_trees() {
        let set = acl_like(9, 500);
        let cs = CutSplit::build(&set);
        assert!(cs.stats().len() >= 2, "expected several smallness subsets");
        assert!(cs.memory_bytes() > 0);
        assert_eq!(cs.num_rules(), 500);
    }

    #[test]
    fn single_field_schema_works() {
        // Stanford-like: one dst-ip field.
        let spec = FieldsSpec::single("dst-ip", 32);
        let mut rng = SplitMix64::new(4);
        let rows: Vec<_> = (0..300)
            .map(|_| {
                vec![nm_common::FieldRange::from_prefix(
                    rng.next_u64() & 0xffff_ffff,
                    8 + rng.below(25) as u8,
                    32,
                )]
            })
            .collect();
        let set = RuleSet::from_ranges(spec, rows).unwrap();
        let cs = CutSplit::build(&set);
        let oracle = LinearSearch::build(&set);
        for _ in 0..1_000 {
            let key = [rng.next_u64() & 0xffff_ffff];
            assert_eq!(cs.classify(&key), oracle.classify(&key));
        }
    }

    #[test]
    fn empty_set() {
        let set = RuleSet::new(FieldsSpec::five_tuple(), vec![]).unwrap();
        let cs = CutSplit::build(&set);
        assert_eq!(cs.classify(&[0, 0, 0, 0, 0]), None);
        assert!(cs.stats().is_empty());
    }
}
