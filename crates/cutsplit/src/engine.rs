//! The one decision-tree forest behind both tree engines.
//!
//! CutSplit and NeuroCuts are the same classifier: rules grouped by
//! smallness ([`crate::partition`]), one [`DTree`] per non-empty group, and a
//! lookup that visits the trees in ascending best priority with early exit.
//! Only the policy each tree is built with differs — [`CutSplitPolicy`]
//! cutting the dimensions its group is small in, or NeuroCuts' searched
//! [`ParamPolicy`](crate::policy::ParamPolicy) on every group
//! ([`crate::neurocuts`]) — so both are [`Forest`] under two names.

use crate::batched::classify_forest_batch;
use crate::partition::{ip_dims, partition};
use crate::policy::CutSplitPolicy;
use crate::tree::{limit, DTree, Policy, TreeStats};
use nm_common::classifier::{Classifier, MatchResult};
use nm_common::rule::{Priority, Rule};
use nm_common::ruleset::RuleSet;

/// A forest of decision trees searched in best-priority order: the CutSplit
/// and NeuroCuts classifiers.
pub struct Forest {
    trees: Vec<DTree>,
    /// Trees ordered by their best priority, for early exit across subsets.
    order: Vec<(Priority, u32)>,
    total_rules: usize,
    /// `"cs"` or `"nc"`.
    name: &'static str,
}

/// The CutSplit classifier (Li et al., INFOCOM 2018), built by
/// [`Forest::build`].
pub type CutSplit = Forest;

/// The NeuroCuts classifier (Liang et al., SIGCOMM 2019), built by
/// [`Forest::with_config`].
pub type NeuroCuts = Forest;

impl Forest {
    /// Builds CutSplit: each smallness subset's tree applies FiCuts along
    /// the IP dimensions its rules are small in, the big-big subset's only
    /// splits.
    pub fn build(set: &RuleSet) -> Self {
        let (d0, d1) = ip_dims(set.spec());
        Self::grow(set, "cs", partition(set.rules(), set.spec()), |g| CutSplitPolicy {
            cut_dims: match g {
                0 if d0 == d1 => vec![d0],
                0 => vec![d0, d1],
                1 => vec![d0],
                2 => vec![d1],
                _ => vec![], // big-big: split only
            },
        })
    }

    /// Builds one tree per non-empty group, group `g` with `policy(g)`, and
    /// orders the trees by best priority.
    pub(crate) fn grow<P: Policy>(
        set: &RuleSet,
        name: &'static str,
        groups: impl IntoIterator<Item = Vec<Rule>>,
        policy: impl Fn(usize) -> P,
    ) -> Self {
        let trees: Vec<DTree> = groups
            .into_iter()
            .enumerate()
            .filter(|(_, rules)| !rules.is_empty())
            .map(|(g, rules)| DTree::build(rules, set.spec(), &policy(g)))
            .collect();
        let mut order: Vec<(Priority, u32)> =
            trees.iter().enumerate().map(|(i, t)| (t.best_priority(), i as u32)).collect();
        order.sort_unstable();
        Self { trees, order, total_rules: set.len(), name }
    }

    /// One key's walk through the trees in best-priority order, under the
    /// caller's `floor`. Kept out of line: inlined beside the frontier sweep
    /// in `batch_lookup`, it ran about 10 % slower on ACL sets.
    #[inline(never)]
    fn lookup_one(&self, keys: &[u64], floor: Priority) -> Option<MatchResult> {
        let mut best = None;
        for &(tree_best, ti) in &self.order {
            let bound = limit(floor, best);
            if bound <= u64::from(tree_best) {
                break;
            }
            best = MatchResult::better(best, self.trees[ti as usize].walk(keys, bound));
        }
        best
    }

    /// Per-tree structural statistics.
    pub fn stats(&self) -> Vec<TreeStats> {
        self.trees.iter().map(DTree::stats).collect()
    }
}

impl Classifier for Forest {
    /// Level-synchronous batched descent over the trees (see
    /// [`crate::batched`]): the whole batch advances one tree level per
    /// iteration with the frontier's child nodes prefetched, instead of one
    /// full pointer chase per key. One key (the per-key entry points, a wire
    /// flush of one) walks the trees in order instead, where the frontier's
    /// scratch would cost more than the misses it overlaps.
    fn batch_lookup(
        &self,
        keys: &[u64],
        stride: usize,
        floors: Option<&[Priority]>,
        out: &mut [Option<MatchResult>],
    ) {
        if let [one] = out {
            *one = self.lookup_one(keys, floors.map_or(Priority::MAX, |f| f[0]));
        } else {
            classify_forest_batch(&self.trees, &self.order, keys, stride, floors, out);
        }
    }

    fn memory_bytes(&self) -> usize {
        self.trees.iter().map(DTree::memory_bytes).sum::<usize>()
            + self.order.len() * std::mem::size_of::<(Priority, u32)>()
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn num_rules(&self) -> usize {
        self.total_rules
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NeuroCutsConfig;
    use nm_common::{FieldsSpec, FiveTuple, LinearSearch, SplitMix64};

    /// CutSplit and a quickly searched NeuroCuts over `set`.
    fn both(set: &RuleSet) -> [Forest; 2] {
        let nc = NeuroCutsConfig { iterations: 6, sample: 256 };
        [CutSplit::build(set), NeuroCuts::with_config(set, nc)]
    }

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

    fn mixed_set(seed: u64, n: usize) -> RuleSet {
        let mut rng = SplitMix64::new(seed);
        let rules: Vec<_> = (0..n)
            .map(|i| {
                let mut ft = FiveTuple::new();
                match rng.below(4) {
                    0 => {
                        ft = ft
                            .src_prefix_raw(rng.next_u64() as u32, 24)
                            .dst_prefix_raw(rng.next_u64() as u32, 16 + rng.below(17) as u8);
                    }
                    1 => ft = ft.dst_port_exact(rng.below(65_536) as u16),
                    2 => {
                        let lo = rng.below(50_000) as u16;
                        ft = ft.src_port_range(lo, lo + rng.below(10_000) as u16);
                    }
                    _ => ft = ft.src_prefix_raw(rng.next_u64() as u32, 8).proto_exact(17),
                }
                ft.into_rule(i as u32, i as u32)
            })
            .collect();
        RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap()
    }

    fn random_key(rng: &mut SplitMix64) -> [u64; 5] {
        [
            rng.next_u64() & 0xffff_ffff,
            rng.next_u64() & 0xffff_ffff,
            rng.below(65_536),
            rng.below(65_536),
            rng.below(256),
        ]
    }

    #[test]
    fn agrees_with_oracle() {
        for (seed, set) in [(1u64, acl_like(1, 400)), (5, acl_like(5, 400)), (1, mixed_set(1, 400))]
        {
            let oracle = LinearSearch::build(&set);
            for forest in both(&set) {
                let mut rng = SplitMix64::new(seed + 7);
                for i in 0..1_500 {
                    let key = if i % 2 == 0 {
                        random_key(&mut rng)
                    } else {
                        let rule = set.rule_at(rng.below(set.len() as u64) as usize);
                        let mut k = [0u64; 5];
                        for (d, f) in rule.fields.iter().enumerate() {
                            k[d] = rng.range_inclusive(f.lo, f.hi);
                        }
                        k
                    };
                    assert_eq!(forest.classify(&key), oracle.classify(&key), "key {key:?}");
                }
            }
        }
    }

    #[test]
    fn floor_equivalence() {
        for set in [acl_like(3, 300), mixed_set(3, 200)] {
            for forest in both(&set) {
                let mut rng = SplitMix64::new(11);
                for _ in 0..300 {
                    let key = random_key(&mut rng);
                    let full = forest.classify(&key);
                    for floor in [0u32, 80, 199, 250] {
                        assert_eq!(
                            forest.classify_with_floor(&key, floor),
                            full.filter(|m| m.priority < floor),
                            "{}",
                            forest.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn builds_multiple_subset_trees() {
        let set = acl_like(9, 500);
        for forest in both(&set) {
            assert!(forest.stats().len() >= 2, "expected several smallness subsets");
            assert!(forest.memory_bytes() > 0);
            assert_eq!(forest.num_rules(), 500);
        }
        assert_eq!(both(&set).map(|f| f.name()), ["cs", "nc"]);
    }

    #[test]
    fn deterministic_build() {
        let set = mixed_set(4, 150);
        let cfg = NeuroCutsConfig { iterations: 6, sample: 128 };
        let a = NeuroCuts::with_config(&set, cfg);
        let b = NeuroCuts::with_config(&set, cfg);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.memory_bytes(), b.memory_bytes());
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
        let oracle = LinearSearch::build(&set);
        let [cs, nc] = both(&set);
        // NeuroCuts' top-mode partition needs two fields: one tree.
        assert_eq!(nc.stats().len(), 1);
        for _ in 0..1_000 {
            let key = [rng.next_u64() & 0xffff_ffff];
            assert_eq!(cs.classify(&key), oracle.classify(&key));
            assert_eq!(nc.classify(&key), oracle.classify(&key));
        }
    }

    /// A box spanning a whole 64-bit field: the cut's child width and child
    /// bounds are computed without `hi - lo + 1`, which overflows there.
    #[test]
    fn full_width_64_bit_field_is_cut() {
        let spec = FieldsSpec::single("key", 64);
        let rows: Vec<_> = (0..200u64)
            .map(|i| vec![nm_common::FieldRange::new(i << 40, (i << 40) + 1_000)])
            .collect();
        let set = RuleSet::from_ranges(spec, rows).unwrap();
        let oracle = LinearSearch::build(&set);
        let mut rng = SplitMix64::new(64);
        for forest in both(&set) {
            let nodes: usize = forest.stats().iter().map(|t| t.nodes).sum();
            assert!(nodes > 1, "{}: one {}-rule leaf", forest.name(), set.len());
            for i in 0..2_000u64 {
                let key = if i % 2 == 0 {
                    [rng.next_u64()]
                } else {
                    [(rng.below(200) << 40) + rng.below(1_200)]
                };
                assert_eq!(forest.classify(&key), oracle.classify(&key), "key {key:?}");
            }
        }
    }

    #[test]
    fn empty_set() {
        let set = RuleSet::new(FieldsSpec::five_tuple(), vec![]).unwrap();
        for forest in both(&set) {
            assert_eq!(forest.classify(&[0, 0, 0, 0, 0]), None);
            assert!(forest.stats().is_empty());
        }
    }
}
