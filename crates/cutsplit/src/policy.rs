//! Tree-construction policies: CutSplit's fixed one and NeuroCuts'
//! searchable one. Both finish a node the same way, with a HyperSplit
//! threshold split on its most discriminating dimension.

use crate::tree::{BuildAction, NodeCtx, Policy, BINTH};
use nm_common::SplitMix64;

/// CutSplit's per-subset policy: FiCuts (equal-width cuts, fan-out 16)
/// along the dimensions where the subset's rules are small, switching to
/// HyperSplit threshold splits once a node holds ≤ `8 × binth` rules, where
/// splits finish the job cheaply.
pub struct CutSplitPolicy {
    /// Dimensions safe to cut (the subset's "small" dims). Empty for the
    /// big-big subset, which goes straight to splitting.
    pub cut_dims: Vec<usize>,
}

impl CutSplitPolicy {
    /// Node size at which cutting hands over to splitting.
    const SPLIT_BELOW: usize = BINTH * 8;
    /// log2 of the fan-out per cut.
    const CUT_BITS: u8 = 4;

    /// A threshold split on the dimension with the most distinct endpoint
    /// values — the classic HiCuts/HyperSplit discrimination heuristic — or
    /// a leaf when no dimension discriminates.
    fn split_most_discriminating(ctx: &NodeCtx<'_>) -> BuildAction {
        let mut best: Option<(usize, usize)> = None;
        for d in 0..ctx.spec.len() {
            let (lo, hi) = ctx.bounds[d];
            if lo == hi {
                continue;
            }
            let mut endpoints: Vec<u64> =
                ctx.rules.iter().map(|&id| ctx.all[id as usize].fields[d].hi.min(hi)).collect();
            endpoints.sort_unstable();
            endpoints.dedup();
            let distinct = endpoints.len();
            if distinct > 1 && best.map_or(true, |(_, b)| distinct > b) {
                best = Some((d, distinct));
            }
        }
        match best {
            Some((dim, _)) => BuildAction::Split { dim },
            None => BuildAction::Leaf,
        }
    }
}

impl Policy for CutSplitPolicy {
    fn decide(&self, ctx: &NodeCtx<'_>) -> BuildAction {
        // Phase 1: FiCuts along small dims while the node is large.
        if ctx.rules.len() > Self::SPLIT_BELOW {
            // Cut the widest remaining small dim (most resolution left).
            if let Some(&dim) = self
                .cut_dims
                .iter()
                .filter(|&&d| ctx.bounds[d].1 > ctx.bounds[d].0)
                .max_by_key(|&&d| ctx.bounds[d].1 - ctx.bounds[d].0)
            {
                return BuildAction::Cut { dim, bits: Self::CUT_BITS };
            }
        }
        // Phase 2: HyperSplit on whichever dim still discriminates.
        Self::split_most_discriminating(ctx)
    }
}

/// Number of depth buckets in [`ParamPolicy`]'s parameterisation.
pub const BUCKETS: usize = 3;

/// The parameterised tree-construction policy (the NeuroCuts action space).
///
/// At each node NeuroCuts' agent picks a dimension and a cut arity from
/// {2, 4, 8, 16, 32}. This policy encodes those choices as a flat parameter
/// vector so a derivative-free search ([`crate::search`]) can optimise it:
///
/// * `dim_pref[dim][bucket]` — preference score for cutting `dim` at nodes
///   in depth bucket `bucket` (0, 1, 2+). The effective score adds a
///   discriminability term (distinct endpoints) so parameters modulate
///   rather than fight the data.
/// * `cut_bits[bucket]` — cut arity (log2) per depth bucket.
/// * `split_below` — node size under which the policy switches from cuts to
///   binary threshold splits (HyperSplit-style finishing, which NeuroCuts'
///   action space approximates with arity-2 cuts).
#[derive(Clone, Debug, PartialEq)]
pub struct ParamPolicy {
    /// Per-dimension, per-bucket cut preference.
    pub dim_pref: Vec<[f32; BUCKETS]>,
    /// Per-bucket cut arity (log2 children), each in 1..=5.
    pub cut_bits: [u8; BUCKETS],
    /// Switch to splits below this node size.
    pub split_below: usize,
}

impl ParamPolicy {
    /// Neutral starting point for `nf` dimensions.
    pub fn neutral(nf: usize) -> Self {
        Self { dim_pref: vec![[0.0; BUCKETS]; nf], cut_bits: [3; BUCKETS], split_below: BINTH * 4 }
    }

    /// Random policy (search restarts), deterministic in the RNG state.
    pub fn random(nf: usize, rng: &mut SplitMix64) -> Self {
        Self {
            dim_pref: (0..nf)
                .map(|_| {
                    let mut b = [0.0f32; BUCKETS];
                    for v in &mut b {
                        *v = (rng.f64() as f32 - 0.5) * 4.0;
                    }
                    b
                })
                .collect(),
            cut_bits: [1 + rng.below(5) as u8, 1 + rng.below(5) as u8, 1 + rng.below(5) as u8],
            split_below: BINTH * (1 + rng.below(8) as usize),
        }
    }

    /// One hill-climbing neighbour: perturb a single parameter. Loops until
    /// the perturbation actually changes something (a redrawn cut arity can
    /// coincide with the current one).
    pub fn neighbour(&self, rng: &mut SplitMix64) -> Self {
        loop {
            let mut next = self.clone();
            match rng.below(3) {
                0 => {
                    let d = rng.below(next.dim_pref.len() as u64) as usize;
                    let b = rng.below(BUCKETS as u64) as usize;
                    next.dim_pref[d][b] += (rng.f64() as f32 - 0.5) * 2.0;
                }
                1 => {
                    let b = rng.below(BUCKETS as u64) as usize;
                    next.cut_bits[b] = 1 + rng.below(5) as u8;
                }
                _ => {
                    let delta = rng.below(17) as i64 - 8;
                    next.split_below = (next.split_below as i64 + delta).max(1) as usize;
                }
            }
            if next != *self {
                return next;
            }
        }
    }
}

impl Policy for ParamPolicy {
    fn decide(&self, ctx: &NodeCtx<'_>) -> BuildAction {
        if ctx.rules.len() <= self.split_below {
            return CutSplitPolicy::split_most_discriminating(ctx);
        }

        // Cutting phase: learned preference + data-driven discriminability.
        let bucket = ctx.depth.min(BUCKETS - 1);
        let mut best: Option<(usize, f32)> = None;
        for d in 0..ctx.spec.len() {
            let (lo, hi) = ctx.bounds[d];
            if lo == hi {
                continue;
            }
            // Distinct low endpoints as a cheap discriminability proxy.
            let mut lows: Vec<u64> = ctx
                .rules
                .iter()
                .take(256)
                .map(|&id| ctx.all[id as usize].fields[d].lo.max(lo))
                .collect();
            lows.sort_unstable();
            lows.dedup();
            let disc = (lows.len() as f32).ln();
            let score = self.dim_pref[d][bucket] + disc;
            if best.map_or(true, |(_, s)| score > s) {
                best = Some((d, score));
            }
        }
        match best {
            Some((dim, _)) => BuildAction::Cut { dim, bits: self.cut_bits[bucket].clamp(1, 5) },
            None => BuildAction::Leaf,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::DTree;
    use nm_common::classifier::Classifier;
    use nm_common::rule::Priority;
    use nm_common::{FieldsSpec, FiveTuple, LinearSearch, RuleSet};

    #[test]
    fn policy_cuts_then_splits() {
        // Many /24 src prefixes: cutting src-ip should dominate early.
        let mut rng = SplitMix64::new(1);
        let rules: Vec<_> = (0..500u32)
            .map(|i| {
                FiveTuple::new()
                    .src_prefix_raw(rng.next_u64() as u32, 24)
                    .dst_port_exact(rng.below(1024) as u16)
                    .into_rule(i, i)
            })
            .collect();
        let spec = FieldsSpec::five_tuple();
        let set = RuleSet::new(spec.clone(), rules.clone()).unwrap();
        let tree = DTree::build(rules, &spec, &CutSplitPolicy { cut_dims: vec![0] });
        let stats = tree.stats();
        assert!(stats.max_depth >= 1);
        let oracle = LinearSearch::build(&set);
        for _ in 0..1_000 {
            let key = [
                rng.next_u64() & 0xffff_ffff,
                rng.next_u64() & 0xffff_ffff,
                rng.below(65_536),
                rng.below(65_536),
                rng.below(256),
            ];
            assert_eq!(tree.classify_floor(&key, Priority::MAX), oracle.classify(&key));
        }
    }

    #[test]
    fn neutral_and_random_differ() {
        let mut rng = SplitMix64::new(1);
        let a = ParamPolicy::neutral(5);
        let b = ParamPolicy::random(5, &mut rng);
        assert_ne!(a, b);
        assert!(b.cut_bits.iter().all(|&c| (1..=5).contains(&c)));
    }

    #[test]
    fn neighbour_changes_one_thing() {
        let mut rng = SplitMix64::new(2);
        let base = ParamPolicy::neutral(5);
        let n = base.neighbour(&mut rng);
        assert_ne!(base, n);
    }

    #[test]
    fn neighbour_is_deterministic() {
        let base = ParamPolicy::neutral(5);
        let a = base.neighbour(&mut SplitMix64::new(7));
        let b = base.neighbour(&mut SplitMix64::new(7));
        assert_eq!(a, b);
    }
}
