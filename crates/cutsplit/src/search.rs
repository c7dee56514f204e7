//! Derivative-free policy search (the RL substitute).
//!
//! Random restarts + single-parameter hill climbing over [`ParamPolicy`],
//! scoring each candidate by building a tree on a *sample* of the rules and
//! evaluating the NeuroCuts reward. Deterministic: the seed is fixed.

use crate::policy::ParamPolicy;
use crate::tree::DTree;
use nm_common::rule::Rule;
use nm_common::ruleset::FieldsSpec;
use nm_common::SplitMix64;

/// The search's RNG seed ("nc").
const SEED: u64 = 0x6e63;

/// Scores one candidate policy on a rule sample: NeuroCuts' combined
/// objective, an even blend of index size (KiB, so neither term dominates
/// by sheer unit size) and mean lookup access cost.
fn evaluate(policy: &ParamPolicy, sample: &[Rule], spec: &FieldsSpec, rng: &mut SplitMix64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let tree = DTree::build(sample.to_vec(), spec, policy);
    let mem = tree.memory_bytes() as f64;
    // Probe cost on keys drawn from the sample's own rules.
    let probes = 64.min(sample.len());
    let mut access = 0.0;
    for _ in 0..probes {
        let rule = &sample[rng.below(sample.len() as u64) as usize];
        let key: Vec<u64> = rule.fields.iter().map(|f| rng.range_inclusive(f.lo, f.hi)).collect();
        access += tree.access_cost(&key) as f64;
    }
    access /= probes as f64;
    0.5 * (mem / 1024.0) + 0.5 * access
}

/// Runs the search and returns the best policy.
///
/// `iterations` counts candidate evaluations (restart or neighbour each);
/// the NuevoMatch paper gave NeuroCuts a multi-hour hyper-parameter sweep —
/// here a few dozen evaluations on a sample land in the same tree family in
/// milliseconds-to-seconds.
pub fn policy_search(
    rules: &[Rule],
    spec: &FieldsSpec,
    sample_size: usize,
    iterations: usize,
) -> ParamPolicy {
    let mut rng = SplitMix64::new(SEED);
    // Deterministic sample (stride subsample keeps the priority mix).
    let sample: Vec<Rule> = if rules.len() <= sample_size {
        rules.to_vec()
    } else {
        let step = rules.len() / sample_size;
        rules.iter().step_by(step.max(1)).take(sample_size).cloned().collect()
    };

    let mut best = ParamPolicy::neutral(spec.len());
    let mut best_cost = evaluate(&best, &sample, spec, &mut rng);

    for i in 0..iterations {
        // Every 8th evaluation restarts randomly; the rest hill-climb.
        let cand = if i % 8 == 7 {
            ParamPolicy::random(spec.len(), &mut rng)
        } else {
            best.neighbour(&mut rng)
        };
        let cost = evaluate(&cand, &sample, spec, &mut rng);
        if cost < best_cost {
            best = cand;
            best_cost = cost;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_common::{FieldsSpec, FiveTuple};

    fn rules(n: usize) -> Vec<Rule> {
        let mut rng = SplitMix64::new(3);
        (0..n)
            .map(|i| {
                FiveTuple::new()
                    .src_prefix_raw(rng.next_u64() as u32, 16 + rng.below(17) as u8)
                    .dst_port_exact(rng.below(65_536) as u16)
                    .into_rule(i as u32, i as u32)
            })
            .collect()
    }

    /// No evaluation keeps the neutral start; a searched policy scores no
    /// worse than it on the same sample and the same probe keys.
    #[test]
    fn search_improves_or_matches_neutral() {
        let spec = FieldsSpec::five_tuple();
        let rs = rules(300);
        let neutral = ParamPolicy::neutral(spec.len());
        assert_eq!(policy_search(&rs, &spec, 300, 0), neutral);
        let found = policy_search(&rs, &spec, 300, 24);
        let cost = |p: &ParamPolicy| evaluate(p, &rs, &spec, &mut SplitMix64::new(SEED));
        assert!(cost(&found).is_finite());
        assert!(cost(&found) <= cost(&neutral));
    }

    #[test]
    fn deterministic_in_seed() {
        let spec = FieldsSpec::five_tuple();
        let rs = rules(200);
        let a = policy_search(&rs, &spec, 100, 10);
        let b = policy_search(&rs, &spec, 100, 10);
        assert_eq!(a, b);
    }
}
