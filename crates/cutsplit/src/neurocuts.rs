//! NeuroCuts-style searched decision trees.
//!
//! NeuroCuts (Liang, Zhu, Jin, Stoica — SIGCOMM 2019) uses deep
//! reinforcement learning to choose, per tree node, *which dimension to cut
//! and how finely*, optimising the tree's memory footprint, its
//! memory-access count or a blend of the two. The NuevoMatch paper uses the
//! resulting trees as a baseline and remainder engine; its evaluation
//! consumes only the *built tree* (its footprint and traversal cost), never
//! the learning process.
//!
//! **Substitution:** this module keeps the NeuroCuts decision space
//! ([`ParamPolicy`](crate::policy::ParamPolicy)) but replaces the RL agent
//! with a derivative-free policy search ([`crate::search`]: random restarts
//! and hill climbing). The search scores candidate policies by building a
//! tree on a rule sample and evaluating a fixed reward, an even blend of
//! memory and access count; the best policy then builds the final trees on
//! the full rule-set, one per smallness group as in NeuroCuts' top-mode
//! partitioning (the paper's recommended mode).

use crate::engine::Forest;
use crate::partition::partition;
use crate::search::policy_search;
use nm_common::ruleset::RuleSet;

/// How hard NeuroCuts searches for its policy.
#[derive(Clone, Copy, Debug)]
pub struct NeuroCutsConfig {
    /// Policy-search evaluations.
    pub iterations: usize,
    /// Rule sample size for search-time tree builds.
    pub sample: usize,
}

impl Forest {
    /// Builds NeuroCuts: searches a policy on a sample of `set`, then builds
    /// every group's tree with it. A one-field schema has no two fields to
    /// partition on and gets a single tree.
    pub fn with_config(set: &RuleSet, cfg: NeuroCutsConfig) -> Self {
        let spec = set.spec();
        let policy = policy_search(set.rules(), spec, cfg.sample, cfg.iterations);
        let groups = if spec.len() >= 2 {
            partition(set.rules(), spec).into()
        } else {
            vec![set.rules().to_vec()]
        };
        Self::grow(set, "nc", groups, |_| policy.clone())
    }
}
