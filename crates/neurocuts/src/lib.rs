//! # nm-neurocuts — NeuroCuts-style searched decision trees
//!
//! NeuroCuts (Liang, Zhu, Jin, Stoica — SIGCOMM 2019) uses deep
//! reinforcement learning to choose, per tree node, *which dimension to cut
//! and how finely*, optimising either the tree's memory footprint or its
//! memory-access count. The NuevoMatch paper uses the resulting trees as a
//! baseline and remainder engine; its evaluation consumes only the *built
//! tree* (its footprint and traversal cost), never the learning process.
//!
//! **Substitution:** this crate keeps the
//! NeuroCuts decision space and reward but replaces the RL agent with a
//! derivative-free policy search (random restarts + hill climbing over a
//! parameterised policy). The search evaluates candidate policies by
//! building trees on a rule sample and scoring the same reward
//! (`memory` / `access count` / a blend); the best policy then builds the
//! final trees on the full rule-set. Like the original, *top-mode
//! partitioning* (split the rule-set first, one tree per part) is part of
//! the searched configuration.
//!
//! The tree substrate (arena, cuts, splits, early-termination bounds) is
//! shared with `nm-cutsplit`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod policy;
pub mod search;

mod engine;

pub use engine::{NeuroCuts, NeuroCutsConfig};
pub use policy::ParamPolicy;
pub use search::{policy_search, RewardKind, SearchReport};
