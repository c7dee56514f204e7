//! # nm-cutsplit — decision-tree packet classification
//!
//! The CutSplit and NeuroCuts baselines, as one forest:
//!
//! * [`tree`] — the decision-tree substrate: an arena of *cut* nodes
//!   (HiCuts-style equal-width cuts along one dimension), *split* nodes
//!   (HyperSplit-style binary threshold splits) and priority-sorted leaves
//!   of at most `binth = 8` rules (the paper's evaluation, §5.1), driven by
//!   a pluggable [`tree::Policy`]. Each node carries the best priority of
//!   its subtree so tree walks support the paper's §4 early-termination
//!   contract.
//! * [`Forest`] — the one tree classifier: rules are pre-partitioned by
//!   *smallness* in the IP fields ([`partition`]: SS/SB/BS/BB subsets), each
//!   non-empty subset gets a tree, and lookups visit the trees in
//!   best-priority order with early exit. Its two engines differ only in
//!   the [`policy`] the trees are built with:
//!   * [`CutSplit`] (Li et al., INFOCOM 2018) — **Fi**xed **cuts** along
//!     the dimensions where the subset's rules are small (little
//!     replication by construction), switching to threshold **splits** near
//!     the bottom;
//!   * [`NeuroCuts`] (Liang et al., SIGCOMM 2019) — one policy per rule-set,
//!     searched on a sample ([`neurocuts`], [`search`]).
//!
//! Batched lookups take the [`batched`] level-synchronous descent: the
//! whole batch walks each tree as a prefetched frontier instead of one
//! pointer chase per key.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batched;
pub mod neurocuts;
pub mod partition;
pub mod policy;
pub mod search;
pub mod tree;

mod engine;

pub use engine::{CutSplit, Forest, NeuroCuts};
pub use neurocuts::NeuroCutsConfig;
