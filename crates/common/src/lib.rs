//! # nm-common — shared substrate for the NuevoMatch reproduction
//!
//! This crate holds everything the rest of the workspace agrees on:
//!
//! * [`FieldRange`] — an inclusive `u64` interval, the building block of
//!   multi-field rules (prefixes, port ranges, exact values and wildcards all
//!   lower to ranges).
//! * [`Rule`] and [`RuleSet`] — axis-aligned boxes over an explicit
//!   [`FieldsSpec`] (per-field bit widths), with the classic 5-tuple as a
//!   convenience constructor.
//! * [`Classifier`] — the trait every engine in this workspace implements
//!   (NuevoMatch, TupleMerge, CutSplit, NeuroCuts, linear search) through
//!   one batched lookup hook, `batch_lookup`, whose per-key priority floors
//!   carry the *early termination* of §4 of the paper; the per-key and
//!   batch entry points are provided on top of it, next to the
//!   memory-footprint accounting used by Figure 13.
//! * [`UpdateBatch`], [`BatchUpdatable`] and [`Snapshot`] — the
//!   control-plane vocabulary of the control-plane/data-plane split:
//!   transactional updates and the generation-stamped immutable views the
//!   data plane publishes (see [`update`]). An engine is (re)built by any
//!   `Fn(&RuleSet) -> E`, such as `LinearSearch::build`.
//! * [`LinearSearch`] — the trivially-correct reference classifier used as
//!   ground truth by every correctness test in the workspace.
//! * [`TraceBuf`] — a flat, zero-copy packet-trace container for the
//!   benchmark harness.
//!
//! ## Conventions
//!
//! * **Priorities**: smaller numeric value wins (the paper's Figure 2 lists
//!   priority 1 as highest). Ties are broken by lower [`RuleId`].
//! * **Keys**: a packet is a `&[u64]` slice with one value per field, in the
//!   order defined by the rule-set's [`FieldsSpec`]. No allocation happens on
//!   the lookup path.
//! * **Field widths**: every field declares its width in bits (≤ 64). Fields
//!   wider than 32 bits should be split into 32-bit parts, as §4 of the paper
//!   recommends for IPv6 — see [`FieldsSpec::split_wide`].

#![warn(missing_docs)]

pub mod classifier;
pub mod error;
pub mod fivetuple;
pub mod frame;
pub mod latency;
pub mod linear;
pub mod memsize;
pub mod packet;
pub mod prefetch;
pub mod range;
pub mod rng;
pub mod rule;
pub mod ruleset;
pub mod shard;
pub mod stats;
pub mod update;

pub use classifier::{Classifier, MatchResult};
pub use error::Error;
pub use fivetuple::{FiveTuple, DST_IP, DST_PORT, FIVE_TUPLE_FIELDS, PROTO, SRC_IP, SRC_PORT};
pub use latency::{LatencyHistogram, LatencySummary};
pub use linear::LinearSearch;
pub use packet::TraceBuf;
pub use range::FieldRange;
pub use rng::SplitMix64;
pub use rule::{Priority, Rule, RuleId};
pub use ruleset::{FieldSpec, FieldsSpec, RuleSet};
pub use shard::{ShardPlan, ShardRoute};
pub use update::{BatchUpdatable, Generation, Snapshot, UpdateBatch, UpdateOp, UpdateReport};
