//! # nuevomatch — packet classification via RQ-RMI
//!
//! A from-scratch Rust reproduction of **"A Computational Approach to Packet
//! Classification"** (Rashelbach, Rottenstreich, Silberstein — SIGCOMM 2020).
//!
//! NuevoMatch replaces most memory accesses of a packet classifier with
//! neural-network inference:
//!
//! 1. The rule-set is partitioned into **iSets** — groups of rules that do
//!    not overlap in one chosen field ([`iset`]).
//! 2. Each iSet's ranges (sorted along that field) are indexed by a
//!    **Range-Query Recursive Model Index** ([`rqrmi`]): a two/three-stage
//!    hierarchy of 1×8×1 ReLU networks whose worst-case prediction error is
//!    bounded *analytically*, so a short secondary search around the
//!    predicted index is guaranteed to find the matching range.
//! 3. Rules not covered by large iSets form the **remainder**, indexed by
//!    any conventional classifier (TupleMerge / CutSplit / NeuroCuts in this
//!    workspace); candidates from all indexes are validated on every field
//!    and the highest-priority match wins ([`system`]).
//!
//! ## Quick start
//!
//! ```
//! use nm_common::{Classifier, FieldsSpec, FiveTuple, LinearSearch, RuleSet};
//! use nuevomatch::{NuevoMatch, NuevoMatchConfig};
//!
//! // A toy rule-set: dst-port ranges that do not overlap.
//! let rules: Vec<_> = (0..64u16)
//!     .map(|i| {
//!         FiveTuple::new()
//!             .dst_port_range(i * 1000, i * 1000 + 999)
//!             .into_rule(i as u32, i as u32)
//!     })
//!     .collect();
//! let set = RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap();
//!
//! // Build NuevoMatch with a linear-search remainder. Any
//! // `Fn(&RuleSet) -> R` (here a plain fn item) works; the same builder
//! // value drives background retrains when the classifier is served
//! // through a `ClassifierHandle`.
//! let nm = NuevoMatch::build(&set, &NuevoMatchConfig::default(), LinearSearch::build).unwrap();
//!
//! let key = [0u64, 0, 0, 5_500, 6]; // dst-port 5500 -> rule 5
//! assert_eq!(nm.classify(&key).unwrap().rule, 5);
//! ```
//!
//! ## Serving under updates
//!
//! For the §3.9 lifecycle — concurrent readers, transactional updates, and
//! background retrains that reset the remainder drift — wrap the build in a
//! [`ClassifierHandle`]: readers pin generation-stamped immutable snapshots
//! and never block, a writer applies `UpdateBatch` transactions, and
//! `retrain()` republishes fresh models RCU-style (see [`system::handle`]).
//!
//! See the architecture snapshot in `ROADMAP.md` at the workspace root for
//! the full system inventory and `benchmark/README.md` for the measured
//! record.

#![warn(missing_docs)]

pub mod config;
pub mod iset;
mod par;
pub mod persist;
pub mod rqrmi;
pub mod system;

pub use config::{NuevoMatchConfig, PartialRetrainPolicy, RqRmiParams, TrainerKind};
pub use iset::{partition_isets, ISet, PartitionResult};
pub use persist::{load_rqrmi, load_snapshot, save_rqrmi, save_snapshot};
pub use rqrmi::{train_rqrmi, CompiledRqRmi, Isa, RqRmi};
pub use system::runtime::{
    PinPolicy, RunStats, Runtime, RuntimeConfig, ShardedClassifier, ShardedHandle, Topology,
};
pub use system::serve::{
    OracleTable, PinnedPlane, ReaderKind, ServeClient, ServeConfig, ServePlane, ServeStats, Server,
    Transport,
};
pub use system::{ClassifierHandle, NmSnapshot, NuevoMatch, PartialRetrainReport, TrainedISet};
