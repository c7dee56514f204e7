//! # nm-analysis — measurement and modelling toolkit
//!
//! Everything in the paper's evaluation that is *about* rule-sets and
//! systems rather than a classifier itself:
//!
//! * [`metrics`] — rule-set **diversity** (upper-bounds the largest iSet of
//!   a field) and **centrality** (lower-bounds the iSets needed for full
//!   coverage), the §3.7 worst-case-input indicators.
//! * [`updates`] — the §3.9 / Figure 7 analytic model of throughput decay
//!   under a sustained update stream with periodic retraining.
//! * [`thrash`] — a cache-polluting background thread standing in for
//!   Intel CAT in the L3-contention experiments (§5.2.1, CAIDA* in
//!   Figure 12).
//! * [`report`] — table/geomean helpers and the JSON serializer shared by the
//!   experiment driver and `nmctl`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod report;
pub mod thrash;
pub mod updates;

pub use metrics::{centrality_1d, centrality_sampled, diversity};
pub use report::{geomean, Json, Table};
pub use thrash::CacheThrasher;
pub use updates::{
    drift_floor, sustained_update_rate, throughput_at, throughput_over_time, UpdateModel,
};
