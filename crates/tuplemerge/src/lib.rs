//! # nm-tuplemerge — hash-based packet classification
//!
//! Two engines sharing one table substrate:
//!
//! * [`TupleSpaceSearch`] — the classic algorithm (Srinivasan, Suri,
//!   Varghese 1999): rules grouped by their per-field prefix-length tuple,
//!   one hash table per distinct tuple, and — that paper's *pruned* tuple
//!   space search — a per-field lookup that names the tables a key can
//!   match in, so only their intersection is probed.
//! * [`TupleMerge`] — Daly et al. 2019: tuples are *relaxed* (coarsened) so
//!   many related tuples share one table, cutting the number of probes; a
//!   collision limit splits tables that grow pathological buckets. This is
//!   the paper's strongest baseline and the remainder engine NuevoMatch
//!   pairs with for update support (§3.9).
//!
//! Arbitrary ranges (ports) are filed under their *covering prefix* — the
//! longest aligned block containing the whole range — so a table mask never
//! splits a rule's matches across buckets. Matching is still exact: every
//! bucket candidate is validated against the full rule box.
//!
//! ## Layout
//!
//! One flat, update-in-place representation serves lookups and updates
//! alike. Rules live in two flat arrays (boxes, `lo, hi` per field; ids
//! with priorities). Each table is a power-of-two slot array at load ≤ ¾,
//! indexed by the top bits of a hash of the table's *non-wildcard* fields
//! (precomputed `(field, shift)` pairs); a slot holds the best priority
//! filed under it (`Priority::MAX` when empty) and a 32-bit key filter, and
//! names a contiguous, `(priority, id)`-sorted run of `(priority, rule
//! index)` entries in the table's entry arena. A probe that finds nothing
//! usable in a table — the common case by far — costs one load: the slot's
//! best priority is at once the empty test, the early-exit test and a
//! per-slot floor test.
//!
//! In front of the tables sits one **table filter**: per address field
//! (wider than 16 bits) 4096 rows indexed by a key's top 12 bits, each a
//! bitset over tables. A set bit promises only that the table *may* hold a
//! rule whose range reaches those 12 bits; a clear bit proves it holds none.
//! Rows are as many bytes wide as the table count needs, up to eight: the
//! first 64 tables are filtered, a table past them is probed by every key.
//! The finer the filter, the fewer strangers reach a slot, which is what
//! lets the slot arrays run ¾ full.
//!
//! A lookup ANDs its key's rows, then probes the tables that remain in
//! ascending best-priority order and stops at the first table that cannot
//! beat, or tie, what it already holds — the "early termination" contract
//! NuevoMatch relies on (the floors of `Classifier::batch_lookup`). A batch
//! of three keys or more does the same table-major: per 128 keys each key's
//! candidate tables are scattered into per-table key lists, and each table
//! hashes, slot-tests and scans only its own list. Equal priorities resolve
//! toward the smaller rule id, whichever tables the contenders sit in, as
//! in `nm_common::LinearSearch`.
//!
//! Updates keep runs sorted in place (a run that outgrows its cells moves
//! to the arena tail), re-derive a slot's best and key filter exactly after a
//! removal, and compact the arena or double the slot array when a table
//! gets wasteful or crowded; a table's own best priority is only a
//! conservative bound between those rebuilds. The table filter is as
//! conservative: an insert sets the rows its range reaches (at most 16) per
//! address field, a removal leaves its bits (a superset stays exact), and
//! once removals since the last recompute exceed a quarter of the live rules
//! the filter is rebuilt from the filed rules and every table's bound made
//! exact, so an emptied table is never hashed again. `Clone` copies a
//! handful of arrays per table and the filter's rows, which is what makes
//! copy-on-write applies cheap.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod tuple;

mod engine;
mod filter;
mod hasher;
#[cfg(test)]
mod proptests;
mod rules;
mod table;

pub use engine::{ProbeTally, TupleMerge, TupleSpaceSearch};
