//! Level-synchronous batched descent over a forest of decision trees —
//! [`Forest`](crate::Forest)'s `Classifier::batch_lookup`, and so CutSplit's
//! and NeuroCuts'.
//!
//! ## Why a frontier, not a per-key loop
//!
//! A single tree walk is a pointer chase: each level's node address depends
//! on the previous level's load, so a per-key loop exposes exactly one
//! outstanding cache miss at a time. The keys of a batch are independent,
//! though — their walks can miss *in parallel*. The descent here keeps a
//! **frontier** of `(key, node)` pairs and advances every in-flight key one
//! tree level per iteration ([`DTree::descend_frontier`]): as each key
//! computes its next node the line is prefetched, so the whole frontier's
//! children are in flight before any of them is dereferenced, and the next
//! level pays one memory round-trip for the batch instead of one per key.
//! This is the tree-engine counterpart of the RQ-RMI pipeline's prefetched
//! secondary-search windows, and it is what lifts remainder-heavy (fw-style)
//! rule-sets whose batched pipeline bottlenecked on the scalar descent.
//!
//! ## Invariants (bit-identity with the per-key walk)
//!
//! * **Same visit order per key.** A key visits the same nodes in the same
//!   order as the per-key walk (`DTree::walk`), scans the same spill/leaf
//!   slices under the same strict priority bound, and retires at the same point
//!   (leaf reached, box left, or `bound <= subtree best_priority`). Level
//!   interleaving across keys never reorders one key's own work.
//! * **Same tree order across the forest.** Trees are visited in ascending
//!   `best_priority` order with the same early exit: a tree is skipped for a
//!   key whose bound cannot be beaten, and the sweep stops when the frontier
//!   for a tree is empty (every later tree has a `best_priority` at least as
//!   large, so no key could re-enter).
//! * **Bounds only tighten.** `bound(k) = min(best[k].priority, floor(k))`
//!   is re-read each level from the merged running best, exactly as the
//!   per-key walk folds its candidate — all matches are strictly better
//!   than the bound at scan time, so floors need no final filter pass. A
//!   key with neither a floor nor a candidate has the open bound,
//!   `Priority::MAX + 1`, so rules at `Priority::MAX` are served.
//!
//! `tests/it_batch.rs` property-checks the equivalence across engines,
//! batch sizes and floor patterns; the batch sweep (`nm-bench batch`)
//! checks it on every measured trace.

use crate::tree::{limit, DTree, FrontierScratch};
use nm_common::classifier::MatchResult;
use nm_common::rule::Priority;

/// Batched classification over `trees` in `order` (ascending
/// `best_priority`), merging into `out`. Implements the
/// `Classifier::batch_lookup` contract: lengths are already validated,
/// `floors == None` means no key carries a floor, and `out` is overwritten.
///
/// Keys are processed in chunks of up to 512 — deep enough for the
/// frontier's prefetches to overlap, small enough that the per-chunk state
/// stays cache-resident however large the caller's batch is.
pub fn classify_forest_batch(
    trees: &[DTree],
    order: &[(Priority, u32)],
    keys: &[u64],
    stride: usize,
    floors: Option<&[Priority]>,
    out: &mut [Option<MatchResult>],
) {
    const CHUNK: usize = 512;
    let n = out.len();
    out.fill(None);
    let mut frontier: Vec<u32> = Vec::with_capacity(CHUNK.min(n));
    let mut scratch = FrontierScratch::default();
    let mut base = 0usize;
    // nm-lint: hotpath
    while base < n {
        let m = CHUNK.min(n - base);
        for &(tree_best, ti) in order {
            frontier.clear();
            for i in base..base + m {
                if limit(floors.map_or(Priority::MAX, |f| f[i]), out[i]) > u64::from(tree_best) {
                    frontier.push(i as u32);
                }
            }
            if frontier.is_empty() {
                // Trees are sorted by best_priority and bounds only
                // tighten: no later tree can beat any key's bound either.
                break;
            }
            trees[ti as usize].descend_frontier(keys, stride, &frontier, floors, out, &mut scratch);
        }
        base += m;
    }
    // nm-lint: end-hotpath
}
