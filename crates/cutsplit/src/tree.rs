//! Decision-tree substrate: arena, builder and lookup.
//!
//! Rules are viewed as hyper-rectangles; a tree node covers a box of the
//! field space and holds every rule overlapping that box. Interior nodes
//! refine the box (equal-width cuts or a binary threshold split); leaves
//! hold at most `binth` rules sorted by priority.
//!
//! ## Replication and spill lists
//!
//! A rule overlapping several children is *replicated* — the effect the
//! paper blames for decision trees' poor memory scaling (§2.1). Naive
//! replication is exponential for wildcard-heavy rules (a full-span rule
//! lands in *every* child at *every* level), so like mature HiCuts-family
//! implementations this builder keeps rules that cover a node's entire
//! extent in the cut/split dimension in a per-node **spill list**: they are
//! checked once while passing through the node instead of being copied into
//! all children. Partial overlaps still replicate — that is the real
//! CutSplit/NeuroCuts memory behaviour the Figure 13 experiment measures —
//! but the exponential wildcard case is contained. Spill lists are sorted
//! by priority and participate in the early-termination bound like leaves.

use nm_common::classifier::MatchResult;
use nm_common::memsize;
use nm_common::rule::{Priority, Rule};
use nm_common::ruleset::FieldsSpec;

/// What the build policy wants to do at one node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BuildAction {
    /// Equal-width cuts along `dim` into `2^bits` children.
    Cut {
        /// Dimension to cut.
        dim: usize,
        /// log2 of the number of children (1..=8).
        bits: u8,
    },
    /// Binary split along `dim` at a threshold chosen by the builder
    /// (weighted median of rule endpoints).
    Split {
        /// Dimension to split.
        dim: usize,
    },
    /// Stop refining; make a leaf.
    Leaf,
}

/// Context handed to the policy at each node.
pub struct NodeCtx<'a> {
    /// Node depth (root = 0).
    pub depth: usize,
    /// Rules overlapping this node's box.
    pub rules: &'a [u32],
    /// The node's box, `[lo, hi]` inclusive per dimension.
    pub bounds: &'a [(u64, u64)],
    /// Field schema.
    pub spec: &'a FieldsSpec,
    /// All rules by index (to inspect ranges).
    pub all: &'a [Rule],
}

/// A tree-construction policy: decides cut/split/leaf per node.
pub trait Policy {
    /// Chooses the action for a node. Cutting a span-1 dimension or a split
    /// that makes no progress falls back to a leaf automatically.
    fn decide(&self, ctx: &NodeCtx<'_>) -> BuildAction;
}

/// Maximum rules per leaf (`binth = 8`, the paper's evaluation setting,
/// §5.1); nodes at or below it become leaves.
pub(crate) const BINTH: usize = 8;
/// Hard node budget — construction degrades to leaves beyond it
/// (replication blow-up guard).
const MAX_NODES: usize = 1_000_000;
/// Hard depth limit.
const MAX_DEPTH: usize = 32;

/// The strict priority limit of a key that holds `best` under the caller's
/// `floor` (`Priority::MAX` is no floor, as in `Classifier::batch_lookup`):
/// a rule qualifies only below it. It is a `u64`, so a key with neither a
/// floor nor a candidate admits rules at `Priority::MAX` too.
#[inline]
pub(crate) fn limit(floor: Priority, best: Option<MatchResult>) -> u64 {
    let floor = if floor == Priority::MAX { 1 << 32 } else { u64::from(floor) };
    best.map_or(floor, |b| floor.min(u64::from(b.priority)))
}

/// A priority-sorted slice of the refs array.
#[derive(Clone, Copy, Debug, Default)]
struct RefSlice {
    start: u32,
    len: u32,
}

/// A spill/leaf scan queued by the advance pass of
/// [`DTree::descend_frontier`]: the slice to scan plus the priority bound
/// captured at its node's entry (per the per-key walk's semantics, the
/// bound is fixed for the whole scan).
#[derive(Clone, Copy)]
struct ScanState {
    key: u32,
    /// Absolute start of the slice in the ref arrays.
    pos: u32,
    /// Absolute end of the slice.
    end: u32,
    bound: u64,
}

/// Reusable working state for [`DTree::descend_frontier`]: the in-flight
/// `(key, node)` frontier and the per-level scan queue. Callers keep one
/// across trees and chunks so a sweep allocates nothing per tree.
#[derive(Default)]
pub struct FrontierScratch {
    /// In-flight keys: `(key index, current node)`.
    live: Vec<(u32, u32)>,
    /// Spill/leaf scans queued by pass 1 for pass 2 of the same level.
    scans: Vec<ScanState>,
}

#[derive(Clone, Debug)]
enum Node {
    Cut {
        dim: u16,
        /// Box lower bound in `dim`.
        lo: u64,
        /// Child box width (ceil(span / children)).
        width: u64,
        /// First child node index; children are contiguous.
        first_child: u32,
        /// Number of children.
        children: u32,
        /// Rules spanning the whole box in `dim` (checked in passing).
        spill: RefSlice,
        /// Best (smallest) priority in the subtree incl. spill.
        best_priority: Priority,
    },
    Split {
        dim: u16,
        /// Keys ≤ threshold go left.
        threshold: u64,
        left: u32,
        right: u32,
        /// Rules straddling the threshold.
        spill: RefSlice,
        best_priority: Priority,
    },
    Leaf {
        refs: RefSlice,
        best_priority: Priority,
    },
}

/// A built decision tree over an owned copy of its rules.
///
/// The scan hot path is laid out flat and **ref-major**: `ref_pri` mirrors
/// `refs` so the priority-bound early exit reads one sequential array, and
/// `ref_boxes` stores each referenced rule's `[lo, hi]` per field inline at
/// the ref's position. A spill/leaf scan therefore touches two sequential
/// streams the hardware prefetcher tracks by itself — no pointer chase into
/// `Rule::fields` and no random hop per candidate, which is what made deep
/// fw-style spill scans memory-bound. The replication cost is bounded by
/// the same spill-list containment as `refs` itself. `rules` remains the
/// authoritative owned copy (ids, result priorities, `matches` for tests).
pub struct DTree {
    nodes: Vec<Node>,
    /// Rule indices, concatenated per leaf/spill; each slice sorted by
    /// priority so scans can stop at the first match or at the bound.
    refs: Vec<u32>,
    /// Priority of `rules[refs[p]]`, parallel to `refs` — the scan loop's
    /// bound test never touches a `Rule` until a candidate matches.
    ref_pri: Vec<Priority>,
    /// `[lo, hi]` per field of `rules[refs[p]]`, inline per ref position
    /// (`nfields * 2` words each) — the scan's second sequential stream.
    ref_boxes: Vec<u64>,
    nfields: usize,
    rules: Vec<Rule>,
    depth_max: usize,
}

/// Structural statistics (Figure 13 / NeuroCuts reward inputs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TreeStats {
    /// Interior + leaf node count.
    pub nodes: usize,
    /// Leaf count.
    pub leaves: usize,
    /// Total rule references (≥ rules; the excess is replication).
    pub refs: usize,
    /// Deepest node.
    pub max_depth: usize,
    /// Index bytes (nodes + refs).
    pub memory_bytes: usize,
}

impl DTree {
    /// Builds a tree over `rules` with the given policy.
    pub fn build(rules: Vec<Rule>, spec: &FieldsSpec, policy: &dyn Policy) -> DTree {
        let bounds_root: Vec<(u64, u64)> =
            (0..spec.len()).map(|d| (0, spec.max_value(d))).collect();
        let nfields = spec.len();
        let mut tree = DTree {
            nodes: Vec::new(),
            refs: Vec::new(),
            ref_pri: Vec::new(),
            ref_boxes: Vec::new(),
            nfields,
            rules,
            depth_max: 0,
        };
        let all_ids: Vec<u32> = (0..tree.rules.len() as u32).collect();
        tree.nodes.push(Node::Leaf { refs: RefSlice::default(), best_priority: Priority::MAX });
        tree.build_node(0, all_ids, bounds_root, 0, spec, policy);
        tree
    }

    /// Appends a priority-sorted ref slice and returns its descriptor.
    fn push_refs(&mut self, mut ids: Vec<u32>) -> RefSlice {
        ids.sort_by_key(|&i| (self.rules[i as usize].priority, i));
        let start = self.refs.len() as u32;
        let len = ids.len() as u32;
        for &i in &ids {
            let rule = &self.rules[i as usize];
            self.ref_pri.push(rule.priority);
            for f in &rule.fields {
                self.ref_boxes.push(f.lo);
                self.ref_boxes.push(f.hi);
            }
        }
        self.refs.extend_from_slice(&ids);
        RefSlice { start, len }
    }

    fn build_node(
        &mut self,
        slot: usize,
        rule_ids: Vec<u32>,
        bounds: Vec<(u64, u64)>,
        depth: usize,
        spec: &FieldsSpec,
        policy: &dyn Policy,
    ) {
        self.depth_max = self.depth_max.max(depth);
        let best_priority = rule_ids
            .iter()
            .map(|&i| self.rules[i as usize].priority)
            .min()
            .unwrap_or(Priority::MAX);

        if rule_ids.len() <= BINTH || depth >= MAX_DEPTH || self.nodes.len() >= MAX_NODES {
            let refs = self.push_refs(rule_ids);
            self.nodes[slot] = Node::Leaf { refs, best_priority };
            return;
        }

        let ctx = NodeCtx { depth, rules: &rule_ids, bounds: &bounds, spec, all: &self.rules };
        let action = policy.decide(&ctx);

        match action {
            BuildAction::Leaf => {
                let refs = self.push_refs(rule_ids);
                self.nodes[slot] = Node::Leaf { refs, best_priority };
            }
            BuildAction::Cut { dim, bits } => {
                let (lo, hi) = bounds[dim];
                // `hi - lo + 1` overflows on a full 64-bit field, so every
                // span quantity is derived from `hi - lo`.
                let children = (1u64 << bits.clamp(1, 8)).min((hi - lo).saturating_add(1));
                if children <= 1 {
                    let refs = self.push_refs(rule_ids);
                    self.nodes[slot] = Node::Leaf { refs, best_priority };
                    return;
                }
                // = ceil((hi - lo + 1) / children).
                let width = (hi - lo) / children + 1;
                let mut spill_ids = Vec::new();
                let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); children as usize];
                for &id in &rule_ids {
                    let r = &self.rules[id as usize].fields[dim];
                    if r.lo <= lo && r.hi >= hi {
                        spill_ids.push(id);
                        continue;
                    }
                    let c0 = (r.lo.max(lo) - lo) / width;
                    let c1 = (r.hi.min(hi) - lo) / width;
                    for c in c0..=c1 {
                        buckets[c as usize].push(id);
                    }
                }
                let non_spill = rule_ids.len() - spill_ids.len();
                let progress = if spill_ids.is_empty() {
                    buckets.iter().any(|b| b.len() < non_spill)
                } else {
                    true
                };
                if non_spill == 0 || !progress {
                    let refs = self.push_refs(rule_ids);
                    self.nodes[slot] = Node::Leaf { refs, best_priority };
                    return;
                }
                let spill = self.push_refs(spill_ids);
                let first_child = self.nodes.len() as u32;
                for _ in 0..children {
                    self.nodes.push(Node::Leaf {
                        refs: RefSlice::default(),
                        best_priority: Priority::MAX,
                    });
                }
                self.nodes[slot] = Node::Cut {
                    dim: dim as u16,
                    lo,
                    width,
                    first_child,
                    children: children as u32,
                    spill,
                    best_priority,
                };
                drop(rule_ids);
                for (c, bucket) in buckets.into_iter().enumerate() {
                    let mut child_bounds = bounds.clone();
                    // Trailing children can start past `hi` (and past
                    // `u64::MAX`); they get no rules, so saturating is exact.
                    let c_lo = lo.saturating_add((c as u64).saturating_mul(width));
                    let c_hi = c_lo.saturating_add(width - 1).min(hi);
                    child_bounds[dim] = (c_lo, c_hi);
                    self.build_node(
                        (first_child as usize) + c,
                        bucket,
                        child_bounds,
                        depth + 1,
                        spec,
                        policy,
                    );
                }
            }
            BuildAction::Split { dim } => {
                let (lo, hi) = bounds[dim];
                if lo == hi {
                    let refs = self.push_refs(rule_ids);
                    self.nodes[slot] = Node::Leaf { refs, best_priority };
                    return;
                }
                // Weighted median of clamped upper endpoints.
                let mut endpoints: Vec<u64> = rule_ids
                    .iter()
                    .map(|&id| self.rules[id as usize].fields[dim].hi.min(hi))
                    .collect();
                endpoints.sort_unstable();
                let mut threshold = endpoints[endpoints.len() / 2].clamp(lo, hi - 1);
                if threshold == hi {
                    threshold = hi - 1;
                }
                let mut spill_ids = Vec::new();
                let mut left_ids = Vec::new();
                let mut right_ids = Vec::new();
                for &id in &rule_ids {
                    let r = &self.rules[id as usize].fields[dim];
                    let goes_left = r.lo.max(lo) <= threshold;
                    let goes_right = r.hi.min(hi) > threshold;
                    match (goes_left, goes_right) {
                        (true, true) => spill_ids.push(id),
                        (true, false) => left_ids.push(id),
                        (false, _) => right_ids.push(id),
                    }
                }
                let non_spill = left_ids.len() + right_ids.len();
                if non_spill == 0
                    || (left_ids.len() == rule_ids.len() || right_ids.len() == rule_ids.len())
                {
                    let refs = self.push_refs(rule_ids);
                    self.nodes[slot] = Node::Leaf { refs, best_priority };
                    return;
                }
                let spill = self.push_refs(spill_ids);
                let left = self.nodes.len() as u32;
                self.nodes
                    .push(Node::Leaf { refs: RefSlice::default(), best_priority: Priority::MAX });
                let right = self.nodes.len() as u32;
                self.nodes
                    .push(Node::Leaf { refs: RefSlice::default(), best_priority: Priority::MAX });
                self.nodes[slot] =
                    Node::Split { dim: dim as u16, threshold, left, right, spill, best_priority };
                let mut lb = bounds.clone();
                lb[dim] = (lo, threshold);
                let mut rb = bounds;
                rb[dim] = (threshold + 1, hi);
                self.build_node(left as usize, left_ids, lb, depth + 1, spec, policy);
                self.build_node(right as usize, right_ids, rb, depth + 1, spec, policy);
            }
        }
    }

    /// Scans a priority-sorted ref slice; returns the first (= best) match
    /// with priority below `bound`.
    ///
    /// Both the priority bound test and the candidate boxes read sequential
    /// ref-major streams, so a deep scan runs at hardware-prefetch speed and
    /// only a *match* touches the `Rule` itself (for its id).
    #[inline]
    fn scan_refs(&self, refs: RefSlice, key: &[u64], bound: u64) -> Option<MatchResult> {
        let s = refs.start as usize;
        let e = s + refs.len as usize;
        let nf2 = self.nfields * 2;
        for p in s..e {
            let pri = self.ref_pri[p];
            if u64::from(pri) >= bound {
                return None;
            }
            let b = &self.ref_boxes[p * nf2..(p + 1) * nf2];
            let mut hit = true;
            for d in 0..self.nfields {
                if key[d] < b[2 * d] || key[d] > b[2 * d + 1] {
                    hit = false;
                    break;
                }
            }
            if hit {
                return Some(MatchResult::new(self.rules[self.refs[p] as usize].id, pri));
            }
        }
        None
    }

    /// The per-key walk: the best rule of this tree matching `key` below the
    /// strict limit `floor` (see `limit`), pruning subtrees that cannot beat
    /// it.
    #[inline]
    pub(crate) fn walk(&self, key: &[u64], floor: u64) -> Option<MatchResult> {
        let mut best: Option<MatchResult> = None;
        let mut idx = 0usize;
        loop {
            let bound = best.map_or(floor, |b| floor.min(u64::from(b.priority)));
            match &self.nodes[idx] {
                Node::Cut { dim, lo, width, first_child, children, spill, best_priority } => {
                    if bound <= u64::from(*best_priority) {
                        return best;
                    }
                    best = MatchResult::better(best, self.scan_refs(*spill, key, bound));
                    let v = key[*dim as usize];
                    if v < *lo {
                        return best;
                    }
                    let c = (v - lo) / width;
                    if c >= *children as u64 {
                        return best;
                    }
                    idx = *first_child as usize + c as usize;
                }
                Node::Split { dim, threshold, left, right, spill, best_priority } => {
                    if bound <= u64::from(*best_priority) {
                        return best;
                    }
                    best = MatchResult::better(best, self.scan_refs(*spill, key, bound));
                    idx = if key[*dim as usize] <= *threshold {
                        *left as usize
                    } else {
                        *right as usize
                    };
                }
                Node::Leaf { refs, best_priority } => {
                    if bound <= u64::from(*best_priority) {
                        return best;
                    }
                    best = MatchResult::better(best, self.scan_refs(*refs, key, bound));
                    return best;
                }
            }
        }
    }

    /// Level-synchronous batched descent (see [`crate::batched`] for the
    /// driver and the invariants): every key in `frontier` walks this tree
    /// simultaneously, all in-flight keys advancing **one tree level per
    /// outer iteration**, in two passes per level:
    ///
    /// 1. **Advance** — each surviving key's node (prefetched by the
    ///    previous level) is dereferenced, the bound/box retirement checks
    ///    run, the next node is computed and prefetched (both lines of the
    ///    straddling arena element), and any spill/leaf slice the key must
    ///    scan is queued with its head lines prefetched and the entry bound
    ///    captured. By the end of the pass, the *whole frontier's* children
    ///    and scan heads have prefetches in flight and none has been
    ///    dereferenced.
    /// 2. **Scan** — the queued slices run through `DTree::scan_refs`
    ///    with their captured bounds. Their head lines (priority array +
    ///    first box) were issued a whole pass earlier, so the short
    ///    `binth`-sized leaf scans — too brief for the hardware stream
    ///    prefetcher to engage — start warm instead of paying a cold burst
    ///    per key; longer spill scans continue down the two sequential
    ///    ref-major streams. (A fully lockstep entry-per-round variant was
    ///    tried here and lost to its own bookkeeping on L3-resident sets —
    ///    see the ROADMAP open item on DRAM-resident headroom.)
    ///
    /// One memory round-trip per level thus serves the whole batch, where
    /// the per-key walk pays one per key per level. Keys retire early
    /// (leave the frontier) as soon as they reach a leaf, walk off the
    /// covered box, or hit the subtree priority bound.
    ///
    /// Per key, the node sequence, spill/leaf scans and bound updates are
    /// exactly the per-key walk's under the limit `floors[k]` and `best[k]`
    /// set: a key has at most one scan per level and a scan's bound is
    /// fixed at its node's entry (as
    /// in `DTree::scan_refs`), so deferring scans to the second pass
    /// cannot change any scan's outcome, and results merged into `best[k]`
    /// are bit-identical to the per-key walk (asserted across engines in
    /// `tests/it_batch.rs`).
    pub fn descend_frontier(
        &self,
        keys: &[u64],
        stride: usize,
        frontier: &[u32],
        floors: Option<&[Priority]>,
        best: &mut [Option<MatchResult>],
        scratch: &mut FrontierScratch,
    ) {
        let bound_of = |best: &[Option<MatchResult>], ki: usize| {
            limit(floors.map_or(Priority::MAX, |f| f[ki]), best[ki])
        };
        let nf2 = self.nfields * 2;
        let live = &mut scratch.live;
        let scans = &mut scratch.scans;
        live.clear();
        // Every key starts at the root; the root is shared across the
        // frontier, so the first level needs no prefetch pass.
        live.extend(frontier.iter().map(|&k| (k, 0u32)));
        while !live.is_empty() {
            scans.clear();
            let mut w = 0usize;
            // Pass 1: advance the frontier one level.
            for r in 0..live.len() {
                let (k, node_idx) = live[r];
                let ki = k as usize;
                let key = &keys[ki * stride..(ki + 1) * stride];
                let bound = bound_of(best, ki);
                let (spill, subtree_best, next) = match &self.nodes[node_idx as usize] {
                    Node::Cut { dim, lo, width, first_child, children, spill, best_priority } => {
                        let v = key[*dim as usize];
                        let next = if v < *lo {
                            None
                        } else {
                            let c = (v - lo) / width;
                            (c < *children as u64).then(|| *first_child + c as u32)
                        };
                        (*spill, *best_priority, next)
                    }
                    Node::Split { dim, threshold, left, right, spill, best_priority } => {
                        let next = if key[*dim as usize] <= *threshold { *left } else { *right };
                        (*spill, *best_priority, Some(next))
                    }
                    Node::Leaf { refs, best_priority } => (*refs, *best_priority, None),
                };
                if bound <= u64::from(subtree_best) {
                    continue; // nothing in this subtree can beat the bound
                }
                if spill.len > 0 {
                    // Warm the slice's head: the priority line plus the
                    // first entry's box lines (two lines ≈ one 5-field
                    // box); the scan body streams on from there.
                    let start = spill.start as usize;
                    nm_common::prefetch::prefetch_index(&self.ref_pri, start);
                    nm_common::prefetch::prefetch_index(&self.ref_boxes, start * nf2);
                    nm_common::prefetch::prefetch_index(&self.ref_boxes, start * nf2 + 8);
                    scans.push(ScanState {
                        key: k,
                        pos: spill.start,
                        end: spill.start + spill.len,
                        bound,
                    });
                }
                if let Some(child) = next {
                    // Arena nodes straddle cache lines (48-byte elements),
                    // so warm the neighbour line too.
                    nm_common::prefetch::prefetch_index(&self.nodes, child as usize);
                    nm_common::prefetch::prefetch_index(&self.nodes, child as usize + 1);
                    live[w] = (k, child);
                    w += 1;
                }
            }
            live.truncate(w);
            // Pass 2: the queued spill/leaf scans. Heads are in flight from
            // pass 1; the scan body streams the two ref-major arrays.
            for sc in scans.iter() {
                let ki = sc.key as usize;
                let key = &keys[ki * stride..(ki + 1) * stride];
                let slice = RefSlice { start: sc.pos, len: sc.end - sc.pos };
                best[ki] = MatchResult::better(best[ki], self.scan_refs(slice, key, sc.bound));
            }
        }
    }

    /// Counts the work a lookup performs: nodes visited plus spill/leaf
    /// entries scanned — the NeuroCuts "classification time" proxy.
    pub fn access_cost(&self, key: &[u64]) -> usize {
        let mut idx = 0usize;
        let mut cost = 0usize;
        loop {
            cost += 1;
            match &self.nodes[idx] {
                Node::Cut { dim, lo, width, first_child, children, spill, .. } => {
                    cost += spill.len as usize;
                    let v = key[*dim as usize];
                    if v < *lo {
                        return cost;
                    }
                    let c = (v - lo) / width;
                    if c >= *children as u64 {
                        return cost;
                    }
                    idx = *first_child as usize + c as usize;
                }
                Node::Split { dim, threshold, left, right, spill, .. } => {
                    cost += spill.len as usize;
                    idx = if key[*dim as usize] <= *threshold {
                        *left as usize
                    } else {
                        *right as usize
                    };
                }
                Node::Leaf { refs, .. } => {
                    return cost + refs.len as usize;
                }
            }
        }
    }

    /// Structural statistics.
    pub fn stats(&self) -> TreeStats {
        let leaves = self.nodes.iter().filter(|n| matches!(n, Node::Leaf { .. })).count();
        TreeStats {
            nodes: self.nodes.len(),
            leaves,
            refs: self.refs.len(),
            max_depth: self.depth_max,
            memory_bytes: self.memory_bytes(),
        }
    }

    /// Index bytes: arena nodes + refs + the parallel priority and inline
    /// box streams (rules themselves excluded, §5.2.1). The ref-major
    /// layout deliberately trades index memory for scan locality, so its
    /// replicated box copies are counted as index, not rule storage.
    pub fn memory_bytes(&self) -> usize {
        memsize::vec_bytes(&self.nodes)
            + memsize::vec_bytes(&self.refs)
            + memsize::vec_bytes(&self.ref_pri)
            + memsize::vec_bytes(&self.ref_boxes)
    }

    /// Best (smallest) priority stored anywhere in the tree — the root's
    /// subtree bound, used to order trees for cross-subset early exit.
    pub fn best_priority(&self) -> Priority {
        match self.nodes.first() {
            Some(Node::Cut { best_priority, .. })
            | Some(Node::Split { best_priority, .. })
            | Some(Node::Leaf { best_priority, .. }) => *best_priority,
            None => Priority::MAX,
        }
    }

    /// Number of rules owned by the tree (not refs — no replication count).
    pub fn num_rules(&self) -> usize {
        self.rules.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_common::classifier::Classifier;
    use nm_common::{FieldRange, FieldsSpec, LinearSearch, RuleSet, SplitMix64};

    impl DTree {
        /// Walks the tree for `key` with no candidate; `floor` prunes
        /// subtrees that cannot beat it (`Priority::MAX`: unconstrained).
        pub(crate) fn classify_floor(&self, key: &[u64], floor: Priority) -> Option<MatchResult> {
            self.walk(key, limit(floor, None))
        }
    }

    /// A trivial policy: always cut dim 0 by 2 bits until binth is reached.
    struct AlwaysCut;
    impl Policy for AlwaysCut {
        fn decide(&self, _ctx: &NodeCtx<'_>) -> BuildAction {
            BuildAction::Cut { dim: 0, bits: 2 }
        }
    }

    /// Round-robin splits.
    struct AlwaysSplit;
    impl Policy for AlwaysSplit {
        fn decide(&self, ctx: &NodeCtx<'_>) -> BuildAction {
            BuildAction::Split { dim: ctx.depth % ctx.spec.len() }
        }
    }

    fn random_rules(seed: u64, n: usize) -> Vec<Rule> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|i| {
                let lo0 = rng.below(60_000);
                let lo1 = rng.below(60_000);
                Rule::new(
                    i as u32,
                    i as u32,
                    vec![
                        FieldRange::new(lo0, lo0 + rng.below(4_000)),
                        FieldRange::new(lo1, lo1 + rng.below(4_000)),
                    ],
                )
            })
            .collect()
    }

    /// Mix in full wildcards — the replication stress case.
    fn rules_with_wildcards(seed: u64, n: usize) -> Vec<Rule> {
        let mut rules = random_rules(seed, n);
        let mut rng = SplitMix64::new(seed + 1);
        for i in 0..n / 4 {
            let idx = rng.below(n as u64) as usize;
            rules[idx].fields[i % 2] = FieldRange::wildcard(16);
        }
        rules
    }

    #[test]
    fn cut_tree_agrees_with_oracle() {
        let spec = FieldsSpec::uniform(2, 16);
        let rules = random_rules(1, 400);
        let set = RuleSet::new(spec.clone(), rules.clone()).unwrap();
        let oracle = LinearSearch::build(&set);
        let tree = DTree::build(rules, &spec, &AlwaysCut);
        let mut rng = SplitMix64::new(42);
        for _ in 0..2_000 {
            let key = [rng.below(65_536), rng.below(65_536)];
            assert_eq!(
                tree.classify_floor(&key, Priority::MAX),
                oracle.classify(&key),
                "key {key:?}"
            );
        }
    }

    #[test]
    fn split_tree_agrees_with_oracle() {
        let spec = FieldsSpec::uniform(2, 16);
        let rules = random_rules(2, 400);
        let set = RuleSet::new(spec.clone(), rules.clone()).unwrap();
        let oracle = LinearSearch::build(&set);
        let tree = DTree::build(rules, &spec, &AlwaysSplit);
        let mut rng = SplitMix64::new(43);
        for _ in 0..2_000 {
            let key = [rng.below(65_536), rng.below(65_536)];
            assert_eq!(tree.classify_floor(&key, Priority::MAX), oracle.classify(&key));
        }
    }

    #[test]
    fn wildcard_heavy_rules_stay_correct_and_small() {
        let spec = FieldsSpec::uniform(2, 16);
        let rules = rules_with_wildcards(7, 400);
        let set = RuleSet::new(spec.clone(), rules.clone()).unwrap();
        let oracle = LinearSearch::build(&set);
        let tree = DTree::build(rules, &spec, &AlwaysCut);
        let stats = tree.stats();
        // Spill lists must prevent exponential replication.
        assert!(stats.refs < 400 * 20, "replication exploded: {} refs", stats.refs);
        let mut rng = SplitMix64::new(44);
        for _ in 0..2_000 {
            let key = [rng.below(65_536), rng.below(65_536)];
            assert_eq!(tree.classify_floor(&key, Priority::MAX), oracle.classify(&key));
        }
    }

    #[test]
    fn floor_prunes_like_filter() {
        let spec = FieldsSpec::uniform(2, 16);
        let rules = rules_with_wildcards(3, 200);
        let tree = DTree::build(rules, &spec, &AlwaysCut);
        let mut rng = SplitMix64::new(45);
        for _ in 0..500 {
            let key = [rng.below(65_536), rng.below(65_536)];
            let full = tree.classify_floor(&key, Priority::MAX);
            for floor in [0u32, 50, 150] {
                assert_eq!(tree.classify_floor(&key, floor), full.filter(|m| m.priority < floor));
            }
        }
    }

    #[test]
    fn stats_reflect_structure() {
        let spec = FieldsSpec::uniform(2, 16);
        let rules = random_rules(4, 300);
        let tree = DTree::build(rules, &spec, &AlwaysCut);
        let s = tree.stats();
        assert!(s.nodes > 1);
        assert!(s.leaves > 0);
        assert!(s.refs >= 300, "every rule appears somewhere");
        assert!(s.memory_bytes > 0);
        assert_eq!(tree.num_rules(), 300);
        assert_eq!(tree.best_priority(), 0);
    }

    #[test]
    fn access_cost_counts_spills_and_leaves() {
        let spec = FieldsSpec::uniform(2, 16);
        let rules = rules_with_wildcards(8, 200);
        let tree = DTree::build(rules, &spec, &AlwaysCut);
        let cost = tree.access_cost(&[100, 100]);
        assert!(cost >= 1);
    }

    #[test]
    fn pathological_identical_rules_become_a_leaf() {
        let spec = FieldsSpec::uniform(2, 16);
        let rules: Vec<Rule> = (0..100)
            .map(|i| Rule::new(i, i, vec![FieldRange::wildcard(16), FieldRange::wildcard(16)]))
            .collect();
        let tree = DTree::build(rules, &spec, &AlwaysCut);
        assert_eq!(
            tree.classify_floor(&[5, 5], Priority::MAX).unwrap().rule,
            0,
            "highest priority duplicate wins"
        );
        // All-wildcard rules must not replicate at all.
        assert_eq!(tree.stats().refs, 100);
    }

    #[test]
    fn empty_tree() {
        let spec = FieldsSpec::uniform(2, 16);
        let tree = DTree::build(vec![], &spec, &AlwaysSplit);
        assert_eq!(tree.classify_floor(&[1, 2], Priority::MAX), None);
    }
}
