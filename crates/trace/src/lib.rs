//! # nm-trace — packet-trace synthesis
//!
//! The paper's methodology (§5.1.1) evaluates every classifier on 700K-packet
//! traces of three kinds, all derived from the rule-set under test:
//!
//! * **Uniform** — "access all matching rules uniformly to evaluate the
//!   worst-case memory access pattern": every packet picks a rule uniformly
//!   and carries a header drawn from inside its box ([`uniform_trace`]).
//! * **Zipf-skewed** — flow popularity follows a Zipf distribution with the
//!   skew parameterised by "how much traffic the 3% most frequent flows
//!   account for" (80%→α1.05 … 95%→α1.25) ([`zipf_trace`],
//!   [`FIG12_SKEWS`]).
//! * **CAIDA-like** — the paper rewrites a real CAIDA trace so each packet
//!   maps to a generated five-tuple "while maintaining a consistent mapping
//!   between the original and the generated one", preserving only the
//!   locality profile. CAIDA is not redistributable, so [`caida_like_trace`]
//!   synthesises the locality profile directly: Zipf flow popularity plus
//!   geometric packet trains (bursts of consecutive packets from the active
//!   flow), which reproduces the temporal locality the experiment consumes.
//!
//! One *flow* = one generated header per rule, fixed per trace, exactly like
//! the paper's rule→five-tuple mapping.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use nm_common::{RuleSet, SplitMix64, TraceBuf};

/// The Zipf skew settings of Figure 12: (top-3% traffic share, α).
pub const FIG12_SKEWS: &[(f64, f64)] = &[(0.80, 1.05), (0.85, 1.10), (0.90, 1.15), (0.95, 1.25)];

/// One representative header per rule — the paper's "for each rule, we
/// generate one matching five-tuple".
fn flow_headers(set: &RuleSet, seed: u64) -> Vec<Vec<u64>> {
    let mut rng = SplitMix64::new(seed ^ 0x000f_10e5);
    set.rules()
        .iter()
        .map(|r| r.fields.iter().map(|f| rng.range_inclusive(f.lo, f.hi)).collect())
        .collect()
}

/// Uniform trace: each packet targets a uniformly chosen rule, with a fresh
/// header drawn from inside that rule's box (worst-case access pattern — no
/// temporal locality at all).
pub fn uniform_trace(set: &RuleSet, n: usize, seed: u64) -> TraceBuf {
    let stride = set.num_fields();
    let mut trace = TraceBuf::with_capacity(stride, n);
    if set.is_empty() {
        return trace;
    }
    let mut rng = SplitMix64::new(seed ^ 0x0001_71f0);
    let mut key = vec![0u64; stride];
    for _ in 0..n {
        let rule = set.rule_at(rng.below(set.len() as u64) as usize);
        for (d, f) in rule.fields.iter().enumerate() {
            key[d] = rng.range_inclusive(f.lo, f.hi);
        }
        trace.push(&key);
    }
    trace
}

/// Precomputed Zipf sampler over `n` ranks: rank `k` (0-based) has weight
/// `(k+1)^-α`. Sampling is a binary search over the cumulative table.
struct ZipfSampler {
    cumulative: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the table for `n` ranks with exponent `alpha`.
    fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "ZipfSampler needs at least one rank");
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += ((k + 1) as f64).powf(-alpha);
            cumulative.push(acc);
        }
        Self { cumulative }
    }

    /// Samples a rank with a uniform draw `u ∈ [0, 1)`.
    fn sample(&self, u: f64) -> usize {
        let target = u * *self.cumulative.last().expect("non-empty");
        self.cumulative.partition_point(|&c| c <= target).min(self.cumulative.len() - 1)
    }
}

/// Zipf-skewed trace: flow ranks map to rules through a seeded shuffle, so
/// popularity is independent of priority order.
pub fn zipf_trace(set: &RuleSet, n: usize, alpha: f64, seed: u64) -> TraceBuf {
    let stride = set.num_fields();
    let mut trace = TraceBuf::with_capacity(stride, n);
    if set.is_empty() {
        return trace;
    }
    let flows = flow_headers(set, seed);
    let mut order: Vec<usize> = (0..flows.len()).collect();
    let mut rng = SplitMix64::new(seed ^ 0x21bf);
    // Fisher-Yates.
    for i in (1..order.len()).rev() {
        let j = rng.below((i + 1) as u64) as usize;
        order.swap(i, j);
    }
    let zipf = ZipfSampler::new(flows.len(), alpha);
    for _ in 0..n {
        let rank = zipf.sample(rng.f64());
        trace.push(&flows[order[rank]]);
    }
    trace
}

/// Zipf exponent of the CAIDA-like trace's flow popularity (measured
/// backbone traces sit around 1.1–1.3).
const CAIDA_ALPHA: f64 = 1.2;
/// Mean packet-train length of the CAIDA-like trace (geometric):
/// CAIDA-style traces show short back-to-back bursts per flow at a link.
const CAIDA_MEAN_TRAIN: f64 = 4.0;

/// CAIDA-like trace: Zipf flow popularity (α 1.2) plus geometric packet
/// trains (mean length 4, at most 64) — each draw emits a burst of
/// consecutive packets from one flow.
pub fn caida_like_trace(set: &RuleSet, n: usize, seed: u64) -> TraceBuf {
    let stride = set.num_fields();
    let mut trace = TraceBuf::with_capacity(stride, n);
    if set.is_empty() {
        return trace;
    }
    let flows = flow_headers(set, seed);
    let zipf = ZipfSampler::new(flows.len(), CAIDA_ALPHA);
    let mut rng = SplitMix64::new(seed ^ 0x000c_a1da);
    let p = 1.0 / CAIDA_MEAN_TRAIN;
    while trace.len() < n {
        let flow = &flows[zipf.sample(rng.f64())];
        // Geometric train length ≥ 1.
        let mut train = 1usize;
        while rng.f64() > p && train < 64 {
            train += 1;
        }
        for _ in 0..train.min(n - trace.len()) {
            trace.push(flow);
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_classbench::{generate, AppKind};

    fn small_set() -> RuleSet {
        generate(AppKind::Acl, 500, 1)
    }

    #[test]
    fn uniform_packets_match_their_source_rule_family() {
        let set = small_set();
        let trace = uniform_trace(&set, 2_000, 7);
        assert_eq!(trace.len(), 2_000);
        // Every packet must match *some* rule (it was drawn inside one; a
        // higher-priority rule may shadow it, but a match must exist).
        for key in trace.iter().take(300) {
            assert!(set.classify_scan(key).is_some(), "unmatched key {key:?}");
        }
    }

    #[test]
    fn zipf_calibration_matches_paper_knobs() {
        // α = 1.25 should put ≈95% of traffic on the top 3% of 500K flows;
        // α = 1.05 ≈ 80% (paper Figure 12 calibration, large-n regime).
        // Share of evenly spaced draws that land on the top 3% of ranks.
        let top_share = |alpha: f64| {
            let z = ZipfSampler::new(500_000, alpha);
            let draws = 100_000;
            let top = (0..draws).filter(|&i| z.sample((i as f64 + 0.5) / draws as f64) < 15_000);
            top.count() as f64 / draws as f64
        };
        let share = top_share(1.25);
        assert!((0.90..=0.99).contains(&share), "α=1.25 top-3% share {share:.3}");
        let share = top_share(1.05);
        assert!((0.70..=0.88).contains(&share), "α=1.05 top-3% share {share:.3}");
    }

    #[test]
    fn zipf_trace_is_skewed() {
        let set = small_set();
        let trace = zipf_trace(&set, 10_000, 1.25, 3);
        // Count distinct keys: heavy skew means far fewer distinct than
        // packets, and the top flow dominates.
        use std::collections::HashMap;
        let mut counts: HashMap<&[u64], usize> = HashMap::new();
        for key in trace.iter() {
            *counts.entry(key).or_default() += 1;
        }
        let max = counts.values().copied().max().unwrap();
        assert!(max > 10_000 / 50, "top flow should dominate, got {max}");
        assert!(counts.len() < 500);
    }

    #[test]
    fn caida_like_has_trains() {
        let set = small_set();
        let trace = caida_like_trace(&set, 5_000, 9);
        assert_eq!(trace.len(), 5_000);
        // Count back-to-back repeats: with mean train 4, well over a third
        // of adjacent pairs repeat; a uniform trace would repeat almost never.
        let mut repeats = 0usize;
        let mut prev: Option<&[u64]> = None;
        for key in trace.iter() {
            if prev == Some(key) {
                repeats += 1;
            }
            prev = Some(key);
        }
        assert!(repeats > 5_000 / 3, "only {repeats} adjacent repeats");
    }

    #[test]
    fn deterministic_in_seed() {
        let set = small_set();
        assert_eq!(uniform_trace(&set, 100, 1).raw(), uniform_trace(&set, 100, 1).raw());
        assert_eq!(zipf_trace(&set, 100, 1.1, 2).raw(), zipf_trace(&set, 100, 1.1, 2).raw());
        assert_ne!(uniform_trace(&set, 100, 1).raw(), uniform_trace(&set, 100, 2).raw());
    }

    #[test]
    fn empty_set_gives_empty_trace() {
        let set = RuleSet::new(nm_common::FieldsSpec::five_tuple(), vec![]).unwrap();
        assert!(uniform_trace(&set, 100, 1).is_empty());
        assert!(zipf_trace(&set, 100, 1.1, 1).is_empty());
        assert!(caida_like_trace(&set, 100, 1).is_empty());
    }
}
