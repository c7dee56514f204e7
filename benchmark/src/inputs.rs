//! The three workloads and everything generated from `--seed`: packet
//! traces, the update stream and the open-loop arrival schedule (the rules
//! are fixed per workload, see [`RULES_SEED`]). The program under test only
//! ever receives these generated inputs.

use std::collections::VecDeque;

use nm_classbench::{generate, stanford_fib, AppKind};
use nm_common::{Rule, RuleId, RuleSet, SplitMix64, UpdateBatch, UpdateOp};
use nuevomatch::NuevoMatchConfig;

/// Packets per classification batch (the paper's §5.1 batch).
pub const BATCH: usize = 128;
/// Packets in the lookup trace: 1024 batches, so a pass yields 1024
/// per-batch samples (10 beyond its p99) and takes 0.1–0.2 s — short enough
/// that a lookup phase collects dozens of passes for its best decile.
pub const TRACE_LEN: usize = 1 << 17;
/// Update stream: a churn cycle is 0.25 s of 10-op transactions at
/// 1000 ops/s and then one `retrain()`, so a run holds 20 or more cycles
/// even when some of its retrains fall back to a full rebuild (1.5-2 s at
/// 500K rules).
pub const OPS_PER_BATCH: usize = 10;
pub const UPDATE_OPS_PER_S: f64 = 1000.0;
pub const APPLY_STRETCH_S: f64 = 0.25;
/// Open-loop offered rate of the wire latency phase.
pub const OPEN_LOOP_RATE: f64 = 20_000.0;
/// Requests kept outstanding by the closed-loop saturation phase.
pub const OUTSTANDING: usize = 128;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuleKind {
    /// ClassBench-style 5-field access control list.
    Acl,
    /// Stanford-backbone-like 1-field forwarding table.
    Fib,
}

/// Index into [`Workload::weights`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Batch,
    Churn,
    WireOpen,
    /// The per-key loop, `Runtime::run` and the closed-loop wire phase feed
    /// per-layer metrics only, so only the traced run goes through them.
    Scalar,
    Runtime,
    WireClosed,
}

impl Phase {
    pub const ALL: [Phase; 6] = [
        Phase::Batch,
        Phase::Churn,
        Phase::WireOpen,
        Phase::Scalar,
        Phase::Runtime,
        Phase::WireClosed,
    ];

    pub fn traced_only(self) -> bool {
        matches!(self, Phase::Scalar | Phase::Runtime | Phase::WireClosed)
    }
}

/// Seed of every workload's rule-set. The rules are the workload's identity
/// and do not follow `--seed`: iSet partitioning has thresholds (an iSet is
/// kept only above `min_iset_coverage`), so another rule-set can have
/// another iSet count — a different workload, not another sample of this
/// one. `--seed` draws everything else: the packet trace, the oracle's
/// sample keys, the update stream and the arrival schedule.
const RULES_SEED: u64 = 0x5eed_2020;

/// One set of inputs. Every workload runs the same phases (so every
/// end-to-end metric exists on every workload); they differ in the rules,
/// the build configuration, and in how the measured seconds are divided
/// between lookups, updates and wire traffic.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: RuleKind,
    pub rules: usize,
    pub max_isets: usize,
    pub min_iset_coverage: f64,
    /// Weight of each [`Phase`] when `--seconds` is divided among the
    /// phases a run goes through.
    pub weights: [f64; 6],
}

impl Workload {
    /// Share of the measured seconds `phase` gets in an untraced run (three
    /// phases) or a traced one (all six).
    pub fn share(&self, phase: Phase, traced: bool) -> f64 {
        let active = |p: &Phase| traced || !p.traced_only();
        let total: f64 =
            Phase::ALL.iter().filter(|p| active(p)).map(|&p| self.weights[p as usize]).sum();
        if active(&phase) {
            self.weights[phase as usize] / total
        } else {
            0.0
        }
    }

    pub fn config(&self) -> NuevoMatchConfig {
        NuevoMatchConfig {
            max_isets: self.max_isets,
            min_iset_coverage: self.min_iset_coverage,
            ..NuevoMatchConfig::default()
        }
    }

    pub fn rules(&self) -> RuleSet {
        match self.kind {
            RuleKind::Acl => generate(AppKind::Acl, self.rules, RULES_SEED),
            RuleKind::Fib => stanford_fib(self.rules, RULES_SEED),
        }
    }
}

//                          batch churn wire-open | scalar runtime wire-closed
const LOOKUP_HEAVY: [f64; 6] = [0.32, 0.40, 0.28, 0.20, 0.15, 0.15];
const LIVE_HEAVY: [f64; 6] = [0.16, 0.46, 0.38, 0.10, 0.10, 0.25];

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "acl500k-tm",
        why: "Paper's headline point (500K ACL, nm/tm): the TupleMerge remainder is most of \
              per-packet time, so remainder and early-termination changes show, RQ-RMI ones barely",
        kind: RuleKind::Acl,
        rules: 500_000,
        max_isets: 4,
        min_iset_coverage: 0.05,
        weights: LOOKUP_HEAVY,
    },
    Workload {
        name: "fib500k-isets",
        why: "500K FIB in 8 iSets, remainder near empty: RQ-RMI inference, search and validation \
              are the whole lookup; bypasses the remainder engine",
        kind: RuleKind::Fib,
        rules: 500_000,
        max_isets: 8,
        min_iset_coverage: 0.0,
        weights: LOOKUP_HEAVY,
    },
    Workload {
        name: "churn-serve-acl100k",
        why: "100K ACL, most of the run on the live paths: update stream and retrain publishes \
              beside a reader, then the UDP wire path at the smallest frame, where I/O outweighs lookup",
        kind: RuleKind::Acl,
        rules: 100_000,
        max_isets: 4,
        min_iset_coverage: 0.05,
        weights: LIVE_HEAVY,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Independent stream `k` of the run's seed.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    SplitMix64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k)).next_u64()
}

/// Seeded update stream over a rule-set. It knows which rules should be live
/// after its batches (the base rules, which only ever get re-inserted
/// unchanged, plus the inserted rules not yet removed), so the final oracle
/// does not depend on the program under test.
///
/// Mix per op: 60 % modify (a base rule re-inserted with its box unchanged:
/// a matching-set change, so the live version drifts to the remainder),
/// 20 % insert (a new id over a base rule's box at a random priority, so it
/// wins some keys), 20 % remove (the oldest inserted rule; base rules are
/// never removed, so trace keys keep matching).
pub struct UpdateStream {
    rng: SplitMix64,
    base: Vec<Rule>,
    next_id: RuleId,
    /// Inserted rules still live, oldest first.
    inserted: VecDeque<Rule>,
}

impl UpdateStream {
    pub fn new(set: &RuleSet, seed: u64) -> Self {
        let base = set.rules().to_vec();
        let next_id = base.iter().map(|r| r.id).max().map_or(0, |m| m + 1);
        Self { rng: SplitMix64::new(seed), base, next_id, inserted: VecDeque::new() }
    }

    pub fn next_batch(&mut self) -> UpdateBatch {
        (0..OPS_PER_BATCH).map(|_| self.next_op()).collect()
    }

    fn next_op(&mut self) -> UpdateOp {
        let pick = self.rng.below(self.base.len() as u64) as usize;
        let u = self.rng.f64();
        if u >= 0.8 {
            if let Some(rule) = self.inserted.pop_front() {
                return UpdateOp::Remove(rule.id);
            }
        }
        if (0.6..0.8).contains(&u) {
            let priority = self.rng.below(self.base.len() as u64) as u32;
            let rule = Rule::new(self.next_id, priority, self.base[pick].fields.clone());
            self.next_id += 1;
            self.inserted.push_back(rule.clone());
            return UpdateOp::Insert(rule);
        }
        UpdateOp::Modify(self.base[pick].clone())
    }

    /// The rules that should be live after every batch handed out so far.
    pub fn truth(&self) -> Vec<Rule> {
        self.base.iter().chain(&self.inserted).cloned().collect()
    }
}

/// Poisson arrival offsets (ns) at `rate_per_s` over `[0, duration_s)`.
pub fn poisson_schedule(rate_per_s: f64, duration_s: f64, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity((rate_per_s * duration_s * 1.05) as usize + 16);
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.f64()).ln() / rate_per_s;
        if t >= duration_s {
            return out;
        }
        out.push((t * 1e9) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn poisson_schedule_has_the_asked_mean_rate_and_is_seeded() {
        let s = poisson_schedule(50_000.0, 2.0, 7);
        let rate = s.len() as f64 / 2.0;
        assert!((rate - 50_000.0).abs() < 500.0, "mean rate {rate}");
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        assert!(*s.last().unwrap() < 2_000_000_000);
        assert_eq!(s, poisson_schedule(50_000.0, 2.0, 7));
        assert_ne!(s, poisson_schedule(50_000.0, 2.0, 8));
    }

    #[test]
    fn shares_sum_to_one_and_names_are_unique() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            for traced in [false, true] {
                let sum: f64 = Phase::ALL.iter().map(|&p| w.share(p, traced)).sum();
                assert!((sum - 1.0).abs() < 1e-9, "{}", w.name);
            }
            assert_eq!(w.share(Phase::Runtime, false), 0.0);
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn update_stream_keeps_its_own_truth() {
        let set = generate(AppKind::Acl, 200, 3);
        let mut a = UpdateStream::new(&set, 5);
        let mut b = UpdateStream::new(&set, 5);
        let mut live: HashMap<RuleId, Rule> =
            set.rules().iter().map(|r| (r.id, r.clone())).collect();
        for _ in 0..50 {
            let batch = a.next_batch();
            assert_eq!(batch, b.next_batch());
            assert_eq!(batch.len(), OPS_PER_BATCH);
            for op in batch.ops() {
                match op {
                    UpdateOp::Insert(r) => assert!(live.insert(r.id, r.clone()).is_none()),
                    UpdateOp::Modify(r) => assert!(live.insert(r.id, r.clone()).is_some()),
                    UpdateOp::Remove(id) => assert!(live.remove(id).is_some()),
                }
            }
        }
        let mut truth = a.truth();
        truth.sort_by_key(|r| r.id);
        let mut want: Vec<Rule> = live.into_values().collect();
        want.sort_by_key(|r| r.id);
        assert_eq!(truth, want);
        // Base rules are never removed.
        assert!(set.rules().iter().all(|r| truth.iter().any(|t| t.id == r.id)));
    }
}
