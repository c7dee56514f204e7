//! Rule-set sharding: the data model behind the NUMA-aware runtime.
//!
//! The paper's §4/§5.1 parallelization replicates the classifier per core.
//! Past one socket that stops scaling: every replica's working set spans
//! the whole rule-set, and remote-node memory traffic dominates. A
//! [`ShardPlan`] instead *partitions* the rule-set along one field so each
//! shard's engine indexes only its slice, packets are **steered** to the
//! shard owning their key, and per-shard verdicts merge by priority. The
//! caller names only the shard count; the plan always picks the steering
//! field itself, the one that leaves the busiest worker the fewest rules.
//!
//! Correctness is by construction, not by test: a rule is placed in a home
//! shard only when **every** key it can match steers to that shard (its
//! range in the steering field must fit inside one shard's interval). Any
//! rule that cannot make that guarantee — wildcards, ranges spanning a cut
//! — goes to the **broadcast shard**, which is consulted for every packet.
//! The best verdict for a packet is therefore
//! `better(home_shard(packet), broadcast(packet))`, which equals the best
//! verdict over all rules: every matching rule is in exactly one of the two
//! sets consulted. Priority/id tie-breaking ([`MatchResult::better`]) is
//! order-independent, so the merge cannot depend on shard count.
//!
//! The paper's replicated mode (every worker holds the whole set, whole
//! batches dealt round-robin) is not a plan: it shares one engine instead
//! of building N copies — `nuevomatch`'s `runtime::Replicated`.
//!
//! [`MatchResult::better`]: crate::classifier::MatchResult::better

use crate::error::Error;
use crate::rule::{Rule, RuleId};
use crate::ruleset::RuleSet;

/// Where one rule lives under a plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardRoute {
    /// Exactly one home shard serves every key this rule can match.
    Home(usize),
    /// The rule is consulted for every packet (wildcard/spanning rules).
    Broadcast,
}

/// A partition of a rule-set into per-shard subsets plus a broadcast
/// subset, and the steering function that maps packets to shards.
///
/// The plan is immutable once built; the control plane routes later rule
/// updates through [`ShardPlan::route_rule`] so inserts and modifies land
/// (or move) where steering will find them.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    dim: usize,
    shards: usize,
    /// Shard `s` covers `[cuts[s-1], cuts[s])` with implicit 0 and +inf
    /// ends — `cuts.len() == shards - 1`, ascending.
    cuts: Vec<u64>,
    home: Vec<Vec<RuleId>>,
    broadcast: Vec<RuleId>,
}

impl ShardPlan {
    /// Partitions `set` into `shards` home shards (≥ 1; `1` means "no
    /// sharding": one home shard holds everything, nothing broadcasts).
    /// Steering is by range: contiguous cuts of the steering field's domain,
    /// placed at quantiles of the rule distribution; rules whose range in
    /// that field fits inside one interval live there, the rest broadcast.
    ///
    /// The steering field is picked, never given: the one that minimises the
    /// busiest worker's rule load (largest home shard + broadcast set),
    /// preferring fewer broadcast rules on ties, then the lower field. A pure
    /// fewest-broadcast score would pick degenerate plans on wildcard-heavy
    /// fields (every rule "fits" one shard ⇒ zero broadcast, zero
    /// parallelism); the load term rejects those. Errors when `shards == 0`.
    pub fn build(set: &RuleSet, shards: usize) -> Result<Self, Error> {
        if shards == 0 {
            return Err(Error::Build { msg: "ShardPlan: shards must be >= 1".into() });
        }
        // One shard has no cuts, so every field scores alike and the pick
        // is field 0.
        let score = |p: &ShardPlan| {
            let max_home = p.home.iter().map(Vec::len).max().unwrap_or(0);
            (max_home + p.broadcast.len(), p.broadcast.len())
        };
        Ok((0..set.num_fields())
            .map(|dim| Self::build_in_dim(set, shards, dim))
            .min_by_key(score)
            .expect("at least one candidate field"))
    }

    fn build_in_dim(set: &RuleSet, n: usize, dim: usize) -> Self {
        // Quantile cuts over the rules' lower bounds: balances rule count
        // per shard when ranges are narrow relative to the domain (the
        // common ClassBench shape).
        let mut los: Vec<u64> = set.rules().iter().map(|r| r.fields[dim].lo).collect();
        los.sort_unstable();
        let mut cuts: Vec<u64> = (1..n)
            .map(|s| {
                let idx = (s * los.len()) / n;
                los.get(idx).copied().unwrap_or(u64::MAX)
            })
            .collect();
        // Dedup can merge cuts when the lo distribution is heavily
        // repeated; the effective shard count follows the cuts.
        cuts.dedup();
        let shards = cuts.len() + 1;
        let mut plan =
            Self { dim, shards, cuts, home: vec![Vec::new(); shards], broadcast: Vec::new() };
        for rule in set.rules() {
            match plan.route_rule(rule) {
                ShardRoute::Home(s) => plan.home[s].push(rule.id),
                ShardRoute::Broadcast => plan.broadcast.push(rule.id),
            }
        }
        plan
    }

    /// The steering field.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of home shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Rule ids of home shard `s`.
    pub fn home(&self, s: usize) -> &[RuleId] {
        &self.home[s]
    }

    /// Rule ids of the broadcast shard.
    pub fn broadcast(&self) -> &[RuleId] {
        &self.broadcast
    }

    /// Fraction of rules in the broadcast shard — the plan's quality metric
    /// (broadcast work is paid by every packet).
    pub fn broadcast_fraction(&self) -> f64 {
        let total = self.home.iter().map(Vec::len).sum::<usize>() + self.broadcast.len();
        if total == 0 {
            0.0
        } else {
            self.broadcast.len() as f64 / total as f64
        }
    }

    /// Home shard for a steering-field value.
    #[inline]
    fn shard_of_value(&self, v: u64) -> usize {
        self.cuts.partition_point(|&c| c <= v)
    }

    /// Steers one packet to its home shard, purely on the packet's
    /// steering-field value — a packet's shard never depends on its
    /// position in the trace.
    #[inline]
    pub fn steer(&self, key: &[u64]) -> usize {
        self.shard_of_value(key[self.dim])
    }

    /// Where a rule must live for steering to find it: a home shard when
    /// every key the rule matches steers there, otherwise broadcast.
    /// Update paths route inserts/modifies through this so the placement
    /// invariant survives rule churn.
    pub fn route_rule(&self, rule: &Rule) -> ShardRoute {
        let f = rule.fields[self.dim];
        let s = self.shard_of_value(f.lo);
        if self.shard_of_value(f.hi) == s {
            ShardRoute::Home(s)
        } else {
            ShardRoute::Broadcast
        }
    }

    /// Materialises the per-shard rule subsets: one [`RuleSet`] per home
    /// shard plus the broadcast subset (ids and priorities preserved).
    pub fn subsets(&self, set: &RuleSet) -> (Vec<RuleSet>, RuleSet) {
        let home = self.home.iter().map(|ids| set.subset(ids)).collect();
        (home, set.subset(&self.broadcast))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fivetuple::FiveTuple;
    use crate::ruleset::FieldsSpec;

    fn port_set(n: u16) -> RuleSet {
        let rules: Vec<_> = (0..n)
            .map(|i| {
                FiveTuple::new().dst_port_range(i * 100, i * 100 + 99).into_rule(i as u32, i as u32)
            })
            .collect();
        RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap()
    }

    #[test]
    fn range_plan_homes_fitting_rules_and_balances() {
        let set = port_set(400);
        let plan = ShardPlan::build(&set, 4).unwrap();
        assert_eq!(plan.dim(), 3);
        assert_eq!(plan.shards(), 4);
        let homed: usize = (0..4).map(|s| plan.home(s).len()).sum();
        // A cut can split at most one 100-wide rule per boundary.
        assert!(plan.broadcast().len() <= 3, "broadcast {}", plan.broadcast().len());
        assert_eq!(homed + plan.broadcast().len(), 400);
        for s in 0..4 {
            assert!(plan.home(s).len() >= 80, "shard {s} holds {}", plan.home(s).len());
        }
    }

    #[test]
    fn every_matching_rule_is_reachable() {
        // The construction invariant, checked exhaustively: for every rule
        // and every key in its steering range, the key steers to the rule's
        // home shard (or the rule broadcasts).
        let set = port_set(120);
        for shards in [1usize, 2, 3, 8] {
            let plan = ShardPlan::build(&set, shards).unwrap();
            for rule in set.rules() {
                let route = plan.route_rule(rule);
                for v in [
                    rule.fields[3].lo,
                    (rule.fields[3].lo + rule.fields[3].hi) / 2,
                    rule.fields[3].hi,
                ] {
                    let key = [0u64, 0, 0, v, 0];
                    let s = plan.steer(&key);
                    match route {
                        ShardRoute::Home(h) => assert_eq!(s, h, "rule {} v {v}", rule.id),
                        ShardRoute::Broadcast => {}
                    }
                }
            }
        }
    }

    #[test]
    fn auto_dim_minimises_broadcast() {
        // Rules exact in dst-port but wildcard everywhere else: only dim 3
        // shards without broadcasting everything.
        let rules: Vec<_> = (0..60u16)
            .map(|i| FiveTuple::new().dst_port_exact(i * 7).into_rule(i as u32, i as u32))
            .collect();
        let set = RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap();
        let plan = ShardPlan::build(&set, 2).unwrap();
        assert_eq!(plan.dim(), 3, "auto-pick must choose the diverse field");
        assert!(plan.broadcast().is_empty());
    }

    #[test]
    fn single_shard_plan_is_trivial() {
        let set = port_set(10);
        let plan = ShardPlan::build(&set, 1).unwrap();
        assert_eq!(plan.shards(), 1);
        assert_eq!(plan.home(0).len(), 10);
        assert!(plan.broadcast().is_empty());
        assert_eq!(plan.steer(&[0, 0, 0, 123, 0]), 0);
    }

    #[test]
    fn subsets_preserve_ids_and_cover_everything() {
        let set = port_set(90);
        let plan = ShardPlan::build(&set, 3).unwrap();
        let (home, broadcast) = plan.subsets(&set);
        let covered: usize = home.iter().map(RuleSet::len).sum::<usize>() + broadcast.len();
        assert_eq!(covered, 90);
        for (s, sub) in home.iter().enumerate() {
            for rule in sub.rules() {
                assert_eq!(plan.route_rule(rule), ShardRoute::Home(s));
            }
        }
    }

    #[test]
    fn rejects_zero_shards() {
        assert!(ShardPlan::build(&port_set(5), 0).is_err());
    }
}
