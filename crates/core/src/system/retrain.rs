//! Incremental (partial) retraining — the §3.9 refinement.
//!
//! The paper's update model lets rules drift to the remainder until a
//! background retrain resets the drift; with only *full* rebuilds the
//! publish period (and hence the Figure 7 drift floor) is bounded by
//! whole-ruleset training time. When the drift is concentrated in a few
//! leaves of a few iSets, [`NuevoMatch::partial_retrain`] resets it at a
//! fraction of that cost:
//!
//! 1. **Plan admissions** — remainder rules whose projection fits an iSet's
//!    surviving (non-tombstoned) ranges without overlap are pulled back in
//!    ([`crate::iset::admit_into_iset`] — greedy interval scheduling against
//!    the fixed survivors). Everything else simply stays in the remainder.
//! 2. **Patch each touched iSet** — tombstones are compacted out, admitted
//!    rules spliced in, and only the *leaf* submodels of the iSet's RQ-RMI
//!    whose key region changed are re-fitted
//!    ([`crate::rqrmi::retrain_leaves`]); leaves whose ranges merely shifted
//!    index are patched in closed form, untouched leaves carry over
//!    bit-identically. Untouched iSets share their trained core via `Arc` —
//!    zero work.
//! 3. **Shrink the remainder** — admitted ids are removed from a
//!    copy-on-write clone of the remainder engine through the ordinary
//!    [`BatchUpdatable`] path; no remainder builder is needed.
//!
//! The result serves exactly [`NuevoMatch::live_rules`] — verdicts are
//! bit-identical to a from-scratch rebuild (both resolve the same rule
//! multiset by `(priority, id)`), which `tests/it_partial_retrain.rs`
//! property-checks against every updatable engine. Gates (drift too broad,
//! admission yield too low, validation failure) surface as errors so
//! [`super::ClassifierHandle::retrain`] can fall back to a full rebuild.

use std::collections::HashSet;

use nm_common::rule::{Rule, RuleId};
use nm_common::update::{BatchUpdatable, UpdateBatch};
use nm_common::Error;

use crate::config::NuevoMatchConfig;
use crate::rqrmi::LeafRetrainStats;
use crate::system::NuevoMatch;

/// What a [`NuevoMatch::partial_retrain`] pass did. Only tests read it: a
/// handle's retrain discards it and counts the pass in
/// `partial_retrains_completed`.
#[derive(Clone, Copy, Debug, Default)]
pub struct PartialRetrainReport {
    /// iSets rebuilt with patched arrays/models.
    pub isets_patched: usize,
    /// iSets shared untouched (`Arc` bump, zero work).
    pub isets_shared: usize,
    /// iSets dropped because updates emptied them.
    pub isets_dropped: usize,
    /// Rules pulled back from the remainder into iSets.
    pub readmitted: usize,
    /// Remainder rules that had drifted out of an iSet (admission targets).
    pub drifted: usize,
    /// Leaf submodels re-fitted from fresh samples, across all iSets.
    pub leaves_refit: usize,
    /// Leaf submodels patched by the closed-form rescale.
    pub leaves_rescaled: usize,
    /// Reachable leaf submodels across all patched iSets.
    pub leaves_total: usize,
}

impl PartialRetrainReport {
    fn absorb_leaf_stats(&mut self, s: LeafRetrainStats) {
        self.leaves_refit += s.refit;
        self.leaves_rescaled += s.rescaled;
        self.leaves_total += s.leaves;
    }
}

impl<R: BatchUpdatable + Clone> NuevoMatch<R> {
    /// Incremental (partial) retrain: resets the §3.9 drift by re-admitting
    /// remainder rules into their iSets and re-fitting only the affected
    /// leaf submodels, instead of rebuilding every iSet from scratch.
    ///
    /// Returns a patched classifier (the original is untouched — trained
    /// cores are `Arc`-shared, so this is copy-on-write like the handle's
    /// update path) and a [`PartialRetrainReport`]. Errors when the
    /// configured [`crate::config::PartialRetrainPolicy`] gates fire —
    /// drift too broad (`max_refit_fraction`), admission yield too low
    /// (`min_readmit_fraction`) — or when post-patch validation fails;
    /// callers treat any error as "do a full rebuild instead".
    ///
    /// The returned classifier's verdicts are bit-identical to a full
    /// rebuild from [`NuevoMatch::live_rules`]: both serve the same rule
    /// multiset and resolve matches by `(priority, id)`.
    pub fn partial_retrain(
        &self,
        cfg: &NuevoMatchConfig,
    ) -> Result<(Self, PartialRetrainReport), Error> {
        let policy = cfg.partial_retrain;
        let mut report = PartialRetrainReport::default();

        // Plan admissions: each remainder rule may be claimed by the first
        // iSet (largest first, mirroring build order) it fits into.
        let remainder_rules = self.remainder().export_rules();
        // Drift visible in the routing map, plus drift a *previous* partial
        // retrain left behind (whose ids fell out of `loc` when it
        // reassembled) — without the carried term the yield gate would keep
        // choosing the partial path while unadmittable drift accumulated in
        // the remainder, and the full rebuild that reclaims it would never
        // fire.
        let drifted_now = remainder_rules.iter().filter(|r| self.loc.contains_key(&r.id)).count();
        report.drifted = drifted_now + self.residual_drift;
        let mut claimed: HashSet<RuleId> = HashSet::new();
        let mut admitted_per_iset: Vec<Vec<Rule>> = Vec::with_capacity(self.isets().len());
        for iset in self.isets() {
            let (live_los, live_his) = iset.live_projection();
            let candidates: Vec<(RuleId, u64, u64)> = remainder_rules
                .iter()
                .filter(|r| !claimed.contains(&r.id))
                .map(|r| (r.id, r.fields[iset.dim()].lo, r.fields[iset.dim()].hi))
                .collect();
            let ids = crate::iset::admit_into_iset(&live_los, &live_his, &candidates);
            claimed.extend(ids.iter().copied());
            let id_set: HashSet<RuleId> = ids.into_iter().collect();
            admitted_per_iset
                .push(remainder_rules.iter().filter(|r| id_set.contains(&r.id)).cloned().collect());
        }
        report.readmitted = claimed.len();
        // Gate on like-for-like populations: of the rules that *drifted out
        // of an iSet* (remainder ids the build-time routing map knows), how
        // many come back? Fresh inserts that happen to fit an iSet inflate
        // `readmitted` but never reduced iSet coverage, so they must not
        // mask a drift floor that is not actually moving.
        let readmitted_drifted = claimed.iter().filter(|id| self.loc.contains_key(id)).count();
        if (readmitted_drifted as f64) < policy.min_readmit_fraction * report.drifted as f64 {
            return Err(Error::Build {
                msg: format!(
                    "partial_retrain: admission yield too low ({readmitted_drifted} of {} \
                     drifted rules re-admittable; min fraction {})",
                    report.drifted, policy.min_readmit_fraction
                ),
            });
        }

        // Patch the iSets: untouched ones share their core, emptied ones
        // drop, the rest go through the leaf-level retrain.
        let mut isets = Vec::with_capacity(self.isets().len());
        for (iset, admitted) in self.isets().iter().zip(&admitted_per_iset) {
            if iset.tombstones() == 0 && admitted.is_empty() {
                report.isets_shared += 1;
                isets.push(iset.clone());
                continue;
            }
            if iset.live_len() + admitted.len() == 0 {
                report.isets_dropped += 1;
                continue;
            }
            let (patched, stats) =
                iset.partial_retrain(admitted, &cfg.rqrmi, policy.max_refit_fraction)?;
            report.absorb_leaf_stats(stats);
            report.isets_patched += 1;
            isets.push(patched);
        }

        // Shrink the remainder copy-on-write through the ordinary batch
        // path (no builder needed — nothing is rebuilt).
        let mut remainder = self.remainder().clone();
        if !claimed.is_empty() {
            let mut removals = UpdateBatch::new();
            for &id in &claimed {
                removals = removals.remove(id);
            }
            remainder.apply(&removals);
        }

        let mut fresh =
            NuevoMatch::assemble(isets, remainder, self.early_termination(), self.spec().clone());
        // Carry the drift this pass could not reclaim: conservative (a
        // straggler admitted in a later pass still counts until a full
        // rebuild resets it), which only makes the yield gate fall back to
        // the full path sooner — never lets drift hide.
        fresh.residual_drift = report.drifted - readmitted_drifted;
        Ok((fresh, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PartialRetrainPolicy, RqRmiParams};
    use nm_common::{Classifier, FieldsSpec, FiveTuple, LinearSearch, RuleSet, UpdateBatch};

    fn port_set(n: u16) -> RuleSet {
        let rules: Vec<_> = (0..n)
            .map(|i| {
                FiveTuple::new().dst_port_range(i * 100, i * 100 + 99).into_rule(i as u32, i as u32)
            })
            .collect();
        RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap()
    }

    fn cfg(policy: PartialRetrainPolicy) -> NuevoMatchConfig {
        NuevoMatchConfig {
            rqrmi: RqRmiParams { samples_init: 256, ..Default::default() },
            partial_retrain: policy,
            ..Default::default()
        }
    }

    /// Drift a handful of neighbouring rules (concentrated, §3.9's cheap
    /// case) by re-inserting them with unchanged boxes.
    fn drift_concentrated(nm: &mut NuevoMatch<LinearSearch>, set: &RuleSet, ids: &[u32]) {
        let mut batch = UpdateBatch::new();
        for &id in ids {
            batch = batch.modify(set.rule(id).clone());
        }
        nm.apply(&batch);
    }

    #[test]
    fn partial_retrain_restores_structure_and_verdicts() {
        let set = port_set(300);
        let c = cfg(PartialRetrainPolicy::always());
        let mut nm = NuevoMatch::build(&set, &c, LinearSearch::build).unwrap();
        drift_concentrated(&mut nm, &set, &[3, 4, 5, 6]);
        assert!(nm.remainder_fraction() > 0.0);
        let before: Vec<_> =
            (0u64..40_000).step_by(37).map(|p| nm.classify(&[0, 0, 0, p, 0])).collect();

        let (fresh, report) = nm.partial_retrain(&c).unwrap();
        assert_eq!(report.readmitted, 4, "unchanged boxes must all re-admit: {report:?}");
        assert_eq!(report.isets_patched, 1);
        assert!(report.leaves_refit <= report.leaves_total / 2, "{report:?}");
        assert_eq!(fresh.remainder().num_rules(), 0, "drift fully reset");
        assert_eq!(fresh.num_rules(), 300);
        for (i, p) in (0u64..40_000).step_by(37).enumerate() {
            assert_eq!(fresh.classify(&[0, 0, 0, p, 0]), before[i], "port {p}");
        }
    }

    #[test]
    fn partial_retrain_leaves_unadmittable_rules_in_remainder() {
        let set = port_set(200);
        let c = cfg(PartialRetrainPolicy::always());
        let mut nm = NuevoMatch::build(&set, &c, LinearSearch::build).unwrap();
        // Rule 7 moves to a range overlapping live rule 10 — it cannot
        // rejoin the iSet and must stay in the remainder.
        let clash = FiveTuple::new().dst_port_range(1_000, 1_050).into_rule(7, 7);
        assert_eq!(nm.apply(&UpdateBatch::new().modify(clash)).replaced, 1);
        let before: Vec<_> =
            (0u64..22_000).step_by(13).map(|p| nm.classify(&[0, 0, 0, p, 0])).collect();
        let (fresh, report) = nm.partial_retrain(&c).unwrap();
        assert_eq!(report.readmitted, 0);
        assert_eq!(fresh.remainder().num_rules(), 1);
        for (i, p) in (0u64..22_000).step_by(13).enumerate() {
            assert_eq!(fresh.classify(&[0, 0, 0, p, 0]), before[i], "port {p}");
        }
    }

    #[test]
    fn partial_retrain_gates_on_admission_yield() {
        let set = port_set(120);
        let c = cfg(PartialRetrainPolicy::always());
        let mut nm = NuevoMatch::build(&set, &c, LinearSearch::build).unwrap();
        let clash = FiveTuple::new().dst_port_range(2_000, 2_050).into_rule(9, 9);
        assert_eq!(nm.apply(&UpdateBatch::new().modify(clash)).replaced, 1);
        // With a yield floor, the same drift is refused (fallback to full).
        let strict = cfg(PartialRetrainPolicy {
            enabled: true,
            max_refit_fraction: 1.0,
            min_readmit_fraction: 0.5,
        });
        assert!(nm.partial_retrain(&strict).is_err());
    }

    #[test]
    fn residual_drift_accumulates_until_the_yield_gate_falls_back() {
        // Regression: drift a partial retrain cannot re-admit falls out of
        // `loc` on reassembly, so a gate looking only at the routing map
        // would approve the partial path forever while stragglers piled up
        // in the remainder. The carried `residual_drift` term must trip the
        // gate on a later cycle instead.
        let set = port_set(120);
        let policy = PartialRetrainPolicy {
            enabled: true,
            max_refit_fraction: 1.0,
            min_readmit_fraction: 0.5,
        };
        let c = cfg(policy);
        let mut nm = NuevoMatch::build(&set, &c, LinearSearch::build).unwrap();
        // Cycle 1: one re-admittable drift (unchanged box) + one straggler
        // (new box overlaps live rule 10) — yield exactly 1/2, gate passes.
        nm.apply(
            &UpdateBatch::new()
                .modify(set.rule(20).clone())
                .modify(FiveTuple::new().dst_port_range(1_000, 1_050).into_rule(9, 9)),
        );
        let (fresh, report) = nm.partial_retrain(&c).unwrap();
        assert_eq!((report.drifted, report.readmitted), (2, 1), "{report:?}");
        assert_eq!(fresh.residual_drift(), 1, "the straggler must be carried forward");
        // Cycle 2: same shape again. Without the carried term the yield
        // would read 1/2 and pass; with it, 1 of 3 falls below 0.5.
        let mut nm = fresh;
        nm.apply(
            &UpdateBatch::new()
                .modify(set.rule(25).clone())
                .modify(FiveTuple::new().dst_port_range(3_100, 3_150).into_rule(30, 30)),
        );
        let err = nm.partial_retrain(&c);
        assert!(err.is_err(), "accumulated residual drift must force the full-rebuild fallback");
    }

    #[test]
    fn partial_retrain_after_pure_deletions() {
        let set = port_set(250);
        let c = cfg(PartialRetrainPolicy::always());
        let mut nm = NuevoMatch::build(&set, &c, LinearSearch::build).unwrap();
        nm.apply(&UpdateBatch::new().remove(10).remove(11).remove(12));
        let (fresh, report) = nm.partial_retrain(&c).unwrap();
        assert_eq!(report.readmitted, 0);
        assert_eq!(fresh.num_rules(), 247);
        assert_eq!(fresh.isets()[0].tombstones(), 0, "tombstones compacted away");
        let oracle = LinearSearch::from_rules(nm.live_rules());
        for p in (0u64..30_000).step_by(17) {
            let key = [0, 0, 0, p, 0];
            assert_eq!(fresh.classify(&key), oracle.classify(&key), "port {p}");
        }
    }
}
