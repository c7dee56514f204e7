//! Rule updates (paper §3.9) — the direct, `&mut self` control path.
//!
//! Four update types:
//!
//! * **action change** — external to the classifier (the action table is the
//!   caller's); no structural work.
//! * **deletion** — a tombstone in the owning iSet (validation rejects it)
//!   or a removal from the remainder engine.
//! * **matching-set change** — delete + insert: the new version always goes
//!   to the remainder, because there is no known algorithmic way to update a
//!   trained RQ-RMI in place.
//! * **insertion** — straight to the remainder.
//!
//! Updates therefore grow the remainder over time;
//! [`NuevoMatch::remainder_fraction`] tracks the drift and a retrain resets
//! it — exactly the Figure 7 model, which `nm-analysis` reproduces
//! analytically and `nm-bench update` measures. Two retrain
//! flavours exist: a full rebuild (`NuevoMatch::build` over
//! [`NuevoMatch::live_rules`]) and the cheaper **partial retrain**
//! ([`NuevoMatch::partial_retrain`], see [`super::retrain`]) that re-fits
//! only the drifted leaf submodels and pulls admissible remainder rules back
//! into their iSets.
//!
//! The one entry point is [`NuevoMatch::apply`] with an [`UpdateBatch`]
//! transaction (a single op is a batch of one). It requires exclusive
//! access (`&mut self`) and thus a quiesced data plane — concurrent readers
//! belong to [`super::ClassifierHandle`], which applies the same batches
//! against copy-on-write snapshots instead.
//!
//! ## Report semantics
//!
//! [`UpdateReport.removed`](nm_common::UpdateReport) counts **true
//! deletions** (`Remove` hits) only. An `Insert` or `Modify` that displaces
//! a live version of the same id — tombstoning an iSet copy or upserting in
//! the remainder — counts under `replaced`. The classifier itself is
//! unversioned: a handle publishes the result under a new stamp only when
//! the report shows an effective change
//! ([`UpdateReport::changed`](nm_common::UpdateReport::changed)), so a batch
//! of misses publishes nothing and invalidates no caches.

use nm_common::classifier::Classifier;
use nm_common::rule::{Rule, RuleId};
use nm_common::update::{BatchUpdatable, UpdateBatch, UpdateOp, UpdateReport};

use super::NuevoMatch;

impl<R: BatchUpdatable> NuevoMatch<R> {
    /// Applies a whole transaction: tombstones iSet rules and routes
    /// everything else to the remainder engine in a single remainder batch.
    /// Returns the merged accounting.
    pub fn apply(&mut self, batch: &UpdateBatch) -> UpdateReport {
        let mut report = UpdateReport::default();
        let mut remainder_ops = UpdateBatch::new();
        for op in batch.ops() {
            match op {
                UpdateOp::Insert(rule) => {
                    self.moved_updates += 1;
                    // Insert is an upsert on id, like the engines' own
                    // inserts (TupleMerge replaces a re-inserted id): a live
                    // iSet copy must die, or the stale version would keep
                    // matching until a retrain silently changed verdicts.
                    // That displacement is a *replacement* — the id keeps
                    // existing — not a deletion.
                    if self.tombstone_in_iset(rule.id) {
                        report.replaced += 1;
                    }
                    remainder_ops.push(UpdateOp::Insert(rule.clone()));
                }
                UpdateOp::Remove(id) => {
                    if self.tombstone_in_iset(*id) {
                        report.removed += 1;
                    } else {
                        remainder_ops.push(UpdateOp::Remove(*id));
                    }
                }
                UpdateOp::Modify(rule) => {
                    self.moved_updates += 1;
                    if self.tombstone_in_iset(rule.id) {
                        report.replaced += 1;
                        remainder_ops.push(UpdateOp::Insert(rule.clone()));
                    } else {
                        remainder_ops.push(UpdateOp::Modify(rule.clone()));
                    }
                }
            }
        }
        report.absorb(self.remainder_mut().apply(&remainder_ops));
        // Every insert adds a live rule unless it replaced one.
        self.total_rules = self.total_rules + report.inserted - report.replaced - report.removed;
        report
    }

    /// Tombstones `id` in its owning iSet, if it lives in one and is not
    /// already tombstoned (a modify may have moved the live version to the
    /// remainder, in which case the remainder owns the removal).
    fn tombstone_in_iset(&mut self, id: RuleId) -> bool {
        if let Some(&(iset_idx, pos)) = self.loc.get(&id) {
            let iset = &mut self.isets_mut()[iset_idx as usize];
            if !iset.is_deleted(pos as usize) {
                iset.tombstone(pos as usize);
                return true;
            }
        }
        false
    }

    /// Every rule this classifier currently serves: live (non-tombstoned)
    /// iSet rules plus the remainder engine's export. This is the control
    /// plane's ground truth for retrains and snapshot persistence.
    pub fn live_rules(&self) -> Vec<Rule> {
        let mut out = self.remainder().export_rules();
        for iset in self.isets() {
            for pos in 0..iset.len() {
                if !iset.is_deleted(pos) {
                    out.push(iset.rule_at(pos));
                }
            }
        }
        out
    }
}

impl<R: Classifier> NuevoMatch<R> {
    /// Rules that migrated into the remainder via updates since build.
    pub fn moved_to_remainder(&self) -> usize {
        self.moved_updates
    }

    /// Current fraction of the live rules served by the remainder engine —
    /// the quantity whose growth drives the Figure 7 throughput decay.
    pub fn remainder_fraction(&self) -> f64 {
        if self.total_rules == 0 {
            return 0.0;
        }
        self.remainder().num_rules() as f64 / self.total_rules as f64
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{NuevoMatchConfig, RqRmiParams};
    use crate::system::NuevoMatch;
    use nm_common::{
        BatchUpdatable, Classifier, FieldsSpec, FiveTuple, LinearSearch, RuleSet, UpdateBatch,
    };

    fn build(n: u16) -> NuevoMatch<LinearSearch> {
        let rules: Vec<_> = (0..n)
            .map(|i| {
                FiveTuple::new().dst_port_range(i * 100, i * 100 + 99).into_rule(i as u32, i as u32)
            })
            .collect();
        let set = RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap();
        let cfg = NuevoMatchConfig {
            rqrmi: RqRmiParams { samples_init: 256, ..Default::default() },
            ..Default::default()
        };
        NuevoMatch::build(&set, &cfg, LinearSearch::build).unwrap()
    }

    #[test]
    fn delete_from_iset_takes_effect() {
        let mut nm = build(100);
        let key = [0u64, 0, 0, 550, 0]; // rule 5
        assert_eq!(nm.classify(&key).unwrap().rule, 5);
        assert_eq!(nm.apply(&UpdateBatch::new().remove(5)).removed, 1);
        assert_eq!(nm.classify(&key), None);
        assert_eq!(nm.apply(&UpdateBatch::new().remove(5)).missing, 1, "double delete is a miss");
    }

    #[test]
    fn insert_goes_to_remainder() {
        let mut nm = build(50);
        let key = [0u64, 0, 0, 60_000, 0];
        assert_eq!(nm.classify(&key), None);
        let wide = FiveTuple::new().dst_port_range(59_000, 61_000).into_rule(999, 0);
        nm.apply(&UpdateBatch::new().insert(wide));
        assert_eq!(nm.classify(&key).unwrap().rule, 999);
        assert_eq!(nm.moved_to_remainder(), 1);
        assert!(nm.remainder_fraction() > 0.0);
    }

    #[test]
    fn modify_moves_rule_to_remainder() {
        let mut nm = build(50);
        // Rule 7 matched ports 700-799; move it to 40_000-40_099.
        let newer = FiveTuple::new().dst_port_range(40_000, 40_099).into_rule(7, 7);
        assert_eq!(nm.apply(&UpdateBatch::new().modify(newer)).replaced, 1);
        assert_eq!(nm.classify(&[0, 0, 0, 750, 0]), None);
        assert_eq!(nm.classify(&[0, 0, 0, 40_050, 0]).unwrap().rule, 7);
        // Modifying it again: the live version now lives in the remainder.
        let newest = FiveTuple::new().dst_port_range(50_000, 50_099).into_rule(7, 7);
        assert_eq!(nm.apply(&UpdateBatch::new().modify(newest)).replaced, 1);
        assert_eq!(nm.classify(&[0, 0, 0, 40_050, 0]), None);
        assert_eq!(nm.classify(&[0, 0, 0, 50_050, 0]).unwrap().rule, 7);
    }

    #[test]
    fn batch_apply_accounts_every_op() {
        let mut nm = build(60);
        let batch = UpdateBatch::new()
            .remove(3)
            .remove(3) // second one is a miss
            .insert(FiveTuple::new().dst_port_exact(61_111).into_rule(700, 0))
            .modify(FiveTuple::new().dst_port_range(45_000, 45_100).into_rule(8, 8));
        let report = nm.apply(&batch);
        assert_eq!(report.removed, 1, "rule 3 tombstone is the only true deletion");
        assert_eq!(report.replaced, 1, "rule 8 modify displaces, not deletes");
        assert_eq!(report.inserted, 2);
        assert_eq!(report.missing, 1);
        assert_eq!(nm.classify(&[0, 0, 0, 350, 0]), None);
        assert_eq!(nm.classify(&[0, 0, 0, 61_111, 0]).unwrap().rule, 700);
        assert_eq!(nm.classify(&[0, 0, 0, 45_050, 0]).unwrap().rule, 8);
    }

    #[test]
    fn noop_batch_reports_no_change() {
        // A batch whose every op missed serves the same content: its report
        // says so, and a handle publishes nothing for it (no new stamp, no
        // flow-cache invalidation).
        let mut nm = build(30);
        let report = nm.apply(&UpdateBatch::new().remove(9_999).remove(8_888).remove(7_777));
        assert_eq!(report.missing, 3);
        assert!(!report.changed());
        assert_eq!(nm.num_rules(), 30);
        // An effective op in the same batch shape does change it.
        let report = nm.apply(&UpdateBatch::new().remove(9_999).remove(3));
        assert_eq!((report.missing, report.removed), (1, 1));
        assert!(report.changed());
        assert_eq!(nm.num_rules(), 29);
    }

    #[test]
    fn upsert_insert_reports_replacement_not_deletion() {
        let mut nm = build(30);
        // Re-insert rule 4 with the same box: the live iSet copy dies, but
        // the id keeps existing — a replacement.
        let report = nm.apply(
            &UpdateBatch::new().insert(FiveTuple::new().dst_port_range(400, 499).into_rule(4, 4)),
        );
        assert_eq!((report.inserted, report.replaced, report.removed), (1, 1, 0));
        assert_eq!(nm.classify(&[0, 0, 0, 450, 0]).unwrap().rule, 4);
        // Modifying it again: the live version now sits in the remainder,
        // and the remainder's upsert also reports `replaced`.
        let report = nm.apply(
            &UpdateBatch::new().insert(FiveTuple::new().dst_port_range(400, 450).into_rule(4, 4)),
        );
        assert_eq!((report.inserted, report.replaced, report.removed), (1, 1, 0));
        assert_eq!(nm.classify(&[0, 0, 0, 480, 0]), None, "stale remainder copy must die");
    }

    #[test]
    fn live_rules_track_update_stream() {
        let mut nm = build(40);
        nm.apply(
            &UpdateBatch::new()
                .remove(0)
                .remove(39)
                .insert(FiveTuple::new().dst_port_exact(62_000).into_rule(100, 1)),
        );
        let mut live = nm.live_rules();
        live.sort_by_key(|r| r.id);
        assert_eq!(live.len(), 39);
        assert!(live.iter().all(|r| r.id != 0 && r.id != 39));
        assert!(live.iter().any(|r| r.id == 100));
        // The live set rebuilt as a fresh classifier agrees everywhere.
        let rebuilt = LinearSearch::from_rules(live);
        for port in (0u64..8_000).step_by(7) {
            let key = [0, 0, 0, port, 0];
            assert_eq!(nm.classify(&key), rebuilt.classify(&key), "port {port}");
        }
    }

    #[test]
    fn updated_classifier_still_agrees_with_oracle() {
        let mut nm = build(80);
        // Apply a batch of mixed updates, mirror them in a linear oracle.
        let rules: Vec<_> = (0..80u16)
            .map(|i| {
                FiveTuple::new().dst_port_range(i * 100, i * 100 + 99).into_rule(i as u32, i as u32)
            })
            .collect();
        let set = RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap();
        let mut oracle = LinearSearch::build(&set);
        let mut batch = UpdateBatch::new();
        for id in [3u32, 40, 77] {
            batch = batch.remove(id);
        }
        let add = FiveTuple::new().dst_port_range(300, 420).into_rule(500, 1);
        batch = batch.insert(add);
        nm.apply(&batch);
        oracle.apply(&batch);
        for port in (0u64..8_200).step_by(13) {
            let key = [1, 1, 1, port, 6];
            assert_eq!(nm.classify(&key), oracle.classify(&key), "port {port}");
        }
    }
}
