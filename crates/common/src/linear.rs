//! Linear-scan reference classifier — the ground truth for every
//! correctness test in the workspace.

use crate::classifier::{Classifier, MatchResult};
use crate::rule::{Priority, Rule, RuleId};
use crate::ruleset::RuleSet;
use crate::update::{BatchUpdatable, UpdateBatch, UpdateReport};

/// Brute-force classifier: rules sorted by priority, first match wins.
///
/// O(n) per lookup, O(1) extra memory. Used as the correctness oracle and as
/// the degenerate baseline in scaling plots.
#[derive(Clone)]
pub struct LinearSearch {
    /// Rules sorted by (priority, id) so the first hit is the answer.
    rules: Vec<Rule>,
}

impl LinearSearch {
    /// Builds from a rule-set (copies the rules and sorts by priority).
    pub fn build(set: &RuleSet) -> Self {
        Self::from_rules(set.rules().to_vec())
    }

    /// Builds from an explicit rule list.
    pub fn from_rules(mut rules: Vec<Rule>) -> Self {
        rules.sort_by_key(|r| (r.priority, r.id));
        Self { rules }
    }

    fn insert_rule(&mut self, rule: Rule) {
        let pos = self.rules.partition_point(|r| (r.priority, r.id) < (rule.priority, rule.id));
        self.rules.insert(pos, rule);
    }

    fn remove_rule(&mut self, id: RuleId) -> bool {
        let before = self.rules.len();
        self.rules.retain(|r| r.id != id);
        self.rules.len() != before
    }
}

impl Classifier for LinearSearch {
    fn batch_lookup(
        &self,
        keys: &[u64],
        stride: usize,
        floors: Option<&[Priority]>,
        out: &mut [Option<MatchResult>],
    ) {
        for (i, (key, o)) in keys.chunks_exact(stride).zip(out).enumerate() {
            // Rules are priority-sorted: once priorities reach the floor no
            // rule can improve on it (`MAX` is no floor, so it scans all).
            let floor = floors.map_or(Priority::MAX, |f| f[i]);
            *o = self
                .rules
                .iter()
                .take_while(|r| floor == Priority::MAX || r.priority < floor)
                .find(|r| r.matches(key))
                .map(|r| MatchResult::new(r.id, r.priority));
        }
    }

    fn memory_bytes(&self) -> usize {
        // The "index" is just the sorted order; count the Vec of rule headers.
        self.rules.capacity() * std::mem::size_of::<Rule>()
    }

    fn name(&self) -> &'static str {
        "linear"
    }

    fn num_rules(&self) -> usize {
        self.rules.len()
    }
}

impl BatchUpdatable for LinearSearch {
    fn apply(&mut self, batch: &UpdateBatch) -> UpdateReport {
        crate::update::apply_ops(self, batch, Self::insert_rule, |s, id| s.remove_rule(id))
    }

    fn export_rules(&self) -> Vec<Rule> {
        self.rules.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::range::FieldRange;
    use crate::ruleset::FieldsSpec;

    fn tiny_set() -> RuleSet {
        let spec = FieldsSpec::uniform(2, 8);
        let rows = vec![
            vec![FieldRange::new(0, 100), FieldRange::new(0, 100)],
            vec![FieldRange::new(50, 60), FieldRange::new(50, 60)],
            vec![FieldRange::exact(55), FieldRange::exact(55)],
        ];
        RuleSet::from_ranges(spec, rows).unwrap()
    }

    #[test]
    fn agrees_with_scan() {
        let set = tiny_set();
        let ls = LinearSearch::build(&set);
        for key in [[55u64, 55], [50, 50], [99, 1], [200, 200]] {
            let got = ls.classify(&key).map(|m| (m.rule, m.priority));
            assert_eq!(got, set.classify_scan(&key));
        }
    }

    #[test]
    fn floor_prunes() {
        let set = tiny_set();
        let ls = LinearSearch::build(&set);
        // All three rules match (55,55); best priority is 0.
        assert_eq!(ls.classify(&[55, 55]).unwrap().priority, 0);
        // With floor 0 nothing can be better.
        assert_eq!(ls.classify_with_floor(&[55, 55], 0), None);
        // With floor 2, rule 0 (priority 0) still wins.
        assert_eq!(ls.classify_with_floor(&[55, 55], 2).unwrap().rule, 0);
    }

    #[test]
    fn updates() {
        let set = tiny_set();
        let mut ls = LinearSearch::build(&set);
        let report = ls.apply(&UpdateBatch::new().remove(0).remove(0));
        assert_eq!((report.removed, report.missing), (1, 1), "double delete reports absence");
        assert_eq!(ls.classify(&[99, 1]), None);
        let add = Rule::new(7, 0, vec![FieldRange::new(90, 100), FieldRange::new(0, 10)]);
        assert_eq!(ls.apply(&UpdateBatch::new().insert(add)).inserted, 1);
        assert_eq!(ls.classify(&[99, 1]).unwrap().rule, 7);
        assert_eq!(ls.num_rules(), 3);
        // The empty batch is a no-op, and a batch of pure misses reports no
        // change (a handle publishes nothing for either).
        assert_eq!(ls.apply(&UpdateBatch::new()), UpdateReport::default());
        let r = ls.apply(&UpdateBatch::new().remove(555).remove(556));
        assert_eq!((r.missing, r.changed()), (2, false));
        assert_eq!(ls.export_rules().len(), 3);
    }

    #[test]
    fn insert_is_an_upsert_on_id() {
        let set = tiny_set();
        let mut ls = LinearSearch::build(&set);
        let replacement = Rule::new(0, 0, vec![FieldRange::exact(7), FieldRange::exact(7)]);
        let r = ls.apply(&UpdateBatch::new().insert(replacement));
        assert_eq!((r.inserted, r.replaced, r.removed), (1, 1, 0));
        assert_eq!(ls.num_rules(), 3, "re-inserted id must not duplicate");
        assert_eq!(ls.classify(&[7, 7]).unwrap().rule, 0);
        assert_eq!(ls.classify(&[99, 1]), None, "old version of rule 0 must be gone");
    }
}
