//! Rules: axis-aligned boxes over the field domains, with a priority.

use crate::range::FieldRange;

/// Index of a rule inside its [`crate::RuleSet`].
pub type RuleId = u32;

/// Rule priority. **Smaller value = higher priority** (the paper's Figure 2
/// lists priority 1 as highest). Ties break toward the smaller [`RuleId`].
pub type Priority = u32;

/// A classification rule: one [`FieldRange`] per field plus a priority.
///
/// The number and order of fields must match the owning rule-set's
/// [`crate::FieldsSpec`]; [`crate::RuleSet::new`] validates this.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rule {
    /// Stable identifier; equals the rule's index in the originating set.
    pub id: RuleId,
    /// Smaller wins. Defaults to the rule's position (ClassBench order).
    pub priority: Priority,
    /// One inclusive range per field.
    pub fields: Vec<FieldRange>,
}

impl Rule {
    /// Creates a rule. `id` and `priority` are usually assigned by
    /// [`crate::RuleSet::from_ranges`]; use this directly for hand-built sets.
    pub fn new(id: RuleId, priority: Priority, fields: Vec<FieldRange>) -> Self {
        Self { id, priority, fields }
    }

    /// True iff the key (one value per field) lies inside the rule's box.
    #[inline]
    pub fn matches(&self, key: &[u64]) -> bool {
        debug_assert_eq!(key.len(), self.fields.len());
        self.fields.iter().zip(key).all(|(r, &v)| r.contains(v))
    }

    /// True iff the two rules' boxes share at least one point (overlap in
    /// every dimension).
    pub fn overlaps(&self, other: &Rule) -> bool {
        debug_assert_eq!(self.fields.len(), other.fields.len());
        self.fields.iter().zip(&other.fields).all(|(a, b)| a.overlaps(b))
    }

    /// A key guaranteed to match this rule: the low corner of its box.
    pub fn witness_key(&self) -> Vec<u64> {
        self.fields.iter().map(|r| r.lo).collect()
    }
}

/// Compares two candidate matches and keeps the winner under the workspace
/// priority rule (smaller priority, then smaller id).
#[inline]
pub fn better(a: (RuleId, Priority), b: (RuleId, Priority)) -> (RuleId, Priority) {
    if (b.1, b.0) < (a.1, a.0) {
        b
    } else {
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(id: u32, f: &[(u64, u64)]) -> Rule {
        Rule::new(id, id, f.iter().map(|&(lo, hi)| FieldRange::new(lo, hi)).collect())
    }

    #[test]
    fn matches_all_dims() {
        let rule = r(0, &[(10, 20), (5, 5)]);
        assert!(rule.matches(&[15, 5]));
        assert!(!rule.matches(&[15, 6]));
        assert!(!rule.matches(&[9, 5]));
    }

    #[test]
    fn overlap_requires_every_dim() {
        let a = r(0, &[(0, 10), (0, 10)]);
        let b = r(1, &[(10, 20), (10, 20)]);
        let c = r(2, &[(11, 20), (0, 10)]);
        assert!(a.overlaps(&b)); // share the point (10,10)
        assert!(!a.overlaps(&c)); // disjoint in dim 0
    }

    #[test]
    fn better_prefers_small_priority_then_id() {
        assert_eq!(better((5, 2), (9, 1)), (9, 1));
        assert_eq!(better((5, 2), (9, 2)), (5, 2));
        assert_eq!(better((9, 2), (5, 2)), (5, 2));
    }

    #[test]
    fn witness_matches() {
        let rule = r(3, &[(7, 9), (100, 200)]);
        assert!(rule.matches(&rule.witness_key()));
    }
}
