//! Rule-set container with an explicit per-field schema.

use crate::error::Error;
use crate::range::{domain_max, FieldRange};
use crate::rule::{Priority, Rule, RuleId};

/// Schema of a single field: its width in bits and a human-readable name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FieldSpec {
    /// Field name used in reports ("src-ip", "dst-port", ...).
    pub name: String,
    /// Width in bits (1..=64). Fields wider than 32 bits should be split, as
    /// the paper does for IPv6 — see [`FieldsSpec::split_wide`].
    pub bits: u8,
}

impl FieldSpec {
    /// Creates a field spec. Panics if `bits` is 0 or > 64.
    pub fn new(name: impl Into<String>, bits: u8) -> Self {
        assert!((1..=64).contains(&bits), "field width must be in 1..=64");
        Self { name: name.into(), bits }
    }
}

/// Ordered collection of [`FieldSpec`]s; the schema every rule and key in a
/// [`RuleSet`] must follow.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FieldsSpec {
    fields: Vec<FieldSpec>,
}

impl FieldsSpec {
    /// Builds a schema from the given field specs.
    pub fn new(fields: Vec<FieldSpec>) -> Self {
        assert!(!fields.is_empty(), "at least one field required");
        Self { fields }
    }

    /// The classic 5-tuple: src-ip/32, dst-ip/32, src-port/16, dst-port/16,
    /// proto/8 — the schema of every ClassBench-style set in this workspace.
    pub fn five_tuple() -> Self {
        Self::new(vec![
            FieldSpec::new("src-ip", 32),
            FieldSpec::new("dst-ip", 32),
            FieldSpec::new("src-port", 16),
            FieldSpec::new("dst-port", 16),
            FieldSpec::new("proto", 8),
        ])
    }

    /// A single-field schema (e.g. the Stanford backbone dst-ip FIBs).
    pub fn single(name: &str, bits: u8) -> Self {
        Self::new(vec![FieldSpec::new(name, bits)])
    }

    /// A uniform schema of `n` fields, all `bits` wide. Used by the
    /// "performance with more fields" microbenchmark (§5.3.5).
    pub fn uniform(n: usize, bits: u8) -> Self {
        Self::new((0..n).map(|i| FieldSpec::new(format!("f{i}"), bits)).collect())
    }

    /// Number of fields.
    #[inline]
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when there are no fields (never happens for valid specs).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// The spec of field `dim`.
    #[inline]
    pub fn field(&self, dim: usize) -> &FieldSpec {
        &self.fields[dim]
    }

    /// Iterates over the field specs in order.
    pub fn iter(&self) -> impl Iterator<Item = &FieldSpec> {
        self.fields.iter()
    }

    /// Width in bits of field `dim`.
    #[inline]
    pub fn bits(&self, dim: usize) -> u8 {
        self.fields[dim].bits
    }

    /// Largest value of field `dim`.
    #[inline]
    pub fn max_value(&self, dim: usize) -> u64 {
        domain_max(self.fields[dim].bits)
    }

    /// Splits every field wider than 32 bits into 32-bit parts (high part
    /// first), returning the new schema and a map `old dim -> new dims`.
    ///
    /// This is the §4 "handling long fields" strategy: iSet partitioning and
    /// RQ-RMI models work on single-precision floats, so 64/128-bit fields
    /// (MAC, IPv6) are better treated as several 32-bit fields.
    pub fn split_wide(&self) -> (FieldsSpec, Vec<Vec<usize>>) {
        let mut fields = Vec::new();
        let mut map = Vec::new();
        for f in &self.fields {
            let mut dims = Vec::new();
            if f.bits <= 32 {
                dims.push(fields.len());
                fields.push(f.clone());
            } else {
                let mut remaining = f.bits;
                let mut part = 0;
                while remaining > 0 {
                    let take = remaining.min(32);
                    dims.push(fields.len());
                    fields.push(FieldSpec::new(format!("{}:{}", f.name, part), take));
                    remaining -= take;
                    part += 1;
                }
            }
            map.push(dims);
        }
        (FieldsSpec::new(fields), map)
    }
}

/// A validated set of rules sharing one [`FieldsSpec`].
///
/// The set owns its rules in priority order of *insertion*: by default rule
/// `i` has priority `i` (ClassBench convention — earlier rules win). Rule
/// ids must be unique but need not be dense — a set rebuilt after updates
/// keeps its surviving rules' original ids.
#[derive(Clone, Debug)]
pub struct RuleSet {
    spec: FieldsSpec,
    rules: Vec<Rule>,
    /// id → position, consulted only when position `id` holds another
    /// rule: dense id sets (every generated set) resolve without hashing;
    /// sparse ones (post-update rebuilds) still resolve in O(1).
    index: std::collections::HashMap<RuleId, u32>,
}

impl RuleSet {
    /// Builds a set from pre-constructed rules, validating every rule against
    /// the schema (field count, domain bounds, id uniqueness).
    pub fn new(spec: FieldsSpec, rules: Vec<Rule>) -> Result<Self, Error> {
        let mut index = std::collections::HashMap::with_capacity(rules.len());
        for (pos, rule) in rules.iter().enumerate() {
            if rule.fields.len() != spec.len() {
                return Err(Error::SchemaMismatch {
                    rule: rule.id,
                    expected: spec.len(),
                    got: rule.fields.len(),
                });
            }
            for (dim, r) in rule.fields.iter().enumerate() {
                if r.hi > spec.max_value(dim) {
                    return Err(Error::OutOfDomain { rule: rule.id, dim, hi: r.hi });
                }
            }
            if index.insert(rule.id, pos as u32).is_some() {
                return Err(Error::Build { msg: format!("duplicate rule id {}", rule.id) });
            }
        }
        Ok(Self { spec, rules, index })
    }

    /// Builds a set from bare field-range rows; ids and priorities are
    /// assigned from position (row 0 = highest priority).
    pub fn from_ranges(spec: FieldsSpec, rows: Vec<Vec<FieldRange>>) -> Result<Self, Error> {
        let rules = rows
            .into_iter()
            .enumerate()
            .map(|(i, fields)| Rule::new(i as RuleId, i as Priority, fields))
            .collect();
        Self::new(spec, rules)
    }

    /// The schema.
    #[inline]
    pub fn spec(&self) -> &FieldsSpec {
        &self.spec
    }

    /// All rules, in id order.
    #[inline]
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The rule with the given id. Panics if the id is not in the set.
    #[inline]
    pub fn rule(&self, id: RuleId) -> &Rule {
        self.get(id).unwrap_or_else(|| panic!("rule id {id} is not in the set"))
    }

    /// The rule with the given id, or `None`. Tries position `id` first
    /// (ids equal positions in every set built from rows), then the map.
    #[inline]
    pub fn get(&self, id: RuleId) -> Option<&Rule> {
        match self.rules.get(id as usize) {
            Some(rule) if rule.id == id => Some(rule),
            _ => self.index.get(&id).map(|&pos| &self.rules[pos as usize]),
        }
    }

    /// The rule at a position (0..len), regardless of its id. Workload
    /// generators use this to draw uniform rules from sets whose ids are
    /// sparse after update rebuilds.
    #[inline]
    pub fn rule_at(&self, pos: usize) -> &Rule {
        &self.rules[pos]
    }

    /// Number of rules.
    #[inline]
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when the set has no rules.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Number of fields (schema length).
    #[inline]
    pub fn num_fields(&self) -> usize {
        self.spec.len()
    }

    /// Ground-truth classification: scans every rule, returns the
    /// highest-priority match. O(n) — for tests and tiny sets only; use
    /// [`crate::LinearSearch`] for a reusable engine.
    pub fn classify_scan(&self, key: &[u64]) -> Option<(RuleId, Priority)> {
        let mut best: Option<(RuleId, Priority)> = None;
        for rule in &self.rules {
            if rule.matches(key) {
                let cand = (rule.id, rule.priority);
                best = Some(match best {
                    None => cand,
                    Some(b) => crate::rule::better(b, cand),
                });
            }
        }
        best
    }

    /// Removes exact duplicates (identical boxes), keeping the
    /// highest-priority copy. Returns the number removed. ClassBench-style
    /// generators can emit duplicates; most classifiers tolerate them but the
    /// iSet partitioner is cleaner without.
    pub fn dedup(&mut self) -> usize {
        use std::collections::HashMap;
        let mut seen: HashMap<Vec<FieldRange>, (RuleId, Priority)> = HashMap::new();
        for rule in &self.rules {
            let e = seen.entry(rule.fields.clone()).or_insert((rule.id, rule.priority));
            *e = crate::rule::better(*e, (rule.id, rule.priority));
        }
        let keep: std::collections::HashSet<RuleId> = seen.values().map(|&(id, _)| id).collect();
        let before = self.rules.len();
        self.rules.retain(|r| keep.contains(&r.id));
        self.index = self.rules.iter().enumerate().map(|(pos, r)| (r.id, pos as u32)).collect();
        before - self.rules.len()
    }

    /// Returns a new set containing only the rules whose ids appear in `ids`
    /// (ids and priorities preserved). Used to split a set into iSets and a
    /// remainder.
    pub fn subset(&self, ids: &[RuleId]) -> RuleSet {
        let rules: Vec<Rule> = ids.iter().map(|&id| self.rule(id).clone()).collect();
        let index = rules.iter().enumerate().map(|(pos, r)| (r.id, pos as u32)).collect();
        RuleSet { spec: self.spec.clone(), rules, index }
    }

    /// Byte size of the raw rule storage (not an index). Reported separately
    /// from classifier index footprints, matching §5.2.1.
    pub fn storage_bytes(&self) -> usize {
        self.rules
            .iter()
            .map(|r| {
                std::mem::size_of::<Rule>() + r.fields.len() * std::mem::size_of::<FieldRange>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_tuple_schema() {
        let s = FieldsSpec::five_tuple();
        assert_eq!(s.len(), 5);
        assert_eq!(s.bits(0), 32);
        assert_eq!(s.bits(4), 8);
        assert_eq!(s.max_value(2), 65535);
    }

    #[test]
    fn schema_validation_rejects_bad_rules() {
        let spec = FieldsSpec::uniform(2, 8);
        let bad_arity = vec![Rule::new(0, 0, vec![FieldRange::exact(1)])];
        assert!(matches!(RuleSet::new(spec.clone(), bad_arity), Err(Error::SchemaMismatch { .. })));
        let bad_domain = vec![Rule::new(0, 0, vec![FieldRange::exact(1), FieldRange::exact(256)])];
        assert!(matches!(RuleSet::new(spec, bad_domain), Err(Error::OutOfDomain { .. })));
    }

    #[test]
    fn classify_scan_prefers_priority() {
        // Paper Figure 2: packet 10.10.3.100:19 matches R3 (pri 4) and R4 (pri 5) -> R3.
        let spec = FieldsSpec::new(vec![FieldSpec::new("ip", 32), FieldSpec::new("port", 16)]);
        let ip = |a: u64, b: u64, c: u64, d: u64| (a << 24) | (b << 16) | (c << 8) | d;
        let rows = vec![
            vec![FieldRange::from_prefix(ip(10, 10, 0, 0), 16, 32), FieldRange::new(10, 18)],
            vec![FieldRange::from_prefix(ip(10, 10, 1, 0), 24, 32), FieldRange::new(15, 25)],
            vec![FieldRange::from_prefix(ip(10, 0, 0, 0), 8, 32), FieldRange::new(5, 8)],
            vec![FieldRange::from_prefix(ip(10, 10, 3, 0), 24, 32), FieldRange::new(7, 20)],
            vec![FieldRange::exact(ip(10, 10, 3, 100)), FieldRange::exact(19)],
        ];
        let set = RuleSet::from_ranges(spec, rows).unwrap();
        let got = set.classify_scan(&[ip(10, 10, 3, 100), 19]).unwrap();
        assert_eq!(got.0, 3);
        // A packet matching nothing.
        assert_eq!(set.classify_scan(&[ip(11, 0, 0, 1), 9999]), None);
    }

    #[test]
    fn dedup_keeps_best() {
        let spec = FieldsSpec::uniform(1, 8);
        let rows = vec![
            vec![FieldRange::new(0, 10)],
            vec![FieldRange::new(0, 10)], // duplicate, lower priority
            vec![FieldRange::new(5, 20)],
        ];
        let mut set = RuleSet::from_ranges(spec, rows).unwrap();
        assert_eq!(set.dedup(), 1);
        assert_eq!(set.len(), 2);
        assert_eq!(set.classify_scan(&[3]).unwrap().0, 0);
    }

    #[test]
    fn split_wide_maps_dims() {
        let s = FieldsSpec::new(vec![FieldSpec::new("mac", 48), FieldSpec::new("p", 16)]);
        let (s2, map) = s.split_wide();
        assert_eq!(s2.len(), 3);
        assert_eq!(map, vec![vec![0, 1], vec![2]]);
        assert_eq!(s2.bits(0), 32);
        assert_eq!(s2.bits(1), 16);
    }

    #[test]
    fn subset_preserves_ids() {
        let spec = FieldsSpec::uniform(1, 8);
        let rows = (0..5).map(|i| vec![FieldRange::exact(i)]).collect();
        let set = RuleSet::from_ranges(spec, rows).unwrap();
        let sub = set.subset(&[3, 1]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.rules()[0].id, 3);
        assert_eq!(sub.rules()[1].priority, 1);
        // Ids no longer equal positions: lookups by id still resolve.
        assert_eq!(sub.rule(3).id, 3);
        assert_eq!(sub.rule(1).id, 1);
        assert!(sub.get(0).is_none() && sub.get(2).is_none() && sub.get(9).is_none());
    }
}
