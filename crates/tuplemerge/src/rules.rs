//! Flat rule storage: every box in one array, ids and priorities in
//! another, so a clone is two `memcpy`s and a match check reads one
//! contiguous box.

use nm_common::range::FieldRange;
use nm_common::rule::{Priority, Rule, RuleId};

/// `home` of a vacant rule index.
const VACANT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Meta {
    id: RuleId,
    priority: Priority,
    /// The table the rule is filed in, so removal probes one table.
    home: u32,
}

/// The engine's rules, addressed by the dense `u32` index that table
/// entries carry. Indices of removed rules are reused.
#[derive(Clone, Debug)]
pub(crate) struct Rules {
    /// Words per box: `lo, hi` per field (the layout of `ISetCore::boxes`).
    width: usize,
    bounds: Vec<u64>,
    meta: Vec<Meta>,
    vacant: Vec<u32>,
}

impl Rules {
    pub fn new(nfields: usize, capacity: usize) -> Self {
        let width = nfields * 2;
        Self {
            width,
            bounds: Vec::with_capacity(capacity * width),
            meta: Vec::with_capacity(capacity),
            vacant: Vec::new(),
        }
    }

    /// Stores a rule (not yet filed in any table) and returns its index.
    pub fn store(&mut self, rule: &Rule) -> u32 {
        assert_eq!(rule.fields.len() * 2, self.width, "rule width differs from the schema");
        let meta = Meta { id: rule.id, priority: rule.priority, home: VACANT };
        let idx = self.vacant.pop().unwrap_or_else(|| {
            self.bounds.resize(self.bounds.len() + self.width, 0);
            self.meta.push(meta);
            self.meta.len() as u32 - 1
        });
        self.meta[idx as usize] = meta;
        let cells = self.bounds[idx as usize * self.width..][..self.width].chunks_exact_mut(2);
        for (cell, f) in cells.zip(&rule.fields) {
            cell.copy_from_slice(&[f.lo, f.hi]);
        }
        idx
    }

    /// Frees an index for reuse.
    pub fn release(&mut self, idx: u32) {
        self.meta[idx as usize].home = VACANT;
        self.vacant.push(idx);
    }

    pub fn set_home(&mut self, idx: u32, table: u32) {
        self.meta[idx as usize].home = table;
    }

    pub fn home(&self, idx: u32) -> u32 {
        self.meta[idx as usize].home
    }

    #[inline]
    pub fn id(&self, idx: u32) -> RuleId {
        self.meta[idx as usize].id
    }

    /// The `(priority, id)` key runs are sorted by.
    #[inline]
    pub fn rank(&self, idx: u32) -> (Priority, RuleId) {
        let Meta { id, priority, .. } = self.meta[idx as usize];
        (priority, id)
    }

    /// The rule's box: `lo, hi` per field.
    #[inline]
    pub fn bounds(&self, idx: u32) -> &[u64] {
        &self.bounds[idx as usize * self.width..][..self.width]
    }

    /// True iff `key` lies inside the rule's box.
    #[inline]
    pub fn matches(&self, idx: u32, key: &[u64]) -> bool {
        self.bounds(idx).chunks_exact(2).zip(key).all(|(b, &v)| b[0] <= v && v <= b[1])
    }

    /// The live rules, rebuilt as owned [`Rule`]s.
    pub fn export(&self) -> Vec<Rule> {
        let live = (0..self.meta.len() as u32).filter(|&idx| self.home(idx) != VACANT);
        live.map(|idx| {
            let fields = self.bounds(idx).chunks_exact(2).map(|b| FieldRange::new(b[0], b[1]));
            Rule::new(self.id(idx), self.rank(idx).0, fields.collect())
        })
        .collect()
    }
}
