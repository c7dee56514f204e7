//! One tuple table: a direct-indexed slot array over one entry arena (the
//! crate docs describe the layout). A slot keeps no key: distinct masked
//! values that share a slot share its run, the slot's 32-bit filter (one bit
//! per masked value filed there) turns most such strangers away, and the
//! full box check on each candidate rule keeps matching exact.
//!
//! Update-in-place invariants, kept by [`Table::insert`], [`Table::remove`]
//! and the rebuild behind them:
//!
//! * every run is sorted by `(priority, id)` and owns `len.next_power_of_two()`
//!   arena cells; a run that outgrows them moves to the arena tail, and the
//!   cells it leaves are counted as garbage until the next rebuild;
//! * a slot's `best` and `keys` are exact — the (clamped) priority of its
//!   run's first entry and the union of its rules' key bits — and are
//!   re-derived after a removal; [`EMPTY`] and `0` for an empty run;
//! * occupied slots never exceed three quarters of the slot array.

use crate::hasher;
use crate::rules::Rules;
use crate::tuple::Tuple;
use nm_common::memsize;
use nm_common::rule::Priority;
use nm_common::ruleset::FieldsSpec;

/// Slot-level "no rule here". A rule whose priority *is* `Priority::MAX`
/// counts as `MAX - 1` at slot and table level ([`slot_priority`]) so the
/// marker stays unambiguous; entries keep the true priority.
pub(crate) const EMPTY: Priority = Priority::MAX;

/// The priority a rule contributes to its slot's and table's bound.
fn slot_priority(p: Priority) -> Priority {
    p.min(EMPTY - 1)
}

/// Garbage cells tolerated before a table is compacted at all.
const MIN_GARBAGE: usize = 64;

/// One filed rule: its priority inline (the walk stops on it before any
/// rule is touched) and its index into [`Rules`].
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Entry {
    pub priority: Priority,
    pub rule: u32,
}

/// A probe reads `best` and `keys` first and, on a miss, nothing else.
#[derive(Clone, Copy, Debug)]
struct Slot {
    /// Clamped priority of the run's best entry; [`EMPTY`] when vacant.
    best: Priority,
    /// One bit per masked value filed here (see [`Table::place`]).
    keys: u32,
    /// The run: `len` live entries from `start` in the arena.
    start: u32,
    len: u32,
}

const VACANT: Slot = Slot { best: EMPTY, keys: 0, start: 0, len: 0 };

/// Arena cells a run of `len` entries owns.
fn run_cells(len: usize) -> usize {
    (len > 0) as usize * len.next_power_of_two()
}

/// Every rule filed under one (possibly relaxed) tuple.
#[derive(Clone, Debug)]
pub(crate) struct Table {
    /// Mask lengths per field.
    pub lens: Tuple,
    /// Sum of the mask lengths: of the tables a rule fits in, it is filed
    /// in the finest.
    pub fineness: u32,
    /// `(field, right shift)` for the non-wildcard fields — all a hash reads.
    active: Vec<(u8, u8)>,
    /// `64 - log2(slots)`: a hash's top bits index the slot array.
    shift: u32,
    slots: Vec<Slot>,
    entries: Vec<Entry>,
    /// Arena cells no run owns.
    garbage: usize,
    occupied: usize,
    /// Lower bound on every slot's `best`: lowered by inserts, never raised
    /// by a removal, made exact by a rebuild or [`Table::tighten`].
    pub best_priority: Priority,
}

impl Table {
    /// Creates an empty table for the given mask lengths.
    pub fn new(lens: Tuple, spec: &FieldsSpec) -> Self {
        let active = (lens.0.iter().enumerate())
            .filter(|&(_, &len)| len > 0)
            .map(|(d, &len)| (d as u8, spec.bits(d) - len))
            .collect();
        Self {
            fineness: lens.0.iter().map(|&l| l as u32).sum(),
            lens,
            active,
            shift: 62,
            slots: vec![VACANT; 4],
            entries: Vec::new(),
            garbage: 0,
            occupied: 0,
            best_priority: EMPTY,
        }
    }

    /// Hash of a key (or of a rule's low corner — identical under a mask
    /// the rule fits): its non-wildcard fields, masked. `field(d)` is the
    /// value in field `d`.
    #[inline]
    pub fn hash(&self, field: impl Fn(usize) -> u64) -> u64 {
        let mix = |h, &(d, shift): &(u8, u8)| hasher::mix(h, field(d as usize) >> shift);
        self.active.iter().fold(hasher::INIT, mix)
    }

    /// [`Table::hash`] of key `i` of a flat key buffer, for every `i` in
    /// `live`. Field-major, so the inner loop runs over independent keys
    /// with the field and shift in registers.
    #[inline]
    pub fn hash_batch(&self, keys: &[u64], stride: usize, live: &[u8], hashes: &mut [u64]) {
        // nm-lint: hotpath
        let hashes = &mut hashes[..live.len()];
        hashes.fill(hasher::INIT);
        for &(d, shift) in &self.active {
            for (h, &i) in hashes.iter_mut().zip(live) {
                *h = hasher::mix(*h, keys[i as usize * stride + d as usize] >> shift);
            }
        }
        // nm-lint: end-hotpath
    }

    /// Where a hash lands: its slot, from the top bits, and its key bit in
    /// that slot's filter, from the five bits below them.
    #[inline]
    pub fn place(&self, hash: u64) -> (usize, u32) {
        // nm-lint: hotpath
        ((hash >> self.shift) as usize, 1 << ((hash >> (self.shift - 5)) & 31))
        // nm-lint: end-hotpath
    }

    fn place_rule(&self, rule: u32, rules: &Rules) -> (usize, u32) {
        let bounds = rules.bounds(rule);
        self.place(self.hash(|d| bounds[2 * d]))
    }

    /// False when slot `s` holds nothing for a key with this key bit whose
    /// candidates need a priority below `lim` — the one-load miss.
    #[inline]
    pub fn may_hold(&self, s: usize, key_bit: u32, lim: Priority) -> bool {
        // nm-lint: hotpath
        let slot = self.slots[s];
        (slot.best < lim) & (slot.keys & key_bit != 0)
        // nm-lint: end-hotpath
    }

    /// Slot `s`'s entries, best first.
    #[inline]
    pub fn run(&self, s: usize) -> &[Entry] {
        let Slot { start, len, .. } = self.slots[s];
        &self.entries[start as usize..][..len as usize]
    }

    /// Files a rule in its slot's run; returns the run's length after the
    /// insertion (the collision-limit check).
    pub fn insert(&mut self, rule: u32, rules: &Rules) -> usize {
        if (self.occupied + 1) * 4 > self.slots.len() * 3 {
            self.rebuild(self.slots.len() * 2, rules);
        }
        let (s, key_bit) = self.place_rule(rule, rules);
        let rank = rules.rank(rule);
        let pos = self.run(s).partition_point(|e| rules.rank(e.rule) < rank);
        let slot = self.slots[s];
        let (mut start, len) = (slot.start as usize, slot.len as usize);
        if len == run_cells(len) {
            // Full (or empty): move to the arena tail with twice the room.
            let tail = self.entries.len();
            self.entries.extend_from_within(start..start + len);
            self.entries.resize(tail + run_cells(len + 1), Entry::default());
            self.garbage += len;
            start = tail;
        }
        self.entries.copy_within(start + pos..start + len, start + pos + 1);
        self.entries[start + pos] = Entry { priority: rank.0, rule };
        let best = slot.best.min(slot_priority(rank.0));
        self.slots[s] =
            Slot { best, keys: slot.keys | key_bit, start: start as u32, len: len as u32 + 1 };
        self.best_priority = self.best_priority.min(best);
        self.occupied += (len == 0) as usize;
        self.compact_if_wasteful(rules);
        len + 1
    }

    /// Unfiles a rule that [`Table::insert`] filed here.
    pub fn remove(&mut self, rule: u32, rules: &Rules) {
        let (s, _) = self.place_rule(rule, rules);
        let (start, len) = (self.slots[s].start as usize, self.slots[s].len as usize);
        let run = &mut self.entries[start..start + len];
        let pos = run.iter().position(|e| e.rule == rule).expect("rule is filed under its slot");
        run.copy_within(pos + 1.., pos);
        self.slots[s].len -= 1;
        let run = self.run(s);
        let best = run.first().map_or(EMPTY, |e| slot_priority(e.priority));
        let keys = run.iter().fold(0, |keys, e| keys | self.place_rule(e.rule, rules).1);
        (self.slots[s].best, self.slots[s].keys) = (best, keys);
        self.garbage += run_cells(len) - run_cells(len - 1);
        self.occupied -= (len == 1) as usize;
        self.compact_if_wasteful(rules);
    }

    fn compact_if_wasteful(&mut self, rules: &Rules) {
        if self.garbage > MIN_GARBAGE && self.garbage * 2 > self.entries.len() {
            self.rebuild(self.slots.len(), rules);
        }
    }

    /// Lays the table out afresh over `slots` slots: runs back to back in
    /// slot order, no garbage, `best_priority` exact. Doubling the slots
    /// splits each slot in two and keeping them moves no rule to another
    /// slot, so the stable scatter below keeps every run sorted.
    fn rebuild(&mut self, slots: usize, rules: &Rules) {
        let filed: Vec<Entry> = (0..self.slots.len()).flat_map(|s| self.run(s)).copied().collect();
        self.shift = 64 - slots.trailing_zeros();
        self.slots = vec![VACANT; slots];
        for e in &filed {
            let (s, _) = self.place_rule(e.rule, rules);
            self.slots[s].len += 1;
        }
        let mut cells = 0;
        for slot in &mut self.slots {
            slot.start = cells as u32;
            cells += run_cells(std::mem::take(&mut slot.len) as usize);
        }
        self.entries = vec![Entry::default(); cells];
        for e in filed {
            let (s, key_bit) = self.place_rule(e.rule, rules);
            let slot = &mut self.slots[s];
            self.entries[(slot.start + slot.len) as usize] = e;
            slot.best = slot.best.min(slot_priority(e.priority));
            slot.keys |= key_bit;
            slot.len += 1;
        }
        self.garbage = 0;
        self.occupied = self.slots.iter().filter(|s| s.len > 0).count();
        self.tighten();
    }

    /// Makes `best_priority` exact — [`EMPTY`] for an emptied table, which
    /// no key then probes.
    pub fn tighten(&mut self) {
        self.best_priority = self.slots.iter().map(|s| s.best).min().unwrap_or(EMPTY);
    }

    /// True when no rule is filed here.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// Every filed rule index (table split).
    pub fn members(&self) -> Vec<u32> {
        (0..self.slots.len()).flat_map(|s| self.run(s)).map(|e| e.rule).collect()
    }

    /// Longest run (diagnostics).
    pub fn max_bucket(&self) -> usize {
        self.slots.iter().map(|s| s.len as usize).max().unwrap_or(0)
    }

    /// Index bytes: the slot array, the entry arena and the hash recipe.
    pub fn memory_bytes(&self) -> usize {
        let recipe = memsize::vec_bytes(&self.active) + memsize::vec_bytes(&self.lens.0);
        memsize::vec_bytes(&self.slots)
            + memsize::vec_bytes(&self.entries)
            + recipe
            + std::mem::size_of::<Self>()
    }

    /// Checks the update-in-place invariants in the module docs.
    #[cfg(test)]
    pub fn assert_invariants(&self, rules: &Rules) {
        let mut owned = 0;
        for s in 0..self.slots.len() {
            let run = self.run(s);
            assert!(run.windows(2).all(|w| rules.rank(w[0].rule) < rules.rank(w[1].rule)));
            assert!(run.iter().all(|e| self.place_rule(e.rule, rules).0 == s));
            assert!(run.iter().all(|e| e.priority == rules.rank(e.rule).0));
            let min = run.iter().map(|e| slot_priority(e.priority)).min();
            let Slot { best, keys, .. } = self.slots[s];
            assert_eq!(best, min.unwrap_or(EMPTY), "slot {s} best is not its run's minimum");
            let key_bits = run.iter().fold(0, |bits, e| bits | self.place_rule(e.rule, rules).1);
            assert_eq!(keys, key_bits, "slot {s} filter is stale");
            assert!(best >= self.best_priority);
            owned += run_cells(run.len());
        }
        assert_eq!(owned + self.garbage, self.entries.len(), "arena cells unaccounted for");
        assert_eq!(self.occupied, self.slots.iter().filter(|s| s.len > 0).count());
        assert!(self.occupied * 4 <= self.slots.len() * 3, "load above 3/4");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_common::{FieldRange, FieldsSpec, Rule};

    fn port_rule(id: u32, pri: Priority, port: (u64, u64)) -> Rule {
        let mut fields: Vec<FieldRange> =
            [32, 32, 16, 16, 8].iter().map(|&b| FieldRange::wildcard(b)).collect();
        fields[3] = FieldRange::new(port.0, port.1);
        Rule::new(id, pri, fields)
    }

    fn filed(lens: &[u8], list: &[Rule]) -> (Table, Rules) {
        let spec = FieldsSpec::five_tuple();
        let mut rules = Rules::new(5, 0);
        let mut t = Table::new(Tuple(lens.to_vec()), &spec);
        for r in list {
            let idx = rules.store(r);
            rules.set_home(idx, 0);
            t.insert(idx, &rules);
        }
        t.assert_invariants(&rules);
        (t, rules)
    }

    #[test]
    fn insert_probe_remove() {
        let (mut t, rules) = filed(&[0, 0, 0, 16, 0], &[port_rule(7, 3, (443, 443))]);
        assert_eq!((t.best_priority, t.is_empty()), (3, false));
        // A key with dst-port 443 probes the same slot.
        let (s, key_bit) = t.place(t.hash(|d| [1u64, 2, 3, 443, 6][d]));
        assert!(t.may_hold(s, key_bit, 4) && !t.may_hold(s, key_bit, 3));
        assert!(!t.may_hold(s, key_bit.rotate_left(1), 4), "another masked value");
        assert_eq!(t.run(s).iter().map(|e| e.rule).collect::<Vec<_>>(), [0]);
        t.remove(0, &rules);
        assert!(!t.may_hold(s, key_bit, EMPTY) && t.run(s).is_empty());
        assert!(t.is_empty());
    }

    #[test]
    fn range_rule_and_in_range_keys_share_hash() {
        // 1024-2047 = one /6 block; the table masks dst-port at /6.
        let (t, rules) = filed(&[0, 0, 0, 6, 0], &[port_rule(0, 0, (1024, 2047))]);
        let at = t.place_rule(0, &rules);
        for port in [1024u64, 1500, 2047] {
            assert_eq!(t.place(t.hash(|d| [0, 0, 0, port, 0][d])), at);
        }
        // Wildcard fields are not hashed at all, and the batch hash agrees.
        let mut hashes = [0; 2];
        t.hash_batch(&[7, 7, 7, 7, 7, 9, 9, 9, 1500, 9], 5, &[1], &mut hashes);
        assert_eq!(t.place(hashes[0]), at);
        assert_eq!(t.active, [(3, 10)]);
    }

    #[test]
    fn drain_returns_everything() {
        let list: Vec<Rule> = (0..10u32).map(|i| port_rule(i, i, (i as u64, i as u64))).collect();
        let (t, _) = filed(&[0, 0, 0, 16, 0], &list);
        let mut members = t.members();
        members.sort_unstable();
        assert_eq!(members, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn runs_stay_sorted_through_relocation_growth_and_compaction() {
        // Same port => same run; priorities collide on purpose.
        let list: Vec<Rule> = (0..40u32).map(|i| port_rule(40 - i, i % 3, (80, 80))).collect();
        let (mut t, mut rules) = filed(&[0, 0, 0, 16, 0], &list);
        assert_eq!(t.max_bucket(), 40);
        // Many distinct ports: forces slot-array growth.
        for i in 0..300u32 {
            let idx = rules.store(&port_rule(100 + i, i % 7, (1000 + i as u64, 1000 + i as u64)));
            rules.set_home(idx, 0);
            t.insert(idx, &rules);
        }
        t.assert_invariants(&rules);
        // 110 of the 301 ports share a slot with another: 191 occupied
        // slots, which a ¾ load first fits in 256.
        assert_eq!((t.slots.len(), t.occupied), (256, 191));
        let mut members = t.members();
        members.sort_unstable();
        assert_eq!(members, (0..340).collect::<Vec<u32>>());
        // Removals re-read the slot's best and eventually compact the arena.
        for idx in 0..339u32 {
            t.remove(idx, &rules);
            t.assert_invariants(&rules);
        }
        assert_eq!(t.members(), [339]);
        assert!(t.entries.len() <= MIN_GARBAGE + 1, "arena never compacted: {}", t.entries.len());
    }
}
