//! The in-loop oracle validator (debug builds).
//!
//! The Chameleon-style validating-controller shape: whoever drives updates
//! (the CLI, a test, a bench) also publishes a [`LinearSearch`] built from
//! the rule truth *as of each generation* into an [`OracleTable`]. The
//! serve path then samples one in N served requests and replays the key
//! against the oracle **at the generation the batch was pinned to**. Any
//! disagreement is a torn generation or a data-plane bug and is counted in
//! [`super::stats::ServeStats::mismatches`], which tests assert to be zero.
//!
//! The table keeps a bounded window of recent generations; a sampled
//! request whose generation has already been evicted (or was never
//! published) is counted as skipped, not as a failure — the validator can
//! only vouch for what it has a truth for.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, PoisonError};

use nm_common::classifier::{Classifier, MatchResult};
use nm_common::update::Generation;
use nm_common::LinearSearch;

use super::stats::ServeStats;

/// Oracle generations an [`OracleTable`] retains for validation.
const ORACLE_KEEP: usize = 8;

/// Generation-indexed [`LinearSearch`] oracles, bounded to the most recent
/// window so a long-running service does not accumulate truth forever.
#[derive(Default)]
pub struct OracleTable {
    inner: Mutex<VecDeque<(Generation, Arc<LinearSearch>)>>,
}

impl OracleTable {
    /// A table retaining the 8 most recently published generations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes the truth for `generation`. Re-publishing a generation
    /// replaces the previous entry.
    pub fn publish(&self, generation: Generation, oracle: LinearSearch) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.retain(|(g, _)| *g != generation);
        inner.push_back((generation, Arc::new(oracle)));
        while inner.len() > ORACLE_KEEP {
            inner.pop_front();
        }
    }

    /// The oracle for `generation`, if still retained.
    pub fn get(&self, generation: Generation) -> Option<Arc<LinearSearch>> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .find(|(g, _)| *g == generation)
            .map(|(_, o)| o.clone())
    }

    /// Published generations currently retained (oldest first).
    pub fn generations(&self) -> Vec<Generation> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).iter().map(|(g, _)| *g).collect()
    }
}

/// Per-assembler sampling validator. `every = 0` disables it entirely.
pub struct Validator {
    table: Arc<OracleTable>,
    every: u64,
    seen: u64,
}

impl Validator {
    /// Validates one in `every` served requests against `table`.
    pub fn new(table: Arc<OracleTable>, every: u64) -> Self {
        Self { table, every, seen: 0 }
    }

    /// Whether the next served request is in the sample.
    #[inline]
    pub fn sample(&mut self) -> bool {
        if self.every == 0 {
            return false;
        }
        self.seen += 1;
        self.seen % self.every == 0
    }

    /// Replays `key` against the oracle at `generation` and compares with
    /// the verdict the data plane produced, updating `stats`.
    pub fn check(
        &self,
        key: &[u64],
        verdict: Option<MatchResult>,
        generation: Generation,
        stats: &mut ServeStats,
    ) {
        match self.table.get(generation) {
            None => stats.oracle_skipped += 1,
            Some(oracle) => {
                stats.validated += 1;
                let mut want = [None];
                oracle.classify_batch(key, key.len(), &mut want);
                if want[0] != verdict {
                    stats.mismatches += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_common::{FieldsSpec, FiveTuple, RuleSet};

    fn oracle(n: u16, prio_base: u32) -> LinearSearch {
        let rules: Vec<_> = (0..n)
            .map(|i| {
                FiveTuple::new()
                    .dst_port_range(i * 10, i * 10 + 9)
                    .into_rule(i as u32, prio_base + i as u32)
            })
            .collect();
        let set = RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap();
        LinearSearch::from_rules(set.rules().to_vec())
    }

    #[test]
    fn table_is_bounded_and_generation_indexed() {
        let t = OracleTable::new();
        let last = ORACLE_KEEP as Generation + 1;
        for g in 1..=last {
            t.publish(g, oracle(4, 100 * (g as u32 - 1)));
        }
        assert_eq!(t.generations(), (2..=last).collect::<Vec<_>>());
        assert!(t.get(1).is_none(), "evicted");
        let key = [0u64, 0, 0, 15, 0]; // dst_port 15 → rule 1
                                       // Gen 2 and gen 3 oracles disagree on priority — the table must
                                       // hand back the right truth per generation.
        assert_eq!(t.get(2).unwrap().classify(&key).unwrap().priority, 101);
        assert_eq!(t.get(3).unwrap().classify(&key).unwrap().priority, 201);
    }

    #[test]
    fn validator_counts_mismatches_and_skips() {
        let t = Arc::new(OracleTable::new());
        t.publish(7, oracle(4, 0));
        let mut v = Validator::new(t, 1);
        let mut stats = ServeStats::new();
        let key = [0u64, 0, 0, 15, 0]; // dst_port 15 → rule 1, priority 1
        assert!(v.sample());
        // Correct verdict for gen 7.
        v.check(&key, Some(MatchResult::new(1, 1)), 7, &mut stats);
        // Wrong verdict for gen 7.
        v.check(&key, None, 7, &mut stats);
        // Unknown generation: skipped, not failed.
        v.check(&key, None, 99, &mut stats);
        assert_eq!((stats.validated, stats.mismatches, stats.oracle_skipped), (2, 1, 1));
    }

    #[test]
    fn sampling_rate_is_one_in_n() {
        let t = Arc::new(OracleTable::new());
        let mut v = Validator::new(t, 8);
        let picked = (0..64).filter(|_| v.sample()).count();
        assert_eq!(picked, 8);
        let mut off = Validator::new(Arc::new(OracleTable::new()), 0);
        assert!((0..64).all(|_| !off.sample()));
    }
}
