//! Update-path integration: a long randomized update stream against
//! NuevoMatch (TupleMerge remainder) mirrored into a linear-search oracle,
//! with drift tracking and a rebuild at the end (the §3.9 lifecycle).

use nm_classbench::{generate, AppKind};
use nm_common::{Classifier, FiveTuple, LinearSearch, Rule, RuleSet, SplitMix64, UpdateBatch};
use nm_trace::uniform_trace;
use nm_tuplemerge::TupleMerge;
use nuevomatch::{NuevoMatch, NuevoMatchConfig, RqRmiParams};

fn cfg() -> NuevoMatchConfig {
    NuevoMatchConfig {
        rqrmi: RqRmiParams { samples_init: 512, ..Default::default() },
        ..Default::default()
    }
}

/// Maintains the "current truth" rule list alongside the engines.
struct Mirror {
    rules: Vec<Rule>,
}

impl Mirror {
    fn remove(&mut self, id: u32) -> bool {
        let before = self.rules.len();
        self.rules.retain(|r| r.id != id);
        self.rules.len() != before
    }
    fn insert(&mut self, rule: Rule) {
        self.remove(rule.id);
        self.rules.push(rule);
    }
    fn oracle(&self) -> LinearSearch {
        LinearSearch::from_rules(self.rules.clone())
    }
}

#[test]
fn long_update_stream_stays_correct() {
    let n = 1_000usize;
    let set = generate(AppKind::Acl, n, 21);
    let mut nm = NuevoMatch::build(&set, &cfg(), TupleMerge::build).unwrap();
    let mut mirror = Mirror { rules: set.rules().to_vec() };
    let mut rng = SplitMix64::new(22);
    let mut next_id = n as u32;

    for step in 0..400 {
        match rng.below(3) {
            0 => {
                let id = rng.below((n + step) as u64) as u32;
                let removed = nm.apply(&UpdateBatch::new().remove(id)).removed == 1;
                assert_eq!(removed, mirror.remove(id), "remove({id}) presence mismatch");
            }
            1 => {
                let lo = rng.below(60_000) as u16;
                let id = rng.below(n as u64) as u32;
                let rule = FiveTuple::new()
                    .dst_port_range(lo, lo.saturating_add(500))
                    .src_prefix_raw(rng.next_u64() as u32, 16)
                    .into_rule(id, id);
                nm.apply(&UpdateBatch::new().modify(rule.clone()));
                mirror.insert(rule);
            }
            _ => {
                let rule = FiveTuple::new()
                    .dst_port_exact(rng.below(65_536) as u16)
                    .into_rule(next_id, next_id);
                next_id += 1;
                nm.apply(&UpdateBatch::new().insert(rule.clone()));
                mirror.insert(rule);
            }
        }
        // Spot-check agreement every 40 updates.
        if step % 40 == 39 {
            let oracle = mirror.oracle();
            for _ in 0..200 {
                let key = [
                    rng.next_u64() & 0xffff_ffff,
                    rng.next_u64() & 0xffff_ffff,
                    rng.below(65_536),
                    rng.below(65_536),
                    rng.below(256),
                ];
                assert_eq!(nm.classify(&key), oracle.classify(&key), "step {step}");
            }
        }
    }
    assert!(nm.moved_to_remainder() > 0);
    assert!(nm.remainder_fraction() > 0.0);

    // The rebuild cycle: retrain from the mirrored truth, drift resets.
    let rebuilt_set = RuleSet::new(set.spec().clone(), mirror.rules.clone()).unwrap();
    let nm2 = NuevoMatch::build(&rebuilt_set, &cfg(), TupleMerge::build).unwrap();
    assert_eq!(nm2.moved_to_remainder(), 0);
    let oracle = mirror.oracle();
    for key in uniform_trace(&rebuilt_set, 1_000, 23).iter() {
        assert_eq!(nm2.classify(key), oracle.classify(key));
    }
}

#[test]
fn action_change_requires_no_structure_change() {
    // §3.9 type (i): actions live outside the classifier; the match result
    // (rule id) is the handle. Verify ids are stable across unrelated
    // updates.
    let set = generate(AppKind::Acl, 500, 24);
    let mut nm = NuevoMatch::build(&set, &cfg(), TupleMerge::build).unwrap();
    let trace = uniform_trace(&set, 300, 25);
    let before: Vec<_> = trace.iter().map(|k| nm.classify(k)).collect();
    // Delete a rule that the probe keys do not use, insert an unrelated one.
    let unused_id = 499u32;
    let unrelated =
        FiveTuple::new().dst_port_exact(64_999).proto_exact(200).into_rule(9_999, 9_999);
    nm.apply(&UpdateBatch::new().remove(unused_id).insert(unrelated));
    for (key, want) in trace.iter().zip(&before) {
        let got = nm.classify(key);
        if want.map(|m| m.rule) != Some(unused_id) && got.map(|m| m.rule) != Some(9_999) {
            assert_eq!(got, *want);
        }
    }
}
