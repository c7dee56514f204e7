//! §5.3.5 — validation time vs number of fields.
//!
//! Paper: validation grows almost linearly from ~25 ns at 1 field to
//! ~180 ns at 40 fields (OpenFlow 1.4 allows 41). The microbenchmark builds
//! uniform n-field schemas, trains a single-iSet NuevoMatch, and times the
//! validation phase in isolation.

use crate::{Ctx, Outcome};
use nm_analysis::Table;
use nm_common::{FieldRange, FieldsSpec, LinearSearch, RuleSet, SplitMix64};
use nuevomatch::{NuevoMatch, NuevoMatchConfig, RqRmiParams};
use std::hint::black_box;
use std::time::Instant;

fn build_set(nfields: usize, rules: usize) -> RuleSet {
    // Field 0 gets unique non-overlapping ranges (a perfect iSet); the other
    // fields get moderate ranges so validation has real work per field.
    let mut rng = SplitMix64::new(nfields as u64);
    let spec = FieldsSpec::uniform(nfields, 32);
    let rows: Vec<Vec<FieldRange>> = (0..rules as u64)
        .map(|i| {
            let mut fields = vec![FieldRange::new(i * 4_096, i * 4_096 + 4_095)];
            for _ in 1..nfields {
                let lo = rng.below(1 << 31);
                fields.push(FieldRange::new(lo, lo + rng.below(1 << 31)));
            }
            fields
        })
        .collect();
    RuleSet::from_ranges(spec, rows).unwrap()
}

pub fn run(_: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    out.say("Section 5.3.5 — validation time vs number of fields\n");
    let mut table = Table::new(&["fields", "validation ns/pkt", "total lookup ns/pkt"]);
    let rules = 2_000usize;

    for &nf in &[1usize, 2, 5, 10, 20, 30, 40] {
        let set = build_set(nf, rules);
        let cfg = NuevoMatchConfig {
            max_isets: 1,
            min_iset_coverage: 0.0,
            rqrmi: RqRmiParams { samples_init: 512, ..Default::default() },
            ..Default::default()
        };
        let nm = NuevoMatch::build(&set, &cfg, LinearSearch::build).expect("build");
        let iset = &nm.isets()[0];

        // Keys that hit field-0 ranges so validation really runs.
        let mut rng = SplitMix64::new(99);
        let keys: Vec<Vec<u64>> = (0..20_000)
            .map(|_| {
                let r = rng.below(rules as u64);
                let mut k = vec![r * 4_096 + rng.below(4_096)];
                for _ in 1..nf {
                    k.push(rng.below(1 << 32));
                }
                k
            })
            .collect();

        // Positions to validate (precomputed so only validation is timed).
        let positions: Vec<Option<usize>> = keys
            .iter()
            .map(|k| {
                let (pred, err) = iset.predict(k);
                iset.search(pred, err, k)
            })
            .collect();

        let t0 = Instant::now();
        for (k, pos) in keys.iter().zip(&positions) {
            if let Some(p) = pos {
                black_box(iset.validate(*p, k));
            }
        }
        let val_ns = t0.elapsed().as_nanos() as f64 / keys.len() as f64;

        let t0 = Instant::now();
        for k in &keys {
            black_box(nm.classify_isets(k));
        }
        let tot_ns = t0.elapsed().as_nanos() as f64 / keys.len() as f64;

        table.row(vec![format!("{nf}"), format!("{val_ns:.0}"), format!("{tot_ns:.0}")]);
    }
    out.table("validation", table);
    out.say("\nPaper: ~25 ns at 1 field growing almost linearly to ~180 ns at 40 fields.");
    out
}
