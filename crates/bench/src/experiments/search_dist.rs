//! §5.3.4 — secondary-search cost vs trained bound, and the distribution of
//! *actual* search distances.
//!
//! Paper: retrieving with a precise prediction costs ~40 ns; with bounds of
//! 64–256 the binary search keeps retrieval at 75–80 ns. Training at 128
//! still leaves 80% of lookups within distance 64 and 60% within 32 — so
//! training with looser bounds barely hurts lookups while cutting training
//! cost (the Figure 15 trade-off).

use crate::{largest_iset_ranges, Ctx, Outcome};
use nm_analysis::Table;
use nm_classbench::{generate, AppKind};
use nuevomatch::rqrmi::train_rqrmi;
use nm_common::FieldRange;
use nuevomatch::{RqRmi, RqRmiParams};

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let n = *ctx.scale.sizes.last().unwrap();
    let set = generate(AppKind::Acl, n, 0x5d04);
    let (ranges, bits) = largest_iset_ranges(&set);
    out.say(format!(
        "Section 5.3.4 — search distances, {}-range iSet from a {n}-rule ACL set\n",
        ranges.len()
    ));

    let mut table = Table::new(&[
        "trained bound",
        "achieved bound",
        "median dist",
        "p80 dist",
        "p99 dist",
        "% <=32",
        "% <=64",
    ]);
    for &bound in &[64u32, 128, 256, 512] {
        let params = RqRmiParams { error_target: bound, ..Default::default() };
        let model = train_rqrmi(&ranges, bits, &params).expect("train");
        let mut dists = search_distances(&model, &ranges);
        dists.sort_unstable();
        let pct = |p: f64| dists[((dists.len() - 1) as f64 * p) as usize];
        table.row(vec![
            format!("{bound}"),
            format!("{}", model.max_error_bound()),
            format!("{}", pct(0.5)),
            format!("{}", pct(0.8)),
            format!("{}", pct(0.99)),
            format!("{:.0}%", percent_within(&dists, 32)),
            format!("{:.0}%", percent_within(&dists, 64)),
        ]);
    }
    out.table("distances", table);
    out.say(
        "\nPaper: trained at 128, 80% of lookups search within 64 and 60% within 32 — \
         actual distances sit far below the worst-case bound.",
    );
    out
}

/// §5.3.4: how far each lookup's prediction lands from the true index, over
/// both ends and the middle of every range `model` was trained on.
fn search_distances(model: &RqRmi, ranges: &[FieldRange]) -> Vec<u64> {
    let mut dists = Vec::with_capacity(ranges.len() * 3);
    for (idx, r) in ranges.iter().enumerate() {
        for key in [r.lo, (r.lo + r.hi) / 2, r.hi] {
            let (pred, _) = model.predict(key);
            dists.push((pred as i64 - idx as i64).unsigned_abs());
        }
    }
    dists
}

/// The percentage of `dists` that are at most `d`.
fn percent_within(dists: &[u64], d: u64) -> f64 {
    100.0 * dists.iter().filter(|&&x| x <= d).count() as f64 / dists.len() as f64
}
