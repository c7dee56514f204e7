//! Online rule updates (§3.9) through the control-plane/data-plane split:
//! a `ClassifierHandle` serves lock-free readers while `UpdateBatch`
//! transactions drift rules to the remainder and a background retrain swaps
//! in a fresh model — the Figure 7 lifecycle, live.
//!
//! ```sh
//! cargo run -p nm-bench --release --example online_updates
//! ```

use nm_analysis::{throughput_over_time, UpdateModel};
use nm_classbench::{generate, AppKind};
use nm_common::{Classifier, FiveTuple, SplitMix64, UpdateBatch};
use nm_trace::uniform_trace;
use nm_tuplemerge::TupleMerge;
use nuevomatch::system::parallel::run_batched;
use nuevomatch::{ClassifierHandle, NuevoMatchConfig};

fn main() {
    let n = 10_000usize;
    let set = generate(AppKind::Acl, n, 11);
    let trace = uniform_trace(&set, 50_000, 12);
    // The builder value (`TupleMerge::build`) is retained by the handle:
    // every background retrain re-invokes it on the then-current rules.
    let handle = ClassifierHandle::new(&set, &NuevoMatchConfig::default(), TupleMerge::build)
        .expect("build");
    let fresh = handle.snapshot();
    let fresh_pps = run_batched(&*fresh, &trace, 1).pps;
    println!(
        "built: {} rules, {:.1}% iSet coverage, remainder {} rules, {:.2e} pps, generation {}",
        n,
        fresh.engine().coverage() * 100.0,
        fresh.engine().remainder().num_rules(),
        fresh_pps,
        fresh.generation(),
    );

    // Apply a mixed update stream as *transactions*: each batch becomes
    // visible atomically, and every matching-set change lands in the
    // remainder (there is no known way to edit a trained RQ-RMI in place).
    // Readers pinned to older generations are untouched throughout.
    let mut rng = SplitMix64::new(99);
    let mut report = nm_common::UpdateReport::default();
    let mut ops_applied = 0usize;
    for chunk in 0..(n / 10 / 16) as u32 {
        let mut batch = UpdateBatch::new();
        for i in 0..16u32 {
            match rng.below(3) {
                0 => {
                    batch = batch.remove(rng.below(n as u64) as u32);
                }
                1 => {
                    let id = rng.below(n as u64) as u32;
                    let lo = rng.below(60_000) as u16;
                    batch = batch
                        .modify(FiveTuple::new().dst_port_range(lo, lo + 100).into_rule(id, id));
                }
                _ => {
                    let id = n as u32 + chunk * 16 + i;
                    batch = batch.insert(
                        FiveTuple::new().dst_port_exact(rng.below(65_536) as u16).into_rule(id, id),
                    );
                }
            }
        }
        ops_applied += batch.len();
        report.absorb(handle.apply(&batch));
    }
    let drifted = handle.snapshot();
    let drifted_pps = run_batched(&*drifted, &trace, 1).pps;
    println!(
        "after {} applied ops (+{} inserted, ~{} replaced, -{} removed, {} missing): \
         remainder fraction {:.1}%, generation {}, {:.2e} pps ({:.0}% of fresh)",
        ops_applied,
        report.inserted,
        report.replaced,
        report.removed,
        report.missing,
        drifted.engine().remainder_fraction() * 100.0,
        drifted.generation(),
        drifted_pps,
        100.0 * drifted_pps / fresh_pps
    );
    // The pre-update snapshot is still pinned and still serves its
    // generation — that is the RCU guarantee readers rely on.
    assert!(
        fresh.engine().remainder_fraction() < drifted.engine().remainder_fraction(),
        "the pinned snapshot must not see the drift applied after it was taken"
    );
    println!(
        "pinned generation {} still serves unchanged while generation {} is live",
        fresh.generation(),
        drifted.generation()
    );

    // The retrain: rebuilds from the current truth on this thread's clock,
    // publishes atomically, resets the drift.
    let t0 = std::time::Instant::now();
    let gen = handle.retrain().expect("retrain");
    let retrained = handle.snapshot();
    println!(
        "\nretrain published generation {gen} in {:.2}s: remainder fraction {:.1}% -> {:.1}%",
        t0.elapsed().as_secs_f64(),
        drifted.engine().remainder_fraction() * 100.0,
        retrained.engine().remainder_fraction() * 100.0,
    );
    let retrained_pps = run_batched(&*retrained, &trace, 1).pps;
    println!(
        "after retrain: {:.2e} pps ({:.0}% of fresh — the random port-range modifies \
         genuinely degrade the rule-set's iSet structure; pure-drift recovery is \
         measured by `nm-bench update`)",
        retrained_pps,
        100.0 * retrained_pps / fresh_pps
    );

    // The Figure 7 model for this set, parameterised by what we measured.
    println!("\nFigure 7 model for this set (normalized throughput over 10 minutes):");
    let m = UpdateModel {
        rules: n as f64,
        update_rate: 100.0,
        retrain_period: 120.0,
        train_time: t0.elapsed().as_secs_f64(),
        fresh_throughput: 1.0,
        remainder_throughput: drifted_pps / fresh_pps,
    };
    for (t, y) in throughput_over_time(&m, 600.0, 11) {
        let bars = "#".repeat((y * 40.0) as usize);
        println!("  t={t:>4.0}s {bars} {y:.2}");
    }
    println!(
        "\nThe *measured* curve (concurrent readers, paced updates, background \
         retrains) lives in `cargo run -p nm-bench --release -- update`; \
         the analytic sweep is `-- fig7`."
    );
}
