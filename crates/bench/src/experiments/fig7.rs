//! Figure 7 — throughput over time under a sustained update stream, for
//! fast vs slow retraining, plus the §3.9 sustained-rate estimate.
//!
//! The paper's illustration: retraining every τ restores throughput; the
//! slower the training, the deeper the valleys. §3.9 estimates NuevoMatch
//! sustains ≈4K updates/s on 500K rules at about half the update-free
//! speedup with minute-long training.

use crate::{Ctx, Outcome};
use nm_analysis::{sustained_update_rate, throughput_over_time, Json, UpdateModel};

pub fn run(_: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let base = UpdateModel {
        rules: 500_000.0,
        update_rate: 4_000.0,
        retrain_period: 120.0,
        train_time: 60.0,
        fresh_throughput: 1.0,
        remainder_throughput: 1.0 / 2.6, // tm-scale update-free speedup
    };
    out.say(
        "Figure 7: normalized throughput over time (u = 4K updates/s, 500K rules, tau = 120s)\n",
    );
    out.say(format!(
        "{:>8}  {:>14}  {:>14}  {:>14}",
        "t (s)", "fast (T=10s)", "paper-ish (60s)", "slow (T=110s)"
    ));
    let fast = UpdateModel { train_time: 10.0, ..base };
    let slow = UpdateModel { train_time: 110.0, ..base };
    let horizon = 600.0;
    let pts = 25;
    let a = throughput_over_time(&fast, horizon, pts);
    let b = throughput_over_time(&base, horizon, pts);
    let c = throughput_over_time(&slow, horizon, pts);
    for i in 0..pts {
        out.say(format!("{:>8.0}  {:>14.3}  {:>14.3}  {:>14.3}", a[i].0, a[i].1, b[i].1, c[i].1));
    }

    let rate = sustained_update_rate(500_000.0, 120.0, 60.0, 1.0, 1.0 / 2.6, 0.75);
    out.say(format!(
        "\nSustained update rate at ~half the update-free speedup: {rate:.0} updates/s \
         (paper estimate: ~4,000/s)"
    ));
    out.scalar("sustained_updates_per_s", Json::num(rate, 0));
    out
}
