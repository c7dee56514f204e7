//! Figure 15 — RQ-RMI training time vs the maximum search-distance bound,
//! by rule-set size.
//!
//! Paper: training with bound 64 is expensive (up to ~40 min for 500K with
//! their TensorFlow pipeline — ours is native and far faster, see §4 of the
//! paper conceding the point); larger bounds train much faster and barely
//! hurt lookups, because the *actual* search distance is usually far below
//! the worst-case bound (80% of lookups within 64 when trained at 128 —
//! `search_dist` measures that distribution).

use crate::{largest_iset_ranges, Ctx, Outcome};
use nm_analysis::Table;
use nm_classbench::{generate, AppKind};
use nuevomatch::rqrmi::train_rqrmi;
use nuevomatch::RqRmiParams;
use std::time::Instant;

const BOUNDS: [u32; 5] = [64, 128, 256, 512, 1024];

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let s = &ctx.scale;
    out.say("Figure 15 — training time (s) vs error-bound target\n");
    let mut table =
        Table::new(&["rules", "b=64", "b=128", "b=256", "b=512", "b=1024", "achieved(64)"]);

    for &n in s.sizes.iter().filter(|&&n| n >= 10_000) {
        let set = generate(AppKind::Acl, n, 0xf15 + n as u64);
        // Train on the largest iSet's projection, like the real build.
        let (ranges, bits) = largest_iset_ranges(&set);
        let mut cells = vec![format!("{n}")];
        let mut achieved64 = 0u32;
        for &b in &BOUNDS {
            let params = RqRmiParams { error_target: b, ..Default::default() };
            let t0 = Instant::now();
            let model = train_rqrmi(&ranges, bits, &params).expect("train");
            let dt = t0.elapsed().as_secs_f64();
            if b == 64 {
                achieved64 = model.max_error_bound();
            }
            cells.push(format!("{dt:.2}"));
        }
        cells.push(format!("{achieved64}"));
        table.row(cells);
    }
    out.table("hinge", table);
    out.say(
        "\nWith the closed-form hinge trainer the first attempt already beats bound 64,\n\
         so the paper's time-vs-bound trade-off does not bind (an improvement over the\n\
         paper's TensorFlow pipeline). The iterative trainer below reproduces the\n\
         paper's shape: tighter bounds trigger the Figure 5 retrain loop.\n",
    );

    // Paper-faithful mode: iterative (Adam) training, where the sample-
    // doubling retrain loop engages and cost rises toward tight bounds.
    let n_adam = s.sizes.iter().copied().find(|&n| n >= 10_000).unwrap_or(10_000);
    let (ranges, bits) = largest_iset_ranges(&generate(AppKind::Acl, n_adam, 0xf15a));
    let mut table2 = Table::new(&["adam, rules", "b=64", "b=128", "b=256", "b=512", "b=1024"]);
    let mut cells = vec![format!("{n_adam}")];
    for &b in &BOUNDS {
        let params = RqRmiParams {
            error_target: b,
            samples_init: 256,
            max_attempts: 5,
            trainer: nuevomatch::TrainerKind::Adam { epochs: 150 },
            ..Default::default()
        };
        let t0 = Instant::now();
        let _ = train_rqrmi(&ranges, bits, &params).expect("train");
        cells.push(format!("{:.2}", t0.elapsed().as_secs_f64()));
    }
    table2.row(cells);
    out.table("adam", table2);
    out
}
