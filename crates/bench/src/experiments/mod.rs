//! The experiment table: one module per paper table/figure (plus the
//! batch, shard and update sweeps), each exposing
//! `fn run(&Ctx) -> Outcome`.

use crate::driver::{Ctx, Outcome};

/// An experiment: the name it is run under, and its body.
pub type Experiment = (&'static str, fn(&Ctx) -> Outcome);

/// Declares each named module and registers its `run` under that name, so
/// a module cannot exist without being runnable.
macro_rules! experiments {
    ($($name:ident),* $(,)?) => {
        $(mod $name;)*

        /// Every experiment the driver can run.
        pub static EXPERIMENTS: &[Experiment] = &[$((stringify!($name), $name::run)),*];
    };
}

experiments!(
    ablation,
    batch,
    contention,
    fields,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig17,
    fig7,
    fig8,
    fig9,
    search_dist,
    shard,
    table1,
    table2,
    table3,
    update,
);
