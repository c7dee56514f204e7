//! Table 1 — submodel inference time by instruction set.
//!
//! Paper (Xeon Silver 4116): Serial(1) 126 ns, SSE(4) 62 ns, AVX(8) 49 ns.
//! The shape to reproduce: wider vectors → faster single-submodel inference.
//!
//! Honesty note for modern toolchains: rustc/LLVM vectorises the "serial"
//! 8-neuron loop (its ReLU is a select, not a branch), so the 2016-era 2.6×
//! serial→AVX gap largely collapses — the interesting comparison left is
//! SSE vs AVX and the absolute tens-of-ns cost per inference, which this
//! experiment measures with a dependent chain through **one** kernel
//! (latency, like one key's staged RQ-RMI walk). Two limits of that
//! instrument: the serial row is mostly its eight dependent adds — a ReLU
//! *branch* reads ≈ 5 ns faster here, because it skips the inactive
//! neurons' adds and one kernel's branches predict, and 2× slower on a
//! trained model, where every key meets another submodel — and what the
//! batched pipeline pays per key is a throughput, which `nm-bench batch`
//! reports per ISA.

use crate::{Ctx, Outcome};
use nm_analysis::Table;
use nm_nn::Mlp;
use nuevomatch::rqrmi::{detect, Isa, Kernel};
use std::hint::black_box;
use std::time::Instant;

/// ns per inference of `chain(iterations)`, a dependent chain of single
/// inferences, after a short warm-up.
fn time_chain(iters: usize, chain: impl Fn(usize) -> f32) -> f64 {
    black_box(chain(10_000));
    let t0 = Instant::now();
    black_box(chain(iters));
    t0.elapsed().as_nanos() as f64 / iters as f64
}

pub fn run(_: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let net = Mlp::random(8, 42);
    let kernel = Kernel::from_mlp(&net);

    let mut table = Table::new(&["Instruction set (width)", "Inference time (ns)", "paper (ns)"]);
    // The FMA row is this repo's addition: the paper's 2016-era Xeon had no
    // AVX2/FMA, so Table 1 stops at AVX(8).
    let rows: &[(&str, Isa, &str)] = &[
        ("Serial(1)", Isa::Scalar, "126"),
        ("SSE(4)", Isa::Sse, "62"),
        ("AVX(8)", Isa::Avx, "49"),
        ("AVX2+FMA(8)", Isa::AvxFma, "-"),
    ];
    let best = detect();
    out.say(format!("Table 1: submodel inference vs vectorization (detected best: {best:?})\n"));
    for &(name, isa, paper) in rows {
        if !isa.available() {
            table.row(vec![name.into(), format!("n/a (no {isa:?})"), paper.into()]);
            continue;
        }
        let ns = time_chain(2_000_000, |n| kernel.latency_chain(0.37, n, isa));
        table.row(vec![name.into(), format!("{ns:.1}"), paper.into()]);
    }
    out.table("inference", table);
    out.say(
        "\nNote: LLVM vectorises the 'serial' loop (its ReLU is branch-free), so the paper's\n\
         serial/SIMD gap narrows. One kernel's chain is a latency; `nm-bench batch` has the\n\
         per-ISA throughput over a trained model, where Serial(1) is the row that gained.",
    );
    out
}
