//! Table 1 — submodel inference time by instruction set.
//!
//! Paper (Xeon Silver 4116): Serial(1) 126 ns, SSE(4) 62 ns, AVX(8) 49 ns.
//! The shape to reproduce: wider vectors → faster single-submodel inference.
//!
//! Honesty note for modern toolchains: rustc/LLVM auto-vectorises the
//! "serial" 8-neuron loop (it if-converts the ReLU branch and emits SIMD),
//! so the 2016-era 2.6× serial→AVX gap largely collapses — the interesting
//! comparison left is SSE vs AVX and the absolute tens-of-ns cost per
//! inference, which this experiment measures with a dependent chain (latency,
//! like a staged RQ-RMI walk, not pipelined throughput).

use crate::{Ctx, Outcome};
use nm_analysis::Table;
use nm_nn::Mlp;
use nuevomatch::rqrmi::{detect, Isa, Kernel};
use std::hint::black_box;
use std::time::Instant;

/// ns per inference of `chain(iterations)`, a dependent chain advancing
/// `lanes` packets per iteration, after a short warm-up.
fn time_chain(iters: usize, lanes: usize, chain: impl Fn(usize) -> f32) -> f64 {
    black_box(chain(10_000));
    let t0 = Instant::now();
    black_box(chain(iters));
    t0.elapsed().as_nanos() as f64 / (lanes * iters) as f64
}

pub fn run(_: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let net = Mlp::random(8, 42);
    let kernel = Kernel::from_mlp(&net);

    let mut table = Table::new(&[
        "Instruction set (width)",
        "Inference time (ns)",
        "batch8 (ns/packet)",
        "paper (ns)",
    ]);
    // The FMA row is this repo's addition: the paper's 2016-era Xeon had no
    // AVX2/FMA, so Table 1 stops at AVX(8). The batch8 column is the 8-key
    // kernel each ISA's batched walk ships: one lane per packet up to AVX,
    // lane-per-neuron plus a transposed sum on AVX2+FMA (see rqrmi::simd
    // module docs).
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
            table.row(vec![name.into(), format!("n/a (no {isa:?})"), "-".into(), paper.into()]);
            continue;
        }
        let ns = time_chain(2_000_000, 1, |n| kernel.latency_chain(0.37, n, isa));
        // Per-packet cost: 8 packets per chained group.
        let ns8 = time_chain(1_000_000, 8, |n| kernel.latency_chain_batch8(0.37, n, isa));
        table.row(vec![name.into(), format!("{ns:.1}"), format!("{ns8:.1}"), paper.into()]);
    }
    out.table("inference", table);
    out.say(
        "\nNote: LLVM auto-vectorises the 'serial' loop on modern rustc, so the paper's\n\
         serial/SIMD gap narrows; see the module docs.",
    );
    out
}
