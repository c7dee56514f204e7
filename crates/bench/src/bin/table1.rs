//! Table 1 — submodel inference time by instruction set.
//!
//! Paper (Xeon Silver 4116): Serial(1) 126 ns, SSE(4) 62 ns, AVX(8) 49 ns.
//! The shape to reproduce: wider vectors → faster single-submodel inference.
//!
//! Honesty note for modern toolchains: rustc/LLVM auto-vectorises the
//! "serial" 8-neuron loop (it if-converts the ReLU branch and emits SIMD),
//! so the 2016-era 2.6× serial→AVX gap largely collapses — the interesting
//! comparison left is SSE vs AVX and the absolute tens-of-ns cost per
//! inference, which this binary measures with a dependent chain (latency,
//! like a staged RQ-RMI walk, not pipelined throughput).

use nm_analysis::Table;
use nm_nn::Mlp;
use nuevomatch::rqrmi::{detect, Isa, Kernel};
use std::hint::black_box;
use std::time::Instant;

fn time_isa(kernel: &Kernel, isa: Isa) -> f64 {
    const ITERS: usize = 2_000_000;
    // Warm up.
    black_box(kernel.latency_chain(0.37, 10_000, isa));
    let t0 = Instant::now();
    black_box(kernel.latency_chain(0.37, ITERS, isa));
    t0.elapsed().as_nanos() as f64 / ITERS as f64
}

fn time_isa_batch8(kernel: &Kernel, isa: Isa) -> f64 {
    const ITERS: usize = 1_000_000;
    black_box(kernel.latency_chain_batch8(0.37, 10_000, isa));
    let t0 = Instant::now();
    black_box(kernel.latency_chain_batch8(0.37, ITERS, isa));
    // Per-packet cost: 8 packets per chained group.
    t0.elapsed().as_nanos() as f64 / (8 * ITERS) as f64
}

fn main() {
    let net = Mlp::random(8, 42);
    let kernel = Kernel::from_mlp(&net);

    let mut table = Table::new(&[
        "Instruction set (width)",
        "Inference time (ns)",
        "batch8 (ns/packet)",
        "paper (ns)",
    ]);
    // The FMA row is this repo's addition: the paper's 2016-era Xeon had no
    // AVX2/FMA, so Table 1 stops at AVX(8). The batch8 column is the
    // cross-packet kernel (one lane per packet; see rqrmi::simd module docs).
    let rows: &[(&str, Isa, &str)] = &[
        ("Serial(1)", Isa::Scalar, "126"),
        ("SSE(4)", Isa::Sse, "62"),
        ("AVX(8)", Isa::Avx, "49"),
        ("AVX2+FMA(8)", Isa::AvxFma, "-"),
    ];
    let best = detect();
    println!("Table 1: submodel inference vs vectorization (detected best: {best:?})\n");
    for &(name, isa, paper) in rows {
        if !isa.available() {
            table.row(vec![name.into(), format!("n/a (no {isa:?})"), "-".into(), paper.into()]);
            continue;
        }
        let ns = time_isa(&kernel, isa);
        let ns8 = time_isa_batch8(&kernel, isa);
        table.row(vec![name.into(), format!("{ns:.1}"), format!("{ns8:.1}"), paper.into()]);
    }
    print!("{}", table.render());
    println!(
        "\nNote: LLVM auto-vectorises the 'serial' loop on modern rustc, so the paper's\n\
         serial/SIMD gap narrows; see the module docs."
    );
}
