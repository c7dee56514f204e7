//! Single-field forwarding (the Figure 10 scenario): a Stanford-like
//! backbone FIB indexed by NuevoMatch with a TupleMerge remainder.
//!
//! Single-field rule-sets are the stress case for iSet partitioning — there
//! is only one dimension to be conflict-free in, and backbone FIBs nest
//! prefixes heavily. The paper still covers >90% with 2 iSets; this example
//! shows the same structure and the resulting speedup.
//!
//! ```sh
//! cargo run -p nm-bench --release --example forwarding_fib [-- <rules> <packets>]
//! ```

use nm_analysis::{centrality_1d, diversity, Table};
use nm_classbench::stanford_fib;
use nm_common::memsize::human_bytes;
use nm_common::Classifier;
use nm_trace::{uniform_trace, zipf_trace};
use nm_tuplemerge::TupleMerge;
use nuevomatch::system::parallel::run_batched;
use nuevomatch::{NuevoMatch, NuevoMatchConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let rules: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(50_000);
    let packets: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(100_000);

    let fib = stanford_fib(rules, 7);
    println!("FIB: {} unique dst-IP prefixes", fib.len());
    println!("  diversity:  {:.2}", diversity(&fib, 0));
    println!("  centrality: {} (lower bound on iSets for full coverage)", centrality_1d(&fib, 0));

    let tm = TupleMerge::build(&fib);
    let nm =
        NuevoMatch::build(&fib, &NuevoMatchConfig::default(), TupleMerge::build).expect("build nm");
    println!("\nNuevoMatch: {} iSets, {:.1}% coverage", nm.isets().len(), nm.coverage() * 100.0);
    for (i, iset) in nm.isets().iter().enumerate() {
        println!(
            "  iSet {}: {} prefixes, worst error bound {}, model {}",
            i,
            iset.len(),
            iset.model().max_error_bound(),
            human_bytes(iset.memory_bytes()),
        );
    }

    let mut table = Table::new(&["trace", "tm pps", "nm pps", "speedup"]);
    for (label, trace) in [
        ("uniform", uniform_trace(&fib, packets, 3)),
        ("zipf a=1.25", zipf_trace(&fib, packets, 1.25, 3)),
    ] {
        let a = run_batched(&tm, &trace, 1);
        let b = run_batched(&nm, &trace, 1);
        assert_eq!(a.checksum, b.checksum, "engines disagree");
        table.row(vec![
            label.into(),
            format!("{:.2e}", a.pps),
            format!("{:.2e}", b.pps),
            format!("{:.2}x", b.pps / a.pps),
        ]);
    }
    println!();
    print!("{}", table.render());
    println!(
        "\nindex memory: tm {} vs nm {} (remainder {} + RQ-RMI)",
        human_bytes(tm.memory_bytes()),
        human_bytes(nm.memory_bytes()),
        human_bytes(nm.remainder().memory_bytes()),
    );
}
