//! ACL vs firewall workloads: how rule structure drives NuevoMatch's wins.
//!
//! Generates an ACL-style and an FW-style rule-set of the same size, builds
//! every engine in the workspace over both, and prints throughput, memory
//! and coverage side by side — the Figure 9/13 story at example scale.
//!
//! ```sh
//! cargo run -p nm-bench --release --example acl_firewall [-- <rules> <packets>]
//! ```

use nm_analysis::Table;
use nm_classbench::{generate, AppKind};
use nm_common::memsize::human_bytes;
use nm_common::{Classifier, RuleSet};
use nm_cutsplit::{CutSplit, NeuroCuts, NeuroCutsConfig};
use nm_trace::uniform_trace;
use nm_tuplemerge::TupleMerge;
use nuevomatch::system::parallel::run_batched;
use nuevomatch::{NuevoMatch, NuevoMatchConfig};

fn run_suite(label: &str, set: &RuleSet, packets: usize) {
    let trace = uniform_trace(set, packets, 42);
    let nc_cfg = NeuroCutsConfig { iterations: 8, sample: 1_024 };

    let engines: Vec<(String, Box<dyn Classifier>)> = vec![
        ("tm".into(), Box::new(TupleMerge::build(set))),
        ("cs".into(), Box::new(CutSplit::build(set))),
        ("nc".into(), Box::new(NeuroCuts::with_config(set, nc_cfg))),
        (
            "nm w/ tm".into(),
            Box::new(
                NuevoMatch::build(set, &NuevoMatchConfig::default(), TupleMerge::build).unwrap(),
            ),
        ),
        (
            "nm w/ cs".into(),
            Box::new(
                NuevoMatch::build(
                    set,
                    &NuevoMatchConfig {
                        max_isets: 2,
                        min_iset_coverage: 0.25,
                        ..Default::default()
                    },
                    CutSplit::build,
                )
                .unwrap(),
            ),
        ),
    ];

    println!("=== {label}: {} rules, {} packets ===", set.len(), trace.len());
    let mut table = Table::new(&["engine", "throughput (pps)", "ns/packet", "index memory"]);
    let mut checksum = None;
    for (name, engine) in &engines {
        let stats = run_batched(engine.as_ref(), &trace, 1);
        match checksum {
            None => checksum = Some(stats.checksum),
            Some(c) => assert_eq!(c, stats.checksum, "{name} disagrees with the other engines"),
        }
        table.row(vec![
            name.clone(),
            format!("{:.2e}", stats.pps),
            format!("{:.0}", 1e9 / stats.pps),
            human_bytes(engine.memory_bytes()),
        ]);
    }
    print!("{}", table.render());
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let rules: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(20_000);
    let packets: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(50_000);

    let acl = generate(AppKind::Acl, rules, 1);
    let fw = generate(AppKind::Fw, rules, 1);

    run_suite("ACL profile", &acl, packets);
    run_suite("Firewall profile", &fw, packets);

    println!(
        "Reading the tables: the ACL set partitions into 1-2 iSets (high address\n\
         diversity), so NuevoMatch's remainder is tiny and its index is KBs where the\n\
         baselines need MBs. The FW set is wildcard-heavy: coverage drops, more rules\n\
         stay in the remainder, and the gap narrows — exactly the paper's §5.3 story."
    );
}
