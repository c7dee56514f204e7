//! Quickstart: build a NuevoMatch classifier over a small ACL-style
//! rule-set and classify a few packets.
//!
//! ```sh
//! cargo run -p nm-bench --release --example quickstart
//! ```

use nm_common::{fivetuple, Classifier, FieldsSpec, FiveTuple, RuleSet};
use nm_tuplemerge::TupleMerge;
use nuevomatch::{NuevoMatch, NuevoMatchConfig};

fn main() {
    // 1. A hand-written rule-set: the paper's Figure 2 flavour — overlapping
    //    prefixes and port ranges, highest priority (lowest number) wins.
    let rules = vec![
        FiveTuple::new().dst_prefix([10, 10, 0, 0], 16).dst_port_range(10, 18).into_rule(0, 0),
        FiveTuple::new().dst_prefix([10, 10, 1, 0], 24).dst_port_range(15, 25).into_rule(1, 1),
        FiveTuple::new().dst_prefix([10, 0, 0, 0], 8).dst_port_range(5, 8).into_rule(2, 2),
        FiveTuple::new().dst_prefix([10, 10, 3, 0], 24).dst_port_range(7, 20).into_rule(3, 3),
        FiveTuple::new().dst_prefix([10, 10, 3, 100], 32).dst_port_exact(19).into_rule(4, 4),
    ];
    let set = RuleSet::new(FieldsSpec::five_tuple(), rules).expect("valid rules");

    // 2. Build NuevoMatch: iSet partitioning + RQ-RMI training happen here.
    //    Any `Classifier` can index the remainder; TupleMerge is the paper's
    //    update-friendly choice.
    let nm = NuevoMatch::build(&set, &NuevoMatchConfig::default(), TupleMerge::build)
        .expect("training converges");

    println!("built NuevoMatch over {} rules:", set.len());
    println!("  iSets:          {}", nm.isets().len());
    println!("  iSet coverage:  {:.0}%", nm.coverage() * 100.0);
    println!("  remainder:      {} rules", nm.remainder().num_rules());
    println!("  index memory:   {} bytes", nm.memory_bytes());

    // 3. Classify: the paper's example packet 10.10.3.100:19 matches rules
    //    R3 (priority 4 in the paper's 1-based table) and R4; R3 wins.
    let packet = [
        0u64,                              // src-ip (wildcarded by all rules)
        fivetuple::ipv4([10, 10, 3, 100]), // dst-ip
        0,                                 // src-port
        19,                                // dst-port
        6,                                 // proto
    ];
    let verdict = nm.classify(&packet).expect("matches");
    println!("\npacket 10.10.3.100:19 -> rule R{} (action a{})", verdict.rule, verdict.rule + 1);
    assert_eq!(verdict.rule, 3);

    // A packet nothing matches.
    let miss = [0u64, fivetuple::ipv4([192, 168, 0, 1]), 0, 9999, 6];
    assert!(nm.classify(&miss).is_none());
    println!("packet 192.168.0.1:9999 -> no match (as expected)");
}
