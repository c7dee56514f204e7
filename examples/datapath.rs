//! A miniature software datapath: raw Ethernet frames → zero-copy 5-tuple
//! extraction → exact-match flow cache → NuevoMatch → action.
//!
//! This is the deployment shape §5.2 of the paper sketches for Open vSwitch:
//! the cache absorbs the traffic's temporal locality, the classifier handles
//! the miss stream. Frames are synthesised from a CAIDA-like trace so the
//! cache has realistic locality to exploit.
//!
//! ```sh
//! cargo run -p nm-bench --release --example datapath
//! ```

use nm_classbench::{generate, AppKind};
use nm_common::wire::{build_ipv4_frame, parse_five_tuple};
use nm_common::Classifier;
use nm_trace::{caida_like_trace, CaidaLikeConfig};
use nm_tuplemerge::TupleMerge;
use nuevomatch::system::FlowCache;
use nuevomatch::{NuevoMatch, NuevoMatchConfig};
use std::time::Instant;

fn main() {
    // Control plane: rules + classifier + cache.
    let rules = 10_000usize;
    let set = generate(AppKind::Acl, rules, 3);
    let nm =
        NuevoMatch::build(&set, &NuevoMatchConfig::default(), TupleMerge::build).expect("build");
    println!(
        "classifier: {} rules, {} iSets, {:.0}% coverage, {} B index",
        rules,
        nm.isets().len(),
        nm.coverage() * 100.0,
        nm.memory_bytes()
    );
    let datapath = FlowCache::new(nm, 1 << 14);

    // "Wire": synthesise frames from a locality-bearing trace. Protocols
    // without an L4 port header (everything except TCP/UDP/SCTP/UDP-Lite)
    // carry no ports on a real wire, so those flows are normalised to
    // port 0 — some port-constrained rules legitimately cannot match them.
    let trace = caida_like_trace(&set, 200_000, CaidaLikeConfig::default(), 9);
    let frames: Vec<Vec<u8>> = trace
        .iter()
        .map(|k| {
            let portful = matches!(k[4], 6 | 17 | 132 | 136);
            let (sp, dp) = if portful { (k[2], k[3]) } else { (0, 0) };
            build_ipv4_frame(&[k[0], k[1], sp, dp, k[4]])
        })
        .collect();
    println!("trace: {} frames ({} bytes on the wire)", frames.len(), frames.len() * 54);

    // Data plane loop.
    let mut actions = [0u64; 2]; // [dropped-by-no-match, forwarded]
    let mut parse_errors = 0u64;
    let t0 = Instant::now();
    for frame in &frames {
        match parse_five_tuple(frame) {
            Ok(key) => match datapath.classify(&key) {
                Some(_verdict) => actions[1] += 1,
                None => actions[0] += 1,
            },
            Err(_) => parse_errors += 1,
        }
    }
    let dt = t0.elapsed();

    let pps = frames.len() as f64 / dt.as_secs_f64();
    let stats = datapath.stats();
    println!("\nprocessed {} frames in {:.3}s = {:.3e} pps", frames.len(), dt.as_secs_f64(), pps);
    println!(
        "  forwarded: {}   unmatched: {}   parse errors: {}",
        actions[1], actions[0], parse_errors
    );
    println!(
        "  flow-cache: {:.1}% hit rate ({} hits / {} misses)",
        stats.hit_rate() * 100.0,
        stats.hits,
        stats.misses
    );
    assert_eq!(parse_errors, 0);
    assert_eq!(actions[0] + actions[1], frames.len() as u64);
    println!(
        "\nUnmatched packets are portless-protocol flows (ICMP etc.) whose source rule\n\
         constrained a port — impossible headers on a real wire, correctly rejected.\n\
         The hit rate shows how much skew the cache absorbed before NuevoMatch."
    );
}
