//! Wire-to-verdict serving over loopback: start an `nm-serve` front-end on
//! ephemeral ports, classify through real UDP and TCP sockets with deadline
//! micro-batching, apply an update batch mid-flight, and read the
//! tail-latency accounting off the server on shutdown.
//!
//! ```sh
//! cargo run -p nm-bench --release --example serve_loopback
//! ```

use std::time::{Duration, Instant};

use nm_classbench::{generate, AppKind};
use nm_common::{FiveTuple, LinearSearch, SplitMix64, UpdateBatch};
use nm_trace::uniform_trace;
use nm_tuplemerge::TupleMerge;
use nuevomatch::{ClassifierHandle, NuevoMatchConfig, ServeClient, ServeConfig, Server, Transport};

fn main() {
    let n = 10_000usize;
    let set = generate(AppKind::Acl, n, 11);
    let handle = ClassifierHandle::new(&set, &NuevoMatchConfig::default(), TupleMerge::build)
        .expect("build");

    // Ephemeral ports ("127.0.0.1:0") make this runnable anywhere; a real
    // deployment would pass a fixed listen address via `nmctl serve`.
    let scfg = ServeConfig {
        transport: Transport::Both,
        max_batch: 64,
        deadline: Duration::from_micros(20),
        stride: set.num_fields(),
        ..ServeConfig::default()
    };
    let server = Server::start(handle.clone(), &scfg).expect("bind");
    let udp_addr = server.udp_addr().expect("udp");
    let tcp_addr = server.tcp_addr().expect("tcp");
    println!("serving {n} rules on udp://{udp_addr} and tcp://{tcp_addr}");

    // In debug builds the in-loop validator replays sampled verdicts
    // against a pinned-generation oracle; publish the truth it needs.
    server.oracle().publish(handle.generation(), LinearSearch::from_rules(set.rules().to_vec()));

    // A few round trips on each transport, with keys drawn from the rules
    // so the verdicts are non-trivial.
    let trace = uniform_trace(&set, 64, 12);
    let stride = trace.stride();
    let key = |i: u64| &trace.raw()[(i as usize % trace.len()) * stride..][..stride];
    let mut rng = SplitMix64::new(7);
    let mut udp = ServeClient::udp(udp_addr).expect("udp client");
    let mut tcp = ServeClient::tcp(tcp_addr).expect("tcp client");
    for i in 0..3u64 {
        let k = key(i);
        let t0 = Instant::now();
        let frame = udp.call(i, k, Duration::from_secs(1)).expect("udp call");
        println!(
            "udp  id={i} verdict={:?} generation={} rtt={:?}",
            frame.verdict.map(|m| m.priority),
            frame.generation,
            t0.elapsed()
        );
    }
    for i in 10..13u64 {
        let k = key(i);
        let frame = tcp.call(i, k, Duration::from_secs(1)).expect("tcp call");
        println!(
            "tcp  id={i} verdict={:?} generation={}",
            frame.verdict.map(|m| m.priority),
            frame.generation
        );
    }

    // Update mid-flight: responses after this carry the new generation,
    // and each served batch pins exactly one of the two snapshots.
    let mut batch = UpdateBatch::new();
    for id in 0..32u32 {
        let lo = rng.below(60_000) as u16;
        batch = batch.modify(FiveTuple::new().dst_port_range(lo, lo + 100).into_rule(id, id));
    }
    handle.apply(&batch);
    println!("applied 32-op update batch -> generation {}", handle.generation());
    let frame = udp.call(99, key(99), Duration::from_secs(1)).expect("udp call");
    println!("udp  id=99 served at generation {}", frame.generation);

    let stats = server.shutdown();
    let lat = stats.latency.summary_us();
    println!(
        "drained: {} responses in {} batches ({} full / {} deadline / {} idle / {} drain), \
         p50 {:.1}us p99 {:.1}us",
        stats.responses,
        stats.batches,
        stats.full_flushes,
        stats.deadline_flushes,
        stats.idle_flushes,
        stats.drain_flushes,
        lat.p50_us,
        lat.p99_us,
    );
}
