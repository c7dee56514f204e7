//! Loopback test that a serve reader stays awake through dense traffic.
//!
//! It is its own test binary because what it checks is timing: a reader
//! that polls for 200 µs after an arrival (`SPIN` in the serve assembler)
//! sees a reply-gated client's next request only if that client gets a CPU
//! within the window. Next to `it_serve`'s tests, which run in parallel and
//! build classifiers, spin readers and drive their own clients, a client on
//! a two-CPU box can wait out the window for reasons that are not the
//! reader's.

use std::time::Duration;

use nm_common::{Classifier, FieldsSpec, FiveTuple, LinearSearch, RuleSet};
use nm_tuplemerge::TupleMerge;
use nuevomatch::{
    ClassifierHandle, NuevoMatchConfig, RqRmiParams, ServeClient, ServeConfig, Server, Transport,
};

/// A client that sends each request the moment the previous reply lands is
/// dense traffic to the reader (gap = round trip, far under `SPIN`): the
/// reader keeps polling between calls instead of blocking on the next
/// receive, over UDP and over TCP. `it_serve`'s
/// `sparse_requests_are_answered_when_the_socket_runs_dry` is the other
/// side: a client that thinks between calls never keeps the reader awake.
#[test]
fn a_reply_gated_client_keeps_the_reader_awake() {
    const CALLS: u64 = 2_000;
    let rules: Vec<_> = (0..300u16)
        .map(|i| {
            FiveTuple::new().dst_port_range(i * 200, i * 200 + 150).into_rule(i as u32, i as u32)
        })
        .collect();
    let set = RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap();
    let truth = LinearSearch::from_rules(set.rules().to_vec());
    let cfg = NuevoMatchConfig {
        rqrmi: RqRmiParams { samples_init: 256, ..Default::default() },
        ..Default::default()
    };
    for udp in [true, false] {
        let handle = ClassifierHandle::new(&set, &cfg, TupleMerge::build).expect("build");
        let scfg = ServeConfig {
            transport: if udp { Transport::Udp } else { Transport::Tcp },
            validate_every: 1,
            ..ServeConfig::default()
        };
        let generation = handle.generation();
        let server = Server::start(handle, &scfg).expect("bind");
        server.oracle().publish(generation, truth.clone());
        let addr = if udp { server.udp_addr() } else { server.tcp_addr() }.expect("bound");
        let mut client =
            if udp { ServeClient::udp(addr) } else { ServeClient::tcp(addr) }.expect("client");
        let mut answered = 0u64;
        for i in 0..CALLS {
            let key = [0, 0, 0, (i * 37) % 65_536, 0];
            match client.call(i, &key, Duration::from_millis(500)) {
                Ok(frame) => {
                    answered += 1;
                    assert_eq!(frame.verdict, truth.classify(&key), "verdict for {key:?}");
                    assert_eq!(frame.generation, generation);
                }
                // A lost loopback datagram surfaces as a receive timeout.
                Err(ref e)
                    if udp
                        && matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) => {}
                Err(e) => panic!("client i/o: {e}"),
            }
        }
        drop(client);
        let stats = server.shutdown();
        eprintln!(
            "TMP udp={udp} requests {} blocking {} empty {} batches {}",
            stats.requests, stats.blocking_recv_calls, stats.empty_recv_calls, stats.batches
        );
        assert!(answered * 100 >= CALLS * 99, "udp={udp}: only {answered} of {CALLS} answered");
        assert!(
            stats.blocking_recv_calls * 10 < stats.requests,
            "udp={udp}: the reader slept between dense requests: {stats:?}"
        );
        assert_eq!(stats.mismatches, 0, "udp={udp}: {stats:?}");
        assert_eq!(stats.validated, stats.requests, "udp={udp}: {stats:?}");
    }
}
