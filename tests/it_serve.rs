//! Loopback integration test for the `system::serve` wire front-end.
//!
//! The correctness bar mirrors `it_handle`, but across real sockets:
//! concurrent UDP and TCP clients classify through the served data plane
//! while the control plane applies update batches and retrains mid-run.
//! Every verdict that comes back carries the generation its batch was
//! pinned to, and must equal a `LinearSearch` reference rebuilt from the
//! rule truth *at that generation* — not the latest truth. Two layers
//! enforce it:
//!
//! * client-side: each response is replayed against the generation's truth
//!   from a shared history map (unknown generations are skipped — the
//!   response can arrive before the writer records the truth);
//! * server-side: `validate_every = 1` makes the in-loop oracle validator
//!   replay every served request at the pinned generation; a single torn
//!   generation (a batch mixing snapshots) lands in `stats.mismatches`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use nm_common::{
    Classifier, FieldsSpec, FiveTuple, LinearSearch, Rule, RuleSet, SplitMix64, UpdateBatch,
};
use nm_tuplemerge::TupleMerge;
use nuevomatch::{
    ClassifierHandle, NuevoMatchConfig, OracleTable, ReaderKind, RqRmiParams, ServeClient,
    ServeConfig, Server, ShardedHandle, Transport,
};

const N_RULES: u16 = 300;

fn base_set() -> RuleSet {
    let rules: Vec<_> = (0..N_RULES)
        .map(|i| {
            FiveTuple::new().dst_port_range(i * 200, i * 200 + 150).into_rule(i as u32, i as u32)
        })
        .collect();
    RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap()
}

fn cfg() -> NuevoMatchConfig {
    NuevoMatchConfig {
        rqrmi: RqRmiParams { samples_init: 256, ..Default::default() },
        ..Default::default()
    }
}

/// Generation-keyed truth history shared between the writer and the
/// checking clients.
type History = Arc<Mutex<HashMap<u64, Arc<LinearSearch>>>>;

/// Records `truth` at `generation` in both the server's oracle table and
/// the client-side history.
fn publish(oracle: &OracleTable, history: &History, truth: &[Rule], generation: u64) {
    oracle.publish(generation, LinearSearch::from_rules(truth.to_vec()));
    history.lock().unwrap().insert(generation, Arc::new(LinearSearch::from_rules(truth.to_vec())));
}

/// Modifies `ops` random rules to fresh dst-port ranges, mutating `truth`
/// in lock-step with the batch it returns.
fn drift(truth: &mut [Rule], rng: &mut SplitMix64, ops: usize) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    for _ in 0..ops {
        let i = rng.below(truth.len() as u64) as usize;
        let lo = rng.below(60_000) as u16;
        let rule = FiveTuple::new()
            .dst_port_range(lo, lo.saturating_add(180))
            .into_rule(truth[i].id, truth[i].priority);
        truth[i] = rule.clone();
        batch = batch.modify(rule);
    }
    batch
}

/// The dst-port sweep every client in this file classifies.
fn sweep_key(i: u64) -> [u64; 5] {
    [0, 0, 0, (i * 37) % 65_536, 0]
}

/// A lost loopback datagram surfaces as a receive timeout, not a failure.
fn timed_out(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// One checking client: closed-loop requests with a sweeping dst-port key,
/// each response replayed against the truth at its reported generation.
/// Returns (responses, generation-checked responses).
fn checking_client(
    addr: std::net::SocketAddr,
    udp: bool,
    history: &History,
    stop: &AtomicBool,
) -> (u64, u64) {
    let mut client =
        if udp { ServeClient::udp(addr) } else { ServeClient::tcp(addr) }.expect("client");
    let (mut served, mut checked) = (0u64, 0u64);
    let mut i = 0u64;
    while !stop.load(SeqCst) {
        let key = sweep_key(i);
        match client.call(i, &key, Duration::from_millis(500)) {
            Ok(frame) => {
                served += 1;
                let oracle = history.lock().unwrap().get(&frame.generation).cloned();
                if let Some(oracle) = oracle {
                    let expect = oracle.classify(&key);
                    assert_eq!(
                        frame.verdict, expect,
                        "torn verdict at generation {} for key {key:?}",
                        frame.generation
                    );
                    checked += 1;
                }
            }
            // Loopback UDP may still drop under memory pressure; a lost
            // datagram is a timeout here, not a correctness failure.
            Err(ref e) if udp && timed_out(e) => {}
            Err(e) => panic!("client i/o: {e}"),
        }
        i += 1;
    }
    (served, checked)
}

#[test]
fn wire_verdicts_match_pinned_generation_reference_under_updates() {
    let set = base_set();
    let handle = ClassifierHandle::new(&set, &cfg(), TupleMerge::build).expect("build");
    let scfg = ServeConfig {
        transport: Transport::Both,
        max_batch: 32,
        deadline: Duration::from_micros(50),
        validate_every: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(handle.clone(), &scfg).expect("bind");
    let udp_addr = server.udp_addr().expect("udp bound");
    let tcp_addr = server.tcp_addr().expect("tcp bound");
    let oracle = server.oracle();

    let history: History = Arc::new(Mutex::new(HashMap::new()));
    let mut truth: Vec<Rule> = set.rules().to_vec();
    publish(&oracle, &history, &truth, handle.generation());

    let stop = AtomicBool::new(false);
    let total_served = AtomicU64::new(0);
    let total_checked = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for udp in [true, false] {
            let addr = if udp { udp_addr } else { tcp_addr };
            let (history, stop) = (&history, &stop);
            let (total_served, total_checked) = (&total_served, &total_checked);
            scope.spawn(move || {
                let (served, checked) = checking_client(addr, udp, history, stop);
                total_served.fetch_add(served, SeqCst);
                total_checked.fetch_add(checked, SeqCst);
            });
        }

        // The control plane: 24 update batches, a retrain mid-run (which
        // bumps the generation while preserving the rule truth).
        let mut rng = SplitMix64::new(0x17_5e12);
        for round in 0..24 {
            let batch = drift(&mut truth, &mut rng, 8);
            handle.apply(&batch);
            publish(&oracle, &history, &truth, handle.generation());
            if round == 12 {
                handle.retrain().expect("mid-run retrain");
                publish(&oracle, &history, &truth, handle.generation());
            }
            std::thread::sleep(Duration::from_millis(4));
        }
        std::thread::sleep(Duration::from_millis(50));
        stop.store(true, SeqCst);
    });

    let stats = server.shutdown();
    let (served, checked) = (total_served.load(SeqCst), total_checked.load(SeqCst));
    assert!(served > 50, "clients barely ran: {served} responses");
    assert!(checked > 20, "generation checks barely ran: {checked} of {served}");
    assert_eq!(stats.mismatches, 0, "server-side oracle mismatches: {stats:?}");
    assert!(stats.validated > 0, "validator never sampled: {stats:?}");
    assert_eq!(stats.decode_errors, 0, "decode errors: {stats:?}");
    // Every response the clients got was also counted by the server.
    assert!(stats.responses >= served, "server counted {} < clients' {served}", stats.responses);
}

#[test]
fn sharded_plane_serves_coherent_epochs_over_the_wire() {
    let set = base_set();
    let sharded = ShardedHandle::new(&set, &cfg(), 2, TupleMerge::build).expect("build");
    let scfg = ServeConfig {
        transport: Transport::Udp,
        max_batch: 16,
        deadline: Duration::from_micros(50),
        validate_every: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(sharded.clone(), &scfg).expect("bind");
    let addr = server.udp_addr().expect("udp bound");
    let oracle = server.oracle();

    let history: History = Arc::new(Mutex::new(HashMap::new()));
    let mut truth: Vec<Rule> = set.rules().to_vec();
    publish(&oracle, &history, &truth, sharded.generation());

    let stop = AtomicBool::new(false);
    let total_checked = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let (history, stop, total_checked) = (&history, &stop, &total_checked);
        scope.spawn(move || {
            let (_, checked) = checking_client(addr, true, history, stop);
            total_checked.fetch_add(checked, SeqCst);
        });

        // Update fan-out across shard replicas under one logical
        // generation; every batch must publish a coherent epoch.
        let mut rng = SplitMix64::new(0x17_5e13);
        for _ in 0..16 {
            let batch = drift(&mut truth, &mut rng, 8);
            sharded.apply(&batch);
            publish(&oracle, history, &truth, sharded.generation());
            std::thread::sleep(Duration::from_millis(4));
        }
        std::thread::sleep(Duration::from_millis(30));
        stop.store(true, SeqCst);
    });

    let stats = server.shutdown();
    assert!(total_checked.load(SeqCst) > 10, "too few checked: {}", total_checked.load(SeqCst));
    assert_eq!(stats.mismatches, 0, "torn epoch on the sharded plane: {stats:?}");
    assert!(stats.validated > 0, "validator never sampled: {stats:?}");
}

/// The `SO_REUSEPORT` reader fleet: at 1, 2 and 4 UDP readers (each with
/// a private socket when the platform supports `SO_REUSEPORT`, a shared
/// one otherwise), concurrent clients from distinct source ports classify
/// through the batched `recvmmsg`/`sendmmsg` path while updates and a
/// retrain land mid-run. The bar is the same as the single-reader test:
/// every verdict exact at its reported generation, zero server-side
/// validator mismatches, zero decode errors.
#[test]
fn reuseport_reader_fleet_serves_exact_generations() {
    let set = base_set();
    for readers in [1usize, 2, 4] {
        let handle = ClassifierHandle::new(&set, &cfg(), TupleMerge::build).expect("build");
        let scfg = ServeConfig {
            transport: Transport::Udp,
            max_batch: 32,
            deadline: Duration::from_micros(50),
            udp_readers: readers,
            validate_every: 1,
            ..ServeConfig::default()
        };
        let server = Server::start(handle.clone(), &scfg).expect("bind");
        let addr = server.udp_addr().expect("udp bound");
        let oracle = server.oracle();

        let history: History = Arc::new(Mutex::new(HashMap::new()));
        let mut truth: Vec<Rule> = set.rules().to_vec();
        publish(&oracle, &history, &truth, handle.generation());

        let stop = AtomicBool::new(false);
        let total_served = AtomicU64::new(0);
        let total_checked = AtomicU64::new(0);
        std::thread::scope(|scope| {
            // Two clients per reader: each client socket binds its own
            // ephemeral source port, so the kernel's REUSEPORT flow hash
            // has enough distinct 4-tuples to exercise several sockets.
            for _ in 0..readers * 2 {
                let (history, stop) = (&history, &stop);
                let (total_served, total_checked) = (&total_served, &total_checked);
                scope.spawn(move || {
                    let (served, checked) = checking_client(addr, true, history, stop);
                    total_served.fetch_add(served, SeqCst);
                    total_checked.fetch_add(checked, SeqCst);
                });
            }

            let mut rng = SplitMix64::new(0x5e_7000 + readers as u64);
            for round in 0..16 {
                let batch = drift(&mut truth, &mut rng, 8);
                handle.apply(&batch);
                publish(&oracle, &history, &truth, handle.generation());
                if round == 8 {
                    handle.retrain().expect("mid-run retrain");
                    publish(&oracle, &history, &truth, handle.generation());
                }
                std::thread::sleep(Duration::from_millis(4));
            }
            std::thread::sleep(Duration::from_millis(40));
            stop.store(true, SeqCst);
        });

        let per_reader = server.per_reader_stats();
        let stats = server.shutdown();
        let served = total_served.load(SeqCst);
        assert!(served > 50, "readers={readers}: clients barely ran ({served} responses)");
        assert!(total_checked.load(SeqCst) > 20, "readers={readers}: too few generation checks");
        assert_eq!(stats.mismatches, 0, "readers={readers}: oracle mismatches: {stats:?}");
        assert!(stats.validated > 0, "readers={readers}: validator never sampled");
        assert_eq!(stats.decode_errors, 0, "readers={readers}: decode errors: {stats:?}");
        assert!(stats.responses >= served, "readers={readers}: responses undercounted");
        // Every reader registered exactly one tagged stats slot, and the
        // fleet-wide fold equals the per-reader sum.
        let udp_slots: Vec<_> =
            per_reader.iter().filter(|(kind, _)| *kind == ReaderKind::Udp).collect();
        assert_eq!(udp_slots.len(), readers, "readers={readers}: wrong slot count");
        let slot_requests: u64 = udp_slots.iter().map(|(_, st)| st.requests).sum();
        assert!(
            slot_requests <= stats.requests,
            "readers={readers}: per-reader sum {slot_requests} > fold {}",
            stats.requests
        );
    }
}

/// Malformed datagrams — truncated headers, bad lengths, oversized length
/// words, partial frame tails — must count as decode errors, never panic
/// a reader, and never wedge service for well-formed requests that follow.
#[test]
fn malformed_datagrams_are_counted_and_service_survives() {
    let set = base_set();
    let handle = ClassifierHandle::new(&set, &cfg(), TupleMerge::build).expect("build");
    let scfg = ServeConfig {
        transport: Transport::Udp,
        max_batch: 16,
        deadline: Duration::from_micros(50),
        udp_readers: 2,
        validate_every: 0,
        ..ServeConfig::default()
    };
    let server = Server::start(handle, &scfg).expect("bind");
    let addr = server.udp_addr().expect("udp bound");

    let junk = std::net::UdpSocket::bind("127.0.0.1:0").expect("junk socket");
    // Body length 13: not 8 + 8n.
    let mut bad = 13u32.to_le_bytes().to_vec();
    bad.extend_from_slice(&[0u8; 16]);
    // A valid frame followed by a truncated sibling in the same datagram:
    // datagrams are self-contained, the tail cannot complete later.
    let mut mixed = Vec::new();
    nm_common::frame::encode_request(&mut mixed, 1, &[0, 0, 0, 100, 0]);
    mixed.extend_from_slice(&44u32.to_le_bytes());
    mixed.extend_from_slice(&[0u8; 3]);
    let datagrams = [
        vec![0xff, 0xff], // truncated length word
        bad,
        u32::MAX.to_le_bytes().to_vec(), // oversized length word (caps before allocating)
        mixed,
    ];
    // Loopback may drop datagrams under load, so delivery is not assumed:
    // the junk goes out again until the server has counted some of it.
    let mut sent = 0u64;
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.stats().decode_errors == 0 && std::time::Instant::now() < deadline {
        for datagram in &datagrams {
            junk.send_to(datagram, addr).expect("send");
            sent += 1;
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    // Well-formed requests still get exact answers on the same port.
    let mut client = ServeClient::udp(addr).expect("client");
    let truth = LinearSearch::from_rules(set.rules().to_vec());
    let mut answered = 0u64;
    for i in 0..64u64 {
        let key = sweep_key(i);
        match client.call(i, &key, Duration::from_millis(500)) {
            Ok(frame) => {
                assert_eq!(frame.verdict, truth.classify(&key), "verdict for {key:?}");
                answered += 1;
            }
            Err(ref e) if timed_out(e) => {}
            Err(e) => panic!("client i/o: {e}"),
        }
    }
    assert!(answered > 32, "service wedged after junk: {answered}/64 answered");

    let stats = server.shutdown();
    // Each junk datagram that arrives counts once (the three broken ones,
    // and the truncated tail of the mixed one); some may not arrive.
    assert!(stats.decode_errors >= 1, "no junk counted in 5 s of re-sends: {stats:?}");
    assert!(stats.decode_errors <= sent, "over-counted {sent} junk datagrams: {stats:?}");
    assert_eq!(stats.mismatches, 0, "{stats:?}");
}

/// A start that fails part-way — UDP bound and its readers running, then
/// the TCP bind refused — must stop those readers and release the UDP port
/// before it returns the error.
#[test]
fn a_failed_start_releases_every_port_it_bound() {
    let taken = std::net::TcpListener::bind("127.0.0.1:0").expect("tcp socket");
    let listen = taken.local_addr().expect("tcp addr");
    let handle = ClassifierHandle::new(&base_set(), &cfg(), TupleMerge::build).expect("build");
    let scfg = ServeConfig {
        transport: Transport::Both,
        listen,
        udp_readers: 2,
        ..ServeConfig::default()
    };
    assert!(Server::start(handle, &scfg).is_err(), "the TCP port is taken");
    std::net::UdpSocket::bind(listen).expect("the failed start still holds its UDP port");
}

/// The deadline of the two arrival-aware flush tests: long enough that a
/// noisy box cannot blur "answered when the socket ran dry" into "answered
/// at the deadline".
const LONG_DEADLINE: Duration = Duration::from_millis(5);

/// A server on [`LONG_DEADLINE`] whose in-loop validator replays every
/// served request against the published truth, plus that truth for the
/// client-side check.
fn long_deadline_server(
    max_batch: usize,
) -> (Server<ClassifierHandle<TupleMerge>>, LinearSearch, u64) {
    let set = base_set();
    let handle = ClassifierHandle::new(&set, &cfg(), TupleMerge::build).expect("build");
    let scfg = ServeConfig {
        transport: Transport::Both,
        max_batch,
        deadline: LONG_DEADLINE,
        validate_every: 1,
        ..ServeConfig::default()
    };
    let generation = handle.generation();
    let server = Server::start(handle, &scfg).expect("bind");
    server.oracle().publish(generation, LinearSearch::from_rules(set.rules().to_vec()));
    (server, LinearSearch::from_rules(set.rules().to_vec()), generation)
}

/// Sparse requests — one in flight, the client thinking for two deadlines
/// between calls — are answered when the reader finds its socket empty, not
/// a deadline later: the median round trip is far under the 5 ms deadline
/// and the flushes are idle flushes, over UDP and over TCP. (A client that
/// fires its next request the moment the reply lands is a *dense* stream to
/// the reader, gap = round trip; the assembler's
/// `reply_gated_client_settles_at_half_the_deadline` pins that case.)
#[test]
fn sparse_requests_are_answered_when_the_socket_runs_dry() {
    for udp in [true, false] {
        let (server, truth, generation) = long_deadline_server(128);
        let addr = if udp { server.udp_addr() } else { server.tcp_addr() }.expect("bound");
        let mut client =
            if udp { ServeClient::udp(addr) } else { ServeClient::tcp(addr) }.expect("client");
        let mut rtts = Vec::new();
        for i in 0..100u64 {
            let key = sweep_key(i);
            let sent = std::time::Instant::now();
            match client.call(i, &key, Duration::from_millis(500)) {
                Ok(frame) => {
                    rtts.push(sent.elapsed());
                    assert_eq!(frame.verdict, truth.classify(&key), "verdict for {key:?}");
                    assert_eq!(frame.generation, generation);
                }
                Err(ref e) if udp && timed_out(e) => {}
                Err(e) => panic!("client i/o: {e}"),
            }
            std::thread::sleep(LONG_DEADLINE * 2);
        }
        drop(client);
        let stats = server.shutdown();
        rtts.sort();
        assert!(rtts.len() > 80, "udp={udp}: only {} of 100 answered", rtts.len());
        let p50 = rtts[rtts.len() / 2];
        assert!(p50 < Duration::from_millis(1), "udp={udp}: p50 round trip {p50:?}");
        assert!(
            stats.idle_flushes * 10 >= stats.batches * 9,
            "udp={udp}: lone requests waited out the deadline: {stats:?}"
        );
        assert_eq!(stats.mismatches, 0, "udp={udp}: {stats:?}");
        assert!(stats.validated > 0, "udp={udp}: validator never sampled");
    }
}

/// Dense traffic still batches: with 128 requests outstanding against a
/// 64-request batch the readers assemble full batches instead of answering
/// one by one, over UDP (one datagram per request) and over TCP.
#[test]
fn dense_traffic_still_assembles_full_batches() {
    const OUTSTANDING: u64 = 128;
    for udp in [true, false] {
        let (server, truth, generation) = long_deadline_server(64);
        let addr = if udp { server.udp_addr() } else { server.tcp_addr() }.expect("bound");
        let mut client =
            if udp { ServeClient::udp(addr) } else { ServeClient::tcp(addr) }.expect("client");
        let mut answered = 0u64;
        for round in 0..40u64 {
            for i in round * OUTSTANDING..(round + 1) * OUTSTANDING {
                client.send(i, &sweep_key(i)).expect("send");
            }
            let mut got = 0;
            while got < OUTSTANDING {
                // A round that lost a datagram ends on the timeout.
                let Ok(frames) = client.recv(Some(Duration::from_millis(200))) else { break };
                for frame in &frames {
                    assert_eq!(frame.verdict, truth.classify(&sweep_key(frame.id)));
                    assert_eq!(frame.generation, generation);
                }
                got += frames.len() as u64;
            }
            answered += got;
        }
        drop(client);
        let stats = server.shutdown();
        assert!(answered > 30 * OUTSTANDING, "udp={udp}: only {answered} answered");
        assert!(stats.full_flushes > 0, "udp={udp}: never filled a batch: {stats:?}");
        assert!(
            stats.batches < stats.requests / 8,
            "udp={udp}: dense traffic answered in dribbles: {stats:?}"
        );
        assert_eq!(stats.mismatches, 0, "udp={udp}: {stats:?}");
        assert!(stats.validated > 0, "udp={udp}: validator never sampled");
    }
}

/// A TCP client that stops reading: the responses back up through both
/// socket buffers until the connection's reader — whose fd is nonblocking
/// while it assembles — is writing into a full one. Once the client drains,
/// every response arrives exactly once and in order, none was given up on,
/// and the flushes needed more writes than there were flushes (partial
/// writes, `WouldBlock` retries) — but only a few more: a stalled write
/// waits in the kernel instead of spinning its reader's core on retries.
#[test]
fn tcp_backpressure_delays_responses_but_loses_none() {
    use nm_common::frame::{decode_response, encode_request, RESPONSE_FRAME};
    use std::io::{Read, Write};
    use std::sync::atomic::AtomicUsize;

    // 8 MB of responses: twice what loopback's send and receive buffers
    // hold between them at their largest, so the server must stall.
    const REQUESTS: usize = 300_000;
    const CHUNK: usize = 500;
    let set = base_set();
    let handle = ClassifierHandle::new(&set, &cfg(), TupleMerge::build).expect("build");
    let generation = handle.generation();
    // A batch no single 16 KB read can fill, and time to fill it: batches
    // flush full, mid-assembly, when the reader's fd is nonblocking.
    let scfg = ServeConfig {
        transport: Transport::Tcp,
        max_batch: 1_024,
        deadline: LONG_DEADLINE,
        validate_every: 16,
        ..Default::default()
    };
    let server = Server::start(handle, &scfg).expect("bind");
    let truth = LinearSearch::from_rules(set.rules().to_vec());
    server.oracle().publish(generation, LinearSearch::from_rules(set.rules().to_vec()));
    // The sweep revisits 4 096 ports; their verdicts, once.
    let want: Vec<_> = (0..4_096).map(|i| truth.classify(&sweep_key(i))).collect();

    let mut stream = std::net::TcpStream::connect(server.tcp_addr().expect("bound")).unwrap();
    let sent = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        // The writer blocks whenever the request path is full, which it is
        // for as long as the server is stuck on its responses.
        let mut tx = stream.try_clone().expect("clone");
        let sent = &sent;
        scope.spawn(move || {
            let mut wire = Vec::new();
            for first in (0..REQUESTS).step_by(CHUNK) {
                wire.clear();
                for id in first..first + CHUNK {
                    encode_request(&mut wire, id as u64, &sweep_key(id as u64 % 4_096));
                }
                tx.write_all(&wire).expect("request write");
                sent.store(first + CHUNK, SeqCst);
            }
        });
        // Read nothing until the writer has stopped making progress.
        let (mut seen, mut stalled) = (0, 0);
        while stalled < 20 && seen < REQUESTS {
            std::thread::sleep(Duration::from_millis(10));
            let now = sent.load(SeqCst);
            stalled = if now == seen { stalled + 1 } else { 0 };
            seen = now;
        }
        assert!(seen < REQUESTS, "every request went out with no response read: no back-pressure");
        // Drain.
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let (mut buf, mut carry, mut next) = (vec![0u8; 64 * 1024], Vec::new(), 0usize);
        while next < REQUESTS {
            let n = stream.read(&mut buf).expect("response read");
            assert!(n > 0, "server closed after {next} responses");
            carry.extend_from_slice(&buf[..n]);
            let whole = carry.len() / RESPONSE_FRAME * RESPONSE_FRAME;
            for frame in carry[..whole].chunks(RESPONSE_FRAME) {
                let (frame, _) = decode_response(frame).unwrap().expect("a whole frame");
                assert_eq!(frame.id, next as u64, "responses out of order or repeated");
                assert_eq!(frame.verdict, want[next % 4_096], "verdict for request {next}");
                assert_eq!(frame.generation, generation);
                next += 1;
            }
            carry.drain(..whole);
        }
    });
    drop(stream);
    let stats = server.shutdown();
    assert_eq!(
        (stats.requests, stats.responses, stats.send_errors),
        (REQUESTS as u64, REQUESTS as u64, 0)
    );
    assert!(
        stats.send_calls > stats.batches,
        "{} flushes went out in {} writes: none was partial or retried",
        stats.batches,
        stats.send_calls
    );
    assert!(
        stats.send_calls < 20 * stats.batches,
        "{} flushes took {} writes: a stalled write spun instead of waiting",
        stats.batches,
        stats.send_calls
    );
    assert_eq!(stats.mismatches, 0);
    assert!(stats.validated > 0, "validator never sampled");
}

/// Property fuzz for the wire decoders the batched data path leans on:
/// arbitrary bytes never panic, and a stream of valid frames cut at any
/// byte boundary (a `recvmmsg` datagram edge or a TCP short read) decodes
/// exactly once per frame once the carry is re-spliced.
mod frame_fuzz {
    use nm_common::frame::{decode_request, decode_response, encode_request};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// Total on arbitrary input: decode either consumes a bounded
        /// prefix, reports "partial", or errors — it never panics and
        /// never claims more bytes than it was given.
        #[test]
        fn decode_request_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let mut keys = Vec::new();
            match decode_request(&bytes, &mut keys) {
                Ok(Some((head, used))) => {
                    prop_assert!(used <= bytes.len());
                    prop_assert_eq!(keys.len(), head.fields);
                }
                Ok(None) => prop_assert!(keys.is_empty()),
                Err(_) => {}
            }
        }

        /// Total on arbitrary response bytes (the client side of the
        /// batched `sendmmsg` path).
        #[test]
        fn decode_response_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = decode_response(&bytes);
        }

        /// Frames survive an arbitrary cut: decode the prefix, carry the
        /// partial tail, splice the remainder — every frame comes back
        /// exactly once, ids/widths/keys intact.
        #[test]
        fn batched_frames_survive_arbitrary_cuts(
            frames in proptest::collection::vec(
                (any::<u64>(), proptest::collection::vec(any::<u64>(), 1..8)),
                1..10,
            ),
            cut_seed in any::<u64>(),
        ) {
            let mut wire = Vec::new();
            for (id, key) in &frames {
                encode_request(&mut wire, *id, key);
            }
            let cut = (cut_seed as usize) % (wire.len() + 1);

            let mut keys = Vec::new();
            let mut heads = Vec::new();
            let mut off = 0usize;
            // First "datagram": everything before the cut.
            while let Some((head, used)) = decode_request(&wire[off..cut], &mut keys).unwrap() {
                heads.push(head);
                off += used;
            }
            // Carry the partial tail into the second read, TCP-style.
            let mut carry = wire[off..cut].to_vec();
            carry.extend_from_slice(&wire[cut..]);
            let mut off2 = 0usize;
            while let Some((head, used)) = decode_request(&carry[off2..], &mut keys).unwrap() {
                heads.push(head);
                off2 += used;
            }
            prop_assert_eq!(off2, carry.len(), "undecoded tail");
            prop_assert_eq!(heads.len(), frames.len());
            for (head, (id, key)) in heads.iter().zip(&frames) {
                prop_assert_eq!(head.id, *id);
                prop_assert_eq!(head.fields, key.len());
            }
            let expect: Vec<u64> =
                frames.iter().flat_map(|(_, k)| k.iter().copied()).collect();
            prop_assert_eq!(keys, expect);
        }
    }
}
