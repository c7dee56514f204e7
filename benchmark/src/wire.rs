//! Wire phases against `Server::start` on loopback UDP, one 5-field (or
//! 1-field) key per datagram — the smallest frame, where per-packet I/O
//! dominates — and the traced run's probes of the serve-side layers.
//!
//! One generator thread does everything: it interleaves due sends with
//! non-blocking receive drains on one UDP socket, so the benchmark side is
//! one runnable thread against the server's one reader (2 vCPUs here).
//! Traffic crosses the host's loopback interface, never a real link.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, UdpSocket};
use std::time::Instant;

use nm_common::frame::{
    decode_request, decode_response, encode_request, encode_response, ResponseFrame, RESPONSE_FRAME,
};
use nm_common::update::Generation;
use nm_common::{MatchResult, TraceBuf};
use nuevomatch::system::serve::sysio::{send_udp_runs, RecvRing, SendRing};
use nuevomatch::{PinnedPlane, ServeConfig, ServePlane, ServeStats, Server, Transport};

use crate::inputs::{poisson_schedule, BATCH, OPEN_LOOP_RATE, OUTSTANDING};
use crate::metrics::Better;
use crate::spans::Tracer;
use crate::stats::{best_decile, median, Windows};
use crate::Report;

/// Window of the per-window aggregation, and warm-up windows skipped.
/// At 20 000 req/s a 50 ms window holds 1000 requests, ten beyond its p99;
/// a scheduler stall or a neighbour's burst spoils the windows it lands in,
/// not the quantile taken over all of them.
const WINDOW_S: f64 = 0.05;
const WARM_UP_WINDOWS: usize = 5;
/// A request unanswered this long is sent again (same id), as a UDP client
/// would: a stall longer than the socket buffer holds (256 datagrams) drops
/// datagrams. Its latency still counts from the first scheduled send.
const RETRY_NS: u64 = 50_000_000;
/// A request unanswered this long, retries included, has failed.
const GIVE_UP_NS: u64 = 1_000_000_000;

/// UDP only, one reader, batch 128 / 20 µs deadline, no pinning.
pub fn serve_config(stride: usize) -> ServeConfig {
    ServeConfig {
        transport: Transport::Udp,
        udp_readers: 1,
        pin: false,
        stride,
        validate_every: 0,
        ..ServeConfig::default()
    }
}

/// The generator's socket plus what it needs to judge a response.
struct Client<'a> {
    sock: UdpSocket,
    keys: &'a TraceBuf,
    expected: &'a [Option<MatchResult>],
    last_generation: Generation,
    wrong: u64,
    out: Vec<u8>,
    buf: Vec<u8>,
}

impl<'a> Client<'a> {
    fn connect(
        server: SocketAddr,
        keys: &'a TraceBuf,
        expected: &'a [Option<MatchResult>],
    ) -> std::io::Result<Self> {
        let sock = UdpSocket::bind(("127.0.0.1", 0))?;
        sock.connect(server)?;
        sock.set_nonblocking(true)?;
        Ok(Self {
            sock,
            keys,
            expected,
            last_generation: 0,
            wrong: 0,
            out: Vec::with_capacity(64),
            // The server coalesces one flush's responses to one peer into a
            // single datagram (up to 128 frames), so leave room for the largest.
            buf: vec![0; 64 * 1024],
        })
    }

    /// Sends request `id`; false when the socket buffer is full (try later).
    fn send(&mut self, id: u64) -> bool {
        self.out.clear();
        encode_request(&mut self.out, id, self.keys.key(id as usize % self.keys.len()));
        self.sock.send(&self.out).is_ok()
    }

    /// Receives one datagram if one is queued and hands each response in it
    /// to `on_response`; every response is compared with the precomputed
    /// verdict and checked for a non-decreasing generation.
    fn drain(&mut self, mut on_response: impl FnMut(&ResponseFrame)) -> bool {
        // `WouldBlock` (nothing queued) and a refused datagram both mean
        // there is nothing to judge now; an unanswered request fails later.
        let Ok(len) = self.sock.recv(&mut self.buf) else { return false };
        let mut off = 0;
        while let Ok(Some((frame, used))) = decode_response(&self.buf[off..len]) {
            let want = self.expected[frame.id as usize % self.expected.len()];
            if frame.verdict != want || frame.generation < self.last_generation {
                self.wrong += 1;
            }
            self.last_generation = frame.generation;
            on_response(&frame);
            off += used;
        }
        true
    }
}

pub struct OpenLoop {
    pub sent: u64,
    pub answered: u64,
    pub wrong: u64,
    pub retransmits: u64,
    /// Latency from each request's *scheduled* send time, in µs, windowed by
    /// that time.
    pub latency_us: Windows,
    /// How late the generator sent each request, in µs.
    pub late_us: Vec<f64>,
}

impl OpenLoop {
    pub fn lost(&self) -> u64 {
        self.sent - self.answered
    }
}

/// Open loop: Poisson arrivals at `rate_per_s` for `duration_s`, sent on
/// schedule whatever the server does. Independent users make an open loop.
pub fn open_loop(
    server: SocketAddr,
    keys: &TraceBuf,
    expected: &[Option<MatchResult>],
    rate_per_s: f64,
    duration_s: f64,
    grace_ns: u64,
    seed: u64,
) -> std::io::Result<OpenLoop> {
    let schedule = poisson_schedule(rate_per_s, duration_s, seed);
    let n = schedule.len();
    let mut client = Client::connect(server, keys, expected)?;
    let mut latency_us = Windows::new((WINDOW_S * 1e9) as u64, (duration_s * 1e9) as u64);
    let mut late_us = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    // Unanswered requests in order of their last send, for the retries.
    let mut pending: VecDeque<(usize, u64)> = VecDeque::new();
    let (mut next, mut answered, mut retransmits) = (0usize, 0u64, 0u64);
    let give_up_ns = (duration_s * 1e9) as u64 + grace_ns;
    let t0 = Instant::now();
    while answered < n as u64 {
        let now = t0.elapsed().as_nanos() as u64;
        if next < n && now >= schedule[next] {
            if client.send(next as u64) {
                late_us.push((now - schedule[next]) as f64 / 1e3);
                pending.push_back((next, now));
                next += 1;
            }
            continue;
        }
        let got = client.drain(|frame| {
            let id = frame.id as usize;
            if id < n && !seen[id] {
                seen[id] = true;
                answered += 1;
                let now = t0.elapsed().as_nanos() as u64;
                latency_us.record(schedule[id], now.saturating_sub(schedule[id]) as f64 / 1e3);
            }
        });
        if !got {
            if next >= n && now > give_up_ns {
                break;
            }
            while let Some(&(id, at)) = pending.front() {
                if !seen[id] && now - at < RETRY_NS {
                    break;
                }
                pending.pop_front();
                if !seen[id] {
                    retransmits += client.send(id as u64) as u64;
                    pending.push_back((id, now));
                }
            }
            // Yield, never spin: when the kernel wakes the server's reader on
            // this CPU, a spinning generator would hold it off for a whole
            // scheduler slice (4 ms here).
            std::thread::yield_now();
        }
    }
    Ok(OpenLoop {
        sent: next as u64,
        answered,
        wrong: client.wrong,
        retransmits,
        latency_us,
        late_us,
    })
}

pub struct ClosedLoop {
    pub sent: u64,
    pub wrong: u64,
    pub lost: u64,
    /// One sample per correct response, windowed by arrival time.
    pub answered: Windows,
}

/// Closed loop: a fixed `outstanding` requests in flight; the next is sent
/// only when a reply (or giving up on one) frees a slot. Callers that each
/// wait for a reply make a closed loop; used for saturation only.
pub fn closed_loop(
    server: SocketAddr,
    keys: &TraceBuf,
    expected: &[Option<MatchResult>],
    outstanding: usize,
    duration_s: f64,
) -> std::io::Result<ClosedLoop> {
    let mut client = Client::connect(server, keys, expected)?;
    let mut answered = Windows::new((WINDOW_S * 1e9) as u64, (duration_s * 1e9) as u64);
    // id -> first send; `order` holds (id, last send) for the retries.
    let mut in_flight: HashMap<u64, u64> = HashMap::with_capacity(outstanding * 2);
    let mut order: VecDeque<(u64, u64)> = VecDeque::with_capacity(outstanding * 2);
    let (mut next, mut lost) = (0u64, 0u64);
    let end_ns = (duration_s * 1e9) as u64;
    let t0 = Instant::now();
    loop {
        let now = t0.elapsed().as_nanos() as u64;
        let sending = now < end_ns;
        if !sending && (in_flight.is_empty() || now > end_ns + GIVE_UP_NS) {
            break;
        }
        while sending && in_flight.len() < outstanding && client.send(next) {
            in_flight.insert(next, now);
            order.push_back((next, now));
            next += 1;
        }
        let wrong_before = client.wrong;
        let mut freed = 0u64;
        if !client.drain(|frame| freed += in_flight.remove(&frame.id).is_some() as u64) {
            std::thread::yield_now(); // see open_loop
        }
        if freed > 0 && client.wrong == wrong_before {
            let now = t0.elapsed().as_nanos() as u64;
            (0..freed).for_each(|_| answered.record(now, 1.0));
        }
        // Retry what has waited too long; give up (and free the slot) at 1 s.
        while let Some(&(id, at)) = order.front() {
            let first = in_flight.get(&id).copied();
            if first.is_some() && now.saturating_sub(at) < RETRY_NS {
                break;
            }
            order.pop_front();
            match first {
                Some(first) if now - first > GIVE_UP_NS => {
                    in_flight.remove(&id);
                    lost += 1;
                }
                Some(_) => {
                    client.send(id);
                    order.push_back((id, now));
                }
                None => {}
            }
        }
    }
    lost += in_flight.len() as u64;
    Ok(ClosedLoop { sent: next, wrong: client.wrong, lost, answered })
}

/// Samples of the two wire phases, pooled over the run's rounds: one value
/// per 50 ms window. The reported metrics are the best deciles of the lists.
#[derive(Default)]
pub struct WireSamples {
    /// Wire A: each window's p50 and p99 latency from the scheduled send.
    pub p50_us: Vec<f64>,
    pub p99_us: Vec<f64>,
    /// Wire B: each window's correct responses per second.
    pub sat_per_s: Vec<f64>,
    /// Wire A: how late the generator sent each request.
    pub late_us: Vec<f64>,
    pub open_requests: u64,
    pub open_retransmits: u64,
    pub closed_requests: u64,
    /// Server-side counters of each phase, merged over the rounds.
    pub open_stats: ServeStats,
    pub closed_stats: ServeStats,
}

/// Wire A: open loop against a freshly started server, so `ServeStats`
/// are the phase's own.
#[allow(clippy::too_many_arguments)]
pub fn open_round<P: ServePlane + Clone>(
    plane: &P,
    stride: usize,
    keys: &TraceBuf,
    expected: &[Option<MatchResult>],
    seconds: f64,
    seed: u64,
    samples: &mut WireSamples,
    report: &mut Report,
    tr: &mut Tracer,
) -> std::io::Result<()> {
    let server = Server::start(plane.clone(), &serve_config(stride))?;
    let addr = server.udp_addr().expect("udp transport is configured");
    let mut open = tr.span("serve.open_loop", |_| {
        open_loop(addr, keys, expected, OPEN_LOOP_RATE, whole_windows(seconds), GIVE_UP_NS, seed)
    })?;
    samples.open_stats.merge(&server.shutdown());
    report.count(open.sent, open.wrong, "open-loop response wrong or from an older generation");
    report.count(open.sent, open.lost(), "open-loop request unanswered within 1 s");
    samples.p50_us.extend(open.latency_us.quantiles(0.50, WARM_UP_WINDOWS));
    samples.p99_us.extend(open.latency_us.quantiles(0.99, WARM_UP_WINDOWS));
    samples.late_us.append(&mut open.late_us);
    samples.open_requests += open.sent;
    samples.open_retransmits += open.retransmits;
    Ok(())
}

/// Wire B: closed loop (saturation), again against its own server.
#[allow(clippy::too_many_arguments)]
pub fn closed_round<P: ServePlane + Clone>(
    plane: &P,
    stride: usize,
    keys: &TraceBuf,
    expected: &[Option<MatchResult>],
    seconds: f64,
    samples: &mut WireSamples,
    report: &mut Report,
    tr: &mut Tracer,
) -> std::io::Result<()> {
    let server = Server::start(plane.clone(), &serve_config(stride))?;
    let addr = server.udp_addr().expect("udp transport is configured");
    let closed = tr.span("serve.closed_loop", |_| {
        closed_loop(addr, keys, expected, OUTSTANDING, whole_windows(seconds))
    })?;
    samples.closed_stats.merge(&server.shutdown());
    report.count(
        closed.sent,
        closed.wrong,
        "closed-loop response wrong or from an older generation",
    );
    report.count(closed.sent, closed.lost, "closed-loop request unanswered within 1 s");
    samples.sat_per_s.extend(closed.answered.rates_per_s(WARM_UP_WINDOWS));
    samples.closed_requests += closed.sent;
    Ok(())
}

/// Whole windows only, and at least as many measured as skipped.
fn whole_windows(seconds: f64) -> f64 {
    (seconds / WINDOW_S).round().max(2.0 * WARM_UP_WINDOWS as f64) * WINDOW_S
}

/// A data plane that answers "no match" without looking anything up: what
/// is left is the bare I/O path (and the generator).
#[derive(Clone)]
pub struct NullPlane;
pub struct NullPin;

impl ServePlane for NullPlane {
    type Pin = NullPin;
    fn pin(&self) -> NullPin {
        NullPin
    }
}

impl PinnedPlane for NullPin {
    fn generation(&self) -> Generation {
        1
    }
    fn classify_batch(&self, _keys: &[u64], _stride: usize, out: &mut [Option<MatchResult>]) {
        out.fill(None);
    }
}

/// Saturation of the serve path over [`NullPlane`], kreq/s.
pub fn null_plane_probe(
    stride: usize,
    keys: &TraceBuf,
    duration_s: f64,
    report: &mut Report,
    tr: &mut Tracer,
) -> std::io::Result<f64> {
    let server = Server::start(NullPlane, &serve_config(stride))?;
    let addr = server.udp_addr().expect("udp transport is configured");
    let none = vec![None; 1];
    let run = tr.span("serve.null_plane", |_| {
        closed_loop(addr, keys, &none, OUTSTANDING, whole_windows(duration_s))
    })?;
    server.shutdown();
    report.count(run.sent, run.wrong + run.lost, "null-plane request wrong or lost");
    Ok(best_decile(&mut run.answered.rates_per_s(WARM_UP_WINDOWS), Better::Higher) / 1e3)
}

/// Offered rates of the diagnostic ladder, kreq/s.
const LADDER_KPPS: [f64; 7] = [25.0, 50.0, 100.0, 150.0, 200.0, 250.0, 300.0];

/// Open-loop ladder: p99 at each fixed rate and the highest rate whose
/// window-median p99 stays within 1 ms with under 0.1 % loss. Rates past
/// capacity lose requests by design; that loss is the ladder's result, not
/// a failed operation (wrong verdicts still are).
#[allow(clippy::too_many_arguments)]
pub fn ladder_probe<P: ServePlane + Clone>(
    plane: &P,
    stride: usize,
    keys: &TraceBuf,
    expected: &[Option<MatchResult>],
    step_s: f64,
    seed: u64,
    report: &mut Report,
    tr: &mut Tracer,
) -> std::io::Result<()> {
    let server = Server::start(plane.clone(), &serve_config(stride))?;
    let addr = server.udp_addr().expect("udp transport is configured");
    let step_s = whole_windows(step_s);
    let mut best_kpps = 0.0f64;
    for (i, &kpps) in LADDER_KPPS.iter().enumerate() {
        let mut step = tr.span("serve.ladder_step", |_| {
            open_loop(addr, keys, expected, kpps * 1e3, step_s, 2 * RETRY_NS, seed + i as u64)
        })?;
        report.count(step.sent, step.wrong, "ladder response wrong");
        let p99_us = median(&mut step.latency_us.quantiles(0.99, WARM_UP_WINDOWS));
        let loss = step.lost() as f64 / step.sent.max(1) as f64;
        if p99_us <= 1_000.0 && loss < 0.001 {
            best_kpps = best_kpps.max(kpps);
        }
        if kpps == 100.0 {
            report.put("serve.p99_us_at_100k", p99_us);
        } else if kpps == 200.0 {
            report.put("serve.p99_us_at_200k", p99_us);
        }
    }
    server.shutdown();
    report.put("serve.rate_at_1ms_kpps", best_kpps);
    Ok(())
}

/// `nm_common::frame` codec cost per request decoded / response encoded.
pub fn frame_probe(keys: &TraceBuf, report: &mut Report, tr: &mut Tracer) {
    const FRAMES: usize = 4096;
    const ROUNDS: usize = 64;
    let mut requests = Vec::new();
    for i in 0..FRAMES {
        encode_request(&mut requests, i as u64, keys.key(i % keys.len()));
    }
    let mut scratch = Vec::with_capacity(keys.stride());
    let mut decoded = 0usize;
    let t = Instant::now();
    tr.span("frame.decode_request", |_| {
        for _ in 0..ROUNDS {
            let mut off = 0;
            while let Ok(Some((head, used))) = decode_request(&requests[off..], &mut scratch) {
                decoded += head.fields;
                scratch.clear();
                off += used;
            }
        }
    });
    report.put("frame.decode_ns_per_req", t.elapsed().as_nanos() as f64 / (FRAMES * ROUNDS) as f64);
    report.check(decoded == FRAMES * ROUNDS * keys.stride(), "request frames did not all decode");

    let mut responses = Vec::with_capacity(FRAMES * RESPONSE_FRAME);
    let t = Instant::now();
    tr.span("frame.encode_response", |_| {
        for _ in 0..ROUNDS {
            responses.clear();
            for i in 0..FRAMES {
                encode_response(&mut responses, i as u64, Some(MatchResult::new(i as u32, 7)), 1);
            }
            std::hint::black_box(&responses);
        }
    });
    report
        .put("frame.encode_ns_per_resp", t.elapsed().as_nanos() as f64 / (FRAMES * ROUNDS) as f64);
}

/// `serve::sysio` batched syscalls: one full 128-datagram `sendmmsg` and
/// `recvmmsg` per round over a loopback socket pair, ns per datagram.
pub fn sysio_probe(report: &mut Report, tr: &mut Tracer) -> std::io::Result<()> {
    const ROUNDS: usize = 300;
    let rx = UdpSocket::bind(("127.0.0.1", 0))?;
    let tx = UdpSocket::bind(("127.0.0.1", 0))?;
    let dest = rx.local_addr()?;
    let mut wire = Vec::new();
    for i in 0..BATCH {
        encode_response(&mut wire, i as u64, None, 1);
    }
    let runs: Vec<(usize, usize, SocketAddr)> =
        (0..BATCH).map(|i| (i * RESPONSE_FRAME, (i + 1) * RESPONSE_FRAME, dest)).collect();
    let (mut send_ring, mut recv_ring) = (SendRing::new(BATCH), RecvRing::new(BATCH));
    let (mut send_ns, mut recv_ns, mut failed, mut received) = (0u128, 0u128, 0usize, 0usize);
    tr.span("sysio.loopback_pair", |_| {
        for _ in 0..ROUNDS {
            let t = Instant::now();
            send_udp_runs(&tx, &wire, &runs, &mut send_ring, &mut |_| failed += 1);
            send_ns += t.elapsed().as_nanos();
            let t = Instant::now();
            let mut got = 0;
            while got < BATCH {
                match recv_ring.recv(&rx, false) {
                    Ok(n) if n > 0 => got += n,
                    _ => break,
                }
            }
            recv_ns += t.elapsed().as_nanos();
            received += got;
        }
    });
    report.check(failed == 0 && received == ROUNDS * BATCH, "loopback pair dropped datagrams");
    report.put("sysio.send_ns_per_pkt", send_ns as f64 / (ROUNDS * BATCH) as f64);
    report.put("sysio.recv_ns_per_pkt", recv_ns as f64 / received.max(1) as f64);
    Ok(())
}
