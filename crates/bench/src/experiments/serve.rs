//! Open-loop tail-latency sweep of the `system::serve` wire front-end.
//!
//! Starts the real serving stack — `SO_REUSEPORT` UDP reader fleet,
//! arrival-aware micro-batching, `ClassifierHandle` data plane — on loopback
//! and subjects it to **open-loop Poisson arrivals** at a sweep of offered
//! loads, once per reader count. Unlike a closed-loop driver (whose
//! arrival rate collapses when the server slows, hiding queueing delay —
//! the coordinated-omission trap), the sender here follows a precomputed
//! arrival schedule regardless of response progress, and each response's
//! latency is measured from its *scheduled* arrival time. Queue buildup
//! near saturation therefore shows up where it belongs: in the tail.
//!
//! ## Methodology
//!
//! * **Baseline**: a closed-loop client measures the per-request wire RTT
//!   (one in flight; a lone request is flushed as soon as its reader finds
//!   the socket empty, so the assembly deadline is not in it) against its
//!   own dedicated server, keeping the swept servers' syscall counters
//!   clean.
//! * **Reader sweep** (`--readers 1,2,4`): the whole measurement repeats
//!   per reader count on a fresh server. Load is offered from several
//!   client sockets — `SO_REUSEPORT` steers flows by 4-tuple hash, so a
//!   single source port would land every packet on one reader.
//! * **Capacity estimate**: a short open-loop burst offered well past
//!   saturation; what actually comes back per second is the service
//!   ceiling, and the sweep's offered loads are fractions of it.
//! * **Syscalls per packet**: server-side `recvmmsg`/`sendmmsg` counter
//!   deltas around each phase, over requests served in that phase. The
//!   saturated capacity probe is the headline number — batched I/O
//!   amortizes one receive and one send syscall over up to `max_batch`
//!   requests, versus ~2.0 for the old per-datagram path.
//! * **Knee**: the first load point whose p99 exceeds 5x the best p99 of
//!   its sweep (or loses > 1% of requests) is the latency knee. If the
//!   fraction sweep tops out under capacity, extra points keep pushing
//!   past the capacity estimate until the knee fires; a sweep that still
//!   ends knee-less reports `beyond-sweep` instead of a silent blank.
//! * **Checks** (a miss fails the run): the best p99 across all sweeps
//!   must stay under 50x (closed-loop p50 + deadline), and at least 0.9 of
//!   the baseline's flushes must be idle flushes (a count, not a timing).
//!   The best probe-phase syscalls-per-packet against 0.1 at the default
//!   batch of 128 prints PASS/WARN only: whether a saturated reader finds
//!   its socket full is the box's scheduling state, bistable on two vCPUs
//!   whatever the code (`best_syscalls_per_packet` carries the number).

use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::{nm_tm_handle, Ctx, Outcome};
use nm_analysis::{Json, Table};
use nm_classbench::{generate, AppKind};
use nm_common::frame::{decode_response, encode_request};
use nm_common::{LatencyHistogram, LatencySummary, SplitMix64};
use nm_trace::uniform_trace;
use nuevomatch::system::serve::ReaderKind;
use nuevomatch::{ServeClient, ServeConfig, ServeStats, Server, Transport};

/// One measured offered-load point.
struct Point {
    offered_pps: f64,
    loss: f64,
    latency: LatencySummary,
}

/// Kernel crossings per request between two server stats snapshots.
fn syscall_ratio(before: &ServeStats, after: &ServeStats) -> f64 {
    let calls =
        (after.recv_calls + after.send_calls).saturating_sub(before.recv_calls + before.send_calls);
    let reqs = after.requests.saturating_sub(before.requests);
    calls as f64 / reqs.max(1) as f64
}

/// Runs one open-loop point against `addr`: Poisson arrivals at
/// `rate_pps` for `duration`, latency measured from the scheduled arrival.
/// Requests round-robin over `socks_n` client sockets so `SO_REUSEPORT`
/// 4-tuple hashing actually spreads the load across the reader fleet.
fn open_loop_point(
    addr: std::net::SocketAddr,
    trace: &nm_common::TraceBuf,
    rate_pps: f64,
    duration: f64,
    seed: u64,
    socks_n: usize,
) -> std::io::Result<(u64, u64, LatencyHistogram)> {
    // Precompute the arrival schedule (nanosecond offsets) so the sender
    // never pauses to draw randomness and the receivers can recover each
    // request's scheduled time from its id alone.
    let mut sched = Vec::new();
    let mut rng = SplitMix64::new(seed);
    let mut t = 0.0f64;
    while t < duration {
        sched.push((t * 1e9) as u64);
        t += -(1.0 - rng.f64()).ln() / rate_pps;
    }
    let sched = Arc::new(sched);
    let n = sched.len();

    let socks_n = socks_n.max(1);
    let mut socks = Vec::with_capacity(socks_n);
    for _ in 0..socks_n {
        let s = UdpSocket::bind(("127.0.0.1", 0))?;
        s.connect(addr)?;
        socks.push(Arc::new(s));
    }
    let done = Arc::new(AtomicBool::new(false));
    // One epoch for every thread — separate `Instant::now()` calls would
    // skew every latency by the receiver threads' startup time.
    let t0 = Instant::now();

    // One receiver per socket: drain responses, bin `now - scheduled`.
    let mut receivers = Vec::with_capacity(socks_n);
    for sock in &socks {
        let sock = sock.clone();
        let sched = sched.clone();
        let done = done.clone();
        receivers.push(std::thread::spawn(move || -> std::io::Result<(u64, LatencyHistogram)> {
            sock.set_read_timeout(Some(Duration::from_millis(50)))?;
            let mut hist = LatencyHistogram::new();
            let mut received = 0u64;
            let mut buf = vec![0u8; 64 * 1024];
            loop {
                match sock.recv(&mut buf) {
                    Ok(len) => {
                        let now = t0.elapsed().as_nanos() as u64;
                        let mut off = 0;
                        while let Ok(Some((frame, used))) = decode_response(&buf[off..len]) {
                            if let Some(&at) = sched.get(frame.id as usize) {
                                hist.record(now.saturating_sub(at).max(1));
                                received += 1;
                            }
                            off += used;
                            if off >= len {
                                break;
                            }
                        }
                    }
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        if done.load(Relaxed) {
                            return Ok((received, hist));
                        }
                    }
                    Err(e) => return Err(e),
                }
            }
        }));
    }

    // Sender: follow the schedule; when behind, send immediately — the
    // backlog is the open-loop signal, not something to absorb.
    let (raw, stride, keys) = (trace.raw(), trace.stride(), trace.len());
    let mut wire = Vec::with_capacity(64);
    for (i, &at) in sched.iter().enumerate() {
        // Sleep the long stretch, spin the last ~100us: a pure spin-wait
        // would starve the server on a small box, inflating every latency
        // with scheduler noise; sleeping right up to the mark would send
        // late by a timer tick. (A late send still measures against the
        // *scheduled* time — the open-loop contract.)
        loop {
            let now = t0.elapsed().as_nanos() as u64;
            if now >= at {
                break;
            }
            if at - now > 20_000 {
                std::thread::sleep(Duration::from_nanos(at - now - 20_000));
            } else {
                std::hint::spin_loop();
            }
        }
        let k = i % keys;
        wire.clear();
        encode_request(&mut wire, i as u64, &raw[k * stride..(k + 1) * stride]);
        let _ = socks[i % socks_n].send(&wire); // a full socket buffer is loss
    }
    // Give in-flight responses a drain window before stopping receivers.
    std::thread::sleep(Duration::from_millis(150));
    done.store(true, Relaxed);
    let mut received = 0u64;
    let mut hist = LatencyHistogram::new();
    for r in receivers {
        let (got, h) = r.join().expect("receiver panicked")?;
        received += got;
        hist.merge(&h);
    }
    Ok((n as u64, received, hist))
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let s = &ctx.scale;
    let n = if s.full { 100_000 } else { 10_000 };
    let point_secs = if s.full { 3.0 } else { 1.0 };
    let fractions: &[f64] =
        if s.full { &[0.1, 0.3, 0.5, 0.7, 0.9, 1.1] } else { &[0.25, 0.5, 0.9] };
    let readers_list =
        ctx.readers.clone().unwrap_or_else(|| if s.full { vec![1, 2, 4] } else { vec![1, 2] });
    // Past the fraction sweep, keep pushing the offered load up by 30% a
    // point until the knee criterion fires (bounded — a sender-bound box
    // eventually *is* the knee, which the criterion registers as latency
    // divergence from the schedule).
    let max_extension_points = 4usize;

    let set = generate(AppKind::Acl, n, 0x5e12);
    let trace = uniform_trace(&set, s.trace_len.min(100_000), 0x5e13);
    let t_build = Instant::now();
    let handle = nm_tm_handle(&set);
    let build_s = t_build.elapsed().as_secs_f64();

    let cfg = ServeConfig { transport: Transport::Udp, ..ServeConfig::default() };
    out.say(format!(
        "=== serve — open-loop tail latency ({n} rules, udp, batch {} / {}us deadline, \
         readers {readers_list:?}) ===\n",
        cfg.max_batch,
        cfg.deadline.as_micros()
    ));

    // Closed-loop baseline against a dedicated single-reader server: one
    // request in flight, wire round-trip. Its per-request rhythm would
    // pollute the swept servers' syscalls-per-packet counters, hence the
    // separate instance.
    let (closed_us, closed_stats) = {
        let base_cfg = ServeConfig { udp_readers: 1, ..cfg.clone() };
        let server = Server::start(handle.clone(), &base_cfg).expect("bind loopback");
        let addr = server.udp_addr().expect("udp bound");
        let mut client = ServeClient::udp(addr).expect("client socket");
        let (raw, stride, keys) = (trace.raw(), trace.stride(), trace.len());
        let mut closed = LatencyHistogram::new();
        for i in 0..2_000u64 {
            let k = (i as usize) % keys;
            let t = Instant::now();
            client
                .call(i, &raw[k * stride..(k + 1) * stride], Duration::from_millis(200))
                .expect("closed-loop call");
            closed.record_duration(t.elapsed());
        }
        (closed.summary_us(), server.shutdown())
    };
    let idle_ratio = closed_stats.idle_flushes as f64 / closed_stats.batches.max(1) as f64;
    out.say(format!(
        "closed-loop wire RTT (1 in flight, flushed on arrival): p50 {:.1}us  p99 {:.1}us  \
         ({} of {} flushes idle)",
        closed_us.p50_us, closed_us.p99_us, closed_stats.idle_flushes, closed_stats.batches
    ));

    let probe_rate = if s.full { 1_000_000.0 } else { 400_000.0 };
    let mut best_p99 = f64::INFINITY;
    let mut best_probe_ratio = f64::INFINITY;
    // Per sweep: capacity estimate, probe syscalls/packet, knee, then the
    // server's own counters over the whole sweep and the per-reader spread.
    let mut summary = Table::new(&[
        "readers",
        "capacity pps",
        "probe sc/pkt",
        "knee pps",
        "server p50 us",
        "server p99 us",
        "batches",
        "full",
        "deadline",
        "idle",
        "recv",
        "empty recv",
        "send",
        "requests",
        "sc/pkt",
        "reader requests",
        "reader p99 us",
    ]);
    for (sweep_idx, &readers) in readers_list.iter().enumerate() {
        let scfg = ServeConfig { udp_readers: readers, ..cfg.clone() };
        let server = Server::start(handle.clone(), &scfg).expect("bind loopback");
        let addr = server.udp_addr().expect("udp bound");
        // Several source ports per reader so the kernel's 4-tuple hash has
        // enough flows to spread — one client socket is one flow and would
        // land on one reader no matter how many are serving.
        let socks_n = (readers * 4).clamp(4, 16);
        let seed0 = 0x5e20 + 0x100 * sweep_idx as u64;

        // Capacity estimate: a short *open-loop* probe well past
        // saturation — what comes back is what the whole serving path
        // (sender syscalls, readers, classify, receivers) actually
        // sustains per second. A closed-loop probe would overestimate: its
        // burst-and-drain rhythm has a different syscall profile than
        // Poisson arrivals.
        let before = server.stats();
        let (_, probe_received, _) =
            open_loop_point(addr, &trace, probe_rate, 0.4, seed0 ^ 0x0f, socks_n)
                .expect("capacity probe");
        let probe_ratio = syscall_ratio(&before, &server.stats());
        best_probe_ratio = best_probe_ratio.min(probe_ratio);
        let capacity = probe_received as f64 / 0.4;
        out.say(format!(
            "\n--- readers {readers}: capacity estimate {capacity:.3e} pps \
             (probe at {probe_rate:.0e} pps, {probe_ratio:.4} syscalls/pkt) ---"
        ));

        let mut table = Table::new(&[
            "offered pps",
            "sent",
            "received",
            "loss",
            "p50 us",
            "p99 us",
            "p99.9 us",
            "mean us",
            "sc/pkt",
        ]);
        let mut points: Vec<Point> = Vec::new();
        let mut knee: Option<f64> = None;
        // The planned fractions, then up to `max_extension_points` pushes
        // past the capacity estimate until the knee fires.
        let mut offered: Vec<f64> = fractions.iter().map(|f| (capacity * f).max(100.0)).collect();
        let mut extensions = 0usize;
        let mut i = 0usize;
        while i < offered.len() {
            let rate = offered[i];
            let before = server.stats();
            let (sent, received, hist) =
                open_loop_point(addr, &trace, rate, point_secs, seed0 + i as u64, socks_n)
                    .expect("open-loop point");
            let ratio = syscall_ratio(&before, &server.stats());
            let u = hist.summary_us();
            let loss = 1.0 - received as f64 / sent.max(1) as f64;
            table.row(vec![
                format!("{rate:.3e}"),
                format!("{sent}"),
                format!("{received}"),
                format!("{:.2}%", loss * 100.0),
                format!("{:.1}", u.p50_us),
                format!("{:.1}", u.p99_us),
                format!("{:.1}", u.p999_us),
                format!("{:.1}", u.mean_us),
                format!("{ratio:.4}"),
            ]);
            points.push(Point { offered_pps: rate, loss, latency: u });

            // Knee: where the tail diverges from the best tail seen so
            // far in this sweep (the best point, not the lowest-load one:
            // a sparse-arrival point pays a reader wake-up per request and
            // is the noisiest row on a shared box).
            let base_p99 =
                points.iter().map(|p| p.latency.p99_us).fold(f64::INFINITY, f64::min).max(1.0);
            knee = points
                .iter()
                .find(|p| p.latency.p99_us > 5.0 * base_p99 || p.loss > 0.01)
                .map(|p| p.offered_pps);
            i += 1;
            // Fraction sweep exhausted without a knee: keep offering more.
            if i == offered.len() && knee.is_none() && extensions < max_extension_points {
                let last = offered.last().copied().unwrap_or(capacity);
                offered.push(last.max(capacity) * 1.3);
                extensions += 1;
            }
        }
        out.table(&format!("readers_{readers}"), table);
        out.say(match knee {
            Some(k) => format!("p99 knee: offered load {k:.3e} pps (>5x best p99 or >1% loss)"),
            None => format!(
                "p99 knee: beyond-sweep (not reached within {} points, {} past capacity)",
                points.len(),
                extensions
            ),
        });
        best_p99 = points.iter().map(|p| p.latency.p99_us).fold(best_p99, f64::min);

        // Per-reader spread before shutdown folds the slots: a heavily
        // skewed UDP reader means flow steering (or the client's source
        // port spread) is off.
        let udp_readers: Vec<ServeStats> = server
            .per_reader_stats()
            .into_iter()
            .filter(|(kind, _)| *kind == ReaderKind::Udp)
            .map(|(_, st)| st)
            .collect();
        let requests = udp_readers.iter().map(|r| r.requests);
        let p99s = udp_readers.iter().map(|r| r.latency.summary_us().p99_us);
        let stats = server.shutdown();
        let server_us = stats.latency.summary_us();
        summary.row(vec![
            format!("{readers}"),
            format!("{capacity:.3e}"),
            format!("{probe_ratio:.4}"),
            knee.map_or("beyond-sweep".into(), |k| format!("{k:.3e}")),
            format!("{:.1}", server_us.p50_us),
            format!("{:.1}", server_us.p99_us),
            format!("{}", stats.batches),
            format!("{}", stats.full_flushes),
            format!("{}", stats.deadline_flushes),
            format!("{}", stats.idle_flushes),
            format!("{}", stats.recv_calls),
            format!("{}", stats.empty_recv_calls),
            format!("{}", stats.send_calls),
            format!("{}", stats.requests),
            format!("{:.4}", stats.syscalls_per_packet()),
            format!("{}..{}", requests.clone().min().unwrap_or(0), requests.max().unwrap_or(0)),
            format!(
                "{:.1}..{:.1}",
                p99s.clone().fold(f64::INFINITY, f64::min).min(1e12),
                p99s.fold(0.0, f64::max)
            ),
        ]);
    }
    out.say("\nserver-side over each whole sweep:\n");
    out.table("sweeps", summary);

    // Tail check: the best p99 across every sweep against the closed-loop
    // baseline plus the deadline a loaded point may still wait out — a
    // systematic tail blowup (busted deadline loop, reader busy-spin
    // regression) inflates every point, while one noisy row (CI
    // neighbours) shouldn't fail the build. Idle check: one request in
    // flight must not be held for a deadline nobody is filling. The
    // recvmmsg/sendmmsg amortization (best saturated-probe ratio < 0.1
    // crossings per packet at the default batch 128) is a target, not a
    // check: see the module docs.
    let best_p99 = best_p99.max(1.0);
    let gate = 50.0 * (closed_us.p50_us + cfg.deadline.as_secs_f64() * 1e6);
    let tail =
        format!("best p99 {best_p99:.1}us vs 50x (closed-loop p50 + deadline) ({gate:.1}us)");
    let idle = format!("1-in-flight idle-flush share {idle_ratio:.3} vs 0.9");
    let amortized = format!("saturated syscalls-per-packet {best_probe_ratio:.4} vs 0.1");
    out.say("");
    for (ok, what) in [(best_p99 <= gate, tail), (idle_ratio >= 0.9, idle)] {
        if ok {
            out.say(format!("PASS: {what}"));
        }
        out.check(ok, || what);
    }
    out.say(format!("{}: {amortized}", if best_probe_ratio < 0.1 { "PASS" } else { "WARN" }));

    out.scalar("rules", n);
    out.scalar("build_s", Json::num(build_s, 3));
    out.scalar("transport", "udp");
    out.scalar("max_batch", cfg.max_batch);
    out.scalar("deadline_us", cfg.deadline.as_micros());
    out.scalar("closed_loop_p50_us", Json::num(closed_us.p50_us, 1));
    out.scalar("closed_loop_p99_us", Json::num(closed_us.p99_us, 1));
    out.scalar("closed_loop_idle_flush_ratio", Json::num(idle_ratio, 3));
    out.scalar("best_syscalls_per_packet", Json::num(best_probe_ratio, 4));
    out.scalar("gate_p99_us_max", Json::num(gate, 1));
    out
}
