//! Arrival-aware micro-batching: coalesce in-flight requests into
//! data-plane batches, flushing at `max_batch`, when the *oldest* pending
//! request hits the deadline, or — earlier — when the socket has run dry
//! and nobody is expected inside what is left ([`Assembler::due`]).
//! Between flushes the assembler also tells its reader whether to block on
//! the next receive or keep polling ([`Assembler::should_block`]).
//!
//! Each transport reader thread owns one assembler, so pushes are
//! lock-free; the only shared state is the stats slot (locked once per
//! flush) and the reply socket. A flush pins exactly one generation from
//! the [`ServePlane`], classifies the whole batch against it, and writes
//! `(rule, priority, generation)` responses back on the assembler's one
//! [`ReplySink`], coalescing consecutive frames to the same peer into runs
//! — one datagram each through one `sendmmsg(2)` on the UDP socket; a TCP
//! stream has one peer, so its flush is one contiguous buffer and one
//! counted `write` loop (see [`super::sysio`]).

use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use nm_common::classifier::MatchResult;
use nm_common::frame::{encode_response, RESPONSE_FRAME};

use super::plane::{PinnedPlane, ServePlane};
use super::stats::{FlushCause, ServeStats};
use super::sysio::{self, SendRing};
use super::validator::Validator;

/// Where an assembler's responses go, for its whole life: the serving
/// socket of the UDP reader that owns it (private under `SO_REUSEPORT`,
/// shared on the fallback path) or its TCP connection's stream. Each
/// connection is owned by exactly one reader thread, so writes never
/// interleave.
pub enum ReplySink {
    /// Reply on the reader's serving socket, to each request's peer.
    Udp(Arc<UdpSocket>),
    /// Reply on the connection's own stream.
    Tcp(Arc<TcpStream>),
}

/// A [`ReplySink`] with what sending on it takes: datagrams go through a
/// [`SendRing`], and a stream's write needs its fd's mode (`true` =
/// nonblocking: the connection's reader polls while a batch assembles).
enum Sink {
    Udp(Arc<UdpSocket>, SendRing),
    Tcp(Arc<TcpStream>, bool),
}

struct Pending {
    id: u64,
    arrived: Instant,
    /// Who asked: a datagram's source, the stream's one peer.
    peer: SocketAddr,
}

/// Inter-arrival samples are clamped to this many deadlines: any gap above
/// the deadline means the same to [`Assembler::due`], and an unclamped 1 s
/// silence would take ~65 arrivals to forget instead of a dozen.
const GAP_CLAMP_DEADLINES: u64 = 4;

/// How close together arrivals must come for the traffic to count as dense,
/// and how long a reader keeps polling after the last of them
/// ([`Assembler::should_block`]). At 20 kreq/s Poisson (mean gap 50 µs) a
/// 200 µs window catches 1 − e⁻⁴ ≈ 98 % of the gaps, so the typical request
/// finds its reader awake instead of paying a scheduler wake-up.
pub const SPIN: Duration = Duration::from_micros(200);

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// What the owning reader counts between flushes; the next flush folds it
/// into the stats slot, so the slot is locked once per flush.
#[derive(Default)]
pub(super) struct Carried {
    pub(super) decode_errors: u64,
    pub(super) recv_calls: u64,
    pub(super) empty_recv_calls: u64,
    pub(super) recv_errors: u64,
    pub(super) blocking_recv_calls: u64,
    requests: u64,
}

impl Carried {
    fn fold_into(&mut self, stats: &mut ServeStats) {
        let c = std::mem::take(self);
        stats.requests += c.requests;
        stats.decode_errors += c.decode_errors;
        stats.recv_calls += c.recv_calls;
        stats.empty_recv_calls += c.empty_recv_calls;
        stats.recv_errors += c.recv_errors;
        stats.blocking_recv_calls += c.blocking_recv_calls;
    }
}

/// The per-reader batch assembler.
pub struct Assembler<P: ServePlane> {
    plane: Arc<P>,
    sink: Sink,
    max_batch: usize,
    deadline: Duration,
    stride: usize,
    keys: Vec<u64>,
    pending: Vec<Pending>,
    out: Vec<Option<MatchResult>>,
    wire: Vec<u8>,
    /// Coalesced response runs of the current flush, one datagram each
    /// on UDP: `(byte_start, byte_end, peer)` — consecutive requests of one
    /// peer, whose frames occupy `wire[byte_start..byte_end]`.
    runs: Vec<(usize, usize, SocketAddr)>,
    validator: Validator,
    pub(super) stats_slot: Arc<Mutex<ServeStats>>,
    pub(super) carried: Carried,
    /// Stamp of the latest push, and the integer EWMA (α = 1/8) of the gaps
    /// between pushes in ns. Starts at the clamp: nothing seen, no wait.
    last_arrival: Option<Instant>,
    gap_ns: u64,
    /// The latest gap between pushes, unclamped (the clamp lies below
    /// [`SPIN`]), in ns; `u64::MAX` until a second push.
    last_gap_ns: u64,
}

impl<P: ServePlane> Assembler<P> {
    /// A fresh assembler flushing into `plane`, answering on `sink` and
    /// reporting into `stats_slot`.
    pub fn new(
        plane: Arc<P>,
        sink: ReplySink,
        max_batch: usize,
        deadline: Duration,
        stride: usize,
        validator: Validator,
        stats_slot: Arc<Mutex<ServeStats>>,
    ) -> Self {
        let max_batch = max_batch.max(1);
        let sink = match sink {
            ReplySink::Udp(sock) => Sink::Udp(sock, SendRing::new(max_batch)),
            // An accepted stream's fd starts out blocking.
            ReplySink::Tcp(stream) => Sink::Tcp(stream, false),
        };
        Self {
            plane,
            sink,
            max_batch,
            deadline,
            stride: stride.max(1),
            keys: Vec::with_capacity(max_batch * stride.max(1)),
            pending: Vec::with_capacity(max_batch),
            out: vec![None; max_batch],
            wire: Vec::with_capacity(4096),
            runs: Vec::with_capacity(max_batch),
            validator,
            stats_slot,
            carried: Carried::default(),
            last_arrival: None,
            gap_ns: nanos(deadline).saturating_mul(GAP_CLAMP_DEADLINES),
            last_gap_ns: u64::MAX,
        }
    }

    /// Queues one request from `peer`. `key` must be `stride` words (the
    /// transport validates widths). Returns `true` when the batch is now
    /// full and must be flushed before anything else is pushed.
    /// `arrived` feeds the inter-arrival estimate (one receive call, one
    /// stamp: a burst reads as gap 0) — arithmetic only, this is hot.
    pub fn push(&mut self, id: u64, key: &[u64], peer: SocketAddr, arrived: Instant) -> bool {
        debug_assert_eq!(key.len(), self.stride);
        self.keys.extend_from_slice(key);
        self.pending.push(Pending { id, arrived, peer });
        self.carried.requests += 1;
        let clamp = nanos(self.deadline).saturating_mul(GAP_CLAMP_DEADLINES);
        self.last_gap_ns = self
            .last_arrival
            .map_or(u64::MAX, |last| nanos(arrived.saturating_duration_since(last)));
        let gap = self.last_gap_ns.min(clamp);
        self.gap_ns = self.gap_ns - (self.gap_ns >> 3) + (gap >> 3);
        self.last_arrival = Some(arrived);
        self.pending.len() >= self.max_batch
    }

    /// Queued request count.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Puts a TCP sink's fd in polling (nonblocking) mode or back to
    /// blocking, when that is a change. A failed toggle keeps the old mode.
    /// No-op on UDP, whose receives pick their mode per call.
    pub(super) fn poll_tcp(&mut self, on: bool) {
        if let Sink::Tcp(stream, nonblocking) = &mut self.sink {
            if *nonblocking != on && stream.set_nonblocking(on).is_ok() {
                *nonblocking = on;
            }
        }
    }

    /// Time until the oldest pending request's deadline, `None` when empty.
    /// `Some(ZERO)` means the deadline already passed — flush now.
    fn time_left(&self, now: Instant) -> Option<Duration> {
        let oldest = self.pending.first()?.arrived;
        Some(self.deadline.saturating_sub(now.duration_since(oldest)))
    }

    /// The flush policy, asked by every reader at its loop head: the cause
    /// to flush with now, or `None` to keep receiving. The deadline is the
    /// cap; under it, a `socket_empty` reader (its last receive came back
    /// empty or short of its buffer) flushes once the gap estimate is at
    /// least the time left — [`FlushCause::Idle`] with half the deadline or
    /// more left, a trimmed `Deadline` after. (A client that waits for each
    /// reply reads as gap = hold + round trip: far under the deadline, its
    /// hold settles at half the deadline.)
    pub fn due(&self, now: Instant, socket_empty: bool) -> Option<FlushCause> {
        let left = self.time_left(now)?;
        if left.is_zero() {
            Some(FlushCause::Deadline)
        } else if socket_empty && self.gap_ns >= nanos(left) {
            Some(if left * 2 >= self.deadline { FlushCause::Idle } else { FlushCause::Deadline })
        } else {
            None
        }
    }

    /// The blocking policy, asked by every reader before each receive:
    /// `true` to block for the next request, `false` to keep polling. A
    /// reader polls while requests are pending (the deadline bounds that),
    /// and while the traffic is dense — the latest arrival came less than
    /// [`SPIN`] after the one before it, and less than `SPIN` ago. Sparse
    /// traffic (a request after a gap of `SPIN` or more) never polls: the
    /// reader answers it and blocks.
    pub fn should_block(&self, now: Instant) -> bool {
        let dense = self.last_arrival.is_some_and(|last| {
            self.last_gap_ns < nanos(SPIN) && now.saturating_duration_since(last) < SPIN
        });
        self.is_empty() && !dense
    }

    /// Classifies and answers everything queued (no-op when empty): pin
    /// one generation, classify the whole batch against it, write the
    /// responses back, account latency per request.
    pub fn flush(&mut self, cause: FlushCause) {
        let n = self.pending.len();
        if n == 0 {
            // Still fold carried counters (decoded-but-not-flushed
            // requests never exist; decode errors and syscalls can).
            let mut stats = self.stats_slot.lock().unwrap_or_else(PoisonError::into_inner);
            self.carried.fold_into(&mut stats);
            return;
        }
        let pin = self.plane.pin();
        let generation = pin.generation();
        let out = &mut self.out[..n];
        out.fill(None);
        pin.classify_batch(&self.keys, self.stride, out);

        // Encode the whole flush into one wire buffer, coalescing
        // consecutive frames of one peer into runs (one datagram per run;
        // a stream's one peer makes the whole buffer one run).
        self.wire.clear();
        self.runs.clear();
        let mut start = 0usize;
        while start < n {
            let peer = self.pending[start].peer;
            let mut end = start + 1;
            while end < n && self.pending[end].peer == peer {
                end += 1;
            }
            let byte_start = self.wire.len();
            for i in start..end {
                encode_response(&mut self.wire, self.pending[i].id, self.out[i], generation);
            }
            self.runs.push((byte_start, self.wire.len(), peer));
            start = end;
        }
        let (send_calls, send_errors) = self.dispatch_runs();

        // Latency accounting + the debug oracle sample, under one stats
        // lock acquisition per flush.
        let done = Instant::now();
        {
            let mut stats = self.stats_slot.lock().unwrap_or_else(PoisonError::into_inner);
            self.carried.fold_into(&mut stats);
            stats.send_calls += send_calls;
            stats.send_errors += send_errors;
            stats.count_flush(cause, n.saturating_sub(send_errors as usize));
            for (i, p) in self.pending.iter().enumerate() {
                stats.latency.record_duration(done.duration_since(p.arrived));
                if self.validator.sample() {
                    let key = &self.keys[i * self.stride..(i + 1) * self.stride];
                    // The verdict was computed at the batch's pinned
                    // generation — exactly what the response advertised.
                    self.validator.check(key, self.out[i], generation, &mut stats);
                }
            }
        }
        self.keys.clear();
        self.pending.clear();
    }

    /// Pushes the encoded flush to the sink: one datagram per run through
    /// `sendmmsg(2)`, or the whole buffer down the stream. Returns
    /// `(send_calls, send_errors)` — syscalls used and requests whose
    /// response could not be delivered.
    fn dispatch_runs(&mut self) -> (u64, u64) {
        match &mut self.sink {
            Sink::Udp(sock, ring) => {
                // A refused run costs the requests whose frames it carried.
                let runs = &self.runs;
                let mut failed = 0usize;
                let calls = sysio::send_udp_runs(sock, &self.wire, runs, ring, &mut |i| {
                    failed += runs.get(i).map_or(0, |r| (r.1 - r.0) / RESPONSE_FRAME)
                });
                (calls, failed as u64)
            }
            // One peer, one run: a dead stream costs the whole flush.
            Sink::Tcp(stream, nonblocking) => {
                match sysio::write_counted(stream, &self.wire, *nonblocking) {
                    Ok(calls) => (calls, 0),
                    Err(_) => (0, self.pending.len() as u64),
                }
            }
        }
    }
}

#[cfg(test)]
pub(super) mod tests {
    //! The flush policy on a virtual clock: every stamp is injected, so no
    //! test sleeps or asserts on wall time.

    use super::*;
    use crate::system::serve::validator::OracleTable;
    use nm_common::update::Generation;
    use proptest::prelude::*;

    const DEADLINE: Duration = Duration::from_micros(20);
    /// How often the simulated reader polls while assembling.
    const POLL: Duration = Duration::from_nanos(500);

    pub struct StubPlane;
    pub struct StubPin;

    impl ServePlane for StubPlane {
        type Pin = StubPin;
        fn pin(&self) -> StubPin {
            StubPin
        }
    }

    impl PinnedPlane for StubPin {
        fn generation(&self) -> Generation {
            1
        }
        fn classify_batch(&self, _keys: &[u64], _stride: usize, out: &mut [Option<MatchResult>]) {
            out.fill(None);
        }
    }

    struct Flushed {
        cause: FlushCause,
        size: usize,
        /// From the oldest request's stamp to the flush.
        hold: Duration,
        /// The estimate and the time left when the flush was decided.
        gap_ns: u64,
        left: Duration,
    }

    /// One reader loop around an assembler, as `udp_reader` runs it, with
    /// the clock and the socket replaced by a list of arrival offsets.
    struct Reader {
        asm: Assembler<StubPlane>,
        peer: SocketAddr,
        t0: Instant,
        stats: Arc<Mutex<ServeStats>>,
        /// Offset of the virtual clock from `t0`.
        now: Duration,
        /// When the oldest pending request was received.
        oldest: Option<Duration>,
        flushed: Vec<Flushed>,
        /// Every instant the loop chose a blocking receive, and how many
        /// nonblocking receives it made with nothing pending.
        blocked: Vec<Duration>,
        idle_polls: usize,
    }

    impl Reader {
        fn new(max_batch: usize) -> Self {
            // Replies go to the socket's own address and are never read.
            let sock = UdpSocket::bind(("127.0.0.1", 0)).expect("loopback socket");
            let peer = sock.local_addr().expect("bound address");
            let stats = Arc::new(Mutex::new(ServeStats::new()));
            let validator = Validator::new(Arc::new(OracleTable::new()), 0);
            Self {
                asm: Assembler::new(
                    Arc::new(StubPlane),
                    ReplySink::Udp(Arc::new(sock)),
                    max_batch,
                    DEADLINE,
                    1,
                    validator,
                    stats.clone(),
                ),
                peer,
                t0: Instant::now(),
                stats,
                now: Duration::ZERO,
                oldest: None,
                flushed: Vec::new(),
                blocked: Vec::new(),
                idle_polls: 0,
            }
        }

        fn flush(&mut self, cause: FlushCause) {
            let now = self.t0 + self.now;
            self.flushed.push(Flushed {
                cause,
                size: self.asm.len(),
                hold: self.now - self.oldest.take().expect("a flush has an oldest request"),
                gap_ns: self.asm.gap_ns,
                left: self.asm.time_left(now).expect("a flush has pending requests"),
            });
            self.asm.flush(cause);
        }

        /// One receive call at the current instant: `count` requests under
        /// one stamp, flushing at `max_batch` as `feed` does.
        fn receive(&mut self, count: usize) {
            for _ in 0..count {
                self.oldest.get_or_insert(self.now);
                if self.asm.push(0, &[0], self.peer, self.t0 + self.now) {
                    self.flush(FlushCause::Full);
                }
            }
        }

        /// The reader's loop head: flush if the policy says so. The ring is
        /// never filled in these tests, so every receive leaves the socket
        /// known empty.
        fn decide(&mut self) -> Option<FlushCause> {
            let cause = self.asm.due(self.t0 + self.now, true);
            if let Some(cause) = cause {
                self.flush(cause);
            }
            cause
        }

        /// Runs the loop over requests arriving at `arrivals` (sorted
        /// offsets) until all are answered and the reader blocks: block for
        /// the next arrival when [`Assembler::should_block`] says so, poll
        /// every [`POLL`] otherwise.
        fn play(&mut self, arrivals: &[Duration]) {
            let mut next = 0;
            loop {
                self.decide();
                if !self.asm.should_block(self.t0 + self.now) {
                    self.idle_polls += usize::from(self.asm.is_empty());
                    self.now += POLL;
                } else {
                    assert!(self.asm.is_empty(), "blocked with requests pending");
                    self.blocked.push(self.now);
                    let Some(&at) = arrivals.get(next) else { return };
                    self.now = self.now.max(at);
                }
                let queued = arrivals[next..].iter().take_while(|&&at| at <= self.now).count();
                self.receive(queued);
                next += queued;
            }
        }

        /// A client that sends its next request `rtt` after each reply.
        fn play_reply_gated(&mut self, requests: usize, rtt: Duration) {
            for _ in 0..requests {
                self.now += rtt;
                self.receive(1);
                while self.decide().is_none() {
                    self.now += POLL;
                }
            }
        }
    }

    fn every(gap: Duration, n: u32) -> Vec<Duration> {
        (0..n).map(|i| gap * i).collect()
    }

    #[test]
    fn sparse_arrivals_flush_idle_at_the_first_known_empty_decision() {
        for gap in [DEADLINE * 2, DEADLINE * 5, Duration::from_millis(3)] {
            let mut r = Reader::new(128);
            r.play(&every(gap, 100));
            assert_eq!(r.flushed.len(), 100);
            for f in &r.flushed {
                assert_eq!((f.cause, f.size, f.hold), (FlushCause::Idle, 1, Duration::ZERO));
            }
            let stats = r.stats.lock().unwrap();
            assert_eq!((stats.idle_flushes, stats.batches, stats.responses), (100, 100, 100));
        }
    }

    #[test]
    fn dense_arrivals_keep_assembling_until_deadline_or_full() {
        let gap = DEADLINE / 20;
        let arrivals = every(gap, 2000);
        // The estimate starts at the clamp; skip until it has settled, and
        // leave out the last batch, which the end of the stream cut short.
        fn warm(r: &Reader) -> impl Iterator<Item = &Flushed> {
            let whole = &r.flushed[..r.flushed.len() - 1];
            whole.iter().skip_while(|f| f.gap_ns > 2 * nanos(DEADLINE / 20))
        }

        let mut r = Reader::new(128);
        r.play(&arrivals);
        assert!(warm(&r).count() > 50);
        for f in warm(&r) {
            assert_eq!(f.cause, FlushCause::Deadline, "dense stream flushed idle");
            assert!(f.hold >= DEADLINE * 9 / 10, "held only {:?}", f.hold);
            assert!(f.size >= 16, "batch of {}", f.size);
        }
        // Whatever the cause, an early flush never leaves more than the
        // estimate on the table.
        for f in &r.flushed {
            assert!(f.gap_ns >= nanos(f.left), "flushed with {:?} left", f.left);
        }

        let mut r = Reader::new(8);
        r.play(&arrivals);
        assert!(warm(&r).count() > 50);
        assert!(warm(&r).all(|f| f.cause == FlushCause::Full && f.size == 8));
    }

    #[test]
    fn one_long_silence_is_forgotten_within_sixteen_arrivals() {
        let mut r = Reader::new(128);
        let mut arrivals = vec![Duration::ZERO];
        arrivals.extend(every(DEADLINE / 20, 400).iter().map(|&at| Duration::from_secs(1) + at));
        r.play(&arrivals);
        // The request before and the request after the silence are sparse…
        assert_eq!(r.flushed[0].cause, FlushCause::Idle);
        assert_eq!(r.flushed[1].cause, FlushCause::Idle);
        // …and the burst is assembling before its sixteenth request.
        let until_assembling: usize =
            r.flushed.iter().take_while(|f| f.cause == FlushCause::Idle).map(|f| f.size).sum();
        assert!(until_assembling <= 16, "{until_assembling} requests answered one by one");
        assert!(r.flushed.iter().any(|f| f.cause == FlushCause::Deadline && f.size >= 16));
    }

    #[test]
    fn a_burst_under_one_stamp_reads_as_dense() {
        let mut r = Reader::new(128);
        r.receive(1);
        assert_eq!(r.decide(), Some(FlushCause::Idle), "a first lone request is not held");
        r.now += Duration::from_secs(1);
        r.receive(32);
        assert_eq!(r.decide(), None, "32 requests in one receive were answered as if sparse");
        r.now += DEADLINE;
        assert_eq!(r.decide(), Some(FlushCause::Deadline));
        assert_eq!(r.flushed.last().map(|f| f.size), Some(32));
    }

    /// What the policy cannot see: a client that waits for each reply looks
    /// like a stream whose gap is hold + round trip. With the round trip
    /// above the deadline (the default 20µs on loopback) that is sparse and
    /// costs nothing; with it far below, the hold settles at half the
    /// deadline — half of what the fixed wait charged, not zero.
    #[test]
    fn reply_gated_client_settles_at_half_the_deadline() {
        let mut r = Reader::new(128);
        r.play_reply_gated(200, DEADLINE * 2);
        assert!(r.flushed.iter().all(|f| f.cause == FlushCause::Idle && f.hold.is_zero()));

        let rtt = DEADLINE / 100;
        let mut r = Reader::new(128);
        r.play_reply_gated(300, rtt);
        for f in &r.flushed[200..] {
            assert!(f.hold <= DEADLINE / 2 + POLL * 2, "held {:?}", f.hold);
            assert!(f.hold >= DEADLINE / 2 - POLL * 2, "held {:?}", f.hold);
        }
    }

    /// Gaps under [`SPIN`] keep the reader awake: after each flush it polls
    /// instead of blocking, until `SPIN` has passed since the last arrival.
    /// Gaps above the estimate's clamp (four deadlines) count as well.
    #[test]
    fn dense_gaps_keep_the_reader_polling_until_spin_after_the_last_arrival() {
        for gap in [DEADLINE * 2, SPIN / 2, SPIN - POLL * 2] {
            let mut r = Reader::new(128);
            let arrivals = every(gap, 50);
            let last = *arrivals.last().unwrap();
            r.play(&arrivals);
            assert_eq!(r.flushed.iter().map(|f| f.size).sum::<usize>(), 50);
            // Asleep before the first request and after it (one arrival is
            // no gap), then awake from the second one on until `SPIN` after
            // the last.
            assert_eq!(r.blocked.len(), 3, "gap {gap:?}: blocked at {:?}", r.blocked);
            assert_eq!(r.blocked[..2], [Duration::ZERO, Duration::ZERO]);
            let woke = r.blocked[2] - last;
            assert!(woke >= SPIN && woke <= SPIN + POLL, "gap {gap:?}: blocked {woke:?} after");
            assert!(r.idle_polls > 0);
        }
    }

    /// A gap of [`SPIN`] or more is sparse: each request is answered at
    /// once and the reader blocks at that same instant, never polling.
    #[test]
    fn a_gap_of_spin_or_more_blocks_right_after_the_flush() {
        for gap in [SPIN, SPIN * 3, Duration::from_millis(10)] {
            let mut r = Reader::new(128);
            let arrivals = every(gap, 40);
            r.play(&arrivals);
            assert_eq!(r.idle_polls, 0, "gap {gap:?}: polled with nothing pending");
            assert_eq!(r.flushed.len(), 40);
            assert!(r.flushed.iter().all(|f| f.cause == FlushCause::Idle && f.hold.is_zero()));
            // Once before the first request, then once after each.
            assert_eq!(r.blocked[0], Duration::ZERO);
            assert_eq!(r.blocked[1..], arrivals[..]);
        }
    }

    /// Requests that came in one receive share a stamp: gap 0, dense.
    #[test]
    fn a_burst_in_one_receive_keeps_the_reader_awake() {
        let mut r = Reader::new(128);
        r.now = Duration::from_secs(1);
        r.receive(1);
        r.decide();
        assert!(r.asm.should_block(r.t0 + r.now), "a lone request woke the reader");
        r.now += Duration::from_secs(1);
        r.receive(32);
        r.now += DEADLINE;
        assert_eq!(r.decide(), Some(FlushCause::Deadline));
        assert!(!r.asm.should_block(r.t0 + r.now), "a 32-request burst left the reader asleep");
        r.now += SPIN - DEADLINE - POLL;
        assert!(!r.asm.should_block(r.t0 + r.now));
        r.now += POLL;
        assert!(r.asm.should_block(r.t0 + r.now), "still awake `SPIN` after the burst");
    }

    /// Pending requests always mean polling, however sparse the traffic.
    #[test]
    fn the_reader_never_blocks_with_requests_pending() {
        let mut r = Reader::new(128);
        r.receive(1);
        for _ in 0..4 {
            assert!(!r.asm.should_block(r.t0 + r.now));
            r.now += Duration::from_secs(1);
        }
        r.flush(FlushCause::Drain);
        assert!(r.asm.should_block(r.t0 + r.now));
    }

    /// Three peers through one UDP sink: consecutive requests of a peer go
    /// out as one datagram, a peer that comes back later gets another, and
    /// a run the kernel rejects costs exactly its own requests.
    #[test]
    fn udp_sink_coalesces_runs_by_peer_and_counts_send_errors_per_request() {
        use nm_common::frame::decode_response;
        let bind = || UdpSocket::bind(("127.0.0.1", 0)).expect("loopback socket");
        let (a, b) = (bind(), bind());
        for sock in [&a, &b] {
            sock.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
        }
        let (to_a, to_b) = (a.local_addr().unwrap(), b.local_addr().unwrap());
        // Port 0 is no destination: the kernel refuses the datagram.
        let nowhere = SocketAddr::from(([127, 0, 0, 1], 0));
        let stats = Arc::new(Mutex::new(ServeStats::new()));
        let mut asm = Assembler::new(
            Arc::new(StubPlane),
            ReplySink::Udp(Arc::new(bind())),
            128,
            DEADLINE,
            1,
            Validator::new(Arc::new(OracleTable::new()), 0),
            stats.clone(),
        );
        let now = Instant::now();
        let peers = [to_a, to_a, to_b, nowhere, nowhere, nowhere, to_a, to_b, to_b];
        for (id, peer) in peers.into_iter().enumerate() {
            assert!(!asm.push(id as u64, &[0], peer, now));
        }
        asm.flush(FlushCause::Drain);

        // Loopback keeps one sender's datagrams to one receiver in order.
        let mut buf = [0u8; 16 * RESPONSE_FRAME];
        let mut ids_of_next_datagram = |sock: &UdpSocket| -> Vec<u64> {
            let n = sock.recv(&mut buf).expect("a datagram per run");
            assert_eq!(n % RESPONSE_FRAME, 0, "whole frames only");
            buf[..n]
                .chunks(RESPONSE_FRAME)
                .map(|frame| decode_response(frame).unwrap().expect("a whole frame").0.id)
                .collect()
        };
        assert_eq!(ids_of_next_datagram(&a), [0, 1]);
        assert_eq!(ids_of_next_datagram(&a), [6]);
        assert_eq!(ids_of_next_datagram(&b), [2]);
        assert_eq!(ids_of_next_datagram(&b), [7, 8]);
        let stats = stats.lock().unwrap();
        assert_eq!((stats.requests, stats.send_errors, stats.responses), (9, 3, 6));
    }

    /// The TCP counterpart: a stream whose peer went away costs the flush
    /// that finds out every request it carried, and nothing before it.
    #[test]
    fn tcp_sink_counts_a_dead_peer_per_request() {
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("loopback listener");
        let stream = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (peer, peer_addr) = listener.accept().expect("accept");
        let stats = Arc::new(Mutex::new(ServeStats::new()));
        let mut asm = Assembler::new(
            Arc::new(StubPlane),
            ReplySink::Tcp(Arc::new(stream)),
            128,
            DEADLINE,
            1,
            Validator::new(Arc::new(OracleTable::new()), 0),
            stats.clone(),
        );
        let mut flush_of = |n: u64| {
            for id in 0..n {
                assert!(!asm.push(id, &[0], peer_addr, Instant::now()));
            }
            asm.flush(FlushCause::Drain);
        };
        flush_of(3);
        // The peer closes with those three responses unread, which resets
        // the connection; a write after the reset has landed fails.
        let mut first = [0u8; 3 * RESPONSE_FRAME];
        assert_eq!(peer.peek(&mut first).expect("the first flush arrives"), first.len());
        drop(peer);
        let mut flushes = 1u64;
        while stats.lock().unwrap().send_errors == 0 {
            assert!(flushes < 1_000, "writes to a reset connection kept succeeding");
            flush_of(4);
            flushes += 1;
        }
        let stats = stats.lock().unwrap();
        assert_eq!(stats.send_errors, 4, "the failed flush costs exactly its own requests");
        assert_eq!(stats.requests, 3 + 4 * (flushes - 1));
        assert_eq!(stats.responses, stats.requests - 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Whatever the arrival pattern, every request is answered, and
        /// none later than the deadline after it was received (plus the one
        /// poll interval the simulated reader needs to notice).
        #[test]
        fn no_request_waits_past_the_deadline(
            gaps in proptest::collection::vec(0u64..60_000, 1..300),
            max_batch in 1usize..40,
        ) {
            let mut at = Duration::ZERO;
            let arrivals: Vec<Duration> = gaps
                .iter()
                .map(|&g| {
                    // A third of the gaps are zero: bursts.
                    at += Duration::from_nanos(if g % 3 == 0 { 0 } else { g });
                    at
                })
                .collect();
            let mut r = Reader::new(max_batch);
            r.play(&arrivals);
            prop_assert_eq!(r.flushed.iter().map(|f| f.size).sum::<usize>(), arrivals.len());
            for f in &r.flushed {
                prop_assert!(f.hold <= DEADLINE + POLL, "held {:?}", f.hold);
                prop_assert!(f.size <= max_batch);
                match f.cause {
                    FlushCause::Full => prop_assert_eq!(f.size, max_batch),
                    FlushCause::Deadline => prop_assert!(f.left < DEADLINE / 2),
                    FlushCause::Idle => prop_assert!(
                        f.left >= DEADLINE / 2 && f.gap_ns >= nanos(f.left)
                    ),
                    FlushCause::Drain => prop_assert!(false, "nothing drains here"),
                }
            }
            let stats = r.stats.lock().unwrap();
            prop_assert_eq!(stats.requests, arrivals.len() as u64);
            prop_assert_eq!(
                stats.full_flushes + stats.deadline_flushes + stats.idle_flushes,
                stats.batches
            );
        }
    }
}
