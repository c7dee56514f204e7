//! Counters and the service-latency histogram for the serve front-end.

use nm_common::LatencyHistogram;

/// What kind of reader thread a stats slot belongs to — UDP readers own a
/// (usually private `SO_REUSEPORT`) datagram socket, TCP readers own one
/// connection. Per-reader reporting filters on this: a skewed UDP reader
/// is a flow-steering bug, a skewed TCP reader is just an idle connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReaderKind {
    /// A datagram reader (one per `ServeConfig::udp_readers`).
    Udp,
    /// A per-connection stream reader.
    Tcp,
}

/// Why an assembler flushed a batch into the data plane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushCause {
    /// The batch reached `max_batch`.
    Full,
    /// The oldest pending request hit the micro-batching deadline (or came
    /// within the arrival estimate of it, in the deadline's second half).
    Deadline,
    /// The socket ran dry with at least half the deadline left and no
    /// further request expected inside it: the sparse-traffic flush.
    Idle,
    /// Shutdown / connection close drained the remainder.
    Drain,
}

/// Aggregated serving statistics. Each reader thread owns one behind a
/// mutex it touches once per flush; [`crate::system::serve::Server::stats`]
/// folds the per-thread instances together with [`ServeStats::merge`].
#[derive(Clone, Debug, Default)]
pub struct ServeStats {
    /// Requests decoded off the wire.
    pub requests: u64,
    /// Responses written back (requests minus send failures).
    pub responses: u64,
    /// Batches flushed into the data plane.
    pub batches: u64,
    /// Flushes triggered by a full batch.
    pub full_flushes: u64,
    /// Flushes triggered by the deadline.
    pub deadline_flushes: u64,
    /// Flushes taken with half the deadline or more left: socket empty,
    /// nobody expected inside it (see [`FlushCause::Idle`]).
    pub idle_flushes: u64,
    /// Flushes triggered by drain (shutdown / connection close).
    pub drain_flushes: u64,
    /// Malformed frames (bad length, wrong key width) dropped without a
    /// response. A bad frame poisons the rest of its datagram/stream read.
    pub decode_errors: u64,
    /// Productive receive syscalls — `recvmmsg`/`read` calls that returned
    /// at least one datagram / some bytes. One call can carry a whole
    /// batch, which is exactly the amortization being measured.
    pub recv_calls: u64,
    /// Receive syscalls that returned nothing (busy-poll probes and idle
    /// ticks). Reported separately from [`ServeStats::recv_calls`]: their
    /// cost is bounded by the deadline, the 200 µs an awake reader polls
    /// after a dense arrival and the idle tick, not the packet rate, so
    /// they do not belong in the per-packet ratio.
    pub empty_recv_calls: u64,
    /// Receive syscalls that failed with anything but a timeout.
    pub recv_errors: u64,
    /// Receive syscalls made in blocking mode, whatever they returned: the
    /// times a reader went to sleep waiting for a request instead of
    /// polling (see `Assembler::should_block`). Dense traffic keeps this
    /// far below [`ServeStats::requests`].
    pub blocking_recv_calls: u64,
    /// Send syscalls — `sendmmsg` (or fallback `sendto`) calls that pushed
    /// response runs to the wire, `write` attempts on a stream, the ones a
    /// full send buffer turned away included.
    pub send_calls: u64,
    /// Response writes that failed (peer gone).
    pub send_errors: u64,
    /// Requests replayed against the oracle by the debug validator.
    pub validated: u64,
    /// Sampled requests whose pinned generation had no published oracle.
    pub oracle_skipped: u64,
    /// Oracle disagreements — must stay 0; anything else is a torn
    /// generation or a data-plane bug.
    pub mismatches: u64,
    /// Wire-to-verdict service latency: request decoded → response written,
    /// which includes the micro-batching wait by design.
    pub latency: LatencyHistogram,
}

impl ServeStats {
    /// An empty instance (allocates the histogram's fixed bucket array).
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one flush of `n` served requests.
    pub fn count_flush(&mut self, cause: FlushCause, n: usize) {
        self.batches += 1;
        self.responses += n as u64;
        match cause {
            FlushCause::Full => self.full_flushes += 1,
            FlushCause::Deadline => self.deadline_flushes += 1,
            FlushCause::Idle => self.idle_flushes += 1,
            FlushCause::Drain => self.drain_flushes += 1,
        }
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &ServeStats) {
        self.requests += other.requests;
        self.responses += other.responses;
        self.batches += other.batches;
        self.full_flushes += other.full_flushes;
        self.deadline_flushes += other.deadline_flushes;
        self.idle_flushes += other.idle_flushes;
        self.drain_flushes += other.drain_flushes;
        self.decode_errors += other.decode_errors;
        self.recv_calls += other.recv_calls;
        self.empty_recv_calls += other.empty_recv_calls;
        self.recv_errors += other.recv_errors;
        self.blocking_recv_calls += other.blocking_recv_calls;
        self.send_calls += other.send_calls;
        self.send_errors += other.send_errors;
        self.validated += other.validated;
        self.oracle_skipped += other.oracle_skipped;
        self.mismatches += other.mismatches;
        self.latency.merge(&other.latency);
    }

    /// Kernel crossings per served request: productive receive plus send
    /// syscalls over decoded requests. The paper-shaped target is well
    /// under 1.0 — batched I/O amortizes one `recvmmsg` and one `sendmmsg`
    /// over up to `max_batch` requests, versus ~2.0 for the per-datagram
    /// `recvfrom`/`sendto` path. Empty busy-poll probes are excluded (see
    /// [`ServeStats::empty_recv_calls`]).
    pub fn syscalls_per_packet(&self) -> f64 {
        (self.recv_calls + self.send_calls) as f64 / self.requests.max(1) as f64
    }
}
