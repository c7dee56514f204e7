//! Socket transports: UDP datagram readers and the TCP acceptor /
//! per-connection readers. Loopback-testable with nothing beyond
//! `std::net` (plus the raw batched syscalls in [`super::sysio`]).
//!
//! Every reader thread owns one [`Assembler`] and asks it at each loop head
//! whether to flush ([`Assembler::due`]) and then whether to block on the
//! next receive ([`Assembler::should_block`]). A reader is in one of three
//! states:
//!
//! - **assembling** (a partial batch waiting): it busy-polls nonblocking
//!   until the batch is full, the deadline passes, or the socket is known
//!   empty — a receive came back empty or short of its buffer — with nobody
//!   expected inside what is left. The poll is mandatory — `SO_RCVTIMEO`
//!   rounds up to kernel scheduler ticks (milliseconds), which would stretch
//!   a 20µs deadline by 100x — and the deadline caps it.
//! - **awake** (nothing pending, traffic dense: the last request came less
//!   than [`SPIN`](super::assembler::SPIN) after the one before, and less
//!   than `SPIN` ago): it keeps polling the same way, so the next request
//!   finds it running instead of paying a scheduler and VM wake-up. `SPIN`
//!   caps it.
//! - **asleep** (nothing pending, traffic sparse or silent): it blocks for
//!   the first datagram with a short timeout so shutdown is always noticed.
//!   Sparse traffic never polls: a request that follows a gap of `SPIN` or
//!   more is answered, and the reader blocks again.
//!
//! UDP readers each own a *private* `SO_REUSEPORT` fd (the kernel hashes
//! flows across them) and drain up to a whole batch per `recvmmsg(2)`
//! through a reader-owned [`RecvRing`] — both loop modes are expressed as
//! per-call `MSG_WAITFORONE`/`MSG_DONTWAIT` flags, so the fd's blocking
//! mode is never toggled and readers never coordinate. This keeps the hot
//! path one thread per socket with zero cross-thread queues — the batch
//! *is* the queue.

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, PoisonError};
use std::time::{Duration, Instant};

use nm_common::frame::decode_request;

use super::assembler::{Assembler, ReplySink};
use super::plane::ServePlane;
use super::stats::FlushCause;
use super::sysio::RecvRing;
use super::Shared;

/// How often an idle reader re-checks shutdown.
const IDLE_TICK: Duration = Duration::from_millis(2);
/// How long a TCP flush waits on a peer that drains nothing before the
/// connection is given up on.
const WRITE_STALL: Duration = Duration::from_secs(2);

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// Decodes every frame in `bytes`, received from `peer`, into the
/// assembler. Returns consumed byte count; a malformed frame poisons the
/// rest of the buffer (UDP) — the caller decides what a partial tail means.
fn feed<P: ServePlane>(
    asm: &mut Assembler<P>,
    shared: &Shared<P>,
    bytes: &[u8],
    peer: SocketAddr,
    arrived: Instant,
    scratch: &mut Vec<u64>,
) -> Result<usize, ()> {
    let mut off = 0;
    while off < bytes.len() {
        scratch.clear();
        match decode_request(&bytes[off..], scratch) {
            Ok(Some((head, used))) => {
                off += used;
                if head.fields != shared.cfg.stride {
                    asm.carried.decode_errors += 1;
                    continue;
                }
                if asm.push(head.id, scratch, peer, arrived) {
                    asm.flush(FlushCause::Full);
                }
            }
            Ok(None) => break,
            Err(_) => {
                asm.carried.decode_errors += 1;
                return Err(());
            }
        }
    }
    Ok(off)
}

/// One UDP reader over its own fd (private under `SO_REUSEPORT`; the
/// shared-socket fallback also lands here — per-call `MSG_DONTWAIT`
/// flags mean there is no fd mode state to race on, the kernel just
/// load-balances wakeups).
///
/// The ring drains up to `max_batch` datagrams per `recvmmsg(2)`; the
/// decode loop between the `nm-lint: hotpath` markers reuses the ring,
/// the assembler and the scratch buffer — no allocation per drain.
pub(super) fn udp_reader<P: ServePlane>(shared: Arc<Shared<P>>, sock: Arc<UdpSocket>) {
    shared.pin_next_cpu();
    let mut asm = shared.new_assembler(ReplySink::Udp(sock.clone()));
    let mut ring = RecvRing::new(shared.cfg.max_batch.clamp(1, 128));
    let mut scratch = Vec::new();
    // A socket that cannot take a read timeout cannot be served without
    // wedging shutdown on a blocking recv — exit the reader instead of
    // panicking the thread.
    if sock.set_read_timeout(Some(IDLE_TICK)).is_err() {
        return;
    }
    // What the last receive said: socket known empty / failed outright.
    let (mut socket_empty, mut failing) = (false, false);
    loop {
        if shared.shutdown.load(Relaxed) {
            asm.flush(FlushCause::Drain);
            return;
        }
        let now = Instant::now();
        if let Some(cause) = asm.due(now, socket_empty) {
            asm.flush(cause);
        }
        // Asleep: block for the first datagram (SO_RCVTIMEO keeps the
        // shutdown checks live), then grab whatever else is queued.
        // Assembling or awake: nonblocking drains only; the deadline and
        // `SPIN` bound the busy-poll.
        let block = asm.should_block(now);
        asm.carried.blocking_recv_calls += u64::from(block);
        match ring.recv(&sock, block) {
            Ok(count) => {
                let arrived = Instant::now();
                // A drain that left slots unused took everything queued.
                socket_empty = count < ring.slots();
                failing = false;
                asm.carried.recv_calls += 1;
                // nm-lint: hotpath
                for d in 0..count {
                    let (bytes, peer) = ring.datagram(d);
                    let Some(peer) = peer else {
                        asm.carried.decode_errors += 1;
                        continue;
                    };
                    match feed(&mut asm, &shared, bytes, peer, arrived, &mut scratch) {
                        // A truncated tail cannot complete in a later
                        // datagram — datagrams are self-contained.
                        Ok(used) if used < bytes.len() => asm.carried.decode_errors += 1,
                        _ => {}
                    }
                }
                // nm-lint: end-hotpath
            }
            Err(ref e) if is_timeout(e) => {
                socket_empty = true;
                failing = false;
                asm.carried.empty_recv_calls += 1;
                if !block {
                    // Yield rather than spin: on a loaded (or single-CPU)
                    // box the sender needs this core to produce the very
                    // packets we are polling for.
                    std::thread::yield_now();
                }
            }
            Err(_) => {
                // `EINTR`, `ENOBUFS`, a dead fd: a second in a row idles.
                asm.carried.recv_errors += 1;
                if std::mem::replace(&mut failing, true) {
                    std::thread::sleep(IDLE_TICK);
                }
            }
        }
    }
}

/// The TCP acceptor: nonblocking accept loop spawning one reader thread
/// per connection (thread-per-core pinning round-robins those readers).
pub(super) fn tcp_acceptor<P: ServePlane>(shared: Arc<Shared<P>>, listener: TcpListener) {
    // A blocking listener would wedge shutdown inside `accept` — give up
    // on TCP rather than panic the acceptor thread.
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    while !shared.shutdown.load(Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nodelay(true).ok();
                let shared2 = shared.clone();
                let join = std::thread::spawn(move || tcp_conn(shared2, Arc::new(stream)));
                // Keep only the readers `Server::stop` still has to wait
                // for: one handle per connection ever accepted is a leak.
                let mut conns = shared.conn_joins.lock().unwrap_or_else(PoisonError::into_inner);
                conns.retain(|j| !j.is_finished());
                conns.push(join);
            }
            Err(ref e) if is_timeout(e) => std::thread::sleep(IDLE_TICK),
            Err(_) => std::thread::sleep(IDLE_TICK),
        }
    }
}

/// One TCP connection's reader: accumulates the byte stream, feeds
/// complete frames to its assembler, drains on EOF / error / shutdown.
fn tcp_conn<P: ServePlane>(shared: Arc<Shared<P>>, stream: Arc<TcpStream>) {
    shared.pin_next_cpu();
    // As in `udp_reader`: without a read timeout the shutdown flag is never
    // rechecked, and without a write timeout a stalled peer holds a flush
    // forever — drop the connection instead of panicking. A stream with no
    // peer address is already dead.
    let (Ok(peer), Ok(()), Ok(())) = (
        stream.peer_addr(),
        stream.set_read_timeout(Some(IDLE_TICK)),
        stream.set_write_timeout(Some(WRITE_STALL)),
    ) else {
        return;
    };
    let mut asm = shared.new_assembler(ReplySink::Tcp(stream.clone()));
    let mut carry: Vec<u8> = Vec::new();
    let mut buf = [0u8; 16 * 1024];
    let mut scratch = Vec::new();
    let mut socket_empty = false;
    loop {
        if shared.shutdown.load(Relaxed) {
            break;
        }
        let now = Instant::now();
        if let Some(cause) = asm.due(now, socket_empty) {
            asm.flush(cause);
        }
        // Poll while assembling or awake, block (on the read timeout) when
        // asleep. A failed mode toggle degrades to timeout-blocking reads.
        let block = asm.should_block(now);
        asm.poll_tcp(!block);
        asm.carried.blocking_recv_calls += u64::from(block);
        match (&*stream).read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                let arrived = Instant::now();
                // A short read took everything the stream had buffered.
                socket_empty = n < buf.len();
                asm.carried.recv_calls += 1;
                carry.extend_from_slice(&buf[..n]);
                match feed(&mut asm, &shared, &carry, peer, arrived, &mut scratch) {
                    Ok(used) => {
                        carry.drain(..used);
                    }
                    // A poisoned stream has no recoverable framing; close.
                    Err(()) => break,
                }
            }
            Err(ref e) if is_timeout(e) => {
                socket_empty = true;
                asm.carried.empty_recv_calls += 1;
                if !block {
                    // See the UDP reader: yield so the peer can run.
                    std::thread::yield_now();
                }
            }
            Err(_) => break,
        }
    }
    asm.flush(FlushCause::Drain);
    // One slot per connection ever accepted would grow without bound.
    shared.retire(&asm.stats_slot);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::serve::assembler::tests::StubPlane;
    use crate::system::serve::{OracleTable, ServeConfig};
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::sync::Mutex;

    fn stub_shared() -> Arc<Shared<StubPlane>> {
        Arc::new(Shared {
            plane: Arc::new(StubPlane),
            oracle: Arc::new(OracleTable::new()),
            cfg: ServeConfig { stride: 1, ..ServeConfig::default() },
            shutdown: AtomicBool::new(false),
            slots: Mutex::default(),
            conn_joins: Mutex::new(Vec::new()),
            cpus: Vec::new(),
            next_cpu: AtomicUsize::new(0),
        })
    }

    /// A receive that fails with something other than a timeout is counted,
    /// neither ends nor wedges the reader, and shutdown still joins it.
    #[test]
    fn receive_errors_are_counted_and_the_reader_survives() {
        // A connected UDP socket whose peer port is closed: every datagram
        // sent comes back as an ICMP error, which the reader's next receive
        // reports as `ECONNREFUSED`.
        let closed = UdpSocket::bind(("127.0.0.1", 0)).and_then(|s| s.local_addr()).unwrap();
        let sock = Arc::new(UdpSocket::bind(("127.0.0.1", 0)).unwrap());
        sock.connect(closed).unwrap();
        let shared = stub_shared();
        let reader = {
            let (shared, sock) = (shared.clone(), sock.clone());
            std::thread::spawn(move || udp_reader(shared, sock))
        };
        for _ in 0..50 {
            // The send may itself report the previous datagram's error.
            let _ = sock.send(&[0]);
            std::thread::sleep(Duration::from_millis(1));
        }
        shared.shutdown.store(true, Relaxed);
        reader.join().expect("reader panicked");
        let slots = shared.slots.lock().unwrap();
        let stats = slots.live[0].1.lock().unwrap();
        assert!(stats.recv_errors > 0, "no receive error counted: {stats:?}");
        assert_eq!(stats.requests, 0);
    }

    /// The acceptor keeps join handles, and the server stats slots, for the
    /// connections still open, not for every connection it ever accepted;
    /// the closed ones' counts live on in the retired total.
    #[test]
    fn closed_connections_are_reaped_on_the_next_accept() {
        use crate::system::serve::ServeClient;
        const CLOSED: usize = 24;
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let shared = stub_shared();
        let acceptor = {
            let shared = shared.clone();
            std::thread::spawn(move || tcp_acceptor(shared, listener))
        };
        // An answered call shows the connection was accepted and is served.
        let served = |id: u64| {
            let mut client = ServeClient::tcp(addr).expect("connect");
            client.call(id, &[0], Duration::from_secs(5)).expect("served");
            client
        };
        for id in 0..CLOSED as u64 {
            drop(served(id));
        }
        // A closed connection's reader takes a moment to see the EOF, so
        // the bound is reached, not held at every instant: probe until an
        // accept finds every earlier reader but the last probe's gone.
        let (waited, mut probes) = (Instant::now(), 0);
        loop {
            let probe = served((CLOSED + probes) as u64);
            probes += 1;
            if shared.conn_joins.lock().unwrap().len() <= 2 {
                break;
            }
            assert!(waited.elapsed() < Duration::from_secs(10), "finished readers are kept");
            drop(probe);
            std::thread::sleep(Duration::from_millis(1));
        }
        // A reader retires its slot before it finishes, and none was
        // accepted since the check above.
        let live = shared.slots.lock().unwrap().live.len();
        assert!(live <= 2, "{live} stats slots kept for at most 2 open connections");
        shared.shutdown.store(true, Relaxed);
        acceptor.join().expect("acceptor panicked");
        for conn in shared.conn_joins.lock().unwrap().drain(..) {
            conn.join().expect("connection reader panicked");
        }
        assert!(shared.slots.lock().unwrap().live.is_empty(), "an ended reader kept its slot");
        let answered = (CLOSED + probes) as u64;
        assert_eq!(shared.stats().requests, answered, "the fold lost an answered call");
    }
}
