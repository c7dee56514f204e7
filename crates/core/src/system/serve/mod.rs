//! `system::serve` — the wire-to-verdict classification service.
//!
//! Turns a live data plane (a [`ClassifierHandle`] or the PR 5 sharded
//! [`ShardedHandle`]) into a network service: length-prefixed key frames
//! arrive over UDP and/or TCP (`nm_common::frame`), per-core reader
//! threads coalesce them with **arrival-aware micro-batching** (flush at
//! `max_batch`, after `deadline`, or once the socket runs dry and the
//! reader's inter-arrival estimate expects nobody inside the deadline),
//! and keep polling between batches while the traffic is dense, so a
//! request rarely waits for its reader to wake up
//! ([`Assembler::should_block`]). Every flushed batch classifies against
//! **one pinned generation**, and `(rule, priority, generation)` verdicts
//! go back on the wire. Service
//! latency — request decoded to response written, any micro-batching wait
//! included — lands in a log-bucketed [`nm_common::LatencyHistogram`] for
//! p50/p99/p999 tail accounting.
//!
//! In debug builds an in-loop oracle validator (the Chameleon-style
//! validating controller named in ROADMAP) replays a sample of served
//! requests against a [`nm_common::LinearSearch`] truth at the pinned
//! generation; mismatches are counted and asserted to zero by the
//! integration tests.
//!
//! ```no_run
//! # use nuevomatch::system::serve::{ServeConfig, Server};
//! # fn demo(handle: nuevomatch::ClassifierHandle<nm_common::LinearSearch>) {
//! let server = Server::start(handle, &ServeConfig::default()).unwrap();
//! let addr = server.udp_addr().unwrap(); // ephemeral loopback port
//! // ... drive clients against `addr` ...
//! let stats = server.shutdown();
//! assert_eq!(stats.mismatches, 0);
//! # }
//! ```

pub mod assembler;
pub mod client;
pub mod plane;
pub mod stats;
pub mod sysio;
pub mod transport;
pub mod validator;

pub use assembler::{Assembler, ReplySink};
pub use client::ServeClient;
pub use plane::{PinnedPlane, ServePlane};
pub use stats::{FlushCause, ReaderKind, ServeStats};
pub use validator::{OracleTable, Validator};

use std::net::{SocketAddr, TcpListener, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use nm_common::frame::RESPONSE_FRAME;

use crate::system::runtime::topology::{pin_current_thread, Topology};

#[allow(unused_imports)] // doc links
use crate::system::handle::ClassifierHandle;
#[allow(unused_imports)] // doc links
use crate::system::runtime::sharded::ShardedHandle;

/// Which socket families the server binds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// Datagrams only.
    Udp,
    /// Streams only.
    Tcp,
    /// Both (each on its own ephemeral port when `listen` uses port 0).
    Both,
}

impl Transport {
    /// Whether UDP is served.
    pub fn udp(self) -> bool {
        matches!(self, Transport::Udp | Transport::Both)
    }

    /// Whether TCP is served.
    pub fn tcp(self) -> bool {
        matches!(self, Transport::Tcp | Transport::Both)
    }
}

impl std::str::FromStr for Transport {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "udp" => Ok(Transport::Udp),
            "tcp" => Ok(Transport::Tcp),
            "both" => Ok(Transport::Both),
            other => Err(format!("unknown transport {other:?} (udp|tcp|both)")),
        }
    }
}

impl std::fmt::Display for Transport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Transport::Udp => "udp",
            Transport::Tcp => "tcp",
            Transport::Both => "both",
        })
    }
}

/// Serve front-end configuration. The defaults are the paper-shaped
/// serving point: batch 128, 20µs assembly deadline, loopback ephemeral
/// port, both transports.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port per transport.
    pub listen: SocketAddr,
    /// Socket families to serve.
    pub transport: Transport,
    /// Flush a batch at this many requests (at most [`Self::MAX_BATCH`])…
    pub max_batch: usize,
    /// …or when the oldest pending request has waited this long: the upper
    /// bound on the assembly wait. A batch is flushed earlier when no
    /// further request is expected inside it (see [`Assembler::due`]).
    pub deadline: Duration,
    /// Key words per request frame (requests with any other width are
    /// decode errors).
    pub stride: usize,
    /// UDP reader threads. Each gets a *private* socket bound to the same
    /// address via `SO_REUSEPORT` (the kernel hashes flows across them, so
    /// every reader owns an independent receive queue); when `SO_REUSEPORT`
    /// is unavailable the readers share one socket like the pre-REUSEPORT
    /// front-end.
    pub udp_readers: usize,
    /// Pin reader threads round-robin over the NUMA topology (no-ops on a
    /// single-CPU box).
    pub pin: bool,
    /// Replay one in N served requests against the oracle table; `0`
    /// disables sampling. Defaults to 16 in debug builds, 0 in release —
    /// the in-loop validator is a debugging control, not a serving cost.
    pub validate_every: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            listen: SocketAddr::from(([127, 0, 0, 1], 0)),
            transport: Transport::Both,
            max_batch: 128,
            deadline: Duration::from_micros(20),
            stride: nm_common::FIVE_TUPLE_FIELDS,
            udp_readers: 1,
            pin: true,
            validate_every: if cfg!(debug_assertions) { 16 } else { 0 },
        }
    }
}

impl ServeConfig {
    /// The largest `max_batch` [`Server::start`] accepts: a flush answers
    /// one peer's consecutive requests in one UDP datagram, which carries
    /// at most 65 507 bytes, so 2 339 response frames.
    pub const MAX_BATCH: usize = 65_507 / RESPONSE_FRAME;
}

/// The readers' statistics: one slot per live reader, tagged with its
/// kind, and the fold of every slot whose reader has ended.
#[derive(Default)]
struct Slots {
    live: Vec<(ReaderKind, Arc<Mutex<ServeStats>>)>,
    retired: ServeStats,
}

/// Everything the reader threads share.
pub(crate) struct Shared<P: ServePlane> {
    pub(crate) plane: Arc<P>,
    pub(crate) cfg: ServeConfig,
    pub(crate) oracle: Arc<OracleTable>,
    pub(crate) shutdown: AtomicBool,
    slots: Mutex<Slots>,
    pub(crate) conn_joins: Mutex<Vec<JoinHandle<()>>>,
    cpus: Vec<usize>,
    next_cpu: AtomicUsize,
}

impl<P: ServePlane> Shared<P> {
    /// Builds one assembler answering on `sink`, wired to a fresh
    /// registered stats slot tagged with the owning reader's kind.
    pub(crate) fn new_assembler(self: &Arc<Self>, sink: ReplySink) -> Assembler<P> {
        let kind = match sink {
            ReplySink::Udp(_) => ReaderKind::Udp,
            ReplySink::Tcp(_) => ReaderKind::Tcp,
        };
        let slot = Arc::new(Mutex::new(ServeStats::new()));
        self.slots.lock().unwrap_or_else(PoisonError::into_inner).live.push((kind, slot.clone()));
        Assembler::new(
            self.plane.clone(),
            sink,
            self.cfg.max_batch,
            self.cfg.deadline,
            self.cfg.stride,
            Validator::new(self.oracle.clone(), self.cfg.validate_every),
            slot,
        )
    }

    /// Folds an ended reader's `slot` into the retired total and drops it
    /// from the live list, under the one lock [`Shared::stats`] folds
    /// under, so no count is missed or seen twice. A reader calls this
    /// after its final flush.
    pub(crate) fn retire(&self, slot: &Arc<Mutex<ServeStats>>) {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(i) = slots.live.iter().position(|(_, live)| Arc::ptr_eq(live, slot)) {
            let (_, ended) = slots.live.remove(i);
            slots.retired.merge(&ended.lock().unwrap_or_else(PoisonError::into_inner));
        }
    }

    /// The retired total plus every live slot.
    fn stats(&self) -> ServeStats {
        let slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        let mut total = slots.retired.clone();
        for (_, slot) in &slots.live {
            total.merge(&slot.lock().unwrap_or_else(PoisonError::into_inner));
        }
        total
    }

    /// Pins the calling thread to the next CPU in the round-robin plan
    /// (no-op when pinning is off or the box has one CPU).
    pub(crate) fn pin_next_cpu(&self) {
        if self.cpus.is_empty() {
            return;
        }
        let cpu = self.cpus[self.next_cpu.fetch_add(1, Relaxed) % self.cpus.len()];
        pin_current_thread(cpu);
    }
}

/// A running serve front-end. Dropping it shuts the service down; call
/// [`Server::shutdown`] to also collect the final statistics.
pub struct Server<P: ServePlane> {
    shared: Arc<Shared<P>>,
    joins: Vec<JoinHandle<()>>,
    udp_addr: Option<SocketAddr>,
    tcp_addr: Option<SocketAddr>,
}

impl<P: ServePlane> Server<P> {
    /// Binds the configured transports and spawns the reader threads.
    /// Refuses a `max_batch` above [`ServeConfig::MAX_BATCH`]
    /// (`InvalidInput`) before binding anything.
    pub fn start(plane: P, cfg: &ServeConfig) -> std::io::Result<Self> {
        if cfg.max_batch > ServeConfig::MAX_BATCH {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("max_batch {} exceeds {}", cfg.max_batch, ServeConfig::MAX_BATCH),
            ));
        }
        let cpus = if cfg.pin {
            let topo = Topology::discover();
            if topo.num_cpus() > 1 {
                topo.nodes().iter().flat_map(|n| n.cpus.iter().copied()).collect()
            } else {
                Vec::new()
            }
        } else {
            Vec::new()
        };
        let shared = Arc::new(Shared {
            plane: Arc::new(plane),
            cfg: cfg.clone(),
            oracle: Arc::new(OracleTable::new()),
            shutdown: AtomicBool::new(false),
            slots: Mutex::default(),
            conn_joins: Mutex::new(Vec::new()),
            cpus,
            next_cpu: AtomicUsize::new(0),
        });
        // Built before anything spawns: a later bind's `?` drops it, and
        // `Drop` stops and joins every reader already running.
        let mut server = Self { shared, joins: Vec::new(), udp_addr: None, tcp_addr: None };
        if cfg.transport.udp() {
            let n = cfg.udp_readers.max(1);
            // One private SO_REUSEPORT socket per reader; the helper falls
            // back to a single shared socket when REUSEPORT is unavailable
            // (readers then cycle over that one fd like the old front-end).
            let socks: Vec<Arc<UdpSocket>> =
                sysio::bind_udp_reader_sockets(cfg.listen, n)?.into_iter().map(Arc::new).collect();
            server.udp_addr = match socks.first() {
                Some(s) => Some(s.local_addr()?),
                None => None,
            };
            for i in 0..n {
                let (shared, sock) = (server.shared.clone(), socks[i % socks.len()].clone());
                server.joins.push(std::thread::spawn(move || transport::udp_reader(shared, sock)));
            }
        }
        if cfg.transport.tcp() {
            let listener = TcpListener::bind(cfg.listen)?;
            server.tcp_addr = Some(listener.local_addr()?);
            let shared = server.shared.clone();
            let acceptor = move || transport::tcp_acceptor(shared, listener);
            server.joins.push(std::thread::spawn(acceptor));
        }
        Ok(server)
    }

    /// The UDP serving address (when the transport includes UDP).
    pub fn udp_addr(&self) -> Option<SocketAddr> {
        self.udp_addr
    }

    /// The TCP serving address (when the transport includes TCP).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The oracle table update drivers publish ground truth into (see
    /// [`OracleTable::publish`]); sampling is controlled by
    /// [`ServeConfig::validate_every`].
    pub fn oracle(&self) -> Arc<OracleTable> {
        self.shared.oracle.clone()
    }

    /// The data plane being served.
    pub fn plane(&self) -> Arc<P> {
        self.shared.plane.clone()
    }

    /// A point-in-time fold of every reader thread's statistics, those of
    /// closed connections included.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }

    /// A point-in-time snapshot of each live reader thread's own
    /// statistics, tagged with the reader kind. A closed connection's
    /// reader is no longer listed; its counts live on in
    /// [`Server::stats`]. The fleet-wide fold is [`Server::stats`]; this
    /// view exposes the per-reader spread — a heavily skewed UDP reader
    /// means `SO_REUSEPORT` flow steering (or the client's source-port
    /// spread) is off, which percentiles alone would hide.
    pub fn per_reader_stats(&self) -> Vec<(ReaderKind, ServeStats)> {
        self.shared
            .slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .live
            .iter()
            .map(|(kind, slot)| {
                (*kind, slot.lock().unwrap_or_else(PoisonError::into_inner).clone())
            })
            .collect()
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Relaxed);
        for j in self.joins.drain(..) {
            let _ = j.join();
        }
        let conns: Vec<_> = self
            .shared
            .conn_joins
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for j in conns {
            let _ = j.join();
        }
    }

    /// Stops accepting, drains every assembler, joins the reader threads
    /// and returns the final statistics.
    pub fn shutdown(mut self) -> ServeStats {
        self.stop();
        self.stats()
    }
}

impl<P: ServePlane> Drop for Server<P> {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::assembler::tests::StubPlane;
    use super::*;

    #[test]
    fn start_refuses_a_batch_one_datagram_cannot_answer() {
        let cfg = |max_batch| ServeConfig {
            max_batch,
            transport: Transport::Udp,
            pin: false,
            ..ServeConfig::default()
        };
        let err = Server::start(StubPlane, &cfg(ServeConfig::MAX_BATCH + 1)).err();
        assert_eq!(err.map(|e| e.kind()), Some(std::io::ErrorKind::InvalidInput));
        Server::start(StubPlane, &cfg(ServeConfig::MAX_BATCH)).unwrap().shutdown();
    }
}
