//! The NUMA-aware worker runtime (paper §4 "Parallelization" and §5.1,
//! grown past one socket).
//!
//! The runtime splits parallel execution along explicit axes:
//!
//! * **A plan** decides what each worker group serves — how many shards,
//!   where a packet steers, and what shard `s` computes from the batch's
//!   pin ([`ShardedDataPlane::classify_shard`]). Every execution mode is a
//!   [`ShardedDataPlane`]: [`ShardedClassifier`] — and [`ShardedHandle`],
//!   which publishes the same plane over live snapshots — steers packets to
//!   per-shard rule subsets (range cuts on a steering field, wildcard-heavy
//!   rules in a broadcast shard), [`Replicated`] is N whole-set shards dealt
//!   batches round-robin (the §5.1 baseline mode), and [`SplitPlan`] is
//!   NuevoMatch's iSet/remainder split (the paper's two-worker mode)
//!   expressed as two mirrored stages.
//! * **A dispatcher** (the calling thread) pins one coherent generation per
//!   batch, steers the batch, keeps [`RuntimeConfig::pipeline_depth`]
//!   batches in flight — tracked in a small in-flight ring, not a
//!   trace-length array — and merges per-shard verdicts by priority in
//!   trace order, so the checksum equals the reference loop's
//!   ([`run_batched`]) by construction. The pin is a plain [`PinnedPlane`] — the very type the
//!   serve front-end flushes into, with no per-shard knowledge of its own:
//!   an `Arc` of a published snapshot for the live planes (the *same*
//!   `Arc<NmSnapshot>` whether [`Replicated`] runs it whole or
//!   [`SplitPlan`] runs its halves), a plain reference for the immutable
//!   ones. No plan needs a pin type of its own.
//! * **Workers** (`shards × workers_per_shard` threads) classify gathered
//!   sub-batches against the pinned generation through the plan, each
//!   owning — when enabled — a private flow-cache table it probes with the
//!   pin's generation and fills from the plan's shard lookup: no lock, no
//!   shared cache line ping-pong. Workers pin to a CPU of their shard's
//!   NUMA node when the [`Topology`] offers more than one CPU.
//!
//! **What a batch costs beyond its lookups** is one wake-up: a dispatcher
//! parked in the result channel's `recv` is woken through a futex once per
//! batch (12–16 µs on a 2-vCPU VM, ≈ 90 ns/pkt at batch 128 — not the
//! channel's queue, the merge or the allocations). When the machine has a
//! CPU left over for the dispatcher it therefore polls the channel a
//! bounded number of times before parking; when every CPU already carries a
//! worker it parks at once, because polling would take a worker's time
//! slice.
//!
//! Worker failures propagate: a panicking worker is caught, reported
//! through the result channel, and surfaces as an `Err` from
//! [`Runtime::run`] instead of wedging the dispatcher on a dead channel.
//!
//! **Single-core fallback.** This repository's CI box has one physical
//! core: [`Topology::assign`] returns no pin assignments there, so every
//! worker stays unpinned and the measured numbers time-share — the
//! structure is identical to the paper's; every number so far carries the
//! 1-core caveat recorded in `benchmark/README.md`.
//!
//! [`run_batched`]: crate::system::parallel::run_batched

pub mod sharded;
pub mod topology;

pub use sharded::{EpochSnapshot, ShardEpoch, ShardedClassifier, ShardedHandle};
pub use topology::{pin_current_thread, NumaNode, Topology};

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, RecvError, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use nm_common::classifier::{Classifier, MatchResult};
use nm_common::packet::TraceBuf;
use nm_common::update::Generation;
use nm_common::Error;

use super::flow_cache::{classify_misses, CacheStats, FlowTable};
use super::handle::{ClassifierHandle, NmSnapshot};
use super::parallel::BATCH;
use super::serve::plane::PinnedPlane;

/// Default number of batches the dispatcher keeps in flight.
const DEFAULT_PIPELINE_DEPTH: usize = 4;

/// Whether (and how) workers pin to CPUs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PinPolicy {
    /// Never pin; the OS schedules freely.
    Never,
    /// Pin each shard's workers to CPUs of one NUMA node (shards spread
    /// across nodes round-robin). Degrades to unpinned when the topology
    /// reports a single CPU — the single-core-CI fallback.
    Numa,
}

/// Runtime parameters. The defaults reproduce the paper's harness: batches
/// of 128, a 4-deep dispatch pipeline, one worker per shard, NUMA pinning
/// where the machine supports it, per-worker flow caches off.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Packets per dispatched batch.
    pub batch: usize,
    /// Batches in flight between dispatch and merge (the legacy runners
    /// hardcoded 4). Bounds both the channel depths and the in-flight ring.
    pub pipeline_depth: usize,
    /// Worker threads per shard.
    pub workers_per_shard: usize,
    /// CPU pinning policy.
    pub pin: PinPolicy,
    /// Capacity of each worker's private flow-cache table; `0` disables
    /// caching (the right setting for uniform traces — caches only pay for
    /// themselves on skewed traffic).
    pub flow_cache: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            batch: BATCH,
            pipeline_depth: DEFAULT_PIPELINE_DEPTH,
            workers_per_shard: 1,
            pin: PinPolicy::Numa,
            flow_cache: 0,
        }
    }
}

/// Result of one runtime execution.
#[derive(Clone, Debug)]
pub struct RunStats {
    /// Wall-clock seconds for the whole trace.
    pub seconds: f64,
    /// Packets per second.
    pub pps: f64,
    /// Mean per-batch latency in nanoseconds (dispatch → merged).
    pub mean_batch_latency_ns: f64,
    /// Fold of matched rule ids in trace order — must equal the reference
    /// loop's on any static run.
    pub checksum: u64,
    /// Batches dispatched.
    pub batches: usize,
    /// Home shards in the executed plan.
    pub shards: usize,
    /// Worker threads spawned.
    pub workers: usize,
    /// Workers the kernel accepted a CPU pin for.
    pub pinned_workers: usize,
    /// Packets steered to each shard (load-balance diagnostics; mirrored
    /// plans count every batch on every shard).
    pub steered: Vec<u64>,
    /// Smallest and largest logical generation pinned across the run's
    /// batches — equal on a quiescent run, a span under live updates.
    pub generations: (Generation, Generation),
    /// Aggregated per-worker flow-cache counters (zero when caching is
    /// disabled).
    pub cache: CacheStats,
}

impl RunStats {
    /// All-zero stats for a plan of `shards` shards run by `workers` worker
    /// threads (the reference loops in [`super::parallel`] run on the
    /// caller's thread: one shard, no workers).
    pub(crate) fn empty(shards: usize, workers: usize) -> Self {
        Self {
            seconds: 0.0,
            pps: 0.0,
            mean_batch_latency_ns: 0.0,
            checksum: 0,
            batches: 0,
            shards,
            workers,
            pinned_workers: 0,
            steered: vec![0; shards],
            generations: (0, 0),
            cache: CacheStats::default(),
        }
    }
}

/// Folds one verdict into the order-sensitive run checksum (shared by the
/// runtime and the reference loop, so "checksums are
/// comparable" is true by definition).
#[inline]
pub(crate) fn fold_checksum(checksum: &mut u64, m: Option<MatchResult>) {
    let v = m.map_or(u64::MAX, |r| r.rule as u64);
    *checksum = checksum.wrapping_mul(0x100_0000_01b3).wrapping_add(v);
}

/// An execution plan the runtime can drive: how many worker groups exist,
/// how packets map onto them, how to pin a coherent generation, and what
/// each shard computes from that pin.
pub trait ShardedDataPlane: Sync {
    /// The per-batch pin: every shard served from it (through
    /// [`Self::classify_shard`]) sees the same logical generation for as
    /// long as it is held. Cloned into worker jobs, so cloning must be
    /// cheap (a reference or an `Arc` bump).
    type Pin<'p>: PinnedPlane + Clone
    where
        Self: 'p;

    /// Number of home shards (worker groups).
    fn shards(&self) -> usize;

    /// `true` for stage-parallel plans: every batch is sent whole to every
    /// shard and the per-shard verdicts merge by priority (the two-worker
    /// iSet/remainder split). `false` for data-parallel plans, where each
    /// packet is steered to exactly one shard.
    fn mirror(&self) -> bool {
        false
    }

    /// Steers one packet (`batch` is the batch index — round-robin plans
    /// deal whole batches, content-steered plans ignore it). Unused by
    /// mirrored plans.
    fn steer(&self, _key: &[u64], _batch: usize) -> usize {
        0
    }

    /// Pins the current generation across all shards.
    fn pin(&self) -> Self::Pin<'_>;

    /// Classifies a gathered sub-batch as shard `shard` of this plan sees
    /// it — including any broadcast-shard merge, so the runtime's priority
    /// merge over shards yields final verdicts. Plans whose every shard
    /// serves the whole set keep the default.
    fn classify_shard<'p>(
        pin: &Self::Pin<'p>,
        _shard: usize,
        keys: &[u64],
        stride: usize,
        out: &mut [Option<MatchResult>],
    ) where
        Self: 'p,
    {
        pin.classify_batch(keys, stride, out);
    }
}

// ---------------------------------------------------------------------------
// The paper's two §5.1 modes as plans
// ---------------------------------------------------------------------------

/// The §5.1 replicated baseline as a plan: `workers` whole-set shards
/// sharing one engine (no rule duplication), batches dealt round-robin.
pub struct Replicated<'c> {
    engine: &'c dyn Classifier,
    workers: usize,
}

impl<'c> Replicated<'c> {
    /// Wraps `engine` as `workers` round-robin shards.
    pub fn new(engine: &'c dyn Classifier, workers: usize) -> Self {
        Self { engine, workers: workers.max(1) }
    }
}

/// A shared engine pins as the reference itself; its generation is whatever
/// it reports.
impl PinnedPlane for &dyn Classifier {
    fn generation(&self) -> Generation {
        (**self).generation()
    }

    fn classify_batch(&self, keys: &[u64], stride: usize, out: &mut [Option<MatchResult>]) {
        (**self).classify_batch(keys, stride, out);
    }
}

impl ShardedDataPlane for Replicated<'_> {
    type Pin<'p>
        = &'p dyn Classifier
    where
        Self: 'p;

    fn shards(&self) -> usize {
        self.workers
    }

    fn steer(&self, _key: &[u64], batch: usize) -> usize {
        batch % self.workers
    }

    fn pin(&self) -> Self::Pin<'_> {
        self.engine
    }
}

/// NuevoMatch's two-worker split as a plan: shard 0 runs the iSet RQ-RMIs,
/// shard 1 the remainder classifier, every batch mirrored to both and
/// merged by priority — the paper's §4 parallelization, expressed in the
/// same runtime as the sharded modes.
pub struct SplitPlan<'h, R: Classifier> {
    handle: &'h ClassifierHandle<R>,
}

impl<'h, R: Classifier> SplitPlan<'h, R> {
    /// Plans the iSet/remainder split over a live handle.
    pub fn new(handle: &'h ClassifierHandle<R>) -> Self {
        Self { handle }
    }
}

impl<R: Classifier> ShardedDataPlane for SplitPlan<'_, R> {
    /// One NuevoMatch snapshot shared by both stages, so a batch's halves
    /// can never straddle an update.
    type Pin<'p>
        = Arc<NmSnapshot<R>>
    where
        Self: 'p;

    fn shards(&self) -> usize {
        2
    }

    fn mirror(&self) -> bool {
        true
    }

    fn pin(&self) -> Self::Pin<'_> {
        self.handle.snapshot()
    }

    fn classify_shard<'p>(
        pin: &Self::Pin<'p>,
        shard: usize,
        keys: &[u64],
        stride: usize,
        out: &mut [Option<MatchResult>],
    ) where
        Self: 'p,
    {
        match shard {
            0 => pin.engine().classify_isets_batch(keys, stride, out),
            _ => pin.engine().remainder().classify_batch(keys, stride, out),
        }
    }
}

// ---------------------------------------------------------------------------
// The runtime
// ---------------------------------------------------------------------------

/// One dispatched unit: which batch, which packets of it, and the pinned
/// generation to serve them at.
struct Job<P> {
    batch: usize,
    idx: Vec<u32>,
    pin: P,
}

/// One worker's answer for a job.
type Chunk = (usize, Vec<u32>, Vec<Option<MatchResult>>);

/// An in-flight batch in the dispatcher's ring.
struct Slot {
    batch: usize,
    lo: usize,
    t0: Instant,
    expected: usize,
    received: usize,
    out: Vec<Option<MatchResult>>,
}

/// The worker runtime: a discovered [`Topology`] plus a [`RuntimeConfig`],
/// executing any [`ShardedDataPlane`] over a trace.
pub struct Runtime {
    cfg: RuntimeConfig,
    topo: Topology,
}

impl Runtime {
    /// A runtime over the discovered machine topology.
    pub fn new(cfg: RuntimeConfig) -> Self {
        Self { cfg, topo: Topology::discover() }
    }

    /// Executes `src` over the trace: steer → per-shard workers → in-order
    /// priority merge. Returns an error if any worker fails (panics are
    /// caught and reported, not deadlocked on).
    pub fn run<S: ShardedDataPlane>(&self, src: &S, trace: &TraceBuf) -> Result<RunStats, Error> {
        let n = trace.len();
        let shards = src.shards().max(1);
        let wps = self.cfg.workers_per_shard.max(1);
        if n == 0 {
            return Ok(RunStats::empty(shards, shards * wps));
        }
        let batch = self.cfg.batch.max(1);
        let depth = self.cfg.pipeline_depth.max(1);
        let mirror = src.mirror();
        let n_batches = n.div_ceil(batch);
        let stride = trace.stride();
        let raw = trace.raw();
        let flow_cap = self.cfg.flow_cache;
        // A CPU left over for the dispatcher: it may poll for results
        // instead of paying a futex wake per batch (module docs).
        let spare_cpu = self.topo.num_cpus() > shards * wps;
        let grid = match self.cfg.pin {
            PinPolicy::Never => Vec::new(),
            PinPolicy::Numa => self.topo.assign(shards, wps),
        };

        // One job queue per shard. Its workers share the receiver: whoever
        // holds the lock takes the next job, and the receiver drops with the
        // shard's last worker, so a dispatcher send then fails.
        let mut job_tx = Vec::with_capacity(shards);
        let mut job_rx = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = mpsc::sync_channel::<Job<S::Pin<'_>>>(depth);
            job_tx.push(tx);
            job_rx.push(Arc::new(Mutex::new(rx)));
        }
        // Sized so workers can always post every chunk of every in-flight
        // batch without blocking: at most `depth` batches × `shards` chunks
        // are outstanding, so a worker send never deadlocks against a
        // dispatcher that has stopped receiving (e.g. on an error path).
        let (res_tx, res_rx) = mpsc::sync_channel::<Result<Chunk, String>>(depth * shards);

        let start = Instant::now();
        std::thread::scope(|scope| {
            let mut joins = Vec::with_capacity(shards * wps);
            for (s, rx) in job_rx.into_iter().enumerate() {
                for w in 0..wps {
                    let rx = Arc::clone(&rx);
                    let tx = res_tx.clone();
                    let cpu = grid.get(s).and_then(|row| row.get(w)).copied();
                    let worker = move || worker_loop::<S>(s, cpu, rx, tx, raw, stride, flow_cap);
                    joins.push(scope.spawn(worker));
                }
            }
            drop(res_tx);

            // Dispatcher: prime the pipeline, merge in order.
            let mut checksum = 0u64;
            let mut lat_sum = 0.0f64;
            let mut steered = vec![0u64; shards];
            let mut gen_lo = Generation::MAX;
            let mut gen_hi = 0u64;
            let mut slots: Vec<Slot> = (0..depth)
                .map(|_| Slot {
                    batch: usize::MAX,
                    lo: 0,
                    t0: start,
                    expected: 0,
                    received: 0,
                    out: Vec::new(),
                })
                .collect();
            let mut next = 0usize;
            let mut merged = 0usize;
            let mut error: Option<Error> = None;

            'run: while merged < n_batches {
                while next < n_batches && next - merged < depth {
                    let lo = next * batch;
                    let hi = ((next + 1) * batch).min(n);
                    let pin = src.pin();
                    let g = pin.generation();
                    gen_lo = gen_lo.min(g);
                    gen_hi = gen_hi.max(g);
                    let mut idx: Vec<Vec<u32>> = vec![Vec::new(); shards];
                    if mirror {
                        let all: Vec<u32> = (lo as u32..hi as u32).collect();
                        idx.fill(all);
                    } else {
                        for i in lo..hi {
                            let s = src.steer(&raw[i * stride..(i + 1) * stride], next);
                            idx[s].push(i as u32);
                        }
                    }
                    let slot = &mut slots[next % depth];
                    slot.batch = next;
                    slot.lo = lo;
                    slot.t0 = Instant::now();
                    slot.received = 0;
                    slot.expected = idx.iter().filter(|ids| !ids.is_empty()).count();
                    slot.out.clear();
                    slot.out.resize(hi - lo, None);
                    for (s, ids) in idx.into_iter().enumerate() {
                        if ids.is_empty() {
                            continue;
                        }
                        steered[s] += ids.len() as u64;
                        if job_tx[s].send(Job { batch: next, idx: ids, pin: pin.clone() }).is_err()
                        {
                            // A worker that panicked sends its error chunk
                            // *before* hanging up its job receiver, so when
                            // the send loses that race the real cause is
                            // already buffered in the result channel —
                            // surface it instead of the generic disconnect.
                            let msg = std::iter::from_fn(|| res_rx.try_recv().ok())
                                .find_map(|chunk| chunk.err())
                                .unwrap_or_else(|| {
                                    format!("runtime: shard {s} workers exited early")
                                });
                            error = Some(Error::Build { msg });
                            break 'run;
                        }
                    }
                    next += 1;
                }
                match recv_chunk(&res_rx, spare_cpu) {
                    Err(_) => {
                        error = Some(Error::Build {
                            msg: "runtime: every worker exited before the run finished".into(),
                        });
                        break 'run;
                    }
                    Ok(Err(msg)) => {
                        error = Some(Error::Build { msg });
                        break 'run;
                    }
                    Ok(Ok((b, ids, verdicts))) => {
                        let slot = &mut slots[b % depth];
                        debug_assert_eq!(slot.batch, b, "stale chunk for a recycled slot");
                        for (j, &i) in ids.iter().enumerate() {
                            let k = i as usize - slot.lo;
                            slot.out[k] = MatchResult::better(slot.out[k], verdicts[j]);
                        }
                        slot.received += 1;
                        // Retire every completed batch at the ring's head.
                        while merged < next {
                            let slot = &slots[merged % depth];
                            if slot.batch != merged || slot.received < slot.expected {
                                break;
                            }
                            for &m in &slot.out {
                                fold_checksum(&mut checksum, m);
                            }
                            lat_sum += slot.t0.elapsed().as_nanos() as f64;
                            merged += 1;
                        }
                    }
                }
            }
            drop(job_tx);
            let mut cache = CacheStats::default();
            let mut pinned_workers = 0usize;
            for join in joins {
                match join.join() {
                    Ok((stats, pinned)) => {
                        cache.absorb(stats);
                        pinned_workers += usize::from(pinned);
                    }
                    Err(_) => {
                        // The panic was already surfaced through the result
                        // channel; keep the first error.
                        error.get_or_insert(Error::Build {
                            msg: "runtime: a worker panicked".into(),
                        });
                    }
                }
            }
            if let Some(e) = error {
                return Err(e);
            }
            let seconds = start.elapsed().as_secs_f64();
            Ok(RunStats {
                seconds,
                pps: n as f64 / seconds.max(1e-12),
                mean_batch_latency_ns: lat_sum / n_batches as f64,
                checksum,
                batches: n_batches,
                shards,
                workers: shards * wps,
                pinned_workers,
                steered,
                generations: (gen_lo.min(gen_hi), gen_hi),
                cache,
            })
        })
    }
}

/// How often the dispatcher polls the result channel before parking in it.
const RESULT_POLLS: usize = 256;

/// The dispatcher's receive: with a CPU to spare, poll (yielding between
/// tries) before falling back to the blocking `recv` whose wake-up costs
/// more than a batch's lookups; without one, park at once.
fn recv_chunk<T>(rx: &Receiver<T>, spare_cpu: bool) -> Result<T, RecvError> {
    if spare_cpu {
        for _ in 0..RESULT_POLLS {
            match rx.try_recv() {
                Ok(chunk) => return Ok(chunk),
                Err(TryRecvError::Disconnected) => break,
                Err(TryRecvError::Empty) => std::thread::yield_now(),
            }
        }
    }
    rx.recv()
}

/// One worker thread: optionally pin, then serve jobs until the dispatcher
/// hangs up. Panics inside a job are caught and reported as an error chunk
/// so the dispatcher can fail the run instead of blocking forever.
fn worker_loop<'p, S: ShardedDataPlane + 'p>(
    shard: usize,
    cpu: Option<usize>,
    rx: Arc<Mutex<Receiver<Job<S::Pin<'p>>>>>,
    tx: SyncSender<Result<Chunk, String>>,
    raw: &[u64],
    stride: usize,
    flow_cap: usize,
) -> (CacheStats, bool) {
    let pinned = cpu.is_some_and(pin_current_thread);
    // The worker's own table: the pin's generation is the source stamp, so
    // an epoch swap invalidates it exactly like any other update.
    let mut cache = (flow_cap > 0).then(|| FlowTable::new(flow_cap));
    let mut buf: Vec<u64> = Vec::new();
    let mut miss_idx: Vec<usize> = Vec::new();
    loop {
        // A `let` statement, not `while let`: the guard drops here, before
        // the job runs, so the shard's other workers can take the next one.
        let Ok(job) = rx.lock().unwrap_or_else(PoisonError::into_inner).recv() else { break };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // Mirrored and round-robin plans always steer a contiguous run
            // of packets; classify straight off the trace then, and only
            // gather-copy when content steering actually scattered the
            // batch (idx is built ascending, so span == len ⇔ contiguous).
            let first = job.idx.first().map_or(0, |&i| i as usize);
            let contiguous =
                job.idx.last().is_some_and(|&l| l as usize - first + 1 == job.idx.len());
            let keys: &[u64] = if contiguous {
                &raw[first * stride..(first + job.idx.len()) * stride]
            } else {
                sharded::gather_keys(raw, stride, &job.idx, &mut buf);
                &buf
            };
            let mut verdicts = vec![None; job.idx.len()];
            match &mut cache {
                Some(table) => {
                    let source = job.pin.generation();
                    miss_idx.clear();
                    table.probe(source, keys, stride, &mut verdicts, &mut miss_idx);
                    if !miss_idx.is_empty() {
                        let fresh =
                            classify_misses(keys, stride, &miss_idx, &mut verdicts, |k, o| {
                                S::classify_shard(&job.pin, shard, k, stride, o)
                            });
                        table.install(source, keys, stride, &miss_idx, &fresh);
                    }
                }
                None => S::classify_shard(&job.pin, shard, keys, stride, &mut verdicts),
            }
            verdicts
        }));
        let send_failed = match outcome {
            Ok(verdicts) => tx.send(Ok((job.batch, job.idx, verdicts))).is_err(),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "worker panicked".to_string());
                let _ = tx.send(Err(format!("runtime worker (shard {shard}): {msg}")));
                true
            }
        };
        if send_failed {
            break;
        }
    }
    (cache.map(|table| table.stats()).unwrap_or_default(), pinned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NuevoMatchConfig, RqRmiParams};
    use crate::system::parallel::run_batched;
    use nm_common::{FieldsSpec, FiveTuple, LinearSearch, RuleSet, UpdateBatch};

    fn port_set(n: u16) -> RuleSet {
        let rules: Vec<_> = (0..n)
            .map(|i| {
                FiveTuple::new().dst_port_range(i * 100, i * 100 + 99).into_rule(i as u32, i as u32)
            })
            .collect();
        RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap()
    }

    fn fast_cfg() -> NuevoMatchConfig {
        NuevoMatchConfig {
            rqrmi: RqRmiParams { samples_init: 256, ..Default::default() },
            ..Default::default()
        }
    }

    fn trace(n: u64) -> TraceBuf {
        let mut t = TraceBuf::new(5);
        for i in 0..n {
            t.push(&[i, i * 7, i % 65_536, (i * 37) % 65_536, i % 256]);
        }
        t
    }

    fn runtime(batch: usize) -> Runtime {
        Runtime::new(RuntimeConfig { batch, ..Default::default() })
    }

    #[test]
    fn sharded_run_matches_sequential() {
        let set = port_set(200);
        let handle = ClassifierHandle::new(&set, &fast_cfg(), LinearSearch::build).unwrap();
        let sharded = ShardedHandle::new(&set, &fast_cfg(), 2, LinearSearch::build).unwrap();
        let t = trace(4_000);
        let seq = run_batched(&handle, &t, 1);
        for (batch, wps) in [(128usize, 1usize), (128, 2), (7, 1), (512, 2)] {
            let rt =
                Runtime::new(RuntimeConfig { batch, workers_per_shard: wps, ..Default::default() });
            let stats = rt.run(&sharded, &t).unwrap();
            assert_eq!(stats.checksum, seq.checksum, "batch {batch} wps {wps}");
            assert_eq!(stats.shards, 2);
            assert_eq!(stats.workers, 2 * wps);
            assert_eq!(stats.steered.iter().sum::<u64>(), 4_000);
            assert_eq!(stats.generations.0, stats.generations.1, "static run spans one gen");
        }
    }

    #[test]
    fn split_plan_matches_sequential() {
        let set = port_set(200);
        let handle = ClassifierHandle::new(&set, &fast_cfg(), LinearSearch::build).unwrap();
        let t = trace(3_000);
        let seq = run_batched(&handle, &t, 1);
        let stats = runtime(128).run(&SplitPlan::new(&handle), &t).unwrap();
        assert_eq!(stats.checksum, seq.checksum);
        assert_eq!(stats.shards, 2);
        // Mirrored: both stages see every packet.
        assert_eq!(stats.steered, vec![3_000, 3_000]);
        assert!(stats.mean_batch_latency_ns > 0.0);
    }

    #[test]
    fn two_workers_survive_concurrent_updates_and_retrain() {
        // A run under live control-plane traffic must complete (readers
        // never block) and every batch must stay internally consistent —
        // generation pinning means the run equals *some* interleaving of
        // the update stream, so we assert structural health, not a fixed
        // checksum.
        use std::sync::atomic::{AtomicBool, Ordering};
        /// Stops the writer however the scope's main closure leaves —
        /// a failed assertion there must fail the test, not hang it on a
        /// writer that never hears `done`.
        struct StopOnDrop<'a>(&'a AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let handle =
            ClassifierHandle::new(&port_set(200), &fast_cfg(), LinearSearch::build).unwrap();
        let (rt, trace) = (Runtime::new(RuntimeConfig::default()), trace(4_000));
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut i = 0u32;
                while !done.load(Ordering::SeqCst) {
                    handle.apply(
                        &UpdateBatch::new().modify(
                            FiveTuple::new()
                                .dst_port_exact(50_000 + (i % 1_000) as u16)
                                .into_rule(i % 200, i % 200),
                        ),
                    );
                    i += 1;
                    if i % 64 == 0 {
                        let _ = handle.retrain();
                    }
                }
            });
            let _stop = StopOnDrop(&done);
            for _ in 0..5 {
                let s = rt.run(&SplitPlan::new(&handle), &trace).unwrap();
                assert!(s.pps > 0.0);
            }
        });
        assert!(handle.generation() > 1, "updates must have published");
    }

    #[test]
    fn replicated_plan_matches_sequential_at_any_width() {
        let set = port_set(150);
        let engine = LinearSearch::build(&set);
        let t = trace(2_500);
        let seq = run_batched(&engine, &t, 1);
        for workers in [1usize, 2, 4] {
            let stats = runtime(64).run(&Replicated::new(&engine, workers), &t).unwrap();
            assert_eq!(stats.checksum, seq.checksum, "workers {workers}");
        }
    }

    #[test]
    fn per_worker_flow_cache_is_transparent() {
        let set = port_set(120);
        let sharded = ShardedHandle::new(&set, &fast_cfg(), 2, LinearSearch::build).unwrap();
        let handle = ClassifierHandle::new(&set, &fast_cfg(), LinearSearch::build).unwrap();
        // A skewed trace: few distinct keys, many repeats.
        let mut t = TraceBuf::new(5);
        for i in 0..4_000u64 {
            let flow = i % 16;
            t.push(&[9, 9, 9, flow * 700, 17]);
        }
        let rt = Runtime::new(RuntimeConfig { flow_cache: 1 << 10, ..Default::default() });
        // Steered, mirrored (each stage caches its own half's verdicts) and
        // round-robin plans behind per-worker tables.
        let cached_runs = |want: u64, when: &str| {
            let runs = [
                ("sharded", rt.run(&sharded, &t)),
                ("split", rt.run(&SplitPlan::new(&handle), &t)),
                ("replicated x 2", rt.run(&Replicated::new(&handle, 2), &t)),
            ];
            for (plan, stats) in runs {
                let stats = stats.unwrap();
                assert_eq!(stats.checksum, want, "{plan}, {when}: caching changed verdicts");
                assert!(
                    stats.cache.hits > stats.cache.misses,
                    "{plan}, {when}: hot flows must hit the per-worker tables: {:?}",
                    stats.cache
                );
            }
        };
        let before = run_batched(&handle, &t, 1).checksum;
        cached_runs(before, "as built");
        // An apply between two runs: flow 1 (port 700) loses its rule, and
        // no table may go on serving it.
        let batch = UpdateBatch::new().remove(7);
        assert_eq!((handle.apply(&batch).removed, sharded.apply(&batch).removed), (1, 1));
        let after = run_batched(&handle, &t, 1).checksum;
        assert_ne!(after, before);
        cached_runs(after, "after an apply");
    }

    #[test]
    fn per_worker_flow_cache_drops_verdicts_of_an_older_pin() {
        // A plane whose every batch pins a newer generation and answers with
        // it: one repeated key, so a verdict served from an older pin's
        // entry would fold the wrong rule id into the checksum.
        use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
        struct Rising(AtomicU64);
        #[derive(Clone)]
        struct RisingPin(Generation);
        impl PinnedPlane for RisingPin {
            fn generation(&self) -> Generation {
                self.0
            }
            fn classify_batch(&self, _k: &[u64], _stride: usize, out: &mut [Option<MatchResult>]) {
                out.fill(Some(MatchResult { rule: self.0 as u32, priority: 0 }));
            }
        }
        impl ShardedDataPlane for Rising {
            type Pin<'p>
                = RisingPin
            where
                Self: 'p;
            fn shards(&self) -> usize {
                1
            }
            fn pin(&self) -> RisingPin {
                RisingPin(self.0.fetch_add(1, SeqCst) + 1)
            }
        }
        let (n, batch) = (1_000u64, 64usize);
        let mut t = TraceBuf::new(5);
        for _ in 0..n {
            t.push(&[9, 9, 9, 700, 17]);
        }
        let rt = Runtime::new(RuntimeConfig { batch, flow_cache: 1 << 10, ..Default::default() });
        let stats = rt.run(&Rising(AtomicU64::new(0)), &t).unwrap();
        let mut want = 0u64;
        for i in 0..n as usize {
            let generation = (i / batch) as u32 + 1;
            fold_checksum(&mut want, Some(MatchResult { rule: generation, priority: 0 }));
        }
        assert_eq!(stats.generations, (1, n.div_ceil(batch as u64)));
        assert_eq!(stats.checksum, want, "a stale entry outlived its pin");
        // Every batch is a new stamp, so no entry of an earlier one may hit.
        assert_eq!((stats.cache.hits, stats.cache.misses), (0, n));
    }

    #[test]
    fn worker_panic_surfaces_as_error() {
        struct Bomb;
        #[derive(Clone)]
        struct BombPin;
        impl PinnedPlane for BombPin {
            fn generation(&self) -> Generation {
                0
            }
            fn classify_batch(&self, _k: &[u64], _stride: usize, _o: &mut [Option<MatchResult>]) {
                panic!("boom");
            }
        }
        impl ShardedDataPlane for Bomb {
            type Pin<'p>
                = BombPin
            where
                Self: 'p;
            fn shards(&self) -> usize {
                1
            }
            fn pin(&self) -> BombPin {
                BombPin
            }
        }
        let t = trace(300);
        let err = runtime(64).run(&Bomb, &t).unwrap_err();
        assert!(err.to_string().contains("boom"), "{err}");
    }

    #[test]
    fn empty_trace_is_a_noop() {
        let set = port_set(50);
        let engine = LinearSearch::build(&set);
        let t = TraceBuf::new(5);
        let stats = runtime(128).run(&Replicated::new(&engine, 2), &t).unwrap();
        assert_eq!((stats.checksum, stats.batches), (0, 0));
    }

    #[test]
    fn pipeline_depth_is_honoured() {
        // Depth 1 forces strict lock-step dispatch→merge; the checksum must
        // still match (the ring never recycles a live slot).
        let set = port_set(100);
        let engine = LinearSearch::build(&set);
        let t = trace(1_111);
        let seq = run_batched(&engine, &t, 1);
        for depth in [1usize, 2, 8] {
            let rt = Runtime::new(RuntimeConfig {
                batch: 32,
                pipeline_depth: depth,
                ..Default::default()
            });
            let stats = rt.run(&Replicated::new(&engine, 2), &t).unwrap();
            assert_eq!(stats.checksum, seq.checksum, "depth {depth}");
        }
    }
}
