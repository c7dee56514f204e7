//! The two single-threaded reference loops (paper §5.2 methodology), both
//! through `Classifier::classify_batch`: [`run_sequential`] calls it with
//! one key per packet, [`run_batched`] with a batch. Every parallel
//! checksum — each plan
//! [`Runtime::run`](crate::system::runtime::Runtime::run) executes — is
//! validated against them, and they report the same [`RunStats`] the
//! runtime does (one shard, no worker threads).

use nm_common::classifier::{Classifier, MatchResult};
use nm_common::packet::TraceBuf;

use super::runtime::{fold_checksum, RunStats};

/// The paper's §5.1 classification batch of 128 — the reference loops'
/// default and [`RuntimeConfig`](crate::system::runtime::RuntimeConfig)'s.
pub const BATCH: usize = 128;

/// The reference loops' result: one shard on the caller's thread.
fn stats(n: usize, seconds: f64, batches: usize, checksum: u64) -> RunStats {
    RunStats {
        seconds,
        pps: n as f64 / seconds.max(1e-12),
        mean_batch_latency_ns: seconds * 1e9 / batches.max(1) as f64,
        checksum,
        batches,
        steered: vec![n as u64],
        ..RunStats::empty(1, 0)
    }
}

/// Single-core **batched** run: the trace flows through
/// [`Classifier::classify_batch`] in batches of `batch` packets on the
/// caller's thread. The checksum folds per-packet results in trace order, so
/// it must equal [`run_sequential`]'s — the batch-size sweep in
/// `nm-bench batch` measures exactly this path against `batch = 1`.
pub fn run_batched(c: &dyn Classifier, trace: &TraceBuf, batch: usize) -> RunStats {
    let n = trace.len();
    if n == 0 {
        return RunStats::empty(1, 0);
    }
    let batch = batch.max(1);
    let stride = trace.stride();
    let raw = trace.raw();
    let mut out: Vec<Option<MatchResult>> = vec![None; batch];
    let mut checksum = 0u64;
    let start = std::time::Instant::now();
    let mut lo = 0usize;
    while lo < n {
        let hi = (lo + batch).min(n);
        c.classify_batch(&raw[lo * stride..hi * stride], stride, &mut out[..hi - lo]);
        for &m in &out[..hi - lo] {
            fold_checksum(&mut checksum, m);
        }
        lo = hi;
    }
    stats(n, start.elapsed().as_secs_f64(), n.div_ceil(batch), checksum)
}

/// Sequential reference run (single core, early termination as configured,
/// the lookup hook on one key per packet) — the §5.2 single-core
/// methodology, also used to validate the parallel paths' checksums.
pub fn run_sequential(c: &dyn Classifier, trace: &TraceBuf) -> RunStats {
    let n = trace.len();
    let stride = trace.stride();
    let start = std::time::Instant::now();
    let mut checksum = 0u64;
    let mut verdict = [None];
    for key in trace.iter() {
        c.classify_batch(key, stride, &mut verdict);
        fold_checksum(&mut checksum, verdict[0]);
    }
    stats(n, start.elapsed().as_secs_f64(), n, checksum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NuevoMatchConfig, RqRmiParams};
    use crate::system::handle::ClassifierHandle;
    use nm_common::{FieldsSpec, FiveTuple, LinearSearch, RuleSet};

    fn setup() -> (ClassifierHandle<LinearSearch>, TraceBuf) {
        let rules: Vec<_> = (0..200u16)
            .map(|i| {
                FiveTuple::new()
                    .dst_port_range(i * 300, i * 300 + 250)
                    .into_rule(i as u32, i as u32)
            })
            .collect();
        let set = RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap();
        let cfg = NuevoMatchConfig {
            rqrmi: RqRmiParams { samples_init: 256, ..Default::default() },
            ..Default::default()
        };
        let nm = ClassifierHandle::new(&set, &cfg, LinearSearch::build).unwrap();
        let mut trace = TraceBuf::new(5);
        for i in 0..4_000u64 {
            trace.push(&[i, i * 7, i % 65_536, (i * 37) % 65_536, (i % 256)]);
        }
        (nm, trace)
    }

    #[test]
    fn batched_matches_sequential_checksum() {
        let (nm, trace) = setup();
        let seq = run_sequential(&nm, &trace);
        for batch in [1, 8, 128, 512, 4096, 10_000] {
            let b = run_batched(&nm, &trace, batch);
            assert_eq!(seq.checksum, b.checksum, "diverged at batch {batch}");
        }
    }

    #[test]
    fn empty_trace() {
        let (nm, _) = setup();
        let empty = TraceBuf::new(5);
        for stats in [run_sequential(&nm, &empty), run_batched(&nm, &empty, BATCH)] {
            assert_eq!((stats.checksum, stats.batches, stats.pps), (0, 0, 0.0));
        }
    }
}
