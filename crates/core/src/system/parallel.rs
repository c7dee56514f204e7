//! The single-threaded reference loop (paper §5.2 methodology):
//! [`run_batched`] hands `Classifier::classify_batch` the trace `batch`
//! packets at a time, and at batch 1 it is the per-key loop, the engine's
//! one lookup hook called on one key per packet. Every parallel checksum —
//! each plan [`Runtime::run`](crate::system::runtime::Runtime::run)
//! executes — is validated against it, and it reports the same
//! [`RunStats`] the runtime does (one shard, no worker threads).

use nm_common::classifier::{Classifier, MatchResult};
use nm_common::packet::TraceBuf;

use super::runtime::{fold_checksum, RunStats};

/// The paper's §5.1 classification batch of 128 — the reference loop's
/// usual size and [`RuntimeConfig`](crate::system::runtime::RuntimeConfig)'s.
pub const BATCH: usize = 128;

/// Single-core run: the trace flows through [`Classifier::classify_batch`]
/// in batches of `batch` packets on the caller's thread (a `batch` past the
/// trace's length is one batch; 0 counts as 1). The checksum folds
/// per-packet results in trace order, so it is the same at every batch
/// size — the batch-size sweep in `nm-bench batch` measures exactly this
/// path against `batch = 1`.
pub fn run_batched(c: &dyn Classifier, trace: &TraceBuf, batch: usize) -> RunStats {
    let n = trace.len();
    if n == 0 {
        return RunStats::empty(1, 0);
    }
    let batch = batch.clamp(1, n);
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
    let seconds = start.elapsed().as_secs_f64();
    let batches = n.div_ceil(batch);
    RunStats {
        seconds,
        pps: n as f64 / seconds.max(1e-12),
        mean_batch_latency_ns: seconds * 1e9 / batches as f64,
        checksum,
        batches,
        steered: vec![n as u64],
        ..RunStats::empty(1, 0)
    }
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

    /// Every batch size folds to the checksum of `Classifier::classify`
    /// called key by key, a fold that shares no code with the loop.
    #[test]
    fn batched_matches_sequential_checksum() {
        let (nm, trace) = setup();
        let mut want = 0u64;
        for key in trace.iter() {
            fold_checksum(&mut want, nm.classify(key));
        }
        for batch in [1, 8, 128, 512, 4096, 10_000] {
            let b = run_batched(&nm, &trace, batch);
            assert_eq!(want, b.checksum, "diverged at batch {batch}");
        }
    }

    /// A batch wider than the trace is one batch of the whole trace: its
    /// scratch is sized by the trace, not by the request.
    #[test]
    fn oversized_batch_is_one_batch() {
        let (nm, trace) = setup();
        let huge = run_batched(&nm, &trace, usize::MAX);
        assert_eq!(huge.checksum, run_batched(&nm, &trace, 1).checksum);
        assert_eq!(huge.batches, 1);
    }

    #[test]
    fn empty_trace() {
        let (nm, _) = setup();
        let empty = TraceBuf::new(5);
        for batch in [1, BATCH] {
            let stats = run_batched(&nm, &empty, batch);
            assert_eq!((stats.checksum, stats.batches, stats.pps), (0, 0, 0.0));
        }
    }
}
