//! The data-plane abstraction the serve front-end batches into — and the
//! worker runtime dispatches shard jobs against.
//!
//! A flushed batch must classify against **one** pinned generation — that
//! is the coherence contract the response `generation` field advertises
//! and the oracle validator checks. [`ServePlane::pin`] captures whatever
//! "one generation" means for the engine: a snapshot `Arc` for a plain
//! [`ClassifierHandle`], an `Arc` of one stamped
//! [`ShardEpoch`](crate::system::runtime::ShardEpoch) for the sharded
//! handle (the impls live beside the epoch in `runtime::sharded`) — both
//! statically dispatched; they are the wire hot path. The same pin serves
//! [`Runtime::run`](crate::system::runtime::Runtime::run) through
//! [`PinnedPlane::classify_shard`], where planes that cannot change — a
//! static [`ShardedClassifier`](crate::system::runtime::ShardedClassifier),
//! a shared `&dyn Classifier` — pin as the plain reference: [`PinnedPlane`]
//! is implemented for the reference itself, there is no wrapper type.

use std::sync::Arc;

use nm_common::classifier::{Classifier, MatchResult};
use nm_common::update::Generation;

use crate::system::handle::{ClassifierHandle, NmSnapshot};

/// A batched data plane the serve front-end can flush into.
pub trait ServePlane: Send + Sync + 'static {
    /// An owning, immutable view of one published generation.
    type Pin: PinnedPlane;

    /// Pins the currently published generation (never blocks).
    fn pin(&self) -> Self::Pin;
}

/// One pinned generation of a data plane: every verdict it produces comes
/// from the same published state for as long as the pin is held.
pub trait PinnedPlane: Send {
    /// The generation every verdict from this pin is stamped with.
    fn generation(&self) -> Generation;

    /// Classifies `keys` (flat, `stride` words per key) into `out`.
    fn classify_batch(&self, keys: &[u64], stride: usize, out: &mut [Option<MatchResult>]);

    /// Classifies a gathered sub-batch as shard `shard` of a
    /// [`ShardedDataPlane`](crate::system::runtime::ShardedDataPlane) sees
    /// it — including any broadcast-shard merge, so the runtime's priority
    /// merge over shards yields final verdicts. Planes whose every shard
    /// serves the whole set keep the default.
    fn classify_shard(
        &self,
        _shard: usize,
        keys: &[u64],
        stride: usize,
        out: &mut [Option<MatchResult>],
    ) {
        self.classify_batch(keys, stride, out);
    }
}

impl<R> ServePlane for ClassifierHandle<R>
where
    R: Classifier + Send + Sync + 'static,
{
    type Pin = Arc<NmSnapshot<R>>;

    fn pin(&self) -> Self::Pin {
        self.snapshot()
    }
}

impl<R> PinnedPlane for Arc<NmSnapshot<R>>
where
    R: Classifier + Send + Sync,
{
    fn generation(&self) -> Generation {
        NmSnapshot::generation(self)
    }

    fn classify_batch(&self, keys: &[u64], stride: usize, out: &mut [Option<MatchResult>]) {
        Classifier::classify_batch(&**self, keys, stride, out);
    }
}
