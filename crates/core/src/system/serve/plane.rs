//! The data-plane abstraction the serve front-end batches into.
//!
//! Three traits describe a plane, each for one question:
//!
//! * [`ServePlane`] — *how do I get one generation?* A flushed batch must
//!   classify against **one** pinned generation — the coherence contract
//!   the response `generation` field advertises and the oracle validator
//!   checks. [`ServePlane::pin`] captures whatever "one generation" means
//!   for the engine: a snapshot `Arc` for a plain [`ClassifierHandle`], an
//!   `Arc` of one stamped
//!   [`ShardEpoch`](crate::system::runtime::ShardEpoch) for the sharded
//!   handle (the impls live beside the epoch in `runtime::sharded`) — both
//!   statically dispatched; they are the wire hot path.
//! * [`PinnedPlane`] — *what can I do with it?* Read its generation and
//!   classify a batch whole: exactly what the serve readers call, nothing
//!   else. Planes that cannot change — a static
//!   [`ShardedClassifier`](crate::system::runtime::ShardedClassifier), a
//!   shared `&dyn Classifier` — pin as the plain reference: the trait is
//!   implemented for the reference itself, there is no wrapper type.
//! * [`ShardedDataPlane`](crate::system::runtime::ShardedDataPlane) — *how
//!   does [`Runtime::run`](crate::system::runtime::Runtime::run) spread it
//!   over workers?* How many shards, where a packet steers, and what shard
//!   `s` computes from a pin.
//!
//! Two do not suffice, because the last answer is not a property of the
//! pin: the same pin type, `Arc<NmSnapshot<R>>`, is classified whole when a
//! [`ClassifierHandle`] serves the wire and split into its iSet and
//! remainder halves under
//! [`SplitPlan`](crate::system::runtime::SplitPlan). Which shard computes
//! what belongs to the plan, so per-shard dispatch lives on
//! `ShardedDataPlane` and a pin stays the two methods below.

use std::sync::Arc;

use nm_common::classifier::{Classifier, MatchResult};
use nm_common::update::{Generation, Snapshot};

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

/// A published snapshot — a plain handle's `NuevoMatch` or a sharded
/// handle's epoch — pins as the `Arc` itself and reports its stamp.
impl<C: Classifier> PinnedPlane for Arc<Snapshot<C>> {
    fn generation(&self) -> Generation {
        Snapshot::generation(self)
    }

    fn classify_batch(&self, keys: &[u64], stride: usize, out: &mut [Option<MatchResult>]) {
        Classifier::classify_batch(&**self, keys, stride, out);
    }
}
