//! The control plane's one publication cell (paper §3.9).
//!
//! The lifecycle — readers never block, updates drift rules to the
//! remainder, a retrain republishes fresh RQ-RMI models — needs exactly one
//! mechanism: atomically publish a generation-stamped immutable value and
//! let a reader pin it. [`Published`] is that mechanism, and each handle is
//! one cell: [`ClassifierHandle`](super::handle::ClassifierHandle) (payload:
//! one `NuevoMatch`) and [`ShardedHandle`](super::runtime::ShardedHandle)
//! (payload: one cross-shard [`ShardEpoch`](super::runtime::ShardEpoch), a
//! `NuevoMatch` per shard). The engines inside a payload are unversioned.
//!
//! * The live value is an [`ArcSwap`] of [`Snapshot`]s: the stamp is stored
//!   *with* the payload, so one atomic store publishes both and
//!   [`Published::generation`] can never disagree with what a pin reports.
//! * Readers [`Published::pin`] (two atomic ops, never a lock).
//! * Publishing exists only on the [`WriteGuard`], i.e. behind the writer
//!   mutex that also guards the control state `W` — "single writer" is
//!   enforced by the type, not by a comment at each call site.
//!   [`WriteGuard::publish`] is the only code in the system that mints a
//!   generation.
//!
//! # Model checking
//!
//! Built with `--cfg nm_model` the writer mutex is `nm_model`'s (the facade
//! trick `shims/arc-swap` uses for its own primitives), so the `model_*`
//! tests below explore bounded interleavings of this very cell — the code
//! the handles run — with integer payloads.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use arc_swap::ArcSwap;
use nm_common::update::{Generation, Snapshot};

#[cfg(nm_model)]
use nm_model::sync::{Mutex, MutexGuard};
#[cfg(not(nm_model))]
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A generation-stamped immutable `T`, atomically replaceable by a single
/// writer that also owns the control state `W`.
pub struct Published<T, W> {
    live: ArcSwap<Snapshot<T>>,
    ctl: Mutex<W>,
}

impl<T, W> Published<T, W> {
    /// A cell publishing `payload` at `generation`, with control state `ctl`.
    pub fn new(payload: T, generation: Generation, ctl: W) -> Self {
        Self {
            live: ArcSwap::new(Arc::new(Snapshot::new(payload, generation))),
            ctl: Mutex::new(ctl),
        }
    }

    /// Pins the live snapshot. Never blocks (two atomic ops); the returned
    /// `Arc` keeps that generation alive for as long as the reader holds it.
    #[inline]
    pub fn pin(&self) -> Arc<Snapshot<T>> {
        self.live.load_full()
    }

    /// The published generation, read off the live snapshot itself: pin
    /// first and `generation() >= pin.generation()` holds at every instant;
    /// read first and a later pin carries at least that stamp.
    #[inline]
    pub fn generation(&self) -> Generation {
        self.live.load().generation()
    }

    /// Takes the writer lock. Writers serialise here; readers never do.
    ///
    /// A writer that panicked while holding the lock does not poison it for
    /// the next: a panic mid-replay unwinds into `InFlight::drop`, which must
    /// lock again to clear the replay queue, and a second panic there would
    /// abort the process.
    pub fn write(&self) -> WriteGuard<'_, T, W> {
        #[cfg(not(nm_model))]
        let ctl = self.ctl.lock().unwrap_or_else(PoisonError::into_inner);
        #[cfg(nm_model)]
        let ctl = self.ctl.lock();
        WriteGuard { live: &self.live, ctl }
    }
}

/// The single writer: exclusive access to the control state `W` (through
/// `Deref`) and the only way to publish.
pub struct WriteGuard<'a, T, W> {
    live: &'a ArcSwap<Snapshot<T>>,
    ctl: MutexGuard<'a, W>,
}

impl<T, W> WriteGuard<'_, T, W> {
    /// Publishes `payload` under the next generation and returns its stamp.
    pub fn publish(&mut self, payload: T) -> Generation {
        let generation = self.live.load().generation() + 1;
        self.live.store(Arc::new(Snapshot::new(payload, generation)));
        generation
    }
}

impl<T, W> Deref for WriteGuard<'_, T, W> {
    type Target = W;

    fn deref(&self) -> &W {
        &self.ctl
    }
}

impl<T, W> DerefMut for WriteGuard<'_, T, W> {
    fn deref_mut(&mut self) -> &mut W {
        &mut self.ctl
    }
}

/// Model-checker tests (compiled only under `--cfg nm_model`): every
/// bounded interleaving of ≥2 readers against 1 writer over the production
/// cell. Payloads are integers keyed to the stamp, so a reader can tell
/// whether stamp and payload came from one store.
#[cfg(all(test, nm_model))]
mod model_tests {
    use super::*;
    use nm_model::thread;

    /// Generation monotone per reader, and generation leads the pin both
    /// ways, under 2 readers + 1 writer.
    #[cfg(not(nm_model_mutate))]
    #[test]
    fn model_handle_generation_leads_never_trails() {
        let out = nm_model::check("cell pin/publish", || {
            let h = Arc::new(Published::new(100u64, 1, ()));
            let mut readers = Vec::new();
            for _ in 0..2 {
                let h = Arc::clone(&h);
                readers.push(thread::spawn(move || {
                    // Pin first, then read the reported generation: the
                    // report must be at least the pinned stamp.
                    let snap = h.pin();
                    let g1 = h.generation();
                    assert!(
                        g1 >= snap.generation(),
                        "generation() trailed a pinned snapshot: {g1} < {}",
                        snap.generation()
                    );
                    // Read the generation, then pin: the pin must carry at
                    // least the reported stamp.
                    let g2 = h.generation();
                    assert!(g2 >= g1, "reader generation went backwards: {g1} -> {g2}");
                    let snap2 = h.pin();
                    assert!(
                        snap2.generation() >= g2,
                        "a pin trailed generation(): {} < {g2}",
                        snap2.generation()
                    );
                    // Stamp and payload publish atomically together.
                    assert_eq!(*snap2.engine(), 99 + snap2.generation());
                }));
            }
            let writer = {
                let h = Arc::clone(&h);
                thread::spawn(move || {
                    assert_eq!(h.write().publish(101), 2);
                    assert_eq!(h.write().publish(102), 3);
                })
            };
            for r in readers {
                r.join();
            }
            writer.join();
            assert_eq!(h.generation(), 3);
        });
        assert!(out.schedules > 1, "exploration degenerated to one schedule");
    }

    /// Reclamation safety of the two-slot swap: a pinned snapshot's payload
    /// survives while later publishes recycle both slots beneath it.
    #[cfg(not(nm_model_mutate))]
    #[test]
    fn model_pinned_snapshot_outlives_slot_recycling() {
        nm_model::check("pinned snapshot reclamation", || {
            let h = Arc::new(Published::new(7u64, 1, ()));
            let pinned = h.pin();
            let writer = {
                let h = Arc::clone(&h);
                thread::spawn(move || {
                    // Two publishes cycle through both left-right slots.
                    h.write().publish(8);
                    h.write().publish(9);
                })
            };
            let reader = {
                let pinned = Arc::clone(&pinned);
                thread::spawn(move || {
                    assert_eq!(*pinned.engine(), 7, "pinned payload changed under the reader");
                    assert_eq!(pinned.generation(), 1);
                })
            };
            reader.join();
            writer.join();
            assert_eq!(*pinned.engine(), 7);
            assert_eq!(*h.pin().engine(), 9);
        });
    }

    /// With the seeded arc-swap mutation (`--cfg nm_model_mutate`), the
    /// cell must also surface a violation — the weakened flip breaks
    /// exactly the pin/publish publication it relies on.
    #[cfg(nm_model_mutate)]
    #[test]
    fn model_mutation_breaks_handle_publication() {
        let v = nm_model::find_violation(|| {
            let h = Arc::new(Published::new(100u64, 1, ()));
            let reader = {
                let h = Arc::clone(&h);
                thread::spawn(move || {
                    let snap = h.pin();
                    assert!(snap.generation() >= 1);
                })
            };
            h.write().publish(101);
            reader.join();
        })
        .expect("the Relaxed current-flip must surface through the publication cell");
        assert!(v.message.contains("data race"), "unexpected violation kind: {}", v.message);
    }
}
