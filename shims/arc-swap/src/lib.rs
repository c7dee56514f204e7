//! Offline stand-in for `arc-swap`.
//!
//! Provides the piece the workspace's control-plane/data-plane split uses:
//! [`ArcSwap`], a shared slot holding an `Arc<T>` that readers can `load`
//! without ever blocking while a writer atomically replaces the value.
//!
//! The real crate implements this with hazard-pointer-style debt tracking;
//! this shim uses the *left-right* two-slot scheme, which needs only
//! atomics and is simple enough to audit:
//!
//! * Two slots each hold an `Arc<T>` plus a reader registration counter;
//!   an atomic `current` index names the live slot.
//! * **Readers** register on the current slot (counter increment), re-check
//!   that the slot is still current (a concurrent writer may have swapped
//!   between the two steps — then they deregister and retry), clone the
//!   `Arc`, and deregister. No locks, no syscalls; a retry can only be
//!   forced once per concurrent `store`, so the load is wait-free in the
//!   absence of writers and lock-free under them.
//! * **Writers** (serialised by a mutex — swap traffic is control-plane
//!   rate, not packet rate) wait for stragglers to drain off the *standby*
//!   slot, write the new `Arc` into it, and flip `current`. The previous
//!   value stays parked in the standby slot until the *next* store
//!   overwrites it, so at most one superseded snapshot is kept alive —
//!   that is the price of never making readers wait.
//!
//! Memory ordering: `SeqCst` throughout. The swap path runs at most a few
//! thousand times per second; buying ordering headroom with weaker
//! orderings here would be all risk and no measurable reward.
//!
//! # Model checking
//!
//! Built with `--cfg nm_model`, every synchronization primitive here is
//! swapped for its `nm_model` twin and the `UnsafeCell` slot payloads
//! become race-checked cells, so the whole left-right protocol runs under
//! the bounded model checker (`cargo test` then exercises the `model_*`
//! tests). Adding `--cfg nm_model_mutate` weakens the writer's `current`
//! flip to `Relaxed` — a seeded bug that the model tests must detect; see
//! `flip_ordering`.

#![warn(missing_docs)]

use std::sync::atomic::Ordering;
use std::sync::Arc;

#[cfg(not(nm_model))]
use std::{hint::spin_loop, sync::atomic::AtomicUsize, sync::Mutex};

#[cfg(nm_model)]
use nm_model::{hint::spin_loop, sync::atomic::AtomicUsize, sync::Mutex};

/// Ordering of the writer's `current` flip (the store that publishes a new
/// snapshot to readers).
///
/// Under `--cfg nm_model_mutate` this weakens to `Relaxed`, deliberately
/// dropping the release edge that makes the freshly written slot payload
/// visible to readers. The model test
/// `model_mutation_weakened_flip_is_caught` asserts the checker flags the
/// resulting race — the "teeth test" proving the model would catch a real
/// ordering regression on this line.
fn flip_ordering() -> Ordering {
    if cfg!(nm_model_mutate) {
        Ordering::Relaxed
    } else {
        Ordering::SeqCst
    }
}

const SEQ: Ordering = Ordering::SeqCst;

#[cfg(not(nm_model))]
mod payload {
    use std::cell::UnsafeCell;
    use std::sync::Arc;

    /// A slot's payload: interior-mutable, guarded by the left-right
    /// protocol rather than a lock.
    pub(crate) struct Payload<T>(UnsafeCell<Option<Arc<T>>>);

    impl<T> Payload<T> {
        pub(crate) fn new(v: Option<Arc<T>>) -> Self {
            Self(UnsafeCell::new(v))
        }

        /// Clones the held `Arc` out of the cell.
        ///
        /// # Safety
        ///
        /// The caller must hold left-right read permission on the slot:
        /// either it is a reader that registered on the slot and re-verified
        /// the slot is still current *after* registering (the writer drains
        /// registered readers before mutating a standby slot, so no mutation
        /// can be concurrent), or it is the serialised writer itself.
        pub(crate) unsafe fn clone_inner(&self) -> Option<Arc<T>> {
            // SAFETY: the function contract rules out a concurrent
            // `replace`, so the shared read cannot tear.
            unsafe { (*self.0.get()).clone() }
        }

        /// Replaces the cell contents, returning the previous value.
        ///
        /// # Safety
        ///
        /// The caller must be the serialised writer, and the slot must be
        /// standby with zero registered readers (drained), so no reader can
        /// observe the mutation.
        pub(crate) unsafe fn replace(&self, v: Option<Arc<T>>) -> Option<Arc<T>> {
            // SAFETY: the function contract gives the writer exclusive
            // access to the cell for the duration of the call.
            unsafe { std::mem::replace(&mut *self.0.get(), v) }
        }
    }
}

#[cfg(nm_model)]
mod payload {
    use nm_model::cell::RaceCell;
    use std::sync::Arc;

    /// Model twin of the slot payload: a race-checked cell, so the model
    /// checker itself verifies the left-right invariants the real build's
    /// `unsafe` blocks assume.
    pub(crate) struct Payload<T>(RaceCell<Option<Arc<T>>>);

    impl<T> Payload<T> {
        pub(crate) fn new(v: Option<Arc<T>>) -> Self {
            Self(RaceCell::new(v))
        }

        /// Clones the held `Arc` out of the cell.
        ///
        /// # Safety
        ///
        /// None needed — the model cell flags any racy access itself; the
        /// signature stays `unsafe` so call sites are identical in both
        /// builds.
        pub(crate) unsafe fn clone_inner(&self) -> Option<Arc<T>> {
            self.0.get()
        }

        /// Replaces the cell contents, returning the previous value.
        ///
        /// # Safety
        ///
        /// None needed — see [`Payload::clone_inner`].
        pub(crate) unsafe fn replace(&self, v: Option<Arc<T>>) -> Option<Arc<T>> {
            self.0.replace(v)
        }
    }
}

use payload::Payload;

struct Slot<T> {
    /// Written only by the single active writer, and only while the slot is
    /// standby with zero registered readers; read by readers only while
    /// registered on a slot they re-verified as current.
    value: Payload<T>,
    readers: AtomicUsize,
}

/// An atomic storage cell for an `Arc<T>` with never-blocking readers.
///
/// Mirrors the `arc_swap::ArcSwap` API surface the workspace needs:
/// [`ArcSwap::new`], [`ArcSwap::load_full`], [`ArcSwap::store`] and
/// [`ArcSwap::swap`].
pub struct ArcSwap<T> {
    slots: [Slot<T>; 2],
    current: AtomicUsize,
    /// Serialises writers; never touched by readers.
    write_lock: Mutex<()>,
}

// SAFETY: the cell hands out `Arc<T>` clones across threads and `T` is
// never dropped or mutated in place, so the usual `Arc` bounds
// (`T: Send + Sync`) are exactly what is required; the interior mutability
// is guarded by the left-right protocol documented on `Slot::value`.
unsafe impl<T: Send + Sync> Send for ArcSwap<T> {}
// SAFETY: as above — shared references only ever clone `Arc`s out under
// the reader registration protocol.
unsafe impl<T: Send + Sync> Sync for ArcSwap<T> {}

impl<T> ArcSwap<T> {
    /// Creates the cell holding `value`.
    pub fn new(value: Arc<T>) -> Self {
        Self {
            slots: [
                Slot { value: Payload::new(Some(value)), readers: AtomicUsize::new(0) },
                Slot { value: Payload::new(None), readers: AtomicUsize::new(0) },
            ],
            current: AtomicUsize::new(0),
            write_lock: Mutex::new(()),
        }
    }

    /// Wraps `value` in an `Arc` and creates the cell (convenience matching
    /// `arc_swap::ArcSwap::from_pointee`).
    pub fn from_pointee(value: T) -> Self {
        Self::new(Arc::new(value))
    }

    /// Returns a clone of the current `Arc` without ever blocking.
    ///
    /// At most one retry per concurrent [`ArcSwap::store`] can occur; with
    /// no writer in flight the fast path is two atomic ops and an `Arc`
    /// clone.
    pub fn load_full(&self) -> Arc<T> {
        loop {
            let idx = self.current.load(SEQ);
            let slot = &self.slots[idx];
            slot.readers.fetch_add(1, SEQ);
            if self.current.load(SEQ) == idx {
                // SAFETY: the slot was current *after* we registered, so the
                // writer path (which drains readers before touching a
                // standby slot's value) cannot be mutating it concurrently.
                let arc = unsafe { slot.value.clone_inner() }.expect("current slot holds a value");
                slot.readers.fetch_sub(1, SEQ);
                return arc;
            }
            // A store flipped `current` between our two reads; back off the
            // stale slot and retry against the new one.
            slot.readers.fetch_sub(1, SEQ);
            spin_loop();
        }
    }

    /// Alias for [`ArcSwap::load_full`] (the real crate's `load` returns a
    /// guard; every call site here wants an owned `Arc` anyway).
    pub fn load(&self) -> Arc<T> {
        self.load_full()
    }

    /// Atomically publishes `value`; readers see either the old or the new
    /// `Arc`, never anything in between.
    pub fn store(&self, value: Arc<T>) {
        drop(self.swap(value));
    }

    /// [`ArcSwap::store`] that also returns the replaced `Arc`.
    pub fn swap(&self, value: Arc<T>) -> Arc<T> {
        #[cfg(not(nm_model))]
        let _guard = self.write_lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        #[cfg(nm_model)]
        let _guard = self.write_lock.lock();
        let cur = self.current.load(SEQ);
        let next = 1 - cur;
        // Wait out stragglers still registered on the standby slot. Only
        // readers that loaded `current` *two* flips ago can be here, and
        // they deregister as soon as their re-check fails, so this drains in
        // bounded time — and it is the writer waiting, never a reader.
        while self.slots[next].readers.load(SEQ) != 0 {
            spin_loop();
        }
        // SAFETY: we are the serialised writer (holding `write_lock`) and
        // the standby slot just drained to zero registered readers, so the
        // replace is exclusive.
        let old_standby = unsafe { self.slots[next].value.replace(Some(value)) };
        self.current.store(next, flip_ordering());
        // `old_standby` is the snapshot superseded by the *previous* store;
        // the one we just retired stays parked in `slots[cur]` until the
        // next call reclaims it. Returning the freshest retired value would
        // require draining `slots[cur]` here, which would make writers wait
        // on *current* readers; handing back the older generation keeps the
        // writer wait bounded and is all the call sites need (they drop it).
        old_standby.unwrap_or_else(|| {
            // SAFETY: first-ever store — the standby slot was empty, so the
            // retired snapshot is the one still parked in the old current
            // slot, which only we (the serialised writer) may mutate; a
            // shared clone racing reader loads is fine.
            unsafe { self.slots[cur].value.clone_inner() }.expect("initial slot holds a value")
        })
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ArcSwap<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArcSwap").field("value", &self.load_full()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::atomic::Ordering::SeqCst;

    #[test]
    fn load_returns_stored_value() {
        let cell = ArcSwap::from_pointee(7usize);
        assert_eq!(*cell.load_full(), 7);
        cell.store(Arc::new(8));
        assert_eq!(*cell.load_full(), 8);
        cell.store(Arc::new(9));
        assert_eq!(*cell.load(), 9);
    }

    #[test]
    fn swap_returns_a_retired_arc() {
        let cell = ArcSwap::from_pointee(1usize);
        let old = cell.swap(Arc::new(2));
        assert_eq!(*old, 1);
        // Second swap returns the generation parked by the first.
        let old = cell.swap(Arc::new(3));
        assert_eq!(*old, 1);
        let old = cell.swap(Arc::new(4));
        assert_eq!(*old, 2);
        assert_eq!(*cell.load_full(), 4);
    }

    #[test]
    fn concurrent_loads_and_stores_stay_coherent() {
        // Readers hammer load_full while a writer publishes monotonically
        // increasing values; every observed value must be one the writer
        // published, and per-reader observations must be monotone.
        let cell = Arc::new(ArcSwap::from_pointee(0u64));
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let cell = cell.clone();
            let stop = stop.clone();
            handles.push(std::thread::spawn(move || {
                let mut last = 0u64;
                let mut seen = 0usize;
                // Load-then-check so every reader samples at least once even
                // if it is scheduled after the writer finishes.
                loop {
                    let v = *cell.load_full();
                    assert!(v >= last, "went backwards: {last} -> {v}");
                    last = v;
                    seen += 1;
                    if stop.load(SeqCst) {
                        break;
                    }
                }
                seen
            }));
        }
        for i in 1..=10_000u64 {
            cell.store(Arc::new(i));
        }
        stop.store(true, SeqCst);
        for h in handles {
            assert!(h.join().unwrap() > 0);
        }
        assert_eq!(*cell.load_full(), 10_000);
    }

    #[test]
    fn old_snapshots_survive_while_held() {
        let cell = ArcSwap::from_pointee(vec![1, 2, 3]);
        let pinned = cell.load_full();
        cell.store(Arc::new(vec![4]));
        cell.store(Arc::new(vec![5]));
        cell.store(Arc::new(vec![6]));
        // The pinned reader still sees its generation untouched.
        assert_eq!(*pinned, vec![1, 2, 3]);
        assert_eq!(*cell.load_full(), vec![6]);
    }
}

/// Exhaustive bounded model checking of the left-right protocol. Built (and
/// run) only under `--cfg nm_model`; see the crate docs.
#[cfg(all(test, nm_model))]
mod model_tests {
    use super::*;
    use nm_model::thread;

    /// Two readers each sampling twice while a writer publishes 1 then 2:
    /// every observation must be a published value, observations must be
    /// per-reader monotone, and no slot access may race.
    fn readers_and_writer() {
        let cell = Arc::new(ArcSwap::from_pointee(0u64));
        let mut readers = Vec::new();
        for _ in 0..2 {
            let cell = Arc::clone(&cell);
            readers.push(thread::spawn(move || {
                let mut last = 0u64;
                for _ in 0..2 {
                    let v = *cell.load_full();
                    assert!(v >= last, "reader went backwards: {last} -> {v}");
                    assert!(v <= 2, "observed {v}, which was never published");
                    last = v;
                }
            }));
        }
        let writer = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || {
                cell.store(Arc::new(1));
                cell.store(Arc::new(2));
            })
        };
        for r in readers {
            r.join();
        }
        writer.join();
        assert_eq!(*cell.load_full(), 2);
    }

    #[cfg(not(nm_model_mutate))]
    #[test]
    fn model_concurrent_loads_and_stores_are_race_free() {
        let out = nm_model::check("arc-swap left-right", readers_and_writer);
        assert!(out.schedules > 1, "exploration degenerated to one schedule");
    }

    #[cfg(not(nm_model_mutate))]
    #[test]
    fn model_pinned_snapshot_survives_stores() {
        nm_model::check("arc-swap pinned snapshot", || {
            let cell = Arc::new(ArcSwap::from_pointee(10u64));
            let pinned = cell.load_full();
            let writer = {
                let cell = Arc::clone(&cell);
                thread::spawn(move || {
                    cell.store(Arc::new(11));
                    cell.store(Arc::new(12));
                })
            };
            // The pinned snapshot must stay intact while both slots are
            // recycled under it.
            assert_eq!(*pinned, 10);
            writer.join();
            assert_eq!(*pinned, 10);
            assert_eq!(*cell.load_full(), 12);
        });
    }

    /// The teeth test: with the seeded mutation (`--cfg nm_model_mutate`)
    /// weakening the writer's `current` flip to `Relaxed`, the checker must
    /// find a violation — proof the model would catch a real ordering
    /// regression at that site.
    #[cfg(nm_model_mutate)]
    #[test]
    fn model_mutation_weakened_flip_is_caught() {
        let v = nm_model::find_violation(readers_and_writer)
            .expect("the Relaxed current-flip must surface as a model violation");
        assert!(
            v.message.contains("data race") || v.message.contains("backwards"),
            "unexpected violation kind: {}",
            v.message
        );
    }
}
