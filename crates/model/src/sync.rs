//! Model replacements for `std::sync` primitives.
//!
//! Outside an exploration every type delegates straight to its `std`
//! counterpart, so code built with `--cfg nm_model` still behaves normally
//! when not running under [`crate::check`]. Inside an exploration each
//! access becomes a scheduler decision point with the store-history
//! semantics described in the crate docs.

use std::sync::atomic::{AtomicU64 as StdU64, Ordering};

use crate::scheduler::{RunState, StepResult};
use crate::{ctx, Ctx};

pub use std::sync::Arc;

/// Packs `(run uid, location id + 1)` so a primitive registers itself once
/// per run and re-registers (with fresh history) on the next run. Only the
/// token-holding thread touches the key during a run, so plain SeqCst
/// accesses are race-free.
struct LocKey(StdU64);

impl LocKey {
    const fn new() -> Self {
        LocKey(StdU64::new(0))
    }

    fn get(&self, uid: u64) -> Option<usize> {
        let k = self.0.load(Ordering::SeqCst);
        (k >> 32 == uid && (k & 0xffff_ffff) != 0).then(|| (k & 0xffff_ffff) as usize - 1)
    }

    fn set(&self, uid: u64, loc: usize) {
        self.0.store(uid << 32 | (loc as u64 + 1), Ordering::SeqCst);
    }
}

macro_rules! model_atomic {
    ($name:ident, $std:ty, $raw:ty) => {
        /// Model counterpart of the same-named `std::sync::atomic` type.
        pub struct $name {
            std: $std,
            key: LocKey,
        }

        impl $name {
            /// Creates the atomic holding `v`.
            pub const fn new(v: $raw) -> Self {
                Self { std: <$std>::new(v), key: LocKey::new() }
            }

            fn loc(&self, c: &Ctx, g: &mut RunState) -> usize {
                match self.key.get(c.sched.uid) {
                    Some(loc) => loc,
                    None => {
                        let seed = self.std.load(Ordering::SeqCst) as u64;
                        let loc = g.register_loc(seed);
                        self.key.set(c.sched.uid, loc);
                        loc
                    }
                }
            }

            /// Mirrors [`std::sync::atomic`] `load`.
            pub fn load(&self, ord: Ordering) -> $raw {
                match ctx() {
                    None => self.std.load(ord),
                    Some(c) => {
                        let v = c.sched.step(
                            c.tid,
                            false,
                            |v| format!("load({ord:?}) = {v}"),
                            |g, me| {
                                let loc = self.loc(&c, g);
                                StepResult::Ready(g.atomic_load(me, loc, ord))
                            },
                        );
                        v as $raw
                    }
                }
            }

            /// Mirrors [`std::sync::atomic`] `store`.
            pub fn store(&self, v: $raw, ord: Ordering) {
                match ctx() {
                    None => self.std.store(v, ord),
                    Some(c) => {
                        c.sched.step(
                            c.tid,
                            false,
                            |_: &()| format!("store({ord:?}) {v:?}"),
                            |g, me| {
                                let loc = self.loc(&c, g);
                                g.atomic_store(me, loc, v as u64, ord);
                                StepResult::Ready(())
                            },
                        );
                        self.std.store(v, Ordering::SeqCst);
                    }
                }
            }

            /// Mirrors [`std::sync::atomic`] `fetch_add` (wrapping).
            pub fn fetch_add(&self, v: $raw, ord: Ordering) -> $raw {
                match ctx() {
                    None => self.std.fetch_add(v, ord),
                    Some(c) => self.rmw(c, ord, |x| x.wrapping_add(v), v, "fetch_add"),
                }
            }

            /// Mirrors [`std::sync::atomic`] `fetch_sub` (wrapping).
            pub fn fetch_sub(&self, v: $raw, ord: Ordering) -> $raw {
                match ctx() {
                    None => self.std.fetch_sub(v, ord),
                    Some(c) => self.rmw(c, ord, |x| x.wrapping_sub(v), v, "fetch_sub"),
                }
            }

            fn rmw(
                &self,
                c: Ctx,
                ord: Ordering,
                f: impl Fn($raw) -> $raw,
                arg: $raw,
                name: &str,
            ) -> $raw {
                let old = c.sched.step(
                    c.tid,
                    false,
                    |o| format!("{name}({arg}, {ord:?}) -> {o}"),
                    |g, me| {
                        let loc = self.loc(&c, g);
                        StepResult::Ready(g.atomic_rmw(me, loc, ord, |x| f(x as $raw) as u64))
                    },
                );
                let old = old as $raw;
                self.std.store(f(old), Ordering::SeqCst);
                old
            }
        }
    };
}

/// Virtual atomics with acquire/release edge tracking.
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    use super::*;

    model_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
    model_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
}

/// Model mutex: blocking is mediated by the scheduler (with deadlock
/// detection), and lock/unlock carry a release/acquire edge exactly like a
/// real mutex.
pub struct Mutex<T> {
    data: std::sync::Mutex<T>,
    key: LocKey,
}

/// Guard returned by [`Mutex::lock`]; releases the model lock on drop.
pub struct MutexGuard<'a, T> {
    model: Option<(Ctx, usize)>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Creates the mutex holding `v`.
    pub const fn new(v: T) -> Self {
        Self { data: std::sync::Mutex::new(v), key: LocKey::new() }
    }

    fn data_guard(&self) -> std::sync::MutexGuard<'_, T> {
        // A model thread unwinding on an aborted schedule poisons the std
        // mutex; the model-level lock state is what guarantees exclusion,
        // so poison is only a stale flag here.
        self.data.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Mirrors `std::sync::Mutex::lock` (panics never propagate poison).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match ctx() {
            None => MutexGuard { model: None, inner: Some(self.data_guard()) },
            Some(c) => {
                let mid = c.sched.with_state(|g| match self.key.get(c.sched.uid) {
                    Some(m) => m,
                    None => {
                        let m = g.register_mutex();
                        self.key.set(c.sched.uid, m);
                        m
                    }
                });
                c.sched.step(
                    c.tid,
                    false,
                    |_: &()| format!("lock m{mid}"),
                    |g, me| g.mutex_try_acquire(me, mid),
                );
                MutexGuard { model: Some((c, mid)), inner: Some(self.data_guard()) }
            }
        }
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the lock until drop")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard holds the lock until drop")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Drop the std guard first, then release the model lock: no other
        // model thread can run between the two (we hold the token and
        // release is not a decision point), and the std mutex must be free
        // before the scheduler lets a blocked thread retry its acquire.
        self.inner = None;
        if let Some((c, mid)) = self.model.take() {
            c.sched.mutex_unlock(c.tid, mid);
        }
    }
}
