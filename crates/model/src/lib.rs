//! `nm-model` — a loom-lite bounded interleaving explorer for the
//! workspace's hand-rolled concurrent protocols: the left-right
//! `shims/arc-swap` cell, the `Published` pin/publish cell that is each
//! handle's whole publication (so a sharded epoch has no second cell to
//! tear against), and the apply/retrain/replay protocol both handles run
//! under that cell's writer lock.
//!
//! [`explore`] runs a closure under a DFS over thread schedules: every
//! model operation (virtual atomic access, [`cell::RaceCell`] access,
//! mutex acquire, spawn/join, spin) is a decision point where the scheduler
//! picks which thread runs next, bounded by a preemption budget and pruned
//! by a state fingerprint. Within one schedule exactly one thread runs at a
//! time, so user code needs no real synchronization to be explored safely.
//!
//! # Memory model
//!
//! Schedules are sequentially consistent *per location*, with explicit
//! acquire/release edge tracking that makes ordering bugs observable:
//!
//! * every location keeps its full store history for the run; a `Release`
//!   store attaches a message (the writer's coherence floors), an
//!   `Acquire` load of that store joins it;
//! * `Relaxed`/`Acquire` loads branch over **every** store at or above the
//!   reader's floor — a missing release/acquire edge lets a reader observe
//!   stale values, which is exactly how a weakened ordering breaks an
//!   invariant here;
//! * `SeqCst` loads and all read-modify-writes read the latest store in
//!   modification order (stricter than C++ for loads, per-location only);
//! * non-atomic [`cell::RaceCell`] reads must be uniquely determined — if
//!   the reader's floor is below the latest store the read is flagged as a
//!   data race and the schedule fails.
//!
//! # What this does **not** cover
//!
//! * weak-memory reorderings beyond missing acquire/release edges (no store
//!   buffering: two SeqCst loads never both see stale values à la the
//!   classic store-buffer litmus test);
//! * schedules needing more preemptions than the bound
//!   (`NM_MODEL_PREEMPTIONS`, default 2);
//! * runs past the schedule cap (`NM_MODEL_MAX_SCHEDULES`) — [`Outcome`]
//!   reports whether exploration was exhaustive.
//!
//! Outside [`explore`], every virtual primitive delegates to its `std`
//! counterpart, so crates built with `--cfg nm_model` behave normally when
//! not under the checker.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Once};

mod scheduler;

pub mod cell;
pub mod sync;
pub mod thread;

pub use scheduler::Violation;

use scheduler::{Choice, ModelAbort, Scheduler};

/// Scheduling hints.
pub mod hint {
    use crate::ctx;
    use crate::scheduler::StepResult;

    /// Mirrors `std::hint::spin_loop`. Under exploration it forces the
    /// scheduler to run a *different* runnable thread when one exists (at
    /// no preemption cost), so busy-wait loops make progress instead of
    /// spinning forever in one schedule.
    pub fn spin_loop() {
        match ctx() {
            None => std::hint::spin_loop(),
            Some(c) => {
                c.sched.step(
                    c.tid,
                    true,
                    |_: &()| "spin".to_string(),
                    |g, me| {
                        g.mark_spun(me);
                        StepResult::Ready(())
                    },
                );
            }
        }
    }
}

/// The current thread's model context (set while it runs under a
/// scheduler).
#[derive(Clone)]
pub(crate) struct Ctx {
    pub(crate) sched: Arc<Scheduler>,
    pub(crate) tid: usize,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

pub(crate) fn ctx() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

/// Exploration limits; read from the environment by [`Config::from_env`].
#[derive(Clone, Debug)]
pub struct Config {
    /// Stop after this many schedules even if not exhaustive
    /// (`NM_MODEL_MAX_SCHEDULES`, default 20 000).
    pub max_schedules: usize,
    /// Preemption budget per schedule (`NM_MODEL_PREEMPTIONS`, default 2).
    pub preemption_bound: u32,
    /// Per-schedule operation cap; exceeding it fails the schedule as a
    /// livelock (`NM_MODEL_MAX_OPS`, default 50 000).
    pub max_ops_per_run: usize,
    /// State-fingerprint pruning (disable with `NM_MODEL_NO_PRUNE=1`).
    pub prune: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config { max_schedules: 20_000, preemption_bound: 2, max_ops_per_run: 50_000, prune: true }
    }
}

impl Config {
    /// The default limits overridden by `NM_MODEL_*` environment variables.
    pub fn from_env() -> Self {
        fn num<T: std::str::FromStr>(key: &str, default: T) -> T {
            std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
        }
        let d = Config::default();
        Config {
            max_schedules: num("NM_MODEL_MAX_SCHEDULES", d.max_schedules),
            preemption_bound: num("NM_MODEL_PREEMPTIONS", d.preemption_bound),
            max_ops_per_run: num("NM_MODEL_MAX_OPS", d.max_ops_per_run),
            prune: std::env::var("NM_MODEL_NO_PRUNE").is_err(),
        }
    }
}

/// Result of an exploration.
#[derive(Debug)]
pub struct Outcome {
    /// Schedules executed.
    pub schedules: usize,
    /// Whether every schedule within the preemption bound was covered
    /// (false when capped by `max_schedules` or stopped by a violation).
    pub complete: bool,
    /// The first violating schedule found, if any.
    pub violation: Option<Violation>,
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "thread panicked".to_string()
    }
}

/// Suppress default panic output for model threads: their panics are
/// reported through [`Violation`] instead.
fn install_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if ctx().is_none() {
                prev(info);
            }
        }));
    });
}

/// Body shared by the root thread and every spawned model thread.
pub(crate) fn run_model_thread(sched: Arc<Scheduler>, tid: usize, body: impl FnOnce()) {
    CTX.with(|c| *c.borrow_mut() = Some(Ctx { sched: sched.clone(), tid }));
    let r = catch_unwind(AssertUnwindSafe(|| {
        sched.first_wait(tid);
        body();
    }));
    CTX.with(|c| *c.borrow_mut() = None);
    let msg = match r {
        Ok(()) => None,
        Err(p) if p.downcast_ref::<ModelAbort>().is_some() => None,
        Err(p) => Some(panic_message(p.as_ref())),
    };
    sched.thread_exit(tid, msg);
}

/// The next DFS prefix: deepest decision with an unexplored branch,
/// incremented; `None` when the tree is exhausted.
fn next_prefix(trace: &[Choice]) -> Option<Vec<Choice>> {
    for i in (0..trace.len()).rev() {
        if trace[i].chosen + 1 < trace[i].n {
            let mut p = trace[..=i].to_vec();
            p[i].chosen += 1;
            return Some(p);
        }
    }
    None
}

/// Runs `f` once per schedule until the DFS is exhausted, a violation is
/// found, or `cfg.max_schedules` is reached.
pub fn explore<F>(cfg: &Config, f: F) -> Outcome
where
    F: Fn() + Send + Sync + 'static,
{
    assert!(ctx().is_none(), "nested explore() is not supported");
    install_panic_hook();
    let f = Arc::new(f);
    let mut prefix: Vec<Choice> = Vec::new();
    let mut visited: HashMap<u64, u32> = HashMap::new();
    let mut schedules = 0usize;
    loop {
        let sched = Arc::new(Scheduler::new(
            cfg.preemption_bound,
            cfg.max_ops_per_run,
            cfg.prune,
            std::mem::take(&mut prefix),
            std::mem::take(&mut visited),
        ));
        let tid = sched.register_root();
        let s2 = sched.clone();
        let f2 = f.clone();
        let root = std::thread::spawn(move || run_model_thread(s2, tid, move || f2()));
        sched.wait_done();
        let _ = root.join();
        schedules += 1;
        let (trace, violation, vis) = sched.take_results();
        visited = vis;
        if violation.is_some() {
            return Outcome { schedules, complete: false, violation };
        }
        match next_prefix(&trace) {
            None => return Outcome { schedules, complete: true, violation: None },
            Some(p) => prefix = p,
        }
        if schedules >= cfg.max_schedules.max(1) {
            return Outcome { schedules, complete: false, violation: None };
        }
    }
}

/// Explores `f` under [`Config::from_env`] and panics (with the violating
/// trace) if any schedule fails. Returns the outcome so callers can also
/// assert exhaustiveness.
pub fn check<F>(name: &str, f: F) -> Outcome
where
    F: Fn() + Send + Sync + 'static,
{
    let out = explore(&Config::from_env(), f);
    if let Some(v) = &out.violation {
        panic!(
            "model check '{name}' failed after {} schedule(s): {}\ntrace:\n  {}",
            out.schedules,
            v.message,
            v.trace.join("\n  ")
        );
    }
    out
}

/// Explores `f` expecting it to fail; returns the violation. Used by the
/// seeded-mutation "teeth" tests: a checker that finds nothing wrong with a
/// deliberately broken protocol is itself broken.
pub fn find_violation<F>(f: F) -> Option<Violation>
where
    F: Fn() + Send + Sync + 'static,
{
    explore(&Config::from_env(), f).violation
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use super::*;

    fn quick(max_schedules: usize) -> Config {
        Config { max_schedules, ..Config::default() }
    }

    #[test]
    fn counter_increments_are_atomic() {
        let out = explore(&quick(10_000), || {
            let n = Arc::new(AtomicUsize::new(0));
            let hs: Vec<_> = (0..2)
                .map(|_| {
                    let n = n.clone();
                    thread::spawn(move || {
                        n.fetch_add(1, Ordering::SeqCst);
                    })
                })
                .collect();
            for h in hs {
                h.join();
            }
            assert_eq!(n.load(Ordering::SeqCst), 2);
        });
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert!(out.complete, "expected exhaustive exploration");
        assert!(out.schedules > 1, "expected more than one interleaving");
    }

    #[test]
    fn message_passing_with_release_acquire_passes() {
        let out = explore(&quick(10_000), || {
            let data = Arc::new(cell::RaceCell::new(0u32));
            let flag = Arc::new(AtomicU64::new(0));
            let (d2, f2) = (data.clone(), flag.clone());
            let w = thread::spawn(move || {
                d2.set(42);
                f2.store(1, Ordering::Release);
            });
            let (d3, f3) = (data.clone(), flag.clone());
            let r = thread::spawn(move || {
                if f3.load(Ordering::Acquire) == 1 {
                    assert_eq!(d3.get(), 42, "acquire read must see the published data");
                }
            });
            w.join();
            r.join();
        });
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert!(out.complete);
    }

    #[test]
    fn message_passing_with_relaxed_flag_is_caught() {
        // The release edge removed: the reader can see flag == 1 while its
        // coherence floor for `data` is still at the initial store, so the
        // non-atomic read races. This is the semantics the seeded-mutation
        // teeth tests rely on.
        let v = find_violation(|| {
            let data = Arc::new(cell::RaceCell::new(0u32));
            let flag = Arc::new(AtomicU64::new(0));
            let (d2, f2) = (data.clone(), flag.clone());
            let w = thread::spawn(move || {
                d2.set(42);
                f2.store(1, Ordering::Relaxed); // BUG: no release edge
            });
            let (d3, f3) = (data.clone(), flag.clone());
            let r = thread::spawn(move || {
                if f3.load(Ordering::Acquire) == 1 {
                    let _ = d3.get();
                }
            });
            w.join();
            r.join();
        });
        let v = v.expect("the relaxed publication must be detected");
        assert!(v.message.contains("data race"), "unexpected violation: {}", v.message);
    }

    #[test]
    fn ab_ba_deadlock_is_detected() {
        let v = find_violation(|| {
            let a = Arc::new(sync::Mutex::new(()));
            let b = Arc::new(sync::Mutex::new(()));
            let (a2, b2) = (a.clone(), b.clone());
            let t = thread::spawn(move || {
                let _ga = a2.lock();
                let _gb = b2.lock();
            });
            {
                let _gb = b.lock();
                let _ga = a.lock();
            }
            t.join();
        });
        let v = v.expect("AB-BA ordering must deadlock in some schedule");
        assert!(v.message.contains("deadlock"), "unexpected violation: {}", v.message);
    }

    #[test]
    fn spin_wait_terminates_under_forced_yield() {
        let out = explore(&quick(10_000), || {
            let flag = Arc::new(AtomicU64::new(0));
            let f2 = flag.clone();
            let t = thread::spawn(move || {
                f2.store(1, Ordering::Release);
            });
            while flag.load(Ordering::Acquire) != 1 {
                hint::spin_loop();
            }
            t.join();
        });
        assert!(out.violation.is_none(), "{:?}", out.violation);
    }

    #[test]
    fn stale_relaxed_loads_branch_over_history() {
        // A Relaxed load may observe any store at or above its floor; with
        // no synchronization at all, reading 0 after the writer stored 1 is
        // a legal (and explored) outcome — so asserting the fresh value
        // must fail in some schedule.
        let v = find_violation(|| {
            let x = Arc::new(AtomicU64::new(0));
            let x2 = x.clone();
            let t = thread::spawn(move || x2.store(1, Ordering::Relaxed));
            t.join();
            // After join the child's own writes are visible (join edge),
            // so re-read through a second thread with no such edge.
            let x3 = x.clone();
            let r = thread::spawn(move || x3.load(Ordering::Relaxed));
            let _ = r.join();
        });
        assert!(v.is_none(), "join inheritance should make this pass: {v:?}");

        let v = find_violation(|| {
            let x = Arc::new(AtomicU64::new(0));
            let x2 = x.clone();
            let t = thread::spawn(move || x2.store(1, Ordering::Relaxed));
            let got = x.load(Ordering::Relaxed);
            t.join();
            // `got` may legitimately be 0 or 1; claiming it is always 1
            // must be refuted by the explorer.
            assert_eq!(got, 1);
        });
        assert!(v.is_some(), "a stale relaxed read should be explored");
    }

    #[test]
    fn outside_exploration_primitives_delegate_to_std() {
        let n = AtomicUsize::new(3);
        assert_eq!(n.fetch_add(2, Ordering::SeqCst), 3);
        assert_eq!(n.load(Ordering::SeqCst), 5);
        let c = cell::RaceCell::new(7u8);
        assert_eq!(c.replace(9), 7);
        assert_eq!(c.get(), 9);
        let m = sync::Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        let h = thread::spawn(|| 11usize);
        assert_eq!(h.join(), 11);
    }
}
