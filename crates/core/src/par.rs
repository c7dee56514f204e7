//! The one way build work runs side by side: scoped threads drawn from one
//! process-wide budget of `available_parallelism() - 1` helpers.
//!
//! Every concurrent step of a build goes through [`map`] or [`join`]: the
//! partition's per-field scans, a stage's fits (each leaf's whole Figure-5
//! loop), a partial retrain's leaf refits, the iSets beside the remainder. The calling thread always works
//! too, and it adds a helper only while the budget has room, re-checking
//! before every item it takes. So nested calls (a stage's fits inside an
//! iSet's training) never run more threads than the machine has cores, a
//! call that finds the budget spent runs on its caller, and a helper freed
//! elsewhere is picked up at the next item. A sharded retrain's shard
//! threads build through the same budget, so N shards add N callers, not N
//! times the cores. There is nothing to configure.
//!
//! Results come back in input order, and no task may depend on which thread
//! ran it: a build is byte-identical on one core or many. A panic in a
//! helper is re-raised on the caller with its own payload
//! ([`std::panic::resume_unwind`]), as if the task had run there.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::OnceLock;
use std::thread;

/// Helper threads running in the whole process, across every call.
static HELPERS: AtomicUsize = AtomicUsize::new(0);

/// Helpers the budget allows: one fewer than the cores, as every caller
/// works too.
fn budget() -> usize {
    static BUDGET: OnceLock<usize> = OnceLock::new();
    *BUDGET.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()) - 1)
}

/// One helper's claim on the budget, given back when the helper ends —
/// also when it unwinds.
struct Claim;

impl Claim {
    fn take() -> Option<Claim> {
        HELPERS
            .fetch_update(SeqCst, SeqCst, |n| (n < budget()).then_some(n + 1))
            .ok()
            .map(|_| Claim)
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        HELPERS.fetch_sub(1, SeqCst);
    }
}

/// `items.iter().map(f).collect()`, with helpers taking items alongside the
/// caller while the budget allows.
pub(crate) fn map<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    let next = AtomicUsize::new(0);
    let take = || {
        let i = next.fetch_add(1, SeqCst);
        items.get(i).map(|item| (i, item))
    };
    let drain = || {
        let mut done = Vec::new();
        while let Some((i, item)) = take() {
            done.push((i, f(item)));
        }
        done
    };
    let mut done = thread::scope(|scope| {
        let mut helpers = Vec::new();
        let mut done = Vec::with_capacity(items.len());
        while let Some((i, item)) = take() {
            if i + 1 < items.len() {
                if let Some(claim) = Claim::take() {
                    let drain = &drain;
                    helpers.push(scope.spawn(move || {
                        let _claim = claim;
                        drain()
                    }));
                }
            }
            done.push((i, f(item)));
        }
        for helper in helpers {
            done.extend(helper.join().unwrap_or_else(|payload| resume_unwind(payload)));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, u)| u).collect()
}

/// `(a(), b())`: `a` on a helper while the caller runs `b`, or both on the
/// caller, `a` first, when the budget is spent. Give `a` the shorter task:
/// its helper returns to the budget as soon as it ends, where `b`'s own
/// nested calls can pick it up.
pub(crate) fn join<A: Send, B>(a: impl FnOnce() -> A + Send, b: impl FnOnce() -> B) -> (A, B) {
    let Some(claim) = Claim::take() else {
        return (a(), b());
    };
    thread::scope(|scope| {
        let helper = scope.spawn(move || {
            let _claim = claim;
            a()
        });
        let b = b();
        (helper.join().unwrap_or_else(|payload| resume_unwind(payload)), b)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;

    #[test]
    fn map_keeps_input_order_and_runs_every_item_once() {
        let items: Vec<u64> = (0..1_000).collect();
        let calls = AtomicUsize::new(0);
        let out = map(&items, |&x| {
            calls.fetch_add(1, SeqCst);
            x * x
        });
        assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
        assert_eq!(calls.load(SeqCst), items.len());
        assert!(map(&[] as &[u8], |&x| x).is_empty());
    }

    #[test]
    fn nested_calls_stay_within_the_budget() {
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let outer: Vec<usize> = (0..8).collect();
        let sums = map(&outer, |&i| {
            let inner: Vec<usize> = (0..64).collect();
            map(&inner, |&j| {
                let now = live.fetch_add(1, SeqCst) + 1;
                peak.fetch_max(now, SeqCst);
                let v = (0..2_000).fold(i * j, |h, k| h.wrapping_mul(31).wrapping_add(k));
                live.fetch_sub(1, SeqCst);
                std::hint::black_box(v);
                j
            })
            .iter()
            .sum::<usize>()
        });
        assert_eq!(sums, vec![64 * 63 / 2; 8]);
        // Other tests of this binary may hold helpers too, so only the
        // machine-wide bound is certain: callers of this test plus budget.
        assert!(peak.load(SeqCst) <= 1 + budget(), "peak {}", peak.load(SeqCst));
    }

    #[test]
    fn join_returns_both_sides() {
        let (a, b) = join(|| 6 * 7, || "b");
        assert_eq!((a, b), (42, "b"));
    }

    #[test]
    fn a_helper_panic_comes_out_with_its_own_payload() {
        let items: Vec<u32> = (0..64).collect();
        let caught = catch_unwind(|| {
            map(&items, |&x| {
                if x == 63 {
                    panic!("item {x} failed");
                }
                x
            })
        })
        .expect_err("the panic propagates");
        assert_eq!(caught.downcast_ref::<String>().map(String::as_str), Some("item 63 failed"));
        let caught = catch_unwind(|| join(|| panic!("left side"), || 1)).expect_err("propagates");
        assert_eq!(caught.downcast_ref::<&str>(), Some(&"left side"));
    }
}
