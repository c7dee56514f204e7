//! The serialized scheduler behind the explorer: one OS thread per model
//! thread, exactly one of which holds the run token at any instant. Every
//! model-level operation (atomic access, mutex acquire, spawn, join, yield)
//! is a *decision point*: the token holder records a choice — which thread
//! runs next, or which store an unordered load observes — and the DFS in
//! [`crate::explore`] enumerates those choices schedule by schedule.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Panic payload used to unwind model threads when a run aborts. Filtered
/// by the thread wrapper and the panic hook; never reaches user code.
pub(crate) struct ModelAbort;

/// One recorded decision: which branch was taken out of how many.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Choice {
    pub chosen: u32,
    pub n: u32,
}

/// A failed run: the assertion/race message plus the tail of the event log.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Why the schedule failed (assertion message, detected race, deadlock).
    pub message: String,
    /// The last operations performed, oldest first, as `t<id> <op>` lines.
    pub trace: Vec<String>,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Block {
    OnMutex(usize),
    OnJoin(usize),
}

#[derive(Clone, PartialEq, Eq, Debug)]
enum Status {
    Runnable,
    Blocked(Block),
    Finished,
}

struct ThreadSt {
    status: Status,
    /// Per-location floor: the lowest store index this thread may still
    /// observe. Raised by its own accesses and by acquire joins.
    seen: HashMap<usize, usize>,
    /// Rolling hash of every value this thread has read — two executions
    /// with equal global state and equal local hashes have converged.
    local_hash: u64,
    /// Set by `spin_loop()`, consumed by the next atomic load: a load right
    /// after a spin reads the latest store (eventual-visibility fairness),
    /// so busy-wait loops terminate instead of re-reading a stale flag on
    /// every DFS branch.
    just_spun: bool,
}

pub(crate) struct StoreRec {
    pub value: u64,
    /// Release message: snapshot of the storing thread's `seen` map, joined
    /// into any thread that acquire-loads this store.
    pub msg: Option<Arc<HashMap<usize, usize>>>,
}

pub(crate) struct LocSt {
    pub history: Vec<StoreRec>,
    hash: u64,
}

struct MutexSt {
    holder: Option<usize>,
    /// Backing location carrying the lock's release/acquire edge: unlock
    /// release-stores to it, a successful acquire joins its message.
    loc: usize,
}

/// Outcome of one attempt to perform an announced operation.
pub(crate) enum StepResult<R> {
    Ready(R),
    Block(Block),
    Violation(String),
}

const EVENT_CAP: usize = 200;

/// Preemptions a schedule may spend: a switch away from a thread that could
/// have continued. Schedules needing more are not explored.
const PREEMPTION_BOUND: u32 = 2;

/// Operations one schedule may perform before it fails as a livelock.
const MAX_OPS: usize = 50_000;

pub(crate) struct RunState {
    prefix: Vec<Choice>,
    pub(crate) trace: Vec<Choice>,
    threads: Vec<ThreadSt>,
    locations: Vec<LocSt>,
    mutexes: Vec<MutexSt>,
    active: usize,
    alive: usize,
    preemptions_left: u32,
    ops: usize,
    pub(crate) violation: Option<Violation>,
    pub(crate) abort: bool,
    events: Vec<String>,
    /// Fingerprint -> largest preemption budget this state was explored
    /// with. Persisted across runs by the explorer.
    pub(crate) visited: HashMap<u64, u32>,
}

impl RunState {
    fn log(&mut self, me: usize, what: impl FnOnce() -> String) {
        if self.events.len() == EVENT_CAP {
            self.events.remove(0);
        }
        self.events.push(format!("t{me} {}", what()));
    }

    fn record_violation(&mut self, me: usize, message: String) {
        if self.violation.is_none() {
            self.log(me, || format!("VIOLATION: {message}"));
            self.violation = Some(Violation { message, trace: std::mem::take(&mut self.events) });
        }
        self.abort = true;
    }

    fn replaying(&self) -> bool {
        self.trace.len() < self.prefix.len()
    }

    /// Records one decision with `n` branches and returns the branch taken:
    /// the replayed one inside the prefix, branch 0 beyond it.
    fn choose(&mut self, n: usize) -> usize {
        let pos = self.trace.len();
        if pos < self.prefix.len() {
            let c = self.prefix[pos];
            self.trace.push(c);
            c.chosen as usize
        } else {
            self.trace.push(Choice { chosen: 0, n: n as u32 });
            0
        }
    }

    /// Marks the calling thread as having just spun (see `just_spun`).
    pub(crate) fn mark_spun(&mut self, me: usize) {
        self.threads[me].just_spun = true;
    }

    fn runnable_others(&self, me: usize) -> Vec<usize> {
        (0..self.threads.len())
            .filter(|&t| t != me && self.threads[t].status == Status::Runnable)
            .collect()
    }

    /// Hash of the whole run state, used to cut schedules that re-reach an
    /// already-explored state with no larger preemption budget.
    fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        fold(self.active as u64);
        for t in &self.threads {
            fold(match t.status {
                Status::Runnable => 1,
                Status::Blocked(Block::OnMutex(m)) => 0x100 + m as u64,
                Status::Blocked(Block::OnJoin(j)) => 0x10_000 + j as u64,
                Status::Finished => 2,
            });
            fold(t.local_hash);
            fold(t.just_spun as u64);
        }
        for l in &self.locations {
            fold(l.history.len() as u64);
            fold(l.hash);
        }
        for m in &self.mutexes {
            fold(m.holder.map_or(0, |t| t as u64 + 1));
        }
        h
    }

    /// The scheduling decision made by the token holder before its own
    /// operation. `forced` (spin/yield) switches to another runnable thread
    /// without charging the preemption budget.
    fn schedule(&mut self, me: usize, forced: bool) {
        let others = self.runnable_others(me);
        let (options, charge): (Vec<usize>, bool) = if forced {
            if others.is_empty() {
                return; // nothing else to run; the spin just continues
            }
            (others, false)
        } else if self.preemptions_left == 0 || others.is_empty() {
            (vec![me], false)
        } else {
            let mut v = vec![me];
            v.extend(others);
            (v, true)
        };
        let mut n = options.len();
        if n > 1 && !self.replaying() {
            let fp = self.fingerprint();
            match self.visited.get(&fp) {
                Some(&budget) if budget >= self.preemptions_left => n = 1,
                _ => {
                    let b = self.preemptions_left;
                    self.visited.insert(fp, b);
                }
            }
        }
        let chosen = self.choose(n);
        let target = options[chosen.min(options.len() - 1)];
        if charge && target != me {
            self.preemptions_left -= 1;
        }
        self.active = target;
    }

    /// Picks any runnable thread after `me` blocked or finished; reports a
    /// deadlock if live threads remain but none can run.
    fn schedule_unblocked(&mut self, me: usize) {
        let others = self.runnable_others(me);
        if others.is_empty() {
            if self.alive > 0 && self.threads.iter().all(|t| !matches!(t.status, Status::Runnable))
            {
                self.record_violation(me, "deadlock: every live thread is blocked".into());
            }
            return;
        }
        let chosen = self.choose(others.len());
        self.active = others[chosen.min(others.len() - 1)];
    }

    // -- location state ----------------------------------------------------

    pub(crate) fn register_loc(&mut self, seed: u64) -> usize {
        let id = self.locations.len();
        self.locations.push(LocSt {
            history: vec![StoreRec { value: seed, msg: None }],
            hash: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        });
        id
    }

    fn floor(&self, me: usize, loc: usize) -> usize {
        self.threads[me].seen.get(&loc).copied().unwrap_or(0)
    }

    fn observe(&mut self, me: usize, loc: usize, idx: usize, acquire: bool) -> u64 {
        let value = self.locations[loc].history[idx].value;
        let msg = self.locations[loc].history[idx].msg.clone();
        let th = &mut self.threads[me];
        let f = th.seen.entry(loc).or_insert(0);
        *f = (*f).max(idx);
        if acquire {
            if let Some(msg) = msg {
                for (&l, &i) in msg.iter() {
                    let f = th.seen.entry(l).or_insert(0);
                    *f = (*f).max(i);
                }
            }
        }
        th.local_hash ^= (loc as u64 + 1)
            .wrapping_mul(0x2545_f491_4f6c_dd1d)
            .wrapping_add(idx as u64)
            .wrapping_add(value.rotate_left(17));
        th.local_hash = th.local_hash.wrapping_mul(0x1000_0000_01b3);
        value
    }

    fn append_store(&mut self, me: usize, loc: usize, value: u64, release: bool) -> usize {
        let idx = self.locations[loc].history.len();
        let th = &mut self.threads[me];
        th.seen.insert(loc, idx);
        let msg = release.then(|| Arc::new(th.seen.clone()));
        let l = &mut self.locations[loc];
        l.history.push(StoreRec { value, msg });
        l.hash = l
            .hash
            .wrapping_mul(0x1000_0000_01b3)
            .wrapping_add(value ^ (idx as u64).rotate_left(32));
        idx
    }

    /// An atomic load. `SeqCst` reads the latest store in modification
    /// order (per-location linearization — stricter than C++ for loads);
    /// `Acquire`/`Relaxed` branch over every store at or above the thread's
    /// coherence floor, and only `Acquire`+ joins the release message. A
    /// load directly after `spin_loop()` also reads the latest store — the
    /// fairness assumption that keeps busy-wait loops finite.
    pub(crate) fn atomic_load(&mut self, me: usize, loc: usize, ord: Ordering) -> u64 {
        let latest = self.locations[loc].history.len() - 1;
        let acquire = !matches!(ord, Ordering::Relaxed);
        let spun = std::mem::take(&mut self.threads[me].just_spun);
        let idx = if spun || matches!(ord, Ordering::SeqCst) {
            latest
        } else {
            let floor = self.floor(me, loc);
            floor + self.choose(latest - floor + 1)
        };
        self.observe(me, loc, idx.min(latest), acquire)
    }

    pub(crate) fn atomic_store(&mut self, me: usize, loc: usize, value: u64, ord: Ordering) {
        let release = !matches!(ord, Ordering::Relaxed);
        self.append_store(me, loc, value, release);
    }

    /// A read-modify-write: always operates on the latest store (RMW
    /// atomicity in modification order); acquire/release effects follow the
    /// ordering.
    pub(crate) fn atomic_rmw(
        &mut self,
        me: usize,
        loc: usize,
        ord: Ordering,
        f: impl FnOnce(u64) -> u64,
    ) -> u64 {
        let latest = self.locations[loc].history.len() - 1;
        let acquire = matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst);
        let release = matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst);
        let old = self.observe(me, loc, latest, acquire);
        self.append_store(me, loc, f(old), release);
        old
    }

    /// A non-atomic read: it must be uniquely determined — if more than one
    /// store is observable (the thread's floor is below the latest store),
    /// the read is unsynchronized and the run fails as a data race.
    pub(crate) fn cell_read(&mut self, me: usize, loc: usize) -> Result<usize, String> {
        let latest = self.locations[loc].history.len() - 1;
        let floor = self.floor(me, loc);
        if floor < latest {
            return Err(format!(
                "data race: non-atomic read may observe {} different stores (floor {floor}, latest {latest})",
                latest - floor + 1
            ));
        }
        self.observe(me, loc, latest, false);
        Ok(latest)
    }

    pub(crate) fn cell_write(&mut self, me: usize, loc: usize) -> usize {
        let idx = self.locations[loc].history.len();
        self.append_store(me, loc, idx as u64, false);
        idx
    }

    // -- mutexes -----------------------------------------------------------

    pub(crate) fn register_mutex(&mut self) -> usize {
        let loc = self.register_loc(0);
        self.mutexes.push(MutexSt { holder: None, loc });
        self.mutexes.len() - 1
    }

    pub(crate) fn mutex_try_acquire(&mut self, me: usize, m: usize) -> StepResult<()> {
        match self.mutexes[m].holder {
            None => {
                self.mutexes[m].holder = Some(me);
                let loc = self.mutexes[m].loc;
                let latest = self.locations[loc].history.len() - 1;
                self.observe(me, loc, latest, true);
                StepResult::Ready(())
            }
            Some(_) => StepResult::Block(Block::OnMutex(m)),
        }
    }

    fn mutex_release(&mut self, me: usize, m: usize) {
        debug_assert_eq!(self.mutexes[m].holder, Some(me));
        self.mutexes[m].holder = None;
        let loc = self.mutexes[m].loc;
        self.append_store(me, loc, 0, true);
        for t in &mut self.threads {
            if t.status == Status::Blocked(Block::OnMutex(m)) {
                t.status = Status::Runnable;
            }
        }
    }

    pub(crate) fn join_try(&mut self, me: usize, target: usize) -> StepResult<()> {
        if self.threads[target].status == Status::Finished {
            // Joining synchronizes with everything the child observed.
            let child_seen = self.threads[target].seen.clone();
            let th = &mut self.threads[me];
            for (l, i) in child_seen {
                let f = th.seen.entry(l).or_insert(0);
                *f = (*f).max(i);
            }
            StepResult::Ready(())
        } else {
            StepResult::Block(Block::OnJoin(target))
        }
    }
}

/// The per-run scheduler shared by every model thread of one schedule.
pub(crate) struct Scheduler {
    /// Unique id of this run; locations registered under an older uid are
    /// re-registered lazily, which gives every schedule fresh state.
    pub(crate) uid: u64,
    inner: Mutex<RunState>,
    cv: Condvar,
}

static NEXT_UID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

fn relock<'a>(
    g: Result<MutexGuard<'a, RunState>, PoisonError<MutexGuard<'a, RunState>>>,
) -> MutexGuard<'a, RunState> {
    g.unwrap_or_else(PoisonError::into_inner)
}

impl Scheduler {
    pub(crate) fn new(prefix: Vec<Choice>, visited: HashMap<u64, u32>) -> Self {
        Scheduler {
            uid: NEXT_UID.fetch_add(1, Ordering::SeqCst),
            inner: Mutex::new(RunState {
                prefix,
                trace: Vec::new(),
                threads: Vec::new(),
                locations: Vec::new(),
                mutexes: Vec::new(),
                active: 0,
                alive: 0,
                preemptions_left: PREEMPTION_BOUND,
                ops: 0,
                violation: None,
                abort: false,
                events: Vec::new(),
                visited,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, RunState> {
        relock(self.inner.lock())
    }

    fn abort_unwind(&self) -> ! {
        self.cv.notify_all();
        std::panic::panic_any(ModelAbort)
    }

    /// Registers the root thread (id 0) as active.
    pub(crate) fn register_root(&self) -> usize {
        let mut g = self.lock();
        g.threads.push(ThreadSt {
            status: Status::Runnable,
            seen: HashMap::new(),
            local_hash: 0,
            just_spun: false,
        });
        g.alive = 1;
        0
    }

    /// Registers a child thread spawned by `parent`; the child inherits the
    /// parent's coherence floors (spawning is a release/acquire edge).
    pub(crate) fn register_child(&self, parent: usize) -> usize {
        let mut g = self.lock();
        let seen = g.threads[parent].seen.clone();
        g.threads.push(ThreadSt {
            status: Status::Runnable,
            seen,
            local_hash: 0,
            just_spun: false,
        });
        g.alive += 1;
        g.threads.len() - 1
    }

    /// Parks a freshly spawned thread until it is scheduled for the first
    /// time.
    pub(crate) fn first_wait(&self, me: usize) {
        let mut g = self.lock();
        while g.active != me && !g.abort {
            g = relock(self.cv.wait(g));
        }
        if g.abort {
            drop(g);
            self.abort_unwind();
        }
    }

    /// One decision point: schedule, wait for the token, then perform the
    /// announced operation (retrying after blocking). `forced_switch` is the
    /// spin/yield hint. Returns the operation's result.
    pub(crate) fn step<R>(
        &self,
        me: usize,
        forced_switch: bool,
        describe: impl Fn(&R) -> String,
        mut perform: impl FnMut(&mut RunState, usize) -> StepResult<R>,
    ) -> R {
        let mut g = self.lock();
        if g.abort {
            drop(g);
            self.abort_unwind();
        }
        g.ops += 1;
        if g.ops > MAX_OPS {
            g.record_violation(
                me,
                format!("run exceeded {MAX_OPS} operations — livelock or unbounded loop"),
            );
            drop(g);
            self.abort_unwind();
        }
        g.schedule(me, forced_switch);
        self.cv.notify_all();
        loop {
            while !(g.abort || (g.active == me && g.threads[me].status == Status::Runnable)) {
                g = relock(self.cv.wait(g));
            }
            if g.abort {
                drop(g);
                self.abort_unwind();
            }
            match perform(&mut g, me) {
                StepResult::Ready(r) => {
                    g.log(me, || describe(&r));
                    return r;
                }
                StepResult::Violation(msg) => {
                    g.record_violation(me, msg);
                    drop(g);
                    self.abort_unwind();
                }
                StepResult::Block(reason) => {
                    g.threads[me].status = Status::Blocked(reason);
                    g.schedule_unblocked(me);
                    self.cv.notify_all();
                    if g.abort {
                        drop(g);
                        self.abort_unwind();
                    }
                }
            }
        }
    }

    /// Releases a model mutex (guard drop) — a state change, not a decision
    /// point: interleavings after the release are covered by the holder's
    /// next decision.
    pub(crate) fn mutex_unlock(&self, me: usize, m: usize) {
        let mut g = self.lock();
        if g.abort {
            return; // unwinding guards must not re-panic
        }
        g.mutex_release(me, m);
        g.log(me, || format!("unlock m{m}"));
        self.cv.notify_all();
    }

    /// Marks `me` finished; wakes joiners, hands the token on, detects
    /// deadlocks, and records a violation if `panic_msg` is a real panic.
    pub(crate) fn thread_exit(&self, me: usize, panic_msg: Option<String>) {
        let mut g = self.lock();
        g.threads[me].status = Status::Finished;
        g.alive -= 1;
        if let Some(msg) = panic_msg {
            g.record_violation(me, msg);
        } else if !g.abort {
            for t in &mut g.threads {
                if t.status == Status::Blocked(Block::OnJoin(me)) {
                    t.status = Status::Runnable;
                }
            }
            g.log(me, || "exit".to_string());
            g.schedule_unblocked(me);
        }
        self.cv.notify_all();
    }

    /// Blocks the controller until every model thread has exited.
    pub(crate) fn wait_done(&self) {
        let mut g = self.lock();
        while g.alive > 0 {
            g = relock(self.cv.wait(g));
        }
    }

    /// Harvests the run's results: decision trace, violation, visited set.
    pub(crate) fn take_results(&self) -> (Vec<Choice>, Option<Violation>, HashMap<u64, u32>) {
        let mut g = self.lock();
        (std::mem::take(&mut g.trace), g.violation.take(), std::mem::take(&mut g.visited))
    }

    /// Runs `f` with the state locked — used by the sync shims for
    /// registration (the caller must hold the token).
    pub(crate) fn with_state<R>(&self, f: impl FnOnce(&mut RunState) -> R) -> R {
        f(&mut self.lock())
    }
}
