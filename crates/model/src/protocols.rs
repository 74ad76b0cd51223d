//! Model-sized mirrors of the work-stealing scheduler's protocols.
//!
//! These functions re-implement the *protocol skeleton* of
//! `csj_core::parallel`'s `worker_loop` — the same shared state, the
//! same operations in the same order, with the same memory orderings —
//! on top of this crate's instrumented [`crate::sync`] primitives,
//! with the join work abstracted to leaf-range tasks. `csj-model`
//! cannot depend on `csj-core` (the facade points the other way), so
//! the mirror is kept line-for-line reviewable against
//! `crates/core/src/parallel/mod.rs`; any protocol change there must
//! be reflected here (DESIGN.md §9 pairs the two).
//!
//! Each scenario asserts the scheduler's contract *inside* the model
//! closure, so [`crate::check`] refutes it over every interleaving up
//! to the preemption bound:
//!
//! * [`steal_donate_scenario`] — donation/stealing neither duplicates
//!   nor drops a task; stats counters sum correctly.
//! * [`quiesce_scenario`] — stop-flag and cancellation quiesce all
//!   workers with `Partial`-consistent accounting, including cancel
//!   arriving between a pool pop and task execution (mid-steal).
//! * [`resplit_scenario`] — starvation-driven re-splitting covers
//!   exactly the parent's leaves, exactly once.
//! * [`prefetch_scenario`] — the out-of-core read-ahead: reader
//!   threads, window refill, waits on in-flight pages with wake-up on
//!   failure, and shutdown/join deliver every page's bytes exactly
//!   once and account every read (mirrored from `csj_core::outofcore`).
//!
//! The deliberately broken [`relaxed_publication_race`] (data behind a
//! `Relaxed` flag) is the seeded-race fixture: the checker must find
//! and replay it. [`release_acquire_publication`] is the corrected
//! protocol, which must verify clean — together they pin the race
//! detector's precision in both directions.

use std::collections::VecDeque;
use std::sync::PoisonError;

use crate::cell::RaceCell;
use crate::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use crate::sync::{Arc, Condvar, Mutex};
use crate::thread;

/// A task covering the leaf range `lo..=hi`; splittable when it covers
/// more than one leaf (the stand-in for a subtree join task, whose
/// children cover exactly the parent's work).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ModelTask {
    /// First leaf covered.
    pub lo: u32,
    /// Last leaf covered (inclusive).
    pub hi: u32,
}

impl ModelTask {
    /// A single-leaf task.
    pub fn leaf(i: u32) -> Self {
        ModelTask { lo: i, hi: i }
    }

    fn splittable(self) -> bool {
        self.hi > self.lo
    }

    fn split(self) -> (ModelTask, ModelTask) {
        let mid = self.lo + (self.hi - self.lo) / 2;
        (ModelTask { lo: self.lo, hi: mid }, ModelTask { lo: mid + 1, hi: self.hi })
    }
}

/// `(owner, task)` — a pool take by a different worker is a steal,
/// exactly as `TaskItem::owner` in the production scheduler.
pub type PoolItem = (usize, ModelTask);

/// Mirror of `csj_core::parallel`'s `Shared`: same fields, same
/// orderings. Stats counters and the advisory `pool_len`/`starving`
/// mirrors are `Relaxed`; `stop` and `pending` gate termination and
/// stay `SeqCst`. The scenarios in this module are the evidence that
/// this split is sound — see DESIGN.md §9.
pub struct ModelShared {
    /// Donation pool (the only lock).
    pub pool: Mutex<VecDeque<PoolItem>>,
    /// Lock-free mirror of `pool.len()`.
    pub pool_len: AtomicUsize,
    /// Workers currently out of work.
    pub starving: AtomicUsize,
    /// Tasks not yet executed.
    pub pending: AtomicUsize,
    /// Quiesce flag (mirror of `Shared::stop`).
    pub stop: AtomicBool,
    /// Mirror of `CancelToken`'s flag.
    pub cancel: AtomicBool,
    /// Tasks executed (stat).
    pub executed: AtomicUsize,
    /// Pool takes by a non-owner (stat).
    pub stolen: AtomicUsize,
    /// Split events (stat).
    pub splits: AtomicUsize,
    /// Total tasks ever created, splits included (stat).
    pub total: AtomicUsize,
}

impl ModelShared {
    /// Shared state for `initial` pending tasks and `workers` workers,
    /// of which all but worker 0 start pre-registered as starving
    /// (mirroring `ParallelJoin::run`).
    pub fn new(initial: usize, workers: usize) -> Self {
        ModelShared {
            pool: Mutex::new(VecDeque::new()),
            pool_len: AtomicUsize::new(0),
            starving: AtomicUsize::new(workers.saturating_sub(1)),
            pending: AtomicUsize::new(initial),
            stop: AtomicBool::new(false),
            cancel: AtomicBool::new(false),
            executed: AtomicUsize::new(0),
            stolen: AtomicUsize::new(0),
            splits: AtomicUsize::new(0),
            total: AtomicUsize::new(initial),
        }
    }
}

/// What one worker did: the tasks it executed and what was left in its
/// private deque when it exited (nonempty only after a stop).
pub struct WorkerOutcome {
    /// Tasks executed, in execution order.
    pub ran: Vec<ModelTask>,
    /// Private-deque leftovers at exit.
    pub leftover: Vec<ModelTask>,
}

/// One worker's run: the protocol skeleton of `worker_loop`, operation
/// for operation. `may_split` mirrors the non-CSJ condition;
/// `pre_starving` mirrors workers 1..n starting registered.
pub fn worker(
    wid: usize,
    shared: &ModelShared,
    mut local: VecDeque<ModelTask>,
    may_split: bool,
    pre_starving: bool,
) -> WorkerOutcome {
    let mut ran = Vec::new();
    let mut registered_starving = pre_starving;
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        // Acquire: private deque first, then the pool.
        let acquired = match local.pop_front() {
            Some(task) => Some((wid, task)),
            None => {
                let mut pool = shared.pool.lock().unwrap_or_else(PoisonError::into_inner);
                let item = pool.pop_front();
                // ORDERING: advisory mirror of the pool length, exactly
                // as in worker_loop (see DESIGN.md §9).
                shared.pool_len.store(pool.len(), Ordering::Relaxed);
                item
            }
        };
        let Some((owner, task)) = acquired else {
            if shared.pending.load(Ordering::SeqCst) == 0 {
                break;
            }
            if !registered_starving {
                // ORDERING: advisory — steers donation/splitting only.
                shared.starving.fetch_add(1, Ordering::Relaxed);
                registered_starving = true;
            }
            thread::yield_now();
            continue;
        };
        if registered_starving {
            // ORDERING: advisory — steers donation/splitting only.
            shared.starving.fetch_sub(1, Ordering::Relaxed);
            registered_starving = false;
        }
        if owner != wid {
            // ORDERING: stat counter, read only after all workers join.
            shared.stolen.fetch_add(1, Ordering::Relaxed);
        }

        // Task-boundary cancel check — between acquisition (possibly a
        // pool pop) and execution: the mid-steal window.
        // ORDERING: mirror of CancelToken::is_canceled (Relaxed).
        if shared.cancel.load(Ordering::Relaxed) {
            shared.stop.store(true, Ordering::SeqCst);
            break;
        }

        // Adaptive splitting under starvation.
        // ORDERING: advisory loads, as in worker_loop.
        let starving_now = shared.starving.load(Ordering::Relaxed);
        // ORDERING: as `starving`.
        let pool_len_now = shared.pool_len.load(Ordering::Relaxed);
        if may_split && task.splittable() && starving_now > pool_len_now {
            let (a, b) = task.split();
            // ORDERING: stat counters, read only after workers join.
            shared.splits.fetch_add(1, Ordering::Relaxed);
            shared.total.fetch_add(1, Ordering::Relaxed); // ORDERING: as `splits`
                                                          // Children added before the parent retires so `pending`
                                                          // never dips to zero in between (two children, one parent).
            shared.pending.fetch_add(1, Ordering::SeqCst);
            let mut pool = shared.pool.lock().unwrap_or_else(PoisonError::into_inner);
            pool.push_back((wid, a));
            pool.push_back((wid, b));
            // ORDERING: advisory mirror, as in the acquire path.
            shared.pool_len.store(pool.len(), Ordering::Relaxed);
            continue;
        }

        // Cold-path donation: starving peers, low pool, spare tasks.
        // ORDERING: advisory loads, as in worker_loop.
        let starving_now = shared.starving.load(Ordering::Relaxed);
        if starving_now > 0
            && shared.pool_len.load(Ordering::Relaxed) < starving_now // ORDERING: as `starving`
            && local.len() > 1
        {
            let give = local.len() / 2;
            let mut pool = shared.pool.lock().unwrap_or_else(PoisonError::into_inner);
            for _ in 0..give {
                if let Some(t) = local.pop_back() {
                    pool.push_back((wid, t));
                }
            }
            // ORDERING: advisory mirror, as in the acquire path.
            shared.pool_len.store(pool.len(), Ordering::Relaxed);
        }

        // "Execute" the task.
        shared.pending.fetch_sub(1, Ordering::SeqCst);
        // ORDERING: stat counter, read only after all workers join.
        shared.executed.fetch_add(1, Ordering::Relaxed);
        ran.push(task);
    }
    WorkerOutcome { ran, leftover: local.into_iter().collect() }
}

/// The leaves a set of executed tasks covers, sorted.
fn coverage(tasks: &[ModelTask]) -> Vec<u32> {
    let mut leaves: Vec<u32> = tasks.iter().flat_map(|t| t.lo..=t.hi).collect();
    leaves.sort_unstable();
    leaves
}

/// Asserts the stats identity that holds at quiescence under every
/// schedule: `executed` matches the work actually performed and
/// `pending` is exactly the unexecuted remainder.
fn assert_counters(shared: &ModelShared, outcomes: &[&WorkerOutcome]) {
    let ran: usize = outcomes.iter().map(|o| o.ran.len()).sum();
    assert_eq!(shared.executed.load(Ordering::SeqCst), ran, "executed != tasks actually run");
    let total = shared.total.load(Ordering::SeqCst);
    assert_eq!(
        shared.pending.load(Ordering::SeqCst),
        total - ran,
        "pending != total - executed at quiescence"
    );
}

/// Steal/donate protocol, two workers: worker 0 seeded with `n` leaf
/// tasks, worker 1 starting starving (as in `ParallelJoin::run`).
/// Every leaf must execute exactly once, wherever it ends up, and
/// `stolen` must count exactly worker 1's pool takes. Use `n >= 3` so
/// the donation path (requires `local.len() > 1` after an
/// acquisition) is reachable.
pub fn steal_donate_scenario(n: u32) {
    let shared = Arc::new(ModelShared::new(n as usize, 2));
    let seed: VecDeque<ModelTask> = (1..=n).map(ModelTask::leaf).collect();
    let thief = thread::spawn({
        let shared = Arc::clone(&shared);
        move || worker(1, &shared, VecDeque::new(), false, true)
    });
    let w0 = worker(0, &shared, seed, false, false);
    let w1 = thief.join();

    let mut all = w0.ran.clone();
    all.extend(w1.ran.iter().copied());
    assert_eq!(coverage(&all), (1..=n).collect::<Vec<_>>(), "each task exactly once");
    assert!(w0.leftover.is_empty() && w1.leftover.is_empty(), "no task left behind");
    assert_counters(&shared, &[&w0, &w1]);
    assert_eq!(
        shared.stolen.load(Ordering::SeqCst),
        w1.ran.len(),
        "every worker-1 task came via the pool and counted as a steal"
    );
    assert_eq!(shared.pending.load(Ordering::SeqCst), 0, "complete run leaves nothing pending");
}

/// Stop/cancel quiesce protocol: two workers over `n` leaf tasks plus
/// a canceller thread that fires mid-run. Under every schedule —
/// including cancel landing between a worker's pool pop and its
/// execution of that task (the mid-steal window) — both workers must
/// quiesce with consistent partial accounting: `executed` counts
/// exactly the tasks run, `pending` is exactly the remainder, and a
/// task acquired-but-dropped at the cancel boundary is part of that
/// remainder, never double-counted.
pub fn quiesce_scenario(n: u32) {
    let shared = Arc::new(ModelShared::new(n as usize, 2));
    let seed: VecDeque<ModelTask> = (1..=n).map(ModelTask::leaf).collect();
    let thief = thread::spawn({
        let shared = Arc::clone(&shared);
        move || worker(1, &shared, VecDeque::new(), false, true)
    });
    let canceller = thread::spawn({
        let shared = Arc::clone(&shared);
        // ORDERING: mirror of CancelToken::cancel (Relaxed).
        move || shared.cancel.store(true, Ordering::Relaxed)
    });
    let w0 = worker(0, &shared, seed, false, false);
    let w1 = thief.join();
    canceller.join();

    let mut all = w0.ran.clone();
    all.extend(w1.ran.iter().copied());
    let cov = coverage(&all);
    let full: Vec<u32> = (1..=n).collect();
    // Lossless prefix: no duplicates, no invented work.
    let mut dedup = cov.clone();
    dedup.dedup();
    assert_eq!(dedup, cov, "a task executed twice under cancellation");
    assert!(cov.iter().all(|l| full.contains(l)), "executed a task that was never created");
    assert_counters(&shared, &[&w0, &w1]);
    if shared.stop.load(Ordering::SeqCst) {
        // A worker observed the cancel. The unexecuted remainder is
        // split between the pool, private leftovers, and at most one
        // in-flight task per worker dropped at the cancel boundary.
        let pool_left = shared.pool.lock().unwrap_or_else(PoisonError::into_inner).len();
        let local_left = w0.leftover.len() + w1.leftover.len();
        let pending = shared.pending.load(Ordering::SeqCst);
        assert!(
            pending >= pool_left + local_left,
            "pending {pending} lost track of {} queued tasks",
            pool_left + local_left
        );
        assert!(
            pending - (pool_left + local_left) <= 2,
            "more dropped in-flight tasks than workers"
        );
    } else {
        // Both workers drained everything before the flag was seen.
        assert_eq!(cov, full, "clean finish must have executed everything");
        assert_eq!(shared.pending.load(Ordering::SeqCst), 0);
    }
}

/// Starvation-driven re-split protocol: worker 0 holds one splittable
/// task covering `n` leaves while worker 1 starves, so the first claim
/// must split (starving=1 > pool_len=0 is stable until the pool is
/// fed). Exactly-once coverage of the leaves must survive recursive
/// splitting and the ensuing pool scramble.
pub fn resplit_scenario(n: u32) {
    let shared = Arc::new(ModelShared::new(1, 2));
    let seed: VecDeque<ModelTask> = VecDeque::from([ModelTask { lo: 1, hi: n }]);
    let thief = thread::spawn({
        let shared = Arc::clone(&shared);
        move || worker(1, &shared, VecDeque::new(), false, true)
    });
    let w0 = worker(0, &shared, seed, true, false);
    let w1 = thief.join();

    let mut all = w0.ran.clone();
    all.extend(w1.ran.iter().copied());
    assert_eq!(
        coverage(&all),
        (1..=n).collect::<Vec<_>>(),
        "split children must cover the parent exactly once"
    );
    assert_counters(&shared, &[&w0, &w1]);
    assert!(
        shared.splits.load(Ordering::SeqCst) >= 1,
        "a starving peer over an empty pool must force a split"
    );
    let total = shared.total.load(Ordering::SeqCst);
    assert_eq!(
        total,
        1 + shared.splits.load(Ordering::SeqCst),
        "every split adds exactly one net task"
    );
    assert_eq!(shared.pending.load(Ordering::SeqCst), 0);
}

/// One event on the shard supervisor's channel: a worker for attempt
/// `attempt` either delivered its result or was lost (EOF after a
/// crash/kill).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardEvent {
    /// The worker's result frame arrived intact.
    Result(usize),
    /// The worker's stream ended without a result.
    Lost(usize),
}

/// Mirror of `csj_shard::supervisor`'s retry/quiesce protocol
/// skeleton: one shard, `max_attempts = 2`, a first attempt that is
/// always lost (the injected kill), a second attempt gated on the
/// supervisor's relaunch decision, and a canceller racing the whole
/// run — the worker-lost vs. cancel race.
///
/// The real supervisor is a single-threaded event loop fed by worker
/// pump threads over an mpsc channel, with cancellation observed
/// through `CancelToken`'s `Relaxed` flag at the loop top. The mirror
/// keeps exactly that shape: a mutex-protected event queue (the
/// channel), a `Relaxed` cancel flag, and supervisor-owned terminal
/// bookkeeping. Asserted under every schedule within the bound:
///
/// * terminal exclusivity — a shard never counts both completed and
///   failed, whatever order events and cancel land in;
/// * bounded retries — `attempts_used <= max_attempts` and
///   `retries == attempts_used - 1`, even when cancel interleaves
///   with the lost-worker relaunch window;
/// * no post-cancel launches — once the supervisor observes cancel it
///   stops relaunching, and a result a late worker still queues is
///   ignored, not merged into the accounting.
///
/// `second_attempt_dies` selects the beyond-budget path (both
/// attempts lost → the shard must degrade to failed, never relaunch a
/// third time) versus the recovery path (attempt 2 delivers → the
/// shard completes with exactly one counted retry).
pub fn shard_retry_quiesce_scenario(second_attempt_dies: bool) {
    const MAX_ATTEMPTS: usize = 2;
    let events = Arc::new(Mutex::new(VecDeque::<ShardEvent>::new()));
    let cancel = Arc::new(AtomicBool::new(false));
    let relaunch = Arc::new(AtomicBool::new(false));
    // The launch gate stands in for `transport.launch` on the retry
    // path: the supervisor holds it until it decides, and attempt 2's
    // worker blocks on it (blocked, not spinning, so the checker's
    // deadlock detection stays meaningful).
    let gate = Arc::new(Mutex::new(()));
    let gate_guard = gate.lock().unwrap_or_else(PoisonError::into_inner);
    let mut gate_guard = Some(gate_guard);

    // Attempt 1's worker: the injected kill — EOF without a result.
    let first = thread::spawn({
        let events = Arc::clone(&events);
        move || {
            events.lock().unwrap_or_else(PoisonError::into_inner).push_back(ShardEvent::Lost(1));
        }
    });
    // Attempt 2's worker: runs only if the supervisor decided to
    // relaunch before releasing the gate.
    let second = thread::spawn({
        let events = Arc::clone(&events);
        let relaunch = Arc::clone(&relaunch);
        let gate = Arc::clone(&gate);
        move || {
            let _launched = gate.lock().unwrap_or_else(PoisonError::into_inner);
            if relaunch.load(Ordering::SeqCst) {
                let ev =
                    if second_attempt_dies { ShardEvent::Lost(2) } else { ShardEvent::Result(2) };
                events.lock().unwrap_or_else(PoisonError::into_inner).push_back(ev);
            }
        }
    });
    let canceller = thread::spawn({
        let cancel = Arc::clone(&cancel);
        // ORDERING: mirror of CancelToken::cancel (Relaxed).
        move || cancel.store(true, Ordering::Relaxed)
    });

    // The supervisor event loop: cancel check at the loop top, then
    // drain the channel — exactly the shape of `Run::event_loop`.
    let mut attempts_used = 1usize; // attempt 1 launched before the loop
    let mut retries = 0usize;
    let mut completed = false;
    let mut failed = false;
    let mut canceled = false;
    loop {
        // ORDERING: mirror of CancelToken::is_canceled (Relaxed).
        if cancel.load(Ordering::Relaxed) {
            canceled = true;
            break;
        }
        let event = events.lock().unwrap_or_else(PoisonError::into_inner).pop_front();
        match event {
            Some(ShardEvent::Result(_)) => {
                completed = true;
            }
            Some(ShardEvent::Lost(_)) => {
                if attempts_used < MAX_ATTEMPTS {
                    attempts_used += 1;
                    retries += 1;
                    relaunch.store(true, Ordering::SeqCst);
                    gate_guard.take(); // release the gate: launch attempt 2
                } else {
                    failed = true;
                }
            }
            None => {
                thread::yield_now();
                continue;
            }
        }
        if completed || failed {
            break;
        }
    }
    // On every exit path the gate is released, so a never-launched
    // attempt 2 wakes, sees `relaunch` unset, and exits quietly.
    gate_guard.take();
    first.join();
    second.join();
    canceller.join();

    // Terminal exclusivity and bounded retries, under every schedule.
    assert!(!(completed && failed), "a shard cannot both complete and fail");
    assert!(attempts_used <= MAX_ATTEMPTS, "relaunched beyond the retry budget");
    assert_eq!(retries, attempts_used - 1, "every relaunch after the first is a retry");
    if completed {
        assert_eq!(retries, 1, "attempt 1 always dies; success means exactly one retry");
        assert!(!second_attempt_dies, "a doomed second attempt cannot complete");
    }
    if failed {
        assert_eq!(attempts_used, MAX_ATTEMPTS, "failure only after the budget is spent");
        assert!(second_attempt_dies, "the recovery path must not fail");
    }
    if !completed && !failed {
        assert!(canceled, "the only non-terminal exit is cancellation");
    }
    // A late worker may still have queued an event after the supervisor
    // exited; it must sit ignored in the channel, never merged.
    let leftover = events.lock().unwrap_or_else(PoisonError::into_inner).len();
    assert!(leftover <= 2, "at most one queued event per attempt");
}

/// Mirror of `csj_core::outofcore`'s read-ahead handshake: reader
/// threads serve a page queue the engine refills from its window, and
/// the engine waits on pages still in flight.
///
/// The real protocol (`serve_reads`, `Prefetcher::fetch` /
/// `refill` / `finish`) is kept operation for operation on the shared
/// state — one mutex over the queue, the in-flight list and the
/// finished reads, plus two condvars:
///
/// * a reader sleeps on `work` until the queue has a page or shutdown
///   begins, moves the page to `in_flight` (counting it issued) and
///   takes a page buffer from the recycled `free` set (making one only
///   when the set is empty), reads it *outside* the lock, then moves it
///   to `done` with its buffer — flagged for a failed read — and
///   signals `landed`;
/// * the engine's fetch takes its page back out of the queue if no
///   reader has started it (it reads it itself), waits on `landed`
///   while the page is in flight, and stages what landed: successful
///   reads of non-resident pages, each counted against the window; the
///   refill then re-decides the whole queue from the window, dropping
///   queued requests that fell out of it, hands the buffers of consumed
///   and failed reads back to `free`, and wakes the readers;
/// * `finish` sets `shutdown`, clears the queue, wakes and joins every
///   reader, and counts the reads that never got consumed as wasted.
///
/// Asserted under every schedule within the bound: the window is
/// never over-committed (staged + requested ≤ budget), every page is
/// decoded exactly once from exactly one source, a failed read never
/// stages, and after the join every issued read was either useful or
/// wasted (`supplied + wasted == issued`), and no page buffer is lost:
/// every buffer a reader made is back in `free` or still holds staged
/// bytes. The checker itself refutes
/// a lost wake-up: the condvars have no spurious wake-ups, so an
/// engine left waiting on a page nobody will signal is a deadlock.
///
/// `read_ahead_fails` injects the failure leg: the read-ahead of one
/// page fails, and the engine — possibly already waiting on it — must
/// be woken and read the page synchronously.
pub fn prefetch_scenario(read_ahead_fails: bool) {
    const PAGES: u64 = 3;
    const FAIL_PAGE: u64 = 2;
    const READERS: usize = 2;
    /// Window in pages: smaller than the page count, so the refill
    /// genuinely re-queues as the engine advances.
    const BUDGET: usize = 2;

    /// A finished read: page, buffer id, success.
    type Landed = (u64, usize, bool);

    #[derive(Default)]
    struct ReadState {
        queue: VecDeque<u64>,
        in_flight: Vec<u64>,
        done: Vec<Landed>,
        /// Recycled page buffers, by id.
        free: Vec<usize>,
        /// Buffers the readers had to make.
        made: usize,
        issued: usize,
        shutdown: bool,
    }

    struct Shared {
        state: Mutex<ReadState>,
        work: Condvar,
        landed: Condvar,
    }

    fn lock(m: &Mutex<ReadState>) -> crate::sync::MutexGuard<'_, ReadState> {
        m.lock().unwrap_or_else(PoisonError::into_inner)
    }

    let shared = Arc::new(Shared {
        state: Mutex::new(ReadState::default()),
        work: Condvar::new(),
        landed: Condvar::new(),
    });

    // The readers: the exact loop of `serve_reads`.
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let shared = Arc::clone(&shared);
            thread::spawn(move || loop {
                let (page, buf) = {
                    let mut st = lock(&shared.state);
                    loop {
                        if st.shutdown {
                            return;
                        }
                        if let Some(page) = st.queue.pop_front() {
                            st.in_flight.push(page);
                            st.issued += 1;
                            let buf = st.free.pop().unwrap_or_else(|| {
                                st.made += 1;
                                st.made - 1
                            });
                            break (page, buf);
                        }
                        st = shared.work.wait(st).unwrap_or_else(PoisonError::into_inner);
                    }
                };
                // The read itself, outside the lock.
                let ok = !(read_ahead_fails && page == FAIL_PAGE);
                {
                    let mut st = lock(&shared.state);
                    st.in_flight.retain(|&p| p != page);
                    st.done.push((page, buf, ok));
                }
                shared.landed.notify_all();
            })
        })
        .collect();

    // The engine: `fetch` page by page along a one-batch frontier, then
    // `finish`.
    let mut requested: Vec<u64> = Vec::new(); // queued, in flight or landed
    let mut staged: Vec<(u64, usize)> = Vec::new(); // page, buffer
    let mut spare: Vec<usize> = Vec::new(); // buffers to hand back
    let mut resident: Vec<u64> = Vec::new();
    let (mut supplied, mut sync_reads, mut wasted) = (0usize, 0usize, 0usize);
    for page in 1..=PAGES {
        let landed = {
            let mut st = lock(&shared.state);
            if let Some(i) = st.queue.iter().position(|&q| q == page) {
                st.queue.remove(i);
                requested.retain(|&q| q != page);
            }
            while st.in_flight.contains(&page) {
                st = shared.landed.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            std::mem::take(&mut st.done)
        };
        for (p, buf, ok) in landed {
            requested.retain(|&q| q != p);
            // Staged unless the read failed or the page is resident.
            if ok && !resident.contains(&p) {
                staged.push((p, buf));
            } else {
                assert!(ok || p == FAIL_PAGE, "only the injected read fails");
                spare.push(buf);
                wasted += 1;
            }
        }
        // refill: the window is the next BUDGET unread pages.
        {
            let mut st = lock(&shared.state);
            for p in st.queue.drain(..) {
                requested.retain(|&q| q != p);
            }
            // A staged page being fetched holds its slot until the pin.
            let held = staged.len() + requested.len();
            let free = BUDGET.saturating_sub(held);
            let wanted: Vec<u64> = ((page + 1)..=PAGES)
                .take(BUDGET)
                .filter(|p| !staged.iter().any(|&(q, _)| q == *p) && !requested.contains(p))
                .take(free)
                .collect();
            for p in wanted {
                st.queue.push_back(p);
                requested.push(p);
            }
            assert!(held + st.queue.len() <= BUDGET, "the window was over-committed");
            st.free.append(&mut spare);
            if !st.queue.is_empty() {
                shared.work.notify_all();
            }
        }
        // The pin: staged bytes win; otherwise the synchronous read.
        if let Some(i) = staged.iter().position(|&(q, _)| q == page) {
            spare.push(staged.remove(i).1);
            supplied += 1;
            assert!(!(read_ahead_fails && page == FAIL_PAGE), "a failed read-ahead staged");
        } else {
            sync_reads += 1;
        }
        assert!(!resident.contains(&page), "a page was decoded twice");
        resident.push(page);
    }

    // finish: shut down, wake and join every reader, count leftovers.
    {
        let mut st = lock(&shared.state);
        st.shutdown = true;
        st.queue.clear();
    }
    shared.work.notify_all();
    for reader in readers {
        reader.join();
    }
    let (issued, leftover) = {
        let mut st = lock(&shared.state);
        assert!(st.in_flight.is_empty(), "a joined reader left a read in flight");
        let leftover = std::mem::take(&mut st.done).len();
        let held = st.free.len() + spare.len() + staged.len() + leftover;
        assert_eq!(held, st.made, "a page buffer was lost");
        (st.issued, leftover)
    };
    wasted += leftover + staged.len();

    assert_eq!(supplied + sync_reads, PAGES as usize, "one byte source per page");
    assert_eq!(supplied + wasted, issued, "a read-ahead was neither useful nor wasted");
}

/// The seeded race: data in a [`RaceCell`] published through a
/// `Relaxed` flag. No release/acquire edge connects the write to the
/// read, so some interleaving reads the cell concurrently with the
/// write — the checker must report a [`crate::Failure::DataRace`]
/// with a schedule that [`crate::replay`] reproduces.
pub fn relaxed_publication_race() {
    // ORDERING: deliberately broken — the Relaxed/Relaxed pair IS the
    // seeded bug this scenario exists to get caught.
    publication(Ordering::Relaxed, Ordering::Relaxed);
}

/// The corrected protocol: `Release` store / `Acquire` load. The same
/// accesses, now ordered — the checker must exhaust the schedule
/// space without a failure.
pub fn release_acquire_publication() {
    // ORDERING: the Release store publishes the cell write; the Acquire
    // load synchronizes with it — the minimal correct publication pair.
    publication(Ordering::Release, Ordering::Acquire);
}

fn publication(store: Ordering, load: Ordering) {
    let data = Arc::new(RaceCell::new(0u32));
    let flag = Arc::new(AtomicBool::new(false));
    let writer = thread::spawn({
        let data = Arc::clone(&data);
        let flag = Arc::clone(&flag);
        move || {
            data.set(42);
            // ORDERING: parameterized — Relaxed here is the seeded bug,
            // Release the fix; see the two public wrappers above.
            flag.store(true, store);
        }
    });
    // ORDERING: parameterized, as the store above.
    if flag.load(load) {
        assert_eq!(data.get(), 42, "flag observed but payload missing");
    }
    writer.join();
}
