//! Model-sized mirrors of the join's concurrency protocols.
//!
//! These functions re-implement the *protocol skeleton* of
//! `csj_core::parallel`'s ordered task stream (`Stream`, the claim
//! loop and the committer) — the same shared state, the same
//! operations in the same order, with the same memory orderings — on
//! top of this crate's instrumented [`crate::sync`] primitives, with
//! the join work abstracted to a write per task. `csj-model` cannot
//! depend on `csj-core` (the facade points the other way), so the
//! mirror is kept line-for-line reviewable against
//! `crates/core/src/parallel/mod.rs`; any protocol change there must
//! be reflected here (DESIGN.md §9 pairs the two).
//!
//! Each scenario asserts the protocol's contract *inside* the model
//! closure, so [`crate::check`] refutes it over every interleaving up
//! to the preemption bound:
//!
//! * [`claim_commit_scenario`] — workers claim task indices from one
//!   cursor and the committer takes them back strictly in order: every
//!   index runs once and is committed once, in order, and its result
//!   reaches the committer through the slot mutex.
//! * [`quiesce_scenario`] — a cancel racing the claims: the committer
//!   stops at a task boundary, what it committed is an in-order prefix,
//!   and every worker quiesces.
//! * [`shard_retry_quiesce_scenario`] — the shard supervisor's retry
//!   and cancel race (mirrored from `csj_shard::supervisor`).
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
use crate::sync::{Arc, Condvar, Mutex, MutexGuard};
use crate::thread;

/// Mirror of `csj_core::parallel`'s `Stream`: same fields, same
/// orderings. `next` hands out indices and `stop` is advisory, both
/// `Relaxed`; results travel under the `slots` mutex. The scenarios in
/// this module are the evidence that this split is sound — see
/// DESIGN.md §9.
pub struct ModelStream {
    /// The number of tasks.
    pub tasks: usize,
    /// The next task index to claim.
    pub next: AtomicUsize,
    /// Set once the committer stops.
    pub stop: AtomicBool,
    /// Finished tasks by index, and the workers still running.
    pub slots: Mutex<ModelSlots>,
    /// Signalled when a task lands or a worker exits.
    pub landed: Condvar,
}

/// Mirror of `Slots`.
pub struct ModelSlots {
    /// Finished tasks by index, until the committer takes them.
    pub done: Vec<Option<usize>>,
    /// Workers that have not exited yet.
    pub running: usize,
}

impl ModelStream {
    /// A stream over `tasks` tasks served by `workers` workers.
    pub fn new(tasks: usize, workers: usize) -> Self {
        ModelStream {
            tasks,
            next: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            slots: Mutex::new(ModelSlots { done: vec![None; tasks], running: workers }),
            landed: Condvar::new(),
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One worker: the claim loop of `Stream::work` and the exit of its
/// `Exit` guard, operation for operation. A task's "work" writes its
/// result cell outside any lock; every task here is a step to run (the
/// production loop lands nothing for a split's record, which the
/// committer passes without waiting). Returns the indices it ran.
pub fn worker(stream: &ModelStream, results: &[RaceCell<usize>]) -> Vec<usize> {
    let mut ran = Vec::new();
    // ORDERING: advisory stop, exactly as in `Stream::work`.
    while !stream.stop.load(Ordering::Relaxed) {
        // ORDERING: a claim counter; the RMW alone makes claims unique.
        let i = stream.next.fetch_add(1, Ordering::Relaxed);
        if i >= stream.tasks {
            break;
        }
        results[i].set(i + 1);
        ran.push(i);
        lock(&stream.slots).done[i] = Some(i);
        stream.landed.notify_all();
    }
    lock(&stream.slots).running -= 1;
    stream.landed.notify_all();
    ran
}

/// `Stream::take`: waits for task `i`; `None` once every worker exited
/// without landing it.
fn take(stream: &ModelStream, i: usize) -> Option<usize> {
    let mut slots = lock(&stream.slots);
    loop {
        if let Some(out) = slots.done[i].take() {
            return Some(out);
        }
        if slots.running == 0 {
            return None;
        }
        slots = stream.landed.wait(slots).unwrap_or_else(PoisonError::into_inner);
    }
}

/// The committer of `ParallelJoin::commit`: a boundary check (the
/// cancel flag) before each task, then the task in index order, whose
/// result cell it reads. Stops the workers on the way out, as the run
/// does after the commit loop. Returns the indices committed.
fn committer(stream: &ModelStream, cancel: &AtomicBool, results: &[RaceCell<usize>]) -> Vec<usize> {
    let mut committed = Vec::new();
    for (i, result) in results.iter().enumerate() {
        // ORDERING: mirror of CancelToken::is_canceled (Relaxed).
        if cancel.load(Ordering::Relaxed) {
            break;
        }
        let Some(out) = take(stream, i) else { break };
        assert_eq!(out, i, "task {i}'s slot held another task");
        assert_eq!(result.get(), i + 1, "task {i}'s result did not reach the committer");
        committed.push(out);
    }
    // ORDERING: advisory stop, as in `Stream::stop`.
    stream.stop.store(true, Ordering::Relaxed);
    committed
}

/// Runs two workers and the committer over `n` tasks, with an optional
/// canceller racing them. Returns the committed indices and every
/// index the workers ran.
fn stream_run(n: usize, cancel_mid_run: bool) -> (Vec<usize>, Vec<usize>) {
    let stream = Arc::new(ModelStream::new(n, 2));
    let results: Arc<Vec<RaceCell<usize>>> = Arc::new((0..n).map(|_| RaceCell::new(0)).collect());
    let cancel = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let (stream, results) = (Arc::clone(&stream), Arc::clone(&results));
            thread::spawn(move || worker(&stream, &results))
        })
        .collect();
    let canceller = cancel_mid_run.then(|| {
        let cancel = Arc::clone(&cancel);
        // ORDERING: mirror of CancelToken::cancel (Relaxed).
        thread::spawn(move || cancel.store(true, Ordering::Relaxed))
    });
    let committed = committer(&stream, &cancel, &results);
    let mut ran: Vec<usize> = workers.into_iter().flat_map(|w| w.join()).collect();
    if let Some(canceller) = canceller {
        canceller.join();
    }
    assert_eq!(lock(&stream.slots).running, 0, "a joined worker was not counted out");
    ran.sort_unstable();
    let mut unique = ran.clone();
    unique.dedup();
    assert_eq!(unique, ran, "a task index was claimed twice");
    (committed, ran)
}

/// Claim/commit handoff, two workers and the committer over `n` tasks:
/// every index runs exactly once and is committed exactly once, in
/// index order, with the result its worker wrote.
pub fn claim_commit_scenario(n: usize) {
    let (committed, ran) = stream_run(n, false);
    let all: Vec<usize> = (0..n).collect();
    assert_eq!(committed, all, "every index committed once, in order");
    assert_eq!(ran, all, "every index ran once");
}

/// Stop/cancel quiesce: a canceller races the claims and the commits.
/// Under every schedule the committer stops at a task boundary, what it
/// committed is the in-order prefix `0..k`, every committed task ran,
/// and both workers quiesce — a worker left waiting or a committer
/// waiting on a task nobody will land is a deadlock the checker reports.
pub fn quiesce_scenario(n: usize) {
    let (committed, ran) = stream_run(n, true);
    let prefix: Vec<usize> = (0..committed.len()).collect();
    assert_eq!(committed, prefix, "the committed tasks are an in-order prefix");
    assert!(committed.iter().all(|i| ran.contains(i)), "committed a task no worker ran");
    assert!(ran.iter().all(|&i| i < n), "ran a task that does not exist");
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
