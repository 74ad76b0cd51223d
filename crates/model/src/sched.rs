//! The virtual scheduler: serialized execution of model threads with a
//! controller that picks which thread performs each operation.
//!
//! Mechanics: every model thread is a real OS thread, but at each
//! instrumented operation (atomic access, mutex acquire, cell access,
//! yield, join) it *parks* on a shared condvar and waits for the
//! controller to grant it the next step. The controller waits until all
//! live threads are parked, computes the enabled set (a thread parked
//! on a held mutex or an unfinished join is disabled), asks the
//! [`Chooser`] which thread runs, and grants exactly one. The granted
//! thread performs its operation — updating vector clocks and the race
//! detector while it holds the core lock — then runs ahead to its next
//! park point. One operation is in flight at a time, so every
//! execution is a sequentially consistent interleaving, and the
//! sequence of grants *is* the schedule trace.
//!
//! Fairness: a thread parked on a [`Op::Yield`] (a spin-loop backoff)
//! is only eligible when every other enabled thread is also yielding,
//! mirroring loom's treatment of `yield_now` — this keeps spin loops
//! from generating unbounded self-scheduling suffixes.
//!
//! Teardown: any failure (race, panic, deadlock, livelock) sets an
//! abort flag; parked threads wake, unwind with a private sentinel
//! panic ([`ModelAbort`]) that the thread wrapper swallows, and the
//! controller collects the schedule prefix as the replayable trace.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use crate::vclock::{Epoch, VClock};
use crate::{Failure, Trace};

/// Global id well for synchronization objects. Objects are created
/// fresh inside each execution of the model closure, so ids never
/// collide within one execution's clock tables.
static NEXT_LOC: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh location id for an atomic/mutex/cell.
pub(crate) fn next_loc_id() -> u64 {
    // ORDERING: a pure id well — uniqueness comes from the RMW's
    // atomicity; no data is published through the counter.
    NEXT_LOC.fetch_add(1, Ordering::Relaxed)
}

/// The operation a parked thread is waiting to perform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Op {
    /// Thread startup (its first scheduling point).
    Start,
    /// A `yield_now` backoff inside a spin loop.
    Yield,
    /// Atomic load; `acquire` if the ordering has acquire semantics.
    AtomicLoad { loc: u64, acquire: bool },
    /// Atomic store; `release` if the ordering has release semantics.
    AtomicStore { loc: u64, release: bool },
    /// Atomic read-modify-write.
    AtomicRmw { loc: u64, acquire: bool, release: bool },
    /// Mutex acquisition (disabled while the mutex is held).
    MutexLock { loc: u64 },
    /// Unsynchronized read of a [`crate::cell::RaceCell`].
    CellRead { loc: u64 },
    /// Unsynchronized write of a [`crate::cell::RaceCell`].
    CellWrite { loc: u64 },
    /// Join on another model thread (disabled until it finishes).
    Join { tid: usize },
    /// Condvar wait that began after `seen` notifications (disabled
    /// until a later notification arrives: no spurious wake-ups, so a
    /// lost wake-up shows up as a deadlock).
    CondWait { cv: u64, seen: u64 },
    /// Condvar `notify_all`.
    CondNotify { cv: u64 },
}

impl Op {
    fn describe(self) -> String {
        match self {
            Op::Start => "start".into(),
            Op::Yield => "yield".into(),
            Op::AtomicLoad { loc, .. } => format!("atomic-load@{loc}"),
            Op::AtomicStore { loc, .. } => format!("atomic-store@{loc}"),
            Op::AtomicRmw { loc, .. } => format!("atomic-rmw@{loc}"),
            Op::MutexLock { loc } => format!("mutex-lock@{loc}"),
            Op::CondWait { cv, .. } => format!("condvar-wait@{cv}"),
            Op::CondNotify { cv } => format!("condvar-notify@{cv}"),
            Op::CellRead { loc } => format!("cell-read@{loc}"),
            Op::CellWrite { loc } => format!("cell-write@{loc}"),
            Op::Join { tid } => format!("join({tid})"),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TStatus {
    /// Registered, OS thread not yet parked at its first point.
    Starting,
    /// Granted: running ahead to its next park point.
    Running,
    /// Parked at `op`, waiting for a grant.
    Parked,
    /// Done (normally, or unwound during teardown).
    Finished,
}

struct TState {
    status: TStatus,
    op: Op,
}

#[derive(Default)]
struct CellState {
    write: Option<Epoch>,
    reads: Vec<Epoch>,
}

/// Everything the controller and the parked threads share, behind one
/// mutex. Coarse on purpose: executions are serialized anyway, so a
/// single lock keeps the handshake easy to reason about.
struct Core {
    threads: Vec<TState>,
    clocks: Vec<VClock>,
    final_clocks: Vec<Option<VClock>>,
    /// Thread currently granted (it clears this as it resumes).
    active: Option<usize>,
    abort: bool,
    failure: Option<Failure>,
    /// Release clocks of atomic locations (empty clock = last store was
    /// relaxed, which breaks the release sequence).
    atomic_sync: HashMap<u64, VClock>,
    mutex_clock: HashMap<u64, VClock>,
    mutex_held: HashMap<u64, bool>,
    /// Notifications each condvar has received so far.
    cv_notifies: HashMap<u64, u64>,
    cells: HashMap<u64, CellState>,
    ops: usize,
    max_ops: usize,
    /// The schedule so far: one granted tid per decision.
    steps: Vec<usize>,
}

impl Core {
    fn new(max_ops: usize) -> Self {
        Core {
            threads: Vec::new(),
            clocks: Vec::new(),
            final_clocks: Vec::new(),
            active: None,
            abort: false,
            failure: None,
            atomic_sync: HashMap::new(),
            mutex_clock: HashMap::new(),
            mutex_held: HashMap::new(),
            cv_notifies: HashMap::new(),
            cells: HashMap::new(),
            ops: 0,
            max_ops,
            steps: Vec::new(),
        }
    }

    fn fail(&mut self, f: Failure) {
        if self.failure.is_none() {
            self.failure = Some(f);
        }
        self.abort = true;
    }

    /// Applies the happens-before effects of `op`, performed by `tid`,
    /// and runs the race detector for cell accesses.
    fn apply(&mut self, tid: usize, op: Op) {
        match op {
            // A condvar carries no happens-before edge of its own: the
            // waiter's re-acquisition of the mutex supplies it.
            Op::Start | Op::Yield | Op::CondWait { .. } => {}
            Op::CondNotify { cv } => *self.cv_notifies.entry(cv).or_default() += 1,
            Op::AtomicLoad { loc, acquire } => {
                if acquire {
                    if let Some(sync) = self.atomic_sync.get(&loc).cloned() {
                        self.clocks[tid].join(&sync);
                    }
                }
            }
            Op::AtomicStore { loc, release } => {
                // A relaxed store breaks any release sequence: later
                // acquire loads observe this store, which publishes no
                // clock, so the location's sync clock is reset.
                let published = if release { self.clocks[tid].clone() } else { VClock::new() };
                self.atomic_sync.insert(loc, published);
            }
            Op::AtomicRmw { loc, acquire, release } => {
                if acquire {
                    if let Some(sync) = self.atomic_sync.get(&loc).cloned() {
                        self.clocks[tid].join(&sync);
                    }
                }
                if release {
                    // An RMW extends the release sequence, so its clock
                    // joins (rather than replaces) the location's.
                    let mine = self.clocks[tid].clone();
                    self.atomic_sync.entry(loc).or_default().join(&mine);
                }
            }
            Op::MutexLock { loc } => {
                self.mutex_held.insert(loc, true);
                if let Some(mc) = self.mutex_clock.get(&loc).cloned() {
                    self.clocks[tid].join(&mc);
                }
            }
            Op::CellRead { loc } => {
                let clock = self.clocks[tid].clone();
                let cell = self.cells.entry(loc).or_default();
                let race = cell.write.filter(|w| w.tid != tid && !w.before(&clock));
                if let Some(w) = race {
                    self.fail(Failure::DataRace {
                        loc,
                        kind: "write-read",
                        first: w.tid,
                        second: tid,
                    });
                    return;
                }
                let cell = self.cells.entry(loc).or_default();
                cell.reads.retain(|r| r.tid != tid);
                cell.reads.push(Epoch::of(tid, &clock));
            }
            Op::CellWrite { loc } => {
                let clock = self.clocks[tid].clone();
                let cell = self.cells.entry(loc).or_default();
                let write_race = cell.write.filter(|w| w.tid != tid && !w.before(&clock));
                let read_race =
                    cell.reads.iter().copied().find(|r| r.tid != tid && !r.before(&clock));
                if let Some(w) = write_race {
                    self.fail(Failure::DataRace {
                        loc,
                        kind: "write-write",
                        first: w.tid,
                        second: tid,
                    });
                    return;
                }
                if let Some(r) = read_race {
                    self.fail(Failure::DataRace {
                        loc,
                        kind: "read-write",
                        first: r.tid,
                        second: tid,
                    });
                    return;
                }
                let cell = self.cells.entry(loc).or_default();
                cell.reads.clear();
                cell.write = Some(Epoch::of(tid, &clock));
            }
            Op::Join { tid: child } => {
                if let Some(fc) = self.final_clocks.get(child).cloned().flatten() {
                    self.clocks[tid].join(&fc);
                }
            }
        }
    }

    fn enabled(&self, tid: usize) -> bool {
        match self.threads[tid].op {
            Op::MutexLock { loc } => !self.mutex_held.get(&loc).copied().unwrap_or(false),
            Op::Join { tid: t } => self.threads[t].status == TStatus::Finished,
            Op::CondWait { cv, seen } => self.cv_notifies.get(&cv).copied().unwrap_or(0) > seen,
            _ => true,
        }
    }
}

/// The handshake state one execution runs on.
pub(crate) struct Inner {
    core: Mutex<Core>,
    cvar: Condvar,
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Inner>, usize)>> = const { RefCell::new(None) };
}

/// The (execution, tid) of the calling model thread, or `None` when
/// called outside any model run (passthrough mode).
pub(crate) fn current() -> Option<(Arc<Inner>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Sentinel panic payload used to unwind model threads at teardown;
/// the thread wrapper swallows it.
pub(crate) struct ModelAbort;

fn lock_core(inner: &Inner) -> std::sync::MutexGuard<'_, Core> {
    inner.core.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Parks the calling model thread at a scheduling point, waits for the
/// controller's grant, applies the operation's happens-before effects,
/// and returns `true`. Returns `false` in passthrough mode — the
/// caller then performs its operation directly on the backing
/// primitive with no model involved.
pub(crate) fn yield_point(op: Op) -> bool {
    let Some((inner, tid)) = current() else { return false };
    let mut core = lock_core(&inner);
    core.threads[tid].status = TStatus::Parked;
    core.threads[tid].op = op;
    inner.cvar.notify_all();
    loop {
        if core.abort {
            drop(core);
            panic_any(ModelAbort);
        }
        if core.active == Some(tid) {
            break;
        }
        core = inner.cvar.wait(core).unwrap_or_else(PoisonError::into_inner);
    }
    core.active = None;
    core.threads[tid].status = TStatus::Running;
    core.ops += 1;
    if core.ops > core.max_ops {
        let ops = core.ops;
        core.fail(Failure::Livelock { ops });
    } else {
        core.clocks[tid].bump(tid);
        core.apply(tid, op);
    }
    if core.abort {
        inner.cvar.notify_all();
        drop(core);
        panic_any(ModelAbort);
    }
    true
}

/// Records a mutex release: updates the mutex's clock and frees it.
/// Not a scheduling point — the releasing thread keeps running, and
/// peers observe the free mutex at their next decision.
pub(crate) fn mutex_unlock(loc: u64) {
    let Some((inner, tid)) = current() else { return };
    let mut core = lock_core(&inner);
    core.mutex_held.insert(loc, false);
    let mine = core.clocks[tid].clone();
    core.mutex_clock.insert(loc, mine);
    core.clocks[tid].bump(tid);
    inner.cvar.notify_all();
}

/// Notifications `cv` has received so far, read by a waiter while it
/// still holds the mutex; `None` in passthrough mode. Not a scheduling
/// point.
pub(crate) fn condvar_epoch(cv: u64) -> Option<u64> {
    let (inner, _) = current()?;
    let core = lock_core(&inner);
    Some(core.cv_notifies.get(&cv).copied().unwrap_or(0))
}

/// Registers a new model thread (the root, or a child of `parent`) and
/// returns its tid. The child's clock starts as a copy of the
/// parent's — the spawn happens-before edge.
pub(crate) fn register_thread(inner: &Arc<Inner>, parent: Option<usize>) -> usize {
    let mut core = lock_core(inner);
    let tid = core.threads.len();
    core.threads.push(TState { status: TStatus::Starting, op: Op::Start });
    let clock = match parent {
        Some(p) => {
            core.clocks[p].bump(p);
            core.clocks[p].clone()
        }
        None => VClock::new(),
    };
    core.clocks.push(clock);
    core.final_clocks.push(None);
    tid
}

/// Runs `f` as the body of model thread `tid`: sets the thread-local
/// execution pointer, parks at the start point, catches panics (real
/// ones become [`Failure::Panic`]; [`ModelAbort`] is the teardown
/// sentinel and is swallowed), and marks the thread finished.
pub(crate) fn run_thread_body<F: FnOnce()>(inner: Arc<Inner>, tid: usize, f: F) {
    CURRENT.with(|c| *c.borrow_mut() = Some((inner.clone(), tid)));
    let result = catch_unwind(AssertUnwindSafe(|| {
        yield_point(Op::Start);
        f();
    }));
    CURRENT.with(|c| *c.borrow_mut() = None);
    let mut core = lock_core(&inner);
    if let Err(payload) = result {
        if !payload.is::<ModelAbort>() {
            let message = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            core.fail(Failure::Panic { thread: tid, message });
        }
    }
    core.threads[tid].status = TStatus::Finished;
    let fc = core.clocks[tid].clone();
    core.final_clocks[tid] = Some(fc);
    inner.cvar.notify_all();
}

/// Picks the next thread to grant. `candidates` is sorted and
/// nonempty; `prev` is the previously granted thread (it may or may
/// not be a candidate). `None` aborts the execution (replay
/// divergence or a nondeterministic model closure).
pub(crate) trait Chooser {
    fn choose(&mut self, candidates: &[usize], prev: Option<usize>) -> Option<usize>;
}

/// What one execution produced.
pub(crate) struct ExecutionOutcome {
    pub steps: Vec<usize>,
    pub failure: Option<Failure>,
}

/// Silences the default panic printout for model threads (their panics
/// are captured and reported as [`Failure::Panic`], and every teardown
/// unwinds with the sentinel); other threads keep the previous hook.
fn install_quiet_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if current().is_none() {
                prev(info);
            }
        }));
    });
}

/// Runs the model closure once under `chooser`'s schedule.
pub(crate) fn run_execution<F>(
    f: Arc<F>,
    chooser: &mut dyn Chooser,
    max_ops: usize,
) -> ExecutionOutcome
where
    F: Fn() + Send + Sync + 'static,
{
    install_quiet_hook();
    let inner = Arc::new(Inner { core: Mutex::new(Core::new(max_ops)), cvar: Condvar::new() });
    let root = register_thread(&inner, None);
    debug_assert_eq!(root, 0);
    let inner_root = Arc::clone(&inner);
    let root_handle = std::thread::spawn(move || run_thread_body(inner_root, 0, move || f()));

    let mut prev: Option<usize> = None;
    let outcome;
    loop {
        let mut core = lock_core(&inner);
        // Quiescence: the previous grant has been consumed (`active`
        // cleared by the woken thread) and every thread is parked or
        // finished. Checking `active` matters: right after a grant the
        // chosen thread is still `Parked` until it wakes, and without
        // the check the controller could double-decide on stale state.
        while core.active.is_some()
            || core.threads.iter().any(|t| matches!(t.status, TStatus::Starting | TStatus::Running))
        {
            core = inner.cvar.wait(core).unwrap_or_else(PoisonError::into_inner);
        }
        if core.failure.is_some() || core.abort {
            outcome = teardown(&inner, core);
            break;
        }
        let parked: Vec<usize> = (0..core.threads.len())
            .filter(|&t| core.threads[t].status == TStatus::Parked)
            .collect();
        if parked.is_empty() {
            // All finished: a clean, complete execution.
            outcome = ExecutionOutcome { steps: core.steps.clone(), failure: core.failure.clone() };
            break;
        }
        let enabled: Vec<usize> = parked.iter().copied().filter(|&t| core.enabled(t)).collect();
        if enabled.is_empty() {
            let waiting = parked
                .iter()
                .map(|&t| format!("thread {t} blocked on {}", core.threads[t].op.describe()))
                .collect();
            core.fail(Failure::Deadlock { waiting });
            outcome = teardown(&inner, core);
            break;
        }
        // Yield fairness: a spinning thread only runs when every
        // enabled thread is spinning.
        let eager: Vec<usize> =
            enabled.iter().copied().filter(|&t| core.threads[t].op != Op::Yield).collect();
        let candidates = if eager.is_empty() { enabled } else { eager };
        match chooser.choose(&candidates, prev) {
            Some(tid) if candidates.contains(&tid) => {
                core.steps.push(tid);
                prev = Some(tid);
                core.active = Some(tid);
                inner.cvar.notify_all();
            }
            _ => {
                let step = core.steps.len();
                core.fail(Failure::ReplayDiverged { step });
                outcome = teardown(&inner, core);
                break;
            }
        }
    }
    // The root OS thread has marked itself finished; reap it so no OS
    // threads accumulate across the (many) executions of a check.
    let _ = root_handle.join();
    outcome
}

/// Aborts a failed execution: wakes every parked thread (they unwind
/// via [`ModelAbort`]), waits for all of them to finish, and snapshots
/// the failure plus the schedule prefix that reached it.
fn teardown(inner: &Inner, mut core: std::sync::MutexGuard<'_, Core>) -> ExecutionOutcome {
    core.abort = true;
    inner.cvar.notify_all();
    while core.threads.iter().any(|t| t.status != TStatus::Finished) {
        core = inner.cvar.wait(core).unwrap_or_else(PoisonError::into_inner);
    }
    ExecutionOutcome { steps: core.steps.clone(), failure: core.failure.clone() }
}

/// Depth-first exploration of the schedule tree with an optional
/// preemption bound (CHESS-style): continuing the previously granted
/// thread is free; switching away from a thread that could have
/// continued costs one preemption. Schedules whose cost exceeds the
/// bound are pruned, which keeps exploration polynomial while still
/// covering every bug reachable with few preemptions — empirically
/// almost all of them.
pub(crate) struct Explorer {
    bound: Option<usize>,
    frames: Vec<Frame>,
    depth: usize,
}

struct Frame {
    /// Candidate threads, previously-granted thread first.
    options: Vec<usize>,
    /// Index into `options` taken on the current execution.
    chosen: usize,
    /// Whether `options[0]` is the previously granted thread (so any
    /// other choice is a preemption).
    prev_first: bool,
    /// Preemptions spent strictly before this decision.
    preemptions_before: usize,
}

impl Frame {
    fn cost(&self, idx: usize) -> usize {
        usize::from(self.prev_first && idx != 0)
    }
}

impl Explorer {
    pub(crate) fn new(bound: Option<usize>) -> Self {
        Explorer { bound, frames: Vec::new(), depth: 0 }
    }

    /// Rewinds to the deepest decision with an unexplored, in-budget
    /// alternative. Returns `false` when the bounded schedule space is
    /// exhausted.
    pub(crate) fn backtrack(&mut self) -> bool {
        self.depth = 0;
        while let Some(mut f) = self.frames.pop() {
            let mut next = f.chosen + 1;
            while next < f.options.len() {
                let within = self.bound.is_none_or(|b| f.preemptions_before + f.cost(next) <= b);
                if within {
                    f.chosen = next;
                    self.frames.push(f);
                    return true;
                }
                next += 1;
            }
        }
        false
    }
}

impl Chooser for Explorer {
    fn choose(&mut self, candidates: &[usize], prev: Option<usize>) -> Option<usize> {
        if self.depth < self.frames.len() {
            // Replaying the committed prefix. The model closure must be
            // deterministic for the replay to see the same choices.
            let f = &self.frames[self.depth];
            let mut seen: Vec<usize> = f.options.clone();
            seen.sort_unstable();
            if seen != candidates {
                return None;
            }
            let tid = f.options[f.chosen];
            self.depth += 1;
            return Some(tid);
        }
        let mut options = candidates.to_vec();
        let prev_first = match prev {
            Some(p) => match options.iter().position(|&t| t == p) {
                Some(pos) => {
                    options.remove(pos);
                    options.insert(0, p);
                    true
                }
                None => false,
            },
            None => false,
        };
        let preemptions_before =
            self.frames.last().map(|f| f.preemptions_before + f.cost(f.chosen)).unwrap_or(0);
        let tid = options[0];
        self.frames.push(Frame { options, chosen: 0, prev_first, preemptions_before });
        self.depth += 1;
        Some(tid)
    }
}

/// Replays a recorded schedule; past the recorded prefix it follows
/// the default continue-previous policy.
pub(crate) struct ReplayChooser {
    steps: Vec<usize>,
    depth: usize,
}

impl ReplayChooser {
    pub(crate) fn new(trace: &Trace) -> Self {
        ReplayChooser { steps: trace.steps.clone(), depth: 0 }
    }
}

impl Chooser for ReplayChooser {
    fn choose(&mut self, candidates: &[usize], prev: Option<usize>) -> Option<usize> {
        if self.depth < self.steps.len() {
            let tid = self.steps[self.depth];
            self.depth += 1;
            return candidates.contains(&tid).then_some(tid);
        }
        match prev.filter(|p| candidates.contains(p)) {
            Some(p) => Some(p),
            None => candidates.first().copied(),
        }
    }
}
