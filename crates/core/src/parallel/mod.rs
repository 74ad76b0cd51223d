//! Parallel similarity joins on a work-stealing scheduler (extension
//! beyond the paper).
//!
//! The recursion of Figure 3 decomposes naturally: expand the tree a few
//! levels into independent *tasks* (subtree self-joins and qualifying
//! subtree pairs), then run the ordinary [`Engine`] on each task from a
//! worker pool. The scheduler replaces a static split with three
//! mechanisms:
//!
//! * **Per-worker deques.** Each worker owns a private task deque; the
//!   per-task hot path is a plain `pop_front` plus a handful of atomic
//!   counter updates — no lock is acquired while work is flowing.
//! * **Stealing through a donation pool.** A worker that runs dry
//!   registers itself as starving and takes tasks from a shared pool;
//!   busy workers notice the starving count (one relaxed atomic load per
//!   task) and donate half their private deque. The pool's `Mutex` is
//!   only ever touched on this cold path.
//! * **Adaptive splitting.** When workers are starving and the pool is
//!   empty, a busy worker splits the task it just claimed into its
//!   child tasks instead of running it whole, so one dense subtree (the
//!   skewed-cluster case) no longer pins a single worker.
//!
//! Determinism: every task carries a hierarchical key (its split
//! genealogy); results are merged in key order, and splitting a task
//! yields children whose key-ordered output is item-for-item identical
//! to running the parent directly — a split is the engine's own child
//! expansion ([`Engine::split`]), which also credits the parent's visit
//! and pruned pairs. Output and traversal counters are therefore
//! identical run to run regardless of scheduling, and identical whether
//! or not any task was split or stolen.
//!
//! SSJ and N-CSJ share no state across tasks; for CSJ(g), each task
//! gets its own fresh window — windows only affect *compaction* (which
//! links land in which group), never the represented link set, so the
//! parallel CSJ is still lossless. CSJ tasks are never split at runtime
//! (window grouping is traversal-shaped), so its compaction is also
//! deterministic.

use std::collections::VecDeque;
use std::time::Instant;

use csj_index::{JoinIndex, NodeId};

use crate::budget::{BudgetUsage, CancelToken, Completion, RunBudget, StopReason};
use crate::engine::{infallible, CollectSink, DirectEmit, Engine, LinkHandler, Step, WindowedEmit};
use crate::group::{BallShape, GroupShapeKind, MbrShape};
use crate::output::{JoinOutput, Rows};
use crate::stats::JoinStats;
use crate::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use crate::sync::Mutex;
use crate::JoinConfig;

/// Which join algorithm to run. Every runner takes it: the sequential
/// task loop ([`crate::ResilientJoin`]), [`ParallelJoin`], the
/// out-of-core front, the sharded join and [`crate::spatial::SpatialJoin`].
/// (The name predates the other runners.)
///
/// The three algorithms are one Figure-3 recursion with two switches:
/// N-CSJ is SSJ plus the early-stop rule, CSJ(g) is N-CSJ plus the merge
/// window. A tight cluster shows the difference:
///
/// ```
/// use csj_core::{ParallelAlgo, ResilientJoin};
/// use csj_geom::Point;
/// use csj_index::{rstar::RStarTree, RTreeConfig};
///
/// // N-CSJ emits one group where SSJ emits O(k²) links.
/// let pts: Vec<Point<2>> = (0..20)
///     .map(|i| Point::new([0.5 + (i % 5) as f64 * 1e-4, 0.5 + (i / 5) as f64 * 1e-4]))
///     .collect();
/// let tree = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(25));
/// let join = |algo| ResilientJoin::new(0.1, algo).run(&tree).expect("in memory");
/// let (compact, standard) = (join(ParallelAlgo::Ncsj), join(ParallelAlgo::Ssj));
/// assert_eq!(compact.num_groups(), 1);
/// assert_eq!(standard.num_links(), 190);
/// assert_eq!(compact.expanded_link_set(), standard.expanded_link_set());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParallelAlgo {
    /// SSJ, the standard similarity join (§IV-A): the paper's baseline.
    /// A recursive tree join that prunes node pairs by MINDIST and
    /// enumerates every qualifying link individually. Output size does
    /// not depend on the tree; runtime does (through the tree's shape).
    Ssj,
    /// N-CSJ, the naive compact similarity join (§IV-B): SSJ plus the
    /// early-stopping rule. Whenever a subtree's (or subtree pair's)
    /// bounding shape has diameter ≤ ε, all its records are emitted as
    /// one group: no distance computations, one subtree scan. Links that
    /// cross node boundaries are still emitted individually.
    Ncsj,
    /// CSJ(g), the compact similarity join with a window of `g` recent
    /// groups (§IV-C): N-CSJ plus `mergeIntoPrevGroup`. Every residual
    /// link is offered to the `g` most recently created groups; a group
    /// accepts when its bounding shape ([`JoinConfig::group_shape`]),
    /// extended to cover the link, still has diameter ≤ ε. Links that fit
    /// nowhere open a new group; `g = 0` makes every link its own
    /// 2-group. Because of the tree's spatial locality, recent groups are
    /// near the current link, so a small window (the paper recommends
    /// `g ≈ 10`) captures most cross-subtree links. [`ParallelJoin`]
    /// gives every task a fresh window.
    Csj(usize),
}

/// Receives the link handler an algorithm runs with (see
/// [`ParallelAlgo::with_handler`]).
pub(crate) trait WithHandler<const D: usize> {
    /// What the run returns.
    type Out;
    /// Runs with the engine switches `early_stop` and `handler`.
    fn run<H: LinkHandler<D>>(self, early_stop: bool, handler: H) -> Self::Out;
}

impl ParallelAlgo {
    /// Whether the engine applies the early-stop rule: N-CSJ and CSJ(g).
    pub(crate) fn early_stop(self) -> bool {
        self != ParallelAlgo::Ssj
    }

    /// Runs `f` with this algorithm's link handler under `cfg`: direct
    /// emission for SSJ and N-CSJ, a window of `g` groups of
    /// `cfg.group_shape` for CSJ(g). The one place the self-joins map an
    /// algorithm to the engine's switches. The handler is a concrete
    /// type, so the choice is made once per call, never per link.
    pub(crate) fn with_handler<F: WithHandler<D>, const D: usize>(
        self,
        cfg: &JoinConfig,
        f: F,
    ) -> F::Out {
        let (early_stop, eps, metric) = (self.early_stop(), cfg.epsilon, cfg.metric);
        match (self, cfg.group_shape) {
            (ParallelAlgo::Ssj | ParallelAlgo::Ncsj, _) => f.run(early_stop, DirectEmit),
            (ParallelAlgo::Csj(g), GroupShapeKind::Mbr) => {
                f.run(early_stop, WindowedEmit::<MbrShape<D>, D>::new(g, eps, metric))
            }
            (ParallelAlgo::Csj(g), GroupShapeKind::Ball) => {
                f.run(early_stop, WindowedEmit::<BallShape<D>, D>::new(g, eps, metric))
            }
        }
    }
}

/// A parallel similarity self-join on the work-stealing scheduler.
///
/// ```
/// use csj_core::parallel::{ParallelAlgo, ParallelJoin};
/// use csj_core::ResilientJoin;
/// use csj_geom::Point;
/// use csj_index::{rstar::RStarTree, RTreeConfig};
///
/// let pts: Vec<Point<2>> = (0..2000)
///     .map(|i| Point::new([(i % 50) as f64 / 50.0, (i / 50) as f64 / 40.0]))
///     .collect();
/// let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(10));
/// let par = ParallelJoin::new(0.05, ParallelAlgo::Ssj).with_threads(4).run(&tree);
/// let seq = ResilientJoin::new(0.05, ParallelAlgo::Ssj).run(&tree).expect("in memory");
/// assert_eq!(par.expanded_link_set(), seq.expanded_link_set());
/// ```
#[derive(Clone, Debug)]
pub struct ParallelJoin {
    cfg: JoinConfig,
    algo: ParallelAlgo,
    threads: usize,
    budget: RunBudget,
    cancel: Option<CancelToken>,
    id_width: usize,
}

/// A task's split genealogy: child `j` of a task keyed `k` is keyed
/// `k ++ [j]`. Lexicographic key order reproduces the engine's own
/// depth-first emission order, so sorting results by key makes the
/// merged output independent of scheduling *and* of where splits
/// happened.
type TaskKey = Vec<u32>;

struct TaskItem {
    key: TaskKey,
    task: Step<NodeId>,
    /// Worker currently holding the task; a pool take by a different
    /// worker counts as a steal.
    owner: usize,
}

/// A task's key, rows, counters, and whether it ran to completion. A
/// split parent leaves a record too: no rows, the counters of its
/// split, and never counted as a completed task.
type TaskResult = (TaskKey, Rows, JoinStats, bool);

/// Scheduler state shared by all workers. The `pool` mutex is the only
/// lock, and it is only taken when donating, stealing, or parking — the
/// per-task hot path sees atomics exclusively.
///
/// Memory-ordering contract (DESIGN.md §9; model-checked by
/// `csj_model::protocols`, which mirrors this struct field for field):
///
/// * **Load-bearing, `SeqCst`:** `stop` and `pending` gate worker
///   termination. `pending` in particular must never be observed as
///   zero while tasks exist: split adds children *before* retiring the
///   parent, and per-location coherence means a load cannot travel
///   back past the `fetch_add` in its modification order — so even a
///   relaxed load could not see the dip, but the termination flags
///   stay `SeqCst` as the documented safety margin and are excluded
///   from the downgrade below.
/// * **Advisory, `Relaxed`:** `pool_len` and `starving` only steer the
///   split/donate heuristics; stale reads delay or duplicate a
///   donation, never affect the merged output (split-invariance).
/// * **Stats, `Relaxed`:** `links`/`groups`/`bytes` feed the advisory
///   budget check mid-run and the completion report afterwards;
///   `executed`/`stolen`/`splits`/`total_tasks` are only reported.
///   Final values are read after `thread::scope` joins every worker,
///   and the join edge already orders all their writes. The model
///   suite (`cargo test -p csj-model`) exhausts the steal/donate,
///   cancel-quiesce and re-split protocols at preemption bound 2 with
///   exactly these orderings and proves the counters still sum
///   correctly under every schedule.
struct Shared {
    pool: Mutex<VecDeque<TaskItem>>,
    /// Mirror of `pool.len()`, readable without the lock.
    pool_len: AtomicUsize,
    /// Workers currently out of work and waiting on the pool.
    starving: AtomicUsize,
    /// Tasks not yet executed (in any deque, the pool, or in flight).
    pending: AtomicUsize,
    stop: AtomicBool,
    stop_reason: Mutex<Option<StopReason>>,
    links: AtomicU64,
    groups: AtomicU64,
    bytes: AtomicU64,
    executed: AtomicU64,
    stolen: AtomicU64,
    splits: AtomicU64,
    total_tasks: AtomicU64,
}

impl Shared {
    fn record_stop(&self, reason: StopReason) {
        // Load-bearing: `stop` gates worker termination (see the struct
        // docs); it stays SeqCst deliberately.
        self.stop.store(true, Ordering::SeqCst);
        // csj-lint: allow(panic-safety) — a poisoned lock means a worker
        // already panicked; propagating the panic is the only sound exit.
        let mut guard = self.stop_reason.lock().expect("stop reason lock poisoned");
        guard.get_or_insert(reason);
    }
}

/// The number of workers a default-configured run will use.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

impl ParallelJoin {
    /// A parallel join with range `epsilon`.
    pub fn new(epsilon: f64, algo: ParallelAlgo) -> Self {
        Self::with_config(JoinConfig::new(epsilon), algo)
    }

    /// A parallel join from an explicit configuration.
    pub fn with_config(cfg: JoinConfig, algo: ParallelAlgo) -> Self {
        ParallelJoin {
            cfg,
            algo,
            threads: default_threads(),
            budget: RunBudget::unlimited(),
            cancel: None,
            id_width: 6,
        }
    }

    /// Sets the worker count (clamped to at least 1). The default is
    /// [`default_threads`], i.e. `std::thread::available_parallelism()`.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Applies a resource budget, checked at task boundaries: when a limit
    /// trips, in-flight tasks finish (lossless over the processed region)
    /// and the result comes back [`Completion::Partial`].
    pub fn with_budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches a cancellation token. Cancel takes effect *inside* a
    /// running task (the engine checks between recursion steps), so the
    /// join stops within one task's worth of work.
    pub fn with_cancel(mut self, token: &CancelToken) -> Self {
        self.cancel = Some(token.clone());
        self
    }

    /// Sets the id width used for byte-budget accounting (default 6,
    /// clamped to at least 1 as in [`crate::ResilientJoin`]).
    pub fn with_id_width(mut self, width: usize) -> Self {
        self.id_width = width.max(1);
        self
    }

    /// Runs the join. Output rows appear in deterministic (key) order.
    ///
    /// With a budget or cancel token attached, the run may stop early; the
    /// returned [`JoinOutput::completion`] says so, and the rows produced
    /// remain lossless over the processed region.
    pub fn run<T: JoinIndex<D> + Sync, const D: usize>(&self, tree: &T) -> JoinOutput {
        let (tasks, splits) = self.expand_tasks(tree);
        if tasks.is_empty() {
            return JoinOutput::default();
        }
        let workers = self.threads.min(tasks.len());
        // csj-lint: allow(determinism) — wall-clock feeds RunBudget
        // deadline accounting only; a deadline stop yields
        // Completion::Partial, and completed runs never consult it.
        let start = Instant::now();
        let shared = Shared {
            pool: Mutex::new(VecDeque::new()),
            pool_len: AtomicUsize::new(0),
            // Workers 1..n start with empty deques: they are starving by
            // construction, so the very first splittable task worker 0
            // claims is split for them deterministically.
            starving: AtomicUsize::new(workers - 1),
            pending: AtomicUsize::new(tasks.len()),
            stop: AtomicBool::new(false),
            stop_reason: Mutex::new(None),
            links: AtomicU64::new(0),
            groups: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
            splits: AtomicU64::new(0),
            total_tasks: AtomicU64::new(tasks.len() as u64),
        };

        // All initial tasks seed worker 0; the others get theirs through
        // donation and splitting. This exercises the stealing machinery
        // on every multi-worker run instead of only under skew.
        let mut initial: Vec<VecDeque<TaskItem>> = (0..workers).map(|_| VecDeque::new()).collect();
        initial[0] = tasks.into();

        let worker_results: Vec<Vec<TaskResult>> = std::thread::scope(|scope| {
            let shared = &shared;
            let handles: Vec<_> = initial
                .into_iter()
                .enumerate()
                .map(|(wid, deque)| {
                    scope.spawn(move || self.worker_loop(wid, workers, deque, tree, shared, start))
                })
                .collect();
            // csj-lint: allow(panic-safety) — re-raises a worker thread's
            // panic on the caller; swallowing it would fake a clean join.
            handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
        });

        let mut results: Vec<TaskResult> =
            worker_results.into_iter().flatten().chain(splits).collect();
        results.sort_by(|a, b| a.0.cmp(&b.0));

        // Key order is output order: append each task's rows into one
        // store reserved to its exact size.
        let (rows, ids) = results.iter().fold((0, 0), |(rows, ids), (_, items, ..)| {
            (rows + items.len(), ids + items.num_ids())
        });
        let mut output = JoinOutput {
            items: Rows::with_capacity(rows, ids),
            stats: JoinStats::new(self.cfg.record_access_log),
            ..Default::default()
        };
        let mut done = 0u64;
        for (_, items, stats, completed) in results {
            output.items.append(&items);
            output.stats.absorb(&stats);
            if completed {
                done += 1;
            }
        }
        output.stats.threads_used = workers as u64;
        // ORDERING: read after the scope join above, which already
        // synchronized every worker's writes (see the Shared docs).
        output.stats.tasks_executed = shared.executed.load(Ordering::Relaxed);
        output.stats.tasks_stolen = shared.stolen.load(Ordering::Relaxed); // ORDERING: as above
        output.stats.tasks_split = shared.splits.load(Ordering::Relaxed); // ORDERING: as above
        let total = shared.total_tasks.load(Ordering::Relaxed); // ORDERING: as above
                                                                // csj-lint: allow(panic-safety) — all workers joined cleanly above,
                                                                // so the lock cannot be poisoned or held here.
        let reason = shared.stop_reason.into_inner().expect("stop reason lock poisoned");
        output.completion = match reason {
            None if done == total => Completion::Complete,
            // A worker stopping leaves unclaimed tasks; attribute the
            // partial result to the recorded reason (cancel if a task was
            // interrupted mid-flight).
            maybe => Completion::partial(
                maybe.unwrap_or(StopReason::Canceled),
                done as f64 / total.max(1) as f64,
                // ORDERING: read after the scope join, as above.
                shared.links.load(Ordering::Relaxed),
                shared.bytes.load(Ordering::Relaxed), // ORDERING: as above
            ),
        };
        output
    }

    fn worker_loop<T: JoinIndex<D>, const D: usize>(
        &self,
        wid: usize,
        workers: usize,
        mut local: VecDeque<TaskItem>,
        tree: &T,
        shared: &Shared,
        start: Instant,
    ) -> Vec<TaskResult> {
        let mut out = Vec::new();
        // Workers other than 0 begin pre-registered as starving (see
        // `run`); they deregister on their first acquisition.
        let mut registered_starving = wid != 0 && workers > 1;
        loop {
            if shared.stop.load(Ordering::SeqCst) {
                break;
            }
            // Acquire: private deque first (no lock), then the pool.
            let acquired = match local.pop_front() {
                Some(item) => Some(item),
                None => {
                    // csj-lint: allow(panic-safety) — poisoning implies a
                    // peer panicked mid-donation; propagate, don't limp on.
                    let mut pool = shared.pool.lock().expect("pool lock poisoned");
                    let item = pool.pop_front();
                    // ORDERING: advisory mirror of the pool length (see
                    // the Shared docs); model-checked Relaxed.
                    shared.pool_len.store(pool.len(), Ordering::Relaxed);
                    item
                }
            };
            let Some(mut item) = acquired else {
                if shared.pending.load(Ordering::SeqCst) == 0 {
                    break;
                }
                if !registered_starving {
                    // ORDERING: advisory — steers donation/splitting
                    // only (see the Shared docs); model-checked Relaxed.
                    shared.starving.fetch_add(1, Ordering::Relaxed);
                    registered_starving = true;
                }
                crate::sync::yield_now();
                continue;
            };
            if registered_starving {
                // ORDERING: advisory, as the registration above.
                shared.starving.fetch_sub(1, Ordering::Relaxed);
                registered_starving = false;
            }
            if item.owner != wid {
                // ORDERING: stat counter, read after the scope join.
                shared.stolen.fetch_add(1, Ordering::Relaxed);
                item.owner = wid;
            }

            // Task-boundary checks: cancel and budget.
            if self.cancel.as_ref().is_some_and(CancelToken::is_canceled) {
                shared.record_stop(StopReason::Canceled);
                break;
            }
            if !self.budget.is_unlimited() {
                let usage = BudgetUsage {
                    // ORDERING: monotone stat counters — a budget check
                    // reading slightly stale totals only delays the
                    // stop by at most one task (see the Shared docs).
                    links: shared.links.load(Ordering::Relaxed),
                    groups: shared.groups.load(Ordering::Relaxed), // ORDERING: as `links`
                    bytes: shared.bytes.load(Ordering::Relaxed),   // ORDERING: as `links`
                };
                if let Some(r) = self.budget.exceeded_by(&usage, start.elapsed()) {
                    shared.record_stop(r);
                    break;
                }
            }

            // Adaptive splitting: more peers are starving than the pool
            // can feed — break this task apart instead of running it.
            // CSJ tasks are exempt (their window compaction is shaped by
            // the traversal).
            //
            // ORDERING: both loads are advisory. `starving` and
            // `pool_len` only steer the split-vs-run heuristic; a stale
            // read at worst delays a split by one task or splits once
            // unnecessarily, and the merged output is split-invariant by
            // construction (see `split_task`). Termination is gated by
            // `pending`/`stop`, which stay SeqCst.
            let starving_now = shared.starving.load(Ordering::Relaxed);
            if starving_now > shared.pool_len.load(Ordering::Relaxed) // ORDERING: as `starving`
                && !matches!(self.algo, ParallelAlgo::Csj(_))
            {
                if let Some((children, split)) = self.split_task(tree, &item) {
                    if !children.is_empty() {
                        // ORDERING: stat counters, read after the scope
                        // join (see the Shared docs).
                        shared.splits.fetch_add(1, Ordering::Relaxed);
                        shared.total_tasks.fetch_add(children.len() as u64 - 1, Ordering::Relaxed); // ORDERING: as `splits`
                                                                                                    // Add the children before retiring the parent so
                                                                                                    // `pending` never dips to zero in between; SeqCst
                                                                                                    // because `pending` gates termination.
                        shared.pending.fetch_add(children.len() - 1, Ordering::SeqCst);
                        out.push((item.key, Rows::new(), split, false));
                        // csj-lint: allow(panic-safety) — see the acquire
                        // path: a poisoned pool lock is a peer's panic.
                        let mut pool = shared.pool.lock().expect("pool lock poisoned");
                        pool.extend(children);
                        // ORDERING: advisory mirror, as the acquire path.
                        shared.pool_len.store(pool.len(), Ordering::Relaxed);
                        continue;
                    }
                }
            }

            // Cold-path donation: someone is starving, the pool is low,
            // and we have spare tasks — move half of our deque over.
            //
            // ORDERING: advisory, exactly as above — a stale `starving`
            // or `pool_len` read can only delay or duplicate a donation,
            // and donated tasks carry their keys, so the merge result is
            // unaffected by when (or whether) donation happens.
            let starving_now = shared.starving.load(Ordering::Relaxed);
            if starving_now > 0
                && shared.pool_len.load(Ordering::Relaxed) < starving_now // ORDERING: as `starving`
                && local.len() > 1
            {
                let give = local.len() / 2;
                // csj-lint: allow(panic-safety) — see the acquire path: a
                // poisoned pool lock is a peer's panic.
                let mut pool = shared.pool.lock().expect("pool lock poisoned");
                for _ in 0..give {
                    if let Some(t) = local.pop_back() {
                        pool.push_back(t);
                    }
                }
                // ORDERING: advisory mirror, as the acquire path.
                shared.pool_len.store(pool.len(), Ordering::Relaxed);
            }

            let (items, stats, completed) = self.run_task(tree, item.task);
            // Load-bearing: `pending` gates the starving workers' exit
            // check and must stay SeqCst (see the Shared docs).
            shared.pending.fetch_sub(1, Ordering::SeqCst);
            // ORDERING: stat counter, read after the scope join.
            shared.executed.fetch_add(1, Ordering::Relaxed);
            if !completed {
                shared.record_stop(StopReason::Canceled);
            }
            // ORDERING: monotone counters feeding the advisory budget
            // check; final totals are read after the scope join, which
            // orders them (see the Shared docs).
            shared.links.fetch_add(stats.links_emitted + stats.links_in_groups, Ordering::Relaxed);
            shared.groups.fetch_add(stats.groups_emitted, Ordering::Relaxed); // ORDERING: as `links`
            shared.bytes.fetch_add(items.total_bytes(self.id_width), Ordering::Relaxed); // ORDERING: as `links`
            out.push((item.key, items, stats, completed));
        }
        out
    }

    fn run_task<T: JoinIndex<D>, const D: usize>(
        &self,
        tree: &T,
        task: Step<NodeId>,
    ) -> (Rows, JoinStats, bool) {
        self.algo.with_handler(&self.cfg, TaskRun { join: self, tree, task })
    }

    /// Splits a task into its child tasks through the engine's own
    /// expansion ([`Engine::split`]): same child order, same early-stop
    /// guard, same MINDIST prune. Returns the children with the split's
    /// counters (the parent's visit and pruned pairs), or `None` when the
    /// task must run whole: leaf-level work, or a subtree/pair a compact
    /// join would early-stop (splitting it would change the emitted
    /// groups).
    ///
    /// Executing the children in key order produces item-for-item the
    /// same output as executing the parent, so splitting is invisible in
    /// the merged result.
    fn split_task<T: JoinIndex<D>, const D: usize>(
        &self,
        tree: &T,
        item: &TaskItem,
    ) -> Option<(Vec<TaskItem>, JoinStats)> {
        let mut engine =
            Engine::new(tree, self.cfg, self.algo.early_stop(), DirectEmit, CollectSink::default());
        let steps = infallible(engine.split(item.task))?;
        let children = steps
            .into_iter()
            .enumerate()
            .map(|(j, task)| {
                let mut key = item.key.clone();
                key.push(j as u32);
                TaskItem { key, task, owner: item.owner }
            })
            .collect();
        Some((children, engine.stats))
    }

    /// Breadth-first task expansion until there are comfortably more
    /// tasks than workers (or nothing left to split). Uses the same
    /// [`ParallelJoin::split_task`] as the runtime splitter, so the
    /// initial task set is just a pre-applied sequence of splits; their
    /// records come back alongside. CSJ tasks are splittable *here* (this
    /// fixed partitioning is what makes its compaction deterministic) but
    /// not at runtime.
    fn expand_tasks<T: JoinIndex<D>, const D: usize>(
        &self,
        tree: &T,
    ) -> (Vec<TaskItem>, Vec<TaskResult>) {
        let Some(root) = tree.root() else { return (Vec::new(), Vec::new()) };
        let target = self.threads * 8;
        let mut queue =
            VecDeque::from([TaskItem { key: Vec::new(), task: Step::Node(root), owner: 0 }]);
        let mut done: Vec<TaskItem> = Vec::new();
        let mut splits: Vec<TaskResult> = Vec::new();
        while done.len() + queue.len() < target {
            let Some(item) = queue.pop_front() else { break };
            match self.split_task(tree, &item) {
                // A pair whose children all pruned away leaves only its
                // record.
                Some((children, split)) => {
                    queue.extend(children);
                    splits.push((item.key, Rows::new(), split, false));
                }
                None => done.push(item),
            }
        }
        done.extend(queue);
        // Canonical order: workers consume roughly in engine order, so a
        // budget-stopped run is biased toward a clean output prefix.
        done.sort_by(|a, b| a.key.cmp(&b.key));
        (done, splits)
    }
}

/// One task of a [`ParallelJoin`], run with the handler its algorithm
/// picks: a fresh engine (and, for CSJ(g), a fresh window) per task.
struct TaskRun<'j, T> {
    join: &'j ParallelJoin,
    tree: &'j T,
    task: Step<NodeId>,
}

impl<T: JoinIndex<D>, const D: usize> WithHandler<D> for TaskRun<'_, T> {
    type Out = (Rows, JoinStats, bool);

    fn run<H: LinkHandler<D>>(self, early_stop: bool, handler: H) -> Self::Out {
        let join = self.join;
        let mut engine =
            Engine::new(self.tree, join.cfg, early_stop, handler, CollectSink::default());
        if let Some(token) = &join.cancel {
            engine.set_cancel(token.clone());
        }
        infallible(engine.run_step(self.task));
        infallible(engine.finish_only());
        let completed = engine.stop_reason().is_none();
        (std::mem::take(&mut engine.sink.items), engine.stats, completed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_links;
    use crate::ResilientJoin;
    use csj_geom::Point;
    use csj_index::{rstar::RStarTree, RTreeConfig};

    fn clustered(n: usize) -> Vec<Point<2>> {
        (0..n)
            .map(|i| {
                let c = (i % 7) as f64 * 0.13;
                Point::new([c + ((i * 31) % 97) as f64 * 2e-4, c + ((i * 57) % 89) as f64 * 2e-4])
            })
            .collect()
    }

    /// One dense cluster holding ~80% of the records plus a sparse
    /// background: the workload where a static split pins one worker.
    fn skewed(n: usize) -> Vec<Point<2>> {
        (0..n)
            .map(|i| {
                if i % 5 != 0 {
                    Point::new([
                        0.5 + ((i * 31) % 97) as f64 * 3e-4,
                        0.5 + ((i * 57) % 89) as f64 * 3e-4,
                    ])
                } else {
                    Point::new([((i * 131) % 997) as f64 / 997.0, ((i * 277) % 983) as f64 / 983.0])
                }
            })
            .collect()
    }

    #[test]
    fn parallel_ssj_matches_sequential() {
        let pts = clustered(3_000);
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(10));
        for eps in [0.01, 0.1] {
            let seq = ResilientJoin::new(eps, ParallelAlgo::Ssj).run(&tree).expect("in memory");
            for threads in [1, 2, 8] {
                let par =
                    ParallelJoin::new(eps, ParallelAlgo::Ssj).with_threads(threads).run(&tree);
                assert_eq!(par.expanded_link_set(), seq.expanded_link_set(), "threads={threads}");
                assert_eq!(
                    par.stats.distance_computations, seq.stats.distance_computations,
                    "identical work, just distributed"
                );
                assert_eq!(par.stats.threads_used, threads as u64, "threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_ncsj_and_csj_are_lossless() {
        let pts = clustered(2_500);
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(10));
        let eps = 0.05;
        let truth = brute_force_links(&pts, eps);
        for algo in [ParallelAlgo::Ncsj, ParallelAlgo::Csj(10)] {
            let out = ParallelJoin::new(eps, algo).with_threads(6).run(&tree);
            assert_eq!(out.expanded_link_set(), truth, "{algo:?}");
        }
    }

    #[test]
    fn parallel_output_is_deterministic() {
        let pts = clustered(2_000);
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(8));
        let join = ParallelJoin::new(0.05, ParallelAlgo::Csj(10)).with_threads(7);
        let a = join.run(&tree);
        let b = join.run(&tree);
        assert_eq!(a.items, b.items, "same rows in the same order every run");
    }

    #[test]
    fn ssj_items_invariant_under_scheduling() {
        // Stronger than set equality: SSJ output rows land in the same
        // order whether tasks were split/stolen (8 workers) or executed
        // in sequence (1 worker).
        let pts = skewed(2_000);
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(8));
        let one = ParallelJoin::new(0.03, ParallelAlgo::Ssj).with_threads(1).run(&tree);
        let eight = ParallelJoin::new(0.03, ParallelAlgo::Ssj).with_threads(8).run(&tree);
        assert_eq!(one.items, eight.items);
    }

    #[test]
    fn plane_sweep_splits_follow_sweep_order() {
        // Initial and runtime splits expand in sweep order, so SSJ rows
        // land exactly where the sequential sweep puts them.
        let pts = skewed(2_000);
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(8));
        let cfg = JoinConfig::new(0.03).with_plane_sweep();
        let seq = ResilientJoin::with_config(cfg, ParallelAlgo::Ssj).run(&tree).expect("in memory");
        for threads in [1, 8] {
            let par =
                ParallelJoin::with_config(cfg, ParallelAlgo::Ssj).with_threads(threads).run(&tree);
            assert_eq!(par.items, seq.items, "threads={threads}");
            assert_eq!(par.stats.pairs_pruned, seq.stats.pairs_pruned, "threads={threads}");
        }
    }

    #[test]
    fn parallel_csj_compacts_close_to_sequential() {
        let pts = clustered(3_000);
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(10));
        let eps = 0.05;
        let seq = ResilientJoin::new(eps, ParallelAlgo::Csj(10)).run(&tree).expect("in memory");
        let par = ParallelJoin::new(eps, ParallelAlgo::Csj(10)).with_threads(4).run(&tree);
        assert_eq!(par.expanded_link_set(), seq.expanded_link_set());
        // Per-task windows lose some merges but not catastrophically.
        let (ps, ss) = (par.total_bytes(4) as f64, seq.total_bytes(4) as f64);
        assert!(ps <= ss * 1.5, "parallel bytes {ps} vs sequential {ss}");
    }

    #[test]
    fn ball_groups_reach_every_task() {
        // A thin wavy stripe: cross-node links the window must merge.
        let pts: Vec<Point<2>> = (0..2_000)
            .map(|i| {
                let t = i as f64 / 2_000.0;
                Point::new([t, (t * 43.0).sin() * 0.02])
            })
            .collect();
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(10));
        let eps = 0.03;
        let cfg = JoinConfig::new(eps);
        let run =
            |cfg| ParallelJoin::with_config(cfg, ParallelAlgo::Csj(10)).with_threads(3).run(&tree);
        let (ball, mbr) = (run(cfg.with_group_shape(GroupShapeKind::Ball)), run(cfg));
        assert_eq!(ball.expanded_link_set(), brute_force_links(&pts, eps));
        assert_ne!(ball.items, mbr.items, "ball windows group differently from MBR ones");
    }

    #[test]
    fn id_width_zero_is_clamped_like_the_sequential_runner() {
        // Width 0 would price every id at one byte instead of two, so a
        // byte budget would trip later than on `ResilientJoin`.
        let pts = clustered(2_000);
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(10));
        let budget = RunBudget::unlimited().with_max_bytes(2_000);
        let par = |width| {
            ParallelJoin::new(0.05, ParallelAlgo::Ssj)
                .with_threads(1)
                .with_budget(budget)
                .with_id_width(width)
                .run(&tree)
                .completion
        };
        let seq = |width| {
            ResilientJoin::new(0.05, ParallelAlgo::Ssj)
                .with_budget(budget)
                .with_id_width(width)
                .run(&tree)
                .expect("in memory")
                .completion
        };
        assert!(!par(1).is_complete());
        assert_eq!(par(0), par(1));
        assert_eq!(seq(0), seq(1));
    }

    #[test]
    fn steals_and_splits_happen_on_skewed_input() {
        let pts = skewed(3_000);
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(8));
        // Worker 0 is seeded with every task while 7 peers start
        // starving: its first splittable claim must split, and the
        // donated pool feeds the peers. On a loaded host worker 0 can
        // occasionally drain the pool before any peer thread is even
        // scheduled, so the counters are checked over a few runs —
        // correctness is asserted on every run regardless.
        let mut split = 0u64;
        let mut stolen = 0u64;
        for _ in 0..5 {
            let out = ParallelJoin::new(0.003, ParallelAlgo::Ssj).with_threads(8).run(&tree);
            assert_eq!(out.expanded_link_set(), brute_force_links(&pts, 0.003));
            assert_eq!(out.stats.threads_used, 8);
            assert!(out.stats.tasks_executed > 0);
            split += out.stats.tasks_split;
            stolen += out.stats.tasks_stolen;
            if split > 0 && stolen > 0 {
                break;
            }
        }
        assert!(split > 0, "no adaptive splits on skewed input in 5 runs");
        assert!(stolen > 0, "no steals with 8 workers in 5 runs");
    }

    #[test]
    fn single_worker_never_steals_or_splits() {
        let pts = clustered(1_500);
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(8));
        let out = ParallelJoin::new(0.05, ParallelAlgo::Ssj).with_threads(1).run(&tree);
        assert_eq!(out.stats.threads_used, 1);
        assert_eq!(out.stats.tasks_stolen, 0);
        assert_eq!(out.stats.tasks_split, 0);
    }

    #[test]
    fn empty_and_tiny_trees() {
        let empty = RStarTree::<2>::new(RTreeConfig::default());
        let out = ParallelJoin::new(0.1, ParallelAlgo::Ssj).run(&empty);
        assert!(out.items.is_empty());
        let one = RStarTree::from_points(&[Point::new([0.5, 0.5])], RTreeConfig::default());
        let out = ParallelJoin::new(0.1, ParallelAlgo::Csj(10)).run(&one);
        assert!(out.items.is_empty());
    }

    #[test]
    fn precanceled_token_stops_within_one_task() {
        let pts = clustered(3_000);
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(10));
        let token = CancelToken::new();
        token.cancel();
        let out = ParallelJoin::new(0.05, ParallelAlgo::Csj(10))
            .with_threads(4)
            .with_cancel(&token)
            .run(&tree);
        assert_eq!(out.completion.stop_reason(), Some(StopReason::Canceled));
        assert!(out.items.is_empty(), "the boundary check fires before the first task completes");
    }

    /// Regression: cancellation arriving *mid-steal* — the token set
    /// between a worker's pool pop and its execution of that task —
    /// drops the in-flight task without executing it, and the
    /// `Completion::Partial` accounting must stay consistent anyway.
    /// Timing is swept here (spin-delayed cancellers, plus one
    /// pre-canceled run so a partial outcome is guaranteed); the model
    /// checker covers the same window *exhaustively* in
    /// `csj_model::protocols::quiesce_scenario`, which pins cancel
    /// between acquisition and execution on every schedule.
    #[test]
    fn cancel_mid_steal_keeps_partial_stats_consistent() {
        let pts = skewed(2_500);
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(8));
        let eps = 0.01;
        let truth = brute_force_links(&pts, eps);
        let mut saw_partial = false;
        // delay == 0 cancels before the run starts (deterministic
        // partial); larger delays land inside the steal/execute window.
        for delay in 0..16u32 {
            let token = CancelToken::new();
            if delay == 0 {
                token.cancel();
            }
            let canceller = std::thread::spawn({
                let token = token.clone();
                move || {
                    for _ in 0..delay * 400 {
                        std::hint::spin_loop();
                    }
                    token.cancel();
                }
            });
            let out = ParallelJoin::new(eps, ParallelAlgo::Ssj)
                .with_threads(4)
                .with_cancel(&token)
                .run(&tree);
            canceller.join().expect("canceller thread");
            // Lossless prefix regardless of where the cancel landed.
            for link in out.expanded_link_set() {
                assert!(truth.contains(&link), "canceled run emitted false link {link:?}");
            }
            match out.completion {
                Completion::Complete => {
                    assert_eq!(out.expanded_link_set(), truth);
                }
                Completion::Partial {
                    reason,
                    completed_fraction,
                    estimated_links,
                    estimated_bytes,
                } => {
                    saw_partial = true;
                    assert_eq!(reason, StopReason::Canceled, "delay={delay}");
                    assert!(
                        (0.0..=1.0).contains(&completed_fraction),
                        "fraction {completed_fraction} out of range, delay={delay}"
                    );
                    // The estimates must be the measured totals scaled by
                    // the completed fraction — a dropped in-flight task
                    // (the mid-steal case) must not skew the bookkeeping.
                    let measured = (out.stats.links_emitted + out.stats.links_in_groups) as f64;
                    if completed_fraction > 0.0 {
                        let expected = measured / completed_fraction;
                        assert!(
                            (estimated_links - expected).abs() <= expected * 1e-12 + 1e-12,
                            "estimated_links {estimated_links} != {measured}/{completed_fraction}, delay={delay}"
                        );
                        assert!(estimated_bytes >= 0.0);
                    } else {
                        assert_eq!(estimated_links, 0.0, "nothing measured, delay={delay}");
                        assert_eq!(estimated_bytes, 0.0, "nothing measured, delay={delay}");
                    }
                    // An interrupted task counts as executed but never as
                    // done, so executed can only exceed the done count.
                    let total = out.stats.tasks_split + out.stats.tasks_executed;
                    assert!(
                        out.stats.tasks_executed <= total,
                        "executed {} > total {total}, delay={delay}",
                        out.stats.tasks_executed
                    );
                }
            }
        }
        assert!(saw_partial, "the pre-canceled run must come back Partial");
    }

    /// Miri-sized smoke test (the Miri CI job filters on `miri_`): the
    /// full steal/donate/split machinery on a workload small enough for
    /// the interpreter, still checked against brute force.
    #[test]
    fn miri_parallel_smoke() {
        let pts = clustered(80);
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(4));
        let eps = 0.05;
        let truth = brute_force_links(&pts, eps);
        for algo in [ParallelAlgo::Ssj, ParallelAlgo::Csj(4)] {
            let out = ParallelJoin::new(eps, algo).with_threads(3).run(&tree);
            assert_eq!(out.expanded_link_set(), truth, "{algo:?}");
        }
    }

    /// Miri-sized cancellation smoke test: a pre-canceled token still
    /// quiesces cleanly under the interpreter.
    #[test]
    fn miri_parallel_cancel_smoke() {
        let pts = clustered(60);
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(4));
        let token = CancelToken::new();
        token.cancel();
        let out = ParallelJoin::new(0.05, ParallelAlgo::Ssj)
            .with_threads(2)
            .with_cancel(&token)
            .run(&tree);
        assert_eq!(out.completion.stop_reason(), Some(StopReason::Canceled));
    }

    #[test]
    fn midrun_cancel_yields_a_lossless_prefix() {
        let pts = clustered(4_000);
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(10));
        let eps = 0.05;
        let truth = brute_force_links(&pts, eps);
        let token = CancelToken::new();
        let canceller = std::thread::spawn({
            let token = token.clone();
            move || token.cancel()
        });
        let out = ParallelJoin::new(eps, ParallelAlgo::Ssj)
            .with_threads(2)
            .with_cancel(&token)
            .run(&tree);
        canceller.join().expect("canceller thread");
        // Depending on timing the run may complete or stop early; either
        // way, every emitted link must be a true link.
        for link in out.expanded_link_set() {
            assert!(truth.contains(&link), "canceled run emitted false link {link:?}");
        }
        if out.completion.is_complete() {
            assert_eq!(out.expanded_link_set(), truth);
        } else {
            assert_eq!(out.completion.stop_reason(), Some(StopReason::Canceled));
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::brute::brute_force_links;
    use csj_geom::Point;
    use csj_index::{rstar::RStarTree, RTreeConfig};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The parallel runner is lossless for every algorithm, thread
        /// count and window over arbitrary data.
        #[test]
        fn parallel_lossless(
            pts in prop::collection::vec(prop::array::uniform2(0.0f64..1.0), 0..150),
            eps in 0.0f64..0.5,
            threads in 1usize..6,
            algo_idx in 0usize..3,
        ) {
            let points: Vec<Point<2>> = pts.into_iter().map(Point::new).collect();
            let tree = RStarTree::from_points(&points, RTreeConfig::with_max_fanout(5));
            let algo = [ParallelAlgo::Ssj, ParallelAlgo::Ncsj, ParallelAlgo::Csj(7)][algo_idx];
            let out = ParallelJoin::new(eps, algo).with_threads(threads).run(&tree);
            prop_assert_eq!(out.expanded_link_set(), brute_force_links(&points, eps));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Skewed data (a dense cluster plus sparse background) stays
        /// lossless for all three algorithms across 1 / 2 / 8 workers —
        /// the shape that triggers the donation and splitting paths.
        #[test]
        fn parallel_lossless_on_skew(
            cluster in prop::collection::vec(prop::array::uniform2(0.45f64..0.55), 20..120),
            background in prop::collection::vec(prop::array::uniform2(0.0f64..1.0), 0..40),
            eps in 0.005f64..0.1,
            threads_idx in 0usize..3,
            algo_idx in 0usize..3,
        ) {
            let points: Vec<Point<2>> =
                cluster.into_iter().chain(background).map(Point::new).collect();
            let tree = RStarTree::from_points(&points, RTreeConfig::with_max_fanout(5));
            let threads = [1usize, 2, 8][threads_idx];
            let algo = [ParallelAlgo::Ssj, ParallelAlgo::Ncsj, ParallelAlgo::Csj(7)][algo_idx];
            let out = ParallelJoin::new(eps, algo).with_threads(threads).run(&tree);
            prop_assert_eq!(out.expanded_link_set(), brute_force_links(&points, eps));
        }
    }
}
