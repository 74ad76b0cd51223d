//! Parallel similarity joins on one ordered task stream (extension
//! beyond the paper).
//!
//! The recursion of Figure 3 decomposes naturally: expand the tree a few
//! levels into independent *tasks* (subtree self-joins and qualifying
//! subtree pairs) with the engine's own child expansion
//! ([`Engine::split`]), then run the ordinary [`Engine`] on each. In key
//! order the tasks are the sequential traversal cut into consecutive
//! pieces, so running them in order is running the join.
//!
//! * **Claim.** Workers take the next task index from one atomic cursor
//!   and run that task with the algorithm's early-stop rule.
//! * **Commit.** The calling thread takes finished tasks strictly in
//!   index order into the row sink. SSJ and N-CSJ tasks hand over their
//!   rows. CSJ(g) tasks hand over their link handler's events — each
//!   link with its two points, each early-stopped subtree with its ids
//!   and bounding box — which the committer replays through one group
//!   window. The traversal does not depend on the window, so this fold
//!   is the sequential CSJ(g).
//!
//! Every algorithm therefore writes the sequential bytes and counters at
//! any thread count. Budget and cancel are checked at commit, so a stop
//! commits nothing past the first unrun or interrupted task, and a
//! partial SSJ or N-CSJ file is a prefix of the sequential file.

use std::collections::VecDeque;
use std::time::Instant;

use csj_geom::{Mbr, Point, RecordId};
use csj_index::{JoinIndex, NodeId};
use csj_storage::{OutputSink, OutputWriter};

pub use crate::algo::ParallelAlgo;

use crate::algo::WithHandler;
use crate::budget::{CancelToken, Completion, RunBudget, StopReason};
use crate::engine::{
    infallible, CollectSink, DirectEmit, Engine, LinkHandler, RowSink, Step, StreamSink,
};
use crate::error::CsjError;
use crate::output::{JoinOutput, OutputItem, Rows};
use crate::resilient::{ResilientJoin, ResilientReport};
use crate::stats::JoinStats;
use crate::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use crate::sync::{lock, wait, Condvar, Mutex};
use crate::JoinConfig;

/// A parallel similarity self-join on one ordered task stream. Its rows
/// and counters are those of [`ResilientJoin`]; a budget or a cancel
/// stops it at a task boundary of its own, finer than the sequential
/// runner's.
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
/// let par = ParallelJoin::new(0.05, ParallelAlgo::Csj(10)).with_threads(4).run(&tree);
/// let seq = ResilientJoin::new(0.05, ParallelAlgo::Csj(10)).run(&tree).expect("in memory");
/// assert_eq!(par.items, seq.items);
/// ```
#[derive(Clone, Debug)]
pub struct ParallelJoin {
    /// The sequential runner's settings and task-boundary checks.
    seq: ResilientJoin,
    threads: usize,
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
        ParallelJoin { seq: ResilientJoin::with_config(cfg, algo), threads: default_threads() }
    }

    /// Sets the worker count (clamped to at least 1). The default is
    /// [`default_threads`], i.e. `std::thread::available_parallelism()`.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Applies a resource budget, checked before each task is committed:
    /// when a limit trips, the run stops at that task boundary and comes
    /// back [`Completion::Partial`], lossless over the committed tasks.
    pub fn with_budget(mut self, budget: RunBudget) -> Self {
        self.seq = self.seq.with_budget(budget);
        self
    }

    /// Attaches a cancellation token. Cancel takes effect *inside* a
    /// running task (the engine checks between recursion steps), so the
    /// join stops within one task's worth of work.
    pub fn with_cancel(mut self, token: &CancelToken) -> Self {
        self.seq = self.seq.with_cancel(token);
        self
    }

    /// Sets the id width used for byte-budget accounting (default 6,
    /// clamped to at least 1 as in [`ResilientJoin`]).
    pub fn with_id_width(mut self, width: usize) -> Self {
        self.seq = self.seq.with_id_width(width);
        self
    }

    /// Runs the join, collecting the rows [`ResilientJoin::run`] collects.
    ///
    /// With a budget or cancel token attached, the run may stop early; the
    /// returned [`JoinOutput::completion`] says so, and the rows produced
    /// remain lossless over the processed region.
    pub fn run<T: JoinIndex<D> + Sync, const D: usize>(&self, tree: &T) -> JoinOutput {
        let run = Commit { join: self, tree, sink: CollectSink::default() };
        let (sink, stats, completion) = infallible(self.seq.algo.with_handler(&self.seq.cfg, run));
        JoinOutput { items: sink.items, stats, completion }
    }

    /// Runs the join, streaming the bytes [`ResilientJoin::run_streaming`]
    /// writes into `writer` as tasks commit.
    ///
    /// # Errors
    /// Returns [`CsjError::Storage`] when the sink rejects a write; rows
    /// already written remain valid output over the processed region.
    pub fn run_streaming<T: JoinIndex<D> + Sync, W: OutputSink, const D: usize>(
        &self,
        tree: &T,
        writer: &mut OutputWriter<W>,
    ) -> Result<ResilientReport, CsjError> {
        let run = Commit { join: self, tree, sink: StreamSink::new(writer) };
        let (_, stats, completion) = self.seq.algo.with_handler(&self.seq.cfg, run)?;
        Ok(ResilientReport { stats, completion })
    }

    /// Commits finished tasks in index order until all are in or the run
    /// stops. Returns the stop reason, if any, and the number of steps
    /// committed complete.
    fn commit<H: LinkHandler<D>, R: TaskSink, const D: usize>(
        &self,
        tasks: &[Task],
        stream: &Stream<Done<D>>,
        start: Instant,
        handler: &mut H,
        sink: &mut R,
        stats: &mut JoinStats,
    ) -> Result<(Option<StopReason>, usize), CsjError> {
        let mut done = 0;
        for (i, task) in tasks.iter().enumerate() {
            if let Task::Split(split) = task {
                stats.absorb(split);
                continue;
            }
            if let Some(reason) = self.seq.boundary_check(stats, start) {
                return Ok((Some(reason), done));
            }
            // `None`: a worker panicked before task `i` landed; the
            // scope's join re-raises the panic.
            let Some(out) = stream.take(i) else { return Ok((None, done)) };
            stats.absorb(&out.stats);
            sink.task_rows(&out.rows, (i + 1) as f64 / tasks.len() as f64)?;
            for event in out.events {
                match event {
                    Event::Link(a, pa, b, pb) => handler.on_link(a, &pa, b, &pb, sink, stats)?,
                    Event::Subtree(ids, first, mbr) => {
                        handler.on_subtree(ids, first, &mbr, sink, stats)?
                    }
                }
            }
            if !out.completed {
                // Canceled mid-task: its rows are a lossless prefix.
                return Ok((Some(StopReason::Canceled), done));
            }
            done += 1;
        }
        Ok((None, done))
    }

    /// Runs one step on its own engine: SSJ and N-CSJ rows into a store,
    /// CSJ(g) handler calls into a recording.
    fn run_task<T: JoinIndex<D>, const D: usize>(&self, tree: &T, step: Step<NodeId>) -> Done<D> {
        let (cfg, early_stop) = (self.seq.cfg, self.seq.algo.early_stop());
        let record = matches!(self.seq.algo, ParallelAlgo::Csj(_)).then(Vec::new);
        let mut engine =
            Engine::new(tree, cfg, early_stop, Recorder(record), CollectSink::default());
        if let Some(token) = &self.seq.cancel {
            engine.set_cancel(token.clone());
        }
        infallible(engine.run_step(step));
        Done {
            completed: engine.stop_reason().is_none(),
            rows: engine.sink.items,
            events: engine.handler.0.unwrap_or_default(),
            stats: engine.stats,
        }
    }

    /// Breadth-first task expansion through [`Engine::split`] until there
    /// are comfortably more steps to run than workers (or nothing left to
    /// split), listed in key order with the records of the splits.
    fn expand_tasks<T: JoinIndex<D>, const D: usize>(&self, tree: &T) -> Vec<Task> {
        let (cfg, early_stop) = (self.seq.cfg, self.seq.algo.early_stop());
        let Some(root) = tree.root() else { return Vec::new() };
        let target = self.threads * 8;
        // A task's split genealogy: child `j` of a task keyed `k` is keyed
        // `k ++ [j]`, so key order is the engine's own depth-first order,
        // a split's record just before its children.
        let mut queue = VecDeque::from([(Vec::<u32>::new(), Step::Node(root))]);
        let (mut tasks, mut runs) = (Vec::new(), 0);
        while runs + queue.len() < target {
            let Some((key, step)) = queue.pop_front() else { break };
            let mut engine = Engine::new(tree, cfg, early_stop, DirectEmit, CollectSink::default());
            match infallible(engine.split(step)) {
                // A pair whose children all pruned away leaves only its
                // record.
                Some(children) => {
                    queue.extend(children.into_iter().enumerate().map(|(j, child)| {
                        let mut child_key = key.clone();
                        child_key.push(j as u32);
                        (child_key, child)
                    }));
                    tasks.push((key, Task::Split(engine.stats)));
                }
                None => {
                    runs += 1;
                    tasks.push((key, Task::Run(step)));
                }
            }
        }
        tasks.extend(queue.into_iter().map(|(key, step)| (key, Task::Run(step))));
        tasks.sort_by(|a, b| a.0.cmp(&b.0));
        tasks.into_iter().map(|(_, task)| task).collect()
    }
}

/// An entry of the key-ordered task list: a step for a worker to run, or
/// the record of a split (its visit and pruned pairs), which the
/// committer takes as it passes.
enum Task {
    Run(Step<NodeId>),
    Split(JoinStats),
}

/// A finished step, as its worker hands it to the committer.
struct Done<const D: usize> {
    /// SSJ and N-CSJ: the rows.
    rows: Rows,
    /// CSJ(g): the handler calls, in traversal order.
    events: Vec<Event<D>>,
    stats: JoinStats,
    /// `false` when a cancel interrupted the step.
    completed: bool,
}

/// A CSJ(g) task's handler call, recorded for the committer's window.
enum Event<const D: usize> {
    /// [`LinkHandler::on_link`]: the link's ids and points.
    Link(RecordId, Point<D>, RecordId, Point<D>),
    /// [`LinkHandler::on_subtree`]: the ids, the count from the first
    /// node and the covering box.
    Subtree(Vec<RecordId>, usize, Mbr<D>),
}

/// A task's link handler: with a recording (CSJ(g)) it records the
/// calls for the committer's window; without one (SSJ, N-CSJ) it emits
/// rows as [`DirectEmit`] does.
struct Recorder<const D: usize>(Option<Vec<Event<D>>>);

impl<const D: usize> LinkHandler<D> for Recorder<D> {
    fn on_link<R: RowSink>(
        &mut self,
        a: RecordId,
        pa: &Point<D>,
        b: RecordId,
        pb: &Point<D>,
        sink: &mut R,
        stats: &mut JoinStats,
    ) -> Result<(), CsjError> {
        let Some(events) = &mut self.0 else {
            return DirectEmit.on_link(a, pa, b, pb, sink, stats);
        };
        events.push(Event::Link(a, *pa, b, *pb));
        Ok(())
    }

    fn on_subtree<R: RowSink>(
        &mut self,
        ids: Vec<RecordId>,
        first: usize,
        mbr: &Mbr<D>,
        sink: &mut R,
        stats: &mut JoinStats,
    ) -> Result<(), CsjError> {
        let Some(events) = &mut self.0 else {
            return LinkHandler::<D>::on_subtree(&mut DirectEmit, ids, first, mbr, sink, stats);
        };
        events.push(Event::Subtree(ids, first, *mbr));
        Ok(())
    }
}

/// A row sink the committer hands each SSJ or N-CSJ task's rows at once.
trait TaskSink: RowSink {
    /// Takes one task's rows; with them, about the fraction `share` of
    /// the run's tasks is committed.
    fn task_rows(&mut self, rows: &Rows, _share: f64) -> Result<(), CsjError> {
        for row in rows {
            match row {
                OutputItem::Link(a, b) => self.link_row(a, b)?,
                OutputItem::Group(ids) => self.group_row(ids)?,
            }
        }
        Ok(())
    }
}

impl TaskSink for CollectSink {
    /// Grows the store toward its projected final size, never through a
    /// ladder of doublings whose freed copies stay resident.
    fn task_rows(&mut self, rows: &Rows, share: f64) -> Result<(), CsjError> {
        self.items.append_projected(rows, share);
        Ok(())
    }
}

impl<S: OutputSink> TaskSink for StreamSink<'_, S> {}

/// A [`ParallelJoin`] run into `sink`, given the handler its algorithm
/// picks: the committer's one handler for every task.
struct Commit<'j, T, R> {
    join: &'j ParallelJoin,
    tree: &'j T,
    sink: R,
}

impl<T: JoinIndex<D> + Sync, R: TaskSink, const D: usize> WithHandler<D> for Commit<'_, T, R> {
    type Out = Result<(R, JoinStats, Completion), CsjError>;

    fn run<H: LinkHandler<D>>(self, _early_stop: bool, mut handler: H) -> Self::Out {
        let Commit { join, tree, mut sink } = self;
        // csj-lint: allow(determinism) — wall-clock feeds RunBudget
        // deadline accounting only; a deadline stop yields
        // Completion::Partial, and completed runs never consult it.
        let start = Instant::now();
        let tasks = join.expand_tasks(tree);
        let runs = tasks.iter().filter(|task| matches!(task, Task::Run(_))).count();
        let workers = join.threads.min(runs);
        let stream = Stream::new(tasks.len(), workers);
        let mut stats = JoinStats::new(join.seq.cfg.record_access_log);
        let committed = std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    stream.work(|i| match &tasks[i] {
                        Task::Run(step) => Some(join.run_task(tree, *step)),
                        Task::Split(_) => None,
                    })
                });
            }
            let committed =
                join.commit(&tasks, &stream, start, &mut handler, &mut sink, &mut stats);
            stream.stop();
            committed
        });
        let (reason, done) = committed?;
        // Drain the window, also after a stop: the output stays lossless
        // over the committed tasks.
        handler.finish(&mut sink, &mut stats)?;
        stats.threads_used = workers as u64;
        stats.tasks_executed = done as u64;
        let completion = join.seq.completion(reason, done, runs, &stats);
        Ok((sink, stats, completion))
    }
}

/// The handoff between the workers and the committer: a claim cursor
/// and one slot per task (DESIGN.md §9; `csj_model::protocols` mirrors
/// it operation for operation).
///
/// Memory-ordering contract:
///
/// * `next` only hands out indices: every `fetch_add` returns a distinct
///   one under any ordering, so it is `Relaxed`.
/// * `stop` is advisory: a worker that reads it late runs one more task,
///   whose result lands after the committer stopped taking and is
///   dropped. `Relaxed`.
/// * A task's result travels under the `slots` mutex, whose unlock and
///   lock order the worker's writes before the committer's reads.
struct Stream<T> {
    tasks: usize,
    /// The next task index to claim.
    next: AtomicUsize,
    /// Set once the committer stops: no worker claims another task.
    stop: AtomicBool,
    slots: Mutex<Slots<T>>,
    /// Signalled when a task lands or a worker exits.
    landed: Condvar,
}

struct Slots<T> {
    /// Finished tasks by index, until the committer takes them.
    done: Vec<Option<T>>,
    /// Workers that have not exited yet.
    running: usize,
}

impl<T> Stream<T> {
    fn new(tasks: usize, workers: usize) -> Self {
        Stream {
            tasks,
            next: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            slots: Mutex::new(Slots { done: (0..tasks).map(|_| None).collect(), running: workers }),
            landed: Condvar::new(),
        }
    }

    /// One worker: claims the next index and lands its result, if it has
    /// one, until the indices run out or the committer stops.
    fn work(&self, run: impl Fn(usize) -> Option<T>) {
        let _exit = Exit(self);
        // ORDERING: advisory stop (see the struct docs).
        while !self.stop.load(Ordering::Relaxed) {
            // ORDERING: a claim counter; the RMW alone makes claims unique.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.tasks {
                break;
            }
            if let Some(out) = run(i) {
                lock(&self.slots).done[i] = Some(out);
                self.landed.notify_all();
            }
        }
    }

    /// Waits for task `i` and takes it; `None` once every worker has
    /// exited without landing it (a worker panicked).
    fn take(&self, i: usize) -> Option<T> {
        let mut slots = lock(&self.slots);
        loop {
            if let Some(out) = slots.done[i].take() {
                return Some(out);
            }
            if slots.running == 0 {
                return None;
            }
            slots = wait(&self.landed, slots);
        }
    }

    /// Tells the workers to claim no further task.
    fn stop(&self) {
        // ORDERING: advisory stop (see the struct docs).
        self.stop.store(true, Ordering::Relaxed);
    }
}

/// Counts a worker out when it returns or unwinds, so a panicking
/// worker stops the others and never leaves the committer waiting.
struct Exit<'s, T>(&'s Stream<T>);

impl<T> Drop for Exit<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.stop();
        }
        lock(&self.0.slots).running -= 1;
        self.0.landed.notify_all();
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
    fn empty_and_tiny_trees() {
        let empty = RStarTree::<2>::new(RTreeConfig::default());
        let out = ParallelJoin::new(0.1, ParallelAlgo::Ssj).run(&empty);
        assert!(out.items.is_empty());
        assert!(out.completion.is_complete());
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
        assert!(out.items.is_empty(), "the boundary check fires before the first commit");
    }

    /// Cancellation landing anywhere in a run — before it, between a
    /// claim and its task, inside a task or between commits — keeps the
    /// `Completion::Partial` accounting consistent. Timing is swept here
    /// (spin-delayed cancellers, plus one pre-canceled run so a partial
    /// outcome is guaranteed); the model checker covers a stop racing
    /// the claims *exhaustively* in `csj_model::protocols::quiesce_scenario`.
    #[test]
    fn cancel_mid_run_keeps_partial_stats_consistent() {
        let pts = clustered(2_500);
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(8));
        let eps = 0.01;
        let truth = brute_force_links(&pts, eps);
        let mut saw_partial = false;
        // delay == 0 cancels before the run starts (deterministic
        // partial); larger delays land inside the run.
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
                Completion::Partial { reason, completed_fraction, estimated_links, .. } => {
                    saw_partial = true;
                    assert_eq!(reason, StopReason::Canceled, "delay={delay}");
                    assert!((0.0..1.0).contains(&completed_fraction), "delay={delay}");
                    // The estimate is the committed links over the fraction.
                    let measured = (out.stats.links_emitted + out.stats.links_in_groups) as f64;
                    let expected =
                        if completed_fraction > 0.0 { measured / completed_fraction } else { 0.0 };
                    let err = (estimated_links - expected).abs();
                    assert!(
                        err <= expected * 1e-12,
                        "{estimated_links} vs {expected}, delay={delay}"
                    );
                }
            }
        }
        assert!(saw_partial, "the pre-canceled run must come back Partial");
    }

    #[test]
    fn a_panicking_worker_surfaces_and_never_strands_the_committer() {
        let stream = Stream::new(4, 2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        stream.work(|i| {
                            assert_ne!(i, 1, "task 1 panics");
                            Some(i)
                        })
                    });
                }
                assert_eq!(stream.take(0), Some(0));
                assert_eq!(stream.take(1), None, "no worker is left to land task 1");
            })
        }));
        assert!(caught.is_err(), "the worker's panic reaches the caller");
    }

    /// Miri-sized smoke test (the Miri CI job filters on `miri_`): the
    /// claim/commit handoff on a workload small enough for the
    /// interpreter, checked against the sequential rows.
    #[test]
    fn miri_parallel_smoke() {
        let pts = clustered(80);
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(4));
        let eps = 0.05;
        let truth = brute_force_links(&pts, eps);
        for algo in [ParallelAlgo::Ssj, ParallelAlgo::Csj(4)] {
            let out = ParallelJoin::new(eps, algo).with_threads(3).run(&tree);
            let seq = ResilientJoin::new(eps, algo).run(&tree).expect("in memory");
            assert_eq!(out.items, seq.items, "{algo:?}");
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
        let seq = ResilientJoin::new(eps, ParallelAlgo::Ssj).run(&tree).expect("in memory");
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
        // way its rows are the sequential rows' prefix.
        let prefix: Rows = seq.items.iter().take(out.items.len()).collect();
        assert_eq!(out.items, prefix);
        if out.completion.is_complete() {
            assert_eq!(out.items, seq.items);
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

    /// The parallel run's rows are the sequential rows, and lossless.
    fn assert_sequential_rows(points: &[Point<2>], eps: f64, algo: ParallelAlgo, threads: usize) {
        let tree = RStarTree::from_points(points, RTreeConfig::with_max_fanout(5));
        let out = ParallelJoin::new(eps, algo).with_threads(threads).run(&tree);
        let seq = ResilientJoin::new(eps, algo).run(&tree).expect("in memory");
        assert_eq!(out.items, seq.items);
        assert_eq!(out.expanded_link_set(), brute_force_links(points, eps));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Every algorithm, thread count and window writes the
        /// sequential rows over arbitrary data.
        #[test]
        fn parallel_lossless(
            pts in prop::collection::vec(prop::array::uniform2(0.0f64..1.0), 0..150),
            eps in 0.0f64..0.5,
            threads in 1usize..6,
            algo_idx in 0usize..3,
        ) {
            let points: Vec<Point<2>> = pts.into_iter().map(Point::new).collect();
            let algo = [ParallelAlgo::Ssj, ParallelAlgo::Ncsj, ParallelAlgo::Csj(7)][algo_idx];
            assert_sequential_rows(&points, eps, algo, threads);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Skewed data (a dense cluster plus sparse background), where
        /// tasks finish far out of order, across 1 / 2 / 8 workers.
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
            let threads = [1usize, 2, 8][threads_idx];
            let algo = [ParallelAlgo::Ssj, ParallelAlgo::Ncsj, ParallelAlgo::Csj(7)][algo_idx];
            assert_sequential_rows(&points, eps, algo, threads);
        }
    }
}
