//! The fault-tolerant join runner: the one sequential task loop.
//!
//! [`ResilientJoin`] runs the Figure-3 engine over any [`NodeSource`] —
//! an in-memory tree (`&tree`) or a page-resident one
//! ([`crate::outofcore::PagedSource`]) — with the full robustness stack:
//! a [`RunBudget`] checked at root-level task boundaries (the engine's
//! own root split, [`Engine::split_root`]) and a cooperative
//! [`CancelToken`]. A page read that fails beyond the storage layer's
//! retries is an `Err` from the source; the retries it did absorb are
//! only *counted*, in [`JoinStats::io_retries`].
//!
//! The degradation contract mirrors §VI of the paper, where SSJ runs
//! that outgrew free disk were *crashed* and their totals extrapolated
//! from the completed fraction (the filled markers of Figures 5 and 7).
//! Here the same situation is a recoverable runtime state: when a limit
//! trips, the runner finishes the task it is on, drains the CSJ group
//! window (so the output stays lossless over the processed region) and
//! returns a [`JoinOutput`] whose [`Completion::Partial`] carries the
//! stop reason, the completed fraction and the paper-style
//! measured-over-fraction estimates.
//!
//! ```
//! use csj_core::parallel::ParallelAlgo;
//! use csj_core::{ResilientJoin, RunBudget};
//! use csj_geom::Point;
//! use csj_index::{rstar::RStarTree, RTreeConfig};
//!
//! let pts: Vec<Point<2>> = (0..900)
//!     .map(|i| Point::new([(i % 30) as f64 / 30.0, (i / 30) as f64 / 30.0]))
//!     .collect();
//! let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(8));
//! let out = ResilientJoin::new(0.08, ParallelAlgo::Csj(10))
//!     .with_budget(RunBudget::unlimited().with_max_links(50))
//!     .run(&tree)
//!     .expect("in-memory run cannot fail");
//! assert!(!out.completion.is_complete());
//! assert!(out.completion.completed_fraction() > 0.0);
//! ```

use std::time::Instant;

use csj_storage::{OutputSink, OutputWriter};

use crate::algo::{ParallelAlgo, WithHandler};
use crate::budget::{BudgetUsage, CancelToken, Completion, RunBudget, StopReason};
use crate::engine::{CollectSink, Engine, LinkHandler, NodeSource, RowSink, StreamSink};
use crate::error::CsjError;
use crate::output::JoinOutput;
use crate::stats::JoinStats;
use crate::JoinConfig;

/// A budget-, cancel- and fault-aware sequential similarity self-join:
/// the one sequential runner for SSJ, N-CSJ and CSJ(g) (see
/// [`ParallelAlgo`]), with an unlimited budget by default.
///
/// It keeps one engine (and for CSJ one group window) across all tasks,
/// so its output is identical to the unsplit recursion, [`Engine::run`],
/// when nothing trips. [`crate::parallel::ParallelJoin`] writes the same
/// bytes from worker threads.
#[derive(Clone, Debug)]
pub struct ResilientJoin {
    pub(crate) cfg: JoinConfig,
    pub(crate) algo: ParallelAlgo,
    budget: RunBudget,
    pub(crate) cancel: Option<CancelToken>,
    id_width: usize,
}

/// What a resilient run reports alongside its rows.
#[derive(Clone, Debug)]
pub struct ResilientReport {
    /// Counters accumulated up to the stop (including
    /// [`JoinStats::io_retries`] absorbed by the storage layer).
    pub stats: JoinStats,
    /// Whether the run finished, or stopped early and on what.
    pub completion: Completion,
}

impl ResilientJoin {
    /// A resilient join with range `epsilon` running `algo`.
    pub fn new(epsilon: f64, algo: ParallelAlgo) -> Self {
        Self::with_config(JoinConfig::new(epsilon), algo)
    }

    /// A resilient join from an explicit configuration.
    pub fn with_config(cfg: JoinConfig, algo: ParallelAlgo) -> Self {
        ResilientJoin { cfg, algo, budget: RunBudget::unlimited(), cancel: None, id_width: 6 }
    }

    /// Applies a resource budget, checked after every root-level task.
    pub fn with_budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches a cancellation token (checked inside tasks too, so a
    /// cancel stops the run within one recursion step).
    pub fn with_cancel(mut self, token: &CancelToken) -> Self {
        self.cancel = Some(token.clone());
        self
    }

    /// Sets the id width used for byte-budget accounting (default 6).
    pub fn with_id_width(mut self, width: usize) -> Self {
        self.id_width = width.max(1);
        self
    }

    /// Runs the join over `source` (`&tree` for an in-memory tree),
    /// collecting rows.
    ///
    /// The budget and the cancel token stop the run early through
    /// [`JoinOutput::completion`], never as `Err`.
    ///
    /// # Errors
    /// Returns [`CsjError::Storage`] when a node read fails beyond the
    /// storage layer's retries (never on an in-memory tree).
    pub fn run<S: NodeSource<D>, const D: usize>(&self, source: S) -> Result<JoinOutput, CsjError> {
        let (sink, stats, completion) = self.run_into(source, CollectSink::default())?;
        Ok(JoinOutput { items: sink.items, stats, completion })
    }

    /// Runs the join over `source` streaming rows into `writer` (constant
    /// memory).
    ///
    /// Sink failures (full disk, injected faults) surface as `Err`; rows
    /// already written remain valid output over the processed region.
    ///
    /// # Errors
    /// Returns [`CsjError::Storage`] when the sink rejects a write or a
    /// node read fails beyond retry.
    pub fn run_streaming<S, W, const D: usize>(
        &self,
        source: S,
        writer: &mut OutputWriter<W>,
    ) -> Result<ResilientReport, CsjError>
    where
        S: NodeSource<D>,
        W: OutputSink,
    {
        let (_, stats, completion) = self.run_into(source, StreamSink::new(writer))?;
        Ok(ResilientReport { stats, completion })
    }

    /// Runs the configured algorithm's link handler through the task
    /// loop into `sink`: one engine over `source`, then the source's end
    /// of run — also after a failure, so it can release what it holds.
    fn run_into<S, R, const D: usize>(
        &self,
        source: S,
        sink: R,
    ) -> Result<(R, JoinStats, Completion), CsjError>
    where
        S: NodeSource<D>,
        R: RowSink,
    {
        self.algo.with_handler(&self.cfg, TaskLoop { join: self, source, sink })
    }

    /// Splits the root into tasks and runs them in order, checking
    /// cancel and budget before the split and between tasks, and drains
    /// the window on any stop.
    fn drive<S, H, R, const D: usize>(
        &self,
        engine: &mut Engine<S, H, R, D>,
    ) -> Result<Completion, CsjError>
    where
        S: NodeSource<D>,
        H: LinkHandler<D>,
        R: RowSink,
    {
        let start = Instant::now();
        // A cancel or a budget trip before any work stops the run without
        // splitting the root (a pre-canceled token costs zero node
        // visits). The split credits the root's visit and pruned pairs.
        let mut reason = self.boundary_check(&engine.stats, start);
        let tasks = if reason.is_none() { engine.split_root()? } else { Vec::new() };
        // The tasks are the root frame's steps: on the source frontier
        // while they run, as in `Engine::run`, so read-ahead sees them.
        engine.source.push(&tasks);
        let mut done = 0usize;
        for &task in &tasks {
            // Pre-task boundary: a cancel or a budget trip stops the run
            // before more work starts.
            if let Some(r) = self.boundary_check(&engine.stats, start) {
                reason = Some(r);
                break;
            }
            engine.run_step(task)?;
            if let Some(r) = engine.stop_reason() {
                // Mid-task stop (cancel): the task did not complete.
                reason = Some(r);
                break;
            }
            done += 1;
        }
        engine.source.pop();
        // Always drain buffered groups: the output must be lossless over
        // the region the traversal actually covered.
        engine.finish_only()?;
        Ok(self.completion(reason, done, tasks.len(), &engine.stats))
    }

    /// The completion of a run that stopped for `reason`, if any, after
    /// `done` of `total` tasks, with its estimates scaled from `stats`.
    pub(crate) fn completion(
        &self,
        reason: Option<StopReason>,
        done: usize,
        total: usize,
        stats: &JoinStats,
    ) -> Completion {
        match reason {
            None => Completion::Complete,
            Some(r) => {
                let usage = self.usage_of(stats);
                Completion::partial(r, done as f64 / total.max(1) as f64, usage.links, usage.bytes)
            }
        }
    }

    /// Cancel and budget checks at a task boundary.
    pub(crate) fn boundary_check(&self, stats: &JoinStats, start: Instant) -> Option<StopReason> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_canceled) {
            return Some(StopReason::Canceled);
        }
        if self.budget.is_unlimited() {
            return None;
        }
        self.budget.exceeded_by(&self.usage_of(stats), start.elapsed())
    }

    /// Resource usage derived from the counters alone: links emitted plus
    /// links implied by groups, and the deterministic byte size of the
    /// paper's text format (`k` ids cost `k · (width + 1)` bytes per row).
    fn usage_of(&self, stats: &JoinStats) -> BudgetUsage {
        let ids = 2 * stats.links_emitted + stats.group_members_emitted;
        BudgetUsage {
            links: stats.links_emitted + stats.links_in_groups,
            groups: stats.groups_emitted,
            bytes: ids * (self.id_width as u64 + 1),
        }
    }
}

/// A [`ResilientJoin`] run over `source` into `sink`, given the handler
/// its algorithm picks.
struct TaskLoop<'j, S, R> {
    join: &'j ResilientJoin,
    source: S,
    sink: R,
}

impl<S: NodeSource<D>, R: RowSink, const D: usize> WithHandler<D> for TaskLoop<'_, S, R> {
    type Out = Result<(R, JoinStats, Completion), CsjError>;

    fn run<H: LinkHandler<D>>(self, early_stop: bool, handler: H) -> Self::Out {
        let join = self.join;
        let mut engine = Engine::new(self.source, join.cfg, early_stop, handler, self.sink);
        if let Some(token) = &join.cancel {
            engine.set_cancel(token.clone());
        }
        let completion = join.drive(&mut engine);
        engine.source.end_run(&mut engine.stats);
        let completion = completion?;
        let Engine { sink, stats, .. } = engine;
        Ok((sink, stats, completion))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_links;
    use crate::engine::{DirectEmit, WindowedEmit};
    use crate::group::{BallShape, GroupShapeKind, MbrShape};
    use crate::outofcore::PagedSource;
    use crate::output::Rows;
    use csj_geom::Point;
    use csj_index::{rstar::RStarTree, PagedTree, RTreeConfig};
    use csj_storage::{FaultPolicy, RetryPolicy, SimulatedDisk, VecSink};

    fn stripe(n: usize) -> Vec<Point<2>> {
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                Point::new([t, (t * 37.0).sin() * 0.03])
            })
            .collect()
    }

    /// The rows and counters of `Engine::run`, the unsplit recursion:
    /// the reference the task loop must reproduce.
    fn unsplit<H: LinkHandler<2>>(
        tree: &RStarTree<2>,
        cfg: JoinConfig,
        early_stop: bool,
        handler: H,
    ) -> (Rows, JoinStats) {
        let mut engine = Engine::new(tree, cfg, early_stop, handler, CollectSink::default());
        engine.run().expect("in-memory");
        (engine.sink.items, engine.stats)
    }

    #[test]
    fn unlimited_runs_match_the_unsplit_recursion() {
        // With plane sweep the root split follows sweep order, so the
        // tasks run in the unsplit sweep's order.
        let tree = RStarTree::bulk_load_str(
            &csj_data::uniform::uniform::<2>(3000, 11),
            RTreeConfig::with_max_fanout(8),
        );
        let eps = 0.02;
        let plain = JoinConfig::new(eps);
        for cfg in [plain, plain.with_plane_sweep(), plain.with_tight_groups()] {
            let mbr = WindowedEmit::<MbrShape<2>, 2>::new(10, eps, cfg.metric);
            let ball = WindowedEmit::<BallShape<2>, 2>::new(10, eps, cfg.metric);
            let ball_cfg = cfg.with_group_shape(GroupShapeKind::Ball);
            let run =
                |cfg, algo| ResilientJoin::with_config(cfg, algo).run(&tree).expect("in memory");
            let cases = [
                ("SSJ", run(cfg, ParallelAlgo::Ssj), unsplit(&tree, cfg, false, DirectEmit)),
                ("N-CSJ", run(cfg, ParallelAlgo::Ncsj), unsplit(&tree, cfg, true, DirectEmit)),
                ("CSJ", run(cfg, ParallelAlgo::Csj(10)), unsplit(&tree, cfg, true, mbr)),
                ("CSJ ball", run(ball_cfg, ParallelAlgo::Csj(10)), unsplit(&tree, cfg, true, ball)),
            ];
            for (label, out, want) in cases {
                assert!(out.completion.is_complete());
                assert_eq!((out.items, out.stats), want, "{label}, {cfg:?}");
            }
        }
    }

    #[test]
    fn link_budget_produces_partial_with_estimates() {
        let pts = stripe(800);
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(8));
        let eps = 0.05;
        let out = ResilientJoin::new(eps, ParallelAlgo::Csj(10))
            .with_budget(RunBudget::unlimited().with_max_links(100))
            .run(&tree)
            .expect("in-memory");
        match out.completion {
            Completion::Partial {
                reason,
                completed_fraction,
                estimated_links,
                estimated_bytes,
            } => {
                assert_eq!(reason, StopReason::LinkBudget);
                assert!((0.0..1.0).contains(&completed_fraction), "{completed_fraction}");
                assert!(estimated_links > 0.0);
                assert!(estimated_bytes > 0.0);
            }
            Completion::Complete => panic!("a 100-link budget must trip on this data"),
        }
        // Lossless over the processed region: every emitted link is true.
        let truth = brute_force_links(&pts, eps);
        for link in out.expanded_link_set() {
            assert!(truth.contains(&link), "emitted link {link:?} is not a true link");
        }
    }

    #[test]
    fn partial_fraction_is_monotone_in_the_budget() {
        let pts = stripe(700);
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(8));
        let eps = 0.05;
        let fraction = |max_links: u64| {
            ResilientJoin::new(eps, ParallelAlgo::Ncsj)
                .with_budget(RunBudget::unlimited().with_max_links(max_links))
                .run(&tree)
                .expect("in-memory")
                .completion
                .completed_fraction()
        };
        let (f50, f500, f5000, funlimited) =
            (fraction(50), fraction(500), fraction(5000), fraction(u64::MAX));
        assert!(f50 <= f500, "{f50} > {f500}");
        assert!(f500 <= f5000, "{f500} > {f5000}");
        assert!(f5000 <= funlimited, "{f5000} > {funlimited}");
        assert_eq!(funlimited, 1.0);
    }

    #[test]
    fn precanceled_token_stops_before_any_work() {
        let pts = stripe(300);
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(8));
        let token = CancelToken::new();
        token.cancel();
        let out = ResilientJoin::new(0.05, ParallelAlgo::Csj(10))
            .with_cancel(&token)
            .run(&tree)
            .expect("in-memory");
        assert_eq!(out.completion.stop_reason(), Some(StopReason::Canceled));
        assert_eq!(out.completion.completed_fraction(), 0.0);
        assert!(out.items.is_empty());
        assert_eq!(out.stats.node_visits, 0, "no task was started");
    }

    #[test]
    fn deadline_zero_stops_immediately() {
        let pts = stripe(300);
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(8));
        let out = ResilientJoin::new(0.05, ParallelAlgo::Ssj)
            .with_budget(RunBudget::unlimited().with_deadline(std::time::Duration::ZERO))
            .run(&tree)
            .expect("in-memory");
        assert_eq!(out.completion.stop_reason(), Some(StopReason::Deadline));
    }

    /// `tree` on a simulated disk failing per `faults`, behind a pool of
    /// four pages: small enough that the join misses and reads.
    fn faulty_pages(
        tree: &RStarTree<2>,
        faults: FaultPolicy,
        retry: RetryPolicy,
    ) -> PagedTree<2, SimulatedDisk> {
        PagedTree::from_core(tree.core(), SimulatedDisk::with_faults(faults), retry, 4)
            .expect("fail_every_read faults no write")
    }

    #[test]
    fn absorbed_faults_surface_as_retry_counts() {
        let pts = stripe(1000);
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(8));
        let eps = 0.04;
        let paged =
            faulty_pages(&tree, FaultPolicy::fail_every_read(3), RetryPolicy::no_backoff(4));
        let out = ResilientJoin::new(eps, ParallelAlgo::Csj(10))
            .run(PagedSource::new(&paged, None))
            .expect("retries absorb every 3rd-read fault");
        assert!(out.completion.is_complete());
        assert!(out.stats.io_retries > 0, "retries must be counted");
        assert_eq!(out.stats.io_retries, paged.stats().io_retries);
        let plain = ResilientJoin::new(eps, ParallelAlgo::Csj(10)).run(&tree).expect("in memory");
        assert_eq!(out.items, plain.items, "absorbed faults change no row");
        assert_eq!(out.expanded_link_set(), brute_force_links(&pts, eps));
    }

    #[test]
    fn unrecoverable_fault_is_a_typed_error_not_a_panic() {
        let pts = stripe(500);
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(8));
        let paged = faulty_pages(&tree, FaultPolicy::fail_every_read(1), RetryPolicy::none());
        let err = ResilientJoin::new(0.04, ParallelAlgo::Ssj)
            .run(PagedSource::new(&paged, None))
            .expect_err("every read fails and there are no retries");
        assert!(matches!(err, CsjError::Storage(_)), "{err}");
    }

    #[test]
    fn streaming_reports_the_same_completion() {
        let pts = stripe(600);
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(8));
        let eps = 0.05;
        let join = ResilientJoin::new(eps, ParallelAlgo::Csj(10))
            .with_id_width(4)
            .with_budget(RunBudget::unlimited().with_max_links(200));
        let collected = join.run(&tree).expect("in-memory");
        let mut writer = OutputWriter::new(VecSink::new(), 4);
        let report = join.run_streaming(&tree, &mut writer).expect("in-memory");
        assert_eq!(report.completion, collected.completion);
        assert_eq!(collected.total_bytes(4), writer.bytes_written());
    }

    #[test]
    fn empty_tree_completes_trivially() {
        let tree = RStarTree::<2>::new(RTreeConfig::default());
        let out = ResilientJoin::new(0.1, ParallelAlgo::Csj(10))
            .with_budget(RunBudget::unlimited().with_max_links(1))
            .run(&tree)
            .expect("in-memory");
        assert!(out.completion.is_complete());
        assert!(out.items.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::brute::brute_force_links;
    use crate::output::OutputItem;
    use csj_geom::{Metric, Point};
    use csj_index::{rstar::RStarTree, RTreeConfig};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// A budget-truncated run is still a correct (if partial) join:
        /// every emitted link is true, every emitted group has diameter
        /// ≤ ε, and an untruncated run is the exact result.
        #[test]
        fn truncated_runs_stay_correct(
            pts in prop::collection::vec(prop::array::uniform2(0.0f64..1.0), 0..120),
            eps in 0.0f64..0.4,
            max_links in 0u64..600,
            algo_idx in 0usize..3,
        ) {
            let points: Vec<Point<2>> = pts.into_iter().map(Point::new).collect();
            let tree = RStarTree::from_points(&points, RTreeConfig::with_max_fanout(5));
            let algo = [ParallelAlgo::Ssj, ParallelAlgo::Ncsj, ParallelAlgo::Csj(7)][algo_idx];
            let out = ResilientJoin::new(eps, algo)
                .with_budget(RunBudget::unlimited().with_max_links(max_links))
                .run(&tree)
                .expect("in-memory run cannot hit storage errors");
            let truth = brute_force_links(&points, eps);
            for link in out.expanded_link_set() {
                prop_assert!(truth.contains(&link), "false link {link:?}");
            }
            for item in &out.items {
                if let OutputItem::Group(members) = item {
                    for (i, &a) in members.iter().enumerate() {
                        for &b in &members[i + 1..] {
                            let d = Metric::Euclidean
                                .distance(&points[a as usize], &points[b as usize]);
                            prop_assert!(d <= eps, "group diameter {d} > eps {eps}");
                        }
                    }
                }
            }
            if out.completion.is_complete() {
                prop_assert_eq!(out.expanded_link_set(), truth);
            }
        }

        /// `completed_fraction` never decreases as the link budget grows.
        #[test]
        fn completed_fraction_is_monotone(
            pts in prop::collection::vec(prop::array::uniform2(0.0f64..1.0), 0..120),
            eps in 0.0f64..0.4,
            lo in 0u64..200,
            delta in 0u64..2000,
        ) {
            let points: Vec<Point<2>> = pts.into_iter().map(Point::new).collect();
            let tree = RStarTree::from_points(&points, RTreeConfig::with_max_fanout(5));
            let fraction = |max_links: u64| {
                ResilientJoin::new(eps, ParallelAlgo::Ncsj)
                    .with_budget(RunBudget::unlimited().with_max_links(max_links))
                    .run(&tree)
                    .expect("in-memory run cannot hit storage errors")
                    .completion
                    .completed_fraction()
            };
            let (f_lo, f_hi) = (fraction(lo), fraction(lo + delta));
            prop_assert!(f_lo <= f_hi, "fraction {f_lo} at budget {lo} > {f_hi} at {}", lo + delta);
        }
    }
}
