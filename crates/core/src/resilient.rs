//! The fault-tolerant join runner.
//!
//! [`ResilientJoin`] wraps the Figure-3 engine with the full robustness
//! stack: a [`RunBudget`] checked at root-level task boundaries (the
//! engine's own root split, [`Engine::split_root`]), a
//! cooperative [`CancelToken`], and a [`StorageProbe`] that escalates
//! unrecoverable page-I/O errors (transient faults are absorbed by the
//! storage layer's retries and only *counted*, in
//! [`JoinStats::io_retries`]).
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

use csj_index::JoinIndex;
use csj_storage::{OutputSink, OutputWriter};

use crate::budget::{BudgetUsage, CancelToken, Completion, RunBudget, StopReason};
use crate::engine::{
    CollectSink, DirectEmit, Engine, LinkHandler, RowSink, StreamSink, WindowedEmit,
};
use crate::error::CsjError;
use crate::group::MbrShape;
use crate::output::JoinOutput;
use crate::paged::{NoProbe, StorageProbe};
use crate::parallel::ParallelAlgo;
use crate::stats::JoinStats;
use crate::JoinConfig;

/// A budget-, cancel- and fault-aware sequential similarity self-join.
///
/// Unlike [`crate::parallel::ParallelJoin`], this runner keeps one engine
/// (and for CSJ one group window) across all tasks, so its output is
/// identical to the plain sequential join when nothing trips.
#[derive(Clone, Debug)]
pub struct ResilientJoin {
    cfg: JoinConfig,
    algo: ParallelAlgo,
    budget: RunBudget,
    cancel: Option<CancelToken>,
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

    /// Replaces the metric.
    pub fn with_metric(mut self, metric: csj_geom::Metric) -> Self {
        self.cfg.metric = metric;
        self
    }

    /// Sets the id width used for byte-budget accounting (default 6).
    pub fn with_id_width(mut self, width: usize) -> Self {
        self.id_width = width.max(1);
        self
    }

    /// Runs the join over a plain in-memory tree, collecting rows.
    ///
    /// Storage cannot fail here, so the only early exits are the budget
    /// and the cancel token — both reported through
    /// [`JoinOutput::completion`], never as `Err`.
    ///
    /// # Errors
    /// Returns [`CsjError::InvalidConfig`] for an invalid configuration;
    /// storage errors cannot occur on the in-memory path.
    pub fn run<T: JoinIndex<D>, const D: usize>(&self, tree: &T) -> Result<JoinOutput, CsjError> {
        self.run_probed(tree, &NoProbe)
    }

    /// Runs the join over a tree whose storage health is observable
    /// through `probe` (e.g. a [`crate::paged::FaultPagedTree`], passed
    /// as both arguments).
    ///
    /// Transient faults absorbed by the storage layer's retries are added
    /// to [`JoinStats::io_retries`]; an *unrecoverable* storage error is
    /// escalated as `Err` at the next task boundary.
    ///
    /// # Errors
    /// Returns [`CsjError::Storage`] when the probe reports an
    /// unrecoverable storage failure, or [`CsjError::InvalidConfig`] for
    /// an invalid configuration.
    pub fn run_probed<T: JoinIndex<D>, P: StorageProbe, const D: usize>(
        &self,
        tree: &T,
        probe: &P,
    ) -> Result<JoinOutput, CsjError> {
        match self.algo {
            ParallelAlgo::Ssj => self.collect_with(tree, probe, false, DirectEmit),
            ParallelAlgo::Ncsj => self.collect_with(tree, probe, true, DirectEmit),
            ParallelAlgo::Csj(g) => self.collect_with(
                tree,
                probe,
                true,
                WindowedEmit::<MbrShape<D>, D>::new(g, self.cfg.epsilon, self.cfg.metric),
            ),
        }
    }

    /// Runs the join streaming rows into `writer` (constant memory).
    ///
    /// Sink failures (full disk, injected faults) surface as `Err`; rows
    /// already written remain valid output over the processed region.
    ///
    /// # Errors
    /// Returns [`CsjError::Storage`] when the sink rejects a write.
    pub fn run_streaming<T: JoinIndex<D>, S: OutputSink, const D: usize>(
        &self,
        tree: &T,
        writer: &mut OutputWriter<S>,
    ) -> Result<ResilientReport, CsjError> {
        self.run_streaming_probed(tree, &NoProbe, writer)
    }

    /// [`ResilientJoin::run_streaming`] with a storage probe on the tree
    /// side as well.
    ///
    /// # Errors
    /// Returns [`CsjError::Storage`] when the sink rejects a write or the
    /// probe reports an unrecoverable storage failure.
    pub fn run_streaming_probed<T, P, S, const D: usize>(
        &self,
        tree: &T,
        probe: &P,
        writer: &mut OutputWriter<S>,
    ) -> Result<ResilientReport, CsjError>
    where
        T: JoinIndex<D>,
        P: StorageProbe,
        S: OutputSink,
    {
        match self.algo {
            ParallelAlgo::Ssj => self.stream_with(tree, probe, false, DirectEmit, writer),
            ParallelAlgo::Ncsj => self.stream_with(tree, probe, true, DirectEmit, writer),
            ParallelAlgo::Csj(g) => self.stream_with(
                tree,
                probe,
                true,
                WindowedEmit::<MbrShape<D>, D>::new(g, self.cfg.epsilon, self.cfg.metric),
                writer,
            ),
        }
    }

    fn collect_with<T, P, H, const D: usize>(
        &self,
        tree: &T,
        probe: &P,
        early_stop: bool,
        handler: H,
    ) -> Result<JoinOutput, CsjError>
    where
        T: JoinIndex<D>,
        P: StorageProbe,
        H: LinkHandler<D>,
    {
        let (sink, stats, completion) =
            self.run_tasks(tree, probe, early_stop, handler, CollectSink::default())?;
        Ok(JoinOutput { items: sink.items, stats, completion })
    }

    fn stream_with<T, P, H, S, const D: usize>(
        &self,
        tree: &T,
        probe: &P,
        early_stop: bool,
        handler: H,
        writer: &mut OutputWriter<S>,
    ) -> Result<ResilientReport, CsjError>
    where
        T: JoinIndex<D>,
        P: StorageProbe,
        H: LinkHandler<D>,
        S: OutputSink,
    {
        let (_, stats, completion) =
            self.run_tasks(tree, probe, early_stop, handler, StreamSink::new(writer))?;
        Ok(ResilientReport { stats, completion })
    }

    /// The shared task loop: split the root into tasks, run them through
    /// one engine, check cancel / storage / budget before the split and
    /// between tasks, drain the window on any stop.
    fn run_tasks<T, P, H, R, const D: usize>(
        &self,
        tree: &T,
        probe: &P,
        early_stop: bool,
        handler: H,
        sink: R,
    ) -> Result<(R, JoinStats, Completion), CsjError>
    where
        T: JoinIndex<D>,
        P: StorageProbe,
        H: LinkHandler<D>,
        R: RowSink,
    {
        let start = Instant::now();
        let mut engine = Engine::new(tree, self.cfg, early_stop, handler, sink);
        if let Some(token) = &self.cancel {
            engine.set_cancel(token.clone());
        }

        // A cancel or a budget trip before any work stops the run without
        // splitting the root (a pre-canceled token costs zero node
        // visits). The split credits the root's visit and pruned pairs.
        let mut reason = self.boundary_check(&engine.stats, probe, start)?;
        let tasks = if reason.is_none() { engine.split_root()? } else { Vec::new() };
        let mut done = 0usize;
        for &task in &tasks {
            // Pre-task boundary: a cancel or a budget trip stops the run
            // before more work starts.
            if let Some(r) = self.boundary_check(&engine.stats, probe, start)? {
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
        // Always drain buffered groups: the output must be lossless over
        // the region the traversal actually covered.
        engine.finish_only()?;
        if let Some(e) = probe.storage_error() {
            return Err(e.into());
        }

        let mut stats = std::mem::take(&mut engine.stats);
        stats.io_retries += probe.io_retries();
        let usage = self.usage_of(&stats);
        let completion = match reason {
            None => Completion::Complete,
            Some(r) => Completion::partial(
                r,
                done as f64 / tasks.len().max(1) as f64,
                usage.links,
                usage.bytes,
            ),
        };
        Ok((engine.sink, stats, completion))
    }

    /// Cancel, storage and budget checks at a task boundary.
    fn boundary_check<P: StorageProbe>(
        &self,
        stats: &JoinStats,
        probe: &P,
        start: Instant,
    ) -> Result<Option<StopReason>, CsjError> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_canceled) {
            return Ok(Some(StopReason::Canceled));
        }
        if let Some(e) = probe.storage_error() {
            return Err(e.into());
        }
        if !self.budget.is_unlimited() {
            let usage = self.usage_of(stats);
            if let Some(r) = self.budget.exceeded_by(&usage, start.elapsed()) {
                return Ok(Some(r));
            }
        }
        Ok(None)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_links;
    use crate::csj::CsjJoin;
    use crate::paged::FaultPagedTree;
    use crate::ssj::SsjJoin;
    use csj_geom::Point;
    use csj_index::{rstar::RStarTree, RTreeConfig};
    use csj_storage::{FaultPolicy, RetryPolicy, VecSink};

    fn stripe(n: usize) -> Vec<Point<2>> {
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                Point::new([t, (t * 37.0).sin() * 0.03])
            })
            .collect()
    }

    #[test]
    fn unlimited_run_matches_plain_join() {
        let pts = stripe(400);
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(8));
        let eps = 0.04;
        let plain = CsjJoin::new(eps).with_window(10).run(&tree);
        let resilient =
            ResilientJoin::new(eps, ParallelAlgo::Csj(10)).run(&tree).expect("in-memory");
        assert!(resilient.completion.is_complete());
        assert_eq!(resilient.expanded_link_set(), plain.expanded_link_set());
    }

    #[test]
    fn plane_sweep_rows_match_the_sequential_sweep() {
        // The root split follows sweep order, so the tasks run in the
        // sequential sweep's order.
        let pts = csj_data::uniform::uniform::<2>(3000, 11);
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(8));
        let eps = 0.02;
        let cfg = JoinConfig::new(eps).with_plane_sweep();
        let seq = SsjJoin::new(eps).with_plane_sweep().run(&tree);
        let out = ResilientJoin::with_config(cfg, ParallelAlgo::Ssj).run(&tree).expect("in-memory");
        assert_eq!(out.items, seq.items);
        assert_eq!(out.stats, seq.stats);
        let seq = CsjJoin::new(eps).with_window(10).with_plane_sweep().run(&tree);
        let out =
            ResilientJoin::with_config(cfg, ParallelAlgo::Csj(10)).run(&tree).expect("in-memory");
        assert_eq!(out.items, seq.items);
        assert_eq!(out.stats, seq.stats);
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

    #[test]
    fn absorbed_faults_surface_as_retry_counts() {
        let pts = stripe(1000);
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(8));
        let eps = 0.04;
        let faulty =
            FaultPagedTree::new(&tree, FaultPolicy::fail_every_read(3), RetryPolicy::no_backoff(4));
        let out = ResilientJoin::new(eps, ParallelAlgo::Csj(10))
            .run_probed(&faulty, &faulty)
            .expect("retries absorb every 3rd-read fault");
        assert!(out.completion.is_complete());
        assert!(out.stats.io_retries > 0, "retries must be counted");
        assert_eq!(out.expanded_link_set(), brute_force_links(&pts, eps));
    }

    #[test]
    fn unrecoverable_fault_is_a_typed_error_not_a_panic() {
        let pts = stripe(500);
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(8));
        let faulty =
            FaultPagedTree::new(&tree, FaultPolicy::fail_every_read(1), RetryPolicy::none());
        let err = ResilientJoin::new(0.04, ParallelAlgo::Ssj)
            .run_probed(&faulty, &faulty)
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
