//! SSJ — the standard similarity join (§IV-A).
//!
//! The paper's baseline: a recursive tree join that prunes node pairs by
//! MINDIST and enumerates every qualifying link individually. Output size
//! does not depend on the tree; runtime does (through the tree's shape).

use csj_index::JoinIndex;
use csj_storage::{OutputSink, OutputWriter};

use crate::engine::infallible;
use crate::error::CsjError;
use crate::output::JoinOutput;
use crate::parallel::ParallelAlgo;
use crate::resilient::ResilientJoin;
use crate::stats::JoinStats;
use crate::JoinConfig;

/// The standard similarity self-join.
///
/// ```
/// use csj_core::ssj::SsjJoin;
/// use csj_geom::Point;
/// use csj_index::{rstar::RStarTree, RTreeConfig};
///
/// let pts = vec![
///     Point::new([0.0, 0.0]),
///     Point::new([0.05, 0.0]),
///     Point::new([0.9, 0.9]),
/// ];
/// let tree = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(4));
/// let out = SsjJoin::new(0.1).run(&tree);
/// assert_eq!(out.num_links(), 1); // only (0, 1) qualifies
/// ```
#[derive(Clone, Copy, Debug)]
pub struct SsjJoin {
    cfg: JoinConfig,
}

impl SsjJoin {
    /// An SSJ with range `epsilon` and default configuration.
    pub fn new(epsilon: f64) -> Self {
        SsjJoin { cfg: JoinConfig::new(epsilon) }
    }

    /// An SSJ from an explicit configuration.
    pub fn with_config(cfg: JoinConfig) -> Self {
        SsjJoin { cfg }
    }

    /// Replaces the metric.
    pub fn with_metric(mut self, metric: csj_geom::Metric) -> Self {
        self.cfg.metric = metric;
        self
    }

    /// Enables node-access logging.
    pub fn with_access_log(mut self) -> Self {
        self.cfg.record_access_log = true;
        self
    }

    /// Enables the plane-sweep access ordering (Brinkhoff et al. \[1\]).
    pub fn with_plane_sweep(mut self) -> Self {
        self.cfg.plane_sweep = true;
        self
    }

    /// The configuration this join runs with.
    pub fn config(&self) -> &JoinConfig {
        &self.cfg
    }

    /// Runs the join, collecting all links in memory.
    pub fn run<T: JoinIndex<D>, const D: usize>(&self, tree: &T) -> JoinOutput {
        infallible(ResilientJoin::with_config(self.cfg, ParallelAlgo::Ssj).run(tree))
    }

    /// Runs the join, streaming links into `writer` (constant memory).
    /// A sink failure surfaces as `Err`; rows already written remain
    /// valid join output.
    ///
    /// # Errors
    /// Returns [`CsjError::Storage`] when the sink rejects a write.
    pub fn run_streaming<T: JoinIndex<D>, S: OutputSink, const D: usize>(
        &self,
        tree: &T,
        writer: &mut OutputWriter<S>,
    ) -> Result<JoinStats, CsjError> {
        Ok(ResilientJoin::with_config(self.cfg, ParallelAlgo::Ssj)
            .run_streaming(tree, writer)?
            .stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_links;
    use csj_geom::{Metric, Point};
    use csj_index::{rstar::RStarTree, rtree::RTree, RTreeConfig};
    use csj_storage::CountingSink;

    fn cluster_points() -> Vec<Point<2>> {
        // Three clusters of 8 plus a few isolated points.
        let mut pts = Vec::new();
        for (cx, cy) in [(0.1, 0.1), (0.5, 0.6), (0.85, 0.2)] {
            for i in 0..8 {
                let dx = (i % 3) as f64 * 0.01;
                let dy = (i / 3) as f64 * 0.01;
                pts.push(Point::new([cx + dx, cy + dy]));
            }
        }
        pts.push(Point::new([0.99, 0.99]));
        pts.push(Point::new([0.0, 0.95]));
        pts
    }

    #[test]
    fn matches_brute_force() {
        let pts = cluster_points();
        let tree = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(4));
        for eps in [0.0, 0.01, 0.05, 0.2, 0.7, 2.0] {
            let out = SsjJoin::new(eps).run(&tree);
            assert_eq!(out.expanded_link_set(), brute_force_links(&pts, eps), "eps={eps}");
            assert_eq!(out.num_groups(), 0, "SSJ never emits groups");
        }
    }

    #[test]
    fn no_duplicate_links() {
        let pts = cluster_points();
        let tree = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(4));
        let out = SsjJoin::new(0.3).run(&tree);
        let expanded = out.expanded_link_set();
        assert_eq!(out.num_links(), expanded.len(), "each link emitted exactly once");
    }

    #[test]
    fn empty_tree() {
        let tree = RStarTree::<2>::new(RTreeConfig::default());
        let out = SsjJoin::new(0.5).run(&tree);
        assert!(out.items.is_empty());
        assert_eq!(out.stats.node_visits, 0);
    }

    #[test]
    fn streaming_matches_collected_bytes() {
        let pts = cluster_points();
        let tree = RTree::from_points(&pts, RTreeConfig::with_max_fanout(5));
        let join = SsjJoin::new(0.25);
        let collected = join.run(&tree);
        let mut writer = OutputWriter::new(CountingSink::new(), 4);
        let stats = join.run_streaming(&tree, &mut writer).expect("counting sink cannot fail");
        assert_eq!(collected.total_bytes(4), writer.bytes_written());
        assert_eq!(collected.stats.links_emitted, stats.links_emitted);
        assert_eq!(collected.stats.distance_computations, stats.distance_computations);
    }

    #[test]
    fn pruning_reduces_distance_computations() {
        let pts = cluster_points();
        let n = pts.len() as u64;
        let tree = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(4));
        let out = SsjJoin::new(0.02).run(&tree);
        assert!(
            out.stats.distance_computations < n * (n - 1) / 2,
            "tree join must beat brute force on clustered data: {} comparisons",
            out.stats.distance_computations
        );
        assert!(out.stats.pairs_pruned > 0);
    }

    #[test]
    fn access_log_recorded_when_enabled() {
        let pts = cluster_points();
        let tree = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(4));
        let out = SsjJoin::new(0.1).with_access_log().run(&tree);
        let log = out.stats.access_log.as_ref().expect("log armed");
        assert!(!log.is_empty());
        let without = SsjJoin::new(0.1).run(&tree);
        assert!(without.stats.access_log.is_none());
    }

    #[test]
    fn chebyshev_metric_join() {
        let pts = cluster_points();
        let tree = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(4));
        let metric = Metric::Chebyshev;
        let out = SsjJoin::new(0.1).with_metric(metric).run(&tree);
        let mut want = std::collections::BTreeSet::new();
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                if metric.distance(&pts[i], &pts[j]) <= 0.1 {
                    want.insert((i as u32, j as u32));
                }
            }
        }
        assert_eq!(out.expanded_link_set(), want);
    }
}
