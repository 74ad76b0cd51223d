//! N-CSJ — the naive compact similarity join (§IV-B).
//!
//! SSJ plus the early-stopping rule: whenever a subtree's (or subtree
//! pair's) bounding shape has diameter ≤ ε, all its records are emitted as
//! one group — no distance computations, one subtree scan. Links that
//! cross node boundaries are still emitted individually; CSJ(g) is the
//! variant that also compacts those.

use csj_index::JoinIndex;
use csj_storage::{OutputSink, OutputWriter};

use crate::engine::infallible;
use crate::error::CsjError;
use crate::output::JoinOutput;
use crate::parallel::ParallelAlgo;
use crate::resilient::ResilientJoin;
use crate::stats::JoinStats;
use crate::JoinConfig;

/// The naive compact similarity self-join.
///
/// ```
/// use csj_core::{ncsj::NcsjJoin, ssj::SsjJoin};
/// use csj_geom::Point;
/// use csj_index::{rstar::RStarTree, RTreeConfig};
///
/// // A tight cluster: N-CSJ emits one group where SSJ emits O(k²) links.
/// let pts: Vec<Point<2>> = (0..20)
///     .map(|i| Point::new([0.5 + (i % 5) as f64 * 1e-4, 0.5 + (i / 5) as f64 * 1e-4]))
///     .collect();
/// let tree = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(25));
/// let eps = 0.1;
/// let compact = NcsjJoin::new(eps).run(&tree);
/// let standard = SsjJoin::new(eps).run(&tree);
/// assert_eq!(compact.num_groups(), 1);
/// assert_eq!(standard.num_links(), 190);
/// assert_eq!(compact.expanded_link_set(), standard.expanded_link_set());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct NcsjJoin {
    cfg: JoinConfig,
}

impl NcsjJoin {
    /// An N-CSJ with range `epsilon` and default configuration.
    pub fn new(epsilon: f64) -> Self {
        NcsjJoin { cfg: JoinConfig::new(epsilon) }
    }

    /// An N-CSJ from an explicit configuration.
    pub fn with_config(cfg: JoinConfig) -> Self {
        NcsjJoin { cfg }
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

    /// Runs the join, collecting rows in memory.
    pub fn run<T: JoinIndex<D>, const D: usize>(&self, tree: &T) -> JoinOutput {
        infallible(ResilientJoin::with_config(self.cfg, ParallelAlgo::Ncsj).run(tree))
    }

    /// Runs the join, streaming rows into `writer` (constant memory).
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
        Ok(ResilientJoin::with_config(self.cfg, ParallelAlgo::Ncsj)
            .run_streaming(tree, writer)?
            .stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_links;
    use crate::ssj::SsjJoin;
    use csj_geom::Point;
    use csj_index::{
        mtree::{MTree, MTreeConfig},
        rstar::RStarTree,
        rtree::RTree,
        RTreeConfig,
    };

    fn dense_grid(n_side: usize, spacing: f64) -> Vec<Point<2>> {
        let mut pts = Vec::new();
        for i in 0..n_side {
            for j in 0..n_side {
                pts.push(Point::new([i as f64 * spacing, j as f64 * spacing]));
            }
        }
        pts
    }

    #[test]
    fn lossless_on_all_scales() {
        let pts = dense_grid(12, 0.02);
        let tree = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(6));
        for eps in [0.0, 0.015, 0.05, 0.1, 0.5, 1.0] {
            let out = NcsjJoin::new(eps).run(&tree);
            assert_eq!(out.expanded_link_set(), brute_force_links(&pts, eps), "eps={eps}");
        }
    }

    #[test]
    fn large_range_collapses_to_one_group() {
        let pts = dense_grid(10, 0.001);
        let tree = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(8));
        // Entire dataset diameter << eps: the root early-stops.
        let out = NcsjJoin::new(0.5).run(&tree);
        assert_eq!(out.num_groups(), 1);
        assert_eq!(out.num_links(), 0);
        assert_eq!(out.stats.early_stops_node, 1);
        assert_eq!(out.stats.distance_computations, 0, "no distances needed");
        match out.items.get(0) {
            Some(crate::output::OutputItem::Group(ids)) => assert_eq!(ids.len(), 100),
            other => panic!("expected group, got {other:?}"),
        }
    }

    #[test]
    fn small_range_degenerates_to_ssj() {
        // With eps below every leaf diameter, N-CSJ emits exactly SSJ's
        // links (the paper: "otherwise, N-CSJ will reduce to SSJ").
        let pts = dense_grid(10, 0.05);
        let tree = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(4));
        let eps = 0.05; // direct grid neighbours only
        let ncsj = NcsjJoin::new(eps).run(&tree);
        let ssj = SsjJoin::new(eps).run(&tree);
        assert_eq!(ncsj.expanded_link_set(), ssj.expanded_link_set());
        // Output can only be smaller or equal.
        assert!(ncsj.total_bytes(3) <= ssj.total_bytes(3));
    }

    #[test]
    fn never_slower_in_comparisons() {
        let pts = dense_grid(14, 0.01);
        let tree = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(6));
        for eps in [0.01, 0.05, 0.2] {
            let ncsj = NcsjJoin::new(eps).run(&tree);
            let ssj = SsjJoin::new(eps).run(&tree);
            assert!(
                ncsj.stats.distance_computations <= ssj.stats.distance_computations,
                "eps={eps}: {} > {}",
                ncsj.stats.distance_computations,
                ssj.stats.distance_computations
            );
            assert!(ncsj.total_bytes(3) <= ssj.total_bytes(3), "eps={eps}");
        }
    }

    #[test]
    fn works_on_all_tree_types() {
        let pts = dense_grid(9, 0.03);
        let eps = 0.1;
        let want = brute_force_links(&pts, eps);
        let rstar = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(6));
        let rtree = RTree::from_points(&pts, RTreeConfig::with_max_fanout(6));
        let mtree = MTree::from_points(&pts, MTreeConfig::with_max_fanout(6));
        assert_eq!(NcsjJoin::new(eps).run(&rstar).expanded_link_set(), want);
        assert_eq!(NcsjJoin::new(eps).run(&rtree).expanded_link_set(), want);
        assert_eq!(NcsjJoin::new(eps).run(&mtree).expanded_link_set(), want);
    }

    #[test]
    fn group_rows_have_at_least_two_members() {
        let pts = dense_grid(11, 0.02);
        let tree = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(5));
        let out = NcsjJoin::new(0.08).run(&tree);
        for item in &out.items {
            if let crate::output::OutputItem::Group(ids) = item {
                assert!(ids.len() >= 2);
            }
        }
    }
}
