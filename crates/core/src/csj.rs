//! CSJ(g) — the compact similarity join with a merge window (§IV-C).
//!
//! N-CSJ plus the `mergeIntoPrevGroup` routine: every residual link is
//! offered to the `g` most recently created groups; a group accepts when
//! its bounding shape, extended to cover the link, still has diameter ≤ ε.
//! Links that fit nowhere open a new group of their own. Because of the
//! tree's spatial locality, recent groups are near the current link, so a
//! small window (the paper recommends `g ≈ 10`) captures most
//! cross-subtree links — typically halving the output again vs N-CSJ.

use csj_index::JoinIndex;
use csj_storage::{OutputSink, OutputWriter};

use crate::engine::{infallible, CollectSink, RowSink, StreamSink, WindowedEmit};
use crate::error::CsjError;
use crate::group::BallShape;
use crate::output::JoinOutput;
use crate::parallel::ParallelAlgo;
use crate::resilient::ResilientJoin;
use crate::stats::JoinStats;
use crate::JoinConfig;

/// Which bounding shape open groups use (§V-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum GroupShapeKind {
    /// Minimum bounding hyper-rectangle, diagonal ≤ ε (the paper's
    /// choice: constant-time updates, reuses tree node shapes).
    #[default]
    Mbr,
    /// Bounding ball, diameter ≤ ε (covers more volume per group, but
    /// centers are updated approximately).
    Ball,
}

/// The compact similarity self-join with a window of `g` recent groups.
///
/// ```
/// use csj_core::{csj::CsjJoin, ncsj::NcsjJoin};
/// use csj_geom::Point;
/// use csj_index::{rstar::RStarTree, RTreeConfig};
///
/// let pts: Vec<Point<2>> = (0..200)
///     .map(|i| Point::new([i as f64 * 0.004, (i as f64 * 0.004 * 7.0).sin() * 0.01]))
///     .collect();
/// let tree = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(8));
/// let eps = 0.05;
/// let csj = CsjJoin::new(eps).with_window(10).run(&tree);
/// let ncsj = NcsjJoin::new(eps).run(&tree);
/// // Same information, smaller output.
/// assert_eq!(csj.expanded_link_set(), ncsj.expanded_link_set());
/// assert!(csj.total_bytes(3) <= ncsj.total_bytes(3));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct CsjJoin {
    cfg: JoinConfig,
    window: usize,
    shape: GroupShapeKind,
}

impl CsjJoin {
    /// A CSJ with range `epsilon`, the paper's recommended window
    /// `g = 10`, and MBR group shapes.
    pub fn new(epsilon: f64) -> Self {
        CsjJoin { cfg: JoinConfig::new(epsilon), window: 10, shape: GroupShapeKind::Mbr }
    }

    /// A CSJ from an explicit configuration.
    pub fn with_config(cfg: JoinConfig) -> Self {
        CsjJoin { cfg, window: 10, shape: GroupShapeKind::Mbr }
    }

    /// Sets the window size `g` (number of recent groups considered for a
    /// merge). `0` disables merging: every link becomes its own 2-group.
    pub fn with_window(mut self, g: usize) -> Self {
        self.window = g;
        self
    }

    /// Selects the group bounding shape.
    pub fn with_shape(mut self, shape: GroupShapeKind) -> Self {
        self.shape = shape;
        self
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

    /// Recomputes subtree-group MBRs from member points instead of
    /// reusing the node shape (§V-A ablation: tighter groups admit more
    /// merges at the cost of one extra subtree scan per early stop).
    pub fn with_tight_groups(mut self) -> Self {
        self.cfg.tighten_group_mbr = true;
        self
    }

    /// The configuration this join runs with.
    pub fn config(&self) -> &JoinConfig {
        &self.cfg
    }

    /// The window size `g`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Runs the join, collecting rows in memory.
    pub fn run<T: JoinIndex<D>, const D: usize>(&self, tree: &T) -> JoinOutput {
        let (sink, stats) = infallible(self.run_into(tree, CollectSink::default()));
        JoinOutput { items: sink.items, stats, ..Default::default() }
    }

    /// Runs the join, streaming rows into `writer` (memory bounded by the
    /// window, not the output). A sink failure surfaces as `Err`; rows
    /// already written remain valid join output.
    ///
    /// # Errors
    /// Returns [`CsjError::Storage`] when the sink rejects a write
    /// (full disk, injected fault).
    pub fn run_streaming<T: JoinIndex<D>, S: OutputSink, const D: usize>(
        &self,
        tree: &T,
        writer: &mut OutputWriter<S>,
    ) -> Result<JoinStats, CsjError> {
        Ok(self.run_into(tree, StreamSink::new(writer))?.1)
    }

    /// Runs the task loop over `tree` with this join's group shape.
    fn run_into<T: JoinIndex<D>, R: RowSink, const D: usize>(
        &self,
        tree: &T,
        sink: R,
    ) -> Result<(R, JoinStats), CsjError> {
        let (g, eps, metric) = (self.window, self.cfg.epsilon, self.cfg.metric);
        let join = ResilientJoin::with_config(self.cfg, ParallelAlgo::Csj(g));
        let (sink, stats, _) = match self.shape {
            GroupShapeKind::Mbr => join.run_into(tree, sink),
            GroupShapeKind::Ball => join.run_tasks(
                tree,
                true,
                WindowedEmit::<BallShape<D>, D>::new(g, eps, metric),
                sink,
            ),
        }?;
        Ok((sink, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_links;
    use crate::ncsj::NcsjJoin;
    use crate::ssj::SsjJoin;
    use csj_geom::Point;
    use csj_index::{
        mtree::{MTree, MTreeConfig},
        rstar::RStarTree,
        rtree::RTree,
        RTreeConfig,
    };

    /// Clustered data with plenty of cross-node links.
    fn stripe_points(n: usize) -> Vec<Point<2>> {
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                Point::new([t, (t * 43.0).sin() * 0.02])
            })
            .collect()
    }

    #[test]
    fn lossless_for_all_window_sizes() {
        let pts = stripe_points(250);
        let tree = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(6));
        let eps = 0.03;
        let want = brute_force_links(&pts, eps);
        for g in [0usize, 1, 2, 5, 10, 50, 100] {
            let out = CsjJoin::new(eps).with_window(g).run(&tree);
            assert_eq!(out.expanded_link_set(), want, "g={g}");
            assert_eq!(out.num_links(), 0, "CSJ emits only groups (g={g})");
        }
    }

    #[test]
    fn lossless_across_eps_sweep() {
        let pts = stripe_points(180);
        let tree = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(8));
        for eps in [0.0, 0.005, 0.02, 0.1, 0.5, 1.5] {
            let out = CsjJoin::new(eps).run(&tree);
            assert_eq!(out.expanded_link_set(), brute_force_links(&pts, eps), "eps={eps}");
        }
    }

    #[test]
    fn output_never_larger_than_ncsj_or_ssj() {
        let pts = stripe_points(300);
        let tree = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(8));
        for eps in [0.01, 0.05, 0.2] {
            let csj = CsjJoin::new(eps).with_window(10).run(&tree);
            let ncsj = NcsjJoin::new(eps).run(&tree);
            let ssj = SsjJoin::new(eps).run(&tree);
            let w = 3;
            assert!(csj.total_bytes(w) <= ncsj.total_bytes(w), "eps={eps} vs ncsj");
            assert!(ncsj.total_bytes(w) <= ssj.total_bytes(w), "eps={eps} vs ssj");
        }
    }

    #[test]
    fn merging_compacts_cross_node_links() {
        let pts = stripe_points(300);
        let tree = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(8));
        let eps = 0.05;
        let out = CsjJoin::new(eps).with_window(10).run(&tree);
        assert!(out.stats.merges_succeeded > 0, "window merges must happen");
        // Fewer rows than links implied (compaction actually occurred).
        assert!(
            out.stats.rows_emitted() < out.implied_links(),
            "rows {} vs implied links {}",
            out.stats.rows_emitted(),
            out.implied_links()
        );
    }

    #[test]
    fn bigger_window_never_hurts_output_much() {
        // The paper's Figure 6 trend: savings grow toward g≈10 then
        // flatten. We assert monotone-ish behaviour loosely: g=10 is no
        // worse than g=1 and g=100 adds little over g=10.
        let pts = stripe_points(400);
        let tree = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(8));
        let eps = 0.04;
        let bytes = |g: usize| CsjJoin::new(eps).with_window(g).run(&tree).total_bytes(3) as f64;
        let (b1, b10, b100) = (bytes(1), bytes(10), bytes(100));
        assert!(b10 <= b1 * 1.001, "g=10 ({b10}) worse than g=1 ({b1})");
        assert!(b100 <= b10 * 1.001, "g=100 ({b100}) worse than g=10 ({b10})");
    }

    #[test]
    fn tight_groups_lossless_and_no_larger() {
        let pts = stripe_points(250);
        let tree = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(8));
        let eps = 0.05;
        let loose = CsjJoin::new(eps).with_window(10).run(&tree);
        let tight = CsjJoin::new(eps).with_window(10).with_tight_groups().run(&tree);
        let want = brute_force_links(&pts, eps);
        assert_eq!(loose.expanded_link_set(), want);
        assert_eq!(tight.expanded_link_set(), want);
        // Tighter subtree-group shapes can only admit more merges.
        assert!(tight.stats.merges_succeeded >= loose.stats.merges_succeeded);
    }

    #[test]
    fn ball_shape_is_also_lossless() {
        let pts = stripe_points(200);
        let tree = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(6));
        let eps = 0.03;
        let out = CsjJoin::new(eps).with_shape(GroupShapeKind::Ball).run(&tree);
        assert_eq!(out.expanded_link_set(), brute_force_links(&pts, eps));
    }

    #[test]
    fn works_on_all_tree_types() {
        let pts = stripe_points(150);
        let eps = 0.04;
        let want = brute_force_links(&pts, eps);
        let rstar = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(6));
        let rtree = RTree::from_points(&pts, RTreeConfig::with_max_fanout(6));
        let mtree = MTree::from_points(&pts, MTreeConfig::with_max_fanout(6));
        assert_eq!(CsjJoin::new(eps).run(&rstar).expanded_link_set(), want);
        assert_eq!(CsjJoin::new(eps).run(&rtree).expanded_link_set(), want);
        assert_eq!(CsjJoin::new(eps).run(&mtree).expanded_link_set(), want);
    }

    #[test]
    fn streaming_matches_collected() {
        use csj_storage::CountingSink;
        let pts = stripe_points(220);
        let tree = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(8));
        let join = CsjJoin::new(0.05).with_window(10);
        let collected = join.run(&tree);
        let mut writer = OutputWriter::new(CountingSink::new(), 3);
        let stats = join.run_streaming(&tree, &mut writer).expect("counting sink cannot fail");
        assert_eq!(collected.total_bytes(3), writer.bytes_written());
        assert_eq!(collected.stats.groups_emitted, stats.groups_emitted);
        assert_eq!(collected.stats.merges_succeeded, stats.merges_succeeded);
    }

    #[test]
    fn empty_and_singleton_trees() {
        let empty = RStarTree::<2>::new(RTreeConfig::default());
        assert!(CsjJoin::new(0.1).run(&empty).items.is_empty());
        let one = RStarTree::from_points(&[Point::new([0.5, 0.5])], RTreeConfig::default());
        let out = CsjJoin::new(0.1).run(&one);
        assert!(out.items.is_empty(), "single point produces no rows");
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
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Theorems 1 & 2 as a property: CSJ(g) output expands to exactly
        /// the brute-force link set for arbitrary data, ε and g.
        #[test]
        fn csj_is_lossless(
            pts in prop::collection::vec(prop::array::uniform2(0.0f64..1.0), 0..180),
            eps in 0.0f64..0.7,
            g in 0usize..25,
            fanout in 4usize..12,
        ) {
            let points: Vec<Point<2>> = pts.into_iter().map(Point::new).collect();
            let tree = RStarTree::from_points(&points, RTreeConfig::with_max_fanout(fanout));
            let out = CsjJoin::new(eps).with_window(g).run(&tree);
            prop_assert_eq!(out.expanded_link_set(), brute_force_links(&points, eps));
        }

        /// All three algorithms agree on the link set, and byte sizes are
        /// ordered CSJ ≤ N-CSJ ≤ SSJ.
        #[test]
        fn algorithm_family_consistency(
            pts in prop::collection::vec(prop::array::uniform2(0.0f64..1.0), 2..120),
            eps in 0.01f64..0.5,
        ) {
            let points: Vec<Point<2>> = pts.into_iter().map(Point::new).collect();
            let tree = RStarTree::from_points(&points, RTreeConfig::with_max_fanout(6));
            let ssj = crate::ssj::SsjJoin::new(eps).run(&tree);
            let ncsj = crate::ncsj::NcsjJoin::new(eps).run(&tree);
            let csj = CsjJoin::new(eps).with_window(10).run(&tree);
            let want = brute_force_links(&points, eps);
            prop_assert_eq!(ssj.expanded_link_set(), want.clone());
            prop_assert_eq!(ncsj.expanded_link_set(), want.clone());
            prop_assert_eq!(csj.expanded_link_set(), want);
            prop_assert!(csj.total_bytes(3) <= ncsj.total_bytes(3));
            prop_assert!(ncsj.total_bytes(3) <= ssj.total_bytes(3));
        }
    }
}
