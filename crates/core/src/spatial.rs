//! Dual-tree spatial joins (§IV-D "Algorithm Extensions").
//!
//! The self-join algorithms adapt to joins of *two* datasets by invoking
//! only the two-node subroutine on a root from each tree. Links pair a
//! left record with a right record; a compact group is a pair of record
//! sets `(L, R)` such that every `l ∈ L, r ∈ R` satisfies the range —
//! "an entire sub-region from each type of tree is within the query
//! range". A group therefore encodes `|L| · |R|` cross links.
//!
//! The join is [`ResilientJoin`]'s task loop over a two-tree
//! [`NodeSource`] whose handles name a node of either tree: its root step
//! is the root pair `simJoin(left root, right root)`, and from there the
//! Figure-3 engine runs only pair steps that join a left node with a
//! right one. The bounds are the nodes' MBR bounds under the join
//! metric, so any two index types join (an R-tree with an M-tree). A
//! link handler of its own turns links and early-stopped node pairs into
//! `<left ids> | <right ids>` rows, written straight into an
//! [`OutputWriter`] as they are found.

use std::collections::{HashSet, VecDeque};

use csj_geom::{Mbr, Metric, Point, RecordId};
use csj_index::{JoinIndex, LeafEntry, NodeId};
use csj_storage::{OutputSink, OutputWriter};

use crate::algo::WithHandler;
use crate::engine::{CollectSink, IndexLeaf, LinkHandler, NodeSource, RowSink, Step};
use crate::error::CsjError;
use crate::parallel::ParallelAlgo;
use crate::resilient::{ResilientJoin, ResilientReport, TaskLoop};
use crate::stats::JoinStats;

/// A spatial (two-dataset) similarity join.
///
/// The [`ParallelAlgo`] value selects the variant: [`ParallelAlgo::Ssj`]
/// enumerates every cross link, [`ParallelAlgo::Ncsj`] early-stops
/// qualifying node pairs into groups, and [`ParallelAlgo::Csj`]`(g)` also
/// merges residual links into the `g` most recent groups (`g = 0` is
/// N-CSJ).
///
/// ```
/// use csj_core::brute::parse_cross_links;
/// use csj_core::parallel::ParallelAlgo;
/// use csj_core::spatial::SpatialJoin;
/// use csj_geom::Point;
/// use csj_index::{rstar::RStarTree, RTreeConfig};
/// use csj_storage::{OutputWriter, VecSink};
///
/// let left: Vec<Point<2>> = (0..50).map(|i| Point::new([i as f64 * 0.02, 0.0])).collect();
/// let right: Vec<Point<2>> = (0..50).map(|i| Point::new([i as f64 * 0.02, 0.01])).collect();
/// let lt = RStarTree::from_points(&left, RTreeConfig::with_max_fanout(8));
/// let rt = RStarTree::from_points(&right, RTreeConfig::with_max_fanout(8));
/// let mut writer = OutputWriter::new(VecSink::new(), 2);
/// let report = SpatialJoin::new(0.05, ParallelAlgo::Csj(10))
///     .run_streaming(&lt, &rt, &mut writer)
///     .expect("a vec sink cannot fail");
/// assert!(report.completion.is_complete());
/// let links = parse_cross_links(writer.sink().as_str()).expect("well-formed rows");
/// assert!(!links.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct SpatialJoin {
    /// The task loop's settings: range, metric and algorithm.
    join: ResilientJoin,
}

impl SpatialJoin {
    /// A spatial join with range `epsilon` running `algo`.
    pub fn new(epsilon: f64, algo: ParallelAlgo) -> Self {
        SpatialJoin { join: ResilientJoin::new(epsilon, algo) }
    }

    /// Replaces the metric.
    pub fn with_metric(mut self, metric: Metric) -> Self {
        self.join.cfg.metric = metric;
        self
    }

    /// Runs the join of two trees (which may be of different index
    /// types), writing each `<left ids> | <right ids>` row into `writer`
    /// as it is found. Left record ids come from `left`, right ids from
    /// `right`.
    ///
    /// # Errors
    /// Returns [`CsjError::Storage`] when the sink rejects a write; rows
    /// already written remain valid output.
    pub fn run_streaming<L, R, W, const D: usize>(
        &self,
        left: &L,
        right: &R,
        writer: &mut OutputWriter<W>,
    ) -> Result<ResilientReport, CsjError>
    where
        L: JoinIndex<D>,
        R: JoinIndex<D>,
        W: OutputSink,
    {
        let (cfg, algo) = (self.join.cfg, self.join.algo);
        let g = if let ParallelAlgo::Csj(g) = algo { g } else { 0 };
        let handler =
            CrossRows { g, eps: cfg.epsilon, metric: cfg.metric, window: VecDeque::new(), writer };
        // The engine's own sink stays empty: the handler writes the rows.
        let run = TaskLoop {
            join: &self.join,
            source: TwoTrees { trees: [left, right], eps: cfg.epsilon, metric: cfg.metric },
            sink: CollectSink::default(),
        };
        let (_, stats, completion) = run.run(algo.early_stop(), handler)?;
        Ok(ResilientReport { stats, completion })
    }
}

/// A node of the left (`0`) or the right (`1`) tree.
type Side = (usize, NodeId);

/// Both trees as one node source. Its root step is the root pair, and
/// every pair step joins a left node with a right one.
struct TwoTrees<'t, const D: usize> {
    trees: [&'t dyn JoinIndex<D>; 2],
    eps: f64,
    metric: Metric,
}

impl<'t, const D: usize> NodeSource<D> for TwoTrees<'t, D> {
    type Node = Side;
    type Leaf<'a>
        = IndexLeaf<'t, dyn JoinIndex<D> + 't>
    where
        Self: 'a;

    /// The root pair, or `None` when a tree is empty or the roots are
    /// farther apart than ε: then the join runs and counts nothing.
    fn root(&mut self) -> Result<Option<Step<Side>>, CsjError> {
        let [l, r] = self.trees.map(|t| t.root());
        let Some((l, r)) = l.zip(r).map(|(l, r)| ((0, l), (1, r))) else { return Ok(None) };
        Ok((self.min_dist(l, r, self.metric) <= self.eps).then_some(Step::Pair(l, r)))
    }
    fn is_leaf(&self, (t, n): Side) -> bool {
        self.trees[t].is_leaf(n)
    }
    fn log_id(&self, (_, n): Side) -> u32 {
        n.0
    }
    fn mbr(&self, (t, n): Side) -> Mbr<D> {
        self.trees[t].node_mbr(n)
    }
    fn max_diameter(&self, (t, n): Side, metric: Metric) -> f64 {
        self.trees[t].max_diameter(n, metric)
    }
    /// Every cross pair is within ε once the two MBRs' farthest points are.
    fn pair_diameter(&self, a: Side, b: Side, metric: Metric) -> f64 {
        metric.max_dist_mbr(&self.mbr(a), &self.mbr(b))
    }
    fn min_dist(&self, a: Side, b: Side, metric: Metric) -> f64 {
        metric.min_dist_mbr(&self.mbr(a), &self.mbr(b))
    }
    fn children(&mut self, (t, n): Side, out: &mut Vec<Side>) -> Result<(), CsjError> {
        out.extend(self.trees[t].children(n).iter().map(|&c| (t, c)));
        Ok(())
    }
    fn leaf(&mut self, (t, n): Side) -> Result<Self::Leaf<'_>, CsjError> {
        self.trees[t].leaf(n)
    }
    fn leaf_pair(
        &mut self,
        a: Side,
        b: Side,
    ) -> Result<(Self::Leaf<'_>, Self::Leaf<'_>), CsjError> {
        Ok((self.leaf(a)?, self.leaf(b)?))
    }
    fn collect_record_ids(
        &mut self,
        (t, n): Side,
        out: &mut Vec<RecordId>,
    ) -> Result<(), CsjError> {
        self.trees[t].collect_record_ids(n, out);
        Ok(())
    }
    fn collect_entries(
        &mut self,
        (t, n): Side,
        out: &mut Vec<LeafEntry<D>>,
    ) -> Result<(), CsjError> {
        self.trees[t].collect_entries(n, out);
        Ok(())
    }
}

/// An open cross-group in the windowed spatial join: members in
/// first-seen order, deduplicated.
#[derive(Clone, Debug)]
struct OpenCrossGroup<const D: usize> {
    left: Vec<RecordId>,
    left_seen: HashSet<RecordId>,
    right: Vec<RecordId>,
    right_seen: HashSet<RecordId>,
    mbr: Mbr<D>,
}

impl<const D: usize> OpenCrossGroup<D> {
    fn new(left: Vec<RecordId>, right: Vec<RecordId>, mbr: Mbr<D>) -> Self {
        let left_seen = left.iter().copied().collect();
        let right_seen = right.iter().copied().collect();
        OpenCrossGroup { left, left_seen, right, right_seen, mbr }
    }

    fn try_merge(
        &mut self,
        l: RecordId,
        pl: &Point<D>,
        r: RecordId,
        pr: &Point<D>,
        eps: f64,
        metric: Metric,
    ) -> bool {
        let mut grown = self.mbr;
        grown.expand_to_point(pl);
        grown.expand_to_point(pr);
        if metric.mbr_diameter(&grown) > eps {
            return false;
        }
        self.mbr = grown;
        if self.left_seen.insert(l) {
            self.left.push(l);
        }
        if self.right_seen.insert(r) {
            self.right.push(r);
        }
        true
    }
}

/// The `(L, R)` rows of a spatial join, written into `writer` as they
/// leave. With `g = 0` links and node-pair groups go out as they come.
/// Otherwise the `g` most recent groups stay open: a link merges into
/// the newest one it fits (or opens its own), node-pair groups enter
/// seeded with the covering node shapes, and groups leave oldest first.
///
/// A group adds `|L|·|R|` to [`JoinStats::links_in_groups`], the cross
/// counterpart of the self-join's `k(k−1)/2`.
struct CrossRows<'w, W, const D: usize> {
    g: usize,
    eps: f64,
    metric: Metric,
    window: VecDeque<OpenCrossGroup<D>>,
    writer: &'w mut OutputWriter<W>,
}

impl<W: OutputSink, const D: usize> CrossRows<'_, W, D> {
    fn open(&mut self, group: OpenCrossGroup<D>, stats: &mut JoinStats) -> Result<(), CsjError> {
        if self.window.len() == self.g {
            if let Some(oldest) = self.window.pop_front() {
                self.emit(&oldest.left, &oldest.right, stats)?;
            }
        }
        self.window.push_back(group);
        Ok(())
    }

    fn emit(
        &mut self,
        left: &[RecordId],
        right: &[RecordId],
        stats: &mut JoinStats,
    ) -> Result<(), CsjError> {
        self.writer.write_cross(left, right)?;
        stats.groups_emitted += 1;
        stats.group_members_emitted += (left.len() + right.len()) as u64;
        stats.links_in_groups += left.len() as u64 * right.len() as u64;
        Ok(())
    }
}

impl<W: OutputSink, const D: usize> LinkHandler<D> for CrossRows<'_, W, D> {
    fn on_link<S: RowSink>(
        &mut self,
        l: RecordId,
        pl: &Point<D>,
        r: RecordId,
        pr: &Point<D>,
        _sink: &mut S,
        stats: &mut JoinStats,
    ) -> Result<(), CsjError> {
        if self.g == 0 {
            self.writer.write_cross(&[l], &[r])?;
            stats.links_emitted += 1;
            return Ok(());
        }
        for group in self.window.iter_mut().rev() {
            stats.merge_attempts += 1;
            if group.try_merge(l, pl, r, pr, self.eps, self.metric) {
                stats.merges_succeeded += 1;
                return Ok(());
            }
        }
        self.open(OpenCrossGroup::new(vec![l], vec![r], Mbr::from_corners(pl, pr)), stats)
    }

    fn on_subtree<S: RowSink>(
        &mut self,
        ids: &[RecordId],
        first: usize,
        mbr: &Mbr<D>,
        _sink: &mut S,
        stats: &mut JoinStats,
    ) -> Result<(), CsjError> {
        if first == 0 || first == ids.len() {
            return Ok(());
        }
        if self.g == 0 {
            let (left, right) = ids.split_at(first);
            return self.emit(left, right, stats);
        }
        let (left, right) = ids.split_at(first);
        self.open(OpenCrossGroup::new(left.to_vec(), right.to_vec(), *mbr), stats)
    }

    fn finish<S: RowSink>(&mut self, _sink: &mut S, stats: &mut JoinStats) -> Result<(), CsjError> {
        while let Some(group) = self.window.pop_front() {
            self.emit(&group.left, &group.right, stats)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::{brute_force_cross_links, parse_cross_links};
    use csj_index::{
        mtree::{MTree, MTreeConfig},
        rstar::RStarTree,
        rtree::RTree,
        RTreeConfig,
    };
    use csj_storage::VecSink;
    use std::collections::BTreeSet;

    /// The text and report of `algo`'s join of `lt` with `rt`, ids 3
    /// digits wide.
    fn join(
        eps: f64,
        algo: ParallelAlgo,
        lt: &impl JoinIndex<2>,
        rt: &impl JoinIndex<2>,
    ) -> (String, ResilientReport) {
        let mut writer = OutputWriter::new(VecSink::new(), 3);
        let report = SpatialJoin::new(eps, algo)
            .run_streaming(lt, rt, &mut writer)
            .expect("a vec sink cannot fail");
        assert!(report.completion.is_complete());
        (writer.sink().as_str().to_string(), report)
    }

    /// The link set the rows of `algo`'s join imply.
    fn links(
        eps: f64,
        algo: ParallelAlgo,
        lt: &impl JoinIndex<2>,
        rt: &impl JoinIndex<2>,
    ) -> BTreeSet<(RecordId, RecordId)> {
        parse_cross_links(&join(eps, algo, lt, rt).0).expect("well-formed rows")
    }

    fn left_points(n: usize) -> Vec<Point<2>> {
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                Point::new([t, (t * 31.0).sin() * 0.03])
            })
            .collect()
    }

    fn right_points(n: usize) -> Vec<Point<2>> {
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                Point::new([t, 0.02 + (t * 17.0).cos() * 0.03])
            })
            .collect()
    }

    #[test]
    fn all_algorithms_lossless() {
        let (lp, rp) = (left_points(150), right_points(170));
        let lt = RStarTree::from_points(&lp, RTreeConfig::with_max_fanout(6));
        let rt = RStarTree::from_points(&rp, RTreeConfig::with_max_fanout(6));
        for eps in [0.01, 0.05, 0.2] {
            let want = brute_force_cross_links(&lp, &rp, eps, Metric::Euclidean);
            for algo in [ParallelAlgo::Ssj, ParallelAlgo::Ncsj, ParallelAlgo::Csj(10)] {
                assert_eq!(links(eps, algo, &lt, &rt), want, "eps={eps} algo={algo:?}");
            }
        }
    }

    #[test]
    fn compact_output_no_larger() {
        let (lp, rp) = (left_points(250), right_points(250));
        let lt = RStarTree::from_points(&lp, RTreeConfig::with_max_fanout(8));
        let rt = RStarTree::from_points(&rp, RTreeConfig::with_max_fanout(8));
        let eps = 0.08;
        let bytes = |algo| join(eps, algo, &lt, &rt).0.len();
        let (std_out, cmp_out) = (bytes(ParallelAlgo::Ssj), bytes(ParallelAlgo::Ncsj));
        assert!(cmp_out <= std_out);
        assert!(bytes(ParallelAlgo::Csj(10)) <= cmp_out);
    }

    #[test]
    fn far_apart_roots_run_and_count_nothing() {
        let lp = vec![Point::new([0.0, 0.0]), Point::new([0.1, 0.0])];
        let rp = vec![Point::new([5.0, 5.0]), Point::new([5.1, 5.0])];
        let lt = RStarTree::from_points(&lp, RTreeConfig::with_max_fanout(4));
        let rt = RStarTree::from_points(&rp, RTreeConfig::with_max_fanout(4));
        let (text, report) = join(0.2, ParallelAlgo::Csj(5), &lt, &rt);
        assert!(text.is_empty());
        assert_eq!(report.stats, JoinStats { threads_used: 1, ..JoinStats::default() });
    }

    #[test]
    fn empty_tree_sides() {
        let lp = vec![Point::new([0.0, 0.0])];
        let lt = RStarTree::from_points(&lp, RTreeConfig::with_max_fanout(4));
        let empty = RStarTree::<2>::new(RTreeConfig::default());
        assert!(join(1.0, ParallelAlgo::Ssj, &lt, &empty).0.is_empty());
        assert!(join(1.0, ParallelAlgo::Ssj, &empty, &lt).0.is_empty());
    }

    #[test]
    fn mixed_tree_types() {
        // A spatial join across *different* index structures: R-tree
        // against M-tree (the trait makes this free).
        let (lp, rp) = (left_points(100), right_points(100));
        let lt = RTree::from_points(&lp, RTreeConfig::with_max_fanout(6));
        let rt = MTree::from_points(&rp, MTreeConfig::with_max_fanout(6));
        let eps = 0.06;
        let want = brute_force_cross_links(&lp, &rp, eps, Metric::Euclidean);
        assert_eq!(links(eps, ParallelAlgo::Csj(10), &lt, &rt), want);
    }

    #[test]
    fn identical_datasets_include_self_pairs() {
        // Unlike the self-join, the cross join of a dataset with itself
        // reports (i, i) pairs — distance zero qualifies.
        let lp = left_points(20);
        let lt = RStarTree::from_points(&lp, RTreeConfig::with_max_fanout(4));
        let set = links(0.001, ParallelAlgo::Ssj, &lt, &lt);
        for i in 0..20u32 {
            assert!(set.contains(&(i, i)), "self pair ({i},{i})");
        }
    }

    #[test]
    fn implied_links_count_the_distinct_pairs_without_a_window() {
        // SSJ and N-CSJ imply each cross pair in exactly one row, so the
        // counters' implied links are the distinct count `csj join2`
        // reports.
        let (lp, rp) = (left_points(300), right_points(300));
        let lt = RStarTree::from_points(&lp, RTreeConfig::with_max_fanout(6));
        let rt = RStarTree::from_points(&rp, RTreeConfig::with_max_fanout(6));
        let eps = 0.08;
        let want = brute_force_cross_links(&lp, &rp, eps, Metric::Euclidean).len() as u64;
        for algo in [ParallelAlgo::Ssj, ParallelAlgo::Ncsj] {
            let (text, report) = join(eps, algo, &lt, &rt);
            let s = &report.stats;
            assert_eq!(s.links_emitted + s.links_in_groups, want, "{algo:?}");
            assert_eq!(s.links_emitted + s.groups_emitted, text.lines().count() as u64);
            assert_eq!(s.groups_emitted > 0, algo == ParallelAlgo::Ncsj, "{algo:?}");
        }
    }

    #[test]
    fn a_failing_sink_stops_the_join_at_a_row_boundary() {
        use csj_storage::{FaultPolicy, FaultySink};
        let (lp, rp) = (left_points(200), right_points(200));
        let lt = RStarTree::from_points(&lp, RTreeConfig::with_max_fanout(6));
        let rt = RStarTree::from_points(&rp, RTreeConfig::with_max_fanout(6));
        let (full, _) = join(0.08, ParallelAlgo::Ncsj, &lt, &rt);
        let sink = FaultySink::new(VecSink::new(), FaultPolicy::fail_every(40));
        let mut writer = OutputWriter::new(sink, 3);
        let err = SpatialJoin::new(0.08, ParallelAlgo::Ncsj)
            .run_streaming(&lt, &rt, &mut writer)
            .expect_err("the 40th row fails");
        assert!(matches!(err, CsjError::Storage(_)), "{err}");
        let written = writer.sink().inner().as_str();
        assert_eq!(written.lines().count(), 39);
        assert!(full.starts_with(written), "the rows written are a prefix of the full file");
    }

    #[test]
    fn different_density_distributions() {
        // The paper: when the two data sets distribute differently, the
        // inclusion check often fails and few groups form — but the
        // result stays correct.
        let lp: Vec<Point<2>> = (0..120)
            .map(|i| Point::new([(i % 11) as f64 / 11.0, (i / 11) as f64 / 11.0]))
            .collect();
        let rp: Vec<Point<2>> = (0..120)
            .map(|i| Point::new([0.5 + (i % 12) as f64 * 1e-3, 0.5 + (i / 12) as f64 * 1e-3]))
            .collect();
        let lt = RStarTree::from_points(&lp, RTreeConfig::with_max_fanout(8));
        let rt = RStarTree::from_points(&rp, RTreeConfig::with_max_fanout(8));
        let eps = 0.05;
        let want = brute_force_cross_links(&lp, &rp, eps, Metric::Euclidean);
        assert_eq!(links(eps, ParallelAlgo::Csj(10), &lt, &rt), want);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::brute::{brute_force_cross_links, parse_cross_links};
    use csj_index::{rstar::RStarTree, RTreeConfig};
    use csj_storage::VecSink;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The spatial join is lossless for every algorithm on arbitrary data.
        #[test]
        fn spatial_join_lossless(
            lp in prop::collection::vec(prop::array::uniform2(0.0f64..1.0), 0..80),
            rp in prop::collection::vec(prop::array::uniform2(0.0f64..1.0), 0..80),
            eps in 0.0f64..0.5,
            algo in 0usize..3,
        ) {
            let lp: Vec<Point<2>> = lp.into_iter().map(Point::new).collect();
            let rp: Vec<Point<2>> = rp.into_iter().map(Point::new).collect();
            let lt = RStarTree::from_points(&lp, RTreeConfig::with_max_fanout(5));
            let rt = RStarTree::from_points(&rp, RTreeConfig::with_max_fanout(5));
            let algo = [ParallelAlgo::Ssj, ParallelAlgo::Ncsj, ParallelAlgo::Csj(7)][algo];
            let mut writer = OutputWriter::new(VecSink::new(), 2);
            SpatialJoin::new(eps, algo)
                .run_streaming(&lt, &rt, &mut writer)
                .expect("a vec sink cannot fail");
            prop_assert_eq!(
                parse_cross_links(writer.sink().as_str()),
                Some(brute_force_cross_links(&lp, &rp, eps, Metric::Euclidean))
            );
        }
    }
}
