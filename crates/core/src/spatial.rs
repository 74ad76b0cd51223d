//! Dual-tree spatial joins (§IV-D "Algorithm Extensions").
//!
//! The self-join algorithms adapt to joins of *two* datasets by invoking
//! only the two-node subroutine on a root from each tree. Links pair a
//! left record with a right record; a compact group is a pair of record
//! sets `(L, R)` such that every `l ∈ L, r ∈ R` satisfies the range —
//! "an entire sub-region from each type of tree is within the query
//! range". A group therefore encodes `|L| · |R|` cross links.
//!
//! The join is the Figure-3 [`Engine`] over a two-tree [`NodeSource`]
//! whose handles name a node of either tree: it runs the root pair
//! `simJoin(left root, right root)` and, from there, only pair steps
//! that join a left node with a right one. The bounds are the nodes'
//! MBR bounds under the join metric, so any two index types join (an
//! R-tree with an M-tree). A link handler of its own turns links and
//! early-stopped node pairs into `(L, R)` rows.

use std::collections::{BTreeSet, HashSet, VecDeque};

use csj_geom::{Mbr, Metric, Point, RecordId};
use csj_index::{JoinIndex, LeafEntry, NodeId};
use csj_storage::RowEncoder;

use crate::engine::{
    infallible, CollectSink, Engine, IndexLeaf, LinkHandler, NodeSource, RowSink, Step,
};
use crate::error::CsjError;
use crate::parallel::ParallelAlgo;
use crate::stats::JoinStats;
use crate::JoinConfig;

/// One output row of a spatial join.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpatialItem {
    /// A qualifying cross pair `(left record, right record)`.
    Link(RecordId, RecordId),
    /// All of `left × right` qualifies.
    Group {
        /// Records from the left dataset.
        left: Vec<RecordId>,
        /// Records from the right dataset.
        right: Vec<RecordId>,
    },
}

impl SpatialItem {
    /// Number of cross links this row implies.
    pub fn implied_links(&self) -> u64 {
        match self {
            SpatialItem::Link(..) => 1,
            SpatialItem::Group { left, right } => left.len() as u64 * right.len() as u64,
        }
    }

    /// Bytes in the text format `<left ids> | <right ids>\n` with
    /// fixed-width ids: `k` ids cost `k·width + k` bytes (separators and
    /// the newline included), plus 2 bytes for `"| "`.
    pub fn format_bytes(&self, width: usize) -> u64 {
        match self {
            SpatialItem::Link(..) => (2 * width + 2 + 2) as u64,
            SpatialItem::Group { left, right } => {
                let k = left.len() + right.len();
                (k * width + k + 2) as u64
            }
        }
    }
}

/// Collected result of a spatial join.
#[derive(Clone, Debug, Default)]
pub struct SpatialOutput {
    /// Output rows in emission order.
    pub items: Vec<SpatialItem>,
    /// Operation counters.
    pub stats: JoinStats,
}

impl SpatialOutput {
    /// Number of link rows.
    pub fn num_links(&self) -> usize {
        self.items.iter().filter(|i| matches!(i, SpatialItem::Link(..))).count()
    }

    /// Number of group rows.
    pub fn num_groups(&self) -> usize {
        self.items.iter().filter(|i| matches!(i, SpatialItem::Group { .. })).count()
    }

    /// Expands to the deduplicated `(left, right)` link set.
    pub fn expanded_link_set(&self) -> BTreeSet<(RecordId, RecordId)> {
        let mut set = BTreeSet::new();
        for item in &self.items {
            match item {
                SpatialItem::Link(a, b) => {
                    set.insert((*a, *b));
                }
                SpatialItem::Group { left, right } => {
                    for &l in left {
                        for &r in right {
                            set.insert((l, r));
                        }
                    }
                }
            }
        }
        set
    }

    /// Output size in bytes of the text encoding.
    pub fn total_bytes(&self, width: usize) -> u64 {
        self.items.iter().map(|i| i.format_bytes(width)).sum()
    }

    /// Streams the rows into `sink` in the text format
    /// `<left ids> | <right ids>\n` with `width`-digit zero-padded ids
    /// (`1..=20`, as [`RowEncoder`] takes).
    /// A sink failure surfaces as `Err`; rows already written remain
    /// valid output.
    ///
    /// # Errors
    /// Returns [`csj_storage::StorageError`] from the first failing sink
    /// write.
    pub fn write_to<S: csj_storage::OutputSink>(
        &self,
        sink: &mut S,
        width: usize,
    ) -> Result<(), csj_storage::StorageError> {
        let mut encoder = RowEncoder::new(width);
        let mut line = Vec::with_capacity(256);
        for item in &self.items {
            let (left, right) = match item {
                SpatialItem::Link(l, r) => (std::slice::from_ref(l), std::slice::from_ref(r)),
                SpatialItem::Group { left, right } => (&left[..], &right[..]),
            };
            // `<left ids> ` + `| ` + `<right ids>\n`.
            line.clear();
            line.extend_from_slice(encoder.encode(left, b' '));
            line.extend_from_slice(b"| ");
            line.extend_from_slice(encoder.encode(right, b'\n'));
            sink.write_bytes(&line)?;
        }
        Ok(())
    }
}

/// A spatial (two-dataset) similarity join.
///
/// The [`ParallelAlgo`] value selects the variant: [`ParallelAlgo::Ssj`]
/// enumerates every cross link, [`ParallelAlgo::Ncsj`] early-stops
/// qualifying node pairs into groups, and [`ParallelAlgo::Csj`]`(g)` also
/// merges residual links into the `g` most recent groups (`g = 0` is
/// N-CSJ).
///
/// ```
/// use csj_core::parallel::ParallelAlgo;
/// use csj_core::spatial::SpatialJoin;
/// use csj_geom::Point;
/// use csj_index::{rstar::RStarTree, RTreeConfig};
///
/// let left: Vec<Point<2>> = (0..50).map(|i| Point::new([i as f64 * 0.02, 0.0])).collect();
/// let right: Vec<Point<2>> = (0..50).map(|i| Point::new([i as f64 * 0.02, 0.01])).collect();
/// let lt = RStarTree::from_points(&left, RTreeConfig::with_max_fanout(8));
/// let rt = RStarTree::from_points(&right, RTreeConfig::with_max_fanout(8));
/// let out = SpatialJoin::new(0.05, ParallelAlgo::Csj(10)).run(&lt, &rt);
/// assert!(!out.expanded_link_set().is_empty());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct SpatialJoin {
    cfg: JoinConfig,
    algo: ParallelAlgo,
}

impl SpatialJoin {
    /// A spatial join with range `epsilon` running `algo`.
    pub fn new(epsilon: f64, algo: ParallelAlgo) -> Self {
        SpatialJoin { cfg: JoinConfig::new(epsilon), algo }
    }

    /// Replaces the metric.
    pub fn with_metric(mut self, metric: Metric) -> Self {
        self.cfg.metric = metric;
        self
    }

    /// Runs the join of two trees (which may be of different index
    /// types). Left record ids come from `left`, right ids from `right`.
    pub fn run<L, R, const D: usize>(&self, left: &L, right: &R) -> SpatialOutput
    where
        L: JoinIndex<D>,
        R: JoinIndex<D>,
    {
        let (eps, metric) = (self.cfg.epsilon, self.cfg.metric);
        let (early_stop, g) = match self.algo {
            ParallelAlgo::Ssj => (false, 0),
            ParallelAlgo::Ncsj => (true, 0),
            ParallelAlgo::Csj(g) => (true, g),
        };
        let mut items = Vec::new();
        let handler = CrossRows { g, eps, metric, window: VecDeque::new(), rows: &mut items };
        // The engine's own sink stays empty: the handler writes the rows.
        let mut engine = Engine::new(
            TwoTrees([left, right]),
            self.cfg,
            early_stop,
            handler,
            CollectSink::default(),
        );
        if let (Some(l), Some(r)) = (left.root(), right.root()) {
            let (l, r) = ((0, l), (1, r));
            if engine.source.min_dist(l, r, metric) <= eps {
                infallible(engine.run_step(Step::Pair(l, r)));
            }
        }
        infallible(engine.finish_only());
        let stats = engine.stats;
        SpatialOutput { items, stats }
    }
}

/// A node of the left (`0`) or the right (`1`) tree.
type Side = (usize, NodeId);

/// Both trees as one node source. It has no single root: the join runs
/// the root pair, and every pair step joins a left node with a right one.
struct TwoTrees<'t, const D: usize>([&'t dyn JoinIndex<D>; 2]);

impl<'t, const D: usize> NodeSource<D> for TwoTrees<'t, D> {
    type Node = Side;
    type Leaf<'a>
        = IndexLeaf<'t, dyn JoinIndex<D> + 't>
    where
        Self: 'a;

    fn root(&mut self) -> Result<Option<Side>, CsjError> {
        Ok(None)
    }
    fn is_leaf(&self, (t, n): Side) -> bool {
        self.0[t].is_leaf(n)
    }
    fn log_id(&self, (_, n): Side) -> u32 {
        n.0
    }
    fn mbr(&self, (t, n): Side) -> Mbr<D> {
        self.0[t].node_mbr(n)
    }
    fn max_diameter(&self, (t, n): Side, metric: Metric) -> f64 {
        self.0[t].max_diameter(n, metric)
    }
    /// Every cross pair is within ε once the two MBRs' farthest points are.
    fn pair_diameter(&self, a: Side, b: Side, metric: Metric) -> f64 {
        metric.max_dist_mbr(&self.mbr(a), &self.mbr(b))
    }
    fn min_dist(&self, a: Side, b: Side, metric: Metric) -> f64 {
        metric.min_dist_mbr(&self.mbr(a), &self.mbr(b))
    }
    fn children(&mut self, (t, n): Side) -> Result<Vec<Side>, CsjError> {
        Ok(self.0[t].children(n).iter().map(|&c| (t, c)).collect())
    }
    fn leaf(&mut self, (t, n): Side) -> Result<Self::Leaf<'_>, CsjError> {
        self.0[t].leaf(n)
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
        self.0[t].collect_record_ids(n, out);
        Ok(())
    }
    fn collect_entries(
        &mut self,
        (t, n): Side,
        out: &mut Vec<LeafEntry<D>>,
    ) -> Result<(), CsjError> {
        self.0[t].collect_entries(n, out);
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

/// The `(L, R)` rows of a spatial join. With `g = 0` links and node-pair
/// groups go out as they come. Otherwise the `g` most recent groups stay
/// open: a link merges into the newest one it fits (or opens its own),
/// node-pair groups enter seeded with the covering node shapes, and
/// groups leave oldest first.
struct CrossRows<'o, const D: usize> {
    g: usize,
    eps: f64,
    metric: Metric,
    window: VecDeque<OpenCrossGroup<D>>,
    rows: &'o mut Vec<SpatialItem>,
}

impl<const D: usize> CrossRows<'_, D> {
    fn open(&mut self, group: OpenCrossGroup<D>, stats: &mut JoinStats) {
        if self.window.len() == self.g {
            if let Some(oldest) = self.window.pop_front() {
                self.emit(oldest.left, oldest.right, stats);
            }
        }
        self.window.push_back(group);
    }

    fn emit(&mut self, left: Vec<RecordId>, right: Vec<RecordId>, stats: &mut JoinStats) {
        stats.groups_emitted += 1;
        stats.group_members_emitted += (left.len() + right.len()) as u64;
        self.rows.push(SpatialItem::Group { left, right });
    }
}

impl<const D: usize> LinkHandler<D> for CrossRows<'_, D> {
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
            stats.links_emitted += 1;
            self.rows.push(SpatialItem::Link(l, r));
            return Ok(());
        }
        for group in self.window.iter_mut().rev() {
            stats.merge_attempts += 1;
            if group.try_merge(l, pl, r, pr, self.eps, self.metric) {
                stats.merges_succeeded += 1;
                return Ok(());
            }
        }
        self.open(OpenCrossGroup::new(vec![l], vec![r], Mbr::from_corners(pl, pr)), stats);
        Ok(())
    }

    fn on_subtree<S: RowSink>(
        &mut self,
        mut ids: Vec<RecordId>,
        first: usize,
        mbr: &Mbr<D>,
        _sink: &mut S,
        stats: &mut JoinStats,
    ) -> Result<(), CsjError> {
        let right = ids.split_off(first);
        if ids.is_empty() || right.is_empty() {
            return Ok(());
        }
        if self.g == 0 {
            self.emit(ids, right, stats);
        } else {
            self.open(OpenCrossGroup::new(ids, right, *mbr), stats);
        }
        Ok(())
    }

    fn finish<S: RowSink>(&mut self, _sink: &mut S, stats: &mut JoinStats) -> Result<(), CsjError> {
        while let Some(group) = self.window.pop_front() {
            self.emit(group.left, group.right, stats);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_cross_links;
    use csj_index::{
        mtree::{MTree, MTreeConfig},
        rstar::RStarTree,
        rtree::RTree,
        RTreeConfig,
    };

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
                let out = SpatialJoin::new(eps, algo).run(&lt, &rt);
                assert_eq!(out.expanded_link_set(), want, "eps={eps} algo={algo:?}");
            }
        }
    }

    #[test]
    fn compact_output_no_larger() {
        let (lp, rp) = (left_points(250), right_points(250));
        let lt = RStarTree::from_points(&lp, RTreeConfig::with_max_fanout(8));
        let rt = RStarTree::from_points(&rp, RTreeConfig::with_max_fanout(8));
        let eps = 0.08;
        let std_out = SpatialJoin::new(eps, ParallelAlgo::Ssj).run(&lt, &rt);
        let cmp_out = SpatialJoin::new(eps, ParallelAlgo::Ncsj).run(&lt, &rt);
        let win_out = SpatialJoin::new(eps, ParallelAlgo::Csj(10)).run(&lt, &rt);
        let w = 3;
        assert!(cmp_out.total_bytes(w) <= std_out.total_bytes(w));
        assert!(win_out.total_bytes(w) <= cmp_out.total_bytes(w));
    }

    #[test]
    fn disjoint_datasets_empty_output() {
        let lp = vec![Point::new([0.0, 0.0]), Point::new([0.1, 0.0])];
        let rp = vec![Point::new([5.0, 5.0]), Point::new([5.1, 5.0])];
        let lt = RStarTree::from_points(&lp, RTreeConfig::with_max_fanout(4));
        let rt = RStarTree::from_points(&rp, RTreeConfig::with_max_fanout(4));
        let out = SpatialJoin::new(0.2, ParallelAlgo::Csj(5)).run(&lt, &rt);
        assert!(out.items.is_empty());
    }

    #[test]
    fn empty_tree_sides() {
        let lp = vec![Point::new([0.0, 0.0])];
        let lt = RStarTree::from_points(&lp, RTreeConfig::with_max_fanout(4));
        let empty = RStarTree::<2>::new(RTreeConfig::default());
        let out = SpatialJoin::new(1.0, ParallelAlgo::Ssj).run(&lt, &empty);
        assert!(out.items.is_empty());
        let out = SpatialJoin::new(1.0, ParallelAlgo::Ssj).run(&empty, &lt);
        assert!(out.items.is_empty());
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
        let out = SpatialJoin::new(eps, ParallelAlgo::Csj(10)).run(&lt, &rt);
        assert_eq!(out.expanded_link_set(), want);
    }

    #[test]
    fn identical_datasets_include_self_pairs() {
        // Unlike the self-join, the cross join of a dataset with itself
        // reports (i, i) pairs — distance zero qualifies.
        let lp = left_points(20);
        let lt = RStarTree::from_points(&lp, RTreeConfig::with_max_fanout(4));
        let out = SpatialJoin::new(0.001, ParallelAlgo::Ssj).run(&lt, &lt);
        let set = out.expanded_link_set();
        for i in 0..20u32 {
            assert!(set.contains(&(i, i)), "self pair ({i},{i})");
        }
    }

    #[test]
    fn implied_links_sum_to_the_distinct_count_without_a_window() {
        // SSJ and N-CSJ imply each cross pair in exactly one row, so the
        // rows' sum is the distinct count `csj join2` reports.
        let (lp, rp) = (left_points(300), right_points(300));
        let lt = RStarTree::from_points(&lp, RTreeConfig::with_max_fanout(6));
        let rt = RStarTree::from_points(&rp, RTreeConfig::with_max_fanout(6));
        for algo in [ParallelAlgo::Ssj, ParallelAlgo::Ncsj] {
            let out = SpatialJoin::new(0.08, algo).run(&lt, &rt);
            let sum: u64 = out.items.iter().map(SpatialItem::implied_links).sum();
            assert_eq!(sum, out.expanded_link_set().len() as u64, "{algo:?}");
            assert_eq!(out.num_groups() > 0, algo == ParallelAlgo::Ncsj, "{algo:?}");
        }
    }

    #[test]
    fn group_byte_format_accounting() {
        let link = SpatialItem::Link(1, 2);
        assert_eq!(link.format_bytes(4), 12, "two ids + separators + '| '");
        let group = SpatialItem::Group { left: vec![1, 2], right: vec![3] };
        assert_eq!(group.format_bytes(4), 17);
        assert_eq!(group.implied_links(), 2);
    }

    #[test]
    fn write_to_matches_byte_accounting() {
        use csj_storage::{OutputSink, VecSink};
        let out = SpatialOutput {
            items: vec![
                SpatialItem::Link(1, 22),
                SpatialItem::Group { left: vec![3, 4], right: vec![5] },
            ],
            stats: JoinStats::default(),
        };
        let width = 4;
        let mut sink = VecSink::new();
        out.write_to(&mut sink, width).expect("vec sink cannot fail");
        assert_eq!(sink.as_str(), "0001 | 0022\n0003 0004 | 0005\n");
        assert_eq!(sink.bytes_written(), out.total_bytes(width));
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
        let out = SpatialJoin::new(eps, ParallelAlgo::Csj(10)).run(&lt, &rt);
        assert_eq!(out.expanded_link_set(), want);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::brute::brute_force_cross_links;
    use csj_index::{rstar::RStarTree, RTreeConfig};
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
            let out = SpatialJoin::new(eps, algo).run(&lt, &rt);
            prop_assert_eq!(
                out.expanded_link_set(),
                brute_force_cross_links(&lp, &rp, eps, Metric::Euclidean)
            );
        }
    }
}
