//! Dual-tree spatial joins (§IV-D "Algorithm Extensions").
//!
//! The self-join algorithms adapt to joins of *two* datasets by invoking
//! only the two-node subroutine on a root from each tree. Links pair a
//! left record with a right record; a compact group is a pair of record
//! sets `(L, R)` such that every `l ∈ L, r ∈ R` satisfies the range —
//! "an entire sub-region from each type of tree is within the query
//! range". A group therefore encodes `|L| · |R|` cross links.

use std::collections::VecDeque;
use std::collections::{BTreeSet, HashSet};

use csj_geom::{Mbr, Metric, Point, RecordId};
use csj_index::{JoinIndex, NodeId};
use csj_storage::RowEncoder;

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

/// Algorithm variant for the spatial join.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpatialMode {
    /// Enumerate every cross link (the SSJ analogue).
    Standard,
    /// Early-stop qualifying node pairs into groups (the N-CSJ analogue).
    Compact,
    /// Compact plus merging residual links into the `g` most recent
    /// groups (the CSJ(g) analogue).
    CompactWindowed(usize),
}

/// A spatial (two-dataset) similarity join.
///
/// ```
/// use csj_core::spatial::{SpatialJoin, SpatialMode};
/// use csj_geom::Point;
/// use csj_index::{rstar::RStarTree, RTreeConfig};
///
/// let left: Vec<Point<2>> = (0..50).map(|i| Point::new([i as f64 * 0.02, 0.0])).collect();
/// let right: Vec<Point<2>> = (0..50).map(|i| Point::new([i as f64 * 0.02, 0.01])).collect();
/// let lt = RStarTree::from_points(&left, RTreeConfig::with_max_fanout(8));
/// let rt = RStarTree::from_points(&right, RTreeConfig::with_max_fanout(8));
/// let out = SpatialJoin::new(0.05, SpatialMode::CompactWindowed(10)).run(&lt, &rt);
/// assert!(!out.expanded_link_set().is_empty());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct SpatialJoin {
    cfg: JoinConfig,
    mode: SpatialMode,
}

/// An open cross-group in the windowed spatial join.
#[derive(Clone, Debug)]
struct OpenCrossGroup<const D: usize> {
    left: Vec<RecordId>,
    left_seen: HashSet<RecordId>,
    right: Vec<RecordId>,
    right_seen: HashSet<RecordId>,
    mbr: Mbr<D>,
}

impl<const D: usize> OpenCrossGroup<D> {
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

impl SpatialJoin {
    /// A spatial join with range `epsilon` in the given mode.
    pub fn new(epsilon: f64, mode: SpatialMode) -> Self {
        SpatialJoin { cfg: JoinConfig::new(epsilon), mode }
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
        let mut runner = Runner {
            left,
            right,
            eps: self.cfg.epsilon,
            metric: self.cfg.metric,
            mode: self.mode,
            window: VecDeque::new(),
            out: SpatialOutput::default(),
        };
        if let (Some(lr), Some(rr)) = (left.root(), right.root()) {
            if runner.min_dist(lr, rr) <= runner.eps {
                runner.join_pair(lr, rr);
            }
        }
        runner.flush_window();
        runner.out
    }
}

struct Runner<'a, L, R, const D: usize> {
    left: &'a L,
    right: &'a R,
    eps: f64,
    metric: Metric,
    mode: SpatialMode,
    window: VecDeque<OpenCrossGroup<D>>,
    out: SpatialOutput,
}

impl<L, R, const D: usize> Runner<'_, L, R, D>
where
    L: JoinIndex<D>,
    R: JoinIndex<D>,
{
    fn min_dist(&self, a: NodeId, b: NodeId) -> f64 {
        self.metric.min_dist_mbr(&self.left.node_mbr(a), &self.right.node_mbr(b))
    }

    fn pair_diameter(&self, a: NodeId, b: NodeId) -> f64 {
        self.metric.max_dist_mbr(&self.left.node_mbr(a), &self.right.node_mbr(b))
    }

    fn join_pair(&mut self, a: NodeId, b: NodeId) {
        self.out.stats.pair_visits += 1;
        let compact = !matches!(self.mode, SpatialMode::Standard);
        if compact && self.pair_diameter(a, b) <= self.eps {
            self.out.stats.early_stops_pair += 1;
            let mut l = Vec::new();
            let mut r = Vec::new();
            self.left.collect_record_ids(a, &mut l);
            self.right.collect_record_ids(b, &mut r);
            let mbr = self.left.node_mbr(a).union(&self.right.node_mbr(b));
            self.emit_group(l, r, mbr);
            return;
        }
        match (self.left.is_leaf(a), self.right.is_leaf(b)) {
            (true, true) => {
                let ea = self.left.leaf_entries(a).to_vec();
                let eb = self.right.leaf_entries(b).to_vec();
                for x in &ea {
                    for y in &eb {
                        self.out.stats.distance_computations += 1;
                        if self.metric.within(&x.point, &y.point, self.eps) {
                            self.emit_link(x.id, &x.point, y.id, &y.point);
                        }
                    }
                }
            }
            (true, false) => {
                for c in self.right.children(b).to_vec() {
                    if self.min_dist(a, c) <= self.eps {
                        self.join_pair(a, c);
                    } else {
                        self.out.stats.pairs_pruned += 1;
                    }
                }
            }
            (false, true) => {
                for c in self.left.children(a).to_vec() {
                    if self.min_dist(c, b) <= self.eps {
                        self.join_pair(c, b);
                    } else {
                        self.out.stats.pairs_pruned += 1;
                    }
                }
            }
            (false, false) => {
                let ca = self.left.children(a).to_vec();
                let cb = self.right.children(b).to_vec();
                for &x in &ca {
                    for &y in &cb {
                        if self.min_dist(x, y) <= self.eps {
                            self.join_pair(x, y);
                        } else {
                            self.out.stats.pairs_pruned += 1;
                        }
                    }
                }
            }
        }
    }

    fn emit_link(&mut self, l: RecordId, pl: &Point<D>, r: RecordId, pr: &Point<D>) {
        let g = match self.mode {
            SpatialMode::CompactWindowed(g) => g,
            _ => 0,
        };
        if g > 0 {
            for group in self.window.iter_mut().rev() {
                self.out.stats.merge_attempts += 1;
                if group.try_merge(l, pl, r, pr, self.eps, self.metric) {
                    self.out.stats.merges_succeeded += 1;
                    return;
                }
            }
            let group = OpenCrossGroup {
                left: vec![l],
                left_seen: HashSet::from([l]),
                right: vec![r],
                right_seen: HashSet::from([r]),
                mbr: Mbr::from_corners(pl, pr),
            };
            self.push_group(group, g);
        } else {
            self.out.stats.links_emitted += 1;
            self.out.items.push(SpatialItem::Link(l, r));
        }
    }

    /// Emits a node-pair group; in windowed mode it enters the window
    /// (seeded with the covering node shapes) so later links can merge in.
    fn emit_group(&mut self, left: Vec<RecordId>, right: Vec<RecordId>, mbr: Mbr<D>) {
        if left.is_empty() || right.is_empty() {
            return;
        }
        if let SpatialMode::CompactWindowed(g) = self.mode {
            if g > 0 {
                let left_seen: HashSet<RecordId> = left.iter().copied().collect();
                let right_seen: HashSet<RecordId> = right.iter().copied().collect();
                let group = OpenCrossGroup { left, left_seen, right, right_seen, mbr };
                self.push_group(group, g);
                return;
            }
        }
        self.finalize_group(left, right);
    }

    fn push_group(&mut self, group: OpenCrossGroup<D>, g: usize) {
        self.window.push_back(group);
        if self.window.len() > g {
            // csj-lint: allow(panic-safety) — len > g ≥ 0 guarantees the
            // window is non-empty when eviction triggers.
            let evicted = self.window.pop_front().expect("non-empty window");
            self.finalize_group(evicted.left, evicted.right);
        }
    }

    fn finalize_group(&mut self, left: Vec<RecordId>, right: Vec<RecordId>) {
        self.out.stats.groups_emitted += 1;
        self.out.stats.group_members_emitted += (left.len() + right.len()) as u64;
        self.out.items.push(SpatialItem::Group { left, right });
    }

    fn flush_window(&mut self) {
        while let Some(g) = self.window.pop_front() {
            self.finalize_group(g.left, g.right);
        }
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
    fn all_modes_lossless() {
        let (lp, rp) = (left_points(150), right_points(170));
        let lt = RStarTree::from_points(&lp, RTreeConfig::with_max_fanout(6));
        let rt = RStarTree::from_points(&rp, RTreeConfig::with_max_fanout(6));
        for eps in [0.01, 0.05, 0.2] {
            let want = brute_force_cross_links(&lp, &rp, eps, Metric::Euclidean);
            for mode in
                [SpatialMode::Standard, SpatialMode::Compact, SpatialMode::CompactWindowed(10)]
            {
                let out = SpatialJoin::new(eps, mode).run(&lt, &rt);
                assert_eq!(out.expanded_link_set(), want, "eps={eps} mode={mode:?}");
            }
        }
    }

    #[test]
    fn compact_output_no_larger() {
        let (lp, rp) = (left_points(250), right_points(250));
        let lt = RStarTree::from_points(&lp, RTreeConfig::with_max_fanout(8));
        let rt = RStarTree::from_points(&rp, RTreeConfig::with_max_fanout(8));
        let eps = 0.08;
        let std_out = SpatialJoin::new(eps, SpatialMode::Standard).run(&lt, &rt);
        let cmp_out = SpatialJoin::new(eps, SpatialMode::Compact).run(&lt, &rt);
        let win_out = SpatialJoin::new(eps, SpatialMode::CompactWindowed(10)).run(&lt, &rt);
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
        let out = SpatialJoin::new(0.2, SpatialMode::CompactWindowed(5)).run(&lt, &rt);
        assert!(out.items.is_empty());
    }

    #[test]
    fn empty_tree_sides() {
        let lp = vec![Point::new([0.0, 0.0])];
        let lt = RStarTree::from_points(&lp, RTreeConfig::with_max_fanout(4));
        let empty = RStarTree::<2>::new(RTreeConfig::default());
        let out = SpatialJoin::new(1.0, SpatialMode::Standard).run(&lt, &empty);
        assert!(out.items.is_empty());
        let out = SpatialJoin::new(1.0, SpatialMode::Standard).run(&empty, &lt);
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
        let out = SpatialJoin::new(eps, SpatialMode::CompactWindowed(10)).run(&lt, &rt);
        assert_eq!(out.expanded_link_set(), want);
    }

    #[test]
    fn identical_datasets_include_self_pairs() {
        // Unlike the self-join, the cross join of a dataset with itself
        // reports (i, i) pairs — distance zero qualifies.
        let lp = left_points(20);
        let lt = RStarTree::from_points(&lp, RTreeConfig::with_max_fanout(4));
        let out = SpatialJoin::new(0.001, SpatialMode::Standard).run(&lt, &lt);
        let set = out.expanded_link_set();
        for i in 0..20u32 {
            assert!(set.contains(&(i, i)), "self pair ({i},{i})");
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
        let out = SpatialJoin::new(eps, SpatialMode::CompactWindowed(10)).run(&lt, &rt);
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

        /// The spatial join is lossless in every mode on arbitrary data.
        #[test]
        fn spatial_join_lossless(
            lp in prop::collection::vec(prop::array::uniform2(0.0f64..1.0), 0..80),
            rp in prop::collection::vec(prop::array::uniform2(0.0f64..1.0), 0..80),
            eps in 0.0f64..0.5,
            mode in 0usize..3,
        ) {
            let lp: Vec<Point<2>> = lp.into_iter().map(Point::new).collect();
            let rp: Vec<Point<2>> = rp.into_iter().map(Point::new).collect();
            let lt = RStarTree::from_points(&lp, RTreeConfig::with_max_fanout(5));
            let rt = RStarTree::from_points(&rp, RTreeConfig::with_max_fanout(5));
            let mode = match mode {
                0 => SpatialMode::Standard,
                1 => SpatialMode::Compact,
                _ => SpatialMode::CompactWindowed(7),
            };
            let out = SpatialJoin::new(eps, mode).run(&lt, &rt);
            prop_assert_eq!(
                out.expanded_link_set(),
                brute_force_cross_links(&lp, &rp, eps, Metric::Euclidean)
            );
        }
    }
}
