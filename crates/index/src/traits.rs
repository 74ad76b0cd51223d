//! The index contract the join algorithms are written against.
//!
//! §IV of the paper: *"We only assume that the minimum and maximum distance
//! (similarity) between any two nodes in the tree data structure can be
//! calculated efficiently."* [`JoinIndex`] is that assumption as a trait,
//! plus the structural access (children, leaf entries) any recursive tree
//! join needs. `csj-core` implements SSJ / N-CSJ / CSJ(g) once, generically
//! over this trait; Experiment 4 (R-tree vs R*-tree vs M-tree) is then just
//! three instantiations.

use crate::arena::NodeId;
use csj_geom::{Mbr, Metric, Point, RecordId, SoaView};

/// A data record stored in a leaf: its id plus coordinates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LeafEntry<const D: usize> {
    /// Record identifier, reported in join output.
    pub id: RecordId,
    /// Record coordinates.
    pub point: Point<D>,
}

impl<const D: usize> LeafEntry<D> {
    /// Convenience constructor.
    pub fn new(id: RecordId, point: Point<D>) -> Self {
        LeafEntry { id, point }
    }
}

/// A tree index usable by the similarity-join algorithms.
///
/// Requirements (all satisfied by R-trees, R*-trees and M-trees):
///
/// * every node has a bounding shape with computable diameter;
/// * for any two nodes, a lower bound on point distances
///   ([`JoinIndex::min_dist`]) and an upper bound
///   ([`JoinIndex::pair_diameter`]) are computable;
/// * parent shapes include child shapes (the inclusion property).
pub trait JoinIndex<const D: usize> {
    /// The root node, or `None` for an empty tree.
    fn root(&self) -> Option<NodeId>;

    /// `true` if `n` stores data records directly.
    fn is_leaf(&self, n: NodeId) -> bool;

    /// Child nodes of an internal node (empty slice for leaves).
    fn children(&self, n: NodeId) -> &[NodeId];

    /// Data records of a leaf (empty slice for internal nodes).
    fn leaf_entries(&self, n: NodeId) -> &[LeafEntry<D>];

    /// Coordinates of a leaf's records as one contiguous `f64` slab per
    /// dimension, in the same order as [`JoinIndex::leaf_entries`] (empty
    /// for internal nodes). This is the batched-distance-kernel view of a
    /// leaf: `leaf_soa(n).point(i) == leaf_entries(n)[i].point`. The
    /// struct-of-arrays layout makes kernel probes contiguous streaming
    /// loads instead of strided gathers over `Point` records.
    fn leaf_soa(&self, n: NodeId) -> SoaView<'_, D>;

    /// A rectangle covering the node's bounding shape. For rectangle trees
    /// this is the node MBR itself; for the M-tree, the box circumscribing
    /// the covering ball. Used to seed group shapes.
    fn node_mbr(&self, n: NodeId) -> Mbr<D>;

    /// Upper bound on the distance between any two points below `n`
    /// (the "maximum diameter of the bounding shape", line 2 of the
    /// paper's pseudo-code).
    fn max_diameter(&self, n: NodeId, metric: Metric) -> f64;

    /// Upper bound on the distance between any point below `a` and any
    /// point below `b`, *and* between points within each — i.e. the
    /// diameter of the union of the two shapes (line 20 of the
    /// pseudo-code: "maximum diameter of {n1, n2}").
    fn pair_diameter(&self, a: NodeId, b: NodeId, metric: Metric) -> f64;

    /// Lower bound on the distance between any point below `a` and any
    /// point below `b` (MINDIST; used to prune node pairs).
    fn min_dist(&self, a: NodeId, b: NodeId, metric: Metric) -> f64;

    /// Total number of data records in the tree.
    fn num_records(&self) -> usize;

    /// Height of the tree: 1 for a single leaf root, 0 when empty.
    fn height(&self) -> usize;

    /// Appends every record id stored in the subtree under `n` to `out`.
    ///
    /// Used by the early-stopping rule to emit a whole subtree as one
    /// group. The default implementation walks the subtree depth first,
    /// last child first (the order of a stack walk), recursing rather
    /// than allocating a stack: the depth is the tree height.
    fn collect_record_ids(&self, n: NodeId, out: &mut Vec<RecordId>) {
        if self.is_leaf(n) {
            out.extend(self.leaf_entries(n).iter().map(|e| e.id));
        } else {
            for &c in self.children(n).iter().rev() {
                self.collect_record_ids(c, out);
            }
        }
    }

    /// Appends every `(id, point)` pair in the subtree under `n` to `out`,
    /// in [`JoinIndex::collect_record_ids`] order.
    fn collect_entries(&self, n: NodeId, out: &mut Vec<LeafEntry<D>>) {
        if self.is_leaf(n) {
            out.extend_from_slice(self.leaf_entries(n));
        } else {
            for &c in self.children(n).iter().rev() {
                self.collect_entries(c, out);
            }
        }
    }

    /// Number of nodes in the subtree under `n` (including `n`).
    fn subtree_node_count(&self, n: NodeId) -> usize {
        let mut count = 0;
        let mut stack = vec![n];
        while let Some(cur) = stack.pop() {
            count += 1;
            stack.extend_from_slice(self.children(cur));
        }
        count
    }
}
