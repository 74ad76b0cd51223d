//! Spatial index substrate for compact similarity joins.
//!
//! The paper (§IV) requires exactly one thing of the underlying index: that
//! the minimum and maximum distance between any two nodes can be computed
//! efficiently — i.e. each node carries a bounding shape, and parent shapes
//! include child shapes (the *inclusion property*, §VII). This crate
//! provides three such indexes, built from scratch:
//!
//! * [`rtree::RTree`] — Guttman's original R-tree with linear or quadratic
//!   node splitting.
//! * [`rstar::RStarTree`] — the R*-tree of Beckmann et al. (ChooseSubtree,
//!   margin-driven split, forced reinsertion). The paper's default index.
//! * [`mtree::MTree`] — the M-tree of Ciaccia et al.: ball-shaped nodes
//!   valid in any metric space.
//! * [`quadtree::QuadTree`] — a bucket PR-quadtree/octree (bonus fourth
//!   structure: unbalanced and space-partitioned, stressing the paper's
//!   index-independence claim further).
//!
//! plus three bulk-loading algorithms ([`bulk`]) — STR, Hilbert-sort and
//! OMT — which the paper's discussion section cites for the "no index yet"
//! case, and which we use to build the 1.5M-point Pacific NW tree quickly.
//!
//! All join algorithms in `csj-core` are written once against the
//! [`JoinIndex`] trait and run unchanged on every tree here; that is how
//! the paper's Experiment 4 (index independence) is reproduced.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod arena;
pub mod bulk;
pub mod mtree;
pub mod paged;
pub mod persist;
pub mod quadtree;
pub mod rect;
pub mod rstar;
pub mod rtree;
pub mod stats;
pub mod store;
pub mod traits;
pub mod validate;

pub use arena::NodeId;
pub use paged::{
    NodeGuard, PagedMeta, PagedNode, PagedStats, PagedStore, PagedTree, PrefetchStats,
};
pub use rstar::RStarTree;
pub use rtree::RTree;
pub use store::LeafStore;
pub use traits::{JoinIndex, LeafEntry};

/// Configuration shared by the rectangle trees ([`RTree`], [`RStarTree`]).
#[derive(Clone, Copy, Debug)]
pub struct RTreeConfig {
    /// Maximum entries per node (`M`). The paper notes R-trees typically
    /// use 50–100; we default to 50.
    pub max_fanout: usize,
    /// Minimum entries per non-root node (`m`). Default `M * 2 / 5` (40%),
    /// the R*-tree paper's recommendation.
    pub min_fanout: usize,
    /// Node-splitting strategy for the Guttman R-tree. Ignored by the
    /// R*-tree, which always uses its margin-driven split.
    pub split: SplitStrategy,
    /// Fraction of entries force-reinserted on first overflow per level
    /// (R*-tree only). The R*-tree paper recommends 30%.
    pub reinsert_fraction: f64,
}

impl Default for RTreeConfig {
    fn default() -> Self {
        RTreeConfig {
            max_fanout: 50,
            min_fanout: 20,
            split: SplitStrategy::Quadratic,
            reinsert_fraction: 0.3,
        }
    }
}

impl RTreeConfig {
    /// Config with the given maximum fanout and a 40% minimum.
    pub fn with_max_fanout(max_fanout: usize) -> Self {
        assert!(max_fanout >= 4, "max fanout must be at least 4");
        RTreeConfig { max_fanout, min_fanout: (max_fanout * 2 / 5).max(2), ..Default::default() }
    }

    /// Replaces the split strategy.
    pub fn with_split(mut self, split: SplitStrategy) -> Self {
        self.split = split;
        self
    }

    /// Panics unless `2 <= min <= max/2` and `max >= 4`.
    pub fn validate(&self) {
        assert!(self.max_fanout >= 4, "max fanout must be at least 4");
        assert!(
            self.min_fanout >= 2 && self.min_fanout <= self.max_fanout / 2,
            "min fanout must be in [2, max/2]"
        );
        assert!(
            (0.0..0.5).contains(&self.reinsert_fraction),
            "reinsert fraction must be in [0, 0.5)"
        );
    }
}

/// Guttman node-split strategies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplitStrategy {
    /// Linear-cost split: pick the pair of seeds with maximal normalized
    /// separation, assign the rest greedily.
    Linear,
    /// Quadratic-cost split: pick the pair of seeds wasting the most area,
    /// assign remaining entries by maximal preference difference.
    Quadratic,
}
