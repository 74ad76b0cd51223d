//! Compact similarity joins — the primary contribution of
//! *"Compact Similarity Joins"* (Bryan, Eberhardt, Faloutsos, ICDE 2008).
//!
//! A similarity self-join with range `ε` reports every pair of records at
//! distance `≤ ε`. In locally dense data the result explodes to `O(k²)`
//! links per dense region (*output explosion*). This crate implements the
//! paper's lossless fix — report *groups* of mutually-qualifying points —
//! plus everything needed to evaluate it:
//!
//! | module | contents |
//! |---|---|
//! | [`engine`] | the one Figure-3 recursion, over any node source |
//! | [`parallel`] | [`ParallelAlgo`] (SSJ, N-CSJ, CSJ(g)) and the work-stealing runner |
//! | [`resilient`] | the sequential runner: budgets, cancel, SSJ estimates |
//! | [`spatial`] | dual-tree (two-dataset) variants of all three, on the engine |
//! | [`egrid`] | ε-grid-order join (index-free) + its compact extension |
//! | [`brute`] | `O(n²)` reference join |
//! | [`verify`] | machine checks of the paper's Theorems 1 & 2 |
//! | [`outlier`] | small-group outlier mining (§I application) |
//! | [`outofcore`] | joins over page-resident trees through a buffer pool (Exp. 3) |
//! | [`group`] | group shapes (MBR per the paper; ball as §V-A ablation) |
//! | [`output`] | join output, expansion, byte accounting |
//! | [`stats`] | operation counters and access logs |
//!
//! The three self-joins are one runner with a switch: [`ResilientJoin`]
//! (sequential) or [`parallel::ParallelJoin`] (work-stealing) running a
//! [`ParallelAlgo`]. The joins are generic over [`csj_index::JoinIndex`],
//! so they run unchanged on the R-tree, R*-tree and M-tree (the paper's
//! Experiment 4).
//!
//! # Example
//!
//! ```
//! use csj_core::{brute::brute_force_links, ParallelAlgo, ResilientJoin};
//! use csj_geom::Point;
//! use csj_index::{rstar::RStarTree, RTreeConfig};
//!
//! let pts: Vec<Point<2>> = (0..500)
//!     .map(|i| Point::new([(i % 25) as f64 / 25.0, (i / 25) as f64 / 20.0]))
//!     .collect();
//! let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(10));
//!
//! let eps = 0.1;
//! let compact = ResilientJoin::new(eps, ParallelAlgo::Csj(10)).run(&tree).expect("in memory");
//! let standard = ResilientJoin::new(eps, ParallelAlgo::Ssj).run(&tree).expect("in memory");
//!
//! // Lossless (Theorems 1 & 2) …
//! assert_eq!(compact.expanded_link_set(), brute_force_links(&pts, eps));
//! // … and no larger than the standard output.
//! assert!(compact.total_bytes(4) <= standard.total_bytes(4));
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod brute;
pub mod budget;
pub mod egrid;
pub mod engine;
pub mod error;
pub mod group;
pub mod outlier;
pub mod outofcore;
pub mod output;
pub mod parallel;
pub mod resilient;
pub mod spatial;
pub mod stats;
pub mod sync;
pub mod verify;

pub use budget::{BudgetUsage, CancelToken, Completion, RunBudget, StopReason};
pub use error::{CsjError, ShardError};
pub use group::GroupShapeKind;
pub use output::{JoinOutput, OutputItem, Rows};
pub use parallel::ParallelAlgo;
pub use resilient::ResilientJoin;
pub use stats::JoinStats;

use csj_geom::Metric;

/// Parameters shared by every join algorithm in this crate.
#[derive(Clone, Copy, Debug)]
pub struct JoinConfig {
    /// The query range ε: pairs at distance `<= epsilon` qualify.
    pub epsilon: f64,
    /// The metric distances are measured in (default Euclidean).
    pub metric: Metric,
    /// Record the sequence of visited node ids so Experiment 3 can replay
    /// it through a simulated buffer pool. Off by default (costs memory).
    pub record_access_log: bool,
    /// When emitting a subtree as a group, recompute the group MBR from
    /// the actual member points instead of using the node's bounding
    /// shape. The paper uses the node shape (`false`); tightening is an
    /// ablation knob that can admit more subsequent merges.
    pub tighten_group_mbr: bool,
    /// The bounding shape of CSJ(g)'s open groups: the paper's MBR
    /// (default) or the §V-A ball ablation. SSJ and N-CSJ ignore it.
    pub group_shape: GroupShapeKind,
    /// Order children / leaf entries along an axis and sweep, so node and
    /// point pairs separated by more than ε on that axis are skipped
    /// without a distance bound computation — the access-ordering
    /// optimization of Brinkhoff et al. the paper cites as \[1\]. Changes
    /// traversal order (and therefore CSJ's grouping), never the
    /// represented link set.
    pub plane_sweep: bool,
}

impl JoinConfig {
    /// Config with the given ε and defaults elsewhere.
    pub fn new(epsilon: f64) -> Self {
        assert!(epsilon >= 0.0 && epsilon.is_finite(), "epsilon must be finite and non-negative");
        JoinConfig {
            epsilon,
            metric: Metric::Euclidean,
            record_access_log: false,
            tighten_group_mbr: false,
            group_shape: GroupShapeKind::Mbr,
            plane_sweep: false,
        }
    }

    /// Enables the plane-sweep access ordering.
    pub fn with_plane_sweep(mut self) -> Self {
        self.plane_sweep = true;
        self
    }

    /// Replaces the metric.
    pub fn with_metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// Enables the node-access log.
    pub fn with_access_log(mut self) -> Self {
        self.record_access_log = true;
        self
    }

    /// Recomputes subtree-group MBRs from member points instead of
    /// reusing the node shape (§V-A ablation: tighter groups admit more
    /// merges at the cost of one extra subtree scan per early stop).
    pub fn with_tight_groups(mut self) -> Self {
        self.tighten_group_mbr = true;
        self
    }

    /// Selects CSJ(g)'s group bounding shape.
    pub fn with_group_shape(mut self, shape: GroupShapeKind) -> Self {
        self.group_shape = shape;
        self
    }
}
