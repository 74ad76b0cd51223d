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
//! | [`ssj`] | the standard tree join (the paper's SSJ baseline) |
//! | [`ncsj`] | N-CSJ: SSJ + the early-stopping group rule |
//! | [`csj`] | CSJ(g): N-CSJ + merge-into-`g`-recent-groups |
//! | [`spatial`] | dual-tree (two-dataset) variants of all three |
//! | [`egrid`] | ε-grid-order join (index-free) + its compact extension |
//! | [`brute`] | `O(n²)` reference join |
//! | [`verify`] | machine checks of the paper's Theorems 1 & 2 |
//! | [`outlier`] | small-group outlier mining (§I application) |
//! | [`estimate`] | budgeted SSJ runs with extrapolated estimates |
//! | [`parallel`] | multi-threaded task-parallel variants (extension) |
//! | [`paged`] | run any join through a live buffer pool (Exp. 3) |
//! | [`group`] | group shapes (MBR per the paper; ball as §V-A ablation) |
//! | [`output`] | join output, expansion, byte accounting |
//! | [`stats`] | operation counters and access logs |
//!
//! The joins are generic over [`csj_index::JoinIndex`], so they run
//! unchanged on the R-tree, R*-tree and M-tree (the paper's Experiment 4).
//!
//! # Example
//!
//! ```
//! use csj_core::{brute::brute_force_links, csj::CsjJoin, ssj::SsjJoin};
//! use csj_geom::Point;
//! use csj_index::{rstar::RStarTree, RTreeConfig};
//!
//! let pts: Vec<Point<2>> = (0..500)
//!     .map(|i| Point::new([(i % 25) as f64 / 25.0, (i / 25) as f64 / 20.0]))
//!     .collect();
//! let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(10));
//!
//! let eps = 0.1;
//! let compact = CsjJoin::new(eps).with_window(10).run(&tree);
//! let standard = SsjJoin::new(eps).run(&tree);
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
pub mod csj;
pub mod egrid;
pub mod engine;
pub mod error;
pub mod estimate;
pub mod group;
pub mod ncsj;
pub mod outlier;
pub mod outofcore;
pub mod output;
pub mod paged;
pub mod parallel;
pub mod resilient;
pub mod spatial;
pub mod ssj;
pub mod stats;
pub mod sync;
pub mod verify;

pub use budget::{BudgetUsage, CancelToken, Completion, RunBudget, StopReason};
pub use csj::CsjJoin;
pub use error::{CsjError, ShardError};
pub use ncsj::NcsjJoin;
pub use output::{JoinOutput, OutputItem};
pub use resilient::ResilientJoin;
pub use ssj::SsjJoin;
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
}
