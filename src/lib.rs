//! Umbrella crate for the Compact Similarity Joins reproduction.
//!
//! Re-exports the workspace crates so examples and downstream users can
//! depend on a single package:
//!
//! * [`geom`] — points, MBRs, metrics, bounding spheres.
//! * [`index`] — R-tree, R*-tree, M-tree, bulk loaders, the [`index::JoinIndex`] trait.
//! * [`storage`] — paged storage simulation, buffer pool, output writers.
//! * [`core`] — the paper's contribution: SSJ, N-CSJ, CSJ(g), spatial joins,
//!   ε-grid-order, verification, outlier mining.
//! * [`data`] — dataset generators (Sierpinski, roads, clusters, uniform).
//!
//! # Quickstart
//!
//! ```
//! use compact_similarity_joins::prelude::*;
//!
//! // 1000 points on a 2-D Sierpinski triangle.
//! let pts = csj_data::sierpinski::triangle_2d(1000, 42);
//! let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::default());
//!
//! // Compact similarity join with window g = 10 and range 0.125.
//! let out = ResilientJoin::new(0.125, ParallelAlgo::Csj(10)).run(&tree).expect("in memory");
//! // Lossless: expanding the groups gives exactly the brute-force link set.
//! let brute = brute_force_links(&pts, 0.125);
//! assert_eq!(out.expanded_link_set(), brute);
//! ```

pub use csj_core as core;
pub use csj_data as data;
pub use csj_geom as geom;
pub use csj_index as index;
pub use csj_storage as storage;

/// Convenient glob-import surface for examples and tests.
pub mod prelude {
    pub use csj_core::{brute::brute_force_links, JoinConfig, ParallelAlgo, ResilientJoin};
    pub use csj_data;
    pub use csj_geom::{Mbr, Metric, Point};
    pub use csj_index::{rstar::RStarTree, rtree::RTree, JoinIndex, RTreeConfig};
}
