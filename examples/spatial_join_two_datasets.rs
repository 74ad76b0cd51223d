//! Spatial join of two datasets (§IV-D "Algorithm Extensions").
//!
//! Joins two different road networks — e.g. "which road endpoints of
//! network A are within ε of network B?" — using the dual-tree variants,
//! including across *different* index types (R*-tree vs M-tree).
//!
//! ```sh
//! cargo run --release --example spatial_join_two_datasets
//! ```

use compact_similarity_joins::prelude::*;
use csj_core::parallel::ParallelAlgo;
use csj_core::spatial::SpatialJoin;
use csj_data::roads::{road_network, RoadConfig};
use csj_index::mtree::{MTree, MTreeConfig};

fn main() {
    let make = |seed: u64| {
        road_network(&RoadConfig {
            n_points: 10_000,
            cores: 3,
            core_sigma: 0.07,
            rural_fraction: 0.3,
            grid_snap_prob: 0.8,
            step: 0.003,
            mean_road_len: 0.05,
            seed,
        })
    };
    let left_pts = make(1);
    let right_pts = make(2);

    let left = RStarTree::bulk_load_str(&left_pts, RTreeConfig::default());
    let right = RStarTree::bulk_load_str(&right_pts, RTreeConfig::default());

    let eps = 0.01;
    let width = 5;

    let standard = SpatialJoin::new(eps, ParallelAlgo::Ssj).run(&left, &right);
    let compact = SpatialJoin::new(eps, ParallelAlgo::Csj(10)).run(&left, &right);

    println!("cross links: {}", standard.expanded_link_set().len());
    println!(
        "standard: {:>8} rows {:>12} bytes",
        standard.items.len(),
        standard.total_bytes(width)
    );
    println!(
        "compact : {:>8} rows {:>12} bytes ({:.1}x smaller)",
        compact.items.len(),
        compact.total_bytes(width),
        standard.total_bytes(width) as f64 / compact.total_bytes(width) as f64
    );
    assert_eq!(standard.expanded_link_set(), compact.expanded_link_set());
    println!("compact spatial join is lossless ✓");

    // The trait-based design joins across index *types* too: R*-tree on
    // the left, metric tree on the right.
    let right_mtree = MTree::from_points(&right_pts, MTreeConfig::default());
    let mixed = SpatialJoin::new(eps, ParallelAlgo::Csj(10)).run(&left, &right_mtree);
    assert_eq!(mixed.expanded_link_set(), standard.expanded_link_set());
    println!("R*-tree ⋈ M-tree join agrees ✓");
}
