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
use csj_core::brute::parse_cross_links;
use csj_core::parallel::ParallelAlgo;
use csj_core::spatial::SpatialJoin;
use csj_data::roads::{road_network, RoadConfig};
use csj_index::mtree::{MTree, MTreeConfig};
use csj_storage::{OutputWriter, VecSink};

/// Runs `algo` on `left ⋈ right` into memory: the rows written, their
/// bytes, and the cross links they imply.
fn run(
    algo: ParallelAlgo,
    eps: f64,
    left: &impl JoinIndex<2>,
    right: &impl JoinIndex<2>,
) -> (u64, u64, std::collections::BTreeSet<(u32, u32)>) {
    let mut writer = OutputWriter::new(VecSink::new(), 5);
    let report = SpatialJoin::new(eps, algo)
        .run_streaming(left, right, &mut writer)
        .expect("an in-memory sink cannot fail");
    let links = parse_cross_links(writer.sink().as_str()).expect("well-formed rows");
    (report.stats.links_emitted + report.stats.groups_emitted, writer.bytes_written(), links)
}

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
    let (std_rows, std_bytes, std_links) = run(ParallelAlgo::Ssj, eps, &left, &right);
    let (csj_rows, csj_bytes, csj_links) = run(ParallelAlgo::Csj(10), eps, &left, &right);

    println!("cross links: {}", std_links.len());
    println!("standard: {std_rows:>8} rows {std_bytes:>12} bytes");
    println!(
        "compact : {csj_rows:>8} rows {csj_bytes:>12} bytes ({:.1}x smaller)",
        std_bytes as f64 / csj_bytes as f64
    );
    assert_eq!(std_links, csj_links);
    println!("compact spatial join is lossless ✓");

    // The trait-based design joins across index *types* too: R*-tree on
    // the left, metric tree on the right.
    let right_mtree = MTree::from_points(&right_pts, MTreeConfig::default());
    let (_, _, mixed_links) = run(ParallelAlgo::Csj(10), eps, &left, &right_mtree);
    assert_eq!(mixed_links, std_links);
    println!("R*-tree ⋈ M-tree join agrees ✓");
}
