//! Index independence (the paper's Experiment 4, as an API tour).
//!
//! The join algorithms only require that node-pair distance bounds are
//! computable — so the same `ResilientJoin` value runs on a Guttman R-tree, an
//! R*-tree (dynamic or bulk-loaded three ways) and an M-tree, and always
//! represents the same link set.
//!
//! ```sh
//! cargo run --release --example tree_structures
//! ```

use compact_similarity_joins::prelude::*;
use csj_index::mtree::{MTree, MTreeConfig};
use csj_index::quadtree::{QuadTree, QuadTreeConfig};
use csj_index::SplitStrategy;

fn main() {
    let points = csj_data::roads::road_network(&csj_data::roads::RoadConfig {
        n_points: 8_000,
        cores: 3,
        core_sigma: 0.07,
        rural_fraction: 0.3,
        grid_snap_prob: 0.8,
        step: 0.003,
        mean_road_len: 0.05,
        seed: 99,
    });
    let eps = 0.02;
    let join = ResilientJoin::new(eps, ParallelAlgo::Csj(10));
    let truth = brute_force_links(&points, eps);
    let width = 4;

    println!("{} points, eps = {eps}, {} true links", points.len(), truth.len());
    println!("{:<22} {:>8} {:>12}", "index", "rows", "bytes");

    let cfg = RTreeConfig::default();

    let tree = RTree::from_points(&points, cfg.with_split(SplitStrategy::Linear));
    report("R-tree (linear)", &join, &tree, &truth, width);

    let tree = RTree::from_points(&points, cfg.with_split(SplitStrategy::Quadratic));
    report("R-tree (quadratic)", &join, &tree, &truth, width);

    let tree = RStarTree::from_points(&points, cfg);
    report("R*-tree (dynamic)", &join, &tree, &truth, width);

    let tree = RStarTree::bulk_load_str(&points, cfg);
    report("R*-tree (STR)", &join, &tree, &truth, width);

    let tree = RStarTree::bulk_load_hilbert(&points, cfg);
    report("R*-tree (Hilbert)", &join, &tree, &truth, width);

    let tree = RStarTree::bulk_load_omt(&points, cfg);
    report("R*-tree (OMT)", &join, &tree, &truth, width);

    let tree = MTree::from_points(&points, MTreeConfig::default());
    report("M-tree", &join, &tree, &truth, width);

    let tree = QuadTree::build(&points, QuadTreeConfig::default());
    report("PR-quadtree", &join, &tree, &truth, width);

    println!("every index produced the same link set ✓");
}

fn report<T: JoinIndex<2>>(
    name: &str,
    join: &ResilientJoin,
    tree: &T,
    truth: &std::collections::BTreeSet<(u32, u32)>,
    width: usize,
) {
    let out = join.run(tree).expect("in-memory join");
    assert_eq!(&out.expanded_link_set(), truth, "{name} lost information");
    println!("{:<22} {:>8} {:>12}", name, out.items.len(), out.total_bytes(width));
}
