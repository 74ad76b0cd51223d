//! Quickstart: run a standard and a compact similarity join on the same
//! data, verify they carry the same information, and compare sizes.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use compact_similarity_joins::prelude::*;
use csj_core::verify::verify_lossless;

fn main() {
    // 20,000 points on a 2-D Sierpinski triangle: fractal data with very
    // uneven local density — exactly where the output explosion bites.
    let points = csj_data::sierpinski::triangle_2d(20_000, 42);

    // Index them (bulk-loaded R*-tree, the paper's default structure).
    let tree = RStarTree::bulk_load_str(&points, RTreeConfig::default());

    let eps = 0.05;
    let width = 5; // 5-digit zero-padded ids in the output format

    // One runner, three algorithms: N-CSJ adds the early-stop rule to
    // SSJ, CSJ(g) adds a window of the g most recent groups.
    let join = |algo| ResilientJoin::new(eps, algo).run(&tree).expect("in-memory join");
    let ssj = join(ParallelAlgo::Ssj);
    let ncsj = join(ParallelAlgo::Ncsj);
    let csj = join(ParallelAlgo::Csj(10));

    println!("epsilon = {eps}, n = {}", points.len());
    println!("SSJ     : {:>9} rows  {:>12} bytes", ssj.items.len(), ssj.total_bytes(width));
    println!(
        "N-CSJ   : {:>9} rows  {:>12} bytes ({:.1}x smaller)",
        ncsj.items.len(),
        ncsj.total_bytes(width),
        ssj.total_bytes(width) as f64 / ncsj.total_bytes(width) as f64
    );
    println!(
        "CSJ(10) : {:>9} rows  {:>12} bytes ({:.1}x smaller)",
        csj.items.len(),
        csj.total_bytes(width),
        ssj.total_bytes(width) as f64 / csj.total_bytes(width) as f64
    );

    // The compact output is provably lossless (Theorems 1 & 2); check it.
    let report = verify_lossless(&csj, &points, eps, Metric::Euclidean)
        .expect("CSJ output must be lossless");
    println!(
        "verified: {} true links represented exactly, {} groups checked",
        report.true_links, report.groups_checked
    );

    // And it really is the same link set.
    assert_eq!(csj.expanded_link_set(), brute_force_links(&points, eps));
    assert_eq!(ncsj.expanded_link_set(), ssj.expanded_link_set());
    println!("all three algorithms report identical link sets ✓");
}
