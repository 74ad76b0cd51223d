//! Outlier mining via small groups (§I / §IV-D of the paper).
//!
//! Scenario from the paper's introduction: correlating trades / objects
//! to find the *unusual pairs*. The compact join's small groups are a
//! pre-sort for this — big groups are the bulk, small groups and isolated
//! records are the anomalies.
//!
//! ```sh
//! cargo run --release --example outlier_detection
//! ```

use compact_similarity_joins::prelude::*;
use csj_core::outlier::{small_rows, CohesionScores};
use csj_geom::Point;

fn main() {
    // A synthetic "catalog": three dense populations plus a handful of
    // planted anomalies — an isolated close pair (think: two galaxies
    // unusually near each other, far from any cluster) and a loner.
    let mut points = csj_data::clusters::gaussian_mixture::<2>(
        30_000,
        csj_data::clusters::ClusterConfig { clusters: 3, sigma: 0.03 },
        7,
    );
    let planted_pair = (points.len() as u32, points.len() as u32 + 1);
    points.push(Point::new([0.95, 0.05]));
    points.push(Point::new([0.951, 0.052]));
    let loner = points.len() as u32;
    points.push(Point::new([0.05, 0.95]));

    let eps = 0.02;
    let tree = RStarTree::bulk_load_str(&points, RTreeConfig::default());
    let output = ResilientJoin::new(eps, ParallelAlgo::Csj(10)).run(&tree).expect("in-memory join");

    println!(
        "join produced {} rows ({} groups); largest groups: {:?}",
        output.items.len(),
        output.num_groups(),
        &output.group_sizes()[..output.group_sizes().len().min(5)]
    );

    // 1. Rows of size <= 2: candidate unusual pairs.
    let suspicious = small_rows(&output, 2);
    println!("{} rows of size <= 2 (candidate unusual pairs)", suspicious.len());

    // 2. Cohesion scores: the isolated pair and the loner must rank at
    // the bottom.
    let scores = CohesionScores::from_output(&output);
    let outliers = scores.outliers(points.len(), 2);
    println!("lowest-cohesion records (id, score): {:?}", &outliers[..outliers.len().min(8)]);

    let flagged: Vec<u32> = outliers.iter().map(|&(id, _)| id).collect();
    assert!(flagged.contains(&loner), "the loner must be flagged");
    assert!(
        flagged.contains(&planted_pair.0) && flagged.contains(&planted_pair.1),
        "the planted pair must be flagged"
    );
    println!(
        "planted anomalies recovered: pair ({}, {}) and loner {} ✓",
        planted_pair.0, planted_pair.1, loner
    );
}
