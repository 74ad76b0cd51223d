//! Predicting the output explosion from intrinsic dimensionality — the
//! paper's §VIII future-work question, as an API tour.
//!
//! The correlation dimension D2 of the data determines how the join
//! output grows with ε (`links(ε) ∝ ε^D2`), so measuring D2 once tells
//! you *in advance* at which range a standard join will explode — and
//! therefore when you need the compact join.
//!
//! ```sh
//! cargo run --release --example fractal_scaling
//! ```

use compact_similarity_joins::prelude::*;
use csj_data::fractal::{box_counting_dimension, correlation_dimension, lsq_slope};

fn main() {
    let n = 15_000;
    let datasets: Vec<(&str, f64, Vec<Point<2>>)> = vec![
        ("line", 1.0, (0..n).map(|i| Point::new([i as f64 / n as f64, 0.5])).collect()),
        ("sierpinski", 1.585, csj_data::sierpinski::triangle_2d(n, 7)),
        ("uniform", 2.0, csj_data::uniform::uniform::<2>(n, 7)),
    ];

    println!("{:<12} {:>8} {:>8} {:>8} {:>10}", "dataset", "theory", "D0", "D2", "slope(SSJ)");
    for (name, theory, pts) in datasets {
        let d0 = box_counting_dimension(&pts, &[2, 3, 4, 5]);
        let d2 = correlation_dimension(&pts, &[0.01, 0.02, 0.04, 0.08]);

        // Measure the join output across an eps sweep and fit the
        // power-law exponent.
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::default());
        let mut ln_eps = Vec::new();
        let mut ln_links = Vec::new();
        for i in 0..5 {
            let eps = 0.01 * 2f64.powi(i);
            let links = ResilientJoin::new(eps, ParallelAlgo::Ssj)
                .run(&tree)
                .expect("in-memory join")
                .num_links();
            if links > 0 {
                ln_eps.push(eps.ln());
                ln_links.push((links as f64).ln());
            }
        }
        let slope = lsq_slope(&ln_eps, &ln_links);
        println!("{name:<12} {theory:>8.3} {d0:>8.3} {d2:>8.3} {slope:>10.3}");
        assert!(
            (slope - d2).abs() < 0.35,
            "{name}: output exponent {slope:.2} should track D2 {d2:.2}"
        );
    }
    println!("\nthe SSJ output exponent tracks the correlation dimension D2 ✓");
    println!("(lower intrinsic dimension ⇒ explosion starts at smaller ε)");
}
