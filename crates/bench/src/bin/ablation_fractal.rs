//! The paper's stated future-work question (§VIII): response time and
//! output as a function of the query range ε *and* of the intrinsic
//! ("fractal") dimensionality of the data.
//!
//! For datasets of known intrinsic dimension — a line (1), the Sierpinski
//! triangle (log₂3 ≈ 1.585), uniform 2-D (2), the Sierpinski pyramid (2,
//! embedded in 3-D) and uniform 3-D (3) — this binary:
//!
//! 1. estimates D0 (box counting) and D2 (correlation dimension);
//! 2. sweeps ε and fits the power-law exponent of the SSJ output
//!    (`ln links` vs `ln ε`), which theory says should equal D2;
//! 3. reports CSJ(10)'s cost alongside, showing the compact join's
//!    response curve is much flatter than SSJ's.

use csj_bench::args::CommonArgs;
use csj_bench::harness::measure;
use csj_core::{ParallelAlgo, ResilientJoin};
use csj_data::fractal::{box_counting_dimension, correlation_dimension, lsq_slope};
use csj_data::{sierpinski, uniform::uniform};
use csj_geom::Point;
use csj_index::{rstar::RStarTree, JoinIndex, RTreeConfig};
use csj_storage::{CountingSink, OutputWriter};

fn main() {
    let args = CommonArgs::parse();
    let n = args.scaled(30_000);

    println!("dataset\tembed_dim\ttheory_dim\tD0_boxcount\tD2_correlation\tssj_output_exponent\tcsj_time_ratio_eps_x8");
    let line: Vec<Point<2>> = (0..n).map(|i| Point::new([i as f64 / n as f64, 0.5])).collect();
    run("line", 2, 1.0, &line, &args);
    run("sierpinski-triangle", 2, 1.585, &sierpinski::triangle_2d(n, 7), &args);
    run("uniform-2d", 2, 2.0, &uniform::<2>(n, 7), &args);
    run3("sierpinski-pyramid", 3, 2.0, &sierpinski::pyramid_3d(n, 7), &args);
    run3("uniform-3d", 3, 3.0, &uniform::<3>(n, 7), &args);
}

fn radii() -> Vec<f64> {
    vec![0.01, 0.02, 0.04, 0.08]
}

fn eps_sweep() -> Vec<f64> {
    (0..5).map(|i| 0.01 * 2f64.powi(i)).collect() // 0.01 .. 0.16
}

fn run(name: &str, embed: usize, theory: f64, pts: &[Point<2>], args: &CommonArgs) {
    let d0 = box_counting_dimension(pts, &[2, 3, 4, 5]);
    let d2 = correlation_dimension(pts, &radii());
    let tree = RStarTree::bulk_load_str(pts, RTreeConfig::default());
    report(name, embed, theory, d0, d2, &tree, args);
}

fn run3(name: &str, embed: usize, theory: f64, pts: &[Point<3>], args: &CommonArgs) {
    let d0 = box_counting_dimension(pts, &[2, 3, 4]);
    let d2 = correlation_dimension(pts, &radii());
    let tree = RStarTree::bulk_load_str(pts, RTreeConfig::default());
    report(name, embed, theory, d0, d2, &tree, args);
}

fn report<T: JoinIndex<D>, const D: usize>(
    name: &str,
    embed: usize,
    theory: f64,
    d0: f64,
    d2: f64,
    tree: &T,
    args: &CommonArgs,
) {
    let width = OutputWriter::<CountingSink>::id_width_for(tree.num_records());
    // SSJ output vs eps: fit ln(links) = D2 * ln(eps) + c.
    let mut ln_eps = Vec::new();
    let mut ln_links = Vec::new();
    for eps in eps_sweep() {
        let m = measure(tree, ParallelAlgo::Ssj, eps, 1, width, args.ssj_budget);
        if m.links > 0.0 {
            ln_eps.push(eps.ln());
            ln_links.push(m.links.ln());
        }
    }
    let exponent = lsq_slope(&ln_eps, &ln_links);

    // CSJ response flatness: time at eps * 8 over time at eps.
    let t_lo = time_csj(tree, 0.02, args);
    let t_hi = time_csj(tree, 0.16, args);
    let ratio = t_hi / t_lo.max(1e-9);

    println!("{name}\t{embed}\t{theory:.3}\t{d0:.3}\t{d2:.3}\t{exponent:.3}\t{ratio:.2}");
}

fn time_csj<T: JoinIndex<D>, const D: usize>(tree: &T, eps: f64, args: &CommonArgs) -> f64 {
    csj_bench::harness::median_time_ms(args.iters, || {
        let mut w = OutputWriter::new(CountingSink::new(), 5);
        let _ = ResilientJoin::new(eps, ParallelAlgo::Csj(10)).run_streaming(tree, &mut w);
    })
}
