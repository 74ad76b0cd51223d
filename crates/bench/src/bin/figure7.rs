//! Figure 7 / Experiment 2: scalability in the number of data points.
//!
//! Sierpinski3D draws of increasing size, fixed ε = 0.125. SSJ's output
//! (and time) grows quadratically — the output explosion — while N-CSJ
//! and CSJ(10) stay near-linear.

use csj_bench::args::CommonArgs;
use csj_bench::harness::{measure, print_header, print_row};
use csj_core::ParallelAlgo;
use csj_data::sierpinski;
use csj_index::{rstar::RStarTree, RTreeConfig};
use csj_storage::{CountingSink, OutputWriter};

/// The paper sweeps up to 5·10⁵ points.
const SIZES: [usize; 6] = [10_000, 25_000, 50_000, 100_000, 250_000, 500_000];
const EPS: f64 = 0.125;

fn main() {
    let args = CommonArgs::parse();
    print_header(&[]);
    for paper_n in SIZES {
        let n = args.scaled(paper_n);
        let pts = sierpinski::pyramid_3d(n, 0x53);
        let width = OutputWriter::<CountingSink>::id_width_for(n);
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::default());
        for algo in [ParallelAlgo::Ssj, ParallelAlgo::Ncsj, ParallelAlgo::Csj(10)] {
            let m = measure(&tree, algo, EPS, args.iters, width, args.ssj_budget);
            print_row("Sierpinski3D", n, &m, &[]);
        }
    }
}
