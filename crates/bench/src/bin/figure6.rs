//! Figure 6 / Experiment 1b: CSJ(g) runtime and output size as a
//! function of the window size g, on MG County.
//!
//! The paper's finding: ~20% output reduction by g ≈ 10 with negligible
//! time cost; no further savings beyond.

use csj_bench::args::CommonArgs;
use csj_bench::datasets::{DatasetPoints, PaperDataset};
use csj_bench::harness::{measure, print_header, print_row};
use csj_core::ParallelAlgo;
use csj_index::{rstar::RStarTree, RTreeConfig};
use csj_storage::{CountingSink, OutputWriter};

/// The paper evaluates g ∈ {1, 2, 3, 4, 5, 10, 20, 50, 100}.
const WINDOWS: [usize; 9] = [1, 2, 3, 4, 5, 10, 20, 50, 100];

fn main() {
    let args = CommonArgs::parse();
    let ds = PaperDataset::MgCounty;
    let n = args.scaled(ds.paper_size());
    let DatasetPoints::D2(pts) = ds.generate(n) else { unreachable!("MG County is 2-D") };
    let width = OutputWriter::<CountingSink>::id_width_for(n);
    let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::default());

    // Figure 8 (same dataset) uses ε = 0.1; Figure 6's sweep is at a
    // comparable moderately large range where merging matters.
    let eps = 0.1;
    print_header(&["g"]);
    for g in WINDOWS {
        let m = measure(&tree, ParallelAlgo::Csj(g), eps, args.iters, width, args.ssj_budget);
        print_row(ds.name(), n, &m, &[g.to_string()]);
    }
}
