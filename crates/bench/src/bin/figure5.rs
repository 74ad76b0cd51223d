//! Figure 5 / Experiment 1: runtime and output size vs query range for
//! SSJ, N-CSJ and CSJ(10), on all four datasets.
//!
//! One TSV row per (dataset, ε, algorithm). `estimated = yes` rows
//! correspond to the paper's filled markers (SSJ exceeded the budget).

use csj_bench::args::CommonArgs;
use csj_bench::datasets::{DatasetPoints, PaperDataset};
use csj_bench::harness::{measure, print_header, print_row};
use csj_core::ParallelAlgo;
use csj_index::{JoinIndex, RTreeConfig};
use csj_storage::{CountingSink, OutputWriter};

fn main() {
    let args = CommonArgs::parse();
    print_header(&[]);
    for ds in PaperDataset::ALL {
        let n = args.scaled(ds.paper_size());
        eprintln!("# generating {} (n = {n})", ds.name());
        let points = ds.generate(n);
        let width = OutputWriter::<CountingSink>::id_width_for(n);
        let config = RTreeConfig::default();
        match points {
            DatasetPoints::D2(pts) => {
                let tree = csj_index::rstar::RStarTree::bulk_load_str(&pts, config);
                run_sweep(&tree, ds, n, width, &args);
            }
            DatasetPoints::D3(pts) => {
                let tree = csj_index::rstar::RStarTree::bulk_load_str(&pts, config);
                run_sweep(&tree, ds, n, width, &args);
            }
        }
    }
}

fn run_sweep<T: JoinIndex<D>, const D: usize>(
    tree: &T,
    ds: PaperDataset,
    n: usize,
    width: usize,
    args: &CommonArgs,
) {
    for eps in ds.eps_sweep() {
        for algo in [ParallelAlgo::Ssj, ParallelAlgo::Ncsj, ParallelAlgo::Csj(10)] {
            let m = measure(tree, algo, eps, args.iters, width, args.ssj_budget);
            print_row(ds.name(), n, &m, &[]);
        }
    }
}
