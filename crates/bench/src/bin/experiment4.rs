//! Experiment 4: different tree structures.
//!
//! Runs SSJ, N-CSJ and CSJ(10) over the same data indexed by a Guttman
//! R-tree (linear and quadratic splits), an R*-tree and an M-tree. The
//! paper found "no significant difference in any of the performance
//! measures" across structures; the output sizes here are directly
//! comparable and the times should be within a small factor.
//!
//! The M-tree is built by repeated insertion (it has no bulk loader), so
//! this experiment defaults Pacific NW to a 100K draw; use `--scale` to
//! change all sizes proportionally.

use csj_bench::args::CommonArgs;
use csj_bench::datasets::{DatasetPoints, PaperDataset};
use csj_bench::harness::measure;
use csj_core::ParallelAlgo;
use csj_geom::Point;
use csj_index::mtree::{MTree, MTreeConfig};
use csj_index::quadtree::{QuadTree, QuadTreeConfig};
use csj_index::{rstar::RStarTree, rtree::RTree, JoinIndex, RTreeConfig, SplitStrategy};
use csj_storage::{CountingSink, OutputWriter};

fn main() {
    let args = CommonArgs::parse();
    println!("dataset\tn\ttree\talgo\teps\tcomp_ms\ttotal_ms_hdd_model\tbytes\trows\testimated");
    for ds in PaperDataset::ALL {
        let paper_n = match ds {
            // M-tree insertion at 1.5M is disproportionate; the paper's
            // claim is about relative behaviour, which 100K preserves.
            PaperDataset::PacificNw => 100_000,
            _ => ds.paper_size(),
        };
        let n = args.scaled(paper_n);
        eprintln!("# generating {} (n = {n})", ds.name());
        match ds.generate(n) {
            DatasetPoints::D2(pts) => run_all(ds, &pts, &args),
            DatasetPoints::D3(pts) => run_all(ds, &pts, &args),
        }
    }
}

fn run_all<const D: usize>(ds: PaperDataset, pts: &[Point<D>], args: &CommonArgs) {
    let n = pts.len();
    let width = OutputWriter::<CountingSink>::id_width_for(n);
    // A moderately large range where the compact joins diverge from SSJ.
    let eps = match ds {
        PaperDataset::PacificNw => 0.01,
        _ => 0.125,
    };

    let rtree_lin =
        RTree::from_points(pts, RTreeConfig::default().with_split(SplitStrategy::Linear));
    report(ds, n, "R-tree(linear)", &rtree_lin, eps, args, width);
    drop(rtree_lin);

    let rtree_quad =
        RTree::from_points(pts, RTreeConfig::default().with_split(SplitStrategy::Quadratic));
    report(ds, n, "R-tree(quadratic)", &rtree_quad, eps, args, width);
    drop(rtree_quad);

    let rstar = RStarTree::from_points(pts, RTreeConfig::default());
    report(ds, n, "R*-tree", &rstar, eps, args, width);
    drop(rstar);

    let mtree = MTree::from_points(pts, MTreeConfig::default());
    report(ds, n, "M-tree", &mtree, eps, args, width);
    drop(mtree);

    let qtree = QuadTree::build(pts, QuadTreeConfig::default());
    report(ds, n, "PR-quadtree", &qtree, eps, args, width);
}

fn report<T: JoinIndex<D>, const D: usize>(
    ds: PaperDataset,
    n: usize,
    tree_name: &str,
    tree: &T,
    eps: f64,
    args: &CommonArgs,
    width: usize,
) {
    for algo in [ParallelAlgo::Ssj, ParallelAlgo::Ncsj, ParallelAlgo::Csj(10)] {
        let m = measure(tree, algo, eps, args.iters, width, args.ssj_budget);
        println!(
            "{}\t{}\t{}\t{}\t{:.6}\t{:.3}\t{:.3}\t{:.0}\t{:.0}\t{}",
            ds.name(),
            n,
            tree_name,
            m.algo,
            m.eps,
            m.time_ms,
            m.model_total_ms(),
            m.bytes,
            m.rows,
            if m.estimated { "yes" } else { "no" }
        );
    }
}
