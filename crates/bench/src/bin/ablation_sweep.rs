//! Ablation for the plane-sweep access ordering (the optimization the
//! paper cites as Brinkhoff et al. \[1\]: "optimally ordering the access
//! of children in branch nodes and the objects in leaf nodes").
//!
//! Compares SSJ and CSJ(10) with the sweep on and off across the ε
//! sweep: distance computations skipped, wall time, and (for CSJ) the
//! output-size effect of the changed traversal order.

use csj_bench::args::CommonArgs;
use csj_bench::datasets::{DatasetPoints, PaperDataset};
use csj_bench::harness::median_time_ms;
use csj_core::{JoinConfig, ParallelAlgo, ResilientJoin};
use csj_index::{rstar::RStarTree, RTreeConfig};
use csj_storage::{CountingSink, OutputWriter};

fn main() {
    let args = CommonArgs::parse();
    let ds = PaperDataset::MgCounty;
    let n = args.scaled(ds.paper_size());
    let DatasetPoints::D2(pts) = ds.generate(n) else { unreachable!("MG County is 2-D") };
    let width = OutputWriter::<CountingSink>::id_width_for(n);
    let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::default());

    println!("algo\tsweep\teps\ttime_ms\tdistance_computations\tbytes");
    for eps in ds.eps_sweep() {
        for sweep in [false, true] {
            let cfg =
                if sweep { JoinConfig::new(eps).with_plane_sweep() } else { JoinConfig::new(eps) };
            for (name, algo) in [("SSJ", ParallelAlgo::Ssj), ("CSJ(10)", ParallelAlgo::Csj(10))] {
                let join = ResilientJoin::with_config(cfg, algo);
                let mut w = OutputWriter::new(CountingSink::new(), width);
                let stats =
                    join.run_streaming(&tree, &mut w).expect("counting sink cannot fail").stats;
                let t = median_time_ms(args.iters, || {
                    let mut w = OutputWriter::new(CountingSink::new(), width);
                    let _ = join.run_streaming(&tree, &mut w);
                });
                println!(
                    "{name}\t{sweep}\t{eps:.6}\t{t:.3}\t{}\t{}",
                    stats.distance_computations,
                    w.bytes_written()
                );
            }
        }
    }
}
