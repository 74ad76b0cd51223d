//! §VII ablation: the compact extension of the (index-free)
//! ε-grid-order join.
//!
//! Compares, on Sierpinski3D and a uniform control set: the plain grid
//! join, the compact grid join (early termination-as-a-group in
//! JoinBuffer), the windowed compact grid join, and the tree-based
//! CSJ(10) — showing the compact-output idea is index-independent.

use csj_bench::args::CommonArgs;
use csj_bench::harness::median_time_ms;
use csj_core::egrid::GridJoin;
use csj_core::{ParallelAlgo, ResilientJoin};
use csj_data::sierpinski;
use csj_data::uniform::uniform;
use csj_geom::Point;
use csj_index::{rstar::RStarTree, RTreeConfig};
use csj_storage::{CountingSink, OutputWriter};

fn main() {
    let args = CommonArgs::parse();
    println!("dataset\tmethod\teps\ttime_ms\tbytes\trows");
    let n3 = args.scaled(50_000);
    run_dataset("Sierpinski3D", &sierpinski::pyramid_3d(n3, 0x53), 0.0625, &args);
    let n2 = args.scaled(50_000);
    run_dataset("Uniform2D", &uniform::<2>(n2, 7), 0.03125, &args);
}

fn run_dataset<const D: usize>(name: &str, pts: &[Point<D>], eps: f64, args: &CommonArgs) {
    let width = OutputWriter::<CountingSink>::id_width_for(pts.len());

    let variants: [(&str, GridJoin); 3] = [
        ("grid", GridJoin::new(eps)),
        ("grid-compact", GridJoin::new(eps).compact()),
        ("grid-compact-w10", GridJoin::new(eps).with_window(10)),
    ];
    for (label, join) in variants {
        let out = join.run(pts);
        let time_ms = median_time_ms(args.iters, || {
            let _ = join.run(pts);
        });
        println!(
            "{name}\t{label}\t{eps:.6}\t{time_ms:.3}\t{}\t{}",
            out.total_bytes(width),
            out.items.len()
        );
    }

    // Tree-based CSJ(10) for comparison.
    let tree = RStarTree::bulk_load_str(pts, RTreeConfig::default());
    let join = ResilientJoin::new(eps, ParallelAlgo::Csj(10));
    let mut writer = OutputWriter::new(CountingSink::new(), width);
    let stats = join.run_streaming(&tree, &mut writer).expect("counting sink cannot fail").stats;
    let time_ms = median_time_ms(args.iters, || {
        let mut w = OutputWriter::new(CountingSink::new(), width);
        let _ = join.run_streaming(&tree, &mut w);
    });
    println!(
        "{name}\ttree-csj10\t{eps:.6}\t{time_ms:.3}\t{}\t{}",
        writer.bytes_written(),
        stats.rows_emitted()
    );
}
