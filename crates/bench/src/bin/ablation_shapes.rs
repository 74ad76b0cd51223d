//! §V-A ablation: MBR vs bounding-ball group shapes.
//!
//! The paper argues for hyper-rectangles (constant-time updates, shapes
//! shared with the index) over circles (more area per group, expensive
//! optimal centers). This ablation quantifies the trade on MG County:
//! output bytes, groups created, merge success rate and runtime for both
//! shapes across the ε sweep.

use csj_bench::args::CommonArgs;
use csj_bench::datasets::{DatasetPoints, PaperDataset};
use csj_bench::harness::median_time_ms;
use csj_core::{GroupShapeKind, JoinConfig, ParallelAlgo, ResilientJoin};
use csj_index::{rstar::RStarTree, RTreeConfig};
use csj_storage::{CountingSink, OutputWriter};

fn main() {
    let args = CommonArgs::parse();
    let ds = PaperDataset::MgCounty;
    let n = args.scaled(ds.paper_size());
    let DatasetPoints::D2(pts) = ds.generate(n) else { unreachable!("MG County is 2-D") };
    let width = OutputWriter::<CountingSink>::id_width_for(n);
    let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::default());

    println!("shape\teps\ttime_ms\tbytes\tgroups\tmerge_attempts\tmerges_succeeded");
    for eps in ds.eps_sweep() {
        let cfg = JoinConfig::new(eps);
        for (label, cfg) in [
            ("mbr", cfg),
            ("mbr-tight", cfg.with_tight_groups()),
            ("ball", cfg.with_group_shape(GroupShapeKind::Ball)),
        ] {
            let join = ResilientJoin::with_config(cfg, ParallelAlgo::Csj(10));
            let mut writer = OutputWriter::new(CountingSink::new(), width);
            let stats =
                join.run_streaming(&tree, &mut writer).expect("counting sink cannot fail").stats;
            let time_ms = median_time_ms(args.iters, || {
                let mut w = OutputWriter::new(CountingSink::new(), width);
                let _ = join.run_streaming(&tree, &mut w);
            });
            println!(
                "{label}\t{eps:.6}\t{time_ms:.3}\t{}\t{}\t{}\t{}",
                writer.bytes_written(),
                stats.groups_emitted,
                stats.merge_attempts,
                stats.merges_succeeded
            );
        }
    }
}
