//! Criterion micro-bench for the §V-A group-shape ablation: MBR vs
//! bounding-ball group shapes inside CSJ(10).

use criterion::{criterion_group, criterion_main, Criterion};
use csj_bench::datasets::{DatasetPoints, PaperDataset};
use csj_core::{GroupShapeKind, JoinConfig, ParallelAlgo, ResilientJoin};
use csj_index::{rstar::RStarTree, RTreeConfig};
use csj_storage::{CountingSink, OutputWriter};

fn bench_shapes(c: &mut Criterion) {
    let DatasetPoints::D2(pts) = PaperDataset::MgCounty.generate(5_000) else {
        unreachable!("MG County is 2-D")
    };
    let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::default());
    let eps = 0.1;
    let mut group = c.benchmark_group("ablation_group_shapes");
    group.sample_size(10);
    group.bench_function("mbr", |b| {
        b.iter(|| {
            let mut w = OutputWriter::new(CountingSink::new(), 4);
            let cfg = JoinConfig::new(eps).with_group_shape(GroupShapeKind::Mbr);
            ResilientJoin::with_config(cfg, ParallelAlgo::Csj(10)).run_streaming(&tree, &mut w)
        })
    });
    group.bench_function("ball", |b| {
        b.iter(|| {
            let mut w = OutputWriter::new(CountingSink::new(), 4);
            let cfg = JoinConfig::new(eps).with_group_shape(GroupShapeKind::Ball);
            ResilientJoin::with_config(cfg, ParallelAlgo::Csj(10)).run_streaming(&tree, &mut w)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_shapes);
criterion_main!(benches);
