//! Criterion micro-bench for Figure 6: CSJ(g) cost as the window size g
//! grows. The paper's trend: mild (≈linear) time growth in g.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use csj_bench::datasets::{DatasetPoints, PaperDataset};
use csj_core::{ParallelAlgo, ResilientJoin};
use csj_index::{rstar::RStarTree, RTreeConfig};
use csj_storage::{CountingSink, OutputWriter};

fn bench_figure6(c: &mut Criterion) {
    let DatasetPoints::D2(pts) = PaperDataset::MgCounty.generate(5_000) else {
        unreachable!("MG County is 2-D")
    };
    let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::default());
    let eps = 0.1;
    let mut group = c.benchmark_group("figure6_window_size");
    group.sample_size(10);
    for g in [1usize, 5, 10, 50, 100] {
        group.bench_with_input(BenchmarkId::from_parameter(g), &g, |b, &g| {
            b.iter(|| {
                let mut w = OutputWriter::new(CountingSink::new(), 4);
                ResilientJoin::new(eps, ParallelAlgo::Csj(g)).run_streaming(&tree, &mut w)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_figure6);
criterion_main!(benches);
