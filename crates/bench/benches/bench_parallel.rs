//! Criterion micro-bench for the parallel-join extension: sequential vs
//! multi-threaded SSJ and CSJ(10) on the MG County profile.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use csj_bench::datasets::{DatasetPoints, PaperDataset};
use csj_core::parallel::{ParallelAlgo, ParallelJoin};
use csj_core::ResilientJoin;
use csj_index::{rstar::RStarTree, RTreeConfig};

fn bench_parallel(c: &mut Criterion) {
    let DatasetPoints::D2(pts) = PaperDataset::MgCounty.generate(10_000) else {
        unreachable!("MG County is 2-D")
    };
    let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::default());
    let eps = 0.05;

    let mut group = c.benchmark_group("parallel_join");
    group.sample_size(10);
    group.bench_function("ssj_sequential", |b| {
        b.iter(|| ResilientJoin::new(eps, ParallelAlgo::Ssj).run(&tree))
    });
    for threads in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("ssj_parallel", threads), &threads, |b, &t| {
            b.iter(|| ParallelJoin::new(eps, ParallelAlgo::Ssj).with_threads(t).run(&tree))
        });
    }
    group.bench_function("csj10_parallel_4t", |b| {
        b.iter(|| ParallelJoin::new(eps, ParallelAlgo::Csj(10)).with_threads(4).run(&tree))
    });
    group.finish();
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
