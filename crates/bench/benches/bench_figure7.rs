//! Criterion micro-bench for Figure 7 / Experiment 2: scalability in N on
//! Sierpinski3D at ε = 0.125. SSJ's cost grows quadratically with N,
//! the compact joins' near-linearly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use csj_core::{ParallelAlgo, ResilientJoin};
use csj_data::sierpinski;
use csj_index::{rstar::RStarTree, RTreeConfig};
use csj_storage::{CountingSink, OutputWriter};

fn bench_figure7(c: &mut Criterion) {
    let eps = 0.125;
    let mut group = c.benchmark_group("figure7_scalability");
    group.sample_size(10);
    for n in [2_000usize, 8_000] {
        let pts = sierpinski::pyramid_3d(n, 0x53);
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::default());
        group.bench_with_input(BenchmarkId::new("ssj", n), &n, |b, _| {
            b.iter(|| {
                let mut w = OutputWriter::new(CountingSink::new(), 5);
                ResilientJoin::new(eps, ParallelAlgo::Ssj).run_streaming(&tree, &mut w)
            })
        });
        group.bench_with_input(BenchmarkId::new("ncsj", n), &n, |b, _| {
            b.iter(|| {
                let mut w = OutputWriter::new(CountingSink::new(), 5);
                ResilientJoin::new(eps, ParallelAlgo::Ncsj).run_streaming(&tree, &mut w)
            })
        });
        group.bench_with_input(BenchmarkId::new("csj10", n), &n, |b, _| {
            b.iter(|| {
                let mut w = OutputWriter::new(CountingSink::new(), 5);
                ResilientJoin::new(eps, ParallelAlgo::Csj(10)).run_streaming(&tree, &mut w)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_figure7);
criterion_main!(benches);
