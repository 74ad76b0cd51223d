//! Criterion micro-bench for Experiment 4: CSJ(10) on the same data
//! indexed by R-tree (linear / quadratic), R*-tree and M-tree. The paper
//! found no significant cross-structure differences.

use criterion::{criterion_group, criterion_main, Criterion};
use csj_bench::datasets::{DatasetPoints, PaperDataset};
use csj_core::{ParallelAlgo, ResilientJoin};
use csj_index::mtree::{MTree, MTreeConfig};
use csj_index::{rstar::RStarTree, rtree::RTree, RTreeConfig, SplitStrategy};
use csj_storage::{CountingSink, OutputWriter};

fn bench_experiment4(c: &mut Criterion) {
    let DatasetPoints::D2(pts) = PaperDataset::MgCounty.generate(5_000) else {
        unreachable!("MG County is 2-D")
    };
    let eps = 0.125;
    let rtree_lin =
        RTree::from_points(&pts, RTreeConfig::default().with_split(SplitStrategy::Linear));
    let rtree_quad =
        RTree::from_points(&pts, RTreeConfig::default().with_split(SplitStrategy::Quadratic));
    let rstar = RStarTree::from_points(&pts, RTreeConfig::default());
    let mtree = MTree::from_points(&pts, MTreeConfig::default());

    let mut group = c.benchmark_group("experiment4_tree_structures");
    group.sample_size(10);
    group.bench_function("rtree_linear", |b| {
        b.iter(|| {
            let mut w = OutputWriter::new(CountingSink::new(), 4);
            ResilientJoin::new(eps, ParallelAlgo::Csj(10)).run_streaming(&rtree_lin, &mut w)
        })
    });
    group.bench_function("rtree_quadratic", |b| {
        b.iter(|| {
            let mut w = OutputWriter::new(CountingSink::new(), 4);
            ResilientJoin::new(eps, ParallelAlgo::Csj(10)).run_streaming(&rtree_quad, &mut w)
        })
    });
    group.bench_function("rstar", |b| {
        b.iter(|| {
            let mut w = OutputWriter::new(CountingSink::new(), 4);
            ResilientJoin::new(eps, ParallelAlgo::Csj(10)).run_streaming(&rstar, &mut w)
        })
    });
    group.bench_function("mtree", |b| {
        b.iter(|| {
            let mut w = OutputWriter::new(CountingSink::new(), 4);
            ResilientJoin::new(eps, ParallelAlgo::Csj(10)).run_streaming(&mtree, &mut w)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_experiment4);
criterion_main!(benches);
