//! Criterion micro-bench for the §VII ε-grid-order extension: plain vs
//! compact vs windowed grid join, against the tree-based CSJ(10).

use criterion::{criterion_group, criterion_main, Criterion};
use csj_core::egrid::GridJoin;
use csj_core::{ParallelAlgo, ResilientJoin};
use csj_data::sierpinski;
use csj_index::{rstar::RStarTree, RTreeConfig};
use csj_storage::{CountingSink, OutputWriter};

fn bench_egrid(c: &mut Criterion) {
    let pts = sierpinski::pyramid_3d(8_000, 0x53);
    let eps = 0.0625;
    let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::default());

    let mut group = c.benchmark_group("egrid_variants");
    group.sample_size(10);
    group.bench_function("grid", |b| b.iter(|| GridJoin::new(eps).run(&pts)));
    group.bench_function("grid_compact", |b| b.iter(|| GridJoin::new(eps).compact().run(&pts)));
    group.bench_function("grid_windowed", |b| {
        b.iter(|| GridJoin::new(eps).with_window(10).run(&pts))
    });
    group.bench_function("tree_csj10", |b| {
        b.iter(|| {
            let mut w = OutputWriter::new(CountingSink::new(), 4);
            ResilientJoin::new(eps, ParallelAlgo::Csj(10)).run_streaming(&tree, &mut w)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_egrid);
criterion_main!(benches);
