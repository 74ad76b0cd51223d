//! Criterion micro-bench for Figure 8 / Experiment 3: computation vs
//! write cost. Benches each algorithm once with a counting sink
//! (computation only) and once writing the real output file.

use criterion::{criterion_group, criterion_main, Criterion};
use csj_bench::datasets::{DatasetPoints, PaperDataset};
use csj_core::{ParallelAlgo, ResilientJoin};
use csj_index::{rstar::RStarTree, RTreeConfig};
use csj_storage::{CountingSink, FileSink, OutputWriter};

fn bench_figure8(c: &mut Criterion) {
    let DatasetPoints::D2(pts) = PaperDataset::MgCounty.generate(5_000) else {
        unreachable!("MG County is 2-D")
    };
    let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::default());
    let eps = 0.1;
    let path = std::env::temp_dir().join("csj_bench_fig8.txt");

    let mut group = c.benchmark_group("figure8_comp_vs_write");
    group.sample_size(10);
    group.bench_function("ssj_compute", |b| {
        b.iter(|| {
            let mut w = OutputWriter::new(CountingSink::new(), 4);
            ResilientJoin::new(eps, ParallelAlgo::Ssj).run_streaming(&tree, &mut w)
        })
    });
    group.bench_function("ssj_with_file_write", |b| {
        b.iter(|| {
            let mut w = OutputWriter::new(FileSink::create(&path).unwrap(), 4);
            let stats = ResilientJoin::new(eps, ParallelAlgo::Ssj).run_streaming(&tree, &mut w);
            let _ = w.finish();
            stats
        })
    });
    group.bench_function("ncsj_compute", |b| {
        b.iter(|| {
            let mut w = OutputWriter::new(CountingSink::new(), 4);
            ResilientJoin::new(eps, ParallelAlgo::Ncsj).run_streaming(&tree, &mut w)
        })
    });
    group.bench_function("csj10_compute", |b| {
        b.iter(|| {
            let mut w = OutputWriter::new(CountingSink::new(), 4);
            ResilientJoin::new(eps, ParallelAlgo::Csj(10)).run_streaming(&tree, &mut w)
        })
    });
    group.bench_function("csj10_with_file_write", |b| {
        b.iter(|| {
            let mut w = OutputWriter::new(FileSink::create(&path).unwrap(), 4);
            let stats = ResilientJoin::new(eps, ParallelAlgo::Csj(10)).run_streaming(&tree, &mut w);
            let _ = w.finish();
            stats
        })
    });
    group.finish();
    std::fs::remove_file(&path).ok();
}

criterion_group!(benches, bench_figure8);
criterion_main!(benches);
