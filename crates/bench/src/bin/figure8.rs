//! Figure 8 / Experiment 3: where the savings come from.
//!
//! MG County at ε = 0.1. For SSJ, N-CSJ and CSJ(1/10/100) we report:
//!
//! * computation time (output counted, never materialized);
//! * disk write time — both measured (writing the real output file to a
//!   temp path) and modeled with the 2008-HDD cost model, since modern
//!   NVMe drives compress the I/O share the paper saw;
//! * node/page accesses, and buffer-pool misses when the access log is
//!   replayed through LRU pools of several capacities — reproducing the
//!   paper's finding that page and cache access counts are essentially
//!   identical across the algorithms.

use csj_bench::args::CommonArgs;
use csj_bench::datasets::{DatasetPoints, PaperDataset};
use csj_bench::harness::{algo_name, median_time_ms};
use csj_core::{JoinConfig, ParallelAlgo, ResilientJoin};
use csj_index::{rstar::RStarTree, JoinIndex, RTreeConfig};
use csj_storage::{BufferPool, CostModel, CountingSink, FileSink, OutputWriter, PageId};

const EPS: f64 = 0.1;
const POOL_SIZES: [usize; 3] = [8, 64, 512];

fn main() {
    let args = CommonArgs::parse();
    let ds = PaperDataset::MgCounty;
    let n = args.scaled(ds.paper_size());
    let DatasetPoints::D2(pts) = ds.generate(n) else { unreachable!("MG County is 2-D") };
    let width = OutputWriter::<CountingSink>::id_width_for(n);
    let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::default());

    println!(
        "algo\tcomp_ms\twrite_ms_measured\twrite_ms_hdd_model\tbytes\tnode_accesses\t{}",
        POOL_SIZES.map(|c| format!("misses@{c}")).join("\t")
    );

    let algos = [
        ParallelAlgo::Ssj,
        ParallelAlgo::Ncsj,
        ParallelAlgo::Csj(1),
        ParallelAlgo::Csj(10),
        ParallelAlgo::Csj(100),
    ];
    for algo in algos {
        let name = algo_name(algo);
        // 1. Computation time + byte count (counting sink).
        let mut counting = OutputWriter::new(CountingSink::new(), width);
        let stats = run(algo, &tree, &mut counting, true);
        let bytes = counting.bytes_written();
        let comp_ms = median_time_ms(args.iters, || {
            let mut w = OutputWriter::new(CountingSink::new(), width);
            let _ = run(algo, &tree, &mut w, false);
        });

        // 2. Measured write time: same run against a real file.
        let path =
            std::env::temp_dir().join(format!("csj_fig8_{}.txt", name.replace(['(', ')'], "_")));
        let total_ms = median_time_ms(args.iters, || {
            let mut w = OutputWriter::new(FileSink::create(&path).expect("temp file"), width);
            let _ = run(algo, &tree, &mut w, false);
            let sink = w.finish();
            drop(sink);
        });
        std::fs::remove_file(&path).ok();
        let write_ms_measured = (total_ms - comp_ms).max(0.0);

        // 3. Modeled write time (2008-class HDD).
        let write_ms_model = CostModel::hdd_2008().write_time_ms(bytes);

        // 4. Page accesses: replay the node-access log through LRU pools.
        let log = stats.access_log.as_deref().unwrap_or(&[]);
        let misses: Vec<String> = POOL_SIZES
            .iter()
            .map(|&cap| {
                let mut pool = BufferPool::new(cap);
                let s = pool.replay(log.iter().map(|&id| PageId(id as u64)));
                s.misses.to_string()
            })
            .collect();

        println!(
            "{name}\t{comp_ms:.3}\t{write_ms_measured:.3}\t{write_ms_model:.3}\t{bytes}\t{}\t{}",
            log.len(),
            misses.join("\t")
        );
    }
}

fn run<T: JoinIndex<2>, S: csj_storage::OutputSink>(
    algo: ParallelAlgo,
    tree: &T,
    writer: &mut OutputWriter<S>,
    with_log: bool,
) -> csj_core::JoinStats {
    let cfg = if with_log { JoinConfig::new(EPS).with_access_log() } else { JoinConfig::new(EPS) };
    let join = ResilientJoin::with_config(cfg, algo);
    join.run_streaming(tree, writer).expect("counting sink cannot fail").stats
}
