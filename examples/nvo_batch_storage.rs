//! The NVO batch-storage scenario (§I of the paper).
//!
//! An observatory service answers similarity-join queries
//! asynchronously: results must be *stored* until the astronomer fetches
//! them, possibly days later. The compact representation keeps those
//! staged result files small, and individual links are recovered by
//! expanding the groups on retrieval.
//!
//! ```sh
//! cargo run --release --example nvo_batch_storage
//! ```

use compact_similarity_joins::prelude::*;
use csj_storage::{CostModel, FileSink, OutputSink, OutputWriter};

fn main() {
    // A mock sky catalog: clustered sources (galaxy clusters + field).
    let points = csj_data::clusters::gaussian_mixture::<2>(
        50_000,
        csj_data::clusters::ClusterConfig { clusters: 12, sigma: 0.015 },
        11,
    );
    let tree = RStarTree::bulk_load_str(&points, RTreeConfig::default());
    let eps = 0.01;
    let width = 5;

    let dir = std::env::temp_dir();
    let standard_path = dir.join("nvo_standard_result.txt");
    let compact_path = dir.join("nvo_compact_result.txt");

    // Stage the standard join result to disk.
    let mut w = OutputWriter::new(FileSink::create(&standard_path).unwrap(), width);
    let _ = ResilientJoin::new(eps, ParallelAlgo::Ssj).run_streaming(&tree, &mut w);
    let standard_bytes = w.finish().expect("flush failed").bytes_written();

    // Stage the compact result.
    let mut w = OutputWriter::new(FileSink::create(&compact_path).unwrap(), width);
    let _ = ResilientJoin::new(eps, ParallelAlgo::Csj(10)).run_streaming(&tree, &mut w);
    let compact_bytes = w.finish().expect("flush failed").bytes_written();

    println!("staged standard result : {standard_bytes:>12} bytes");
    println!(
        "staged compact result  : {compact_bytes:>12} bytes ({:.1}x smaller)",
        standard_bytes as f64 / compact_bytes as f64
    );
    let model = CostModel::hdd_2008();
    println!(
        "modeled 2008-HDD write : {:.0} ms vs {:.0} ms",
        model.write_time_ms(standard_bytes),
        model.write_time_ms(compact_bytes)
    );

    // On retrieval the astronomer expands groups back into links — no
    // information was lost.
    let join = |algo| ResilientJoin::new(eps, algo).run(&tree).expect("in-memory join");
    let (compact, ncsj) = (join(ParallelAlgo::Csj(10)), join(ParallelAlgo::Ncsj));
    assert_eq!(compact.expanded_link_set(), ncsj.expanded_link_set());
    println!(
        "retrieval check: {} links recovered exactly from {} compact rows ✓",
        compact.expanded_link_set().len(),
        compact.items.len()
    );

    std::fs::remove_file(&standard_path).ok();
    std::fs::remove_file(&compact_path).ok();
}
