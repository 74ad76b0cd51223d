//! Persistence end-to-end: a join over a saved-and-reloaded index is
//! byte-identical to a join over the original.

use csj_core::{ParallelAlgo, ResilientJoin};
use csj_index::{rstar::RStarTree, JoinIndex, RTreeConfig};
use csj_storage::{OutputWriter, VecSink};

fn dataset() -> Vec<csj_geom::Point<2>> {
    csj_data::roads::road_network(&csj_data::roads::RoadConfig {
        n_points: 3_000,
        cores: 3,
        core_sigma: 0.07,
        rural_fraction: 0.3,
        grid_snap_prob: 0.8,
        step: 0.003,
        mean_road_len: 0.05,
        seed: 0xBEEF,
    })
}

#[test]
fn join_over_reloaded_index_is_byte_identical() {
    let pts = dataset();
    let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::default());
    let loaded = RStarTree::<2>::from_bytes(&tree.to_bytes()).expect("roundtrip");
    assert_eq!(loaded.num_records(), tree.num_records());

    for eps in [0.005, 0.05] {
        for algo in [ParallelAlgo::Csj(10), ParallelAlgo::Ssj] {
            let join = ResilientJoin::new(eps, algo);
            let mut a = OutputWriter::new(VecSink::new(), 4);
            let mut b = OutputWriter::new(VecSink::new(), 4);
            join.run_streaming(&tree, &mut a).expect("vec sink cannot fail");
            join.run_streaming(&loaded, &mut b).expect("vec sink cannot fail");
            assert_eq!(
                a.sink().as_str(),
                b.sink().as_str(),
                "eps={eps} {algo:?}: joins over original and reloaded trees must match"
            );
        }
    }
}

#[test]
fn file_roundtrip_through_disk() {
    let pts = dataset();
    let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::default());
    let path = std::env::temp_dir().join(format!("csj_persist_{}.idx", std::process::id()));
    std::fs::write(&path, tree.to_bytes()).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let loaded = RStarTree::<2>::from_bytes(&bytes).unwrap();
    assert_eq!(loaded.num_records(), 3_000);
    csj_index::validate::validate_rect_tree(loaded.core()).unwrap();
    std::fs::remove_file(&path).ok();
}

/// Satellite of the robustness PR: file-level corruption is detected
/// (typed error, no panic) and a restore-then-retry succeeds.
#[test]
fn corrupted_index_file_is_rejected_then_recovers_after_restore() {
    let pts = dataset();
    let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::default());
    let path = std::env::temp_dir().join(format!("csj_corrupt_{}.idx", std::process::id()));
    tree.save_to_file(&path).expect("save_to_file");
    let good = std::fs::read(&path).expect("read back saved index");

    // Bit rot: flip one payload byte in the middle of the file.
    let mut bad = good.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0xFF;
    std::fs::write(&path, &bad).expect("write corrupted bytes");
    let err =
        RStarTree::<2>::load_from_file(&path).expect_err("a flipped payload byte must be detected");
    assert_eq!(err, csj_index::persist::PersistError::ChecksumMismatch);

    // Restoring the original bytes makes the retry succeed.
    std::fs::write(&path, &good).expect("restore good bytes");
    let loaded = RStarTree::<2>::load_from_file(&path).expect("restored file loads");
    assert_eq!(loaded.num_records(), tree.num_records());
    std::fs::remove_file(&path).ok();
}
