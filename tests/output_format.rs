//! Byte-exact output format through the full stack: join → text file →
//! parse back → expand → compare against brute force.

use std::collections::BTreeSet;

use csj_core::brute::brute_force_links;
use csj_core::parallel::{ParallelAlgo, ParallelJoin};
use csj_core::ResilientJoin;
use csj_index::{rstar::RStarTree, RTreeConfig};
use csj_storage::{FileSink, OutputSink, OutputWriter, VecSink};

fn sample_points() -> Vec<csj_geom::Point<2>> {
    csj_data::clusters::gaussian_mixture(
        600,
        csj_data::clusters::ClusterConfig { clusters: 5, sigma: 0.02 },
        3,
    )
}

/// Parses the paper's text format back into a link set: each line is a
/// row; a 2-id line could be a link or a 2-group (identical bytes — the
/// formats coincide by design), longer lines are groups.
fn parse_link_set(text: &str) -> BTreeSet<(u32, u32)> {
    let mut set = BTreeSet::new();
    for line in text.lines() {
        let ids: Vec<u32> = line.split(' ').map(|t| t.parse().unwrap()).collect();
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                let (a, b) = (ids[i].min(ids[j]), ids[i].max(ids[j]));
                if a != b {
                    set.insert((a, b));
                }
            }
        }
    }
    set
}

#[test]
fn text_roundtrip_all_algorithms() {
    let pts = sample_points();
    let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(12));
    let eps = 0.05;
    let truth = brute_force_links(&pts, eps);
    let width = 3;

    for algo in [ParallelAlgo::Ssj, ParallelAlgo::Ncsj, ParallelAlgo::Csj(10)] {
        let mut w = OutputWriter::new(VecSink::new(), width);
        ResilientJoin::new(eps, algo).run_streaming(&tree, &mut w).expect("vec sink cannot fail");
        assert_eq!(parse_link_set(w.sink().as_str()), truth, "{algo:?}");
    }
}

#[test]
fn file_bytes_equal_counted_bytes() {
    let pts = sample_points();
    let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(12));
    let eps = 0.04;
    let width = 3;
    let join = ResilientJoin::new(eps, ParallelAlgo::Csj(10));

    // Collected accounting.
    let collected = join.run(&tree).expect("in-memory run cannot fail");
    let expected_bytes = collected.total_bytes(width);

    // Real file.
    let path = std::env::temp_dir().join(format!("csj_fmt_{}.txt", std::process::id()));
    let mut w = OutputWriter::new(FileSink::create(&path).unwrap(), width);
    join.run_streaming(&tree, &mut w).expect("file sink write failed");
    let sink = w.finish().expect("flush failed");
    assert_eq!(sink.bytes_written(), expected_bytes);
    let on_disk = std::fs::metadata(&path).unwrap().len();
    assert_eq!(on_disk, expected_bytes, "file size equals the byte accounting");
    std::fs::remove_file(&path).ok();
}

#[test]
fn streamed_and_collected_rows_are_identical() {
    let pts = sample_points();
    let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(12));
    let eps = 0.06;
    let width = 3;
    let join = ResilientJoin::new(eps, ParallelAlgo::Csj(7));

    let collected = join.run(&tree).expect("in-memory run cannot fail");
    let mut from_collected = OutputWriter::new(VecSink::new(), width);
    collected.write_to(&mut from_collected).expect("vec sink cannot fail");

    let mut streamed = OutputWriter::new(VecSink::new(), width);
    join.run_streaming(&tree, &mut streamed).expect("vec sink cannot fail");

    assert_eq!(
        from_collected.sink().as_str(),
        streamed.sink().as_str(),
        "stream and collect must produce byte-identical output"
    );
}

#[test]
fn parallel_collected_rows_write_the_sequential_bytes() {
    let pts = sample_points();
    let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(12));
    let eps = 0.05;
    let width = OutputWriter::<VecSink>::id_width_for(pts.len());
    for algo in [ParallelAlgo::Ssj, ParallelAlgo::Ncsj, ParallelAlgo::Csj(10)] {
        // `csj join` without --threads: the sequential runner streams.
        let mut seq = OutputWriter::new(VecSink::new(), width);
        let report = ResilientJoin::new(eps, algo)
            .with_id_width(width)
            .run_streaming(&tree, &mut seq)
            .expect("vec sink cannot fail");
        for threads in [1, 2, 8] {
            // `csj join --threads N` collected, then written.
            let out = ParallelJoin::new(eps, algo).with_threads(threads).run(&tree);
            let mut par = OutputWriter::new(VecSink::new(), width);
            out.write_to(&mut par).expect("vec sink cannot fail");
            let label = format!("{algo:?} at {threads} threads");
            assert_eq!(par.sink().as_str(), seq.sink().as_str(), "{label}: bytes");
            assert_eq!(out.num_links() as u64, seq.links_written(), "{label}: links");
            assert_eq!(out.num_groups() as u64, seq.groups_written(), "{label}: groups");
            assert_eq!(out.total_bytes(width), seq.bytes_written(), "{label}: total bytes");
            assert_eq!(
                out.implied_links(),
                report.stats.links_emitted + report.stats.links_in_groups,
                "{label}: implied links"
            );
        }
        if algo == ParallelAlgo::Ncsj {
            assert!(seq.groups_written() > 0, "the N-CSJ run exercises group rows");
        }
    }
}

#[test]
fn dataset_export_import_roundtrip() {
    let pts = sample_points();
    let path = std::env::temp_dir().join(format!("csj_pts_{}.txt", std::process::id()));
    csj_data::io::write_points(&path, &pts).unwrap();
    let back: Vec<csj_geom::Point<2>> = csj_data::io::read_points(&path).unwrap();
    assert_eq!(back, pts);
    std::fs::remove_file(&path).ok();

    // Joins over the re-imported data give identical results.
    let t1 = RStarTree::bulk_load_str(&pts, RTreeConfig::default());
    let t2 = RStarTree::bulk_load_str(&back, RTreeConfig::default());
    let join = ResilientJoin::new(0.03, ParallelAlgo::Csj(10));
    let o1 = join.run(&t1).expect("in-memory run cannot fail");
    let o2 = join.run(&t2).expect("in-memory run cannot fail");
    assert_eq!(o1.expanded_link_set(), o2.expanded_link_set());
}

#[test]
fn spatial_join_bytes_and_counters_are_pinned() {
    use csj_core::spatial::SpatialJoin;
    use csj_data::clusters::{gaussian_mixture, ClusterConfig};
    use csj_geom::Metric::{Chebyshev, Euclidean};
    use csj_index::mtree::{MTree, MTreeConfig};

    let cfg = ClusterConfig { clusters: 4, sigma: 0.01 };
    let left = gaussian_mixture::<2>(700, cfg, 41);
    let right = gaussian_mixture::<2>(500, cfg, 42);
    let width = OutputWriter::<VecSink>::id_width_for(left.len().max(right.len()));
    let lt = RStarTree::bulk_load_str(&left, RTreeConfig::with_max_fanout(8));
    let rt = RStarTree::bulk_load_str(&right, RTreeConfig::with_max_fanout(8));
    let rm = MTree::from_points(&right, MTreeConfig::with_max_fanout(8));
    let eps = 0.08;
    // (label, algorithm, metric, right side is the M-tree). The N-CSJ cases
    // early-stop node pairs into groups; CSJ(0) is N-CSJ.
    let cases = [
        ("SSJ", ParallelAlgo::Ssj, Euclidean, false),
        ("N-CSJ", ParallelAlgo::Ncsj, Euclidean, false),
        ("CSJ(10)", ParallelAlgo::Csj(10), Euclidean, false),
        ("CSJ(0)", ParallelAlgo::Csj(0), Euclidean, false),
        ("CSJ(10) R*-tree x M-tree", ParallelAlgo::Csj(10), Euclidean, true),
        ("N-CSJ L-inf", ParallelAlgo::Ncsj, Chebyshev, false),
        ("CSJ(10) L-inf", ParallelAlgo::Csj(10), Chebyshev, false),
    ];
    // FNV-1a digest, rows and bytes of the written file, then `pair_visits`,
    // `pairs_pruned`, `early_stops_pair`, `distance_computations` (the
    // pairs the leaf kernel evaluates: L2 cross probes sweep only their
    // ε-strip), `merge_attempts`, `merges_succeeded`, `links_emitted`,
    // `groups_emitted` and `group_members_emitted`.
    let pins: [(u64, usize, u64, [u64; 9]); 7] = [
        (0x386e644a02b49065, 1638, 16380, [159, 927, 0, 2769, 0, 0, 1638, 0, 0]),
        (0x730e0f0925f48e88, 1418, 14388, [159, 927, 4, 2545, 0, 0, 1414, 4, 60]),
        (0xb5b633d0132ad9a6, 239, 5906, [159, 927, 4, 2545, 4487, 1179, 0, 239, 1357]),
        (0x730e0f0925f48e88, 1418, 14388, [159, 927, 4, 2545, 0, 0, 1414, 4, 60]),
        (0x66021a3c2843fa21, 275, 6362, [258, 1263, 1, 2989, 5314, 1336, 0, 275, 1453]),
        (0x10b94851b5d71a85, 1729, 18070, [187, 1053, 15, 8675, 0, 0, 1714, 15, 225]),
        (0x4afa344d7b5e8717, 80, 4760, [187, 1053, 15, 8675, 3183, 1649, 0, 80, 1150]),
    ];
    for ((label, algo, metric, mtree), want) in cases.into_iter().zip(pins) {
        let join = SpatialJoin::new(eps, algo).with_metric(metric);
        let mut writer = OutputWriter::new(VecSink::new(), width);
        let report = if mtree {
            join.run_streaming(&lt, &rm, &mut writer)
        } else {
            join.run_streaming(&lt, &rt, &mut writer)
        };
        let s = &report.expect("vec sink cannot fail").stats;
        let counters = [
            s.pair_visits,
            s.pairs_pruned,
            s.early_stops_pair,
            s.distance_computations,
            s.merge_attempts,
            s.merges_succeeded,
            s.links_emitted,
            s.groups_emitted,
            s.group_members_emitted,
        ];
        let (bytes, contents) = (writer.bytes_written(), writer.sink().contents());
        let rows = contents.iter().filter(|&&b| b == b'\n').count();
        assert_eq!(rows as u64, s.links_emitted + s.groups_emitted, "{label}: counted rows");
        assert_eq!(contents.len() as u64, bytes, "{label}: written bytes");
        assert_eq!(
            (csj_storage::fnv1a64(contents), rows, bytes, counters),
            want,
            "{label}: digest, rows, bytes, counters"
        );
    }
}

/// One sequential `csj join` run written to memory: the FNV-1a digest,
/// rows and bytes of the file, then `merge_attempts`, `merges_succeeded`,
/// `groups_emitted`, the early stops and `distance_computations`.
fn sequential_pin<T: csj_index::JoinIndex<2>>(
    tree: &T,
    n: usize,
    cfg: csj_core::JoinConfig,
    algo: ParallelAlgo,
) -> (u64, usize, u64, [u64; 5]) {
    let width = OutputWriter::<VecSink>::id_width_for(n);
    let mut writer = OutputWriter::new(VecSink::new(), width);
    let report = ResilientJoin::with_config(cfg, algo)
        .with_id_width(width)
        .run_streaming(tree, &mut writer)
        .expect("vec sink cannot fail");
    let s = &report.stats;
    let (bytes, contents) = (writer.bytes_written(), writer.sink().contents());
    let rows = contents.iter().filter(|&&b| b == b'\n').count();
    assert_eq!(contents.len() as u64, bytes, "written bytes");
    let counters = [
        s.merge_attempts,
        s.merges_succeeded,
        s.groups_emitted,
        s.early_stops_node + s.early_stops_pair,
        s.distance_computations,
    ];
    (csj_storage::fnv1a64(contents), rows, bytes, counters)
}

/// Every other CSJ(g) identity check compares a path against the
/// sequential runner; this pins the sequential bytes themselves, so a
/// change to the group window cannot move them unnoticed. The MBR window
/// probes its bound slabs under L2 and walks its shapes under L-inf;
/// ball windows always walk.
#[test]
fn sequential_self_join_bytes_and_counters_are_pinned() {
    use csj_core::group::GroupShapeKind::Ball;
    use csj_core::JoinConfig;
    use csj_data::clusters::{gaussian_mixture, ClusterConfig};
    use csj_geom::Metric::Chebyshev;
    use csj_index::mtree::{MTree, MTreeConfig};

    // Tight clusters, where early stops fire and subtree groups enter the
    // window, and a small road network, where links dominate.
    let clustered = gaussian_mixture::<2>(2000, ClusterConfig { clusters: 8, sigma: 0.01 }, 17);
    let roads = csj_data::roads::road_network(&csj_data::roads::RoadConfig {
        n_points: 6000,
        cores: 3,
        core_sigma: 0.08,
        rural_fraction: 0.35,
        grid_snap_prob: 0.75,
        step: 0.004,
        mean_road_len: 0.05,
        seed: 29,
    });
    let ct = RStarTree::bulk_load_str(&clustered, RTreeConfig::with_max_fanout(12));
    // M-tree node boxes circumscribe balls, so tight groups differ there.
    let cm = MTree::from_points(&clustered, MTreeConfig::with_max_fanout(12));
    let rt = RStarTree::bulk_load_str(&roads, RTreeConfig::default());
    let (c, r) = (JoinConfig::new(0.03), JoinConfig::new(0.01));
    let (csj10, csj3) = (ParallelAlgo::Csj(10), ParallelAlgo::Csj(3));
    // (label, config, algorithm) and the pin: digest, rows, bytes, then
    // `merge_attempts`, `merges_succeeded`, `groups_emitted`, early stops,
    // `distance_computations` (which moves if the leaf kernel's ε-strip
    // evaluates a different set of pairs).
    #[rustfmt::skip]
    let cases = [
        ("clusters CSJ(10)", c, csj10, (0x240e60c4179afdfc, 6527, 392820, [276523, 125068, 6527, 734, 150776])),
        ("clusters CSJ(3)", c, csj3, (0x0a5f0ad62fc5b92e, 7838, 411695, [174061, 123757, 7838, 734, 150776])),
        ("clusters CSJ(0)", c, ParallelAlgo::Csj(0), (0x9b6b81e085a4e162, 131595, 1386730, [0, 0, 131595, 734, 150776])),
        ("clusters N-CSJ", c, ParallelAlgo::Ncsj, (0x465bc83d7b1d0a9c, 131595, 1386730, [0, 0, 734, 734, 150776])),
        ("clusters CSJ(10) ball", c.with_group_shape(Ball), csj10, (0x2013a229146acab1, 3659, 320260, [248783, 127936, 3659, 734, 150776])),
        ("clusters CSJ(10) L-inf", c.with_metric(Chebyshev), csj10, (0x3c5217a9f50e65a2, 1825, 252180, [201858, 109151, 1825, 956, 168643])),
        ("M-tree CSJ(10)", c, csj10, (0xf011dbfc7f3b5509, 10541, 495140, [282898, 103376, 10541, 1797, 130982])),
        ("M-tree CSJ(10) tight", c.with_tight_groups(), csj10, (0x9d34a02340478728, 10217, 484915, [282086, 103700, 10217, 1797, 130982])),
        ("roads CSJ(10)", r, csj10, (0xa2bbf1b567552e2b, 6653, 114215, [105322, 16012, 6653, 0, 164671])),
        ("roads CSJ(3)", r, csj3, (0x8c9283bc13eb58a7, 7635, 124695, [43614, 15030, 7635, 0, 164671])),
        ("roads CSJ(0)", r, ParallelAlgo::Csj(0), (0x0356d9d04cfb1457, 22665, 226650, [0, 0, 22665, 0, 164671])),
        ("roads N-CSJ", r, ParallelAlgo::Ncsj, (0x8fbc1504356af719, 22665, 226650, [0, 0, 0, 0, 164671])),
        ("roads CSJ(10) ball", r.with_group_shape(Ball), csj10, (0xdddc33118f9ad46a, 6344, 111770, [103926, 16321, 6344, 0, 164671])),
        ("roads CSJ(10) L-inf", r.with_metric(Chebyshev), csj10, (0xea266889a74d22d7, 5044, 102500, [97294, 20081, 5044, 0, 898775])),
    ];
    for (label, cfg, algo, want) in cases {
        let got = match label.split(' ').next() {
            Some("clusters") => sequential_pin(&ct, clustered.len(), cfg, algo),
            Some("M-tree") => sequential_pin(&cm, clustered.len(), cfg, algo),
            _ => sequential_pin(&rt, roads.len(), cfg, algo),
        };
        assert_eq!(got, want, "{label}: digest, rows, bytes, counters");
    }
}
