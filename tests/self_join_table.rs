//! The three self-joins as one table over `ParallelAlgo`: SSJ (§IV-A),
//! N-CSJ (SSJ plus the early-stop rule, §IV-B) and CSJ(g) (N-CSJ plus the
//! merge window, §IV-C), checked on the sequential runner against brute
//! force and against each other.

use csj_core::brute::{brute_force_links, brute_force_links_metric};
use csj_core::{GroupShapeKind, JoinConfig, JoinOutput, OutputItem, ParallelAlgo, ResilientJoin};
use csj_geom::{Metric, Point};
use csj_index::mtree::{MTree, MTreeConfig};
use csj_index::{rstar::RStarTree, rtree::RTree, JoinIndex, RTreeConfig};
use csj_storage::{CountingSink, OutputWriter};
use proptest::prelude::*;

const ALGOS: [ParallelAlgo; 3] = [ParallelAlgo::Ssj, ParallelAlgo::Ncsj, ParallelAlgo::Csj(10)];

fn run<T: JoinIndex<D>, const D: usize>(
    cfg: JoinConfig,
    algo: ParallelAlgo,
    tree: &T,
) -> JoinOutput {
    ResilientJoin::with_config(cfg, algo).run(tree).expect("in-memory run cannot fail")
}

fn join<T: JoinIndex<D>, const D: usize>(eps: f64, algo: ParallelAlgo, tree: &T) -> JoinOutput {
    run(JoinConfig::new(eps), algo, tree)
}

/// Three clusters of 8 plus two isolated points.
fn clusters() -> Vec<Point<2>> {
    let mut pts = Vec::new();
    for (cx, cy) in [(0.1, 0.1), (0.5, 0.6), (0.85, 0.2)] {
        for i in 0..8 {
            let (dx, dy) = ((i % 3) as f64 * 0.01, (i / 3) as f64 * 0.01);
            pts.push(Point::new([cx + dx, cy + dy]));
        }
    }
    pts.push(Point::new([0.99, 0.99]));
    pts.push(Point::new([0.0, 0.95]));
    pts
}

/// An `n_side × n_side` lattice: subtrees the early-stop rule collapses.
fn grid(n_side: usize, spacing: f64) -> Vec<Point<2>> {
    (0..n_side * n_side)
        .map(|k| Point::new([(k / n_side) as f64 * spacing, (k % n_side) as f64 * spacing]))
        .collect()
}

/// A thin wavy stripe: plenty of cross-node links for the window.
fn stripe(n: usize) -> Vec<Point<2>> {
    (0..n)
        .map(|i| {
            let t = i as f64 / n as f64;
            Point::new([t, (t * 43.0).sin() * 0.02])
        })
        .collect()
}

#[test]
fn every_algorithm_matches_brute_force_across_eps() {
    let cases = [
        (clusters(), 4, [0.0, 0.01, 0.05, 0.2, 0.7, 2.0]),
        (grid(12, 0.02), 6, [0.0, 0.015, 0.05, 0.1, 0.5, 1.0]),
        (stripe(180), 8, [0.0, 0.005, 0.02, 0.1, 0.5, 1.5]),
    ];
    for (pts, fanout, sweep) in cases {
        let tree = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(fanout));
        for eps in sweep {
            let want = brute_force_links(&pts, eps);
            for algo in ALGOS {
                let out = join(eps, algo, &tree);
                assert_eq!(out.expanded_link_set(), want, "{algo:?} eps={eps}");
                match algo {
                    ParallelAlgo::Ssj => assert_eq!(out.num_groups(), 0, "SSJ never groups"),
                    ParallelAlgo::Csj(_) => assert_eq!(out.num_links(), 0, "CSJ only groups"),
                    ParallelAlgo::Ncsj => {}
                }
            }
        }
    }
}

#[test]
fn csj_is_lossless_for_every_window() {
    let pts = stripe(250);
    let tree = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(6));
    let eps = 0.03;
    let want = brute_force_links(&pts, eps);
    for g in [0usize, 1, 2, 5, 10, 50, 100] {
        let out = join(eps, ParallelAlgo::Csj(g), &tree);
        assert_eq!(out.expanded_link_set(), want, "g={g}");
        assert_eq!(out.num_links(), 0, "CSJ emits only groups (g={g})");
    }
}

#[test]
fn every_algorithm_runs_on_the_r_rstar_and_m_trees() {
    for (pts, eps) in [(grid(9, 0.03), 0.1), (stripe(150), 0.04)] {
        let want = brute_force_links(&pts, eps);
        let rstar = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(6));
        let rtree = RTree::from_points(&pts, RTreeConfig::with_max_fanout(6));
        let mtree = MTree::from_points(&pts, MTreeConfig::with_max_fanout(6));
        for algo in ALGOS {
            assert_eq!(join(eps, algo, &rstar).expanded_link_set(), want, "{algo:?} R*");
            assert_eq!(join(eps, algo, &rtree).expanded_link_set(), want, "{algo:?} R");
            assert_eq!(join(eps, algo, &mtree).expanded_link_set(), want, "{algo:?} M");
        }
    }
}

#[test]
fn ssj_emits_each_link_once_and_prunes() {
    let pts = clusters();
    let tree = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(4));
    let out = join(0.3, ParallelAlgo::Ssj, &tree);
    assert_eq!(out.num_links(), out.expanded_link_set().len(), "each link emitted once");
    let n = pts.len() as u64;
    let out = join(0.02, ParallelAlgo::Ssj, &tree);
    assert!(
        out.stats.distance_computations < n * (n - 1) / 2,
        "tree join must beat brute force on clustered data: {} comparisons",
        out.stats.distance_computations
    );
    assert!(out.stats.pairs_pruned > 0);
}

#[test]
fn every_algorithm_honours_the_chebyshev_metric() {
    let pts = clusters();
    let tree = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(4));
    let metric = Metric::Chebyshev;
    let want = brute_force_links_metric(&pts, 0.1, metric);
    for algo in ALGOS {
        let out = run(JoinConfig::new(0.1).with_metric(metric), algo, &tree);
        assert_eq!(out.expanded_link_set(), want, "{algo:?}");
    }
}

#[test]
fn access_log_is_recorded_only_when_armed() {
    let tree = RStarTree::from_points(&clusters(), RTreeConfig::with_max_fanout(4));
    for algo in ALGOS {
        let armed = run(JoinConfig::new(0.1).with_access_log(), algo, &tree);
        assert!(!armed.stats.access_log.expect("log armed").is_empty(), "{algo:?}");
        assert!(join(0.1, algo, &tree).stats.access_log.is_none(), "{algo:?}");
    }
}

#[test]
fn empty_and_singleton_trees_produce_no_rows() {
    let empty = RStarTree::<2>::new(RTreeConfig::default());
    let one = RStarTree::from_points(&[Point::new([0.5, 0.5])], RTreeConfig::default());
    for algo in ALGOS {
        let out = join(0.5, algo, &empty);
        assert!(out.items.is_empty(), "{algo:?}");
        assert_eq!(out.stats.node_visits, 0, "{algo:?}");
        assert!(join(0.1, algo, &one).items.is_empty(), "{algo:?}: one point, no rows");
    }
}

/// Streams `algo` over `tree` and checks the bytes and counters against
/// the collected run's.
fn assert_streamed_equals_collected<T: JoinIndex<2>>(tree: &T, eps: f64, width: usize) {
    for algo in ALGOS {
        let join = ResilientJoin::new(eps, algo);
        let collected = join.run(tree).expect("in memory");
        let mut writer = OutputWriter::new(CountingSink::new(), width);
        let streamed = join.run_streaming(tree, &mut writer).expect("counting sink");
        assert_eq!(collected.total_bytes(width), writer.bytes_written(), "{algo:?}");
        assert_eq!(collected.stats, streamed.stats, "{algo:?}");
    }
}

#[test]
fn streamed_bytes_and_counters_equal_collected() {
    let cluster_tree = RTree::from_points(&clusters(), RTreeConfig::with_max_fanout(5));
    assert_streamed_equals_collected(&cluster_tree, 0.25, 4);
    let stripe_tree = RStarTree::from_points(&stripe(220), RTreeConfig::with_max_fanout(8));
    assert_streamed_equals_collected(&stripe_tree, 0.05, 3);
}

#[test]
fn ncsj_collapses_a_subtree_within_eps_into_one_group() {
    let pts = grid(10, 0.001);
    let tree = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(8));
    // The whole dataset's diameter is far below ε: the root early-stops.
    let out = join(0.5, ParallelAlgo::Ncsj, &tree);
    assert_eq!(out.num_groups(), 1);
    assert_eq!(out.num_links(), 0);
    assert_eq!(out.stats.early_stops_node, 1);
    assert_eq!(out.stats.distance_computations, 0, "no distances needed");
    match out.items.get(0) {
        Some(OutputItem::Group(ids)) => assert_eq!(ids.len(), 100),
        other => panic!("expected group, got {other:?}"),
    }
}

#[test]
fn ncsj_at_small_eps_degenerates_to_ssj() {
    // ε below every leaf diameter: "otherwise, N-CSJ will reduce to SSJ".
    let pts = grid(10, 0.05);
    let tree = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(4));
    let eps = 0.05; // direct grid neighbours only
    let ncsj = join(eps, ParallelAlgo::Ncsj, &tree);
    let ssj = join(eps, ParallelAlgo::Ssj, &tree);
    assert_eq!(ncsj.expanded_link_set(), ssj.expanded_link_set());
    assert!(ncsj.total_bytes(3) <= ssj.total_bytes(3));
}

#[test]
fn ncsj_never_compares_more_than_ssj() {
    let pts = grid(14, 0.01);
    let tree = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(6));
    for eps in [0.01, 0.05, 0.2] {
        let ncsj = join(eps, ParallelAlgo::Ncsj, &tree);
        let ssj = join(eps, ParallelAlgo::Ssj, &tree);
        assert!(
            ncsj.stats.distance_computations <= ssj.stats.distance_computations,
            "eps={eps}: {} > {}",
            ncsj.stats.distance_computations,
            ssj.stats.distance_computations
        );
        assert!(ncsj.total_bytes(3) <= ssj.total_bytes(3), "eps={eps}");
    }
}

#[test]
fn group_rows_have_at_least_two_members() {
    let tree = RStarTree::from_points(&grid(11, 0.02), RTreeConfig::with_max_fanout(5));
    for algo in [ParallelAlgo::Ncsj, ParallelAlgo::Csj(10)] {
        let out = join(0.08, algo, &tree);
        assert!(out.num_groups() > 0, "{algo:?}");
        for item in &out.items {
            if let OutputItem::Group(ids) = item {
                assert!(ids.len() >= 2, "{algo:?}: {ids:?}");
            }
        }
    }
}

#[test]
fn output_bytes_are_ordered_csj_ncsj_ssj() {
    let tree = RStarTree::from_points(&stripe(300), RTreeConfig::with_max_fanout(8));
    for eps in [0.01, 0.05, 0.2] {
        let [ssj, ncsj, csj] = ALGOS.map(|algo| join(eps, algo, &tree).total_bytes(3));
        assert!(csj <= ncsj, "eps={eps}: CSJ {csj} > N-CSJ {ncsj}");
        assert!(ncsj <= ssj, "eps={eps}: N-CSJ {ncsj} > SSJ {ssj}");
    }
}

#[test]
fn csj_merging_compacts_cross_node_links() {
    let tree = RStarTree::from_points(&stripe(300), RTreeConfig::with_max_fanout(8));
    let out = join(0.05, ParallelAlgo::Csj(10), &tree);
    assert!(out.stats.merges_succeeded > 0, "window merges must happen");
    assert!(
        out.stats.rows_emitted() < out.implied_links(),
        "rows {} vs implied links {}",
        out.stats.rows_emitted(),
        out.implied_links()
    );
}

#[test]
fn csj_bigger_window_never_hurts_output_much() {
    // The paper's Figure 6 trend, loosely: g = 10 is no worse than g = 1
    // and g = 100 adds little over g = 10.
    let tree = RStarTree::from_points(&stripe(400), RTreeConfig::with_max_fanout(8));
    let bytes = |g: usize| join(0.04, ParallelAlgo::Csj(g), &tree).total_bytes(3) as f64;
    let (b1, b10, b100) = (bytes(1), bytes(10), bytes(100));
    assert!(b10 <= b1 * 1.001, "g=10 ({b10}) worse than g=1 ({b1})");
    assert!(b100 <= b10 * 1.001, "g=100 ({b100}) worse than g=10 ({b10})");
}

#[test]
fn csj_tight_and_ball_groups_stay_lossless() {
    let pts = stripe(250);
    let tree = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(8));
    let eps = 0.05;
    let want = brute_force_links(&pts, eps);
    let cfg = JoinConfig::new(eps);
    let loose = run(cfg, ParallelAlgo::Csj(10), &tree);
    let tight = run(cfg.with_tight_groups(), ParallelAlgo::Csj(10), &tree);
    let ball = run(cfg.with_group_shape(GroupShapeKind::Ball), ParallelAlgo::Csj(10), &tree);
    assert_eq!(loose.expanded_link_set(), want);
    assert_eq!(tight.expanded_link_set(), want);
    assert_eq!(ball.expanded_link_set(), want);
    // Tighter subtree-group shapes can only admit more merges.
    assert!(tight.stats.merges_succeeded >= loose.stats.merges_succeeded);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorems 1 & 2 as a property: CSJ(g) output expands to exactly
    /// the brute-force link set for arbitrary data, ε and g.
    #[test]
    fn csj_is_lossless(
        pts in prop::collection::vec(prop::array::uniform2(0.0f64..1.0), 0..180),
        eps in 0.0f64..0.7,
        g in 0usize..25,
        fanout in 4usize..12,
    ) {
        let points: Vec<Point<2>> = pts.into_iter().map(Point::new).collect();
        let tree = RStarTree::from_points(&points, RTreeConfig::with_max_fanout(fanout));
        let out = join(eps, ParallelAlgo::Csj(g), &tree);
        prop_assert_eq!(out.expanded_link_set(), brute_force_links(&points, eps));
    }

    /// All three algorithms agree on the link set, and byte sizes are
    /// ordered CSJ ≤ N-CSJ ≤ SSJ.
    #[test]
    fn algorithm_family_consistency(
        pts in prop::collection::vec(prop::array::uniform2(0.0f64..1.0), 2..120),
        eps in 0.01f64..0.5,
    ) {
        let points: Vec<Point<2>> = pts.into_iter().map(Point::new).collect();
        let tree = RStarTree::from_points(&points, RTreeConfig::with_max_fanout(6));
        let want = brute_force_links(&points, eps);
        let [ssj, ncsj, csj] = ALGOS.map(|algo| join(eps, algo, &tree));
        prop_assert_eq!(ssj.expanded_link_set(), want.clone());
        prop_assert_eq!(ncsj.expanded_link_set(), want.clone());
        prop_assert_eq!(csj.expanded_link_set(), want);
        prop_assert!(csj.total_bytes(3) <= ncsj.total_bytes(3));
        prop_assert!(ncsj.total_bytes(3) <= ssj.total_bytes(3));
    }
}
