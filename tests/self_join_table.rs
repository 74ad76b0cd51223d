//! The three self-joins as one table over `ParallelAlgo`: SSJ (§IV-A),
//! N-CSJ (SSJ plus the early-stop rule, §IV-B) and CSJ(g) (N-CSJ plus the
//! merge window, §IV-C), checked on the sequential runner against brute
//! force and against each other, and on the parallel and sharded runners
//! against the sequential bytes.

use csj_core::brute::{brute_force_links, brute_force_links_metric};
use csj_core::parallel::ParallelJoin;
use csj_core::{
    GroupShapeKind, JoinConfig, JoinOutput, JoinStats, OutputItem, ParallelAlgo, ResilientJoin,
    RunBudget,
};
use csj_geom::{Metric, Point};
use csj_index::mtree::{MTree, MTreeConfig};
use csj_index::{rstar::RStarTree, rtree::RTree, JoinIndex, RTreeConfig};
use csj_storage::{CountingSink, OutputWriter, VecSink};
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

/// One dense cluster holding ~80% of the records plus a sparse
/// background: uneven tasks, so parallel workers finish out of order.
fn skewed(n: usize) -> Vec<Point<2>> {
    (0..n)
        .map(|i| {
            if i % 5 != 0 {
                let (dx, dy) = (((i * 31) % 97) as f64 * 3e-4, ((i * 57) % 89) as f64 * 3e-4);
                Point::new([0.5 + dx, 0.5 + dy])
            } else {
                Point::new([((i * 131) % 997) as f64 / 997.0, ((i * 277) % 983) as f64 / 983.0])
            }
        })
        .collect()
}

/// Seven tight clusters along the diagonal.
fn diagonal_clusters(n: usize) -> Vec<Point<2>> {
    (0..n)
        .map(|i| {
            let c = (i % 7) as f64 * 0.13;
            Point::new([c + ((i * 31) % 97) as f64 * 2e-4, c + ((i * 57) % 89) as f64 * 2e-4])
        })
        .collect()
}

/// The counters with the scheduler's own (threads, tasks) cleared.
fn traversal_and_output(mut stats: JoinStats) -> JoinStats {
    stats.threads_used = 0;
    stats.tasks_executed = 0;
    stats
}

/// The scheduler axis: `ParallelJoin` at 1, 2 and 8 threads, collected
/// and streamed, writes `ResilientJoin`'s bytes with all its counters
/// (merge attempts included) for SSJ, N-CSJ, CSJ(0) and CSJ(10).
#[test]
fn parallel_runs_write_the_sequential_bytes_and_counters() {
    let (stripe_pts, skewed_pts, clustered_pts) =
        (stripe(1_000), skewed(1_500), diagonal_clusters(2_000));
    let cases = [
        // Cross-node links the window must merge, in ball groups.
        (&stripe_pts, 10, JoinConfig::new(0.03).with_group_shape(GroupShapeKind::Ball)),
        // Splits and leaf probes in sweep order; the access log armed.
        (&skewed_pts, 8, JoinConfig::new(0.003).with_plane_sweep().with_access_log()),
        (&clustered_pts, 10, JoinConfig::new(0.004)),
    ];
    let width = 5;
    for (pts, fanout, cfg) in cases {
        let tree = RStarTree::bulk_load_str(pts, RTreeConfig::with_max_fanout(fanout));
        let truth = brute_force_links(pts, cfg.epsilon);
        for algo in
            [ParallelAlgo::Ssj, ParallelAlgo::Ncsj, ParallelAlgo::Csj(0), ParallelAlgo::Csj(10)]
        {
            let mut seq = OutputWriter::new(VecSink::new(), width);
            let want = ResilientJoin::with_config(cfg, algo)
                .run_streaming(&tree, &mut seq)
                .expect("vec sink cannot fail");
            let want_stats = traversal_and_output(want.stats);
            for threads in [1, 2, 8] {
                let join = ParallelJoin::with_config(cfg, algo).with_threads(threads);
                let label = format!("{algo:?}, {threads} threads, {cfg:?}");
                let collected = join.run(&tree);
                let mut written = OutputWriter::new(VecSink::new(), width);
                collected.write_to(&mut written).expect("vec sink cannot fail");
                assert_eq!(written.sink().as_str(), seq.sink().as_str(), "{label}: collected");
                assert_eq!(traversal_and_output(collected.stats), want_stats, "{label}: collected");
                let mut streamed = OutputWriter::new(VecSink::new(), width);
                let report =
                    join.run_streaming(&tree, &mut streamed).expect("vec sink cannot fail");
                assert_eq!(streamed.sink().as_str(), seq.sink().as_str(), "{label}: streamed");
                assert!(report.completion.is_complete(), "{label}");
                assert_eq!(report.stats.threads_used, threads as u64, "{label}");
                assert_eq!(traversal_and_output(report.stats), want_stats, "{label}: streamed");
            }
            let out = ResilientJoin::with_config(cfg, algo).run(&tree).expect("in memory");
            assert_eq!(out.expanded_link_set(), truth, "{algo:?}, {cfg:?}");
        }
    }
}

/// The scheduler axis, sharded: `ShardJoin` on the in-process transport
/// at 1, 2, 3 and 7 shards writes the bytes and counters of
/// `ResilientJoin` on `csj join`'s tree for SSJ, N-CSJ, CSJ(0) and
/// CSJ(10) — fault-free, with shard 1's first worker killed and retried,
/// and with shard 1 re-split after two deadline strikes.
#[test]
fn sharded_runs_write_the_sequential_bytes_and_counters() {
    use csj_shard::{InProcessTransport, ShardFaultPlan, ShardJoin};
    use std::time::Duration;

    let counters = |s: &JoinStats| {
        let merges = (s.merge_attempts, s.merges_succeeded);
        (s.links_emitted, s.groups_emitted, s.distance_computations, merges)
    };
    let transport = InProcessTransport::new();
    let straggle = Duration::from_secs(5);
    let resplit = ShardFaultPlan::none().delay(&[1], 1, straggle).delay(&[1], 2, straggle);
    for (pts, eps) in [(stripe(1_200), 0.03), (diagonal_clusters(1_500), 0.004)] {
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::default());
        let width = OutputWriter::<VecSink>::id_width_for(pts.len());
        for algo in
            [ParallelAlgo::Ssj, ParallelAlgo::Ncsj, ParallelAlgo::Csj(0), ParallelAlgo::Csj(10)]
        {
            let mut seq = OutputWriter::new(VecSink::new(), width);
            let want = ResilientJoin::new(eps, algo)
                .run_streaming(&tree, &mut seq)
                .expect("vec sink cannot fail");
            let check = |label: String, join: ShardJoin| {
                let label = format!("{algo:?}, {label}, eps {eps}");
                let run = join.run(&pts, &transport).expect("faults within the budget");
                assert!(run.output.completion.is_complete(), "{label}");
                let mut written = OutputWriter::new(VecSink::new(), width);
                run.output.write_to(&mut written).expect("vec sink cannot fail");
                assert_eq!(written.sink().as_str(), seq.sink().as_str(), "{label}");
                assert_eq!(counters(&run.output.stats), counters(&want.stats), "{label}");
                run.output.stats
            };
            for shards in [1, 2, 3, 7] {
                let join = ShardJoin::new(eps, algo).with_shards(shards).with_max_attempts(2);
                assert_eq!(check(format!("{shards} shards"), join.clone()).shard_retries, 0);
                let killed = join.with_fault_plan(ShardFaultPlan::none().kill(&[1], 1));
                let stats = check(format!("{shards} shards, kill"), killed);
                assert_eq!(stats.shard_retries, u64::from(shards > 1), "{algo:?}, {shards}");
            }
            let deadline = Duration::from_millis(300);
            let split = ShardJoin::new(eps, algo).with_shards(3).with_task_deadline(deadline);
            let stats = check("3 shards, re-split".into(), split.with_fault_plan(resplit.clone()));
            assert!(stats.shard_resplits >= 1, "{algo:?}: no re-split");
        }
    }
}

/// `csj join --max-links` with `--threads 2` or `8`: the run stops at a
/// committed task, so the SSJ and N-CSJ files are byte prefixes of the
/// complete sequential file, and a stopped CSJ(10) run stays lossless.
#[test]
fn parallel_budget_stop_writes_a_prefix_of_the_sequential_file() {
    let pts = diagonal_clusters(2_000);
    let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(10));
    let (eps, width) = (0.005, 5);
    let truth = brute_force_links(&pts, eps);
    for algo in ALGOS {
        let full = join(eps, algo, &tree);
        let mut seq = OutputWriter::new(VecSink::new(), width);
        full.write_to(&mut seq).expect("vec sink cannot fail");
        let budget = RunBudget::unlimited().with_max_links(full.implied_links() / 3);
        for threads in [2, 8] {
            let out =
                ParallelJoin::new(eps, algo).with_threads(threads).with_budget(budget).run(&tree);
            let mut par = OutputWriter::new(VecSink::new(), width);
            out.write_to(&mut par).expect("vec sink cannot fail");
            let label = format!("{algo:?} at {threads} threads");
            let fraction = out.completion.completed_fraction();
            assert!(0.0 < fraction && fraction < 1.0, "{label}: fraction {fraction}");
            assert!(out.expanded_link_set().is_subset(&truth), "{label}: a false link");
            if algo != ParallelAlgo::Csj(10) {
                // CSJ(g) drains its window at the stop, so its tail differs.
                let (par, seq) = (par.sink().as_str(), seq.sink().as_str());
                assert!(seq.starts_with(par), "{label}: {} bytes are no prefix", par.len());
            }
        }
    }
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
