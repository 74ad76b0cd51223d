//! End-to-end lossless-ness: every algorithm × every index × the paper's
//! dataset profiles (scaled down) × an ε sweep must represent exactly the
//! brute-force link set, with every group obeying the diameter bound.

use csj_core::egrid::GridJoin;
use csj_core::verify::verify_lossless;
use csj_core::{GroupShapeKind, JoinConfig, JoinOutput, ParallelAlgo, ResilientJoin};
use csj_geom::{Metric, Point};
use csj_index::mtree::{MTree, MTreeConfig};
use csj_index::quadtree::{QuadTree, QuadTreeConfig};
use csj_index::{rstar::RStarTree, rtree::RTree, JoinIndex, RTreeConfig, SplitStrategy};

/// Runs `algo` under `cfg` on the sequential runner.
fn run<T: JoinIndex<D>, const D: usize>(
    cfg: JoinConfig,
    algo: ParallelAlgo,
    tree: &T,
) -> JoinOutput {
    ResilientJoin::with_config(cfg, algo).run(tree).expect("in-memory run cannot fail")
}

/// Runs `algo` at range `eps` with default settings.
fn join<T: JoinIndex<D>, const D: usize>(eps: f64, algo: ParallelAlgo, tree: &T) -> JoinOutput {
    run(JoinConfig::new(eps), algo, tree)
}

fn mg_profile(n: usize) -> Vec<Point<2>> {
    csj_data::roads::road_network(&csj_data::roads::RoadConfig {
        n_points: n,
        cores: 3,
        core_sigma: 0.08,
        rural_fraction: 0.35,
        grid_snap_prob: 0.75,
        step: 0.004,
        mean_road_len: 0.05,
        seed: 0x4D47,
    })
}

#[test]
fn all_algorithms_all_rect_indexes_2d() {
    let pts = mg_profile(1_500);
    let cfg = RTreeConfig::with_max_fanout(16);
    let rstar_dyn = RStarTree::from_points(&pts, cfg);
    let rstar_str = RStarTree::bulk_load_str(&pts, cfg);
    let rstar_hil = RStarTree::bulk_load_hilbert(&pts, cfg);
    let rstar_omt = RStarTree::bulk_load_omt(&pts, cfg);
    let rtree_lin = RTree::from_points(&pts, cfg.with_split(SplitStrategy::Linear));
    let rtree_quad = RTree::from_points(&pts, cfg.with_split(SplitStrategy::Quadratic));

    for eps in [0.001953125, 0.03125, 0.25] {
        macro_rules! check {
            ($tree:expr, $label:literal) => {
                for out in [
                    join(eps, ParallelAlgo::Ssj, $tree),
                    join(eps, ParallelAlgo::Ncsj, $tree),
                    join(eps, ParallelAlgo::Csj(10), $tree),
                    join(eps, ParallelAlgo::Csj(1), $tree),
                ] {
                    verify_lossless(&out, &pts, eps, Metric::Euclidean)
                        .unwrap_or_else(|e| panic!("{} eps={eps}: {e}", $label));
                }
            };
        }
        check!(&rstar_dyn, "r*-dynamic");
        check!(&rstar_str, "r*-str");
        check!(&rstar_hil, "r*-hilbert");
        check!(&rstar_omt, "r*-omt");
        check!(&rtree_lin, "r-linear");
        check!(&rtree_quad, "r-quadratic");
    }
}

#[test]
fn all_algorithms_mtree_2d() {
    let pts = mg_profile(1_000);
    let tree = MTree::from_points(&pts, MTreeConfig::with_max_fanout(12));
    for eps in [0.01, 0.1] {
        for out in [
            join(eps, ParallelAlgo::Ssj, &tree),
            join(eps, ParallelAlgo::Ncsj, &tree),
            join(eps, ParallelAlgo::Csj(10), &tree),
        ] {
            verify_lossless(&out, &pts, eps, Metric::Euclidean)
                .unwrap_or_else(|e| panic!("m-tree eps={eps}: {e}"));
        }
    }
}

#[test]
fn all_algorithms_quadtree_2d() {
    let pts = mg_profile(1_000);
    let tree = QuadTree::build(&pts, QuadTreeConfig { capacity: 12, max_depth: 16 });
    for eps in [0.01, 0.1] {
        for out in [
            join(eps, ParallelAlgo::Ssj, &tree),
            join(eps, ParallelAlgo::Ncsj, &tree),
            join(eps, ParallelAlgo::Csj(10), &tree),
        ] {
            verify_lossless(&out, &pts, eps, Metric::Euclidean)
                .unwrap_or_else(|e| panic!("quadtree eps={eps}: {e}"));
        }
    }
}

#[test]
fn sierpinski_3d_lossless() {
    let pts = csj_data::sierpinski::pyramid_3d(1_200, 0x53);
    let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(16));
    for eps in [0.03125, 0.125, 0.5] {
        for out in [
            join(eps, ParallelAlgo::Ssj, &tree),
            join(eps, ParallelAlgo::Ncsj, &tree),
            join(eps, ParallelAlgo::Csj(10), &tree),
        ] {
            verify_lossless(&out, &pts, eps, Metric::Euclidean)
                .unwrap_or_else(|e| panic!("sierpinski eps={eps}: {e}"));
        }
    }
}

#[test]
fn grid_join_and_tree_join_agree() {
    let pts = mg_profile(1_200);
    let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(16));
    for eps in [0.01, 0.05] {
        let tree_out = join(eps, ParallelAlgo::Csj(10), &tree);
        let grid_out = GridJoin::new(eps).with_window(10).run(&pts);
        assert_eq!(tree_out.expanded_link_set(), grid_out.expanded_link_set(), "eps={eps}");
    }
}

#[test]
fn ball_groups_lossless_under_all_metrics() {
    let pts = mg_profile(800);
    let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(12));
    for metric in [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev] {
        let eps = 0.05;
        let cfg = JoinConfig::new(eps).with_metric(metric).with_group_shape(GroupShapeKind::Ball);
        let out = run(cfg, ParallelAlgo::Csj(10), &tree);
        verify_lossless(&out, &pts, eps, metric).unwrap_or_else(|e| panic!("{metric:?}: {e}"));
    }
}

#[test]
fn non_euclidean_metrics_lossless() {
    let pts = mg_profile(900);
    let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(12));
    for metric in [Metric::Manhattan, Metric::Chebyshev, Metric::Minkowski(3.0)] {
        for eps in [0.02, 0.2] {
            for algo in [ParallelAlgo::Ssj, ParallelAlgo::Ncsj, ParallelAlgo::Csj(10)] {
                let out = run(JoinConfig::new(eps).with_metric(metric), algo, &tree);
                verify_lossless(&out, &pts, eps, metric)
                    .unwrap_or_else(|e| panic!("{metric:?} eps={eps}: {e}"));
            }
        }
    }
}

#[test]
fn high_dimensional_join_is_lossless() {
    // The entire stack is generic over the dimension; exercise it at
    // D = 6 (the high-dimensional regime the paper's related work —
    // GESS, ε-grid-order — targets).
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(99);
    let pts: Vec<Point<6>> = (0..400)
        .map(|_| {
            let mut c = [0.0; 6];
            for v in c.iter_mut() {
                *v = rng.random::<f64>();
            }
            Point::new(c)
        })
        .collect();
    let tree = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(8));
    // In 6-D, eps must be sizable for any pairs to qualify.
    for eps in [0.4, 0.8] {
        for out in [
            join(eps, ParallelAlgo::Ssj, &tree),
            join(eps, ParallelAlgo::Ncsj, &tree),
            join(eps, ParallelAlgo::Csj(10), &tree),
        ] {
            verify_lossless(&out, &pts, eps, Metric::Euclidean)
                .unwrap_or_else(|e| panic!("6-d eps={eps}: {e}"));
        }
    }
    // The grid join handles 6-D too (3^6 − 1)/2 = 364 neighbour offsets.
    let grid = GridJoin::new(0.4).with_window(10).run(&pts);
    verify_lossless(&grid, &pts, 0.4, Metric::Euclidean).unwrap();
}
