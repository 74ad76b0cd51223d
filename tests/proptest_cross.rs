//! Cross-crate property tests: random data through the whole pipeline.

use csj_core::brute::{brute_force_cross_links, brute_force_links_metric, parse_cross_links};
use csj_core::egrid::GridJoin;
use csj_core::spatial::SpatialJoin;
use csj_core::verify::verify_lossless;
use csj_core::{GroupShapeKind, JoinConfig, JoinOutput, ParallelAlgo, ResilientJoin};
use csj_geom::{Metric, Point};
use csj_index::mtree::{MTree, MTreeConfig};
use csj_index::{rstar::RStarTree, rtree::RTree, JoinIndex, RTreeConfig, SplitStrategy};
use csj_storage::{OutputWriter, VecSink};
use proptest::prelude::*;

/// Runs `algo` at range `eps` on the sequential runner.
fn join<T: JoinIndex<D>, const D: usize>(eps: f64, algo: ParallelAlgo, tree: &T) -> JoinOutput {
    ResilientJoin::new(eps, algo).run(tree).expect("in-memory run cannot fail")
}

fn arb_points_2d(max: usize) -> impl Strategy<Value = Vec<Point<2>>> {
    prop::collection::vec(prop::array::uniform2(0.0f64..1.0), 0..max)
        .prop_map(|v| v.into_iter().map(Point::new).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every (algorithm, index, shape) combination is lossless and every
    /// group respects the diameter bound — Theorems 1 & 2, full stack.
    #[test]
    fn every_combination_is_lossless(
        pts in arb_points_2d(120),
        eps in 0.0f64..0.6,
        g in 0usize..15,
        fanout in 4usize..10,
        metric_idx in 0usize..3,
    ) {
        let metric = [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev][metric_idx];
        let cfg = RTreeConfig::with_max_fanout(fanout);
        let rstar = RStarTree::from_points(&pts, cfg);
        let rtree = RTree::from_points(&pts, cfg.with_split(SplitStrategy::Linear));
        let mtree = MTree::from_points(&pts, MTreeConfig::with_max_fanout(fanout).with_metric(metric));

        let join_cfg = JoinConfig::new(eps).with_metric(metric);
        let ball = join_cfg.with_group_shape(GroupShapeKind::Ball);
        let runs = [
            (join_cfg, ParallelAlgo::Ssj),
            (join_cfg, ParallelAlgo::Ncsj),
            (join_cfg, ParallelAlgo::Csj(g)),
            (ball, ParallelAlgo::Csj(g)),
        ];
        macro_rules! verify_all {
            ($tree:expr) => {
                for (cfg, algo) in runs {
                    let out = ResilientJoin::with_config(cfg, algo).run($tree).expect("in memory");
                    prop_assert!(verify_lossless(&out, &pts, eps, metric).is_ok());
                }
            };
        }
        verify_all!(&rstar);
        verify_all!(&rtree);
        verify_all!(&mtree);
    }

    /// The grid join agrees with the tree joins for arbitrary inputs.
    #[test]
    fn grid_equals_tree(
        pts in arb_points_2d(150),
        eps in 0.001f64..0.5,
    ) {
        let truth = brute_force_links_metric(&pts, eps, Metric::Euclidean);
        let grid = GridJoin::new(eps).with_window(10).run(&pts);
        prop_assert_eq!(grid.expanded_link_set(), truth.clone());
        let tree = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(6));
        let out = join(eps, ParallelAlgo::Csj(10), &tree);
        prop_assert_eq!(out.expanded_link_set(), truth);
    }

    /// Spatial joins across mixed index types are lossless.
    #[test]
    fn spatial_mixed_indexes_lossless(
        lp in arb_points_2d(80),
        rp in arb_points_2d(80),
        eps in 0.0f64..0.4,
    ) {
        let lt = RStarTree::from_points(&lp, RTreeConfig::with_max_fanout(5));
        let rt = MTree::from_points(&rp, MTreeConfig::with_max_fanout(5));
        let truth = brute_force_cross_links(&lp, &rp, eps, Metric::Euclidean);
        for algo in [ParallelAlgo::Ssj, ParallelAlgo::Ncsj, ParallelAlgo::Csj(6)] {
            let mut writer = OutputWriter::new(VecSink::new(), 2);
            SpatialJoin::new(eps, algo)
                .run_streaming(&lt, &rt, &mut writer)
                .expect("vec sink cannot fail");
            prop_assert_eq!(parse_cross_links(writer.sink().as_str()), Some(truth.clone()));
        }
    }

    /// Byte accounting is internally consistent: total_bytes equals the
    /// sum over rows, and CSJ output is never larger than SSJ's.
    #[test]
    fn byte_accounting_consistent(
        pts in arb_points_2d(100),
        eps in 0.01f64..0.5,
    ) {
        let tree = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(6));
        let ssj = join(eps, ParallelAlgo::Ssj, &tree);
        let csj = join(eps, ParallelAlgo::Csj(10), &tree);
        let width = 3;
        let per_item: u64 = csj.items.iter().map(|i| i.format_bytes(width)).sum();
        prop_assert_eq!(csj.total_bytes(width), per_item);
        prop_assert!(csj.total_bytes(width) <= ssj.total_bytes(width));
    }
}
