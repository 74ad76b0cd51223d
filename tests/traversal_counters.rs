//! Every runner of the Figure-3 recursion does the same traversal work.
//!
//! The resilient runner, the budgeted SSJ and the parallel runner split
//! the traversal into tasks; a split parent's own visit and the pairs it
//! pruned still belong to the run. Their traversal counters must equal
//! the sequential engine's, at any thread count and on every run.

use csj_core::estimate::BudgetedSsj;
use csj_core::parallel::{ParallelAlgo, ParallelJoin};
use csj_core::{CsjJoin, JoinStats, NcsjJoin, ResilientJoin, SsjJoin};
use csj_index::{rstar::RStarTree, RTreeConfig};

const EPS: f64 = 0.01;

/// The traversal counters, labelled for a readable failure.
fn traversal(stats: &JoinStats) -> [(&'static str, u64); 6] {
    [
        ("node_visits", stats.node_visits),
        ("pair_visits", stats.pair_visits),
        ("pairs_pruned", stats.pairs_pruned),
        ("early_stops_node", stats.early_stops_node),
        ("early_stops_pair", stats.early_stops_pair),
        ("distance_computations", stats.distance_computations),
    ]
}

fn tree() -> RStarTree<2> {
    let pts = csj_data::uniform::uniform::<2>(20_000, 7);
    RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(16))
}

fn sequential(algo: ParallelAlgo, tree: &RStarTree<2>) -> JoinStats {
    match algo {
        ParallelAlgo::Ssj => SsjJoin::new(EPS).run(tree).stats,
        ParallelAlgo::Ncsj => NcsjJoin::new(EPS).run(tree).stats,
        ParallelAlgo::Csj(g) => CsjJoin::new(EPS).with_window(g).run(tree).stats,
    }
}

const ALGOS: [ParallelAlgo; 3] = [ParallelAlgo::Ssj, ParallelAlgo::Ncsj, ParallelAlgo::Csj(10)];

#[test]
fn resilient_runner_counts_the_sequential_traversal() {
    let tree = tree();
    for algo in ALGOS {
        let seq = sequential(algo, &tree);
        let out = ResilientJoin::new(EPS, algo).run(&tree).expect("in-memory run");
        assert!(out.completion.is_complete());
        assert_eq!(traversal(&out.stats), traversal(&seq), "{algo:?}");
    }
}

#[test]
fn budgeted_ssj_counts_the_sequential_traversal() {
    let tree = tree();
    let seq = sequential(ParallelAlgo::Ssj, &tree);
    let est = BudgetedSsj::new(EPS, u64::MAX).run(&tree, 6);
    assert!(est.completed);
    assert_eq!(traversal(&est.stats), traversal(&seq));
}

#[test]
fn parallel_runner_counts_the_sequential_traversal_on_every_run() {
    let tree = tree();
    for algo in ALGOS {
        let seq = sequential(algo, &tree);
        for threads in [1, 2, 8] {
            let join = ParallelJoin::new(EPS, algo).with_threads(threads);
            for run in 0..2 {
                let out = join.run(&tree);
                assert!(out.completion.is_complete());
                assert_eq!(
                    traversal(&out.stats),
                    traversal(&seq),
                    "{algo:?}, {threads} threads, run {run}"
                );
            }
        }
    }
}
