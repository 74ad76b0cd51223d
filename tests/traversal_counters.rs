//! Every runner of the Figure-3 recursion does the same traversal work.
//!
//! The resilient runner (over an in-memory tree, under a link budget
//! that never trips, and over pages) and the parallel runner split the
//! traversal into tasks; a split parent's own visit and the pairs it
//! pruned still belong to the run. Their traversal counters must equal
//! those of the unsplit recursion, `Engine::run`, at any thread count
//! and on every run.

use csj_core::engine::{CollectSink, DirectEmit, Engine, LinkHandler, WindowedEmit};
use csj_core::group::MbrShape;
use csj_core::outofcore::PagedSource;
use csj_core::parallel::{ParallelAlgo, ParallelJoin};
use csj_core::{JoinConfig, JoinStats, ResilientJoin, RunBudget};
use csj_geom::Metric;
use csj_index::{rstar::RStarTree, PagedTree, RTreeConfig};
use csj_storage::{CountingSink, OutputWriter, RetryPolicy, SimulatedDisk};

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

/// The counters of `Engine::run`, the unsplit recursion.
fn sequential(algo: ParallelAlgo, tree: &RStarTree<2>) -> JoinStats {
    fn run<H: LinkHandler<2>>(tree: &RStarTree<2>, early_stop: bool, handler: H) -> JoinStats {
        let cfg = JoinConfig::new(EPS);
        let mut engine = Engine::new(tree, cfg, early_stop, handler, CollectSink::default());
        engine.run().expect("in-memory run");
        engine.stats
    }
    match algo {
        ParallelAlgo::Ssj => run(tree, false, DirectEmit),
        ParallelAlgo::Ncsj => run(tree, true, DirectEmit),
        ParallelAlgo::Csj(g) => {
            run(tree, true, WindowedEmit::<MbrShape<2>, 2>::new(g, EPS, Metric::Euclidean))
        }
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

/// The figure harness's SSJ estimate run: a link budget, rows counted.
#[test]
fn budgeted_ssj_counts_the_sequential_traversal() {
    let tree = tree();
    let seq = sequential(ParallelAlgo::Ssj, &tree);
    let mut writer = OutputWriter::new(CountingSink::new(), 6);
    let report = ResilientJoin::new(EPS, ParallelAlgo::Ssj)
        .with_budget(RunBudget::unlimited().with_max_links(u64::MAX))
        .run_streaming(&tree, &mut writer)
        .expect("a counting sink cannot fail");
    assert!(report.completion.is_complete());
    assert_eq!(traversal(&report.stats), traversal(&seq));
}

#[test]
fn resilient_runner_over_pages_counts_the_sequential_traversal() {
    let tree = tree();
    let paged =
        PagedTree::from_core(tree.core(), SimulatedDisk::new(), RetryPolicy::none(), 16).unwrap();
    for algo in ALGOS {
        let seq = sequential(algo, &tree);
        let out = ResilientJoin::new(EPS, algo).run(PagedSource::new(&paged, None)).unwrap();
        assert!(out.completion.is_complete());
        assert_eq!(traversal(&out.stats), traversal(&seq), "{algo:?}");
    }
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
