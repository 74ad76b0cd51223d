//! A budgeted run over a page-resident tree is the same run as in memory.
//!
//! The resilient runner is the one sequential task loop for every node
//! source, so a link budget stops a paged join at the same root task as
//! an in-memory one: same rows, same counters and the same
//! `Completion` — stop reason, completed fraction and extrapolated
//! totals — at any pool size.

use csj_core::outofcore::PagedSource;
use csj_core::parallel::ParallelAlgo;
use csj_core::{ResilientJoin, RunBudget, StopReason};
use csj_index::{rstar::RStarTree, PagedTree, RTreeConfig};
use csj_storage::{RetryPolicy, SimulatedDisk};

const EPS: f64 = 0.03;

#[test]
fn budgeted_paged_run_matches_the_in_memory_run() {
    let pts = csj_data::uniform::uniform::<2>(3_000, 5);
    let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(12));
    let algos = [ParallelAlgo::Ssj, ParallelAlgo::Ncsj, ParallelAlgo::Csj(10)];
    // `None` is no budget at all.
    let budgets = [Some(0), Some(50), Some(5_000), None];
    for algo in algos {
        for max_links in budgets {
            let budget = max_links
                .map_or(RunBudget::unlimited(), |cap| RunBudget::unlimited().with_max_links(cap));
            let join = ResilientJoin::new(EPS, algo).with_budget(budget);
            let mem = join.run(&tree).expect("in-memory run");
            let label = format!("{algo:?}, max_links {max_links:?}");
            match max_links {
                Some(0 | 50) => {
                    assert_eq!(
                        mem.completion.stop_reason(),
                        Some(StopReason::LinkBudget),
                        "{label}"
                    );
                }
                None => assert!(mem.completion.is_complete(), "{label}"),
                Some(_) => {}
            }
            for pool in [2, 64] {
                let paged = PagedTree::from_core(
                    tree.core(),
                    SimulatedDisk::new(),
                    RetryPolicy::none(),
                    pool,
                )
                .expect("page the tree");
                let out = join.run(PagedSource::new(&paged, None)).expect("paged run");
                let label = format!("{label}, pool {pool}");
                assert_eq!(out.items, mem.items, "{label}: rows");
                assert_eq!(out.completion, mem.completion, "{label}: completion");
                assert_eq!(out.stats, mem.stats, "{label}: counters");
            }
        }
    }
}
