//! Acceptance test for fault-tolerant join execution: a run whose pager
//! fails every 3rd page read (absorbed by bounded retries) under a
//! 10 000-link budget completes without panicking, reports the retries,
//! stops as `Partial` with extrapolated totals, and its output is
//! lossless over the processed region.

use csj_core::brute::brute_force_links;
use csj_core::outofcore::PagedSource;
use csj_core::parallel::ParallelAlgo;
use csj_core::{Completion, ResilientJoin, RunBudget, StopReason};
use csj_geom::Point;
use csj_index::{rstar::RStarTree, PagedTree, RTreeConfig};
use csj_storage::{FaultPolicy, RetryPolicy, SimulatedDisk};

/// Seven tight, well-separated clusters: ~285 points each, so the true
/// link set (~285k links at eps = 0.05) dwarfs the 10k budget.
fn clustered(n: usize) -> Vec<Point<2>> {
    (0..n)
        .map(|i| {
            let c = (i % 7) as f64 * 0.13;
            Point::new([c + ((i * 31) % 97) as f64 * 2e-4, c + ((i * 57) % 89) as f64 * 2e-4])
        })
        .collect()
}

#[test]
fn faulty_budgeted_join_survives_and_degrades_gracefully() {
    let pts = clustered(2_000);
    let eps = 0.05;
    let truth = brute_force_links(&pts, eps);
    assert!(truth.len() > 10_000, "need more true links than budget, got {}", truth.len());

    let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(10));
    // The tree on pages behind a four-page pool, so the join reads pages.
    let disk = SimulatedDisk::with_faults(FaultPolicy::fail_every_read(3));
    let paged = PagedTree::from_core(tree.core(), disk, RetryPolicy::no_backoff(4), 4)
        .expect("read faults do not affect writes");
    let out = ResilientJoin::new(eps, ParallelAlgo::Csj(10))
        .with_budget(RunBudget::unlimited().with_max_links(10_000))
        .run(PagedSource::new(&paged, None))
        .expect("transient faults are retried away; a budget stop is not an error");

    // Every 3rd page read failed once; the pager's retries absorbed them
    // and the count surfaces in the run's stats.
    assert!(out.stats.io_retries > 0, "io_retries must be reported in JoinStats");
    assert!(paged.stats().faults_injected > 0);

    match out.completion {
        Completion::Partial { reason, completed_fraction, estimated_links, estimated_bytes } => {
            assert_eq!(reason, StopReason::LinkBudget);
            assert!(
                completed_fraction > 0.0 && completed_fraction < 1.0,
                "fraction {completed_fraction}"
            );
            assert!(estimated_links > 0.0, "extrapolated link total must be populated");
            assert!(estimated_bytes > 0.0, "extrapolated byte total must be populated");
        }
        Completion::Complete => panic!("a 10k-link budget must trip on ~285k true links"),
    }

    // Lossless over the processed region: expanding the emitted links and
    // groups yields only true links (so every group is a valid ≤ eps set).
    let emitted = out.expanded_link_set();
    assert!(!emitted.is_empty());
    for link in &emitted {
        assert!(truth.contains(link), "emitted link {link:?} is not a true link");
    }
}

/// Sharded-supervisor acceptance: a worker killed on every attempt
/// exhausts its shard's retry budget; the run must degrade to
/// `Completion::Partial` with `StopReason::ShardsLost` and a completed
/// fraction matching the surviving shards — and stay lossless (only
/// true links) over the region they own. Workers whose pager also
/// fails every 3rd read still succeed via the storage retry loop,
/// composing the two fault-tolerance layers.
#[test]
fn sharded_kill_beyond_retries_degrades_to_partial() {
    use csj_shard::{InProcessTransport, ShardFaultPlan, ShardJoin};

    let pts = clustered(1_400);
    let eps = 0.05;
    let truth = brute_force_links(&pts, eps);

    let plan = ShardFaultPlan::none().kill(&[1], 1).kill(&[1], 2).kill(&[1], 3);
    let run = ShardJoin::new(eps, ParallelAlgo::Csj(10))
        .with_shards(4)
        .with_max_attempts(3)
        .with_fault_plan(plan)
        .with_pager_faults(3, 4) // every worker's pager fails every 3rd read
        .run(&pts, &InProcessTransport::new())
        .expect("a lost shard degrades the run, it does not error");

    match run.output.completion {
        Completion::Partial { reason, completed_fraction, estimated_links, estimated_bytes } => {
            assert_eq!(reason, StopReason::ShardsLost);
            assert!(
                completed_fraction > 0.5 && completed_fraction < 1.0,
                "3 of 4 roughly equal shards survived, got fraction {completed_fraction}"
            );
            assert!(estimated_links > 0.0 && estimated_bytes > 0.0);
        }
        Completion::Complete => {
            panic!("shard 1 died on all 3 attempts; the run cannot be complete")
        }
    }
    assert_eq!(run.output.stats.shard_retries, 2, "attempts 2 and 3 are retries");
    assert!(run.output.stats.io_retries > 0, "worker pager retries must surface in merged stats");
    let lost: Vec<_> = run.reports.iter().filter(|r| !r.completed).collect();
    assert_eq!(lost.len(), 1, "exactly one shard lost: {:?}", run.reports);
    assert_eq!(lost[0].key, "1");

    // Lossless over the surviving shards: nothing emitted is false.
    let emitted = run.output.expanded_link_set();
    assert!(!emitted.is_empty());
    for link in &emitted {
        assert!(truth.contains(link), "emitted link {link:?} is not a true link");
    }
}

/// A shard whose slice is one task cannot be re-split (its halves would
/// be an empty slice and the same task), so when that task outlasts the
/// deadline on every attempt the run spends the shard's budget and
/// degrades to `Partial { ShardsLost }` instead of re-splitting forever.
#[test]
fn sharded_one_task_slice_past_its_deadline_degrades_to_partial() {
    use csj_shard::{InProcessTransport, ShardFaultPlan, ShardJoin};
    use std::time::Duration;

    // 30 points make one leaf, so the task list is one entry: shard 1
    // runs it and shard 0's slice is empty.
    let pts = clustered(30);
    let slow = Duration::from_millis(900);
    let plan = (1..=3).fold(ShardFaultPlan::none(), |plan, a| plan.delay(&[1], a, slow));
    let run = ShardJoin::new(0.05, ParallelAlgo::Ssj)
        .with_shards(2)
        .with_max_attempts(3)
        .with_task_deadline(Duration::from_millis(150))
        .with_fault_plan(plan)
        .run(&pts, &InProcessTransport::new())
        .expect("a lost shard degrades the run, it does not error");
    let Completion::Partial { reason, completed_fraction, .. } = run.output.completion else {
        panic!("shard 1 timed out on every attempt: {:?}", run.reports)
    };
    assert_eq!((reason, completed_fraction), (StopReason::ShardsLost, 0.0));
    let shares: Vec<_> = run.reports.iter().map(|r| (r.key.as_str(), r.task_share)).collect();
    assert_eq!(shares, [("0", 0.0), ("1", 1.0)], "one task, run by shard 1");
    assert_eq!(run.output.stats.shard_resplits, 0);
    assert_eq!(run.output.stats.shard_timeouts, 3);
}
