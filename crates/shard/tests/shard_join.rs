//! End-to-end supervisor tests on the hermetic in-process transport:
//! the sharded join must write the sequential join's bytes at any shard
//! count and under any fault schedule the retry budget absorbs, and
//! must degrade to `Completion::Partial` — not an error — beyond it.

use std::time::Duration;

use csj_core::parallel::ParallelAlgo;
use csj_core::{Completion, JoinOutput, ResilientJoin, StopReason};
use csj_geom::Point;
use csj_index::{rstar::RStarTree, RTreeConfig};
use csj_shard::{InProcessTransport, ShardFaultPlan, ShardJoin};
use csj_storage::{CountingSink, OutputWriter, VecSink};

/// Deterministic scatter in the unit square (no RNG dependency).
fn scatter(n: usize, seed: u64) -> Vec<Point<2>> {
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n).map(|_| Point::new([next(), next()])).collect()
}

/// The sequential join on `csj join`'s tree.
fn sequential(pts: &[Point<2>], eps: f64, algo: ParallelAlgo) -> JoinOutput {
    let tree = RStarTree::bulk_load_str(pts, RTreeConfig::default());
    ResilientJoin::new(eps, algo).run(&tree).expect("sequential join")
}

/// The bytes `output` writes at the width `csj join` uses for `n` ids.
fn bytes(output: &JoinOutput, n: usize) -> String {
    let mut writer = OutputWriter::new(VecSink::new(), OutputWriter::<VecSink>::id_width_for(n));
    output.write_to(&mut writer).expect("vec sink cannot fail");
    writer.sink().as_str().to_string()
}

#[test]
fn sharded_matches_sequential_across_shard_counts_and_algos() {
    let transport = InProcessTransport::new();
    for (n, seed) in [(0usize, 1u64), (1, 2), (40, 3), (300, 4)] {
        let pts = scatter(n, seed);
        for algo in [ParallelAlgo::Ssj, ParallelAlgo::Ncsj, ParallelAlgo::Csj(8)] {
            let want = sequential(&pts, 0.07, algo);
            for shards in [1usize, 2, 3, 5, 9] {
                let run = ShardJoin::new(0.07, algo)
                    .with_shards(shards)
                    .run(&pts, &transport)
                    .expect("clean sharded run");
                assert_eq!(run.output.completion, Completion::Complete);
                let label = format!("n={n} algo={algo:?} shards={shards}");
                assert_eq!(bytes(&run.output, n), bytes(&want, n), "{label}");
                assert_eq!(
                    run.output.stats.distance_computations,
                    want.stats.distance_computations
                );
            }
        }
    }
}

#[test]
fn fault_schedule_within_budget_recovers_bit_identical() {
    let pts = scatter(400, 11);
    let algo = ParallelAlgo::Csj(8);
    let want = bytes(&sequential(&pts, 0.06, algo), pts.len());
    // Shard 0 crashes on its first attempt, shard 1 straggles (and loses
    // to a speculative twin), shard 2 garbles its first result frame.
    let plan = ShardFaultPlan::none()
        .kill(&[0], 1)
        .delay(&[1], 1, Duration::from_millis(400))
        .garble(&[2], 1);
    let run = ShardJoin::new(0.06, algo)
        .with_shards(3)
        .with_max_attempts(3)
        .with_speculation(Duration::from_millis(60))
        .with_fault_plan(plan)
        .run(&pts, &InProcessTransport::new())
        .expect("faults within the retry budget are absorbed");
    assert_eq!(run.output.completion, Completion::Complete);
    assert_eq!(bytes(&run.output, pts.len()), want, "recovery must be bit-identical");
    assert!(run.output.stats.shard_retries >= 2, "kill + garble retries must be counted");
    assert!(
        run.output.stats.shard_speculative_wins >= 1,
        "the straggler's twin must win: {:?}",
        run.reports
    );
    assert!(run.reports.iter().any(|r| r.attempts > 1 && r.completed));
}

#[test]
fn stalled_worker_is_reaped_by_heartbeat_grace_and_retried() {
    let pts = scatter(120, 13);
    let algo = ParallelAlgo::Ssj;
    let want = bytes(&sequential(&pts, 0.08, algo), pts.len());
    let run = ShardJoin::new(0.08, algo)
        .with_shards(2)
        .with_heartbeat(Duration::from_millis(10), 6)
        .with_fault_plan(ShardFaultPlan::none().stall(&[1], 1))
        .run(&pts, &InProcessTransport::new())
        .expect("a stalled worker is reaped and retried");
    assert_eq!(run.output.completion, Completion::Complete);
    assert_eq!(bytes(&run.output, pts.len()), want);
    assert!(run.output.stats.shard_retries >= 1);
}

#[test]
fn second_timeout_triggers_adaptive_resplit() {
    let pts = scatter(200, 17);
    let algo = ParallelAlgo::Csj(8);
    let want = bytes(&sequential(&pts, 0.06, algo), pts.len());
    // Shard 0 exceeds its deadline twice (the delay heartbeats, so only
    // the deadline can reap it); the supervisor then replaces it with
    // its two halves, whose keys the fault plan does not match.
    let plan = ShardFaultPlan::none().delay(&[0], 1, Duration::from_millis(900)).delay(
        &[0],
        2,
        Duration::from_millis(900),
    );
    let run = ShardJoin::new(0.06, algo)
        .with_shards(2)
        .with_max_attempts(4)
        .with_task_deadline(Duration::from_millis(150))
        .with_fault_plan(plan)
        .run(&pts, &InProcessTransport::new())
        .expect("re-split absorbs the repeated timeout");
    assert_eq!(run.output.completion, Completion::Complete);
    assert_eq!(bytes(&run.output, pts.len()), want, "re-split must not change output");
    assert!(run.output.stats.shard_resplits >= 1, "reports: {:?}", run.reports);
    assert!(run.output.stats.shard_timeouts >= 2);
    assert!(run.reports.iter().any(|r| r.resplit));
    assert!(run.reports.iter().any(|r| r.key.contains('.') && r.completed));
}

#[test]
fn kill_beyond_retry_budget_degrades_to_partial() {
    let pts = scatter(300, 19);
    let algo = ParallelAlgo::Csj(8);
    let plan = ShardFaultPlan::none().kill(&[0], 1).kill(&[0], 2);
    let run = ShardJoin::new(0.06, algo)
        .with_shards(3)
        .with_max_attempts(2)
        .with_fault_plan(plan)
        .run(&pts, &InProcessTransport::new())
        .expect("losing one shard degrades, it does not error");
    match run.output.completion {
        Completion::Partial { reason, completed_fraction, .. } => {
            assert_eq!(reason, StopReason::ShardsLost);
            assert!(
                completed_fraction > 0.0 && completed_fraction < 1.0,
                "fraction {completed_fraction} must reflect the surviving shards"
            );
        }
        Completion::Complete => panic!("shard 0 failed beyond its budget"),
    }
    let lost = run.reports.iter().find(|r| !r.completed).expect("one shard lost");
    assert_eq!(lost.key, "0");
    assert_eq!(lost.attempts, 2);
    // Survivors are still lossless over their region: every emitted link
    // is a true sequential link.
    let truth = sequential(&pts, 0.06, algo).expanded_link_set();
    let got = run.output.expanded_link_set();
    assert!(!got.is_empty());
    assert!(got.is_subset(&truth), "partial output must only contain true links");
}

#[test]
fn partial_run_estimates_bytes_at_the_dataset_id_width() {
    // A lost shard's estimate extrapolates the measured bytes, which
    // must be what writing the surviving rows produces at the width the
    // CLI derives from the point count (2 and 3 digits here).
    for n in [80usize, 800] {
        let pts = scatter(n, 29);
        let plan = ShardFaultPlan::none().kill(&[0], 1).kill(&[0], 2);
        let run = ShardJoin::new(0.08, ParallelAlgo::Csj(8))
            .with_shards(3)
            .with_max_attempts(2)
            .with_fault_plan(plan)
            .run(&pts, &InProcessTransport::new())
            .expect("losing one shard degrades, it does not error");
        let mut writer =
            OutputWriter::new(CountingSink::new(), OutputWriter::<CountingSink>::id_width_for(n));
        run.output.write_to(&mut writer).expect("counting sink cannot fail");
        assert!(writer.bytes_written() > 0, "n={n}: the surviving shards wrote rows");
        let fraction = run.output.completion.completed_fraction();
        let expected = Completion::partial(
            StopReason::ShardsLost,
            fraction,
            run.output.implied_links(),
            writer.bytes_written(),
        );
        assert_eq!(run.output.completion, expected, "n={n}");
    }
}

#[test]
fn cancellation_kills_the_fleet_and_reports_partial() {
    let pts = scatter(150, 23);
    let token = csj_core::CancelToken::new();
    token.cancel();
    let run = ShardJoin::new(0.06, ParallelAlgo::Ssj)
        .with_shards(2)
        .with_cancel(&token)
        .run(&pts, &InProcessTransport::new())
        .expect("cancel is a degradation, not an error");
    match run.output.completion {
        Completion::Partial { reason, .. } => assert_eq!(reason, StopReason::Canceled),
        Completion::Complete => panic!("pre-canceled run cannot be complete"),
    }
}
