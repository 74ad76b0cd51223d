//! Exhaustive exploration of the join's concurrency protocols (mirrored
//! from `csj_core::parallel`, `csj_core::outofcore` and
//! `csj_shard::supervisor` — see `csj_model::protocols`) at preemption
//! bound 2 or 3. Every test asserts its invariants *inside* the model
//! closure, so a pass here means no schedule within the bound can
//! violate them: tasks run once and commit once in order, a cancel
//! quiesces every worker behind an in-order prefix, shard retries stay
//! bounded, and read-ahead delivers every page once.
//!
//! Failures print a schedule trace; reproduce with
//! `csj_model::replay(&"<trace>".parse().unwrap(), <scenario>)`
//! (DESIGN.md §9 walks through the workflow).

use csj_model::protocols::{
    claim_commit_scenario, prefetch_scenario, quiesce_scenario, shard_retry_quiesce_scenario,
};
use csj_model::Config;

/// Claim/commit: two workers claim three tasks from one cursor while
/// the committer takes them back in order. Every task runs once and is
/// committed once, in order, with the result its worker wrote.
#[test]
fn claim_commit_protocol_exhausted_at_bound_2() {
    let report = Config::new().preemptions(2).check(|| claim_commit_scenario(3));
    report.assert_ok();
    assert!(
        report.executions > 100,
        "expected a real schedule space, explored only {}",
        report.executions
    );
}

/// Stop/cancel quiesce: two workers and the committer racing a
/// canceller. Wherever the cancel lands — before a claim, between a
/// claim and its task, or between commits — the committed tasks are an
/// in-order prefix, nothing runs twice, and every thread quiesces. Two
/// tasks: with four threads that is already ~24k schedules.
#[test]
fn cancel_quiesce_protocol_exhausted_at_bound_2() {
    let report = Config::new().preemptions(2).check(|| quiesce_scenario(2));
    report.assert_ok();
    assert!(
        report.executions > 1000,
        "expected a real schedule space, explored only {}",
        report.executions
    );
}

/// Shard supervisor retry/quiesce, recovery path: attempt 1 is lost
/// (injected kill), attempt 2 delivers, a canceller races both. Under
/// every interleaving of the worker-lost event, the relaunch and the
/// cancel flag, the shard must end in exactly one terminal state with
/// `retries == attempts_used - 1` and no post-cancel launches.
#[test]
fn shard_retry_recovery_protocol_exhausted_at_bound_2() {
    let report = Config::new().preemptions(2).check(|| shard_retry_quiesce_scenario(false));
    report.assert_ok();
    assert!(
        report.executions > 100,
        "expected a real schedule space, explored only {}",
        report.executions
    );
}

/// Shard supervisor retry/quiesce, beyond-budget path: both attempts
/// are lost. The supervisor must mark the shard failed after exactly
/// `max_attempts` launches — never a third relaunch — or exit canceled,
/// under every schedule of the second loss vs. the cancel.
#[test]
fn shard_exhausted_budget_protocol_exhausted_at_bound_2() {
    let report = Config::new().preemptions(2).check(|| shard_retry_quiesce_scenario(true));
    report.assert_ok();
    assert!(
        report.executions > 100,
        "expected a real schedule space, explored only {}",
        report.executions
    );
}

/// Read-ahead handshake, clean path: every read-ahead succeeds. Under
/// every interleaving of two readers, the window refills, the engine's
/// waits on in-flight pages and the shutdown/join, each page's bytes
/// arrive exactly once, the window is never over-committed, and every
/// issued read ends useful or wasted.
#[test]
fn prefetch_handshake_protocol_exhausted_at_bound_3() {
    let report = Config::new().preemptions(3).check(|| prefetch_scenario(false));
    report.assert_ok();
    assert!(
        report.executions > 100,
        "expected a real schedule space, explored only {}",
        report.executions
    );
}

/// Read-ahead handshake, failure leg: one read-ahead fails. An engine
/// waiting on that page must be woken (a lost wake-up is a deadlock
/// here) and read it synchronously — same exactly-once delivery, same
/// accounting.
#[test]
fn prefetch_failed_readahead_protocol_exhausted_at_bound_3() {
    let report = Config::new().preemptions(3).check(|| prefetch_scenario(true));
    report.assert_ok();
    assert!(
        report.executions > 100,
        "expected a real schedule space, explored only {}",
        report.executions
    );
}
