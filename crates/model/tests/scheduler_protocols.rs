//! Exhaustive exploration of the work-stealing scheduler's three core
//! protocols (mirrored from `csj_core::parallel` — see
//! `csj_model::protocols`) at preemption bound 2. Every test asserts
//! its invariants *inside* the model closure, so a pass here means no
//! schedule within the bound can violate them: tasks execute exactly
//! once, steal/donate neither duplicates nor drops work, stop and
//! cancellation quiesce every worker with consistent partial stats,
//! and splitting covers the parent's work exactly.
//!
//! Failures print a schedule trace; reproduce with
//! `csj_model::replay(&"<trace>".parse().unwrap(), <scenario>)`
//! (DESIGN.md §9 walks through the workflow).

use csj_model::protocols::{
    prefetch_scenario, quiesce_scenario, resplit_scenario, shard_retry_quiesce_scenario,
    steal_donate_scenario,
};
use csj_model::Config;

/// Steal/donate: three leaf tasks seeded on worker 0, worker 1 starts
/// starving. Donation feeds the pool, worker 1 steals; every task runs
/// exactly once and `stolen` counts exactly the cross-worker takes.
#[test]
fn steal_donate_protocol_exhausted_at_bound_2() {
    let report = Config::new().preemptions(2).check(|| steal_donate_scenario(3));
    report.assert_ok();
    assert!(
        report.executions > 100,
        "expected a real schedule space, explored only {}",
        report.executions
    );
}

/// Stop/cancel quiesce: two workers racing a canceller. Includes the
/// mid-steal window — cancel landing between a pool pop and the task's
/// execution — where the acquired task is dropped; accounting must
/// stay consistent (`pending == total - executed`, nothing lost,
/// nothing run twice).
#[test]
fn cancel_quiesce_protocol_exhausted_at_bound_2() {
    let report = Config::new().preemptions(2).check(|| quiesce_scenario(3));
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

/// Starvation-driven re-split: one splittable task, one starving peer.
/// The split must fire, and the children must cover the parent's
/// leaves exactly once no matter who wins the ensuing pool scramble.
#[test]
fn resplit_protocol_exhausted_at_bound_2() {
    let report = Config::new().preemptions(2).check(|| resplit_scenario(3));
    report.assert_ok();
    assert!(
        report.executions > 100,
        "expected a real schedule space, explored only {}",
        report.executions
    );
}
