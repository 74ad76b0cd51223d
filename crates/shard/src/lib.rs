//! csj-shard: fault-tolerant multi-process sharded execution for
//! compact similarity joins.
//!
//! The crate splits a self-join across worker processes (or threads, in
//! tests) and supervises them so that worker crashes, hangs, stragglers
//! and corrupt output degrade gracefully instead of failing the run:
//!
//! * [`plan`] — ε-boundary-strip slab partitioning with the
//!   min-id-owned exactly-once emission rule;
//! * [`frame`] — the length-prefixed, checksummed stdin/stdout frame
//!   protocol between supervisor and worker;
//! * [`worker`] — the worker side: run the shard-local join, filter to
//!   owned rows, heartbeat, execute injected fault directives;
//! * [`transport`] — process and in-process worker substrates behind
//!   one trait;
//! * [`supervisor`] — heartbeat liveness, deadlines, bounded retries
//!   with deterministic backoff jitter, straggler speculation, adaptive
//!   re-split, and deterministic partial merge;
//! * [`fault`] — the process-level [`ShardFaultPlan`] that makes every
//!   failure path reproducible.
//!
//! The headline contract: a fully successful sharded run produces the
//! same link set as the sequential join — at any shard count, under any
//! fault schedule the retry budget absorbs. Beyond the budget the run
//! returns [`csj_core::Completion::Partial`] with per-shard completed
//! fractions instead of an error.

#![warn(missing_docs)]

pub mod fault;
pub mod frame;
pub mod plan;
pub mod supervisor;
pub mod transport;
pub mod worker;

pub use fault::{FaultKind, ShardFaultPlan};
pub use plan::{plan_shards, shard_membership, ShardSpec};
pub use supervisor::{ShardJoin, ShardReport, ShardedOutput};
pub use transport::{InProcessTransport, ProcessTransport, WorkerTransport};
pub use worker::run_worker;

use csj_core::JoinOutput;

/// The canonical text form of a join output: the expanded link set as
/// sorted `"a b\n"` lines.
///
/// Two outputs with the same canonical form report the same joined
/// pairs, whatever their group representation or row order — this is
/// the form CI compares to assert that a sharded run (under faults)
/// matches the sequential join bit-for-bit.
pub fn canonical_link_lines(output: &JoinOutput) -> String {
    let mut text = String::new();
    for (a, b) in output.expanded_link_set() {
        text.push_str(&format!("{a} {b}\n"));
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use csj_core::{OutputItem, Rows};

    #[test]
    fn canonical_form_ignores_representation_and_order() {
        let grouped = JoinOutput {
            items: Rows::from_iter([OutputItem::Group(&[3, 1, 2])]),
            ..Default::default()
        };
        let linked = JoinOutput {
            items: Rows::from_iter([
                OutputItem::Link(2, 3),
                OutputItem::Link(1, 3),
                OutputItem::Link(1, 2),
            ]),
            ..Default::default()
        };
        assert_eq!(canonical_link_lines(&grouped), canonical_link_lines(&linked));
        assert_eq!(canonical_link_lines(&grouped), "1 2\n1 3\n2 3\n");
    }
}
