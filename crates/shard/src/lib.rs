//! csj-shard: fault-tolerant multi-process sharded execution for
//! compact similarity joins.
//!
//! The crate runs a self-join's ordered task stream across worker
//! processes (or threads, in tests) and supervises them so that worker
//! crashes, hangs, stragglers and corrupt output degrade gracefully
//! instead of failing the run:
//!
//! * [`plan`] — which slice of the key-ordered task list a shard's key
//!   runs;
//! * [`frame`] — the length-prefixed, checksummed stdin/stdout frame
//!   protocol between supervisor and worker;
//! * [`worker`] — the worker side: build the tree, run the key's slice
//!   of the task list, heartbeat, execute injected fault directives;
//! * [`transport`] — process and in-process worker substrates behind
//!   one trait;
//! * [`supervisor`] — heartbeat liveness, deadlines, bounded retries
//!   with deterministic backoff jitter, straggler speculation, adaptive
//!   re-split, and the in-order commit of the completed slices;
//! * [`fault`] — the process-level [`ShardFaultPlan`] that makes every
//!   failure path reproducible.
//!
//! The headline contract: a fully successful sharded run writes the
//! bytes of the sequential `csj join`, at any shard count and under any
//! fault schedule the retry budget absorbs. Beyond the budget the run
//! returns [`csj_core::Completion::Partial`] with the completed share of
//! the task list instead of an error.

#![warn(missing_docs)]

pub mod fault;
pub mod frame;
pub mod plan;
pub mod supervisor;
pub mod transport;
pub mod worker;

pub use fault::{FaultKind, ShardFaultPlan};
pub use supervisor::{ShardJoin, ShardReport, ShardedOutput};
pub use transport::{InProcessTransport, ProcessTransport, WorkerTransport};
pub use worker::run_worker;
