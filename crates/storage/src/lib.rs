//! Storage substrate for compact similarity joins.
//!
//! The paper measures two storage-facing quantities:
//!
//! * **Output size** — "the size in bytes of the resulting output text
//!   file", where "each data point is zero-padded to ensure it is
//!   represented by the same fixed number of bits", links are written as
//!   `0001 0002` lines and groups as `0001 0002 0003...` lines (§VI).
//!   [`writer`] reproduces that format byte-for-byte, over counting,
//!   in-memory or real-file sinks.
//! * **I/O behaviour** — Experiment 3 compares page / cache accesses and
//!   splits runtime into computation vs disk-write time. [`page`],
//!   [`buffer`] and [`pager`] provide a paged-storage simulation (one tree
//!   node ≈ one page) with an LRU buffer pool and hit/miss counters, and
//!   [`costmodel`] turns byte/page counts into deterministic,
//!   machine-independent time estimates.

//!
//! Out-of-core joins graduate this simulation to a real device: the
//! [`disk::Disk`] trait abstracts a page store, implemented by the
//! counting [`SimulatedDisk`] and by [`disk::FileDisk`], a real page
//! file using direct I/O where the platform permits it. The same
//! [`BufferPool`] then runs *live* — pin counts keep in-use pages
//! resident, the pool names its next victim so a dirty frame is
//! written back before it is evicted, and a fully
//! pinned pool refuses admission ([`StorageError::AllPagesPinned`])
//! rather than exceed its memory budget.
//!
//! Robustness (see README `## Robustness`): every fallible entry point
//! returns a typed [`StorageError`]; [`fault`] provides deterministic
//! fault injection ([`FaultPolicy`]) — including short reads and torn
//! writes against real files — and [`pager::RetryPager`] bounded
//! retry-with-backoff over any [`disk::Disk`].

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod buffer;
pub mod checksum;
pub mod costmodel;
pub mod disk;
pub mod error;
pub mod fault;
pub mod page;
pub mod pager;
pub mod writer;

pub use buffer::{Admission, BufferPool, BufferStats};
pub use checksum::fnv1a64;
pub use costmodel::CostModel;
pub use disk::{Disk, FileDisk, RUN_PAGES};
pub use error::{IoOp, StorageError};
pub use fault::{FaultInjector, FaultPolicy};
pub use page::{Page, PageId, PAGE_SIZE};
pub use pager::{RetryPager, RetryPolicy, SimulatedDisk};
pub use writer::{
    CountingSink, FaultySink, FileSink, OutputSink, OutputWriter, RowEncoder, VecSink,
};
