//! Geometry substrate for compact similarity joins.
//!
//! This crate provides the geometric vocabulary the paper's algorithms are
//! written in:
//!
//! * [`Point`] — a `D`-dimensional point with arithmetic helpers.
//! * [`Mbr`] — minimum bounding hyper-rectangles with the MINDIST / MAXDIST
//!   bounds used for tree pruning, and metric-aware diameters used for the
//!   group-shape constraint of §V-A.
//! * [`Metric`] — the `Lp` metrics the joins can run under.
//! * [`Sphere`] — bounding balls (the M-tree's covering shape, and the
//!   alternative group shape discussed in §V-A).
//!
//! Everything is generic over the compile-time dimension `D`, is plain data
//! (`Copy` where possible), and performs no allocation in the hot paths.

#![warn(missing_docs)]
// The SIMD kernels are this crate's only `unsafe`; keep every unsafe
// operation inside an explicit `unsafe {}` block (each carries a
// `// SAFETY:` justification enforced by clippy's
// `undocumented_unsafe_blocks`, denied workspace-wide).
#![warn(unsafe_op_in_unsafe_fn)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod aabb;
pub mod diameter;
pub mod kernel;
pub mod metric;
pub mod point;
pub mod probe;
pub mod soa;
pub mod sphere;

pub use aabb::Mbr;
pub use kernel::{DistKernel, KernelPath, ProbeScratch};
pub use metric::Metric;
pub use point::Point;
pub use soa::{SoaBuffer, SoaView};
pub use sphere::Sphere;

/// Identifier of a data record (point) in a dataset.
///
/// The join algorithms report links and groups in terms of these ids; the
/// coordinates live in the dataset / tree leaves.
pub type RecordId = u32;
