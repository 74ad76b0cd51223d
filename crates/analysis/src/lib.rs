//! `csj-analysis` — dependency-free static analysis for the
//! compact-similarity-joins workspace (bin: `csj-lint`).
//!
//! The join engine's hardest guarantees are *conventions*: the
//! parallel join's atomic-ordering choices, the bit-identical
//! float comparisons shared by the scalar and batched distance kernels,
//! and the task-key-ordered commit that keeps parallel output identical
//! at any thread count (DESIGN.md §7a, §8). This crate turns those
//! conventions into machine-checked rules:
//!
//! | rule | enforces |
//! |------|----------|
//! | `panic-safety` | no `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` in shipped code |
//! | `atomics-discipline` | non-SeqCst orderings carry an `// ORDERING:` justification |
//! | `float-discipline` | float `==`/`!=` in `csj-geom`/`csj-core` carries `// FLOAT-EQ:` |
//! | `determinism` | no clock/RNG in the merge/output modules |
//! | `error-hygiene` | `pub fn … -> Result` documents an `# Errors` section |
//! | `sync-facade` | csj-core imports sync primitives via `crate::sync`, keeping them model-checkable |
//! | `guard-discipline` | buffer-pool pins and RAII guards balance on every CFG path |
//! | `lock-order` | mutex/`RefCell` acquisition order stays acyclic workspace-wide |
//! | `io-under-lock` | no disk I/O reachable while a pool borrow or facade lock is held |
//! | `unsafe-bounds` | raw loads are machine-discharged against value-range analysis or carry checked `BOUNDS` obligations |
//! | `padding-invariant` | SoA slabs keep 4-lane padded lengths, `+inf` sentinels, finite-ε probes |
//!
//! The last two rules run on the abstract-interpretation layer
//! ([`domain`] + [`dataflow::env_in_states`]): intervals with
//! congruence (multiple-of) information, symbolic lengths, and linear
//! facts harvested from dominating guards (DESIGN.md §13). A
//! discharged claim is reported as a SARIF `pass` note whose
//! `relatedLocations` point at the discharging guard.
//!
//! Findings are suppressible inline with a mandatory reason:
//! `// csj-lint: allow(<rule>) — <reason>`. See DESIGN.md §8 for the
//! full annotation grammar and how to add a rule.
//!
//! Everything is hand-rolled — lexer ([`lexer`]), rule engine
//! ([`rules`]), JSON rendering ([`report`]) — because the build
//! environment is offline: no `syn`, no `serde`, no `walkdir`.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod ast;
pub mod cfg;
pub mod context;
pub mod dataflow;
pub mod domain;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod workspace;

pub use context::{Annotation, CrateKind, FileCtx, FileRole};
pub use rules::{all_rules, rule_by_name, Diagnostic, FileReport, META_RULE};
pub use workspace::{analyze_source, analyze_workspace, find_workspace_root, WorkspaceReport};
