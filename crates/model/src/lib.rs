//! `csj-model` — a dependency-free, loom-style concurrency model
//! checker for the parallel join's task handoff.
//!
//! The production scheduler (`csj-core`'s `parallel` module) accesses
//! its shared state through the `csj_core::sync` facade. Built
//! normally, the facade is `std::sync`; built with `--cfg csj_model`,
//! it is this crate's [`sync`] shims, which route every atomic
//! load/store/RMW and every mutex acquire/release through a virtual
//! scheduler. [`check`] then runs a model closure under bounded
//! depth-first exploration of thread interleavings: each execution is
//! one schedule, and the explorer backtracks until the schedule space
//! (within the preemption bound) is exhausted or a failure is found.
//!
//! Failures — data races (vector-clock happens-before analysis),
//! panics (protocol invariant assertions), deadlocks, and livelocks —
//! come with the [`Trace`] of scheduling decisions that reached them;
//! [`replay`] re-executes exactly that schedule, turning an
//! exploration counterexample into a deterministic unit test. See
//! DESIGN.md §9 for the scheduler's memory-model contract and the
//! replay workflow.
//!
//! ```
//! use csj_model::{check, sync::atomic::{AtomicUsize, Ordering}, sync::Arc, thread};
//!
//! let report = check(|| {
//!     let n = Arc::new(AtomicUsize::new(0));
//!     let n2 = Arc::clone(&n);
//!     let h = thread::spawn(move || {
//!         n2.fetch_add(1, Ordering::SeqCst);
//!     });
//!     n.fetch_add(1, Ordering::SeqCst);
//!     h.join();
//!     assert_eq!(n.load(Ordering::SeqCst), 2);
//! });
//! assert!(report.failure.is_none() && report.exhausted);
//! ```

#![warn(missing_docs)]

pub mod cell;
pub mod protocols;
mod sched;
pub mod sync;
pub mod thread;
mod vclock;

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// Why an execution failed.
#[derive(Clone, Debug)]
pub enum Failure {
    /// Two accesses to a [`cell::RaceCell`] with no happens-before
    /// edge between them.
    DataRace {
        /// Location id of the cell (stable within one execution).
        loc: u64,
        /// `"write-read"`, `"read-write"`, or `"write-write"`.
        kind: &'static str,
        /// Thread that performed the earlier access.
        first: usize,
        /// Thread whose access completed the race.
        second: usize,
    },
    /// A model thread panicked — an invariant assertion fired.
    Panic {
        /// The panicking thread.
        thread: usize,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// No thread is enabled: every live thread is blocked on a held
    /// mutex or an unfinished join.
    Deadlock {
        /// One human-readable line per blocked thread.
        waiting: Vec<String>,
    },
    /// The execution exceeded the operation budget — a spin loop that
    /// never makes progress under some schedule.
    Livelock {
        /// Operations performed when the budget tripped.
        ops: usize,
    },
    /// A replayed trace named a thread that was not enabled, or the
    /// model closure is nondeterministic between executions.
    ReplayDiverged {
        /// The decision index where the divergence was noticed.
        step: usize,
    },
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::DataRace { loc, kind, first, second } => write!(
                f,
                "data race ({kind}) on cell {loc}: thread {first} vs thread {second} with no happens-before edge"
            ),
            Failure::Panic { thread, message } => {
                write!(f, "thread {thread} panicked: {message}")
            }
            Failure::Deadlock { waiting } => {
                write!(f, "deadlock: {}", waiting.join("; "))
            }
            Failure::Livelock { ops } => write!(
                f,
                "livelock: no termination within {ops} operations (a spin loop the schedule never releases?)"
            ),
            Failure::ReplayDiverged { step } => write!(
                f,
                "replay diverged at decision {step}: schedule does not match this model closure"
            ),
        }
    }
}

/// A schedule: the thread granted at each scheduling decision, in
/// order. Printable (`Display`) and parseable (`FromStr`) so a failing
/// schedule can be copied out of CI logs into a [`replay`] call.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// Granted thread ids, one per decision.
    pub steps: Vec<usize>,
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for s in &self.steps {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{s}")?;
            first = false;
        }
        Ok(())
    }
}

impl FromStr for Trace {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut steps = Vec::new();
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let tid =
                part.parse::<usize>().map_err(|e| format!("bad trace element {part:?}: {e}"))?;
            steps.push(tid);
        }
        Ok(Trace { steps })
    }
}

/// A failure together with the schedule that produced it.
#[derive(Clone, Debug)]
pub struct FailureReport {
    /// What went wrong.
    pub failure: Failure,
    /// The schedule prefix that reached it; feed to [`replay`].
    pub trace: Trace,
}

impl fmt::Display for FailureReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}\n  schedule: {}\n  replay with csj_model::replay(&\"{}\".parse().unwrap(), ..)",
            self.failure, self.trace, self.trace
        )
    }
}

/// The outcome of a [`check`] run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Executions (schedules) explored.
    pub executions: usize,
    /// `true` when the bounded schedule space was fully explored.
    pub exhausted: bool,
    /// The first failure found, if any.
    pub failure: Option<FailureReport>,
}

impl Report {
    /// Panics with the failure and its replayable schedule if the run
    /// found one, or if exploration stopped before exhausting the
    /// bounded space. Test helper.
    pub fn assert_ok(&self) {
        if let Some(fr) = &self.failure {
            // csj-lint: allow(panic-safety) — the whole point of this
            // helper is to fail the calling test with the counterexample.
            panic!("model check failed after {} executions: {fr}", self.executions);
        }
        if !self.exhausted {
            // csj-lint: allow(panic-safety) — incomplete exploration must
            // fail the calling test, not pass it vacuously.
            panic!(
                "model check did not exhaust the schedule space within {} executions; raise Config::max_executions",
                self.executions
            );
        }
    }
}

/// Exploration parameters for [`check_with`].
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// CHESS-style preemption bound: schedules with more involuntary
    /// context switches than this are pruned. `None` explores the full
    /// (exponential) space — only viable for tiny models.
    pub preemption_bound: Option<usize>,
    /// Hard cap on explored schedules; [`Report::exhausted`] is `false`
    /// when it trips.
    pub max_executions: usize,
    /// Per-execution operation budget; exceeding it is a
    /// [`Failure::Livelock`].
    pub max_ops: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config { preemption_bound: Some(2), max_executions: 500_000, max_ops: 20_000 }
    }
}

impl Config {
    /// Default configuration (preemption bound 2).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the preemption bound.
    #[must_use]
    pub fn preemptions(mut self, bound: usize) -> Self {
        self.preemption_bound = Some(bound);
        self
    }

    /// Removes the preemption bound: exhaustive (exponential)
    /// exploration.
    #[must_use]
    pub fn unbounded_preemptions(mut self) -> Self {
        self.preemption_bound = None;
        self
    }

    /// Sets the schedule cap.
    #[must_use]
    pub fn max_executions(mut self, n: usize) -> Self {
        self.max_executions = n;
        self
    }

    /// Sets the per-execution operation budget.
    #[must_use]
    pub fn max_ops(mut self, n: usize) -> Self {
        self.max_ops = n;
        self
    }

    /// Runs `f` under this configuration. See [`check`].
    pub fn check<F>(self, f: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        check_with(self, f)
    }
}

/// Explores the interleavings of the model closure `f` and reports the
/// first failure, if any.
///
/// `f` runs once per schedule, as model thread 0; threads it spawns
/// via [`thread::spawn`] become model threads too. It must be
/// deterministic apart from scheduling — no wall-clock time, no
/// RNG seeded from the environment — because exploration replays
/// committed schedule prefixes.
pub fn check<F>(f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    check_with(Config::default(), f)
}

/// [`check`] with an explicit [`Config`].
pub fn check_with<F>(config: Config, f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    let f = Arc::new(f);
    let mut explorer = sched::Explorer::new(config.preemption_bound);
    let mut executions = 0usize;
    loop {
        let outcome = sched::run_execution(Arc::clone(&f), &mut explorer, config.max_ops);
        executions += 1;
        if let Some(failure) = outcome.failure {
            return Report {
                executions,
                exhausted: false,
                failure: Some(FailureReport { failure, trace: Trace { steps: outcome.steps } }),
            };
        }
        if !explorer.backtrack() {
            return Report { executions, exhausted: true, failure: None };
        }
        if executions >= config.max_executions {
            return Report { executions, exhausted: false, failure: None };
        }
    }
}

/// Re-executes `f` under exactly the schedule in `trace` (decisions
/// past the end of the trace follow the default continue-previous
/// policy). Returns the single execution's report — if the trace came
/// from a failing [`check`], the same failure reproduces
/// deterministically.
pub fn replay<F>(trace: &Trace, f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    replay_with(Config::default(), trace, f)
}

/// [`replay`] with an explicit [`Config`] (only `max_ops` is used).
pub fn replay_with<F>(config: Config, trace: &Trace, f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    let f = Arc::new(f);
    let mut chooser = sched::ReplayChooser::new(trace);
    let outcome = sched::run_execution(f, &mut chooser, config.max_ops);
    Report {
        executions: 1,
        exhausted: false,
        failure: outcome
            .failure
            .map(|failure| FailureReport { failure, trace: Trace { steps: outcome.steps } }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_roundtrips_through_display() {
        let t = Trace { steps: vec![0, 0, 1, 2, 1] };
        let s = t.to_string();
        assert_eq!(s, "0,0,1,2,1");
        let back: Trace = s.parse().expect("parse");
        assert_eq!(back, t);
    }

    #[test]
    fn empty_trace_parses() {
        let t: Trace = "".parse().expect("parse");
        assert!(t.steps.is_empty());
    }

    #[test]
    fn bad_trace_reports_the_offending_element() {
        let err = "0,x,1".parse::<Trace>().expect_err("must fail");
        assert!(err.contains("\"x\""), "error should name the bad element: {err}");
    }
}
