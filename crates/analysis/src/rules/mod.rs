//! The rule registry and the suppression-aware rule runner.
//!
//! Each rule is a plain function from [`FileCtx`] to diagnostics plus
//! static metadata (name, one-line summary, long `--explain` text).
//! Rules are deliberately token-level pattern matchers: with no `syn`
//! available offline, the contract is *high-signal heuristics with
//! documented false-negative classes*, never false positives a
//! developer cannot either fix or justify inline.
//!
//! Suppression: `// csj-lint: allow(<rule>[, <rule>…]) — <reason>` on
//! the offending line or the comment line(s) directly above. The reason
//! is mandatory; an allow without one (or naming an unknown rule) is
//! reported under the reserved meta-rule name `suppression`, which
//! itself cannot be suppressed.

pub mod atomics;
pub mod determinism;
pub mod error_hygiene;
pub mod float_eq;
pub mod flow;
pub mod guard_discipline;
pub mod io_under_lock;
pub mod lock_order;
pub mod padding_invariant;
pub mod panic_safety;
pub mod sync_facade;
pub mod unsafe_bounds;

use std::collections::HashMap;

use crate::context::FileCtx;

/// Reserved name for suppression-hygiene findings.
pub const META_RULE: &str = "suppression";

/// A secondary location attached to a diagnostic — e.g. the dominating
/// guard that discharges (or fails to discharge) a bounds claim.
/// Rendered as SARIF `relatedLocations`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Related {
    pub line: u32,
    pub col: u32,
    pub message: String,
}

/// One finding, pinned to a file:line:col span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule name (one of [`all_rules`] or [`META_RULE`]).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
    /// Secondary locations (guards, prior acquisitions).
    pub related: Vec<Related>,
    /// A *pass* note rather than a finding: the claim was discharged
    /// and this records by what. Pass notes never fail the lint; SARIF
    /// renders them as `kind: "pass"` results, text/JSON omit them.
    pub pass: bool,
}

impl Diagnostic {
    /// A plain (failing) diagnostic with no secondary locations.
    pub fn new(rule: &'static str, file: String, line: u32, col: u32, message: String) -> Self {
        Diagnostic { rule, file, line, col, message, related: Vec::new(), pass: false }
    }

    /// Attaches a secondary location.
    #[must_use]
    pub fn with_related(mut self, line: u32, col: u32, message: String) -> Self {
        self.related.push(Related { line, col, message });
        self
    }

    /// Marks this diagnostic as a discharged-claim pass note.
    #[must_use]
    pub fn passed(mut self) -> Self {
        self.pass = true;
        self
    }
}

/// How a rule consumes the workspace.
pub enum Check {
    /// Runs independently per file — the token-pattern rules.
    File(fn(&FileCtx) -> Vec<Diagnostic>),
    /// Runs once over every file together — the CFG/dataflow rules,
    /// whose interprocedural summaries and acquisition graph span
    /// crates. Diagnostics carry their own `file` and are bucketed
    /// back by the runner.
    Workspace(fn(&[FileCtx]) -> Vec<Diagnostic>),
}

/// A rule: metadata plus its checker.
pub struct Rule {
    pub name: &'static str,
    /// One-line summary shown in `--list-rules`.
    pub summary: &'static str,
    /// Long-form text shown by `--explain <rule>`.
    pub explain: &'static str,
    pub check: Check,
}

/// Every shipped rule, in reporting order.
pub fn all_rules() -> &'static [Rule] {
    &[
        Rule {
            name: "panic-safety",
            summary: "no unwrap/expect/panic!/todo!/unimplemented! outside test code",
            explain: panic_safety::EXPLAIN,
            check: Check::File(panic_safety::check),
        },
        Rule {
            name: "atomics-discipline",
            summary: "non-SeqCst atomic orderings require an `// ORDERING:` justification",
            explain: atomics::EXPLAIN,
            check: Check::File(atomics::check),
        },
        Rule {
            name: "float-discipline",
            summary: "float ==/!= in csj-geom/csj-core requires a `// FLOAT-EQ:` annotation",
            explain: float_eq::EXPLAIN,
            check: Check::File(float_eq::check),
        },
        Rule {
            name: "determinism",
            summary: "no wall-clock or RNG in the deterministic merge/output modules",
            explain: determinism::EXPLAIN,
            check: Check::File(determinism::check),
        },
        Rule {
            name: "error-hygiene",
            summary: "pub fns returning Result need a doc comment with an `# Errors` section",
            explain: error_hygiene::EXPLAIN,
            check: Check::File(error_hygiene::check),
        },
        Rule {
            name: "sync-facade",
            summary: "csj-core uses `crate::sync`, never `std::sync`, outside the facade",
            explain: sync_facade::EXPLAIN,
            check: Check::File(sync_facade::check),
        },
        Rule {
            name: "guard-discipline",
            summary: "buffer-pool pins and RAII guards balance on every CFG path",
            explain: guard_discipline::EXPLAIN,
            check: Check::Workspace(guard_discipline::check),
        },
        Rule {
            name: "lock-order",
            summary: "mutex/RefCell acquisition order is acyclic across the workspace",
            explain: lock_order::EXPLAIN,
            check: Check::Workspace(lock_order::check),
        },
        Rule {
            name: "io-under-lock",
            summary: "no disk I/O reachable while a pool borrow or facade lock is held",
            explain: io_under_lock::EXPLAIN,
            check: Check::Workspace(io_under_lock::check),
        },
        Rule {
            name: "unsafe-bounds",
            summary: "raw loads carry machine-discharged bounds claims or BOUNDS obligations",
            explain: unsafe_bounds::EXPLAIN,
            check: Check::Workspace(unsafe_bounds::check),
        },
        Rule {
            name: "padding-invariant",
            summary: "SoA slabs: 4-lane padded lengths, +inf sentinels, finite-ε probes",
            explain: padding_invariant::EXPLAIN,
            check: Check::Workspace(padding_invariant::check),
        },
    ]
}

/// Looks a rule up by name.
pub fn rule_by_name(name: &str) -> Option<&'static Rule> {
    all_rules().iter().find(|r| r.name == name)
}

/// The per-file result of running every rule: surviving diagnostics
/// plus how many findings inline suppressions absorbed.
#[derive(Debug, Default)]
pub struct FileReport {
    pub diagnostics: Vec<Diagnostic>,
    /// Discharged-claim pass notes (`Diagnostic::pass`): never counted
    /// as findings, rendered only by SARIF.
    pub notes: Vec<Diagnostic>,
    pub suppressed: usize,
}

/// Runs all rules over one file and applies suppressions. Workspace
/// rules see a singleton workspace — this is the seam fixture golden
/// tests drive; real runs go through [`run_all`] so interprocedural
/// rules see every file at once.
pub fn run_rules(ctx: &FileCtx) -> FileReport {
    run_all(std::slice::from_ref(ctx)).pop().unwrap_or_default()
}

/// Runs all rules over the whole workspace: per-file rules on each
/// file, workspace rules once over everything, then suppressions per
/// file. Returns one report per input context, in order.
pub fn run_all(ctxs: &[FileCtx]) -> Vec<FileReport> {
    let mut raw: Vec<Vec<Diagnostic>> = ctxs.iter().map(|_| Vec::new()).collect();
    let by_path: HashMap<&str, usize> =
        ctxs.iter().enumerate().map(|(i, c)| (c.rel_path, i)).collect();
    for rule in all_rules() {
        match rule.check {
            Check::File(f) => {
                for (i, ctx) in ctxs.iter().enumerate() {
                    raw[i].extend(f(ctx));
                }
            }
            Check::Workspace(f) => {
                for d in f(ctxs) {
                    if let Some(&i) = by_path.get(d.file.as_str()) {
                        raw[i].push(d);
                    }
                }
            }
        }
    }
    ctxs.iter().zip(raw).map(|(ctx, diags)| apply_suppressions(ctx, diags)).collect()
}

/// Applies one file's suppressions to its raw diagnostics.
///
/// Suppression-hygiene problems (missing reason, unknown rule name)
/// surface as [`META_RULE`] diagnostics and are never suppressible.
fn apply_suppressions(ctx: &FileCtx, raw: Vec<Diagnostic>) -> FileReport {
    let mut report = FileReport::default();
    for s in &ctx.suppressions {
        if s.rules.is_empty() {
            report.diagnostics.push(Diagnostic::new(
                META_RULE,
                ctx.rel_path.to_string(),
                s.at_line,
                1,
                "malformed `csj-lint: allow(...)` — expected \
                 `allow(<rule>[, <rule>]) — <reason>`"
                    .into(),
            ));
            continue;
        }
        if s.reason.is_empty() {
            report.diagnostics.push(Diagnostic::new(
                META_RULE,
                ctx.rel_path.to_string(),
                s.at_line,
                1,
                format!(
                    "suppression of `{}` has no justification — a reason after the \
                     rule list is mandatory",
                    s.rules.join(", ")
                ),
            ));
        }
        for r in &s.rules {
            if rule_by_name(r).is_none() {
                report.diagnostics.push(Diagnostic::new(
                    META_RULE,
                    ctx.rel_path.to_string(),
                    s.at_line,
                    1,
                    format!("suppression names unknown rule `{r}`"),
                ));
            }
        }
    }

    for d in raw {
        if d.pass {
            // Discharged-claim notes bypass suppression entirely —
            // there is nothing to suppress.
            report.notes.push(d);
            continue;
        }
        let suppressed = ctx.suppressions.iter().any(|s| {
            !s.reason.is_empty() && s.covers_line == d.line && s.rules.iter().any(|r| r == d.rule)
        });
        if suppressed {
            report.suppressed += 1;
        } else {
            report.diagnostics.push(d);
        }
    }
    report.diagnostics.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    report.notes.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    report
}

/// Shared helper: a diagnostic at a code token.
pub(crate) fn diag_at(ctx: &FileCtx, rule: &'static str, ci: usize, message: String) -> Diagnostic {
    let t = ctx.code_tok(ci);
    Diagnostic::new(rule, ctx.rel_path.to_string(), t.line, t.col, message)
}
