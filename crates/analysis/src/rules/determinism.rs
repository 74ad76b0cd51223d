//! Rule `determinism`: the merge/output modules must never consult
//! wall-clock time or randomness.

use crate::context::{FileCtx, FileRole};
use crate::rules::{diag_at, Diagnostic};

pub const EXPLAIN: &str = "\
determinism — the merge/output path may not consult clock or RNG.

The parallel scheduler's headline guarantee (DESIGN.md §7a) is that
output is identical at any thread count and across runs: results are
merged in task-key order, and nothing on the emission path may depend
on timing or randomness. This rule machine-enforces that for the
modules carrying the guarantee:

    crates/core/src/parallel/**   (ordered task stream)
    crates/core/src/group.rs      (group/window output shaping)

Flagged constructs, outside test regions: `Instant::now`,
`SystemTime` (any use), and RNG entry points (`thread_rng`,
`from_entropy`, `ThreadRng`, `StdRng`, `SmallRng`, `rand::random`).

Reading elapsed time for *budget accounting* is the one legitimate
exception — a deadline stop changes where a partial run ends, never
the content or order of what was emitted — and is justified inline:

    // csj-lint: allow(determinism) — wall-clock feeds RunBudget
    // deadline accounting only; completed runs never consult it
    let start = Instant::now();";

/// Identifiers that are forbidden on their own.
const BARE_FORBIDDEN: &[&str] =
    &["SystemTime", "ThreadRng", "StdRng", "SmallRng", "thread_rng", "from_entropy"];

pub fn check(ctx: &FileCtx) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let scoped = ctx.rel_path.starts_with("crates/core/src/parallel/")
        || ctx.rel_path == "crates/core/src/group.rs";
    if !scoped || ctx.role != FileRole::Src {
        return out;
    }
    for ci in 0..ctx.code.len() {
        if ctx.code_in_test(ci) {
            continue;
        }
        let i = ci as isize;
        let text = ctx.code_text(i);
        let hit = if text == "now" {
            (ctx.code_text(i - 1) == "::" && ctx.code_text(i - 2) == "Instant")
                .then(|| "Instant::now".to_string())
        } else if text == "random" && ctx.code_text(i - 1) == "::" && ctx.code_text(i - 2) == "rand"
        {
            Some("rand::random".to_string())
        } else if BARE_FORBIDDEN.contains(&text) {
            Some(text.to_string())
        } else {
            None
        };
        if let Some(what) = hit {
            out.push(diag_at(
                ctx,
                "determinism",
                ci,
                format!(
                    "`{what}` in a determinism-critical module — output must be \
                     identical across runs and thread counts; move the dependency out \
                     or justify with `// csj-lint: allow(determinism) — <reason>`"
                ),
            ));
        }
    }
    out
}
