//! Rule `sync-facade`: csj-core reaches synchronization primitives
//! through its `crate::sync` facade, never `std::sync` directly.

use crate::context::{FileCtx, FileRole};
use crate::rules::{diag_at, Diagnostic};

pub const EXPLAIN: &str = "\
sync-facade — csj-core synchronizes through `crate::sync` only.

Flags any `std::sync` path — import or inline — in csj-core shipped
source outside the facade module itself (`crates/core/src/sync.rs`)
and outside test regions. Other crates are not in scope: only csj-core
is model-checked, and only what flows through the facade is visible to
the checker.

The model checker (csj-model, DESIGN.md §9) verifies the parallel
join's task handoff by swapping the facade's re-exports for instrumented shims
under `--cfg csj_model`. A direct `std::sync::atomic::AtomicUsize` or
`std::sync::Mutex` bypasses that swap: the code still compiles, still
runs, and silently falls out of every interleaving the checker
explores — the worst kind of coverage hole, one that looks green.
Route the primitive through the facade instead:

    use crate::sync::atomic::{AtomicUsize, Ordering};
    use crate::sync::{Arc, Mutex};

`std::thread` scope/spawn primitives are not flagged: the model
mirrors the protocol in its own harness rather than intercepting
thread creation, so native spawning carries no coverage hole. Test
regions are exempt — tests execute natively, never under the model.
Where shipped code genuinely needs a std-only item the facade does not
re-export (e.g. `PoisonError` in a recovery path), justify it:

    // csj-lint: allow(sync-facade) — PoisonError itself, not a
    // primitive; carries no scheduling point to instrument
    use std::sync::PoisonError;";

/// The one module allowed to name `std::sync`: the facade itself.
const FACADE: &str = "crates/core/src/sync.rs";

pub fn check(ctx: &FileCtx) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if ctx.role != FileRole::Src
        || !ctx.rel_path.starts_with("crates/core/")
        || ctx.rel_path == FACADE
    {
        return out;
    }
    for ci in 0..ctx.code.len() {
        if ctx.code_in_test(ci) {
            continue;
        }
        let i = ci as isize;
        if ctx.code_text(i) == "std"
            && ctx.code_text(i + 1) == "::"
            && ctx.code_text(i + 2) == "sync"
        {
            out.push(diag_at(
                ctx,
                "sync-facade",
                ci,
                "`std::sync` bypasses the `crate::sync` facade — the model checker \
                 cannot see this primitive; import from `crate::sync` instead"
                    .to_string(),
            ));
        }
    }
    out
}
