//! Rule `atomics-discipline`: non-SeqCst memory orderings must carry a
//! written justification.

use crate::context::{Annotation, FileCtx, FileRole};
use crate::rules::{diag_at, Diagnostic};

pub const EXPLAIN: &str = "\
atomics-discipline — every relaxed ordering must carry its proof.

Flags `Ordering::Relaxed`, `Ordering::Acquire`, `Ordering::Release`
and `Ordering::AcqRel` in non-test code unless the use site carries an
`// ORDERING: <why>` comment (trailing on the same line, or on the
comment line(s) directly above). `Ordering::SeqCst` needs no
annotation: it is the conservative default, and the rule exists to
make *departures* from it auditable. `std::cmp::Ordering` variants
(Less/Equal/Greater) never match.

The parallel join's correctness argument (DESIGN.md §9) distinguishes
atomics that carry no data (a claim cursor, an advisory stop flag,
where staleness only costs one wasted task) from edges that publish
data (the slot mutex). The annotation states which side of that line
a use sits on:

    // ORDERING: a claim counter; the RMW alone makes claims unique.
    let i = self.next.fetch_add(1, Ordering::Relaxed);

An empty justification (`// ORDERING:` with nothing after it) does not
count.";

const RELAXED_VARIANTS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel"];

pub fn check(ctx: &FileCtx) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if ctx.role != FileRole::Src {
        return out;
    }
    for ci in 0..ctx.code.len() {
        if ctx.code_in_test(ci) {
            continue;
        }
        let i = ci as isize;
        let text = ctx.code_text(i);
        if RELAXED_VARIANTS.contains(&text)
            && ctx.code_text(i - 1) == "::"
            && ctx.code_text(i - 2) == "Ordering"
        {
            let line = ctx.code_tok(ci).line;
            if !ctx.annotated(line, Annotation::Ordering) {
                out.push(diag_at(
                    ctx,
                    "atomics-discipline",
                    ci,
                    format!(
                        "`Ordering::{text}` without an `// ORDERING:` justification — \
                         state why this ordering is sufficient (or use SeqCst)"
                    ),
                ));
            }
        }
    }
    out
}
