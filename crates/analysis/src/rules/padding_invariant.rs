//! `padding-invariant`: the SoA bound-slab contract.
//!
//! The merge window's bound slabs (`slab_lo`/`slab_hi` column arrays,
//! kept by csj-geom's `BoundSlabs`) carry a three-part contract the
//! SIMD fit probe and its chunk commit depend on:
//!
//! 1. Slab lengths are padded to whole 4-lane multiples, so the AVX2
//!    kernel never reads past the columns (`slab_len_for` rounds up
//!    with `(cap + 3) & !3`).
//! 2. Padding lanes (and cleared slots) hold `+∞` sentinels, so a
//!    `< eps_sq` fit test can never accept a lane that holds no group.
//! 3. The sentinels only mask lanes when the threshold is finite —
//!    callers of the mask probe outside `csj-geom` must be dominated
//!    by a finite-ε guard (or take a reasoned allow when the guard
//!    flows through a value the analyzer cannot track).
//!
//! The rule machine-checks each part:
//! * **P1 (construction):** a `vec![…]` or `.resize(…)` that builds or
//!   refills a `slab_`-named column must supply the `INFINITY`
//!   sentinel as its fill value.
//! * **P2 (padding):** the return value of any `slab_len*` function
//!   must be a multiple of 4 on every branch, proved by the value-range
//!   congruence domain (`mult % 4 == 0`).
//! * **P3 (shrink/grow):** calling a length-changing mutator (`clear`,
//!   `truncate`, `drain`, `pop`, `push`, `swap_remove`) on a
//!   `slab_`-named column is only valid in a function that either
//!   refills with `INFINITY` or records the opt-out (`slab_ok = …`).
//! * **P4 (finite ε):** a call to the fused slab fit probe and commit
//!   (`mbr_fit_pick_commit`) outside `csj-geom` must be dominated by a
//!   guard mentioning `INFINITY` (the `eps_sq < f64::INFINITY` test).

use crate::ast;
use crate::cfg::{self, Step};
use crate::context::{FileCtx, FileRole};
use crate::dataflow::{env_in_states, env_transfer};
use crate::domain::Env;
use crate::lexer::TokKind;
use crate::rules::{flow, Diagnostic};

pub const EXPLAIN: &str = "\
padding-invariant: the SoA bound-slab contract behind the SIMD mask
probe.

The merge window keeps per-dimension bound columns (`slab_lo`,
`slab_hi`, in csj-geom's `BoundSlabs`) padded to whole 4-lane
multiples and filled with `+inf` sentinels in every lane that holds no
live group. The AVX2/NEON fit mask reads all lanes unconditionally and
the commit stores whole 4-lane chunks; the contract is what makes that
sound:

  P1  construction/refill: `vec![...]` / `.resize(...)` on a column
      whose binding mentions `slab_` must use `f64::INFINITY` as the
      fill value — a zeroed pad lane would pass every fit test.
  P2  padding arithmetic: every `slab_len*` function must return a
      multiple of 4 on every branch (machine-checked with the
      congruence domain: `(cap + 3) & !3` proves, `cap + 3` does not).
  P3  shrink/grow: `clear`/`truncate`/`drain`/`pop`/`push`/
      `swap_remove` on a `slab_` column changes the padded length; the
      surrounding function must refill with `INFINITY` or record the
      opt-out by assigning `slab_ok`.
  P4  finite epsilon: the sentinels only mask lanes under a finite
      threshold, so calls to the fused fit probe and commit
      (`mbr_fit_pick_commit`) outside csj-geom must be dominated by a
      guard mentioning `INFINITY` (e.g. `eps_sq < f64::INFINITY`).
      Guards that flow through a computed bool (`let simd_ok = eps_sq
      < INF; ... if simd_ok {...}` selecting a *value*) are invisible
      to the control-flow analysis and take a reasoned allow.

Scope: crates/geom and crates/core, non-test code.";

const SCOPE: &[&str] = &["crates/geom/src/", "crates/core/src/"];

const RULE: &str = "padding-invariant";

/// Length-changing `Vec` mutators (P3). `resize` is handled by P1
/// (its fill argument must be the sentinel).
const MUTATORS: &[&str] = &["clear", "truncate", "drain", "pop", "push", "swap_remove"];

pub fn check(ctxs: &[FileCtx]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for ctx in ctxs {
        if ctx.role != FileRole::Src || !SCOPE.iter().any(|p| ctx.rel_path.starts_with(p)) {
            continue;
        }
        check_construction(ctx, &mut out);
        let parsed = ast::parse(ctx);
        check_slab_len_fns(ctx, &parsed, &mut out);
        if !ctx.rel_path.starts_with("crates/geom/") {
            check_finite_eps(ctx, &parsed, &mut out);
        }
    }
    out
}

fn diag(ctx: &FileCtx, ci: usize, msg: String) -> Diagnostic {
    let t = ctx.code_tok(ci);
    Diagnostic::new(RULE, ctx.rel_path.to_string(), t.line, t.col, msg)
}

/// True when the code token is an identifier mentioning `slab_`.
fn slab_ident(ctx: &FileCtx, ci: isize) -> bool {
    ctx.code_kind(ci) == TokKind::Ident && ctx.code_text(ci).contains("slab_")
}

/// P1 + P3: token scan over constructions and mutators.
fn check_construction(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    for i in 0..ctx.code.len() {
        if ctx.code_in_test(i) {
            continue;
        }
        let text = ctx.code_text(i as isize);
        // P1a: `vec![ … ]` whose statement prefix names a slab column.
        if text == "vec" && ctx.code_text(i as isize + 1) == "!" {
            if !stmt_prefix_mentions_slab(ctx, i) {
                continue;
            }
            if !group_contains(ctx, i + 2, "INFINITY") {
                out.push(diag(
                    ctx,
                    i,
                    "slab column constructed without the `f64::INFINITY` sentinel — \
                     padding lanes must hold +inf so the fit mask cannot accept them"
                        .into(),
                ));
            }
        }
        // P1b: `<slab_…>.resize(len, fill)` — fill must be the sentinel.
        if text == "resize"
            && ctx.code_text(i as isize - 1) == "."
            && recv_mentions_slab(ctx, i)
            && !group_contains(ctx, i + 1, "INFINITY")
        {
            out.push(diag(
                ctx,
                i,
                "slab column resized without the `f64::INFINITY` fill — new lanes \
                 must hold +inf so the fit mask cannot accept them"
                    .into(),
            ));
        }
        // P3: length-changing mutator on a slab column.
        if MUTATORS.contains(&text)
            && ctx.code_text(i as isize - 1) == "."
            && ctx.code_text(i as isize + 1) == "("
            && recv_mentions_slab(ctx, i)
            && !fn_handles_slab_change(ctx, i)
        {
            out.push(diag(
                ctx,
                i,
                format!(
                    "`{text}` on a slab column changes the padded length without \
                     refilling `f64::INFINITY` sentinels or recording the opt-out \
                     (`slab_ok = …`) in this function"
                ),
            ));
        }
    }
}

/// Scans back from `ci` to the statement-ish boundary (`;`, `{`, `}`,
/// `,`) looking for a `slab_` identifier.
fn stmt_prefix_mentions_slab(ctx: &FileCtx, ci: usize) -> bool {
    let mut j = ci as isize - 1;
    loop {
        match ctx.code_text(j) {
            ";" | "{" | "}" | "," | "" => return false,
            _ if slab_ident(ctx, j) => return true,
            _ => j -= 1,
        }
    }
}

/// Scans back through the dotted receiver chain of the method at `ci`
/// (`self.slab_lo[d].clear()` → sees `slab_lo`), stopping at the
/// chain's start.
fn recv_mentions_slab(ctx: &FileCtx, ci: usize) -> bool {
    let mut j = ci as isize - 1; // the `.`
    loop {
        match ctx.code_text(j) {
            "." | "]" | ")" | "[" | "(" => j -= 1,
            _ if ctx.code_kind(j) == TokKind::Ident || ctx.code_text(j) == "self" => {
                if slab_ident(ctx, j) {
                    return true;
                }
                j -= 1;
            }
            _ if matches!(ctx.code_kind(j), TokKind::Int | TokKind::Float) => j -= 1,
            _ => return false,
        }
    }
}

/// Tokens of the bracket/paren group opening at or after `ci`:
/// true when any token in the group equals `needle`.
fn group_contains(ctx: &FileCtx, ci: usize, needle: &str) -> bool {
    let mut j = ci;
    while !matches!(ctx.code_text(j as isize), "(" | "[" | "{" | "") {
        j += 1;
    }
    let mut depth = 0isize;
    loop {
        match ctx.code_text(j as isize) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth <= 0 {
                    return false;
                }
            }
            "" => return false,
            t if t == needle => return true,
            _ => {}
        }
        j += 1;
    }
}

/// P3's escape hatches: the enclosing braced region (scanned outward
/// to the function's opening brace) refills `INFINITY` or assigns
/// `slab_ok`. A conservative widening — the scan covers the whole
/// token stretch between the nearest enclosing top-level braces.
fn fn_handles_slab_change(ctx: &FileCtx, ci: usize) -> bool {
    // Walk back to the start of the enclosing fn: the `fn` keyword at
    // brace depth relative 0.
    let mut depth = 0isize;
    let mut j = ci as isize;
    let start = loop {
        match ctx.code_text(j) {
            "" => break 0,
            "}" => depth += 1,
            "{" => depth -= 1,
            "fn" if depth < 0 => break j,
            _ => {}
        }
        j -= 1;
    };
    // Forward from the fn keyword to its body's closing brace.
    let mut k = start;
    let mut depth = 0isize;
    let mut opened = false;
    loop {
        match ctx.code_text(k) {
            "" => return false,
            "{" => {
                depth += 1;
                opened = true;
            }
            "}" => {
                depth -= 1;
                if opened && depth <= 0 {
                    return false;
                }
            }
            "INFINITY" => return true,
            "slab_ok" if ctx.code_text(k + 1) == "=" => return true,
            _ => {}
        }
        k += 1;
    }
}

/// P2: every `slab_len*` function returns a 4-lane multiple on every
/// branch, proved with the congruence component of the value domain.
fn check_slab_len_fns(ctx: &FileCtx, parsed: &ast::ParsedFile, out: &mut Vec<Diagnostic>) {
    for (_, f) in parsed.fns() {
        if !f.name.starts_with("slab_len") {
            continue;
        }
        let Some(body) = &f.body else { continue };
        if ctx.code_in_test(body.span.lo as usize) {
            continue;
        }
        let env = Env::default();
        let mut leaves = Vec::new();
        if let Some(tail) = block_tail(body) {
            collect_leaves(tail, &mut leaves);
        }
        if leaves.is_empty() {
            out.push(diag(
                ctx,
                body.span.lo as usize,
                format!(
                    "`{}` has no analyzable tail expression — the padded-length \
                     contract (multiple of 4) cannot be machine-checked",
                    f.name
                ),
            ));
            continue;
        }
        for leaf in leaves {
            let v = env.eval(&cfg::lower_aexpr(leaf));
            if !v.multiple_of(4) {
                out.push(diag(
                    ctx,
                    leaf.span.lo as usize,
                    format!(
                        "`{}` can return a length that is not a 4-lane multiple \
                         (congruence: multiple of {}) — pad with `(cap + 3) & !3`",
                        f.name, v.mult
                    ),
                ));
            }
        }
    }
}

/// The tail expression of a block (its last expression statement).
fn block_tail(b: &ast::Block) -> Option<&ast::Expr> {
    match b.stmts.iter().rev().find(|s| !matches!(s, ast::Stmt::Empty)) {
        Some(ast::Stmt::Expr { expr, .. }) => Some(expr),
        _ => None,
    }
}

/// Branch leaves of a return expression: `if`/`else` arms, `match`
/// arms, nested blocks. Everything else is a leaf to evaluate.
fn collect_leaves<'e>(e: &'e ast::Expr, out: &mut Vec<&'e ast::Expr>) {
    match &e.kind {
        ast::ExprKind::If { then, els, .. } => {
            if let Some(t) = block_tail(then) {
                collect_leaves(t, out);
            }
            if let Some(els) = els {
                collect_leaves(els, out);
            }
        }
        ast::ExprKind::BlockExpr(b) => {
            if let Some(t) = block_tail(b) {
                collect_leaves(t, out);
            }
        }
        ast::ExprKind::Match { arms, .. } => {
            for arm in arms {
                collect_leaves(&arm.body, out);
            }
        }
        ast::ExprKind::Return(Some(inner)) => collect_leaves(inner, out),
        _ => out.push(e),
    }
}

/// P4: fit-probe calls outside csj-geom need a dominating finite-ε
/// guard.
fn check_finite_eps(ctx: &FileCtx, parsed: &ast::ParsedFile, out: &mut Vec<Diagnostic>) {
    for fncfg in cfg::lower_file(parsed) {
        if flow::in_test(ctx, &fncfg) {
            continue;
        }
        let states = env_in_states(&fncfg);
        for (b, block) in fncfg.blocks.iter().enumerate() {
            let Some(state) = states.get(b).and_then(|s| s.as_ref()) else { continue };
            let mut env = state.clone();
            for step in &block.steps {
                if let Step::Call(c) = step {
                    if c.name == "mbr_fit_pick_commit"
                        && !ctx.code_in_test(c.ci as usize)
                        && !env.dead
                        && !env.guards.iter().any(|g| g.contains("INFINITY"))
                    {
                        out.push(diag(
                            ctx,
                            c.ci as usize,
                            format!(
                                "call to `{}` is not dominated by a finite-ε guard \
                                 (`… < f64::INFINITY`) — the +∞ padding sentinels \
                                 only mask empty lanes under a finite threshold",
                                c.name
                            ),
                        ));
                    }
                }
                env_transfer(step, &mut env);
            }
        }
    }
}
