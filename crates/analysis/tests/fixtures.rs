//! Golden tests: each rule fires on its bad fixture at the expected
//! lines and stays silent on its good fixture.

use csj_analysis::{analyze_source, CrateKind, FileRole, META_RULE};

/// Runs a fixture as library source under the given workspace-relative
/// path and returns `(unsuppressed (rule, line), suppressed count)`.
fn run(rel_path: &str, source: &str) -> (Vec<(String, u32)>, usize) {
    let report = analyze_source(rel_path, source, CrateKind::Library, FileRole::Src);
    let fired = report.diagnostics.iter().map(|d| (d.rule.to_string(), d.line)).collect::<Vec<_>>();
    (fired, report.suppressed)
}

fn lines_of(fired: &[(String, u32)], rule: &str) -> Vec<u32> {
    fired.iter().filter(|(r, _)| r == rule).map(|&(_, l)| l).collect()
}

#[test]
fn panic_safety_bad_fires_on_every_forbidden_form() {
    let (fired, _) =
        run("crates/core/src/fixture.rs", include_str!("fixtures/panic_safety_bad.rs"));
    assert_eq!(lines_of(&fired, "panic-safety"), vec![4, 8, 12, 16, 20], "fired: {fired:?}");
    assert_eq!(fired.len(), 5, "no other rule may fire: {fired:?}");
}

#[test]
fn panic_safety_good_is_silent() {
    let (fired, suppressed) =
        run("crates/core/src/fixture.rs", include_str!("fixtures/panic_safety_good.rs"));
    assert!(fired.is_empty(), "fired: {fired:?}");
    assert_eq!(suppressed, 1, "the justified lock-poisoning unwrap is suppressed");
}

#[test]
fn panic_safety_ignores_harness_and_bench_code() {
    let src = include_str!("fixtures/panic_safety_bad.rs");
    for (kind, role) in [
        (CrateKind::Library, FileRole::Harness),
        (CrateKind::Bench, FileRole::Src),
        (CrateKind::Shim, FileRole::Src),
    ] {
        let report = analyze_source("crates/x/src/f.rs", src, kind, role);
        let panics = report.diagnostics.iter().filter(|d| d.rule == "panic-safety").count();
        assert_eq!(panics, 0, "{kind:?}/{role:?} must be exempt");
    }
}

#[test]
fn atomics_bad_fires_per_bare_ordering() {
    let (fired, _) = run("crates/core/src/fixture.rs", include_str!("fixtures/atomics_bad.rs"));
    assert_eq!(lines_of(&fired, "atomics-discipline"), vec![6, 7, 8], "fired: {fired:?}");
}

#[test]
fn atomics_good_is_silent() {
    let (fired, _) = run("crates/core/src/fixture.rs", include_str!("fixtures/atomics_good.rs"));
    assert!(fired.is_empty(), "fired: {fired:?}");
}

#[test]
fn float_eq_bad_fires_in_geom_scope_only() {
    let src = include_str!("fixtures/float_eq_bad.rs");
    let (fired, _) = run("crates/geom/src/fixture.rs", src);
    assert_eq!(lines_of(&fired, "float-discipline"), vec![4, 8, 12], "fired: {fired:?}");
    // The same text outside the numeric-kernel crates is not in scope.
    let (elsewhere, _) = run("crates/data/src/fixture.rs", src);
    assert!(lines_of(&elsewhere, "float-discipline").is_empty(), "fired: {elsewhere:?}");
}

#[test]
fn float_eq_good_is_silent() {
    let (fired, _) = run("crates/geom/src/fixture.rs", include_str!("fixtures/float_eq_good.rs"));
    assert!(fired.is_empty(), "fired: {fired:?}");
}

#[test]
fn determinism_bad_fires_in_parallel_scope_only() {
    let src = include_str!("fixtures/determinism_bad.rs");
    let (fired, _) = run("crates/core/src/parallel/fixture.rs", src);
    assert_eq!(lines_of(&fired, "determinism"), vec![4, 5, 10, 11], "fired: {fired:?}");
    // Outside the replay-sensitive modules the same code is fine.
    let (elsewhere, _) = run("crates/core/src/output.rs", src);
    assert!(lines_of(&elsewhere, "determinism").is_empty(), "fired: {elsewhere:?}");
}

#[test]
fn determinism_good_is_silent() {
    let (fired, suppressed) =
        run("crates/core/src/parallel/fixture.rs", include_str!("fixtures/determinism_good.rs"));
    assert!(fired.is_empty(), "fired: {fired:?}");
    assert_eq!(suppressed, 1, "the justified deadline read is suppressed");
}

#[test]
fn error_hygiene_bad_fires_with_and_without_docs() {
    let (fired, _) =
        run("crates/core/src/fixture.rs", include_str!("fixtures/error_hygiene_bad.rs"));
    assert_eq!(lines_of(&fired, "error-hygiene"), vec![4, 8], "fired: {fired:?}");
}

#[test]
fn error_hygiene_good_is_silent() {
    let (fired, _) =
        run("crates/core/src/fixture.rs", include_str!("fixtures/error_hygiene_good.rs"));
    assert!(fired.is_empty(), "fired: {fired:?}");
}

#[test]
fn sync_facade_bad_fires_in_core_only() {
    let src = include_str!("fixtures/sync_facade_bad.rs");
    let (fired, _) = run("crates/core/src/fixture.rs", src);
    assert_eq!(lines_of(&fired, "sync-facade"), vec![4, 7, 8], "fired: {fired:?}");
    // Other crates are out of scope — only csj-core is model-checked.
    let (elsewhere, _) = run("crates/geom/src/fixture.rs", src);
    assert!(lines_of(&elsewhere, "sync-facade").is_empty(), "fired: {elsewhere:?}");
    // The facade module itself is the one legitimate `std::sync` site.
    let (facade, _) = run("crates/core/src/sync.rs", src);
    assert!(lines_of(&facade, "sync-facade").is_empty(), "fired: {facade:?}");
}

#[test]
fn sync_facade_good_is_silent() {
    let (fired, suppressed) =
        run("crates/core/src/fixture.rs", include_str!("fixtures/sync_facade_good.rs"));
    assert!(fired.is_empty(), "fired: {fired:?}");
    assert_eq!(suppressed, 1, "the justified PoisonError import is suppressed");
}

#[test]
fn unsafe_good_is_silent() {
    let (fired, _) = run("crates/geom/src/fixture.rs", include_str!("fixtures/unsafe_good.rs"));
    assert!(fired.is_empty(), "fired: {fired:?}");
}

#[test]
fn guard_discipline_bad_fires_on_leak_double_unpin_and_blocking() {
    let (fired, _) =
        run("crates/index/src/fixture.rs", include_str!("fixtures/guard_discipline_bad.rs"));
    // `?`-path leak, early-return leak, double unpin, guard across lock.
    assert_eq!(lines_of(&fired, "guard-discipline"), vec![8, 17, 25, 30], "fired: {fired:?}");
    assert_eq!(fired.len(), 4, "no other rule may fire: {fired:?}");
}

#[test]
fn guard_discipline_good_is_silent() {
    let (fired, _) =
        run("crates/index/src/fixture.rs", include_str!("fixtures/guard_discipline_good.rs"));
    assert!(fired.is_empty(), "fired: {fired:?}");
}

#[test]
fn guard_discipline_is_scoped_to_the_out_of_core_layer() {
    let src = include_str!("fixtures/guard_discipline_bad.rs");
    let (elsewhere, _) = run("crates/geom/src/fixture.rs", src);
    assert!(lines_of(&elsewhere, "guard-discipline").is_empty(), "fired: {elsewhere:?}");
}

#[test]
fn lock_order_bad_reports_the_cycle_once() {
    let (fired, _) =
        run("crates/storage/src/fixture.rs", include_str!("fixtures/lock_order_bad.rs"));
    // One cycle, anchored at the deterministic representative edge.
    assert_eq!(lines_of(&fired, "lock-order"), vec![8], "fired: {fired:?}");
    assert_eq!(fired.len(), 1, "no other rule may fire: {fired:?}");
}

#[test]
fn lock_order_good_is_silent() {
    let (fired, _) =
        run("crates/storage/src/fixture.rs", include_str!("fixtures/lock_order_good.rs"));
    assert!(fired.is_empty(), "fired: {fired:?}");
}

#[test]
fn io_under_lock_bad_fires_direct_and_interprocedural() {
    let (fired, _) =
        run("crates/storage/src/fixture.rs", include_str!("fixtures/io_under_lock_bad.rs"));
    // Under a RefCell borrow, under a mutex, and via a callee summary.
    assert_eq!(lines_of(&fired, "io-under-lock"), vec![8, 15, 25], "fired: {fired:?}");
    assert_eq!(fired.len(), 3, "no other rule may fire: {fired:?}");
}

#[test]
fn io_under_lock_good_is_silent() {
    let (fired, _) =
        run("crates/storage/src/fixture.rs", include_str!("fixtures/io_under_lock_good.rs"));
    assert!(fired.is_empty(), "fired: {fired:?}");
}

#[test]
fn suppression_mechanics() {
    let (fired, suppressed) =
        run("crates/core/src/fixture.rs", include_str!("fixtures/suppression_mechanics.rs"));
    // A reasonless allow and an unknown-rule allow are themselves findings,
    // and the original diagnostics they failed to suppress survive.
    assert_eq!(lines_of(&fired, META_RULE), vec![9, 14], "fired: {fired:?}");
    assert_eq!(lines_of(&fired, "panic-safety"), vec![10, 15, 21], "fired: {fired:?}");
    // The reasoned allow and the multi-rule allow suppress one unwrap each.
    assert_eq!(suppressed, 2);
}

#[test]
fn unsafe_bounds_bad_fires_on_every_undischarged_claim() {
    let (fired, _) =
        run("crates/geom/src/fixture.rs", include_str!("fixtures/unsafe_bounds_bad.rs"));
    // Unguarded pointer deref, 2-lane guard vs 4-lane load, unguarded
    // get_unchecked, unestablished BOUNDS obligation, missing alignment.
    assert_eq!(lines_of(&fired, "unsafe-bounds"), vec![5, 11, 16, 21, 27], "fired: {fired:?}");
    assert_eq!(fired.len(), 5, "no other rule may fire: {fired:?}");
}

#[test]
fn unsafe_bounds_good_discharges_every_claim_with_pass_notes() {
    let report = analyze_source(
        "crates/geom/src/fixture.rs",
        include_str!("fixtures/unsafe_bounds_good.rs"),
        CrateKind::Library,
        FileRole::Src,
    );
    assert!(report.diagnostics.is_empty(), "diagnostics: {:?}", report.diagnostics);
    let notes: Vec<(u32, Vec<u32>)> = report
        .notes
        .iter()
        .filter(|n| n.rule == "unsafe-bounds")
        .map(|n| (n.line, n.related.iter().map(|r| r.line).collect()))
        .collect();
    // Each machine-discharged site gets a pass note pointing at the
    // discharging guard line; the chunks_exact case is discharged by the
    // iterator's length fact, which has no guard line to point at.
    assert_eq!(
        notes,
        vec![(7, vec![5]), (16, vec![14]), (23, vec![]), (32, vec![30]), (39, vec![36]),],
        "notes: {notes:?}"
    );
}

#[test]
fn unsafe_bounds_is_scoped_to_simd_and_paging_crates() {
    // The same bad fixture analyzed outside geom/index/storage stays quiet:
    // the rule is scoped to where raw SIMD loads and paged I/O live.
    let (fired, _) =
        run("crates/shard/src/fixture.rs", include_str!("fixtures/unsafe_bounds_bad.rs"));
    assert!(lines_of(&fired, "unsafe-bounds").is_empty(), "fired: {fired:?}");
}

#[test]
fn padding_invariant_bad_fires_on_every_contract_breach() {
    let (fired, _) =
        run("crates/core/src/fixture.rs", include_str!("fixtures/padding_invariant_bad.rs"));
    // Zero-filled construction, zero-filled resize, non-4-multiple
    // slab_len, silent mutation, unguarded fused fit probe and commit.
    assert_eq!(lines_of(&fired, "padding-invariant"), vec![4, 9, 13, 17, 21], "fired: {fired:?}");
    assert_eq!(fired.len(), 5, "no other rule may fire: {fired:?}");
}

#[test]
fn padding_invariant_good_is_silent() {
    let (fired, _) =
        run("crates/core/src/fixture.rs", include_str!("fixtures/padding_invariant_good.rs"));
    assert!(fired.is_empty(), "fired: {fired:?}");
}

#[test]
fn flow_rules_cover_the_shard_crate() {
    // Satellite scope extension: the dataflow rules now run over
    // crates/shard as well, with identical verdicts.
    let (fired, _) =
        run("crates/shard/src/fixture.rs", include_str!("fixtures/guard_discipline_bad.rs"));
    assert_eq!(lines_of(&fired, "guard-discipline"), vec![8, 17, 25, 30], "fired: {fired:?}");
}
