//! The linter's strongest fixture is the workspace itself: this test
//! keeps `csj-lint` at zero unsuppressed findings on the live tree, so a
//! new unjustified `unwrap`/`Relaxed`/`Instant::now` fails `cargo test`
//! even before CI runs the dedicated lint job.

use csj_analysis::{all_rules, analyze_workspace};
use std::path::Path;

fn workspace_root() -> &'static Path {
    // crates/analysis/ -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().and_then(Path::parent).expect("workspace root")
}

#[test]
fn workspace_has_zero_unsuppressed_findings() {
    let report = analyze_workspace(workspace_root()).expect("workspace walk");
    let bad: Vec<String> = report
        .files
        .iter()
        .flat_map(|f| f.report.diagnostics.iter())
        .map(|d| format!("  {}:{}:{}: [{}] {}", d.file, d.line, d.col, d.rule, d.message))
        .collect();
    assert!(
        bad.is_empty(),
        "csj-lint found {} unsuppressed finding(s):\n{}",
        bad.len(),
        bad.join("\n")
    );
}

#[test]
fn workspace_scan_covers_every_crate() {
    let report = analyze_workspace(workspace_root()).expect("workspace walk");
    for needle in [
        "crates/core/",
        "crates/geom/",
        "crates/index/",
        "crates/storage/",
        "crates/analysis/",
        "crates/model/",
    ] {
        assert!(
            report.files.iter().any(|f| f.rel_path.starts_with(needle)),
            "scan must include {needle}",
        );
    }
}

#[test]
fn every_suppression_names_a_real_rule() {
    // Guards against typo'd allows rotting silently: an unknown rule is a
    // meta finding, so this is implied by zero-findings — but assert the
    // rule registry itself is intact too.
    let names: Vec<&str> = all_rules().iter().map(|r| r.name).collect();
    assert_eq!(
        names,
        [
            "panic-safety",
            "atomics-discipline",
            "float-discipline",
            "determinism",
            "error-hygiene",
            "sync-facade",
            "guard-discipline",
            "lock-order",
            "io-under-lock",
            "unsafe-bounds",
            "padding-invariant"
        ]
    );
}
