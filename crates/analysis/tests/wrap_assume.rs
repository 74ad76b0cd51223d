use csj_analysis::dataflow::probe_intervals;

#[test]
fn assume_wrap_soundness_check() {
    // Concretely (wrapping u64): x0 = 0 -> x0 - 15 wraps to 2^64-15,
    // guard (x0 - 15) >= v0 is TRUE for v0 = 5, and p = x0 = 0.
    let src = "fn f(v0: u64) { let x0 = 0; if (x0 - 15) >= v0 { let p = x0; probe(p); } }";
    let v = probe_intervals(src);
    let Some((_, av)) = v.first() else {
        panic!("probe abstractly unreachable but concretely reachable (probe results: {v:?})");
    };
    assert!(av.lo <= 0, "UNSOUND: abstract lo {} excludes concrete value 0 ({v:?})", av.lo);
}
