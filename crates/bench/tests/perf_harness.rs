//! The perf bins' shared parts: the flag loop with each bin's flags,
//! defaults and `--smoke` values, the interleaved sampler, and the JSON
//! writer.

use csj_bench::args::{ArgError, CommonArgs, PerfArgs, PerfBin};
use csj_bench::harness::{interleaved, Json};

fn perf(bin: PerfBin, args: &[&str]) -> Result<PerfArgs, ArgError> {
    PerfArgs::parse_from(bin, args.iter().map(|a| a.to_string()))
}

fn unknown(flag: &str) -> ArgError {
    ArgError::Unknown(flag.to_string())
}

#[test]
fn common_flags_and_quick() {
    let parse = |args: &[&str]| CommonArgs::parse_from(args.iter().map(|a| a.to_string()));
    let a = parse(&["--iters", "5", "--ssj-budget", "10"]).expect("valid");
    assert_eq!((a.iters, a.ssj_budget), (5, 10));
    let a = parse(&["--quick"]).expect("valid");
    assert_eq!((a.scale, a.iters), (0.1, 1));
    assert_eq!(parse(&["--smoke"]).unwrap_err(), unknown("--smoke"));
}

#[test]
fn perf_defaults_per_bin() {
    let a = perf(PerfBin::Baseline, &[]).expect("no flags");
    assert_eq!((a.out.as_str(), a.n, a.iters, a.threads), ("BENCH_parallel.json", 20_000, 3, 8));
    let a = perf(PerfBin::Kernels, &[]).expect("no flags");
    assert_eq!((a.out.as_str(), a.n, a.iters, a.smoke), ("BENCH_kernels.json", 20_000, 3, false));
    let a = perf(PerfBin::OutOfCore, &[]).expect("no flags");
    assert_eq!((a.out.as_str(), a.n, a.iters), ("BENCH_outofcore.json", 1_500_000, 3));
    assert_eq!((a.eps, a.data_dir), (0.0005, None));
}

#[test]
fn perf_smoke_values_per_bin() {
    for (bin, n) in
        [(PerfBin::Baseline, 2_000), (PerfBin::Kernels, 2_000), (PerfBin::OutOfCore, 50_000)]
    {
        let a = perf(bin, &["--smoke"]).expect("valid");
        assert_eq!((a.smoke, a.n, a.iters), (true, n, 1), "{}", bin.name());
    }
    // Flags apply in order: a later `--n` overrides the smoke size.
    let a = perf(PerfBin::Kernels, &["--smoke", "--n", "700"]).expect("valid");
    assert_eq!((a.n, a.iters), (700, 1));
}

#[test]
fn perf_flags_belong_to_their_bins() {
    let a = perf(PerfBin::Baseline, &["--threads", "2", "--iters", "4", "--out", "x.json"])
        .expect("valid");
    assert_eq!((a.threads, a.iters, a.out.as_str()), (2, 4, "x.json"));
    let a = perf(PerfBin::OutOfCore, &["--eps", "0.25", "--data-dir", "d"]).expect("valid");
    assert_eq!((a.eps, a.data_dir.as_deref()), (0.25, Some("d")));
    assert_eq!(perf(PerfBin::Kernels, &["--threads", "2"]).unwrap_err(), unknown("--threads"));
    assert_eq!(perf(PerfBin::OutOfCore, &["--iters", "2"]).unwrap_err(), unknown("--iters"));
    assert_eq!(perf(PerfBin::Baseline, &["--eps", "0.1"]).unwrap_err(), unknown("--eps"));
    assert_eq!(perf(PerfBin::Baseline, &["--bogus"]).unwrap_err(), unknown("--bogus"));
}

#[test]
fn perf_help_missing_and_bad_values() {
    assert_eq!(perf(PerfBin::Baseline, &["-h"]).unwrap_err(), ArgError::Help);
    assert_eq!(perf(PerfBin::Kernels, &["--help", "--bogus"]).unwrap_err(), ArgError::Help);
    let missing = perf(PerfBin::OutOfCore, &["--n"]).unwrap_err();
    assert_eq!(missing, ArgError::MissingValue("--n".into()));
    let bad = perf(PerfBin::Baseline, &["--iters", "many"]).unwrap_err();
    assert!(matches!(&bad, ArgError::BadValue(flag, _) if flag == "--iters"), "{bad:?}");
}

#[test]
fn interleaved_runs_legs_round_robin() {
    let mut order = Vec::new();
    let mut legs = [10.0, 20.0];
    let stats = interleaved(3, &mut legs, |leg| {
        order.push(*leg);
        *leg += 1.0;
        *leg
    });
    assert_eq!(order, [10.0, 20.0, 11.0, 21.0, 12.0, 22.0]);
    assert_eq!((stats[0].min_ms, stats[0].median_ms, stats[0].max_ms), (11.0, 12.0, 13.0));
    assert_eq!((stats[1].min_ms, stats[1].median_ms, stats[1].max_ms), (21.0, 22.0, 23.0));
}

#[test]
fn json_escapes_strings_and_keys() {
    let v = Json::Obj(vec![("a\"b", "q\"\\\nend\u{1}".into())]);
    assert_eq!(v.render(), "{\n  \"a\\\"b\": \"q\\\"\\\\\\nend\\u0001\"\n}\n");
}

#[test]
fn json_numbers_precision_and_non_finite() {
    let v = Json::Arr(vec![
        Json::Fixed(2.0 / 3.0, 3),
        Json::Fixed(1234.5678, 0),
        0.0004.into(),
        7u64.into(),
        f64::NAN.into(),
        Json::Fixed(f64::INFINITY, 2),
        Json::Fixed(f64::NEG_INFINITY, 1),
        true.into(),
    ]);
    let want = "[\n  0.667,\n  1235,\n  0.0004,\n  7,\n  null,\n  null,\n  null,\n  true\n]\n";
    assert_eq!(v.render(), want);
}

#[test]
fn json_nests_arrays_in_inline_objects() {
    let row = |i: u64| Json::Obj(vec![("i", i.into())]);
    let runs = Json::Arr(vec![row(1), row(2)]);
    let v = Json::Obj(vec![
        ("bench", "x".into()),
        ("empty", Json::Arr(Vec::new())),
        ("one", Json::Obj(vec![("k", 1u64.into()), ("runs", runs)])),
    ]);
    let want = "{\n  \"bench\": \"x\",\n  \"empty\": [],\n  \"one\": {\"k\": 1, \"runs\": [\n    \
                {\"i\": 1},\n    {\"i\": 2}\n  ]}\n}\n";
    assert_eq!(v.render(), want);
}
