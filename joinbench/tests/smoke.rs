//! Smoke-sized self-test: every workload, untraced and traced, on a small
//! network. Each run must pass its output checks and print every metric
//! `BENCHMARK.json` names, with its unit; a traced run's time split must
//! add up to no more than its join time.

use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 4] =
    ["roads-csj-seq", "roads-ncsj-par", "roads-ncsj-ooc", "roads-csj-shard"];

/// `(name, unit)` of each metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let spec =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let start = spec.find(&format!("\"{section}\"")).expect("section present");
    let body = &spec[start..start + spec[start..].find(']').expect("section closes")];
    let field = |entry: &str, key: &str| -> String {
        let from = entry.find(&format!("\"{key}\": \"")).expect("key present") + key.len() + 5;
        entry[from..from + entry[from..].find('"').expect("string closes")].to_string()
    };
    body.split('{').skip(1).map(|entry| (field(entry, "name"), field(entry, "unit"))).collect()
}

/// The value and unit the result line gives `name`.
fn metric(result: &str, name: &str) -> (f64, String) {
    let key = format!("\"{name}\": {{\"value\": ");
    let from = result.find(&key).unwrap_or_else(|| panic!("metric {name} missing")) + key.len();
    let rest = &result[from..];
    let value = rest[..rest.find(',').expect("value ends")].parse().expect("numeric value");
    let unit_from = rest.find("\"unit\": \"").expect("unit present") + 9;
    let unit =
        rest[unit_from..unit_from + rest[unit_from..].find('"').expect("unit ends")].to_string();
    (value, unit)
}

fn run(workload: &str, trace: bool) -> String {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    let output = Command::new(env!("CARGO_BIN_EXE_joinbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.2", "--n", "20000"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--dir")
        .arg(&dir)
        .output()
        .expect("benchmark binary runs");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(output.status.success(), "{workload}: {}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_passes_its_checks_and_reports_every_metric() {
    for workload in WORKLOADS {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = run(workload, trace);
            assert!(result.starts_with("{\"correct\": true, "), "{workload}: {result}");
            assert!(result.contains("\"failed\": 0, "), "{workload}: {result}");
            for (name, unit) in declared(section) {
                let (value, got) = metric(&result, &name);
                assert_eq!(got, unit, "{workload}: unit of {name}");
                assert!(value.is_finite(), "{workload}: {name} = {value}");
            }
            if trace {
                let parts: f64 = [
                    "core.engine.self_s",
                    "storage.writer.write_s",
                    "storage.writer.flush_s",
                    "storage.disk.read_s",
                    "core.parallel.run_s",
                    "core.parallel.emit_s",
                    "shard.supervisor_s",
                    "shard.worker_s_max",
                    "shard.emit_s",
                ]
                .iter()
                .map(|name| metric(&result, name).0)
                .sum();
                let join = metric(&result, "trace.join_s").0;
                assert!(parts <= join * (1.0 + 1e-9), "{workload}: parts {parts} > join {join}");
                assert!(
                    parts >= join * 0.999,
                    "{workload}: parts {parts} leave join {join} unexplained"
                );
            }
        }
    }
}
