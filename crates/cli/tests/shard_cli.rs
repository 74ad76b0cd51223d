//! End-to-end tests of `csj shard-join` with *real worker processes*:
//! the supervisor spawns `csj shard-worker` children over the frame
//! protocol, injects faults, and must still write `csj join`'s bytes.

use std::path::PathBuf;
use std::process::Command;

fn csj() -> Command {
    Command::new(env!("CARGO_BIN_EXE_csj"))
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("csj_shard_cli_{}_{name}", std::process::id()))
}

fn generate(pts: &PathBuf, n: &str, seed: &str) {
    let status = csj()
        .args(["generate", "clusters2d", "--n", n, "--seed", seed, "--out"])
        .arg(pts)
        .status()
        .expect("spawn csj generate");
    assert!(status.success());
}

/// The bytes `csj <args…> --out FILE` writes; panics with its stderr
/// when it fails.
fn written(args: &[&str]) -> (Vec<u8>, String) {
    let out = temp(&format!("{}_{}.txt", args[0], args.len()));
    let run = csj().args(args).arg("--out").arg(&out).output().expect("spawn csj");
    let stderr = String::from_utf8_lossy(&run.stderr).to_string();
    assert!(run.status.success(), "csj {args:?} failed: {stderr}");
    let bytes = std::fs::read(&out).expect("output file");
    let _ = std::fs::remove_file(&out);
    (bytes, stderr)
}

#[test]
fn process_workers_with_faults_write_the_sequential_bytes() {
    let pts = temp("pts.txt");
    generate(&pts, "600", "9");
    let pts_arg = pts.to_str().expect("utf8 path");
    for algo in [&["ssj"][..], &["ncsj"], &["csj"], &["csj", "--window", "0"]] {
        let mut join = vec!["join", pts_arg, "--eps", "0.02", "--algo"];
        join.extend(algo);
        let (want, _) = written(&join);
        assert!(!want.is_empty(), "baseline must have rows");
        // Three shards; shard 0's first worker is killed, shard 1's
        // first worker straggles and loses to a speculative twin.
        // Recovery must be bit-identical.
        let mut shard = join.clone();
        shard[0] = "shard-join";
        shard.extend([
            "--shards",
            "3",
            "--max-attempts",
            "3",
            "--fault-plan",
            "kill:0@1;delay:1@1=400",
            "--speculate-after",
            "0.08",
            "--workers",
            "process",
        ]);
        let (got, stderr) = written(&shard);
        assert!(got == want, "{algo:?}: sharded bytes differ from `csj join`'s; stderr: {stderr}");
        assert!(stderr.contains("supervisor:"), "per-shard report expected: {stderr}");
    }
    let _ = std::fs::remove_file(&pts);
}

#[test]
fn kill_beyond_budget_exits_zero_with_a_partial_report() {
    let pts = temp("partial_pts.txt");
    generate(&pts, "500", "12");
    let got = csj()
        .args(["shard-join"])
        .arg(&pts)
        .args([
            "--eps",
            "0.02",
            "--shards",
            "3",
            "--max-attempts",
            "2",
            "--fault-plan",
            "kill:0@1;kill:0@2",
            "--workers",
            "process",
        ])
        .output()
        .expect("spawn csj shard-join");
    let stderr = String::from_utf8_lossy(&got.stderr);
    assert!(got.status.success(), "a lost shard degrades, it does not fail: {stderr}");
    assert!(stderr.contains("partial result"), "stderr must report the degradation: {stderr}");
    assert!(stderr.contains("shards lost beyond retry budget"), "{stderr}");
    assert!(stderr.contains("LOST"), "the lost shard must be named: {stderr}");
    let _ = std::fs::remove_file(&pts);
}

#[test]
fn shard_worker_rejects_garbage_with_the_shard_exit_code() {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = csj()
        .arg("shard-worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn csj shard-worker");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(b"this is not a task frame")
        .expect("write garbage");
    let out = child.wait_with_output().expect("wait worker");
    assert_eq!(out.status.code(), Some(7), "protocol violations use the shard exit code");
}
