//! End-to-end tests of the `csj` binary: generate → join → expand →
//! verify, exercising the actual executable.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use csj_core::brute::parse_cross_links;

fn csj() -> Command {
    Command::new(env!("CARGO_BIN_EXE_csj"))
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("csj_cli_{}_{name}", std::process::id()))
}

#[test]
fn generate_join_expand_roundtrip() {
    let pts = temp("pts.txt");
    let out = temp("out.txt");

    // Generate a small clustered dataset.
    let status = csj()
        .args(["generate", "clusters2d", "--n", "800", "--seed", "5", "--out"])
        .arg(&pts)
        .status()
        .expect("spawn csj generate");
    assert!(status.success());

    // Join it compactly.
    let status = csj()
        .args(["join"])
        .arg(&pts)
        .args(["--eps", "0.02", "--algo", "csj", "--window", "10", "--out"])
        .arg(&out)
        .status()
        .expect("spawn csj join");
    assert!(status.success());

    // Expand the compact output.
    let expanded = csj().arg("expand").arg(&out).output().expect("spawn csj expand");
    assert!(expanded.status.success());
    let compact_links: BTreeSet<(u32, u32)> = String::from_utf8(expanded.stdout)
        .unwrap()
        .lines()
        .map(|l| {
            let mut it = l.split(' ');
            (it.next().unwrap().parse().unwrap(), it.next().unwrap().parse().unwrap())
        })
        .collect();

    // Join with SSJ and compare link sets through the same pipeline.
    let ssj_out = temp("ssj_out.txt");
    let status = csj()
        .args(["join"])
        .arg(&pts)
        .args(["--eps", "0.02", "--algo", "ssj", "--out"])
        .arg(&ssj_out)
        .status()
        .expect("spawn csj join ssj");
    assert!(status.success());
    let expanded = csj().arg("expand").arg(&ssj_out).output().expect("spawn csj expand");
    let ssj_links: BTreeSet<(u32, u32)> = String::from_utf8(expanded.stdout)
        .unwrap()
        .lines()
        .map(|l| {
            let mut it = l.split(' ');
            (it.next().unwrap().parse().unwrap(), it.next().unwrap().parse().unwrap())
        })
        .collect();

    assert!(!compact_links.is_empty(), "join must find links on clustered data");
    assert_eq!(compact_links, ssj_links, "compact and standard joins agree");
    // The compact file is smaller.
    let compact_size = std::fs::metadata(&out).unwrap().len();
    let ssj_size = std::fs::metadata(&ssj_out).unwrap().len();
    assert!(compact_size <= ssj_size, "{compact_size} vs {ssj_size}");

    for p in [&pts, &out, &ssj_out] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn verify_subcommand_passes_on_generated_data() {
    let pts = temp("verify_pts.txt");
    let status =
        csj().args(["generate", "sierpinski2d", "--n", "600", "--out"]).arg(&pts).status().unwrap();
    assert!(status.success());
    let output = csj().arg("verify").arg(&pts).args(["--eps", "0.05"]).output().unwrap();
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("verified"), "{stdout}");
    std::fs::remove_file(&pts).ok();
}

#[test]
fn analyze_reports_dimension() {
    let pts = temp("analyze_pts.txt");
    let status =
        csj().args(["generate", "uniform2d", "--n", "3000", "--out"]).arg(&pts).status().unwrap();
    assert!(status.success());
    let output = csj().arg("analyze").arg(&pts).output().unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("points: 3000"));
    assert!(stdout.contains("fractal dimension"));
    std::fs::remove_file(&pts).ok();
}

#[test]
fn errors_are_reported() {
    // Unknown command.
    let output = csj().arg("frobnicate").output().unwrap();
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown command"));

    // Missing required flag.
    let output = csj().args(["join", "/nonexistent.txt"]).output().unwrap();
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("--eps"));

    // Unknown dataset.
    let output = csj().args(["generate", "nope", "--out", "/tmp/x"]).output().unwrap();
    assert!(!output.status.success());

    // 3-D file read as 2-D.
    let pts = temp("dim_mismatch.txt");
    std::fs::write(&pts, "0.1 0.2 0.3\n").unwrap();
    let output = csj().arg("analyze").arg(&pts).output().unwrap();
    assert!(!output.status.success());
    std::fs::remove_file(&pts).ok();
}

#[test]
fn persisted_index_join_matches_direct_join() {
    let pts = temp("idx_pts.txt");
    let idx = temp("idx.bin");
    let direct = temp("idx_direct.txt");
    let via_index = temp("idx_via.txt");

    assert!(csj()
        .args(["generate", "sierpinski2d", "--n", "1200", "--out"])
        .arg(&pts)
        .status()
        .unwrap()
        .success());
    assert!(csj().arg("index").arg(&pts).arg("--out").arg(&idx).status().unwrap().success());
    assert!(csj()
        .arg("join")
        .arg(&pts)
        .args(["--eps", "0.03", "--out"])
        .arg(&direct)
        .status()
        .unwrap()
        .success());
    assert!(csj()
        .args(["join", "--index"])
        .arg(&idx)
        .args(["--eps", "0.03", "--out"])
        .arg(&via_index)
        .status()
        .unwrap()
        .success());
    let a = std::fs::read(&direct).unwrap();
    let b = std::fs::read(&via_index).unwrap();
    assert_eq!(a, b, "persisted-index join must be byte-identical");
    assert!(!a.is_empty());

    // A corrupted index file is rejected, not silently misread.
    let mut broken = std::fs::read(&idx).unwrap();
    let mid = broken.len() / 2;
    broken[mid] ^= 0xFF;
    std::fs::write(&idx, &broken).unwrap();
    let output =
        csj().args(["join", "--index"]).arg(&idx).args(["--eps", "0.03"]).output().unwrap();
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("checksum"));

    for p in [&pts, &idx, &direct, &via_index] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn spatial_join2_lossless_through_cli() {
    let left = temp("j2_left.txt");
    let right = temp("j2_right.txt");
    let std_out = temp("j2_std.txt");
    let win_out = temp("j2_win.txt");

    assert!(csj()
        .args(["generate", "clusters2d", "--n", "500", "--seed", "1", "--out"])
        .arg(&left)
        .status()
        .unwrap()
        .success());
    assert!(csj()
        .args(["generate", "clusters2d", "--n", "500", "--seed", "2", "--out"])
        .arg(&right)
        .status()
        .unwrap()
        .success());

    for (mode, out) in [("standard", &std_out), ("windowed", &win_out)] {
        assert!(csj()
            .arg("join2")
            .arg(&left)
            .arg(&right)
            .args(["--eps", "0.05", "--mode", mode, "--out"])
            .arg(out)
            .status()
            .unwrap()
            .success());
    }

    // Expand both via the left|right line format and compare cross pairs.
    let expand = |path: &std::path::Path| -> BTreeSet<(u32, u32)> {
        let text = std::fs::read_to_string(path).unwrap();
        parse_cross_links(&text).expect("left | right format")
    };
    let std_links = expand(&std_out);
    let win_links = expand(&win_out);
    assert!(!std_links.is_empty());
    assert_eq!(std_links, win_links, "compact spatial join must be lossless");
    assert!(
        std::fs::metadata(&win_out).unwrap().len() <= std::fs::metadata(&std_out).unwrap().len()
    );

    for p in [&left, &right, &std_out, &win_out] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn budgeted_out_of_core_join_writes_the_in_memory_file() {
    let pts = temp("ooc_budget_pts.txt");
    let pages = temp("ooc_budget_pages");
    assert!(csj()
        .args(["generate", "clusters2d", "--n", "3000", "--seed", "4", "--out"])
        .arg(&pts)
        .status()
        .unwrap()
        .success());
    for algo in ["ncsj", "csj"] {
        let (mem, ooc) = (temp(&format!("mem_{algo}.txt")), temp(&format!("ooc_{algo}.txt")));
        let join = |out: &PathBuf, paged: bool| {
            let mut cmd = csj();
            cmd.arg("join").arg(&pts).args(["--eps", "0.02", "--algo", algo]);
            cmd.args(["--max-links", "4000", "--out"]).arg(out);
            if paged {
                cmd.arg("--data-dir").arg(&pages).args(["--buffer-pages", "8"]);
            }
            let output = cmd.output().expect("spawn csj join");
            assert!(output.status.success(), "{algo} paged={paged}");
            let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
            assert!(stderr.contains("partial result: link budget"), "{algo}: {stderr}");
        };
        join(&mem, false);
        join(&ooc, true);
        let (a, b) = (std::fs::read(&mem).unwrap(), std::fs::read(&ooc).unwrap());
        assert!(!a.is_empty(), "{algo}: the budget leaves rows");
        assert_eq!(a, b, "{algo}: the paged file must equal the in-memory file");
        for p in [&mem, &ooc] {
            std::fs::remove_file(p).ok();
        }
    }
    std::fs::remove_file(&pts).ok();
    std::fs::remove_dir_all(&pages).ok();
}
