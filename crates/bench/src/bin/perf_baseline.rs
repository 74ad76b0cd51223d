//! Reproducible performance baseline for the parallel join stack.
//!
//! Runs {uniform, skewed-cluster, sierpinski} × {SSJ, N-CSJ, CSJ(10)} ×
//! {1, N threads} through the work-stealing [`ParallelJoin`] and
//! microbenchmarks the batched distance kernel against a scalar probe
//! loop. Results land in `BENCH_parallel.json` (see DESIGN.md for the
//! field reference).
//!
//! ```text
//! perf_baseline [--smoke] [--out <file>] [--n <points>] [--iters <n>] [--threads <n>]
//! ```
//!
//! `--smoke` shrinks the workloads for CI (one iteration, small n); the
//! committed baseline is produced by a full release-mode run.

use std::fmt::Write as _;
use std::time::Instant;

use csj_bench::datasets::{skewed_cluster, Lcg};
use csj_bench::harness::{median_time_ms, rustc_version, time_stats_ms, TimeStats};
use csj_core::parallel::{ParallelAlgo, ParallelJoin};
use csj_geom::{DistKernel, KernelPath, Metric, Point, RecordId, SoaBuffer};
use csj_index::{rstar::RStarTree, LeafEntry, RTreeConfig};

/// Compile-time target features relevant to the distance kernels.
fn compiled_features() -> &'static str {
    if cfg!(target_feature = "avx2") {
        "avx2"
    } else if cfg!(target_feature = "neon") {
        "neon"
    } else if cfg!(target_feature = "sse2") {
        "sse2"
    } else {
        "baseline"
    }
}

struct Args {
    smoke: bool,
    out: String,
    n: usize,
    iters: usize,
    threads: usize,
}

fn parse_args() -> Args {
    let mut out = Args {
        smoke: false,
        out: "BENCH_parallel.json".to_string(),
        n: 20_000,
        iters: 3,
        threads: 8,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--smoke" => {
                out.smoke = true;
                out.n = 2_000;
                out.iters = 1;
            }
            "--out" => out.out = value("--out"),
            "--n" => out.n = value("--n").parse().expect("--n takes a point count"),
            "--iters" => out.iters = value("--iters").parse().expect("--iters takes a count"),
            "--threads" => {
                out.threads = value("--threads").parse().expect("--threads takes a count")
            }
            "--help" | "-h" => {
                eprintln!(
                    "options: --smoke  --out <file>  --n <points>  --iters <n>  --threads <n>"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}; see --help");
                std::process::exit(2);
            }
        }
    }
    out
}

/// Page-sized leaves, as in the paper's disk-resident R-trees (a 4 KB
/// page holds ~170 two-dimensional entries). Large leaves also put the
/// run time where the joins spend it on real data: leaf probing.
fn bench_tree_config() -> RTreeConfig {
    RTreeConfig::with_max_fanout(170)
}

struct Workload {
    name: &'static str,
    points: Vec<Point<2>>,
    eps: f64,
}

fn workloads(n: usize) -> Vec<Workload> {
    vec![
        Workload { name: "uniform", points: csj_data::uniform::uniform::<2>(n, 42), eps: 0.01 },
        Workload { name: "skewed-cluster", points: skewed_cluster(n, 42), eps: 0.0004 },
        Workload {
            name: "sierpinski",
            points: csj_data::sierpinski::triangle_2d(n, 42),
            eps: 0.008,
        },
    ]
}

struct RunRow {
    algo: String,
    threads: usize,
    wall: TimeStats,
    links: u64,
    links_per_sec: f64,
    speedup_vs_sequential: f64,
    threads_used: u64,
    tasks_executed: u64,
    tasks_stolen: u64,
    tasks_split: u64,
}

fn algo_name(algo: ParallelAlgo) -> String {
    match algo {
        ParallelAlgo::Ssj => "SSJ".to_string(),
        ParallelAlgo::Ncsj => "N-CSJ".to_string(),
        ParallelAlgo::Csj(g) => format!("CSJ({g})"),
    }
}

fn measure_grid(w: &Workload, iters: usize, max_threads: usize) -> Vec<RunRow> {
    let tree = RStarTree::bulk_load_str(&w.points, bench_tree_config());
    let mut rows = Vec::new();
    for algo in [ParallelAlgo::Ssj, ParallelAlgo::Ncsj, ParallelAlgo::Csj(10)] {
        let mut sequential_ms = f64::NAN;
        for threads in [1, max_threads] {
            let join = ParallelJoin::new(w.eps, algo).with_threads(threads);
            let out = join.run(&tree);
            let wall = time_stats_ms(iters, || {
                std::hint::black_box(join.run(&tree));
            });
            if threads == 1 {
                sequential_ms = wall.median_ms;
            }
            let links = out.stats.links_emitted + out.stats.links_in_groups;
            rows.push(RunRow {
                algo: algo_name(algo),
                threads,
                wall,
                links,
                links_per_sec: links as f64 / (wall.median_ms / 1e3),
                speedup_vs_sequential: sequential_ms / wall.median_ms,
                threads_used: out.stats.threads_used,
                tasks_executed: out.stats.tasks_executed,
                tasks_stolen: out.stats.tasks_stolen,
                tasks_split: out.stats.tasks_split,
            });
            eprintln!(
                "# {:<15} {:<8} threads={threads}: {:.1} ms median ({:.1}..{:.1}), {links} links, \
                 {} tasks ({} stolen, {} split)",
                w.name,
                rows.last().expect("just pushed").algo,
                wall.median_ms,
                wall.min_ms,
                wall.max_ms,
                out.stats.tasks_executed,
                out.stats.tasks_stolen,
                out.stats.tasks_split,
            );
        }
    }
    rows
}

/// The SSJ leaf probe in isolation: the scalar arm iterates interleaved
/// [`LeafEntry`] records, counts each predicate evaluation and pushes hit
/// id pairs; the batched arm runs the ε²-kernel over the leaf's
/// contiguous point mirror, as the engine's leaf probe does.
fn kernel_microbench(iters: usize, n: usize) -> (usize, u64, f64, f64) {
    let mut rng = Lcg(7);
    // A tight box: every pair is a near-miss or a hit, like a dense leaf.
    let entries: Vec<LeafEntry<2>> = (0..n)
        .map(|i| {
            LeafEntry::new(
                i as RecordId,
                Point::new([rng.next_f64() * 0.05, rng.next_f64() * 0.05]),
            )
        })
        .collect();
    let pts: Vec<Point<2>> = entries.iter().map(|e| e.point).collect();
    let soa = SoaBuffer::from_points(&pts);
    // Sparse hit rate (~1%): the common leaf-probe regime, where the
    // distance evaluations rather than the hit emission dominate.
    let eps = 0.002;
    let metric = Metric::Euclidean;

    let scalar_ms = median_time_ms(iters, || {
        let mut comparisons = 0u64;
        let mut hits: Vec<(RecordId, RecordId)> = Vec::new();
        for i in 0..entries.len() {
            for j in (i + 1)..entries.len() {
                comparisons += 1;
                if metric.within(&entries[i].point, &entries[j].point, eps) {
                    hits.push((entries[i].id, entries[j].id));
                }
            }
        }
        std::hint::black_box((comparisons, hits));
    });
    let kernel = DistKernel::new(metric, eps);
    let batched_ms = median_time_ms(iters, || {
        let mut comparisons = 0u64;
        let mut hits: Vec<(RecordId, RecordId)> = Vec::new();
        kernel
            .self_join::<2, std::convert::Infallible>(soa.view(), &mut comparisons, |i, j| {
                hits.push((entries[i].id, entries[j].id));
                Ok(())
            })
            .expect("infallible");
        std::hint::black_box((comparisons, hits));
    });
    let pairs = (n as u64 * (n as u64 - 1)) / 2;
    (n, pairs, scalar_ms, batched_ms)
}

fn push_row(json: &mut String, row: &RunRow, last: bool) {
    let _ = writeln!(
        json,
        "      {{\"algo\": \"{}\", \"threads\": {}, \"wall_ms_min\": {:.3}, \
         \"wall_ms_median\": {:.3}, \"wall_ms_max\": {:.3}, \"links\": {}, \
         \"links_per_sec\": {:.1}, \"speedup_vs_sequential\": {:.3}, \"threads_used\": {}, \
         \"tasks_executed\": {}, \"tasks_stolen\": {}, \"tasks_split\": {}}}{}",
        row.algo,
        row.threads,
        row.wall.min_ms,
        row.wall.median_ms,
        row.wall.max_ms,
        row.links,
        row.links_per_sec,
        row.speedup_vs_sequential,
        row.threads_used,
        row.tasks_executed,
        row.tasks_stolen,
        row.tasks_split,
        if last { "" } else { "," },
    );
}

fn main() {
    let args = parse_args();
    eprintln!(
        "# perf_baseline: n={}, iters={}, threads={}, smoke={}",
        args.n, args.iters, args.threads, args.smoke
    );

    let host_parallelism = csj_core::parallel::default_threads();
    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"bench\": \"perf_baseline\",\n  \"smoke\": {},\n  \"n\": {},\n  \"iters\": {},\n  \
         \"host_parallelism\": {},\n  \"rustc_version\": \"{}\",\n  \"target_arch\": \"{}\",\n  \
         \"target_features_compiled\": \"{}\",\n  \"kernel_path\": \"{}\",",
        args.smoke,
        args.n,
        args.iters,
        host_parallelism,
        rustc_version(),
        std::env::consts::ARCH,
        compiled_features(),
        KernelPath::detect().name(),
    );
    if host_parallelism == 1 {
        json.push_str(
            "  \"single_core_warning\": \"HOST HAS 1 CPU: all multi-thread rows are \
             oversubscribed on one core; speedup_vs_sequential is meaningless here\",\n",
        );
        eprintln!(
            "# WARNING: host_parallelism == 1 — multi-thread numbers below measure \
             oversubscription, not parallel speedup"
        );
    }

    json.push_str("  \"workloads\": [\n");
    let all = workloads(args.n);
    for (wi, w) in all.iter().enumerate() {
        let started = Instant::now();
        let rows = measure_grid(w, args.iters, args.threads);
        eprintln!("# {} grid done in {:.1} s", w.name, started.elapsed().as_secs_f64());
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"n\": {}, \"eps\": {}, \"runs\": [",
            w.name,
            w.points.len(),
            w.eps
        );
        for (i, row) in rows.iter().enumerate() {
            push_row(&mut json, row, i + 1 == rows.len());
        }
        let _ = writeln!(json, "    ]}}{}", if wi + 1 == all.len() { "" } else { "," });
    }
    json.push_str("  ],\n");

    let micro_n = if args.smoke { 500 } else { 3_000 };
    let (n, pairs, scalar_ms, batched_ms) = kernel_microbench(args.iters, micro_n);
    let _ = writeln!(
        json,
        "  \"kernel_microbench\": {{\"points\": {n}, \"pairs\": {pairs}, \"scalar_ms\": {:.3}, \
         \"batched_ms\": {:.3}, \"speedup\": {:.3}}}",
        scalar_ms,
        batched_ms,
        scalar_ms / batched_ms,
    );
    eprintln!(
        "# kernel microbench: scalar {scalar_ms:.2} ms vs batched {batched_ms:.2} ms ({:.2}x)",
        scalar_ms / batched_ms
    );

    json.push_str("}\n");
    std::fs::write(&args.out, &json).expect("write benchmark output");
    eprintln!("# wrote {}", args.out);
}
