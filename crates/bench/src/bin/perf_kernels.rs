//! Kernel-dispatch and merge-path benchmarks (`BENCH_kernels.json`).
//!
//! Two parts:
//!
//! 1. The SSJ leaf probe three ways — naive scalar loop over records,
//!    chunked AoS kernel, and the dispatched SoA kernel (AVX2/NEON when
//!    the host has it, scalar otherwise or under `CSJ_KERNEL=scalar`).
//!    All three legs must produce identical hit lists and comparison
//!    counts; agreement is asserted, not assumed, so a CI run on either
//!    dispatch path is also a correctness check.
//! 2. The CSJ(10)-vs-N-CSJ single-thread wall-time gap on the three
//!    baseline workloads — the headline number for the merge-path
//!    rebuild (LinkProbe + whole-window slab probe + ring window). Each
//!    leg streams the paper text format to a real file: the paper's
//!    cost model is "the join writes its result", so the compact
//!    format's smaller output is part of the measured work, not an
//!    afterthought. Iterations are interleaved round-robin so clock
//!    frequency drift biases both algorithms equally, and min/median/
//!    max are reported per leg. The pre-rebuild medians (in-memory
//!    counting-sink methodology, `BENCH_parallel.json`) are embedded
//!    for the before/after comparison — the *ratio* is the comparable
//!    figure across the methodology change.
//! 3. Row emission on a Pacific-NW road network at ε = 2⁻⁹: collected
//!    N-CSJ rows written by `JoinOutput::write_to` into a `FileSink`
//!    (the write alone is timed), and the streamed CSJ(10) file path
//!    (join and write together). The two legs are interleaved and
//!    reported as rows/s, min/median/max. The same legs' medians from
//!    the per-byte encoder and per-row heap rows that preceded the
//!    fixed-width encoder and flat row store are embedded for the
//!    before/after comparison.
//!
//! ```text
//! perf_kernels [--smoke] [--out <file>] [--n <points>] [--iters <n>]
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use csj_bench::datasets::{skewed_cluster, Lcg};
use csj_bench::harness::{rustc_version, time_stats_ms, TimeStats};
use csj_core::parallel::{ParallelAlgo, ParallelJoin};
use csj_core::ResilientJoin;
use csj_geom::{DistKernel, KernelPath, Metric, Point, RecordId, SoaBuffer};
use csj_index::{rstar::RStarTree, LeafEntry, RTreeConfig};
use csj_storage::{FileSink, OutputSink, OutputWriter};

struct Args {
    smoke: bool,
    out: String,
    n: usize,
    iters: usize,
}

fn parse_args() -> Args {
    let mut out = Args { smoke: false, out: "BENCH_kernels.json".to_string(), n: 20_000, iters: 3 };
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
            "--help" | "-h" => {
                eprintln!("options: --smoke  --out <file>  --n <points>  --iters <n>");
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

/// A probe leg: fills comparison count and hit list for one pass.
type Leg<'a> = &'a dyn Fn(&mut u64, &mut Vec<(usize, usize)>);

/// The three probe legs over an identical dense leaf, with agreement
/// asserted between every pair.
struct Microbench {
    points: usize,
    pairs: u64,
    hits: usize,
    scalar_ms: f64,
    chunked_ms: f64,
    dispatched_ms: f64,
}

fn kernel_microbench(iters: usize, n: usize) -> Microbench {
    let mut rng = Lcg(7);
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
    let eps = 0.002;
    let metric = Metric::Euclidean;

    let scalar = |comparisons: &mut u64, hits: &mut Vec<(usize, usize)>| {
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                *comparisons += 1;
                if metric.within(&pts[i], &pts[j], eps) {
                    hits.push((i, j));
                }
            }
        }
    };
    let kernel = DistKernel::new(metric, eps);
    let chunked = |comparisons: &mut u64, hits: &mut Vec<(usize, usize)>| {
        kernel
            .self_join_points::<2, std::convert::Infallible>(&pts, comparisons, |i, j| {
                hits.push((i, j));
                Ok(())
            })
            .expect("infallible");
    };
    let dispatched = |comparisons: &mut u64, hits: &mut Vec<(usize, usize)>| {
        kernel
            .self_join::<2, std::convert::Infallible>(soa.view(), comparisons, |i, j| {
                hits.push((i, j));
                Ok(())
            })
            .expect("infallible");
    };

    // Agreement first: the benchmark is only meaningful if the legs
    // compute the same join.
    let mut reference: Vec<(usize, usize)> = Vec::new();
    let mut ref_comps = 0u64;
    scalar(&mut ref_comps, &mut reference);
    for (name, leg) in [("chunked", &chunked as Leg), ("dispatched", &dispatched)] {
        let mut comps = 0u64;
        let mut hits = Vec::new();
        leg(&mut comps, &mut hits);
        assert_eq!(comps, ref_comps, "{name} leg comparison count diverged from scalar");
        assert_eq!(hits, reference, "{name} leg hit list diverged from scalar");
    }

    let time = |leg: Leg| {
        time_stats_ms(iters, || {
            let mut comps = 0u64;
            let mut hits = Vec::new();
            leg(&mut comps, &mut hits);
            std::hint::black_box((comps, hits));
        })
        .median_ms
    };
    Microbench {
        points: n,
        pairs: (n as u64 * (n as u64 - 1)) / 2,
        hits: reference.len(),
        scalar_ms: time(&scalar),
        chunked_ms: time(&chunked),
        dispatched_ms: time(&dispatched),
    }
}

struct Workload {
    name: &'static str,
    points: Vec<Point<2>>,
    eps: f64,
    /// Single-thread medians from the committed pre-rebuild
    /// `BENCH_parallel.json` (full run, n = 20000): (N-CSJ, CSJ(10)).
    before_ms: (f64, f64),
}

fn workloads(n: usize) -> Vec<Workload> {
    vec![
        Workload {
            name: "uniform",
            points: csj_data::uniform::uniform::<2>(n, 42),
            eps: 0.01,
            before_ms: (10.212, 22.600),
        },
        Workload {
            name: "skewed-cluster",
            points: skewed_cluster(n, 42),
            eps: 0.0004,
            before_ms: (9.261, 22.307),
        },
        Workload {
            name: "sierpinski",
            points: csj_data::sierpinski::triangle_2d(n, 42),
            eps: 0.008,
            before_ms: (12.193, 49.731),
        },
    ]
}

struct GapRow {
    ncsj: TimeStats,
    csj: TimeStats,
    bytes_ncsj: u64,
    bytes_csj: u64,
    links: u64,
    groups_ncsj: u64,
    groups_csj: u64,
    merge_attempts: u64,
    merges_succeeded: u64,
}

/// CSJ(10) and N-CSJ on one workload: an untimed collected run first
/// (lossless guarantee asserted — identical expanded link sets — and
/// the merge counters recorded), then `iters` interleaved rounds of
/// sequential streaming runs writing the paper text format to
/// `target/perf_kernels_out.txt`.
fn merge_gap(w: &Workload, iters: usize) -> GapRow {
    let tree = RStarTree::bulk_load_str(&w.points, RTreeConfig::with_max_fanout(170));

    // Correctness before speed: collect both outputs in memory once and
    // check they imply the same link set.
    let collect = |algo: ParallelAlgo| ParallelJoin::new(w.eps, algo).with_threads(1).run(&tree);
    let ncsj_out = collect(ParallelAlgo::Ncsj);
    let csj_out = collect(ParallelAlgo::Csj(10));
    let link_set = ncsj_out.expanded_link_set();
    assert_eq!(
        csj_out.expanded_link_set(),
        link_set,
        "CSJ(10) and N-CSJ must expand to the same link set ({})",
        w.name
    );

    let out_path = "target/perf_kernels_out.txt";
    std::fs::create_dir_all("target").expect("create target dir");
    let id_width = w.points.len().saturating_sub(1).to_string().len().max(1);
    let mut samples: [Vec<f64>; 2] = [Vec::with_capacity(iters), Vec::with_capacity(iters)];
    let mut bytes = [0u64; 2];
    for _ in 0..iters {
        for (leg, leg_samples) in samples.iter_mut().enumerate() {
            let sink = FileSink::create(out_path).expect("create bench output file");
            let mut wtr = OutputWriter::new(sink, id_width);
            let start = Instant::now();
            let algo = if leg == 0 { ParallelAlgo::Ncsj } else { ParallelAlgo::Csj(10) };
            let stats = ResilientJoin::new(w.eps, algo).run_streaming(&tree, &mut wtr);
            wtr.finish().expect("flush bench output");
            leg_samples.push(start.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(stats.expect("file sink write"));
            bytes[leg] = std::fs::metadata(out_path).map(|m| m.len()).unwrap_or(0);
        }
    }
    let [ncsj_samples, csj_samples] = samples;
    GapRow {
        ncsj: TimeStats::from_samples_ms(ncsj_samples),
        csj: TimeStats::from_samples_ms(csj_samples),
        bytes_ncsj: bytes[0],
        bytes_csj: bytes[1],
        links: link_set.len() as u64,
        groups_ncsj: ncsj_out.stats.groups_emitted,
        groups_csj: csj_out.stats.groups_emitted,
        merge_attempts: csj_out.stats.merge_attempts,
        merges_succeeded: csj_out.stats.merges_succeeded,
    }
}

/// Rows/s of the emit legs before the fixed-width encoder and the flat
/// row store, medians of 25 interleaved repetitions of this bin's legs
/// on the host and with the settings of the committed
/// `BENCH_kernels.json`: (collected N-CSJ write, streamed CSJ(10) join
/// and write).
const EMIT_BEFORE_ROWS_PER_S: (f64, f64) = (23_062_100.0, 2_029_482.0);

/// One emit leg's output size and timings.
struct EmitLeg {
    rows: u64,
    bytes: u64,
    time: TimeStats,
}

impl EmitLeg {
    /// Rows/s at the leg's slowest, median and fastest repetition.
    fn rows_per_s(&self) -> [f64; 3] {
        let rate = |ms: f64| self.rows as f64 / (ms / 1e3);
        [rate(self.time.max_ms), rate(self.time.median_ms), rate(self.time.min_ms)]
    }
}

/// The row-emission legs on `n` road points: a collected N-CSJ output
/// written with `JoinOutput::write_to` (the write is timed), and the
/// streamed CSJ(10) join into a file (join and write timed together),
/// interleaved `iters` times.
fn row_emit(n: usize, iters: usize) -> (usize, f64, [EmitLeg; 2]) {
    let points = csj_data::roads::pacific_nw(n);
    let eps = 1.0 / 512.0;
    let tree = RStarTree::bulk_load_str(&points, RTreeConfig::default());
    let width = OutputWriter::<FileSink>::id_width_for(points.len());
    let collected = ParallelJoin::new(eps, ParallelAlgo::Ncsj).with_threads(1).run(&tree);

    let out_path = "target/perf_kernels_out.txt";
    std::fs::create_dir_all("target").expect("create target dir");
    let mut samples: [Vec<f64>; 2] = [Vec::with_capacity(iters), Vec::with_capacity(iters)];
    let mut rows = [0u64; 2];
    let mut bytes = [0u64; 2];
    for _ in 0..iters {
        for (leg, leg_samples) in samples.iter_mut().enumerate() {
            let mut wtr = OutputWriter::new(FileSink::create(out_path).expect("create"), width);
            let start = Instant::now();
            if leg == 0 {
                collected.write_to(&mut wtr).expect("file sink write");
            } else {
                let join = ResilientJoin::new(eps, ParallelAlgo::Csj(10));
                let stats = join.run_streaming(&tree, &mut wtr);
                std::hint::black_box(stats.expect("file sink write"));
            }
            rows[leg] = wtr.links_written() + wtr.groups_written();
            bytes[leg] = wtr.finish().expect("flush bench output").bytes_written();
            leg_samples.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    assert_eq!(rows[0], collected.items.len() as u64, "every collected row written");
    let [write, stream] = samples;
    let legs = [
        EmitLeg { rows: rows[0], bytes: bytes[0], time: TimeStats::from_samples_ms(write) },
        EmitLeg { rows: rows[1], bytes: bytes[1], time: TimeStats::from_samples_ms(stream) },
    ];
    (points.len(), eps, legs)
}

fn main() {
    let args = parse_args();
    let path = KernelPath::detect();
    eprintln!(
        "# perf_kernels: n={}, iters={}, smoke={}, kernel_path={}",
        args.n,
        args.iters,
        args.smoke,
        path.name()
    );

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"bench\": \"perf_kernels\",\n  \"smoke\": {},\n  \"n\": {},\n  \"iters\": {},\n  \
         \"host_parallelism\": {},\n  \"rustc_version\": \"{}\",\n  \"target_arch\": \"{}\",\n  \
         \"kernel_path\": \"{}\",",
        args.smoke,
        args.n,
        args.iters,
        csj_core::parallel::default_threads(),
        rustc_version(),
        std::env::consts::ARCH,
        path.name(),
    );

    let micro_n = if args.smoke { 500 } else { 3_000 };
    let m = kernel_microbench(args.iters, micro_n);
    let _ = writeln!(
        json,
        "  \"kernel_microbench\": {{\"points\": {}, \"pairs\": {}, \"hits\": {}, \
         \"scalar_ms\": {:.3}, \"chunked_ms\": {:.3}, \"dispatched_ms\": {:.3}, \
         \"chunked_speedup\": {:.3}, \"dispatched_speedup\": {:.3}}},",
        m.points,
        m.pairs,
        m.hits,
        m.scalar_ms,
        m.chunked_ms,
        m.dispatched_ms,
        m.scalar_ms / m.chunked_ms,
        m.scalar_ms / m.dispatched_ms,
    );
    eprintln!(
        "# microbench ({} pts): scalar {:.2} ms, chunked {:.2} ms ({:.2}x), {} {:.2} ms ({:.2}x)",
        m.points,
        m.scalar_ms,
        m.chunked_ms,
        m.scalar_ms / m.chunked_ms,
        path.name(),
        m.dispatched_ms,
        m.scalar_ms / m.dispatched_ms,
    );

    json.push_str(
        "  \"merge_gap_sink\": \"file (paper text format, write time included)\",\n  \
         \"merge_gap\": [\n",
    );
    let all = workloads(args.n);
    for (wi, w) in all.iter().enumerate() {
        let row = merge_gap(w, args.iters);
        // Min-of-N is the noise-robust estimator on hosts with clock
        // frequency drift (the floor is reproducible; the median soaks
        // up whatever the governor was doing). Full per-leg spreads are
        // in the row for anyone who wants the median ratio instead.
        let ratio = row.csj.min_ms / row.ncsj.min_ms;
        let before_ratio = w.before_ms.1 / w.before_ms.0;
        let _ = writeln!(
            json,
            "    {{\"workload\": \"{}\", \"n\": {}, \"eps\": {}, \"threads\": 1, \
             \"links\": {}, \"groups_ncsj\": {}, \"groups_csj10\": {}, \
             \"bytes_ncsj\": {}, \"bytes_csj10\": {}, \
             \"merge_attempts\": {}, \"merges_succeeded\": {}, \
             \"ncsj_ms_min\": {:.3}, \"ncsj_ms_median\": {:.3}, \"ncsj_ms_max\": {:.3}, \
             \"csj10_ms_min\": {:.3}, \"csj10_ms_median\": {:.3}, \"csj10_ms_max\": {:.3}, \
             \"csj10_over_ncsj\": {:.3}, \"before_ncsj_ms_median\": {:.3}, \
             \"before_csj10_ms_median\": {:.3}, \"before_csj10_over_ncsj\": {:.3}}}{}",
            w.name,
            w.points.len(),
            w.eps,
            row.links,
            row.groups_ncsj,
            row.groups_csj,
            row.bytes_ncsj,
            row.bytes_csj,
            row.merge_attempts,
            row.merges_succeeded,
            row.ncsj.min_ms,
            row.ncsj.median_ms,
            row.ncsj.max_ms,
            row.csj.min_ms,
            row.csj.median_ms,
            row.csj.max_ms,
            ratio,
            w.before_ms.0,
            w.before_ms.1,
            before_ratio,
            if wi + 1 == all.len() { "" } else { "," },
        );
        eprintln!(
            "# {:<15} N-CSJ {:.1} ms vs CSJ(10) {:.1} ms: {ratio:.2}x (was {before_ratio:.2}x)",
            w.name, row.ncsj.median_ms, row.csj.median_ms,
        );
    }
    json.push_str("  ],\n");

    let (emit_n, emit_eps, legs) = row_emit(args.n * 25, args.iters);
    json.push_str("  \"row_emit\": [\n");
    let before = [EMIT_BEFORE_ROWS_PER_S.0, EMIT_BEFORE_ROWS_PER_S.1];
    let names = ["ncsj-collected-write", "csj10-streamed-join"];
    for (i, leg) in legs.iter().enumerate() {
        let [min, median, max] = leg.rows_per_s();
        let _ = writeln!(
            json,
            "    {{\"leg\": \"{}\", \"dataset\": \"pacific_nw\", \"n\": {emit_n}, \
             \"eps\": {emit_eps}, \"rows\": {}, \"bytes\": {}, \
             \"ms_min\": {:.3}, \"ms_median\": {:.3}, \"ms_max\": {:.3}, \
             \"rows_per_s_min\": {min:.0}, \"rows_per_s_median\": {median:.0}, \
             \"rows_per_s_max\": {max:.0}, \"before_rows_per_s_median\": {:.0}}}{}",
            names[i],
            leg.rows,
            leg.bytes,
            leg.time.min_ms,
            leg.time.median_ms,
            leg.time.max_ms,
            before[i],
            if i + 1 == legs.len() { "" } else { "," },
        );
        eprintln!(
            "# emit {:<21} {} rows, {:.1} ms median: {:.1} M rows/s (before {:.1} M rows/s)",
            names[i],
            leg.rows,
            leg.time.median_ms,
            median / 1e6,
            before[i] / 1e6,
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&args.out, &json).expect("write benchmark output");
    eprintln!("# wrote {}", args.out);
}
