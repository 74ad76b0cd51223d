//! Kernel-dispatch and merge-path benchmarks (`BENCH_kernels.json`).
//!
//! Three parts:
//!
//! 1. The SSJ leaf probe three ways — naive scalar loop over records,
//!    chunked AoS kernel, and the dispatched SoA kernel (AVX2/NEON when
//!    the host has it, scalar otherwise or under `CSJ_KERNEL=scalar`).
//!    All three legs must produce identical hit lists and comparison
//!    counts; agreement is asserted, not assumed, so a CI run on either
//!    dispatch path is also a correctness check.
//! 2. The CSJ(10)-vs-N-CSJ single-thread wall-time gap on the three
//!    perf workloads — the headline number for the merge path
//!    (LinkProbe + whole-window slab probe + ring window). Each leg
//!    streams the paper text format to a real file: the paper's cost
//!    model is "the join writes its result", so the compact format's
//!    smaller output is part of the measured work, not an afterthought.
//! 3. Row emission on a Pacific-NW road network at ε = 2⁻⁹: collected
//!    N-CSJ rows written by `JoinOutput::write_to` into a `FileSink`
//!    (the write alone is timed), and the streamed CSJ(10) file path
//!    (join and write together), reported as rows/s.
//!
//! Every part interleaves its legs round-robin, so clock frequency drift
//! biases all legs equally, and reports min/median/max per leg.
//!
//! ```text
//! perf_kernels [--smoke] [--out <file>] [--n <points>] [--iters <n>]
//! ```

use std::convert::Infallible;
use std::time::Instant;

use csj_bench::args::{PerfArgs, PerfBin};
use csj_bench::datasets::Lcg;
use csj_bench::harness::{interleaved, join_to_file, perf_workloads, timed_ms, write_report};
use csj_bench::harness::{Json, Workload};
use csj_core::parallel::{ParallelAlgo, ParallelJoin};
use csj_core::ResilientJoin;
use csj_geom::{DistKernel, KernelPath, Metric, Point, SoaBuffer};
use csj_index::{rstar::RStarTree, RTreeConfig};
use csj_storage::{FileSink, OutputSink, OutputWriter};

/// Where the merge-gap and row-emit legs write their output.
const OUT_PATH: &str = "target/perf_kernels_out.txt";

/// The three probe legs over an identical dense leaf (`n` points in a
/// 0.05 box at ε = 0.002, a sparse ~1 % hit rate, where the distance
/// evaluations rather than the hit emission dominate), interleaved.
fn kernel_microbench(iters: usize, n: usize) -> Json {
    let mut rng = Lcg(7);
    let pts: Vec<Point<2>> =
        (0..n).map(|_| Point::new([rng.next_f64() * 0.05, rng.next_f64() * 0.05])).collect();
    let soa = SoaBuffer::from_points(&pts);
    let eps = 0.002;
    let metric = Metric::Euclidean;
    let kernel = DistKernel::new(metric, eps);
    // One pass of the leg: its comparison count and hit list.
    let probe = |leg: &str| {
        let (mut comparisons, mut hits) = (0u64, Vec::new());
        let hit = |i, j| {
            hits.push((i, j));
            Ok::<_, Infallible>(())
        };
        match leg {
            "scalar" => {
                for i in 0..pts.len() {
                    for j in (i + 1)..pts.len() {
                        comparisons += 1;
                        if metric.within(&pts[i], &pts[j], eps) {
                            hits.push((i, j));
                        }
                    }
                }
            }
            "chunked" => kernel.self_join_points(&pts, &mut comparisons, hit).expect("infallible"),
            _ => kernel.self_join(soa.view(), &mut comparisons, hit).expect("infallible"),
        }
        (comparisons, hits)
    };

    // The benchmark is only meaningful if the legs compute the same join:
    // every run of a leg must reproduce the scalar leg's first run.
    let mut legs = ["scalar", "chunked", "dispatched"];
    let mut reference = None;
    let walls = interleaved(iters, &mut legs, |leg| {
        let mut out = (0, Vec::new());
        let ms = timed_ms(|| out = probe(leg));
        let expected = reference.get_or_insert_with(|| out.clone());
        assert_eq!(out.0, expected.0, "{leg} leg comparison count diverged from scalar");
        assert_eq!(out.1, expected.1, "{leg} leg hit list diverged from scalar");
        ms
    });
    let hits = reference.expect("at least one round").1.len();
    let [scalar_ms, chunked_ms, dispatched_ms] = [0, 1, 2].map(|i| walls[i].median_ms);
    eprintln!(
        "# microbench ({n} pts): scalar {scalar_ms:.2} ms, chunked {chunked_ms:.2} ms ({:.2}x), \
         {} {dispatched_ms:.2} ms ({:.2}x)",
        scalar_ms / chunked_ms,
        KernelPath::detect().name(),
        scalar_ms / dispatched_ms,
    );
    Json::Obj(vec![
        ("points", n.into()),
        ("pairs", ((n as u64 * (n as u64).saturating_sub(1)) / 2).into()),
        ("hits", hits.into()),
        ("scalar_ms", Json::Fixed(scalar_ms, 3)),
        ("chunked_ms", Json::Fixed(chunked_ms, 3)),
        ("dispatched_ms", Json::Fixed(dispatched_ms, 3)),
        ("chunked_speedup", Json::Fixed(scalar_ms / chunked_ms, 3)),
        ("dispatched_speedup", Json::Fixed(scalar_ms / dispatched_ms, 3)),
    ])
}

/// CSJ(10) and N-CSJ on one workload: an untimed collected run first
/// (lossless guarantee asserted — identical expanded link sets — and
/// the merge counters recorded), then `iters` interleaved rounds of
/// sequential streaming runs writing the paper text format to
/// [`OUT_PATH`].
fn merge_gap(w: &Workload, iters: usize) -> Json {
    // Correctness before speed: collect both outputs in memory once and
    // check they imply the same link set.
    let collect = |algo: ParallelAlgo| ParallelJoin::new(w.eps, algo).with_threads(1).run(&w.tree);
    let ncsj_out = collect(ParallelAlgo::Ncsj);
    let csj_out = collect(ParallelAlgo::Csj(10));
    let link_set = ncsj_out.expanded_link_set();
    assert_eq!(
        csj_out.expanded_link_set(),
        link_set,
        "CSJ(10) and N-CSJ must expand to the same link set ({})",
        w.name
    );

    let id_width = w.n.saturating_sub(1).to_string().len().max(1);
    // (algorithm, bytes written)
    let mut legs = [(ParallelAlgo::Ncsj, 0u64), (ParallelAlgo::Csj(10), 0u64)];
    let walls = interleaved(iters, &mut legs, |(algo, bytes)| {
        let join = ResilientJoin::new(w.eps, *algo);
        let (ms, _, written) = join_to_file(&join, OUT_PATH, id_width, || &w.tree);
        *bytes = written;
        ms
    });
    let (ncsj, csj) = (walls[0], walls[1]);
    // Min-of-N is the noise-robust estimator on hosts with clock
    // frequency drift (the floor is reproducible; the median soaks up
    // whatever the governor was doing). Full per-leg spreads are in the
    // row for anyone who wants the median ratio instead.
    let ratio = csj.min_ms / ncsj.min_ms;
    eprintln!(
        "# {:<15} N-CSJ {:.1} ms vs CSJ(10) {:.1} ms: {ratio:.2}x",
        w.name, ncsj.median_ms, csj.median_ms,
    );
    let mut row = vec![
        ("workload", w.name.into()),
        ("n", w.n.into()),
        ("eps", w.eps.into()),
        ("threads", 1u64.into()),
        ("links", link_set.len().into()),
        ("groups_ncsj", ncsj_out.stats.groups_emitted.into()),
        ("groups_csj10", csj_out.stats.groups_emitted.into()),
        ("bytes_ncsj", legs[0].1.into()),
        ("bytes_csj10", legs[1].1.into()),
        ("merge_attempts", csj_out.stats.merge_attempts.into()),
        ("merges_succeeded", csj_out.stats.merges_succeeded.into()),
    ];
    row.extend(ncsj.fields(["ncsj_ms_min", "ncsj_ms_median", "ncsj_ms_max"], 3));
    row.extend(csj.fields(["csj10_ms_min", "csj10_ms_median", "csj10_ms_max"], 3));
    row.push(("csj10_over_ncsj", Json::Fixed(ratio, 3)));
    Json::Obj(row)
}

/// One row-emission leg: its label, and the rows and bytes it wrote.
struct EmitLeg {
    name: &'static str,
    rows: u64,
    bytes: u64,
}

/// The row-emission legs on `n` road points: a collected N-CSJ output
/// written with `JoinOutput::write_to` (the write is timed), and the
/// streamed CSJ(10) join into a file (join and write timed together),
/// interleaved `iters` times.
fn row_emit(n: usize, iters: usize) -> Vec<Json> {
    let points = csj_data::roads::pacific_nw(n);
    let eps = 1.0 / 512.0;
    let tree = RStarTree::bulk_load_str(&points, RTreeConfig::default());
    let width = OutputWriter::<FileSink>::id_width_for(points.len());
    let collected = ParallelJoin::new(eps, ParallelAlgo::Ncsj).with_threads(1).run(&tree);

    let new_leg = |name| EmitLeg { name, rows: 0, bytes: 0 };
    let mut legs = [new_leg("ncsj-collected-write"), new_leg("csj10-streamed-join")];
    let walls = interleaved(iters, &mut legs, |leg| {
        if leg.name == "csj10-streamed-join" {
            let join = ResilientJoin::new(eps, ParallelAlgo::Csj(10));
            let (ms, stats, bytes) = join_to_file(&join, OUT_PATH, width, || &tree);
            (leg.rows, leg.bytes) = (stats.rows_emitted(), bytes);
            return ms;
        }
        let mut wtr = OutputWriter::new(FileSink::create(OUT_PATH).expect("create"), width);
        let start = Instant::now();
        collected.write_to(&mut wtr).expect("file sink write");
        leg.rows = wtr.links_written() + wtr.groups_written();
        leg.bytes = wtr.finish().expect("flush bench output").bytes_written();
        start.elapsed().as_secs_f64() * 1e3
    });
    assert_eq!(legs[0].rows, collected.items.len() as u64, "every collected row written");

    legs.iter()
        .zip(walls)
        .map(|(leg, wall)| {
            let rate = |ms: f64| leg.rows as f64 / (ms / 1e3);
            eprintln!(
                "# emit {:<21} {} rows, {:.1} ms median: {:.1} M rows/s",
                leg.name,
                leg.rows,
                wall.median_ms,
                rate(wall.median_ms) / 1e6,
            );
            let mut row = vec![
                ("leg", leg.name.into()),
                ("dataset", "pacific_nw".into()),
                ("n", points.len().into()),
                ("eps", eps.into()),
                ("rows", leg.rows.into()),
                ("bytes", leg.bytes.into()),
            ];
            row.extend(wall.fields(["ms_min", "ms_median", "ms_max"], 3));
            row.extend([
                ("rows_per_s_min", Json::Fixed(rate(wall.max_ms), 0)),
                ("rows_per_s_median", Json::Fixed(rate(wall.median_ms), 0)),
                ("rows_per_s_max", Json::Fixed(rate(wall.min_ms), 0)),
            ]);
            Json::Obj(row)
        })
        .collect()
}

fn main() {
    let bin = PerfBin::Kernels;
    let args = PerfArgs::parse(bin);
    std::fs::create_dir_all("target").expect("create target dir");

    let micro = kernel_microbench(args.iters, if args.smoke { 500 } else { 3_000 });
    let gaps = perf_workloads(args.n).iter().map(|w| merge_gap(w, args.iters)).collect();
    let body = vec![
        ("kernel_microbench", micro),
        ("merge_gap_sink", "file (paper text format, write time included)".into()),
        ("merge_gap", Json::Arr(gaps)),
        ("row_emit", Json::Arr(row_emit(args.n * 25, args.iters))),
    ];
    write_report(bin, &args, body);
}
