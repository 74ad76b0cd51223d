//! Kernel-dispatch and merge-path benchmarks (`BENCH_kernels.json`).
//!
//! Four parts:
//!
//! 1. The SSJ leaf probe three ways — naive scalar loop over records,
//!    chunked AoS kernel, and the dispatched SoA kernel (AVX2/NEON when
//!    the host has it, scalar otherwise or under `CSJ_KERNEL=scalar`).
//!    All three legs must produce identical hit lists and comparison
//!    counts; agreement is asserted, not assumed, so a CI run on either
//!    dispatch path is also a correctness check.
//! 2. The cross-leaf probe on a Pacific-NW road STR tree at ε = 2⁻⁹:
//!    every pair of distinct leaves whose boxes are within ε, probed by
//!    the naive scalar loop over all pairs and by the dispatched kernel
//!    over the ε-strip. Every run's hit list must equal the first's.
//! 3. The CSJ(10)-vs-N-CSJ single-thread wall-time gap on the three
//!    perf workloads — the headline number for the merge path
//!    (LinkProbe + whole-window slab probe + ring window). Each leg
//!    streams the paper text format to a real file: the paper's cost
//!    model is "the join writes its result", so the compact format's
//!    smaller output is part of the measured work, not an afterthought.
//! 4. Row emission on a Pacific-NW road network at ε = 2⁻⁹: collected
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
use csj_geom::{DistKernel, KernelPath, Metric, Point, ProbeScratch, SoaBuffer};
use csj_index::{rstar::RStarTree, JoinIndex, NodeId, RTreeConfig};
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
    let mut scratch = ProbeScratch::new();
    // One pass of the leg: its comparison count and hit list.
    let mut probe = |leg: &str| {
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
            _ => kernel
                .self_join(soa.view(), &mut scratch, &mut comparisons, hit)
                .expect("infallible"),
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

/// The leaves of `tree`, and every pair of distinct leaves whose boxes
/// are within `eps` of each other.
fn near_leaf_pairs(tree: &RStarTree<2>, eps: f64) -> Vec<(NodeId, NodeId)> {
    let mut leaves = Vec::new();
    let mut stack: Vec<NodeId> = tree.root().into_iter().collect();
    while let Some(n) = stack.pop() {
        if tree.is_leaf(n) {
            leaves.push(n);
        } else {
            stack.extend_from_slice(tree.children(n));
        }
    }
    let metric = Metric::Euclidean;
    let mut pairs = Vec::new();
    for (i, &a) in leaves.iter().enumerate() {
        for &b in &leaves[i + 1..] {
            if metric.min_dist_mbr(&tree.node_mbr(a), &tree.node_mbr(b)) <= eps {
                pairs.push((a, b));
            }
        }
    }
    pairs
}

/// The cross-leaf probe two ways over the same near leaf pairs: the
/// naive scalar loop over every pair of records, and the dispatched
/// kernel over each pair's ε-strip, interleaved. Hits are `(leaf pair,
/// left row, right row)`; every run must reproduce the first run's list.
fn cross_leaf(tree: &RStarTree<2>, eps: f64, iters: usize) -> Json {
    let pairs = near_leaf_pairs(tree, eps);
    let metric = Metric::Euclidean;
    let kernel = DistKernel::new(metric, eps);
    let mut scratch = ProbeScratch::new();
    let (mut hits, mut reference) = (Vec::new(), None::<Vec<(u32, u32, u32)>>);
    let mut legs = [("scalar", 0u64), ("dispatched", 0u64)];
    let walls = interleaved(iters, &mut legs, |(leg, evaluated)| {
        hits.clear();
        *evaluated = 0;
        let ms = timed_ms(|| {
            for (k, &(a, b)) in pairs.iter().enumerate() {
                let mut hit = |i: usize, j: usize| {
                    hits.push((k as u32, i as u32, j as u32));
                    Ok::<_, Infallible>(())
                };
                if *leg == "scalar" {
                    let (ea, eb) = (tree.leaf_entries(a), tree.leaf_entries(b));
                    *evaluated += (ea.len() * eb.len()) as u64;
                    for (i, x) in ea.iter().enumerate() {
                        for (j, y) in eb.iter().enumerate() {
                            if metric.within(&x.point, &y.point, eps) {
                                hit(i, j).expect("infallible");
                            }
                        }
                    }
                } else {
                    let (sa, sb) = (tree.leaf_soa(a), tree.leaf_soa(b));
                    kernel.cross_join(sa, sb, &mut scratch, evaluated, hit).expect("infallible");
                }
            }
        });
        let expected = reference.get_or_insert_with(|| hits.clone());
        assert!(hits == *expected, "{leg} leg hit list diverged from the first run's");
        ms
    });
    let [(_, all_pairs), (_, strip_pairs)] = legs;
    let (scalar_ms, dispatched_ms) = (walls[0].median_ms, walls[1].median_ms);
    eprintln!(
        "# cross-leaf ({} leaf pairs): scalar {scalar_ms:.2} ms over {all_pairs} pairs, {} strip \
         {dispatched_ms:.2} ms over {strip_pairs} ({:.2}x)",
        pairs.len(),
        KernelPath::detect().name(),
        scalar_ms / dispatched_ms,
    );
    Json::Obj(vec![
        ("points", tree.num_records().into()),
        ("eps", eps.into()),
        ("leaf_pairs", pairs.len().into()),
        ("pairs", all_pairs.into()),
        ("strip_pairs", strip_pairs.into()),
        ("hits", reference.map_or(0, |h| h.len()).into()),
        ("scalar_ms", Json::Fixed(scalar_ms, 3)),
        ("dispatched_ms", Json::Fixed(dispatched_ms, 3)),
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

/// The row-emission legs on the road `tree`: a collected N-CSJ output
/// written with `JoinOutput::write_to` (the write is timed), and the
/// streamed CSJ(10) join into a file (join and write timed together),
/// interleaved `iters` times.
fn row_emit(tree: &RStarTree<2>, eps: f64, iters: usize) -> Vec<Json> {
    let n = tree.num_records();
    let width = OutputWriter::<FileSink>::id_width_for(n);
    let collected = ParallelJoin::new(eps, ParallelAlgo::Ncsj).with_threads(1).run(tree);

    let new_leg = |name| EmitLeg { name, rows: 0, bytes: 0 };
    let mut legs = [new_leg("ncsj-collected-write"), new_leg("csj10-streamed-join")];
    let walls = interleaved(iters, &mut legs, |leg| {
        if leg.name == "csj10-streamed-join" {
            let join = ResilientJoin::new(eps, ParallelAlgo::Csj(10));
            let (ms, stats, bytes) = join_to_file(&join, OUT_PATH, width, || tree);
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
                ("n", n.into()),
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
    // The Pacific-NW road network at ε = 2⁻⁹ (500k points in a full run),
    // shared by the cross-leaf and row-emission legs.
    let roads = csj_data::roads::pacific_nw(args.n * 25);
    let (roads, eps) = (RStarTree::bulk_load_str(&roads, RTreeConfig::default()), 1.0 / 512.0);
    let cross = cross_leaf(&roads, eps, args.iters);
    let gaps = perf_workloads(args.n).iter().map(|w| merge_gap(w, args.iters)).collect();
    let body = vec![
        ("kernel_microbench", micro),
        ("cross_leaf_probe", cross),
        ("merge_gap_sink", "file (paper text format, write time included)".into()),
        ("merge_gap", Json::Arr(gaps)),
        ("row_emit", Json::Arr(row_emit(&roads, eps, args.iters))),
    ];
    write_report(bin, &args, body);
}
