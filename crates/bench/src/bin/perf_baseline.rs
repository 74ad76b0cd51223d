//! Reproducible performance baseline for the parallel join stack.
//!
//! Runs {uniform, skewed-cluster, sierpinski} × {SSJ, N-CSJ, CSJ(10)} ×
//! {1, 2, N threads} through [`ParallelJoin`]. Results land in
//! `BENCH_parallel.json` (see DESIGN.md for the field reference).
//!
//! ```text
//! perf_baseline [--smoke] [--out <file>] [--n <points>] [--iters <n>] [--threads <n>]
//! ```
//!
//! `--smoke` shrinks the workloads for CI (one iteration, small n); the
//! committed baseline is produced by a full release-mode run.

use std::time::Instant;

use csj_bench::args::{PerfArgs, PerfBin};
use csj_bench::harness::{algo_name, interleaved, perf_workloads, timed_ms, write_report};
use csj_bench::harness::{Json, Workload};
use csj_core::parallel::{ParallelAlgo, ParallelJoin};

/// The workload's {SSJ, N-CSJ, CSJ(10)} × {1, 2, `max_threads`} grid:
/// one untimed run per leg for its counters, then `iters` interleaved
/// rounds over every leg. One report row per leg.
fn measure_grid(w: &Workload, iters: usize, max_threads: usize) -> Vec<Json> {
    let mut threads = vec![1, 2, max_threads];
    threads.sort_unstable();
    threads.dedup();
    let mut legs: Vec<(ParallelAlgo, usize)> =
        [ParallelAlgo::Ssj, ParallelAlgo::Ncsj, ParallelAlgo::Csj(10)]
            .into_iter()
            .flat_map(|algo| threads.iter().map(move |&t| (algo, t)))
            .collect();
    let join = |&(algo, t): &(ParallelAlgo, usize)| ParallelJoin::new(w.eps, algo).with_threads(t);
    let outs: Vec<_> = legs.iter().map(|leg| join(leg).run(&w.tree)).collect();
    let walls = interleaved(iters, &mut legs, |leg| {
        let join = join(leg);
        timed_ms(|| {
            std::hint::black_box(join.run(&w.tree));
        })
    });

    let mut rows = Vec::new();
    let mut sequential_ms = f64::NAN;
    for ((&(algo, threads), out), wall) in legs.iter().zip(&outs).zip(&walls) {
        if threads == 1 {
            sequential_ms = wall.median_ms;
        }
        let links = out.stats.links_emitted + out.stats.links_in_groups;
        eprintln!(
            "# {:<15} {:<8} threads={threads}: {:.1} ms median ({:.1}..{:.1}), {links} links, \
             {} tasks",
            w.name,
            algo_name(algo),
            wall.median_ms,
            wall.min_ms,
            wall.max_ms,
            out.stats.tasks_executed,
        );
        let mut row = vec![("algo", algo_name(algo).into()), ("threads", threads.into())];
        row.extend(wall.fields(["wall_ms_min", "wall_ms_median", "wall_ms_max"], 3));
        row.extend([
            ("links", links.into()),
            ("links_per_sec", Json::Fixed(links as f64 / (wall.median_ms / 1e3), 1)),
            ("speedup_vs_sequential", Json::Fixed(sequential_ms / wall.median_ms, 3)),
            ("threads_used", out.stats.threads_used.into()),
            ("tasks_executed", out.stats.tasks_executed.into()),
        ]);
        rows.push(Json::Obj(row));
    }
    rows
}

fn main() {
    let bin = PerfBin::Baseline;
    let args = PerfArgs::parse(bin);
    // The key is always there, `null` on a multi-core host, so a report's
    // key layout does not depend on the host.
    let mut warning = Json::Null;
    if csj_core::parallel::default_threads() == 1 {
        warning = "HOST HAS 1 CPU: all multi-thread rows are oversubscribed on one core; \
                   speedup_vs_sequential is meaningless here"
            .into();
        eprintln!(
            "# WARNING: host_parallelism == 1 — multi-thread numbers below measure \
             oversubscription, not parallel speedup"
        );
    }
    let mut body = vec![("single_core_warning", warning)];
    let mut workloads = Vec::new();
    for w in perf_workloads(args.n) {
        let started = Instant::now();
        let runs = measure_grid(&w, args.iters, args.threads);
        eprintln!("# {} grid done in {:.1} s", w.name, started.elapsed().as_secs_f64());
        workloads.push(Json::Obj(vec![
            ("name", w.name.into()),
            ("n", w.n.into()),
            ("eps", w.eps.into()),
            ("runs", Json::Arr(runs)),
        ]));
    }
    body.push(("workloads", Json::Arr(workloads)));
    write_report(bin, &args, body);
}
