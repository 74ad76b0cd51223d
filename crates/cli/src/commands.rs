//! The `csj` subcommands.
//!
//! Every command returns a classified [`CliError`] so failures exit with
//! a distinct code (see `crate::error`); nothing in here panics on
//! user-controlled input.

use std::io::Write;
use std::time::{Duration, Instant};

use csj_core::parallel::{ParallelAlgo, ParallelJoin};
use csj_core::resilient::ResilientReport;
use csj_core::verify::verify_lossless;
use csj_core::{Completion, JoinConfig, ResilientJoin, RunBudget};
use csj_data::fractal;
use csj_geom::{Metric, Point};
use csj_index::mtree::{MTree, MTreeConfig};
use csj_index::persist::PersistError;
use csj_index::{rstar::RStarTree, rtree::RTree, JoinIndex, RTreeConfig};
use csj_storage::{FileSink, IoOp, OutputSink, OutputWriter, StorageError};

use crate::error::CliError;
use crate::opts::{parse_metric, Opts};

/// Maps a flag-parsing error (`Result<_, String>`) to a usage failure.
trait UsageExt<T> {
    fn usage(self) -> Result<T, CliError>;
}

impl<T> UsageExt<T> for Result<T, String> {
    fn usage(self) -> Result<T, CliError> {
        self.map_err(CliError::Usage)
    }
}

fn read_points_input<const D: usize>(file: &str) -> Result<Vec<Point<D>>, CliError> {
    csj_data::io::read_points(file).map_err(|e| CliError::input(format!("{file}: {e}")))
}

/// `csj generate <dataset> --n N [--seed S] --out FILE`
pub fn generate(args: &[String]) -> Result<(), CliError> {
    let opts = Opts::parse(args, &["n", "seed", "out"]).usage()?;
    let dataset = opts.positional(0, "dataset").usage()?;
    let out = opts.require::<String>("out").usage()?;
    let seed = opts.get_or("seed", 42u64).usage()?;

    // The presets carry their paper sizes; --n overrides.
    let write2 = |pts: Vec<Point<2>>| -> Result<usize, CliError> {
        let n = pts.len();
        csj_data::io::write_points(&out, &pts)
            .map_err(|e| StorageError::io_at(IoOp::Write, out.as_ref(), &e))?;
        Ok(n)
    };
    let write3 = |pts: Vec<Point<3>>| -> Result<usize, CliError> {
        let n = pts.len();
        csj_data::io::write_points(&out, &pts)
            .map_err(|e| StorageError::io_at(IoOp::Write, out.as_ref(), &e))?;
        Ok(n)
    };

    let n_flag = opts.get("n").map(|raw| raw.parse::<usize>());
    let n_of = |default: usize| -> Result<usize, CliError> {
        match &n_flag {
            Some(Ok(n)) => Ok(*n),
            Some(Err(e)) => Err(CliError::usage(format!("bad value for --n: {e}"))),
            None => Ok(default),
        }
    };

    let written = match dataset {
        "uniform2d" => write2(csj_data::uniform::uniform::<2>(n_of(10_000)?, seed))?,
        "uniform3d" => write3(csj_data::uniform::uniform::<3>(n_of(10_000)?, seed))?,
        "sierpinski2d" => write2(csj_data::sierpinski::triangle_2d(n_of(100_000)?, seed))?,
        "sierpinski3d" => write3(csj_data::sierpinski::pyramid_3d(n_of(100_000)?, seed))?,
        "clusters2d" => write2(csj_data::clusters::gaussian_mixture::<2>(
            n_of(10_000)?,
            csj_data::clusters::ClusterConfig::default(),
            seed,
        ))?,
        "roads" => write2(csj_data::roads::road_network(&csj_data::roads::RoadConfig {
            n_points: n_of(50_000)?,
            cores: 4,
            core_sigma: 0.07,
            rural_fraction: 0.3,
            grid_snap_prob: 0.8,
            step: 0.003,
            mean_road_len: 0.05,
            seed,
        }))?,
        "mg-county" => write2(csj_data::roads::mg_county())?,
        "lb-county" => write2(csj_data::roads::lb_county())?,
        "pacific-nw" => {
            write2(csj_data::roads::pacific_nw(n_of(csj_data::roads::PACIFIC_NW_SIZE)?))?
        }
        other => return Err(CliError::usage(format!("unknown dataset {other:?}; see `csj help`"))),
    };
    eprintln!("wrote {written} points to {out}");
    Ok(())
}

/// `csj index <points-file> --out FILE [--bulk str|hilbert|omt|none] [--dim 2|3]`
pub fn index(args: &[String]) -> Result<(), CliError> {
    let opts = Opts::parse(args, &["out", "bulk", "dim"]).usage()?;
    by_dim(&opts, || index_dim::<2>(&opts), || index_dim::<3>(&opts))
}

fn index_dim<const D: usize>(opts: &Opts) -> Result<(), CliError> {
    let file = opts.positional(0, "points-file").usage()?;
    let out = opts.require::<String>("out").usage()?;
    let bulk = opts.get("bulk").unwrap_or("str");
    let points: Vec<Point<D>> = read_points_input(file)?;
    let cfg = RTreeConfig::default();
    let start = Instant::now();
    let tree = match bulk {
        "str" => RStarTree::bulk_load_str(&points, cfg),
        "hilbert" => RStarTree::bulk_load_hilbert(&points, cfg),
        "omt" => RStarTree::bulk_load_omt(&points, cfg),
        "none" => RStarTree::from_points(&points, cfg),
        other => return Err(CliError::usage(format!("unknown --bulk {other:?}"))),
    };
    let built_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    tree.save_to_file(&out).map_err(|e| CliError::Index(format!("{out}: {e}")))?;
    let saved_ms = start.elapsed().as_secs_f64() * 1e3;
    eprintln!(
        "indexed {} points in {built_ms:.1} ms; saved (checksummed, atomic) to {out} in {saved_ms:.1} ms",
        points.len(),
    );
    Ok(())
}

/// `csj analyze <points-file> [--dim 2|3]`
pub fn analyze(args: &[String]) -> Result<(), CliError> {
    let opts = Opts::parse(args, &["dim"]).usage()?;
    let file = opts.positional(0, "points-file").usage()?;
    by_dim(&opts, || analyze_dim::<2>(file), || analyze_dim::<3>(file))
}

fn analyze_dim<const D: usize>(file: &str) -> Result<(), CliError> {
    let mut points: Vec<Point<D>> = read_points_input(file)?;
    println!("points: {}", points.len());
    let Some(bounds) = csj_geom::Mbr::from_points(&points) else {
        return Ok(()); // empty input: nothing more to report
    };
    println!("bounds: {:?} .. {:?}", bounds.lo.coords(), bounds.hi.coords());
    // Fractal dimensions are computed on the normalized copy.
    csj_data::normalize_unit_cube(&mut points);
    let d0 = fractal::box_counting_dimension(&points, &[2, 3, 4, 5]);
    let d2 = fractal::correlation_dimension(&points, &[0.01, 0.02, 0.04, 0.08]);
    println!("fractal dimension: D0 (box counting) = {d0:.3}, D2 (correlation) = {d2:.3}");
    if D == 2 {
        let proj: Vec<Point<2>> = points.iter().map(|p| Point::new([p[0], p[1]])).collect();
        println!("density map (log scale):");
        print!("{}", density_map(&proj, 64, 20));
    }
    Ok(())
}

/// `csj join <points-file> --eps E [options]`
pub fn join(args: &[String]) -> Result<(), CliError> {
    let opts = Opts::parse(
        args,
        &[
            "eps",
            "algo",
            "window",
            "metric",
            "tree",
            "bulk",
            "dim",
            "out",
            "index",
            "max-links",
            "max-bytes",
            "deadline",
            "threads",
            "data-dir",
            "buffer-pages",
        ],
    )
    .usage()?;
    by_dim(&opts, || join_dim::<2>(&opts), || join_dim::<3>(&opts))
}

/// Runs a command's 2-D or 3-D body by `--dim` (default 2).
fn by_dim(
    opts: &Opts,
    two: impl FnOnce() -> Result<(), CliError>,
    three: impl FnOnce() -> Result<(), CliError>,
) -> Result<(), CliError> {
    match opts.get_or("dim", 2usize).usage()? {
        2 => two(),
        3 => three(),
        d => Err(CliError::usage(format!("unsupported dimension {d} (2 or 3)"))),
    }
}

/// The required `--eps`, finite and non-negative.
fn parse_eps(opts: &Opts) -> Result<f64, CliError> {
    let eps = opts.require::<f64>("eps").usage()?;
    if !(eps >= 0.0 && eps.is_finite()) {
        return Err(CliError::usage("--eps must be finite and non-negative".to_string()));
    }
    Ok(eps)
}

/// Builds the resource budget from `--max-links`, `--max-bytes` and
/// `--deadline <seconds>` (all optional; absent means unlimited).
fn parse_budget(opts: &Opts) -> Result<RunBudget, CliError> {
    let mut budget = RunBudget::unlimited();
    if let Some(raw) = opts.get("max-links") {
        let n: u64 =
            raw.parse().map_err(|e| CliError::usage(format!("bad value for --max-links: {e}")))?;
        budget = budget.with_max_links(n);
    }
    if let Some(raw) = opts.get("max-bytes") {
        let n: u64 =
            raw.parse().map_err(|e| CliError::usage(format!("bad value for --max-bytes: {e}")))?;
        budget = budget.with_max_bytes(n);
    }
    if let Some(raw) = opts.get("deadline") {
        let secs: f64 =
            raw.parse().map_err(|e| CliError::usage(format!("bad value for --deadline: {e}")))?;
        if !(secs >= 0.0 && secs.is_finite()) {
            return Err(CliError::usage(
                "--deadline must be a finite, non-negative number of seconds".to_string(),
            ));
        }
        budget = budget.with_deadline(Duration::from_secs_f64(secs));
    }
    Ok(budget)
}

/// Parses `--threads N|auto`: absent means the sequential resilient
/// runner, `auto` means one worker per available core.
fn parse_threads(opts: &Opts) -> Result<Option<usize>, CliError> {
    match opts.get("threads") {
        None => Ok(None),
        Some("auto") => Ok(Some(csj_core::parallel::default_threads())),
        Some(raw) => {
            let n: usize = raw
                .parse()
                .map_err(|e| CliError::usage(format!("bad value for --threads: {e}")))?;
            if n == 0 {
                return Err(CliError::usage(
                    "--threads must be at least 1 (or `auto`)".to_string(),
                ));
            }
            Ok(Some(n))
        }
    }
}

fn join_dim<const D: usize>(opts: &Opts) -> Result<(), CliError> {
    let eps = parse_eps(opts)?;
    if opts.get("data-dir").is_some() {
        return join_outofcore_dim::<D>(opts, eps);
    }
    if opts.get("buffer-pages").is_some() {
        return Err(CliError::usage(
            "--buffer-pages only applies to out-of-core runs; pass --data-dir too".to_string(),
        ));
    }
    let budget = parse_budget(opts)?;
    let threads = parse_threads(opts)?;
    // Persisted-index mode: skip building entirely.
    if let Some(index_file) = opts.get("index") {
        let algo = parse_algo(opts)?;
        let metric = parse_metric(opts.get("metric").unwrap_or("l2")).usage()?;
        let out = opts.get("out").map(str::to_string);
        let start = Instant::now();
        let tree = RStarTree::<D>::load_from_file(index_file).map_err(|e| match e {
            // `load_from_file` already names the path in its I/O errors.
            PersistError::Io(detail) => CliError::Index(detail),
            other => CliError::Index(format!("{index_file}: {other}")),
        })?;
        eprintln!(
            "loaded index with {} records in {:.1} ms",
            tree.num_records(),
            start.elapsed().as_secs_f64() * 1e3
        );
        let width = OutputWriter::<csj_storage::CountingSink>::id_width_for(tree.num_records());
        return run_join(&tree, algo, eps, metric, width, out.as_deref(), budget, threads);
    }
    let file = opts.positional(0, "points-file").usage()?;
    let algo = parse_algo(opts)?;
    let metric = parse_metric(opts.get("metric").unwrap_or("l2")).usage()?;
    let tree_kind = opts.get("tree").unwrap_or("rstar").to_string();
    let bulk = opts.get("bulk").unwrap_or("str").to_string();
    let out = opts.get("out").map(str::to_string);

    let points: Vec<Point<D>> = read_points_input(file)?;
    eprintln!("loaded {} points from {file}", points.len());
    let width = OutputWriter::<csj_storage::CountingSink>::id_width_for(points.len());
    let cfg = RTreeConfig::default();

    let build_start = Instant::now();
    macro_rules! finish {
        ($tree:expr) => {{
            let tree = $tree;
            eprintln!(
                "index built in {:.1} ms ({} nodes, height {})",
                build_start.elapsed().as_secs_f64() * 1e3,
                tree.root().map_or(0, |r| tree.subtree_node_count(r)),
                tree.height()
            );
            run_join(&tree, algo, eps, metric, width, out.as_deref(), budget, threads)
        }};
    }
    if points.is_empty() {
        eprintln!("empty input; nothing to join");
        return Ok(());
    }
    match (tree_kind.as_str(), bulk.as_str()) {
        ("rstar", "str") => finish!(RStarTree::bulk_load_str(&points, cfg)),
        ("rstar", "hilbert") => finish!(RStarTree::bulk_load_hilbert(&points, cfg)),
        ("rstar", "omt") => finish!(RStarTree::bulk_load_omt(&points, cfg)),
        ("rstar", "none") => finish!(RStarTree::from_points(&points, cfg)),
        ("rtree", _) => finish!(RTree::from_points(&points, cfg)),
        ("mtree", _) => {
            finish!(MTree::from_points(&points, MTreeConfig::default().with_metric(metric)))
        }
        (t, b) => {
            Err(CliError::usage(format!("unsupported --tree {t:?} / --bulk {b:?} combination")))
        }
    }
}

/// `csj join <points-file> --eps E --data-dir DIR [--buffer-pages N]`:
/// the external-memory path. The tree is written to real disk pages in
/// `DIR/tree.pages` and the join runs with at most `--buffer-pages`
/// nodes resident (plus 32 pages of frontier read-ahead). It is the
/// sequential task loop over the page file, budgeted like the in-memory
/// run, and its rows are bit-identical to that run's.
fn join_outofcore_dim<const D: usize>(opts: &Opts, eps: f64) -> Result<(), CliError> {
    use csj_core::outofcore::{PagedSource, Prefetcher};
    use csj_index::PagedTree;
    use csj_storage::{FileDisk, RetryPolicy, PAGE_SIZE};

    for flag in ["threads", "index"] {
        if opts.get(flag).is_some() {
            return Err(CliError::usage(format!(
                "--{flag} is not supported with --data-dir (out-of-core runs are sequential \
                 over the page file they build)"
            )));
        }
    }
    let budget = parse_budget(opts)?;
    // `get` returned Some for the caller to dispatch here.
    let data_dir = opts.get("data-dir").unwrap_or(".");
    let buffer_pages = opts.get_or("buffer-pages", 256usize).usage()?;
    if buffer_pages < 2 {
        return Err(CliError::usage(
            "--buffer-pages must be at least 2 (a leaf-pair probe pins two pages)".to_string(),
        ));
    }
    let algo = parse_algo(opts)?;
    let metric = parse_metric(opts.get("metric").unwrap_or("l2")).usage()?;
    let tree_kind = opts.get("tree").unwrap_or("rstar");
    if tree_kind != "rstar" {
        return Err(CliError::usage(format!(
            "--tree {tree_kind:?} has no out-of-core page format; use --tree rstar"
        )));
    }
    let bulk = opts.get("bulk").unwrap_or("str").to_string();
    let out = opts.get("out").map(str::to_string);
    let file = opts.positional(0, "points-file").usage()?;

    let points: Vec<Point<D>> = read_points_input(file)?;
    eprintln!("loaded {} points from {file}", points.len());
    if points.is_empty() {
        eprintln!("empty input; nothing to join");
        return Ok(());
    }
    std::fs::create_dir_all(data_dir)
        .map_err(|e| StorageError::io_at(IoOp::Write, std::path::Path::new(data_dir), &e))?;
    let pages_path = std::path::Path::new(data_dir).join("tree.pages");
    let disk = FileDisk::create(&pages_path)?;

    let cfg_tree = RTreeConfig::default();
    let build_start = Instant::now();
    let tree = match bulk.as_str() {
        // STR streams chunks straight to pages; the other loaders build
        // in memory first and serialize.
        "str" => {
            PagedTree::build_str(&points, cfg_tree, disk, RetryPolicy::default(), buffer_pages)
        }
        "hilbert" => {
            let mem = RStarTree::bulk_load_hilbert(&points, cfg_tree);
            PagedTree::from_core(mem.core(), disk, RetryPolicy::default(), buffer_pages)
        }
        "omt" => {
            let mem = RStarTree::bulk_load_omt(&points, cfg_tree);
            PagedTree::from_core(mem.core(), disk, RetryPolicy::default(), buffer_pages)
        }
        other => {
            return Err(CliError::usage(format!(
                "unsupported --bulk {other:?} for out-of-core runs (str, hilbert or omt)"
            )))
        }
    }?;
    eprintln!(
        "paged index built in {:.1} ms ({} node pages on {}, pool {} pages = {} KiB)",
        build_start.elapsed().as_secs_f64() * 1e3,
        tree.meta().node_pages,
        pages_path.display(),
        buffer_pages,
        buffer_pages * PAGE_SIZE / 1024,
    );

    let width = OutputWriter::<csj_storage::CountingSink>::id_width_for(points.len());
    let start = Instant::now();
    let source = PagedSource::new(&tree, Some(Prefetcher::spawn(&pages_path, 32 * PAGE_SIZE)?));
    let mut writer = OutputWriter::new(Out::open(out.as_deref())?, width);
    let report = ResilientJoin::with_config(JoinConfig::new(eps).with_metric(metric), algo)
        .with_budget(budget)
        .with_id_width(width)
        .run_streaming(source, &mut writer)?;
    let bytes = writer.finish()?.bytes_written();
    report_join(algo, eps, start, bytes, &report);
    let pg = tree.stats();
    eprintln!(
        "buffer pool: {} hits / {} misses ({:.1}% hit rate), {} evictions; disk: {} page reads, \
         {} page writes, {} retries; prefetch supplied {} pages ({} issued, {} late waiting \
         {:.1} ms, {} wasted; {} accesses the frontier did not list)",
        pg.pool.hits,
        pg.pool.misses,
        pg.pool.hit_rate() * 100.0,
        pg.pool.evictions,
        pg.disk_reads,
        pg.disk_writes,
        pg.io_retries,
        pg.prefetch_supplied,
        pg.prefetch.issued,
        pg.prefetch.late,
        pg.prefetch.late_wait_ns as f64 / 1e6,
        pg.prefetch.wasted,
        pg.prefetch.unlisted,
    );
    Ok(())
}

/// `--algo ssj|ncsj|csj` (default csj), CSJ with the `--window` size
/// (default 10).
fn parse_algo(opts: &Opts) -> Result<ParallelAlgo, CliError> {
    let window = opts.get_or("window", 10usize).usage()?;
    match opts.get("algo").unwrap_or("csj") {
        "ssj" => Ok(ParallelAlgo::Ssj),
        "ncsj" => Ok(ParallelAlgo::Ncsj),
        "csj" => Ok(ParallelAlgo::Csj(window)),
        other => Err(CliError::usage(format!("unknown --algo {other:?} (ssj, ncsj or csj)"))),
    }
}

#[allow(clippy::too_many_arguments)]
fn run_join<T: JoinIndex<D> + Sync, const D: usize>(
    tree: &T,
    algo: ParallelAlgo,
    eps: f64,
    metric: Metric,
    width: usize,
    out: Option<&str>,
    budget: RunBudget,
    threads: Option<usize>,
) -> Result<(), CliError> {
    let cfg = JoinConfig::new(eps).with_metric(metric);

    // Both runners stream rows into the writer as they commit: the
    // sequential task loop, or with --threads the ordered task stream,
    // which writes the same bytes.
    let start = Instant::now();
    let mut writer = OutputWriter::new(Out::open(out)?, width);
    let report = match threads {
        Some(n) => {
            let report = ParallelJoin::with_config(cfg, algo)
                .with_threads(n)
                .with_budget(budget)
                .with_id_width(width)
                .run_streaming(tree, &mut writer)?;
            eprintln!(
                "scheduler: {} threads, {} tasks",
                report.stats.threads_used, report.stats.tasks_executed
            );
            report
        }
        None => ResilientJoin::with_config(cfg, algo)
            .with_budget(budget)
            .with_id_width(width)
            .run_streaming(tree, &mut writer)?,
    };
    let bytes = writer.finish()?.bytes_written();
    report_join(algo, eps, start, bytes, &report);
    Ok(())
}

/// Prints a `csj join` run's summary line, and the partial-result line
/// when a budget stopped it: `bytes` written since `start`.
fn report_join(algo: ParallelAlgo, eps: f64, start: Instant, bytes: u64, report: &ResilientReport) {
    let elapsed = start.elapsed().as_secs_f64() * 1e3;
    let name = match algo {
        ParallelAlgo::Ssj => "ssj",
        ParallelAlgo::Ncsj => "ncsj",
        ParallelAlgo::Csj(_) => "csj",
    };
    eprintln!(
        "{name} eps={eps}: {:.1} ms, {} bytes, {} links + {} groups, {} distance computations",
        elapsed,
        bytes,
        report.stats.links_emitted,
        report.stats.groups_emitted,
        report.stats.distance_computations
    );
    if let Completion::Partial { reason, completed_fraction, estimated_links, estimated_bytes } =
        report.completion
    {
        eprintln!(
            "partial result: {reason} after {:.1}% of its tasks; output above is lossless \
             over the processed region; extrapolated totals ≈ {estimated_links:.0} links, \
             {estimated_bytes:.0} bytes",
            completed_fraction * 100.0
        );
    }
}

/// `csj shard-join <points-file> --eps E [fault-tolerance options]`
pub fn shard_join(args: &[String]) -> Result<(), CliError> {
    let opts = Opts::parse(
        args,
        &[
            "eps",
            "algo",
            "window",
            "metric",
            "dim",
            "out",
            "shards",
            "max-attempts",
            "task-deadline",
            "speculate-after",
            "heartbeat-ms",
            "fault-plan",
            "workers",
        ],
    )
    .usage()?;
    by_dim(&opts, || shard_join_dim::<2>(&opts), || shard_join_dim::<3>(&opts))
}

/// Parses an optional `--<key> <seconds>` duration flag.
fn parse_secs_flag(opts: &Opts, key: &str) -> Result<Option<Duration>, CliError> {
    match opts.get(key) {
        None => Ok(None),
        Some(raw) => {
            let secs: f64 =
                raw.parse().map_err(|e| CliError::usage(format!("bad value for --{key}: {e}")))?;
            if !(secs > 0.0 && secs.is_finite()) {
                return Err(CliError::usage(format!(
                    "--{key} must be a finite, positive number of seconds"
                )));
            }
            Ok(Some(Duration::from_secs_f64(secs)))
        }
    }
}

fn shard_join_dim<const D: usize>(opts: &Opts) -> Result<(), CliError> {
    let file = opts.positional(0, "points-file").usage()?;
    let eps = parse_eps(opts)?;
    let algo = parse_algo(opts)?;
    let metric = parse_metric(opts.get("metric").unwrap_or("l2")).usage()?;
    let fault_plan: csj_shard::ShardFaultPlan = match opts.get("fault-plan") {
        None => csj_shard::ShardFaultPlan::none(),
        Some(raw) => raw.parse().map_err(CliError::from)?,
    };
    let heartbeat_ms = opts.get_or("heartbeat-ms", 25u64).usage()?;

    let mut join = csj_shard::ShardJoin::new(eps, algo)
        .with_metric(metric)
        .with_shards(opts.get_or("shards", 4usize).usage()?)
        .with_max_attempts(opts.get_or("max-attempts", 3u32).usage()?)
        .with_heartbeat(Duration::from_millis(heartbeat_ms.max(1)), 40)
        .with_fault_plan(fault_plan);
    if let Some(deadline) = parse_secs_flag(opts, "task-deadline")? {
        join = join.with_task_deadline(deadline);
    }
    if let Some(after) = parse_secs_flag(opts, "speculate-after")? {
        join = join.with_speculation(after);
    }

    let points: Vec<Point<D>> = read_points_input(file)?;
    eprintln!("loaded {} points from {file}", points.len());
    let start = Instant::now();
    let run = match opts.get("workers").unwrap_or("process") {
        "process" => {
            let exe = std::env::current_exe().map_err(|e| {
                CliError::Shard(csj_core::ShardError::Spawn(format!(
                    "cannot locate own binary for worker launch: {e}"
                )))
            })?;
            let transport = csj_shard::ProcessTransport::new(exe, vec!["shard-worker".to_string()]);
            join.run(&points, &transport)?
        }
        "thread" => join.run(&points, &csj_shard::InProcessTransport::new())?,
        other => {
            return Err(CliError::usage(format!("unknown --workers {other:?} (process or thread)")))
        }
    };
    let elapsed = start.elapsed().as_secs_f64() * 1e3;

    let width = OutputWriter::<csj_storage::CountingSink>::id_width_for(points.len());
    let mut writer = OutputWriter::new(Out::open(opts.get("out"))?, width);
    run.output.write_to(&mut writer)?;
    let bytes = writer.finish()?.bytes_written();

    let stats = &run.output.stats;
    for r in &run.reports {
        eprintln!(
            "shard {}: {:.1}% of the tasks, {} attempt(s), {} retr{}, {} timeout(s){}{}{}",
            r.key,
            r.task_share * 100.0,
            r.attempts,
            r.retries,
            if r.retries == 1 { "y" } else { "ies" },
            r.timeouts,
            if r.resplit { ", re-split" } else { "" },
            if r.speculative_win { ", speculative win" } else { "" },
            if r.completed { "" } else { ", LOST" },
        );
    }
    eprintln!(
        "supervisor: {} retries, {} timeouts, {} re-splits, {} speculative wins",
        stats.shard_retries,
        stats.shard_timeouts,
        stats.shard_resplits,
        stats.shard_speculative_wins
    );
    eprintln!(
        "sharded {algo:?} eps={eps}: {elapsed:.1} ms, {bytes} bytes, {} links + {} groups, \
         {} distance computations",
        stats.links_emitted, stats.groups_emitted, stats.distance_computations
    );
    if let Completion::Partial { reason, completed_fraction, estimated_links, estimated_bytes } =
        run.output.completion
    {
        eprintln!(
            "partial result: {reason}; {:.1}% of the tasks committed; output above is \
             lossless over the surviving shards; extrapolated totals ≈ {estimated_links:.0} \
             links, {estimated_bytes:.0} bytes",
            completed_fraction * 100.0
        );
    }
    Ok(())
}

/// `csj shard-worker` — internal: run one shard task over stdin/stdout.
pub fn shard_worker(args: &[String]) -> Result<(), CliError> {
    if !args.is_empty() {
        return Err(CliError::usage(
            "shard-worker takes no arguments; it is launched by shard-join".to_string(),
        ));
    }
    csj_shard::run_worker(std::io::stdin().lock(), std::io::stdout()).map_err(CliError::from)
}

/// `csj join2 <left> <right> --eps E [--mode ...] [--window g] [--out FILE]`
pub fn join2(args: &[String]) -> Result<(), CliError> {
    let opts = Opts::parse(args, &["eps", "mode", "window", "metric", "dim", "out"]).usage()?;
    by_dim(&opts, || join2_dim::<2>(&opts), || join2_dim::<3>(&opts))
}

fn join2_dim<const D: usize>(opts: &Opts) -> Result<(), CliError> {
    use csj_core::spatial::SpatialJoin;

    let left_file = opts.positional(0, "left-file").usage()?;
    let right_file = opts.positional(1, "right-file").usage()?;
    let eps = parse_eps(opts)?;
    let window = opts.get_or("window", 10usize).usage()?;
    let metric = parse_metric(opts.get("metric").unwrap_or("l2")).usage()?;
    let algo = match opts.get("mode").unwrap_or("windowed") {
        "standard" => ParallelAlgo::Ssj,
        "compact" => ParallelAlgo::Ncsj,
        "windowed" => ParallelAlgo::Csj(window),
        other => return Err(CliError::usage(format!("unknown --mode {other:?}"))),
    };

    let left: Vec<Point<D>> = read_points_input(left_file)?;
    let right: Vec<Point<D>> = read_points_input(right_file)?;
    eprintln!("loaded {} left and {} right points", left.len(), right.len());
    let lt = RStarTree::bulk_load_str(&left, RTreeConfig::default());
    let rt = RStarTree::bulk_load_str(&right, RTreeConfig::default());

    let width =
        OutputWriter::<csj_storage::CountingSink>::id_width_for(left.len().max(right.len()));
    let start = Instant::now();
    let mut writer = OutputWriter::new(Out::open(opts.get("out"))?, width);
    let report =
        SpatialJoin::new(eps, algo).with_metric(metric).run_streaming(&lt, &rt, &mut writer)?;
    let bytes = writer.finish()?.bytes_written();
    let elapsed = start.elapsed().as_secs_f64() * 1e3;
    // Under SSJ and N-CSJ each cross pair is implied by one row; a CSJ(g)
    // pair can be implied by two, so the rows' sum is not a distinct count.
    let s = &report.stats;
    let implied = s.links_emitted + s.links_in_groups;
    let implied_by = if matches!(algo, ParallelAlgo::Csj(_)) { " (summed over rows)" } else { "" };
    eprintln!(
        "spatial join eps={eps}: {elapsed:.1} ms, {} rows ({} links + {} groups), {bytes} bytes, {implied} cross links implied{implied_by}",
        s.links_emitted + s.groups_emitted,
        s.links_emitted,
        s.groups_emitted,
    );
    Ok(())
}

/// `csj verify <points-file> --eps E [--dim 2|3]`
pub fn verify(args: &[String]) -> Result<(), CliError> {
    let opts = Opts::parse(args, &["eps", "dim"]).usage()?;
    let file = opts.positional(0, "points-file").usage()?;
    let eps = parse_eps(&opts)?;
    by_dim(&opts, || verify_dim::<2>(file, eps), || verify_dim::<3>(file, eps))
}

fn verify_dim<const D: usize>(file: &str, eps: f64) -> Result<(), CliError> {
    let points: Vec<Point<D>> = read_points_input(file)?;
    if points.len() > 50_000 {
        eprintln!(
            "note: verification is O(n²) ground truth over {} points; this may take a while",
            points.len()
        );
    }
    let tree = RStarTree::bulk_load_str(&points, RTreeConfig::default());
    let output = ResilientJoin::new(eps, ParallelAlgo::Csj(10)).run(&tree)?;
    let report = verify_lossless(&output, &points, eps, Metric::Euclidean)
        .map_err(|e| CliError::Verify(e.to_string()))?;
    println!(
        "verified: {} true links, represented losslessly by {} rows ({} groups checked)",
        report.true_links, report.rows, report.groups_checked
    );
    Ok(())
}

/// `csj expand <output-file>`: compact rows → individual links on stdout.
pub fn expand(args: &[String]) -> Result<(), CliError> {
    let opts = Opts::parse(args, &[]).usage()?;
    if opts.num_positional() != 1 {
        return Err(CliError::usage("expand takes exactly one <output-file>".to_string()));
    }
    let file = opts.positional(0, "output-file").usage()?;
    let text =
        std::fs::read_to_string(file).map_err(|e| CliError::input(format!("{file}: {e}")))?;
    let stdout = std::io::stdout();
    let mut w = std::io::BufWriter::new(stdout.lock());
    let mut seen = std::collections::BTreeSet::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ids: Result<Vec<u32>, _> = line.split_whitespace().map(str::parse).collect();
        let ids = ids.map_err(|e| CliError::input(format!("{file}: line {}: {e}", lineno + 1)))?;
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                let (a, b) = (ids[i].min(ids[j]), ids[i].max(ids[j]));
                if a != b && seen.insert((a, b)) {
                    if let Err(e) = writeln!(w, "{a} {b}") {
                        // Downstream closed the pipe (e.g. `| head`):
                        // that is a normal way to stop, not an error.
                        if e.kind() == std::io::ErrorKind::BrokenPipe {
                            return Ok(());
                        }
                        return Err(StorageError::io(IoOp::Write, &e).into());
                    }
                }
            }
        }
    }
    match w.flush() {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            return Err(StorageError::io(IoOp::Flush, &e).into())
        }
        _ => {}
    }
    eprintln!("{} distinct links", seen.len());
    Ok(())
}

/// Where output goes: the `--out` file, or stdout without one.
enum Out {
    File(FileSink),
    Stdout(StdoutSink),
}

impl Out {
    /// Creates the `path` file, or takes stdout for `None`.
    fn open(path: Option<&str>) -> Result<Out, StorageError> {
        Ok(match path {
            Some(path) => Out::File(FileSink::create(path)?),
            None => Out::Stdout(StdoutSink::new()),
        })
    }
}

impl OutputSink for Out {
    fn write_bytes(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        match self {
            Out::File(sink) => sink.write_bytes(bytes),
            Out::Stdout(sink) => sink.write_bytes(bytes),
        }
    }
    fn bytes_written(&self) -> u64 {
        match self {
            Out::File(sink) => sink.bytes_written(),
            Out::Stdout(sink) => sink.bytes_written(),
        }
    }
    fn flush(&mut self) -> Result<(), StorageError> {
        match self {
            Out::File(sink) => sink.flush(),
            Out::Stdout(sink) => sink.flush(),
        }
    }
}

/// A byte-counting sink over buffered stdout. A broken pipe (downstream
/// `| head` exiting) quietly stops output instead of failing the join.
struct StdoutSink {
    writer: std::io::BufWriter<std::io::Stdout>,
    bytes: u64,
    pipe_closed: bool,
}

impl StdoutSink {
    fn new() -> Self {
        StdoutSink {
            writer: std::io::BufWriter::new(std::io::stdout()),
            bytes: 0,
            pipe_closed: false,
        }
    }
}

impl OutputSink for StdoutSink {
    fn write_bytes(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.bytes += bytes.len() as u64;
        if self.pipe_closed {
            return Ok(());
        }
        match self.writer.write_all(bytes) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {
                self.pipe_closed = true;
                Ok(())
            }
            Err(e) => Err(StorageError::io(IoOp::Write, &e)),
        }
    }
    fn bytes_written(&self) -> u64 {
        self.bytes
    }
    fn flush(&mut self) -> Result<(), StorageError> {
        if self.pipe_closed {
            return Ok(());
        }
        match self.writer.flush() {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {
                self.pipe_closed = true;
                Ok(())
            }
            Err(e) => Err(StorageError::io(IoOp::Flush, &e)),
        }
    }
}

/// ASCII density map (shared with the bench harness's Figure 4 view).
fn density_map(points: &[Point<2>], width: usize, height: usize) -> String {
    const SHADES: &[u8] = b" .:-=+*#%@";
    let mut counts = vec![0usize; width * height];
    for p in points {
        let x = ((p[0] * width as f64) as usize).min(width - 1);
        let y = ((p[1] * height as f64) as usize).min(height - 1);
        counts[(height - 1 - y) * width + x] += 1;
    }
    let max = counts.iter().copied().max().unwrap_or(0).max(1);
    let mut out = String::with_capacity((width + 1) * height);
    for row in 0..height {
        for col in 0..width {
            let c = counts[row * width + col];
            let shade = if c == 0 {
                0
            } else {
                1 + ((c as f64).ln() / (max as f64).ln().max(1e-9) * (SHADES.len() - 2) as f64)
                    .round() as usize
            };
            out.push(SHADES[shade.min(SHADES.len() - 1)] as char);
        }
        out.push('\n');
    }
    out
}
