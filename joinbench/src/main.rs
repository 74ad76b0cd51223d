//! `joinbench`: the repository's end-to-end join benchmark.
//!
//! ```text
//! joinbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --dir <scratch>
//!           [--trace-out <file>] [--n <points>]
//! joinbench shard-worker        # worker side of the sharded workload
//! ```
//!
//! A run draws [`ROUNDS`] Pacific-NW road networks from `--seed`. For each
//! it writes the points file, sets up (read the file, build the index:
//! `setup_s`), then runs joins closed-loop — one client, the next join
//! starting when the previous one ends — for its share of `--seconds`.
//! Each join is timed from the built index to the flushed output file
//! (`join_s`) and its output is checked outside the timed region. With
//! `--trace 1` every second join runs through the traced seams instead,
//! and the run reports the per-layer split. The next-to-last stdout line
//! holds the run metadata; the last is the result object. README.md
//! explains the workloads and metrics.

mod check;
mod sys;
mod trace;

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use csj_core::outofcore::{JoinVariant, OutOfCoreJoin};
use csj_core::parallel::{ParallelAlgo, ParallelJoin};
use csj_core::{Completion, JoinConfig, JoinStats, ResilientJoin};
use csj_data::roads::{road_network, RoadConfig};
use csj_geom::Point;
use csj_index::rstar::RStarTree;
use csj_index::{PagedStats, PagedTree, RTreeConfig};
use csj_shard::{ProcessTransport, ShardJoin, WorkerTransport};
use csj_storage::{
    Disk, FileDisk, FileSink, OutputSink, OutputWriter, RetryPolicy, StorageError, PAGE_SIZE,
};

use trace::{Scope, Span, TracedDisk, TracedSink, TracedTransport, Tracer};

/// Points per road network. The paper's Pacific-NW set has 1.5M; a third
/// of it keeps one join well under a second, so every round measures
/// several joins and a run fits its time budget.
const DEFAULT_POINTS: usize = 500_000;
/// Road networks per run. Output size moves by several percent between
/// networks; averaging over a few keeps one layout from deciding a run.
const ROUNDS: usize = 4;
/// Joins per round at least, whatever `--seconds` says.
const MIN_JOINS: usize = 2;
/// The CSJ(g) window of the CLI's default algorithm.
const CSJ_WINDOW: usize = 10;
/// Worker threads of the parallel workload.
const PAR_THREADS: usize = 2;
/// The out-of-core pool holds this fraction (1/64) of the node pages.
const POOL_FRACTION: u64 = 64;
/// The CLI's prefetch budget, in pages.
const PREFETCH_PAGES: usize = 32;
/// Buffer pool used while writing the page file.
const BUILD_POOL_PAGES: usize = 4096;
const SHARDS: usize = 2;

type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    CsjSeq,
    NcsjPar,
    NcsjOoc,
    CsjShard,
}

impl Workload {
    const ALL: [Workload; 4] =
        [Workload::CsjSeq, Workload::NcsjPar, Workload::NcsjOoc, Workload::CsjShard];

    fn name(self) -> &'static str {
        match self {
            Workload::CsjSeq => "roads-csj-seq",
            Workload::NcsjPar => "roads-ncsj-par",
            Workload::NcsjOoc => "roads-ncsj-ooc",
            Workload::CsjShard => "roads-csj-shard",
        }
    }

    fn eps(self) -> f64 {
        match self {
            // 2^-9, from the paper's Pacific-NW sweep.
            Workload::CsjSeq | Workload::NcsjPar => 1.0 / 512.0,
            Workload::NcsjOoc | Workload::CsjShard => 0.0005,
        }
    }

    /// N-CSJ output must match the sequential in-memory N-CSJ bytes;
    /// CSJ(g) output is checked by link set.
    fn is_ncsj(self) -> bool {
        matches!(self, Workload::NcsjPar | Workload::NcsjOoc)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    dir: PathBuf,
    trace_out: Option<PathBuf>,
    n: usize,
}

fn parse_args(argv: &[String]) -> std::result::Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut dir) = (None, None, None, None, None);
    let (mut trace_out, mut n) = (None, DEFAULT_POINTS);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad value for {flag}: {value:?} ({what})");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| bad("unknown workload"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            "--dir" => dir = Some(PathBuf::from(value)),
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            "--n" => {
                n = value.parse().map_err(|_| bad("a point count"))?;
                if n < 2 {
                    return Err(bad("at least 2"));
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let missing = |flag: &str| format!("missing {flag}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        dir: dir.ok_or_else(|| missing("--dir"))?,
        trace_out,
        n,
    })
}

/// `csj_data::roads::pacific_nw`'s profile, drawn with `seed`.
fn road_points(n: usize, seed: u64) -> Vec<Point<2>> {
    road_network(&RoadConfig {
        n_points: n,
        cores: 8,
        core_sigma: 0.05,
        rural_fraction: 0.3,
        grid_snap_prob: 0.8,
        step: 0.0012,
        mean_road_len: 0.03,
        seed,
    })
}

/// The timed set-up of one round and its parts.
#[derive(Clone, Copy, Debug, Default)]
struct Setup {
    total_s: f64,
    read_s: f64,
    build_s: f64,
    paged_build_s: f64,
    pages_written: u64,
    file_mb: f64,
}

/// One road network, set up for the workload.
struct Round {
    points: Vec<Point<2>>,
    tree: Option<RStarTree<2>>,
    pool_pages: usize,
    setup: Setup,
}

fn set_up(workload: Workload, points_file: &Path, pages: &Path) -> Result<Round> {
    let start = Instant::now();
    let points: Vec<Point<2>> = csj_data::io::read_points(points_file)?;
    let mut setup = Setup { read_s: start.elapsed().as_secs_f64(), ..Setup::default() };
    let build = Instant::now();
    let mut tree = None;
    let mut pool_pages = 0;
    match workload {
        Workload::CsjSeq | Workload::NcsjPar => {
            tree = Some(RStarTree::bulk_load_str(&points, RTreeConfig::default()));
            setup.build_s = build.elapsed().as_secs_f64();
        }
        Workload::NcsjOoc => {
            // build_str writes every node page and syncs the file.
            let paged = PagedTree::build_str(
                &points,
                RTreeConfig::default(),
                FileDisk::create(pages)?,
                RetryPolicy::default(),
                BUILD_POOL_PAGES,
            )?;
            setup.pages_written = paged.stats().disk_writes;
            pool_pages = usize::try_from((paged.meta().node_pages / POOL_FRACTION).max(2))?;
            drop(paged);
            setup.paged_build_s = build.elapsed().as_secs_f64();
            setup.file_mb = std::fs::metadata(pages)?.len() as f64 / 1e6;
        }
        // The workers build their own trees; that counts in join_s.
        Workload::CsjShard => {}
    }
    setup.total_s = start.elapsed().as_secs_f64();
    Ok(Round { points, tree, pool_pages, setup })
}

/// How a join is instrumented: [`Plain`] runs the library types as they
/// are; [`Traced`] puts the traced wrappers on each seam.
trait Mode {
    type Sink: OutputSink;
    type Disk: Disk;
    type Transport: WorkerTransport;
    fn tracer(&self) -> Option<&Tracer>;
    fn sink(&self, path: &Path) -> std::result::Result<Self::Sink, StorageError>;
    fn disk(&self, path: &Path) -> std::result::Result<Self::Disk, StorageError>;
    fn transport(&self) -> &Self::Transport;
    /// Runs after each join; returns the shard task bytes sent, where
    /// counted.
    fn settle(&self) -> u64 {
        0
    }
}

struct Plain {
    transport: ProcessTransport,
}

impl Mode for Plain {
    type Sink = FileSink;
    type Disk = FileDisk;
    type Transport = ProcessTransport;
    fn tracer(&self) -> Option<&Tracer> {
        None
    }
    fn sink(&self, path: &Path) -> std::result::Result<FileSink, StorageError> {
        FileSink::create(path)
    }
    fn disk(&self, path: &Path) -> std::result::Result<FileDisk, StorageError> {
        FileDisk::open(path)
    }
    fn transport(&self) -> &ProcessTransport {
        &self.transport
    }
}

struct Traced {
    tracer: Arc<Tracer>,
    transport: TracedTransport,
}

impl Mode for Traced {
    type Sink = TracedSink<FileSink>;
    type Disk = TracedDisk<FileDisk>;
    type Transport = TracedTransport;
    fn tracer(&self) -> Option<&Tracer> {
        Some(&self.tracer)
    }
    fn sink(&self, path: &Path) -> std::result::Result<Self::Sink, StorageError> {
        Ok(TracedSink::new(FileSink::create(path)?, Arc::clone(&self.tracer)))
    }
    fn disk(&self, path: &Path) -> std::result::Result<Self::Disk, StorageError> {
        Ok(TracedDisk::new(FileDisk::open(path)?, Arc::clone(&self.tracer)))
    }
    fn transport(&self) -> &TracedTransport {
        &self.transport
    }
    fn settle(&self) -> u64 {
        self.transport.settle()
    }
}

/// What one join reported.
#[derive(Debug, Default)]
struct Joined {
    secs: f64,
    stats: JoinStats,
    complete: bool,
    rows: u64,
    rows_held: u64,
    paged: PagedStats,
    shard_attempts: u64,
    task_bytes: u64,
}

fn rows_of<S: OutputSink>(writer: &OutputWriter<S>) -> u64 {
    writer.links_written() + writer.groups_written()
}

/// `csj join --algo csj` on the in-memory tree: `ResilientJoin`
/// streaming into the file.
fn seq_join<M: Mode>(
    m: &M,
    tree: &RStarTree<2>,
    eps: f64,
    width: usize,
    out: &Path,
) -> Result<Joined> {
    let start = Instant::now();
    let join = Scope::open(m.tracer(), "join");
    let mut writer = OutputWriter::new(m.sink(out)?, width);
    let report = ResilientJoin::with_config(JoinConfig::new(eps), ParallelAlgo::Csj(CSJ_WINDOW))
        .with_id_width(width)
        .run_streaming(tree, &mut writer)?;
    let rows = rows_of(&writer);
    writer.finish()?;
    drop(join);
    Ok(Joined {
        secs: start.elapsed().as_secs_f64(),
        complete: matches!(report.completion, Completion::Complete),
        stats: report.stats,
        rows,
        ..Joined::default()
    })
}

/// `csj join --algo ncsj --threads 2`: the work-stealing runner collects
/// rows, then `JoinOutput::write_to` writes them.
fn par_join<M: Mode>(
    m: &M,
    tree: &RStarTree<2>,
    eps: f64,
    width: usize,
    out: &Path,
) -> Result<Joined> {
    let start = Instant::now();
    let join = Scope::open(m.tracer(), "join");
    let run = Scope::open(m.tracer(), "core.parallel.run");
    let output = ParallelJoin::with_config(JoinConfig::new(eps), ParallelAlgo::Ncsj)
        .with_threads(PAR_THREADS)
        .with_id_width(width)
        .run(tree);
    drop(run);
    let emit = Scope::open(m.tracer(), "core.parallel.emit");
    let mut writer = OutputWriter::new(m.sink(out)?, width);
    output.write_to(&mut writer)?;
    let rows = rows_of(&writer);
    writer.finish()?;
    drop(emit);
    drop(join);
    let secs = start.elapsed().as_secs_f64();
    Ok(Joined {
        secs,
        complete: matches!(output.completion, Completion::Complete),
        rows,
        rows_held: output.items.len() as u64,
        stats: output.stats,
        ..Joined::default()
    })
}

/// `csj join --algo ncsj --data-dir`: N-CSJ over the page file, reopened
/// cold with a 1/64 pool and the CLI's prefetch budget.
fn ooc_join<M: Mode>(
    m: &M,
    pages: &Path,
    pool_pages: usize,
    eps: f64,
    width: usize,
    out: &Path,
) -> Result<Joined> {
    let tree = PagedTree::<2, M::Disk>::open(m.disk(pages)?, RetryPolicy::default(), pool_pages)?;
    let start = Instant::now();
    let join = Scope::open(m.tracer(), "join");
    let mut writer = OutputWriter::new(m.sink(out)?, width);
    let stats = OutOfCoreJoin::new(JoinVariant::Ncsj, eps)
        .with_prefetch_budget(PREFETCH_PAGES * PAGE_SIZE)
        .run_streaming(&tree, &mut writer, Some(pages))?;
    let rows = rows_of(&writer);
    writer.finish()?;
    drop(join);
    Ok(Joined {
        secs: start.elapsed().as_secs_f64(),
        complete: true,
        stats,
        rows,
        paged: tree.stats(),
        ..Joined::default()
    })
}

/// `csj shard-join --shards 2 --workers process`: `ShardJoin` on worker
/// processes, then `JoinOutput::write_to`.
fn shard_join<M: Mode>(
    m: &M,
    points: &[Point<2>],
    eps: f64,
    width: usize,
    out: &Path,
) -> Result<Joined> {
    let start = Instant::now();
    let join = Scope::open(m.tracer(), "join");
    let run = Scope::open(m.tracer(), "shard.run");
    let sharded = ShardJoin::new(eps, ParallelAlgo::Csj(CSJ_WINDOW))
        .with_shards(SHARDS)
        .with_max_workers(SHARDS)
        .run(points, m.transport())?;
    drop(run);
    let emit = Scope::open(m.tracer(), "shard.emit");
    let mut writer = OutputWriter::new(m.sink(out)?, width);
    sharded.output.write_to(&mut writer)?;
    let rows = rows_of(&writer);
    writer.finish()?;
    drop(emit);
    drop(join);
    Ok(Joined {
        secs: start.elapsed().as_secs_f64(),
        complete: matches!(sharded.output.completion, Completion::Complete)
            && sharded.reports.iter().all(|r| r.completed),
        rows,
        shard_attempts: sharded.reports.iter().map(|r| u64::from(r.attempts)).sum(),
        stats: sharded.output.stats,
        ..Joined::default()
    })
}

fn run_join<M: Mode>(
    m: &M,
    workload: Workload,
    round: &Round,
    pages: &Path,
    width: usize,
    out: &Path,
) -> Result<Joined> {
    let eps = workload.eps();
    let tree = || round.tree.as_ref().ok_or("the in-memory tree was not built");
    let mut joined = match workload {
        Workload::CsjSeq => seq_join(m, tree()?, eps, width, out),
        Workload::NcsjPar => par_join(m, tree()?, eps, width, out),
        Workload::NcsjOoc => ooc_join(m, pages, round.pool_pages, eps, width, out),
        Workload::CsjShard => shard_join(m, &round.points, eps, width, out),
    }?;
    joined.task_bytes = m.settle();
    Ok(joined)
}

/// Checks one round's outputs against the sequential in-memory N-CSJ.
///
/// N-CSJ outputs must equal its bytes. A CSJ(g) output groups links
/// differently by design, so the round's first one is checked by link
/// set; it then becomes the reference, and later outputs of the same
/// deterministic join must equal its bytes.
struct Checker {
    reference: PathBuf,
    /// Every later output must equal the reference's bytes.
    exact: bool,
}

impl Checker {
    fn check(
        &mut self,
        workload: Workload,
        round: &Round,
        width: usize,
        out: &Path,
    ) -> Result<bool> {
        if self.exact {
            return Ok(check::same_bytes(out, &self.reference)?);
        }
        let built;
        let tree = match &round.tree {
            Some(tree) => tree,
            None => {
                built = RStarTree::bulk_load_str(&round.points, RTreeConfig::default());
                &built
            }
        };
        let mut writer = OutputWriter::new(FileSink::create(&self.reference)?, width);
        ResilientJoin::new(workload.eps(), ParallelAlgo::Ncsj)
            .with_id_width(width)
            .run_streaming(tree, &mut writer)?;
        writer.finish()?;
        if workload.is_ncsj() {
            self.exact = true;
            return Ok(check::same_bytes(out, &self.reference)?);
        }
        if check::link_set_of_file(out)? != check::link_set_of_file(&self.reference)? {
            return Ok(false);
        }
        std::fs::rename(out, &self.reference)?;
        self.exact = true;
        Ok(true)
    }
}

/// A traced join's time split, from its spans. Every `_s` here except
/// `join_s` is exclusive, so they add up to `join_s`.
#[derive(Clone, Copy, Debug, Default)]
struct Split {
    join_s: f64,
    self_s: f64,
    write_s: f64,
    flush_s: f64,
    disk_read_s: f64,
    disk_reads: u64,
    par_run_s: f64,
    par_emit_s: f64,
    shard_run_s: f64,
    shard_emit_s: f64,
    worker_max_s: f64,
    worker_min_s: f64,
}

impl Split {
    fn of(spans: &[Span], range: Range<usize>) -> Option<Split> {
        let join = range.clone().find(|&i| spans[i].name == "join")?;
        // Spans before the join opened (reopening the page file reads its
        // superblock) are not part of it.
        let range = join..range.end;
        // Time covered by each span's children. Worker spans overlap each
        // other (they run in other processes), so they stay out of it.
        let mut covered = vec![0.0; range.len()];
        for span in &spans[range.clone()] {
            if let Some(parent) = span.parent.filter(|_| span.name != "shard.worker") {
                if range.contains(&parent) {
                    covered[parent - range.start] += span.secs();
                }
            }
        }
        let exclusive = |i: usize| spans[i].secs() - covered[i - range.start];
        let mut split =
            Split { join_s: spans[join].secs(), self_s: exclusive(join), ..Split::default() };
        let mut workers = Vec::new();
        for i in range.clone() {
            let secs = spans[i].secs();
            match spans[i].name {
                "storage.writer.write" => split.write_s += secs,
                "storage.writer.flush" => split.flush_s += secs,
                "storage.disk.read" => {
                    split.disk_read_s += secs;
                    split.disk_reads += 1;
                }
                "core.parallel.run" => split.par_run_s += secs,
                "core.parallel.emit" => split.par_emit_s += exclusive(i),
                "shard.run" => split.shard_run_s += secs,
                "shard.emit" => split.shard_emit_s += exclusive(i),
                "shard.worker" => workers.push(secs),
                _ => {}
            }
        }
        split.worker_max_s = workers.iter().copied().fold(0.0, f64::max);
        split.worker_min_s = workers.iter().copied().reduce(f64::min).unwrap_or(0.0);
        Some(split)
    }
}

/// One join as the run saw it.
#[derive(Debug, Default)]
struct JoinRecord {
    traced: bool,
    /// Completed, and its output passed the check.
    ok: bool,
    joined: Joined,
    output_mb: f64,
    peak_rss_mb: f64,
    worker_rss_mb: f64,
    check_s: f64,
    split: Split,
}

struct RoundRecord {
    setup: Setup,
    joins: Vec<JoinRecord>,
}

fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The mean over rounds of `per_round` (a median or a mean) of `f` over
/// each round's checked joins, traced or untraced.
fn over_joins(
    rounds: &[RoundRecord],
    traced: bool,
    per_round: fn(Vec<f64>) -> f64,
    f: impl Fn(&JoinRecord) -> f64,
) -> f64 {
    let values: Vec<f64> = rounds
        .iter()
        .filter_map(|r| {
            let values: Vec<f64> =
                r.joins.iter().filter(|j| j.ok && j.traced == traced).map(&f).collect();
            (!values.is_empty()).then(|| per_round(values))
        })
        .collect();
    mean(&values)
}

/// The median over rounds of a set-up figure.
fn over_setups(rounds: &[RoundRecord], f: impl Fn(&Setup) -> f64) -> f64 {
    median(rounds.iter().map(|r| f(&r.setup)).collect())
}

fn end_to_end(rounds: &[RoundRecord]) -> Vec<(&'static str, f64, &'static str)> {
    vec![
        ("join_s", over_joins(rounds, false, median, |j| j.joined.secs), "s"),
        ("setup_s", over_setups(rounds, |s| s.total_s), "s"),
        ("output_mb", over_joins(rounds, false, median, |j| j.output_mb), "MB"),
        ("peak_rss_mb", over_joins(rounds, false, median, |j| j.peak_rss_mb), "MB"),
    ]
}

fn per_layer(rounds: &[RoundRecord]) -> Vec<(&'static str, f64, &'static str)> {
    // Means, not medians: the exclusive times then add up to trace.join_s.
    let t = |f: &dyn Fn(&JoinRecord) -> f64| over_joins(rounds, true, |v| mean(&v), f);
    let n = |x: u64| x as f64;
    let overheads: Vec<f64> = rounds
        .iter()
        .filter_map(|r| {
            let secs = |traced: bool| {
                median(
                    r.joins
                        .iter()
                        .filter(|j| j.ok && j.traced == traced)
                        .map(|j| j.joined.secs)
                        .collect(),
                )
            };
            let (on, off) = (secs(true), secs(false));
            (on > 0.0 && off > 0.0).then(|| on / off - 1.0)
        })
        .collect();
    vec![
        ("data.io.read_s", over_setups(rounds, |s| s.read_s), "s"),
        ("index.build_s", over_setups(rounds, |s| s.build_s), "s"),
        ("index.paged.build_s", over_setups(rounds, |s| s.paged_build_s), "s"),
        ("index.paged.pages_written", over_setups(rounds, |s| n(s.pages_written)), "count"),
        ("index.paged.file_mb", over_setups(rounds, |s| s.file_mb), "MB"),
        ("core.engine.node_visits", t(&|j| n(j.joined.stats.node_visits)), "count"),
        ("core.engine.pair_visits", t(&|j| n(j.joined.stats.pair_visits)), "count"),
        ("core.engine.pairs_pruned", t(&|j| n(j.joined.stats.pairs_pruned)), "count"),
        (
            "core.engine.early_stops",
            t(&|j| n(j.joined.stats.early_stops_node + j.joined.stats.early_stops_pair)),
            "count",
        ),
        ("core.engine.self_s", t(&|j| j.split.self_s), "s"),
        (
            "geom.kernel.distance_computations",
            t(&|j| n(j.joined.stats.distance_computations)),
            "count",
        ),
        ("core.group.merge_attempts", t(&|j| n(j.joined.stats.merge_attempts)), "count"),
        ("core.group.merges_succeeded", t(&|j| n(j.joined.stats.merges_succeeded)), "count"),
        (
            "core.group.merge_ratio",
            t(&|j| ratio(n(j.joined.stats.merges_succeeded), n(j.joined.stats.merge_attempts))),
            "ratio",
        ),
        (
            "core.group.groups_emitted",
            t(&|j| {
                let s = &j.joined.stats;
                n(s.groups_emitted.saturating_sub(s.early_stops_node + s.early_stops_pair))
            }),
            "count",
        ),
        (
            "core.group.mean_group_size",
            t(&|j| {
                let s = &j.joined.stats;
                ratio(n(s.group_members_emitted), n(s.groups_emitted))
            }),
            "count",
        ),
        ("storage.writer.rows", t(&|j| n(j.joined.rows)), "count"),
        ("storage.writer.bytes", t(&|j| j.output_mb * 1e6), "bytes"),
        ("storage.writer.write_s", t(&|j| j.split.write_s), "s"),
        ("storage.writer.flush_s", t(&|j| j.split.flush_s), "s"),
        ("core.parallel.run_s", t(&|j| j.split.par_run_s), "s"),
        ("core.parallel.emit_s", t(&|j| j.split.par_emit_s), "s"),
        ("core.parallel.tasks_executed", t(&|j| n(j.joined.stats.tasks_executed)), "count"),
        ("core.parallel.tasks_stolen", t(&|j| n(j.joined.stats.tasks_stolen)), "count"),
        ("core.parallel.tasks_split", t(&|j| n(j.joined.stats.tasks_split)), "count"),
        ("core.parallel.rows_held", t(&|j| n(j.joined.rows_held)), "count"),
        ("storage.buffer.hits", t(&|j| n(j.joined.paged.pool.hits)), "count"),
        ("storage.buffer.misses", t(&|j| n(j.joined.paged.pool.misses)), "count"),
        ("storage.buffer.hit_rate", t(&|j| j.joined.paged.pool.hit_rate()), "ratio"),
        ("storage.buffer.evictions", t(&|j| n(j.joined.paged.pool.evictions)), "count"),
        ("storage.disk.reads", t(&|j| n(j.joined.paged.disk_reads)), "count"),
        ("storage.disk.read_s", t(&|j| j.split.disk_read_s), "s"),
        (
            "storage.disk.read_us",
            t(&|j| ratio(j.split.disk_read_s * 1e6, n(j.split.disk_reads))),
            "us",
        ),
        ("storage.disk.retries", t(&|j| n(j.joined.paged.io_retries)), "count"),
        ("core.outofcore.prefetch_supplied", t(&|j| n(j.joined.paged.prefetch_supplied)), "count"),
        (
            "core.outofcore.prefetch_share",
            t(&|j| ratio(n(j.joined.paged.prefetch_supplied), n(j.joined.paged.pool.misses))),
            "ratio",
        ),
        ("shard.attempts", t(&|j| n(j.joined.shard_attempts)), "count"),
        ("shard.retries", t(&|j| n(j.joined.stats.shard_retries)), "count"),
        ("shard.task_mb", t(&|j| n(j.joined.task_bytes) / 1e6), "MB"),
        ("shard.worker_s_max", t(&|j| j.split.worker_max_s), "s"),
        ("shard.worker_s_min", t(&|j| j.split.worker_min_s), "s"),
        ("shard.supervisor_s", t(&|j| j.split.shard_run_s - j.split.worker_max_s), "s"),
        ("shard.emit_s", t(&|j| j.split.shard_emit_s), "s"),
        ("shard.worker_rss_mb", t(&|j| j.worker_rss_mb), "MB"),
        ("bench.check_s", t(&|j| j.check_s), "s"),
        ("trace.join_s", t(&|j| j.split.join_s), "s"),
        ("trace.overhead", mean(&overheads), "ratio"),
    ]
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn run(args: &Args) -> Result<()> {
    std::fs::create_dir_all(&args.dir)?;
    let workload = args.workload;
    let width = OutputWriter::<FileSink>::id_width_for(args.n);
    let points_file = args.dir.join("points.txt");
    let pages = args.dir.join("tree.pages");
    let out = args.dir.join("out.txt");
    let reference = args.dir.join("reference.txt");

    let direct_io = {
        let probe = args.dir.join("probe.pages");
        let direct = FileDisk::create(&probe)?.is_direct();
        std::fs::remove_file(&probe)?;
        direct
    };
    let worker = ProcessTransport::new(std::env::current_exe()?, vec!["shard-worker".to_string()]);
    let plain = Plain { transport: worker.clone() };
    let tracer = Arc::new(Tracer::new());
    let traced = Traced {
        tracer: Arc::clone(&tracer),
        transport: TracedTransport::new(worker, Arc::clone(&tracer)),
    };
    let per_round = Duration::from_secs_f64(args.seconds / ROUNDS as f64);
    let min_joins = if args.trace { 2 * MIN_JOINS } else { MIN_JOINS };
    let mut peak_reset = true;
    let mut road_seeds = Vec::new();
    let mut rounds = Vec::new();

    for r in 0..ROUNDS {
        let road_seed = args.seed.wrapping_mul(ROUNDS as u64).wrapping_add(r as u64);
        road_seeds.push(road_seed);
        csj_data::io::write_points(&points_file, &road_points(args.n, road_seed))?;
        let round = set_up(workload, &points_file, &pages)?;
        let mut checker = Checker { reference: reference.clone(), exact: false };
        let mut joins = Vec::new();
        let start = Instant::now();
        while joins.len() < min_joins || start.elapsed() < per_round {
            // With tracing on, traced and untraced joins alternate, so
            // trace.overhead compares neighbours.
            let traced_join = args.trace && joins.len() % 2 == 1;
            peak_reset &= sys::reset_peak_rss();
            let first_span = tracer.len();
            let joined = if traced_join {
                run_join(&traced, workload, &round, &pages, width, &out)
            } else {
                run_join(&plain, workload, &round, &pages, width, &out)
            };
            let mut record = JoinRecord {
                traced: traced_join,
                peak_rss_mb: sys::peak_rss_mb(),
                ..JoinRecord::default()
            };
            if workload == Workload::CsjShard {
                record.worker_rss_mb = sys::children_peak_rss_mb();
                record.peak_rss_mb = record.peak_rss_mb.max(record.worker_rss_mb);
            }
            if traced_join {
                let spans = first_span..tracer.len();
                record.split = tracer.with_spans(|s| Split::of(s, spans)).unwrap_or_default();
            }
            match joined {
                Ok(joined) if joined.complete => {
                    record.output_mb = std::fs::metadata(&out)?.len() as f64 / 1e6;
                    let check_start = Instant::now();
                    match checker.check(workload, &round, width, &out) {
                        Ok(true) => record.ok = true,
                        Ok(false) => eprintln!("joinbench: output check failed"),
                        Err(e) => eprintln!("joinbench: output check could not run: {e}"),
                    }
                    record.check_s = check_start.elapsed().as_secs_f64();
                    record.joined = joined;
                }
                Ok(_) => eprintln!("joinbench: the join came back partial"),
                Err(e) => eprintln!("joinbench: join failed: {e}"),
            }
            // The checker may have kept this output as its reference.
            let _ = std::fs::remove_file(&out);
            joins.push(record);
        }
        for file in [&points_file, &pages, &reference] {
            let _ = std::fs::remove_file(file);
        }
        let times: Vec<String> = joins
            .iter()
            .map(|j| format!("{:.3}{}", j.joined.secs, if j.traced { "t" } else { "" }))
            .collect();
        eprintln!(
            "round {r} (road seed {road_seed}): setup {:.3} s; joins (s, t = traced): {}",
            round.setup.total_s,
            times.join(" ")
        );
        rounds.push(RoundRecord { setup: round.setup, joins });
    }

    if let (true, Some(path)) = (args.trace, &args.trace_out) {
        tracer.write_jsonl(path)?;
    }
    let attempted: usize = rounds.iter().map(|r| r.joins.len()).sum();
    let failed = rounds.iter().flat_map(|r| &r.joins).filter(|j| !j.ok).count();
    let seeds: Vec<String> = road_seeds.iter().map(u64::to_string).collect();
    let meta = [
        ("workload", json_string(workload.name())),
        ("seed", args.seed.to_string()),
        ("road_seeds", format!("[{}]", seeds.join(", "))),
        ("n", args.n.to_string()),
        ("eps", json_number(workload.eps())),
        ("rounds", ROUNDS.to_string()),
        ("trace", args.trace.to_string()),
        ("rustc", json_string(env!("JOINBENCH_RUSTC"))),
        ("kernel_path", json_string(csj_geom::KernelPath::detect().name())),
        ("nproc", sys::nproc().to_string()),
        ("par_threads", PAR_THREADS.to_string()),
        ("direct_io", direct_io.to_string()),
        ("scratch_fs", json_string(&sys::filesystem_of(&args.dir))),
        ("peak_rss_per_join", peak_reset.to_string()),
    ];
    let meta: Vec<String> = meta.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    println!("{{\"meta\": {{{}}}}}", meta.join(", "));

    let metrics = if args.trace { per_layer(&rounds) } else { end_to_end(&rounds) };
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    );
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("shard-worker") {
        // The sharded workload's ProcessTransport launches this binary as
        // its worker, as `csj shard-join` launches `csj shard-worker`.
        if let Err(e) = csj_shard::run_worker(std::io::stdin().lock(), std::io::stdout()) {
            eprintln!("joinbench shard-worker: {e}");
            std::process::exit(7);
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("joinbench: {msg}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("joinbench: {e}");
        std::process::exit(1);
    }
}
