//! Measurement plumbing: timing, per-algorithm runs, TSV output, the
//! ASCII density maps used for Figure 4, and the perf bins' shared parts
//! (workload table, interleaved sampler, provenance header, JSON writer).

use std::fmt::Write as _;
use std::time::Instant;

use csj_core::engine::NodeSource;
use csj_core::parallel::ParallelAlgo;
use csj_core::{JoinStats, ResilientJoin, RunBudget};
use csj_geom::{KernelPath, Point};
use csj_index::{rstar::RStarTree, JoinIndex, RTreeConfig};
use csj_storage::{CostModel, CountingSink, FileSink, OutputSink, OutputWriter};

use crate::args::{PerfArgs, PerfBin};
use crate::datasets::skewed_cluster;

/// The display name of `algo` in the paper's legends.
pub fn algo_name(algo: ParallelAlgo) -> String {
    match algo {
        ParallelAlgo::Ssj => "SSJ".to_string(),
        ParallelAlgo::Ncsj => "N-CSJ".to_string(),
        ParallelAlgo::Csj(g) => format!("CSJ({g})"),
    }
}

/// One measured configuration.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Algorithm run.
    pub algo: String,
    /// Query range.
    pub eps: f64,
    /// Median wall-clock milliseconds over the iterations (computation
    /// only — output is counted, not written).
    pub time_ms: f64,
    /// Output size in bytes (paper text format).
    pub bytes: f64,
    /// Output rows (links + groups).
    pub rows: f64,
    /// Implied links (for SSJ: actual links).
    pub links: f64,
    /// Groups emitted.
    pub groups: f64,
    /// Distance computations performed.
    pub distance_computations: f64,
    /// `true` if the run hit the budget and values are extrapolated
    /// (the paper's filled markers).
    pub estimated: bool,
}

impl Measurement {
    /// Paper-comparable total time: computation plus the 2008-HDD write
    /// model for the output bytes. The paper's runtimes include writing
    /// the result to disk on 2008 hardware, which dominated for SSJ's
    /// exploded outputs; modern NVMe makes real write time negligible,
    /// so the modeled figure is what reproduces the paper's *shape*.
    pub fn model_total_ms(&self) -> f64 {
        self.time_ms + CostModel::hdd_2008().write_time_ms(self.bytes as u64)
    }
}

/// Spread of repeated wall-clock timings: a single mean hides warm-up
/// effects and scheduler noise, so perf reports carry all three.
#[derive(Clone, Copy, Debug)]
pub struct TimeStats {
    /// Fastest iteration, ms.
    pub min_ms: f64,
    /// Median iteration, ms.
    pub median_ms: f64,
    /// Slowest iteration, ms.
    pub max_ms: f64,
}

impl TimeStats {
    /// Min/median/max of wall-clock samples (ms).
    fn from_samples_ms(mut samples: Vec<f64>) -> TimeStats {
        assert!(!samples.is_empty());
        samples.sort_by(f64::total_cmp);
        TimeStats {
            min_ms: samples[0],
            median_ms: samples[samples.len() / 2],
            max_ms: samples[samples.len() - 1],
        }
    }

    /// Min, median and max as report fields named `keys`, at `decimals`
    /// places.
    pub fn fields(&self, keys: [&'static str; 3], decimals: usize) -> [(&'static str, Json); 3] {
        let [min, median, max] = keys;
        [
            (min, Json::Fixed(self.min_ms, decimals)),
            (median, Json::Fixed(self.median_ms, decimals)),
            (max, Json::Fixed(self.max_ms, decimals)),
        ]
    }
}

/// Wall-clock milliseconds of one call of `f`.
pub fn timed_ms(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

/// The interleaved sampler: `iters` rounds, each calling `run` once per
/// leg in order, so clock-frequency drift and cache state hit every leg
/// alike. `run` returns the milliseconds it measured (usually
/// [`timed_ms`] of the whole call; a leg may keep setup such as creating
/// its output file outside the span). Returns one [`TimeStats`] per leg.
pub fn interleaved<L>(
    iters: usize,
    legs: &mut [L],
    mut run: impl FnMut(&mut L) -> f64,
) -> Vec<TimeStats> {
    assert!(iters >= 1);
    let mut samples = vec![Vec::with_capacity(iters); legs.len()];
    for _ in 0..iters {
        for (leg, leg_samples) in legs.iter_mut().zip(&mut samples) {
            leg_samples.push(run(leg));
        }
    }
    samples.into_iter().map(TimeStats::from_samples_ms).collect()
}

/// Streams `join` over the node source `nodes` makes into a new file at
/// `path`, ids `id_width` digits wide. Returns the wall ms from making
/// the source (so read-ahead threads start inside the span) to the
/// flushed last row — creating the file stays outside — with the join's
/// stats and the bytes written.
pub fn join_to_file<S: NodeSource<D>, const D: usize>(
    join: &ResilientJoin,
    path: impl AsRef<std::path::Path>,
    id_width: usize,
    nodes: impl FnOnce() -> S,
) -> (f64, JoinStats, u64) {
    let sink = FileSink::create(path).expect("create bench output file");
    let mut writer = OutputWriter::new(sink, id_width);
    let start = Instant::now();
    let stats = join.run_streaming(nodes(), &mut writer).expect("join to file").stats;
    let bytes = writer.finish().expect("flush bench output").bytes_written();
    (start.elapsed().as_secs_f64() * 1e3, stats, bytes)
}

/// Median of `iters` wall-clock timings of `f`, in milliseconds.
pub fn median_time_ms(iters: usize, mut f: impl FnMut()) -> f64 {
    interleaved(iters, &mut [()], |()| timed_ms(&mut f))[0].median_ms
}

/// `rustc --version` of the toolchain on PATH — the one that (normally)
/// built the bench — or `"unknown"`. Perf numbers without the compiler
/// version are not reproducible claims.
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

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

/// Writes a perf report to `args.out`: the provenance header every perf
/// bin shares (which bin at which size, and the host, toolchain and
/// kernel path the numbers came from), then `body`.
pub fn write_report(bin: PerfBin, args: &PerfArgs, body: Vec<(&'static str, Json)>) {
    let mut fields = vec![
        ("bench", bin.name().into()),
        ("smoke", args.smoke.into()),
        ("n", args.n.into()),
        ("iters", args.iters.into()),
        ("host_parallelism", csj_core::parallel::default_threads().into()),
        ("rustc_version", rustc_version().into()),
        ("target_arch", std::env::consts::ARCH.into()),
        ("target_features_compiled", compiled_features().into()),
        ("kernel_path", KernelPath::detect().name().into()),
    ];
    fields.extend(body);
    std::fs::write(&args.out, Json::Obj(fields).render()).expect("write benchmark output");
    eprintln!("# wrote {}", args.out);
}

/// A JSON value of a perf report.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A count.
    Uint(u64),
    /// A number in its shortest round-trip form; `null` if not finite.
    Num(f64),
    /// A number with a fixed count of decimals; `null` if not finite.
    Fixed(f64, usize),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in order.
    Obj(Vec<(&'static str, Json)>),
}

/// `From` conversions, so report fields read `("links", links.into())`.
macro_rules! json_from {
    ($($t:ty => |$x:ident| $value:expr),* $(,)?) => {
        $(impl From<$t> for Json {
            fn from($x: $t) -> Json {
                $value
            }
        })*
    };
}

json_from!(
    bool => |b| Json::Bool(b),
    u64 => |u| Json::Uint(u),
    usize => |u| Json::Uint(u as u64),
    f64 => |x| Json::Num(x),
    &str => |s| Json::Str(s.to_string()),
    String => |s| Json::Str(s),
);

impl Json {
    /// The report layout: the root object's fields and every array's
    /// elements one per line, other objects on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Appends the value; `depth` is the indent level of its line.
    fn write(&self, out: &mut String, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        };
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Uint(u) => out.push_str(&u.to_string()),
            Json::Num(x) if x.is_finite() => out.push_str(&x.to_string()),
            Json::Fixed(x, decimals) if x.is_finite() => {
                let _ = write!(out, "{x:.decimals$}");
            }
            Json::Null | Json::Num(_) | Json::Fixed(..) => out.push_str("null"),
            Json::Str(s) => write_json_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "" } else { "," });
                    newline(out, depth + 1);
                    item.write(out, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                let root = depth == 0;
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    out.push_str(if i == 0 {
                        ""
                    } else if root {
                        ","
                    } else {
                        ", "
                    });
                    if root {
                        newline(out, 1);
                    }
                    write_json_str(out, key);
                    out.push_str(": ");
                    value.write(out, depth.max(1));
                }
                if root && !fields.is_empty() {
                    newline(out, 0);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `s` as a quoted JSON string.
fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One workload of the perf bins: its row label, point count, ε and tree.
pub struct Workload {
    pub name: &'static str,
    pub n: usize,
    pub eps: f64,
    pub tree: RStarTree<2>,
}

/// The perf bins' workload table at `n` points each: uniform,
/// skewed-cluster and Sierpinski, in R*-trees with page-sized leaves (a
/// 4 KB page holds ~170 two-dimensional entries, as in the paper's
/// disk-resident R-trees). Large leaves also put the run time where the
/// joins spend it on real data: leaf probing.
pub fn perf_workloads(n: usize) -> Vec<Workload> {
    let table = [
        ("uniform", csj_data::uniform::uniform::<2>(n, 42), 0.01),
        ("skewed-cluster", skewed_cluster(n, 42), 0.0004),
        ("sierpinski", csj_data::sierpinski::triangle_2d(n, 42), 0.008),
    ];
    table
        .into_iter()
        .map(|(name, points, eps)| Workload {
            name,
            n: points.len(),
            eps,
            tree: RStarTree::bulk_load_str(&points, RTreeConfig::with_max_fanout(170)),
        })
        .collect()
}

/// Runs `algo` on `tree` and measures it. SSJ runs under `ssj_budget`
/// links; when exceeded, byte/link/time values are linearly extrapolated
/// and `estimated` is set.
pub fn measure<T: JoinIndex<D>, const D: usize>(
    tree: &T,
    algo: ParallelAlgo,
    eps: f64,
    iters: usize,
    id_width: usize,
    ssj_budget: u64,
) -> Measurement {
    // The budget is checked before each root task, so a tripped run's
    // totals are extrapolated from the completed fraction.
    let budget = match algo {
        ParallelAlgo::Ssj => RunBudget::unlimited().with_max_links(ssj_budget),
        ParallelAlgo::Ncsj | ParallelAlgo::Csj(_) => RunBudget::unlimited(),
    };
    let runner = ResilientJoin::new(eps, algo).with_budget(budget);
    let run = |writer: &mut OutputWriter<CountingSink>| {
        runner.run_streaming(tree, writer).expect("counting sink cannot fail")
    };
    // One instrumented run for sizes, then timing runs.
    let mut writer = OutputWriter::new(CountingSink::new(), id_width);
    let report = run(&mut writer);
    let time_ms = median_time_ms(iters, || {
        run(&mut OutputWriter::new(CountingSink::new(), id_width));
    });
    let (stats, scale) = (&report.stats, 1.0 / report.completion.completed_fraction());
    Measurement {
        algo: algo_name(algo),
        eps,
        time_ms: time_ms * scale,
        bytes: writer.bytes_written() as f64 * scale,
        rows: stats.rows_emitted() as f64 * scale,
        links: stats.links_emitted as f64 * scale,
        groups: stats.groups_emitted as f64 * scale,
        distance_computations: stats.distance_computations as f64 * scale,
        estimated: !report.completion.is_complete(),
    }
}

/// Prints the TSV header used by all experiment binaries.
pub fn print_header(extra: &[&str]) {
    let mut cols = vec![
        "dataset",
        "n",
        "algo",
        "eps",
        "comp_ms",
        "total_ms_hdd_model",
        "bytes",
        "rows",
        "estimated",
    ];
    cols.extend_from_slice(extra);
    println!("{}", cols.join("\t"));
}

/// Prints one measurement row.
pub fn print_row(dataset: &str, n: usize, m: &Measurement, extra: &[String]) {
    let mut cols = vec![
        dataset.to_string(),
        n.to_string(),
        m.algo.clone(),
        format!("{:.6}", m.eps),
        format!("{:.3}", m.time_ms),
        format!("{:.3}", m.model_total_ms()),
        format!("{:.0}", m.bytes),
        format!("{:.0}", m.rows),
        if m.estimated { "yes".to_string() } else { "no".to_string() },
    ];
    cols.extend_from_slice(extra);
    println!("{}", cols.join("\t"));
}

/// An ASCII density map of 2-D points (Figure 4 reproduction): darker
/// characters mean denser cells.
pub fn density_map(points: &[Point<2>], width: usize, height: usize) -> String {
    const SHADES: &[u8] = b" .:-=+*#%@";
    let mut counts = vec![0usize; width * height];
    for p in points {
        let x = ((p[0] * width as f64) as usize).min(width - 1);
        // Flip y so the map prints with the origin at the bottom left.
        let y = ((p[1] * height as f64) as usize).min(height - 1);
        counts[(height - 1 - y) * width + x] += 1;
    }
    let max = counts.iter().copied().max().unwrap_or(0).max(1);
    let mut out = String::with_capacity((width + 1) * height);
    for row in 0..height {
        for col in 0..width {
            let c = counts[row * width + col];
            // Log scale: road data has extreme density ratios.
            let shade = if c == 0 {
                0
            } else {
                let t = (c as f64).ln() / (max as f64).ln().max(1e-9);
                1 + (t * (SHADES.len() - 2) as f64).round() as usize
            };
            out.push(SHADES[shade.min(SHADES.len() - 1)] as char);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use csj_index::{rstar::RStarTree, RTreeConfig};

    #[test]
    fn algo_names() {
        assert_eq!(algo_name(ParallelAlgo::Ssj), "SSJ");
        assert_eq!(algo_name(ParallelAlgo::Ncsj), "N-CSJ");
        assert_eq!(algo_name(ParallelAlgo::Csj(10)), "CSJ(10)");
    }

    #[test]
    fn median_time_positive() {
        let t = median_time_ms(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(t >= 0.0);
    }

    #[test]
    fn stats_from_samples() {
        let s = TimeStats::from_samples_ms(vec![3.0, 1.0, 2.0]);
        assert_eq!(s.min_ms, 1.0);
        assert_eq!(s.median_ms, 2.0);
        assert_eq!(s.max_ms, 3.0);
    }

    #[test]
    fn measure_consistency_across_algos() {
        let pts: Vec<Point<2>> = (0..600)
            .map(|i| Point::new([(i % 30) as f64 / 30.0, (i / 30) as f64 / 20.0]))
            .collect();
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(10));
        let eps = 0.08;
        let ssj = measure(&tree, ParallelAlgo::Ssj, eps, 1, 3, u64::MAX);
        let ncsj = measure(&tree, ParallelAlgo::Ncsj, eps, 1, 3, u64::MAX);
        let csj = measure(&tree, ParallelAlgo::Csj(10), eps, 1, 3, u64::MAX);
        assert!(!ssj.estimated);
        // Within budget the SSJ figures are exact.
        let exact = ResilientJoin::new(eps, ParallelAlgo::Ssj).run(&tree).expect("in memory");
        assert_eq!(ssj.links, exact.num_links() as f64);
        assert_eq!(ssj.bytes, exact.total_bytes(3) as f64);
        assert!(csj.bytes <= ncsj.bytes);
        assert!(ncsj.bytes <= ssj.bytes);
    }

    #[test]
    fn budgeted_ssj_flags_estimate() {
        let pts: Vec<Point<2>> = (0..500)
            .map(|i| Point::new([(i % 25) as f64 / 25.0, (i / 25) as f64 / 20.0]))
            .collect();
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(10));
        let m = measure(&tree, ParallelAlgo::Ssj, 0.5, 1, 3, 100);
        assert!(m.estimated);
        assert!(m.links >= 100.0);
        // The extrapolation is crude but must be the right order of
        // magnitude on this near-uniform grid.
        let exact = ResilientJoin::new(0.5, ParallelAlgo::Ssj).run(&tree).expect("in memory");
        let ratio = m.links / exact.num_links() as f64;
        assert!((0.1..10.0).contains(&ratio), "estimate / exact = {ratio}");
    }

    #[test]
    fn density_map_shape_and_shading() {
        let pts = vec![Point::new([0.05, 0.05]); 100];
        let map = density_map(&pts, 10, 5);
        let lines: Vec<&str> = map.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines.iter().all(|l| l.len() == 10));
        // The dense cell is at the bottom-left.
        assert_eq!(lines[4].as_bytes()[0], b'@');
        assert_eq!(lines[0].as_bytes()[9], b' ');
    }
}
