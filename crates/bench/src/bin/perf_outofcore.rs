//! Out-of-core join benchmark (`BENCH_outofcore.json`).
//!
//! The tentpole measurement for the external-memory engine: the paper's
//! Pacific-NW-scale road network (1.5M points) is bulk-loaded straight
//! onto real disk pages (`PagedTree::build_str` over a `FileDisk`),
//! then N-CSJ and CSJ(10) run with the buffer pool capped at a shrinking
//! fraction of the index footprint — 1/64 down to 1/8 — with
//! frontier read-ahead on. For each pool size the run reports throughput
//! (encoded links/sec) and the page-fault curve (pool misses,
//! evictions, physical reads), plus the in-memory engine's run as the
//! identity/throughput reference. A last pair of legs runs the 1/64
//! pool over a `SimulatedDisk` copy of the page file with no read-ahead:
//! no disk and no reader threads, so it measures the CPU the page path
//! adds to the join. Every leg runs `REPS` times, interleaved
//! round-robin with the others, and reports the min, median and max of
//! its wall times; throughput is taken at the median, and
//! `vs_in_memory` is the leg's median over the in-memory median of the
//! same join.
//!
//! Every out-of-core leg must report byte-for-byte the same join stats
//! as the in-memory engine (links, groups, distance computations) —
//! asserted here, so a CI smoke run is also a correctness check; the
//! `--smoke` mode additionally diffs the two output files.
//!
//! ```text
//! perf_outofcore [--smoke] [--out <file>] [--n <points>] [--eps <E>]
//!                [--data-dir <dir>]
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use csj_bench::harness::{rustc_version, TimeStats};
use csj_core::outofcore::{PagedSource, Prefetcher};
use csj_core::parallel::ParallelAlgo;
use csj_core::{JoinStats, ResilientJoin};
use csj_geom::KernelPath;
use csj_index::{PagedStats, PagedTree, RTreeConfig};
use csj_storage::disk::Disk;
use csj_storage::{
    FileDisk, FileSink, OutputSink, OutputWriter, RetryPolicy, SimulatedDisk, PAGE_SIZE,
};

struct Args {
    smoke: bool,
    out: String,
    n: usize,
    eps: f64,
    data_dir: Option<String>,
}

fn parse_args() -> Args {
    let mut out = Args {
        smoke: false,
        out: "BENCH_outofcore.json".to_string(),
        n: csj_data::roads::PACIFIC_NW_SIZE,
        eps: 0.0005,
        data_dir: None,
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
                out.n = 50_000;
            }
            "--out" => out.out = value("--out"),
            "--n" => out.n = value("--n").parse().expect("--n takes a point count"),
            "--eps" => out.eps = value("--eps").parse().expect("--eps takes a number"),
            "--data-dir" => out.data_dir = Some(value("--data-dir")),
            "--help" | "-h" => {
                eprintln!(
                    "options: --smoke  --out <file>  --n <points>  --eps <E>  --data-dir <dir>"
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

/// Interleaved repetitions of every leg; each leg reports the min,
/// median and max of its wall times (one repetition under `--smoke`).
const REPS: usize = 3;

/// Total links the output encodes: individual rows plus the pairs
/// implied by group rows.
fn encoded_links(stats: &JoinStats) -> u64 {
    stats.links_emitted + stats.links_in_groups
}

/// The two benchmarked joins, by row label.
const ALGOS: [(&str, ParallelAlgo); 2] =
    [("ncsj", ParallelAlgo::Ncsj), ("csj10", ParallelAlgo::Csj(10))];

/// One in-memory reference leg per entry of [`ALGOS`]: its counters are
/// the identity baseline every out-of-core leg must match.
#[derive(Default)]
struct Reference {
    stats: JoinStats,
    bytes: u64,
    samples_ms: Vec<f64>,
}

/// One out-of-core leg; the counters are those of its last repetition.
#[derive(Default)]
struct Leg {
    /// Index into [`ALGOS`].
    algo: usize,
    /// Over a `SimulatedDisk` copy of the page file, without read-ahead.
    simulated: bool,
    pool_pages: usize,
    pool_fraction: f64,
    samples_ms: Vec<f64>,
    output_bytes: u64,
    stats: JoinStats,
    paged: PagedStats,
    prefetch_budget_pages: usize,
}

/// Runs one out-of-core leg over `tree` into `out_path`, with
/// read-ahead from `prefetch_path` when given: wall ms, stats and output
/// bytes.
fn paged_run<Dk: Disk>(
    tree: &PagedTree<2, Dk>,
    leg: &Leg,
    eps: f64,
    out_path: &std::path::Path,
    width: usize,
    prefetch_path: Option<&std::path::Path>,
) -> (f64, JoinStats, u64) {
    let mut writer = OutputWriter::new(FileSink::create(out_path).expect("output file"), width);
    let t = Instant::now();
    let budget = leg.prefetch_budget_pages * PAGE_SIZE;
    let prefetch =
        prefetch_path.map(|path| Prefetcher::spawn(path, budget).expect("read-ahead threads"));
    let stats = ResilientJoin::new(eps, ALGOS[leg.algo].1)
        .run_streaming(PagedSource::new(tree, prefetch), &mut writer)
        .expect("out-of-core join")
        .stats;
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    (wall_ms, stats, writer.finish().expect("flush").bytes_written())
}

/// Runs `algo` over the in-memory tree into `out_path`: wall ms, stats
/// and output bytes.
fn in_memory_run(
    rtree: &csj_index::rstar::RStarTree<2>,
    algo: ParallelAlgo,
    eps: f64,
    out_path: &std::path::Path,
    width: usize,
) -> (f64, JoinStats, u64) {
    let mut writer = OutputWriter::new(FileSink::create(out_path).expect("output file"), width);
    let t = Instant::now();
    let stats = ResilientJoin::new(eps, algo)
        .run_streaming(rtree, &mut writer)
        .expect("in-memory join")
        .stats;
    let wall = t.elapsed().as_secs_f64() * 1e3;
    (wall, stats, writer.finish().expect("flush").bytes_written())
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args = parse_args();
    let dir = args.data_dir.clone().map(std::path::PathBuf::from).unwrap_or_else(|| {
        std::env::temp_dir().join(format!("csj_perf_outofcore_{}", std::process::id()))
    });
    std::fs::create_dir_all(&dir).expect("create data dir");
    let pages_path = dir.join("tree.pages");

    eprintln!("generating pacific-nw profile at n={}...", args.n);
    let pts = csj_data::roads::pacific_nw(args.n);
    let eps = args.eps;
    let cfg_tree = RTreeConfig::default();
    let width = OutputWriter::<FileSink>::id_width_for(pts.len());

    // Build the page file once; every leg reopens it read-only with its
    // own pool size. The build pool is generous — building is not what
    // this benchmark measures.
    let t0 = Instant::now();
    let built = PagedTree::build_str(
        &pts,
        cfg_tree,
        FileDisk::create(&pages_path).expect("create page file"),
        RetryPolicy::default(),
        4096,
    )
    .expect("bulk load to pages");
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let node_pages = built.meta().node_pages;
    let footprint_bytes = (node_pages + 1) * PAGE_SIZE as u64;
    eprintln!(
        "page file: {} node pages ({:.1} MiB) built in {:.0} ms",
        node_pages,
        footprint_bytes as f64 / (1024.0 * 1024.0),
        build_ms
    );
    drop(built);

    // In-memory reference: same traversal, arena-resident nodes.
    let rtree = csj_index::rstar::RStarTree::bulk_load_str(&pts, cfg_tree);
    let mut reference: Vec<Reference> = ALGOS.iter().map(|_| Reference::default()).collect();

    // Pool curve: 1/64 .. 1/8 of the index footprint (the acceptance
    // ceiling), smallest first so the hardest configuration runs first.
    let fractions: &[u64] = if args.smoke { &[64, 8] } else { &[64, 32, 16, 8] };
    let mut legs: Vec<Leg> = Vec::new();
    for &frac in fractions {
        let pool = ((node_pages / frac).max(4)) as usize;
        for algo in 0..ALGOS.len() {
            legs.push(Leg {
                algo,
                pool_pages: pool,
                pool_fraction: 1.0 / frac as f64,
                prefetch_budget_pages: (pool / 4).max(8),
                ..Leg::default()
            });
        }
    }
    // The page path's CPU alone: the smallest pool over a simulated
    // disk, with no read-ahead.
    let sim_pool = ((node_pages / fractions[0]).max(4)) as usize;
    for algo in 0..ALGOS.len() {
        legs.push(Leg {
            algo,
            simulated: true,
            pool_pages: sim_pool,
            pool_fraction: 1.0 / fractions[0] as f64,
            ..Leg::default()
        });
    }
    let mut sim_disk = Some({
        let mut file = FileDisk::open(&pages_path).expect("open page file");
        let mut sim = SimulatedDisk::new();
        for page in 0..file.num_pages() {
            let page = file.read(csj_storage::PageId(page)).expect("read page file");
            sim.alloc();
            sim.write(&page).expect("copy page");
        }
        sim
    });

    // Every repetition runs every leg once, in the same order, so host
    // drift hits all legs alike.
    let reps = if args.smoke { 1 } else { REPS };
    for rep in 0..reps {
        for (r, &(name, algo)) in reference.iter_mut().zip(&ALGOS) {
            let out_path = dir.join(format!("mem_{name}.txt"));
            let (wall, stats, bytes) = in_memory_run(&rtree, algo, eps, &out_path, width);
            eprintln!(
                "rep {rep} in-memory {name}: {wall:.0} ms, {} encoded links, {bytes} bytes",
                encoded_links(&stats)
            );
            r.samples_ms.push(wall);
            r.stats = stats;
            r.bytes = bytes;
        }
        for leg in &mut legs {
            let name = ALGOS[leg.algo].0;
            let pool = leg.pool_pages;
            let out_path = dir.join(format!("ooc_{name}_{pool}.txt"));
            let (wall_ms, stats, output_bytes, paged) = if leg.simulated {
                let mut disk = sim_disk.take().expect("the simulated page file");
                disk.reads = 0;
                let tree = PagedTree::<2, _>::open(disk, RetryPolicy::default(), pool)
                    .expect("open paged tree");
                let (wall_ms, stats, bytes) = paged_run(&tree, leg, eps, &out_path, width, None);
                let paged = tree.stats();
                sim_disk = Some(tree.into_disk());
                (wall_ms, stats, bytes, paged)
            } else {
                let disk = FileDisk::open(&pages_path).expect("open page file");
                let tree = PagedTree::<2, _>::open(disk, RetryPolicy::default(), pool)
                    .expect("open paged tree");
                let (wall_ms, stats, bytes) =
                    paged_run(&tree, leg, eps, &out_path, width, Some(&pages_path));
                (wall_ms, stats, bytes, tree.stats())
            };

            // Identity gate: the out-of-core run must reproduce the
            // in-memory run exactly.
            let r = &reference[leg.algo];
            assert_eq!(stats.links_emitted, r.stats.links_emitted, "{name} links diverged");
            assert_eq!(stats.groups_emitted, r.stats.groups_emitted, "{name} groups diverged");
            assert_eq!(
                stats.distance_computations, r.stats.distance_computations,
                "{name} comparisons diverged"
            );
            assert_eq!(output_bytes, r.bytes, "{name} output bytes diverged");
            if args.smoke {
                let mem = std::fs::read(dir.join(format!("mem_{name}.txt"))).expect("read");
                let ooc = std::fs::read(&out_path).expect("read");
                assert!(mem == ooc, "{name} output files diverged at {pool} pages");
            }
            let _ = std::fs::remove_file(&out_path);

            eprintln!(
                "rep {rep} pool {pool} pages {name}{}: {wall_ms:.0} ms, {:.0} links/s, \
                 {} misses / {} hits ({:.1}% hit rate), {} evictions, {} prefetched \
                 ({} issued, {} late, {} wasted)",
                if leg.simulated { " (simulated disk)" } else { "" },
                encoded_links(&stats) as f64 / (wall_ms / 1e3),
                paged.pool.misses,
                paged.pool.hits,
                paged.pool.hit_rate() * 100.0,
                paged.pool.evictions,
                paged.prefetch_supplied,
                paged.prefetch.issued,
                paged.prefetch.late,
                paged.prefetch.wasted
            );
            leg.samples_ms.push(wall_ms);
            leg.output_bytes = output_bytes;
            leg.stats = stats;
            leg.paged = paged;
        }
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"benchmark\": \"outofcore\",");
    let _ = writeln!(json, "  \"rustc\": \"{}\",", rustc_version());
    let _ = writeln!(json, "  \"host_parallelism\": {},", csj_core::parallel::default_threads());
    let _ = writeln!(json, "  \"kernel_path\": \"{}\",", KernelPath::detect().name());
    let _ = writeln!(json, "  \"smoke\": {},", args.smoke);
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"dataset\": \"pacific-nw\",");
    let _ = writeln!(json, "  \"n\": {},", args.n);
    let _ = writeln!(json, "  \"eps\": {},", eps);
    let _ = writeln!(json, "  \"page_size\": {},", PAGE_SIZE);
    let _ = writeln!(json, "  \"node_pages\": {},", node_pages);
    let _ = writeln!(json, "  \"footprint_bytes\": {},", footprint_bytes);
    let _ = writeln!(json, "  \"build_ms\": {:.1},", build_ms);
    let _ = writeln!(json, "  \"in_memory\": [");
    for (i, (r, (name, _))) in reference.iter().zip(ALGOS).enumerate() {
        let comma = if i + 1 == reference.len() { "" } else { "," };
        let wall = TimeStats::from_samples_ms(r.samples_ms.clone());
        let _ = writeln!(
            json,
            "    {{\"algo\": \"{}\", \"wall_ms_min\": {:.1}, \"wall_ms_median\": {:.1}, \
             \"wall_ms_max\": {:.1}, \"links\": {}, \"groups\": {}, \"output_bytes\": {}, \
             \"links_per_sec\": {:.0}}}{comma}",
            name,
            wall.min_ms,
            wall.median_ms,
            wall.max_ms,
            encoded_links(&r.stats),
            r.stats.groups_emitted,
            r.bytes,
            encoded_links(&r.stats) as f64 / (wall.median_ms / 1e3)
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"pool_curve\": [");
    for (i, leg) in legs.iter().enumerate() {
        let comma = if i + 1 == legs.len() { "" } else { "," };
        let wall = TimeStats::from_samples_ms(leg.samples_ms.clone());
        let in_memory = TimeStats::from_samples_ms(reference[leg.algo].samples_ms.clone());
        let _ = writeln!(
            json,
            "    {{\"algo\": \"{}\", \"disk\": \"{}\", \"pool_pages\": {}, \
             \"pool_fraction\": {:.5}, \"prefetch_budget_pages\": {}, \"wall_ms_min\": {:.1}, \
             \"wall_ms_median\": {:.1}, \"wall_ms_max\": {:.1}, \"vs_in_memory\": {:.2}, \
             \"links_per_sec\": {:.0}, \
             \"output_bytes\": {}, \"links\": {}, \"groups\": {}, \"pool_hits\": {}, \
             \"pool_misses\": {}, \"hit_rate\": {:.4}, \"evictions\": {}, \"disk_reads\": {}, \
             \"io_retries\": {}, \"prefetch_supplied\": {}, \"prefetch_issued\": {}, \
             \"prefetch_late\": {}, \"prefetch_late_wait_ms\": {:.1}, \"prefetch_wasted\": {}}}{comma}",
            ALGOS[leg.algo].0,
            if leg.simulated { "simulated" } else { "file" },
            leg.pool_pages,
            leg.pool_fraction,
            leg.prefetch_budget_pages,
            wall.min_ms,
            wall.median_ms,
            wall.max_ms,
            wall.median_ms / in_memory.median_ms,
            encoded_links(&leg.stats) as f64 / (wall.median_ms / 1e3),
            leg.output_bytes,
            encoded_links(&leg.stats),
            leg.stats.groups_emitted,
            leg.paged.pool.hits,
            leg.paged.pool.misses,
            leg.paged.pool.hit_rate(),
            leg.paged.pool.evictions,
            leg.paged.disk_reads,
            leg.paged.io_retries,
            leg.paged.prefetch_supplied,
            leg.paged.prefetch.issued,
            leg.paged.prefetch.late,
            leg.paged.prefetch.late_wait_ns as f64 / 1e6,
            leg.paged.prefetch.wasted
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    std::fs::write(&args.out, &json).expect("write json");
    eprintln!("wrote {}", args.out);

    // Temp-dir hygiene: remove everything this run created unless the
    // caller chose the directory.
    for (name, _) in ALGOS {
        let _ = std::fs::remove_file(dir.join(format!("mem_{name}.txt")));
    }
    if args.data_dir.is_none() {
        let _ = std::fs::remove_file(&pages_path);
        let _ = std::fs::remove_dir(&dir);
    }
}
