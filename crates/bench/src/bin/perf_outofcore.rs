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
//! adds to the join. Every leg runs 3 times (once under `--smoke`),
//! interleaved round-robin with the others, and reports the min, median
//! and max of its wall times; throughput is taken at the median, and
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

use std::path::{Path, PathBuf};
use std::time::Instant;

use csj_bench::args::{PerfArgs, PerfBin};
use csj_bench::harness::{interleaved, join_to_file, write_report, Json, TimeStats};
use csj_core::outofcore::{PagedSource, Prefetcher};
use csj_core::parallel::ParallelAlgo;
use csj_core::{JoinStats, ResilientJoin};
use csj_index::rstar::RStarTree;
use csj_index::{PagedStats, PagedTree, RTreeConfig};
use csj_storage::disk::Disk;
use csj_storage::{FileDisk, FileSink, OutputWriter, RetryPolicy, SimulatedDisk, PAGE_SIZE};

/// Total links the output encodes: individual rows plus the pairs
/// implied by group rows.
fn encoded_links(stats: &JoinStats) -> u64 {
    stats.links_emitted + stats.links_in_groups
}

/// The two benchmarked joins, by row label.
const ALGOS: [(&str, ParallelAlgo); 2] =
    [("ncsj", ParallelAlgo::Ncsj), ("csj10", ParallelAlgo::Csj(10))];

/// Where a leg's nodes live.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
enum Nodes {
    /// The in-memory R*-tree: the identity baseline every other leg of
    /// the same join must match.
    #[default]
    InMemory,
    /// The page file, with frontier read-ahead.
    File,
    /// A `SimulatedDisk` copy of the page file, without read-ahead.
    Simulated,
}

impl Nodes {
    fn label(self) -> &'static str {
        match self {
            Nodes::InMemory => "memory",
            Nodes::File => "file",
            Nodes::Simulated => "simulated",
        }
    }
}

/// One leg; the counters are those of its last repetition.
#[derive(Default)]
struct Leg {
    /// Index into [`ALGOS`].
    algo: usize,
    nodes: Nodes,
    pool_pages: usize,
    pool_fraction: f64,
    prefetch_budget_pages: usize,
    output_bytes: u64,
    stats: JoinStats,
    paged: PagedStats,
}

/// The legs of one run: the in-memory reference per join, then the pool
/// curve from 1/64 up to 1/8 of the `node_pages` footprint (the
/// acceptance ceiling, smallest first so the hardest configuration runs
/// first), then the smallest pool over a simulated disk.
fn plan_legs(node_pages: u64, smoke: bool) -> Vec<Leg> {
    let fractions: &[u64] = if smoke { &[64, 8] } else { &[64, 32, 16, 8] };
    let pool_at = |frac: u64| ((node_pages / frac).max(4)) as usize;
    let mut legs: Vec<Leg> = (0..ALGOS.len()).map(|algo| Leg { algo, ..Leg::default() }).collect();
    for &frac in fractions {
        let pool = pool_at(frac);
        legs.extend((0..ALGOS.len()).map(|algo| Leg {
            algo,
            nodes: Nodes::File,
            pool_pages: pool,
            pool_fraction: 1.0 / frac as f64,
            prefetch_budget_pages: (pool / 4).max(8),
            ..Leg::default()
        }));
    }
    legs.extend((0..ALGOS.len()).map(|algo| Leg {
        algo,
        nodes: Nodes::Simulated,
        pool_pages: pool_at(fractions[0]),
        pool_fraction: 1.0 / fractions[0] as f64,
        ..Leg::default()
    }));
    legs
}

/// Copies the page file at `path` into a `SimulatedDisk`.
fn simulated_copy(path: &Path) -> SimulatedDisk {
    let mut file = FileDisk::open(path).expect("open page file");
    let mut sim = SimulatedDisk::new();
    for page in 0..file.num_pages() {
        let page = file.read(csj_storage::PageId(page)).expect("read page file");
        sim.alloc();
        sim.write(&page).expect("copy page");
    }
    sim
}

/// The report row of `leg`, timed at `wall`; `in_memory` is the median
/// of its join's in-memory leg.
fn leg_row(leg: &Leg, wall: &TimeStats, in_memory: f64) -> Json {
    let links = encoded_links(&leg.stats);
    let mut row = vec![("algo", ALGOS[leg.algo].0.into())];
    if leg.nodes != Nodes::InMemory {
        row.extend([
            ("disk", leg.nodes.label().into()),
            ("pool_pages", leg.pool_pages.into()),
            ("pool_fraction", Json::Fixed(leg.pool_fraction, 5)),
            ("prefetch_budget_pages", leg.prefetch_budget_pages.into()),
        ]);
    }
    row.extend(wall.fields(["wall_ms_min", "wall_ms_median", "wall_ms_max"], 1));
    let per_sec = Json::Fixed(links as f64 / (wall.median_ms / 1e3), 0);
    if leg.nodes == Nodes::InMemory {
        row.extend([
            ("links", links.into()),
            ("groups", leg.stats.groups_emitted.into()),
            ("output_bytes", leg.output_bytes.into()),
            ("links_per_sec", per_sec),
        ]);
        return Json::Obj(row);
    }
    let (paged, prefetch) = (&leg.paged, &leg.paged.prefetch);
    row.extend([
        ("vs_in_memory", Json::Fixed(wall.median_ms / in_memory, 2)),
        ("links_per_sec", per_sec),
        ("output_bytes", leg.output_bytes.into()),
        ("links", links.into()),
        ("groups", leg.stats.groups_emitted.into()),
        ("pool_hits", paged.pool.hits.into()),
        ("pool_misses", paged.pool.misses.into()),
        ("hit_rate", Json::Fixed(paged.pool.hit_rate(), 4)),
        ("evictions", paged.pool.evictions.into()),
        ("disk_reads", paged.disk_reads.into()),
        ("io_retries", paged.io_retries.into()),
        ("prefetch_supplied", paged.prefetch_supplied.into()),
        ("prefetch_issued", prefetch.issued.into()),
        ("prefetch_late", prefetch.late.into()),
        ("prefetch_late_wait_ms", Json::Fixed(prefetch.late_wait_ns as f64 / 1e6, 1)),
        ("prefetch_wasted", prefetch.wasted.into()),
    ]);
    Json::Obj(row)
}

fn main() {
    let bin = PerfBin::OutOfCore;
    let args = PerfArgs::parse(bin);
    let dir = args.data_dir.clone().map(PathBuf::from).unwrap_or_else(|| {
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
    let rtree = RStarTree::bulk_load_str(&pts, cfg_tree);
    let mut legs = plan_legs(node_pages, args.smoke);
    let mut sim_disk = Some(simulated_copy(&pages_path));

    // Every round runs every leg once, in the same order, so host drift
    // hits all legs alike; the in-memory legs run first and set the
    // reference each out-of-core leg of the same join must reproduce.
    let mut reference: [(JoinStats, u64); ALGOS.len()] = Default::default();
    let walls = interleaved(args.iters, &mut legs, |leg| {
        let (name, pool) = (ALGOS[leg.algo].0, leg.pool_pages);
        let out_path = dir.join(match leg.nodes {
            Nodes::InMemory => format!("mem_{name}.txt"),
            _ => format!("ooc_{name}_{pool}.txt"),
        });
        let join = ResilientJoin::new(eps, ALGOS[leg.algo].1);
        let (wall_ms, stats, output_bytes) = match leg.nodes {
            Nodes::InMemory => {
                let run = join_to_file(&join, &out_path, width, || &rtree);
                reference[leg.algo] = (run.1.clone(), run.2);
                run
            }
            Nodes::File => {
                let disk = FileDisk::open(&pages_path).expect("open page file");
                let tree = PagedTree::<2, _>::open(disk, RetryPolicy::default(), pool)
                    .expect("open paged tree");
                let budget = leg.prefetch_budget_pages * PAGE_SIZE;
                let run = join_to_file(&join, &out_path, width, || {
                    let prefetch = Prefetcher::spawn(&pages_path, budget).expect("read-ahead");
                    PagedSource::new(&tree, Some(prefetch))
                });
                leg.paged = tree.stats();
                run
            }
            Nodes::Simulated => {
                let mut disk = sim_disk.take().expect("the simulated page file");
                disk.reads = 0;
                let tree = PagedTree::<2, _>::open(disk, RetryPolicy::default(), pool)
                    .expect("open paged tree");
                let run = join_to_file(&join, &out_path, width, || PagedSource::new(&tree, None));
                leg.paged = tree.stats();
                sim_disk = Some(tree.into_disk());
                run
            }
        };

        if leg.nodes != Nodes::InMemory {
            // Identity gate: the out-of-core run must reproduce the
            // in-memory run exactly.
            let (r_stats, r_bytes) = &reference[leg.algo];
            assert_eq!(stats.links_emitted, r_stats.links_emitted, "{name} links diverged");
            assert_eq!(stats.groups_emitted, r_stats.groups_emitted, "{name} groups diverged");
            assert_eq!(
                stats.distance_computations, r_stats.distance_computations,
                "{name} comparisons diverged"
            );
            assert_eq!(output_bytes, *r_bytes, "{name} output bytes diverged");
            if args.smoke {
                let mem = std::fs::read(dir.join(format!("mem_{name}.txt"))).expect("read");
                let ooc = std::fs::read(&out_path).expect("read");
                assert!(mem == ooc, "{name} output files diverged at {pool} pages");
            }
            let _ = std::fs::remove_file(&out_path);
        }
        let p = &leg.paged;
        eprintln!(
            "{name} {} pool {pool}: {wall_ms:.0} ms, {:.0} links/s, {output_bytes} bytes, \
             {} misses / {} hits ({:.1}% hit rate), {} evictions, {} prefetched \
             ({} issued, {} late, {} wasted)",
            leg.nodes.label(),
            encoded_links(&stats) as f64 / (wall_ms / 1e3),
            p.pool.misses,
            p.pool.hits,
            p.pool.hit_rate() * 100.0,
            p.pool.evictions,
            p.prefetch_supplied,
            p.prefetch.issued,
            p.prefetch.late,
            p.prefetch.wasted
        );
        leg.output_bytes = output_bytes;
        leg.stats = stats;
        wall_ms
    });

    let rows: Vec<Json> = legs
        .iter()
        .zip(&walls)
        .map(|(leg, wall)| leg_row(leg, wall, walls[leg.algo].median_ms))
        .collect();
    let (in_memory, pool_curve) = rows.split_at(ALGOS.len());
    write_report(
        bin,
        &args,
        vec![
            ("dataset", "pacific-nw".into()),
            ("eps", eps.into()),
            ("page_size", PAGE_SIZE.into()),
            ("node_pages", node_pages.into()),
            ("footprint_bytes", footprint_bytes.into()),
            ("build_ms", Json::Fixed(build_ms, 1)),
            ("in_memory", Json::Arr(in_memory.to_vec())),
            ("pool_curve", Json::Arr(pool_curve.to_vec())),
        ],
    );

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
