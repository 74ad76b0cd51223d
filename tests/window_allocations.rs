//! The in-memory join allocates nothing per node visit, and CSJ(g)'s
//! group window nothing per link, group or early stop.
//!
//! This binary counts every heap allocation (its own global allocator)
//! while CSJ(10) and N-CSJ stream the same clustered points, where early
//! stops fire, into a byte-counting sink. Both run the same traversal
//! with the same early stops; N-CSJ writes each link and subtree as its
//! own row, CSJ(10) merges them through the window. N-CSJ's own count is
//! the traversal's (child lists, early-stop ids, leaf-probe scratch), and
//! it must not grow with the node pairs visited. Whatever CSJ(10)
//! allocates beyond N-CSJ is the window's, and it must not grow with the
//! links, groups or early stops of the input.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use csj_core::{JoinStats, ParallelAlgo, ResilientJoin};
use csj_data::clusters::{gaussian_mixture, ClusterConfig};
use csj_index::{rstar::RStarTree, RTreeConfig};
use csj_storage::{CountingSink, OutputWriter};

/// The system allocator, counting allocations and reallocations.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s contract is this allocator's contract; the
// counter is a side effect that touches no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // ORDERING: a statistic read after the measured run on the same
        // thread; no other memory is published through it.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; see the impl comment.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // ORDERING: as in `alloc`.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; see the impl comment.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // ORDERING: as in `alloc`.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; see the impl comment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; see the impl comment.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The counter is process-wide, so the tests measure one at a time.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn allocations() -> u64 {
    // ORDERING: see `Counting::alloc`.
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Allocations and counters of one streamed run of `algo` over `tree`.
fn run(tree: &RStarTree<2>, algo: ParallelAlgo) -> (u64, JoinStats) {
    let mut writer = OutputWriter::new(CountingSink::new(), 5);
    let join = ResilientJoin::new(0.03, algo);
    let before = allocations();
    let report = join.run_streaming(tree, &mut writer).expect("counting sink cannot fail");
    (allocations() - before, report.stats)
}

/// What the window may allocate whatever the input: the ring's shape and
/// member-log arrays, the bound slabs, and each of the ten slots' member
/// log growing to the largest group it has held (a doubling per step).
const WINDOW_ALLOCATIONS: u64 = 200;

/// What the traversal may allocate whatever the input: its reused
/// buffers (step stack, child lists, early-stop ids, the leaf probes'
/// hit ring and ε-strip) each doubling up to the largest size it holds.
const TRAVERSAL_ALLOCATIONS: u64 = 64;

/// `n` clustered points in an STR R*-tree of fanout 12.
fn clustered_tree(n: usize) -> RStarTree<2> {
    let pts = gaussian_mixture::<2>(n, ClusterConfig { clusters: 8, sigma: 0.01 }, 17);
    RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(12))
}

#[test]
fn ncsj_traversal_allocations_do_not_grow_with_pair_visits() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (small, small_stats) = run(&clustered_tree(2_000), ParallelAlgo::Ncsj);
    let (large, large_stats) = run(&clustered_tree(8_000), ParallelAlgo::Ncsj);
    assert!(
        large_stats.pair_visits >= 10 * small_stats.pair_visits,
        "the larger input must visit many more node pairs: {small_stats:?} vs {large_stats:?}"
    );
    assert!(
        small <= TRAVERSAL_ALLOCATIONS && large <= small + TRAVERSAL_ALLOCATIONS,
        "N-CSJ allocated {small} times for {} pair visits and {large} times for {}",
        small_stats.pair_visits,
        large_stats.pair_visits
    );
}

#[test]
fn csj_window_allocations_do_not_grow_with_links_or_groups() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for n in [2_000, 8_000] {
        let tree = clustered_tree(n);
        let (ncsj, ncsj_stats) = run(&tree, ParallelAlgo::Ncsj);
        let (csj, s) = run(&tree, ParallelAlgo::Csj(10));
        let early_stops = s.early_stops_node + s.early_stops_pair;
        assert_eq!(early_stops, ncsj_stats.early_stops_node + ncsj_stats.early_stops_pair);
        assert_eq!(s.pair_visits, ncsj_stats.pair_visits, "one traversal");
        assert!(
            early_stops >= 700 && s.groups_emitted >= 6_000 && s.merges_succeeded >= 100_000,
            "n {n}: the input must exercise the window: {s:?}"
        );
        assert!(
            csj <= ncsj + WINDOW_ALLOCATIONS,
            "n {n}: CSJ(10) allocated {csj} times, N-CSJ {ncsj} over the same traversal, with \
             {early_stops} early stops, {} groups and {} merges",
            s.groups_emitted,
            s.merges_succeeded
        );
    }
}
