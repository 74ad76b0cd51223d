//! A buffer-pool miss on the out-of-core path allocates nothing.
//!
//! A miss reads the page into the store's one page buffer and decodes it
//! into the node the evicted frame gave up, reusing its buffers. This
//! binary counts every heap allocation (its own global allocator) while
//! N-CSJ runs over a page-resident tree twice: once through a 4-page
//! pool, which misses on most accesses, and once through a pool that
//! holds the whole tree, which misses once per page. The traversal is the
//! same, so whatever the small pool allocates beyond the large one is
//! paid per miss.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use csj_core::outofcore::PagedSource;
use csj_core::{ParallelAlgo, ResilientJoin};
use csj_index::{rstar::RStarTree, PagedTree, RTreeConfig};
use csj_storage::{RetryPolicy, SimulatedDisk};

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

fn allocations() -> u64 {
    // ORDERING: see `Counting::alloc`.
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Allocations and pool misses of one N-CSJ run over `tree`'s pages,
/// reopened cold with a `pool`-page pool on a simulated disk.
fn join_allocations(tree: &RStarTree<2>, pool: usize) -> (u64, u64) {
    let built =
        PagedTree::from_core(tree.core(), SimulatedDisk::new(), RetryPolicy::none(), 4096).unwrap();
    let paged = PagedTree::<2, _>::open(built.into_disk(), RetryPolicy::none(), pool).unwrap();
    let join = ResilientJoin::new(0.15, ParallelAlgo::Ncsj);
    let before = allocations();
    let output = join.run(PagedSource::new(&paged, None)).unwrap();
    let allocated = allocations() - before;
    assert!(!output.items.is_empty());
    (allocated, paged.stats().pool.misses)
}

#[test]
fn a_small_pool_allocates_no_more_than_a_pool_holding_the_tree() {
    let pts = csj_data::uniform::uniform::<2>(4_000, 11);
    let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(16));
    let (small, small_misses) = join_allocations(&tree, 4);
    let (full, full_misses) = join_allocations(&tree, 4096);
    assert_eq!(full_misses as usize, tree.core().node_count(), "one cold miss per page");
    assert!(
        small_misses >= 10 * full_misses,
        "the 4-page pool must miss far more: {small_misses} vs {full_misses}"
    );
    assert!(
        small <= full,
        "{small} allocations over {small_misses} misses, {full} over {full_misses}: a miss \
         allocates"
    );
}
