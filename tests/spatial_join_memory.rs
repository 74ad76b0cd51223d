//! A spatial join streams its rows: its heap does not grow with them.
//!
//! This binary tracks the live heap (its own global allocator) while SSJ
//! and CSJ(10) join two uniform point sets into a byte-counting sink, at
//! two ranges where the written rows grow more than fourfold. Rows go
//! to the writer as they are found, so the larger run's peak heap above
//! the built trees must stay within a fixed bound, not scale with its
//! rows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use csj_core::spatial::SpatialJoin;
use csj_core::ParallelAlgo;
use csj_index::{rstar::RStarTree, RTreeConfig};
use csj_storage::{CountingSink, OutputWriter};

/// The system allocator, tracking live bytes and their peak.
struct Tracking;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Records `bytes` more live heap.
fn grow(bytes: usize) {
    // ORDERING: statistics read after the measured run on the same
    // thread; no other memory is published through them.
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    // ORDERING: as above.
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// Records `bytes` less live heap.
fn shrink(bytes: usize) {
    // ORDERING: as in `grow`.
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s contract is this allocator's contract; the
// counters are a side effect that touches no allocation.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; see the impl comment.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; see the impl comment.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; see the impl comment.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: forwarded unchanged; see the impl comment.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

/// Rows written and the peak heap above what was live before, for
/// `algo` at range `eps` joining `left` with `right` into a counting
/// sink.
fn peak_heap(
    left: &RStarTree<2>,
    right: &RStarTree<2>,
    algo: ParallelAlgo,
    eps: f64,
) -> (u64, usize) {
    // ORDERING: see `grow`.
    let base = LIVE.load(Ordering::Relaxed);
    // ORDERING: see `grow`.
    PEAK.store(base, Ordering::Relaxed);
    let mut writer = OutputWriter::new(CountingSink::new(), 4);
    let report = SpatialJoin::new(eps, algo)
        .run_streaming(left, right, &mut writer)
        .expect("a counting sink cannot fail");
    // ORDERING: see `grow`.
    let peak = PEAK.load(Ordering::Relaxed) - base;
    (report.stats.links_emitted + report.stats.groups_emitted, peak)
}

/// The fixed bound on a join's heap above its trees: the engine's step
/// stack, one early-stopped pair's ids, the window's groups and the
/// writer's row buffers, none of which holds a written row.
const HEAP_BOUND: usize = 64 << 10;

#[test]
fn spatial_join_heap_does_not_grow_with_rows() {
    let cfg = RTreeConfig::default();
    let left = RStarTree::bulk_load_str(&csj_data::uniform::uniform::<2>(6_000, 1), cfg);
    let right = RStarTree::bulk_load_str(&csj_data::uniform::uniform::<2>(6_000, 2), cfg);
    for algo in [ParallelAlgo::Ssj, ParallelAlgo::Csj(10)] {
        let (small_rows, small_peak) = peak_heap(&left, &right, algo, 0.005);
        let (rows, peak) = peak_heap(&left, &right, algo, 0.02);
        eprintln!("{algo:?}: {small_rows} rows peak {small_peak} B; {rows} rows peak {peak} B");
        assert!(rows >= 4 * small_rows, "{algo:?}: {rows} rows vs {small_rows}");
        assert!(
            peak <= HEAP_BOUND,
            "{algo:?}: {rows} rows peaked at {peak} B of heap ({small_rows} rows at \
             {small_peak} B)"
        );
    }
}
