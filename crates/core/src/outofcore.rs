//! External-memory joins over page-resident trees.
//!
//! There is no separate out-of-core recursion or task loop:
//! [`OutOfCoreJoin`] runs the one sequential loop,
//! [`ResilientJoin`], over a [`PagedSource`], the [`NodeSource`] whose
//! nodes live in disk pages behind a pinned LRU buffer pool instead of an
//! in-memory arena. A node handle
//! ([`NodeRef`]) carries the MBR and level its parent recorded, so every
//! pruning and early-stopping bound is computed without I/O and a child
//! page is only faulted in when the traversal descends into it. The
//! engine therefore makes the decisions it makes in memory, in the same
//! order: output (links, groups, member order) and every traversal
//! counter are **bit-identical** to the in-memory sequential join, with
//! or without plane sweep; only the I/O counters differ.
//!
//! Memory is bounded by two knobs:
//!
//! * the buffer pool (`pool_pages × PAGE_SIZE` bytes of resident
//!   nodes; in-use pages are pinned, at most two at once — a
//!   leaf-pair probe);
//! * the optional [`Prefetcher`] budget (pages staged or in flight).
//!
//! The same MBR-only decisions let the engine know its next page reads
//! before it makes them. Each frame computes its surviving child steps
//! once and runs them in order (the root frame's steps are the loop's
//! tasks); [`PagedSource`] pushes their pages onto
//! the prefetcher's frontier meanwhile, and a few reader threads keep
//! the first `budget / PAGE_SIZE` unread pages of that frontier in
//! flight. Staging only changes *who reads the bytes*, never what the
//! traversal does — a failed read-ahead is dropped and the page is read
//! synchronously, with retries, when the traversal gets there.

use std::collections::{HashSet, VecDeque};
use std::time::Instant;

use csj_geom::{Mbr, Metric, RecordId, SoaView};
use csj_index::paged::{NodeGuard, PagedStore, PagedTree, PrefetchStats};
use csj_index::LeafEntry;
use csj_storage::disk::Disk;
use csj_storage::{FileDisk, OutputSink, OutputWriter, PageId, PAGE_SIZE};

use crate::engine::{LeafView, NodeSource, Step};
use crate::error::CsjError;
use crate::output::JoinOutput;
use crate::parallel::ParallelAlgo;
use crate::resilient::ResilientJoin;
use crate::stats::JoinStats;
use crate::sync::{Arc, Condvar, Mutex, MutexGuard};
use crate::JoinConfig;

/// Reader threads serving the read-ahead window, each with its own
/// page-file handle: the knee of the 1/2/4/8-in-flight curve in
/// DESIGN.md §11.
const READERS: usize = 4;

/// How far past a batch's cursor [`Prefetcher::fetch`] looks for the
/// pages being accessed (a step reads at most two).
const CURSOR_HORIZON: usize = 4;

/// Locks a facade mutex, recovering from poisoning (the state is plain
/// page lists, consistent at every unlock).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Blocks on `cv`, recovering from poisoning as [`lock`] does.
fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    match cv.wait(guard) {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// What the engine and the reader threads share.
#[derive(Default)]
struct ReadState {
    /// Window pages waiting for a reader, soonest first.
    queue: VecDeque<u64>,
    /// Pages a reader is reading now.
    in_flight: Vec<u64>,
    /// Finished reads not yet handed to the store (`None`: the read
    /// failed).
    done: Vec<(u64, Option<Vec<u8>>)>,
    /// Reads started.
    issued: u64,
    shutdown: bool,
}

struct Shared {
    state: Mutex<ReadState>,
    /// Signalled when the queue gains pages or shutdown begins.
    work: Condvar,
    /// Signalled when a read finishes.
    landed: Condvar,
}

/// The pages of one internal frame's child steps, in first-access order.
struct Batch {
    pages: Vec<PageId>,
    /// Entries before this index have been accessed.
    cursor: usize,
}

/// Frontier-ordered page read-ahead on a small pool of reader threads.
///
/// The engine [`push`](Prefetcher::push)es each internal frame's child
/// pages as a batch and [`pop`](Prefetcher::pop)s it when the frame
/// returns, so the batches form a stack whose walk from the newest
/// batch down is the traversal's upcoming page order. The read-ahead
/// window is the first `budget / PAGE_SIZE` pages of that walk that
/// are not resident; readers fetch the window's pages soonest first,
/// queued requests that fall out of the window are dropped, and pages
/// staged or in flight never exceed the window. Every page access goes
/// through [`fetch`](Prefetcher::fetch) before its pin.
pub struct Prefetcher {
    shared: Arc<Shared>,
    readers: Vec<std::thread::JoinHandle<()>>,
    /// Pages of read-ahead allowed staged or in flight at once.
    window: usize,
    frontier: Vec<Batch>,
    /// Pages queued, in flight, or landed and not yet handed over.
    requested: HashSet<u64>,
    /// Pages handed to the store and not yet consumed.
    staged: HashSet<u64>,
    /// Staged pages the last fetch readied for a pin: consumed unless
    /// the store still holds them at the next fetch.
    pending: Vec<u64>,
    /// The frontier changed since the last refill.
    shifted: bool,
    /// Window slots freed since the last refill.
    freed: usize,
    /// Refill scratch: pages walked, and the window in order.
    seen: HashSet<u64>,
    wanted: Vec<u64>,
    late: u64,
    late_wait_ns: u64,
    wasted: u64,
}

impl std::fmt::Debug for Prefetcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prefetcher")
            .field("window_pages", &self.window)
            .field("readers", &self.readers.len())
            .field("staged", &self.staged.len())
            .field("requested", &self.requested.len())
            .finish()
    }
}

/// A reader thread: take the soonest queued page, read it outside the
/// lock, publish the result, and sleep while there is nothing to do.
fn serve_reads<R: Disk>(mut disk: R, shared: &Shared) {
    loop {
        let page = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(page) = st.queue.pop_front() {
                    st.in_flight.push(page);
                    st.issued += 1;
                    break page;
                }
                st = wait(&shared.work, st);
            }
        };
        // A failed read-ahead is not an error: the engine reads the
        // page synchronously, with retries, and surfaces any failure.
        let bytes = disk.read(PageId(page)).ok().map(|p| p.data);
        {
            let mut st = lock(&shared.state);
            st.in_flight.retain(|&p| p != page);
            st.done.push((page, bytes));
        }
        shared.landed.notify_all();
    }
}

impl Prefetcher {
    /// Spawns the reader threads, each over its own handle to the page
    /// file at `path`, keeping at most `budget_bytes` of read-ahead
    /// staged or in flight (at least one page).
    ///
    /// # Errors
    /// Returns [`CsjError::Storage`] when the page file cannot be
    /// opened.
    pub fn spawn(path: &std::path::Path, budget_bytes: usize) -> Result<Self, CsjError> {
        let disks = (0..READERS).map(|_| FileDisk::open(path)).collect::<Result<Vec<_>, _>>()?;
        Ok(Self::with_readers(disks, budget_bytes))
    }

    /// One reader thread per handle in `disks`.
    fn with_readers<R: Disk + Send + 'static>(disks: Vec<R>, budget_bytes: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(ReadState::default()),
            work: Condvar::new(),
            landed: Condvar::new(),
        });
        let readers = disks
            .into_iter()
            .map(|disk| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || serve_reads(disk, &shared))
            })
            .collect();
        Prefetcher {
            shared,
            readers,
            window: (budget_bytes / PAGE_SIZE).max(1),
            frontier: Vec::new(),
            requested: HashSet::new(),
            staged: HashSet::new(),
            pending: Vec::new(),
            shifted: false,
            freed: 0,
            seen: HashSet::new(),
            wanted: Vec::new(),
            late: 0,
            late_wait_ns: 0,
            wasted: 0,
        }
    }

    /// Pushes a frame's child-step pages, in the order the steps will
    /// first read them; they go to the front of the read-ahead order.
    pub fn push(&mut self, pages: impl IntoIterator<Item = PageId>) {
        // First accesses only: a repeat is resident or was read ahead.
        self.seen.clear();
        let pages = pages.into_iter().filter(|p| self.seen.insert(p.0)).collect();
        self.frontier.push(Batch { pages, cursor: 0 });
        self.shifted = true;
    }

    /// Pops the newest batch when its frame returns.
    pub fn pop(&mut self) {
        self.frontier.pop();
        self.shifted = true;
    }

    /// Gets `pages` ready to pin: moves the newest batch's cursor past
    /// them, waits for any of them still in flight, hands finished
    /// reads to `store`, and refills the window. Pin nothing before
    /// this returns: it may block.
    pub fn fetch<const D: usize, Dk: Disk>(&mut self, store: &PagedStore<D, Dk>, pages: &[PageId]) {
        for p in self.pending.drain(..) {
            if store.is_staged(PageId(p)) {
                self.staged.insert(p);
            } else {
                self.freed += 1;
            }
        }
        if let Some(top) = self.frontier.last_mut() {
            for p in pages {
                let end = (top.cursor + CURSOR_HORIZON).min(top.pages.len());
                if let Some(i) = top.pages[top.cursor..end].iter().position(|q| q == p) {
                    top.cursor += i + 1;
                }
            }
        }
        let landed = {
            let mut st = lock(&self.shared.state);
            for p in pages {
                // Queued but not started: the engine reads it itself.
                if let Some(i) = st.queue.iter().position(|&q| q == p.0) {
                    st.queue.remove(i);
                    self.requested.remove(&p.0);
                    self.freed += 1;
                }
            }
            if pages.iter().any(|p| st.in_flight.contains(&p.0)) {
                let start = Instant::now();
                while pages.iter().any(|p| st.in_flight.contains(&p.0)) {
                    st = wait(&self.shared.landed, st);
                }
                self.late += 1;
                self.late_wait_ns += start.elapsed().as_nanos() as u64;
            }
            std::mem::take(&mut st.done)
        };
        for (page, bytes) in landed {
            self.requested.remove(&page);
            if bytes.is_some_and(|b| store.stage_raw(PageId(page), b)) {
                self.staged.insert(page);
            } else {
                // Failed, or the page is resident already.
                self.wasted += 1;
                self.freed += 1;
            }
        }
        for p in pages {
            // The pin right after this consumes the staged bytes.
            if self.staged.remove(&p.0) {
                self.pending.push(p.0);
            }
        }
        // Slots are refilled a few at a time: a refill walks the
        // frontier, and the readers need only stay busy.
        if self.shifted || self.freed >= (self.window / 8).clamp(1, READERS) {
            self.refill(store, pages);
        }
    }

    /// Recomputes the window and re-queues its unrequested pages,
    /// dropping staged pages that fell out of it when the window needs
    /// their room. `current` is being fetched: never read ahead.
    fn refill<const D: usize, Dk: Disk>(&mut self, store: &PagedStore<D, Dk>, current: &[PageId]) {
        self.shifted = false;
        self.freed = 0;
        self.seen.clear();
        self.wanted.clear();
        self.seen.extend(current.iter().map(|p| p.0));
        'walk: for batch in self.frontier.iter().rev() {
            for p in &batch.pages[batch.cursor..] {
                if self.seen.insert(p.0) && !store.is_resident(*p) {
                    self.wanted.push(p.0);
                    if self.wanted.len() == self.window {
                        break 'walk;
                    }
                }
            }
        }
        let mut dropped = Vec::new();
        {
            let mut st = lock(&self.shared.state);
            // Queued requests are re-decided from the new window; those
            // that fell out of it are dropped here.
            for p in st.queue.drain(..) {
                self.requested.remove(&p);
            }
            self.wanted.retain(|p| !self.staged.contains(p) && !self.requested.contains(p));
            let held = self.staged.len() + self.pending.len() + self.requested.len();
            let mut free = self.window.saturating_sub(held);
            if self.wanted.len() > free {
                // Staged pages the walk never reached are needed after
                // every window page: drop them for the sooner ones.
                let deficit = self.wanted.len() - free;
                let seen = &self.seen;
                dropped.extend(self.staged.iter().filter(|p| !seen.contains(p)).take(deficit));
                for p in &dropped {
                    self.staged.remove(p);
                }
                free += dropped.len();
            }
            for &p in self.wanted.iter().take(free) {
                st.queue.push_back(p);
                self.requested.insert(p);
            }
            if !st.queue.is_empty() {
                self.shared.work.notify_all();
            }
        }
        for p in dropped {
            store.unstage(PageId(p));
            self.wasted += 1;
        }
    }

    /// Stops and joins the readers; returns the reads issued and how
    /// many landed after the last fetch.
    fn stop_readers(&mut self) -> (u64, usize) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
            st.queue.clear();
        }
        self.shared.work.notify_all();
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
        let mut st = lock(&self.shared.state);
        let unclaimed = st.done.len();
        st.done.clear();
        (st.issued, unclaimed)
    }

    /// Ends the run: joins the readers, drops every read-ahead the
    /// traversal did not consume, and records the counters in `store`.
    fn finish_run<const D: usize, Dk: Disk>(mut self, store: &PagedStore<D, Dk>) {
        let (issued, landed) = self.stop_readers();
        let unclaimed = landed + store.clear_staged();
        store.record_prefetch(PrefetchStats {
            issued,
            late: self.late,
            late_wait_ns: self.late_wait_ns,
            wasted: self.wasted + unclaimed as u64,
        });
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        if !self.readers.is_empty() {
            self.stop_readers();
        }
    }
}

/// A node as the traversal sees it *before* reading its page: identity
/// plus the MBR and level its parent recorded. Everything the pruning
/// rules need, no I/O.
#[derive(Clone, Copy, Debug)]
pub struct NodeRef<const D: usize> {
    page: PageId,
    mbr: Mbr<D>,
    level: u32,
}

/// The pages a step reads first, in order: a leaf paired with an
/// internal node is read only once the other side is expanded.
fn step_pages<const D: usize>(step: &Step<NodeRef<D>>) -> impl Iterator<Item = PageId> {
    let pages = match *step {
        Step::Node(n) => [Some(n.page), None],
        Step::Pair(a, b) => match (a.level == 0, b.level == 0) {
            (true, false) => [Some(b.page), None],
            (false, true) => [Some(a.page), None],
            _ => [Some(a.page), Some(b.page)],
        },
    };
    pages.into_iter().flatten()
}

/// A [`NodeSource`] over a page-resident tree: every node read pins its
/// page in the tree's buffer pool, after the optional [`Prefetcher`]
/// has readied it, and the engine's frames feed the prefetcher's
/// frontier. Run it through [`ResilientJoin`].
pub struct PagedSource<'t, const D: usize, Dk: Disk> {
    tree: &'t PagedTree<D, Dk>,
    prefetch: Option<Prefetcher>,
    /// The tree's retry count when the run began.
    retries_before: u64,
}

impl<'t, const D: usize, Dk: Disk> PagedSource<'t, D, Dk> {
    /// Reads `tree`, with read-ahead by `prefetch` if given.
    pub fn new(tree: &'t PagedTree<D, Dk>, prefetch: Option<Prefetcher>) -> Self {
        PagedSource { tree, prefetch, retries_before: tree.stats().io_retries }
    }

    /// Readies `pages` for pinning through the prefetcher, if any.
    fn await_pages(&mut self, pages: &[PageId]) {
        if let Some(pf) = self.prefetch.as_mut() {
            pf.fetch(self.tree.store(), pages);
        }
    }

    /// Pins `page`; every single-page access goes through here.
    fn fetch_node(&mut self, page: PageId) -> Result<NodeGuard<'t, D, Dk>, CsjError> {
        self.await_pages(&[page]);
        Ok(self.tree.node(page)?)
    }
}

impl<const D: usize, Dk: Disk> LeafView<D> for NodeGuard<'_, D, Dk> {
    fn entries(&self) -> &[LeafEntry<D>] {
        self.entries.entries()
    }
    fn soa(&self) -> SoaView<'_, D> {
        self.entries.soa()
    }
}

impl<'t, const D: usize, Dk: Disk> NodeSource<D> for PagedSource<'t, D, Dk> {
    type Node = NodeRef<D>;
    type Leaf<'a>
        = NodeGuard<'t, D, Dk>
    where
        Self: 'a;

    fn root(&mut self) -> Result<Option<NodeRef<D>>, CsjError> {
        let Some(page) = self.tree.root() else { return Ok(None) };
        // One page read up front for the root's own MBR and level — its
        // parent-side summary does not exist.
        let guard = self.fetch_node(page)?;
        Ok(Some(NodeRef { page, mbr: guard.mbr, level: guard.level }))
    }
    fn is_leaf(&self, n: NodeRef<D>) -> bool {
        n.level == 0
    }
    fn log_id(&self, n: NodeRef<D>) -> u32 {
        n.page.0 as u32
    }
    fn mbr(&self, n: NodeRef<D>) -> Mbr<D> {
        n.mbr
    }
    fn max_diameter(&self, n: NodeRef<D>, metric: Metric) -> f64 {
        metric.mbr_diameter(&n.mbr)
    }
    fn pair_diameter(&self, a: NodeRef<D>, b: NodeRef<D>, metric: Metric) -> f64 {
        metric.max_dist_mbr(&a.mbr, &b.mbr)
    }
    fn min_dist(&self, a: NodeRef<D>, b: NodeRef<D>, metric: Metric) -> f64 {
        metric.min_dist_mbr(&a.mbr, &b.mbr)
    }
    fn children(&mut self, n: NodeRef<D>) -> Result<Vec<NodeRef<D>>, CsjError> {
        // The children's summaries are cloned out of the page, so the pin
        // is released before any recursion.
        let guard = self.fetch_node(n.page)?;
        Ok(guard
            .children
            .iter()
            .map(|&(page, mbr)| NodeRef { page, mbr, level: n.level - 1 })
            .collect())
    }
    fn leaf(&mut self, n: NodeRef<D>) -> Result<NodeGuard<'t, D, Dk>, CsjError> {
        self.fetch_node(n.page)
    }
    fn leaf_pair(
        &mut self,
        a: NodeRef<D>,
        b: NodeRef<D>,
    ) -> Result<(NodeGuard<'t, D, Dk>, NodeGuard<'t, D, Dk>), CsjError> {
        // Both pages are readied before either is pinned, so no pin is
        // held across a wait; both stay pinned for the probe (the pool's
        // two-pin high-water mark).
        self.await_pages(&[a.page, b.page]);
        let ga = self.tree.node(a.page)?;
        let gb = self.tree.node(b.page)?;
        Ok((ga, gb))
    }
    fn collect_record_ids(
        &mut self,
        n: NodeRef<D>,
        out: &mut Vec<RecordId>,
    ) -> Result<(), CsjError> {
        self.await_pages(&[n.page]);
        Ok(self.tree.collect_record_ids(n.page, out)?)
    }
    fn collect_entries(
        &mut self,
        n: NodeRef<D>,
        out: &mut Vec<LeafEntry<D>>,
    ) -> Result<(), CsjError> {
        self.await_pages(&[n.page]);
        Ok(self.tree.collect_entries(n.page, out)?)
    }
    fn push(&mut self, steps: &[Step<NodeRef<D>>]) {
        if let Some(pf) = self.prefetch.as_mut() {
            pf.push(steps.iter().flat_map(step_pages));
        }
    }
    fn pop(&mut self) {
        if let Some(pf) = self.prefetch.as_mut() {
            pf.pop();
        }
    }
    fn end_run(&mut self, stats: &mut JoinStats) {
        // The prefetcher's counters land in the tree's `PagedStats`.
        if let Some(pf) = self.prefetch.take() {
            pf.finish_run(self.tree.store());
        }
        stats.io_retries += self.tree.stats().io_retries - self.retries_before;
    }
}

/// Which join an [`OutOfCoreJoin`] runs: the same choice as every other
/// runner's.
pub type JoinVariant = ParallelAlgo;

/// Configuration for a complete out-of-core join run: algorithm, join
/// parameters, and an optional prefetch budget.
#[derive(Debug)]
pub struct OutOfCoreJoin {
    cfg: JoinConfig,
    algo: ParallelAlgo,
    prefetch_budget: Option<usize>,
}

impl OutOfCoreJoin {
    /// An out-of-core run of `algo` with range `epsilon`.
    pub fn new(algo: ParallelAlgo, epsilon: f64) -> Self {
        OutOfCoreJoin { cfg: JoinConfig::new(epsilon), algo, prefetch_budget: None }
    }

    /// Replaces the full join configuration.
    pub fn with_config(mut self, cfg: JoinConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Enables async prefetch with the given staging budget in bytes
    /// (effective only on [`FileDisk`]-backed trees).
    pub fn with_prefetch_budget(mut self, bytes: usize) -> Self {
        self.prefetch_budget = Some(bytes);
        self
    }

    /// The configuration this join runs with.
    pub fn config(&self) -> &JoinConfig {
        &self.cfg
    }

    /// `tree` as a node source, with read-ahead from the page file at
    /// `path` when a prefetch budget is set.
    fn source<'t, const D: usize, Dk: Disk>(
        &self,
        tree: &'t PagedTree<D, Dk>,
        path: Option<&std::path::Path>,
    ) -> Result<PagedSource<'t, D, Dk>, CsjError> {
        let prefetch = match (self.prefetch_budget, path) {
            (Some(budget), Some(path)) => Some(Prefetcher::spawn(path, budget)?),
            _ => None,
        };
        Ok(PagedSource::new(tree, prefetch))
    }

    /// Runs the join, collecting rows in memory. Pass the page-file
    /// path as `prefetch_path` (for [`FileDisk`] trees) to activate the
    /// configured prefetch budget.
    ///
    /// # Errors
    /// Returns [`CsjError::Storage`] for unrecoverable page I/O
    /// failures.
    pub fn run<const D: usize, Dk: Disk>(
        &self,
        tree: &PagedTree<D, Dk>,
        prefetch_path: Option<&std::path::Path>,
    ) -> Result<JoinOutput, CsjError> {
        ResilientJoin::with_config(self.cfg, self.algo).run(self.source(tree, prefetch_path)?)
    }

    /// Runs the join, streaming rows into `writer`.
    ///
    /// # Errors
    /// As [`OutOfCoreJoin::run`], plus sink write failures.
    pub fn run_streaming<S: OutputSink, const D: usize, Dk: Disk>(
        &self,
        tree: &PagedTree<D, Dk>,
        writer: &mut OutputWriter<S>,
        prefetch_path: Option<&std::path::Path>,
    ) -> Result<JoinStats, CsjError> {
        let source = self.source(tree, prefetch_path)?;
        Ok(ResilientJoin::with_config(self.cfg, self.algo).run_streaming(source, writer)?.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csj::CsjJoin;
    use crate::engine::{run_collecting, DirectEmit, Engine, StreamSink};
    use crate::ncsj::NcsjJoin;
    use crate::ssj::SsjJoin;
    use csj_geom::Point;
    use csj_index::{rstar::RStarTree, RTreeConfig};
    use csj_storage::{RetryPolicy, SimulatedDisk, VecSink};
    use proptest::prelude::*;

    fn scatter(n: usize, salt: u64) -> Vec<Point<2>> {
        (0..n)
            .map(|i| {
                let h = (i as u64)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(salt)
                    .rotate_left(17);
                let x = (h % 100_000) as f64 / 100_000.0;
                let y = ((h >> 20) % 100_000) as f64 / 100_000.0;
                Point::new([x, y])
            })
            .collect()
    }

    fn temp_pages(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("csj_ooc_{tag}_{}.pages", std::process::id()))
    }

    fn assert_same_run(mem: &JoinOutput, ooc: &JoinOutput, label: &str) {
        assert_eq!(mem.items, ooc.items, "{label}: rows must be bit-identical");
        let (m, o) = (&mem.stats, &ooc.stats);
        assert_eq!(m.node_visits, o.node_visits, "{label}: node_visits");
        assert_eq!(m.pair_visits, o.pair_visits, "{label}: pair_visits");
        assert_eq!(m.distance_computations, o.distance_computations, "{label}: comps");
        assert_eq!(m.early_stops_node, o.early_stops_node, "{label}: early_stops_node");
        assert_eq!(m.early_stops_pair, o.early_stops_pair, "{label}: early_stops_pair");
        assert_eq!(m.pairs_pruned, o.pairs_pruned, "{label}: pairs_pruned");
        assert_eq!(m.links_emitted, o.links_emitted, "{label}: links_emitted");
        assert_eq!(m.groups_emitted, o.groups_emitted, "{label}: groups_emitted");
        assert_eq!(m, o, "{label}: every JoinStats counter");
    }

    /// Checks a prefetched run's read-ahead accounting on `tree`: every
    /// issued read ended useful or wasted, nothing stays staged, and
    /// staging never held more than `budget_pages`.
    fn assert_prefetch_accounting<Dk: Disk>(tree: &PagedTree<2, Dk>, budget_pages: usize) {
        let pg = tree.stats();
        assert_eq!(
            pg.prefetch_supplied + pg.prefetch.wasted,
            pg.prefetch.issued,
            "useful + wasted == issued: {pg:?}"
        );
        assert_eq!(tree.store().staged_bytes(), 0, "no read-ahead outlives the run");
        assert!(
            tree.store().staged_peak_bytes() <= budget_pages * PAGE_SIZE,
            "staged {} bytes on a {budget_pages}-page budget",
            tree.store().staged_peak_bytes()
        );
    }

    /// Builds `pts` onto a fresh page file and reopens it cold with a
    /// `pool`-page pool, as `csj join --data-dir` does.
    fn cold_file_tree(
        pts: &[Point<2>],
        fanout: usize,
        path: &std::path::Path,
        pool: usize,
    ) -> PagedTree<2, csj_storage::FileDisk> {
        let cfg = RTreeConfig::with_max_fanout(fanout);
        let disk = csj_storage::FileDisk::create(path).unwrap();
        drop(PagedTree::build_str(pts, cfg, disk, RetryPolicy::no_backoff(2), 64).unwrap());
        let disk = csj_storage::FileDisk::open(path).unwrap();
        PagedTree::open(disk, RetryPolicy::no_backoff(2), pool).unwrap()
    }

    fn variants() -> [(ParallelAlgo, &'static str); 3] {
        [(ParallelAlgo::Ssj, "ssj"), (ParallelAlgo::Ncsj, "ncsj"), (ParallelAlgo::Csj(10), "csj10")]
    }

    fn in_memory(variant: ParallelAlgo, eps: f64, tree: &RStarTree<2>) -> JoinOutput {
        in_memory_with(variant, JoinConfig::new(eps), tree)
    }

    fn in_memory_with(variant: ParallelAlgo, cfg: JoinConfig, tree: &RStarTree<2>) -> JoinOutput {
        match variant {
            ParallelAlgo::Ssj => SsjJoin::with_config(cfg).run(tree),
            ParallelAlgo::Ncsj => NcsjJoin::with_config(cfg).run(tree),
            ParallelAlgo::Csj(window) => CsjJoin::with_config(cfg).with_window(window).run(tree),
        }
    }

    #[test]
    fn bit_identical_to_in_memory_on_simulated_disk() {
        let pts = scatter(1500, 7);
        let eps = 0.02;
        let rtree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(10));
        for (variant, name) in variants() {
            let mem = in_memory(variant, eps, &rtree);
            for pool in [2usize, 3, 4, 64] {
                let tree = PagedTree::from_core(
                    rtree.core(),
                    SimulatedDisk::new(),
                    RetryPolicy::none(),
                    pool,
                )
                .unwrap();
                let ooc = OutOfCoreJoin::new(variant, eps).run(&tree, None).unwrap();
                assert_same_run(&mem, &ooc, &format!("{name} pool={pool}"));
            }
        }
    }

    #[test]
    fn bit_identical_on_a_real_page_file() {
        let pts = scatter(1200, 11);
        let eps = 0.025;
        let rtree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(10));
        let path = temp_pages("identity");
        for (variant, name) in variants() {
            let mem = in_memory(variant, eps, &rtree);
            let disk = csj_storage::FileDisk::create(&path).unwrap();
            let tree =
                PagedTree::from_core(rtree.core(), disk, RetryPolicy::no_backoff(2), 8).unwrap();
            let ooc = OutOfCoreJoin::new(variant, eps).run(&tree, None).unwrap();
            assert_same_run(&mem, &ooc, &format!("filedisk {name}"));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn streamed_output_bytes_identical() {
        let pts = scatter(900, 5);
        let eps = 0.03;
        let rtree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(10));
        let width = OutputWriter::<VecSink>::id_width_for(pts.len());
        let mut mem_writer = OutputWriter::new(VecSink::new(), width);
        let mut engine = Engine::new(
            &rtree,
            JoinConfig::new(eps),
            true,
            DirectEmit,
            StreamSink::new(&mut mem_writer),
        );
        engine.run().unwrap();
        let tree = PagedTree::from_core(rtree.core(), SimulatedDisk::new(), RetryPolicy::none(), 4)
            .unwrap();
        let mut ooc_writer = OutputWriter::new(VecSink::new(), width);
        OutOfCoreJoin::new(ParallelAlgo::Ncsj, eps)
            .run_streaming(&tree, &mut ooc_writer, None)
            .unwrap();
        assert_eq!(
            mem_writer.sink().as_str(),
            ooc_writer.sink().as_str(),
            "the on-disk output file must be byte-identical"
        );
    }

    #[test]
    fn prefetch_preserves_output_on_file_disk() {
        let pts = scatter(2000, 23);
        let eps = 0.02;
        let rtree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(10));
        let mem = in_memory(ParallelAlgo::Csj(10), eps, &rtree);
        let path = temp_pages("prefetch");
        let disk = csj_storage::FileDisk::create(&path).unwrap();
        let tree = PagedTree::from_core(rtree.core(), disk, RetryPolicy::no_backoff(2), 6).unwrap();
        let ooc = OutOfCoreJoin::new(ParallelAlgo::Csj(10), eps)
            .with_prefetch_budget(64 * PAGE_SIZE)
            .run(&tree, Some(&path))
            .unwrap();
        assert_same_run(&mem, &ooc, "prefetched csj10");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn prefetch_budget_bounds_staging_and_accounts_every_read() {
        let pts = scatter(3000, 41);
        let eps = 0.02;
        let rtree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(8));
        let mem = in_memory(ParallelAlgo::Ncsj, eps, &rtree);
        for budget in [1usize, 2, 8] {
            let path = temp_pages(&format!("budget{budget}"));
            let tree = cold_file_tree(&pts, 8, &path, 4);
            let ooc = OutOfCoreJoin::new(ParallelAlgo::Ncsj, eps)
                .with_prefetch_budget(budget * PAGE_SIZE)
                .run(&tree, Some(&path))
                .unwrap();
            assert_same_run(&mem, &ooc, &format!("budget {budget}"));
            assert_prefetch_accounting(&tree, budget);
            assert!(tree.stats().prefetch.issued > 0, "budget {budget}: no read-ahead ran");
            let _ = std::fs::remove_file(&path);
        }
    }

    /// Regression: read-ahead used to reach the store only when an
    /// internal node was expanded, so leaf reads never saw it and it
    /// supplied about 0.5 % of misses. Following the frontier, it must
    /// supply most of them at a 1/64 pool.
    #[test]
    fn prefetch_supplies_most_misses_at_a_small_pool() {
        let pts = scatter(20_000, 3);
        let eps = 0.004;
        let path = temp_pages("share");
        let node_pages = cold_file_tree(&pts, 50, &path, 2).meta().node_pages as usize;
        let tree = cold_file_tree(&pts, 50, &path, (node_pages / 64).max(2));
        OutOfCoreJoin::new(ParallelAlgo::Ncsj, eps)
            .with_prefetch_budget(32 * PAGE_SIZE)
            .run(&tree, Some(&path))
            .unwrap();
        let pg = tree.stats();
        let _ = std::fs::remove_file(&path);
        assert!(
            pg.prefetch_supplied * 2 >= pg.pool.misses,
            "prefetch supplied {} of {} misses",
            pg.prefetch_supplied,
            pg.pool.misses
        );
        assert_prefetch_accounting(&tree, 32);
    }

    /// A reader handle whose first read stalls and then fails.
    struct StallThenFail {
        inner: csj_storage::FileDisk,
        failed: bool,
    }

    impl Disk for StallThenFail {
        fn num_pages(&self) -> u64 {
            self.inner.num_pages()
        }
        fn alloc(&mut self) -> Result<PageId, csj_storage::StorageError> {
            self.inner.alloc()
        }
        fn alloc_through(&mut self, id: PageId) -> Result<(), csj_storage::StorageError> {
            self.inner.alloc_through(id)
        }
        fn read(&mut self, id: PageId) -> Result<csj_storage::Page, csj_storage::StorageError> {
            if !self.failed {
                self.failed = true;
                std::thread::sleep(std::time::Duration::from_millis(200));
                return Err(csj_storage::StorageError::FaultInjected {
                    op: csj_storage::IoOp::Read,
                    seq: 1,
                });
            }
            self.inner.read(id)
        }
        fn write(&mut self, page: &csj_storage::Page) -> Result<(), csj_storage::StorageError> {
            self.inner.write(page)
        }
        fn sync(&mut self) -> Result<(), csj_storage::StorageError> {
            self.inner.sync()
        }
        fn reads(&self) -> u64 {
            self.inner.reads()
        }
        fn writes(&self) -> u64 {
            self.inner.writes()
        }
        fn faults_injected(&self) -> u64 {
            u64::from(self.failed)
        }
    }

    /// A read-ahead that fails while the engine waits on its page must
    /// wake the engine, which then reads the page synchronously with
    /// unchanged output. Runs under a hard timeout so a lost wake-up
    /// fails the test instead of hanging it.
    #[test]
    fn failed_readahead_wakes_the_waiting_engine() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let pts = scatter(1500, 17);
            let eps = 0.02;
            let rtree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(10));
            let mem = run_collecting(&rtree, JoinConfig::new(eps), true, DirectEmit);
            let path = temp_pages("stall");
            let tree = cold_file_tree(&pts, 10, &path, 4);
            let reader =
                StallThenFail { inner: csj_storage::FileDisk::open(&path).unwrap(), failed: false };
            // One page of window: nothing else is queued, so no later
            // read's signal can mask a missing one for the failed read.
            let prefetcher = Prefetcher::with_readers(vec![reader], PAGE_SIZE);
            let ooc = ResilientJoin::new(eps, ParallelAlgo::Ncsj)
                .run(PagedSource::new(&tree, Some(prefetcher)))
                .unwrap();
            assert_same_run(&mem, &ooc, "failed read-ahead");
            let pg = tree.stats();
            assert!(pg.prefetch.late >= 1, "the engine never waited on the stalled read: {pg:?}");
            assert!(pg.prefetch.late_wait_ns > 0);
            assert!(pg.prefetch.wasted >= 1, "the failed read counts as wasted");
            assert_prefetch_accounting(&tree, 1);
            let _ = std::fs::remove_file(&path);
            tx.send(()).unwrap();
        });
        match rx.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(()) => {}
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("the engine did not finish: lost wake-up on a failed read-ahead")
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                panic!("the join thread panicked (see its output above)")
            }
        }
    }

    /// The road-network tree of the paper's Experiment 3, in memory.
    fn roads() -> RStarTree<2> {
        let pts = csj_data::roads::road_network(&csj_data::roads::RoadConfig {
            n_points: 4_000,
            cores: 3,
            core_sigma: 0.07,
            rural_fraction: 0.3,
            grid_snap_prob: 0.8,
            step: 0.003,
            mean_road_len: 0.05,
            seed: 0xCAFE,
        });
        RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(16))
    }

    /// Pool counters of `algo` over `rtree` paged onto a simulated disk
    /// and reopened cold with a `pool`-page pool.
    fn cold_pool_stats(
        rtree: &RStarTree<2>,
        algo: ParallelAlgo,
        eps: f64,
        pool: usize,
    ) -> csj_storage::BufferStats {
        let built =
            PagedTree::from_core(rtree.core(), SimulatedDisk::new(), RetryPolicy::none(), 64)
                .unwrap();
        let tree = PagedTree::<2, _>::open(built.into_disk(), RetryPolicy::none(), pool).unwrap();
        OutOfCoreJoin::new(algo, eps).run(&tree, None).unwrap();
        tree.stats().pool
    }

    #[test]
    fn larger_pools_miss_less() {
        let rtree = roads();
        let misses = |pool| cold_pool_stats(&rtree, ParallelAlgo::Ssj, 0.05, pool).misses;
        let (m4, m64, m4096) = (misses(4), misses(64), misses(4096));
        assert!(m4 >= m64, "{m4} < {m64}");
        assert!(m64 >= m4096, "{m64} < {m4096}");
        // With a pool bigger than the tree, only cold misses remain.
        assert_eq!(m4096 as usize, rtree.core().node_count());
    }

    /// The paper: page access counts do not differ significantly between
    /// the algorithms. Measured live through the pool rather than by
    /// replay.
    #[test]
    fn live_execution_confirms_experiment3_claim() {
        let rtree = roads();
        let misses = |algo| cold_pool_stats(&rtree, algo, 0.1, 32).misses;
        let ssj = misses(ParallelAlgo::Ssj);
        // The compact joins may read slightly fewer pages (early stops
        // read each subtree node once instead of revisiting) but never
        // dramatically more.
        for algo in [ParallelAlgo::Ncsj, ParallelAlgo::Csj(10)] {
            let m = misses(algo);
            assert!(m as f64 <= ssj as f64 * 1.25, "{algo:?}: {m} vs ssj {ssj}");
        }
    }

    #[test]
    fn pool_of_one_cannot_pin_a_leaf_pair() {
        let pts = scatter(600, 2);
        let eps = 0.05; // wide enough to force cross-leaf probes
        let rtree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(10));
        let tree = PagedTree::from_core(rtree.core(), SimulatedDisk::new(), RetryPolicy::none(), 1)
            .unwrap();
        let err = OutOfCoreJoin::new(ParallelAlgo::Ssj, eps).run(&tree, None).unwrap_err();
        match err {
            CsjError::Storage(csj_storage::StorageError::AllPagesPinned { capacity }) => {
                assert_eq!(capacity, 1);
            }
            other => panic!("expected AllPagesPinned, got {other}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The tentpole invariant: out-of-core joins are bit-identical
        /// to the in-memory engine for every variant, across pool sizes
        /// down to the pathological minimum of two frames, on both disk
        /// backends, in stored and in plane-sweep order.
        #[test]
        fn outofcore_matches_in_memory(
            n in 64usize..400,
            salt in 0u64..1000,
            eps in 0.005f64..0.08,
            pool in 2usize..6,
            fanout in 4usize..16,
            use_file in any::<bool>(),
        ) {
            let pts = scatter(n, salt);
            let rtree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(fanout));
            for (variant, name) in variants() {
                let mem = in_memory(variant, eps, &rtree);
                let ooc = if use_file {
                    let path = temp_pages(&format!("prop_{salt}_{n}_{name}"));
                    let disk = csj_storage::FileDisk::create(&path).unwrap();
                    let tree = PagedTree::from_core(
                        rtree.core(), disk, RetryPolicy::no_backoff(2), pool).unwrap();
                    let out = OutOfCoreJoin::new(variant, eps).run(&tree, None).unwrap();
                    // The prefetched leg, at budgets from one page up.
                    for budget in [1usize, 2, 32] {
                        let prefetched = OutOfCoreJoin::new(variant, eps)
                            .with_prefetch_budget(budget * PAGE_SIZE)
                            .run(&tree, Some(&path))
                            .unwrap();
                        assert_same_run(
                            &mem, &prefetched, &format!("prop {name} pool={pool} budget={budget}"));
                        assert_prefetch_accounting(&tree, budget);
                    }
                    let _ = std::fs::remove_file(&path);
                    out
                } else {
                    let tree = PagedTree::from_core(
                        rtree.core(), SimulatedDisk::new(), RetryPolicy::none(), pool).unwrap();
                    OutOfCoreJoin::new(variant, eps).run(&tree, None).unwrap()
                };
                assert_same_run(&mem, &ooc, &format!("prop {name} pool={pool}"));
                // The plane-sweep leg: sweep order is MBR ordering, which
                // the paged source knows without I/O.
                let swept_cfg = JoinConfig::new(eps).with_plane_sweep();
                let swept_mem = in_memory_with(variant, swept_cfg, &rtree);
                let tree = PagedTree::from_core(
                    rtree.core(), SimulatedDisk::new(), RetryPolicy::none(), pool).unwrap();
                let swept = OutOfCoreJoin::new(variant, eps)
                    .with_config(swept_cfg)
                    .run(&tree, None)
                    .unwrap();
                assert_same_run(&swept_mem, &swept, &format!("prop swept {name} pool={pool}"));
            }
        }
    }
}
