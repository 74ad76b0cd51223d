//! External-memory joins over page-resident trees.
//!
//! There is no separate out-of-core recursion or task loop: an
//! out-of-core join is the one sequential loop, [`ResilientJoin`], over a
//! [`PagedSource`] (optionally reading ahead through a [`Prefetcher`]),
//! the [`NodeSource`] whose
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
//! tasks); [`PagedSource`] pushes every page read of those steps onto
//! the prefetcher's frontier meanwhile — repeats included, since by the
//! time a page is read again the pool may have evicted it. A step that
//! expands into a frame of its own is planned ahead too: once its pages
//! are read ahead, the engine's own expansion rules ([`Expander`]),
//! applied to the children on them, list the reads of that frame before
//! it runs. A few reader threads keep the first `budget / PAGE_SIZE`
//! non-resident pages of that frontier in flight. Staging only changes
//! *who reads the bytes*, never what the traversal does — a failed
//! read-ahead is dropped and the page is read synchronously, with
//! retries, when the traversal gets there.

use std::collections::VecDeque;
use std::time::Instant;

use csj_geom::{Mbr, Metric, RecordId, SoaView};
use csj_index::paged::{decode_node, NodeGuard, PagedStore, PagedTree, PrefetchStats};
use csj_index::LeafEntry;
use csj_storage::disk::Disk;
use csj_storage::{FileDisk, OutputSink, OutputWriter, PageId, PAGE_SIZE};

use crate::engine::{Expander, Expansion, LeafView, NodeSource, Step};
use crate::error::CsjError;
use crate::output::JoinOutput;
use crate::parallel::ParallelAlgo;
use crate::resilient::ResilientJoin;
use crate::stats::JoinStats;
use crate::sync::{lock, wait, Arc, Condvar, Mutex};
use crate::JoinConfig;

/// Reader threads serving the read-ahead window, each with its own
/// page-file handle: the knee of the 1/2/4/8-in-flight curve in
/// DESIGN.md §11.
const READERS: usize = 4;

/// Marks a frontier entry that is not a read but a hint: the page reads
/// of the frame that the step listed before it expands into. `HINT | k`
/// refers to [`Prefetcher::hints`]`[k - 1]`; `HINT` alone is a hint not
/// known yet, and within a hint it marks where the frame's listed reads
/// end and a frame of its own, not known yet, begins.
const HINT: u64 = 1 << 63;

/// A finished read-ahead.
struct Landed {
    page: u64,
    /// The page's bytes when `ok`; a buffer to recycle either way.
    bytes: Vec<u8>,
    ok: bool,
}

/// What the engine and the reader threads share.
#[derive(Default)]
struct ReadState {
    /// Window pages waiting for a reader, soonest first.
    queue: VecDeque<u64>,
    /// Pages a reader is reading now.
    in_flight: Vec<u64>,
    /// Finished reads not yet handed to the engine.
    done: Vec<Landed>,
    /// Page buffers for the next reads, recycled by the engine.
    free: Vec<Vec<u8>>,
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

/// Where a page stands with the read-ahead. Whether a requested page
/// is still queued, in flight or landed is the readers' side of the
/// story ([`ReadState`]); the engine learns which under the lock.
#[derive(Default)]
enum PageState {
    /// Not requested.
    #[default]
    Idle,
    /// Requested: queued, in flight, or landed and not yet collected.
    Requested,
    /// Read ahead; its bytes wait for the access that pins the page.
    Staged(Vec<u8>),
}

/// One page's entry in the prefetcher's dense table.
#[derive(Default)]
struct PageSlot {
    state: PageState,
    /// The refill walk that last visited the page.
    walk: u32,
}

/// `page`'s entry in `slots`, growing the table to reach it.
fn slot_mut(slots: &mut Vec<PageSlot>, page: u64) -> &mut PageSlot {
    let i = usize::try_from(page).unwrap_or(usize::MAX);
    if i >= slots.len() {
        slots.resize_with(i + 1, PageSlot::default);
    }
    &mut slots[i]
}

/// The page reads of one internal frame's child steps, in access order,
/// as a range of [`Prefetcher::pages`].
struct Batch {
    start: usize,
    /// Entries before this index have been accessed (or are hints
    /// passed over).
    cursor: usize,
}

/// Frontier-ordered page read-ahead on a small pool of reader threads.
///
/// The engine [`push`](Prefetcher::push)es a batch for each internal
/// frame, [`list`](Prefetcher::list)s the frame's page reads into it and
/// [`pop`](Prefetcher::pop)s it when the frame returns, so the batches
/// form a stack whose walk from the newest batch down is the traversal's
/// upcoming page order; each access through
/// [`fetch`](Prefetcher::fetch) consumes the newest batch's next entry.
/// A step that expands into a frame of its own carries a
/// [`hint`](Prefetcher::hint) after its entries: that frame's page reads,
/// up to its first step that expands in turn, given once the step's own
/// pages are at hand, so they are read while the frames before it run.
/// Until a hint is given, its frame's reads are unknown, and the walk
/// ends there: everything after waits for that whole frame.
///
/// The read-ahead window is the first `budget / PAGE_SIZE` pages of the
/// walk that are not resident; readers fetch the window's pages soonest
/// first, queued requests that fall out of the window are dropped, and
/// pages staged or in flight never exceed the window. Every page access
/// goes through [`fetch`](Prefetcher::fetch) before its pin, and the pin
/// takes the page's staged bytes with
/// [`take_staged`](Prefetcher::take_staged).
///
/// The bookkeeping is one dense table indexed by page id, so an access
/// costs O(1) besides the refill walks, which run only when the frontier
/// gains entries or once a few window slots are free.
pub struct Prefetcher {
    shared: Arc<Shared>,
    readers: Vec<std::thread::JoinHandle<()>>,
    /// Pages of read-ahead allowed staged or in flight at once.
    window: usize,
    /// Every batch's entries, oldest batch first.
    pages: Vec<u64>,
    batches: Vec<Batch>,
    slots: Vec<PageSlot>,
    /// The current refill walk's stamp.
    walk: u32,
    /// Pages in [`PageState::Requested`] / [`PageState::Staged`].
    requested: usize,
    staged: usize,
    /// Pages the last fetch staged.
    just_staged: Vec<u64>,
    /// The page lists of given hints, and the free ones among them.
    hints: Vec<Vec<u64>>,
    free_hints: Vec<usize>,
    /// Staged pages in staging order, with stale entries for pages since
    /// consumed (compacted on refill): the order staged pages outside
    /// the window are dropped in.
    staged_order: Vec<u64>,
    /// Buffers to hand back to the readers.
    spare: Vec<Vec<u8>>,
    /// The frontier gained entries (a batch or a hint) since the last
    /// refill.
    shifted: bool,
    /// Window slots freed since the last refill.
    freed: usize,
    /// Refill scratch: the window pages to request, in order; and the
    /// reads collected by a fetch.
    wanted: Vec<u64>,
    landed: Vec<Landed>,
    late: u64,
    late_wait_ns: u64,
    wasted: u64,
    unlisted: u64,
    held_peak: usize,
}

impl std::fmt::Debug for Prefetcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prefetcher")
            .field("window_pages", &self.window)
            .field("readers", &self.readers.len())
            .field("staged", &self.staged)
            .field("requested", &self.requested)
            .finish()
    }
}

/// A reader thread: take the soonest queued page and a free buffer, read
/// the page outside the lock, publish the result, and sleep while there
/// is nothing to do.
fn serve_reads<R: Disk>(mut disk: R, shared: &Shared) {
    loop {
        let (page, mut bytes) = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(page) = st.queue.pop_front() {
                    st.in_flight.push(page);
                    st.issued += 1;
                    break (page, st.free.pop().unwrap_or_default());
                }
                st = wait(&shared.work, st);
            }
        };
        bytes.resize(PAGE_SIZE, 0);
        // A failed read-ahead is not an error: the engine reads the
        // page synchronously, with retries, and surfaces any failure.
        let ok = disk.read_into(PageId(page), &mut bytes).is_ok();
        {
            let mut st = lock(&shared.state);
            st.in_flight.retain(|&p| p != page);
            st.done.push(Landed { page, bytes, ok });
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
            pages: Vec::new(),
            batches: Vec::new(),
            slots: Vec::new(),
            walk: 0,
            requested: 0,
            staged: 0,
            just_staged: Vec::new(),
            hints: Vec::new(),
            free_hints: Vec::new(),
            staged_order: Vec::new(),
            spare: Vec::new(),
            shifted: false,
            freed: 0,
            wanted: Vec::new(),
            landed: Vec::new(),
            late: 0,
            late_wait_ns: 0,
            wasted: 0,
            unlisted: 0,
            held_peak: 0,
        }
    }

    /// Sizes the page table for page ids below `pages` (the superblock's
    /// node pages plus one); larger ids still work, growing the table.
    fn reserve_pages(&mut self, pages: u64) {
        let pages = usize::try_from(pages).unwrap_or(0);
        if self.slots.len() < pages {
            self.slots.resize_with(pages, PageSlot::default);
        }
    }

    /// Opens a batch for a frame's page reads; it goes to the front of
    /// the read-ahead order.
    fn push(&mut self) {
        let start = self.pages.len();
        self.batches.push(Batch { start, cursor: start });
        self.shifted = true;
    }

    /// Lists the newest batch's next page read. Every read is listed,
    /// repeats included: by the time a page is read again the pool may
    /// have evicted it.
    fn list(&mut self, page: PageId) {
        self.pages.push(page.0);
    }

    /// Reserves a hint after the entries listed so far, for the reads
    /// of the frame the last listed step expands into; returns its
    /// position for [`Prefetcher::hint`]. Until it is given, the window
    /// ends there: everything after it waits for that frame.
    fn reserve_hint(&mut self) -> usize {
        self.pages.push(HINT);
        self.pages.len() - 1
    }

    /// Gives the hint reserved at `at`: the frame's page reads, in order,
    /// up to and including those of its first step that expands into a
    /// frame of its own (`open`), where the window again ends.
    fn hint(&mut self, at: usize, pages: impl IntoIterator<Item = PageId>, open: bool) {
        if self.pages.get(at) != Some(&HINT) {
            return;
        }
        let k = self.free_hints.pop().unwrap_or_else(|| {
            self.hints.push(Vec::new());
            self.hints.len() - 1
        });
        let list = &mut self.hints[k];
        list.extend(pages.into_iter().map(|p| p.0));
        if open {
            list.push(HINT);
        }
        self.pages[at] = HINT | (k as u64 + 1);
        self.shifted = true;
    }

    /// `true` once the entry at `at` lies behind its batch's cursor (or
    /// its batch is gone): a hint there can no longer help.
    fn is_behind(&self, at: usize) -> bool {
        let b = self.batches.partition_point(|b| b.start <= at);
        b == 0 || at >= self.pages.len() || at < self.batches[b - 1].cursor
    }

    /// Pops the newest batch when its frame returns, returning where it
    /// began. What comes next is what the window already holds, so
    /// this triggers no refill.
    fn pop(&mut self) -> usize {
        let start = self.batches.pop().map_or(self.pages.len(), |b| b.start);
        for e in self.pages.drain(start..) {
            if e & HINT != 0 && e != HINT {
                // A given hint: recycle its list.
                let k = (e & !HINT) as usize - 1;
                self.hints[k].clear();
                self.free_hints.push(k);
            }
        }
        start
    }

    /// The pages the last [`fetch`](Prefetcher::fetch) staged: a source
    /// planning ahead from staged bytes learns what arrived.
    fn just_staged(&self) -> &[u64] {
        &self.just_staged
    }

    /// The read-ahead bytes of `page`, if staged.
    fn staged_bytes(&self, page: PageId) -> Option<&[u8]> {
        match &self.slots.get(usize::try_from(page.0).ok()?)?.state {
            PageState::Staged(bytes) => Some(bytes),
            _ => None,
        }
    }

    /// Gets `pages` ready to pin: consumes the newest batch's entries for
    /// them, waits for any of them still in flight, collects finished
    /// reads, and refills the window. Pin nothing before this returns:
    /// it may block.
    fn fetch<const D: usize, Dk: Disk>(&mut self, store: &PagedStore<D, Dk>, pages: &[PageId]) {
        if let Some(top) = self.batches.last_mut() {
            for p in pages {
                if self.pages.get(top.cursor) == Some(&p.0) {
                    top.cursor += 1;
                    while self.pages.get(top.cursor).is_some_and(|e| e & HINT != 0) {
                        top.cursor += 1;
                    }
                } else {
                    self.unlisted += 1;
                }
            }
        }
        let awaited = pages
            .iter()
            .any(|p| matches!(slot_mut(&mut self.slots, p.0).state, PageState::Requested));
        let mut landed = std::mem::take(&mut self.landed);
        self.just_staged.clear();
        {
            let mut st = lock(&self.shared.state);
            if awaited {
                for p in pages {
                    // Queued but not started: the engine reads it itself.
                    if let Some(i) = st.queue.iter().position(|&q| q == p.0) {
                        st.queue.remove(i);
                        slot_mut(&mut self.slots, p.0).state = PageState::Idle;
                        self.requested -= 1;
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
            }
            std::mem::swap(&mut st.done, &mut landed);
            st.free.append(&mut self.spare);
        }
        for Landed { page, bytes, ok } in landed.drain(..) {
            self.requested -= 1;
            if ok && !store.is_resident(PageId(page)) {
                slot_mut(&mut self.slots, page).state = PageState::Staged(bytes);
                self.staged += 1;
                self.just_staged.push(page);
                self.staged_order.push(page);
            } else {
                // Failed, or the page is resident already.
                slot_mut(&mut self.slots, page).state = PageState::Idle;
                self.spare.push(bytes);
                self.wasted += 1;
                self.freed += 1;
            }
        }
        self.landed = landed;
        // Slots are refilled a few at a time: a refill walks the
        // frontier, and the readers need only stay busy.
        if self.shifted || self.freed >= (self.window / 8).clamp(1, READERS) {
            self.refill(store, pages);
        }
    }

    /// The read-ahead bytes of `page`, if staged, for the pin that reads
    /// it; hand the buffer back with [`Prefetcher::give_back`].
    fn take_staged(&mut self, page: PageId) -> Option<Vec<u8>> {
        let slot = slot_mut(&mut self.slots, page.0);
        if !matches!(slot.state, PageState::Staged(_)) {
            return None;
        }
        let PageState::Staged(bytes) = std::mem::take(&mut slot.state) else { return None };
        self.staged -= 1;
        self.freed += 1;
        Some(bytes)
    }

    /// Returns a buffer from [`Prefetcher::take_staged`]; `used` says
    /// whether the pin decoded it (a page found resident did not).
    fn give_back(&mut self, bytes: Vec<u8>, used: bool) {
        self.wasted += u64::from(!used);
        self.spare.push(bytes);
    }

    /// Recomputes the window and re-queues its unrequested pages,
    /// dropping staged pages that fell out of it when the window needs
    /// their room. `current` is being fetched: never read ahead.
    fn refill<const D: usize, Dk: Disk>(&mut self, store: &PagedStore<D, Dk>, current: &[PageId]) {
        self.shifted = false;
        self.freed = 0;
        self.walk = self.walk.wrapping_add(1);
        if self.walk == 0 {
            // The stamps wrapped: forget every old walk.
            self.slots.iter_mut().for_each(|s| s.walk = 0);
            self.walk = 1;
        }
        let walk = self.walk;
        for p in current {
            slot_mut(&mut self.slots, p.0).walk = walk;
        }
        self.wanted.clear();
        let mut end = self.pages.len();
        // The walk ends at a frame whose reads are not known yet: every
        // entry after it waits for that whole frame, and reading it now
        // would only be dropped again once the frame's reads are listed.
        'walk: for b in (0..self.batches.len()).rev() {
            let cursor = self.batches[b].cursor;
            for i in cursor..end {
                let e = self.pages[i];
                let hinted: &[u64] = if e & HINT == 0 {
                    std::slice::from_ref(&self.pages[i])
                } else {
                    match self.hints.get(((e & !HINT) as usize).wrapping_sub(1)) {
                        Some(list) => list,
                        None => break 'walk,
                    }
                };
                for &p in hinted {
                    if p == HINT {
                        break 'walk;
                    }
                    let slot = slot_mut(&mut self.slots, p);
                    if slot.walk == walk {
                        continue;
                    }
                    slot.walk = walk;
                    if !store.is_resident(PageId(p)) {
                        self.wanted.push(p);
                        if self.wanted.len() == self.window {
                            break 'walk;
                        }
                    }
                }
            }
            end = self.batches[b].start;
        }
        let mut st = lock(&self.shared.state);
        // Queued requests are re-decided from the new window; those
        // that fell out of it are dropped here.
        while let Some(p) = st.queue.pop_front() {
            slot_mut(&mut self.slots, p).state = PageState::Idle;
            self.requested -= 1;
        }
        let mut wanted = std::mem::take(&mut self.wanted);
        wanted.retain(|&p| matches!(slot_mut(&mut self.slots, p).state, PageState::Idle));
        let mut free = self.window.saturating_sub(self.requested + self.staged);
        // Staged pages the walk never reached are needed after every
        // window page: drop them, oldest first, for the sooner ones.
        let mut deficit = wanted.len().saturating_sub(free);
        let mut order = std::mem::take(&mut self.staged_order);
        order.retain(|&p| {
            let slot = slot_mut(&mut self.slots, p);
            if !matches!(slot.state, PageState::Staged(_)) {
                return false;
            }
            if deficit == 0 || slot.walk == walk {
                return true;
            }
            if let PageState::Staged(bytes) = std::mem::take(&mut slot.state) {
                self.spare.push(bytes);
            }
            self.staged -= 1;
            self.wasted += 1;
            deficit -= 1;
            free += 1;
            false
        });
        self.staged_order = order;
        for &p in wanted.iter().take(free) {
            st.queue.push_back(p);
            slot_mut(&mut self.slots, p).state = PageState::Requested;
            self.requested += 1;
        }
        self.wanted = wanted;
        st.free.append(&mut self.spare);
        self.held_peak = self.held_peak.max(self.requested + self.staged);
        if !st.queue.is_empty() {
            self.shared.work.notify_all();
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
        store.record_prefetch(PrefetchStats {
            issued,
            late: self.late,
            late_wait_ns: self.late_wait_ns,
            wasted: self.wasted + (landed + self.staged) as u64,
            unlisted: self.unlisted,
            held_peak: self.held_peak as u64,
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
    /// The engine's expansion rules, to plan frames ahead.
    expander: Option<Expander>,
    /// Frontier steps that expand into frames whose reads are not hinted
    /// yet: the hint's position and the step.
    unplanned: Vec<(usize, Step<NodeRef<D>>)>,
}

impl<'t, const D: usize, Dk: Disk> PagedSource<'t, D, Dk> {
    /// Reads `tree`, with read-ahead by `prefetch` if given.
    pub fn new(tree: &'t PagedTree<D, Dk>, mut prefetch: Option<Prefetcher>) -> Self {
        if let Some(pf) = prefetch.as_mut() {
            pf.reserve_pages(tree.meta().node_pages + 1);
        }
        PagedSource {
            tree,
            prefetch,
            retries_before: tree.stats().io_retries,
            expander: None,
            unplanned: Vec::new(),
        }
    }

    /// Readies `pages` for pinning through the prefetcher, if any, and
    /// plans ahead with whatever read-ahead landed.
    fn await_pages(&mut self, pages: &[PageId]) {
        if let Some(pf) = self.prefetch.as_mut() {
            pf.fetch(self.tree.store(), pages);
            if !pf.just_staged().is_empty() && !self.unplanned.is_empty() {
                self.plan_ahead(0, true);
            }
        }
    }

    /// Hints the reads of the unplanned frames from `from` on whose
    /// step's pages are at hand, resident or staged (with `landed`, only
    /// those the last fetch staged a page of): the engine's own rules,
    /// applied to the children on those pages, give each frame's child
    /// steps.
    fn plan_ahead(&mut self, from: usize, landed: bool) {
        let (Some(expander), Some(mut pf)) = (self.expander, self.prefetch.take()) else {
            return;
        };
        let mut i = from;
        while let Some(&(at, step)) = self.unplanned.get(i) {
            let reads = |n: NodeRef<D>| n.level > 0 && pf.just_staged().contains(&n.page.0);
            let touched = match step {
                Step::Node(n) => reads(n),
                Step::Pair(a, b) => reads(a) || reads(b),
            };
            if landed && !touched {
                i += 1;
                continue;
            }
            if pf.is_behind(at) {
                self.unplanned.swap_remove(i);
                continue;
            }
            let Some([mut ca, mut cb]) = self.children_at_hand(&pf, step) else {
                i += 1;
                continue;
            };
            // The frame's reads, up to its first step that expands.
            let mut reads = Vec::new();
            let mut open = false;
            expander.pair(&*self, step, &mut ca, &mut cb, |child| {
                let Some(child) = child else { return true };
                reads.extend(step_pages(&child));
                open = expander.classify(&*self, child) == Expansion::Children;
                !open
            });
            pf.hint(at, reads, open);
            self.unplanned.swap_remove(i);
        }
        self.prefetch = Some(pf);
    }

    /// The children `step` expands over (see [`Expander::pair`]) when
    /// every page they are on is resident or staged in `pf`.
    fn children_at_hand(
        &self,
        pf: &Prefetcher,
        step: Step<NodeRef<D>>,
    ) -> Option<[Vec<NodeRef<D>>; 2]> {
        let side = |n: NodeRef<D>| -> Option<Vec<NodeRef<D>>> {
            if n.level == 0 {
                return Some(Vec::new());
            }
            let refs = |children: &[(PageId, Mbr<D>)]| {
                let level = n.level - 1;
                children.iter().map(|&(page, mbr)| NodeRef { page, mbr, level }).collect()
            };
            if let Some(children) =
                self.tree.store().with_resident(n.page, |node| refs(&node.children))
            {
                return Some(children);
            }
            let node = decode_node::<D>(pf.staged_bytes(n.page)?, n.page).ok()?;
            Some(refs(&node.children))
        };
        match step {
            Step::Node(n) => Some([side(n)?, Vec::new()]),
            Step::Pair(a, b) => Some([side(a)?, side(b)?]),
        }
    }

    /// Pins a readied `page`, decoding its read-ahead bytes on a miss.
    fn pin(&mut self, page: PageId) -> Result<NodeGuard<'t, D, Dk>, CsjError> {
        let staged = self.prefetch.as_mut().and_then(|pf| pf.take_staged(page));
        let pinned = self.tree.store().node_with(page, staged.as_deref());
        if let (Some(pf), Some(bytes)) = (self.prefetch.as_mut(), staged) {
            pf.give_back(bytes, matches!(pinned, Ok((_, true))));
        }
        Ok(pinned?.0)
    }

    /// Readies and pins `page`; every single-page access goes through
    /// here.
    fn fetch_node(&mut self, page: PageId) -> Result<NodeGuard<'t, D, Dk>, CsjError> {
        self.await_pages(&[page]);
        self.pin(page)
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

    fn root(&mut self) -> Result<Option<Step<NodeRef<D>>>, CsjError> {
        let Some(page) = self.tree.root() else { return Ok(None) };
        // One page read up front for the root's own MBR and level — its
        // parent-side summary does not exist.
        let guard = self.fetch_node(page)?;
        Ok(Some(Step::Node(NodeRef { page, mbr: guard.mbr, level: guard.level })))
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
    fn children(&mut self, n: NodeRef<D>, out: &mut Vec<NodeRef<D>>) -> Result<(), CsjError> {
        // The children's summaries are copied out of the page, so the pin
        // is released before any recursion.
        let guard = self.fetch_node(n.page)?;
        out.extend(guard.children.iter().map(|&(page, mbr)| NodeRef {
            page,
            mbr,
            level: n.level - 1,
        }));
        Ok(())
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
        let ga = self.pin(a.page)?;
        let gb = self.pin(b.page)?;
        Ok((ga, gb))
    }
    fn collect_record_ids(
        &mut self,
        n: NodeRef<D>,
        out: &mut Vec<RecordId>,
    ) -> Result<(), CsjError> {
        let top = self.fetch_node(n.page)?;
        Ok(self
            .tree
            .for_each_leaf_below(top, |leaf| out.extend(leaf.entries.iter().map(|e| e.id)))?)
    }
    fn collect_entries(
        &mut self,
        n: NodeRef<D>,
        out: &mut Vec<LeafEntry<D>>,
    ) -> Result<(), CsjError> {
        let top = self.fetch_node(n.page)?;
        Ok(self.tree.for_each_leaf_below(top, |leaf| out.extend_from_slice(&leaf.entries))?)
    }
    fn expand_with(&mut self, expander: Expander) {
        self.expander = Some(expander);
    }
    fn push(&mut self, steps: &[Step<NodeRef<D>>]) {
        let Some(mut pf) = self.prefetch.take() else { return };
        let from = self.unplanned.len();
        pf.push();
        for &step in steps {
            for page in step_pages(&step) {
                pf.list(page);
            }
            let expands = self.expander.map(|e| e.classify(&*self, step));
            if expands == Some(Expansion::Children) {
                self.unplanned.push((pf.reserve_hint(), step));
            }
        }
        self.prefetch = Some(pf);
        // Steps whose pages are resident already can be planned now.
        self.plan_ahead(from, false);
    }
    fn pop(&mut self) {
        if let Some(pf) = self.prefetch.as_mut() {
            let start = pf.pop();
            self.unplanned.retain(|&(at, _)| at < start);
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
///
/// A thin front over [`ResilientJoin`] on a [`PagedSource`]. Besides its
/// own tests, its only caller is the frozen `joinbench` benchmark;
/// `csj join --data-dir` and `perf_outofcore` compose the two directly.
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
    use crate::engine::{DirectEmit, Engine, StreamSink};
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
    /// issued read ended useful or wasted, and staging and reads in
    /// flight never held more than `budget_pages`.
    fn assert_prefetch_accounting<Dk: Disk>(tree: &PagedTree<2, Dk>, budget_pages: usize) {
        let pg = tree.stats();
        assert_eq!(
            pg.prefetch_supplied + pg.prefetch.wasted,
            pg.prefetch.issued,
            "useful + wasted == issued: {pg:?}"
        );
        assert!(
            pg.prefetch.held_peak <= budget_pages as u64,
            "held {} pages on a {budget_pages}-page budget",
            pg.prefetch.held_peak
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
        ResilientJoin::with_config(cfg, variant).run(tree).expect("in memory")
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
            let mem = in_memory(ParallelAlgo::Ncsj, eps, &rtree);
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

    /// The pages the window has queued for the readers, soonest first.
    fn queued(pf: &Prefetcher) -> Vec<u64> {
        lock(&pf.shared.state).queue.iter().copied().collect()
    }

    /// The window walks a step's hint — the reads of the frame it expands
    /// into — and ends at a hint not given yet, or at a hinted frame's
    /// own unknown frame: pages past those wait for a whole frame.
    /// Deterministic: no reader threads, so requests stay queued.
    #[test]
    fn the_window_reads_hinted_frames_and_ends_at_unknown_ones() {
        let rtree = RStarTree::bulk_load_str(&scatter(200, 1), RTreeConfig::with_max_fanout(8));
        let built =
            PagedTree::from_core(rtree.core(), SimulatedDisk::new(), RetryPolicy::none(), 64)
                .unwrap();
        let tree = PagedTree::<2, _>::open(built.into_disk(), RetryPolicy::none(), 4).unwrap();
        let store = tree.store();
        let mut pf = Prefetcher::with_readers(Vec::<SimulatedDisk>::new(), 8 * PAGE_SIZE);
        let pages = |ids: &[u64]| ids.iter().map(|&p| PageId(p)).collect::<Vec<_>>();
        pf.push();
        pf.list(PageId(10));
        let first = pf.reserve_hint();
        pf.list(PageId(11));
        let second = pf.reserve_hint();
        pf.list(PageId(12));
        pf.fetch(store, &[]);
        assert_eq!(queued(&pf), [10], "an unknown frame ends the window");
        pf.hint(first, pages(&[20, 21]), false);
        pf.fetch(store, &[]);
        assert_eq!(queued(&pf), [10, 20, 21, 11], "a closed hint is read through");
        pf.hint(second, pages(&[30, 31]), true);
        pf.fetch(store, &[]);
        assert_eq!(queued(&pf), [10, 20, 21, 11, 30, 31], "an open hint ends the window");
        // Reading page 10 consumes it and passes over its hint: the
        // frame it expands into lists the same reads as a batch of its own.
        pf.fetch(store, &pages(&[10]));
        assert_eq!(queued(&pf), [11, 30, 31]);
        pf.push();
        pf.list(PageId(20));
        pf.list(PageId(21));
        pf.fetch(store, &[]);
        assert_eq!(queued(&pf), [20, 21, 11, 30, 31]);
        assert_eq!(pf.unlisted, 0);
        assert_eq!(pf.pop(), 5);
        assert_eq!(pf.pop(), 0);
        assert!(pf.pages.is_empty() && pf.free_hints.len() == 2, "both hint lists recycled");
    }

    /// Every page the engine pins through the prefetcher, the root's
    /// reads aside (no frame lists them), is the next entry of the newest
    /// batch: the read-ahead window, which starts there, listed it before
    /// its pin. Repeats included — a page read again after the pool
    /// evicted it is as much a read as its first. Deterministic: with no
    /// reader threads every request stays queued and the engine reads
    /// each page itself, so no timing enters the check.
    #[test]
    fn frontier_lists_every_page_the_traversal_pins() {
        let rtree = roads();
        let eps = 0.02;
        for (variant, name) in variants() {
            for pool in [4usize, 64] {
                let built = PagedTree::from_core(
                    rtree.core(),
                    SimulatedDisk::new(),
                    RetryPolicy::none(),
                    4096,
                )
                .unwrap();
                let tree =
                    PagedTree::<2, _>::open(built.into_disk(), RetryPolicy::none(), pool).unwrap();
                let prefetcher =
                    Prefetcher::with_readers(Vec::<SimulatedDisk>::new(), 32 * PAGE_SIZE);
                let ooc = ResilientJoin::new(eps, variant)
                    .run(PagedSource::new(&tree, Some(prefetcher)))
                    .unwrap();
                assert_same_run(&in_memory(variant, eps, &rtree), &ooc, name);
                let pg = tree.stats();
                assert!(pg.pool.misses > 2 * rtree.core().node_count() as u64 || pool == 64);
                assert_eq!(pg.prefetch.issued, 0, "{name} pool={pool}: no reader ran");
                assert_eq!(
                    pg.prefetch.unlisted, 0,
                    "{name} pool={pool}: pins the frontier did not list ({pg:?})"
                );
            }
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
