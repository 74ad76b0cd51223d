//! Page-serialized R*-tree nodes behind a live buffer pool.
//!
//! The in-memory trees keep nodes in an arena; this module stores them
//! in fixed-size disk pages (one node per page, the granularity the
//! paper's Experiment 3 simulates), giving the join engines a real
//! external-memory index: resident nodes are bounded by a
//! [`BufferPool`], in-use pages are pinned, and everything else lives
//! on a [`Disk`] — the counting simulation or a real page file.
//!
//! # Page format (version 1, little-endian)
//!
//! Page 0 is the superblock:
//!
//! ```text
//! magic "CSJPAGE1" | version u32 | dims u32 | max_fanout u32 |
//! height u32 | num_records u64 | node_pages u64 | root_page u64
//! ```
//!
//! (`root_page == 0` encodes an empty tree — page 0 is the superblock,
//! so no node can live there.) Every other page is one node:
//!
//! ```text
//! level u32 | count u32 | node MBR (2·D f64) | payload
//! ```
//!
//! where the payload is `count` leaf entries (`id u32`, `point D·f64`)
//! at level 0 and `count` child slots (`child page u64`, `child MBR
//! 2·D f64`) above. **Parents store their children's MBRs**: every
//! pruning and early-stopping decision the join engines make
//! (`min_dist`, `pair_diameter`, `max_diameter`) is a pure function of
//! node MBRs, so child pages are only faulted in when a pair actually
//! survives pruning — and the out-of-core traversal makes bit-identical
//! decisions to the in-memory one.
//!
//! # The frame table
//!
//! [`PagedStore`] keeps resident nodes in one table: the frames of a
//! pinned LRU [`BufferPool`], each owning the decoded node of its page
//! and the page's dirty flag. A hit is one lookup. A miss reads the
//! page into one reusable buffer (or takes the bytes a read-ahead
//! fetched), decodes it into a spare node and only then admits the
//! page, so a failed read or a corrupt page changes nothing; the evicted
//! frame's node becomes the next spare, so once the pool is full a miss
//! allocates nothing. Frames are created as pages arrive, up to the
//! pool's capacity.
//!
//! Trees reach disk two ways: [`PagedTree::from_core`] serializes any
//! built [`RectCore`] (so all three bulk loaders — STR, Hilbert, OMT —
//! write to pages), and [`PagedTree::build_str`] streams an STR build
//! bottom-up, writing each leaf as its chunk is produced and keeping
//! only `(page, MBR)` per node of the level under construction — the
//! node arena for a multi-million-point tree never materializes.

use std::cell::RefCell;
use std::ops::Deref;
use std::rc::Rc;

use crate::bulk::{make_entries, str_chunks};
use crate::rect::RectCore;
use crate::store::LeafStore;
use crate::traits::LeafEntry;
use crate::RTreeConfig;
use csj_geom::{Mbr, Point, RecordId};
use csj_storage::buffer::{BufferPool, BufferStats};
use csj_storage::disk::Disk;
use csj_storage::{
    IoOp, Page, PageId, RetryPager, RetryPolicy, StorageError, PAGE_SIZE, RUN_PAGES,
};

/// Superblock magic: identifies a CSJ page file, version 1.
const MAGIC: &[u8; 8] = b"CSJPAGE1";
/// On-disk format version.
const VERSION: u32 = 1;
/// Fixed superblock length (magic + 4 u32 + 3 u64).
const SUPERBLOCK_LEN: usize = 8 + 4 * 4 + 3 * 8;
/// Node page header length before the payload: level, count, node MBR.
const fn node_header_len(dims: usize) -> usize {
    8 + 16 * dims
}
/// Bytes per leaf entry: record id + point.
const fn leaf_entry_len(dims: usize) -> usize {
    4 + 8 * dims
}
/// Bytes per internal child slot: child page + child MBR.
const fn child_slot_len(dims: usize) -> usize {
    8 + 16 * dims
}

/// Tree-level metadata stored in the superblock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PagedMeta {
    /// Spatial dimensionality of the stored tree.
    pub dims: u32,
    /// Maximum node fanout the tree was built with.
    pub max_fanout: u32,
    /// Tree height (1 = single leaf root, 0 = empty).
    pub height: u32,
    /// Number of data records.
    pub num_records: u64,
    /// Node pages written (excluding the superblock).
    pub node_pages: u64,
    /// The root node's page, `None` for an empty tree.
    pub root: Option<PageId>,
}

/// One decoded tree node, as read from (or about to be written to) a
/// page.
#[derive(Clone, Debug)]
pub struct PagedNode<const D: usize> {
    /// Distance from the leaf level (0 = leaf).
    pub level: u32,
    /// Bounding rectangle of everything below this node.
    pub mbr: Mbr<D>,
    /// Child pages with their MBRs (internal nodes only).
    pub children: Vec<(PageId, Mbr<D>)>,
    /// Data records (leaves only), with the struct-of-arrays mirror the
    /// batched distance kernels probe.
    pub entries: LeafStore<D>,
}

/// An empty leaf.
impl<const D: usize> Default for PagedNode<D> {
    fn default() -> Self {
        PagedNode::leaf(Vec::new())
    }
}

impl<const D: usize> PagedNode<D> {
    /// A leaf over `entries` (MBR computed from the points).
    pub fn leaf(entries: Vec<LeafEntry<D>>) -> Self {
        let mut mbr = Mbr::empty();
        for e in &entries {
            mbr.expand_to_point(&e.point);
        }
        PagedNode { level: 0, mbr, children: Vec::new(), entries: entries.into() }
    }

    /// An internal node over `children` (MBR = union of child MBRs).
    pub fn internal(level: u32, children: Vec<(PageId, Mbr<D>)>) -> Self {
        debug_assert!(level >= 1);
        let mut mbr = Mbr::empty();
        for (_, m) in &children {
            mbr.expand_to_mbr(m);
        }
        PagedNode { level, mbr, children, entries: LeafStore::new() }
    }

    /// `true` if the node stores data records directly.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// Serialized size in bytes.
    fn encoded_len(&self) -> usize {
        node_header_len(D)
            + if self.is_leaf() {
                self.entries.len() * leaf_entry_len(D)
            } else {
                self.children.len() * child_slot_len(D)
            }
    }
}

fn corrupt(page: PageId, msg: impl std::fmt::Display) -> StorageError {
    StorageError::Io { op: IoOp::Read, detail: format!("corrupt page {}: {msg}", page.0) }
}

/// Largest fanout whose nodes (leaf *and* internal — child slots are
/// the wider of the two) are guaranteed to fit one page.
const fn max_page_fanout(dims: usize) -> usize {
    let leaf = (PAGE_SIZE - node_header_len(dims)) / leaf_entry_len(dims);
    let child = (PAGE_SIZE - node_header_len(dims)) / child_slot_len(dims);
    if child < leaf {
        child
    } else {
        leaf
    }
}

/// Rejects a fanout whose full nodes cannot be paged. Checked up front
/// by [`PagedTree::from_core`] / [`PagedTree::build_str`] so an
/// impossible configuration fails before any page is allocated,
/// instead of mid-build with orphan pages already on disk.
fn check_fanout(dims: usize, fanout: usize) -> Result<(), StorageError> {
    let cap = max_page_fanout(dims);
    if fanout > cap {
        return Err(StorageError::Io {
            op: IoOp::Write,
            detail: format!(
                "fanout {fanout} cannot be paged: a full {dims}-d node needs more than the \
                 {PAGE_SIZE}-byte page (max pageable fanout is {cap})"
            ),
        });
    }
    Ok(())
}

/// Little-endian reader over one page's bytes.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    page: PageId,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], StorageError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let Some(end) = end else {
            return Err(corrupt(self.page, format!("truncated at byte {}", self.pos)));
        };
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, StorageError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, StorageError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn f64(&mut self) -> Result<f64, StorageError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn mbr<const D: usize>(&mut self) -> Result<Mbr<D>, StorageError> {
        let mut lo = [0.0f64; D];
        let mut hi = [0.0f64; D];
        for slot in &mut lo {
            *slot = self.f64()?;
        }
        for slot in &mut hi {
            *slot = self.f64()?;
        }
        // Construct directly: `Mbr::new` debug-asserts ordered corners,
        // which decoding must not do on (possibly corrupt) disk bytes.
        Ok(Mbr { lo: Point::new(lo), hi: Point::new(hi) })
    }
}

fn put_mbr<const D: usize>(buf: &mut Vec<u8>, mbr: &Mbr<D>) {
    for d in 0..D {
        buf.extend_from_slice(&mbr.lo[d].to_bits().to_le_bytes());
    }
    for d in 0..D {
        buf.extend_from_slice(&mbr.hi[d].to_bits().to_le_bytes());
    }
}

/// Appends a node's page bytes to `buf` (the page's zero padding is the
/// caller's).
fn encode_node<const D: usize>(node: &PagedNode<D>, buf: &mut Vec<u8>) {
    let start = buf.len();
    buf.extend_from_slice(&node.level.to_le_bytes());
    let count = if node.is_leaf() { node.entries.len() } else { node.children.len() } as u32;
    buf.extend_from_slice(&count.to_le_bytes());
    put_mbr(buf, &node.mbr);
    if node.is_leaf() {
        for e in node.entries.iter() {
            buf.extend_from_slice(&e.id.to_le_bytes());
            for d in 0..D {
                buf.extend_from_slice(&e.point[d].to_bits().to_le_bytes());
            }
        }
    } else {
        for (page, mbr) in &node.children {
            buf.extend_from_slice(&page.0.to_le_bytes());
            put_mbr(buf, mbr);
        }
    }
    debug_assert!(
        buf.len() - start <= PAGE_SIZE,
        "encoded node ({} bytes) exceeds the page — fanout validation let an oversized \
         node through",
        buf.len() - start,
    );
}

/// Decodes one node page.
///
/// # Errors
/// Returns [`StorageError::Io`] when the page bytes are truncated or
/// internally inconsistent (corruption).
pub fn decode_node<const D: usize>(
    bytes: &[u8],
    page: PageId,
) -> Result<PagedNode<D>, StorageError> {
    let mut node = PagedNode::default();
    decode_into(bytes, page, &mut node)?;
    Ok(node)
}

/// Decodes one node page into `node`, reusing its buffers: once they
/// have grown to the tree's fanout, decoding allocates nothing. On error
/// `node` holds an unspecified mix of old and new contents.
fn decode_into<const D: usize>(
    bytes: &[u8],
    page: PageId,
    node: &mut PagedNode<D>,
) -> Result<(), StorageError> {
    let mut c = Cursor { buf: bytes, pos: 0, page };
    node.level = c.u32()?;
    let count = c.u32()? as usize;
    node.mbr = c.mbr::<D>()?;
    node.children.clear();
    if node.level == 0 {
        if count > (PAGE_SIZE - node_header_len(D)) / leaf_entry_len(D) {
            return Err(corrupt(page, format!("leaf count {count} exceeds page capacity")));
        }
        node.entries.edit(|entries| {
            entries.clear();
            entries.reserve(count);
            for _ in 0..count {
                let id = c.u32()? as RecordId;
                let mut coords = [0.0f64; D];
                for slot in &mut coords {
                    *slot = c.f64()?;
                }
                entries.push(LeafEntry::new(id, Point::new(coords)));
            }
            Ok(())
        })
    } else {
        if count > (PAGE_SIZE - node_header_len(D)) / child_slot_len(D) {
            return Err(corrupt(page, format!("child count {count} exceeds page capacity")));
        }
        node.entries.edit(Vec::clear);
        node.children.reserve(count);
        for _ in 0..count {
            let child = PageId(c.u64()?);
            if child.0 == 0 {
                return Err(corrupt(page, "child pointer into the superblock"));
            }
            let child_mbr = c.mbr::<D>()?;
            node.children.push((child, child_mbr));
        }
        Ok(())
    }
}

fn encode_superblock(meta: &PagedMeta) -> Vec<u8> {
    let mut buf = Vec::with_capacity(SUPERBLOCK_LEN);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&meta.dims.to_le_bytes());
    buf.extend_from_slice(&meta.max_fanout.to_le_bytes());
    buf.extend_from_slice(&meta.height.to_le_bytes());
    buf.extend_from_slice(&meta.num_records.to_le_bytes());
    buf.extend_from_slice(&meta.node_pages.to_le_bytes());
    buf.extend_from_slice(&meta.root.map_or(0, |p| p.0).to_le_bytes());
    buf
}

fn decode_superblock(bytes: &[u8]) -> Result<PagedMeta, StorageError> {
    let page = PageId(0);
    let mut c = Cursor { buf: bytes, pos: 0, page };
    if c.take(8)? != MAGIC {
        return Err(corrupt(page, "bad magic (not a CSJ page file)"));
    }
    let version = c.u32()?;
    if version != VERSION {
        return Err(corrupt(page, format!("unsupported format version {version}")));
    }
    let dims = c.u32()?;
    let max_fanout = c.u32()?;
    let height = c.u32()?;
    let num_records = c.u64()?;
    let node_pages = c.u64()?;
    let root_raw = c.u64()?;
    Ok(PagedMeta {
        dims,
        max_fanout,
        height,
        num_records,
        node_pages,
        root: (root_raw != 0).then_some(PageId(root_raw)),
    })
}

/// Cumulative counters of a [`PagedStore`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PagedStats {
    /// Buffer-pool hits / misses / evictions.
    pub pool: BufferStats,
    /// Physical page read attempts on the backing disk.
    pub disk_reads: u64,
    /// Physical page write attempts on the backing disk.
    pub disk_writes: u64,
    /// Transient-fault retries absorbed by the pager.
    pub io_retries: u64,
    /// Faults the disk's injector produced.
    pub faults_injected: u64,
    /// Page misses served from prefetched bytes instead of a
    /// synchronous disk read: the read-aheads that proved useful.
    pub prefetch_supplied: u64,
    /// Node pages decoded (equals pool misses for a read-only join).
    pub nodes_decoded: u64,
    /// What the read-ahead did besides supplying misses.
    pub prefetch: PrefetchStats,
}

/// Read-ahead counters a prefetcher reports into the store it fed
/// ([`PagedStore::record_prefetch`]). After a complete run every
/// issued read ended exactly one way, so
/// `PagedStats::prefetch_supplied + wasted == issued`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Read-aheads started on a reader thread.
    pub issued: u64,
    /// Page accesses that found their page still in flight and waited.
    pub late: u64,
    /// Total time those accesses waited, in nanoseconds.
    pub late_wait_ns: u64,
    /// Read-aheads that supplied nothing: failed, landed on a page
    /// already resident, dropped from staging, or never consumed.
    pub wasted: u64,
    /// Page accesses made while the read-ahead frontier was not listing
    /// them next: a read-ahead can only serve pages the frontier lists.
    pub unlisted: u64,
    /// The most pages held staged or in flight at once (a maximum,
    /// not a sum, across runs).
    pub held_peak: u64,
}

/// One frame of the pool: the decoded node of a resident page, and
/// whether the node still has to be written back.
struct Frame<const D: usize> {
    node: Rc<PagedNode<D>>,
    dirty: bool,
}

/// In-memory page state: the frame table and its counters. Never
/// touches the disk: the store writes dirty pages back *after* releasing
/// the borrow.
struct PoolState<const D: usize> {
    /// The frame table: one pinned LRU pool whose frames own the decoded
    /// nodes, so an access is one lookup.
    frames: BufferPool<Frame<D>>,
    /// A node in no frame. A miss decodes into it and then trades it for
    /// the evicted frame's node, so a full pool misses without
    /// allocating; `None` until an eviction supplies one.
    spare: Option<Rc<PagedNode<D>>>,
    /// Frames with `dirty` set.
    dirty: usize,
    prefetch_supplied: u64,
    nodes_decoded: u64,
    prefetch: PrefetchStats,
}

impl<const D: usize> PoolState<D> {
    /// The decoded node of a dirty resident `page`.
    fn dirty_node(&self, page: PageId) -> Option<&PagedNode<D>> {
        let frame = self.frames.value(self.frames.frame_of(page)?);
        frame.dirty.then_some(frame.node.as_ref())
    }

    /// Clears a resident page's dirty flag.
    fn mark_clean(&mut self, page: PageId) {
        if let Some(f) = self.frames.frame_of(page) {
            let frame = self.frames.value_mut(f);
            if std::mem::replace(&mut frame.dirty, false) {
                self.dirty -= 1;
            }
        }
    }
}

/// Node store over a [`Disk`]: a frame table of decoded nodes under a
/// pinned LRU [`BufferPool`], reads retried per the pager's policy.
///
/// A hit is one pool lookup. A miss reads the page into one reusable
/// buffer (or takes bytes a prefetcher read, [`PagedStore::node_with`]),
/// decodes it into a spare node, and only then admits the page: the
/// victim's frame takes the new node and its old node becomes the
/// spare, so once the pool is full a miss allocates nothing.
///
/// Dirty pages reach the disk one way only, `flush_dirty`: sorted by
/// page id and coalesced into runs of at most [`RUN_PAGES`] consecutive
/// pages, one [`Disk::write_run`] per run. It runs when an admission is
/// about to evict a dirty page (every dirty page goes, victim included,
/// before the victim leaves the pool) and at
/// [`PagedStore::checkpoint`].
///
/// Single-threaded by design (interior mutability via `RefCell`); the
/// async prefetcher runs in `csj-core` and hands its page bytes to the
/// miss that needs them.
///
/// Pool state and the pager live in *separate* cells so that no disk
/// access ever happens while the state borrow is held: each operation
/// runs as short state-only critical sections with the I/O between
/// them. A page is admitted only after its bytes have been read and
/// decoded, so a failed read or a corrupt page leaves the pool as it
/// was.
pub struct PagedStore<const D: usize, Dk: Disk> {
    state: RefCell<PoolState<D>>,
    io: RefCell<RetryPager<Dk>>,
    /// The one page buffer synchronous reads land in.
    read_buf: RefCell<Vec<u8>>,
}

impl<const D: usize, Dk: Disk> std::fmt::Debug for PagedStore<D, Dk> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.borrow();
        f.debug_struct("PagedStore")
            .field("pool_capacity", &state.frames.capacity())
            .field("resident", &state.frames.len())
            .field("dirty", &state.dirty)
            .finish()
    }
}

/// A pinned, decoded node. The underlying page stays resident (and its
/// frame pinned) until the guard drops, so the node data a caller holds
/// can never be evicted underneath it.
pub struct NodeGuard<'s, const D: usize, Dk: Disk> {
    store: &'s PagedStore<D, Dk>,
    page: PageId,
    node: Rc<PagedNode<D>>,
}

impl<const D: usize, Dk: Disk> Deref for NodeGuard<'_, D, Dk> {
    type Target = PagedNode<D>;
    fn deref(&self) -> &PagedNode<D> {
        &self.node
    }
}

impl<const D: usize, Dk: Disk> NodeGuard<'_, D, Dk> {
    /// The page this guard pins.
    pub fn page(&self) -> PageId {
        self.page
    }
}

impl<const D: usize, Dk: Disk> Drop for NodeGuard<'_, D, Dk> {
    fn drop(&mut self) {
        self.store.state.borrow_mut().frames.unpin(self.page);
    }
}

impl<const D: usize, Dk: Disk> PagedStore<D, Dk> {
    /// A store over `disk` with an LRU pool of `pool_pages` frames.
    pub fn new(disk: Dk, policy: RetryPolicy, pool_pages: usize) -> Self {
        PagedStore {
            state: RefCell::new(PoolState {
                frames: BufferPool::with_frames(pool_pages),
                spare: None,
                dirty: 0,
                prefetch_supplied: 0,
                nodes_decoded: 0,
                prefetch: PrefetchStats::default(),
            }),
            io: RefCell::new(RetryPager::new(disk, policy)),
            read_buf: RefCell::new(vec![0; PAGE_SIZE]),
        }
    }

    /// Reads (or finds resident) the node on `page`, pinning it for the
    /// lifetime of the returned guard.
    ///
    /// # Errors
    /// As [`PagedStore::node_with`].
    pub fn node(&self, page: PageId) -> Result<NodeGuard<'_, D, Dk>, StorageError> {
        Ok(self.node_with(page, None)?.0)
    }

    /// Reads (or finds resident) the node on `page`, pinning it for the
    /// lifetime of the returned guard. On a miss, `prefetched` (the
    /// page's bytes, read ahead) stands in for the disk read; the flag
    /// says whether they were used. A hit leaves them unused.
    ///
    /// The page is admitted to the pool only *after* its bytes have been
    /// read and decoded: a failed read or a corrupt page leaves the
    /// pool's frames, counters and dirty flags exactly as they were, so
    /// the call can simply be retried.
    ///
    /// # Errors
    /// Returns [`StorageError::AllPagesPinned`] when the pool cannot
    /// admit the page, [`StorageError::Io`] for disk failures or a
    /// corrupt page, and whatever the retry pager could not absorb.
    pub fn node_with(
        &self,
        page: PageId,
        prefetched: Option<&[u8]>,
    ) -> Result<(NodeGuard<'_, D, Dk>, bool), StorageError> {
        // Hit: one short state borrow, one lookup, no I/O.
        if let Some(guard) = self.pin_resident(page) {
            return Ok((guard, false));
        }
        // Miss: read into the page buffer unless the bytes came with the
        // call, then decode into the spare node; no frame changes yet.
        {
            let mut buf = self.read_buf.borrow_mut();
            let bytes = match prefetched {
                Some(bytes) => bytes,
                None => {
                    self.io.borrow_mut().read_into(page, &mut buf)?;
                    buf.as_slice()
                }
            };
            let mut state = self.state.borrow_mut();
            let spare = state.spare.get_or_insert_with(Rc::default);
            decode_into(bytes, page, Rc::make_mut(spare))?;
        }
        let node = self.state.borrow_mut().spare.take().unwrap_or_default();
        let frame = self.admit(page, node, false)?;
        let mut state = self.state.borrow_mut();
        state.nodes_decoded += 1;
        state.prefetch_supplied += u64::from(prefetched.is_some());
        state.frames.pin(page);
        let node = Rc::clone(&state.frames.value(frame).node);
        Ok((NodeGuard { store: self, page, node }, prefetched.is_some()))
    }

    /// Pins `page` if it is resident, counting a hit.
    fn pin_resident(&self, page: PageId) -> Option<NodeGuard<'_, D, Dk>> {
        let mut state = self.state.borrow_mut();
        let frame = state.frames.lookup(page)?;
        state.frames.pin(page);
        let node = Rc::clone(&state.frames.value(frame).node);
        Some(NodeGuard { store: self, page, node })
    }

    /// Admits `page` with `node`, returning its frame. When that would
    /// evict a dirty page, every dirty page is written back first, so no
    /// page leaves the pool unwritten; the (then clean) victim's node
    /// becomes the spare. On error the pool and the dirty flags hold
    /// what they held, and `node` is dropped.
    fn admit(
        &self,
        page: PageId,
        node: Rc<PagedNode<D>>,
        dirty: bool,
    ) -> Result<usize, StorageError> {
        let victim_dirty = {
            let state = self.state.borrow();
            state.dirty > 0
                && state.frames.next_victim().is_some_and(|v| state.dirty_node(v).is_some())
        };
        if victim_dirty {
            self.flush_dirty()?;
        }
        let mut state = self.state.borrow_mut();
        let (frame, evicted) = state.frames.admit(page, Frame { node, dirty })?;
        state.dirty += usize::from(dirty);
        if let Some((_, victim)) = evicted {
            debug_assert!(!victim.dirty, "a dirty page left the pool unwritten");
            state.spare = Some(victim.node);
        }
        Ok(frame)
    }

    /// Writes every dirty page back in ascending page order, as runs of
    /// at most [`RUN_PAGES`] consecutive pages encoded one run at a time
    /// into one buffer. A run is marked clean only once its write has
    /// succeeded, so after a failure the unwritten pages stay dirty for
    /// a retry.
    fn flush_dirty(&self) -> Result<(), StorageError> {
        let mut dirty: Vec<PageId> = {
            let state = self.state.borrow();
            state.frames.frames().filter(|(_, f)| f.dirty).map(|(page, _)| page).collect()
        };
        dirty.sort_unstable();
        let mut buf = Vec::with_capacity(dirty.len().min(RUN_PAGES) * PAGE_SIZE);
        let mut rest = dirty.as_slice();
        while let Some(&first) = rest.first() {
            let len = rest
                .iter()
                .zip(first.0..)
                .take(RUN_PAGES)
                .take_while(|&(page, want)| page.0 == want)
                .count();
            let (run, tail) = rest.split_at(len);
            rest = tail;
            buf.clear();
            {
                let state = self.state.borrow();
                for &page in run {
                    // Every page listed is resident and dirty: nothing in
                    // between evicts or cleans one.
                    if let Some(node) = state.dirty_node(page) {
                        encode_node(node, &mut buf);
                    }
                    buf.resize(buf.len().next_multiple_of(PAGE_SIZE), 0);
                }
            }
            self.io.borrow_mut().write_run(first, &buf)?;
            let mut state = self.state.borrow_mut();
            for &page in run {
                state.mark_clean(page);
            }
        }
        Ok(())
    }

    /// Writes `node` to a freshly allocated page through the pool
    /// (page 0 is reserved for the superblock on first use). The page
    /// is resident and dirty; it reaches the disk with the next
    /// write-back of the dirty pages: when a dirty page is about to be
    /// evicted, or at [`PagedStore::checkpoint`].
    ///
    /// # Errors
    /// Returns [`StorageError::Io`] when the node does not fit a page
    /// or allocation fails, and [`StorageError::AllPagesPinned`] when
    /// the pool cannot admit it.
    pub fn put_node(&self, node: PagedNode<D>) -> Result<PageId, StorageError> {
        let need = node.encoded_len();
        if need > PAGE_SIZE {
            return Err(StorageError::Io {
                op: IoOp::Write,
                detail: format!(
                    "node ({} bytes, fanout {}) exceeds the {PAGE_SIZE}-byte page — lower the \
                     tree fanout",
                    need,
                    if node.is_leaf() { node.entries.len() } else { node.children.len() },
                ),
            });
        }
        let page = {
            let mut io = self.io.borrow_mut();
            if io.disk().num_pages() == 0 {
                io.disk_mut().alloc_through(PageId(0))?; // superblock
            }
            io.disk_mut().alloc()?
        };
        let mut slot = self.state.borrow_mut().spare.take().unwrap_or_default();
        *Rc::make_mut(&mut slot) = node;
        self.admit(page, slot, true)?;
        Ok(page)
    }

    /// Writes the superblock (page 0) directly.
    ///
    /// # Errors
    /// Returns [`StorageError::Io`] when allocation or the write fails.
    pub fn write_superblock(&self, meta: &PagedMeta) -> Result<(), StorageError> {
        let mut io = self.io.borrow_mut();
        io.disk_mut().alloc_through(PageId(0))?;
        io.write(&Page::with_data(PageId(0), encode_superblock(meta)))
    }

    /// Reads and decodes the superblock.
    ///
    /// # Errors
    /// Returns [`StorageError::Io`] when the read fails, the file is not
    /// a CSJ page file, or its dimensionality differs from `D`.
    pub fn read_superblock(&self) -> Result<PagedMeta, StorageError> {
        let page = self.io.borrow_mut().read(PageId(0))?;
        let meta = decode_superblock(&page.data)?;
        if meta.dims as usize != D {
            return Err(corrupt(
                PageId(0),
                format!("dimensionality mismatch: file stores {}-d, caller wants {D}-d", meta.dims),
            ));
        }
        Ok(meta)
    }

    /// Writes every dirty page back and fsyncs the disk, making the
    /// tree durable. A failed checkpoint leaves the pages it did not
    /// write dirty, so it can simply be retried.
    ///
    /// # Errors
    /// Returns [`StorageError::Io`] (or an exhausted-retries error) when
    /// a write-back or the final sync fails.
    pub fn checkpoint(&self) -> Result<(), StorageError> {
        self.flush_dirty()?;
        self.io.borrow_mut().sync()
    }

    /// Adds a prefetcher's read-ahead counters to [`PagedStats::prefetch`].
    pub fn record_prefetch(&self, run: PrefetchStats) {
        let p = &mut self.state.borrow_mut().prefetch;
        p.issued += run.issued;
        p.late += run.late;
        p.late_wait_ns += run.late_wait_ns;
        p.wasted += run.wasted;
        p.unlisted += run.unlisted;
        p.held_peak = p.held_peak.max(run.held_peak);
    }

    /// `true` when `page` is resident in the pool.
    pub fn is_resident(&self, page: PageId) -> bool {
        self.state.borrow().frames.contains(page)
    }

    /// Applies `f` to the node of a resident `page`, without recording
    /// an access or pinning; `None` when the page is not resident.
    pub fn with_resident<R>(&self, page: PageId, f: impl FnOnce(&PagedNode<D>) -> R) -> Option<R> {
        let state = self.state.borrow();
        let frame = state.frames.frame_of(page)?;
        Some(f(&state.frames.value(frame).node))
    }

    /// Pool capacity in pages.
    pub fn pool_capacity(&self) -> usize {
        self.state.borrow().frames.capacity()
    }

    /// Cumulative counters (pool, disk, retries, prefetch).
    pub fn stats(&self) -> PagedStats {
        let state = self.state.borrow();
        let io = self.io.borrow();
        PagedStats {
            pool: state.frames.stats(),
            disk_reads: io.disk().reads(),
            disk_writes: io.disk().writes(),
            io_retries: io.retries(),
            faults_injected: io.disk().faults_injected(),
            prefetch_supplied: state.prefetch_supplied,
            nodes_decoded: state.nodes_decoded,
            prefetch: state.prefetch,
        }
    }

    /// Consumes the store, returning the backing disk.
    pub fn into_disk(self) -> Dk {
        self.io.into_inner().into_disk()
    }
}

/// A page-resident rectangle tree: metadata plus a [`PagedStore`].
///
/// This is the out-of-core counterpart of [`RectCore`]: same node
/// structure, same child order, same MBRs — so a traversal that copies
/// the in-memory engine's visit order byte-for-byte reproduces its
/// output (see `csj_core::outofcore`).
#[derive(Debug)]
pub struct PagedTree<const D: usize, Dk: Disk> {
    store: PagedStore<D, Dk>,
    meta: PagedMeta,
}

impl<const D: usize, Dk: Disk> PagedTree<D, Dk> {
    /// Serializes a built [`RectCore`] (from any loader or dynamic
    /// inserts) to `disk`, depth-first, children before parents.
    ///
    /// # Errors
    /// Returns [`StorageError::Io`] when the tree's fanout cannot fit a
    /// page (checked up front, before any page is written) or the disk
    /// fails beyond retry.
    pub fn from_core(
        core: &RectCore<D>,
        disk: Dk,
        policy: RetryPolicy,
        pool_pages: usize,
    ) -> Result<Self, StorageError> {
        check_fanout(D, core.config.max_fanout)?;
        let store = PagedStore::new(disk, policy, pool_pages);
        let root = match core.root {
            Some(root) => Some(write_subtree(core, root, &store)?.0),
            None => None,
        };
        let meta = PagedMeta {
            dims: D as u32,
            max_fanout: core.config.max_fanout as u32,
            height: core.height() as u32,
            num_records: core.num_records as u64,
            node_pages: core.node_count() as u64,
            root,
        };
        store.write_superblock(&meta)?;
        store.checkpoint()?;
        Ok(PagedTree { store, meta })
    }

    /// Streams a Sort-Tile-Recursive bulk load straight to pages:
    /// leaves are written as their chunks are produced, upper levels are
    /// STR-tiled over `(page, MBR)` summaries — the full node arena
    /// never exists in memory. The resulting tree is structurally
    /// identical to `bulk::str_pack` (same chunking, same child order).
    ///
    /// # Errors
    /// Returns [`StorageError::Io`] when the configured fanout cannot
    /// fit a page (checked up front, before any page is written) or the
    /// disk fails beyond retry.
    pub fn build_str(
        points: &[Point<D>],
        config: RTreeConfig,
        disk: Dk,
        policy: RetryPolicy,
        pool_pages: usize,
    ) -> Result<Self, StorageError> {
        config.validate();
        check_fanout(D, config.max_fanout)?;
        let store = PagedStore::new(disk, policy, pool_pages);
        let cap = config.max_fanout;
        let mut node_pages = 0u64;
        let mut height = 0u32;
        let mut root = None;
        if !points.is_empty() {
            // Leaf level: identical chunking to bulk::str_pack.
            let chunks = str_chunks::<_, D>(make_entries(points), cap, |e, d| e.point[d]);
            let mut level_nodes: Vec<(PageId, Mbr<D>)> = Vec::with_capacity(chunks.len());
            for chunk in chunks {
                let node = PagedNode::leaf(chunk);
                let mbr = node.mbr;
                level_nodes.push((store.put_node(node)?, mbr));
                node_pages += 1;
            }
            // Upper levels: STR-tiling of node MBR centers, exactly as
            // bulk::pack_upper_levels_str.
            height = 1;
            let mut level = 1u32;
            while level_nodes.len() > 1 {
                let groups =
                    str_chunks::<(PageId, Mbr<D>), D>(level_nodes, cap, |it, d| it.1.center()[d]);
                let mut parents = Vec::with_capacity(groups.len());
                for group in groups {
                    let node = PagedNode::internal(level, group);
                    let mbr = node.mbr;
                    parents.push((store.put_node(node)?, mbr));
                    node_pages += 1;
                }
                level_nodes = parents;
                level += 1;
                height += 1;
            }
            root = level_nodes.pop().map(|(p, _)| p);
        }
        let meta = PagedMeta {
            dims: D as u32,
            max_fanout: cap as u32,
            height,
            num_records: points.len() as u64,
            node_pages,
            root,
        };
        store.write_superblock(&meta)?;
        store.checkpoint()?;
        Ok(PagedTree { store, meta })
    }

    /// Opens a tree previously written to `disk`.
    ///
    /// # Errors
    /// Returns [`StorageError::Io`] when the superblock is unreadable,
    /// not a CSJ page file, or of a different dimensionality.
    pub fn open(disk: Dk, policy: RetryPolicy, pool_pages: usize) -> Result<Self, StorageError> {
        let store = PagedStore::new(disk, policy, pool_pages);
        let meta = store.read_superblock()?;
        Ok(PagedTree { store, meta })
    }

    /// The root node's page, `None` for an empty tree.
    pub fn root(&self) -> Option<PageId> {
        self.meta.root
    }

    /// Tree metadata from the superblock.
    pub fn meta(&self) -> &PagedMeta {
        &self.meta
    }

    /// Number of data records.
    pub fn num_records(&self) -> usize {
        self.meta.num_records as usize
    }

    /// Tree height (1 = single leaf root, 0 = empty).
    pub fn height(&self) -> usize {
        self.meta.height as usize
    }

    /// Reads (pinning) the node on `page`.
    ///
    /// # Errors
    /// As [`PagedStore::node`].
    pub fn node(&self, page: PageId) -> Result<NodeGuard<'_, D, Dk>, StorageError> {
        self.store.node(page)
    }

    /// The underlying store (for staging prefetched pages, stats).
    pub fn store(&self) -> &PagedStore<D, Dk> {
        &self.store
    }

    /// Cumulative I/O and pool counters.
    pub fn stats(&self) -> PagedStats {
        self.store.stats()
    }

    /// Consumes the tree, returning the backing disk (to reopen it cold
    /// with [`PagedTree::open`]).
    pub fn into_disk(self) -> Dk {
        self.store.into_disk()
    }

    /// Appends every record id below `page` to `out`, in **exactly** the
    /// order of [`crate::JoinIndex::collect_record_ids`]'s default
    /// implementation (stack-based, children revisited last-first) — the
    /// group-member order of the in-memory engines.
    ///
    /// # Errors
    /// As [`PagedStore::node`].
    pub fn collect_record_ids(
        &self,
        page: PageId,
        out: &mut Vec<RecordId>,
    ) -> Result<(), StorageError> {
        self.for_each_leaf_below(self.node(page)?, |leaf| {
            out.extend(leaf.entries.iter().map(|e| e.id))
        })
    }

    /// Appends every `(id, point)` below `page` to `out`, in the order
    /// of [`crate::JoinIndex::collect_entries`]'s default.
    ///
    /// # Errors
    /// As [`PagedStore::node`].
    pub fn collect_entries(
        &self,
        page: PageId,
        out: &mut Vec<LeafEntry<D>>,
    ) -> Result<(), StorageError> {
        self.for_each_leaf_below(self.node(page)?, |leaf| out.extend_from_slice(&leaf.entries))
    }

    /// Calls `leaf` on every leaf below the pinned node `top` (itself
    /// included), in the order of [`PagedTree::collect_record_ids`].
    /// `top` is released once its children are listed; at most one page
    /// is pinned at a time.
    ///
    /// # Errors
    /// As [`PagedStore::node`].
    pub fn for_each_leaf_below<'s>(
        &'s self,
        top: NodeGuard<'s, D, Dk>,
        mut leaf: impl FnMut(&PagedNode<D>),
    ) -> Result<(), StorageError> {
        let mut stack = Vec::new();
        let mut node = top;
        loop {
            if node.is_leaf() {
                leaf(&node);
            } else {
                stack.extend(node.children.iter().map(|&(p, _)| p));
            }
            drop(node);
            let Some(next) = stack.pop() else { return Ok(()) };
            node = self.node(next)?;
        }
    }
}

/// Writes the subtree under `node_id` (children first), returning the
/// root's page and MBR.
fn write_subtree<const D: usize, Dk: Disk>(
    core: &RectCore<D>,
    node_id: crate::arena::NodeId,
    store: &PagedStore<D, Dk>,
) -> Result<(PageId, Mbr<D>), StorageError> {
    let n = core.node(node_id);
    let paged = if n.is_leaf() {
        PagedNode {
            level: 0,
            mbr: n.mbr,
            children: Vec::new(),
            entries: n.entries.entries().to_vec().into(),
        }
    } else {
        let mut children = Vec::with_capacity(n.children.len());
        for &c in &n.children {
            children.push(write_subtree(core, c, store)?);
        }
        PagedNode { level: n.level, mbr: n.mbr, children, entries: LeafStore::new() }
    };
    let mbr = paged.mbr;
    Ok((store.put_node(paged)?, mbr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk::{hilbert_pack, omt_pack, str_pack};
    use csj_storage::{FaultPolicy, SimulatedDisk};

    fn scatter(n: usize) -> Vec<Point<2>> {
        (0..n)
            .map(|i| {
                let x = ((i * 2654435761) % 100_000) as f64 / 100_000.0;
                let y = ((i * 40503 + 17) % 100_000) as f64 / 100_000.0;
                Point::new([x, y])
            })
            .collect()
    }

    fn entry(id: u32, x: f64, y: f64) -> LeafEntry<2> {
        LeafEntry::new(id, Point::new([x, y]))
    }

    fn encoded(node: &PagedNode<2>) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_node(node, &mut buf);
        buf
    }

    #[test]
    fn node_codec_roundtrip_leaf_and_internal() {
        let leaf = PagedNode::leaf(vec![entry(7, 0.25, -1.5), entry(9, 3.0, 4.0)]);
        let bytes = encoded(&leaf);
        let back = decode_node::<2>(&bytes, PageId(1)).unwrap();
        assert_eq!(back.level, 0);
        assert_eq!(back.mbr, leaf.mbr);
        assert_eq!(back.entries.entries(), leaf.entries.entries());
        assert_eq!(back.entries.soa().point(1), Point::new([3.0, 4.0]), "soa mirror rebuilt");

        let internal = PagedNode::internal(
            2,
            vec![
                (PageId(1), Mbr::from_corners(&Point::new([0.0, 0.0]), &Point::new([1.0, 1.0]))),
                (PageId(4), Mbr::from_corners(&Point::new([2.0, 2.0]), &Point::new([3.0, 5.0]))),
            ],
        );
        let bytes = encoded(&internal);
        let back = decode_node::<2>(&bytes, PageId(2)).unwrap();
        assert_eq!(back.level, 2);
        assert_eq!(back.children, internal.children);
        assert_eq!(back.mbr, internal.mbr);
    }

    #[test]
    fn decode_rejects_corruption() {
        let leaf = PagedNode::<2>::leaf(vec![entry(1, 0.0, 0.0)]);
        let bytes = encoded(&leaf);
        assert!(decode_node::<2>(&bytes[..bytes.len() - 1], PageId(3)).is_err(), "truncated");
        let mut huge = bytes.clone();
        huge[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_node::<2>(&huge, PageId(3)).is_err(), "absurd count");
        assert!(decode_superblock(&bytes).is_err(), "node page is not a superblock");
    }

    #[test]
    fn superblock_roundtrip() {
        let meta = PagedMeta {
            dims: 2,
            max_fanout: 50,
            height: 3,
            num_records: 123_456,
            node_pages: 2_600,
            root: Some(PageId(2_600)),
        };
        assert_eq!(decode_superblock(&encode_superblock(&meta)).unwrap(), meta);
        let empty = PagedMeta { root: None, height: 0, num_records: 0, node_pages: 0, ..meta };
        assert_eq!(decode_superblock(&encode_superblock(&empty)).unwrap(), empty);
    }

    /// Recursively compares a paged tree against an in-memory core:
    /// level, MBR, child order and leaf entries must all agree.
    fn assert_same_structure(
        core: &RectCore<2>,
        node: crate::arena::NodeId,
        tree: &PagedTree<2, SimulatedDisk>,
        page: PageId,
    ) {
        let mem = core.node(node);
        let disk = tree.node(page).unwrap();
        assert_eq!(disk.level, mem.level);
        assert_eq!(disk.mbr, mem.mbr);
        if mem.is_leaf() {
            assert_eq!(disk.entries.entries(), mem.entries.entries());
        } else {
            assert_eq!(disk.children.len(), mem.children.len());
            let pairs: Vec<(crate::arena::NodeId, PageId, Mbr<2>)> = mem
                .children
                .iter()
                .zip(disk.children.iter())
                .map(|(&m, &(p, pm))| (m, p, pm))
                .collect();
            drop(disk);
            for (m, p, pm) in pairs {
                assert_eq!(pm, core.node(m).mbr, "parent-stored child MBR");
                assert_same_structure(core, m, tree, p);
            }
        }
    }

    #[test]
    fn unpageable_fanout_is_rejected_up_front() {
        // Child slots are the wider encoding, so they bound the fanout:
        // (8192 - 40) / 40 = 203 for 2-d trees.
        assert_eq!(max_page_fanout(2), 203);
        let pts = scatter(50);
        let cfg = RTreeConfig::with_max_fanout(204);
        let err = PagedTree::build_str(&pts, cfg, SimulatedDisk::new(), RetryPolicy::none(), 8);
        assert!(err.is_err(), "build_str must reject an unpageable fanout before writing");
        let core = str_pack(&pts, cfg);
        let err = PagedTree::from_core(&core, SimulatedDisk::new(), RetryPolicy::none(), 8);
        assert!(err.is_err(), "from_core must reject an unpageable fanout before writing");
        // The boundary fanout still builds and reloads.
        let cfg = RTreeConfig::with_max_fanout(203);
        let tree =
            PagedTree::build_str(&pts, cfg, SimulatedDisk::new(), RetryPolicy::none(), 8).unwrap();
        assert_eq!(tree.meta().num_records, 50);
    }

    #[test]
    fn from_core_preserves_structure_for_all_loaders() {
        let pts = scatter(700);
        let cfg = RTreeConfig::with_max_fanout(10);
        for (name, core) in [
            ("str", str_pack(&pts, cfg)),
            ("hilbert", hilbert_pack(&pts, cfg)),
            ("omt", omt_pack(&pts, cfg)),
        ] {
            let tree =
                PagedTree::from_core(&core, SimulatedDisk::new(), RetryPolicy::none(), 64).unwrap();
            assert_eq!(tree.num_records(), 700, "{name}");
            assert_eq!(tree.height(), core.height(), "{name}");
            assert_eq!(tree.meta().node_pages as usize, core.node_count(), "{name}");
            let (root_mem, root_page) = (core.root.unwrap(), tree.root().unwrap());
            assert_same_structure(&core, root_mem, &tree, root_page);
        }
    }

    #[test]
    fn streaming_str_build_matches_in_memory_str_pack() {
        for n in [1usize, 9, 10, 11, 250, 2500] {
            let pts = scatter(n);
            let cfg = RTreeConfig::with_max_fanout(10);
            let core = str_pack(&pts, cfg);
            let tree =
                PagedTree::build_str(&pts, cfg, SimulatedDisk::new(), RetryPolicy::none(), 8)
                    .unwrap();
            assert_eq!(tree.num_records(), n);
            assert_eq!(tree.height(), core.height(), "n={n}");
            assert_eq!(tree.meta().node_pages as usize, core.node_count(), "n={n}");
            assert_same_structure(&core, core.root.unwrap(), &tree, tree.root().unwrap());
        }
    }

    #[test]
    fn reopen_after_checkpoint() {
        let pts = scatter(300);
        let cfg = RTreeConfig::with_max_fanout(8);
        let tree =
            PagedTree::build_str(&pts, cfg, SimulatedDisk::new(), RetryPolicy::none(), 16).unwrap();
        let meta = *tree.meta();
        let disk = tree.store.into_disk();
        let reopened = PagedTree::<2, _>::open(disk, RetryPolicy::none(), 16).unwrap();
        assert_eq!(*reopened.meta(), meta);
        let mut ids = Vec::new();
        reopened.collect_record_ids(reopened.root().unwrap(), &mut ids).unwrap();
        ids.sort_unstable();
        assert_eq!(ids, (0..300).collect::<Vec<u32>>());
    }

    #[test]
    fn collect_matches_join_index_default_order() {
        use crate::traits::JoinIndex;
        let pts = scatter(400);
        let cfg = RTreeConfig::with_max_fanout(7);
        let core = str_pack(&pts, cfg);
        let rtree = crate::rstar::RStarTree { core: core.clone() };
        let mut mem_ids = Vec::new();
        rtree.collect_record_ids(core.root.unwrap(), &mut mem_ids);
        let tree =
            PagedTree::from_core(&core, SimulatedDisk::new(), RetryPolicy::none(), 4).unwrap();
        let mut disk_ids = Vec::new();
        tree.collect_record_ids(tree.root().unwrap(), &mut disk_ids).unwrap();
        assert_eq!(mem_ids, disk_ids, "member order must match the in-memory default exactly");
    }

    #[test]
    fn pool_bounds_resident_pages_under_traversal() {
        let pts = scatter(2000);
        let cfg = RTreeConfig::with_max_fanout(10);
        let tree =
            PagedTree::build_str(&pts, cfg, SimulatedDisk::new(), RetryPolicy::none(), 3).unwrap();
        // Full scan through a 3-frame pool: lots of evictions, bounded
        // residency, every record still reachable.
        let mut ids = Vec::new();
        tree.collect_record_ids(tree.root().unwrap(), &mut ids).unwrap();
        assert_eq!(ids.len(), 2000);
        let stats = tree.stats();
        assert!(stats.pool.evictions > 0, "a 3-frame pool must evict during a full scan");
        // Every node page must be decoded except the few still resident
        // from the build itself.
        assert!(stats.nodes_decoded as usize >= tree.meta().node_pages as usize - 3);
    }

    #[test]
    fn prefetched_bytes_satisfy_misses_without_disk_reads() {
        let pts = scatter(120);
        let cfg = RTreeConfig::with_max_fanout(8);
        let tree =
            PagedTree::build_str(&pts, cfg, SimulatedDisk::new(), RetryPolicy::none(), 2).unwrap();
        let root = tree.root().unwrap();
        // The root page's bytes, as a prefetcher would have read them.
        let (raw, child_pages) = {
            let guard = tree.node(root).unwrap();
            let children: Vec<PageId> = guard.children.iter().map(|&(p, _)| p).collect();
            (encoded(guard.deref()), children)
        };
        // Fill the 2-frame pool with other pages so the root is evicted.
        for &p in &child_pages {
            let _ = tree.node(p).unwrap();
        }
        assert!(!tree.store().is_resident(root));
        let before = tree.stats();
        let (g, used) = tree.store().node_with(root, Some(&raw)).unwrap();
        assert!(used, "a miss decodes the prefetched bytes");
        assert_eq!(g.level as usize + 1, tree.height());
        drop(g);
        let after = tree.stats();
        assert_eq!(after.disk_reads, before.disk_reads, "miss served from prefetched bytes");
        assert_eq!(after.prefetch_supplied, before.prefetch_supplied + 1);
        // A hit leaves the bytes unused.
        let (_g, used) = tree.store().node_with(root, Some(&raw)).unwrap();
        assert!(!used);
        assert_eq!(tree.stats().prefetch_supplied, after.prefetch_supplied);
    }

    /// Delegates to a [`SimulatedDisk`] but fails the next `fail_reads`
    /// read attempts and the `fail_write`-th page write attempt — fault
    /// injection for a disk that already holds pages (the built-in
    /// policy only wraps new disks) or at one chosen write. Counts the
    /// `write` and `write_run` calls that reach it.
    #[derive(Default)]
    struct FlakyDisk {
        inner: SimulatedDisk,
        fail_reads: u64,
        /// Reads after the failed ones that return a corrupt page.
        corrupt_reads: u64,
        fail_write: Option<u64>,
        injected: u64,
        write_calls: u64,
    }

    impl FlakyDisk {
        fn write_page(&mut self, page: &Page) -> Result<(), StorageError> {
            let seq = self.inner.writes + 1;
            if self.fail_write == Some(seq) {
                self.inner.writes += 1;
                self.injected += 1;
                return Err(StorageError::FaultInjected { op: IoOp::Write, seq });
            }
            self.inner.write(page)
        }
    }

    impl Disk for FlakyDisk {
        fn num_pages(&self) -> u64 {
            self.inner.num_pages() as u64
        }
        fn alloc(&mut self) -> Result<PageId, StorageError> {
            Ok(self.inner.alloc())
        }
        fn alloc_through(&mut self, id: PageId) -> Result<(), StorageError> {
            self.inner.alloc_through(id);
            Ok(())
        }
        fn read(&mut self, id: PageId) -> Result<Page, StorageError> {
            if self.fail_reads > 0 {
                self.fail_reads -= 1;
                self.injected += 1;
                return Err(StorageError::FaultInjected { op: IoOp::Read, seq: self.injected });
            }
            let mut page = self.inner.read(id)?;
            if self.corrupt_reads > 0 {
                self.corrupt_reads -= 1;
                page.data[4..8].copy_from_slice(&u32::MAX.to_le_bytes()); // absurd count
            }
            Ok(page)
        }
        fn write(&mut self, page: &Page) -> Result<(), StorageError> {
            self.write_calls += 1;
            self.write_page(page)
        }
        fn write_run(&mut self, first: PageId, bytes: &[u8]) -> Result<(), StorageError> {
            self.write_calls += 1;
            for (i, chunk) in bytes.chunks(PAGE_SIZE).enumerate() {
                self.write_page(&Page::with_data(PageId(first.0 + i as u64), chunk.to_vec()))?;
            }
            Ok(())
        }
        fn sync(&mut self) -> Result<(), StorageError> {
            Ok(())
        }
        fn reads(&self) -> u64 {
            Disk::reads(&self.inner)
        }
        fn writes(&self) -> u64 {
            Disk::writes(&self.inner)
        }
        fn faults_injected(&self) -> u64 {
            self.injected + self.inner.faults_injected()
        }
    }

    /// Regression: a page used to be admitted to the pool *before* its
    /// disk read, so a failed read left the pool claiming a residency
    /// the cache never got — every later access to that page then died
    /// with a pool/cache-desync error. The read must leave no trace.
    #[test]
    fn failed_read_leaves_pool_and_cache_consistent() {
        let store = PagedStore::<2, _>::new(SimulatedDisk::new(), RetryPolicy::none(), 4);
        let page = store.put_node(PagedNode::leaf(vec![entry(1, 0.1, 0.2)])).unwrap();
        store.checkpoint().unwrap();
        let disk = store.into_disk();

        let flaky = FlakyDisk { inner: disk, fail_reads: 1, ..FlakyDisk::default() };
        let store = PagedStore::<2, _>::new(flaky, RetryPolicy::none(), 4);
        assert!(store.node(page).is_err(), "the injected read fault must surface");
        assert!(!store.is_resident(page), "a failed read must not admit the page");

        let guard = store.node(page).expect("the retry reads the intact page");
        assert_eq!(guard.entries.entries().len(), 1);
        assert_eq!(store.stats().nodes_decoded, 1, "only the successful read decodes");
    }

    /// A miss that fails — a read fault on every attempt, a corrupt
    /// page — must leave the pool as it was: the would-be victim
    /// resident with its node intact, the pool counters and the dirty
    /// flags unchanged. A transient fault is absorbed, the retried
    /// access succeeds, and a full traversal over a disk that faults
    /// every third read returns the records of the in-memory tree.
    #[test]
    fn failed_miss_leaves_the_victim_and_the_counters_untouched() {
        let pts = scatter(400);
        let cfg = RTreeConfig::with_max_fanout(8);
        // Every third read faults: the pager's two attempts absorb one.
        let faulty = SimulatedDisk::with_faults(FaultPolicy::fail_every_read(3));
        let built = PagedTree::build_str(&pts, cfg, faulty, RetryPolicy::none(), 4096).unwrap();
        let root = built.root().unwrap();
        let flaky = FlakyDisk { inner: built.into_disk(), ..FlakyDisk::default() };
        let store = PagedStore::<2, _>::new(flaky, RetryPolicy::no_backoff(2), 3);
        let clean = store.put_node(PagedNode::leaf(vec![entry(9, 9.0, 9.0)])).unwrap();
        let victim = PageId(1);
        let resident_node = store.node(victim).unwrap().deref().clone();
        let _root_guard = store.node(root).unwrap();
        // Pool of 3: `clean` (dirty, pinned below), `victim`, the pinned
        // root. A miss now has exactly one frame to take: `victim`'s.
        let _dirty_guard = store.node(clean).unwrap();
        let target = PageId(2);
        let set_faults = |fail_reads: u64, corrupt_reads: u64| {
            let mut io = store.io.borrow_mut();
            let disk = io.disk_mut();
            disk.fail_reads = fail_reads;
            disk.corrupt_reads = corrupt_reads;
        };
        let before = store.stats();
        for (fail_reads, corrupt_reads, what) in
            [(2, 0, "a fault the retries cannot absorb"), (0, 1, "a corrupt page")]
        {
            set_faults(fail_reads, corrupt_reads);
            assert!(store.node(target).is_err(), "{what} must surface");
            let after = store.stats();
            assert_eq!(after.pool, before.pool, "{what}: pool counters");
            assert_eq!(after.nodes_decoded, before.nodes_decoded, "{what}: decodes");
            assert!(!store.is_resident(target), "{what}: the page was admitted");
            assert!(store.is_resident(victim), "{what}: the victim was evicted");
            assert_eq!(dirty_pages(&store), [clean], "{what}: dirty flags");
        }
        // One transient fault, absorbed by the retry: the miss succeeds
        // and takes the victim's frame.
        set_faults(1, 0);
        let got = store.node(target).expect("the retry absorbs one fault");
        assert_eq!(got.entries.entries().len(), got.entries.soa().len());
        drop(got);
        assert!(store.stats().io_retries > before.io_retries);
        assert!(!store.is_resident(victim), "the victim made room at last");
        assert_eq!(dirty_pages(&store), [clean], "the clean victim needed no write-back");
        // The victim reads back as it was, and so does the whole tree.
        assert_eq!(store.node(victim).unwrap().entries.entries(), resident_node.entries.entries());
        let mut got = Vec::new();
        let mut stack = vec![root];
        while let Some(page) = stack.pop() {
            let node = store.node(page).unwrap();
            if node.is_leaf() {
                got.extend_from_slice(node.entries.entries());
            } else {
                stack.extend(node.children.iter().map(|&(p, _)| p));
            }
        }
        let reference = {
            let core = str_pack(&pts, cfg);
            let rtree = crate::rstar::RStarTree { core };
            let mut out = Vec::new();
            crate::traits::JoinIndex::collect_entries(&rtree, rtree.core.root.unwrap(), &mut out);
            out
        };
        assert_eq!(got, reference, "the traversal reads a fault-free store's records");
    }

    fn dirty_pages<Dk: Disk>(store: &PagedStore<2, Dk>) -> Vec<PageId> {
        let state = store.state.borrow();
        let mut dirty: Vec<PageId> =
            state.frames.frames().filter(|(_, f)| f.dirty).map(|(page, _)| page).collect();
        assert_eq!(dirty.len(), state.dirty, "the dirty count matches the flags");
        dirty.sort_unstable();
        dirty
    }

    /// Puts one single-entry leaf per id, whose entry carries the id.
    fn put_leaves<Dk: Disk>(store: &PagedStore<2, Dk>, ids: std::ops::Range<u32>) -> Vec<PageId> {
        ids.map(|i| store.put_node(PagedNode::leaf(vec![entry(i, f64::from(i), 0.0)])).unwrap())
            .collect()
    }

    /// Reads every page back through a fresh store over `disk`,
    /// checking each leaf's entry id.
    fn assert_leaves_on_disk(disk: FlakyDisk, pages: &[PageId]) {
        let store = PagedStore::<2, _>::new(disk, RetryPolicy::none(), 4);
        for (i, &page) in pages.iter().enumerate() {
            let guard = store.node(page).expect("the page reached the disk");
            assert_eq!(guard.entries.entries()[0].id, i as u32, "{page}");
        }
    }

    /// A checkpoint that faults keeps its dirty set, so the caller can
    /// simply checkpoint again; nothing is marked clean prematurely.
    #[test]
    fn failed_checkpoint_keeps_dirty_pages_for_retry() {
        let disk = SimulatedDisk::with_faults(FaultPolicy::fail_once());
        let store = PagedStore::<2, _>::new(disk, RetryPolicy::none(), 4);
        let page = store.put_node(PagedNode::leaf(vec![entry(3, 0.5, 0.5)])).unwrap();
        assert!(store.checkpoint().is_err(), "the first write attempt faults");
        store.checkpoint().expect("the retry rewrites the still-dirty page");

        let store = PagedStore::<2, _>::new(store.into_disk(), RetryPolicy::none(), 4);
        let guard = store.node(page).expect("the page reached the disk");
        assert_eq!(guard.entries.entries().len(), 1);

        // Three runs (64, 64 and 2 pages); a failure the pager does not
        // absorb hits the sixth page of the second run. The first run
        // is clean; the second, partly written, and the third, never
        // attempted, stay dirty, and the retried checkpoint writes them.
        let run = RUN_PAGES as u32;
        let disk = FlakyDisk { fail_write: Some(u64::from(run) + 6), ..FlakyDisk::default() };
        let store = PagedStore::<2, _>::new(disk, RetryPolicy::none(), 4 * RUN_PAGES);
        let pages = put_leaves(&store, 0..2 * run + 2);
        assert!(store.checkpoint().is_err(), "write #{} fails", run + 6);
        assert_eq!(dirty_pages(&store), pages[RUN_PAGES..]);
        store.checkpoint().expect("the retry writes the still-dirty runs");
        assert!(dirty_pages(&store).is_empty());
        assert_leaves_on_disk(store.into_disk(), &pages);
    }

    /// An admission that would evict a dirty page writes the dirty set
    /// back first; when that write fails, the victim stays resident and
    /// dirty instead of leaving the pool unwritten.
    #[test]
    fn failed_eviction_write_back_keeps_the_victim_resident() {
        let disk = FlakyDisk { fail_write: Some(2), ..FlakyDisk::default() };
        let store = PagedStore::<2, _>::new(disk, RetryPolicy::none(), 4);
        let pages = put_leaves(&store, 0..4);
        let err = store.put_node(PagedNode::leaf(vec![entry(4, 4.0, 0.0)]));
        assert!(err.is_err(), "evicting page 1 writes pages 1-4 back; write #2 fails");
        assert_eq!(dirty_pages(&store), pages);
        for (i, &page) in pages.iter().enumerate() {
            assert!(store.is_resident(page), "{page}");
            assert_eq!(store.node(page).unwrap().entries.entries()[0].id, i as u32);
        }
        assert_eq!(store.stats().disk_reads, 0, "served from the pool");
        store.checkpoint().expect("the retry writes the dirty set");
        assert_leaves_on_disk(store.into_disk(), &pages);
    }

    /// A gap in the dirty set ends a run: each run starts at its own
    /// first page, and the clean page in the gap is not written.
    #[test]
    fn write_back_splits_runs_at_gaps_in_the_dirty_set() {
        let store = PagedStore::<2, _>::new(FlakyDisk::default(), RetryPolicy::none(), 8);
        let pages = put_leaves(&store, 0..4);
        store.state.borrow_mut().mark_clean(pages[1]);
        store.checkpoint().unwrap();
        let disk = store.into_disk();
        assert_eq!((disk.write_calls, Disk::writes(&disk)), (2, 3), "runs {{1}} and {{3, 4}}");
        let mut disk = disk.inner;
        assert_eq!(disk.read(pages[1]).unwrap().data, vec![0; PAGE_SIZE], "page 2 stays clean");
        for i in [0, 2, 3] {
            let leaf = decode_node::<2>(&disk.read(pages[i]).unwrap().data, pages[i]).unwrap();
            assert_eq!(leaf.entries.entries()[0].id, i as u32);
        }
    }

    /// The bytes of every page on a disk, in page order.
    fn disk_bytes<Dk: Disk>(mut disk: Dk) -> Vec<u8> {
        (0..disk.num_pages()).flat_map(|p| disk.read(PageId(p)).unwrap().data).collect()
    }

    fn temp_pages(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("csj_paged_{tag}_{}.pages", std::process::id()))
    }

    /// Run write-back changes when pages reach the disk, never what they
    /// hold: every loader at every pool size writes the same file onto a
    /// `FileDisk` (one positioned write per run) as onto a
    /// `SimulatedDisk` (one write per page through the trait default).
    #[test]
    fn page_file_is_identical_for_every_disk_loader_and_pool() {
        use csj_storage::FileDisk;
        fn build<Dk: Disk>(loader: &str, pts: &[Point<2>], disk: Dk, pool: usize) -> Dk {
            let cfg = RTreeConfig::with_max_fanout(10);
            let core = match loader {
                "build_str" => {
                    let tree = PagedTree::build_str(pts, cfg, disk, RetryPolicy::none(), pool);
                    return tree.unwrap().store.into_disk();
                }
                "str" => str_pack(pts, cfg),
                "hilbert" => hilbert_pack(pts, cfg),
                _ => omt_pack(pts, cfg),
            };
            let tree = PagedTree::from_core(&core, disk, RetryPolicy::none(), pool);
            tree.unwrap().store.into_disk()
        }
        let pts = scatter(3000);
        let path = temp_pages("identity");
        for loader in ["build_str", "str", "hilbert", "omt"] {
            let reference = disk_bytes(build(loader, &pts, SimulatedDisk::new(), 4096));
            assert!(reference.len() > 300 * PAGE_SIZE, "{loader}: several runs of pages");
            for pool in [2, 7, 4096] {
                let sim = disk_bytes(build(loader, &pts, SimulatedDisk::new(), pool));
                assert!(sim == reference, "{loader}: simulated file differs at pool {pool}");
                drop(build(loader, &pts, FileDisk::create(&path).unwrap(), pool));
                let file = std::fs::read(&path).unwrap();
                assert!(file == reference, "{loader}: page file differs at pool {pool}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// With the whole tree in the pool, the build reaches the disk in
    /// runs of up to `RUN_PAGES` pages: one `write_run` per run plus the
    /// superblock, not one write per page.
    #[test]
    fn build_writes_pages_in_runs() {
        let pts = scatter(20_000);
        let tree = PagedTree::build_str(
            &pts,
            RTreeConfig::default(),
            FlakyDisk::default(),
            RetryPolicy::none(),
            4096,
        )
        .unwrap();
        let pages = tree.meta().node_pages;
        let disk = tree.store.into_disk();
        assert_eq!(Disk::writes(&disk), pages + 1, "every page is written once");
        assert!(
            disk.write_calls <= pages.div_ceil(RUN_PAGES as u64) + 2,
            "{} write calls for {pages} node pages",
            disk.write_calls
        );
    }

    /// Periodic write faults on a real page file are absorbed by
    /// retrying whole runs: the build succeeds and writes the fault-free
    /// file. The 4-page pool keeps every run shorter than the fault
    /// period; a run of `n` or more pages would meet a fault on every
    /// attempt under `fail_every(n)`.
    #[test]
    fn build_on_a_faulty_file_disk_matches_the_fault_free_file() {
        use csj_storage::FileDisk;
        let pts = scatter(2000);
        let cfg = RTreeConfig::with_max_fanout(10);
        let clean_path = temp_pages("fault_free");
        let faulty_path = temp_pages("faulty");
        let clean = FileDisk::create(&clean_path).unwrap();
        drop(PagedTree::build_str(&pts, cfg, clean, RetryPolicy::none(), 4).unwrap());
        let faulty = FileDisk::with_faults(&faulty_path, FaultPolicy::fail_every(5)).unwrap();
        let tree = PagedTree::build_str(&pts, cfg, faulty, RetryPolicy::no_backoff(3), 4).unwrap();
        let stats = tree.stats();
        assert!(stats.faults_injected > 0 && stats.io_retries > 0, "{stats:?}");
        drop(tree);
        let (clean, faulty) = (std::fs::read(&clean_path), std::fs::read(&faulty_path));
        assert!(faulty.unwrap() == clean.unwrap(), "the faulty build wrote a different file");
        std::fs::remove_file(&clean_path).ok();
        std::fs::remove_file(&faulty_path).ok();
    }
}
