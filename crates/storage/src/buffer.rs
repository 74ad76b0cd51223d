//! An LRU buffer pool over page ids, with pinning, hit/miss accounting
//! and one payload per frame.
//!
//! Experiment 3 of the paper reports that "there is no significant
//! difference in the number of disk page and cache accesses between the
//! algorithms, regardless of the page and cache sizes". To reproduce that
//! claim we replay each join's node-access log (one tree node ≈ one page)
//! through this pool at several capacities and compare miss counts.
//!
//! The out-of-core engine uses the same pool *live*, as its frame table:
//! each frame owns a payload `T` (the paged store keeps the decoded node
//! and its dirty flag there), so one lookup finds both a page's
//! residency and its contents. Pages the traversal currently holds are
//! **pinned** (eviction skips them), and [`BufferPool::next_victim`]
//! names the frame the next miss evicts, so the paged store can write it
//! back, if dirty, before admitting the page that evicts it. A miss
//! reuses the victim's frame in place and hands its payload back to the
//! caller, so a full pool admits pages without allocating. When every
//! frame is pinned the pool reports [`StorageError::AllPagesPinned`]
//! instead of silently growing — the invariant that resident data never
//! exceeds `capacity` pages is what makes "memory bounded by the buffer
//! pool" true rather than aspirational.

use crate::error::StorageError;
use crate::page::PageId;

/// Hit/miss counters of a [`BufferPool`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Accesses served from the pool.
    pub hits: u64,
    /// Accesses that required a (simulated) physical read.
    pub misses: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
}

impl BufferStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of accesses that hit, in `[0, 1]`; 0 for no accesses.
    pub fn hit_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Outcome of admitting a page via [`BufferPool::try_access`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Admission {
    /// `true` when the page was already resident.
    pub hit: bool,
    /// The page evicted to make room, if any. A caller holding dirty
    /// frames writes the victim back *before* admitting; see
    /// [`BufferPool::next_victim`].
    pub evicted: Option<PageId>,
}

/// One frame of the slab LRU list.
#[derive(Debug)]
struct Slot<T> {
    page: PageId,
    prev: usize,
    next: usize,
    pins: u32,
    value: T,
}

/// A fixed-capacity LRU cache of page ids, with pin counts and one
/// payload per frame.
///
/// Constant-time access via an intrusive doubly-linked list over a slab
/// of frames, found through a dense table indexed by page id (4 bytes
/// per id up to the largest seen), so multi-million-access replay logs
/// are cheap to process. Frames are allocated lazily, up to capacity, and
/// a frame keeps its index while its page is resident. Pinned pages are
/// skipped by eviction (the traversal is holding a reference into them);
/// a fully pinned pool refuses admission instead of evicting.
#[derive(Debug)]
pub struct BufferPool<T = ()> {
    capacity: usize,
    stats: BufferStats,
    slots: Vec<Slot<T>>,
    /// Frame of each resident page id; [`NO_FRAME`] for the others.
    index: Vec<u32>,
    head: usize, // most recently used
    tail: usize, // least recently used
    pinned: usize,
}

const NIL: usize = usize::MAX;
const NO_FRAME: u32 = u32::MAX;

impl BufferPool {
    /// A pool holding at most `capacity` pages, with no payload: the
    /// replay pool. Panics if zero.
    pub fn new(capacity: usize) -> Self {
        Self::with_frames(capacity)
    }
}

impl<T> BufferPool<T> {
    /// A pool holding at most `capacity` pages, each frame with a `T`.
    /// Panics if zero.
    pub fn with_frames(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool capacity must be positive");
        BufferPool {
            capacity,
            stats: BufferStats::default(),
            slots: Vec::new(),
            index: Vec::new(),
            head: NIL,
            tail: NIL,
            pinned: 0,
        }
    }

    /// Pool capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of cached pages.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of currently pinned pages (pages with pin count > 0).
    pub fn pinned(&self) -> usize {
        self.pinned
    }

    /// The frame holding `page`, if resident. Records no access.
    #[inline]
    pub fn frame_of(&self, page: PageId) -> Option<usize> {
        let i = usize::try_from(page.0).ok()?;
        match self.index.get(i) {
            Some(&f) if f != NO_FRAME => Some(f as usize),
            _ => None,
        }
    }

    /// `true` if `page` is resident.
    #[inline]
    pub fn contains(&self, page: PageId) -> bool {
        self.frame_of(page).is_some()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// The payload of frame `frame` (from [`BufferPool::lookup`],
    /// [`BufferPool::admit`] or [`BufferPool::frame_of`]).
    ///
    /// # Panics
    /// Panics if `frame` is not a frame of this pool.
    #[inline]
    pub fn value(&self, frame: usize) -> &T {
        &self.slots[frame].value
    }

    /// The payload of frame `frame`, mutably.
    ///
    /// # Panics
    /// Panics if `frame` is not a frame of this pool.
    #[inline]
    pub fn value_mut(&mut self, frame: usize) -> &mut T {
        &mut self.slots[frame].value
    }

    /// Every resident page with its payload, in frame order.
    pub fn frames(&self) -> impl Iterator<Item = (PageId, &T)> {
        self.slots.iter().map(|s| (s.page, &s.value))
    }

    /// The page the next miss would evict: `None` while the pool has a
    /// free frame or when every frame is pinned. Lets a caller write a
    /// dirty victim back *before* admitting the page that evicts it.
    pub fn next_victim(&self) -> Option<PageId> {
        if self.slots.len() < self.capacity {
            return None;
        }
        self.evictable_victim().map(|slot| self.slots[slot].page)
    }

    /// Records an access to a resident `page`: counts a hit, marks it
    /// most recently used, and returns its frame. `None` (nothing
    /// recorded) when the page is not resident.
    #[inline]
    pub fn lookup(&mut self, page: PageId) -> Option<usize> {
        let frame = self.frame_of(page)?;
        self.stats.hits += 1;
        self.move_to_front(frame);
        Some(frame)
    }

    /// Admits a page that is not resident with payload `value`, counting
    /// a miss. In a full pool the least-recently-used *unpinned* frame is
    /// reused in place: its page and payload are returned, so the caller
    /// can recycle the payload. The new page is most recently used.
    ///
    /// # Errors
    /// Returns [`StorageError::AllPagesPinned`] when the pool is full
    /// and no frame is evictable; nothing is recorded, the pool is
    /// unchanged, and `value` is dropped.
    ///
    /// # Panics
    /// Panics (in debug builds) if `page` is already resident.
    pub fn admit(
        &mut self,
        page: PageId,
        value: T,
    ) -> Result<(usize, Option<(PageId, T)>), StorageError> {
        debug_assert!(!self.contains(page), "admitting a resident page");
        let page_index = usize::try_from(page.0).unwrap_or(usize::MAX);
        let (frame, evicted) = if self.slots.len() < self.capacity {
            let frame = self.slots.len();
            self.slots.push(Slot { page, prev: NIL, next: NIL, pins: 0, value });
            (frame, None)
        } else {
            let frame = self
                .evictable_victim()
                .ok_or(StorageError::AllPagesPinned { capacity: self.capacity })?;
            self.unlink(frame);
            let slot = &mut self.slots[frame];
            debug_assert_eq!(slot.pins, 0, "evicting a pinned page");
            let old_page = std::mem::replace(&mut slot.page, page);
            let old_value = std::mem::replace(&mut slot.value, value);
            if let Some(entry) =
                usize::try_from(old_page.0).ok().and_then(|i| self.index.get_mut(i))
            {
                *entry = NO_FRAME;
            }
            self.stats.evictions += 1;
            (frame, Some((old_page, old_value)))
        };
        if self.index.len() <= page_index {
            self.index.resize(page_index + 1, NO_FRAME);
        }
        self.index[page_index] = frame as u32;
        self.link_front(frame);
        self.stats.misses += 1;
        Ok((frame, evicted))
    }

    /// Records an access to `page`, returning `true` on a hit. On a miss
    /// the page is brought in, evicting the least-recently-used page if
    /// the pool is full.
    ///
    /// # Panics
    /// Panics when the pool is full and every page is pinned. Pin-aware
    /// callers use [`BufferPool::try_access`]; this convenience wrapper
    /// exists for replay workloads that never pin.
    pub fn access(&mut self, page: PageId) -> bool
    where
        T: Default,
    {
        match self.try_access(page) {
            Ok(adm) => adm.hit,
            Err(_) => unreachable!("access() on a fully pinned pool; use try_access()"),
        }
    }

    /// Records an access to `page`. On a miss the page is admitted with
    /// a default payload, evicting the least-recently-used *unpinned*
    /// page if the pool is full; the evicted id is reported so the
    /// caller can drop what it kept for that frame.
    ///
    /// # Errors
    /// Returns [`StorageError::AllPagesPinned`] when the pool is full
    /// and no frame is evictable; the access is not recorded and the
    /// pool is unchanged.
    pub fn try_access(&mut self, page: PageId) -> Result<Admission, StorageError>
    where
        T: Default,
    {
        if self.lookup(page).is_some() {
            return Ok(Admission { hit: true, evicted: None });
        }
        let (_, evicted) = self.admit(page, T::default())?;
        Ok(Admission { hit: false, evicted: evicted.map(|(p, _)| p) })
    }

    /// Pins a resident page (incrementing its pin count), returning
    /// `false` if the page is not resident. Pinned pages are never
    /// evicted; every `pin` must be paired with an
    /// [`BufferPool::unpin`].
    pub fn pin(&mut self, page: PageId) -> bool {
        let Some(frame) = self.frame_of(page) else { return false };
        let slot = &mut self.slots[frame];
        if slot.pins == 0 {
            self.pinned += 1;
        }
        slot.pins += 1;
        true
    }

    /// Releases one pin on `page`, returning `false` if the page is not
    /// resident or not pinned.
    pub fn unpin(&mut self, page: PageId) -> bool {
        let Some(frame) = self.frame_of(page) else { return false };
        let slot = &mut self.slots[frame];
        if slot.pins == 0 {
            return false;
        }
        slot.pins -= 1;
        if slot.pins == 0 {
            self.pinned -= 1;
        }
        true
    }

    /// The least-recently-used unpinned slot, or `None` if every
    /// resident page is pinned.
    fn evictable_victim(&self) -> Option<usize> {
        if self.pinned == self.slots.len() {
            return None;
        }
        let mut cur = self.tail;
        while cur != NIL {
            if self.slots[cur].pins == 0 {
                return Some(cur);
            }
            cur = self.slots[cur].prev;
        }
        None
    }

    fn move_to_front(&mut self, slot: usize) {
        if self.head != slot {
            self.unlink(slot);
            self.link_front(slot);
        }
    }

    /// Takes `slot` out of the recency list.
    fn unlink(&mut self, slot: usize) {
        let Slot { prev, next, .. } = self.slots[slot];
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Puts an unlinked `slot` at the most-recently-used end.
    fn link_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    /// Replays a sequence of page accesses, returning the final stats.
    pub fn replay(&mut self, accesses: impl IntoIterator<Item = PageId>) -> BufferStats
    where
        T: Default,
    {
        for p in accesses {
            self.access(p);
        }
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u64) -> PageId {
        PageId(i)
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut pool = BufferPool::new(4);
        assert!(!pool.access(p(1)));
        assert!(pool.access(p(1)));
        assert_eq!(pool.stats(), BufferStats { hits: 1, misses: 1, evictions: 0 });
    }

    #[test]
    fn next_victim_names_the_page_a_miss_evicts() {
        let mut pool = BufferPool::new(2);
        pool.access(p(1));
        assert_eq!(pool.next_victim(), None, "a free frame evicts nothing");
        pool.access(p(2));
        assert_eq!(pool.next_victim(), Some(p(1)));
        pool.pin(p(1));
        assert_eq!(pool.next_victim(), Some(p(2)), "pinned pages are skipped");
        pool.pin(p(2));
        assert_eq!(pool.next_victim(), None, "a fully pinned pool evicts nothing");
        pool.unpin(p(1));
        let adm = pool.try_access(p(3)).unwrap();
        assert_eq!(adm.evicted, Some(p(1)));
    }

    #[test]
    fn lru_eviction_order() {
        let mut pool = BufferPool::new(2);
        pool.access(p(1));
        pool.access(p(2));
        pool.access(p(3)); // evicts 1
        assert!(!pool.access(p(1)), "1 was evicted");
        // Accessing 1 evicted 2 (LRU after the miss on 3 put 3 at front).
        assert!(!pool.access(p(2)));
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn touching_refreshes_recency() {
        let mut pool = BufferPool::new(2);
        pool.access(p(1));
        pool.access(p(2));
        pool.access(p(1)); // 1 now MRU, 2 is LRU
        pool.access(p(3)); // evicts 2
        assert!(pool.access(p(1)), "1 must have survived");
        assert_eq!(pool.stats().evictions, 1);
    }

    #[test]
    fn capacity_one() {
        let mut pool = BufferPool::new(1);
        assert!(!pool.access(p(1)));
        assert!(pool.access(p(1)));
        assert!(!pool.access(p(2)));
        assert!(!pool.access(p(1)));
        assert_eq!(pool.stats().evictions, 2);
    }

    #[test]
    fn replay_and_hit_rate() {
        let mut pool = BufferPool::new(8);
        let log: Vec<PageId> = (0..100).map(|i| p(i % 4)).collect();
        let stats = pool.replay(log);
        assert_eq!(stats.misses, 4, "working set fits: only cold misses");
        assert_eq!(stats.hits, 96);
        assert!((stats.hit_rate() - 0.96).abs() < 1e-12);
    }

    #[test]
    fn sequential_scan_thrashes_small_pool() {
        let mut pool = BufferPool::new(4);
        // Cyclic scan over 8 pages with LRU: every access misses.
        for _ in 0..3 {
            for i in 0..8 {
                pool.access(p(i));
            }
        }
        assert_eq!(pool.stats().hits, 0);
        assert_eq!(pool.stats().misses, 24);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = BufferPool::new(0);
    }

    #[test]
    fn pinned_page_survives_eviction_pressure() {
        let mut pool = BufferPool::new(2);
        pool.access(p(1));
        assert!(pool.pin(p(1)));
        pool.access(p(2)); // 1 pinned, 2 unpinned; 1 is the LRU
                           // A third page must evict 2 (the unpinned one), not 1.
        let adm = pool.try_access(p(3)).unwrap();
        assert_eq!(adm, Admission { hit: false, evicted: Some(p(2)) });
        assert!(pool.contains(p(1)), "pinned page never evicted");
        // Even repeated pressure: 1 stays while 3 and 4 churn.
        let adm = pool.try_access(p(4)).unwrap();
        assert_eq!(adm.evicted, Some(p(3)));
        assert!(pool.contains(p(1)));
        assert_eq!(pool.pinned(), 1);
    }

    #[test]
    fn all_pages_pinned_is_an_error_not_an_eviction() {
        let mut pool = BufferPool::new(2);
        pool.access(p(1));
        pool.access(p(2));
        assert!(pool.pin(p(1)));
        assert!(pool.pin(p(2)));
        let err = pool.try_access(p(3)).unwrap_err();
        assert_eq!(err, StorageError::AllPagesPinned { capacity: 2 });
        assert!(!err.is_transient(), "retrying cannot release a pin");
        // The failed admission left the pool untouched.
        assert_eq!(pool.len(), 2);
        assert!(pool.contains(p(1)) && pool.contains(p(2)));
        // Releasing one pin makes the same admission succeed.
        assert!(pool.unpin(p(2)));
        let adm = pool.try_access(p(3)).unwrap();
        assert_eq!(adm, Admission { hit: false, evicted: Some(p(2)) });
    }

    #[test]
    fn pin_counts_nest() {
        let mut pool = BufferPool::new(1);
        pool.access(p(7));
        assert!(pool.pin(p(7)));
        assert!(pool.pin(p(7)), "second pin on the same page");
        assert_eq!(pool.pinned(), 1, "pinned() counts pages, not pins");
        assert!(pool.unpin(p(7)));
        // Still pinned once: eviction still refused.
        assert!(pool.try_access(p(8)).is_err());
        assert!(pool.unpin(p(7)));
        assert!(!pool.unpin(p(7)), "pin count exhausted");
        assert!(pool.try_access(p(8)).is_ok(), "fully unpinned page is evictable");
    }

    #[test]
    fn frames_keep_their_payload_and_a_miss_recycles_the_victim() {
        let mut pool: BufferPool<Vec<u32>> = BufferPool::with_frames(2);
        let (fa, _) = pool.admit(p(1), vec![1]).unwrap();
        let (fb, _) = pool.admit(p(2), vec![2]).unwrap();
        assert_eq!(pool.lookup(p(1)), Some(fa), "a hit returns the page's frame");
        assert_eq!(pool.value(fb), &[2]);
        pool.value_mut(fb).push(20);
        // Page 2 is now the LRU: page 3 reuses its frame and hands back
        // its payload.
        let (fc, evicted) = pool.admit(p(3), vec![3]).unwrap();
        assert_eq!((fc, evicted), (fb, Some((p(2), vec![2, 20]))));
        assert_eq!(pool.frame_of(p(2)), None);
        assert_eq!(pool.stats(), BufferStats { hits: 1, misses: 3, evictions: 1 });
        // A failed admission drops nothing the pool holds.
        assert!(pool.pin(p(1)) && pool.pin(p(3)));
        assert!(pool.admit(p(4), vec![4]).is_err());
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.value(fa), &[1]);
        assert!(pool.unpin(p(3)) && !pool.unpin(p(3)));
        assert_eq!(pool.frame_of(p(3)), Some(fc));
        // Page 1, unpinned, is now the LRU.
        assert!(pool.unpin(p(1)));
        let (_, evicted) = pool.admit(p(5), Vec::new()).unwrap();
        assert_eq!(evicted.map(|(page, _)| page), Some(p(1)));
        let mut resident: Vec<PageId> = pool.frames().map(|(page, _)| page).collect();
        resident.sort_unstable();
        assert_eq!(resident, [p(3), p(5)]);
    }

    #[test]
    fn pinning_absent_pages_is_refused() {
        let mut pool = BufferPool::new(2);
        assert!(!pool.pin(p(9)), "cannot pin what is not resident");
        assert!(!pool.unpin(p(9)));
        pool.access(p(1));
        assert_eq!(pool.pinned(), 0);
    }

    #[test]
    fn eviction_skips_pinned_lru_for_next_unpinned() {
        let mut pool = BufferPool::new(3);
        pool.access(p(1));
        pool.access(p(2));
        pool.access(p(3));
        // LRU order (old→new): 1, 2, 3. Pin the two oldest.
        assert!(pool.pin(p(1)));
        assert!(pool.pin(p(2)));
        let adm = pool.try_access(p(4)).unwrap();
        assert_eq!(adm.evicted, Some(p(3)), "skipped pinned 1 and 2");
        assert!(pool.contains(p(1)) && pool.contains(p(2)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// Reference LRU with pins: a VecDeque scanned linearly.
    struct NaiveLru {
        cap: usize,
        deque: VecDeque<(PageId, u32)>, // front = MRU
    }

    impl NaiveLru {
        fn access(&mut self, page: PageId) -> Result<bool, ()> {
            if let Some(pos) = self.deque.iter().position(|&(x, _)| x == page) {
                let entry = self.deque.remove(pos).ok_or(())?;
                self.deque.push_front(entry);
                Ok(true)
            } else {
                if self.deque.len() == self.cap {
                    // Evict the rearmost unpinned entry.
                    let victim = self.deque.iter().rposition(|&(_, pins)| pins == 0).ok_or(())?;
                    self.deque.remove(victim);
                }
                self.deque.push_front((page, 0));
                Ok(false)
            }
        }

        fn pin(&mut self, page: PageId) -> bool {
            match self.deque.iter_mut().find(|(x, _)| *x == page) {
                Some((_, pins)) => {
                    *pins += 1;
                    true
                }
                None => false,
            }
        }

        fn unpin(&mut self, page: PageId) -> bool {
            match self.deque.iter_mut().find(|(x, _)| *x == page) {
                Some((_, pins)) if *pins > 0 => {
                    *pins -= 1;
                    true
                }
                _ => false,
            }
        }
    }

    proptest! {
        /// The slab LRU behaves exactly like the naive reference on
        /// arbitrary access sequences and capacities.
        #[test]
        fn matches_naive_lru(
            accesses in prop::collection::vec(0u64..20, 1..500),
            cap in 1usize..12,
        ) {
            let mut pool = BufferPool::new(cap);
            let mut naive = NaiveLru { cap, deque: VecDeque::new() };
            for a in accesses {
                let got = pool.access(PageId(a));
                let want = naive.access(PageId(a)).unwrap();
                prop_assert_eq!(got, want, "divergence on page {}", a);
                prop_assert_eq!(pool.len(), naive.deque.len());
            }
        }

        /// With interleaved pin/unpin/access operations, the slab LRU
        /// and the naive reference agree on hits, residency, eviction
        /// victims and pin-exhaustion errors.
        #[test]
        fn matches_naive_lru_with_pins(
            ops in prop::collection::vec((0u8..4, 0u64..12), 1..400),
            cap in 1usize..8,
        ) {
            let mut pool = BufferPool::new(cap);
            let mut naive = NaiveLru { cap, deque: VecDeque::new() };
            for (op, page) in ops {
                let page = PageId(page);
                match op {
                    0 | 1 => {
                        let got = pool.try_access(page);
                        let want = naive.access(page);
                        match (got, want) {
                            (Ok(adm), Ok(hit)) => prop_assert_eq!(adm.hit, hit),
                            (Err(e), Err(())) => prop_assert_eq!(
                                e, StorageError::AllPagesPinned { capacity: cap }
                            ),
                            (got, want) => prop_assert!(
                                false, "divergence on {:?}: {:?} vs {:?}", page, got, want
                            ),
                        }
                    }
                    2 => prop_assert_eq!(pool.pin(page), naive.pin(page)),
                    _ => prop_assert_eq!(pool.unpin(page), naive.unpin(page)),
                }
                prop_assert_eq!(pool.len(), naive.deque.len());
                prop_assert_eq!(
                    pool.pinned(),
                    naive.deque.iter().filter(|&&(_, pins)| pins > 0).count()
                );
            }
        }
    }
}
