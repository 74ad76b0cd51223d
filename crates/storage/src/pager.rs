//! A simulated disk with fault injection, and a retrying pager on top.
//!
//! [`SimulatedDisk`] is a flat page store with access counters; its
//! reads and writes are fallible, driven by an optional
//! [`FaultPolicy`]. [`RetryPager`] wraps the disk with bounded
//! retry-with-backoff, so transient faults (the kind a real device
//! reports sporadically) are absorbed and *counted* rather than
//! propagated, while persistent failures surface as
//! [`StorageError::RetriesExhausted`].

use std::time::Duration;

use crate::disk::Disk;
use crate::error::{IoOp, StorageError};
use crate::fault::{FaultInjector, FaultPolicy};
use crate::page::{Page, PageId, PAGE_SIZE};

/// An in-memory stand-in for a disk file, counting physical reads and
/// writes. The buffer pool sits on top of this.
#[derive(Debug, Default)]
pub struct SimulatedDisk {
    pages: Vec<Vec<u8>>,
    faults: FaultInjector,
    /// Number of physical page read attempts (including faulted ones).
    pub reads: u64,
    /// Number of physical page write attempts (including faulted ones).
    pub writes: u64,
}

impl SimulatedDisk {
    /// An empty, fault-free disk.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty disk whose operations fail per `policy`.
    pub fn with_faults(policy: FaultPolicy) -> Self {
        SimulatedDisk { faults: FaultInjector::new(policy), ..Self::default() }
    }

    /// Allocates a fresh zeroed page, returning its id.
    pub fn alloc(&mut self) -> PageId {
        let id = PageId(self.pages.len() as u64);
        self.pages.push(vec![0; PAGE_SIZE]);
        id
    }

    /// Allocates zeroed pages until `id` is addressable.
    pub fn alloc_through(&mut self, id: PageId) {
        while self.pages.len() <= id.0 as usize {
            self.pages.push(vec![0; PAGE_SIZE]);
        }
    }

    /// Number of allocated pages.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Faults injected so far (0 on a fault-free disk).
    pub fn faults_injected(&self) -> u64 {
        self.faults.faults_injected()
    }

    /// Physically reads a page (counted, fault-checked).
    ///
    /// # Errors
    /// Returns [`StorageError::FaultInjected`] when the injector fails
    /// this read and [`StorageError::PageOutOfBounds`] for an invalid
    /// page id.
    pub fn read(&mut self, id: PageId) -> Result<Page, StorageError> {
        self.reads += 1;
        self.faults.before_read()?;
        let data = self
            .pages
            .get(id.0 as usize)
            .ok_or(StorageError::PageOutOfBounds { page: id.0, pages: self.pages.len() as u64 })?;
        Ok(Page { id, data: data.clone() })
    }

    /// Physically reads a page into `buf` ([`PAGE_SIZE`] bytes), without
    /// allocating (counted, fault-checked).
    ///
    /// # Errors
    /// As [`SimulatedDisk::read`].
    pub fn read_into(&mut self, id: PageId, buf: &mut [u8]) -> Result<(), StorageError> {
        self.reads += 1;
        self.faults.before_read()?;
        let data = self
            .pages
            .get(id.0 as usize)
            .ok_or(StorageError::PageOutOfBounds { page: id.0, pages: self.pages.len() as u64 })?;
        let n = buf.len().min(data.len());
        buf[..n].copy_from_slice(&data[..n]);
        Ok(())
    }

    /// Physically writes a page (counted, fault-checked).
    ///
    /// # Errors
    /// Returns [`StorageError::FaultInjected`] when the injector fails
    /// this write and [`StorageError::PageOutOfBounds`] for an invalid
    /// page id.
    pub fn write(&mut self, page: &Page) -> Result<(), StorageError> {
        self.writes += 1;
        self.faults.before_write()?;
        let slot = self
            .pages
            .get_mut(page.id.0 as usize)
            .ok_or(StorageError::PageOutOfBounds { page: page.id.0, pages: 0 })?;
        slot.clear();
        slot.extend_from_slice(&page.data);
        slot.resize(PAGE_SIZE, 0);
        Ok(())
    }
}

/// The simulation behind the shared device contract: the trait methods
/// delegate to the inherent ones (which existing direct callers keep
/// using), with the infallible allocators wrapped in `Ok` and `sync` a
/// no-op — RAM is as durable as a simulation gets.
impl Disk for SimulatedDisk {
    fn num_pages(&self) -> u64 {
        self.pages.len() as u64
    }

    fn alloc(&mut self) -> Result<PageId, StorageError> {
        Ok(SimulatedDisk::alloc(self))
    }

    fn alloc_through(&mut self, id: PageId) -> Result<(), StorageError> {
        SimulatedDisk::alloc_through(self, id);
        Ok(())
    }

    fn read(&mut self, id: PageId) -> Result<Page, StorageError> {
        SimulatedDisk::read(self, id)
    }

    fn read_into(&mut self, id: PageId, buf: &mut [u8]) -> Result<(), StorageError> {
        SimulatedDisk::read_into(self, id, buf)
    }

    fn write(&mut self, page: &Page) -> Result<(), StorageError> {
        SimulatedDisk::write(self, page)
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        Ok(())
    }

    fn reads(&self) -> u64 {
        self.reads
    }

    fn writes(&self) -> u64 {
        self.writes
    }

    fn faults_injected(&self) -> u64 {
        SimulatedDisk::faults_injected(self)
    }
}

/// How persistently to retry transient storage faults.
///
/// The sleep before retry `k` is `base_backoff · 2^(k−1)` capped at
/// `max_backoff`, plus a *deterministic* jitter in `[0, base_backoff]`
/// derived by hashing `jitter_seed`, the retry index and a caller salt.
/// Jitter de-synchronizes retry storms (many workers hammering the same
/// device back in lockstep) without sacrificing reproducibility: the
/// same seed and salt always yield the same schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation (first try + retries), at least 1.
    pub max_attempts: u32,
    /// Base of the exponential backoff; `ZERO` disables sleeping (and
    /// jitter) entirely.
    pub base_backoff: Duration,
    /// Upper bound on the exponential part of any single sleep.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter hash.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(10),
            jitter_seed: 0,
        }
    }
}

/// One round of the splitmix64 mixer: a full-period bijection on `u64`
/// whose output passes statistical tests — plenty for spreading retry
/// wake-ups, with no state to carry around.
fn splitmix64(index: u64) -> u64 {
    let mut z = index.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// A policy with `max_attempts` total attempts and no sleeping
    /// between them (deterministic tests).
    pub fn no_backoff(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            jitter_seed: 0,
        }
    }

    /// Fail-fast: a single attempt, no retries.
    pub fn none() -> Self {
        Self::no_backoff(1)
    }

    /// Replaces the jitter seed (builder style).
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// The sleep before retry `retry` (1-based): exponential in the
    /// retry index, capped at [`RetryPolicy::max_backoff`], plus
    /// deterministic jitter in `[0, base_backoff]` keyed by
    /// `jitter_seed`, `salt` and the retry index. Pure — callers (and
    /// tests) can inspect the whole schedule without sleeping.
    pub fn backoff_for(&self, retry: u32, salt: u64) -> Duration {
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let exponent = retry.saturating_sub(1).min(16);
        let exponential = self.base_backoff.saturating_mul(1u32 << exponent);
        let capped = exponential.min(self.max_backoff.max(self.base_backoff));
        let span_nanos = u64::try_from(self.base_backoff.as_nanos()).unwrap_or(u64::MAX);
        let hash = splitmix64(self.jitter_seed ^ salt ^ (u64::from(retry) << 48));
        capped + Duration::from_nanos(hash % span_nanos.saturating_add(1))
    }
}

/// A pager that absorbs transient disk faults with bounded
/// retry-with-backoff, keeping a retry counter for the join statistics.
///
/// Generic over the [`Disk`] backend; the default keeps the historical
/// `RetryPager` (over [`SimulatedDisk`]) spelling working, while the
/// out-of-core engine instantiates `RetryPager<FileDisk>`.
#[derive(Debug, Default)]
pub struct RetryPager<D: Disk = SimulatedDisk> {
    disk: D,
    policy: RetryPolicy,
    retries: u64,
}

impl<D: Disk> RetryPager<D> {
    /// Wraps `disk` with `policy`.
    pub fn new(disk: D, policy: RetryPolicy) -> Self {
        RetryPager { disk, policy, retries: 0 }
    }

    /// Retries performed so far (attempts beyond the first, successful
    /// or not).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// The wrapped disk.
    pub fn disk(&self) -> &D {
        &self.disk
    }

    /// The wrapped disk, mutably (e.g. to allocate pages).
    pub fn disk_mut(&mut self) -> &mut D {
        &mut self.disk
    }

    /// Consumes the pager, returning the wrapped disk.
    pub fn into_disk(self) -> D {
        self.disk
    }

    fn with_retries<T>(
        &mut self,
        op: IoOp,
        mut attempt: impl FnMut(&mut D) -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        let max = self.policy.max_attempts.max(1);
        let mut last = None;
        for k in 0..max {
            if k > 0 {
                self.retries += 1;
                // Salted by the cumulative retry count so consecutive
                // faulted operations spread apart instead of pulsing.
                let sleep = self.policy.backoff_for(k, self.retries);
                if !sleep.is_zero() {
                    std::thread::sleep(sleep);
                }
            }
            match attempt(&mut self.disk) {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() => last = Some(e),
                Err(e) => return Err(e), // deterministic: retrying is useless
            }
        }
        Err(StorageError::RetriesExhausted {
            op,
            attempts: max,
            cause: Box::new(last.unwrap_or(StorageError::EmptyGroupRow)),
        })
    }

    /// Reads a page, retrying transient faults per the policy.
    ///
    /// # Errors
    /// Returns [`StorageError::RetriesExhausted`] once transient faults
    /// outlast the retry policy, or the underlying error for
    /// non-retryable failures.
    pub fn read(&mut self, id: PageId) -> Result<Page, StorageError> {
        self.with_retries(IoOp::Read, |disk| disk.read(id))
    }

    /// Reads a page into `buf` ([`Disk::read_into`]), retrying transient
    /// faults per the policy.
    ///
    /// # Errors
    /// As [`RetryPager::read`].
    pub fn read_into(&mut self, id: PageId, buf: &mut [u8]) -> Result<(), StorageError> {
        self.with_retries(IoOp::Read, |disk| disk.read_into(id, buf))
    }

    /// Writes a page, retrying transient faults per the policy.
    ///
    /// # Errors
    /// Returns [`StorageError::RetriesExhausted`] once transient faults
    /// outlast the retry policy, or the underlying error for
    /// non-retryable failures.
    pub fn write(&mut self, page: &Page) -> Result<(), StorageError> {
        self.with_retries(IoOp::Write, |disk| disk.write(page))
    }

    /// Writes a run of consecutive pages ([`Disk::write_run`]),
    /// retrying a failed run whole: each page goes to a fixed position,
    /// so pages an earlier attempt already wrote are simply written
    /// again.
    ///
    /// # Errors
    /// Returns [`StorageError::RetriesExhausted`] once transient faults
    /// outlast the retry policy, or the underlying error for
    /// non-retryable failures.
    pub fn write_run(&mut self, first: PageId, bytes: &[u8]) -> Result<(), StorageError> {
        self.with_retries(IoOp::Write, |disk| disk.write_run(first, bytes))
    }

    /// Flushes the disk to durable storage, retrying transient faults.
    ///
    /// # Errors
    /// Returns [`StorageError::RetriesExhausted`] once transient faults
    /// outlast the retry policy, or the underlying error for
    /// non-retryable failures.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        self.with_retries(IoOp::Flush, Disk::sync)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_sequential_ids() {
        let mut d = SimulatedDisk::new();
        assert_eq!(d.alloc(), PageId(0));
        assert_eq!(d.alloc(), PageId(1));
        assert_eq!(d.num_pages(), 2);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut d = SimulatedDisk::new();
        let id = d.alloc();
        let mut page = Page::zeroed(id);
        page.data[0] = 0xAB;
        page.data[PAGE_SIZE - 1] = 0xCD;
        d.write(&page).unwrap();
        let back = d.read(id).unwrap();
        assert_eq!(back, page);
        assert_eq!(d.reads, 1);
        assert_eq!(d.writes, 1);
    }

    #[test]
    fn counters_accumulate() {
        let mut d = SimulatedDisk::new();
        let id = d.alloc();
        for _ in 0..5 {
            let _ = d.read(id).unwrap();
        }
        assert_eq!(d.reads, 5);
        assert_eq!(d.writes, 0);
    }

    #[test]
    fn out_of_bounds_read_is_an_error_not_a_panic() {
        let mut d = SimulatedDisk::new();
        let err = d.read(PageId(7)).unwrap_err();
        assert_eq!(err, StorageError::PageOutOfBounds { page: 7, pages: 0 });
    }

    #[test]
    fn faulty_disk_fails_every_third_read() {
        let mut d = SimulatedDisk::with_faults(FaultPolicy::fail_every_read(3));
        let id = d.alloc();
        let results: Vec<bool> = (0..6).map(|_| d.read(id).is_ok()).collect();
        assert_eq!(results, [true, true, false, true, true, false]);
        assert_eq!(d.faults_injected(), 2);
    }

    #[test]
    fn pager_absorbs_periodic_faults() {
        let disk = SimulatedDisk::with_faults(FaultPolicy::fail_every(3));
        let mut pager = RetryPager::new(disk, RetryPolicy::no_backoff(3));
        pager.disk_mut().alloc();
        for _ in 0..30 {
            pager.read(PageId(0)).expect("retry should absorb every 3rd-attempt fault");
        }
        assert!(pager.retries() > 0, "faults were hit and retried");
        assert!(pager.disk().faults_injected() >= 10);
    }

    #[test]
    fn pager_exhausts_retries_on_persistent_fault() {
        // fail_every(1): every attempt fails, so retries cannot save us.
        let disk = SimulatedDisk::with_faults(FaultPolicy::fail_every(1));
        let mut pager = RetryPager::new(disk, RetryPolicy::no_backoff(4));
        pager.disk_mut().alloc();
        let err = pager.read(PageId(0)).unwrap_err();
        match err {
            StorageError::RetriesExhausted { op: IoOp::Read, attempts: 4, cause } => {
                assert!(matches!(*cause, StorageError::FaultInjected { .. }));
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert_eq!(pager.retries(), 3, "three retries after the first attempt");
    }

    #[test]
    fn pager_does_not_retry_deterministic_errors() {
        let mut pager = RetryPager::new(SimulatedDisk::new(), RetryPolicy::no_backoff(5));
        let err = pager.read(PageId(42)).unwrap_err();
        assert!(matches!(err, StorageError::PageOutOfBounds { .. }));
        assert_eq!(pager.retries(), 0, "out-of-bounds is not transient");
    }

    #[test]
    fn backoff_schedule_is_exponential_capped_and_jittered() {
        let base = Duration::from_micros(100);
        let policy = RetryPolicy {
            max_attempts: 8,
            base_backoff: base,
            max_backoff: Duration::from_micros(400),
            jitter_seed: 7,
        };
        for retry in 1..8 {
            let exponential = base * (1 << (retry - 1)).min(4);
            let capped = exponential.min(Duration::from_micros(400));
            let sleep = policy.backoff_for(retry, 0);
            assert!(
                sleep >= capped && sleep <= capped + base,
                "retry {retry}: {sleep:?} outside [{capped:?}, {:?}]",
                capped + base
            );
        }
        // The exponential part saturates at max_backoff.
        assert!(policy.backoff_for(30, 0) <= Duration::from_micros(400) + base);
    }

    #[test]
    fn backoff_jitter_is_deterministic_and_salt_sensitive() {
        let policy = RetryPolicy::default().with_jitter_seed(42);
        assert_eq!(policy.backoff_for(2, 9), policy.backoff_for(2, 9), "pure function");
        let distinct: std::collections::BTreeSet<Duration> =
            (0..32).map(|salt| policy.backoff_for(2, salt)).collect();
        assert!(distinct.len() > 16, "salts must spread wake-ups, got {}", distinct.len());
    }

    #[test]
    fn zero_base_means_zero_sleep() {
        let policy = RetryPolicy::no_backoff(5);
        for retry in 1..5 {
            assert_eq!(policy.backoff_for(retry, retry as u64), Duration::ZERO);
        }
    }

    /// Satellite: the PR-1/PR-5 resilience story on a *real* file — a
    /// periodically faulting `FileDisk` behind the retrying pager
    /// round-trips every page, with the faults counted, absorbed and
    /// invisible in the data read back.
    #[test]
    fn pager_fault_roundtrip_over_a_temp_file() {
        use crate::disk::FileDisk;
        let path = std::env::temp_dir()
            .join(format!("csj_pager_fault_roundtrip_{}.pages", std::process::id()));
        let disk = FileDisk::with_faults(&path, FaultPolicy::fail_every(3)).unwrap();
        let mut pager = RetryPager::new(disk, RetryPolicy::no_backoff(3));
        let n = 12u64;
        for i in 0..n {
            let id = pager.disk_mut().alloc().unwrap();
            assert_eq!(id, PageId(i));
            let mut page = Page::zeroed(id);
            page.data[0] = i as u8;
            page.data[PAGE_SIZE - 1] = !(i as u8);
            pager.write(&page).expect("retries absorb every 3rd-attempt fault");
        }
        pager.sync().expect("fsync with retry");
        for i in (0..n).rev() {
            let page = pager.read(PageId(i)).expect("read with retry");
            assert_eq!(page.data[0], i as u8);
            assert_eq!(page.data[PAGE_SIZE - 1], !(i as u8));
        }
        assert!(pager.retries() > 0, "faults were hit and retried");
        assert!(pager.disk().faults_injected() > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pager_retries_a_failed_run_whole() {
        let disk = SimulatedDisk::with_faults(FaultPolicy::fail_every_write(3));
        let mut pager = RetryPager::new(disk, RetryPolicy::no_backoff(2));
        pager.disk_mut().alloc_through(PageId(1));
        pager.write_run(PageId(0), &[vec![1; PAGE_SIZE], vec![2; PAGE_SIZE]].concat()).unwrap();
        // Write #3, this run's first page, faults; the retry rewrites both.
        pager.write_run(PageId(0), &[vec![3; PAGE_SIZE], vec![4; PAGE_SIZE]].concat()).unwrap();
        assert_eq!((pager.retries(), pager.disk().writes), (1, 5));
        assert_eq!(pager.read(PageId(0)).unwrap().data, vec![3; PAGE_SIZE]);
        assert_eq!(pager.read(PageId(1)).unwrap().data, vec![4; PAGE_SIZE]);
    }

    #[test]
    fn fail_once_recovers_with_a_single_retry() {
        let disk = SimulatedDisk::with_faults(FaultPolicy::fail_once());
        let mut pager = RetryPager::new(disk, RetryPolicy::no_backoff(2));
        pager.disk_mut().alloc();
        let mut page = Page::zeroed(PageId(0));
        page.data[0] = 7;
        pager.write(&page).expect("one retry suffices");
        assert_eq!(pager.retries(), 1);
        assert_eq!(pager.read(PageId(0)).unwrap().data[0], 7);
    }
}
