//! The physical page-device abstraction: simulated or a real file.
//!
//! [`Disk`] is the contract the buffer pool, the retrying pager and the
//! paged index store are written against. Two implementations exist:
//!
//! * [`crate::SimulatedDisk`] — the in-memory page store used by the
//!   Experiment-3 replay harness and by deterministic tests;
//! * [`FileDisk`] — a real page file: page-aligned positional reads of
//!   one page and writes of whole runs of pages through page-aligned
//!   buffers (`O_DIRECT` where the platform and filesystem accept it,
//!   buffered I/O otherwise), with `fsync` on [`Disk::sync`] so a
//!   checkpoint survives a crash.
//!
//! Both run every operation through the same [`FaultInjector`] gates as
//! the simulation, so the PR-1/PR-5 resilience story — deterministic
//! fault drills absorbed by bounded retry — holds on real files too.
//! `FileDisk` additionally absorbs the faults a real kernel serves up
//! on its own: `EINTR` restarts the syscall, and partial reads/writes
//! resume where they stopped instead of failing the page.

use std::fs::File;
use std::path::{Path, PathBuf};

use crate::error::{IoOp, StorageError};
use crate::fault::{FaultInjector, FaultPolicy};
use crate::page::{Page, PageId, PAGE_SIZE};

/// The longest run of consecutive pages written with one positioned
/// write: 64 pages, 512 KiB. A paged store coalesces its dirty pages
/// into runs of at most this many, and [`FileDisk`] sizes its write
/// buffer to it.
pub const RUN_PAGES: usize = 64;

/// A device storing fixed-size pages addressed by [`PageId`].
///
/// Reads and writes are fallible and *counted*; allocation grows the
/// device; [`Disk::sync`] makes previous writes durable. Implementations
/// gate every operation through a [`FaultInjector`] so resilience tests
/// can drive the full read/retry/recover path on any backend.
pub trait Disk {
    /// Number of allocated pages.
    fn num_pages(&self) -> u64;

    /// Allocates a fresh zeroed page, returning its id.
    ///
    /// # Errors
    /// Returns [`StorageError::Io`] when growing the backing store
    /// fails (real files only).
    fn alloc(&mut self) -> Result<PageId, StorageError>;

    /// Allocates zeroed pages until `id` is addressable.
    ///
    /// # Errors
    /// Returns [`StorageError::Io`] when growing the backing store
    /// fails (real files only).
    fn alloc_through(&mut self, id: PageId) -> Result<(), StorageError>;

    /// Physically reads a page (counted, fault-checked).
    ///
    /// # Errors
    /// Returns [`StorageError::FaultInjected`] for injected faults,
    /// [`StorageError::PageOutOfBounds`] for an invalid id,
    /// [`StorageError::ShortRead`] when the backing store is truncated
    /// and [`StorageError::Io`] for OS failures.
    fn read(&mut self, id: PageId) -> Result<Page, StorageError>;

    /// Physically reads a page into `buf`, which is [`PAGE_SIZE`] bytes
    /// long: [`Disk::read`] without allocating the page. Counted and
    /// fault-checked like a `read`; on error `buf` holds unspecified
    /// bytes.
    ///
    /// The default copies the result of [`Disk::read`].
    ///
    /// # Errors
    /// As [`Disk::read`].
    fn read_into(&mut self, id: PageId, buf: &mut [u8]) -> Result<(), StorageError> {
        let page = self.read(id)?;
        let n = page.data.len().min(buf.len());
        buf[..n].copy_from_slice(&page.data[..n]);
        buf[n..].fill(0);
        Ok(())
    }

    /// Physically writes a page (counted, fault-checked).
    ///
    /// # Errors
    /// Returns [`StorageError::FaultInjected`] for injected faults,
    /// [`StorageError::PageOutOfBounds`] for an invalid id and
    /// [`StorageError::Io`] for OS failures.
    fn write(&mut self, page: &Page) -> Result<(), StorageError>;

    /// Physically writes `bytes` to the consecutive pages from `first`
    /// on, zero-padding the last one. Counted and fault-checked per
    /// page, like that many [`Disk::write`]s. A failed call may have
    /// written any part of the run; writing the whole run again is
    /// always safe, since every page goes to a fixed position.
    ///
    /// The default writes one page at a time with [`Disk::write`].
    ///
    /// # Errors
    /// As [`Disk::write`], for the first page that fails.
    fn write_run(&mut self, first: PageId, bytes: &[u8]) -> Result<(), StorageError> {
        for (i, chunk) in bytes.chunks(PAGE_SIZE).enumerate() {
            self.write(&Page::with_data(PageId(first.0 + i as u64), chunk.to_vec()))?;
        }
        Ok(())
    }

    /// Forces previous writes to durable storage (fsync on real files;
    /// a no-op on the simulation).
    ///
    /// # Errors
    /// Returns [`StorageError::Io`] when the flush fails.
    fn sync(&mut self) -> Result<(), StorageError>;

    /// Physical page read attempts so far (including faulted ones).
    fn reads(&self) -> u64;

    /// Physical page write attempts so far (including faulted ones).
    fn writes(&self) -> u64;

    /// Faults injected so far (0 on a fault-free device).
    fn faults_injected(&self) -> u64;
}

/// `O_DIRECT` wants the user buffer aligned to the logical block size;
/// 4096 covers every common device and matches the page size evenly.
const DIRECT_IO_ALIGN: usize = 4096;

/// A zeroed heap buffer of whole pages, aligned for direct I/O.
///
/// `Vec<u8>` guarantees only byte alignment, which `O_DIRECT` rejects;
/// this buffer is allocated at [`DIRECT_IO_ALIGN`] so the same read and
/// write paths serve both buffered and direct file handles. Its length
/// is fixed at allocation: `layout.size()`.
struct AlignedBuf {
    ptr: std::ptr::NonNull<u8>,
    layout: std::alloc::Layout,
}

// SAFETY: AlignedBuf exclusively owns its heap allocation (no aliasing,
// no interior mutability), so moving it to another thread is sound.
unsafe impl Send for AlignedBuf {}

impl AlignedBuf {
    /// A buffer of `pages` pages (at least one).
    fn new_zeroed(pages: usize) -> Self {
        let layout = std::alloc::Layout::from_size_align(pages.max(1) * PAGE_SIZE, DIRECT_IO_ALIGN)
            // csj-lint: allow(panic-safety) — callers pass 1 or RUN_PAGES
            // pages and DIRECT_IO_ALIGN is an in-crate constant; a bad
            // layout is a compile-time-shaped bug, not a runtime
            // condition to recover from.
            .expect("page layout is valid");
        // SAFETY: `layout` has non-zero size (at least one PAGE_SIZE page).
        let raw = unsafe { std::alloc::alloc_zeroed(layout) };
        let Some(ptr) = std::ptr::NonNull::new(raw) else {
            std::alloc::handle_alloc_error(layout);
        };
        AlignedBuf { ptr, layout }
    }

    fn as_slice(&self) -> &[u8] {
        // SAFETY: `ptr` points to a live allocation of `layout.size()`
        // bytes, initialized at construction and only ever written as
        // bytes.
        // csj-lint: allow(unsafe-bounds) — struct invariant: `ptr` is a
        // live `alloc_zeroed(layout)` allocation owned by this buffer
        // (freed only in Drop), and `layout` is never changed after it;
        // the length is not derivable from any dominating guard the
        // value-range analysis can see.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.layout.size()) }
    }

    fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: as in `as_slice`, plus `&mut self` guarantees
        // exclusive access for the lifetime of the returned slice.
        // csj-lint: allow(unsafe-bounds) — struct invariant, as in
        // `as_slice`: the `layout.size()` length is a fact of this
        // allocation, not a guard-provable one.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.layout.size()) }
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        // SAFETY: `ptr` was allocated with exactly this layout and is
        // freed exactly once (Drop).
        unsafe { std::alloc::dealloc(self.ptr.as_ptr(), self.layout) };
    }
}

impl std::fmt::Debug for AlignedBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AlignedBuf({} bytes @ {:?})", self.layout.size(), self.ptr)
    }
}

/// Linux `O_DIRECT` flag value (architecture-dependent).
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "x86")))]
const O_DIRECT: i32 = 0o40000;
#[cfg(all(target_os = "linux", any(target_arch = "aarch64", target_arch = "arm")))]
const O_DIRECT: i32 = 0o200000;

/// A real on-disk page file.
///
/// Pages live at offset `id · PAGE_SIZE`; the file length is always a
/// whole number of pages. Opening first attempts an `O_DIRECT` handle
/// (Linux; falls back silently where the filesystem refuses, e.g.
/// tmpfs), and all transfers go through aligned buffers so the direct
/// path and the buffered path share the same code: reads through a
/// one-page buffer, writes through a [`RUN_PAGES`]-page buffer that is
/// allocated on the first write, so a handle that only reads never
/// holds one.
#[derive(Debug)]
pub struct FileDisk {
    file: File,
    path: PathBuf,
    pages: u64,
    direct: bool,
    faults: FaultInjector,
    scratch: AlignedBuf,
    run_buf: Option<AlignedBuf>,
    reads: u64,
    writes: u64,
}

impl FileDisk {
    /// Creates (or truncates) a page file at `path`.
    ///
    /// # Errors
    /// Returns [`StorageError::Io`] when the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, StorageError> {
        Self::with_faults(path, FaultPolicy::none())
    }

    /// Creates (or truncates) a page file whose operations fail per
    /// `policy`.
    ///
    /// # Errors
    /// Returns [`StorageError::Io`] when the file cannot be created.
    pub fn with_faults(path: impl AsRef<Path>, policy: FaultPolicy) -> Result<Self, StorageError> {
        let path = path.as_ref();
        // Short-read injection truncates a syscall to an arbitrary
        // (misaligned) length, which a direct-I/O handle rejects with
        // EINVAL before the kernel even tries — the drill only makes
        // sense on a buffered handle, so force one.
        let force_buffered = policy.short_read_prefix.is_some();
        let (file, direct) = open_page_file(path, true, force_buffered)
            .map_err(|e| StorageError::io_at(IoOp::Write, path, &e))?;
        Ok(FileDisk {
            file,
            path: path.to_path_buf(),
            pages: 0,
            direct,
            faults: FaultInjector::new(policy),
            scratch: AlignedBuf::new_zeroed(1),
            run_buf: None,
            reads: 0,
            writes: 0,
        })
    }

    /// Opens an existing page file, recovering the page count from the
    /// file length.
    ///
    /// # Errors
    /// Returns [`StorageError::Io`] when the file cannot be opened or
    /// its length is not a whole number of pages (torn allocation).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StorageError> {
        let path = path.as_ref();
        let (file, direct) = open_page_file(path, false, false)
            .map_err(|e| StorageError::io_at(IoOp::Read, path, &e))?;
        let len = file.metadata().map_err(|e| StorageError::io_at(IoOp::Read, path, &e))?.len();
        if !len.is_multiple_of(PAGE_SIZE as u64) {
            return Err(StorageError::Io {
                op: IoOp::Read,
                detail: format!(
                    "{}: length {len} is not a whole number of {PAGE_SIZE}-byte pages",
                    path.display()
                ),
            });
        }
        Ok(FileDisk {
            file,
            path: path.to_path_buf(),
            pages: len / PAGE_SIZE as u64,
            direct,
            faults: FaultInjector::none(),
            scratch: AlignedBuf::new_zeroed(1),
            run_buf: None,
            reads: 0,
            writes: 0,
        })
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// `true` when the handle was opened `O_DIRECT` (page cache
    /// bypassed); `false` on filesystems that refused it.
    pub fn is_direct(&self) -> bool {
        self.direct
    }

    fn check_bounds(&self, id: PageId) -> Result<u64, StorageError> {
        if id.0 >= self.pages {
            return Err(StorageError::PageOutOfBounds { page: id.0, pages: self.pages });
        }
        Ok(id.0 * PAGE_SIZE as u64)
    }

    /// Fills `self.scratch` from the file at `offset`, restarting on
    /// `EINTR` and resuming after partial reads. An injected short read
    /// truncates the *first* syscall only — the resume loop absorbs it,
    /// which is exactly what it does for a real partial read.
    fn read_page_at(&mut self, offset: u64, id: PageId) -> Result<(), StorageError> {
        let mut filled = 0usize;
        let mut injected_cap = self.faults.short_read_len(PAGE_SIZE);
        while filled < PAGE_SIZE {
            let window = &mut self.scratch.as_mut_slice()[filled..];
            let cap = match injected_cap.take() {
                Some(c) => c.clamp(1, window.len()),
                None => window.len(),
            };
            match read_at(&mut self.file, &mut window[..cap], offset + filled as u64) {
                Ok(0) => {
                    return Err(StorageError::ShortRead {
                        page: id.0,
                        got: filled,
                        want: PAGE_SIZE,
                    })
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(StorageError::io_at(IoOp::Read, &self.path, &e)),
            }
        }
        Ok(())
    }

    /// Writes `pages` consecutive pages from `first` on: `bytes`, then
    /// zeros to the end of the last page. Each page passes the fault
    /// gate and is counted before anything is written; the data then
    /// goes out in one positioned write per [`RUN_PAGES`] pages.
    fn write_pages(
        &mut self,
        first: PageId,
        bytes: &[u8],
        pages: usize,
    ) -> Result<(), StorageError> {
        for _ in 0..pages {
            self.writes += 1;
            self.faults.before_write()?;
        }
        if pages == 0 {
            return Ok(());
        }
        let offset = self.check_bounds(first)?;
        self.check_bounds(PageId(first.0.saturating_add(pages as u64 - 1)))?;
        let buf = self.run_buf.get_or_insert_with(|| AlignedBuf::new_zeroed(RUN_PAGES));
        let mut done = 0usize;
        while done < pages {
            let len = (pages - done).min(RUN_PAGES) * PAGE_SIZE;
            let start = (done * PAGE_SIZE).min(bytes.len());
            let src = &bytes[start..bytes.len().min(start + len)];
            let out = &mut buf.as_mut_slice()[..len];
            out[..src.len()].copy_from_slice(src);
            out[src.len()..].fill(0);
            write_all_at(&mut self.file, &self.path, out, offset + (done * PAGE_SIZE) as u64)?;
            done += len / PAGE_SIZE;
        }
        Ok(())
    }
}

/// Writes all of `buf` to `file` at `offset`, restarting on `EINTR` and
/// resuming after partial writes.
fn write_all_at(file: &mut File, path: &Path, buf: &[u8], offset: u64) -> Result<(), StorageError> {
    let mut written = 0usize;
    while written < buf.len() {
        match write_at(file, &buf[written..], offset + written as u64) {
            Ok(0) => {
                return Err(StorageError::Io {
                    op: IoOp::Write,
                    detail: format!("{}: write returned 0 bytes", path.display()),
                })
            }
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(StorageError::io_at(IoOp::Write, path, &e)),
        }
    }
    Ok(())
}

impl Disk for FileDisk {
    fn num_pages(&self) -> u64 {
        self.pages
    }

    fn alloc(&mut self) -> Result<PageId, StorageError> {
        let id = PageId(self.pages);
        self.alloc_through(id)?;
        Ok(id)
    }

    fn alloc_through(&mut self, id: PageId) -> Result<(), StorageError> {
        if id.0 >= self.pages {
            self.pages = id.0 + 1;
            // set_len extends sparsely with zeros — a fresh page reads
            // back zeroed without any physical write.
            self.file
                .set_len(self.pages * PAGE_SIZE as u64)
                .map_err(|e| StorageError::io_at(IoOp::Write, &self.path, &e))?;
        }
        Ok(())
    }

    fn read(&mut self, id: PageId) -> Result<Page, StorageError> {
        let mut data = vec![0; PAGE_SIZE];
        self.read_into(id, &mut data)?;
        Ok(Page::with_data(id, data))
    }

    fn read_into(&mut self, id: PageId, buf: &mut [u8]) -> Result<(), StorageError> {
        self.reads += 1;
        self.faults.before_read()?;
        let offset = self.check_bounds(id)?;
        self.read_page_at(offset, id)?;
        let n = buf.len().min(PAGE_SIZE);
        buf[..n].copy_from_slice(&self.scratch.as_slice()[..n]);
        Ok(())
    }

    fn write(&mut self, page: &Page) -> Result<(), StorageError> {
        let n = page.data.len().min(PAGE_SIZE);
        self.write_pages(page.id, &page.data[..n], 1)
    }

    fn write_run(&mut self, first: PageId, bytes: &[u8]) -> Result<(), StorageError> {
        self.write_pages(first, bytes, bytes.len().div_ceil(PAGE_SIZE))
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        self.file.sync_all().map_err(|e| StorageError::io_at(IoOp::Flush, &self.path, &e))
    }

    fn reads(&self) -> u64 {
        self.reads
    }

    fn writes(&self) -> u64 {
        self.writes
    }

    fn faults_injected(&self) -> u64 {
        self.faults.faults_injected()
    }
}

/// Opens `path` read-write, preferring an `O_DIRECT` handle on Linux
/// and falling back to a buffered one where the filesystem refuses
/// (tmpfs, some network mounts) or the caller demands buffering
/// (`force_buffered`, used by short-read fault drills whose misaligned
/// syscalls direct I/O would reject). Returns the handle and whether
/// the direct flag stuck.
fn open_page_file(
    path: &Path,
    truncate: bool,
    force_buffered: bool,
) -> std::io::Result<(File, bool)> {
    let mut opts = std::fs::OpenOptions::new();
    opts.read(true).write(true).create(truncate).truncate(truncate);
    #[cfg(all(
        target_os = "linux",
        any(
            target_arch = "x86_64",
            target_arch = "x86",
            target_arch = "aarch64",
            target_arch = "arm"
        )
    ))]
    if !force_buffered {
        use std::os::unix::fs::OpenOptionsExt;
        let mut direct_opts = std::fs::OpenOptions::new();
        direct_opts.read(true).write(true).create(truncate).truncate(truncate);
        direct_opts.custom_flags(O_DIRECT);
        if let Ok(file) = direct_opts.open(path) {
            return Ok((file, true));
        }
    }
    #[cfg(not(all(
        target_os = "linux",
        any(
            target_arch = "x86_64",
            target_arch = "x86",
            target_arch = "aarch64",
            target_arch = "arm"
        )
    )))]
    let _ = force_buffered;
    opts.open(path).map(|f| (f, false))
}

#[cfg(unix)]
fn read_at(file: &mut File, buf: &mut [u8], offset: u64) -> std::io::Result<usize> {
    std::os::unix::fs::FileExt::read_at(&*file, buf, offset)
}

#[cfg(unix)]
fn write_at(file: &mut File, buf: &[u8], offset: u64) -> std::io::Result<usize> {
    std::os::unix::fs::FileExt::write_at(&*file, buf, offset)
}

#[cfg(not(unix))]
fn read_at(file: &mut File, buf: &mut [u8], offset: u64) -> std::io::Result<usize> {
    use std::io::{Read, Seek, SeekFrom};
    file.seek(SeekFrom::Start(offset))?;
    file.read(buf)
}

#[cfg(not(unix))]
fn write_at(file: &mut File, buf: &[u8], offset: u64) -> std::io::Result<usize> {
    use std::io::{Seek, SeekFrom, Write};
    file.seek(SeekFrom::Start(offset))?;
    file.write(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("csj_disk_{tag}_{}.pages", std::process::id()))
    }

    fn fill(byte: u8) -> Vec<u8> {
        vec![byte; PAGE_SIZE]
    }

    #[test]
    fn file_disk_roundtrip_and_reopen() {
        let path = temp_path("roundtrip");
        {
            let mut disk = FileDisk::create(&path).unwrap();
            for b in 0..5u8 {
                let id = disk.alloc().unwrap();
                disk.write(&Page::with_data(id, fill(b))).unwrap();
            }
            disk.sync().unwrap();
            assert_eq!(disk.num_pages(), 5);
            assert_eq!(disk.writes(), 5);
        }
        let mut disk = FileDisk::open(&path).unwrap();
        assert_eq!(disk.num_pages(), 5, "page count recovered from file length");
        for b in (0..5u8).rev() {
            let page = disk.read(PageId(b as u64)).unwrap();
            assert_eq!(page.data, fill(b), "page {b}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fresh_pages_read_back_zeroed() {
        let path = temp_path("zeroed");
        let mut disk = FileDisk::create(&path).unwrap();
        disk.alloc_through(PageId(7)).unwrap();
        assert_eq!(disk.num_pages(), 8);
        assert_eq!(disk.read(PageId(7)).unwrap().data, vec![0u8; PAGE_SIZE]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        let path = temp_path("oob");
        let mut disk = FileDisk::create(&path).unwrap();
        disk.alloc().unwrap();
        let err = disk.read(PageId(3)).unwrap_err();
        assert_eq!(err, StorageError::PageOutOfBounds { page: 3, pages: 1 });
        let err = disk.write(&Page::zeroed(PageId(9))).unwrap_err();
        assert_eq!(err, StorageError::PageOutOfBounds { page: 9, pages: 1 });
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn write_run_spans_buffers_and_gates_every_page() {
        let path = temp_path("run");
        let pages = RUN_PAGES + 3;
        let period = pages as u64 + 2;
        let mut disk = FileDisk::with_faults(&path, FaultPolicy::fail_every_write(period)).unwrap();
        disk.alloc_through(PageId(pages as u64)).unwrap();
        // Page i of the run holds byte i; the last page is half full.
        let mut bytes: Vec<u8> = (0..pages).flat_map(|i| fill(i as u8)).collect();
        bytes.truncate(bytes.len() - PAGE_SIZE / 2);
        disk.write_run(PageId(1), &bytes).unwrap();
        assert_eq!(disk.writes(), pages as u64, "a run counts one write per page");
        for i in 0..pages {
            let mut want = fill(i as u8);
            if i + 1 == pages {
                want[PAGE_SIZE / 2..].fill(0);
            }
            assert_eq!(disk.read(PageId(i as u64 + 1)).unwrap().data, want, "page {}", i + 1);
        }
        // The next run meets the fault on its second page's gate.
        let err = disk.write_run(PageId(1), &bytes[..3 * PAGE_SIZE]).unwrap_err();
        assert_eq!(err, StorageError::FaultInjected { op: IoOp::Write, seq: period });
        assert_eq!((disk.writes(), disk.faults_injected()), (period, 1));
        // A run past the last allocated page is rejected whole.
        let err = disk.write_run(PageId(pages as u64), &bytes[..2 * PAGE_SIZE]).unwrap_err();
        assert_eq!(
            err,
            StorageError::PageOutOfBounds { page: pages as u64 + 1, pages: disk.pages }
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_reports_short_read() {
        let path = temp_path("short");
        let mut disk = FileDisk::create(&path).unwrap();
        let id = disk.alloc().unwrap();
        disk.write(&Page::with_data(id, fill(0xAA))).unwrap();
        // Truncate behind the disk's back: the page table still says
        // one page, but only half of it exists.
        disk.file.set_len(PAGE_SIZE as u64 / 2).unwrap();
        let err = disk.read(id).unwrap_err();
        assert!(
            matches!(err, StorageError::ShortRead { page: 0, want, .. } if want == PAGE_SIZE),
            "unexpected error {err:?}"
        );
        assert!(!err.is_transient(), "truncation is not retryable");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_short_reads_are_absorbed_by_the_resume_loop() {
        let path = temp_path("injected_short");
        let mut disk = FileDisk::with_faults(&path, FaultPolicy::short_read(100)).unwrap();
        let id = disk.alloc().unwrap();
        disk.write(&Page::with_data(id, fill(0x5C))).unwrap();
        // Every read's first syscall returns only 100 bytes; the loop
        // must resume and still produce the full page.
        let page = disk.read(id).unwrap();
        assert_eq!(page.data, fill(0x5C));
        assert!(disk.faults_injected() >= 1, "the short read was injected and counted");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn simulated_and_file_disks_agree_through_the_trait() {
        fn exercise<D: Disk>(disk: &mut D) -> Vec<Vec<u8>> {
            let a = disk.alloc().unwrap();
            let b = disk.alloc().unwrap();
            disk.alloc_through(PageId(b.0 + 2)).unwrap();
            disk.write(&Page::with_data(a, fill(1))).unwrap();
            disk.write(&Page::with_data(b, fill(2))).unwrap();
            disk.write(&Page::with_data(a, fill(3))).unwrap(); // overwrite
                                                               // A run over b and the two pages after it, the last one short.
            disk.write_run(b, &[fill(4), fill(5), vec![6; 10]].concat()).unwrap();
            disk.sync().unwrap();
            let mut buf = vec![0xEE; PAGE_SIZE];
            (0..disk.num_pages())
                .map(|p| {
                    disk.read_into(PageId(p), &mut buf).unwrap();
                    assert_eq!(disk.read(PageId(p)).unwrap().data, buf, "read_into == read");
                    buf.clone()
                })
                .collect()
        }
        let mut sim = crate::SimulatedDisk::new();
        let path = temp_path("agree");
        let mut file = FileDisk::create(&path).unwrap();
        assert_eq!(exercise(&mut sim), exercise(&mut file));
        assert_eq!(Disk::num_pages(&sim), file.num_pages());
        assert_eq!((Disk::reads(&sim), file.reads()), (8, 8), "read_into counts as a read");
        std::fs::remove_file(&path).ok();
    }

    /// A disk that implements only `read` gets a counting, fault-gated
    /// `read_into` from the trait default.
    #[test]
    fn default_read_into_goes_through_read() {
        struct ReadOnly(crate::SimulatedDisk);
        impl Disk for ReadOnly {
            fn num_pages(&self) -> u64 {
                Disk::num_pages(&self.0)
            }
            fn alloc(&mut self) -> Result<PageId, StorageError> {
                Disk::alloc(&mut self.0)
            }
            fn alloc_through(&mut self, id: PageId) -> Result<(), StorageError> {
                Disk::alloc_through(&mut self.0, id)
            }
            fn read(&mut self, id: PageId) -> Result<Page, StorageError> {
                self.0.read(id)
            }
            fn write(&mut self, page: &Page) -> Result<(), StorageError> {
                self.0.write(page)
            }
            fn sync(&mut self) -> Result<(), StorageError> {
                Ok(())
            }
            fn reads(&self) -> u64 {
                self.0.reads
            }
            fn writes(&self) -> u64 {
                self.0.writes
            }
            fn faults_injected(&self) -> u64 {
                self.0.faults_injected()
            }
        }
        let policy = FaultPolicy::fail_every_read(2);
        let mut disk = ReadOnly(crate::SimulatedDisk::with_faults(policy));
        let id = Disk::alloc(&mut disk).unwrap();
        disk.write(&Page::with_data(id, fill(9))).unwrap();
        let mut buf = vec![0; PAGE_SIZE];
        disk.read_into(id, &mut buf).unwrap();
        assert_eq!(buf, fill(9));
        assert!(disk.read_into(id, &mut buf).is_err(), "the second read faults");
        assert_eq!((disk.reads(), disk.faults_injected()), (2, 1));
    }
}
