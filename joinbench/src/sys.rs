//! Host facts for the run: resident memory, the scratch filesystem and
//! parallelism.

use std::path::Path;

fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].trim().trim_end_matches("kB").trim().parse().ok()
}

/// Resets this process's peak resident set to its current size, so the
/// next [`peak_rss_mb`] reads the peak of what ran in between. Returns
/// `false` where the kernel does not offer the reset; the peak then
/// covers the whole process so far.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 * 1024.0 / 1e6)
}

/// The largest peak resident set of any child process this process has
/// waited for, in MB: the shard workers, which the supervisor reaps.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn children_peak_rss_mb() -> f64 {
    /// Linux's `struct rusage` on 64-bit targets: two `timeval`s, then
    /// fourteen `long`s, the first of which is `ru_maxrss` in KiB.
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage { utime: [0; 2], stime: [0; 2], maxrss: 0, rest: [0; 13] };
    // SAFETY: `usage` is a live, exclusively borrowed value with the
    // layout of `struct rusage` on this target, which is the only memory
    // getrusage writes.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 * 1024.0 / 1e6
    } else {
        0.0
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn children_peak_rss_mb() -> f64 {
    0.0
}

/// The filesystem type holding `path`, from the longest matching mount
/// point in `/proc/mounts`.
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let mount_point = fields.nth(1)?;
            let fs_type = fields.next()?;
            path.starts_with(mount_point).then(|| (mount_point.len(), fs_type.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs_type)| fs_type)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
