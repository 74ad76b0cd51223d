//! Output checks, run outside the timed region.
//!
//! * Byte identity: two output files hold the same bytes.
//! * Link-set equality: the pairs an output represents — every pair of
//!   ids on a row, a group of `k` ids standing for its `k·(k−1)/2`
//!   links — equal the pairs of a reference, whatever the grouping or
//!   row order.

use std::io::Read;
use std::path::Path;

const CHUNK: usize = 1 << 20;

/// Reads until `buf` is full or the stream ends; returns the bytes read.
fn fill(reader: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Whether the two files hold exactly the same bytes.
pub fn same_bytes(a: &Path, b: &Path) -> std::io::Result<bool> {
    if std::fs::metadata(a)?.len() != std::fs::metadata(b)?.len() {
        return Ok(false);
    }
    let (mut fa, mut fb) = (std::fs::File::open(a)?, std::fs::File::open(b)?);
    let (mut ba, mut bb) = (vec![0u8; CHUNK], vec![0u8; CHUNK]);
    loop {
        let na = fill(&mut fa, &mut ba)?;
        let nb = fill(&mut fb, &mut bb)?;
        if na != nb || ba[..na] != bb[..nb] {
            return Ok(false);
        }
        if na == 0 {
            return Ok(true);
        }
    }
}

fn pack(a: u32, b: u32) -> u64 {
    (u64::from(a.min(b)) << 32) | u64::from(a.max(b))
}

fn push_pairs(ids: &[u32], links: &mut Vec<u64>) {
    for (i, &a) in ids.iter().enumerate() {
        for &b in &ids[i + 1..] {
            if a != b {
                links.push(pack(a, b));
            }
        }
    }
}

fn finish(mut links: Vec<u64>) -> Vec<u64> {
    links.sort_unstable();
    links.dedup();
    links
}

/// The link set of an output file in the paper's text format: sorted,
/// deduplicated, each link packed as `min << 32 | max`.
pub fn link_set_of_file(path: &Path) -> std::io::Result<Vec<u64>> {
    let text = std::fs::read(path)?;
    let mut links = Vec::new();
    let mut ids: Vec<u32> = Vec::new();
    for line in text.split(|&b| b == b'\n') {
        ids.clear();
        for field in line.split(|&b| b == b' ').filter(|f| !f.is_empty()) {
            let id =
                std::str::from_utf8(field).ok().and_then(|s| s.parse().ok()).ok_or_else(|| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed output row")
                })?;
            ids.push(id);
        }
        push_pairs(&ids, &mut links);
    }
    Ok(finish(links))
}
