//! Join-output writers in the paper's text format.
//!
//! §VI: "Output size is measured by the size in bytes of the resulting
//! output text file. Each data point is zero-padded to ensure it is
//! represented by the same fixed number of bits. A link is written as a
//! single line in the output file containing the two data points, e.g.
//! `0001 0002`, while a cluster is written as the line
//! `0001 0002 0003...`."
//!
//! [`OutputWriter`] reproduces exactly that: fixed-width zero-padded
//! record ids, space-separated, newline-terminated lines, each row
//! encoded at its known length by one [`RowEncoder`]. The sink is
//! pluggable so experiments can count bytes without materializing output
//! ([`CountingSink`]), keep it for inspection ([`VecSink`]) or write a
//! real file ([`FileSink`]). All writes are fallible: a full disk or an
//! injected fault surfaces as a [`StorageError`] instead of a panic, so
//! a join can stop cleanly at a row boundary.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use crate::error::{IoOp, StorageError};
use crate::fault::{FaultInjector, FaultPolicy};

/// Where formatted output bytes go.
pub trait OutputSink {
    /// Consumes a chunk of formatted output.
    fn write_bytes(&mut self, bytes: &[u8]) -> Result<(), StorageError>;
    /// Total bytes consumed so far.
    fn bytes_written(&self) -> u64;
    /// Flushes buffered state (no-op for in-memory sinks).
    fn flush(&mut self) -> Result<(), StorageError> {
        Ok(())
    }
}

/// Discards output, keeping only the byte count. The default for
/// experiments: output size is measured without disk traffic.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingSink {
    bytes: u64,
}

impl CountingSink {
    /// A fresh counting sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl OutputSink for CountingSink {
    fn write_bytes(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.bytes += bytes.len() as u64;
        Ok(())
    }
    fn bytes_written(&self) -> u64 {
        self.bytes
    }
}

/// Buffers output in memory (tests, small runs).
#[derive(Debug, Default, Clone)]
pub struct VecSink {
    buf: Vec<u8>,
}

impl VecSink {
    /// A fresh in-memory sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated output bytes.
    pub fn contents(&self) -> &[u8] {
        &self.buf
    }

    /// The accumulated output as UTF-8 (the format is pure ASCII).
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf).unwrap_or("<non-ascii output>")
    }
}

impl OutputSink for VecSink {
    fn write_bytes(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.buf.extend_from_slice(bytes);
        Ok(())
    }
    fn bytes_written(&self) -> u64 {
        self.buf.len() as u64
    }
}

/// [`FileSink`]'s buffer: output rows are a few bytes each, so a large
/// buffer turns millions of row writes into a few hundred `write` calls.
const FILE_SINK_BUFFER: usize = 256 << 10;

/// Writes output to a real file through a buffered writer.
#[derive(Debug)]
pub struct FileSink {
    writer: BufWriter<File>,
    bytes: u64,
}

impl FileSink {
    /// Creates (truncates) `path` for writing.
    ///
    /// # Errors
    /// Returns [`StorageError::Io`] when the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, StorageError> {
        let path = path.as_ref();
        let file = File::create(path).map_err(|e| StorageError::io_at(IoOp::Write, path, &e))?;
        Ok(FileSink { writer: BufWriter::with_capacity(FILE_SINK_BUFFER, file), bytes: 0 })
    }
}

impl OutputSink for FileSink {
    fn write_bytes(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.writer.write_all(bytes).map_err(|e| StorageError::io(IoOp::Write, &e))?;
        self.bytes += bytes.len() as u64;
        Ok(())
    }
    fn bytes_written(&self) -> u64 {
        self.bytes
    }
    fn flush(&mut self) -> Result<(), StorageError> {
        self.writer.flush().map_err(|e| StorageError::io(IoOp::Flush, &e))
    }
}

/// A sink decorator that injects faults per a [`FaultPolicy`] before
/// delegating — lets tests drive the engine's error path on output
/// writes without a real failing device.
#[derive(Debug)]
pub struct FaultySink<S> {
    inner: S,
    faults: FaultInjector,
}

impl<S: OutputSink> FaultySink<S> {
    /// Wraps `inner`, failing writes per `policy`.
    pub fn new(inner: S, policy: FaultPolicy) -> Self {
        FaultySink { inner, faults: FaultInjector::new(policy) }
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.faults.faults_injected()
    }
}

impl<S: OutputSink> OutputSink for FaultySink<S> {
    fn write_bytes(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.faults.before_write()?;
        self.inner.write_bytes(bytes)
    }
    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }
    fn flush(&mut self) -> Result<(), StorageError> {
        self.inner.flush()
    }
}

/// `DIGIT_PAIRS[2 * i..2 * i + 2]` is `i` as two ASCII digits, `0..=99`.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Encodes rows of fixed-width, zero-padded record ids — the one
/// encoder behind every text row the joins write.
///
/// A row is its ids separated by single spaces and closed by an end
/// byte (`\n` for a join row). An id is zero-padded to `width` digits;
/// an id wider than `width` is written in full rather than truncated.
/// Each row is encoded at its known length into a reused buffer: every
/// id field is filled from the right, two digits at a time, so a row
/// whose ids fit costs `k·(width+1)` bytes and no per-byte work beyond
/// the digit pairs.
#[derive(Clone, Debug)]
pub struct RowEncoder {
    width: usize,
    /// The last row; it only grows, and each row overwrites its prefix.
    row: Vec<u8>,
}

impl RowEncoder {
    /// An encoder padding ids to `width` digits (`1..=20`).
    pub fn new(width: usize) -> Self {
        assert!((1..=20).contains(&width), "id width out of range");
        RowEncoder { width, row: Vec::new() }
    }

    /// Encodes `ids` as one row ended by `end` and returns its bytes.
    #[inline]
    pub fn encode(&mut self, ids: &[u32], end: u8) -> &[u8] {
        // A width known at compile time unrolls each field's digit pairs.
        let fitted = match self.width {
            1 => self.encode_fitting::<1>(ids, end),
            2 => self.encode_fitting::<2>(ids, end),
            3 => self.encode_fitting::<3>(ids, end),
            4 => self.encode_fitting::<4>(ids, end),
            5 => self.encode_fitting::<5>(ids, end),
            6 => self.encode_fitting::<6>(ids, end),
            7 => self.encode_fitting::<7>(ids, end),
            8 => self.encode_fitting::<8>(ids, end),
            9 => self.encode_fitting::<9>(ids, end),
            _ => None,
        };
        match fitted {
            Some(len) => &self.row[..len],
            None => self.encode_any(ids, end),
        }
    }

    /// Encodes a row whose ids all fit `W` digits into `k·(W+1)` bytes
    /// and returns its length, or `None` when an id is wider than that.
    #[inline(always)]
    fn encode_fitting<const W: usize>(&mut self, ids: &[u32], end: u8) -> Option<usize> {
        let len = ids.len() * (W + 1);
        if self.row.len() < len {
            self.row.resize(len, 0);
        }
        let row = &mut self.row[..len];
        let mut wide = false;
        for (field, &id) in row.chunks_exact_mut(W + 1).zip(ids) {
            wide |= id >= 10u32.pow(W as u32);
            put_digits(&mut field[..W], id);
            field[W] = b' ';
        }
        if let Some(last) = row.last_mut() {
            *last = end;
        }
        (!wide).then_some(len)
    }

    /// Encodes a row at any width, sizing each field to its id: ids
    /// wider than `width`, and widths of 10 digits and up.
    #[cold]
    #[inline(never)]
    fn encode_any(&mut self, ids: &[u32], end: u8) -> &[u8] {
        let len = ids.iter().map(|&id| self.digits(id) + 1).sum();
        if self.row.len() < len {
            self.row.resize(len, 0);
        }
        let mut at = 0;
        for &id in ids {
            let n = self.digits(id);
            put_digits(&mut self.row[at..at + n], id);
            self.row[at + n] = b' ';
            at += n + 1;
        }
        let row = &mut self.row[..len];
        if let Some(last) = row.last_mut() {
            *last = end;
        }
        row
    }

    /// Digits `id` takes: `width`, or more for an id wider than that.
    fn digits(&self, id: u32) -> usize {
        id.checked_ilog10().map_or(1, |d| d as usize + 1).max(self.width)
    }
}

/// Writes `value` into `field` right-aligned and zero-padded, two digits
/// at a time from the right. `value` must fit in `field.len()` digits.
#[inline(always)]
fn put_digits(field: &mut [u8], mut value: u32) {
    let mut rest = field;
    while let [head @ .., hi, lo] = rest {
        let pair = (value % 100) as usize * 2;
        value /= 100;
        *hi = DIGIT_PAIRS[pair];
        *lo = DIGIT_PAIRS[pair + 1];
        rest = head;
    }
    if let [digit] = rest {
        *digit = b'0' + (value % 10) as u8;
    }
}

/// Formats links and groups in the paper's fixed-width text format.
///
/// Every row reaches the sink as one [`OutputSink::write_bytes`] call,
/// so a failing sink stops the output at a row boundary.
#[derive(Debug)]
pub struct OutputWriter<S> {
    sink: S,
    encoder: RowEncoder,
    /// The last cross row, joined from its two encoded sides.
    cross: Vec<u8>,
    links: u64,
    groups: u64,
}

impl<S: OutputSink> OutputWriter<S> {
    /// Creates a writer whose ids are zero-padded to `width` digits.
    ///
    /// Use [`OutputWriter::id_width_for`] to derive the width from the
    /// dataset size, as the paper does ("the same fixed number of bits").
    pub fn new(sink: S, width: usize) -> Self {
        OutputWriter {
            sink,
            encoder: RowEncoder::new(width),
            cross: Vec::new(),
            links: 0,
            groups: 0,
        }
    }

    /// The minimal width that fits every id of a dataset with `n` records.
    pub fn id_width_for(n: usize) -> usize {
        let mut width = 1;
        let mut bound = 10usize;
        while n > bound {
            width += 1;
            bound = bound.saturating_mul(10);
        }
        width
    }

    /// Writes one link line: two padded ids separated by a space.
    ///
    /// # Errors
    /// Returns [`StorageError`] when the sink rejects the write.
    pub fn write_link(&mut self, a: u32, b: u32) -> Result<(), StorageError> {
        self.sink.write_bytes(self.encoder.encode(&[a, b], b'\n'))?;
        self.links += 1;
        Ok(())
    }

    /// Writes one group line: every member id, space separated.
    ///
    /// An empty group is reported as [`StorageError::EmptyGroupRow`] —
    /// the join algorithms never emit one.
    ///
    /// # Errors
    /// Returns [`StorageError::EmptyGroupRow`] for an empty group and
    /// any sink error otherwise.
    pub fn write_group(&mut self, ids: &[u32]) -> Result<(), StorageError> {
        if ids.is_empty() {
            return Err(StorageError::EmptyGroupRow);
        }
        self.sink.write_bytes(self.encoder.encode(ids, b'\n'))?;
        self.groups += 1;
        Ok(())
    }

    /// Writes one cross row of a two-dataset join: the left ids, `"| "`,
    /// then the right ids, e.g. `0003 0004 | 0005`. `k` ids cost
    /// `k·(width+1) + 2` bytes. A cross row counts as a group line.
    ///
    /// # Errors
    /// Returns [`StorageError::EmptyGroupRow`] when either side is empty
    /// and any sink error otherwise.
    pub fn write_cross(&mut self, left: &[u32], right: &[u32]) -> Result<(), StorageError> {
        if left.is_empty() || right.is_empty() {
            return Err(StorageError::EmptyGroupRow);
        }
        self.cross.clear();
        self.cross.extend_from_slice(self.encoder.encode(left, b' '));
        self.cross.extend_from_slice(b"| ");
        self.cross.extend_from_slice(self.encoder.encode(right, b'\n'));
        self.sink.write_bytes(&self.cross)?;
        self.groups += 1;
        Ok(())
    }

    /// Number of link lines written.
    pub fn links_written(&self) -> u64 {
        self.links
    }

    /// Number of group lines written.
    pub fn groups_written(&self) -> u64 {
        self.groups
    }

    /// Total output bytes so far.
    pub fn bytes_written(&self) -> u64 {
        self.sink.bytes_written()
    }

    /// Flushes and returns the sink.
    ///
    /// # Errors
    /// Returns [`StorageError`] when the final flush fails.
    pub fn finish(mut self) -> Result<S, StorageError> {
        self.sink.flush()?;
        Ok(self.sink)
    }

    /// Borrow the sink (e.g. to inspect a [`VecSink`]).
    pub fn sink(&self) -> &S {
        &self.sink
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_format_matches_paper_example() {
        let mut w = OutputWriter::new(VecSink::new(), 4);
        w.write_link(1, 2).unwrap();
        assert_eq!(w.sink().as_str(), "0001 0002\n");
        assert_eq!(w.links_written(), 1);
        assert_eq!(w.bytes_written(), 10);
    }

    #[test]
    fn group_format_matches_paper_example() {
        let mut w = OutputWriter::new(VecSink::new(), 4);
        w.write_group(&[1, 2, 3]).unwrap();
        assert_eq!(w.sink().as_str(), "0001 0002 0003\n");
        assert_eq!(w.groups_written(), 1);
        assert_eq!(w.bytes_written(), 15);
    }

    #[test]
    fn fixed_width_padding() {
        let mut w = OutputWriter::new(VecSink::new(), 6);
        w.write_link(0, 123456).unwrap();
        assert_eq!(w.sink().as_str(), "000000 123456\n");
        // Wider-than-width ids are not truncated.
        let mut w = OutputWriter::new(VecSink::new(), 2);
        w.write_link(12345, 7).unwrap();
        assert_eq!(w.sink().as_str(), "12345 07\n");
    }

    #[test]
    fn byte_counts_are_deterministic() {
        // A link line is 2*width + 2 bytes; a k-group is k*width + k.
        let width = 5;
        let mut w = OutputWriter::new(CountingSink::new(), width);
        w.write_link(1, 2).unwrap();
        assert_eq!(w.bytes_written(), (2 * width + 2) as u64);
        let before = w.bytes_written();
        w.write_group(&[1, 2, 3, 4, 5, 6, 7]).unwrap();
        assert_eq!(w.bytes_written() - before, (7 * width + 7) as u64);
    }

    #[test]
    fn id_width_for_sizes() {
        assert_eq!(OutputWriter::<CountingSink>::id_width_for(0), 1);
        assert_eq!(OutputWriter::<CountingSink>::id_width_for(9), 1);
        assert_eq!(OutputWriter::<CountingSink>::id_width_for(10), 1);
        assert_eq!(OutputWriter::<CountingSink>::id_width_for(11), 2);
        assert_eq!(OutputWriter::<CountingSink>::id_width_for(27_000), 5);
        assert_eq!(OutputWriter::<CountingSink>::id_width_for(1_500_000), 7);
    }

    #[test]
    fn empty_group_is_a_typed_error() {
        let mut w = OutputWriter::new(CountingSink::new(), 4);
        assert_eq!(w.write_group(&[]).unwrap_err(), StorageError::EmptyGroupRow);
        assert_eq!(w.groups_written(), 0, "nothing was written");
    }

    #[test]
    fn file_sink_roundtrip() {
        let dir = std::env::temp_dir();
        let path = dir.join("csj_writer_test.txt");
        {
            let mut w = OutputWriter::new(FileSink::create(&path).unwrap(), 3);
            w.write_link(7, 42).unwrap();
            w.write_group(&[1, 2, 3]).unwrap();
            let sink = w.finish().unwrap();
            assert_eq!(sink.bytes_written(), 8 + 12);
        }
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "007 042\n001 002 003\n");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn counting_matches_vec_sink() {
        let mut count = OutputWriter::new(CountingSink::new(), 4);
        let mut vec = OutputWriter::new(VecSink::new(), 4);
        for i in 0..50u32 {
            count.write_link(i, i * 7 % 97).unwrap();
            vec.write_link(i, i * 7 % 97).unwrap();
            if i % 5 == 0 {
                let g = [i, i + 1, i + 2];
                count.write_group(&g).unwrap();
                vec.write_group(&g).unwrap();
            }
        }
        assert_eq!(count.bytes_written(), vec.bytes_written());
    }

    #[test]
    fn cross_rows_are_pinned_and_counted() {
        let mut w = OutputWriter::new(VecSink::new(), 4);
        w.write_cross(&[1], &[22]).unwrap();
        w.write_cross(&[3, 4], &[5]).unwrap();
        assert_eq!(w.sink().as_str(), "0001 | 0022\n0003 0004 | 0005\n");
        // `k` ids cost `k·(width+1) + 2` bytes: 12 + 17.
        assert_eq!(w.bytes_written(), 29);
        assert_eq!(w.groups_written(), 2);
        // An id wider than the width is written in full, on either side.
        let mut w = OutputWriter::new(VecSink::new(), 2);
        w.write_cross(&[12345, 6], &[7]).unwrap();
        assert_eq!(w.sink().as_str(), "12345 06 | 07\n");
        assert_eq!(w.bytes_written(), 14);
        assert_eq!(w.write_cross(&[], &[1]).unwrap_err(), StorageError::EmptyGroupRow);
        assert_eq!(w.write_cross(&[1], &[]).unwrap_err(), StorageError::EmptyGroupRow);
        assert_eq!(w.groups_written(), 1, "an empty side writes nothing");
    }

    #[test]
    fn faulty_sink_stops_cross_rows_at_a_row_boundary() {
        let mut w =
            OutputWriter::new(FaultySink::new(VecSink::new(), FaultPolicy::fail_every(2)), 3);
        w.write_cross(&[1, 2], &[3]).unwrap();
        let err = w.write_cross(&[4], &[5, 6]).unwrap_err();
        assert!(matches!(err, StorageError::FaultInjected { op: IoOp::Write, .. }));
        assert_eq!(w.groups_written(), 1, "failed row not counted");
        assert_eq!(w.sink().inner().as_str(), "001 002 | 003\n", "failed row not written");
        assert_eq!(w.bytes_written(), 14);
    }

    #[test]
    fn faulty_sink_surfaces_write_errors() {
        let mut w =
            OutputWriter::new(FaultySink::new(VecSink::new(), FaultPolicy::fail_every(2)), 3);
        w.write_link(1, 2).unwrap();
        let err = w.write_link(3, 4).unwrap_err();
        assert!(matches!(err, StorageError::FaultInjected { op: IoOp::Write, .. }));
        assert_eq!(w.links_written(), 1, "failed row not counted");
        assert_eq!(w.sink().inner().as_str(), "001 002\n", "failed row not written");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every emitted line parses back to the written ids (round-trip).
        #[test]
        fn lines_roundtrip(
            links in prop::collection::vec((0u32..100_000, 0u32..100_000), 0..50),
            groups in prop::collection::vec(prop::collection::vec(0u32..100_000, 1..20), 0..20),
            width in 1usize..8,
        ) {
            let mut w = OutputWriter::new(VecSink::new(), width);
            for &(a, b) in &links {
                w.write_link(a, b).unwrap();
            }
            for g in &groups {
                w.write_group(g).unwrap();
            }
            let text = w.sink().as_str().to_string();
            let lines: Vec<&str> = text.lines().collect();
            prop_assert_eq!(lines.len(), links.len() + groups.len());
            for (line, &(a, b)) in lines.iter().zip(&links) {
                let ids: Vec<u32> = line.split(' ').map(|t| t.parse().unwrap()).collect();
                prop_assert_eq!(ids, vec![a, b]);
            }
            for (line, g) in lines[links.len()..].iter().zip(&groups) {
                let ids: Vec<u32> = line.split(' ').map(|t| t.parse().unwrap()).collect();
                prop_assert_eq!(&ids, g);
            }
        }

        /// The encoder's bytes equal `format!("{:0w$}")` fields joined by
        /// spaces, at every width and over the whole `u32` range: zero
        /// padding, ids wider than the width, 0 and `u32::MAX`, for
        /// links and groups in any order.
        #[test]
        fn rows_match_the_format_reference(
            width in 1usize..=20,
            rows in prop::collection::vec((any::<bool>(), prop::collection::vec(id(), 1..12)), 0..24),
        ) {
            let mut w = OutputWriter::new(VecSink::new(), width);
            let mut expected = String::new();
            for (as_link, ids) in &rows {
                let ids = if *as_link && ids.len() >= 2 {
                    w.write_link(ids[0], ids[1]).unwrap();
                    &ids[..2]
                } else {
                    w.write_group(ids).unwrap();
                    &ids[..]
                };
                let fields: Vec<String> = ids.iter().map(|id| format!("{id:0width$}")).collect();
                expected.push_str(&fields.join(" "));
                expected.push('\n');
            }
            prop_assert_eq!(w.sink().as_str(), expected.as_str());
            prop_assert_eq!(w.bytes_written(), expected.len() as u64);
        }
    }

    /// Ids from every digit count: small, mid-range, the whole `u32`
    /// domain, and both ends of it.
    fn id() -> BoxedStrategy<u32> {
        prop_oneof![Just(0u32), Just(u32::MAX), 0u32..10, 0u32..100_000, any::<u32>()].boxed()
    }
}
