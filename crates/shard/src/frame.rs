//! The length-prefixed, checksummed worker wire protocol.
//!
//! Every message between the supervisor and a worker is one *frame*:
//!
//! ```text
//! ┌───────┬──────┬──────────┬─────────────┬─────────────┐
//! │ magic │ type │ len: u32 │ payload     │ fnv1a64:u64 │
//! │ 2 B   │ 1 B  │ LE       │ `len` bytes │ LE          │
//! └───────┴──────┴──────────┴─────────────┴─────────────┘
//! ```
//!
//! The checksum covers type, length and payload, so a bit flip anywhere
//! after the magic is detected by the receiver and the frame rejected —
//! the supervisor treats a corrupt frame from a worker as a failed
//! attempt (retried), never as data. All integers are little-endian;
//! floats are IEEE-754 bit patterns. The protocol is symmetric and
//! self-contained: a worker needs nothing but its stdin to learn its
//! task (`Task` and `Points` frames) and nothing but its stdout to report
//! (`Heartbeat`, `Result`, `Fail` frames).

use std::io::{Read, Write};
use std::time::Duration;

use csj_core::parallel::{Done, Event, ParallelAlgo};
use csj_core::{JoinStats, OutputItem, Rows, ShardError};
use csj_geom::{Mbr, Metric, Point};
use csj_storage::fnv1a64;

use crate::fault::FaultKind;

/// First two bytes of every frame; resynchronization is not attempted —
/// a bad magic poisons the stream and the worker is declared lost.
pub const FRAME_MAGIC: [u8; 2] = [0xC5, 0x1A];

/// Frame type: a task assignment (supervisor → worker).
pub const FRAME_TASK: u8 = 1;
/// Frame type: a liveness heartbeat (worker → supervisor).
pub const FRAME_HEARTBEAT: u8 = 2;
/// Frame type: a completed shard result (worker → supervisor).
pub const FRAME_RESULT: u8 = 3;
/// Frame type: a typed worker-side failure (worker → supervisor).
pub const FRAME_FAIL: u8 = 4;
/// Frame type: every point's coordinates (supervisor → worker, right
/// after the task frame; encoded once per run, see [`encode_points`]).
pub const FRAME_POINTS: u8 = 5;

/// Payloads larger than this are rejected as protocol violations
/// (a corrupted length field must not trigger a huge allocation).
pub const MAX_PAYLOAD: u32 = 256 << 20;

/// Encodes one frame (header, payload, trailing checksum).
pub fn encode_frame(frame_type: u8, payload: &[u8]) -> Vec<u8> {
    frame_with(frame_type, payload.len(), |buf| buf.extend_from_slice(payload))
}

/// Encodes one frame whose `len`-byte payload `fill` appends in place.
fn frame_with(frame_type: u8, len: usize, fill: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut buf = Vec::with_capacity(len + 15);
    buf.extend_from_slice(&FRAME_MAGIC);
    buf.push(frame_type);
    buf.extend_from_slice(&(len as u32).to_le_bytes());
    fill(&mut buf);
    debug_assert_eq!(buf.len(), 7 + len, "payload length");
    let checksum = fnv1a64(&buf[2..]);
    buf.extend_from_slice(&checksum.to_le_bytes());
    buf
}

/// Encodes the points frame: every point's coordinates in id order, a
/// point's id being its index. A run encodes it once and sends it after
/// each attempt's task frame.
pub fn encode_points<const D: usize>(points: &[Point<D>]) -> Vec<u8> {
    frame_with(FRAME_POINTS, points.len() * D * 8, |buf| {
        points.iter().flat_map(|p| p.coords()).for_each(|x| put_f64(buf, x));
    })
}

/// Decodes a points frame's payload (see [`encode_points`]).
///
/// # Errors
/// Returns [`ShardError::Protocol`] when the payload is not a whole
/// number of `D`-d points.
pub fn decode_points<const D: usize>(payload: &[u8]) -> Result<Vec<Point<D>>, ShardError> {
    let len = payload.len();
    if !len.is_multiple_of(8 * D) {
        return Err(ShardError::Protocol(format!("{len} bytes do not make {D}-d points")));
    }
    let coord = |b: &[u8]| f64::from_le_bytes(std::array::from_fn(|i| b[i]));
    let point = |p: &[u8]| Point::new(std::array::from_fn(|i| coord(&p[8 * i..8 * i + 8])));
    Ok(payload.chunks_exact(8 * D).map(point).collect())
}

/// What [`read_frame`] produced: a verified frame, or clean end-of-stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadFrame {
    /// A complete frame whose checksum verified.
    Frame {
        /// One of the `FRAME_*` type constants (unknown values are the
        /// *caller's* problem: forward compatibility over strictness).
        frame_type: u8,
        /// The payload bytes.
        payload: Vec<u8>,
    },
    /// The stream ended cleanly on a frame boundary.
    Eof,
}

/// Reads exactly `buf.len()` bytes; `Ok(false)` when the stream ends
/// before the *first* byte (clean EOF), an error when it ends mid-way.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<bool, ShardError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(ShardError::Protocol(format!(
                    "stream ended mid-frame ({filled}/{} bytes)",
                    buf.len()
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ShardError::Protocol(format!("read failed: {e}"))),
        }
    }
    Ok(true)
}

/// Reads and verifies one frame.
///
/// # Errors
/// Returns [`ShardError::Protocol`] for a bad magic, an oversized
/// length, a stream that ends mid-frame, a checksum mismatch, or an
/// underlying read error.
pub fn read_frame(r: &mut impl Read) -> Result<ReadFrame, ShardError> {
    let mut frame = vec![0u8; 7]; // magic(2) + type(1) + len(4)
    if !read_exact_or_eof(r, &mut frame)? {
        return Ok(ReadFrame::Eof);
    }
    if frame[..2] != FRAME_MAGIC {
        return Err(ShardError::Protocol(format!(
            "bad frame magic {:02x}{:02x}",
            frame[0], frame[1]
        )));
    }
    let len = u32::from_le_bytes([frame[3], frame[4], frame[5], frame[6]]);
    if len > MAX_PAYLOAD {
        return Err(ShardError::Protocol(format!("frame payload of {len} bytes exceeds cap")));
    }
    let end = 7 + len as usize;
    frame.resize(end + 8, 0);
    if !read_exact_or_eof(r, &mut frame[7..])? {
        return Err(ShardError::Protocol("stream ended before frame payload".into()));
    }
    if u64::from_le_bytes(Cursor::new(&frame[end..]).array()?) != fnv1a64(&frame[2..end]) {
        return Err(ShardError::Protocol("frame checksum mismatch".into()));
    }
    let frame_type = frame[2];
    frame.truncate(end);
    frame.drain(..7);
    Ok(ReadFrame::Frame { frame_type, payload: frame })
}

/// Writes one encoded frame in a single `write_all` (frames must never
/// interleave on a shared pipe).
///
/// # Errors
/// Returns [`ShardError::Protocol`] when the underlying write fails
/// (typically a closed pipe: the peer is gone).
pub fn write_frame(w: &mut impl Write, frame_type: u8, payload: &[u8]) -> Result<(), ShardError> {
    let bytes = encode_frame(frame_type, payload);
    w.write_all(&bytes)
        .and_then(|()| w.flush())
        .map_err(|e| ShardError::Protocol(format!("write failed: {e}")))
}

// ---------------------------------------------------------------------
// Payload primitives.
// ---------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// A bounds-checked cursor over a payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ShardError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len()).ok_or_else(|| {
            ShardError::Protocol(format!(
                "payload truncated: wanted {n} bytes at offset {}",
                self.pos
            ))
        })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ShardError> {
        let mut b = [0u8; N];
        b.copy_from_slice(self.take(N)?);
        Ok(b)
    }

    fn u8(&mut self) -> Result<u8, ShardError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ShardError> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, ShardError> {
        self.array().map(u64::from_le_bytes)
    }

    fn f64(&mut self) -> Result<f64, ShardError> {
        self.array().map(f64::from_le_bytes)
    }

    fn u32s(&mut self, n: usize) -> Result<impl Iterator<Item = u32> + 'a, ShardError> {
        let bytes = self.take(n.saturating_mul(4))?;
        Ok(bytes.chunks_exact(4).map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]])))
    }

    fn finish(self) -> Result<(), ShardError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ShardError::Protocol(format!(
                "{} trailing payload bytes",
                self.buf.len() - self.pos
            )))
        }
    }
}

fn put_key(buf: &mut Vec<u8>, key: &[u32]) {
    put_u32(buf, key.len() as u32);
    for &k in key {
        put_u32(buf, k);
    }
}

fn get_key(c: &mut Cursor<'_>) -> Result<Vec<u32>, ShardError> {
    let n = c.u32()? as usize;
    if n > 64 {
        return Err(ShardError::Protocol(format!("task key depth {n} exceeds cap")));
    }
    (0..n).map(|_| c.u32()).collect()
}

// ---------------------------------------------------------------------
// Typed frames.
// ---------------------------------------------------------------------

/// The supervisor → worker task assignment.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskFrame {
    /// Hierarchical task key (split genealogy; dotted in diagnostics).
    pub key: Vec<u32>,
    /// 1-based attempt number, echoed back in every worker frame.
    pub attempt: u32,
    /// Join range ε.
    pub epsilon: f64,
    /// The metric.
    pub metric: Metric,
    /// The algorithm.
    pub algo: ParallelAlgo,
    /// Point dimensionality (2 or 3 are what the CLI produces).
    pub dim: u8,
    /// Top-level shards of the plan: key `[i]` runs slice `i` of this
    /// many (see [`crate::plan::slice_of`]).
    pub shards: u32,
    /// Interval between heartbeat frames, in ms.
    pub heartbeat_ms: u64,
    /// The fault this attempt injects, pinned to its (shard, attempt)
    /// pair by the supervisor's fault plan.
    pub fault: Option<FaultKind>,
    /// Storage fault injection: fail every Nth page read (0 = off).
    pub pager_fail_every_read: u64,
    /// Retry attempts for the worker's faulty pager.
    pub pager_attempts: u32,
}

impl TaskFrame {
    /// Serializes the payload (no frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_key(&mut buf, &self.key);
        put_u32(&mut buf, self.attempt);
        put_f64(&mut buf, self.epsilon);
        match self.metric {
            Metric::Euclidean => buf.push(0),
            Metric::Manhattan => buf.push(1),
            Metric::Chebyshev => buf.push(2),
            Metric::Minkowski(p) => {
                buf.push(3);
                put_f64(&mut buf, p);
            }
        }
        match self.algo {
            ParallelAlgo::Ssj => buf.push(0),
            ParallelAlgo::Ncsj => buf.push(1),
            ParallelAlgo::Csj(g) => {
                buf.push(2);
                put_u32(&mut buf, g as u32);
            }
        }
        buf.push(self.dim);
        put_u32(&mut buf, self.shards);
        put_u64(&mut buf, self.heartbeat_ms);
        let (code, millis) = match self.fault {
            None => (0, 0),
            Some(FaultKind::Kill) => (1, 0),
            Some(FaultKind::Delay(d)) => (2, d.as_millis() as u64),
            Some(FaultKind::Garble) => (3, 0),
            Some(FaultKind::Stall) => (4, 0),
        };
        buf.push(code);
        put_u64(&mut buf, millis);
        put_u64(&mut buf, self.pager_fail_every_read);
        put_u32(&mut buf, self.pager_attempts);
        buf
    }

    /// Deserializes a payload produced by [`TaskFrame::encode`].
    ///
    /// # Errors
    /// Returns [`ShardError::Protocol`] for truncated or trailing bytes
    /// and nonsensical dimensions.
    pub fn decode(payload: &[u8]) -> Result<Self, ShardError> {
        let mut c = Cursor::new(payload);
        let key = get_key(&mut c)?;
        let attempt = c.u32()?;
        let epsilon = c.f64()?;
        let metric = match c.u8()? {
            0 => Metric::Euclidean,
            1 => Metric::Manhattan,
            2 => Metric::Chebyshev,
            3 => Metric::Minkowski(c.f64()?),
            code => return Err(ShardError::Protocol(format!("unknown metric code {code}"))),
        };
        let algo = match c.u8()? {
            0 => ParallelAlgo::Ssj,
            1 => ParallelAlgo::Ncsj,
            2 => ParallelAlgo::Csj(c.u32()? as usize),
            code => return Err(ShardError::Protocol(format!("unknown algorithm code {code}"))),
        };
        let dim = c.u8()?;
        if dim == 0 || dim > 16 {
            return Err(ShardError::Protocol(format!("dimension {dim} out of range")));
        }
        let shards = c.u32()?;
        let heartbeat_ms = c.u64()?;
        let fault = match (c.u8()?, c.u64()?) {
            (0, _) => None,
            (1, _) => Some(FaultKind::Kill),
            (2, millis) => Some(FaultKind::Delay(Duration::from_millis(millis))),
            (3, _) => Some(FaultKind::Garble),
            (4, _) => Some(FaultKind::Stall),
            (code, _) => return Err(ShardError::Protocol(format!("unknown fault code {code}"))),
        };
        let pager_fail_every_read = c.u64()?;
        let pager_attempts = c.u32()?;
        c.finish()?;
        Ok(TaskFrame {
            key,
            attempt,
            epsilon,
            metric,
            algo,
            dim,
            shards,
            heartbeat_ms,
            fault,
            pager_fail_every_read,
            pager_attempts,
        })
    }
}

/// A worker liveness beat.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HeartbeatFrame {
    /// Task key this worker is running.
    pub key: Vec<u32>,
    /// Attempt number it was assigned.
    pub attempt: u32,
    /// Monotonic beat counter, starting at 0.
    pub seq: u64,
}

impl HeartbeatFrame {
    /// Serializes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_key(&mut buf, &self.key);
        put_u32(&mut buf, self.attempt);
        put_u64(&mut buf, self.seq);
        buf
    }

    /// Deserializes a payload produced by [`HeartbeatFrame::encode`].
    ///
    /// # Errors
    /// Returns [`ShardError::Protocol`] for truncated or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, ShardError> {
        let mut c = Cursor::new(payload);
        let key = get_key(&mut c)?;
        let attempt = c.u32()?;
        let seq = c.u64()?;
        c.finish()?;
        Ok(HeartbeatFrame { key, attempt, seq })
    }
}

/// Writes and reads the counter fields of [`JoinStats`], in this order
/// (the access log never crosses the process boundary).
macro_rules! wire_stats {
    ($($field:ident),*) => {
        fn put_stats(buf: &mut Vec<u8>, stats: &JoinStats) {
            $(put_u64(buf, stats.$field);)*
        }

        fn get_stats(c: &mut Cursor<'_>) -> Result<JoinStats, ShardError> {
            Ok(JoinStats { $($field: c.u64()?,)* access_log: None })
        }
    };
}

wire_stats! {
    node_visits, pair_visits, distance_computations, early_stops_node, early_stops_pair,
    links_emitted, groups_emitted, group_members_emitted, merge_attempts, merges_succeeded,
    pairs_pruned, links_in_groups, io_retries, threads_used, tasks_executed, tasks_stolen,
    tasks_split, shard_retries, shard_timeouts, shard_resplits, shard_speculative_wins
}

/// A completed shard: what running its slice of the task list gave —
/// rows, CSJ(g) handler calls and counters, the split records in the
/// slice included — and the length of the list.
#[derive(Debug, PartialEq)]
pub struct ResultFrame<const D: usize> {
    /// Task key of the completed shard.
    pub key: Vec<u32>,
    /// Attempt that produced this result.
    pub attempt: u32,
    /// Entries in the task list every worker expands.
    pub tasks: u32,
    /// The slice's result. A link event travels as its two ids; the
    /// receiver restores the points from its own copy.
    pub done: Done<D>,
}

impl<const D: usize> ResultFrame<D> {
    /// Serializes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_key(&mut buf, &self.key);
        put_u32(&mut buf, self.attempt);
        put_u32(&mut buf, self.tasks);
        put_stats(&mut buf, &self.done.stats);
        let ids = |buf: &mut Vec<u8>, ids: &[u32]| {
            put_u32(buf, ids.len() as u32);
            ids.iter().for_each(|&id| put_u32(buf, id));
        };
        put_u32(&mut buf, self.done.rows.len() as u32);
        for item in &self.done.rows {
            match item {
                OutputItem::Link(a, b) => {
                    buf.push(0);
                    put_u32(&mut buf, a);
                    put_u32(&mut buf, b);
                }
                OutputItem::Group(members) => {
                    buf.push(1);
                    ids(&mut buf, members);
                }
            }
        }
        put_u32(&mut buf, self.done.events.len() as u32);
        for event in &self.done.events {
            match event {
                Event::Link(a, _, b, _) => {
                    buf.push(0);
                    put_u32(&mut buf, *a);
                    put_u32(&mut buf, *b);
                }
                Event::Subtree(subtree) => {
                    let (members, first, mbr) = &**subtree;
                    buf.push(1);
                    ids(&mut buf, members);
                    put_u32(&mut buf, *first as u32);
                    mbr.lo
                        .coords()
                        .iter()
                        .chain(&mbr.hi.coords())
                        .for_each(|&x| put_f64(&mut buf, x));
                }
            }
        }
        buf
    }

    /// Deserializes a payload produced by [`ResultFrame::encode`], taking
    /// link points from `points` (indexed by id).
    ///
    /// # Errors
    /// Returns [`ShardError::Protocol`] for truncated or trailing bytes,
    /// unknown row or event tags and link ids outside `points`.
    pub fn decode(payload: &[u8], points: &[Point<D>]) -> Result<Self, ShardError> {
        let mut c = Cursor::new(payload);
        let key = get_key(&mut c)?;
        let attempt = c.u32()?;
        let tasks = c.u32()?;
        let stats = get_stats(&mut c)?;
        let n = c.u32()? as usize;
        // Every id takes 4 payload bytes, which bounds the id reservation.
        let mut rows = Rows::with_capacity(n.min(1 << 20), payload.len() / 4);
        for _ in 0..n {
            match c.u8()? {
                0 => rows.push_link(c.u32()?, c.u32()?),
                1 => {
                    let k = c.u32()? as usize;
                    rows.push_group_iter(c.u32s(k)?);
                }
                tag => return Err(ShardError::Protocol(format!("unknown row tag {tag}"))),
            }
        }
        let point = |id: u32| {
            points.get(id as usize).copied().ok_or_else(|| {
                ShardError::Protocol(format!("link id {id} outside {} points", points.len()))
            })
        };
        let n = c.u32()? as usize;
        let mut events = Vec::with_capacity(n.min(payload.len() / 9));
        for _ in 0..n {
            events.push(match c.u8()? {
                0 => {
                    let (a, b) = (c.u32()?, c.u32()?);
                    Event::Link(a, point(a)?, b, point(b)?)
                }
                1 => {
                    let k = c.u32()? as usize;
                    let members = c.u32s(k)?.collect();
                    let first = c.u32()? as usize;
                    let mut corners = [[0.0; D]; 2];
                    for x in corners.iter_mut().flatten() {
                        *x = c.f64()?;
                    }
                    let [lo, hi] = corners.map(Point::new);
                    Event::Subtree(Box::new((members, first, Mbr { lo, hi })))
                }
                tag => return Err(ShardError::Protocol(format!("unknown event tag {tag}"))),
            });
        }
        c.finish()?;
        let done = Done { rows, events, stats, completed: true };
        Ok(ResultFrame { key, attempt, tasks, done })
    }
}

/// A typed worker-side failure (e.g. an unsupported task): distinct from
/// a crash so the supervisor can log *why* before retrying.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailFrame {
    /// Task key the worker was running.
    pub key: Vec<u32>,
    /// Attempt that failed.
    pub attempt: u32,
    /// Human-readable failure description.
    pub message: String,
}

impl FailFrame {
    /// Serializes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_key(&mut buf, &self.key);
        put_u32(&mut buf, self.attempt);
        let msg = self.message.as_bytes();
        put_u32(&mut buf, msg.len() as u32);
        buf.extend_from_slice(msg);
        buf
    }

    /// Deserializes a payload produced by [`FailFrame::encode`].
    ///
    /// # Errors
    /// Returns [`ShardError::Protocol`] for truncated or trailing bytes
    /// or a non-UTF-8 message.
    pub fn decode(payload: &[u8]) -> Result<Self, ShardError> {
        let mut c = Cursor::new(payload);
        let key = get_key(&mut c)?;
        let attempt = c.u32()?;
        let len = c.u32()? as usize;
        let message = String::from_utf8(c.take(len)?.to_vec())
            .map_err(|_| ShardError::Protocol("fail message is not UTF-8".into()))?;
        c.finish()?;
        Ok(FailFrame { key, attempt, message })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_task() -> TaskFrame {
        TaskFrame {
            key: vec![2, 0],
            attempt: 3,
            epsilon: 0.125,
            metric: Metric::Minkowski(3.0),
            algo: ParallelAlgo::Csj(10),
            dim: 2,
            shards: 3,
            heartbeat_ms: 50,
            fault: Some(FaultKind::Delay(Duration::from_millis(250))),
            pager_fail_every_read: 3,
            pager_attempts: 4,
        }
    }

    #[test]
    fn task_and_points_frames_roundtrip() {
        let (task, points) = (sample_task(), [Point::new([0.25, 0.75]), Point::new([0.5, -1.5])]);
        let stream = [encode_frame(FRAME_TASK, &task.encode()), encode_points(&points)].concat();
        let mut r = stream.as_slice();
        let mut next = || match read_frame(&mut r).unwrap() {
            ReadFrame::Frame { frame_type, payload } => (frame_type, payload),
            ReadFrame::Eof => panic!("expected a frame"),
        };
        let (frame_type, payload) = next();
        assert_eq!((frame_type, TaskFrame::decode(&payload).unwrap()), (FRAME_TASK, task));
        let (frame_type, payload) = next();
        assert_eq!(
            (frame_type, decode_points::<2>(&payload).unwrap()),
            (FRAME_POINTS, points.into())
        );
        assert!(decode_points::<3>(&payload).is_err(), "4 coordinates are no 3-d points");
        assert_eq!(read_frame(&mut r).unwrap(), ReadFrame::Eof, "stream consumed exactly");
    }

    #[test]
    fn result_and_heartbeat_and_fail_roundtrip() {
        let stats =
            JoinStats { links_emitted: 12, io_retries: 3, shard_retries: 1, ..Default::default() };
        let points: Vec<Point<2>> = (0..10).map(|i| Point::new([i as f64, 0.5])).collect();
        let mbr = Mbr::from_corners(&points[4], &points[6]);
        let result = ResultFrame {
            key: vec![1],
            attempt: 2,
            tasks: 24,
            done: Done {
                rows: Rows::from_iter([OutputItem::Link(3, 9), OutputItem::Group(&[4, 5, 6])]),
                events: vec![
                    Event::Link(3, points[3], 9, points[9]),
                    Event::Subtree(Box::new((vec![4, 5, 6], 2, mbr))),
                ],
                stats,
                completed: true,
            },
        };
        let payload = result.encode();
        assert_eq!(ResultFrame::decode(&payload, &points).unwrap(), result);
        let err = ResultFrame::decode(&payload, &points[..9]).unwrap_err();
        assert!(err.to_string().contains("link id 9"), "{err}");

        let hb = HeartbeatFrame { key: vec![0], attempt: 1, seq: 42 };
        assert_eq!(HeartbeatFrame::decode(&hb.encode()).unwrap(), hb);

        let fail = FailFrame { key: vec![3, 1], attempt: 1, message: "dim 9 unsupported".into() };
        assert_eq!(FailFrame::decode(&fail.encode()).unwrap(), fail);
    }

    #[test]
    fn damaged_frames_are_rejected_and_an_empty_stream_is_eof() {
        let payload = sample_task().encode();
        let frame = encode_frame(FRAME_TASK, &payload);
        let damaged = |at: usize| {
            let mut frame = frame.clone();
            frame[at] ^= 0x40;
            read_frame(&mut frame.as_slice()).unwrap_err().to_string()
        };
        assert!(damaged(frame.len() / 2).contains("checksum"));
        assert!(damaged(0).contains("magic"));
        let err = read_frame(&mut &frame[..frame.len() - 4]).unwrap_err().to_string();
        assert!(err.contains("mid-frame") || err.contains("payload"), "{err}");
        assert_eq!(read_frame(&mut &[][..]).unwrap(), ReadFrame::Eof);
        assert!(TaskFrame::decode(&payload[..payload.len() - 1]).is_err());
        let extended = [payload, vec![0]].concat();
        assert!(TaskFrame::decode(&extended).is_err(), "trailing bytes are rejected");
    }
}
