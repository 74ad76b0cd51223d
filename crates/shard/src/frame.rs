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
//! task (`Task` frame) and nothing but its stdout to report
//! (`Heartbeat`, `Result`, `Fail` frames).

use std::io::{Read, Write};

use csj_core::{JoinStats, OutputItem, Rows, ShardError};
use csj_storage::fnv1a64;

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

/// Payloads larger than this are rejected as protocol violations
/// (a corrupted length field must not trigger a huge allocation).
pub const MAX_PAYLOAD: u32 = 256 << 20;

/// Encodes one frame (header, payload, trailing checksum).
pub fn encode_frame(frame_type: u8, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(payload.len() + 15);
    buf.extend_from_slice(&FRAME_MAGIC);
    buf.push(frame_type);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    let checksum = fnv1a64(&buf[2..]);
    buf.extend_from_slice(&checksum.to_le_bytes());
    buf
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
    let mut header = [0u8; 7]; // magic(2) + type(1) + len(4)
    if !read_exact_or_eof(r, &mut header)? {
        return Ok(ReadFrame::Eof);
    }
    if header[..2] != FRAME_MAGIC {
        return Err(ShardError::Protocol(format!(
            "bad frame magic {:02x}{:02x}",
            header[0], header[1]
        )));
    }
    let frame_type = header[2];
    let len = u32::from_le_bytes([header[3], header[4], header[5], header[6]]);
    if len > MAX_PAYLOAD {
        return Err(ShardError::Protocol(format!("frame payload of {len} bytes exceeds cap")));
    }
    let mut rest = vec![0u8; len as usize + 8];
    if !read_exact_or_eof(r, &mut rest)? {
        return Err(ShardError::Protocol("stream ended before frame payload".into()));
    }
    let (payload, checksum_bytes) = rest.split_at(len as usize);
    let mut covered = Vec::with_capacity(5 + payload.len());
    covered.extend_from_slice(&header[2..]);
    covered.extend_from_slice(payload);
    let expect = fnv1a64(&covered);
    let mut got = [0u8; 8];
    got.copy_from_slice(checksum_bytes);
    if u64::from_le_bytes(got) != expect {
        return Err(ShardError::Protocol("frame checksum mismatch".into()));
    }
    Ok(ReadFrame::Frame { frame_type, payload: payload.to_vec() })
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

    fn u8(&mut self) -> Result<u8, ShardError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ShardError> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, ShardError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }

    fn f64(&mut self) -> Result<f64, ShardError> {
        Ok(f64::from_bits(self.u64()?))
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

/// A point on the wire: global record id, ownership bit, coordinates.
#[derive(Clone, Debug, PartialEq)]
pub struct WirePoint {
    /// Global record id in the supervisor's dataset.
    pub id: u32,
    /// `true` when this shard owns the point; `false` for ε-halo
    /// replicas, which exist only so boundary links are discoverable.
    pub owned: bool,
    /// Coordinates, `dim` of them.
    pub coords: Vec<f64>,
}

/// A worker-side fault directive carried inside the task frame, so each
/// injected failure is pinned to an exact (shard, attempt) pair.
pub mod fault_code {
    /// No fault.
    pub const NONE: u8 = 0;
    /// Exit without a result (simulated crash → supervisor sees EOF).
    pub const KILL: u8 = 1;
    /// Sleep `param` ms before the result, heartbeating throughout
    /// (a straggler: alive but slow).
    pub const DELAY: u8 = 2;
    /// Corrupt one byte of the result frame (checksum reject).
    pub const GARBLE: u8 = 3;
    /// Stop heartbeating and hang (liveness detection must fire).
    pub const STALL: u8 = 4;
}

/// The supervisor → worker task assignment.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskFrame {
    /// Hierarchical task key (split genealogy; dotted in diagnostics).
    pub key: Vec<u32>,
    /// 1-based attempt number, echoed back in every worker frame.
    pub attempt: u32,
    /// Join range ε.
    pub epsilon: f64,
    /// Metric code: 0 = L2, 1 = L1, 2 = L∞.
    pub metric: u8,
    /// Algorithm code: 0 = SSJ, 1 = N-CSJ, 2 = CSJ(g).
    pub algo: u8,
    /// CSJ window size (ignored unless `algo` is 2).
    pub window: u32,
    /// Point dimensionality (2 or 3 are what the CLI produces).
    pub dim: u8,
    /// Interval between heartbeat frames, in ms.
    pub heartbeat_ms: u64,
    /// Fault directive (a [`fault_code`] constant).
    pub fault: u8,
    /// Fault parameter (delay ms; 0 otherwise).
    pub fault_param: u64,
    /// Storage fault injection: fail every Nth page read (0 = off).
    pub pager_fail_every_read: u64,
    /// Retry attempts for the worker's faulty pager.
    pub pager_attempts: u32,
    /// The shard's points: owned region plus ε-halo replicas.
    pub points: Vec<WirePoint>,
}

impl TaskFrame {
    /// Serializes the payload (no frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_key(&mut buf, &self.key);
        put_u32(&mut buf, self.attempt);
        put_f64(&mut buf, self.epsilon);
        buf.push(self.metric);
        buf.push(self.algo);
        put_u32(&mut buf, self.window);
        buf.push(self.dim);
        put_u64(&mut buf, self.heartbeat_ms);
        buf.push(self.fault);
        put_u64(&mut buf, self.fault_param);
        put_u64(&mut buf, self.pager_fail_every_read);
        put_u32(&mut buf, self.pager_attempts);
        put_u32(&mut buf, self.points.len() as u32);
        for p in &self.points {
            put_u32(&mut buf, p.id);
            buf.push(u8::from(p.owned));
            for &c in &p.coords {
                put_f64(&mut buf, c);
            }
        }
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
        let metric = c.u8()?;
        let algo = c.u8()?;
        let window = c.u32()?;
        let dim = c.u8()?;
        if dim == 0 || dim > 16 {
            return Err(ShardError::Protocol(format!("dimension {dim} out of range")));
        }
        let heartbeat_ms = c.u64()?;
        let fault = c.u8()?;
        let fault_param = c.u64()?;
        let pager_fail_every_read = c.u64()?;
        let pager_attempts = c.u32()?;
        let n = c.u32()? as usize;
        let mut points = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let id = c.u32()?;
            let owned = c.u8()? != 0;
            let coords = (0..dim).map(|_| c.f64()).collect::<Result<Vec<f64>, ShardError>>()?;
            points.push(WirePoint { id, owned, coords });
        }
        c.finish()?;
        Ok(TaskFrame {
            key,
            attempt,
            epsilon,
            metric,
            algo,
            window,
            dim,
            heartbeat_ms,
            fault,
            fault_param,
            pager_fail_every_read,
            pager_attempts,
            points,
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

/// The counter fields of [`JoinStats`] carried on the wire, in a fixed
/// order (the access log never crosses the process boundary).
const STAT_FIELDS: usize = 21;

fn stats_to_wire(stats: &JoinStats) -> [u64; STAT_FIELDS] {
    [
        stats.node_visits,
        stats.pair_visits,
        stats.distance_computations,
        stats.early_stops_node,
        stats.early_stops_pair,
        stats.links_emitted,
        stats.groups_emitted,
        stats.group_members_emitted,
        stats.merge_attempts,
        stats.merges_succeeded,
        stats.pairs_pruned,
        stats.links_in_groups,
        stats.io_retries,
        stats.threads_used,
        stats.tasks_executed,
        stats.tasks_stolen,
        stats.tasks_split,
        stats.shard_retries,
        stats.shard_timeouts,
        stats.shard_resplits,
        stats.shard_speculative_wins,
    ]
}

fn stats_from_wire(w: &[u64; STAT_FIELDS]) -> JoinStats {
    JoinStats {
        node_visits: w[0],
        pair_visits: w[1],
        distance_computations: w[2],
        early_stops_node: w[3],
        early_stops_pair: w[4],
        links_emitted: w[5],
        groups_emitted: w[6],
        group_members_emitted: w[7],
        merge_attempts: w[8],
        merges_succeeded: w[9],
        pairs_pruned: w[10],
        links_in_groups: w[11],
        io_retries: w[12],
        threads_used: w[13],
        tasks_executed: w[14],
        tasks_stolen: w[15],
        tasks_split: w[16],
        shard_retries: w[17],
        shard_timeouts: w[18],
        shard_resplits: w[19],
        shard_speculative_wins: w[20],
        access_log: None,
    }
}

/// A completed shard: its output rows (global record ids, already
/// ownership-filtered by the worker) and the run's counters.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultFrame {
    /// Task key of the completed shard.
    pub key: Vec<u32>,
    /// Attempt that produced this result.
    pub attempt: u32,
    /// Output rows in the worker's deterministic emission order.
    pub items: Rows,
    /// Counters of the worker-local join run.
    pub stats: JoinStats,
}

impl ResultFrame {
    /// Serializes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_key(&mut buf, &self.key);
        put_u32(&mut buf, self.attempt);
        for v in stats_to_wire(&self.stats) {
            put_u64(&mut buf, v);
        }
        put_u32(&mut buf, self.items.len() as u32);
        for item in &self.items {
            match item {
                OutputItem::Link(a, b) => {
                    buf.push(0);
                    put_u32(&mut buf, a);
                    put_u32(&mut buf, b);
                }
                OutputItem::Group(ids) => {
                    buf.push(1);
                    put_u32(&mut buf, ids.len() as u32);
                    for &id in ids {
                        put_u32(&mut buf, id);
                    }
                }
            }
        }
        buf
    }

    /// Deserializes a payload produced by [`ResultFrame::encode`].
    ///
    /// # Errors
    /// Returns [`ShardError::Protocol`] for truncated or trailing bytes
    /// and unknown row tags.
    pub fn decode(payload: &[u8]) -> Result<Self, ShardError> {
        let mut c = Cursor::new(payload);
        let key = get_key(&mut c)?;
        let attempt = c.u32()?;
        let mut wire = [0u64; STAT_FIELDS];
        for slot in &mut wire {
            *slot = c.u64()?;
        }
        let stats = stats_from_wire(&wire);
        let n = c.u32()? as usize;
        // Every id takes 4 payload bytes, which bounds the id reservation.
        let mut items = Rows::with_capacity(n.min(1 << 20), payload.len() / 4);
        for _ in 0..n {
            match c.u8()? {
                0 => {
                    let a = c.u32()?;
                    let b = c.u32()?;
                    items.push_link(a, b);
                }
                1 => {
                    let k = c.u32()? as usize;
                    let ids = c.take(k.saturating_mul(4))?;
                    items.push_group_iter(
                        ids.chunks_exact(4).map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
                    );
                }
                tag => return Err(ShardError::Protocol(format!("unknown row tag {tag}"))),
            }
        }
        c.finish()?;
        Ok(ResultFrame { key, attempt, items, stats })
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
            metric: 1,
            algo: 2,
            window: 10,
            dim: 2,
            heartbeat_ms: 50,
            fault: fault_code::DELAY,
            fault_param: 250,
            pager_fail_every_read: 3,
            pager_attempts: 4,
            points: vec![
                WirePoint { id: 7, owned: true, coords: vec![0.25, 0.75] },
                WirePoint { id: 9, owned: false, coords: vec![0.5, -1.5] },
            ],
        }
    }

    #[test]
    fn task_frame_roundtrip() {
        let task = sample_task();
        let frame = encode_frame(FRAME_TASK, &task.encode());
        let mut r = frame.as_slice();
        match read_frame(&mut r).unwrap() {
            ReadFrame::Frame { frame_type, payload } => {
                assert_eq!(frame_type, FRAME_TASK);
                assert_eq!(TaskFrame::decode(&payload).unwrap(), task);
            }
            ReadFrame::Eof => panic!("expected a frame"),
        }
        assert_eq!(read_frame(&mut r).unwrap(), ReadFrame::Eof, "stream consumed exactly");
    }

    #[test]
    fn result_and_heartbeat_and_fail_roundtrip() {
        let stats =
            JoinStats { links_emitted: 12, io_retries: 3, shard_retries: 1, ..Default::default() };
        let result = ResultFrame {
            key: vec![1],
            attempt: 2,
            items: Rows::from_iter([OutputItem::Link(3, 9), OutputItem::Group(&[4, 5, 6])]),
            stats,
        };
        assert_eq!(ResultFrame::decode(&result.encode()).unwrap(), result);

        let hb = HeartbeatFrame { key: vec![0], attempt: 1, seq: 42 };
        assert_eq!(HeartbeatFrame::decode(&hb.encode()).unwrap(), hb);

        let fail = FailFrame { key: vec![3, 1], attempt: 1, message: "dim 9 unsupported".into() };
        assert_eq!(FailFrame::decode(&fail.encode()).unwrap(), fail);
    }

    #[test]
    fn garbled_byte_is_rejected_by_checksum() {
        let task = sample_task();
        let mut frame = encode_frame(FRAME_TASK, &task.encode());
        let mid = frame.len() / 2;
        frame[mid] ^= 0x40;
        let err = read_frame(&mut frame.as_slice()).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn truncated_frame_is_a_protocol_error_not_eof() {
        let frame = encode_frame(FRAME_HEARTBEAT, &[1, 2, 3]);
        let cut = &frame[..frame.len() - 4];
        let err = read_frame(&mut &cut[..]).unwrap_err();
        assert!(err.to_string().contains("mid-frame") || err.to_string().contains("payload"));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut frame = encode_frame(FRAME_RESULT, &[]);
        frame[0] = 0x00;
        let err = read_frame(&mut frame.as_slice()).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn empty_stream_is_clean_eof() {
        assert_eq!(read_frame(&mut &[][..]).unwrap(), ReadFrame::Eof);
    }

    #[test]
    fn truncated_payload_decode_fails() {
        let task = sample_task();
        let payload = task.encode();
        assert!(TaskFrame::decode(&payload[..payload.len() - 1]).is_err());
        let mut extended = payload;
        extended.push(0);
        assert!(TaskFrame::decode(&extended).is_err(), "trailing bytes are rejected");
    }
}
