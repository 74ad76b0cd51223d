//! The shard worker: a task and a points frame in, heartbeats + one
//! result out.
//!
//! A worker reads its task frame and the points frame from its input,
//! builds the CLI's tree over every point (`csj join`'s STR R*-tree),
//! drops the points, expands the key-ordered task list `ParallelJoin`
//! runs on threads, and runs the slice of it the task key names
//! ([`crate::plan::slice_of`]) with [`TaskRunner`]. The result frame
//! carries the slice's rows, its CSJ(g) handler calls and its counters;
//! the supervisor commits the slices in key order, so a sharded run
//! writes the sequential bytes.
//! While the slice runs, a scoped thread emits heartbeat frames so the
//! supervisor can tell "slow" from "dead".

use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use csj_core::engine::NodeSource;
use csj_core::outofcore::PagedSource;
use csj_core::parallel::{Done, TaskRunner};
use csj_core::{CsjError, JoinConfig, ResilientJoin, ShardError};
use csj_geom::Point;
use csj_index::{rstar::RStarTree, PagedTree, RTreeConfig};
use csj_storage::{fnv1a64, FaultPolicy, RetryPolicy, SimulatedDisk};

use crate::fault::FaultKind;
use crate::frame::{
    decode_points, encode_frame, read_frame, write_frame, FailFrame, HeartbeatFrame, ReadFrame,
    ResultFrame, TaskFrame, FRAME_FAIL, FRAME_HEARTBEAT, FRAME_POINTS, FRAME_RESULT, FRAME_TASK,
};
use crate::plan::slice_of;

/// Task-list entries per shard: as many as `ParallelJoin` expands per
/// thread.
const TASKS_PER_SHARD: usize = 8;

/// Buffer pool of a pager fault drill: small enough that the join reads.
const DRILL_POOL_PAGES: usize = 4;

/// Granularity of interruptible sleeps (kill-flag polling).
const SLEEP_SLICE: Duration = Duration::from_millis(5);

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Sleeps `total`, waking early when `kill` is raised. Returns `true`
/// when killed.
fn sleep_interruptible(total: Duration, kill: &AtomicBool) -> bool {
    let mut remaining = total;
    while !remaining.is_zero() {
        // ORDERING: advisory stop flag, polled; no data rides on it.
        if kill.load(Ordering::Relaxed) {
            return true;
        }
        let slice = remaining.min(SLEEP_SLICE);
        std::thread::sleep(slice);
        remaining -= slice;
    }
    // ORDERING: as above.
    kill.load(Ordering::Relaxed)
}

/// Runs the worker protocol over `input`/`output` until the single task
/// is answered (or the task stream is empty).
///
/// # Errors
/// Returns [`CsjError::Shard`] for protocol violations on the input
/// stream. Task-level problems (unsupported dimension, storage retries
/// exhausted) are reported to the supervisor as `Fail` frames, not
/// errors — the supervisor owns the retry policy.
pub fn run_worker<R: Read, W: Write + Send>(input: R, output: W) -> Result<(), CsjError> {
    run_worker_with_kill(input, output, &AtomicBool::new(false))
}

/// [`run_worker`] with a cooperative kill flag, polled during sleeps —
/// the in-process transport's substitute for `SIGKILL`.
///
/// # Errors
/// As [`run_worker`].
pub fn run_worker_with_kill<R: Read, W: Write + Send>(
    mut input: R,
    output: W,
    kill: &AtomicBool,
) -> Result<(), CsjError> {
    let mut next_of = |want: u8| match read_frame(&mut input)? {
        ReadFrame::Frame { frame_type, payload } if frame_type == want => Ok(Some(payload)),
        ReadFrame::Frame { frame_type, .. } => Err(CsjError::Shard(ShardError::Protocol(format!(
            "expected a frame of type {want}, got type {frame_type}"
        )))),
        ReadFrame::Eof => Ok(None),
    };
    // No task: clean exit.
    let Some(task) = next_of(FRAME_TASK)? else { return Ok(()) };
    let task = TaskFrame::decode(&task)?;
    let points = next_of(FRAME_POINTS)?.ok_or(ShardError::Protocol("no points frame".into()))?;
    let (output, stop) = (Mutex::new(output), AtomicBool::new(false));
    let reply = std::thread::scope(|scope| {
        // A stalled worker never beats: only the supervisor's liveness
        // detection can reap it.
        if task.fault != Some(FaultKind::Stall) {
            scope.spawn(|| beat(&output, &task, &stop));
        }
        let reply = answer(&task, points, kill);
        // ORDERING: advisory stop flag for the beat loop; the scope's
        // join is the synchronization point.
        stop.store(true, Ordering::Relaxed);
        reply
    });
    // No reply: exiting drops the writer, which is EOF at the supervisor.
    let Some(bytes) = reply else { return Ok(()) };
    let mut sink = lock(&output);
    sink.write_all(&bytes)
        .and_then(|()| sink.flush())
        .map_err(|e| CsjError::Shard(ShardError::Protocol(format!("result write: {e}"))))
}

/// Writes a heartbeat frame every `task.heartbeat_ms` until `stop` is
/// raised or the supervisor hangs up.
fn beat<W: Write>(output: &Mutex<W>, task: &TaskFrame, stop: &AtomicBool) {
    let interval = Duration::from_millis(task.heartbeat_ms.max(1));
    for seq in 0.. {
        if sleep_interruptible(interval, stop) {
            return;
        }
        let beat = HeartbeatFrame { key: task.key.clone(), attempt: task.attempt, seq };
        if write_frame(&mut *lock(output), FRAME_HEARTBEAT, &beat.encode()).is_err() {
            return; // supervisor gone: stop beating
        }
    }
}

/// The frame a worker answers `task` with: its slice's result, or a
/// typed failure (an unsupported dimension, storage retries exhausted
/// under a pager fault drill), after the injected fault; `None` when it
/// goes silent (a kill or stall, or killed while straggling). `points`
/// is the points frame's payload.
fn answer(task: &TaskFrame, points: Vec<u8>, kill: &AtomicBool) -> Option<Vec<u8>> {
    match task.fault {
        Some(FaultKind::Kill) => return None,
        Some(FaultKind::Stall) => {
            sleep_interruptible(Duration::from_secs(3600), kill);
            return None;
        }
        _ => {}
    }
    let result = match task.dim {
        2 => run_slice::<2>(task, points),
        3 => run_slice::<3>(task, points),
        d => Err(format!("unsupported dimension {d}")),
    };
    let (frame_type, payload) = match result {
        Ok(payload) => (FRAME_RESULT, payload),
        Err(message) => (
            FRAME_FAIL,
            FailFrame { key: task.key.clone(), attempt: task.attempt, message }.encode(),
        ),
    };
    if let Some(FaultKind::Delay(delay)) = task.fault {
        // Straggler: alive (heartbeating) but slow.
        if sleep_interruptible(delay, kill) {
            return None;
        }
    }
    let mut bytes = encode_frame(frame_type, &payload);
    if task.fault == Some(FaultKind::Garble) {
        // Corrupt one payload byte after the checksum was computed: the
        // supervisor must reject the frame and retry the shard.
        let mid = 7 + (bytes.len() - 15) / 2;
        bytes[mid] ^= 0x5A;
    }
    Some(bytes)
}

/// Runs `task`'s slice over the points of the points-frame `payload`
/// and encodes the result frame's payload.
fn run_slice<const D: usize>(task: &TaskFrame, payload: Vec<u8>) -> Result<Vec<u8>, String> {
    let points: Vec<Point<D>> = decode_points(&payload).map_err(|e| e.to_string())?;
    drop(payload);
    let (done, tasks) = run_on_tree(task, points).map_err(|e| e.to_string())?;
    Ok(ResultFrame { key: task.key.clone(), attempt: task.attempt, tasks, done }.encode())
}

/// Builds the tree over `points` and runs the task key's slice of the
/// task list on it, or on a page-resident copy behind a faulty disk in a
/// pager fault drill. The tree holds its own copy, so `points` go once
/// it is built.
fn run_on_tree<const D: usize>(
    task: &TaskFrame,
    points: Vec<Point<D>>,
) -> Result<(Done<D>, u32), CsjError> {
    let tree = RStarTree::bulk_load_str(&points, RTreeConfig::default());
    drop(points);
    let cfg = JoinConfig::new(task.epsilon).with_metric(task.metric);
    let join = ResilientJoin::with_config(cfg, task.algo);
    if task.pager_fail_every_read == 0 {
        return run_slice_on(&join, &tree, task);
    }
    let salt = fnv1a64(&task.key.iter().flat_map(|k| k.to_le_bytes()).collect::<Vec<u8>>());
    let retry = RetryPolicy { max_attempts: task.pager_attempts.max(1), ..RetryPolicy::default() }
        .with_jitter_seed(salt);
    let disk = SimulatedDisk::with_faults(FaultPolicy::fail_every_read(task.pager_fail_every_read));
    let paged = PagedTree::from_core(tree.core(), disk, retry, DRILL_POOL_PAGES)?;
    run_slice_on(&join, PagedSource::new(&paged, None), task)
}

/// Expands the task list over `source` and runs the task key's slice of
/// it: the slice's result and the list's length.
fn run_slice_on<S: NodeSource<D>, const D: usize>(
    join: &ResilientJoin,
    source: S,
    task: &TaskFrame,
) -> Result<(Done<D>, u32), CsjError> {
    let shards = task.shards as usize;
    let mut runner = TaskRunner::new(join, source);
    let tasks = runner.expand(TASKS_PER_SHARD * shards)?;
    let slice = slice_of(&task.key, shards, tasks.len());
    Ok((runner.run(&tasks[slice])?, tasks.len() as u32))
}
