//! The shard worker: one task frame in, heartbeats + one result out.
//!
//! A worker reads a single task frame from its input, runs the
//! requested join over the shard's points with the sequential
//! [`ResilientJoin`] engine (lossless by Theorem 1), filters the output
//! down to rows this shard is responsible for, and writes the result
//! frame. While the join runs, a sidecar thread emits heartbeat frames
//! so the supervisor can tell "slow" from "dead".
//!
//! ## Ownership filter (exactly-once boundary links)
//!
//! The shard's point set is its owned interval plus the ε-boundary
//! strip (see [`crate::plan`]). The local join therefore re-discovers
//! links that neighboring shards also see. The worker keeps:
//!
//! * groups whose members are **all owned** — verbatim (compact rows
//!   survive sharding);
//! * of mixed groups, the owned sub-group (when ≥ 2 members), plus each
//!   owned↔halo pair **iff the smaller global id is the owned one** —
//!   routed through a set, so it is emitted once per shard;
//! * links by the same min-id-owned rule.
//!
//! Ownership intervals partition space, so for any cross-shard link
//! exactly one shard owns the min-id endpoint, and that shard provably
//! holds the other endpoint in its strip: each boundary link is emitted
//! exactly once across all shards, with no supervisor-side dedup state.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use csj_core::outofcore::PagedSource;
use csj_core::parallel::ParallelAlgo;
use csj_core::{CsjError, JoinConfig, JoinOutput, OutputItem, ResilientJoin, Rows, ShardError};
use csj_geom::{Metric, Point};
use csj_index::{rstar::RStarTree, PagedTree, RTreeConfig};
use csj_storage::{fnv1a64, FaultPolicy, RetryPolicy, SimulatedDisk};

use crate::frame::{
    fault_code, read_frame, write_frame, FailFrame, HeartbeatFrame, ReadFrame, ResultFrame,
    TaskFrame, FRAME_RESULT, FRAME_TASK,
};

/// Fanout of the worker-local R*-tree.
const WORKER_FANOUT: usize = 8;

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
pub fn run_worker<R: Read, W: Write + Send + 'static>(input: R, output: W) -> Result<(), CsjError> {
    run_worker_with_kill(input, output, Arc::new(AtomicBool::new(false)))
}

/// [`run_worker`] with a cooperative kill flag, polled during sleeps —
/// the in-process transport's substitute for `SIGKILL`.
///
/// # Errors
/// As [`run_worker`].
pub fn run_worker_with_kill<R: Read, W: Write + Send + 'static>(
    mut input: R,
    output: W,
    kill: Arc<AtomicBool>,
) -> Result<(), CsjError> {
    let payload = match read_frame(&mut input)? {
        ReadFrame::Frame { frame_type: FRAME_TASK, payload } => payload,
        ReadFrame::Frame { frame_type, .. } => {
            return Err(CsjError::Shard(ShardError::Protocol(format!(
                "expected a task frame, got type {frame_type}"
            ))))
        }
        ReadFrame::Eof => return Ok(()), // no task: clean exit
    };
    let task = TaskFrame::decode(&payload)?;
    let output = Arc::new(Mutex::new(output));
    match task.dim {
        2 => run_task::<2, W>(&task, &output, &kill),
        3 => run_task::<3, W>(&task, &output, &kill),
        d => {
            send_fail(&output, &task, format!("unsupported dimension {d}"));
            Ok(())
        }
    }
}

fn send_fail<W: Write>(output: &Arc<Mutex<W>>, task: &TaskFrame, message: String) {
    let frame = FailFrame { key: task.key.clone(), attempt: task.attempt, message };
    // The supervisor hanging up makes the report moot.
    let _ = write_frame(&mut *lock(output), crate::frame::FRAME_FAIL, &frame.encode());
}

/// A guard around the heartbeat sidecar thread: dropping it stops the
/// beats and joins the thread, so the shared writer's refcount drains
/// and process/thread exit translates into EOF at the supervisor.
struct Heartbeats {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Heartbeats {
    fn start<W: Write + Send + 'static>(
        output: &Arc<Mutex<W>>,
        key: Vec<u32>,
        attempt: u32,
        interval: Duration,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let out = Arc::clone(output);
        let thread = std::thread::spawn(move || {
            let mut seq: u64 = 0;
            loop {
                if sleep_interruptible(interval, &stop_flag) {
                    return;
                }
                let beat = HeartbeatFrame { key: key.clone(), attempt, seq };
                seq += 1;
                if write_frame(&mut *lock(&out), crate::frame::FRAME_HEARTBEAT, &beat.encode())
                    .is_err()
                {
                    return; // supervisor gone: stop beating
                }
            }
        });
        Heartbeats { stop, thread: Some(thread) }
    }
}

impl Drop for Heartbeats {
    fn drop(&mut self) {
        // ORDERING: advisory stop flag for the sidecar loop; the join
        // below is the actual synchronization point.
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn decode_metric(code: u8) -> Option<Metric> {
    match code {
        0 => Some(Metric::Euclidean),
        1 => Some(Metric::Manhattan),
        2 => Some(Metric::Chebyshev),
        _ => None,
    }
}

fn decode_algo(code: u8, window: u32) -> Option<ParallelAlgo> {
    match code {
        0 => Some(ParallelAlgo::Ssj),
        1 => Some(ParallelAlgo::Ncsj),
        2 => Some(ParallelAlgo::Csj(window as usize)),
        _ => None,
    }
}

fn run_task<const D: usize, W: Write + Send + 'static>(
    task: &TaskFrame,
    output: &Arc<Mutex<W>>,
    kill: &Arc<AtomicBool>,
) -> Result<(), CsjError> {
    let Some(metric) = decode_metric(task.metric) else {
        send_fail(output, task, format!("unknown metric code {}", task.metric));
        return Ok(());
    };
    let Some(algo) = decode_algo(task.algo, task.window) else {
        send_fail(output, task, format!("unknown algorithm code {}", task.algo));
        return Ok(());
    };

    let heartbeats = Heartbeats::start(
        output,
        task.key.clone(),
        task.attempt,
        Duration::from_millis(task.heartbeat_ms.max(1)),
    );

    match task.fault {
        fault_code::KILL => {
            // Simulated crash: exit without a result. Dropping the
            // heartbeat guard drains the writer → EOF at the supervisor.
            return Ok(());
        }
        fault_code::STALL => {
            // Simulated hang: stop heartbeating, then go silent. Only
            // the supervisor's liveness detection can reap us.
            drop(heartbeats);
            sleep_interruptible(Duration::from_secs(3600), kill);
            return Ok(());
        }
        _ => {}
    }

    let ids: Vec<u32> = task.points.iter().map(|p| p.id).collect();
    let owned: Vec<bool> = task.points.iter().map(|p| p.owned).collect();
    let local: Vec<Point<D>> = task
        .points
        .iter()
        .map(|p| {
            let mut coords = [0.0; D];
            coords.copy_from_slice(&p.coords);
            Point::new(coords)
        })
        .collect();

    let out = match run_local_join::<D>(task, metric, algo, &local) {
        Ok(out) => out,
        Err(e) => {
            // E.g. storage retries exhausted under an injected pager
            // fault plan: report and let the supervisor decide.
            send_fail(output, task, e.to_string());
            return Ok(());
        }
    };

    if task.fault == fault_code::DELAY {
        // Straggler: alive (heartbeating) but slow.
        if sleep_interruptible(Duration::from_millis(task.fault_param), kill) {
            return Ok(());
        }
    }

    let items = filter_owned_rows(&out.items, &ids, &owned);
    let result =
        ResultFrame { key: task.key.clone(), attempt: task.attempt, items, stats: out.stats };
    let mut bytes = crate::frame::encode_frame(FRAME_RESULT, &result.encode());
    if task.fault == fault_code::GARBLE {
        // Corrupt one payload byte after the checksum was computed: the
        // supervisor must reject the frame and retry the shard.
        let mid = 7 + (bytes.len() - 15) / 2;
        bytes[mid] ^= 0x5A;
    }
    drop(heartbeats); // last beat before the result; frames stay whole either way
    let mut sink = lock(output);
    sink.write_all(&bytes)
        .and_then(|()| sink.flush())
        .map_err(|e| CsjError::Shard(ShardError::Protocol(format!("result write: {e}"))))
}

fn run_local_join<const D: usize>(
    task: &TaskFrame,
    metric: Metric,
    algo: ParallelAlgo,
    local: &[Point<D>],
) -> Result<JoinOutput, CsjError> {
    if local.is_empty() {
        return Ok(JoinOutput::default());
    }
    let tree = RStarTree::bulk_load_str(local, RTreeConfig::with_max_fanout(WORKER_FANOUT));
    let join = ResilientJoin::with_config(JoinConfig::new(task.epsilon).with_metric(metric), algo);
    if task.pager_fail_every_read > 0 {
        let retry =
            RetryPolicy { max_attempts: task.pager_attempts.max(1), ..RetryPolicy::default() }
                .with_jitter_seed(fnv1a64(
                    &task.key.iter().flat_map(|k| k.to_le_bytes()).collect::<Vec<u8>>(),
                ));
        let disk =
            SimulatedDisk::with_faults(FaultPolicy::fail_every_read(task.pager_fail_every_read));
        let paged = PagedTree::from_core(tree.core(), disk, retry, DRILL_POOL_PAGES)?;
        join.run(PagedSource::new(&paged, None))
    } else {
        join.run(&tree)
    }
}

/// Applies the ownership filter: maps local record ids to global ids
/// and keeps exactly the rows this shard must emit (module docs give
/// the exactly-once argument). Pure and deterministic — cross links are
/// deduplicated through a [`BTreeSet`] and appended in sorted order.
pub fn filter_owned_rows(items: &Rows, ids: &[u32], owned: &[bool]) -> Rows {
    let mut rows = Rows::new();
    let mut cross: BTreeSet<(u32, u32)> = BTreeSet::new();
    let keep_pair = |a_local: usize, b_local: usize, cross: &mut BTreeSet<(u32, u32)>| {
        let (ga, gb) = (ids[a_local], ids[b_local]);
        let (oa, ob) = (owned[a_local], owned[b_local]);
        let (min_owned, pair) = if ga <= gb { (oa, (ga, gb)) } else { (ob, (gb, ga)) };
        if min_owned {
            cross.insert(pair);
        }
    };
    for item in items {
        match item {
            OutputItem::Link(a, b) => {
                let (a, b) = (a as usize, b as usize);
                if owned[a] && owned[b] {
                    rows.push_link(ids[a], ids[b]);
                } else {
                    keep_pair(a, b, &mut cross);
                }
            }
            OutputItem::Group(members) => {
                let owned_count = members.iter().filter(|&&m| owned[m as usize]).count();
                if owned_count == members.len() {
                    // Fully interior group: compact row survives as-is.
                    rows.push_group_iter(members.iter().map(|&m| ids[m as usize]));
                    continue;
                }
                if owned_count >= 2 {
                    rows.push_group_iter(
                        members.iter().filter(|&&m| owned[m as usize]).map(|&m| ids[m as usize]),
                    );
                }
                // Owned↔halo pairs go through the min-id-owned rule;
                // halo↔halo pairs belong to other shards entirely.
                for i in 0..members.len() {
                    for j in (i + 1)..members.len() {
                        let (a, b) = (members[i] as usize, members[j] as usize);
                        if owned[a] != owned[b] {
                            keep_pair(a, b, &mut cross);
                        }
                    }
                }
            }
        }
    }
    for (a, b) in cross {
        rows.push_link(a, b);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filter(items: &[OutputItem<'_>], ids: &[u32], owned: &[bool]) -> Vec<String> {
        let rows: Rows = items.iter().copied().collect();
        filter_owned_rows(&rows, ids, owned).iter().map(|row| format!("{row:?}")).collect()
    }

    #[test]
    fn fully_owned_rows_survive_verbatim() {
        let ids = [10, 11, 12];
        let owned = [true, true, true];
        let items = [OutputItem::Link(0, 2), OutputItem::Group(&[0, 1, 2])];
        assert_eq!(filter(&items, &ids, &owned), ["Link(10, 12)", "Group([10, 11, 12])"]);
    }

    #[test]
    fn min_id_owned_rule_keeps_or_drops_cross_links() {
        let ids = [10, 20];
        let link = [OutputItem::Link(0, 1)];
        // Case 1: we own the smaller id → keep.
        assert_eq!(filter(&link, &ids, &[true, false]), ["Link(10, 20)"]);
        // Case 2: we own only the larger id → the other shard emits it.
        assert!(filter(&link, &ids, &[false, true]).is_empty());
        // Case 3: halo-halo → never ours.
        assert!(filter(&link, &ids, &[false, false]).is_empty());
    }

    #[test]
    fn mixed_group_decomposes_into_owned_subgroup_plus_cross_links() {
        let ids = [1, 2, 9];
        let owned = [true, true, false];
        let kept = filter(&[OutputItem::Group(&[0, 1, 2])], &ids, &owned);
        // Owned sub-group {1, 2}; cross pairs (1,9) and (2,9) are kept
        // because the min id of each is owned here.
        assert_eq!(kept, ["Group([1, 2])", "Link(1, 9)", "Link(2, 9)"]);
    }

    #[test]
    fn duplicate_cross_links_collapse_within_a_shard() {
        let ids = [1, 9];
        let owned = [true, false];
        // The same boundary pair surfaces via a link row and a group row.
        let items = [OutputItem::Link(0, 1), OutputItem::Group(&[0, 1]), OutputItem::Link(1, 0)];
        let kept = filter(&items, &ids, &owned);
        assert_eq!(kept, ["Link(1, 9)"], "emitted once despite three sightings");
    }
}
