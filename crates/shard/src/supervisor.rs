//! The fault-tolerant shard supervisor.
//!
//! [`ShardJoin`] cuts the key-ordered task list into one slice per
//! shard ([`crate::plan`]), launches one worker per slice through a
//! [`WorkerTransport`], and supervises them through a single event
//! channel:
//!
//! * **heartbeats** separate slow from dead — an attempt that goes
//!   silent past the heartbeat grace is reaped and relaunched;
//! * **per-shard deadlines** bound each attempt's wall clock;
//! * **bounded retries** with exponential backoff + deterministic
//!   jitter (the same [`csj_storage::RetryPolicy`] schedule the pager
//!   uses) absorb crashes, corrupt frames and typed failures;
//! * **speculation** races a second worker against a straggler — the
//!   first result wins, and because workers are deterministic the
//!   winner's identity never changes the output;
//! * **adaptive re-split** replaces a shard that timed out twice with
//!   the two halves of its slice (skew mitigation, keys `k.0`/`k.1`); a
//!   slice of one entry cannot be halved and retries within its budget;
//! * shards that fail beyond the retry budget degrade the run to
//!   [`Completion::Partial`], whose fraction is the completed share of
//!   the task list — the surviving rows are still lossless.
//!
//! At the end the completed slices are committed in key order through
//! `ParallelJoin`'s committer ([`commit_slices`]), which is the
//! committer of the ordered task stream (DESIGN.md §9): a fully
//! successful run writes `csj join`'s bytes, whatever the shard count
//! or fault schedule.

use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use csj_core::parallel::{commit_slices, Done, ParallelAlgo};
use csj_core::{
    CancelToken, Completion, CsjError, JoinConfig, JoinOutput, JoinStats, ResilientJoin,
    ShardError, StopReason,
};
use csj_geom::{Metric, Point};
use csj_storage::{fnv1a64, CountingSink, OutputWriter, RetryPolicy};

use crate::fault::ShardFaultPlan;
use crate::frame::{
    encode_frame, encode_points, HeartbeatFrame, ResultFrame, TaskFrame, FRAME_HEARTBEAT,
    FRAME_RESULT, FRAME_TASK,
};
use crate::plan::{key_string, slice_of};
use crate::transport::{Envelope, WorkerEvent, WorkerHandle, WorkerTransport};

/// Event-loop tick: the longest the supervisor sleeps between liveness
/// passes when no worker frames arrive.
const TICK: Duration = Duration::from_millis(5);

/// A sharded, supervised similarity self-join.
#[derive(Clone, Debug)]
pub struct ShardJoin {
    epsilon: f64,
    metric: Metric,
    algo: ParallelAlgo,
    shards: usize,
    max_attempts: u32,
    backoff: RetryPolicy,
    task_deadline: Option<Duration>,
    heartbeat_interval: Duration,
    heartbeat_grace: u32,
    speculate_after: Option<Duration>,
    fault_plan: ShardFaultPlan,
    pager_fail_every_read: u64,
    pager_attempts: u32,
    cancel: Option<CancelToken>,
    max_workers: usize,
}

impl ShardJoin {
    /// A sharded join with range `epsilon` running `algo` on each shard.
    pub fn new(epsilon: f64, algo: ParallelAlgo) -> Self {
        ShardJoin {
            epsilon,
            metric: Metric::Euclidean,
            algo,
            shards: 2,
            max_attempts: 3,
            backoff: RetryPolicy {
                max_attempts: 3,
                base_backoff: Duration::from_millis(20),
                max_backoff: Duration::from_millis(500),
                jitter_seed: 0xC5_1A,
            },
            task_deadline: None,
            heartbeat_interval: Duration::from_millis(25),
            heartbeat_grace: 40,
            speculate_after: None,
            fault_plan: ShardFaultPlan::none(),
            pager_fail_every_read: 0,
            pager_attempts: 4,
            cancel: None,
            max_workers: 0,
        }
    }

    /// Replaces the metric (default L2).
    pub fn with_metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// Number of top-level shards, slices of the task list (default 2).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Total launch attempts allowed per shard, first try included
    /// (default 3).
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Per-attempt wall-clock deadline; two deadline strikes trigger an
    /// adaptive re-split of a shard whose slice holds two or more
    /// entries.
    pub fn with_task_deadline(mut self, deadline: Duration) -> Self {
        self.task_deadline = Some(deadline);
        self
    }

    /// Heartbeat interval and grace: an attempt silent for
    /// `interval × grace` is declared lost.
    pub fn with_heartbeat(mut self, interval: Duration, grace: u32) -> Self {
        self.heartbeat_interval = interval.max(Duration::from_millis(1));
        self.heartbeat_grace = grace.max(2);
        self
    }

    /// Launches a speculative twin against any attempt still running
    /// after `after` (first deterministic result wins).
    pub fn with_speculation(mut self, after: Duration) -> Self {
        self.speculate_after = Some(after);
        self
    }

    /// Injects the given process-level fault schedule.
    pub fn with_fault_plan(mut self, plan: ShardFaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Makes every worker run its join through a fault-injecting pager
    /// failing every Nth page read, absorbed by `attempts` bounded
    /// retries (the storage-layer fault plan, reused per shard).
    pub fn with_pager_faults(mut self, fail_every_read: u64, attempts: u32) -> Self {
        self.pager_fail_every_read = fail_every_read;
        self.pager_attempts = attempts.max(1);
        self
    }

    /// Attaches a cooperative cancellation token: a cancel kills the
    /// fleet and reports the merged survivors as partial.
    pub fn with_cancel(mut self, token: &CancelToken) -> Self {
        self.cancel = Some(token.clone());
        self
    }

    /// Caps concurrently running workers (default: `max(shards, 2)`).
    pub fn with_max_workers(mut self, cap: usize) -> Self {
        self.max_workers = cap;
        self
    }

    fn worker_cap(&self) -> usize {
        Some(self.max_workers).filter(|&cap| cap > 0).unwrap_or(self.shards.max(2))
    }

    /// Runs the sharded join over `points` on `transport`.
    ///
    /// A fully successful run returns [`Completion::Complete`] output
    /// with the rows and counters of [`ResilientJoin`] on `csj join`'s
    /// tree (the default STR R*-tree). Shards failing beyond the retry
    /// budget (or a cancel) degrade to [`Completion::Partial`], whose
    /// fraction is the completed share of the task list.
    ///
    /// # Errors
    /// Returns [`CsjError::Shard`] when the transport cannot spawn
    /// workers at all. Worker crashes, hangs, stragglers and corrupt
    /// frames are *not* errors — they are retried, then degraded to
    /// partial.
    pub fn run<const D: usize, T: WorkerTransport>(
        &self,
        points: &[Point<D>],
        transport: &T,
    ) -> Result<ShardedOutput, CsjError> {
        let (tx, rx) = channel::<Envelope>();
        let mut run = Run {
            cfg: self,
            points,
            points_frame: encode_points(points),
            total: None,
            transport,
            tx,
            tasks: BTreeMap::new(),
            worker_index: HashMap::new(),
            next_worker: 0,
            stats: JoinStats::default(),
            canceled: false,
        };
        for i in 0..self.shards {
            run.insert_task(vec![i as u32]);
        }
        let result = run.event_loop(&rx);
        run.shutdown();
        result?;
        Ok(run.into_output())
    }
}

/// Per-shard supervision summary, in task-key order.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardReport {
    /// Dotted task key (`"2"`, `"2.1"` after a re-split).
    pub key: String,
    /// Launch attempts consumed (first try included).
    pub attempts: u32,
    /// Deadline strikes against this shard.
    pub timeouts: u32,
    /// Relaunches after a failed attempt.
    pub retries: u32,
    /// Whether a result was merged.
    pub completed: bool,
    /// The share of the task list this shard runs (the completion
    /// weight); 0 while no worker has reported the list's length.
    pub task_share: f64,
    /// Whether the merged result came from a speculative twin.
    pub speculative_win: bool,
    /// Whether the shard was replaced by a re-split (its children
    /// appear as separate reports; a replaced shard merges nothing).
    pub resplit: bool,
}

/// A sharded run's merged output plus its per-shard reports.
#[derive(Clone, Debug)]
pub struct ShardedOutput {
    /// Merged rows (task-key order), aggregated stats, completion.
    pub output: JoinOutput,
    /// One report per shard that reached a terminal state.
    pub reports: Vec<ShardReport>,
}

struct Attempt<H> {
    worker: u64,
    started: Instant,
    last_seen: Instant,
    speculative: bool,
    handle: H,
}

struct TaskState<H, const D: usize> {
    attempts_used: u32,
    timeouts: u32,
    retries: u32,
    next_launch: Instant,
    running: Vec<Attempt<H>>,
    result: Option<Done<D>>,
    failed: bool,
    won_speculatively: bool,
    replaced: bool,
}

impl<H, const D: usize> TaskState<H, D> {
    fn open(&self) -> bool {
        !self.replaced && !self.failed && self.result.is_none()
    }
}

struct Run<'a, const D: usize, T: WorkerTransport> {
    cfg: &'a ShardJoin,
    points: &'a [Point<D>],
    /// `points` as every attempt receives them after its task frame,
    /// encoded once per run.
    points_frame: Vec<u8>,
    /// The length of the task list, once a worker has reported it.
    total: Option<u32>,
    transport: &'a T,
    tx: Sender<Envelope>,
    tasks: BTreeMap<Vec<u32>, TaskState<T::Handle, D>>,
    worker_index: HashMap<u64, Vec<u32>>,
    next_worker: u64,
    stats: JoinStats,
    canceled: bool,
}

impl<const D: usize, T: WorkerTransport> Run<'_, D, T> {
    /// The entries of the task list `key` runs, once its length is known.
    fn slice(&self, key: &[u32]) -> Option<std::ops::Range<usize>> {
        self.total.map(|total| slice_of(key, self.cfg.shards, total as usize))
    }

    fn insert_task(&mut self, key: Vec<u32>) {
        // With no points the task completes at once: no worker needed.
        let result = self.points.is_empty().then(|| Done { completed: true, ..Done::default() });
        self.tasks.insert(
            key,
            TaskState {
                attempts_used: 0,
                timeouts: 0,
                retries: 0,
                next_launch: Instant::now(),
                running: Vec::new(),
                result,
                failed: false,
                won_speculatively: false,
                replaced: false,
            },
        );
    }

    fn event_loop(&mut self, rx: &Receiver<Envelope>) -> Result<(), CsjError> {
        loop {
            if let Some(token) = &self.cfg.cancel {
                if token.is_canceled() {
                    self.canceled = true;
                    return Ok(());
                }
            }
            if !self.tasks.values().any(TaskState::open) {
                return Ok(());
            }
            self.launch_due()?;
            match rx.recv_timeout(TICK) {
                Ok(env) => {
                    self.handle_event(env);
                    while let Ok(env) = rx.try_recv() {
                        self.handle_event(env);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    // Unreachable while we hold `tx`; treat as fatal.
                    return Err(CsjError::Shard(ShardError::Protocol(
                        "supervisor event channel disconnected".into(),
                    )));
                }
            }
            self.liveness_pass();
        }
    }

    fn live_workers(&self) -> usize {
        self.tasks.values().map(|t| t.running.len()).sum()
    }

    fn launch_due(&mut self) -> Result<(), CsjError> {
        let now = Instant::now();
        let cap = self.cfg.worker_cap();
        // Primary launches: open tasks with no running attempt whose
        // backoff gate has passed, in key order (deterministic).
        let due: Vec<Vec<u32>> = self
            .tasks
            .iter()
            .filter(|(_, t)| t.open() && t.running.is_empty() && now >= t.next_launch)
            .map(|(k, _)| k.clone())
            .collect();
        for key in due {
            if self.live_workers() >= cap {
                return Ok(());
            }
            self.launch(&key, false)?;
        }
        // Speculation: race a twin against a straggler that has been
        // running alone for longer than the threshold.
        if let Some(after) = self.cfg.speculate_after {
            let stragglers: Vec<Vec<u32>> = self
                .tasks
                .iter()
                .filter(|(_, t)| {
                    t.open()
                        && t.running.len() == 1
                        && !t.running[0].speculative
                        && now.duration_since(t.running[0].started) >= after
                        && t.attempts_used < self.cfg.max_attempts
                })
                .map(|(k, _)| k.clone())
                .collect();
            for key in stragglers {
                if self.live_workers() >= cap {
                    return Ok(());
                }
                self.launch(&key, true)?;
            }
        }
        Ok(())
    }

    fn launch(&mut self, key: &[u32], speculative: bool) -> Result<(), CsjError> {
        let cfg = self.cfg;
        let Some(task) = self.tasks.get_mut(key) else { return Ok(()) };
        task.attempts_used += 1;
        let attempt = task.attempts_used;
        let frame = TaskFrame {
            key: key.to_vec(),
            attempt,
            epsilon: cfg.epsilon,
            metric: cfg.metric,
            algo: cfg.algo,
            dim: D as u8,
            shards: cfg.shards as u32,
            heartbeat_ms: cfg.heartbeat_interval.as_millis().max(1) as u64,
            fault: cfg.fault_plan.directive(key, attempt),
            pager_fail_every_read: cfg.pager_fail_every_read,
            pager_attempts: cfg.pager_attempts,
        };
        let head = encode_frame(FRAME_TASK, &frame.encode());
        let bytes = [head.as_slice(), &self.points_frame].concat();
        let worker = self.next_worker;
        self.next_worker += 1;
        let handle = self.transport.launch(worker, bytes, &self.tx).map_err(CsjError::Shard)?;
        self.worker_index.insert(worker, key.to_vec());
        let now = Instant::now();
        if let Some(task) = self.tasks.get_mut(key) {
            task.running.push(Attempt {
                worker,
                started: now,
                last_seen: now,
                speculative,
                handle,
            });
        }
        Ok(())
    }

    fn handle_event(&mut self, env: Envelope) {
        let Some(key) = self.worker_index.get(&env.worker).cloned() else {
            // A retired worker (speculation loser, post-result EOF):
            // nothing to do.
            return;
        };
        match env.event {
            WorkerEvent::Frame { frame_type: FRAME_HEARTBEAT, payload }
                if HeartbeatFrame::decode(&payload).is_ok() =>
            {
                let task = self.tasks.get_mut(&key);
                let attempt =
                    task.and_then(|t| t.running.iter_mut().find(|a| a.worker == env.worker));
                if let Some(a) = attempt {
                    a.last_seen = Instant::now();
                }
            }
            WorkerEvent::Frame { frame_type: FRAME_RESULT, payload } => {
                match ResultFrame::decode(&payload, self.points) {
                    Ok(frame)
                        if frame.key == key && self.total.is_none_or(|t| t == frame.tasks) =>
                    {
                        self.complete(&key, env.worker, frame)
                    }
                    // Wrong key, another task list or undecodable: as
                    // corrupt.
                    _ => self.attempt_down(&key, env.worker),
                }
            }
            // A bad heartbeat, a typed fail, an unknown or corrupt frame,
            // or EOF with the worker still registered (no result came):
            // the attempt is lost.
            _ => self.attempt_down(&key, env.worker),
        }
    }

    fn complete(&mut self, key: &[u32], worker: u64, frame: ResultFrame<D>) {
        self.total = Some(frame.tasks);
        let Some(task) = self.tasks.get_mut(key) else { return };
        if task.result.is_some() {
            return;
        }
        let speculative =
            task.running.iter().find(|a| a.worker == worker).is_some_and(|a| a.speculative);
        if speculative {
            self.stats.shard_speculative_wins += 1;
            task.won_speculatively = true;
        }
        task.result = Some(frame.done);
        // First deterministic result wins: retire every attempt, the
        // winner included (kill is idempotent; losers' queued frames are
        // ignored once unregistered).
        for mut attempt in task.running.drain(..) {
            attempt.handle.kill();
            self.worker_index.remove(&attempt.worker);
        }
    }

    /// Retires one attempt after a failure (EOF, corrupt frame, typed
    /// fail, liveness strike) and schedules the task's future.
    fn attempt_down(&mut self, key: &[u32], worker: u64) {
        let Some(task) = self.tasks.get_mut(key) else { return };
        let Some(pos) = task.running.iter().position(|a| a.worker == worker) else {
            return;
        };
        let mut attempt = task.running.remove(pos);
        attempt.handle.kill();
        self.worker_index.remove(&worker);
        if task.result.is_some() || !task.running.is_empty() {
            // Already won, or a twin is still racing: no reschedule.
            return;
        }
        self.schedule_retry_or_fail(key);
    }

    fn schedule_retry_or_fail(&mut self, key: &[u32]) {
        let max_attempts = self.cfg.max_attempts;
        let backoff = self.cfg.backoff;
        let Some(task) = self.tasks.get_mut(key) else { return };
        if task.attempts_used >= max_attempts {
            task.failed = true;
            return;
        }
        task.retries += 1;
        self.stats.shard_retries += 1;
        // Deterministic jitter, salted by the task key so concurrent
        // retries of different shards spread apart.
        let salt = fnv1a64(&key.iter().flat_map(|k| k.to_le_bytes()).collect::<Vec<u8>>());
        task.next_launch = Instant::now() + backoff.backoff_for(task.attempts_used, salt);
    }

    fn liveness_pass(&mut self) {
        let now = Instant::now();
        let grace = self.cfg.heartbeat_interval * self.cfg.heartbeat_grace;
        let deadline = self.cfg.task_deadline;
        // Collect strikes first (borrow discipline), then apply.
        let mut lost: Vec<(Vec<u32>, u64)> = Vec::new();
        let mut timed_out: Vec<(Vec<u32>, u64)> = Vec::new();
        for (key, task) in &self.tasks {
            if !task.open() {
                continue;
            }
            for a in &task.running {
                if deadline.is_some_and(|d| now.duration_since(a.started) >= d) {
                    timed_out.push((key.clone(), a.worker));
                } else if now.duration_since(a.last_seen) >= grace {
                    lost.push((key.clone(), a.worker));
                }
            }
        }
        for (key, worker) in lost {
            self.attempt_down(&key, worker);
        }
        for (key, worker) in timed_out {
            self.stats.shard_timeouts += 1;
            if let Some(task) = self.tasks.get_mut(&key) {
                task.timeouts += 1;
            }
            self.attempt_down(&key, worker);
            // Two deadline strikes: the shard is likely skew-heavy —
            // replace it with its two halves instead of retrying as-is.
            // A slice of one entry would halve into itself (and one of
            // unknown length may hold one), so it retries within its
            // budget instead.
            let halves = self.slice(&key).is_some_and(|s| s.len() >= 2);
            if halves && self.tasks.get(&key).is_some_and(|t| t.open() && t.timeouts >= 2) {
                self.resplit(&key);
            }
        }
    }

    /// Replaces `key` with the two halves of its slice, each non-empty.
    fn resplit(&mut self, key: &[u32]) {
        let Some(task) = self.tasks.get_mut(key) else { return };
        task.replaced = true;
        for mut attempt in task.running.drain(..) {
            attempt.handle.kill();
        }
        self.stats.shard_resplits += 1;
        // Children start with a fresh attempt budget: they are new,
        // smaller tasks (and new fault-plan addresses).
        for half in 0..2 {
            let mut child = key.to_vec();
            child.push(half);
            self.insert_task(child);
        }
    }

    fn shutdown(&mut self) {
        for task in self.tasks.values_mut() {
            for mut attempt in task.running.drain(..) {
                attempt.handle.kill();
            }
        }
        self.worker_index.clear();
    }

    /// Commits the completed slices in key order, which is task-list
    /// order: a replaced key's halves sort right after it.
    fn into_output(mut self) -> ShardedOutput {
        let (tasks, mut stats) = (std::mem::take(&mut self.tasks), std::mem::take(&mut self.stats));
        let share = |key: &[u32]| match (self.slice(key), self.total) {
            (Some(slice), Some(total)) => slice.len() as f64 / f64::from(total.max(1)),
            _ => 0.0,
        };
        let (mut reports, mut slices) = (Vec::new(), Vec::new());
        let (mut done_share, mut all_done) = (0.0, true);
        for (key, task) in tasks {
            let task_share = share(&key);
            reports.push(ShardReport {
                key: key_string(&key),
                attempts: task.attempts_used,
                timeouts: task.timeouts,
                retries: task.retries,
                completed: task.result.is_some() && !task.replaced,
                task_share,
                speculative_win: task.won_speculatively,
                resplit: task.replaced,
            });
            match task.result {
                _ if task.replaced => {}
                Some(done) => {
                    done_share += task_share;
                    slices.push(done);
                }
                None => all_done = false,
            }
        }
        let cfg = self.cfg;
        let join = ResilientJoin::with_config(
            JoinConfig::new(cfg.epsilon).with_metric(cfg.metric),
            cfg.algo,
        );
        let (items, committed) = commit_slices(&join, slices);
        stats.absorb(&committed);
        stats.threads_used = stats.threads_used.max(1);
        let completion = if all_done {
            Completion::Complete
        } else {
            let reason = if self.canceled { StopReason::Canceled } else { StopReason::ShardsLost };
            let links: u64 = items.iter().map(|item| item.implied_links()).sum();
            // The width the CLI writes this dataset's ids at.
            let width = OutputWriter::<CountingSink>::id_width_for(self.points.len());
            let bytes = items.total_bytes(width);
            Completion::partial(reason, done_share, links, bytes)
        };
        ShardedOutput { output: JoinOutput { items, stats, completion }, reports }
    }
}
