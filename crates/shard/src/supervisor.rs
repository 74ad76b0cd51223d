//! The fault-tolerant shard supervisor.
//!
//! [`ShardJoin`] plans ε-strip shards over the dataset, launches one
//! worker per shard through a [`WorkerTransport`], and supervises them
//! through a single event channel:
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
//!   its two halves (skew mitigation, keys `k.0`/`k.1`);
//! * shards that fail beyond the retry budget degrade the run to
//!   [`Completion::Partial`] with owned-point-weighted fractions — the
//!   surviving rows are still lossless over their region.
//!
//! Surviving results merge in task-key order. Worker emission is
//! deterministic and the ownership filter makes boundary emission
//! exactly-once, so two runs with the same plan are row-identical, and
//! the *expanded link set* of any fully-successful run — whatever the
//! shard count or fault schedule — equals the sequential join's
//! (DESIGN.md §10 has the argument).

use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use csj_core::parallel::ParallelAlgo;
use csj_core::{
    CancelToken, Completion, CsjError, JoinOutput, JoinStats, Rows, ShardError, StopReason,
};
use csj_geom::{Metric, Point};
use csj_storage::{fnv1a64, CountingSink, OutputWriter, RetryPolicy};

use crate::fault::ShardFaultPlan;
use crate::frame::{
    encode_frame, HeartbeatFrame, ResultFrame, TaskFrame, WirePoint, FRAME_FAIL, FRAME_HEARTBEAT,
    FRAME_RESULT, FRAME_TASK,
};
use crate::plan::{key_string, plan_shards, shard_membership, split_point, ShardSpec};
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

    /// Number of top-level shards (default 2; ties may collapse some).
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
    /// adaptive re-split of the shard.
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
        if self.max_workers > 0 {
            self.max_workers
        } else {
            self.shards.max(2)
        }
    }

    fn metric_code(&self) -> Result<u8, CsjError> {
        match self.metric {
            Metric::Euclidean => Ok(0),
            Metric::Manhattan => Ok(1),
            Metric::Chebyshev => Ok(2),
            Metric::Minkowski(p) => Err(CsjError::InvalidConfig(format!(
                "sharded execution does not support Minkowski({p}) yet"
            ))),
        }
    }

    fn algo_code(&self) -> (u8, u32) {
        match self.algo {
            ParallelAlgo::Ssj => (0, 0),
            ParallelAlgo::Ncsj => (1, 0),
            ParallelAlgo::Csj(g) => (2, g as u32),
        }
    }

    /// Runs the sharded join over `points` on `transport`.
    ///
    /// A fully successful run returns [`Completion::Complete`] output
    /// whose expanded link set equals the sequential join's. Shards
    /// failing beyond the retry budget (or a cancel) degrade to
    /// [`Completion::Partial`] with owned-point-weighted fractions.
    ///
    /// # Errors
    /// Returns [`CsjError::InvalidConfig`] for an unsupported metric
    /// and [`CsjError::Shard`] when the transport cannot spawn workers
    /// at all. Worker crashes, hangs, stragglers and corrupt frames are
    /// *not* errors — they are retried, then degraded to partial.
    pub fn run<const D: usize, T: WorkerTransport>(
        &self,
        points: &[Point<D>],
        transport: &T,
    ) -> Result<ShardedOutput, CsjError> {
        let metric_code = self.metric_code()?;
        let (algo_code, window) = self.algo_code();
        let (tx, rx) = channel::<Envelope>();
        let mut run = Run {
            cfg: self,
            metric_code,
            algo_code,
            window,
            points,
            transport,
            tx,
            tasks: BTreeMap::new(),
            worker_index: HashMap::new(),
            next_worker: 0,
            stats: JoinStats::default(),
            canceled: false,
        };
        for spec in plan_shards(points, self.shards) {
            run.insert_task(spec);
        }
        let result = run.event_loop(&rx);
        run.shutdown();
        result?;
        Ok(run.finish())
    }
}

/// Per-shard supervision summary, in task-key order.
#[derive(Clone, Debug, PartialEq, Eq)]
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
    /// Points this shard owns (the completion-fraction weight).
    pub owned_points: usize,
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

struct TaskState<H> {
    spec: ShardSpec,
    members: Vec<(u32, bool)>,
    owned_points: usize,
    attempts_used: u32,
    timeouts: u32,
    retries: u32,
    next_launch: Instant,
    running: Vec<Attempt<H>>,
    result: Option<ResultFrame>,
    failed: bool,
    won_speculatively: bool,
    replaced: bool,
}

impl<H> TaskState<H> {
    fn open(&self) -> bool {
        !self.replaced && !self.failed && self.result.is_none()
    }
}

struct Run<'a, const D: usize, T: WorkerTransport> {
    cfg: &'a ShardJoin,
    metric_code: u8,
    algo_code: u8,
    window: u32,
    points: &'a [Point<D>],
    transport: &'a T,
    tx: Sender<Envelope>,
    tasks: BTreeMap<Vec<u32>, TaskState<T::Handle>>,
    worker_index: HashMap<u64, Vec<u32>>,
    next_worker: u64,
    stats: JoinStats,
    canceled: bool,
}

impl<const D: usize, T: WorkerTransport> Run<'_, D, T> {
    fn insert_task(&mut self, spec: ShardSpec) {
        let members = shard_membership(self.points, &spec, self.cfg.epsilon);
        let owned_points = members.iter().filter(|(_, o)| *o).count();
        // A member-less shard (empty dataset) completes trivially — no
        // worker needed.
        let result = members.is_empty().then(|| ResultFrame {
            key: spec.key.clone(),
            attempt: 0,
            items: Rows::new(),
            stats: JoinStats::default(),
        });
        let key = spec.key.clone();
        self.tasks.insert(
            key,
            TaskState {
                spec,
                members,
                owned_points,
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
        let (attempt, frame) = {
            let Some(task) = self.tasks.get_mut(key) else { return Ok(()) };
            task.attempts_used += 1;
            let attempt = task.attempts_used;
            let (fault, fault_param) = cfg
                .fault_plan
                .directive(key, attempt)
                .map(crate::fault::FaultKind::to_wire)
                .unwrap_or((crate::frame::fault_code::NONE, 0));
            let points = self.points;
            let frame = TaskFrame {
                key: key.to_vec(),
                attempt,
                epsilon: cfg.epsilon,
                metric: self.metric_code,
                algo: self.algo_code,
                window: self.window,
                dim: D as u8,
                heartbeat_ms: cfg.heartbeat_interval.as_millis().max(1) as u64,
                fault,
                fault_param,
                pager_fail_every_read: cfg.pager_fail_every_read,
                pager_attempts: cfg.pager_attempts,
                points: task
                    .members
                    .iter()
                    .map(|&(id, owned)| WirePoint {
                        id,
                        owned,
                        coords: points[id as usize].coords().to_vec(),
                    })
                    .collect(),
            };
            (attempt, frame)
        };
        let _ = attempt;
        let bytes = encode_frame(FRAME_TASK, &frame.encode());
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
            WorkerEvent::Frame { frame_type: FRAME_HEARTBEAT, payload } => {
                if HeartbeatFrame::decode(&payload).is_ok() {
                    if let Some(task) = self.tasks.get_mut(&key) {
                        if let Some(a) = task.running.iter_mut().find(|a| a.worker == env.worker) {
                            a.last_seen = Instant::now();
                        }
                    }
                } else {
                    self.attempt_down(&key, env.worker);
                }
            }
            WorkerEvent::Frame { frame_type: FRAME_RESULT, payload } => {
                match ResultFrame::decode(&payload) {
                    Ok(frame) if frame.key == key => self.complete(&key, env.worker, frame),
                    // Wrong key or undecodable: as corrupt.
                    _ => self.attempt_down(&key, env.worker),
                }
            }
            WorkerEvent::Frame { frame_type: FRAME_FAIL, .. } => {
                self.attempt_down(&key, env.worker);
            }
            WorkerEvent::Frame { .. } | WorkerEvent::Corrupt(_) => {
                self.attempt_down(&key, env.worker);
            }
            WorkerEvent::Eof => {
                // EOF with the worker still registered means no result
                // arrived: the worker is lost (crash / kill).
                self.attempt_down(&key, env.worker);
            }
        }
    }

    fn complete(&mut self, key: &[u32], worker: u64, frame: ResultFrame) {
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
        task.result = Some(frame);
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
            let strikes = self.tasks.get(&key).map_or(0, |t| t.timeouts);
            let open = self.tasks.get(&key).is_some_and(TaskState::open);
            if open && strikes >= 2 {
                self.resplit(&key);
            }
        }
    }

    fn resplit(&mut self, key: &[u32]) {
        let Some(task) = self.tasks.get(key) else { return };
        let Some(mid) = split_point(self.points, &task.spec) else {
            return; // unsplittable: keep retrying within the budget
        };
        let (left, right) = task.spec.split_at(mid);
        self.stats.shard_resplits += 1;
        if let Some(task) = self.tasks.get_mut(key) {
            task.replaced = true;
            for mut attempt in task.running.drain(..) {
                attempt.handle.kill();
            }
        }
        // Children start with a fresh attempt budget: they are new,
        // smaller tasks (and new fault-plan addresses).
        self.insert_task(left);
        self.insert_task(right);
    }

    fn shutdown(&mut self) {
        for task in self.tasks.values_mut() {
            for mut attempt in task.running.drain(..) {
                attempt.handle.kill();
            }
        }
        self.worker_index.clear();
    }

    fn finish(self) -> ShardedOutput {
        let mut items = Rows::new();
        let mut stats = self.stats;
        let mut reports = Vec::new();
        let mut total_weight = 0usize;
        let mut done_weight = 0usize;
        let mut all_done = true;
        for (key, task) in &self.tasks {
            reports.push(ShardReport {
                key: key_string(key),
                attempts: task.attempts_used,
                timeouts: task.timeouts,
                retries: task.retries,
                completed: task.result.is_some() && !task.replaced,
                owned_points: task.owned_points,
                speculative_win: task.won_speculatively,
                resplit: task.replaced,
            });
            if task.replaced {
                continue;
            }
            total_weight += task.owned_points;
            match &task.result {
                Some(frame) => {
                    items.append(&frame.items);
                    stats.absorb(&frame.stats);
                    done_weight += task.owned_points;
                }
                None => all_done = false,
            }
        }
        stats.threads_used = stats.threads_used.max(1);
        let completion = if all_done {
            Completion::Complete
        } else {
            let reason = if self.canceled { StopReason::Canceled } else { StopReason::ShardsLost };
            let fraction =
                if total_weight == 0 { 0.0 } else { done_weight as f64 / total_weight as f64 };
            let links: u64 = items.iter().map(|item| item.implied_links()).sum();
            // The width the CLI writes this dataset's ids at.
            let width = OutputWriter::<CountingSink>::id_width_for(self.points.len());
            let bytes = items.total_bytes(width);
            Completion::partial(reason, fraction, links, bytes)
        };
        ShardedOutput { output: JoinOutput { items, stats, completion }, reports }
    }
}
