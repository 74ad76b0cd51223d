//! The traced run's instruments: an in-memory span recorder and wrappers
//! for the three seams a join crosses — the output sink, the page device
//! and the shard worker transport.
//!
//! Spans are taken at coarse boundaries only: per block handed to the
//! file, per page read, per shard worker. A row-level span would cost more
//! than the row (the parallel N-CSJ workload writes tens of millions of
//! rows per join), so the traced sink buffers rows into blocks itself.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use csj_core::ShardError;
use csj_shard::frame::{FRAME_FAIL, FRAME_RESULT};
use csj_shard::transport::{Envelope, ProcessHandle, WorkerEvent};
use csj_shard::{ProcessTransport, WorkerTransport};
use csj_storage::{Disk, OutputSink, Page, PageId, StorageError};

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// Bytes the traced sink gathers before handing them to the file in one
/// timed call.
const BLOCK_BYTES: usize = 64 * 1024;

/// One timed interval, nanoseconds since the tracer was created.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    /// Spans opened and not yet closed, innermost last.
    open: Vec<SpanId>,
}

/// Records spans in memory; [`Tracer::write_jsonl`] writes them out when
/// the run ends.
pub struct Tracer {
    epoch: Instant,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), state: Mutex::new(State::default()) }
    }

    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("tracer lock poisoned: a traced call panicked")
    }

    /// Opens a span under the innermost open one. Spans are opened and
    /// closed on the thread that runs the join.
    pub fn open(&self, name: &'static str) -> SpanId {
        let now = self.now();
        let mut state = self.state();
        let id = state.spans.len();
        let parent = state.open.last().copied();
        state.spans.push(Span { name, parent, start_ns: now, end_ns: now });
        state.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&self, id: SpanId) {
        let now = self.now();
        // Called from `Scope::drop`: never panic here.
        if let Ok(mut state) = self.state.lock() {
            if state.open.last() == Some(&id) {
                state.open.pop();
                state.spans[id].end_ns = now;
            }
        }
    }

    /// The innermost open span.
    pub fn current(&self) -> Option<SpanId> {
        self.state().open.last().copied()
    }

    /// Records a span that started at `start_ns` and ends now, under the
    /// innermost open span.
    pub fn record(&self, name: &'static str, start_ns: u64) {
        let end_ns = self.now();
        let mut state = self.state();
        let parent = state.open.last().copied();
        state.spans.push(Span { name, parent, start_ns, end_ns });
    }

    /// Records a finished span under an explicit parent: for intervals
    /// timed on another thread.
    pub fn record_under(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.state().spans.push(Span { name, parent, start_ns, end_ns });
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.state().spans.len()
    }

    pub fn with_spans<R>(&self, f: impl FnOnce(&[Span]) -> R) -> R {
        f(&self.state().spans)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.state().spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \
                 \"end_ns\": {}}}",
                span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// A span that closes when dropped; inert without a tracer, so untraced
/// joins run the same code with no recording.
pub struct Scope<'a> {
    tracer: Option<&'a Tracer>,
    id: SpanId,
}

impl<'a> Scope<'a> {
    pub fn open(tracer: Option<&'a Tracer>, name: &'static str) -> Self {
        let id = tracer.map_or(0, |t| t.open(name));
        Scope { tracer, id }
    }
}

impl Drop for Scope<'_> {
    fn drop(&mut self) {
        if let Some(tracer) = self.tracer {
            tracer.close(self.id);
        }
    }
}

/// Output sink wrapper: gathers rows into blocks and times each block
/// handed to the file (`storage.writer.write`) and the final flush
/// (`storage.writer.flush`).
pub struct TracedSink<S> {
    inner: S,
    tracer: Arc<Tracer>,
    block: Vec<u8>,
    bytes: u64,
}

impl<S: OutputSink> TracedSink<S> {
    pub fn new(inner: S, tracer: Arc<Tracer>) -> Self {
        TracedSink { inner, tracer, block: Vec::with_capacity(BLOCK_BYTES), bytes: 0 }
    }

    fn hand_off(&mut self) -> Result<(), StorageError> {
        if self.block.is_empty() {
            return Ok(());
        }
        let start = self.tracer.now();
        let written = self.inner.write_bytes(&self.block);
        self.tracer.record("storage.writer.write", start);
        self.block.clear();
        written
    }
}

impl<S: OutputSink> OutputSink for TracedSink<S> {
    fn write_bytes(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.block.extend_from_slice(bytes);
        self.bytes += bytes.len() as u64;
        if self.block.len() >= BLOCK_BYTES {
            self.hand_off()?;
        }
        Ok(())
    }

    fn bytes_written(&self) -> u64 {
        self.bytes
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        self.hand_off()?;
        let start = self.tracer.now();
        let flushed = self.inner.flush();
        self.tracer.record("storage.writer.flush", start);
        flushed
    }
}

/// Page device wrapper: times every synchronous page read
/// (`storage.disk.read`).
pub struct TracedDisk<D> {
    inner: D,
    tracer: Arc<Tracer>,
}

impl<D: Disk> TracedDisk<D> {
    pub fn new(inner: D, tracer: Arc<Tracer>) -> Self {
        TracedDisk { inner, tracer }
    }
}

impl<D: Disk> Disk for TracedDisk<D> {
    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }
    fn alloc(&mut self) -> Result<PageId, StorageError> {
        self.inner.alloc()
    }
    fn alloc_through(&mut self, id: PageId) -> Result<(), StorageError> {
        self.inner.alloc_through(id)
    }
    fn read(&mut self, id: PageId) -> Result<Page, StorageError> {
        let start = self.tracer.now();
        let page = self.inner.read(id);
        self.tracer.record("storage.disk.read", start);
        page
    }
    fn write(&mut self, page: &Page) -> Result<(), StorageError> {
        self.inner.write(page)
    }
    fn sync(&mut self) -> Result<(), StorageError> {
        self.inner.sync()
    }
    fn reads(&self) -> u64 {
        self.inner.reads()
    }
    fn writes(&self) -> u64 {
        self.inner.writes()
    }
    fn faults_injected(&self) -> u64 {
        self.inner.faults_injected()
    }
}

/// Worker transport wrapper: relays each worker's frames to the
/// supervisor and records a `shard.worker` span from launch to the
/// worker's terminal frame. Also counts the task bytes sent.
pub struct TracedTransport {
    inner: ProcessTransport,
    tracer: Arc<Tracer>,
    task_bytes: AtomicU64,
    relays: Mutex<Vec<JoinHandle<()>>>,
}

impl TracedTransport {
    pub fn new(inner: ProcessTransport, tracer: Arc<Tracer>) -> Self {
        TracedTransport {
            inner,
            tracer,
            task_bytes: AtomicU64::new(0),
            relays: Mutex::new(Vec::new()),
        }
    }

    /// Waits for every relay thread and returns the task bytes sent since
    /// the last call. Call after `ShardJoin::run` returns: by then the
    /// supervisor has reaped every worker, so each relay has seen its
    /// worker's end of stream.
    pub fn settle(&self) -> u64 {
        let relays = std::mem::take(&mut *self.relays.lock().expect("relay list lock poisoned"));
        for relay in relays {
            relay.join().expect("a frame relay thread panicked");
        }
        // ORDERING: a statistic; the joins above order the launches.
        self.task_bytes.swap(0, Ordering::Relaxed)
    }
}

fn is_terminal(event: &WorkerEvent) -> bool {
    match event {
        WorkerEvent::Frame { frame_type, .. } => {
            *frame_type == FRAME_RESULT || *frame_type == FRAME_FAIL
        }
        WorkerEvent::Corrupt(_) | WorkerEvent::Eof => true,
    }
}

impl WorkerTransport for TracedTransport {
    type Handle = ProcessHandle;

    fn launch(
        &self,
        worker: u64,
        task: Vec<u8>,
        events: &Sender<Envelope>,
    ) -> Result<ProcessHandle, ShardError> {
        let start = self.tracer.now();
        // Launches come from the supervisor loop, inside `shard.run`.
        let parent = self.tracer.current();
        // ORDERING: a statistic, read after the relays are joined.
        self.task_bytes.fetch_add(task.len() as u64, Ordering::Relaxed);
        let (tx, rx) = channel::<Envelope>();
        let handle = self.inner.launch(worker, task, &tx)?;
        drop(tx); // the relay ends when the worker's reader hangs up
        let events = events.clone();
        let tracer = Arc::clone(&self.tracer);
        let relay = std::thread::spawn(move || {
            let mut running = true;
            for envelope in rx {
                if running && is_terminal(&envelope.event) {
                    tracer.record_under("shard.worker", parent, start, tracer.now());
                    running = false;
                }
                // The supervisor hanging up after its last frame is normal.
                let _ = events.send(envelope);
            }
        });
        self.relays.lock().expect("relay list lock poisoned").push(relay);
        Ok(handle)
    }
}
