//! How the supervisor launches and talks to workers.
//!
//! The supervisor is written against [`WorkerTransport`], so the same
//! state machine drives two very different substrates:
//!
//! * [`ProcessTransport`] — the production path: spawn a worker
//!   *process* (`csj shard-worker`), write the task bytes to its stdin,
//!   and decode its stdout on a reader thread. A crash, `kill -9` or
//!   clean exit all surface uniformly as [`WorkerEvent::Eof`].
//! * [`InProcessTransport`] — the hermetic test path: run the same
//!   worker loop on a thread over an anonymous pipe. Tests exercise every
//!   supervisor transition without fork/exec cost, and `kill` is a
//!   cooperative flag the worker polls during sleeps.
//!
//! Whatever the substrate, decoded frames arrive at the supervisor as
//! [`Envelope`]s on a single mpsc channel, tagged with the worker id —
//! one receiver, no per-worker polling.

use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;

use csj_core::ShardError;

use crate::frame::{read_frame, ReadFrame};
use crate::worker::run_worker_with_kill;

/// One decoded occurrence on a worker's output stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkerEvent {
    /// A verified frame.
    Frame {
        /// One of the `FRAME_*` constants of [`crate::frame`].
        frame_type: u8,
        /// The frame payload.
        payload: Vec<u8>,
    },
    /// The stream is poisoned: bad magic, checksum mismatch, torn
    /// frame. No further frames will be read from this worker.
    Corrupt(String),
    /// The stream ended: the worker exited (or was killed).
    Eof,
}

/// A [`WorkerEvent`] tagged with the worker id that produced it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// Supervisor-assigned worker id (unique per launch).
    pub worker: u64,
    /// What happened.
    pub event: WorkerEvent,
}

/// A handle to a launched worker, used to reap or force-stop it.
pub trait WorkerHandle: Send {
    /// Stops the worker and releases its resources. Idempotent; called
    /// on every retirement (success, failure, speculation loss).
    fn kill(&mut self);
}

/// A substrate that can launch workers for the supervisor.
pub trait WorkerTransport {
    /// The handle type for workers of this transport.
    type Handle: WorkerHandle;

    /// Launches one worker: delivers `task` (an encoded task frame and
    /// the run's points frame) to it and streams its decoded output as
    /// [`Envelope`]s into `events`. Returns immediately; all I/O
    /// happens on background threads.
    ///
    /// # Errors
    /// Returns [`ShardError::Spawn`] when the worker cannot be started
    /// at all (missing binary, resource exhaustion). Failures *after*
    /// a successful launch are reported through the event stream.
    fn launch(
        &self,
        worker: u64,
        task: Vec<u8>,
        events: &Sender<Envelope>,
    ) -> Result<Self::Handle, ShardError>;
}

fn pump_frames(worker: u64, mut stream: impl Read, events: &Sender<Envelope>) {
    loop {
        let event = match read_frame(&mut stream) {
            Ok(ReadFrame::Frame { frame_type, payload }) => {
                WorkerEvent::Frame { frame_type, payload }
            }
            Ok(ReadFrame::Eof) => WorkerEvent::Eof,
            Err(e) => WorkerEvent::Corrupt(e.to_string()),
        };
        let terminal = !matches!(event, WorkerEvent::Frame { .. });
        // The supervisor hanging up mid-run (early return) is fine —
        // nothing left to notify.
        let _ = events.send(Envelope { worker, event });
        if terminal {
            return;
        }
    }
}

// ---------------------------------------------------------------------
// Process transport.
// ---------------------------------------------------------------------

/// Launches real worker processes and decodes their stdout.
#[derive(Clone, Debug)]
pub struct ProcessTransport {
    program: PathBuf,
    args: Vec<String>,
}

impl ProcessTransport {
    /// A transport spawning `program args…` per worker. The program
    /// must speak the worker side of the frame protocol on
    /// stdin/stdout — in production that is `csj shard-worker`.
    pub fn new(program: impl Into<PathBuf>, args: Vec<String>) -> Self {
        ProcessTransport { program: program.into(), args }
    }
}

/// Handle to a worker process: kill + reap.
#[derive(Debug)]
pub struct ProcessHandle {
    child: Option<Child>,
}

impl WorkerHandle for ProcessHandle {
    fn kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            // Best effort: the process may already have exited (kill on
            // an exited child is a no-op error) — wait() reaps either way.
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for ProcessHandle {
    fn drop(&mut self) {
        self.kill();
    }
}

impl WorkerTransport for ProcessTransport {
    type Handle = ProcessHandle;

    fn launch(
        &self,
        worker: u64,
        task: Vec<u8>,
        events: &Sender<Envelope>,
    ) -> Result<ProcessHandle, ShardError> {
        let mut child = Command::new(&self.program)
            .args(&self.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| ShardError::Spawn(format!("{}: {e}", self.program.display())))?;
        let mut stdin = child
            .stdin
            .take()
            .ok_or_else(|| ShardError::Spawn("worker stdin was not piped".into()))?;
        let stdout = child
            .stdout
            .take()
            .ok_or_else(|| ShardError::Spawn("worker stdout was not piped".into()))?;
        let tx = events.clone();
        std::thread::spawn(move || {
            // If the child died before reading its task the write fails
            // with EPIPE; the reader thread then delivers Eof and the
            // supervisor's lost-worker path takes over.
            let _ = stdin.write_all(&task);
            drop(stdin);
            pump_frames(worker, stdout, &tx);
        });
        Ok(ProcessHandle { child: Some(child) })
    }
}

// ---------------------------------------------------------------------
// In-process transport (worker thread over an anonymous pipe).
// ---------------------------------------------------------------------

/// Runs workers as threads over anonymous pipes — the hermetic test
/// substrate.
#[derive(Clone, Copy, Debug, Default)]
pub struct InProcessTransport;

impl InProcessTransport {
    /// A fresh in-process transport.
    pub fn new() -> Self {
        InProcessTransport
    }
}

/// Handle to an in-process worker: a cooperative kill flag.
#[derive(Debug)]
pub struct ThreadHandle {
    kill: Arc<AtomicBool>,
}

impl WorkerHandle for ThreadHandle {
    fn kill(&mut self) {
        // ORDERING: advisory stop flag polled by the worker during
        // sleeps; no data is published through it, only promptness is
        // affected, so relaxed visibility latency is acceptable.
        self.kill.store(true, Ordering::Relaxed);
    }
}

impl WorkerTransport for InProcessTransport {
    type Handle = ThreadHandle;

    fn launch(
        &self,
        worker: u64,
        task: Vec<u8>,
        events: &Sender<Envelope>,
    ) -> Result<ThreadHandle, ShardError> {
        let (reader, writer) =
            std::io::pipe().map_err(|e| ShardError::Spawn(format!("worker pipe: {e}")))?;
        let kill = Arc::new(AtomicBool::new(false));
        let worker_kill = Arc::clone(&kill);
        std::thread::spawn(move || {
            // A worker error (e.g. its output pipe closed) ends the
            // thread; dropping the writer is the EOF the supervisor sees.
            let _ = run_worker_with_kill(std::io::Cursor::new(task), writer, &worker_kill);
        });
        let etx = events.clone();
        std::thread::spawn(move || pump_frames(worker, reader, &etx));
        Ok(ThreadHandle { kill })
    }
}
