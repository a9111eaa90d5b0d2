//! The daemon: accept loop, admission control, runner pool, drain.
//!
//! One thread owns the non-blocking listener and polls the shutdown
//! flag between accepts (signal handlers only store to an atomic — see
//! [`crate::signal`]). Accepted connections each get a thread that reads
//! exactly one request and answers it; `submit` streams rows until a
//! terminal record. Jobs flow through a bounded queue into a fixed pool
//! of runner threads, each of which runs its job as the offline sweep
//! campaign ([`reap_core::campaign::run_sweep_campaign`]) — so panic
//! isolation, retries with (jittered) backoff, deadlines, fault injection
//! and journaling all apply inside the daemon exactly as they do offline.
//!
//! Crash safety: every completed workload is appended (and flushed) to
//! the job's `reap-checkpoint/1` journal before its row is streamed, so
//! the journal is never behind what a client saw. A drain (SIGTERM,
//! SIGINT or a `shutdown` request) stops admissions, interrupts jobs at
//! the next workload boundary, and leaves the journals in place; a
//! restarted daemon serves journaled rows byte-identically and computes
//! only the remainder.

use crate::jobs::JobSpec;
use crate::protocol::{Request, Response};
use crate::signal;
use reap_core::campaign::{
    run_sweep_campaign, CampaignConfig, CampaignError, JobFailure, WorkloadView,
};
use reap_core::{CaptureStore, JobError, SupervisorConfig};
use reap_fault::ConnectionFault;
use reap_trace::SpecWorkload;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, ErrorKind, Read, Write};
use std::net::Shutdown;
use std::ops::ControlFlow;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

/// How long the accept loop sleeps when no connection is pending; also
/// bounds how stale the shutdown-flag check can get.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// Socket read timeout: the granularity at which blocked reads recheck
/// the shutdown flag and streaming loops poll for client disconnects.
const READ_POLL: Duration = Duration::from_millis(50);

/// How often the accept loop re-sweeps the state directory for
/// abandoned journals (also swept once at startup).
const JOURNAL_GC_INTERVAL: Duration = Duration::from_secs(60);

/// Bump a `serve.*` counter when telemetry is enabled.
fn bump(name: &str) {
    if reap_obs::enabled() {
        reap_obs::global().counter(name).add(1);
    }
}

/// Everything the daemon needs to run. Build one with
/// [`ServeConfig::new`] and adjust fields before calling [`serve`].
#[derive(Debug)]
pub struct ServeConfig {
    /// The Unix-domain socket path to listen on.
    pub socket: PathBuf,
    /// Directory for per-job journals (created if absent).
    pub state_dir: PathBuf,
    /// Worker threads per job (the supervised pool's parallelism).
    pub parallelism: usize,
    /// Jobs run concurrently (runner threads).
    pub max_active: usize,
    /// Jobs admitted beyond the active ones; a full queue answers `busy`.
    pub queue_depth: usize,
    /// The wait hint a `busy` response carries, in milliseconds.
    pub retry_after_ms: u64,
    /// Supervision policy for job workloads (retries, backoff, deadline,
    /// fault plan). The fault plan's connection fields drive the
    /// accept-path injection too.
    pub supervisor: SupervisorConfig,
    /// Optional on-disk capture store shared with offline sweeps: the
    /// daemon's only capture cache, reused across jobs.
    pub store: Option<CaptureStore>,
    /// Age after which an abandoned job journal (interrupted or failed,
    /// never resubmitted) is collected from the state directory. `None`
    /// disables the sweep. Journals of queued or active jobs are never
    /// collected, whatever their age.
    pub journal_gc_age: Option<Duration>,
}

impl ServeConfig {
    /// A small-footprint default: 2 concurrent jobs of 4 workers each,
    /// a queue of 4, 250 ms retry hints, no capture store.
    pub fn new(socket: impl Into<PathBuf>, state_dir: impl Into<PathBuf>) -> Self {
        Self {
            socket: socket.into(),
            state_dir: state_dir.into(),
            parallelism: 4,
            max_active: 2,
            queue_depth: 4,
            retry_after_ms: 250,
            supervisor: SupervisorConfig::default(),
            store: None,
            journal_gc_age: Some(Duration::from_secs(7 * 24 * 3600)),
        }
    }
}

/// One admitted job: the runner computes, the connection thread streams.
struct JobHandle {
    id: String,
    spec: JobSpec,
    cancelled: AtomicBool,
    /// The submitting connection's response channel. Behind a `Mutex`
    /// only to make the handle `Sync`; contention is two threads.
    tx: Mutex<mpsc::Sender<Response>>,
}

impl JobHandle {
    fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }

    /// Sends one response to the submitter; a gone receiver (client
    /// disconnected, stream dropped) cancels the job instead of erroring.
    fn send(&self, response: Response) {
        let tx = self.tx.lock().expect("job sender poisoned");
        if tx.send(response).is_err() {
            self.cancel();
        }
    }
}

struct ServerState {
    config: ServeConfig,
    queue: Mutex<VecDeque<Arc<JobHandle>>>,
    queue_ready: Condvar,
    /// Queued *and* running jobs, by id — the cancel path and the
    /// duplicate-submission check look here.
    jobs: Mutex<HashMap<String, Arc<JobHandle>>>,
    active: AtomicU64,
    /// Local drain flag (protocol `shutdown`); ORed with the process
    /// signal flag so in-process servers (tests) drain independently.
    draining: AtomicBool,
}

impl ServerState {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst) || signal::shutdown_requested()
    }

    fn status(&self) -> Response {
        Response::Status {
            active: self.active.load(Ordering::SeqCst),
            queued: self.queue.lock().expect("queue poisoned").len() as u64,
            draining: self.draining(),
        }
    }
}

/// Runs the daemon until a shutdown signal or `shutdown` request, then
/// drains: stops admissions, interrupts in-flight jobs at the next
/// workload boundary (journals intact), flushes queued jobs with
/// `interrupted` responses, and removes the socket.
///
/// # Errors
///
/// Returns an error when the socket cannot be bound (including when
/// another daemon already serves on it), the state directory cannot be
/// created, or the listener fails unrecoverably.
pub fn serve(config: ServeConfig) -> io::Result<()> {
    std::fs::create_dir_all(&config.state_dir)?;
    if config.socket.exists() {
        if UnixStream::connect(&config.socket).is_ok() {
            return Err(io::Error::new(
                ErrorKind::AddrInUse,
                format!("another daemon is serving on {}", config.socket.display()),
            ));
        }
        // Stale socket from a crashed daemon: nobody answers, reclaim it.
        std::fs::remove_file(&config.socket)?;
    }
    let listener = UnixListener::bind(&config.socket)?;
    listener.set_nonblocking(true)?;
    signal::install_shutdown_handler();

    let state = Arc::new(ServerState {
        config,
        queue: Mutex::new(VecDeque::new()),
        queue_ready: Condvar::new(),
        jobs: Mutex::new(HashMap::new()),
        active: AtomicU64::new(0),
        draining: AtomicBool::new(false),
    });

    let mut runners = Vec::new();
    for _ in 0..state.config.max_active.max(1) {
        let state = Arc::clone(&state);
        runners.push(std::thread::spawn(move || runner_loop(&state)));
    }

    // Collect journals abandoned before this daemon's lifetime, then
    // re-sweep periodically so a long-lived daemon stays tidy.
    sweep_stale_journals(&state);
    let mut last_gc = std::time::Instant::now();

    let plan = state.config.supervisor.fault_plan;
    let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut conn_serial: u64 = 0;
    let result = loop {
        if state.draining() {
            break Ok(());
        }
        if last_gc.elapsed() >= JOURNAL_GC_INTERVAL {
            sweep_stale_journals(&state);
            last_gc = std::time::Instant::now();
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                conn_serial += 1;
                let fault =
                    plan.map_or(ConnectionFault::None, |p| p.decide_connection(conn_serial));
                if matches!(fault, ConnectionFault::Refuse) {
                    bump("serve.conn.refused");
                    // Closing without a byte looks like a refused/reset
                    // connection to the client.
                    drop(stream);
                    continue;
                }
                bump("serve.conn.accepted");
                let state = Arc::clone(&state);
                connections.push(std::thread::spawn(move || {
                    handle_connection(&state, stream, conn_serial, fault);
                }));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => break Err(e),
        }
        // Reap finished connection threads so a long-lived daemon does
        // not accumulate handles.
        connections = connections
            .into_iter()
            .filter_map(|h| {
                if h.is_finished() {
                    let _ = h.join();
                    None
                } else {
                    Some(h)
                }
            })
            .collect();
    };

    // Drain. Admissions have stopped (the local flag gates them); flush
    // every queued job, then let runners finish their boundary and exit.
    state.draining.store(true, Ordering::SeqCst);
    let flushed: Vec<Arc<JobHandle>> = {
        let mut queue = state.queue.lock().expect("queue poisoned");
        queue.drain(..).collect()
    };
    for handle in flushed {
        handle.cancel();
        let resumable = handle.spec.journal_path(&state.config.state_dir).exists();
        handle.send(Response::Interrupted {
            job: handle.id.clone(),
            resumable,
        });
        bump("serve.jobs.interrupted");
        state.jobs.lock().expect("jobs poisoned").remove(&handle.id);
    }
    state.queue_ready.notify_all();
    for runner in runners {
        let _ = runner.join();
    }
    for connection in connections {
        let _ = connection.join();
    }
    let _ = std::fs::remove_file(&state.config.socket);
    result
}

/// Collects abandoned job journals: any `job-<id>.jsonl` in the state
/// directory whose last modification is older than the configured age
/// and whose id is neither queued nor active. A live job's journal is
/// never touched, whatever its mtime — a queued job can legitimately
/// sit idle past any threshold. Journals the daemon keeps on purpose
/// (interrupted or partially failed jobs, awaiting resubmission) age
/// out here once nobody comes back for them.
fn sweep_stale_journals(state: &ServerState) {
    let Some(max_age) = state.config.journal_gc_age else {
        return;
    };
    let entries = match std::fs::read_dir(&state.config.state_dir) {
        Ok(entries) => entries,
        Err(_) => return,
    };
    let live: HashSet<String> = state
        .jobs
        .lock()
        .expect("jobs poisoned")
        .keys()
        .cloned()
        .collect();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(id) = name
            .to_str()
            .and_then(|n| n.strip_prefix("job-"))
            .and_then(|n| n.strip_suffix(".jsonl"))
        else {
            continue;
        };
        if live.contains(id) {
            continue;
        }
        let age = entry
            .metadata()
            .and_then(|m| m.modified())
            .ok()
            .and_then(|t| t.elapsed().ok());
        // An unreadable mtime (or one in the future) counts as fresh:
        // never collect a journal whose age is unknown.
        if age.is_some_and(|a| a >= max_age) && std::fs::remove_file(entry.path()).is_ok() {
            bump("serve.journals.collected");
        }
    }
}

/// One runner thread: pop, run, repeat until drain.
fn runner_loop(state: &Arc<ServerState>) {
    loop {
        let handle = {
            let mut queue = state.queue.lock().expect("queue poisoned");
            loop {
                if let Some(handle) = queue.pop_front() {
                    break Some(handle);
                }
                if state.draining() {
                    break None;
                }
                let (guard, _timeout) = state
                    .queue_ready
                    .wait_timeout(queue, READ_POLL)
                    .expect("queue poisoned");
                queue = guard;
            }
        };
        let Some(handle) = handle else { return };
        if handle.is_cancelled() {
            // Cancelled while queued: never started, journal untouched.
            let resumable = handle.spec.journal_path(&state.config.state_dir).exists();
            handle.send(Response::Interrupted {
                job: handle.id.clone(),
                resumable,
            });
            bump("serve.jobs.interrupted");
        } else {
            state.active.fetch_add(1, Ordering::SeqCst);
            run_job(state, &handle);
            state.active.fetch_sub(1, Ordering::SeqCst);
        }
        state.jobs.lock().expect("jobs poisoned").remove(&handle.id);
    }
}

/// Runs one job to a terminal response: the offline sweep campaign over
/// the job's journal, streaming each workload as it becomes final.
fn run_job(state: &ServerState, handle: &JobHandle) {
    let spec = handle.spec;
    let journal = spec.journal_path(&state.config.state_dir);

    // Per-job budget overrides ride on the daemon's supervision policy.
    // A drain is the daemon's interrupt, so the simulated kill is off.
    let mut supervisor = state.config.supervisor;
    if let Some(retries) = spec.max_retries {
        supervisor.max_retries = retries;
    }
    if let Some(deadline_ms) = spec.deadline_ms {
        supervisor.deadline = Some(Duration::from_millis(deadline_ms));
    }
    if let Some(plan) = supervisor.fault_plan.as_mut() {
        plan.interrupt_after = None;
    }
    let mut config = CampaignConfig::new(
        spec.accesses,
        spec.seed,
        spec.mode,
        state.config.parallelism,
    );
    config.supervisor = supervisor;
    config.checkpoint = Some(journal.clone());
    config.resume = true;
    config.capture_store = state.config.store.clone();

    // The campaign journals each fresh result before the hook sees it,
    // so the journal is never behind what the client saw. Journaled rows
    // come first, bit-identical by the row codec.
    let mut stream = |o: WorkloadView<'_>| {
        let index = SpecWorkload::ALL
            .iter()
            .position(|&w| w == o.workload)
            .expect("a sweep workload") as u64;
        let key = o.workload.name().to_owned();
        match o.result {
            Ok(rows) => {
                handle.send(Response::Row {
                    index,
                    key,
                    resumed: o.from_checkpoint,
                    rows: rows.to_vec(),
                });
                bump(if o.from_checkpoint {
                    "serve.rows.resumed"
                } else {
                    "serve.rows.computed"
                });
            }
            Err(e) => handle.send(Response::Failed {
                index,
                key,
                error: e.to_string(),
            }),
        }
        if handle.is_cancelled() || state.draining() {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    };
    // A corrupt or foreign journal under our name is recreated: recompute
    // from scratch rather than serve rows we cannot trust.
    let mut outcome = run_sweep_campaign(&config, &mut stream);
    if let Err(CampaignError::Checkpoint(_)) = outcome {
        config.resume = false;
        outcome = run_sweep_campaign(&config, &mut stream);
    }
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            handle.send(Response::Error {
                message: e.to_string(),
            });
            return;
        }
    };
    if let Some(warning) = &outcome.checkpoint_warning {
        eprintln!("warning: {warning}");
    }

    // A `Break` only matters if it left work undone: a drain that lands
    // after the last row still completes the job.
    let interrupted = outcome
        .outcomes
        .iter()
        .any(|o| matches!(o.result, Err(JobFailure::Supervision(JobError::Cancelled))));
    if interrupted {
        // Journal kept: a resubmission resumes from it.
        handle.send(Response::Interrupted {
            job: handle.id.clone(),
            resumable: true,
        });
        bump("serve.jobs.interrupted");
    } else {
        let failed = outcome.failed as u64;
        if failed == 0 {
            // Clean completion: the journal has served its purpose.
            // Remove it before answering so a client that checks the
            // state dir as soon as it reads `done` never races the
            // delete.
            let _ = std::fs::remove_file(&journal);
        }
        // With failures the journal stays: a resubmission resumes the
        // successes and retries only the failed workloads.
        handle.send(Response::Done {
            job: handle.id.clone(),
            ok: outcome.outcomes.len() as u64 - failed,
            failed,
            resumed: outcome.resumed as u64,
        });
        bump("serve.jobs.completed");
    }
}

/// Splits one `\n`-terminated line off the front of `buf`, if present.
fn next_line(buf: &mut Vec<u8>) -> Option<String> {
    let pos = buf.iter().position(|&b| b == b'\n')?;
    let line: Vec<u8> = buf.drain(..=pos).collect();
    Some(String::from_utf8_lossy(&line[..line.len() - 1]).into_owned())
}

fn write_line(stream: &mut UnixStream, response: &Response) -> io::Result<()> {
    let mut line = response.to_line();
    line.push('\n');
    stream.write_all(line.as_bytes())
}

/// Reads one request line, rechecking the drain flag on every read
/// timeout. `None`: EOF, I/O failure, or drain.
fn read_request(stream: &mut UnixStream, buf: &mut Vec<u8>, state: &ServerState) -> Option<String> {
    loop {
        if let Some(line) = next_line(buf) {
            return Some(line);
        }
        let mut chunk = [0u8; 1024];
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if state.draining() {
                    return None;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
}

/// What a mid-stream poll of the client socket found.
enum ClientPoll {
    Idle,
    Cancel,
    Closed,
}

/// Checks the submitting client for a disconnect or an inline `cancel`
/// while its job streams.
fn poll_client(stream: &mut UnixStream, buf: &mut Vec<u8>) -> ClientPoll {
    let mut chunk = [0u8; 256];
    match stream.read(&mut chunk) {
        Ok(0) => return ClientPoll::Closed,
        Ok(n) => buf.extend_from_slice(&chunk[..n]),
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            return ClientPoll::Idle
        }
        Err(e) if e.kind() == ErrorKind::Interrupted => return ClientPoll::Idle,
        Err(_) => return ClientPoll::Closed,
    }
    while let Some(line) = next_line(buf) {
        if matches!(Request::parse(&line), Ok(Request::Cancel { .. })) {
            return ClientPoll::Cancel;
        }
    }
    ClientPoll::Idle
}

/// Serves one connection: read one request, answer it, hang up.
fn handle_connection(
    state: &Arc<ServerState>,
    mut stream: UnixStream,
    conn: u64,
    fault: ConnectionFault,
) {
    // A non-blocking listener's accepted sockets are blocking on Linux,
    // but make it explicit — the timeouts below assume blocking mode.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    if let Some(stall) = state
        .config
        .supervisor
        .fault_plan
        .as_ref()
        .and_then(|p| p.stall())
    {
        // Injected stalled read: the daemon sits on the request exactly
        // as long as the plan says, exercising client-side timeouts.
        bump("serve.conn.stalled");
        std::thread::sleep(stall);
    }
    let mut buf = Vec::new();
    let Some(line) = read_request(&mut stream, &mut buf, state) else {
        return;
    };
    let request = match Request::parse(&line) {
        Ok(request) => request,
        Err(e) => {
            let _ = write_line(
                &mut stream,
                &Response::Error {
                    message: e.to_string(),
                },
            );
            return;
        }
    };
    match request {
        Request::Submit(spec) => handle_submit(state, stream, buf, spec, conn, fault),
        Request::Cancel { job } => {
            let found = state.jobs.lock().expect("jobs poisoned").get(&job).cloned();
            let response = match found {
                Some(handle) => {
                    handle.cancel();
                    bump("serve.jobs.cancelled");
                    Response::Cancelled { job }
                }
                None => Response::Error {
                    message: format!("no such job {job}"),
                },
            };
            let _ = write_line(&mut stream, &response);
        }
        Request::Status => {
            let _ = write_line(&mut stream, &state.status());
        }
        Request::Metrics => {
            let snapshot = reap_obs::global().snapshot();
            let _ = reap_obs::export::write_jsonl(&snapshot, &mut stream);
        }
        Request::Shutdown => {
            state.draining.store(true, Ordering::SeqCst);
            state.queue_ready.notify_all();
            let _ = write_line(&mut stream, &state.status());
        }
    }
}

/// Admits (or sheds) a submit, then forwards the runner's responses to
/// the client while watching for disconnects and inline cancels.
fn handle_submit(
    state: &Arc<ServerState>,
    mut stream: UnixStream,
    mut buf: Vec<u8>,
    spec: JobSpec,
    conn: u64,
    fault: ConnectionFault,
) {
    let id = spec.id();
    // Admission under queue -> jobs lock order (drain uses the same).
    let admitted = {
        let mut queue = state.queue.lock().expect("queue poisoned");
        let mut jobs = state.jobs.lock().expect("jobs poisoned");
        let draining = state.draining();
        let queued = queue.len() as u64;
        let active = state.active.load(Ordering::SeqCst);
        // A duplicate id sheds too: two runners appending one journal
        // would corrupt it. The retry hint lets the client come back
        // after the in-flight twin finishes (and then hit its journal
        // or the capture store).
        if draining || queued >= state.config.queue_depth as u64 || jobs.contains_key(&id) {
            bump("serve.jobs.busy");
            Err(Response::Busy {
                retry_after_ms: state.config.retry_after_ms,
                active,
                queued,
                draining,
            })
        } else {
            let (tx, rx) = mpsc::channel();
            let handle = Arc::new(JobHandle {
                id: id.clone(),
                spec,
                cancelled: AtomicBool::new(false),
                tx: Mutex::new(tx),
            });
            jobs.insert(id.clone(), Arc::clone(&handle));
            queue.push_back(Arc::clone(&handle));
            Ok((handle, rx))
        }
    };
    let (handle, rx) = match admitted {
        Ok(admitted) => admitted,
        Err(busy) => {
            let _ = write_line(&mut stream, &busy);
            return;
        }
    };
    state.queue_ready.notify_one();
    bump("serve.jobs.accepted");
    if write_line(&mut stream, &Response::Accepted { job: id }).is_err() {
        handle.cancel();
        return;
    }

    // Injected dropped connection: hang up abruptly after a
    // deterministic number of rows (1..=4, drawn from the plan seed).
    let drop_after = matches!(fault, ConnectionFault::Drop).then(|| {
        let seed = state.config.supervisor.fault_plan.map_or(0, |p| p.seed);
        1 + (reap_fault::uniform(seed, conn, 1, 0x5e7e) * 4.0) as u64
    });

    let mut rows_written = 0u64;
    loop {
        match rx.recv_timeout(Duration::from_millis(25)) {
            Ok(response) => {
                if drop_after.is_some_and(|k| rows_written >= k) {
                    bump("serve.conn.dropped");
                    let _ = stream.shutdown(Shutdown::Both);
                    handle.cancel();
                    return;
                }
                let terminal = response.is_terminal();
                let is_row = matches!(response, Response::Row { .. });
                if write_line(&mut stream, &response).is_err() {
                    handle.cancel();
                    return;
                }
                if is_row {
                    rows_written += 1;
                }
                if terminal {
                    return;
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => match poll_client(&mut stream, &mut buf) {
                ClientPoll::Closed => {
                    bump("serve.conn.disconnected");
                    handle.cancel();
                    return;
                }
                ClientPoll::Cancel => {
                    bump("serve.jobs.cancelled");
                    handle.cancel();
                    // Keep forwarding: the runner's terminal
                    // `interrupted` confirms the cancellation.
                }
                ClientPoll::Idle => {}
            },
            // The runner vanished (it never does without a terminal
            // record, but do not spin if it somehow did).
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reap_core::SweepMode;

    fn state_with(config: ServeConfig) -> ServerState {
        ServerState {
            config,
            queue: Mutex::new(VecDeque::new()),
            queue_ready: Condvar::new(),
            jobs: Mutex::new(HashMap::new()),
            active: AtomicU64::new(0),
            draining: AtomicBool::new(false),
        }
    }

    #[test]
    fn journal_gc_collects_orphans_but_never_live_jobs() {
        let dir = std::env::temp_dir().join(format!("reap-serve-gc-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();

        let spec = JobSpec {
            mode: SweepMode::EccSweep,
            accesses: 1000,
            seed: 1,
            max_retries: None,
            deadline_ms: None,
        };
        let live_journal = spec.journal_path(&dir);
        std::fs::write(&live_journal, "live\n").unwrap();
        let orphan = dir.join("job-00000000deadbeef.jsonl");
        std::fs::write(&orphan, "orphan\n").unwrap();
        let unrelated = dir.join("notes.txt");
        std::fs::write(&unrelated, "keep\n").unwrap();

        // Age zero: every non-live journal is immediately stale — the
        // harshest setting the protection must survive.
        let mut config = ServeConfig::new(dir.join("gc.sock"), &dir);
        config.journal_gc_age = Some(Duration::ZERO);
        let state = state_with(config);
        let (tx, _rx) = mpsc::channel();
        state.jobs.lock().unwrap().insert(
            spec.id(),
            Arc::new(JobHandle {
                id: spec.id(),
                spec,
                cancelled: AtomicBool::new(false),
                tx: Mutex::new(tx),
            }),
        );

        sweep_stale_journals(&state);
        assert!(
            live_journal.exists(),
            "a queued/active job's journal must never be collected"
        );
        assert!(!orphan.exists(), "abandoned journal must be collected");
        assert!(unrelated.exists(), "non-journal files are left alone");

        // Once the job is gone (completed/abandoned), its journal ages
        // out like any other.
        state.jobs.lock().unwrap().clear();
        sweep_stale_journals(&state);
        assert!(!live_journal.exists(), "orphaned journal now collectable");

        // Disabled GC never touches anything.
        std::fs::write(&orphan, "orphan\n").unwrap();
        let mut config = ServeConfig::new(dir.join("gc.sock"), &dir);
        config.journal_gc_age = None;
        sweep_stale_journals(&state_with(config));
        assert!(orphan.exists(), "gc disabled must be a no-op");

        std::fs::remove_dir_all(dir).ok();
    }

    /// Runs `spec` on a state that is already draining, returning every
    /// response it sent.
    fn run_draining(dir: &std::path::Path, spec: JobSpec) -> Vec<Response> {
        let state = state_with(ServeConfig::new(dir.join("drain.sock"), dir));
        state.draining.store(true, Ordering::SeqCst);
        let (tx, rx) = mpsc::channel();
        let handle = JobHandle {
            id: spec.id(),
            spec,
            cancelled: AtomicBool::new(false),
            tx: Mutex::new(tx),
        };
        run_job(&state, &handle);
        drop(handle);
        rx.into_iter().collect()
    }

    #[test]
    fn a_drain_interrupts_only_a_job_it_leaves_unfinished() {
        let dir = std::env::temp_dir().join(format!("reap-serve-drain-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let spec = JobSpec {
            mode: SweepMode::Standard,
            accesses: 2000,
            seed: 5,
            max_retries: None,
            deadline_ms: None,
        };
        let journal = spec.journal_path(&dir);
        let mut config = CampaignConfig::new(spec.accesses, spec.seed, spec.mode, 2);
        config.checkpoint = Some(journal.clone());
        run_sweep_campaign(&config, |_| ControlFlow::Continue(())).unwrap();
        let full = std::fs::read_to_string(&journal).unwrap();
        let total = SpecWorkload::ALL.len() as u64;

        // Every workload is journaled: the drain stops nothing, so the
        // job completes and its journal goes.
        let responses = run_draining(&dir, spec);
        let rows = responses
            .iter()
            .filter(|r| matches!(r, Response::Row { resumed: true, .. }))
            .count() as u64;
        assert_eq!(rows, total);
        assert_eq!(
            responses.last(),
            Some(&Response::Done {
                job: spec.id(),
                ok: total,
                failed: 0,
                resumed: total,
            })
        );
        assert!(!journal.exists(), "a completed job deletes its journal");

        // Three journaled: the drain cancels the rest, so the job is
        // interrupted and keeps its journal for a resubmission.
        let head: Vec<&str> = full.lines().take(4).collect();
        std::fs::write(&journal, head.join("\n") + "\n").unwrap();
        let responses = run_draining(&dir, spec);
        assert_eq!(
            responses.last(),
            Some(&Response::Interrupted {
                job: spec.id(),
                resumable: true,
            })
        );
        assert_eq!(
            responses.len(),
            3 + 1,
            "the journaled rows, then the terminal"
        );
        assert!(journal.exists(), "an interrupted job keeps its journal");
        std::fs::remove_dir_all(dir).ok();
    }
}
