//! End-to-end daemon tests: a real `serve()` loop on a scratch socket,
//! driven by real clients. Job durations are made deterministic with
//! `reap-fault` delay injection (each workload sleeps a fixed injected
//! delay), so "interrupt mid-job" tests do not race the simulator.

use reap_core::checkpoint::row_to_json;
use reap_core::{SupervisorConfig, SweepJob, SweepMode, SweepRow};
use reap_fault::FaultPlan;
use reap_serve::protocol::{Request, Response};
use reap_serve::{request_one, serve, submit, ClientConfig, JobSpec, ServeConfig, SubmitOutcome};
use reap_trace::SpecWorkload;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "reap-serve-e2e-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A workload-boundary pacer: every supervised attempt sleeps `ms`, so a
/// 21-workload job takes at least `21 * ms` and an interrupt always
/// lands mid-job.
fn pacer(ms: u64) -> FaultPlan {
    FaultPlan {
        delay_rate: 1.0,
        delay: Duration::from_millis(ms),
        ..FaultPlan::default()
    }
}

struct TestServer {
    socket: PathBuf,
    state_dir: PathBuf,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl TestServer {
    fn start(config: ServeConfig) -> Self {
        let socket = config.socket.clone();
        let state_dir = config.state_dir.clone();
        let thread = std::thread::spawn(move || serve(config));
        for _ in 0..500 {
            if UnixStream::connect(&socket).is_ok() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Self {
            socket,
            state_dir,
            thread,
        }
    }

    fn client(&self) -> ClientConfig {
        ClientConfig {
            attempts: 40,
            io_timeout: Duration::from_secs(60),
            retry_pause: Duration::from_millis(30),
            ..ClientConfig::new(&self.socket)
        }
    }

    /// Requests a drain over the protocol and joins the accept loop.
    /// Retries the request: under chaos plans the shutdown connection
    /// itself can be refused or stalled.
    fn shutdown(self) {
        let client = ClientConfig {
            io_timeout: Duration::from_secs(5),
            ..ClientConfig::new(&self.socket)
        };
        for _ in 0..30 {
            if request_one(&client, &Request::Shutdown).is_ok() {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        self.thread
            .join()
            .expect("server thread panicked")
            .expect("serve() failed");
    }
}

/// A raw protocol connection, for tests that need response-by-response
/// control (the retrying [`submit`] client hides busy/interrupted).
struct Raw {
    stream: UnixStream,
    buf: Vec<u8>,
}

impl Raw {
    fn connect(socket: &Path) -> Self {
        let stream = UnixStream::connect(socket).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        Self {
            stream,
            buf: Vec::new(),
        }
    }

    fn send(&mut self, request: &Request) {
        let mut line = request.to_line();
        line.push('\n');
        self.stream.write_all(line.as_bytes()).expect("send");
    }

    fn next(&mut self) -> Response {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                let line = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
                return Response::parse(&line).expect("parse response");
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk).expect("read");
            assert!(n > 0, "server closed mid-stream");
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

fn spec(mode: SweepMode, accesses: u64, seed: u64) -> JobSpec {
    JobSpec {
        mode,
        accesses,
        seed,
        max_retries: None,
        deadline_ms: None,
    }
}

/// The offline expectation: the exact rows `reap sweep` would print.
fn offline(spec: &JobSpec) -> Vec<(String, Vec<SweepRow>)> {
    SpecWorkload::ALL
        .iter()
        .map(|&workload| {
            let job = SweepJob {
                workload,
                accesses: spec.accesses,
                seed: spec.seed,
                mode: spec.mode,
            };
            let rows = job.rows(None, &mut None).expect("offline rows");
            (workload.name().to_owned(), rows)
        })
        .collect()
}

fn encode(rows: &[(String, Vec<SweepRow>)]) -> String {
    rows.iter()
        .map(|(key, rows)| {
            let rows: Vec<String> = rows.iter().map(row_to_json).collect();
            format!("{key}:{}", rows.join(","))
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn assert_bit_identical(outcome: &SubmitOutcome, want: &[(String, Vec<SweepRow>)]) {
    assert!(outcome.failed.is_empty(), "failures: {:?}", outcome.failed);
    assert!(!outcome.interrupted, "gave up interrupted");
    assert_eq!(outcome.rows.len(), SpecWorkload::ALL.len());
    assert_eq!(
        encode(&outcome.rows),
        encode(want),
        "rows not bit-identical"
    );
}

#[test]
fn concurrent_clients_get_bit_identical_rows() {
    let mut config = ServeConfig::new(scratch("happy.sock"), scratch("happy-state"));
    config.parallelism = 2;
    config.max_active = 2;
    config.queue_depth = 4;
    let server = TestServer::start(config);

    let specs = [
        spec(SweepMode::Standard, 2000, 1),
        spec(SweepMode::Standard, 2000, 2),
        spec(SweepMode::EccSweep, 2000, 3),
    ];
    let expected: Vec<_> = specs.iter().map(offline).collect();

    let mut clients = Vec::new();
    for s in specs {
        let client = server.client();
        clients.push(std::thread::spawn(move || submit(&client, &s)));
    }
    for (handle, want) in clients.into_iter().zip(&expected) {
        let outcome = handle.join().unwrap().expect("submit");
        assert_bit_identical(&outcome, want);
        assert_eq!(outcome.resumed, 0, "nothing to resume on a fresh daemon");
    }

    // The daemon is idle again and answers status.
    let status = request_one(&server.client(), &Request::Status).expect("status");
    let Response::Status {
        active,
        queued,
        draining,
    } = status
    else {
        panic!("expected status, got {status:?}");
    };
    assert_eq!((active, queued, draining), (0, 0, false));

    // Clean completions delete their journals.
    let journals: Vec<_> = std::fs::read_dir(&server.state_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert!(journals.is_empty(), "leftover journals: {journals:?}");
    server.shutdown();
}

#[test]
fn saturated_daemon_sheds_with_busy_and_cancel_interrupts() {
    let mut config = ServeConfig::new(scratch("busy.sock"), scratch("busy-state"));
    config.max_active = 1;
    config.queue_depth = 2;
    config.supervisor = SupervisorConfig {
        fault_plan: Some(pacer(100)),
        ..SupervisorConfig::default()
    };
    let server = TestServer::start(config);

    let slow = spec(SweepMode::Standard, 2000, 7);
    let mut submitter = Raw::connect(&server.socket);
    submitter.send(&Request::Submit(slow));
    let Response::Accepted { job } = submitter.next() else {
        panic!("expected accepted");
    };
    assert_eq!(job, slow.id());

    // An identical concurrent submission is shed: two runners appending
    // one journal would corrupt it.
    let mut twin = Raw::connect(&server.socket);
    twin.send(&Request::Submit(slow));
    let Response::Busy { retry_after_ms, .. } = twin.next() else {
        panic!("expected busy for a duplicate submission");
    };
    assert_eq!(retry_after_ms, 250);

    // Cancel from a third connection; the submitter's stream ends in a
    // resumable interrupt.
    let mut canceller = Raw::connect(&server.socket);
    canceller.send(&Request::Cancel { job: job.clone() });
    assert_eq!(canceller.next(), Response::Cancelled { job: job.clone() });
    loop {
        let response = submitter.next();
        if response.is_terminal() {
            assert_eq!(
                response,
                Response::Interrupted {
                    job,
                    resumable: true
                }
            );
            break;
        }
    }
    assert!(
        slow.journal_path(&server.state_dir).exists(),
        "cancelled job keeps its journal"
    );
    server.shutdown();
}

#[test]
fn drain_then_restart_serves_journaled_rows_bit_identically() {
    let job_spec = spec(SweepMode::Standard, 2000, 9);
    let want = offline(&job_spec);
    let state_dir = scratch("drain-state");

    // First daemon: paced so the drain lands mid-job.
    let mut config = ServeConfig::new(scratch("drain-a.sock"), &state_dir);
    config.parallelism = 1;
    config.max_active = 1;
    config.supervisor = SupervisorConfig {
        fault_plan: Some(pacer(80)),
        ..SupervisorConfig::default()
    };
    let server = TestServer::start(config);

    let mut submitter = Raw::connect(&server.socket);
    submitter.send(&Request::Submit(job_spec));
    let Response::Accepted { .. } = submitter.next() else {
        panic!("expected accepted");
    };
    let mut streamed_before_drain = 0u64;
    while streamed_before_drain < 2 {
        if let Response::Row { .. } = submitter.next() {
            streamed_before_drain += 1;
        }
    }
    // Drain mid-job (the protocol path; CI's smoke covers real SIGTERM).
    let _ = request_one(&server.client(), &Request::Shutdown);
    loop {
        let response = submitter.next();
        if response.is_terminal() {
            assert_eq!(
                response,
                Response::Interrupted {
                    job: job_spec.id(),
                    resumable: true
                }
            );
            break;
        }
        streamed_before_drain += u64::from(matches!(response, Response::Row { .. }));
    }
    server.thread.join().unwrap().expect("serve() failed");
    assert!(
        job_spec.journal_path(&state_dir).exists(),
        "drained job keeps its journal"
    );
    assert!(
        streamed_before_drain < SpecWorkload::ALL.len() as u64,
        "drain landed after the job finished; pacer too fast"
    );

    // Second daemon, same state dir: resumes the journal, completes the
    // remainder, and the assembled rows are bit-identical to offline.
    let config = ServeConfig::new(scratch("drain-b.sock"), &state_dir);
    let server = TestServer::start(config);
    let outcome = submit(&server.client(), &job_spec).expect("resumed submit");
    assert!(
        outcome.resumed >= streamed_before_drain,
        "journal held at least the streamed rows ({} < {streamed_before_drain})",
        outcome.resumed
    );
    assert_bit_identical(&outcome, &want);
    assert!(
        !job_spec.journal_path(&state_dir).exists(),
        "clean completion deletes the journal"
    );
    server.shutdown();
}

#[test]
fn client_disconnect_cancels_its_job() {
    let mut config = ServeConfig::new(scratch("gone.sock"), scratch("gone-state"));
    config.max_active = 1;
    config.supervisor = SupervisorConfig {
        fault_plan: Some(pacer(80)),
        ..SupervisorConfig::default()
    };
    let server = TestServer::start(config);

    let job_spec = spec(SweepMode::Standard, 2000, 11);
    {
        let mut submitter = Raw::connect(&server.socket);
        submitter.send(&Request::Submit(job_spec));
        let Response::Accepted { .. } = submitter.next() else {
            panic!("expected accepted");
        };
        let Response::Row { .. } = submitter.next() else {
            panic!("expected a row");
        };
        // Hang up mid-stream.
    }
    // The daemon notices, cancels the job, and goes idle again.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let response = request_one(&server.client(), &Request::Status).expect("status");
        if let Response::Status {
            active: 0,
            queued: 0,
            ..
        } = response
        {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "job still running long after its client vanished"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        job_spec.journal_path(&server.state_dir).exists(),
        "disconnect-cancelled job keeps its journal for resubmission"
    );
    server.shutdown();
}

#[test]
fn chaos_connections_still_converge_bit_identically() {
    let plan: FaultPlan = "seed=11,refuse=0.35,drop=0.25,stall-ms=10"
        .parse()
        .expect("chaos plan");
    let mut config = ServeConfig::new(scratch("chaos.sock"), scratch("chaos-state"));
    config.parallelism = 2;
    config.max_active = 1;
    config.queue_depth = 2;
    config.supervisor = SupervisorConfig {
        fault_plan: Some(plan),
        ..SupervisorConfig::default()
    };
    let server = TestServer::start(config);

    let job_spec = spec(SweepMode::EccSweep, 1500, 5);
    let want = offline(&job_spec);
    let outcome = submit(&server.client(), &job_spec).expect("chaos submit");
    assert_bit_identical(&outcome, &want);
    assert!(
        outcome.attempts >= 1,
        "attempts is at least the final one: {}",
        outcome.attempts
    );
    server.shutdown();
}
