//! The end-to-end pass: the release `reap` binary as a child process,
//! telemetry off, closed loop with one client and one child at a time,
//! plus traced runs of the same command.

use crate::ledger::Metrics;
use crate::spans::Spans;
use crate::stats::{fnv1a, median, MIB};
use crate::workloads::{Invocation, Kind, Sizes, Workload, DEFAULT_SEED, FULL};
use reap_obs::Snapshot;
use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Everything one workload's measurement needs.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The `reap` binary.
    pub reap: PathBuf,
    /// Scratch directory; each workload gets a fresh subdirectory.
    pub work: PathBuf,
    /// Access budgets.
    pub sizes: Sizes,
    /// Trace seed.
    pub seed: u64,
    /// `-j` of the pooled commands: the available parallelism.
    pub jobs: usize,
    /// Keep repeating until this many seconds have been measured.
    pub seconds: f64,
    /// … and at least this many repetitions.
    pub reps: usize,
    /// Set-up repetitions; `setup_s` is their median.
    pub setups: usize,
    /// Follow every repetition with a traced one, so the cost of tracing
    /// is a paired comparison; otherwise one traced run follows them all.
    pub paired_traced: bool,
}

impl Ctx {
    fn at<'a>(&self, dir: &'a Path) -> Invocation<'a> {
        Invocation {
            sizes: self.sizes,
            seed: self.seed,
            jobs: self.jobs,
            dir,
        }
    }
}

/// One finished `reap` invocation.
struct Child {
    wall_s: f64,
    ok: bool,
    stdout: Vec<u8>,
    stderr: String,
    /// Peak resident set of the child, when the platform reports it.
    peak_rss_bytes: Option<u64>,
}

/// Runs `reap` with `args`, its stderr going to `stderr_path`.
fn run(reap: &Path, args: &[String], stderr_path: &Path) -> Result<Child, String> {
    let fail = |e: std::io::Error| format!("running {}: {e}", reap.display());
    let stderr = File::create(stderr_path).map_err(fail)?;
    let start = Instant::now();
    let mut child = Command::new(reap)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(stderr)
        .spawn()
        .map_err(fail)?;
    let mut stdout = Vec::new();
    child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(&mut stdout)
        .map_err(fail)?;
    let (ok, peak_rss_bytes) = wait_with_rss(child).map_err(fail)?;
    let wall_s = start.elapsed().as_secs_f64();
    Ok(Child {
        wall_s,
        ok,
        stdout,
        stderr: std::fs::read_to_string(stderr_path).unwrap_or_default(),
        peak_rss_bytes,
    })
}

/// Reaps `child` with `wait4`, which also reports its peak RSS. Returns
/// whether it exited with status 0.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn wait_with_rss(child: std::process::Child) -> std::io::Result<(bool, Option<u64>)> {
    /// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 `long`s
    /// of which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        maxrss_kib: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
    }
    let pid = i32::try_from(child.id()).expect("Linux pids fit in i32");
    let mut status = 0i32;
    let mut usage = Rusage {
        times: [0; 4],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the C `int` and `struct rusage` of 64-bit Linux; `pid` is this
        // process's own child, spawned above and not yet waited for, and
        // nothing else here waits for it.
        let got = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if got == pid {
            break;
        }
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    // Already reaped: dropping the handle neither waits nor kills.
    drop(child);
    let exited_zero = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    let peak = u64::try_from(usage.maxrss_kib).ok().map(|kib| kib * 1024);
    Ok((exited_zero, peak))
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn wait_with_rss(mut child: std::process::Child) -> std::io::Result<(bool, Option<u64>)> {
    Ok((child.wait()?.success(), None))
}

/// Invocations made and what went wrong with them.
#[derive(Debug, Default)]
pub struct Log {
    /// `reap` invocations made.
    pub attempted: u64,
    /// One line per failed exit or failed output check.
    pub failures: Vec<String>,
}

impl Log {
    /// Counts one invocation; returns whether it exited 0.
    fn invoked(&mut self, what: &str, child: &Child) -> bool {
        self.attempted += 1;
        if !child.ok {
            let last = child.stderr.lines().last().unwrap_or_default();
            self.failures
                .push(format!("{what} exited non-zero: {last}"));
        }
        child.ok
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Requires `stdout` to equal the first output seen in `first`.
    fn same(&mut self, first: &mut Option<Vec<u8>>, stdout: &[u8], what: &str) {
        match first {
            None => *first = Some(stdout.to_vec()),
            Some(f) => self.check(f == stdout, || what.to_owned()),
        }
    }

    /// Failed invocations and checks, at most one per invocation.
    pub fn failed(&self) -> u64 {
        (self.failures.len() as u64).min(self.attempted)
    }
}

/// What the end-to-end pass measured for one workload.
#[derive(Debug)]
pub struct E2e {
    /// Invocations and failures.
    pub log: Log,
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Seconds of each measured repetition.
    pub wall_s: Vec<f64>,
    /// Peak RSS of each measured repetition, where reported.
    pub peak_rss_bytes: Vec<f64>,
    /// FNV-1a of the repetitions' stdout.
    pub digest: u64,
    /// Seconds of each traced run.
    pub traced_wall_s: Vec<f64>,
    /// The last traced run's metrics.
    pub traced: Option<Snapshot>,
    /// Bytes under the capture directory after the runs.
    pub store_bytes: u64,
}

/// Runs `w`'s set-up, its measured repetitions, its traced run and, for
/// a cold workload, its warm partner, checking every output on the way.
///
/// # Errors
///
/// Only for failures of the benchmark itself (a child that cannot be
/// spawned, a scratch directory that cannot be written); failures of
/// `reap` are counted in the returned [`Log`].
pub fn measure(w: Workload, ctx: &Ctx, spans: &mut Spans, root: usize) -> Result<E2e, String> {
    let dir = ctx.work.join(w.name);
    remove(&dir)?;
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let (warm, cold) = (dir.join("warm"), dir.join("cold"));
    let store = if w.is_cold() { &cold } else { &warm };
    let stderr = dir.join("stderr.txt");
    let mut log = Log::default();

    // Set-up builds the warm store. The first build is needed before any
    // repetition and only warms the host (it runs measurably slower), so
    // it is not timed; the timed rebuilds are spread through the measured
    // window, where one burst of contention cannot move most of them.
    let mut setup_s = Vec::new();
    let mut reference = None;
    let mut set_up = |spans: &mut Spans, log: &mut Log| -> Result<f64, String> {
        remove(&warm)?;
        let id = spans.open("setup", Some(root), w.name);
        let child = run(&ctx.reap, &w.setup_args(ctx.at(&warm)), &stderr)?;
        spans.close(id);
        if log.invoked("set-up", &child) {
            log.same(&mut reference, &child.stdout, "set-up runs disagree");
        }
        Ok(child.wall_s)
    };
    set_up(spans, &mut log)?;

    let (mut wall_s, mut peak_rss_bytes) = (Vec::new(), Vec::new());
    let mut traced_wall_s = Vec::new();
    let mut traced = None;
    let mut output = None;
    let start = Instant::now();
    // Seconds of timed set-ups, which do not count towards the window.
    let mut in_setup = 0.0;
    let measured = |in_setup: f64| start.elapsed().as_secs_f64() - in_setup;
    while wall_s.len() < ctx.reps || measured(in_setup) < ctx.seconds {
        // The i-th timed set-up falls at (i + 1/2) / setups of the window.
        let due = (setup_s.len() as f64 + 0.5) * ctx.seconds / ctx.setups as f64;
        if setup_s.len() < ctx.setups && measured(in_setup) >= due {
            let began = Instant::now();
            setup_s.push(set_up(spans, &mut log)?);
            in_setup += began.elapsed().as_secs_f64();
        }
        if w.is_cold() {
            remove(&cold)?;
        }
        let id = spans.open("rep", Some(root), w.name);
        let child = run(&ctx.reap, &w.rep_args(ctx.at(store)), &stderr)?;
        spans.close(id);
        wall_s.push(child.wall_s);
        peak_rss_bytes.extend(child.peak_rss_bytes.map(|b| b as f64));
        if log.invoked("repetition", &child) {
            log.same(&mut output, &child.stdout, "repetitions disagree");
        }
        if ctx.paired_traced {
            let expect = output.as_deref().unwrap_or_default();
            let (wall, snapshot) = traced_run(w, ctx, &dir, spans, root, &mut log, expect)?;
            traced_wall_s.push(wall);
            traced = snapshot.or(traced);
        }
    }
    while setup_s.len() < ctx.setups {
        setup_s.push(set_up(spans, &mut log)?);
    }
    let output = output.unwrap_or_default();
    if traced_wall_s.is_empty() {
        let (wall, snapshot) = traced_run(w, ctx, &dir, spans, root, &mut log, &output)?;
        traced_wall_s.push(wall);
        traced = snapshot;
    }
    let store_bytes = dir_bytes(store)?;

    if let Some(args) = w.partner_args(ctx.at(&warm)) {
        let id = spans.open("partner", Some(root), w.name);
        let child = run(&ctx.reap, &args, &stderr)?;
        spans.close(id);
        if log.invoked("warm partner", &child) {
            log.check(child.stdout == output, || {
                "cold and warm stdout differ".to_owned()
            });
        }
    }
    // The explore's set-up prints a sweep table; every other workload
    // must reproduce its set-up's stdout, cold or warm.
    if w.kind != Kind::ExploreWarm {
        log.check(reference.as_deref() == Some(&output[..]), || {
            "stdout differs from the set-up run's".to_owned()
        });
    }
    let digest = fnv1a(&output);
    if ctx.seed == DEFAULT_SEED && ctx.sizes == FULL {
        log.check(digest == w.pinned_digest, || {
            format!(
                "stdout digest {digest:016x} differs from the pinned {:016x}",
                w.pinned_digest
            )
        });
    }
    remove(&dir)?;
    Ok(E2e {
        log,
        setup_s,
        wall_s,
        peak_rss_bytes,
        digest,
        traced_wall_s,
        traced,
        store_bytes,
    })
}

/// One run of the measured command with `--metrics-out`, whose stdout
/// must equal the untraced `expect`. Returns its wall time and metrics.
fn traced_run(
    w: Workload,
    ctx: &Ctx,
    dir: &Path,
    spans: &mut Spans,
    root: usize,
    log: &mut Log,
    expect: &[u8],
) -> Result<(f64, Option<Snapshot>), String> {
    let store = dir.join(if w.is_cold() { "cold" } else { "warm" });
    if w.is_cold() {
        remove(&store)?;
    }
    let metrics_path = dir.join("traced.jsonl");
    let mut args = w.rep_args(ctx.at(&store));
    args.extend([
        "--metrics-out".to_owned(),
        metrics_path.display().to_string(),
    ]);
    let id = spans.open("traced", Some(root), w.name);
    let child = run(&ctx.reap, &args, &dir.join("stderr.txt"))?;
    spans.close(id);
    if !log.invoked("traced run", &child) {
        return Ok((child.wall_s, None));
    }
    log.check(child.stdout == expect, || {
        "traced stdout differs from untraced".to_owned()
    });
    let snapshot = std::fs::read_to_string(&metrics_path)
        .map_err(|e| e.to_string())
        .and_then(|text| Snapshot::from_metrics_str(&text));
    let snapshot = match snapshot {
        Ok(s) => s,
        Err(e) => {
            log.failures.push(format!("traced metrics unreadable: {e}"));
            return Ok((child.wall_s, None));
        }
    };
    if !w.is_cold() {
        let hits = counter(&snapshot, "capture_store.hit");
        let misses = counter(&snapshot, "capture_store.miss");
        log.check(hits > 0 && misses == 0, || {
            format!("warm run missed the store ({hits} hits, {misses} misses)")
        });
    }
    Ok((child.wall_s, Some(snapshot)))
}

impl E2e {
    /// The end-to-end metrics. `wall_s` and `peak_rss_mib` are the best
    /// repetition's: on a shared host, contention arrives in bursts of
    /// seconds to minutes, which move a run's median far more than its
    /// minimum, and a small process's peak RSS jumps between two modes
    /// from one invocation to the next.
    pub fn metrics(&self, w: Workload, sizes: Sizes) -> Metrics {
        let best = |v: &[f64]| v.iter().copied().fold(f64::NAN, f64::min);
        let wall = best(&self.wall_s);
        let traced = self.traced.as_ref();
        let mut m = Metrics::new();
        m.insert("wall_s".into(), wall);
        m.insert(
            "sim_accesses_per_s".into(),
            w.window_accesses(sizes) as f64 / wall,
        );
        m.insert(
            "scored_event_points_per_s".into(),
            traced.map_or(f64::NAN, scored_event_points) / wall,
        );
        m.insert("peak_rss_mib".into(), best(&self.peak_rss_bytes) / MIB);
        m.insert("store_mib".into(), self.store_bytes as f64 / MIB);
        m.insert("setup_s".into(), median(&self.setup_s));
        m
    }

    /// The per-layer metrics the traced run yields: the job pool and the
    /// store's hit ratio, plus the cost of tracing itself.
    pub fn traced_metrics(&self, nproc: usize) -> Metrics {
        let mut m = Metrics::new();
        m.insert(
            "obs.overhead_frac".into(),
            median(&self.traced_wall_s) / median(&self.wall_s) - 1.0,
        );
        let Some(s) = &self.traced else {
            return m;
        };
        let (hits, misses) = (
            counter(s, "capture_store.hit"),
            counter(s, "capture_store.miss"),
        );
        m.insert(
            "capture_store.hit_ratio".into(),
            hits as f64 / (hits + misses).max(1) as f64,
        );
        let process = s.process.clone().unwrap_or_default();
        m.insert(
            "pool.cpu_util".into(),
            process.cpu_s.unwrap_or(f64::NAN) / (process.wall_s * nproc as f64),
        );
        let mut jobs: Vec<f64> = s
            .spans
            .iter()
            .filter(|r| r.name.ends_with(".job"))
            .map(|r| r.wall_seconds())
            .collect();
        // A command without a pool is one job: the whole process.
        if jobs.is_empty() {
            jobs.push(process.wall_s);
        }
        m.insert("pool.jobs".into(), jobs.len() as f64);
        m.insert("pool.job_p50_s".into(), median(&jobs));
        m.insert(
            "pool.job_max_s".into(),
            jobs.iter().copied().fold(f64::NAN, f64::max),
        );
        m
    }
}

/// Σ over every capture scored of (its events × the points scored
/// against it), from the traced run's replay spans. A batched replay's
/// points come from `sim.replay_batch.points` spread evenly over its
/// calls, which is exact when every batch phase covers the same
/// captures — true of `reap sweep` and `reap explore`.
pub fn scored_event_points(s: &Snapshot) -> f64 {
    let events = |name: &str| -> (u64, u64) {
        s.spans
            .iter()
            .filter(|r| r.name == name)
            .fold((0, 0), |(calls, ev), r| (calls + 1, ev + r.events))
    };
    let (calls, batch_events) = events("replay_batch");
    let (_, single_events) = events("replay");
    let per_call = if calls == 0 {
        0.0
    } else {
        counter(s, "sim.replay_batch.points") as f64 / calls as f64
    };
    batch_events as f64 * per_call + single_events as f64
}

fn counter(s: &Snapshot, name: &str) -> u64 {
    s.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

/// Removes `path` and everything under it; a missing path is fine.
pub fn remove(path: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("cannot remove {}: {e}", path.display()))
        }
        _ => Ok(()),
    }
}

/// Bytes of every file under `path`; none when a failed run left no
/// directory (the failure itself is already logged).
fn dir_bytes(path: &Path) -> Result<u64, String> {
    let mut total = 0;
    let entries = match std::fs::read_dir(path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        other => other.map_err(|e| format!("{}: {e}", path.display()))?,
    };
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let meta = entry.metadata().map_err(|e| e.to_string())?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(jsonl: &str) -> Snapshot {
        Snapshot::from_metrics_str(jsonl).expect("valid metrics")
    }

    const META: &str = r#"{"type":"meta","schema":"reap-obs/2","counters":1,"gauges":0,"hists":0,"spans":4}
{"type":"process","wall_s":2.0,"cpu_s":3.0,"peak_rss_bytes":4194304,"rss_bytes":1}
"#;

    #[test]
    fn event_points_spread_batch_points_over_calls() {
        // Two captures of 100 and 50 events, each scored at 21 base
        // points and then 3 refined ones: (100 + 50) × 24.
        let s = snapshot(&format!(
            "{META}{{\"type\":\"counter\",\"name\":\"sim.replay_batch.points\",\"value\":48}}
{{\"type\":\"span\",\"path\":\"a.job/replay_batch\",\"name\":\"replay_batch\",\"thread\":0,\"start_us\":0,\"dur_us\":5,\"events\":100}}
{{\"type\":\"span\",\"path\":\"a.job/replay_batch\",\"name\":\"replay_batch\",\"thread\":0,\"start_us\":5,\"dur_us\":5,\"events\":50}}
{{\"type\":\"span\",\"path\":\"b.job/replay_batch\",\"name\":\"replay_batch\",\"thread\":0,\"start_us\":10,\"dur_us\":5,\"events\":100}}
{{\"type\":\"span\",\"path\":\"b.job/replay_batch\",\"name\":\"replay_batch\",\"thread\":0,\"start_us\":15,\"dur_us\":5,\"events\":50}}
"
        ));
        assert_eq!(scored_event_points(&s), 150.0 * 24.0);
    }

    #[test]
    fn a_single_point_replay_counts_its_events_once() {
        let s = snapshot(&format!(
            "{META}{{\"type\":\"span\",\"path\":\"replay\",\"name\":\"replay\",\"thread\":0,\"start_us\":0,\"dur_us\":5,\"events\":70}}
"
        ));
        assert_eq!(scored_event_points(&s), 70.0);
    }

    #[test]
    fn end_to_end_metrics_take_the_best_repetition_and_the_median_set_up() {
        let e2e = E2e {
            log: Log::default(),
            setup_s: vec![5.0, 1.0, 3.0],
            wall_s: vec![2.0, 0.5, 4.0],
            peak_rss_bytes: vec![3.0 * MIB, 2.0 * MIB],
            digest: 0,
            traced_wall_s: vec![1.0],
            traced: None,
            store_bytes: 1 << 20,
        };
        let long = crate::workloads::by_name("long_window").unwrap();
        let m = e2e.metrics(long, crate::workloads::SMOKE);
        assert_eq!(m["wall_s"], 0.5);
        assert_eq!(m["sim_accesses_per_s"], 44_000.0);
        assert_eq!(m["peak_rss_mib"], 2.0);
        assert_eq!(m["setup_s"], 3.0);
        assert_eq!(m["store_mib"], 1.0);
        assert!(m["scored_event_points_per_s"].is_nan(), "no traced run");
    }

    #[test]
    fn a_poolless_run_is_one_job_of_its_whole_wall_time() {
        let e2e = E2e {
            log: Log::default(),
            setup_s: vec![1.0],
            wall_s: vec![1.0, 3.0, 2.0],
            peak_rss_bytes: Vec::new(),
            digest: 0,
            traced_wall_s: vec![2.5],
            traced: Some(snapshot(META)),
            store_bytes: 0,
        };
        let m = e2e.traced_metrics(2);
        assert_eq!(m["pool.jobs"], 1.0);
        assert_eq!(m["pool.job_p50_s"], 2.0);
        assert_eq!(m["pool.cpu_util"], 0.75);
        assert_eq!(m["obs.overhead_frac"], 0.25);
        assert_eq!(m["capture_store.hit_ratio"], 0.0);
    }

    #[test]
    fn wait_reports_exit_status_and_peak_rss() {
        let spawn = |code: &str| {
            Command::new("sh")
                .args(["-c", &format!("exit {code}")])
                .spawn()
                .expect("sh runs")
        };
        let (ok, peak) = wait_with_rss(spawn("0")).unwrap();
        assert!(ok);
        if cfg!(target_os = "linux") {
            assert!(peak.is_some_and(|b| b > 0));
        }
        assert!(!wait_with_rss(spawn("3")).unwrap().0);
    }

    #[test]
    fn failures_never_exceed_invocations() {
        let mut log = Log::default();
        let bad = Child {
            wall_s: 0.0,
            ok: false,
            stdout: Vec::new(),
            stderr: "first\nlast line\n".to_owned(),
            peak_rss_bytes: None,
        };
        assert!(!log.invoked("repetition", &bad));
        log.check(false, || "and a mismatch".to_owned());
        assert_eq!(log.failures[0], "repetition exited non-zero: last line");
        assert_eq!(log.failed(), 1);
    }
}
