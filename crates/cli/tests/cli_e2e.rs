//! End-to-end tests driving the compiled `reap` binary.

use std::process::Command;

fn reap() -> Command {
    Command::new(env!("CARGO_BIN_EXE_reap"))
}

#[test]
fn help_exits_zero() {
    let out = reap().arg("help").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
}

#[test]
fn no_args_exits_two_with_hint() {
    let out = reap().output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("missing subcommand"));
}

#[test]
fn unknown_flag_reports_on_stderr() {
    let out = reap()
        .args(["run", "--frobnicate"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--frobnicate"));
}

#[test]
fn list_prints_workload_table() {
    let out = reap().arg("list").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("mcf"));
    assert!(text.contains("cactusADM"));
}

#[test]
fn disturbance_query_round_trips() {
    let out = reap()
        .args(["disturbance", "--delta", "60", "--read-current-ua", "70"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("P_rd per read"), "{text}");
    assert!(
        text.contains("1.5230e-8") || text.contains("1.523e-8"),
        "{text}"
    );
}

#[test]
fn ecc_sweep_metrics_out_is_schema_stable_jsonl() {
    let dir = std::env::temp_dir().join(format!("reap-e2e-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("sweep.jsonl");

    let out = reap()
        .args([
            "sweep",
            "-n",
            "5000",
            "--ecc-sweep",
            "-j",
            "2",
            "--metrics-out",
        ])
        .arg(&metrics)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    let text = std::fs::read_to_string(&metrics).expect("metrics file written");
    // Every line parses as JSON; the first is the schema-carrying meta line.
    let first = text.lines().next().expect("non-empty");
    assert!(first.contains("\"schema\":\"reap-obs/2\""), "{first}");
    for (i, line) in text.lines().enumerate() {
        reap_obs::json::parse(line).unwrap_or_else(|e| panic!("line {}: {e}: {line}", i + 1));
    }
    // Expected keys: phase spans, per-worker utilization, span-latency
    // histograms, the process self-sample, per-level cache counters and
    // ECC decode counts.
    for key in [
        "\"path\":\"ecc_sweep.job/capture\"",
        "\"path\":\"ecc_sweep.job/replay_batch\"",
        "\"name\":\"campaign\"",
        "\"sim.replay_batch.points\"",
        "\"name\":\"ecc_sweep\"",
        "ecc_sweep.worker.0.busy_s",
        "ecc_sweep.worker.0.utilization",
        "ecc_sweep.worker.0.jobs",
        "\"name\":\"span.ecc_sweep.job.us\"",
        "\"name\":\"span.capture.us\"",
        "\"type\":\"process\"",
        "\"cache.l1d.reads\"",
        "\"cache.l2.reads\"",
        "\"cache.l2.hit_rate\"",
        "\"cache.memory.reads\"",
        "\"sim.capture.exposure_events\"",
        "\"ecc.decode\"",
    ] {
        assert!(text.contains(key), "missing {key} in:\n{text}");
    }

    // The CLI's own validator agrees.
    let check = reap()
        .args(["obs", "check"])
        .arg(&metrics)
        .output()
        .expect("binary runs");
    assert!(
        check.status.success(),
        "{}",
        String::from_utf8_lossy(&check.stdout)
    );
    assert!(String::from_utf8_lossy(&check.stdout).contains("valid reap-obs/2"));

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn parallel_sweep_metrics_are_deterministic_across_runs() {
    let dir = std::env::temp_dir().join(format!("reap-e2e-determinism-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Two identical parallel sweeps must export identical metrics once the
    // run-variant parts are dropped: timing-valued keys (TIMING_KEYS) and
    // the per-worker scheduling metrics (which worker wins which job is a
    // race by design).
    let mut exports = Vec::new();
    for n in 0..2 {
        let path = dir.join(format!("m{n}.jsonl"));
        let out = reap()
            .args([
                "sweep",
                "-n",
                "5000",
                "--ecc-sweep",
                "-j",
                "2",
                "--metrics-out",
            ])
            .arg(&path)
            .output()
            .expect("binary runs");
        assert!(out.status.success());
        let stable: Vec<String> = std::fs::read_to_string(&path)
            .expect("metrics written")
            .lines()
            .filter(|l| !l.contains(".worker.") && !l.contains("\"type\":\"process\""))
            .filter_map(|l| {
                let reap_obs::json::Value::Obj(fields) =
                    reap_obs::json::parse(l).expect("line parses")
                else {
                    panic!("line is not an object: {l}");
                };
                // Span-latency histograms carry wall-clock-valued
                // buckets; drop those records wholesale.
                let run_variant = fields.iter().any(|(k, v)| {
                    k == "name"
                        && v.as_str()
                            .is_some_and(reap_obs::export::is_run_variant_metric)
                });
                if run_variant {
                    return None;
                }
                Some(
                    fields
                        .iter()
                        .filter(|(k, _)| !reap_obs::export::TIMING_KEYS.contains(&k.as_str()))
                        .map(|(k, v)| format!("{k}={v:?}"))
                        .collect::<Vec<_>>()
                        .join(","),
                )
            })
            .collect();
        exports.push(stable);
    }
    assert_eq!(exports[0], exports[1]);

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn ecc_sweep_stdout_is_byte_identical_across_runs_and_parallelism() {
    // The ECC sweep now scores all three strengths through the batched
    // multi-point replay kernel. Its stdout must stay byte-for-byte
    // deterministic: identical across repeated runs and across worker
    // counts, exactly as the per-point replay path behaved.
    let args = |j: &str| {
        [
            "sweep",
            "-n",
            "5000",
            "--seed",
            "11",
            "--ecc-sweep",
            "-j",
            j,
        ]
        .map(String::from)
    };
    let first = reap().args(args("1")).output().expect("runs");
    assert!(first.status.success());
    let again = reap().args(args("1")).output().expect("runs");
    let wide = reap().args(args("4")).output().expect("runs");
    assert!(again.status.success() && wide.status.success());
    assert_eq!(
        first.stdout, again.stdout,
        "repeated ecc-sweep runs must be byte-identical"
    );
    assert_eq!(
        first.stdout, wide.stdout,
        "worker count must not change ecc-sweep output"
    );
    let text = String::from_utf8_lossy(&first.stdout);
    for strength in ["SEC", "DEC", "TEC"] {
        assert!(text.contains(strength), "missing {strength} rows:\n{text}");
    }
}

#[test]
fn store_backed_and_store_less_runs_report_the_same_fresh_captures() {
    let dir = std::env::temp_dir().join(format!("reap-e2e-fresh-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    // A store-backed capture streams its frames to disk instead of
    // holding them, yet must account the same frame bytes.
    let report = |store: Option<&std::path::Path>, name: &str| {
        let metrics = dir.join(name);
        let mut cmd = reap();
        cmd.args(["run", "-w", "h264ref", "-n", "30000", "-s", "5"]);
        if let Some(store) = store {
            cmd.arg("--capture-dir").arg(store);
        }
        let out = cmd
            .arg("--metrics-out")
            .arg(&metrics)
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let report = reap()
            .args(["obs", "report", "--no-timings"])
            .arg(&metrics)
            .output()
            .expect("runs");
        assert!(report.status.success());
        (out.stdout, String::from_utf8(report.stdout).unwrap())
    };
    let fresh_line = |report: &str| {
        report
            .lines()
            .find(|l| l.starts_with("fresh captures:"))
            .map(str::to_owned)
            .unwrap_or_else(|| panic!("no fresh captures line in:\n{report}"))
    };
    let (plain_out, plain) = report(None, "plain.jsonl");
    let (cold_out, cold) = report(Some(&dir.join("captures")), "cold.jsonl");
    assert_eq!(plain_out, cold_out);
    assert_eq!(fresh_line(&plain), fresh_line(&cold));
    assert!(!fresh_line(&cold).contains(" 0 B "), "{cold}");
    // The streamed write is accounted like any other.
    let store_line = cold
        .lines()
        .find(|l| l.contains("written"))
        .unwrap_or_else(|| panic!("no store line in:\n{cold}"));
    assert!(store_line.contains("B/event"), "{store_line}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn warm_capture_store_sweep_is_byte_identical_and_reports_hits() {
    let dir = std::env::temp_dir().join(format!("reap-e2e-capstore-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("captures");
    let run = |metrics: &std::path::Path| {
        let out = reap()
            .args([
                "sweep",
                "-n",
                "5000",
                "--seed",
                "7",
                "--ecc-sweep",
                "-j",
                "2",
                "--capture-dir",
            ])
            .arg(&store)
            .arg("--metrics-out")
            .arg(metrics)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stdout)
        );
        out.stdout
    };

    let cold_metrics = dir.join("cold.jsonl");
    let warm_metrics = dir.join("warm.jsonl");
    let cold = run(&cold_metrics);
    let warm = run(&warm_metrics);
    assert_eq!(
        cold, warm,
        "warm sweep stdout must be byte-identical to the cold run"
    );

    // The cold run misses and persists one entry per workload; the warm
    // run serves all 21 from disk without a single trace pass.
    let cold_text = std::fs::read_to_string(&cold_metrics).unwrap();
    assert!(
        cold_text.contains("\"name\":\"capture_store.miss\",\"value\":21"),
        "{cold_text}"
    );
    assert!(
        cold_text.contains("\"name\":\"capture_store.write\",\"value\":21"),
        "{cold_text}"
    );
    let warm_text = std::fs::read_to_string(&warm_metrics).unwrap();
    assert!(
        warm_text.contains("\"name\":\"capture_store.hit\",\"value\":21"),
        "{warm_text}"
    );
    assert!(
        !warm_text.contains("\"name\":\"capture_store.miss\""),
        "warm run must not miss: {warm_text}"
    );
    assert!(
        warm_text.contains("\"path\":\"ecc_sweep.job/capture_store\""),
        "span expected: {warm_text}"
    );
    // Telemetry honesty: a served capture ran no trace pass, so the warm
    // export must not claim capture-phase simulation counters.
    assert!(
        !warm_text.contains("\"sim.capture.exposure_events\""),
        "{warm_text}"
    );

    // A corrupted entry costs a recapture, never a wrong table: flip one
    // byte in every stored entry and sweep again.
    for entry in std::fs::read_dir(&store).unwrap() {
        let path = entry.unwrap().path();
        let len = std::fs::metadata(&path).unwrap().len();
        reap_fault::flip_byte(&path, len / 2, 0x40).unwrap();
    }
    let healed_metrics = dir.join("healed.jsonl");
    let healed = run(&healed_metrics);
    assert_eq!(
        cold, healed,
        "corrupt store entries must fall back to identical recaptures"
    );
    let healed_text = std::fs::read_to_string(&healed_metrics).unwrap();
    assert!(
        healed_text.contains("\"name\":\"capture_store.invalid\",\"value\":21"),
        "{healed_text}"
    );

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn capture_policy_without_dir_is_a_usage_error() {
    let out = reap()
        .args(["sweep", "--capture-policy", "readwrite"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--capture-dir"), "{err}");
}

#[test]
fn resume_without_checkpoint_is_a_usage_error() {
    let out = reap().args(["sweep", "--resume"]).output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--checkpoint"), "{err}");
    assert!(!err.contains("panicked"), "no backtraces: {err}");
}

#[test]
fn bad_inject_spec_is_a_usage_error() {
    let out = reap()
        .args(["sweep", "--inject", "panic=nine"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("fault spec"), "{err}");
}

#[test]
fn malformed_checkpoint_fails_with_cause_chain_not_backtrace() {
    let dir = std::env::temp_dir().join(format!("reap-e2e-badck-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ck = dir.join("bad.jsonl");
    std::fs::write(&ck, "this is not a checkpoint\nat all\n").unwrap();

    let out = reap()
        .args(["sweep", "-n", "2000", "--resume", "--checkpoint"])
        .arg(&ck)
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("error:"), "{text}");
    assert!(text.contains("bad.jsonl"), "cause names the file: {text}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "no backtraces: {err}");

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn checkpoint_from_other_config_is_refused_on_resume() {
    let dir = std::env::temp_dir().join(format!("reap-e2e-fpck-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ck = dir.join("ck.jsonl");

    let first = reap()
        .args(["sweep", "-n", "2000", "--seed", "1", "--checkpoint"])
        .arg(&ck)
        .output()
        .expect("runs");
    assert!(first.status.success());

    let second = reap()
        .args([
            "sweep",
            "-n",
            "2000",
            "--seed",
            "2",
            "--resume",
            "--checkpoint",
        ])
        .arg(&ck)
        .output()
        .expect("runs");
    assert_eq!(second.status.code(), Some(2));
    let text = String::from_utf8_lossy(&second.stdout);
    assert!(text.contains("different campaign"), "{text}");

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn interrupted_sweep_resumes_to_identical_stdout() {
    let dir = std::env::temp_dir().join(format!("reap-e2e-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ck = dir.join("ck.jsonl");
    let base = ["sweep", "-n", "2000", "--seed", "5", "-j", "2"];

    let clean = reap().args(base).output().expect("runs");
    assert!(clean.status.success());

    // Phase 1: simulated kill after 4 completed jobs.
    let killed = reap()
        .args(base)
        .args(["--inject", "interrupt=4", "--checkpoint"])
        .arg(&ck)
        .output()
        .expect("runs");
    assert_eq!(killed.status.code(), Some(3), "interrupt exit code");
    let err = String::from_utf8_lossy(&killed.stderr);
    assert!(err.contains("resume with --resume"), "{err}");

    // Phase 2: resume fills in the rest; stdout must match the clean run
    // byte for byte.
    let resumed = reap()
        .args(base)
        .args(["--resume", "--checkpoint"])
        .arg(&ck)
        .output()
        .expect("runs");
    assert!(resumed.status.success());
    assert_eq!(
        String::from_utf8_lossy(&clean.stdout),
        String::from_utf8_lossy(&resumed.stdout),
        "resumed stdout differs from clean run"
    );
    let err = String::from_utf8_lossy(&resumed.stderr);
    assert!(err.contains("resumed"), "{err}");

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn injected_panics_recover_without_changing_results() {
    let base = ["sweep", "-n", "2000", "--seed", "5", "-j", "2"];
    let clean = reap().args(base).output().expect("runs");
    assert!(clean.status.success());

    let faulty = reap()
        .args(base)
        .args(["--inject", "seed=13,panic=0.3", "--max-retries", "8"])
        .output()
        .expect("runs");
    assert!(
        faulty.status.success(),
        "{}",
        String::from_utf8_lossy(&faulty.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&clean.stdout),
        String::from_utf8_lossy(&faulty.stdout),
        "surviving jobs must produce identical rows"
    );

    // Without retries the same fault plan must isolate failures instead:
    // non-zero exit, FAILED rows, but the process neither panics nor
    // aborts the whole table.
    let strict = reap()
        .args(base)
        .args(["--inject", "seed=13,panic=0.3", "--max-retries", "0"])
        .output()
        .expect("runs");
    assert_eq!(strict.status.code(), Some(1));
    let text = String::from_utf8_lossy(&strict.stdout);
    assert!(text.contains("FAILED"), "{text}");
    assert!(text.contains("injected panic"), "{text}");
    let err = String::from_utf8_lossy(&strict.stderr);
    assert!(err.contains("failed"), "{err}");
}

#[test]
fn obs_report_is_byte_identical_across_parallelism_in_no_timings_mode() {
    let dir = std::env::temp_dir().join(format!("reap-e2e-report-det-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // The same seeded sweep at -j 1 and -j 4 must render the identical
    // stable report: worker counts and wall-clock numbers are excluded
    // by --no-timings, everything else is deterministic.
    let mut reports = Vec::new();
    for jobs in ["1", "4"] {
        let metrics = dir.join(format!("j{jobs}.jsonl"));
        let out = reap()
            .args([
                "sweep",
                "-n",
                "5000",
                "--seed",
                "11",
                "--ecc-sweep",
                "-j",
                jobs,
                "--metrics-out",
            ])
            .arg(&metrics)
            .output()
            .expect("binary runs");
        assert!(out.status.success());
        let report = reap()
            .args(["obs", "report", "--no-timings"])
            .arg(&metrics)
            .output()
            .expect("binary runs");
        assert!(report.status.success());
        reports.push(report.stdout);
    }
    assert_eq!(
        String::from_utf8_lossy(&reports[0]),
        String::from_utf8_lossy(&reports[1]),
        "--no-timings report must not depend on -j"
    );
    let text = String::from_utf8_lossy(&reports[0]);
    assert!(text.contains("ecc_sweep"), "{text}");
    assert!(text.contains("jobs"), "{text}");

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn obs_diff_catches_a_deliberately_slowed_rerun() {
    let dir = std::env::temp_dir().join(format!("reap-e2e-diff-gate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("a.jsonl");
    let b = dir.join("b.jsonl");

    let sweep = |metrics: &std::path::Path, inject: Option<&str>| {
        let mut cmd = reap();
        cmd.args([
            "sweep",
            "-n",
            "2000",
            "--seed",
            "7",
            "--ecc-sweep",
            "-j",
            "2",
            "--metrics-out",
        ])
        .arg(metrics);
        if let Some(spec) = inject {
            cmd.args(["--inject", spec]);
        }
        let out = cmd.output().expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stdout)
        );
    };
    sweep(&a, None);
    // Every job sleeps 200ms: the ecc_sweep phase slows by seconds while
    // the results stay identical — exactly what a perf regression with
    // correct output looks like.
    sweep(&b, Some("seed=1,delay=1,delay-ms=200"));

    let gate = reap()
        .args(["obs", "diff"])
        .arg(&a)
        .arg(&b)
        .args(["--threshold", "0.10"])
        .output()
        .expect("binary runs");
    assert_eq!(gate.status.code(), Some(1), "slowed rerun must fail gate");
    let text = String::from_utf8_lossy(&gate.stdout);
    assert!(text.contains("REGRESSION span"), "{text}");
    assert!(text.contains("verdict:"), "{text}");

    // A run against itself passes.
    let clean = reap()
        .args(["obs", "diff"])
        .arg(&a)
        .arg(&a)
        .args(["--threshold", "0.10"])
        .output()
        .expect("binary runs");
    assert_eq!(clean.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&clean.stdout).contains("verdict: ok"));

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn live_metrics_flusher_keeps_a_valid_snapshot_mid_campaign() {
    let dir = std::env::temp_dir().join(format!("reap-e2e-flush-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("live.jsonl");

    // 21 jobs × 100ms injected delay on one worker ≈ 2s of campaign:
    // plenty of 50ms flush ticks to observe mid-run.
    let mut child = reap()
        .args([
            "sweep",
            "-n",
            "2000",
            "--seed",
            "3",
            "-j",
            "1",
            "--inject",
            "seed=1,delay=1,delay-ms=100",
            "--metrics-out",
        ])
        .arg(&metrics)
        .args(["--metrics-interval-ms", "50"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("binary spawns");

    // Poll for a complete, schema-valid snapshot while the campaign is
    // still running.
    let mut observed_live = false;
    while child.try_wait().expect("wait works").is_none() {
        if let Ok(text) = std::fs::read_to_string(&metrics) {
            if !text.is_empty() {
                let summary =
                    reap_obs::export::check_jsonl(&text).expect("mid-run file must be valid");
                observed_live = true;
                assert_eq!(summary.version, reap_obs::export::FormatVersion::V2);
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let status = child.wait().expect("wait works");
    assert!(status.success());
    assert!(
        observed_live,
        "never observed a live snapshot while the campaign ran"
    );

    // The final write still lands and is valid.
    let text = std::fs::read_to_string(&metrics).unwrap();
    let summary = reap_obs::export::check_jsonl(&text).expect("final file valid");
    assert!(summary.spans >= 1, "campaign spans expected");

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn run_and_trace_pipeline() {
    let dir = std::env::temp_dir().join(format!("reap-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("x.rtrc");

    let out = reap()
        .args(["trace", "-w", "sjeng", "-n", "5000", "-o"])
        .arg(&trace_path)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    let info = reap()
        .arg("trace-info")
        .arg(&trace_path)
        .output()
        .expect("binary runs");
    assert!(info.status.success());
    assert!(String::from_utf8_lossy(&info.stdout).contains("5000 accesses"));

    let run = reap()
        .args(["run", "-w", "sjeng", "-n", "20000", "--seed", "3"])
        .output()
        .expect("binary runs");
    assert!(run.status.success());
    assert!(String::from_utf8_lossy(&run.stdout).contains("REAP-cache"));

    std::fs::remove_dir_all(dir).ok();
}
