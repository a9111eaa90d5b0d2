//! Command execution.

use crate::args::{
    Command, DisturbanceArgs, ExploreArgs, ObsArgs, RunArgs, ServeArgs, SubmitArgs, SweepArgs,
    TraceArgs,
};
use reap_cache::HierarchyConfig;
use reap_core::campaign::{run_sweep_campaign, CampaignConfig, CampaignError, SweepMode};
use reap_core::{Experiment, SweepRow};
use reap_mtj::temperature::at_temperature;
use reap_mtj::{read_disturbance_probability, MtjParams, MtjParamsBuilder};
use reap_obs::report::{gate, render_diff, render_report, ReportOptions};
use reap_obs::{Flusher, GateConfig, GateMetric, Snapshot};
use reap_serve::{ClientConfig, JobSpec, ServeConfig, SubmitError};
use reap_trace::{SpecWorkload, TraceStats};
use std::error::Error;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::ops::ControlFlow;
use std::path::Path;
use std::time::Duration;

const HELP: &str = "\
reap — REAP-cache: STT-MRAM read-disturbance accumulation toolkit

USAGE:
    reap <COMMAND> [FLAGS]

COMMANDS:
    run          simulate one workload on the Table I hierarchy
                 --workload/-w NAME (required)  --accesses/-n N  --warmup N
                 --seed/-s S  --ecc sec|dec|tec
                 --replacement/-r lru|plru|fifo|random|srrip|ler
                 --l2-ways K  --capture-dir DIR
                 --capture-policy off|read|readwrite (default readwrite)
    sweep        all 21 workloads: MTTF gain and energy overhead
                 --accesses/-n N  --seed/-s S  --jobs/-j K
                 --ecc-sweep  also sweep sec/dec/tec per workload,
                 replaying one exposure capture instead of re-simulating
                 --checkpoint FILE   stream completed jobs to FILE
                 --capture-dir DIR   persistent exposure-capture store:
                                     warm runs skip the trace pass
                 --capture-policy off|read|readwrite (default readwrite)
                 --resume            skip jobs already in the checkpoint
                 --max-retries K     retries per failed job (default 2)
                 --job-deadline-ms T per-attempt deadline
                 --retry-backoff SPEC ms[:factor[:cap-ms]] wait between
                                     retries: T alone is linear (T, 2T, ...),
                                     with a factor jittered exponential
                 --inject SPEC       deterministic fault injection, e.g.
                                     seed=7,panic=0.2,delay=0.1,delay-ms=40,interrupt=5
    explore      design-space exploration: Pareto front over MTTF,
                 dynamic energy and L2 area
                 --grid/-g SPEC (required), e.g.
                 \"ways=4,8,16 ecc=sec,dec,tec read-current=0.7:1.0:0.1 scrub=0,10k,100k\"
                 (ranges are inclusive start:stop:step; k/m suffixes;
                 secded/bch2/bch3 alias sec/dec/tec; omitted dims take
                 the paper point ways=8 ecc=sec read-current=1 scrub=0)
                 --workloads/-w A,B,... or `all` (default hmmer,mcf,
                 libquantum)  --accesses/-n N  --seed/-s S  --jobs/-j K
                 --max-points K      point budget, base grid + adaptive
                                     refinement around the front
                                     (default 4096)
                 --no-refine         skip the refinement pass
                 --checkpoint FILE  --resume
                 --jsonl-out FILE    write the front rows as JSON-lines
                 --capture-dir DIR [--capture-policy P]
                 (one capture per geometry×scrub×workload, replay-batched
                 across all ECC×read-current points; stdout is
                 byte-identical across -j and across kill/resume)
    serve        long-lived sweep daemon on a Unix-domain socket
                 --socket PATH --state-dir DIR (both required)
                 --parallelism/-j K  workers per job   --max-active K
                 --queue-depth K     beyond that, submits answer `busy`
                 --retry-after-ms T  hint carried by `busy` responses
                 --max-retries K  --job-deadline-ms T  --retry-backoff SPEC
                 --inject SPEC       also drives connection faults:
                                     refuse=R,drop=R,stall-ms=T
                 --capture-dir DIR [--capture-policy P]
                                     capture store: reused across jobs
                 --journal-gc-age-secs T  sweep abandoned job journals
                                     older than T (0 disables; default
                                     7 days; live jobs never swept)
                 SIGTERM/SIGINT drains: in-flight jobs journal to the
                 state dir and a restarted daemon resumes them
    submit       submit one sweep job to a running daemon
                 --socket PATH (required)  --accesses/-n N  --seed/-s S
                 --ecc-sweep  --attempts K  --timeout-ms T
                 --retry-pause-ms T  --max-retries K  --job-deadline-ms T
                 (stdout is byte-identical to the offline `reap sweep`)
    trace        generate a binary trace file
                 --workload/-w NAME (required)  --count/-n N  --seed/-s S
                 --out/-o FILE (required)
    trace-info   characterize a binary trace file: reap trace-info FILE
    disturbance  query the device model (Eq. (1))
                 --delta X  --read-current-ua I  --temperature-k T
    obs check    validate a metrics JSON-lines file: reap obs check FILE
    obs report   render a run's metrics as a human table
                 reap obs report FILE [--no-timings]
                 (phase breakdown with p50/p95/p99, pool utilization,
                 capture-store summary; --no-timings is byte-stable
                 across -j and machine speed)
    obs diff     compare two runs, exit 1 on regression (CI gate)
                 reap obs diff A B [--threshold 0.10] [--min-seconds S]
                 [--metric NAME[:up|:down]]...
                 (every span phase is gated on total seconds; --metric
                 gates named counters/gauges, :up = higher is better)
    list         list the workload profiles
    help         show this message

EXIT CODES:
    0  success        1  some jobs failed permanently / regression found
    2  usage/config   3  interrupted or daemon saturated (resumable)

TELEMETRY (run and sweep):
    --metrics-out FILE   write counters, gauges, histograms and phase
                         spans as JSON-lines (schema reap-obs/2)
    --metrics-interval-ms T
                         also rewrite FILE atomically every T ms while
                         the run is live (requires --metrics-out)
    --trace-out FILE     write a Chrome trace_event JSON file
                         (load in chrome://tracing or Perfetto)
    --progress           rate-limited progress lines on stderr
    --verbose/-v         print the metrics table on stderr at the end
";

/// Executes a parsed command (see [`crate::execute`]).
pub fn execute<W: Write>(command: Command, mut out: W) -> io::Result<i32> {
    match command {
        Command::Help => {
            write!(out, "{HELP}")?;
            Ok(0)
        }
        Command::List => {
            writeln!(
                out,
                "{:<12} {:>6} {:>8} {:>8} {:>8} {:>8}",
                "workload", "rd%", "hot", "stream", "chase", "stencil"
            )?;
            for w in SpecWorkload::ALL {
                let p = w.params();
                writeln!(
                    out,
                    "{:<12} {:>5.0}% {:>8} {:>8} {:>8} {:>8}",
                    w.name(),
                    100.0 * p.read_fraction,
                    p.hot.map_or(0, |h| h.lines),
                    p.stream.map_or(0, |s| s.lines),
                    p.chase.map_or(0, |c| c.lines),
                    p.stencil.map_or(0, |s| s.rows * s.cols),
                )?;
            }
            Ok(0)
        }
        Command::Run(args) => run(args, out),
        Command::Sweep(args) => sweep(args, out),
        Command::Explore(args) => explore(args, out),
        Command::Serve(args) => serve(args, out),
        Command::Submit(args) => submit(args, out),
        Command::Trace(args) => trace(args, out),
        Command::TraceInfo { path } => trace_info(&path, out),
        Command::Disturbance(args) => disturbance(args, out),
        Command::ObsCheck { path } => obs_check(&path, out),
        Command::ObsReport { path, no_timings } => obs_report(&path, no_timings, out),
        Command::ObsDiff {
            a,
            b,
            threshold,
            min_seconds,
            metrics,
        } => obs_diff(&a, &b, threshold, min_seconds, metrics, out),
    }
}

/// Arms the global telemetry according to the command's flags. Resets the
/// global registry so the exported snapshot covers exactly this command.
///
/// Returns the live-metrics [`Flusher`] when `--metrics-interval-ms` was
/// given; the caller drops it (stopping the thread and flushing once
/// more) before [`finish_obs`] writes the final file.
fn start_obs(obs: &ObsArgs) -> Option<Flusher> {
    if obs.wants_metrics() {
        reap_obs::global().reset();
        reap_obs::set_enabled(true);
    }
    reap_obs::set_progress_enabled(obs.progress);
    match (&obs.metrics_out, obs.metrics_interval_ms) {
        (Some(path), Some(ms)) => Some(Flusher::start(path.clone(), Duration::from_millis(ms))),
        _ => None,
    }
}

/// Writes the requested exporters from the global registry. The verbose
/// table goes to stderr so stdout stays machine-readable.
///
/// Takes the live flusher (when one ran): its [`Flusher::finish`] is the
/// one final metrics write, with its error surfaced — writing the file
/// here as well was a double final flush.
fn finish_obs(obs: &ObsArgs, flusher: Option<Flusher>) -> io::Result<()> {
    let flushed = match flusher {
        Some(flusher) => {
            flusher.finish()?;
            true
        }
        None => false,
    };
    if !obs.wants_metrics() {
        return Ok(());
    }
    let snapshot = reap_obs::global().snapshot();
    if let Some(path) = &obs.metrics_out {
        if !flushed {
            // Atomic (unique tmp + fsync + rename), matching the live
            // flusher: a concurrent reader never observes a torn file.
            reap_obs::flush::write_metrics_atomic(path)?;
        }
    }
    if let Some(path) = &obs.trace_out {
        let mut file = BufWriter::new(File::create(path)?);
        reap_obs::export::write_chrome_trace(&snapshot, &mut file)?;
    }
    if obs.verbose {
        eprint!("{}", reap_obs::export::render_table(&snapshot));
    }
    Ok(())
}

/// The `reap obs check` command: validates that a JSON-lines metrics file
/// parses, carries the expected schema, and is internally consistent.
fn obs_check<W: Write>(path: &Path, mut out: W) -> io::Result<i32> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            writeln!(out, "error: cannot read {}: {e}", path.display())?;
            return Ok(2);
        }
    };
    match reap_obs::export::check_jsonl(&text) {
        Ok(summary) => {
            writeln!(
                out,
                "{}: valid {} ({} counters, {} gauges, {} histograms, {} spans)",
                path.display(),
                summary.version.as_str(),
                summary.counters,
                summary.gauges,
                summary.hists,
                summary.spans,
            )?;
            if let Some(tail) = summary.truncated {
                writeln!(
                    out,
                    "warning: {}: line {} is a truncated partial write; \
                     truncate the file to byte {} to repair",
                    path.display(),
                    tail.line,
                    tail.byte_offset,
                )?;
            }
            Ok(0)
        }
        Err((line, message)) => {
            writeln!(out, "error: {}: line {line}: {message}", path.display())?;
            Ok(2)
        }
    }
}

/// Reads a metrics file (JSONL export or flat JSON baseline) into a
/// snapshot, reporting failures on `out` with exit code 2.
fn load_snapshot<W: Write>(path: &Path, out: &mut W) -> io::Result<Result<Snapshot, i32>> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            writeln!(out, "error: cannot read {}: {e}", path.display())?;
            return Ok(Err(2));
        }
    };
    match Snapshot::from_metrics_str(&text) {
        Ok(snapshot) => Ok(Ok(snapshot)),
        Err(message) => {
            writeln!(out, "error: {}: {message}", path.display())?;
            Ok(Err(2))
        }
    }
}

/// The `reap obs report` command: renders one run's metrics as the
/// phase/pool/capture-store tables.
fn obs_report<W: Write>(path: &Path, no_timings: bool, mut out: W) -> io::Result<i32> {
    let snapshot = match load_snapshot(path, &mut out)? {
        Ok(s) => s,
        Err(code) => return Ok(code),
    };
    let options = ReportOptions {
        timings: !no_timings,
    };
    write!(out, "{}", render_report(&snapshot, &options))?;
    Ok(0)
}

/// The `reap obs diff` command: compares two runs and applies the
/// regression gate. Exit 0 = within thresholds, 1 = regression, 2 =
/// unreadable input.
fn obs_diff<W: Write>(
    a: &Path,
    b: &Path,
    threshold: f64,
    min_seconds: f64,
    metrics: Vec<GateMetric>,
    mut out: W,
) -> io::Result<i32> {
    let snap_a = match load_snapshot(a, &mut out)? {
        Ok(s) => s,
        Err(code) => return Ok(code),
    };
    let snap_b = match load_snapshot(b, &mut out)? {
        Ok(s) => s,
        Err(code) => return Ok(code),
    };
    let config = GateConfig {
        threshold,
        min_seconds,
        metrics,
    };
    let diff = snap_a.diff(&snap_b);
    let regressions = gate(&diff, &config);
    writeln!(out, "a: {}", a.display())?;
    writeln!(out, "b: {}", b.display())?;
    write!(out, "{}", render_diff(&diff, &config, &regressions))?;
    Ok(if regressions.is_empty() { 0 } else { 1 })
}

fn run<W: Write>(args: RunArgs, mut out: W) -> io::Result<i32> {
    let flusher = start_obs(&args.obs);
    let mut experiment = Experiment::paper_hierarchy()
        .workload(args.workload)
        .accesses(args.accesses)
        .seed(args.seed)
        .ecc(args.ecc)
        .replacement(args.replacement);
    if let Some(warmup) = args.warmup {
        experiment = experiment.budgets(warmup, args.accesses);
    }
    if let Some(ways) = args.l2_ways {
        match HierarchyConfig::paper_with_l2_ways(ways) {
            Ok(h) => experiment = experiment.hierarchy(h),
            Err(e) => {
                writeln!(out, "error: invalid L2 geometry: {e}")?;
                return Ok(2);
            }
        }
    }
    let store = args.capture.to_store();
    let code = match experiment.run_with(store.as_ref()) {
        Ok(report) => {
            write!(out, "{report}")?;
            writeln!(
                out,
                "max accumulation N = {}, mean concealed reads/access = {:.2}",
                report.histogram().max_n(),
                report.mean_concealed_reads()
            )?;
            0
        }
        Err(e) => {
            writeln!(out, "error: {e}")?;
            2
        }
    };
    finish_obs(&args.obs, flusher)?;
    Ok(code)
}

/// Renders an error and its `source()` chain as one line.
fn cause_chain(e: &dyn Error) -> String {
    let mut text = e.to_string();
    let mut cause = e.source();
    while let Some(c) = cause {
        text.push_str(": ");
        text.push_str(&c.to_string());
        cause = c.source();
    }
    text
}

fn sweep<W: Write>(args: SweepArgs, mut out: W) -> io::Result<i32> {
    let flusher = start_obs(&args.obs);
    let jobs = args.jobs.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    });
    let mode = if args.ecc_sweep {
        SweepMode::EccSweep
    } else {
        SweepMode::Standard
    };
    let mut config = CampaignConfig::new(args.accesses, args.seed, mode, jobs);
    config.supervisor = args.supervisor;
    config.checkpoint = args.checkpoint.clone();
    config.resume = args.resume;
    config.capture_store = args.capture.to_store();

    let outcome = match run_sweep_campaign(&config, |_| ControlFlow::Continue(())) {
        Ok(o) => o,
        Err(e @ CampaignError::Interrupted { .. }) => {
            eprintln!("reap: {}", cause_chain(&e));
            finish_obs(&args.obs, flusher)?;
            return Ok(3);
        }
        Err(e) => {
            writeln!(out, "error: {}", cause_chain(&e))?;
            finish_obs(&args.obs, flusher)?;
            return Ok(2);
        }
    };
    if let Some(warning) = &outcome.checkpoint_warning {
        eprintln!("warning: {warning}");
    }

    // The tables print from checkpointable rows in canonical workload
    // order, so a resumed run's stdout is byte-identical to a clean one.
    sweep_header(&mut out, mode)?;
    for o in &outcome.outcomes {
        match &o.result {
            Ok(rows) => sweep_rows(&mut out, mode, o.workload.name(), rows)?,
            Err(e) => failed_row(&mut out, o.workload.name(), &cause_chain(e))?,
        }
    }

    let total = outcome.outcomes.len();
    eprintln!(
        "sweep: {}/{total} workloads ok ({} resumed, {} recovered), {} failed",
        total - outcome.failed,
        outcome.resumed,
        outcome.recovered,
        outcome.failed,
    );
    finish_obs(&args.obs, flusher)?;
    Ok(if outcome.failed > 0 { 1 } else { 0 })
}

/// Prints a failed workload's table row: isolated, attributed, non-fatal.
fn failed_row<W: Write>(out: &mut W, name: &str, error: &str) -> io::Result<()> {
    writeln!(out, "{name:<12} FAILED: {error}")
}

/// The sweep table header. Shared by `reap sweep` and `reap submit` so a
/// daemon-served job's stdout is byte-identical to the offline sweep's.
fn sweep_header<W: Write>(out: &mut W, mode: SweepMode) -> io::Result<()> {
    match mode {
        SweepMode::Standard => writeln!(
            out,
            "{:<12} {:>12} {:>12} {:>10} {:>10}",
            "workload", "REAP gain", "energy", "L2 hit%", "max N"
        ),
        SweepMode::EccSweep => writeln!(
            out,
            "{:<12} {:>5} {:>12} {:>16} {:>10}",
            "workload", "ECC", "REAP gain", "E[fail] conv", "max N"
        ),
    }
}

/// One workload's sweep table rows (one line per row in ECC mode).
fn sweep_rows<W: Write>(
    out: &mut W,
    mode: SweepMode,
    name: &str,
    rows: &[SweepRow],
) -> io::Result<()> {
    match mode {
        SweepMode::Standard => {
            let r = &rows[0];
            writeln!(
                out,
                "{:<12} {:>11.1}x {:>+11.2}% {:>9.1}% {:>10}",
                name,
                r.mttf_gain,
                100.0 * r.energy_overhead,
                100.0 * r.l2_hit_rate,
                r.max_n,
            )
        }
        SweepMode::EccSweep => {
            for r in rows {
                writeln!(
                    out,
                    "{:<12} {:>5} {:>11.1}x {:>16.3e} {:>10}",
                    name,
                    r.ecc.map_or_else(|| "-".to_owned(), |e| e.to_string()),
                    r.mttf_gain,
                    r.efail_conv,
                    r.max_n,
                )?;
            }
            Ok(())
        }
    }
}

/// The `reap explore` command: sweeps the design-space grid and prints
/// every scored point with its Pareto-front membership.
///
/// Everything on stdout is deterministic (values, ordering, counts), so
/// the output is byte-identical across `-j` widths and across a
/// kill/`--resume` cycle; volatile facts (resumed-job counts, repair
/// warnings) go to stderr.
fn explore<W: Write>(args: ExploreArgs, mut out: W) -> io::Result<i32> {
    let flusher = start_obs(&args.obs);
    let grid = match reap_core::parse_grid(&args.grid) {
        Ok(grid) => grid,
        Err(e) => {
            writeln!(out, "error: {e}")?;
            finish_obs(&args.obs, flusher)?;
            return Ok(2);
        }
    };
    let jobs = args.jobs.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    });
    let mut config = reap_core::ExploreConfig::new(grid, args.accesses, args.seed, jobs);
    if !args.workloads.is_empty() {
        config.workloads = args.workloads.clone();
    }
    config.max_points = args.max_points;
    config.refine = args.refine;
    config.checkpoint = args.checkpoint.clone();
    config.resume = args.resume;
    config.capture_store = args.capture.to_store();

    let outcome = match reap_core::explore::explore(&config) {
        Ok(o) => o,
        Err(e) => {
            writeln!(out, "error: {}", cause_chain(&e))?;
            finish_obs(&args.obs, flusher)?;
            return Ok(2);
        }
    };
    if let Some(warning) = &outcome.checkpoint_warning {
        eprintln!("warning: {warning}");
    }

    writeln!(
        out,
        "{:<6} {:>9} {:>5} {:>7} {:>13} {:>13} {:>9} {:>6}",
        "ways", "scrub", "ecc", "i_read", "mttf_s", "energy_j", "area_mm2", "front"
    )?;
    let mut front = outcome.front.iter().copied().peekable();
    for (i, r) in outcome.rows.iter().enumerate() {
        let on_front = front.peek() == Some(&i);
        if on_front {
            front.next();
        }
        writeln!(
            out,
            "{:<6} {:>9} {:>5} {:>7.3} {:>13.6e} {:>13.6e} {:>9.4} {:>6}",
            r.ways,
            r.scrub,
            r.ecc,
            r.read_scale,
            r.mttf_s,
            r.energy_j,
            r.area_mm2,
            if on_front { "*" } else { "" },
        )?;
    }
    writeln!(
        out,
        "pareto front: {} of {} points ({} base, {} refined, {} over budget)",
        outcome.front.len(),
        outcome.rows.len(),
        outcome.base_points,
        outcome.refined_points,
        outcome.truncated,
    )?;

    if let Some(path) = &args.jsonl_out {
        let mut file = BufWriter::new(File::create(path)?);
        for &i in &outcome.front {
            writeln!(
                file,
                "{}",
                reap_core::explore::explore_row_to_json(&outcome.rows[i])
            )?;
        }
        file.flush()?;
    }
    eprintln!(
        "explore: {} points scored ({} jobs resumed)",
        outcome.rows.len(),
        outcome.resumed,
    );
    finish_obs(&args.obs, flusher)?;
    Ok(0)
}

/// The `reap serve` command: runs the daemon until a drain (SIGTERM,
/// SIGINT or a protocol `shutdown`) completes.
fn serve<W: Write>(args: ServeArgs, mut out: W) -> io::Result<i32> {
    let mut config = ServeConfig::new(args.socket, args.state_dir);
    if let Some(v) = args.parallelism {
        config.parallelism = v;
    }
    if let Some(v) = args.max_active {
        config.max_active = v;
    }
    if let Some(v) = args.queue_depth {
        config.queue_depth = v;
    }
    if let Some(v) = args.retry_after_ms {
        config.retry_after_ms = v;
    }
    config.supervisor = args.supervisor;
    config.store = args.capture.to_store();
    if let Some(secs) = args.journal_gc_age_secs {
        config.journal_gc_age = (secs > 0).then(|| Duration::from_secs(secs));
    }
    // The `metrics` request serves the live global registry; arm it for
    // the daemon's lifetime (no reset — a daemon process starts fresh).
    reap_obs::set_enabled(true);
    eprintln!(
        "reap serve: starting on {} (journals in {})",
        config.socket.display(),
        config.state_dir.display(),
    );
    match reap_serve::serve(config) {
        Ok(()) => {
            eprintln!("reap serve: drained");
            Ok(0)
        }
        Err(e) => {
            writeln!(out, "error: {e}")?;
            Ok(2)
        }
    }
}

/// The `reap submit` command: drives one job on a running daemon to an
/// outcome and prints the same table the offline sweep would.
fn submit<W: Write>(args: SubmitArgs, mut out: W) -> io::Result<i32> {
    let mode = if args.ecc_sweep {
        SweepMode::EccSweep
    } else {
        SweepMode::Standard
    };
    let spec = JobSpec {
        mode,
        accesses: args.accesses,
        seed: args.seed,
        max_retries: args.max_retries,
        deadline_ms: args.job_deadline_ms,
    };
    let mut client = ClientConfig::new(args.socket);
    client.attempts = args.attempts;
    client.io_timeout = Duration::from_millis(args.timeout_ms);
    client.retry_pause = Duration::from_millis(args.retry_pause_ms);
    let outcome = match reap_serve::submit(&client, &spec) {
        Ok(o) => o,
        Err(e @ SubmitError::Exhausted { .. }) => {
            writeln!(out, "error: {e}")?;
            return Ok(3);
        }
        Err(e) => {
            writeln!(out, "error: {e}")?;
            return Ok(2);
        }
    };
    sweep_header(&mut out, mode)?;
    for (name, rows) in &outcome.rows {
        sweep_rows(&mut out, mode, name, rows)?;
    }
    for (name, error) in &outcome.failed {
        failed_row(&mut out, name, error)?;
    }
    let total = outcome.rows.len() + outcome.failed.len();
    eprintln!(
        "submit: job {}: {}/{total} workloads ok ({} rows resumed), {} failed, {} attempts",
        outcome.job,
        outcome.rows.len(),
        outcome.resumed,
        outcome.failed.len(),
        outcome.attempts,
    );
    if outcome.interrupted {
        eprintln!("submit: interrupted mid-drain; resubmit to finish (journal is resumable)");
        return Ok(3);
    }
    Ok(if outcome.failed.is_empty() { 0 } else { 1 })
}

fn trace<W: Write>(args: TraceArgs, mut out: W) -> io::Result<i32> {
    let file = File::create(&args.out)?;
    let stream = args.workload.stream(args.seed).take(args.count as usize);
    let written = reap_trace::io::write_trace(BufWriter::new(file), stream)?;
    writeln!(out, "wrote {written} accesses to {}", args.out.display())?;
    Ok(0)
}

fn trace_info<W: Write>(path: &std::path::Path, mut out: W) -> io::Result<i32> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) => {
            writeln!(out, "error: cannot open {}: {e}", path.display())?;
            return Ok(2);
        }
    };
    match reap_trace::io::read_trace(BufReader::new(file)) {
        Ok(records) => {
            let stats = TraceStats::collect(records, 64);
            writeln!(out, "{stats}")?;
            Ok(0)
        }
        Err(e) => {
            writeln!(out, "error: {e}")?;
            Ok(2)
        }
    }
}

fn disturbance<W: Write>(args: DisturbanceArgs, mut out: W) -> io::Result<i32> {
    let mut builder = MtjParamsBuilder::from(MtjParams::default());
    if let Some(delta) = args.delta {
        builder = builder.thermal_stability(delta);
    }
    if let Some(ua) = args.read_current_ua {
        builder = builder.read_current(ua * 1e-6);
    }
    let card = match builder.build() {
        Ok(c) => c,
        Err(e) => {
            writeln!(out, "error: {e}")?;
            return Ok(2);
        }
    };
    let card = match args.temperature_k {
        Some(t) => match at_temperature(&card, t) {
            Ok(c) => c,
            Err(e) => {
                writeln!(out, "error: {e}")?;
                return Ok(2);
            }
        },
        None => card,
    };
    writeln!(out, "{card}")?;
    writeln!(
        out,
        "P_rd per read of a stored 1: {:.4e}",
        read_disturbance_probability(&card)
    )?;
    writeln!(
        out,
        "retention failure over 1 year: {:.4e}",
        reap_mtj::retention_failure_probability(&card, 3.156e7)
    )?;
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn exec(line: &str) -> (i32, String) {
        let cmd = parse(line.split_whitespace().map(str::to_owned)).expect("parses");
        let mut buf = Vec::new();
        let code = execute(cmd, &mut buf).expect("io ok");
        (code, String::from_utf8(buf).expect("utf8"))
    }

    /// Like [`exec`] but with explicit argv — for values with spaces,
    /// such as multi-dimension `--grid` strings.
    fn exec_argv(argv: &[&str]) -> (i32, String) {
        let cmd = parse(argv.iter().map(|s| (*s).to_owned())).expect("parses");
        let mut buf = Vec::new();
        let code = execute(cmd, &mut buf).expect("io ok");
        (code, String::from_utf8(buf).expect("utf8"))
    }

    #[test]
    fn help_mentions_every_command() {
        let (code, text) = exec("help");
        assert_eq!(code, 0);
        for c in [
            "run",
            "sweep",
            "explore",
            "trace",
            "trace-info",
            "disturbance",
            "list",
        ] {
            assert!(text.contains(c), "help must mention `{c}`");
        }
    }

    #[test]
    fn list_names_all_workloads() {
        let (code, text) = exec("list");
        assert_eq!(code, 0);
        for w in SpecWorkload::ALL {
            assert!(text.contains(w.name()), "missing {w}");
        }
    }

    #[test]
    fn ecc_sweep_covers_every_strength() {
        let (code, text) = exec("sweep -n 2000 --ecc-sweep");
        assert_eq!(code, 0, "output: {text}");
        for s in ["SEC", "DEC", "TEC"] {
            assert!(text.contains(s), "missing strength {s}: {text}");
        }
        assert!(text.contains("perlbench"));
    }

    #[test]
    fn run_produces_a_report() {
        let (code, text) = exec("run -w hmmer -n 30000 --seed 2");
        assert_eq!(code, 0, "output: {text}");
        assert!(text.contains("REAP-cache"));
        assert!(text.contains("MTTF gain"));
        assert!(text.contains("max accumulation N"));
    }

    #[test]
    fn run_with_bad_geometry_fails_gracefully() {
        let (code, text) = exec("run -w hmmer -n 10000 --l2-ways 3");
        assert_eq!(code, 2);
        assert!(text.contains("invalid L2 geometry"));
    }

    #[test]
    fn trace_and_trace_info_round_trip() {
        let dir = std::env::temp_dir().join("reap-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.rtrc");
        let (code, text) = exec(&format!("trace -w lbm -n 2000 -o {}", path.display()));
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("wrote 2000 accesses"));
        let (code2, info) = exec(&format!("trace-info {}", path.display()));
        assert_eq!(code2, 0);
        assert!(info.contains("2000 accesses"), "{info}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn trace_info_on_missing_file_is_exit_2() {
        let (code, text) = exec("trace-info /definitely/not/here.rtrc");
        assert_eq!(code, 2);
        assert!(text.contains("cannot open"));
    }

    #[test]
    fn obs_check_accepts_a_real_export_and_rejects_garbage() {
        let dir = std::env::temp_dir().join(format!("reap-obs-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        let good = dir.join("good.jsonl");
        let registry = reap_obs::Registry::new();
        registry.counter("ecc.decode").add(7);
        let mut buf = Vec::new();
        reap_obs::export::write_jsonl(&registry.snapshot(), &mut buf).unwrap();
        std::fs::write(&good, buf).unwrap();
        let (code, text) = exec(&format!("obs check {}", good.display()));
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("valid reap-obs/2"), "{text}");
        assert!(text.contains("1 counters"), "{text}");

        // A v1 document (no process record) still checks, reported as v1.
        let v1 = dir.join("v1.jsonl");
        std::fs::write(
            &v1,
            "{\"type\":\"meta\",\"schema\":\"reap-obs/1\",\"counters\":0,\
             \"gauges\":0,\"hists\":0,\"spans\":0}\n",
        )
        .unwrap();
        let (code, text) = exec(&format!("obs check {}", v1.display()));
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("valid reap-obs/1"), "{text}");

        let bad = dir.join("bad.jsonl");
        std::fs::write(&bad, "not json at all\n").unwrap();
        let (code, text) = exec(&format!("obs check {}", bad.display()));
        assert_eq!(code, 2);
        assert!(text.contains("line 1"), "{text}");

        let (code, text) = exec("obs check /definitely/not/here.jsonl");
        assert_eq!(code, 2);
        assert!(text.contains("cannot read"), "{text}");

        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn run_with_metrics_out_writes_a_checkable_file() {
        let dir = std::env::temp_dir().join(format!("reap-run-metrics-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let (code, _) = exec(&format!(
            "run -w hmmer -n 20000 --metrics-out {}",
            path.display()
        ));
        assert_eq!(code, 0);
        let text = std::fs::read_to_string(&path).unwrap();
        let summary = reap_obs::export::check_jsonl(&text).expect("valid export");
        assert!(summary.spans >= 1, "capture/replay spans expected");
        assert!(text.contains("\"cache.l2.reads\""), "{text}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn run_with_capture_store_is_identical_warm_and_cold() {
        let dir = std::env::temp_dir().join(format!("reap-run-capture-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (bare_code, bare) = exec("run -w hmmer -n 20000 --seed 5");
        let line = format!(
            "run -w hmmer -n 20000 --seed 5 --capture-dir {}",
            dir.display()
        );
        let (cold_code, cold) = exec(&line);
        let (warm_code, warm) = exec(&line);
        assert_eq!((bare_code, cold_code, warm_code), (0, 0, 0));
        assert_eq!(bare, cold, "store must not change the report");
        assert_eq!(cold, warm, "warm run must be byte-identical");
        assert!(
            std::fs::read_dir(&dir).unwrap().count() > 0,
            "cold run must have persisted an entry"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_stale_capture_entry_is_recaptured_with_an_identical_report() {
        let dir = std::env::temp_dir().join(format!("reap-run-stale-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let line = format!(
            "run -w hmmer -n 20000 --seed 5 --capture-dir {}",
            dir.display()
        );
        let (cold_code, cold) = exec(&line);
        assert_eq!(cold_code, 0);
        let entry = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|x| x == "rcap"))
            .expect("cold run must have persisted an entry");
        let fresh = std::fs::read(&entry).unwrap();

        // An entry in a version this build does not read is a miss: the
        // run recaptures, reports the same, and rewrites the entry.
        let mut stale = fresh.clone();
        stale[4] = 1;
        std::fs::write(&entry, &stale).unwrap();
        let (warm_code, warm) = exec(&line);
        assert_eq!(warm_code, 0);
        assert_eq!(cold, warm, "a stale entry must never change the report");
        assert_eq!(std::fs::read(&entry).unwrap(), fresh);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_rotted_capture_frame_is_recaptured_and_the_entry_healed() {
        let dir = std::env::temp_dir().join(format!("reap-run-rotted-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let line = format!(
            "run -w hmmer -n 20000 --seed 5 --capture-dir {}",
            dir.display()
        );
        let (cold_code, cold) = exec(&line);
        assert_eq!(cold_code, 0);
        let entry = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|x| x == "rcap"))
            .expect("cold run must have persisted an entry");
        let fresh = std::fs::read(&entry).unwrap();

        // A flipped byte mid-file leaves the header whole, so the entry
        // loads; replay finds the bad frame, recaptures and rewrites it.
        reap_fault::flip_byte(&entry, fresh.len() as u64 / 2, 0x40).unwrap();
        let (warm_code, warm) = exec(&line);
        assert_eq!(warm_code, 0);
        assert_eq!(cold, warm, "a rotted frame must never change the report");
        assert!(std::fs::read(&entry).unwrap() == fresh, "entry not healed");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn obs_report_renders_phases_from_an_export() {
        let dir = std::env::temp_dir().join(format!("reap-obs-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");

        let registry = reap_obs::Registry::new();
        drop(registry.span("replay"));
        registry.counter("pool.worker.0.jobs").add(4);
        registry.gauge("pool.worker.0.busy_s").set(1.5);
        registry.gauge("pool.worker.0.idle_s").set(0.5);
        registry.gauge("pool.worker.0.utilization").set(0.75);
        let mut buf = Vec::new();
        reap_obs::export::write_jsonl(&registry.snapshot(), &mut buf).unwrap();
        std::fs::write(&path, buf).unwrap();

        let (code, text) = exec(&format!("obs report {}", path.display()));
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("replay"), "{text}");
        assert!(text.contains("p95"), "{text}");
        assert!(text.contains("pool"), "{text}");

        let (code, stable) = exec(&format!("obs report --no-timings {}", path.display()));
        assert_eq!(code, 0);
        assert!(!stable.contains("busy"), "{stable}");

        let (code, text) = exec("obs report /definitely/not/here.jsonl");
        assert_eq!(code, 2);
        assert!(text.contains("cannot read"), "{text}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn obs_diff_gates_on_flat_json_baselines() {
        let dir = std::env::temp_dir().join(format!("reap-obs-diff-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.json");
        let b = dir.join("b.json");
        std::fs::write(&a, "{\"v2\":{\"speedup\":4.0},\"points\":21}\n").unwrap();
        std::fs::write(&b, "{\"v2\":{\"speedup\":1.5},\"points\":21}\n").unwrap();

        // A 62% drop in a higher-is-better metric fails the gate…
        let (code, text) = exec(&format!(
            "obs diff {} {} --threshold 0.5 --metric v2.speedup",
            a.display(),
            b.display()
        ));
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("REGRESSION metric v2.speedup"), "{text}");

        // …a file against itself passes it.
        let (code, text) = exec(&format!(
            "obs diff {} {} --metric v2.speedup",
            a.display(),
            a.display()
        ));
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("verdict: ok"), "{text}");

        // A gated metric missing from one side is a regression.
        let (code, text) = exec(&format!(
            "obs diff {} {} --metric nope",
            a.display(),
            b.display()
        ));
        assert_eq!(code, 1);
        assert!(text.contains("missing"), "{text}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn help_mentions_serve_and_submit() {
        let (code, text) = exec("help");
        assert_eq!(code, 0);
        for needle in ["serve", "submit", "--retry-backoff", "--state-dir"] {
            assert!(text.contains(needle), "help must mention `{needle}`");
        }
    }

    #[test]
    fn submit_against_a_live_daemon_matches_offline_sweep_byte_for_byte() {
        let dir = std::env::temp_dir().join(format!("reap-cli-serve-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join("reap.sock");
        let state = dir.join("state");

        let serve_cmd = parse(
            format!(
                "serve --socket {} --state-dir {} --parallelism 2 --max-active 1",
                socket.display(),
                state.display()
            )
            .split_whitespace()
            .map(str::to_owned),
        )
        .unwrap();
        let daemon = std::thread::spawn(move || execute(serve_cmd, std::io::sink()));

        // Wait until the daemon answers a status request.
        let client = reap_serve::ClientConfig::new(&socket);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            match reap_serve::request_one(&client, &reap_serve::Request::Status) {
                Ok(_) => break,
                Err(_) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(e) => panic!("daemon never came up: {e}"),
            }
        }

        let (offline_code, offline) = exec("sweep -n 2000 --seed 7");
        let (code, served) = exec(&format!(
            "submit --socket {} -n 2000 --seed 7",
            socket.display()
        ));
        assert_eq!((offline_code, code), (0, 0), "{served}");
        assert_eq!(offline, served, "daemon rows must match the offline sweep");

        // An unreachable-socket submit is a protocol exit (3), not a hang.
        let (code, text) = exec(&format!(
            "submit --socket {} --attempts 2 --retry-pause-ms 10",
            dir.join("nope.sock").display()
        ));
        assert_eq!(code, 3, "{text}");
        assert!(text.contains("gave up"), "{text}");

        reap_serve::request_one(&client, &reap_serve::Request::Shutdown).unwrap();
        let code = daemon.join().unwrap().unwrap();
        assert_eq!(code, 0, "drained daemon exits 0");
        std::fs::remove_dir_all(dir).ok();
    }

    const EXPLORE_GRID: &str = "ecc=sec,dec read-current=0.8,1.0 scrub=0,2k";

    #[test]
    fn explore_stdout_is_byte_identical_across_parallelism() {
        let argv = |j: &'static str| {
            vec![
                "explore",
                "--grid",
                EXPLORE_GRID,
                "-n",
                "4000",
                "-s",
                "3",
                "-w",
                "hmmer,mcf",
                "-j",
                j,
            ]
        };
        let (code1, narrow) = exec_argv(&argv("1"));
        let (code4, wide) = exec_argv(&argv("4"));
        assert_eq!((code1, code4), (0, 0), "{narrow}");
        assert_eq!(narrow, wide, "explore must be deterministic across -j");
        assert!(narrow.contains("pareto front:"), "{narrow}");
        assert!(narrow.contains('*'), "some row must be on the front");
    }

    #[test]
    fn explore_resume_reproduces_an_uninterrupted_run_byte_for_byte() {
        let dir = std::env::temp_dir().join(format!("reap-cli-explore-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let ck = dir.join("explore.ck.jsonl");
        let front = dir.join("front.jsonl");
        let ck_s = ck.display().to_string();
        let front_s = front.display().to_string();

        let base = vec![
            "explore",
            "--grid",
            EXPLORE_GRID,
            "-n",
            "4000",
            "-s",
            "3",
            "-w",
            "hmmer,mcf",
            "-j",
            "2",
            "--checkpoint",
            &ck_s,
            "--jsonl-out",
            &front_s,
        ];
        let (code, full) = exec_argv(&base);
        assert_eq!(code, 0, "{full}");

        // The front artifact holds exactly the starred rows, re-parseable
        // bit-exactly.
        let jsonl = std::fs::read_to_string(&front).unwrap();
        let stars = full.lines().filter(|l| l.ends_with('*')).count();
        assert_eq!(jsonl.lines().count(), stars, "{jsonl}");
        for line in jsonl.lines() {
            let value = reap_obs::json::parse(line).unwrap();
            reap_core::explore::explore_row_from_json(&value).unwrap();
        }

        // Simulate a mid-run kill: drop all but the first completed job
        // from the journal, then resume. Stdout must not change by a byte.
        let journal = std::fs::read_to_string(&ck).unwrap();
        let keep: Vec<&str> = journal.lines().take(2).collect();
        assert!(journal.lines().count() > 2, "need jobs to strip: {journal}");
        std::fs::write(&ck, format!("{}\n", keep.join("\n"))).unwrap();
        let mut resumed_argv = base.clone();
        resumed_argv.push("--resume");
        let (code, resumed) = exec_argv(&resumed_argv);
        assert_eq!(code, 0, "{resumed}");
        assert_eq!(full, resumed, "resume must be byte-identical");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn explore_rejects_a_bad_grid_with_exit_2() {
        let (code, text) = exec("explore --grid volts=3");
        assert_eq!(code, 2);
        assert!(text.contains("unknown dimension"), "{text}");

        let (code, text) = exec_argv(&[
            "explore",
            "--grid",
            "ways=4,8 ecc=sec,dec,tec",
            "--max-points",
            "5",
        ]);
        assert_eq!(code, 2);
        assert!(text.contains("--max-points"), "{text}");
    }

    #[test]
    fn disturbance_reports_probability() {
        let (code, text) = exec("disturbance --delta 55 --read-current-ua 75");
        assert_eq!(code, 0);
        assert!(text.contains("P_rd per read"));
        assert!(text.contains("Δ=55.0"));
    }

    #[test]
    fn disturbance_rejects_invalid_card() {
        let (code, text) = exec("disturbance --read-current-ua 150");
        assert_eq!(code, 2);
        assert!(text.contains("error"));
    }

    #[test]
    fn disturbance_with_temperature() {
        let (_, cold) = exec("disturbance");
        let (code, hot) = exec("disturbance --temperature-k 360");
        assert_eq!(code, 0);
        assert_ne!(cold, hot);
    }
}
