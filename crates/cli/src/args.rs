//! Command-line argument parsing.

use reap_cache::Replacement;
use reap_core::{CapturePolicy, CaptureStore, EccStrength, RetryBackoff, SupervisorConfig};
use reap_obs::GateMetric;
use reap_trace::SpecWorkload;
use std::error::Error;
use std::fmt;
use std::path::PathBuf;

/// A fully parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `reap run` — one experiment on one workload.
    Run(RunArgs),
    /// `reap sweep` — all workloads, Fig. 5/6 style.
    Sweep(SweepArgs),
    /// `reap trace` — generate a trace file.
    Trace(TraceArgs),
    /// `reap trace-info` — characterize a trace file.
    TraceInfo {
        /// Path of the trace file to inspect.
        path: PathBuf,
    },
    /// `reap disturbance` — query the device model.
    Disturbance(DisturbanceArgs),
    /// `reap list` — list workload profiles.
    List,
    /// `reap obs check` — validate a metrics JSON-lines file.
    ObsCheck {
        /// Path of the JSON-lines file to validate.
        path: PathBuf,
    },
    /// `reap obs report` — render a run's metrics as a human table.
    ObsReport {
        /// Path of the metrics JSON-lines file.
        path: PathBuf,
        /// Drop wall-clock-derived numbers (stable across `-j`).
        no_timings: bool,
    },
    /// `reap obs diff` — compare two runs; exits non-zero on regression.
    ObsDiff {
        /// Baseline metrics file.
        a: PathBuf,
        /// New metrics file.
        b: PathBuf,
        /// Maximum tolerated relative change (0.10 = 10%).
        threshold: f64,
        /// Span phases below this many baseline seconds are not gated.
        min_seconds: f64,
        /// Explicitly gated counters/gauges (`--metric name[:up|:down]`).
        metrics: Vec<GateMetric>,
    },
    /// `reap explore` — design-space exploration over a declarative grid.
    Explore(ExploreArgs),
    /// `reap serve` — long-lived sweep daemon on a Unix socket.
    Serve(ServeArgs),
    /// `reap submit` — submit one sweep job to a running daemon.
    Submit(SubmitArgs),
    /// `reap help` / `--help`.
    Help,
}

/// Arguments of `reap serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Unix-domain socket path to listen on.
    pub socket: PathBuf,
    /// Directory for per-job `reap-checkpoint/1` journals.
    pub state_dir: PathBuf,
    /// Worker threads per job (`None` = the daemon default).
    pub parallelism: Option<usize>,
    /// Jobs run concurrently (`None` = the daemon default).
    pub max_active: Option<usize>,
    /// Jobs admitted beyond the active ones (`None` = the default).
    pub queue_depth: Option<usize>,
    /// Retry-after hint carried by `busy` responses, in milliseconds.
    pub retry_after_ms: Option<u64>,
    /// Supervision of job workloads (`--max-retries`,
    /// `--job-deadline-ms`, `--retry-backoff`, `--inject`); the fault
    /// plan's `refuse=`/`drop=`/`stall-ms=` fields also drive the
    /// connection paths.
    pub supervisor: SupervisorConfig,
    /// Persistent capture store shared with offline sweeps.
    pub capture: CaptureArgs,
    /// Age in seconds after which an abandoned job journal is swept
    /// from the state directory; 0 disables the sweep (`None` = the
    /// daemon default of 7 days). Live jobs' journals are never swept.
    pub journal_gc_age_secs: Option<u64>,
}

/// Arguments of `reap submit`.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitArgs {
    /// The daemon's socket path.
    pub socket: PathBuf,
    /// Measured accesses per workload.
    pub accesses: u64,
    /// Trace seed.
    pub seed: u64,
    /// Also sweep ECC strengths per workload.
    pub ecc_sweep: bool,
    /// Connection attempts before giving up.
    pub attempts: u32,
    /// Per-read timeout in milliseconds (the stalled-server guard).
    pub timeout_ms: u64,
    /// Pause before reconnecting when the server gave no hint.
    pub retry_pause_ms: u64,
    /// Per-workload retry budget override sent to the daemon.
    pub max_retries: Option<u32>,
    /// Per-attempt deadline override sent to the daemon, milliseconds.
    pub job_deadline_ms: Option<u64>,
}

/// Telemetry flags shared by `reap run` and `reap sweep`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObsArgs {
    /// Write a metrics snapshot as JSON-lines to this path.
    pub metrics_out: Option<PathBuf>,
    /// Rewrite `metrics_out` atomically every this-many milliseconds
    /// while the run is live (requires `metrics_out`).
    pub metrics_interval_ms: Option<u64>,
    /// Write a Chrome `trace_event` JSON file to this path.
    pub trace_out: Option<PathBuf>,
    /// Show rate-limited progress lines on stderr.
    pub progress: bool,
    /// Print the human-readable metrics table on stderr at the end.
    pub verbose: bool,
}

impl ObsArgs {
    /// Whether any form of metrics collection was requested.
    pub fn wants_metrics(&self) -> bool {
        self.metrics_out.is_some() || self.trace_out.is_some() || self.verbose
    }
}

/// Capture-store flags shared by `reap run` and `reap sweep`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CaptureArgs {
    /// Directory of the persistent exposure-capture store.
    pub dir: Option<PathBuf>,
    /// Store policy; defaults to `readwrite` when a directory is given.
    pub policy: Option<CapturePolicy>,
}

impl CaptureArgs {
    /// Builds the configured [`CaptureStore`], or `None` when no
    /// `--capture-dir` was given.
    pub fn to_store(&self) -> Option<CaptureStore> {
        let dir = self.dir.as_ref()?;
        Some(CaptureStore::new(
            dir.clone(),
            self.policy.unwrap_or(CapturePolicy::ReadWrite),
        ))
    }
}

/// Arguments of `reap run`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Workload profile.
    pub workload: SpecWorkload,
    /// Measured accesses.
    pub accesses: u64,
    /// Warm-up accesses (defaults to a tenth of `accesses`).
    pub warmup: Option<u64>,
    /// Trace seed.
    pub seed: u64,
    /// L2 ECC strength.
    pub ecc: EccStrength,
    /// Replacement policy.
    pub replacement: Replacement,
    /// L2 associativity override.
    pub l2_ways: Option<usize>,
    /// Telemetry outputs.
    pub obs: ObsArgs,
    /// Persistent capture store.
    pub capture: CaptureArgs,
}

impl Default for RunArgs {
    fn default() -> Self {
        Self {
            workload: SpecWorkload::Perlbench,
            accesses: 1_000_000,
            warmup: None,
            seed: 1,
            ecc: EccStrength::Sec,
            replacement: Replacement::Lru,
            l2_ways: None,
            obs: ObsArgs::default(),
            capture: CaptureArgs::default(),
        }
    }
}

/// Arguments of `reap sweep`.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepArgs {
    /// Measured accesses per workload.
    pub accesses: u64,
    /// Trace seed.
    pub seed: u64,
    /// Also sweep ECC strengths, replaying one exposure capture per
    /// workload instead of re-running the trace per strength.
    pub ecc_sweep: bool,
    /// Worker threads (defaults to the available parallelism).
    pub jobs: Option<usize>,
    /// Stream completed jobs to this checkpoint file.
    pub checkpoint: Option<PathBuf>,
    /// Skip jobs already present in the checkpoint.
    pub resume: bool,
    /// Supervision of the workload jobs (`--max-retries`,
    /// `--job-deadline-ms`, `--retry-backoff`, `--inject`).
    pub supervisor: SupervisorConfig,
    /// Telemetry outputs.
    pub obs: ObsArgs,
    /// Persistent capture store.
    pub capture: CaptureArgs,
}

impl Default for SweepArgs {
    fn default() -> Self {
        Self {
            // ~10× the original default: captures are stored compressed
            // and replayed streaming, so campaign-scale budgets are the
            // sensible out-of-the-box setting.
            accesses: 4_000_000,
            seed: 2019,
            ecc_sweep: false,
            jobs: None,
            checkpoint: None,
            resume: false,
            supervisor: SupervisorConfig::default(),
            obs: ObsArgs::default(),
            capture: CaptureArgs::default(),
        }
    }
}

/// Arguments of `reap explore`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreArgs {
    /// The declarative design-space grid, e.g.
    /// `"ways=4,8,16 ecc=sec,dec read-current=0.7:1.0:0.1 scrub=0,10k"`.
    pub grid: String,
    /// Workloads folded into each point (empty = the default trio).
    pub workloads: Vec<SpecWorkload>,
    /// Measured accesses per workload.
    pub accesses: u64,
    /// Trace seed.
    pub seed: u64,
    /// Worker threads (defaults to the available parallelism).
    pub jobs: Option<usize>,
    /// Hard budget on scored points, base grid plus refinement.
    pub max_points: usize,
    /// Run the adaptive refinement pass (`--no-refine` disables it).
    pub refine: bool,
    /// Stream completed jobs to this checkpoint file.
    pub checkpoint: Option<PathBuf>,
    /// Skip jobs already present in the checkpoint.
    pub resume: bool,
    /// Write the Pareto-front rows as JSON-lines to this path.
    pub jsonl_out: Option<PathBuf>,
    /// Telemetry outputs.
    pub obs: ObsArgs,
    /// Persistent capture store.
    pub capture: CaptureArgs,
}

impl Default for ExploreArgs {
    fn default() -> Self {
        Self {
            grid: String::new(),
            workloads: Vec::new(),
            accesses: 1_000_000,
            seed: 2019,
            jobs: None,
            max_points: 4096,
            refine: true,
            checkpoint: None,
            resume: false,
            jsonl_out: None,
            obs: ObsArgs::default(),
            capture: CaptureArgs::default(),
        }
    }
}

/// Arguments of `reap trace`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceArgs {
    /// Workload profile.
    pub workload: SpecWorkload,
    /// Number of accesses to emit.
    pub count: u64,
    /// Trace seed.
    pub seed: u64,
    /// Output path.
    pub out: PathBuf,
}

/// Arguments of `reap disturbance`.
#[derive(Debug, Clone, PartialEq)]
pub struct DisturbanceArgs {
    /// Thermal stability factor override.
    pub delta: Option<f64>,
    /// Read current override (µA).
    pub read_current_ua: Option<f64>,
    /// Operating temperature (K).
    pub temperature_k: Option<f64>,
}

/// Error produced while parsing the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseCliError {
    /// No subcommand given.
    MissingCommand,
    /// Unknown subcommand.
    UnknownCommand {
        /// What was found.
        found: String,
    },
    /// Unknown flag for the subcommand.
    UnknownFlag {
        /// The offending flag.
        flag: String,
    },
    /// A flag that needs a value was last on the line.
    MissingValue {
        /// The offending flag.
        flag: String,
    },
    /// A value failed to parse.
    BadValue {
        /// The offending flag.
        flag: String,
        /// The offending value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// A required positional/flag is missing.
    MissingRequired {
        /// Name of the missing argument.
        name: &'static str,
    },
}

impl fmt::Display for ParseCliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseCliError::MissingCommand => {
                write!(f, "missing subcommand (try `reap help`)")
            }
            ParseCliError::UnknownCommand { found } => {
                write!(f, "unknown subcommand `{found}` (try `reap help`)")
            }
            ParseCliError::UnknownFlag { flag } => write!(f, "unknown flag `{flag}`"),
            ParseCliError::MissingValue { flag } => write!(f, "flag `{flag}` needs a value"),
            ParseCliError::BadValue {
                flag,
                value,
                expected,
            } => {
                write!(f, "flag `{flag}`: `{value}` is not a valid {expected}")
            }
            ParseCliError::MissingRequired { name } => {
                write!(f, "missing required argument `{name}`")
            }
        }
    }
}

impl Error for ParseCliError {}

/// A cursor over the raw argument list.
struct Cursor {
    args: Vec<String>,
    next: usize,
}

impl Cursor {
    fn take(&mut self) -> Option<String> {
        let v = self.args.get(self.next).cloned();
        if v.is_some() {
            self.next += 1;
        }
        v
    }

    fn value_for(&mut self, flag: &str) -> Result<String, ParseCliError> {
        self.take().ok_or_else(|| ParseCliError::MissingValue {
            flag: flag.to_owned(),
        })
    }
}

fn parse_num<T: std::str::FromStr>(
    flag: &str,
    value: String,
    expected: &'static str,
) -> Result<T, ParseCliError> {
    // Accept underscores and scientific-ish suffixes like 2e6 for u64.
    let clean = value.replace('_', "");
    if let Ok(v) = clean.parse::<T>() {
        return Ok(v);
    }
    // Fall back through f64 for integer types written as 2e6.
    if let Ok(fv) = clean.parse::<f64>() {
        if fv >= 0.0 && fv.fract() == 0.0 {
            if let Ok(v) = format!("{}", fv as u64).parse::<T>() {
                return Ok(v);
            }
        }
    }
    Err(ParseCliError::BadValue {
        flag: flag.to_owned(),
        value,
        expected,
    })
}

/// Parses a raw argument list (without the program name).
///
/// # Errors
///
/// Returns a [`ParseCliError`] describing the first problem found.
///
/// # Examples
///
/// ```
/// use reap_cli::{parse, Command};
///
/// let cmd = parse(["list".to_owned()]).expect("valid");
/// assert_eq!(cmd, Command::List);
/// ```
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Command, ParseCliError> {
    let mut cursor = Cursor {
        args: args.into_iter().collect(),
        next: 0,
    };
    let Some(command) = cursor.take() else {
        return Err(ParseCliError::MissingCommand);
    };
    match command.as_str() {
        "run" => parse_run(cursor),
        "sweep" => parse_sweep(cursor),
        "trace" => parse_trace(cursor),
        "trace-info" => {
            let path = cursor
                .take()
                .ok_or(ParseCliError::MissingRequired { name: "path" })?;
            Ok(Command::TraceInfo {
                path: PathBuf::from(path),
            })
        }
        "explore" => parse_explore(cursor),
        "serve" => parse_serve(cursor),
        "submit" => parse_submit(cursor),
        "disturbance" => parse_disturbance(cursor),
        "obs" => parse_obs(cursor),
        "list" => Ok(Command::List),
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(ParseCliError::UnknownCommand {
            found: other.to_owned(),
        }),
    }
}

/// Consumes a telemetry flag shared by `run` and `sweep`. Returns `true`
/// when `flag` was one of them.
fn parse_obs_flag(obs: &mut ObsArgs, flag: &str, c: &mut Cursor) -> Result<bool, ParseCliError> {
    match flag {
        "--metrics-out" => obs.metrics_out = Some(PathBuf::from(c.value_for(flag)?)),
        "--metrics-interval-ms" => {
            let ms: u64 = parse_num(flag, c.value_for(flag)?, "milliseconds")?;
            if ms == 0 {
                return Err(ParseCliError::BadValue {
                    flag: flag.to_owned(),
                    value: "0".to_owned(),
                    expected: "non-zero interval in milliseconds",
                });
            }
            obs.metrics_interval_ms = Some(ms);
        }
        "--trace-out" => obs.trace_out = Some(PathBuf::from(c.value_for(flag)?)),
        "--progress" => obs.progress = true,
        "--verbose" | "-v" => obs.verbose = true,
        _ => return Ok(false),
    }
    Ok(true)
}

/// A flush interval without a metrics file flushes nothing — reject it
/// instead of silently ignoring the flag.
fn check_obs(obs: &ObsArgs) -> Result<(), ParseCliError> {
    if obs.metrics_interval_ms.is_some() && obs.metrics_out.is_none() {
        return Err(ParseCliError::MissingRequired {
            name: "--metrics-out (required by --metrics-interval-ms)",
        });
    }
    Ok(())
}

/// Consumes a capture-store flag shared by `run` and `sweep`. Returns
/// `true` when `flag` was one of them.
fn parse_capture_flag(
    capture: &mut CaptureArgs,
    flag: &str,
    c: &mut Cursor,
) -> Result<bool, ParseCliError> {
    match flag {
        "--capture-dir" => capture.dir = Some(PathBuf::from(c.value_for(flag)?)),
        "--capture-policy" => {
            let v = c.value_for(flag)?;
            capture.policy = Some(match v.to_ascii_lowercase().as_str() {
                "off" => CapturePolicy::Off,
                "read" => CapturePolicy::Read,
                "readwrite" => CapturePolicy::ReadWrite,
                _ => {
                    return Err(ParseCliError::BadValue {
                        flag: flag.to_owned(),
                        value: v,
                        expected: "one of off/read/readwrite",
                    })
                }
            });
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// A policy without a directory configures nothing — reject it instead
/// of silently ignoring the flag.
fn check_capture(capture: &CaptureArgs) -> Result<(), ParseCliError> {
    if capture.policy.is_some() && capture.dir.is_none() {
        return Err(ParseCliError::MissingRequired {
            name: "--capture-dir (required by --capture-policy)",
        });
    }
    Ok(())
}

/// `--inject` example for `reap sweep`, whose fault plan drives jobs.
const SWEEP_INJECT_HINT: &str = "fault spec like seed=7,panic=0.2,interrupt=5";

/// `--inject` example for `reap serve`, whose fault plan also drives
/// the connection paths.
const SERVE_INJECT_HINT: &str = "fault spec like seed=7,refuse=0.2,drop=0.1,stall-ms=20";

/// Consumes a supervision flag shared by `sweep` and `serve`. Returns
/// `true` when `flag` was one of them. `inject_hint` is the example a
/// malformed `--inject` spec is answered with.
fn parse_supervisor_flag(
    supervisor: &mut SupervisorConfig,
    flag: &str,
    c: &mut Cursor,
    inject_hint: &'static str,
) -> Result<bool, ParseCliError> {
    match flag {
        "--max-retries" => {
            supervisor.max_retries = parse_num(flag, c.value_for(flag)?, "retry count")?;
        }
        "--job-deadline-ms" => {
            let ms = parse_num(flag, c.value_for(flag)?, "milliseconds")?;
            supervisor.deadline = Some(std::time::Duration::from_millis(ms));
        }
        "--retry-backoff" => {
            let v = c.value_for(flag)?;
            supervisor.backoff =
                RetryBackoff::parse_spec(&v).map_err(|e| ParseCliError::BadValue {
                    flag: flag.to_owned(),
                    value: format!("{v} ({e})"),
                    expected: "backoff spec like 250, 100:2 or 100:2:5000",
                })?;
        }
        "--inject" => {
            let v = c.value_for(flag)?;
            supervisor.fault_plan = Some(v.parse().map_err(|e: reap_fault::FaultSpecError| {
                ParseCliError::BadValue {
                    flag: flag.to_owned(),
                    value: format!("{v} ({e})"),
                    expected: inject_hint,
                }
            })?);
        }
        _ => return Ok(false),
    }
    Ok(true)
}

fn parse_obs(mut c: Cursor) -> Result<Command, ParseCliError> {
    match c.take().as_deref() {
        Some("check") => {
            let path = c
                .take()
                .ok_or(ParseCliError::MissingRequired { name: "path" })?;
            Ok(Command::ObsCheck {
                path: PathBuf::from(path),
            })
        }
        Some("report") => parse_obs_report(c),
        Some("diff") => parse_obs_diff(c),
        Some(other) => Err(ParseCliError::UnknownCommand {
            found: format!("obs {other}"),
        }),
        None => Err(ParseCliError::MissingRequired {
            name: "check|report|diff",
        }),
    }
}

fn parse_obs_report(mut c: Cursor) -> Result<Command, ParseCliError> {
    let mut path = None;
    let mut no_timings = false;
    while let Some(arg) = c.take() {
        match arg.as_str() {
            "--no-timings" => no_timings = true,
            flag if flag.starts_with('-') => {
                return Err(ParseCliError::UnknownFlag {
                    flag: flag.to_owned(),
                })
            }
            _ if path.is_none() => path = Some(PathBuf::from(arg)),
            _ => {
                return Err(ParseCliError::UnknownFlag { flag: arg });
            }
        }
    }
    Ok(Command::ObsReport {
        path: path.ok_or(ParseCliError::MissingRequired { name: "path" })?,
        no_timings,
    })
}

/// Parses a `--metric` value: `name`, `name:up` (higher is better, the
/// default) or `name:down` (lower is better).
fn parse_gate_metric(value: String) -> Result<GateMetric, ParseCliError> {
    let (name, direction) = match value.rsplit_once(':') {
        Some((name, dir)) => (name, dir),
        None => (value.as_str(), "up"),
    };
    let higher_is_better = match direction {
        "up" => true,
        "down" => false,
        _ => {
            return Err(ParseCliError::BadValue {
                flag: "--metric".to_owned(),
                value,
                expected: "metric name, optionally suffixed :up or :down",
            })
        }
    };
    if name.is_empty() {
        return Err(ParseCliError::BadValue {
            flag: "--metric".to_owned(),
            value,
            expected: "metric name, optionally suffixed :up or :down",
        });
    }
    Ok(GateMetric {
        name: name.to_owned(),
        higher_is_better,
    })
}

fn parse_obs_diff(mut c: Cursor) -> Result<Command, ParseCliError> {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut threshold = 0.10f64;
    let mut min_seconds = 0.01f64;
    let mut metrics = Vec::new();
    while let Some(arg) = c.take() {
        match arg.as_str() {
            "--threshold" => {
                threshold = parse_float(&arg, c.value_for(&arg)?, "relative threshold")?;
                if threshold < 0.0 || !threshold.is_finite() {
                    return Err(ParseCliError::BadValue {
                        flag: arg,
                        value: threshold.to_string(),
                        expected: "non-negative relative threshold like 0.10",
                    });
                }
            }
            "--min-seconds" => {
                min_seconds = parse_float(&arg, c.value_for(&arg)?, "seconds")?;
            }
            "--metric" => metrics.push(parse_gate_metric(c.value_for(&arg)?)?),
            flag if flag.starts_with('-') => {
                return Err(ParseCliError::UnknownFlag {
                    flag: flag.to_owned(),
                })
            }
            _ if paths.len() < 2 => paths.push(PathBuf::from(arg)),
            _ => return Err(ParseCliError::UnknownFlag { flag: arg }),
        }
    }
    let mut paths = paths.into_iter();
    let a = paths
        .next()
        .ok_or(ParseCliError::MissingRequired { name: "a" })?;
    let b = paths
        .next()
        .ok_or(ParseCliError::MissingRequired { name: "b" })?;
    Ok(Command::ObsDiff {
        a,
        b,
        threshold,
        min_seconds,
        metrics,
    })
}

fn parse_float(flag: &str, value: String, expected: &'static str) -> Result<f64, ParseCliError> {
    value.parse().map_err(|_| ParseCliError::BadValue {
        flag: flag.to_owned(),
        value,
        expected,
    })
}

fn parse_workload(flag: &str, value: String) -> Result<SpecWorkload, ParseCliError> {
    value.parse().map_err(|_| ParseCliError::BadValue {
        flag: flag.to_owned(),
        value,
        expected: "SPEC CPU2006 workload name",
    })
}

fn parse_run(mut c: Cursor) -> Result<Command, ParseCliError> {
    let mut a = RunArgs::default();
    let mut got_workload = false;
    while let Some(flag) = c.take() {
        match flag.as_str() {
            "--workload" | "-w" => {
                a.workload = parse_workload(&flag, c.value_for(&flag)?)?;
                got_workload = true;
            }
            "--accesses" | "-n" => a.accesses = parse_num(&flag, c.value_for(&flag)?, "count")?,
            "--warmup" => a.warmup = Some(parse_num(&flag, c.value_for(&flag)?, "count")?),
            "--seed" | "-s" => a.seed = parse_num(&flag, c.value_for(&flag)?, "seed")?,
            "--ecc" => {
                let v = c.value_for(&flag)?;
                a.ecc = match v.to_ascii_lowercase().as_str() {
                    "sec" => EccStrength::Sec,
                    "dec" => EccStrength::Dec,
                    "tec" => EccStrength::Tec,
                    _ => {
                        return Err(ParseCliError::BadValue {
                            flag,
                            value: v,
                            expected: "one of sec/dec/tec",
                        })
                    }
                };
            }
            "--replacement" | "-r" => {
                let v = c.value_for(&flag)?;
                a.replacement = match v.to_ascii_lowercase().as_str() {
                    "lru" => Replacement::Lru,
                    "plru" => Replacement::TreePlru,
                    "fifo" => Replacement::Fifo,
                    "random" => Replacement::Random(a.seed),
                    "srrip" => Replacement::Srrip,
                    "ler" => Replacement::LeastErrorRate,
                    _ => {
                        return Err(ParseCliError::BadValue {
                            flag,
                            value: v,
                            expected: "one of lru/plru/fifo/random/srrip/ler",
                        })
                    }
                };
            }
            "--l2-ways" => a.l2_ways = Some(parse_num(&flag, c.value_for(&flag)?, "way count")?),
            _ if parse_obs_flag(&mut a.obs, &flag, &mut c)? => {}
            _ if parse_capture_flag(&mut a.capture, &flag, &mut c)? => {}
            _ => return Err(ParseCliError::UnknownFlag { flag }),
        }
    }
    if !got_workload {
        return Err(ParseCliError::MissingRequired { name: "--workload" });
    }
    check_obs(&a.obs)?;
    check_capture(&a.capture)?;
    Ok(Command::Run(a))
}

fn parse_sweep(mut c: Cursor) -> Result<Command, ParseCliError> {
    let mut a = SweepArgs::default();
    while let Some(flag) = c.take() {
        match flag.as_str() {
            "--accesses" | "-n" => a.accesses = parse_num(&flag, c.value_for(&flag)?, "count")?,
            "--seed" | "-s" => a.seed = parse_num(&flag, c.value_for(&flag)?, "seed")?,
            "--ecc-sweep" => a.ecc_sweep = true,
            "--jobs" | "-j" => a.jobs = Some(parse_num(&flag, c.value_for(&flag)?, "count")?),
            "--checkpoint" => a.checkpoint = Some(PathBuf::from(c.value_for(&flag)?)),
            "--resume" => a.resume = true,
            _ if parse_supervisor_flag(&mut a.supervisor, &flag, &mut c, SWEEP_INJECT_HINT)? => {}
            _ if parse_obs_flag(&mut a.obs, &flag, &mut c)? => {}
            _ if parse_capture_flag(&mut a.capture, &flag, &mut c)? => {}
            _ => return Err(ParseCliError::UnknownFlag { flag }),
        }
    }
    if a.resume && a.checkpoint.is_none() {
        return Err(ParseCliError::MissingRequired {
            name: "--checkpoint (required by --resume)",
        });
    }
    check_obs(&a.obs)?;
    check_capture(&a.capture)?;
    Ok(Command::Sweep(a))
}

fn parse_explore(mut c: Cursor) -> Result<Command, ParseCliError> {
    let mut a = ExploreArgs::default();
    let mut got_grid = false;
    while let Some(flag) = c.take() {
        match flag.as_str() {
            "--grid" | "-g" => {
                a.grid = c.value_for(&flag)?;
                got_grid = true;
            }
            "--workloads" | "-w" => {
                let v = c.value_for(&flag)?;
                if v.eq_ignore_ascii_case("all") {
                    a.workloads = SpecWorkload::ALL.to_vec();
                } else {
                    a.workloads = v
                        .split(',')
                        .map(|name| parse_workload(&flag, name.to_owned()))
                        .collect::<Result<_, _>>()?;
                }
            }
            "--accesses" | "-n" => a.accesses = parse_num(&flag, c.value_for(&flag)?, "count")?,
            "--seed" | "-s" => a.seed = parse_num(&flag, c.value_for(&flag)?, "seed")?,
            "--jobs" | "-j" => a.jobs = Some(parse_num(&flag, c.value_for(&flag)?, "count")?),
            "--max-points" => {
                a.max_points = parse_num(&flag, c.value_for(&flag)?, "count")?;
                if a.max_points == 0 {
                    return Err(ParseCliError::BadValue {
                        flag,
                        value: "0".to_owned(),
                        expected: "non-zero point budget",
                    });
                }
            }
            "--no-refine" => a.refine = false,
            "--checkpoint" => a.checkpoint = Some(PathBuf::from(c.value_for(&flag)?)),
            "--resume" => a.resume = true,
            "--jsonl-out" => a.jsonl_out = Some(PathBuf::from(c.value_for(&flag)?)),
            _ if parse_obs_flag(&mut a.obs, &flag, &mut c)? => {}
            _ if parse_capture_flag(&mut a.capture, &flag, &mut c)? => {}
            _ => return Err(ParseCliError::UnknownFlag { flag }),
        }
    }
    if !got_grid {
        return Err(ParseCliError::MissingRequired { name: "--grid" });
    }
    if a.resume && a.checkpoint.is_none() {
        return Err(ParseCliError::MissingRequired {
            name: "--checkpoint (required by --resume)",
        });
    }
    check_obs(&a.obs)?;
    check_capture(&a.capture)?;
    Ok(Command::Explore(a))
}

fn parse_serve(mut c: Cursor) -> Result<Command, ParseCliError> {
    let mut socket = None;
    let mut state_dir = None;
    let mut a = ServeArgs {
        socket: PathBuf::new(),
        state_dir: PathBuf::new(),
        parallelism: None,
        max_active: None,
        queue_depth: None,
        retry_after_ms: None,
        supervisor: SupervisorConfig::default(),
        capture: CaptureArgs::default(),
        journal_gc_age_secs: None,
    };
    while let Some(flag) = c.take() {
        match flag.as_str() {
            "--socket" => socket = Some(PathBuf::from(c.value_for(&flag)?)),
            "--state-dir" => state_dir = Some(PathBuf::from(c.value_for(&flag)?)),
            "--journal-gc-age-secs" => {
                a.journal_gc_age_secs = Some(parse_num(&flag, c.value_for(&flag)?, "seconds")?);
            }
            "--parallelism" | "-j" => {
                a.parallelism = Some(parse_num(&flag, c.value_for(&flag)?, "count")?);
            }
            "--max-active" => {
                a.max_active = Some(parse_num(&flag, c.value_for(&flag)?, "count")?);
            }
            "--queue-depth" => {
                a.queue_depth = Some(parse_num(&flag, c.value_for(&flag)?, "count")?);
            }
            "--retry-after-ms" => {
                a.retry_after_ms = Some(parse_num(&flag, c.value_for(&flag)?, "milliseconds")?);
            }
            _ if parse_supervisor_flag(&mut a.supervisor, &flag, &mut c, SERVE_INJECT_HINT)? => {}
            _ if parse_capture_flag(&mut a.capture, &flag, &mut c)? => {}
            _ => return Err(ParseCliError::UnknownFlag { flag }),
        }
    }
    a.socket = socket.ok_or(ParseCliError::MissingRequired { name: "--socket" })?;
    a.state_dir = state_dir.ok_or(ParseCliError::MissingRequired {
        name: "--state-dir",
    })?;
    check_capture(&a.capture)?;
    Ok(Command::Serve(a))
}

fn parse_submit(mut c: Cursor) -> Result<Command, ParseCliError> {
    let mut socket = None;
    let mut a = SubmitArgs {
        socket: PathBuf::new(),
        accesses: SweepArgs::default().accesses,
        seed: SweepArgs::default().seed,
        ecc_sweep: false,
        attempts: 10,
        timeout_ms: 60_000,
        retry_pause_ms: 100,
        max_retries: None,
        job_deadline_ms: None,
    };
    while let Some(flag) = c.take() {
        match flag.as_str() {
            "--socket" => socket = Some(PathBuf::from(c.value_for(&flag)?)),
            "--accesses" | "-n" => a.accesses = parse_num(&flag, c.value_for(&flag)?, "count")?,
            "--seed" | "-s" => a.seed = parse_num(&flag, c.value_for(&flag)?, "seed")?,
            "--ecc-sweep" => a.ecc_sweep = true,
            "--attempts" => a.attempts = parse_num(&flag, c.value_for(&flag)?, "count")?,
            "--timeout-ms" => {
                a.timeout_ms = parse_num(&flag, c.value_for(&flag)?, "milliseconds")?;
            }
            "--retry-pause-ms" => {
                a.retry_pause_ms = parse_num(&flag, c.value_for(&flag)?, "milliseconds")?;
            }
            "--max-retries" => {
                a.max_retries = Some(parse_num(&flag, c.value_for(&flag)?, "retry count")?);
            }
            "--job-deadline-ms" => {
                a.job_deadline_ms = Some(parse_num(&flag, c.value_for(&flag)?, "milliseconds")?);
            }
            _ => return Err(ParseCliError::UnknownFlag { flag }),
        }
    }
    a.socket = socket.ok_or(ParseCliError::MissingRequired { name: "--socket" })?;
    Ok(Command::Submit(a))
}

fn parse_trace(mut c: Cursor) -> Result<Command, ParseCliError> {
    let mut workload = None;
    let mut count = 1_000_000u64;
    let mut seed = 1u64;
    let mut out = None;
    while let Some(flag) = c.take() {
        match flag.as_str() {
            "--workload" | "-w" => workload = Some(parse_workload(&flag, c.value_for(&flag)?)?),
            "--count" | "-n" => count = parse_num(&flag, c.value_for(&flag)?, "count")?,
            "--seed" | "-s" => seed = parse_num(&flag, c.value_for(&flag)?, "seed")?,
            "--out" | "-o" => out = Some(PathBuf::from(c.value_for(&flag)?)),
            _ => return Err(ParseCliError::UnknownFlag { flag }),
        }
    }
    Ok(Command::Trace(TraceArgs {
        workload: workload.ok_or(ParseCliError::MissingRequired { name: "--workload" })?,
        count,
        seed,
        out: out.ok_or(ParseCliError::MissingRequired { name: "--out" })?,
    }))
}

fn parse_disturbance(mut c: Cursor) -> Result<Command, ParseCliError> {
    let mut a = DisturbanceArgs {
        delta: None,
        read_current_ua: None,
        temperature_k: None,
    };
    while let Some(flag) = c.take() {
        match flag.as_str() {
            "--delta" => a.delta = Some(parse_num(&flag, c.value_for(&flag)?, "number")?),
            "--read-current-ua" => {
                a.read_current_ua = Some(parse_num(&flag, c.value_for(&flag)?, "number")?)
            }
            "--temperature-k" => {
                a.temperature_k = Some(parse_num(&flag, c.value_for(&flag)?, "number")?)
            }
            _ => return Err(ParseCliError::UnknownFlag { flag }),
        }
    }
    Ok(Command::Disturbance(a))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(line: &str) -> Result<Command, ParseCliError> {
        parse(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn run_with_all_flags() {
        let cmd = p(
            "run --workload namd --accesses 2_000_000 --warmup 1000 --seed 9 \
                     --ecc dec --replacement srrip --l2-ways 16",
        )
        .unwrap();
        let Command::Run(a) = cmd else {
            panic!("not a run")
        };
        assert_eq!(a.workload, SpecWorkload::Namd);
        assert_eq!(a.accesses, 2_000_000);
        assert_eq!(a.warmup, Some(1_000));
        assert_eq!(a.seed, 9);
        assert_eq!(a.ecc, EccStrength::Dec);
        assert_eq!(a.replacement, Replacement::Srrip);
        assert_eq!(a.l2_ways, Some(16));
    }

    #[test]
    fn run_accepts_scientific_counts() {
        let Command::Run(a) = p("run -w mcf -n 2e6").unwrap() else {
            panic!()
        };
        assert_eq!(a.accesses, 2_000_000);
    }

    #[test]
    fn run_requires_workload() {
        assert_eq!(
            p("run --accesses 100"),
            Err(ParseCliError::MissingRequired { name: "--workload" })
        );
    }

    #[test]
    fn unknown_workload_is_a_bad_value() {
        let err = p("run --workload quake3").unwrap_err();
        assert!(matches!(err, ParseCliError::BadValue { .. }));
        assert!(err.to_string().contains("quake3"));
    }

    #[test]
    fn sweep_defaults() {
        let Command::Sweep(a) = p("sweep").unwrap() else {
            panic!()
        };
        assert_eq!(a, SweepArgs::default());
    }

    #[test]
    fn sweep_ecc_flag() {
        let Command::Sweep(a) = p("sweep -n 50000 --ecc-sweep").unwrap() else {
            panic!()
        };
        assert_eq!(a.accesses, 50_000);
        assert!(a.ecc_sweep);
    }

    #[test]
    fn run_accepts_telemetry_flags() {
        let Command::Run(a) = p("run -w namd --metrics-out m.jsonl --trace-out t.json -v").unwrap()
        else {
            panic!()
        };
        assert_eq!(a.obs.metrics_out, Some(PathBuf::from("m.jsonl")));
        assert_eq!(a.obs.trace_out, Some(PathBuf::from("t.json")));
        assert!(a.obs.verbose);
        assert!(!a.obs.progress);
        assert!(a.obs.wants_metrics());
    }

    #[test]
    fn sweep_accepts_telemetry_and_jobs() {
        let Command::Sweep(a) =
            p("sweep --ecc-sweep -j 4 --metrics-out out.jsonl --progress").unwrap()
        else {
            panic!()
        };
        assert!(a.ecc_sweep);
        assert_eq!(a.jobs, Some(4));
        assert_eq!(a.obs.metrics_out, Some(PathBuf::from("out.jsonl")));
        assert!(a.obs.progress);
    }

    #[test]
    fn sweep_fault_tolerance_flags() {
        let Command::Sweep(a) = p("sweep --checkpoint ck.jsonl --resume --max-retries 5 \
             --job-deadline-ms 30000 --retry-backoff 250")
        .unwrap() else {
            panic!()
        };
        assert_eq!(a.checkpoint, Some(PathBuf::from("ck.jsonl")));
        assert!(a.resume);
        assert_eq!(a.supervisor.max_retries, 5);
        assert_eq!(
            a.supervisor.deadline,
            Some(std::time::Duration::from_millis(30_000))
        );
        assert_eq!(
            a.supervisor.backoff,
            RetryBackoff::linear(std::time::Duration::from_millis(250))
        );
        assert_eq!(a.supervisor.fault_plan, None);
    }

    #[test]
    fn the_linear_backoff_flag_is_gone() {
        for command in ["sweep", "serve --socket s --state-dir d"] {
            assert_eq!(
                p(&format!("{command} --retry-backoff-ms 250")),
                Err(ParseCliError::UnknownFlag {
                    flag: "--retry-backoff-ms".to_owned()
                }),
                "{command}"
            );
        }
    }

    #[test]
    fn the_hot_cache_flag_is_gone() {
        assert_eq!(
            p("serve --socket s --state-dir d --cache-entries 8"),
            Err(ParseCliError::UnknownFlag {
                flag: "--cache-entries".to_owned()
            })
        );
    }

    #[test]
    fn sweep_retry_backoff_spec_parses_exponential_forms() {
        let Command::Sweep(a) = p("sweep --retry-backoff 100:2:5000").unwrap() else {
            panic!()
        };
        let backoff = a.supervisor.backoff;
        assert_eq!(backoff.base, std::time::Duration::from_millis(100));
        assert_eq!(backoff.factor, 2.0);
        assert_eq!(backoff.cap, std::time::Duration::from_millis(5000));
        assert!(backoff.jitter);

        assert!(matches!(
            p("sweep --retry-backoff 100:0.5"),
            Err(ParseCliError::BadValue { .. })
        ));
    }

    #[test]
    fn sweep_resume_requires_checkpoint() {
        assert!(matches!(
            p("sweep --resume"),
            Err(ParseCliError::MissingRequired { .. })
        ));
    }

    #[test]
    fn sweep_inject_parses_a_fault_spec() {
        let Command::Sweep(a) = p("sweep --inject seed=7,panic=0.25,interrupt=5").unwrap() else {
            panic!()
        };
        let plan = a.supervisor.fault_plan.unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.panic_rate, 0.25);
        assert_eq!(plan.interrupt_after, Some(5));

        let err = p("sweep --inject panic=2.5").unwrap_err();
        assert!(matches!(err, ParseCliError::BadValue { .. }));
        assert!(err.to_string().contains("panic=0.2,interrupt=5"), "{err}");
        // The hint names the command's own fault fields.
        let err = p("serve --socket s --state-dir d --inject panic=2.5").unwrap_err();
        assert!(err.to_string().contains("refuse=0.2"), "{err}");
    }

    #[test]
    fn capture_flags_parse_on_run_and_sweep() {
        let Command::Sweep(a) = p("sweep --ecc-sweep --capture-dir caps").unwrap() else {
            panic!()
        };
        assert_eq!(a.capture.dir, Some(PathBuf::from("caps")));
        assert_eq!(a.capture.policy, None);
        let store = a.capture.to_store().unwrap();
        assert_eq!(store.policy(), CapturePolicy::ReadWrite);

        let Command::Run(a) = p("run -w namd --capture-dir caps --capture-policy read").unwrap()
        else {
            panic!()
        };
        assert_eq!(a.capture.policy, Some(CapturePolicy::Read));
        assert_eq!(a.capture.to_store().unwrap().policy(), CapturePolicy::Read);

        // No flags → no store.
        let Command::Run(a) = p("run -w namd").unwrap() else {
            panic!()
        };
        assert_eq!(a.capture.to_store(), None);
    }

    #[test]
    fn capture_policy_requires_a_dir_and_a_known_value() {
        assert_eq!(
            p("sweep --capture-policy readwrite"),
            Err(ParseCliError::MissingRequired {
                name: "--capture-dir (required by --capture-policy)"
            })
        );
        assert_eq!(
            p("run -w namd --capture-policy off"),
            Err(ParseCliError::MissingRequired {
                name: "--capture-dir (required by --capture-policy)"
            })
        );
        let err = p("sweep --capture-dir caps --capture-policy sometimes").unwrap_err();
        assert!(matches!(err, ParseCliError::BadValue { .. }));
        assert!(err.to_string().contains("off/read/readwrite"), "{err}");
    }

    #[test]
    fn obs_check_takes_a_path() {
        assert_eq!(
            p("obs check run.jsonl").unwrap(),
            Command::ObsCheck {
                path: PathBuf::from("run.jsonl")
            }
        );
        assert_eq!(
            p("obs check"),
            Err(ParseCliError::MissingRequired { name: "path" })
        );
        assert!(matches!(
            p("obs frobnicate"),
            Err(ParseCliError::UnknownCommand { .. })
        ));
    }

    #[test]
    fn obs_report_takes_a_path_and_stable_mode() {
        assert_eq!(
            p("obs report run.jsonl").unwrap(),
            Command::ObsReport {
                path: PathBuf::from("run.jsonl"),
                no_timings: false
            }
        );
        assert_eq!(
            p("obs report --no-timings run.jsonl").unwrap(),
            Command::ObsReport {
                path: PathBuf::from("run.jsonl"),
                no_timings: true
            }
        );
        assert_eq!(
            p("obs report"),
            Err(ParseCliError::MissingRequired { name: "path" })
        );
        assert!(matches!(
            p("obs report a.jsonl b.jsonl"),
            Err(ParseCliError::UnknownFlag { .. })
        ));
    }

    #[test]
    fn obs_diff_parses_thresholds_and_metrics() {
        let Command::ObsDiff {
            a,
            b,
            threshold,
            min_seconds,
            metrics,
        } = p(
            "obs diff base.jsonl new.jsonl --threshold 0.25 --min-seconds 0.5 \
               --metric speedup --metric miss_rate:down",
        )
        .unwrap()
        else {
            panic!()
        };
        assert_eq!(a, PathBuf::from("base.jsonl"));
        assert_eq!(b, PathBuf::from("new.jsonl"));
        assert_eq!(threshold, 0.25);
        assert_eq!(min_seconds, 0.5);
        assert_eq!(
            metrics,
            vec![
                GateMetric {
                    name: "speedup".to_owned(),
                    higher_is_better: true
                },
                GateMetric {
                    name: "miss_rate".to_owned(),
                    higher_is_better: false
                },
            ]
        );

        // Defaults.
        let Command::ObsDiff {
            threshold,
            min_seconds,
            metrics,
            ..
        } = p("obs diff a b").unwrap()
        else {
            panic!()
        };
        assert_eq!(threshold, 0.10);
        assert_eq!(min_seconds, 0.01);
        assert!(metrics.is_empty());

        // Both paths are required; bad values are descriptive.
        assert_eq!(
            p("obs diff a"),
            Err(ParseCliError::MissingRequired { name: "b" })
        );
        assert!(matches!(
            p("obs diff a b --threshold nope"),
            Err(ParseCliError::BadValue { .. })
        ));
        assert!(matches!(
            p("obs diff a b --metric speedup:sideways"),
            Err(ParseCliError::BadValue { .. })
        ));
    }

    #[test]
    fn metrics_interval_requires_metrics_out() {
        let Command::Sweep(a) = p("sweep --metrics-out m.jsonl --metrics-interval-ms 250").unwrap()
        else {
            panic!()
        };
        assert_eq!(a.obs.metrics_interval_ms, Some(250));

        assert_eq!(
            p("sweep --metrics-interval-ms 250"),
            Err(ParseCliError::MissingRequired {
                name: "--metrics-out (required by --metrics-interval-ms)"
            })
        );
        assert!(matches!(
            p("run -w namd --metrics-out m.jsonl --metrics-interval-ms 0"),
            Err(ParseCliError::BadValue { .. })
        ));
    }

    #[test]
    fn telemetry_flags_still_need_values() {
        assert_eq!(
            p("run -w namd --metrics-out"),
            Err(ParseCliError::MissingValue {
                flag: "--metrics-out".to_owned()
            })
        );
    }

    #[test]
    fn trace_round_trip() {
        let Command::Trace(a) = p("trace -w lbm -n 500 -s 3 -o /tmp/x.rtrc").unwrap() else {
            panic!()
        };
        assert_eq!(a.workload, SpecWorkload::Lbm);
        assert_eq!(a.count, 500);
        assert_eq!(a.out, PathBuf::from("/tmp/x.rtrc"));
    }

    #[test]
    fn trace_requires_out() {
        assert_eq!(
            p("trace -w lbm"),
            Err(ParseCliError::MissingRequired { name: "--out" })
        );
    }

    #[test]
    fn trace_info_takes_a_path() {
        assert_eq!(
            p("trace-info foo.rtrc").unwrap(),
            Command::TraceInfo {
                path: PathBuf::from("foo.rtrc")
            }
        );
    }

    #[test]
    fn disturbance_flags() {
        let Command::Disturbance(a) =
            p("disturbance --delta 55 --read-current-ua 80 --temperature-k 350").unwrap()
        else {
            panic!()
        };
        assert_eq!(a.delta, Some(55.0));
        assert_eq!(a.read_current_ua, Some(80.0));
        assert_eq!(a.temperature_k, Some(350.0));
    }

    #[test]
    fn explore_parses_grid_workloads_and_budget() {
        let Command::Explore(a) = p("explore --grid ways=4,8 -w hmmer,mcf -n 50000 -s 7 \
             -j 4 --max-points 64 --no-refine --checkpoint ck.jsonl --resume \
             --jsonl-out front.jsonl --capture-dir caps")
        .unwrap() else {
            panic!()
        };
        assert_eq!(a.grid, "ways=4,8");
        assert_eq!(a.workloads, vec![SpecWorkload::Hmmer, SpecWorkload::Mcf]);
        assert_eq!(a.accesses, 50_000);
        assert_eq!(a.seed, 7);
        assert_eq!(a.jobs, Some(4));
        assert_eq!(a.max_points, 64);
        assert!(!a.refine);
        assert_eq!(a.checkpoint, Some(PathBuf::from("ck.jsonl")));
        assert!(a.resume);
        assert_eq!(a.jsonl_out, Some(PathBuf::from("front.jsonl")));
        assert_eq!(a.capture.dir, Some(PathBuf::from("caps")));
    }

    #[test]
    fn explore_defaults_and_requirements() {
        let Command::Explore(a) = p("explore --grid ecc=sec,dec").unwrap() else {
            panic!()
        };
        assert!(a.workloads.is_empty());
        assert_eq!(a.accesses, 1_000_000);
        assert_eq!(a.max_points, 4096);
        assert!(a.refine);

        let Command::Explore(a) = p("explore --grid ways=4 -w all").unwrap() else {
            panic!()
        };
        assert_eq!(a.workloads.len(), SpecWorkload::ALL.len());

        assert_eq!(
            p("explore"),
            Err(ParseCliError::MissingRequired { name: "--grid" })
        );
        assert!(matches!(
            p("explore --grid ways=4 --resume"),
            Err(ParseCliError::MissingRequired { .. })
        ));
        assert!(matches!(
            p("explore --grid ways=4 --max-points 0"),
            Err(ParseCliError::BadValue { .. })
        ));
        assert!(matches!(
            p("explore --grid ways=4 -w quake3"),
            Err(ParseCliError::BadValue { .. })
        ));
    }

    #[test]
    fn serve_parses_tuning_supervision_and_capture_flags() {
        let Command::Serve(a) = p("serve --socket /tmp/reap.sock --state-dir /tmp/state \
             --parallelism 8 --max-active 3 --queue-depth 6 \
             --retry-after-ms 500 --max-retries 4 --job-deadline-ms 30000 \
             --retry-backoff 100:2:5000 --inject seed=7,refuse=0.2,stall-ms=20 \
             --capture-dir caps --journal-gc-age-secs 3600")
        .unwrap() else {
            panic!()
        };
        assert_eq!(a.socket, PathBuf::from("/tmp/reap.sock"));
        assert_eq!(a.state_dir, PathBuf::from("/tmp/state"));
        assert_eq!(a.parallelism, Some(8));
        assert_eq!(a.max_active, Some(3));
        assert_eq!(a.queue_depth, Some(6));
        assert_eq!(a.retry_after_ms, Some(500));
        assert_eq!(a.supervisor.max_retries, 4);
        assert_eq!(
            a.supervisor.deadline,
            Some(std::time::Duration::from_millis(30_000))
        );
        assert_eq!(a.supervisor.backoff.factor, 2.0);
        let plan = a.supervisor.fault_plan.unwrap();
        assert_eq!(plan.refuse_rate, 0.2);
        assert_eq!(plan.stall(), Some(std::time::Duration::from_millis(20)));
        assert_eq!(a.capture.dir, Some(PathBuf::from("caps")));
        assert_eq!(a.journal_gc_age_secs, Some(3600));
    }

    #[test]
    fn serve_requires_socket_and_state_dir() {
        assert_eq!(
            p("serve --state-dir /tmp/state"),
            Err(ParseCliError::MissingRequired { name: "--socket" })
        );
        assert_eq!(
            p("serve --socket /tmp/reap.sock"),
            Err(ParseCliError::MissingRequired {
                name: "--state-dir"
            })
        );
        // Tuning knobs default to the daemon's choices when absent.
        let Command::Serve(a) = p("serve --socket s --state-dir d").unwrap() else {
            panic!()
        };
        assert_eq!(a.parallelism, None);
        assert_eq!(a.max_active, None);
        assert_eq!(a.supervisor, SupervisorConfig::default());
    }

    #[test]
    fn submit_parses_budget_overrides_and_defaults() {
        let Command::Submit(a) = p("submit --socket /tmp/reap.sock -n 2000 -s 5 --ecc-sweep \
             --attempts 20 --timeout-ms 5000 --retry-pause-ms 50 \
             --max-retries 1 --job-deadline-ms 10000")
        .unwrap() else {
            panic!()
        };
        assert_eq!(a.socket, PathBuf::from("/tmp/reap.sock"));
        assert_eq!(a.accesses, 2000);
        assert_eq!(a.seed, 5);
        assert!(a.ecc_sweep);
        assert_eq!(a.attempts, 20);
        assert_eq!(a.timeout_ms, 5000);
        assert_eq!(a.retry_pause_ms, 50);
        assert_eq!(a.max_retries, Some(1));
        assert_eq!(a.job_deadline_ms, Some(10_000));

        // Defaults track the offline sweep so the same job is computed.
        let Command::Submit(a) = p("submit --socket s").unwrap() else {
            panic!()
        };
        assert_eq!(a.accesses, SweepArgs::default().accesses);
        assert_eq!(a.seed, SweepArgs::default().seed);
        assert!(!a.ecc_sweep);
        assert_eq!(a.max_retries, None);

        assert_eq!(
            p("submit -n 2000"),
            Err(ParseCliError::MissingRequired { name: "--socket" })
        );
    }

    #[test]
    fn help_and_list() {
        assert_eq!(p("help").unwrap(), Command::Help);
        assert_eq!(p("--help").unwrap(), Command::Help);
        assert_eq!(p("list").unwrap(), Command::List);
    }

    #[test]
    fn errors_are_descriptive() {
        assert_eq!(p(""), Err(ParseCliError::MissingCommand));
        assert!(matches!(
            p("frobnicate"),
            Err(ParseCliError::UnknownCommand { .. })
        ));
        assert!(matches!(
            p("run --bogus"),
            Err(ParseCliError::UnknownFlag { .. })
        ));
        assert!(matches!(
            p("run --workload"),
            Err(ParseCliError::MissingValue { .. })
        ));
        assert!(matches!(
            p("run -w namd -n nope"),
            Err(ParseCliError::BadValue { .. })
        ));
    }
}
