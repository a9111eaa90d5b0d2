//! The repository benchmark: four `reap` CLI workloads measured end to
//! end, plus a per-layer ledger of where their time and memory go.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!           [--reps R] [--smoke] [--out FILE] [--trace-out FILE] [--reap PATH]
//! benchmark compare BASE.json... -- CHANGE.json...
//! ```
//!
//! A run has three passes per workload:
//!
//! 1. **end to end** — set-up builds the workload's warm capture store
//!    (five times; `setup_s` is the median), then the release `reap`
//!    binary runs the workload's command as a child process, telemetry
//!    off, closed loop with one client, until `--seconds` have passed and
//!    at least `--reps` repetitions are done;
//! 2. **traced run** — the same command once more with `--metrics-out`,
//!    read for event counts, the store's hits and the job pool;
//! 3. **ledger** — in-process layer timings (`--trace 1` only, or when
//!    `--trace` is not given).
//!
//! Every output is checked: repetitions, traced and untraced, cold and
//! warm must print byte-identical stdout, warm runs must never miss the
//! store, and at the default seed each stdout must hash to its pinned
//! digest. The last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and the metrics `BENCHMARK.json` lists, each with
//! its unit; the exit code is non-zero when any check failed.
//!
//! The `reap` binary is built from this checkout next to the benchmark's
//! own executable (`cargo build --release -p reap-cli`), unless `--reap`
//! names one.

mod compare;
mod e2e;
mod ledger;
mod spans;
mod spec;
mod stats;
mod workloads;

use e2e::Ctx;
use ledger::Metrics;
use reap_obs::json;
use spans::Spans;
use spec::Spec;
use stats::MIB;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use workloads::{Workload, DEFAULT_SEED, FULL, SMOKE, WORKLOADS};

/// Parsed command line of a measuring run.
#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    /// `Some(0)`: end-to-end metrics; `Some(1)`: per-layer; `None`: both.
    trace: Option<u8>,
    reps: usize,
    smoke: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    reap: Option<PathBuf>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace: None,
        reps: 3,
        smoke: false,
        out: None,
        trace_out: None,
        reap: None,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                a.workload = Some(
                    workloads::by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => 0,
                    "1" => 1,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            "--reps" => {
                a.reps = value()?.parse().map_err(|_| "--reps needs an integer")?;
                if a.reps == 0 {
                    return Err("--reps must be at least 1".to_owned());
                }
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--trace-out" => a.trace_out = Some(PathBuf::from(value()?)),
            "--reap" => a.reap = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.smoke {
        a.reps = 1;
    }
    Ok(a)
}

/// The repository root, which holds `BENCHMARK.json` and the workspace.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../..")
}

/// The cargo target directory this executable was built into.
fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    exe.parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("{} has no target directory", exe.display()))
}

/// Builds the release `reap` binary into `target` and returns its path.
fn build_reap(root: &Path, target: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "reap-cli",
        ])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building reap failed ({status})"));
    }
    Ok(target.join("release").join("reap"))
}

/// CPU model, core count and kernel of this host.
fn host_stamp(nproc: usize) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name")?.split(':').nth(1))
        .map_or("unknown", str::trim);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    format!(
        "{{\"cpu\":\"{}\",\"nproc\":{nproc},\"kernel\":\"{}\"}}",
        json::escape(cpu),
        json::escape(kernel.trim())
    )
}

/// One workload's results.
struct Outcome {
    workload: Workload,
    e2e: e2e::E2e,
    metrics: Metrics,
    /// Failures found outside the end-to-end pass (ledger, metric set).
    extra_failures: Vec<String>,
}

impl Outcome {
    fn failures(&self) -> impl Iterator<Item = &String> {
        self.e2e.log.failures.iter().chain(&self.extra_failures)
    }

    fn attempted(&self) -> u64 {
        self.e2e.log.attempted
    }

    fn failed(&self) -> u64 {
        (self.e2e.log.failed() + self.extra_failures.len() as u64).min(self.attempted())
    }

    fn correct(&self) -> bool {
        self.failures().next().is_none()
    }
}

/// Runs the two ledger children for `w` and returns their metrics.
fn run_ledger(
    w: Workload,
    ctx: &Ctx,
    smoke: bool,
    spans: &mut Spans,
    root: usize,
) -> Result<Metrics, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = ctx.work.join(format!("{}.ledger", w.name));
    e2e::remove(&dir)?;
    let mut metrics = Metrics::new();
    for phase in ["capture", "replay"] {
        let id = spans.open(&format!("ledger.{phase}"), Some(root), w.name);
        let offset = spans.now();
        let out = Command::new(&exe)
            .arg("ledger")
            .args([phase, w.name, &ctx.seed.to_string()])
            .arg(if smoke { "smoke" } else { "full" })
            .arg(&dir)
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("cannot run the ledger: {e}"))?;
        spans.close(id);
        let text = String::from_utf8_lossy(&out.stdout);
        let (m, child_spans) = ledger::parse_child(text.lines().last().unwrap_or_default())
            .map_err(|e| {
                // A child that panicked printed nothing; its stderr says why.
                let stderr = String::from_utf8_lossy(&out.stderr);
                let last = stderr.lines().last().unwrap_or_default();
                format!("ledger {phase} ({}): {e} {last}", out.status)
            })?;
        metrics.extend(m);
        spans.absorb(child_spans, id, offset);
    }
    e2e::remove(&dir)?;
    Ok(metrics)
}

fn measure(
    w: Workload,
    args: &Args,
    ctx: &Ctx,
    spec: &Spec,
    spans: &mut Spans,
) -> Result<Outcome, String> {
    eprintln!("benchmark: {} (seed {})", w.name, ctx.seed);
    let root = spans.open("workload", None, w.name);
    let e2e = e2e::measure(w, ctx, spans, root)?;
    let mut metrics = e2e.metrics(w, ctx.sizes);
    let mut extra_failures = Vec::new();
    if args.trace != Some(0) {
        metrics.extend(e2e.traced_metrics(ctx.jobs));
        match run_ledger(w, ctx, args.smoke, spans, root) {
            Ok(m) => metrics.extend(m),
            Err(e) => extra_failures.push(e),
        }
    }
    spans.close(root);
    let wanted: Vec<&spec::Metric> = match args.trace {
        Some(0) => spec.end_to_end.iter().collect(),
        Some(_) => spec.per_layer.iter().collect(),
        None => spec.end_to_end.iter().chain(&spec.per_layer).collect(),
    };
    for m in &wanted {
        if !metrics.get(&m.name).is_some_and(|v| v.is_finite()) {
            extra_failures.push(format!("metric {} was not measured", m.name));
        }
    }
    metrics.retain(|name, _| wanted.iter().any(|m| &m.name == name));
    Ok(Outcome {
        workload: w,
        e2e,
        metrics,
        extra_failures,
    })
}

/// `{"name":{"value":v,"unit":"u"},...}` with names prefixed by `prefix`.
fn metrics_json(outcome: &Outcome, spec: &Spec, prefix: &str) -> Vec<String> {
    outcome
        .metrics
        .iter()
        .map(|(name, v)| {
            let unit = spec.metric(name).map_or("", |m| m.unit.as_str());
            format!(
                "\"{}{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                json::escape(prefix),
                json::escape(name),
                json::number(*v),
                json::escape(unit)
            )
        })
        .collect()
}

fn samples_json(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| json::number(*v)).collect();
    format!("[{}]", items.join(","))
}

/// The `--out` results file: everything a later `compare` needs, plus
/// the raw samples and the host.
fn results_json(outcomes: &[Outcome], spec: &Spec, args: &Args, host: &str) -> String {
    let workloads: Vec<String> = outcomes
        .iter()
        .map(|o| {
            let failures: Vec<String> = o
                .failures()
                .map(|f| format!("\"{}\"", json::escape(f)))
                .collect();
            let rss_mib: Vec<f64> = o.e2e.peak_rss_bytes.iter().map(|b| b / MIB).collect();
            let tail = stats::tail_percentile(&o.e2e.wall_s).map_or_else(
                || "null".to_owned(),
                |(p, v)| format!("{{\"p\":{p},\"value\":{}}}", json::number(v)),
            );
            format!(
                "{{\"name\":\"{}\",\"correct\":{},\"attempted\":{},\"failed\":{},\
                 \"failures\":[{}],\"stdout_fnv1a\":\"{:016x}\",\"metrics\":{{{}}},\
                 \"samples\":{{\"wall_s\":{},\"setup_s\":{},\"peak_rss_mib\":{}}},\
                 \"wall_s_median\":{},\"wall_s_tail\":{tail}}}",
                o.workload.name,
                o.correct(),
                o.attempted(),
                o.failed(),
                failures.join(","),
                o.e2e.digest,
                metrics_json(o, spec, "").join(","),
                samples_json(&o.e2e.wall_s),
                samples_json(&o.e2e.setup_s),
                samples_json(&rss_mib),
                json::number(stats::median(&o.e2e.wall_s)),
            )
        })
        .collect();
    format!(
        "{{\"schema\":\"reap-benchmark/1\",\"seed\":{},\"smoke\":{},\"trace\":{},\
         \"host\":{host},\"workloads\":[{}]}}\n",
        args.seed,
        args.smoke,
        args.trace
            .map_or_else(|| "null".to_owned(), |t| t.to_string()),
        workloads.join(",")
    )
}

/// The human summary on stderr.
fn print_summary(outcomes: &[Outcome], spec: &Spec) {
    for o in outcomes {
        let walls = &o.e2e.wall_s;
        let tail = stats::tail_percentile(walls)
            .map_or_else(String::new, |(p, v)| format!(", p{p} {v:.4} s"));
        eprintln!(
            "\n{}: {} ({} invocations, {} failed); wall median {:.4} s over {} runs{tail}",
            o.workload.name,
            if o.correct() { "correct" } else { "INCORRECT" },
            o.attempted(),
            o.failed(),
            stats::median(walls),
            walls.len(),
        );
        for (name, v) in &o.metrics {
            let unit = spec.metric(name).map_or("", |m| m.unit.as_str());
            eprintln!("  {name:<36} {v:>16.6} {unit}");
        }
        for f in o.failures() {
            eprintln!("  FAILED: {f}");
        }
    }
}

fn run(raw: &[String]) -> Result<i32, String> {
    let args = parse_args(raw)?;
    let root = repo_root();
    let spec = Spec::load(&root.join("BENCHMARK.json"))?;
    let target = target_dir()?;
    let reap = match &args.reap {
        Some(path) => path.clone(),
        None => build_reap(&root, &target)?,
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let host = host_stamp(nproc);
    let bench_dir = target.join("benchmark");
    let ctx = Ctx {
        reap,
        work: bench_dir.join("work"),
        sizes: if args.smoke { SMOKE } else { FULL },
        seed: args.seed,
        jobs: nproc,
        seconds: args.seconds,
        reps: args.reps,
        setups: if args.smoke { 1 } else { 5 },
        paired_traced: args.trace.is_none() || args.trace == Some(1),
    };
    let chosen: Vec<Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.to_vec(),
    };
    eprintln!("benchmark: host {host}");

    let mut spans = Spans::new();
    let mut outcomes = Vec::new();
    for &w in &chosen {
        outcomes.push(measure(w, &args, &ctx, &spec, &mut spans)?);
    }
    print_summary(&outcomes, &spec);

    let write = |path: &Path, text: &str| -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| bench_dir.join("results.json"));
    write(&out, &results_json(&outcomes, &spec, &args, &host))?;
    let trace_out = args
        .trace_out
        .clone()
        .unwrap_or_else(|| bench_dir.join("spans.jsonl"));
    write(&trace_out, &spans.to_jsonl())?;
    eprintln!(
        "benchmark: results in {}, spans in {}",
        out.display(),
        trace_out.display()
    );

    // The last stdout line; metrics carry a workload prefix only when
    // several workloads ran.
    let single = outcomes.len() == 1;
    let metrics: Vec<String> = outcomes
        .iter()
        .flat_map(|o| {
            let prefix = if single {
                String::new()
            } else {
                format!("{}/", o.workload.name)
            };
            metrics_json(o, &spec, &prefix)
        })
        .collect();
    let correct = outcomes.iter().all(Outcome::correct);
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcomes.iter().map(Outcome::attempted).sum::<u64>(),
        outcomes.iter().map(Outcome::failed).sum::<u64>(),
        metrics.join(",")
    );
    Ok(i32::from(!correct))
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let code = match raw.first().map(String::as_str) {
        Some("ledger") => ledger::child_main(&raw[1..]),
        Some("compare") => Spec::load(&repo_root().join("BENCHMARK.json"))
            .and_then(|spec| compare::run(&raw[1..], &spec))
            .unwrap_or_else(|e| {
                eprintln!("benchmark compare: {e}");
                2
            }),
        _ => run(&raw).unwrap_or_else(|e| {
            eprintln!("benchmark: {e}");
            2
        }),
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let raw: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parse_args(&raw)
    }

    #[test]
    fn measuring_flags_parse() {
        let a = parse("--workload long_window --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.map(|w| w.name), Some("long_window"));
        assert_eq!((a.seed, a.seconds, a.trace, a.reps), (7, 10.0, Some(1), 3));
        assert!(!a.smoke);
    }

    #[test]
    fn smoke_means_one_repetition() {
        let a = parse("--smoke --reps 5").unwrap();
        assert!(a.smoke);
        assert_eq!(a.reps, 1);
        assert_eq!(a.trace, None);
    }

    #[test]
    fn bad_flags_are_errors() {
        assert!(parse("--trace 2").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--reps 0").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--frobnicate").is_err());
    }
}
