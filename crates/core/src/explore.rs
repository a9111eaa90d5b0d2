//! HOPE-style design-space exploration over the capture/replay machinery.
//!
//! `reap explore` sweeps a declarative grid of cache geometries
//! (`ways`), scrub periods (`scrub`), ECC strengths (`ecc`) and read
//! currents (`read-current`) and reports the Pareto front over the three
//! axes a designer trades: MTTF (maximize), dynamic energy (minimize)
//! and silicon area (minimize).
//!
//! The grid factors into **behavioural** dimensions (`ways`, `scrub` —
//! they change which exposure events occur, so each combination needs
//! its own trace pass) and **analysis** dimensions (`ecc`,
//! `read-current` — they only change how events are scored). The
//! explorer exploits that split: one capture per (geometry, scrub,
//! workload), served from the [`CaptureStore`] when one is configured,
//! then one batched replay ([`Simulator::replay_batch_into`]) scores
//! *every* analysis point against that capture in a single pass over
//! the events. A grid of `W×S` behavioural combos and `E×R` analysis
//! points costs `W×S` trace passes per workload (zero when the store is
//! warm), never `W×S×E×R`.
//!
//! Both passes run on the sweep's task engine ([`crate::campaign`]):
//! one journal group per combo and one supervised pool task per
//! `(combo, workload)` pair, so even a one-combo grid keeps every worker
//! busy, and a panicking or stuck task is retried like a sweep job. A
//! combo's simulators are built once and shared by its tasks; each
//! worker reuses one replay kernel (its lookup tables and memo) across
//! its tasks. A task returns only its workload's sums, which the runner
//! folds in canonical workload order once the combo's last workload
//! lands, so rows do not depend on which workload finished first.
//! Unlike the sweep, a combo that fails every attempt fails the run.
//!
//! After the base grid, one **refinement pass** subdivides the
//! continuous dimensions (`read-current`, `scrub`) around each front
//! member: the midpoint toward each grid neighbour becomes a new
//! candidate point. The candidate list is budgeted by
//! [`ExploreConfig::max_points`] (truncation is counted and logged) and
//! derived deterministically from the base rows, so a resumed run
//! refines exactly the same points.
//!
//! Completed combos stream into a `reap-checkpoint/1` journal opened by
//! [`checkpoint::open_journal`] with the explorer's row codec; every
//! float travels as its IEEE-754 bit pattern, making a
//! killed-and-resumed exploration **bit-identical** to an uninterrupted
//! one — and, because each task depends only on its own inputs and the
//! fold order is fixed, identical at any parallelism. Only whole combos
//! are journaled, one row group each.
//!
//! # Grid grammar
//!
//! ```text
//! grid    := clause (' ' clause)*
//! clause  := dim '=' item (',' item)*
//! dim     := 'ways' | 'ecc' | 'read-current' | 'scrub'
//! item    := scalar | start ':' stop ':' step        (inclusive range)
//! scalar  := number with optional k/m suffix (integer dims)
//!            | sec|secded | dec|bch2 | tec|bch3      (ecc dim)
//! ```
//!
//! `read-current` values are multipliers on the default MTJ card's read
//! current (70 µA), constrained to `(0, Ic0/I_read)` so every scaled
//! card stays physical. Omitted dimensions default to the paper point:
//! `ways=8 ecc=sec read-current=1.0 scrub=0`. Values are sorted and
//! deduplicated; listing order never matters.

use crate::campaign::{CampaignError, JobFailure, TaskRunner};
use crate::capture_store::CaptureStore;
use crate::checkpoint::{CheckpointError, CheckpointMeta};
use crate::experiment::{Experiment, ExperimentError};
use crate::scheme::ProtectionScheme;
use crate::simulator::{EccStrength, SimulationConfig, SimulationError, Simulator};
use crate::supervise::{JobError, SupervisorConfig};
use reap_cache::{ConfigError, HierarchyConfig};
use reap_mtj::{MtjParams, ParamsError};
use reap_nvarray::{estimate, ArraySpec, MemTech, TechnologyNode};
use reap_obs::json;
use reap_reliability::{pareto_front_indices, Mttf, MultiReplayAggregator, ParetoPoint};
use reap_trace::SpecWorkload;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::Arc;

/// The parsed exploration grid: behavioural dimensions (`ways`,
/// `scrub`) × analysis dimensions (`ecc`, `read_current`), each sorted
/// and deduplicated.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreGrid {
    /// L2 associativities to explore (behavioural).
    pub ways: Vec<usize>,
    /// Scrub periods in measured accesses, `0` = off (behavioural).
    pub scrub: Vec<u64>,
    /// ECC strengths to score (analysis).
    pub ecc: Vec<EccStrength>,
    /// Read-current multipliers on the default card (analysis).
    pub read_current: Vec<f64>,
}

impl Default for ExploreGrid {
    /// The paper's single design point.
    fn default() -> Self {
        Self {
            ways: vec![8],
            scrub: vec![0],
            ecc: vec![EccStrength::Sec],
            read_current: vec![1.0],
        }
    }
}

impl ExploreGrid {
    /// Behavioural combinations in canonical `(ways, scrub)` order.
    pub fn behavioural_combos(&self) -> Vec<(usize, u64)> {
        let mut combos = Vec::with_capacity(self.ways.len() * self.scrub.len());
        for &w in &self.ways {
            for &s in &self.scrub {
                combos.push((w, s));
            }
        }
        combos
    }

    /// Analysis points in canonical `(ecc, read_current)` order.
    pub fn analysis_points(&self) -> Vec<(EccStrength, f64)> {
        let mut points = Vec::with_capacity(self.ecc.len() * self.read_current.len());
        for &e in &self.ecc {
            for &r in &self.read_current {
                points.push((e, r));
            }
        }
        points
    }

    /// Total base-grid points.
    pub fn point_count(&self) -> usize {
        self.behavioural_combos().len() * self.analysis_points().len()
    }

    /// The canonical textual form (sorted values, full dimension names)
    /// — what the checkpoint fingerprint hashes, so two spellings of the
    /// same grid share checkpoints.
    pub fn canonical(&self) -> String {
        let join_u = |v: &[usize]| {
            v.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        let join_s = |v: &[u64]| {
            v.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        let ecc = self
            .ecc
            .iter()
            .map(|e| ecc_tag(*e))
            .collect::<Vec<_>>()
            .join(",");
        let rc = self
            .read_current
            .iter()
            .map(|x| format!("{x}"))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "ways={} ecc={ecc} read-current={rc} scrub={}",
            join_u(&self.ways),
            join_s(&self.scrub)
        )
    }
}

fn ecc_tag(ecc: EccStrength) -> &'static str {
    match ecc {
        EccStrength::Sec => "sec",
        EccStrength::Dec => "dec",
        EccStrength::Tec => "tec",
    }
}

/// Largest admissible read-current multiplier: the default card rejects
/// `I_read >= Ic0`, so multipliers live in `(0, Ic0/I_read)`.
fn max_read_scale() -> f64 {
    let card = MtjParams::default();
    card.critical_current() / card.read_current()
}

/// Parses an integer grid scalar with optional `k`/`m` suffix and `_`
/// separators: `10k` → 10 000, `1m` → 1 000 000.
fn parse_count(dim: &str, token: &str) -> Result<u64, ExploreError> {
    let clean = token.replace('_', "");
    let lower = clean.to_ascii_lowercase();
    let (digits, multiplier) = match lower.strip_suffix('k') {
        Some(d) => (d, 1_000u64),
        None => match lower.strip_suffix('m') {
            Some(d) => (d, 1_000_000),
            None => (lower.as_str(), 1),
        },
    };
    let base: u64 = digits.parse().map_err(|_| {
        ExploreError::Grid(format!(
            "dimension `{dim}`: `{token}` is not a count (digits with optional k/m suffix)"
        ))
    })?;
    base.checked_mul(multiplier)
        .ok_or_else(|| ExploreError::Grid(format!("dimension `{dim}`: `{token}` overflows")))
}

/// Expands one integer item (`scalar` or `a:b:s` inclusive range).
fn expand_counts(dim: &str, item: &str, out: &mut Vec<u64>) -> Result<(), ExploreError> {
    let parts: Vec<&str> = item.split(':').collect();
    match parts.as_slice() {
        [one] => out.push(parse_count(dim, one)?),
        [a, b, s] => {
            let (a, b, s) = (
                parse_count(dim, a)?,
                parse_count(dim, b)?,
                parse_count(dim, s)?,
            );
            if s == 0 || a > b {
                return Err(ExploreError::Grid(format!(
                    "dimension `{dim}`: range `{item}` needs start <= stop and step > 0"
                )));
            }
            let mut v = a;
            loop {
                out.push(v);
                v = match v.checked_add(s) {
                    Some(next) if next <= b => next,
                    _ => break,
                };
            }
        }
        _ => {
            return Err(ExploreError::Grid(format!(
                "dimension `{dim}`: `{item}` is neither a scalar nor start:stop:step"
            )))
        }
    }
    Ok(())
}

/// Expands one float item (`scalar` or `a:b:s` inclusive range, the
/// stop included within a small tolerance: `0.7:1.0:0.1` yields four
/// values).
fn expand_floats(dim: &str, item: &str, out: &mut Vec<f64>) -> Result<(), ExploreError> {
    let number = |token: &str| -> Result<f64, ExploreError> {
        token.parse().map_err(|_| {
            ExploreError::Grid(format!("dimension `{dim}`: `{token}` is not a number"))
        })
    };
    let parts: Vec<&str> = item.split(':').collect();
    match parts.as_slice() {
        [one] => out.push(number(one)?),
        [a, b, s] => {
            let (a, b, s) = (number(a)?, number(b)?, number(s)?);
            if !(a.is_finite() && b.is_finite() && s > 0.0 && s.is_finite() && a <= b) {
                return Err(ExploreError::Grid(format!(
                    "dimension `{dim}`: range `{item}` needs finite start <= stop and step > 0"
                )));
            }
            // Index-based expansion: `start + i*step` accumulates no
            // drift, and the relative tolerance keeps `0.7:1.0:0.1`
            // from dropping its endpoint to float rounding.
            let n = ((b - a) / s + 1e-6).floor() as usize + 1;
            for i in 0..n {
                out.push(a + i as f64 * s);
            }
        }
        _ => {
            return Err(ExploreError::Grid(format!(
                "dimension `{dim}`: `{item}` is neither a scalar nor start:stop:step"
            )))
        }
    }
    Ok(())
}

/// Parses the `--grid` string into an [`ExploreGrid`].
///
/// See the module docs for the grammar. Unlisted dimensions default to
/// the paper point; values are sorted and deduplicated.
///
/// # Errors
///
/// Returns [`ExploreError::Grid`] naming the offending clause: unknown
/// or duplicate dimensions, malformed items, unknown ECC tokens,
/// non-positive associativities, or read-current multipliers outside
/// the physical `(0, Ic0/I_read)` window.
pub fn parse_grid(grid: &str) -> Result<ExploreGrid, ExploreError> {
    let mut out = ExploreGrid::default();
    let mut seen: Vec<&str> = Vec::new();
    for clause in grid.split_whitespace() {
        let Some((dim, values)) = clause.split_once('=') else {
            return Err(ExploreError::Grid(format!(
                "clause `{clause}` is not of the form dim=values"
            )));
        };
        if seen.contains(&dim) {
            return Err(ExploreError::Grid(format!(
                "dimension `{dim}` given more than once"
            )));
        }
        if values.is_empty() {
            return Err(ExploreError::Grid(format!("dimension `{dim}` is empty")));
        }
        match dim {
            "ways" => {
                let mut v = Vec::new();
                for item in values.split(',') {
                    expand_counts(dim, item, &mut v)?;
                }
                if v.contains(&0) {
                    return Err(ExploreError::Grid(
                        "dimension `ways`: associativity must be positive".to_owned(),
                    ));
                }
                out.ways = v.iter().map(|&w| w as usize).collect();
                out.ways.sort_unstable();
                out.ways.dedup();
            }
            "scrub" => {
                let mut v = Vec::new();
                for item in values.split(',') {
                    expand_counts(dim, item, &mut v)?;
                }
                v.sort_unstable();
                v.dedup();
                out.scrub = v;
            }
            "ecc" => {
                let mut v = Vec::new();
                for item in values.split(',') {
                    v.push(match item.to_ascii_lowercase().as_str() {
                        "sec" | "secded" => EccStrength::Sec,
                        "dec" | "bch2" => EccStrength::Dec,
                        "tec" | "bch3" => EccStrength::Tec,
                        other => {
                            return Err(ExploreError::Grid(format!(
                                "dimension `ecc`: unknown strength `{other}` \
                                 (sec/secded, dec/bch2, tec/bch3)"
                            )))
                        }
                    });
                }
                v.sort_unstable_by_key(|e| e.t());
                v.dedup();
                out.ecc = v;
            }
            "read-current" => {
                let mut v = Vec::new();
                for item in values.split(',') {
                    expand_floats(dim, item, &mut v)?;
                }
                let limit = max_read_scale();
                for &scale in &v {
                    if !(scale > 0.0 && scale < limit) {
                        return Err(ExploreError::Grid(format!(
                            "dimension `read-current`: multiplier {scale} is outside \
                             (0, {limit:.4}) — values scale the default card's 70 µA \
                             read current and must stay below Ic0"
                        )));
                    }
                }
                v.sort_unstable_by(|a, b| a.total_cmp(b));
                v.dedup_by(|a, b| a.to_bits() == b.to_bits());
                out.read_current = v;
            }
            other => {
                return Err(ExploreError::Grid(format!(
                    "unknown dimension `{other}` (ways, ecc, read-current, scrub)"
                )))
            }
        }
        seen.push(dim);
    }
    Ok(out)
}

/// Full configuration of one exploration.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// The design-space grid.
    pub grid: ExploreGrid,
    /// Workloads folded into each point's score.
    pub workloads: Vec<SpecWorkload>,
    /// Measured accesses per workload (warm-up is a tenth of it).
    pub accesses: u64,
    /// Trace seed.
    pub seed: u64,
    /// Pool width.
    pub parallelism: usize,
    /// Hard budget on scored points (base grid + refinement). The base
    /// grid must fit; refinement candidates beyond the budget are
    /// dropped (deterministically, and counted).
    pub max_points: usize,
    /// Run the refinement pass around the base front.
    pub refine: bool,
    /// Checkpoint journal; `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Skip jobs already present in the checkpoint.
    pub resume: bool,
    /// Persistent exposure-capture cache; `None` recaptures every
    /// behavioural combo.
    pub capture_store: Option<CaptureStore>,
    /// Supervision policy for the `(combo, workload)` tasks (retries,
    /// backoff, deadline, fault plan).
    pub supervisor: SupervisorConfig,
}

/// The default workload fold: three profiles with distinct L2 behaviour
/// (read-hit-heavy, miss-heavy, streaming).
pub const DEFAULT_WORKLOADS: [SpecWorkload; 3] = [
    SpecWorkload::Hmmer,
    SpecWorkload::Mcf,
    SpecWorkload::Libquantum,
];

impl ExploreConfig {
    /// A plain exploration of `grid` with the default workload fold, a
    /// 4096-point budget, refinement on, default supervision and no
    /// checkpoint.
    pub fn new(grid: ExploreGrid, accesses: u64, seed: u64, parallelism: usize) -> Self {
        Self {
            grid,
            workloads: DEFAULT_WORKLOADS.to_vec(),
            accesses,
            seed,
            parallelism,
            max_points: 4096,
            refine: true,
            checkpoint: None,
            resume: false,
            capture_store: None,
            supervisor: SupervisorConfig::default(),
        }
    }
}

/// One scored design point, folded across the configured workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExploreRow {
    /// L2 associativity.
    pub ways: usize,
    /// Scrub period (0 = off).
    pub scrub: u64,
    /// ECC strength.
    pub ecc: EccStrength,
    /// Read-current multiplier on the default card.
    pub read_scale: f64,
    /// Combined MTTF in seconds: Σ duration / Σ expected REAP failures
    /// across workloads (`+inf` when no failures are expected at all).
    pub mttf_s: f64,
    /// Total REAP dynamic energy across workloads (J).
    pub energy_j: f64,
    /// L2 silicon area at this geometry and check-bit count (mm²).
    pub area_mm2: f64,
    /// Whether the point came from the refinement pass.
    pub refined: bool,
}

impl ExploreRow {
    /// The three Pareto axes of this row.
    pub fn pareto_point(&self) -> ParetoPoint {
        ParetoPoint::new(
            Mttf::from_seconds(self.mttf_s),
            self.energy_j,
            self.area_mm2,
        )
    }
}

/// Serializes one row for the checkpoint journal — every float as its
/// IEEE-754 bit pattern in hex, integers as decimal strings (the
/// workspace JSON parser's numbers are f64), mirroring
/// [`checkpoint::row_to_json`].
pub fn explore_row_to_json(r: &ExploreRow) -> String {
    format!(
        "{{\"ways\":\"{}\",\"scrub\":\"{}\",\"ecc\":\"{}\",\"read_scale\":\"{:016x}\",\"mttf_s\":\"{:016x}\",\"energy_j\":\"{:016x}\",\"area_mm2\":\"{:016x}\",\"refined\":\"{}\"}}",
        r.ways,
        r.scrub,
        ecc_tag(r.ecc),
        r.read_scale.to_bits(),
        r.mttf_s.to_bits(),
        r.energy_j.to_bits(),
        r.area_mm2.to_bits(),
        u8::from(r.refined),
    )
}

/// Parses a row object produced by [`explore_row_to_json`].
///
/// # Errors
///
/// Returns a human-readable message naming the missing or malformed
/// field.
pub fn explore_row_from_json(row: &json::Value) -> Result<ExploreRow, String> {
    let text = |key: &str| {
        row.get(key)
            .and_then(json::Value::as_str)
            .ok_or_else(|| format!("row missing \"{key}\""))
    };
    let bits = |key: &str| {
        text(key).and_then(|s| {
            u64::from_str_radix(s, 16)
                .map(f64::from_bits)
                .map_err(|_| format!("row field \"{key}\" is not hex bits"))
        })
    };
    let int = |key: &str| {
        text(key).and_then(|s| {
            s.parse::<u64>()
                .map_err(|_| format!("row field \"{key}\" is not an integer"))
        })
    };
    let ecc = match text("ecc")? {
        "sec" => EccStrength::Sec,
        "dec" => EccStrength::Dec,
        "tec" => EccStrength::Tec,
        other => return Err(format!("unknown ecc tag \"{other}\"")),
    };
    Ok(ExploreRow {
        ways: int("ways")? as usize,
        scrub: int("scrub")?,
        ecc,
        read_scale: bits("read_scale")?,
        mttf_s: bits("mttf_s")?,
        energy_j: bits("energy_j")?,
        area_mm2: bits("area_mm2")?,
        refined: int("refined")? != 0,
    })
}

/// The exploration's aggregate result.
#[derive(Debug)]
pub struct ExploreOutcome {
    /// Every scored row in canonical `(ways, scrub, ecc, read_scale)`
    /// order — base and refined interleaved by value.
    pub rows: Vec<ExploreRow>,
    /// Indices into `rows` of the Pareto front (strictly increasing).
    pub front: Vec<usize>,
    /// Points scored from the base grid.
    pub base_points: usize,
    /// Points added by the refinement pass.
    pub refined_points: usize,
    /// Refinement candidates dropped by the `max_points` budget.
    pub truncated: usize,
    /// Jobs served from the checkpoint instead of being recomputed.
    pub resumed: usize,
    /// Human-readable checkpoint repair note (truncated tail dropped).
    pub checkpoint_warning: Option<String>,
}

/// Exploration-level failure.
#[derive(Debug)]
#[non_exhaustive]
pub enum ExploreError {
    /// The grid string or point budget was rejected.
    Grid(String),
    /// A grid associativity does not form a valid L2 geometry.
    Geometry(ConfigError),
    /// A scaled read current was rejected by the MTJ card.
    Mtj(ParamsError),
    /// A simulator could not be built or a replay failed.
    Simulation(SimulationError),
    /// A capture pass failed.
    Experiment(ExperimentError),
    /// The checkpoint could not be created, read or trusted.
    Checkpoint(CheckpointError),
    /// A task failed every supervised attempt (panics, timeouts).
    Supervision(JobError),
    /// The armed fault plan's `interrupt_after` fired — the simulated
    /// `SIGKILL`. Completed combos are safe in the checkpoint.
    Interrupted {
        /// Combos journaled during this run before the interrupt.
        completed: usize,
        /// Combos the interrupted pass still had pending.
        remaining: usize,
    },
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::Grid(message) => write!(f, "invalid grid: {message}"),
            ExploreError::Geometry(e) => write!(f, "invalid geometry: {e}"),
            ExploreError::Mtj(e) => write!(f, "invalid mtj point: {e}"),
            ExploreError::Simulation(e) => write!(f, "{e}"),
            ExploreError::Experiment(e) => write!(f, "{e}"),
            ExploreError::Checkpoint(e) => write!(f, "{e}"),
            ExploreError::Supervision(e) => write!(f, "{e}"),
            ExploreError::Interrupted {
                completed,
                remaining,
            } => write!(
                f,
                "exploration interrupted after {completed} combos ({remaining} pending); \
                 resume with --resume"
            ),
        }
    }
}

impl Error for ExploreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExploreError::Grid(_) => None,
            ExploreError::Geometry(e) => Some(e),
            ExploreError::Mtj(e) => Some(e),
            ExploreError::Simulation(e) => Some(e),
            ExploreError::Experiment(e) => Some(e),
            ExploreError::Checkpoint(e) => Some(e),
            ExploreError::Supervision(e) => Some(e),
            ExploreError::Interrupted { .. } => None,
        }
    }
}

impl From<ConfigError> for ExploreError {
    fn from(e: ConfigError) -> Self {
        ExploreError::Geometry(e)
    }
}

impl From<ParamsError> for ExploreError {
    fn from(e: ParamsError) -> Self {
        ExploreError::Mtj(e)
    }
}

impl From<SimulationError> for ExploreError {
    fn from(e: SimulationError) -> Self {
        ExploreError::Simulation(e)
    }
}

impl From<ExperimentError> for ExploreError {
    fn from(e: ExperimentError) -> Self {
        ExploreError::Experiment(e)
    }
}

impl From<CheckpointError> for ExploreError {
    fn from(e: CheckpointError) -> Self {
        ExploreError::Checkpoint(e)
    }
}

impl From<JobFailure> for ExploreError {
    fn from(e: JobFailure) -> Self {
        match e {
            JobFailure::Supervision(e) => ExploreError::Supervision(e),
            JobFailure::Experiment(e) => ExploreError::Experiment(e),
        }
    }
}

impl From<CampaignError> for ExploreError {
    fn from(e: CampaignError) -> Self {
        match e {
            CampaignError::Checkpoint(e) => ExploreError::Checkpoint(e),
            CampaignError::Interrupted {
                completed,
                remaining,
            } => ExploreError::Interrupted {
                completed,
                remaining,
            },
        }
    }
}

/// One behavioural job: a `(ways, scrub)` combo scored at a set of
/// analysis points.
#[derive(Debug, Clone)]
struct ComboJob {
    ways: usize,
    scrub: u64,
    points: Vec<(EccStrength, f64)>,
    refined: bool,
}

impl ComboJob {
    fn key(&self) -> String {
        if self.refined {
            format!("r/w{}/s{}", self.ways, self.scrub)
        } else {
            format!("w{}/s{}", self.ways, self.scrub)
        }
    }
}

/// L2 area at `hierarchy`'s geometry with `ecc`'s check bits, in mm².
fn area_mm2_for(
    hierarchy: &HierarchyConfig,
    ecc: EccStrength,
    tech_nm: u32,
) -> Result<f64, ExploreError> {
    let check_bits = ecc
        .build_code(hierarchy.l2.line_bits())
        .map_err(SimulationError::from)?
        .check_bits();
    let spec = ArraySpec::new(
        hierarchy.l2.size_bytes(),
        hierarchy.l2.block_bytes(),
        hierarchy.l2.associativity(),
    )
    .map_err(SimulationError::from)?
    .with_check_bits(check_bits);
    let node = TechnologyNode::nm(tech_nm).map_err(SimulationError::from)?;
    Ok(estimate(&spec, MemTech::SttMram, node).area_mm2())
}

/// A behavioural combo being scored: its simulators (one per analysis
/// point, built once and shared by every workload task of the combo)
/// and each point's L2 area.
struct ComboRun {
    job: ComboJob,
    /// The combo's capture configuration, at no workload yet.
    experiment: Experiment,
    sims: Vec<Simulator>,
    area_mm2: Vec<f64>,
}

/// One workload's contribution to a combo: its measured duration and,
/// per analysis point, expected REAP failures and REAP energy.
#[derive(Clone)]
struct WorkloadSums {
    duration: f64,
    fail: Vec<f64>,
    energy: Vec<f64>,
}

impl ComboRun {
    fn new(job: ComboJob, accesses: u64, seed: u64) -> Result<Self, ExploreError> {
        let experiment = Experiment::paper_hierarchy()
            .hierarchy(HierarchyConfig::paper_with_l2_ways(job.ways)?)
            .scrub(job.scrub)
            .accesses(accesses)
            .seed(seed);
        let base = experiment.config();
        let base_read = MtjParams::default().read_current();
        let mut sims = Vec::with_capacity(job.points.len());
        let mut area_mm2 = Vec::with_capacity(job.points.len());
        for &(ecc, scale) in &job.points {
            let config = SimulationConfig {
                ecc,
                mtj: MtjParams::default().with_read_current(scale * base_read)?,
                ..base.clone()
            };
            sims.push(Simulator::new(config)?);
            area_mm2.push(area_mm2_for(&base.hierarchy, ecc, base.tech_nm)?);
        }
        Ok(Self {
            job,
            experiment,
            sims,
            area_mm2,
        })
    }

    /// Scores one workload at every analysis point: one capture
    /// (store-served when possible) and one batched replay through the
    /// worker's reusable kernel ([`Experiment::run_at`]).
    fn score(
        &self,
        workload: SpecWorkload,
        store: Option<&CaptureStore>,
        kernel: &mut Option<MultiReplayAggregator>,
    ) -> Result<WorkloadSums, ExperimentError> {
        let experiment = self.experiment.clone().workload(workload);
        let reports = experiment.run_at(&self.sims, store, kernel)?;
        Ok(WorkloadSums {
            duration: reports[0].duration_seconds(),
            fail: reports
                .iter()
                .map(|r| r.expected_failures(ProtectionScheme::Reap))
                .collect(),
            energy: reports
                .iter()
                .map(|r| r.energy(ProtectionScheme::Reap).total())
                .collect(),
        })
    }

    /// Folds the per-workload sums, given in canonical workload order,
    /// into per-point rows — the same additions in the same order
    /// whatever order the workloads finished in, so rows are
    /// bit-identical at any parallelism.
    fn fold(&self, parts: Vec<WorkloadSums>) -> Vec<ExploreRow> {
        let npts = self.job.points.len();
        let mut fail = vec![0.0f64; npts];
        let mut energy = vec![0.0f64; npts];
        let mut duration = 0.0f64;
        for part in &parts {
            duration += part.duration;
            for i in 0..npts {
                fail[i] += part.fail[i];
                energy[i] += part.energy[i];
            }
        }
        self.job
            .points
            .iter()
            .enumerate()
            .map(|(i, &(ecc, scale))| ExploreRow {
                ways: self.job.ways,
                scrub: self.job.scrub,
                ecc,
                read_scale: scale,
                // Σ duration / Σ failures: +inf when nothing is expected
                // to fail — the total-ordered Pareto comparison handles
                // it (see reap_reliability::Mttf::total_cmp).
                mttf_s: duration / fail[i],
                energy_j: energy[i],
                area_mm2: self.area_mm2[i],
                refined: self.job.refined,
            })
            .collect()
    }
}

/// Scores `jobs` on the task runner, one group per combo and one task
/// per workload, returning their rows in job order and counting the
/// journaled combos into `resumed`. The first failed combo fails the run.
fn run_combos(
    runner: &mut TaskRunner<ExploreRow>,
    config: &ExploreConfig,
    jobs: Vec<ComboJob>,
    pool: &str,
    resumed: &mut usize,
) -> Result<Vec<ExploreRow>, ExploreError> {
    let combos = jobs
        .into_iter()
        .map(|job| ComboRun::new(job, config.accesses, config.seed).map(Arc::new))
        .collect::<Result<Vec<_>, _>>()?;
    let groups = combos
        .iter()
        .map(|combo| {
            let tasks = config
                .workloads
                .iter()
                .map(|&workload| (Arc::clone(combo), workload))
                .collect();
            (combo.job.key(), tasks)
        })
        .collect();
    let store = config.capture_store.clone();
    let outcomes = runner.run(
        groups,
        pool,
        config.parallelism,
        &config.supervisor,
        move |kernel, (combo, workload): (Arc<ComboRun>, SpecWorkload)| {
            combo.score(workload, store.as_ref(), kernel)
        },
        |g, parts| combos[g].fold(parts),
        |_, _, _| ControlFlow::Continue(()),
    )?;
    let mut rows = Vec::new();
    for (result, _, from_checkpoint) in outcomes {
        *resumed += usize::from(from_checkpoint);
        rows.extend(result?);
    }
    Ok(rows)
}

/// Indices of the Pareto front of `rows` (MTTF ↑, energy ↓, area ↓).
pub fn front_of(rows: &[ExploreRow]) -> Vec<usize> {
    let points: Vec<ParetoPoint> = rows.iter().map(ExploreRow::pareto_point).collect();
    pareto_front_indices(&points)
}

/// Derives the refinement candidates around `front` members: for each,
/// the midpoint toward each grid neighbour in the `read-current` and
/// `scrub` dimensions. Deterministic: sorted canonically, deduplicated,
/// and (by construction — midpoints of *adjacent* sorted grid values)
/// never colliding with base-grid points.
fn refinement_candidates(
    rows: &[ExploreRow],
    front: &[usize],
    grid: &ExploreGrid,
) -> Vec<(usize, u64, EccStrength, f64)> {
    let mut candidates = Vec::new();
    for &i in front {
        let row = &rows[i];
        if let Some(at) = grid
            .read_current
            .iter()
            .position(|r| r.to_bits() == row.read_scale.to_bits())
        {
            let mut push_mid = |a: f64, b: f64| {
                let mid = (a + b) / 2.0;
                if mid > a && mid < b {
                    candidates.push((row.ways, row.scrub, row.ecc, mid));
                }
            };
            if at > 0 {
                push_mid(grid.read_current[at - 1], grid.read_current[at]);
            }
            if at + 1 < grid.read_current.len() {
                push_mid(grid.read_current[at], grid.read_current[at + 1]);
            }
        }
        if let Some(at) = grid.scrub.iter().position(|&s| s == row.scrub) {
            let mut push_mid = |a: u64, b: u64| {
                let mid = a + (b - a) / 2;
                if mid > a && mid < b {
                    candidates.push((row.ways, mid, row.ecc, row.read_scale));
                }
            };
            if at > 0 {
                push_mid(grid.scrub[at - 1], grid.scrub[at]);
            }
            if at + 1 < grid.scrub.len() {
                push_mid(grid.scrub[at], grid.scrub[at + 1]);
            }
        }
    }
    candidates.sort_unstable_by(|a, b| {
        (a.0, a.1, a.2.t())
            .cmp(&(b.0, b.1, b.2.t()))
            .then(a.3.total_cmp(&b.3))
    });
    candidates
        .dedup_by(|a, b| a.0 == b.0 && a.1 == b.1 && a.2 == b.2 && a.3.to_bits() == b.3.to_bits());
    candidates
}

/// Runs the full exploration: base grid, refinement pass, final front.
///
/// Deterministic by construction: each (combo, workload) task depends
/// only on its own inputs and each combo folds its workloads in
/// canonical order (results are identical at any `parallelism`), rows
/// checkpoint bit-exactly, and the refinement set is a pure function of
/// the base rows — so a killed-and-resumed exploration reproduces an
/// uninterrupted one bit for bit.
///
/// # Errors
///
/// Returns [`ExploreError`] when the grid exceeds the point budget, a
/// design point cannot be instantiated, a capture or replay fails, a
/// task fails every supervised attempt, the checkpoint file cannot be
/// created, parsed, or belongs to a different exploration, or the fault
/// plan's simulated kill fires ([`ExploreError::Interrupted`]).
pub fn explore(config: &ExploreConfig) -> Result<ExploreOutcome, ExploreError> {
    let _span = reap_obs::span("explore");
    let grid = &config.grid;
    let points = grid.analysis_points();
    let combos = grid.behavioural_combos();
    let base_points = combos.len() * points.len();
    if base_points > config.max_points {
        return Err(ExploreError::Grid(format!(
            "grid has {base_points} points, over the --max-points budget of {}",
            config.max_points
        )));
    }
    if config.workloads.is_empty() {
        return Err(ExploreError::Grid("no workloads to fold".to_owned()));
    }

    // Checkpoint identity: the fingerprint covers the canonical grid,
    // the workload fold and every base job key, so a checkpoint never
    // resumes into a different exploration.
    let workload_names: Vec<&str> = config.workloads.iter().map(|w| w.name()).collect();
    let mode_tag = format!(
        "explore {} [{}]",
        grid.canonical(),
        workload_names.join(",")
    );
    let base_jobs: Vec<ComboJob> = combos
        .iter()
        .map(|&(ways, scrub)| ComboJob {
            ways,
            scrub,
            points: points.clone(),
            refined: false,
        })
        .collect();
    let keys: Vec<String> = base_jobs.iter().map(ComboJob::key).collect();
    let meta = CheckpointMeta::new(&mode_tag, config.accesses, config.seed, &keys);

    let mut runner = TaskRunner::open(
        config.checkpoint.as_deref(),
        &meta,
        config.resume,
        explore_row_from_json,
        explore_row_to_json,
    )?;
    let mut resumed = 0usize;
    let mut rows = run_combos(&mut runner, config, base_jobs, "explore_grid", &mut resumed)?;

    // Refinement: subdivide the continuous dimensions around the base
    // front, within the point budget.
    let mut refined_points = 0usize;
    let mut truncated = 0usize;
    if config.refine {
        let front = front_of(&rows);
        let mut candidates = refinement_candidates(&rows, &front, grid);
        let allowed = config.max_points - base_points;
        if candidates.len() > allowed {
            truncated = candidates.len() - allowed;
            candidates.truncate(allowed);
            eprintln!(
                "note: refinement truncated to the --max-points budget \
                 ({truncated} candidate points dropped)"
            );
        }
        refined_points = candidates.len();
        let mut by_combo: BTreeMap<(usize, u64), Vec<(EccStrength, f64)>> = BTreeMap::new();
        for (ways, scrub, ecc, scale) in candidates {
            by_combo
                .entry((ways, scrub))
                .or_default()
                .push((ecc, scale));
        }
        let refine_jobs: Vec<ComboJob> = by_combo
            .into_iter()
            .map(|((ways, scrub), mut pts)| {
                pts.sort_unstable_by(|a, b| a.0.t().cmp(&b.0.t()).then(a.1.total_cmp(&b.1)));
                ComboJob {
                    ways,
                    scrub,
                    points: pts,
                    refined: true,
                }
            })
            .collect();
        rows.extend(run_combos(
            &mut runner,
            config,
            refine_jobs,
            "explore_refine",
            &mut resumed,
        )?);
    }

    rows.sort_unstable_by(|a, b| {
        (a.ways, a.scrub, a.ecc.t())
            .cmp(&(b.ways, b.scrub, b.ecc.t()))
            .then(a.read_scale.total_cmp(&b.read_scale))
    });
    let front = front_of(&rows);
    Ok(ExploreOutcome {
        rows,
        front,
        base_points,
        refined_points,
        truncated,
        resumed,
        checkpoint_warning: runner.journal.and_then(|j| j.warning),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint;
    use reap_fault::{FaultAction, FaultPlan};

    #[test]
    fn issue_grid_parses_with_aliases_suffixes_and_ranges() {
        let grid = parse_grid(
            "ways=4,8,16 ecc=sec,secded,bch2,bch3 read-current=0.7:1.0:0.1 scrub=0,10k,100k",
        )
        .unwrap();
        assert_eq!(grid.ways, vec![4, 8, 16]);
        // secded aliases sec; bch2/bch3 alias dec/tec.
        assert_eq!(
            grid.ecc,
            vec![EccStrength::Sec, EccStrength::Dec, EccStrength::Tec]
        );
        assert_eq!(grid.read_current.len(), 4);
        assert!((grid.read_current[0] - 0.7).abs() < 1e-12);
        assert!((grid.read_current[3] - 1.0).abs() < 1e-12);
        assert_eq!(grid.scrub, vec![0, 10_000, 100_000]);
        assert_eq!(grid.point_count(), 3 * 3 * 3 * 4);
    }

    #[test]
    fn omitted_dimensions_default_to_the_paper_point() {
        let grid = parse_grid("ecc=dec").unwrap();
        assert_eq!(grid.ways, vec![8]);
        assert_eq!(grid.scrub, vec![0]);
        assert_eq!(grid.read_current, vec![1.0]);
        assert_eq!(grid.ecc, vec![EccStrength::Dec]);
        assert_eq!(parse_grid("").unwrap(), ExploreGrid::default());
    }

    #[test]
    fn grid_errors_are_descriptive() {
        for (bad, needle) in [
            ("volts=3", "unknown dimension"),
            ("ways", "dim=values"),
            ("ways=4 ways=8", "more than once"),
            ("ecc=", "is empty"),
            ("ecc=sec,parity", "unknown strength"),
            ("ways=0", "must be positive"),
            ("ways=abc", "not a count"),
            ("scrub=1:0:1", "start <= stop"),
            ("read-current=0.9:0.7:0.1", "start <= stop"),
            ("read-current=2.0", "outside"),
            ("read-current=0", "outside"),
            ("read-current=0.5:0.9", "start:stop:step"),
        ] {
            let err = parse_grid(bad).unwrap_err();
            assert!(err.to_string().contains(needle), "{bad}: {err}");
        }
    }

    #[test]
    fn canonical_form_is_order_insensitive() {
        let a = parse_grid("scrub=10k,0 ways=8,4 ecc=tec,sec").unwrap();
        let b = parse_grid("ways=4,8 ecc=sec,bch3 scrub=0,10000").unwrap();
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(
            a.canonical(),
            "ways=4,8 ecc=sec,tec read-current=1 scrub=0,10000"
        );
    }

    #[test]
    fn row_codec_round_trips_bit_exactly() {
        for row in [
            ExploreRow {
                ways: 16,
                scrub: 10_000,
                ecc: EccStrength::Dec,
                read_scale: 0.85,
                mttf_s: 1.234e12,
                energy_j: 3.2e-4,
                area_mm2: 0.731,
                refined: true,
            },
            ExploreRow {
                ways: 8,
                scrub: 0,
                ecc: EccStrength::Sec,
                read_scale: 1.0,
                mttf_s: f64::INFINITY,
                energy_j: 0.0,
                area_mm2: f64::MIN_POSITIVE,
                refined: false,
            },
        ] {
            let encoded = explore_row_to_json(&row);
            let parsed = explore_row_from_json(&json::parse(&encoded).unwrap()).unwrap();
            assert_eq!(parsed.ways, row.ways);
            assert_eq!(parsed.scrub, row.scrub);
            assert_eq!(parsed.ecc, row.ecc);
            assert_eq!(parsed.read_scale.to_bits(), row.read_scale.to_bits());
            assert_eq!(parsed.mttf_s.to_bits(), row.mttf_s.to_bits());
            assert_eq!(parsed.energy_j.to_bits(), row.energy_j.to_bits());
            assert_eq!(parsed.area_mm2.to_bits(), row.area_mm2.to_bits());
            assert_eq!(parsed.refined, row.refined);
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("reap-explore-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn quick(grid: &str) -> ExploreConfig {
        let mut config = ExploreConfig::new(parse_grid(grid).unwrap(), 4_000, 11, 2);
        config.workloads = vec![SpecWorkload::Hmmer, SpecWorkload::Mcf];
        config
    }

    type RowBits = (usize, u64, usize, u64, u64, u64, u64, bool);

    fn row_bits(rows: &[ExploreRow]) -> Vec<RowBits> {
        rows.iter()
            .map(|r| {
                (
                    r.ways,
                    r.scrub,
                    r.ecc.t(),
                    r.read_scale.to_bits(),
                    r.mttf_s.to_bits(),
                    r.energy_j.to_bits(),
                    r.area_mm2.to_bits(),
                    r.refined,
                )
            })
            .collect()
    }

    #[test]
    fn tiny_exploration_scores_the_grid_and_refines_the_front() {
        let outcome = explore(&quick("ecc=sec,dec read-current=0.8,1.0")).unwrap();
        assert_eq!(outcome.base_points, 4);
        // Every front member has one read-current neighbour pair to
        // subdivide, so refinement must add at least one point.
        assert!(outcome.refined_points > 0, "{outcome:?}");
        assert_eq!(
            outcome.rows.len(),
            outcome.base_points + outcome.refined_points
        );
        assert_eq!(outcome.truncated, 0);
        assert!(!outcome.front.is_empty());
        // Rows are in canonical order and the front is non-dominated.
        let bits = row_bits(&outcome.rows);
        let mut sorted = bits.clone();
        sorted.sort_by(|a, b| {
            (a.0, a.1, a.2)
                .cmp(&(b.0, b.1, b.2))
                .then(f64::from_bits(a.3).total_cmp(&f64::from_bits(b.3)))
        });
        assert_eq!(bits, sorted);
        for &i in &outcome.front {
            let p = outcome.rows[i].pareto_point();
            assert!(!outcome
                .rows
                .iter()
                .any(|other| other.pareto_point().dominates(&p)));
        }
        // Stronger ECC trades area for reliability: at equal geometry
        // and current, DEC rows carry more area than SEC rows.
        let sec = outcome
            .rows
            .iter()
            .find(|r| r.ecc == EccStrength::Sec)
            .unwrap();
        let dec = outcome
            .rows
            .iter()
            .find(|r| r.ecc == EccStrength::Dec)
            .unwrap();
        assert!(dec.area_mm2 > sec.area_mm2);
    }

    #[test]
    fn results_are_identical_at_any_parallelism() {
        // Two combos with refinement on, folded over three workloads
        // (enough for float addition order to matter) and over one. At
        // -j 3 and 8 workers outnumber a combo's tasks, so combos finish
        // out of order and workloads land in any order.
        for (grid, workloads) in [
            (
                "ways=4,8 ecc=sec,dec read-current=0.8,1.0",
                DEFAULT_WORKLOADS.to_vec(),
            ),
            (
                "ecc=sec,dec read-current=0.8,1.0 scrub=0,2k",
                vec![SpecWorkload::Libquantum],
            ),
        ] {
            let mut config = quick(grid);
            config.workloads = workloads;
            config.parallelism = 1;
            assert!(config.refine);
            let serial = explore(&config).unwrap();
            assert!(serial.refined_points > 0, "{grid}: {serial:?}");
            for jobs in [2, 3, 8] {
                config.parallelism = jobs;
                let wide = explore(&config).unwrap();
                assert_eq!(
                    row_bits(&wide.rows),
                    row_bits(&serial.rows),
                    "{grid} at -j {jobs}"
                );
                assert_eq!(wide.front, serial.front, "{grid} at -j {jobs}");
            }
        }
    }

    #[test]
    fn the_journal_holds_whole_combos_under_stable_keys() {
        let path = tmp("explore-keys.jsonl");
        std::fs::remove_file(&path).ok();

        let mut config = quick("ways=4,8 ecc=sec,dec read-current=0.8,1.0 scrub=0,2k");
        config.parallelism = 3;
        config.checkpoint = Some(path.clone());
        let outcome = explore(&config).unwrap();
        let journal = checkpoint::load_with(&path, explore_row_from_json).unwrap();
        std::fs::remove_file(path).ok();

        // Pinned to what the one-task-per-combo explorer wrote for this
        // grid, so checkpoints it left behind still resume.
        assert_eq!(journal.meta.fingerprint, 0xdff2_71f1_def5_2a27);
        assert_eq!(journal.truncated_tail, None);
        // Exactly one row group per combo, each holding every point of
        // its combo: no partial combos, no repeats.
        let mut groups: Vec<(String, usize)> = journal
            .completed
            .iter()
            .map(|(key, rows)| (key.clone(), rows.len()))
            .collect();
        groups.sort();
        let want: Vec<(String, usize)> = [
            ("r/w4/s0", 2),
            ("r/w4/s1000", 2),
            ("r/w4/s2000", 2),
            ("w4/s0", 4),
            ("w4/s2000", 4),
            ("w8/s0", 4),
            ("w8/s2000", 4),
        ]
        .into_iter()
        .map(|(key, rows)| (key.to_owned(), rows))
        .collect();
        assert_eq!(groups, want);
        // The journaled rows are the outcome's rows, bit for bit.
        let mut journaled: Vec<ExploreRow> = journal
            .completed
            .into_iter()
            .flat_map(|(_, rows)| rows)
            .collect();
        journaled.sort_by(|a, b| {
            (a.ways, a.scrub, a.ecc.t())
                .cmp(&(b.ways, b.scrub, b.ecc.t()))
                .then(a.read_scale.total_cmp(&b.read_scale))
        });
        assert_eq!(row_bits(&journaled), row_bits(&outcome.rows));
    }

    /// The journal's row groups, sorted by key, with their rows' bits.
    fn journal_groups(path: &std::path::Path) -> Vec<(String, Vec<RowBits>)> {
        let journal = checkpoint::load_with(path, explore_row_from_json).unwrap();
        assert_eq!(journal.truncated_tail, None);
        let mut groups: Vec<(String, Vec<RowBits>)> = journal
            .completed
            .iter()
            .map(|(key, rows)| (key.clone(), row_bits(rows)))
            .collect();
        groups.sort_by(|a, b| a.0.cmp(&b.0));
        groups
    }

    #[test]
    fn injected_panics_recover_to_the_clean_rows_front_and_journal() {
        let plan = FaultPlan {
            seed: 13,
            panic_rate: 0.3,
            ..FaultPlan::default()
        };
        // The base phase has 2 combos x 2 workloads = 4 tasks; some of
        // them must draw a panic for the test to mean anything.
        assert!((0..4).any(|task| plan.decide(task, 1) == FaultAction::Panic));
        for jobs in [1, 3] {
            let clean_path = tmp(&format!("explore-clean-j{jobs}.jsonl"));
            let faulty_path = tmp(&format!("explore-faulty-j{jobs}.jsonl"));
            let mut config = quick("ecc=sec,dec read-current=0.8,1.0 scrub=0,2k");
            config.parallelism = jobs;
            config.checkpoint = Some(clean_path.clone());
            let clean = explore(&config).unwrap();

            config.checkpoint = Some(faulty_path.clone());
            config.supervisor.max_retries = 8;
            config.supervisor.fault_plan = Some(plan);
            let faulty = explore(&config).unwrap();

            assert_eq!(row_bits(&faulty.rows), row_bits(&clean.rows), "-j {jobs}");
            assert_eq!(faulty.front, clean.front, "-j {jobs}");
            assert_eq!(
                journal_groups(&faulty_path),
                journal_groups(&clean_path),
                "-j {jobs}"
            );
            std::fs::remove_file(clean_path).ok();
            std::fs::remove_file(faulty_path).ok();
        }
    }

    #[test]
    fn exhausted_retries_fail_the_exploration_and_journal_only_whole_combos() {
        let path = tmp("explore-exhausted.jsonl");
        let plan = FaultPlan {
            seed: 3,
            panic_rate: 0.3,
            ..FaultPlan::default()
        };
        let mut config = quick("ecc=sec,dec read-current=0.8,1.0 scrub=0,2k");
        config.parallelism = 3;
        config.checkpoint = Some(path.clone());
        config.supervisor.max_retries = 1;
        config.supervisor.fault_plan = Some(plan);

        // Task `c * 2 + w` scores workload `w` of base combo `c`; it
        // fails when both of its attempts draw a panic.
        let keys = ["w8/s0", "w8/s2000"];
        let fails = |task: u64| (1..=2).all(|a| plan.decide(task, a) == FaultAction::Panic);
        let whole: Vec<&str> = (0..keys.len() as u64)
            .filter(|c| !fails(c * 2) && !fails(c * 2 + 1))
            .map(|c| keys[c as usize])
            .collect();
        assert!(!whole.is_empty() && whole.len() < keys.len(), "{whole:?}");

        let err = explore(&config).unwrap_err();
        assert!(matches!(err, ExploreError::Supervision(_)), "{err}");
        assert!(err.to_string().contains("injected panic"), "{err}");
        let journaled: Vec<(String, usize)> = journal_groups(&path)
            .into_iter()
            .map(|(key, rows)| (key, rows.len()))
            .collect();
        let want: Vec<(String, usize)> = whole.iter().map(|k| (k.to_string(), 4)).collect();
        assert_eq!(journaled, want);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn a_budget_too_small_for_the_grid_is_refused() {
        let mut config = quick("ecc=sec,dec read-current=0.8,1.0");
        config.max_points = 3;
        let err = explore(&config).unwrap_err();
        assert!(err.to_string().contains("--max-points"), "{err}");
    }

    #[test]
    fn an_exhausted_budget_skips_refinement_and_counts_the_truncation() {
        let mut config = quick("ecc=sec,dec read-current=0.8,1.0");
        config.max_points = 4; // exactly the base grid
        let outcome = explore(&config).unwrap();
        assert_eq!(outcome.refined_points, 0);
        assert!(outcome.truncated > 0);
        assert_eq!(outcome.rows.len(), 4);
    }

    #[test]
    fn a_finished_or_killed_run_resumes_bit_identically() {
        let grid = "ecc=sec,dec read-current=0.8,1.0 scrub=0,2k";
        let fresh = explore(&quick(grid)).unwrap();
        let path = tmp("explore-resume.jsonl");
        let mut config = quick(grid);
        config.checkpoint = Some(path.clone());
        let cold = explore(&config).unwrap();
        assert_eq!(cold.resumed, 0);
        assert_eq!(row_bits(&fresh.rows), row_bits(&cold.rows));
        let whole = journal_groups(&path);
        assert_eq!(whole.len(), 5, "two base combos and three refined");

        // Resume the finished journal, then kill fresh runs at `-j 2`
        // after one combo (base pass) and after three (refinement pass),
        // three times each.
        for kill in [None, Some(1), Some(1), Some(1), Some(3), Some(3), Some(3)] {
            let mut config = quick(grid);
            config.checkpoint = Some(path.clone());
            if kill.is_some() {
                config.supervisor.fault_plan = Some(FaultPlan {
                    interrupt_after: kill,
                    ..FaultPlan::default()
                });
                let err = explore(&config).unwrap_err();
                assert!(
                    matches!(err, ExploreError::Interrupted { completed, .. } if Some(completed as u64) == kill),
                    "{err}"
                );
                config.supervisor.fault_plan = None;
            }
            // Exactly that many combos, each whole: the clean run's group
            // under the same key, bit for bit.
            let journaled = journal_groups(&path);
            assert_eq!(journaled.len() as u64, kill.unwrap_or(5), "{kill:?}");
            assert!(journaled.iter().all(|group| whole.contains(group)));

            config.resume = true;
            let resumed = explore(&config).unwrap();
            assert_eq!(resumed.resumed as u64, kill.unwrap_or(5), "{kill:?}");
            assert_eq!(row_bits(&fresh.rows), row_bits(&resumed.rows));
            assert_eq!(fresh.front, resumed.front);
            assert_eq!(journal_groups(&path), whole);
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn a_foreign_checkpoint_is_refused() {
        let path = tmp("explore-foreign.jsonl");
        std::fs::remove_file(&path).ok();

        let mut config = quick("ecc=sec read-current=0.8,1.0");
        config.checkpoint = Some(path.clone());
        explore(&config).unwrap();

        config.seed = 999;
        config.resume = true;
        let err = explore(&config).unwrap_err();
        assert!(
            matches!(
                err,
                ExploreError::Checkpoint(CheckpointError::FingerprintMismatch { .. })
            ),
            "{err}"
        );
        std::fs::remove_file(path).ok();
    }
}
