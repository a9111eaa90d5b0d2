//! The isolation ledger: in-process, single-threaded, telemetry off, it
//! times calls into each layer's public functions over the workload's
//! own captures, so a change to one layer shows up in that layer's row.
//!
//! The ledger runs as two child processes of the benchmark, one per
//! phase. Each phase first runs the library path alone, so the phase's
//! peak RSS is the library's, then times each capture (or replay) whole
//! and immediately after split into layers, so that the whole and its
//! parts see the same host conditions:
//!
//! * **capture** — the library path is [`Simulator::capture`], v2 encode
//!   to a sink and [`CaptureStore::store`]. The split is trace
//!   generation, the L1 filter (a replica of the L1 half of
//!   `Hierarchy::access`), the L2 without an observer, and the L2 with a
//!   [`CaptureObserver`]; the observer's cost is the difference of the
//!   last two. Traces are processed in 1M-access chunks, so the ledger's
//!   own memory stays O(chunk).
//! * **replay** — the library path is [`CaptureStore::load`] and
//!   [`Simulator::replay_batch`] on the store-backed capture. The split is
//!   decode, weight sampling ([`sample_ones_multi_batch`] on 64-record
//!   blocks), the batched kernel ([`MultiReplayAggregator::record_block`])
//!   and the fold (`finish`, plus the Pareto front on `explore_warm`).
//!
//! Both phases cross-check the split against the library path: cache
//! counters and event counts must match the capture bit for bit, and the
//! kernel's expected failures must match the replay's.

use crate::spans::{self, Span, Spans};
use crate::stats::MIB;
use crate::workloads::{Kind, Sizes, Workload, EXPLORE_GRID};
use reap_cache::{
    sample_ones_multi_batch, AccessObserver, Cache, CacheStats, HierarchyConfig, Replacement,
};
use reap_core::capture_store::write_capture_v2;
use reap_core::explore::{front_of, parse_grid, ExploreRow};
use reap_core::{
    CaptureKey, CaptureObserver, CapturePolicy, CaptureStore, EccStrength, Experiment,
    ExposureCapture, ExposureRecord, ExposureStream, HierarchySnapshot, ProtectionScheme, Report,
    SimulationConfig, Simulator,
};
use reap_mtj::MtjParams;
use reap_nvarray::{estimate, ArraySpec, MemTech, TechnologyNode};
use reap_obs::{json, ProcessSample};
use reap_reliability::{AccumulationModel, ExposureKind, MultiReplayAggregator};
use reap_trace::{AccessKind, MemoryAccess, SpecWorkload};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Trace accesses generated and filtered per chunk.
const TRACE_CHUNK: u64 = 1 << 20;
/// Records decoded per replay chunk.
const REPLAY_CHUNK: usize = 1 << 16;
/// Records per sampler and kernel call, as the library's batched replay
/// feeds them.
const FEED_BLOCK: usize = 64;

/// Metric name → value.
pub type Metrics = BTreeMap<String, f64>;

/// An operation the L1s send to the L2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L2Op {
    /// A demand read, or a store miss's write-allocate fetch.
    Read(u64),
    /// A dirty L1 victim's full-line write-back.
    Writeback(u64),
}

/// The L1 half of `Hierarchy::access`: split L1I/L1D in front of the L2,
/// recording the L2-bound stream instead of driving the L2, so the two
/// levels can be timed apart.
#[derive(Debug)]
pub struct L1Filter {
    l1i: Cache,
    l1d: Cache,
}

impl L1Filter {
    /// Cold L1s of `config`'s geometry.
    pub fn new(config: &HierarchyConfig, replacement: Replacement) -> Self {
        Self {
            l1i: Cache::new(config.l1i.clone(), replacement),
            l1d: Cache::new(config.l1d.clone(), replacement),
        }
    }

    /// Drives `accesses` through the L1s, appending what reaches the L2.
    pub fn filter(&mut self, accesses: &[MemoryAccess], out: &mut Vec<L2Op>) {
        for a in accesses {
            let r = match a.kind {
                AccessKind::InstrFetch => self.l1i.read(a.address, &mut ()),
                AccessKind::Load => self.l1d.read(a.address, &mut ()),
                AccessKind::Store => self.l1d.write(a.address, &mut ()),
            };
            if !r.hit {
                out.push(L2Op::Read(a.address));
                // Instruction lines are never dirty, so only L1D victims
                // write back.
                if let Some(victim) = r.evicted.filter(|e| e.dirty) {
                    out.push(L2Op::Writeback(victim.address));
                }
            }
        }
    }

    /// L1I and L1D counters.
    pub fn stats(&self) -> (CacheStats, CacheStats) {
        (*self.l1i.stats(), *self.l1d.stats())
    }
}

/// Drives an L1-filtered stream through `l2`.
pub fn drive_l2<O: AccessObserver>(l2: &mut Cache, ops: &[L2Op], observer: &mut O) {
    for &op in ops {
        match op {
            L2Op::Read(address) => {
                l2.read(address, observer);
            }
            L2Op::Writeback(address) => {
                l2.install_writeback(address, observer);
            }
        }
    }
}

/// What one ledger run covers: the workload's captures and the analysis
/// points its command scores against each of them.
struct Plan {
    name: &'static str,
    captures: Vec<SpecWorkload>,
    accesses: u64,
    seed: u64,
    /// ECC strength and read-current multiplier (`None`: the default
    /// card, as `reap sweep` and `reap run` use it).
    points: Vec<(EccStrength, Option<f64>)>,
    /// Whether the fold includes the Pareto front.
    pareto: bool,
}

impl Plan {
    fn new(workload: Workload, sizes: Sizes, seed: u64) -> Result<Self, String> {
        let points = match workload.kind {
            Kind::SweepCold | Kind::SweepWarm => {
                EccStrength::ALL.iter().map(|&e| (e, None)).collect()
            }
            // The base grid; the refined points depend on the front.
            Kind::ExploreWarm => parse_grid(EXPLORE_GRID)
                .map_err(|e| e.to_string())?
                .analysis_points()
                .into_iter()
                .map(|(e, scale)| (e, Some(scale)))
                .collect(),
            Kind::LongWindow => vec![(EccStrength::Sec, None)],
        };
        Ok(Self {
            name: workload.name,
            captures: workload.captures(),
            accesses: workload.accesses(sizes),
            seed,
            points,
            pareto: workload.kind == Kind::ExploreWarm,
        })
    }

    /// The capture configuration the CLI commands use, the same for
    /// every profile (the profile and seed key the capture separately).
    fn config(&self) -> SimulationConfig {
        Experiment::paper_hierarchy()
            .accesses(self.accesses)
            .config()
            .clone()
    }

    /// One simulator per analysis point.
    fn simulators(&self, base: &SimulationConfig) -> Result<Vec<Simulator>, String> {
        let base_read = MtjParams::default().read_current();
        self.points
            .iter()
            .map(|&(ecc, scale)| {
                let mtj = match scale {
                    Some(s) => MtjParams::default()
                        .with_read_current(s * base_read)
                        .map_err(|e| e.to_string())?,
                    None => MtjParams::default(),
                };
                let config = SimulationConfig {
                    ecc,
                    mtj,
                    ..base.clone()
                };
                Simulator::new(config).map_err(|e| e.to_string())
            })
            .collect()
    }
}

fn check_bits(ecc: EccStrength, line_bits: usize) -> Result<usize, String> {
    Ok(ecc
        .build_code(line_bits)
        .map_err(|e| e.to_string())?
        .check_bits())
}

fn peak_rss_mib() -> f64 {
    let sample = ProcessSample::capture(Instant::now());
    sample.peak_rss_bytes.map_or(f64::NAN, |b| b as f64 / MIB)
}

/// The capture phase; see the module docs.
fn capture_phase(plan: &Plan, store: &CaptureStore, spans: &mut Spans) -> Result<Metrics, String> {
    let root_id = spans.open("ledger.capture", None, plan.name);
    let root = Some(root_id);
    let w = plan.name;

    // The library path alone first, so the phase's peak RSS is its own.
    let config = plan.config();
    let sim = Simulator::new(config.clone()).map_err(|e| e.to_string())?;
    let mut expected: Vec<(HierarchySnapshot, u64)> = Vec::new();
    let (mut bytes, mut events) = (0u64, 0u64);
    for &profile in &plan.captures {
        let key = CaptureKey::new(profile, plan.seed, &config);
        let capture = sim
            .capture(profile.stream(plan.seed))
            .map_err(|e| e.to_string())?;
        bytes += spans
            .time("capture_store.encode", root, w, || {
                write_capture_v2(std::io::sink(), key.fingerprint(), &capture)
            })
            .map_err(|e| e.to_string())?;
        spans
            .time("capture_store.write", root, w, || {
                store.store(&key, &capture)
            })
            .map_err(|e| e.to_string())?;
        events += capture.event_count();
        expected.push((*capture.snapshot(), capture.event_count()));
    }
    let peak = peak_rss_mib();

    // Each trace again, whole and then layer by layer, back to back so
    // that both see the same host conditions.
    let mut ledger = CaptureLedger::default();
    for (&profile, &(snapshot, count)) in plan.captures.iter().zip(&expected) {
        let whole = spans.time("capture.total", root, w, || {
            sim.capture(profile.stream(plan.seed))
        });
        drop(whole.map_err(|e| e.to_string())?);
        let got = ledger.run(&config, profile, plan.seed, spans, root, w)?;
        if got != (snapshot.l1i, snapshot.l1d, snapshot.l2, count) {
            return Err(format!(
                "{}: the layer split disagrees with Simulator::capture \
                 (cache counters or event count differ)",
                profile.name()
            ));
        }
    }
    spans.close(root_id);

    let trace = spans.busy("trace");
    let l1 = spans.busy("cache.l1");
    let l2 = spans.busy("cache.l2");
    let observer = ledger.observed_s - ledger.l2_measured_s;
    let total = spans.busy("capture.total");
    let accesses = ledger.accesses as f64;
    let l1_accesses = ledger.l1.accesses() as f64;
    let mut m = Metrics::new();
    m.insert("trace.busy_s".into(), trace);
    m.insert("trace.ns_per_access".into(), trace / accesses * 1e9);
    m.insert("cache.l1.busy_s".into(), l1);
    m.insert("cache.l1.accesses".into(), l1_accesses);
    m.insert(
        "cache.l1.hit_ratio".into(),
        ledger.l1.hits() as f64 / l1_accesses,
    );
    m.insert("cache.l2.busy_s".into(), l2);
    m.insert("cache.l2.accesses".into(), ledger.l2.accesses() as f64);
    m.insert("cache.l2.hit_ratio".into(), ledger.l2.hit_rate());
    m.insert(
        "cache.l2.concealed_reads".into(),
        ledger.l2.concealed_reads as f64,
    );
    m.insert("capture.observer.busy_s".into(), observer);
    m.insert("capture.exposure_events".into(), events as f64);
    m.insert(
        "capture.events_per_access".into(),
        events as f64 / ledger.measured as f64,
    );
    m.insert("capture.total_s".into(), total);
    m.insert(
        "capture.ledger_coverage".into(),
        spans::coverage(&[trace, l1, l2, observer], total),
    );
    m.insert("capture.peak_rss_mib".into(), peak);
    m.insert(
        "capture_store.encode.busy_s".into(),
        spans.busy("capture_store.encode"),
    );
    m.insert(
        "capture_store.write.busy_s".into(),
        spans.busy("capture_store.write"),
    );
    m.insert(
        "capture_store.bytes_per_event".into(),
        bytes as f64 / events as f64,
    );
    Ok(m)
}

/// Running totals of the layer-by-layer capture pass.
#[derive(Debug, Default)]
struct CaptureLedger {
    /// Warm-up plus measured accesses generated.
    accesses: u64,
    /// Measured accesses.
    measured: u64,
    /// L1I + L1D counters.
    l1: CacheStats,
    /// L2 counters over the measurement windows.
    l2: CacheStats,
    /// L2 seconds over the measured chunks only.
    l2_measured_s: f64,
    /// Seconds of the L2-with-observer passes.
    observed_s: f64,
}

impl CaptureLedger {
    /// Captures one profile layer by layer. Returns the L1I, L1D and L2
    /// counters and the event count, which must equal the library
    /// capture's.
    fn run(
        &mut self,
        config: &SimulationConfig,
        profile: SpecWorkload,
        seed: u64,
        spans: &mut Spans,
        root: Option<usize>,
        w: &str,
    ) -> Result<(CacheStats, CacheStats, CacheStats, u64), String> {
        let hierarchy = &config.hierarchy;
        let mut l1 = L1Filter::new(hierarchy, config.replacement);
        let l2_cache = || -> Result<Cache, String> {
            let mut c = Cache::new(hierarchy.l2.clone(), config.replacement);
            c.set_check_bits(check_bits(config.ecc, hierarchy.l2.line_bits())?);
            Ok(c)
        };
        // Two L2s in lockstep: one bare, one feeding the observer.
        let (mut bare, mut observed) = (l2_cache()?, l2_cache()?);
        let mut observer = CaptureObserver::new();
        let mut stream = profile.stream(seed);
        let mut accesses: Vec<MemoryAccess> = Vec::new();
        let mut ops: Vec<L2Op> = Vec::new();
        for (budget, measured) in [
            (config.warmup_accesses, false),
            (config.measure_accesses, true),
        ] {
            let mut left = budget;
            while left > 0 {
                let take = left.min(TRACE_CHUNK) as usize;
                spans.time("trace", root, w, || {
                    accesses.clear();
                    accesses.extend(stream.by_ref().take(take));
                });
                if accesses.len() < take {
                    return Err(format!("{}: trace ended early", profile.name()));
                }
                spans.time("cache.l1", root, w, || {
                    ops.clear();
                    l1.filter(&accesses, &mut ops);
                });
                let id = spans.open("cache.l2", root, w);
                drive_l2(&mut bare, &ops, &mut ());
                let bare_s = spans.close(id);
                if measured {
                    self.l2_measured_s += bare_s;
                    let id = spans.open("cache.l2+observer", root, w);
                    drive_l2(&mut observed, &ops, &mut observer);
                    self.observed_s += spans.close(id);
                } else {
                    // Warm-up runs observer-less in the library too; this
                    // only keeps the second L2 in step.
                    spans.time("ledger.l2_shadow", root, w, || {
                        drive_l2(&mut observed, &ops, &mut ())
                    });
                }
                left -= take as u64;
            }
            if !measured {
                bare.reset_stats();
                observed.reset_stats();
            }
        }
        self.accesses += config.warmup_accesses + config.measure_accesses;
        self.measured += config.measure_accesses;
        let (l1i, l1d) = l1.stats();
        self.l1 += l1i;
        self.l1 += l1d;
        self.l2 += *bare.stats();
        if bare.stats() != observed.stats() {
            return Err(format!(
                "{}: the observer changed L2 behaviour",
                profile.name()
            ));
        }
        Ok((l1i, l1d, *bare.stats(), observer.records().len() as u64))
    }
}

/// The replay phase; see the module docs.
fn replay_phase(plan: &Plan, store: &CaptureStore, spans: &mut Spans) -> Result<Metrics, String> {
    let root_id = spans.open("ledger.replay", None, plan.name);
    let root = Some(root_id);
    let w = plan.name;

    // The library path alone first, so the phase's peak RSS is its own.
    let config = plan.config();
    let sims = plan.simulators(&config)?;
    let mut loaded: Vec<ExposureCapture> = Vec::new();
    let mut misses = 0;
    for &profile in &plan.captures {
        let key = CaptureKey::new(profile, plan.seed, &config);
        let Some(capture) = spans.time("capture_store.load", root, w, || store.load(&key)) else {
            misses += 1;
            continue;
        };
        Simulator::replay_batch(&sims, &capture).map_err(|e| e.to_string())?;
        loaded.push(capture);
    }
    let peak = peak_rss_mib();
    if misses > 0 {
        return Err(format!("{misses} ledger captures missing from the store"));
    }

    // Each stream again, whole and then layer by layer, back to back so
    // that both see the same host conditions.
    let (mut event_points, mut widths_seen) = (0u64, 0usize);
    let mut per_point = vec![PointSums::default(); plan.points.len()];
    for capture in &loaded {
        let reports = spans
            .time("replay.total", root, w, || {
                Simulator::replay_batch(&sims, capture)
            })
            .map_err(|e| e.to_string())?;
        for (sums, report) in per_point.iter_mut().zip(&reports) {
            sums.add(report);
        }
        let line_bits = capture.line_bits();
        let stored: Vec<usize> = sims
            .iter()
            .map(|s| Ok(line_bits + check_bits(s.config().ecc, line_bits)?))
            .collect::<Result<_, String>>()?;
        let mut widths = stored.clone();
        widths.sort_unstable();
        widths.dedup();
        let slot: Vec<usize> = stored
            .iter()
            .map(|x| widths.binary_search(x).expect("width present"))
            .collect();
        widths_seen = widths_seen.max(widths.len());
        let (nw, npts) = (widths.len(), sims.len());
        let kernel_points = sims
            .iter()
            .zip(&stored)
            .map(|(s, &bits)| {
                (
                    AccumulationModel::new(s.p_rd(), s.config().ecc.t()),
                    bits as u32,
                )
            })
            .collect();
        let mut multi = MultiReplayAggregator::new(kernel_points);
        let seed = capture.ones_seed();
        let mut events = capture.iter().map_err(|e| e.to_string())?;
        let mut records: Vec<ExposureRecord> = Vec::with_capacity(REPLAY_CHUNK);
        let mut keys: Vec<(u64, u64, u64)> = Vec::with_capacity(FEED_BLOCK);
        let mut kinds: Vec<(ExposureKind, u64)> = Vec::with_capacity(FEED_BLOCK);
        let mut by_width = vec![0u32; REPLAY_CHUNK * nw];
        let mut by_point = vec![0u32; FEED_BLOCK * npts];
        loop {
            spans
                .time("capture_store.decode", root, w, || {
                    records.clear();
                    while records.len() < REPLAY_CHUNK {
                        match events.next_record()? {
                            Some(r) => records.push(r),
                            None => break,
                        }
                    }
                    Ok::<(), reap_core::StreamDefect>(())
                })
                .map_err(|e| e.to_string())?;
            if records.is_empty() {
                break;
            }
            spans.time("replay.sample", root, w, || {
                for (block, out) in records
                    .chunks(FEED_BLOCK)
                    .zip(by_width.chunks_mut(FEED_BLOCK * nw))
                {
                    keys.clear();
                    keys.extend(block.iter().map(|r| (r.key.tag, r.key.set, r.key.version)));
                    sample_ones_multi_batch(seed, &keys, &widths, &mut out[..block.len() * nw]);
                }
            });
            spans.time("replay.kernel", root, w, || {
                for (block, ones) in records
                    .chunks(FEED_BLOCK)
                    .zip(by_width.chunks(FEED_BLOCK * nw))
                {
                    kinds.clear();
                    kinds.extend(block.iter().map(|r| (r.kind, r.unchecked_reads)));
                    for row in 0..block.len() {
                        for (p, &s) in slot.iter().enumerate() {
                            by_point[row * npts + p] = ones[row * nw + s];
                        }
                    }
                    multi.record_block(&kinds, &by_point[..block.len() * npts]);
                }
            });
        }
        event_points += capture.event_count() * npts as u64;
        let aggregators = spans.time("replay.fold", root, w, || multi.finish());
        let agree = aggregators.iter().zip(&reports).all(|(a, r)| {
            a.reap().expected_failures().to_bits()
                == r.expected_failures(ProtectionScheme::Reap).to_bits()
        });
        if !agree {
            return Err("the layer split disagrees with Simulator::replay_batch".to_owned());
        }
    }
    if plan.pareto {
        let rows = explore_rows(plan, &per_point)?;
        let front = spans.time("replay.fold", root, w, || front_of(&rows));
        if front.is_empty() {
            return Err("empty Pareto front".to_owned());
        }
    }
    spans.close(root_id);

    let decode = spans.busy("capture_store.decode");
    let sample = spans.busy("replay.sample");
    let kernel = spans.busy("replay.kernel");
    let fold = spans.busy("replay.fold");
    let total = spans.busy("replay.total");
    let mut m = Metrics::new();
    m.insert(
        "capture_store.load.busy_s".into(),
        spans.busy("capture_store.load"),
    );
    m.insert("capture_store.decode.busy_s".into(), decode);
    m.insert("replay.sample.busy_s".into(), sample);
    m.insert("replay.sample.widths".into(), widths_seen as f64);
    m.insert("replay.kernel.busy_s".into(), kernel);
    m.insert(
        "replay.kernel.ns_per_event_point".into(),
        kernel / event_points as f64 * 1e9,
    );
    m.insert("replay.fold.busy_s".into(), fold);
    m.insert("replay.total_s".into(), total);
    m.insert(
        "replay.ledger_coverage".into(),
        spans::coverage(&[decode, sample, kernel, fold], total),
    );
    m.insert("replay.peak_rss_mib".into(), peak);
    Ok(m)
}

/// One analysis point's REAP totals across workloads.
#[derive(Debug, Clone, Copy, Default)]
struct PointSums {
    fail: f64,
    energy_j: f64,
    duration_s: f64,
}

impl PointSums {
    fn add(&mut self, report: &Report) {
        self.fail += report.expected_failures(ProtectionScheme::Reap);
        self.energy_j += report.energy(ProtectionScheme::Reap).total();
        self.duration_s += report.duration_seconds();
    }
}

/// `explore_warm`'s per-point rows folded across workloads, as
/// `reap explore` folds them.
fn explore_rows(plan: &Plan, per_point: &[PointSums]) -> Result<Vec<ExploreRow>, String> {
    let hierarchy = HierarchyConfig::paper();
    let node =
        TechnologyNode::nm(SimulationConfig::default().tech_nm).map_err(|e| e.to_string())?;
    let mut rows = Vec::with_capacity(plan.points.len());
    for (&(ecc, scale), sums) in plan.points.iter().zip(per_point) {
        let spec = ArraySpec::new(
            hierarchy.l2.size_bytes(),
            hierarchy.l2.block_bytes(),
            hierarchy.l2.associativity(),
        )
        .map_err(|e| e.to_string())?
        .with_check_bits(check_bits(ecc, hierarchy.l2.line_bits())?);
        rows.push(ExploreRow {
            ways: hierarchy.l2.associativity(),
            scrub: 0,
            ecc,
            read_scale: scale.unwrap_or(1.0),
            mttf_s: sums.duration_s / sums.fail,
            energy_j: sums.energy_j,
            area_mm2: estimate(&spec, MemTech::SttMram, node).area_mm2(),
            refined: false,
        });
    }
    Ok(rows)
}

/// Entry point of a ledger child process:
/// `benchmark ledger PHASE WORKLOAD SEED SIZES DIR`, where `PHASE` is
/// `capture` or `replay` and `SIZES` is `full` or `smoke`. Prints one
/// JSON line: `{"metrics":{...},"spans":[...]}` or `{"error":"..."}`.
pub fn child_main(args: &[String]) -> i32 {
    let result = (|| {
        let [phase, workload, seed, sizes, dir] = args else {
            return Err("usage: benchmark ledger PHASE WORKLOAD SEED SIZES DIR".to_owned());
        };
        let workload = crate::workloads::by_name(workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?;
        let seed: u64 = seed.parse().map_err(|_| format!("bad seed `{seed}`"))?;
        let sizes = match sizes.as_str() {
            "full" => crate::workloads::FULL,
            "smoke" => crate::workloads::SMOKE,
            other => return Err(format!("unknown sizes `{other}`")),
        };
        let plan = Plan::new(workload, sizes, seed)?;
        let store = CaptureStore::new(Path::new(dir), CapturePolicy::ReadWrite);
        let mut spans = Spans::new();
        let metrics = match phase.as_str() {
            "capture" => capture_phase(&plan, &store, &mut spans)?,
            "replay" => replay_phase(&plan, &store, &mut spans)?,
            other => return Err(format!("unknown phase `{other}`")),
        };
        Ok((metrics, spans))
    })();
    match result {
        Ok((metrics, spans)) => {
            let metrics: Vec<String> = metrics
                .iter()
                .map(|(k, v)| format!("\"{}\":{}", json::escape(k), json::number(*v)))
                .collect();
            let spans: Vec<String> = spans
                .spans()
                .iter()
                .enumerate()
                .map(|(id, s)| spans::span_json(id, s, None))
                .collect();
            println!(
                "{{\"metrics\":{{{}}},\"spans\":[{}]}}",
                metrics.join(","),
                spans.join(",")
            );
            0
        }
        Err(e) => {
            println!("{{\"error\":\"{}\"}}", json::escape(&e));
            1
        }
    }
}

/// Parses a ledger child's output line into its metrics and spans.
pub fn parse_child(line: &str) -> Result<(Metrics, Vec<Span>), String> {
    let v = json::parse(line.trim()).map_err(|e| format!("ledger output: {e}"))?;
    if let Some(e) = v.get("error").and_then(json::Value::as_str) {
        return Err(e.to_owned());
    }
    let mut metrics = Metrics::new();
    if let Some(json::Value::Obj(fields)) = v.get("metrics") {
        for (k, val) in fields {
            // Non-finite values arrive as null.
            metrics.insert(k.clone(), val.as_f64().unwrap_or(f64::NAN));
        }
    }
    let spans = match v.get("spans") {
        Some(json::Value::Arr(items)) => items
            .iter()
            .map(|s| spans::span_from_json(s).ok_or_else(|| "malformed ledger span".to_owned()))
            .collect::<Result<_, _>>()?,
        _ => return Err("ledger output has no spans".to_owned()),
    };
    Ok((metrics, spans))
}

#[cfg(test)]
mod tests {
    use super::*;
    use reap_cache::Hierarchy;

    #[test]
    fn l1_filter_replica_matches_the_hierarchy_on_20k_accesses() {
        let config = HierarchyConfig::paper();
        let trace: Vec<MemoryAccess> = SpecWorkload::Gcc.stream(11).take(20_000).collect();

        let mut hierarchy = Hierarchy::new(config.clone(), Replacement::Lru);
        hierarchy.l2_mut().set_check_bits(10);
        for &a in &trace {
            hierarchy.access(a, &mut ());
        }

        let mut l1 = L1Filter::new(&config, Replacement::Lru);
        let mut l2 = Cache::new(config.l2.clone(), Replacement::Lru);
        l2.set_check_bits(10);
        let mut ops = Vec::new();
        // Two chunks, to cover state carried across chunk boundaries.
        for chunk in trace.chunks(12_345) {
            ops.clear();
            l1.filter(chunk, &mut ops);
            drive_l2(&mut l2, &ops, &mut ());
        }

        assert!(hierarchy.l2().stats().writeback_installs + hierarchy.l2().stats().writes > 0);
        assert_eq!(l2.stats(), hierarchy.l2().stats());
        assert_eq!(
            l1.stats(),
            (*hierarchy.l1i().stats(), *hierarchy.l1d().stats())
        );
    }

    #[test]
    fn child_output_round_trips() {
        let mut spans = Spans::new();
        spans.push(Span {
            name: "trace".to_owned(),
            parent: None,
            workload: "long_window".to_owned(),
            start_s: 0.0,
            end_s: 0.5,
        });
        let line = format!(
            "{{\"metrics\":{{\"trace.busy_s\":0.5,\"capture.total_s\":null}},\"spans\":[{}]}}",
            spans::span_json(0, &spans.spans()[0], None)
        );
        let (metrics, parsed) = parse_child(&line).unwrap();
        assert_eq!(metrics["trace.busy_s"], 0.5);
        assert!(metrics["capture.total_s"].is_nan());
        assert_eq!(parsed, spans.spans());
        assert_eq!(
            parse_child("{\"error\":\"boom\"}").unwrap_err(),
            "boom".to_owned()
        );
    }
}
