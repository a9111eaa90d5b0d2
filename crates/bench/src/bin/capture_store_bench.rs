//! Performance benchmark for the persistent capture store.
//!
//! Runs the full per-workload ECC sweep twice against a fresh
//! [`CaptureStore`]:
//!
//! 1. **cold** — the store directory starts empty, so every workload pays
//!    its trace pass and persists the capture, and
//! 2. **warm** — the same sweep again, now served entirely from disk: the
//!    trace pass is skipped and only the replay kernel runs, streamed
//!    frame-by-frame straight out of the decoder's reusable buffers
//!    without materializing the event vector.
//!
//! Correctness gates: cold and warm must agree bit-for-bit, and every
//! warm workload must register a `capture_store.hit`. Performance gates:
//! the warm pass must clear the speedup floor (2x at full budget, 1x in
//! smoke mode — tiny captures leave little trace cost to amortise), and
//! the store must spend at most 16.5 bytes per exposure event (27.5 in
//! smoke mode, where fixed headers weigh more). Those ceilings are half
//! and 1/1.2 of the retired fixed-width layout's 33 bytes per event. The
//! bench also reports the peak RSS of the cold pass (each fresh capture
//! streamed into its entry a frame at a time, then replayed from it) and
//! of the warm pass (streamed from disk) — the memory claims in numbers.
//! Before the pair it draws every workload's trace once on its own, with
//! no cache behind it, and reports the trace layer's cost per access.
//! Results land in
//! `BENCH_capture.json` (override the path with the first argument).
//!
//! `--smoke` (or `REAP_BENCH_SMOKE=1`) shrinks the access budget for CI.

use reap_bench::{access_budget, peak_rss_bytes, reset_peak_rss};
use reap_core::capture_store::{CapturePolicy, CaptureStore};
use reap_core::{EccStrength, Experiment, ProtectionScheme, Report};
use reap_trace::SpecWorkload;
use std::time::Instant;

fn failure_bits(r: &Report) -> [u64; 4] {
    [
        r.expected_failures(ProtectionScheme::Conventional)
            .to_bits(),
        r.expected_failures(ProtectionScheme::Reap).to_bits(),
        r.expected_failures(ProtectionScheme::SerialTagFirst)
            .to_bits(),
        r.writeback_exposure().to_bits(),
    ]
}

/// The experiment every pass runs for workload `w`.
fn experiment(w: SpecWorkload, accesses: u64) -> Experiment {
    Experiment::paper_hierarchy()
        .workload(w)
        .accesses(accesses)
        .seed(reap_bench::DEFAULT_SEED)
}

/// Draws every workload's trace once, warm-up and measured window as a
/// cold capture draws it, and returns the wall time per access in ns.
fn trace_ns_per_access(accesses: u64) -> f64 {
    let mut drawn = 0;
    let t0 = Instant::now();
    for w in SpecWorkload::ALL {
        let experiment = experiment(w, accesses);
        let n = experiment.config().warmup_accesses + experiment.config().measure_accesses;
        for access in w.stream(reap_bench::DEFAULT_SEED).take(n as usize) {
            std::hint::black_box(access);
        }
        drawn += n;
    }
    t0.elapsed().as_secs_f64() * 1e9 / drawn as f64
}

/// One store-backed ECC sweep over every workload, timed.
fn sweep_all(accesses: u64, store: &CaptureStore) -> (f64, Vec<Vec<(EccStrength, Report)>>) {
    let t0 = Instant::now();
    let results = SpecWorkload::ALL
        .iter()
        .map(|&w| {
            let experiment = experiment(w, accesses);
            let points = experiment
                .simulators_at(&EccStrength::ALL)
                .expect("valid points");
            let reports = experiment
                .run_at(&points, Some(store), &mut None)
                .expect("sweep");
            EccStrength::ALL.into_iter().zip(reports).collect()
        })
        .collect();
    (t0.elapsed().as_secs_f64(), results)
}

/// Total bytes of `.rcap` entries under a store directory.
fn store_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Everything the cold/warm pair produces.
struct StoreRun {
    cold_s: f64,
    warm_s: f64,
    hits: u64,
    events: u64,
    bytes: u64,
    bytes_written: u64,
    bytes_read: u64,
    cold_peak_rss: Option<u64>,
    warm_peak_rss: Option<u64>,
}

/// Runs the cold+warm sweep pair in a fresh store directory, verifying
/// warm ≡ cold bit-for-bit and full store service.
fn run_store(accesses: u64) -> StoreRun {
    let dir = std::env::temp_dir().join(format!("reap-capture-bench-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = CaptureStore::new(&dir, CapturePolicy::ReadWrite);

    // Count the store traffic, so the bench can prove the warm pass was
    // actually served from disk rather than quietly recapturing.
    reap_bench::enable_telemetry();

    // Scope one peak-RSS watermark to each pass: the cold one is the
    // memory cost of capturing, the warm one of replaying from disk.
    let rss_scoped = reset_peak_rss();
    let (cold_s, cold) = sweep_all(accesses, &store);
    let cold_peak_rss = if rss_scoped { peak_rss_bytes() } else { None };
    let bytes = store_bytes(&dir);

    let rss_scoped = reset_peak_rss();
    let (warm_s, warm) = sweep_all(accesses, &store);
    let warm_peak_rss = if rss_scoped { peak_rss_bytes() } else { None };

    for (&w, (a, b)) in SpecWorkload::ALL.iter().zip(cold.iter().zip(&warm)) {
        assert_eq!(a.len(), b.len());
        for ((ecc_a, ra), (ecc_b, rb)) in a.iter().zip(b) {
            assert_eq!(ecc_a, ecc_b);
            assert_eq!(
                failure_bits(ra),
                failure_bits(rb),
                "warm sweep diverged from cold ({} at {ecc_a:?})",
                w.name()
            );
        }
    }

    let registry = reap_obs::global();
    let hits = registry.counter("capture_store.hit").get();
    assert_eq!(
        hits,
        SpecWorkload::ALL.len() as u64,
        "every warm workload must be served from the store"
    );
    let bytes_written = registry.counter("capture_store.bytes_written").get();
    let bytes_read = registry.counter("capture_store.bytes_read").get();
    assert!(
        bytes_written >= bytes && bytes_read >= bytes,
        "store I/O counters must cover the on-disk entries \
         (wrote {bytes_written}, read {bytes_read}, on disk {bytes})"
    );
    // Only the cold pass runs trace passes, one per workload.
    let events = registry.counter("sim.capture.exposure_events").get();

    std::fs::remove_dir_all(&dir).ok();
    StoreRun {
        cold_s,
        warm_s,
        hits,
        events,
        bytes,
        bytes_written,
        bytes_read,
        cold_peak_rss,
        warm_peak_rss,
    }
}

/// A peak-RSS reading in MiB, or `n/a` where the platform has none.
fn fmt_rss(bytes: Option<u64>) -> String {
    bytes.map_or("n/a".to_string(), |b| {
        format!("{:.1} MiB", b as f64 / (1 << 20) as f64)
    })
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut out_path = String::from("BENCH_capture.json");
    let mut metrics_out: Option<String> = None;
    let mut smoke = std::env::var("REAP_BENCH_SMOKE").is_ok_and(|v| v != "0");
    while let Some(a) = args.next() {
        if a == "--smoke" {
            smoke = true;
        } else if a == "--metrics-out" {
            metrics_out = Some(args.next().expect("--metrics-out needs a path"));
        } else {
            out_path = a;
        }
    }
    let accesses = if smoke { 20_000 } else { access_budget() };
    let workloads = SpecWorkload::ALL;
    let points = EccStrength::ALL.len();
    println!(
        "capture store benchmark — {} workloads x {points} ECC points, {accesses} accesses each{}",
        workloads.len(),
        if smoke { " (smoke)" } else { "" }
    );

    let trace_ns = trace_ns_per_access(accesses);
    let run = run_store(accesses);
    let speedup = run.cold_s / run.warm_s;
    let bytes_per_event = run.bytes as f64 / run.events.max(1) as f64;
    println!(
        "trace {trace_ns:.1} ns/access   cold {:.3} s   warm {:.3} s   \
         speedup {speedup:.2}x   {} B on disk ({bytes_per_event:.2} B/event)   \
         peak RSS cold {} warm {}",
        run.cold_s,
        run.warm_s,
        run.bytes,
        fmt_rss(run.cold_peak_rss),
        fmt_rss(run.warm_peak_rss),
    );

    let rss = |b: Option<u64>| b.map_or("null".to_string(), |b| b.to_string());
    let json = format!(
        "{{\n  \"accesses\": {accesses},\n  \"workloads\": {},\n  \"points\": {points},\n  \
         \"trace_ns_per_access\": {trace_ns:.2},\n  \"cold_s\": {:.6},\n  \
         \"warm_s\": {:.6},\n  \"speedup\": {speedup:.3},\n  \
         \"hits\": {},\n  \"exposure_events\": {},\n  \"store_bytes\": {},\n  \
         \"bytes_per_event\": {bytes_per_event:.3},\n  \"bytes_written\": {},\n  \
         \"bytes_read\": {},\n  \"cold_peak_rss_bytes\": {},\n  \
         \"warm_peak_rss_bytes\": {},\n  \"bit_identical\": true,\n  \"smoke\": {smoke}\n}}\n",
        workloads.len(),
        run.cold_s,
        run.warm_s,
        run.hits,
        run.events,
        run.bytes,
        run.bytes_written,
        run.bytes_read,
        rss(run.cold_peak_rss),
        rss(run.warm_peak_rss),
    );
    std::fs::write(&out_path, json).expect("write benchmark results");
    println!("wrote {out_path}");

    if let Some(path) = &metrics_out {
        let mut buf = Vec::new();
        reap_obs::export::write_jsonl(&reap_obs::global().snapshot(), &mut buf)
            .expect("serialize metrics");
        std::fs::write(path, buf).expect("write metrics");
        println!("wrote {path}");
    }

    let floor = if smoke { 1.0 } else { 2.0 };
    let mut failed = false;
    if speedup < floor {
        eprintln!("FAIL: warm sweep below the {floor:.0}x speedup floor ({speedup:.2}x)");
        failed = true;
    }
    let size_ceiling = if smoke { 27.5 } else { 16.5 };
    if bytes_per_event > size_ceiling {
        eprintln!("FAIL: store spends {bytes_per_event:.2} B/event (ceiling {size_ceiling:.1})");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
