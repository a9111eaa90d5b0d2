//! Performance benchmark for the batched multi-point replay kernel.
//!
//! Captures every SPEC workload profile once, then scores an 8-point
//! analysis sweep (ECC strengths cycled across distinct MTJ read
//! currents, so the points mix stored widths *and* `P_rd` values) over
//! the same captures, end to end and kernel alone:
//!
//! 1. **per-point** — one [`Simulator::replay`] walk of the exposure
//!    stream per analysis point. `replay` is itself a one-point batched
//!    pass, so `speedup` (per-point over batched) prices amortising the
//!    stream walk and weight draws across points;
//! 2. **batched** — one [`Simulator::replay_batch`] walk for all points;
//! 3. **kernel** — each capture's records are decoded and their line
//!    weights sampled once, with [`sample_ones_multi_batch`] on 64-record
//!    blocks as the replay feeder does, outside the timers. The same
//!    records and weights are then scored by the batched kernel
//!    ([`MultiReplayAggregator::record_block`] on 64-record blocks) and
//!    by one independent [`ReplayAggregator`] per point, the kernel's
//!    bit-identity reference. `kernel_speedup` is the reference time
//!    over the kernel time, and `kernel_ns_per_event_point` the kernel's
//!    absolute cost.
//!
//! The reports must agree bit-for-bit across all paths (the bench fails
//! otherwise — it doubles as an end-to-end identity check at realistic
//! scale), and neither batched path may regress: the process exits
//! non-zero if `speedup` drops below 1, or if `kernel_speedup` drops
//! below [`KERNEL_SPEEDUP_FLOOR`] ([`KERNEL_SPEEDUP_FLOOR_SMOKE`] in
//! smoke mode). Each capture is also encoded to a
//! byte sink, so the bench reports the store's `bytes_per_event`. Results
//! land in `BENCH_replay.json` (override the path with the first
//! argument).
//!
//! `--smoke` (or `REAP_BENCH_SMOKE=1`) shrinks the access budget for CI.

use reap_bench::access_budget;
use reap_cache::sample_ones_multi_batch;
use reap_core::capture_store::write_capture_v2;
use reap_core::{
    EccStrength, Experiment, ExposureCapture, ExposureStream, ProtectionScheme, Simulator,
};
use reap_mtj::MtjParams;
use reap_reliability::{ExposureKind, MultiReplayAggregator, ReplayAggregator};
use reap_trace::SpecWorkload;
use std::time::{Duration, Instant};

/// Exit floors of `kernel_speedup` at full and at smoke budget. On a
/// 2-core Xeon the batched kernel scores these inputs 11.1x faster than
/// per-point aggregators at full budget (4.4–5.1x over ten smoke runs),
/// while the retired scalar batched kernel managed 5.3x (3.1–3.5x): a
/// kernel that falls back to scalar speed fails.
const KERNEL_SPEEDUP_FLOOR: f64 = 8.0;
const KERNEL_SPEEDUP_FLOOR_SMOKE: f64 = 3.9;

/// Records decoded, sampled and scored per chunk of the kernel timing:
/// bounds the bench's buffers while keeping each timed span long.
const CHUNK: usize = 1 << 16;

/// Records per sampler and kernel block, as in the replay feeder.
const BLOCK: usize = 64;

/// Read currents (A) cycled across the 8 analysis points. All below the
/// default card's critical current; each gives a distinct `P_rd`.
const READ_CURRENTS: [f64; 8] = [70e-6, 65e-6, 60e-6, 55e-6, 50e-6, 45e-6, 40e-6, 35e-6];

fn failure_bits(r: &reap_core::Report) -> [u64; 4] {
    [
        r.expected_failures(ProtectionScheme::Conventional)
            .to_bits(),
        r.expected_failures(ProtectionScheme::Reap).to_bits(),
        r.expected_failures(ProtectionScheme::SerialTagFirst)
            .to_bits(),
        r.writeback_exposure().to_bits(),
    ]
}

/// Bit pattern of every observable a per-point aggregator carries.
fn aggregator_bits(a: &ReplayAggregator) -> ([u64; 4], [u64; 3]) {
    (
        [
            a.conventional().expected_failures().to_bits(),
            a.reap().expected_failures().to_bits(),
            a.serial().expected_failures().to_bits(),
            a.writeback_exposure().to_bits(),
        ],
        [
            a.conventional().events(),
            a.reap().events(),
            a.serial().events(),
        ],
    )
}

/// Scores `capture` at `points` by the batched kernel and by one
/// [`ReplayAggregator`] per point, fed the same decoded records and
/// sampled weights, and returns `(kernel, reference)` time. Asserts the
/// two agree bit for bit.
fn time_kernel(points: &[Simulator], capture: &ExposureCapture) -> (Duration, Duration) {
    let kernel_points = Simulator::batch_kernel_points(points, capture);
    let npts = kernel_points.len();
    let mut widths: Vec<usize> = kernel_points.iter().map(|&(_, w)| w as usize).collect();
    widths.sort_unstable();
    widths.dedup();
    let nw = widths.len();
    let slot: Vec<usize> = kernel_points
        .iter()
        .map(|&(_, w)| widths.binary_search(&(w as usize)).expect("width present"))
        .collect();

    let mut multi = MultiReplayAggregator::new(kernel_points.clone());
    let mut solo: Vec<ReplayAggregator> = kernel_points
        .iter()
        .map(|&(model, width)| ReplayAggregator::new(model, width))
        .collect();
    let (mut kernel, mut reference) = (Duration::ZERO, Duration::ZERO);
    let mut events = capture.iter().expect("capture stream");
    let mut kinds: Vec<(ExposureKind, u64)> = Vec::with_capacity(CHUNK);
    let mut keys: Vec<(u64, u64, u64)> = Vec::with_capacity(CHUNK);
    let mut by_width = vec![0u32; BLOCK * nw];
    let mut by_point = vec![0u32; CHUNK * npts];
    loop {
        kinds.clear();
        keys.clear();
        while kinds.len() < CHUNK {
            match events.next_record().expect("capture stream") {
                Some(r) => {
                    kinds.push((r.kind, r.unchecked_reads));
                    keys.push((r.key.tag, r.key.set, r.key.version));
                }
                None => break,
            }
        }
        if kinds.is_empty() {
            break;
        }
        let n = kinds.len();
        for (b, block) in keys.chunks(BLOCK).enumerate() {
            let out = &mut by_width[..block.len() * nw];
            sample_ones_multi_batch(capture.ones_seed(), block, &widths, out);
            for (row, ones) in out.chunks(nw).enumerate() {
                let at = (b * BLOCK + row) * npts;
                for (p, &s) in slot.iter().enumerate() {
                    by_point[at + p] = ones[s];
                }
            }
        }

        let t0 = Instant::now();
        for (records, ones) in kinds
            .chunks(BLOCK)
            .zip(by_point[..n * npts].chunks(BLOCK * npts))
        {
            multi.record_block(records, ones);
        }
        kernel += t0.elapsed();

        let t1 = Instant::now();
        for (p, agg) in solo.iter_mut().enumerate() {
            for (r, &(kind, reads)) in kinds.iter().enumerate() {
                agg.record(kind, by_point[r * npts + p], reads);
            }
        }
        reference += t1.elapsed();
    }
    for (p, (got, want)) in multi.finish().iter().zip(&solo).enumerate() {
        assert_eq!(
            aggregator_bits(got),
            aggregator_bits(want),
            "batched kernel diverged from per-point aggregators (point {p})"
        );
        assert_eq!(got.histogram(), want.histogram());
    }
    (kernel, reference)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut out_path = String::from("BENCH_replay.json");
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
    if metrics_out.is_some() {
        reap_bench::enable_telemetry();
    }
    let accesses = if smoke { 20_000 } else { access_budget() };
    let workloads = SpecWorkload::ALL;
    println!(
        "replay kernel benchmark — {} workloads x {} points, {accesses} accesses each{}",
        workloads.len(),
        READ_CURRENTS.len(),
        if smoke { " (smoke)" } else { "" }
    );

    // Analysis points are built once, outside both timed regions: the
    // benchmark measures replay cost, not code construction.
    let points: Vec<Simulator> = READ_CURRENTS
        .iter()
        .enumerate()
        .map(|(i, &i_read)| {
            let e = Experiment::paper_hierarchy()
                .accesses(accesses)
                .seed(reap_bench::DEFAULT_SEED)
                .ecc(EccStrength::ALL[i % EccStrength::ALL.len()])
                .mtj(
                    MtjParams::default()
                        .with_read_current(i_read)
                        .expect("read current below critical"),
                );
            Simulator::new(e.config().clone()).expect("paper configuration is valid")
        })
        .collect();

    let mut per_point_s = 0.0f64;
    let mut batched_s = 0.0f64;
    let (mut kernel, mut reference) = (Duration::ZERO, Duration::ZERO);
    let mut events = 0u64;
    let mut bytes = 0u64;
    for w in workloads {
        let capture = Experiment::paper_hierarchy()
            .workload(w)
            .accesses(accesses)
            .seed(reap_bench::DEFAULT_SEED)
            .capture()
            .expect("capture");
        events += capture.event_count();
        // Encode into a sink: the byte count is what the store would
        // pay, without disk I/O noise in the replay timings below.
        bytes += write_capture_v2(std::io::sink(), 0, &capture).expect("encode");

        let t0 = Instant::now();
        let independent: Vec<_> = points
            .iter()
            .map(|sim| sim.replay(&capture).expect("replay"))
            .collect();
        per_point_s += t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let batched = Simulator::replay_batch(&points, &capture).expect("batch");
        batched_s += t1.elapsed().as_secs_f64();

        for (i, (a, b)) in independent.iter().zip(&batched).enumerate() {
            assert_eq!(
                failure_bits(a),
                failure_bits(b),
                "batched kernel diverged from per-point replay ({} point {i})",
                w.name()
            );
        }

        let (k, r) = time_kernel(&points, &capture);
        kernel += k;
        reference += r;
    }

    let speedup = per_point_s / batched_s;
    let (kernel_s, reference_s) = (kernel.as_secs_f64(), reference.as_secs_f64());
    let kernel_speedup = reference_s / kernel_s;
    let event_points = events * READ_CURRENTS.len() as u64;
    let kernel_ns_per_event_point = kernel_s * 1e9 / event_points.max(1) as f64;
    let bytes_per_event = bytes as f64 / events.max(1) as f64;
    println!(
        "per-point: {per_point_s:.3} s   batched: {batched_s:.3} s   speedup: {speedup:.2}x \
         ({events} exposure events, bit-identical)"
    );
    println!(
        "kernel: {kernel_s:.3} s ({kernel_ns_per_event_point:.2} ns/event-point)   \
         per-point aggregators: {reference_s:.3} s   kernel speedup: {kernel_speedup:.2}x"
    );
    println!("encoding: {bytes_per_event:.2} B/event");

    let json = format!(
        "{{\n  \"accesses\": {accesses},\n  \"workloads\": {},\n  \"points\": {},\n  \
         \"exposure_events\": {events},\n  \"per_point_s\": {per_point_s:.6},\n  \
         \"batched_s\": {batched_s:.6},\n  \"speedup\": {speedup:.3},\n  \
         \"kernel_s\": {kernel_s:.6},\n  \"reference_s\": {reference_s:.6},\n  \
         \"kernel_speedup\": {kernel_speedup:.3},\n  \
         \"kernel_ns_per_event_point\": {kernel_ns_per_event_point:.3},\n  \
         \"bytes\": {bytes},\n  \"bytes_per_event\": {bytes_per_event:.3},\n  \
         \"bit_identical\": true,\n  \"smoke\": {smoke}\n}}\n",
        workloads.len(),
        READ_CURRENTS.len(),
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

    if speedup < 1.0 {
        eprintln!("FAIL: batched replay slower than per-point ({speedup:.2}x)");
        std::process::exit(1);
    }
    let floor = if smoke {
        KERNEL_SPEEDUP_FLOOR_SMOKE
    } else {
        KERNEL_SPEEDUP_FLOOR
    };
    if kernel_speedup < floor {
        eprintln!(
            "FAIL: batched kernel only {kernel_speedup:.2}x faster than per-point aggregators \
             (floor {floor:.1}x)"
        );
        std::process::exit(1);
    }
}
