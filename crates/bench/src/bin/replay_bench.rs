//! Performance benchmark for the batched multi-point replay kernel.
//!
//! Captures every SPEC workload profile once, then scores an 8-point
//! analysis sweep (ECC strengths cycled across distinct MTJ read
//! currents, so the points mix stored widths *and* `P_rd` values) two
//! ways over the same captures:
//!
//! 1. **per-point** — one [`Simulator::replay`] walk of the exposure
//!    stream per analysis point. `replay` is itself a one-point batched
//!    pass, so this is N one-point runs of the vectorized kernel and
//!    `speedup` prices amortising the stream walk and weight draws
//!    across points — not the retired per-record scalar loop that the
//!    committed `BENCH_replay.json` figure was measured against,
//! 2. **scalar batched** — one [`Simulator::replay_batch_scalar`] walk
//!    driving the pre-vectorization per-record kernel, and
//! 3. **batched** — one [`Simulator::replay_batch`] walk driving the
//!    vectorized kernel.
//!
//! The reports must agree bit-for-bit across all three (the bench fails
//! otherwise — it doubles as an end-to-end identity check at realistic
//! scale), and neither batched pass may regress: the process exits
//! non-zero if the batched speedup over per-point drops below 1, or if
//! the vectorized kernel is slower than its scalar ancestor
//! (`kernel_speedup < 1`). Each capture is additionally encoded
//! to a byte sink in both on-disk formats, so the bench reports
//! bytes-per-event for `reap-capture/1` and `/2` and the v1→v2
//! compression ratio alongside the kernel speedup. Results land in
//! `BENCH_replay.json` (override the path with the first argument).
//!
//! `--smoke` (or `REAP_BENCH_SMOKE=1`) shrinks the access budget for CI.

use reap_bench::access_budget;
use reap_core::capture_store::{write_capture, write_capture_v2};
use reap_core::{EccStrength, Experiment, ProtectionScheme, Simulator};
use reap_mtj::MtjParams;
use reap_trace::SpecWorkload;
use std::time::Instant;

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
    let mut scalar_s = 0.0f64;
    let mut batched_s = 0.0f64;
    let mut events = 0u64;
    let mut bytes_v1 = 0u64;
    let mut bytes_v2 = 0u64;
    for w in workloads {
        let capture = Experiment::paper_hierarchy()
            .workload(w)
            .accesses(accesses)
            .seed(reap_bench::DEFAULT_SEED)
            .capture()
            .expect("capture");
        events += capture.event_count();
        // Encode into a sink in both on-disk formats: the byte counts
        // quantify what the store would pay per format, without disk I/O
        // noise in the replay timings below.
        bytes_v1 += write_capture(std::io::sink(), 0, &capture).expect("v1 encode");
        bytes_v2 += write_capture_v2(std::io::sink(), 0, &capture).expect("v2 encode");

        let t0 = Instant::now();
        let independent: Vec<_> = points
            .iter()
            .map(|sim| sim.replay(&capture).expect("replay"))
            .collect();
        per_point_s += t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let scalar = Simulator::replay_batch_scalar(&points, &capture).expect("scalar batch");
        scalar_s += t1.elapsed().as_secs_f64();

        let t2 = Instant::now();
        let batched = Simulator::replay_batch(&points, &capture).expect("batch");
        batched_s += t2.elapsed().as_secs_f64();

        for (i, ((a, s), b)) in independent.iter().zip(&scalar).zip(&batched).enumerate() {
            assert_eq!(
                failure_bits(a),
                failure_bits(b),
                "batched kernel diverged from per-point replay ({} point {i})",
                w.name()
            );
            assert_eq!(
                failure_bits(s),
                failure_bits(b),
                "vectorized kernel diverged from the scalar kernel ({} point {i})",
                w.name()
            );
        }
    }

    let speedup = per_point_s / batched_s;
    let kernel_speedup = scalar_s / batched_s;
    let bytes_per_event_v1 = bytes_v1 as f64 / events.max(1) as f64;
    let bytes_per_event_v2 = bytes_v2 as f64 / events.max(1) as f64;
    let compression_ratio = bytes_v1 as f64 / bytes_v2.max(1) as f64;
    println!(
        "per-point: {per_point_s:.3} s   scalar: {scalar_s:.3} s   batched: {batched_s:.3} s   \
         speedup: {speedup:.2}x   kernel: {kernel_speedup:.2}x \
         ({events} exposure events, bit-identical)"
    );
    println!(
        "encoding: {bytes_per_event_v1:.2} B/event v1   {bytes_per_event_v2:.2} B/event v2   \
         compression: {compression_ratio:.2}x"
    );

    let json = format!(
        "{{\n  \"accesses\": {accesses},\n  \"workloads\": {},\n  \"points\": {},\n  \
         \"exposure_events\": {events},\n  \"per_point_s\": {per_point_s:.6},\n  \
         \"scalar_s\": {scalar_s:.6},\n  \"batched_s\": {batched_s:.6},\n  \
         \"speedup\": {speedup:.3},\n  \"kernel_speedup\": {kernel_speedup:.3},\n  \
         \"bytes_v1\": {bytes_v1},\n  \"bytes_v2\": {bytes_v2},\n  \
         \"bytes_per_event_v1\": {bytes_per_event_v1:.3},\n  \
         \"bytes_per_event_v2\": {bytes_per_event_v2:.3},\n  \
         \"compression_ratio\": {compression_ratio:.3},\n  \
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
    if kernel_speedup < 1.0 {
        eprintln!("FAIL: vectorized kernel slower than scalar ({kernel_speedup:.2}x)");
        std::process::exit(1);
    }
}
