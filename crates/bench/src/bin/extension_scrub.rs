//! Extension **E-SCRUB**: periodic scrubbing as the classical alternative
//! to REAP. A scrub sweep reads, checks and rewrites every valid L2 line
//! every `P` demand accesses, bounding accumulation at the cost of extra
//! array reads/decodes (and bank occupancy). REAP is the `P → 1-access`
//! limit at far lower cost because its checks ride on reads that happen
//! anyway.
//!
//! Runs two-phase: the scrub period is *behavioural* — it changes which
//! exposure events occur — so each period gets its own capture pass, but
//! every capture then replays across all three ECC strengths
//! analysis-side. The trace is driven once per period instead of once per
//! `(period, ECC)` point.
//!
//! Accounting note: every configuration (including the no-scrub baseline)
//! receives one *terminal* scrub so that disturbance still latent in
//! resident lines at window end is counted everywhere — otherwise the
//! no-scrub baseline would silently truncate its own accumulated risk.

use reap_bench::{access_budget, enable_telemetry, print_csv, TwoPhaseSummary, DEFAULT_SEED};
use reap_cache::{Hierarchy, HierarchyConfig, Replacement};
use reap_core::{
    CaptureObserver, EccStrength, ExposureCapture, HierarchySnapshot, ProtectionScheme,
    SimulationConfig, Simulator,
};
use reap_trace::SpecWorkload;

/// Phase 1 for one scrub period: drives the paper hierarchy once with a
/// [`CaptureObserver`], scrubbing the L2 every `period` accesses (`None` =
/// unscrubbed), and returns the analysis-independent capture plus the
/// number of scrub checks performed.
fn capture_with_scrub(
    workload: SpecWorkload,
    accesses: u64,
    period: Option<u64>,
) -> (ExposureCapture, u64) {
    // The hand-rolled trace pass records itself under the same phase name
    // Simulator::capture uses, so the shared two-phase summary covers it.
    let mut span = reap_obs::span("capture");
    let config = HierarchyConfig::paper();
    let line_bits = config.l2.line_bits();
    let mut hierarchy = Hierarchy::new(config.clone(), Replacement::Lru);
    let ones_seed = hierarchy.l2().ones_seed();
    let mut observer = CaptureObserver::new();
    let mut stream = workload.stream(DEFAULT_SEED);
    let warmup = accesses / 10;
    for a in stream.by_ref().take(warmup as usize) {
        hierarchy.access(a, &mut ());
    }
    hierarchy.l2_mut().reset_stats();
    let mut since_scrub = 0u64;
    for a in stream.take(accesses as usize) {
        hierarchy.access(a, &mut observer);
        if let Some(p) = period {
            since_scrub += 1;
            if since_scrub >= p {
                hierarchy.l2_mut().scrub(&mut observer);
                since_scrub = 0;
            }
        }
    }
    // Terminal scrub: surface latent accumulation in every configuration.
    hierarchy.l2_mut().scrub(&mut observer);
    let scrub_checks = hierarchy.l2().stats().scrub_checks;
    let capture = ExposureCapture::from_parts(
        observer.into_records(),
        HierarchySnapshot::of(&hierarchy),
        line_bits,
        ones_seed,
        config,
        Replacement::Lru,
        warmup,
        accesses,
        period.unwrap_or(0),
    )
    .expect("the capture's scoped entry is writable");
    span.add_events(warmup + accesses);
    (capture, scrub_checks)
}

/// Phase 2: scores one capture at every ECC strength in a single batched
/// pass (each point resamples the line weights at its own stored width),
/// returning the per-strength `(conventional, REAP)` failures.
fn replay_all(capture: &ExposureCapture) -> [(f64, f64); 3] {
    // The points share the capture's behavioural configuration — scrub
    // period included — and differ only in ECC strength.
    let points = EccStrength::ALL.map(|ecc| {
        Simulator::new(SimulationConfig {
            hierarchy: capture.hierarchy().clone(),
            replacement: capture.replacement(),
            ecc,
            warmup_accesses: capture.warmup_accesses(),
            measure_accesses: capture.measure_accesses(),
            scrub_period: capture.scrub_period(),
            ..SimulationConfig::default()
        })
        .expect("paper configuration is valid")
    });
    let reports = Simulator::replay_batch(&points, capture)
        .expect("points share the capture's behavioural configuration");
    std::array::from_fn(|i| {
        (
            reports[i].expected_failures(ProtectionScheme::Conventional),
            reports[i].expected_failures(ProtectionScheme::Reap),
        )
    })
}

fn main() {
    enable_telemetry();
    let accesses = access_budget().min(4_000_000);
    let workload = SpecWorkload::DealII;
    let periods = [1_000_000u64, 300_000, 100_000, 30_000, 10_000];

    println!("Extension — periodic scrubbing vs REAP ({workload}, {accesses} accesses)");
    println!();
    let (baseline, _) = capture_with_scrub(workload, accesses, None);
    let base_fails = replay_all(&baseline);
    let (no_scrub, reap) = base_fails[0];
    println!("no scrub (conventional): E[fail] = {no_scrub:.3e}");
    println!(
        "REAP                   : E[fail] = {reap:.3e}  (gain {:.1}x)",
        no_scrub / reap
    );
    println!();
    println!(
        "{:>12} {:>16} {:>12} {:>14} {:>16}",
        "scrub period", "E[fail] SEC", "gain", "scrub checks", "extra reads/acc"
    );

    let mut rows = Vec::new();
    let mut cross = vec![("none".to_string(), base_fails)];
    for period in periods {
        let (capture, scrubs) = capture_with_scrub(workload, accesses, Some(period));
        let fails = replay_all(&capture);
        let (fail, _) = fails[0];
        let extra = scrubs as f64 / accesses as f64;
        println!(
            "{:>12} {:>16.3e} {:>11.1}x {:>14} {:>16.3}",
            period,
            fail,
            no_scrub / fail,
            scrubs,
            extra
        );
        rows.push(format!(
            "{period},{fail:.6e},{:.3},{scrubs},{extra:.4},{:.6e},{:.6e}",
            no_scrub / fail,
            fails[1].0,
            fails[2].0
        ));
        cross.push((period.to_string(), fails));
    }

    println!();
    println!(
        "Scrub period × ECC strength (conventional E[fail]; one capture per row, three replays):"
    );
    println!(
        "{:>12} {:>16} {:>16} {:>16}",
        "scrub period", "SEC", "DEC", "TEC"
    );
    for (label, fails) in &cross {
        println!(
            "{:>12} {:>16.3e} {:>16.3e} {:>16.3e}",
            label, fails[0].0, fails[1].0, fails[2].0
        );
    }

    println!();
    let s = TwoPhaseSummary::from_global();
    println!(
        "Two-phase cost: {:.2} s capturing {} periods + {:.2} s replaying {} \
         (period, ECC) points (vs ≈{:.2} s for {} from-scratch runs — {:.1}x speedup)",
        s.capture_s,
        s.captures,
        s.replay_s,
        s.replays,
        s.estimated_single_pass_s(),
        s.replays,
        s.speedup()
    );
    println!();
    println!(
        "Reading: scrubbing approaches REAP's reliability only when the sweep \
         period shrinks toward the inter-access scale, by which point the \
         scrub traffic rivals the demand traffic; REAP gets the same \
         guarantee from decoders on reads that happen anyway."
    );
    print_csv(
        "scrub_period,expected_failures,gain_vs_no_scrub,scrub_checks,extra_reads_per_access,fail_dec,fail_tec",
        &rows,
    );
}
