//! Property-based tests for the REAP core: scheme invariants must hold
//! for arbitrary event streams, not just the built-in workloads.

use proptest::prelude::*;
use reap_cache::{sample_ones, AccessObserver, Hierarchy, LineKey, Replacement};
use reap_core::analysis::NumericExample;
use reap_core::campaign::{run_sweep_campaign, CampaignConfig, CampaignError, SweepMode};
use reap_core::checkpoint::{self, CheckpointMeta, CheckpointWriter, SweepRow};
use reap_core::supervise::{pool_map_supervised, SupervisorConfig};
use reap_core::{
    EccStrength, Experiment, ExposureCapture, ExposureRecord, ExposureStream, HierarchySnapshot,
    ProtectionScheme, ReliabilityObserver, Simulator,
};
use reap_fault::FaultPlan;
use reap_reliability::{AccumulationModel, ExposureKind, MultiReplayAggregator, ReplayAggregator};
use reap_trace::SpecWorkload;
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh scratch path per proptest case (cases run in one process).
fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!("reap-core-prop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(format!(
        "{tag}-{}.jsonl",
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Deterministic job body for pool properties: any change to a surviving
/// job's output is detectable.
fn mix(seed: u64, j: u64) -> u64 {
    let mut z = seed ^ j.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 31)
}

/// An adversarial analysis-point set for the kernel properties: up to
/// nine points, heterogeneous stored widths and disturb probabilities
/// (optionally including the certain failure corner `P = 1`), mixed
/// correction strengths.
fn kernel_points(num_points: usize, seed: u64, certain: bool) -> Vec<(AccumulationModel, u32)> {
    (0..num_points)
        .map(|p| {
            let p_rd = if certain && p == 0 {
                1.0
            } else {
                10f64.powi(-(1 + (mix(seed, p as u64) % 9) as i32))
            };
            let t = 1 + (mix(seed ^ 0x7e57, p as u64) % 3) as usize;
            let width = 64 + (mix(seed ^ 0x91d7, p as u64) % 500) as u32;
            (AccumulationModel::new(p_rd, t), width)
        })
        .collect()
}

/// A width-grouped analysis-point set: [`kernel_points`]' models, with
/// widths drawn from a pool of `pool` values in a seeded order, so points
/// of one width interleave with the others and groups of up to
/// `num_points` lanes form.
fn grouped_kernel_points(
    num_points: usize,
    pool: usize,
    seed: u64,
    certain: bool,
) -> Vec<(AccumulationModel, u32)> {
    let widths: Vec<u32> = (0..pool as u64)
        .map(|i| 64 + (mix(seed ^ 0x3a11, i) % 500) as u32)
        .collect();
    kernel_points(num_points, seed, certain)
        .into_iter()
        .enumerate()
        .map(|(p, (model, _))| {
            let g = mix(seed ^ 0x0dd, p as u64) % pool as u64;
            (model, widths[g as usize])
        })
        .collect()
}

/// Raw `(kind tag, ones seed, read count)` records stressing the memo
/// boundary, tiny and huge read counts, and every exposure kind.
fn kernel_record_strategy() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
    proptest::collection::vec(
        (
            0u8..3,
            any::<u64>(),
            prop_oneof![1u64..=3, 60u64..=70, 1u64..1_000_000, Just(u64::MAX),],
        ),
        1..250,
    )
}

/// Feeds one raw record list to an aggregator via its `record` calls,
/// scattering per-point ones counts (occasionally out of range, to
/// exercise the clamp path) from the record's ones seed.
fn feed_kernel<F: FnMut(ExposureKind, &[u32], u64)>(
    records: &[(u8, u64, u64)],
    points: &[(AccumulationModel, u32)],
    mut record: F,
) {
    let mut ones = vec![0u32; points.len()];
    for &(tag, ones_seed, n) in records {
        let kind = match tag {
            0 => ExposureKind::Demand,
            1 => ExposureKind::DirtyScrub,
            _ => ExposureKind::DirtyEviction,
        };
        // Demand reads count themselves, so N >= 1 by contract.
        let n = if kind == ExposureKind::Demand {
            n.max(1)
        } else {
            n
        };
        for (p, slot) in ones.iter_mut().enumerate() {
            *slot = (mix(ones_seed, p as u64) % (u64::from(points[p].1) + 2)) as u32;
        }
        record(kind, &ones, n);
    }
}

/// The capture's reference observer: it records what `CaptureObserver`
/// records, but reads weights, so the cache samples every one it hands
/// over. Each is checked against `sample_ones` of the line's key.
struct WeighedRecorder {
    seed: u64,
    bits: usize,
    records: Vec<ExposureRecord>,
    weighed: u64,
    wrong_weights: u64,
}

impl WeighedRecorder {
    fn weigh(&mut self, key: LineKey, ones: u32) {
        self.weighed += 1;
        if ones != sample_ones(self.seed, key.tag, key.set, key.version, self.bits) {
            self.wrong_weights += 1;
        }
    }

    fn push(&mut self, kind: ExposureKind, key: LineKey, unchecked_reads: u64) {
        self.records.push(ExposureRecord {
            kind,
            key,
            unchecked_reads,
        });
    }
}

impl AccessObserver for WeighedRecorder {
    fn demand_read_keyed(&mut self, key: LineKey, ones: u32, unchecked_reads: u64) {
        self.weigh(key, ones);
        self.push(ExposureKind::Demand, key, unchecked_reads);
    }

    fn eviction_keyed(&mut self, key: LineKey, dirty: bool, ones: u32, unchecked_reads: u64) {
        self.weigh(key, ones);
        if dirty && unchecked_reads > 0 {
            self.push(ExposureKind::DirtyEviction, key, unchecked_reads);
        }
    }

    fn scrub_check_keyed(&mut self, key: LineKey, dirty: bool, ones: u32, unchecked_reads: u64) {
        self.weigh(key, ones);
        if dirty {
            self.push(ExposureKind::DirtyScrub, key, unchecked_reads);
        }
    }
}

/// Flattens a campaign's rows to raw bits for exact comparison.
fn campaign_bits(outcome: &reap_core::CampaignOutcome) -> Vec<u64> {
    outcome
        .outcomes
        .iter()
        .flat_map(|o| {
            o.result
                .as_ref()
                .expect("job succeeded")
                .iter()
                .flat_map(|r| {
                    [
                        r.mttf_gain.to_bits(),
                        r.energy_overhead.to_bits(),
                        r.l2_hit_rate.to_bits(),
                        r.efail_conv.to_bits(),
                        r.max_n,
                    ]
                })
        })
        .collect()
}

proptest! {
    /// For any sequence of demand events, the expected-failure ordering
    /// conventional >= REAP >= serial holds.
    #[test]
    fn observer_ordering_for_arbitrary_event_streams(
        events in proptest::collection::vec((1u32..577, 1u64..50_000), 1..200),
        p_exp in -10.0f64..-4.0,
    ) {
        let model = AccumulationModel::sec(10f64.powf(p_exp));
        let mut obs = ReliabilityObserver::new(model, 576);
        for &(n_ones, n_reads) in &events {
            obs.demand_read(n_ones, n_reads);
        }
        let conv = obs.conventional().expected_failures();
        let reap = obs.reap().expected_failures();
        let serial = obs.serial().expected_failures();
        prop_assert!(conv >= reap);
        prop_assert!(reap >= serial);
        prop_assert_eq!(obs.conventional().events(), events.len() as u64);
        prop_assert_eq!(obs.histogram().total_count(), events.len() as u64);
    }

    /// The observer's histogram failure mass always equals the
    /// conventional aggregator's mass, event stream regardless.
    #[test]
    fn histogram_equals_conventional_mass(
        events in proptest::collection::vec((1u32..577, 1u64..10_000), 1..100),
    ) {
        let mut obs = ReliabilityObserver::new(AccumulationModel::sec(1e-7), 576);
        for &(n_ones, n_reads) in &events {
            obs.demand_read(n_ones, n_reads);
        }
        let diff = (obs.histogram().total_failure_probability()
            - obs.conventional().expected_failures())
        .abs();
        prop_assert!(diff <= 1e-12 * obs.conventional().expected_failures().max(1e-300));
    }

    /// The tentpole equivalence: replaying a capture at any analysis
    /// point is bit-identical to the historical single-pass run at that
    /// point — failure sums, writeback exposure, every histogram bin and
    /// all cache counters — for arbitrary workloads, seeds, replacement
    /// policies, and regardless of which ECC strength the capture itself
    /// was taken under.
    #[test]
    fn replay_is_bit_identical_to_single_pass(
        workload_index in 0usize..21,
        seed in any::<u64>(),
        capture_ecc in 0usize..3,
        replacement in prop_oneof![
            Just(Replacement::Lru),
            Just(Replacement::TreePlru),
            Just(Replacement::Fifo),
            Just(Replacement::Srrip),
        ],
    ) {
        let workload = SpecWorkload::ALL[workload_index];
        let base = Experiment::paper_hierarchy()
            .workload(workload)
            .replacement(replacement)
            .budgets(500, 4_000)
            .seed(seed);
        // One capture, taken at an arbitrary ECC strength…
        let capture = base
            .clone()
            .ecc(EccStrength::ALL[capture_ecc])
            .capture()
            .expect("capture");
        // …replayed at every strength against the reference single pass.
        for ecc in EccStrength::ALL {
            let point = base.clone().ecc(ecc);
            let direct = Simulator::new(point.config().clone())
                .expect("simulator")
                .run_single_pass(workload.stream(seed))
                .expect("single pass");
            let replayed = point.replay(&capture).expect("replay");
            for scheme in ProtectionScheme::ALL {
                prop_assert_eq!(
                    replayed.expected_failures(scheme).to_bits(),
                    direct.expected_failures(scheme).to_bits(),
                    "{} failures diverged at {} (capture taken at {})",
                    scheme, ecc, EccStrength::ALL[capture_ecc]
                );
            }
            prop_assert_eq!(
                replayed.writeback_exposure().to_bits(),
                direct.writeback_exposure().to_bits()
            );
            prop_assert_eq!(replayed.histogram(), direct.histogram());
            prop_assert_eq!(replayed.l2_stats(), direct.l2_stats());
            prop_assert_eq!(replayed.l1i_stats(), direct.l1i_stats());
            prop_assert_eq!(replayed.l1d_stats(), direct.l1d_stats());
            prop_assert_eq!(replayed.memory_reads(), direct.memory_reads());
            prop_assert_eq!(replayed.memory_writes(), direct.memory_writes());
        }
    }

    /// Capture samples no weights (`CaptureObserver` declares it does not
    /// read them), yet records exactly what a serial `Hierarchy::access`
    /// drive with a weight-reading observer records: the same records in
    /// the same order and the same hierarchy counters. Warm-ups range from
    /// none to several thousand accesses, so the warm-up/measure switch
    /// and the L2 stats reset land after a weightless warm-up of any
    /// length; scrub periods include every access. Every weight the
    /// reference was handed equals `sample_ones` of its line key. The
    /// capture holds its records only as the frames of its entry, coded
    /// while it ran: a streamed pass over them, and the entry's bytes, equal
    /// those of a capture assembled from the reference's whole record
    /// vector.
    #[test]
    fn capture_records_match_a_weighed_serial_drive(
        workload_index in 0usize..21,
        seed in any::<u64>(),
        replacement in prop_oneof![
            Just(Replacement::Lru),
            Just(Replacement::TreePlru),
            Just(Replacement::Fifo),
            any::<u64>().prop_map(Replacement::Random),
            Just(Replacement::Srrip),
            Just(Replacement::LeastErrorRate),
        ],
        budgets in (
            prop_oneof![Just(0u64), 1u64..64, 3_000u64..6_000],
            prop_oneof![1u64..300, 3_000u64..6_000],
        ),
        scrub_period in prop_oneof![Just(0u64), Just(1u64), Just(700u64)],
        check_bits in prop_oneof![Just(0usize), Just(64usize)],
    ) {
        let (warmup, measure) = budgets;
        // A scrub every access sweeps all 16,384 L2 lines each time, so
        // those cases keep the measured window short.
        let measure = if scrub_period == 1 { measure % 300 + 1 } else { measure };
        let workload = SpecWorkload::ALL[workload_index];
        let experiment = Experiment::paper_hierarchy()
            .workload(workload)
            .replacement(replacement)
            .budgets(warmup, measure)
            .scrub(scrub_period)
            .seed(seed);
        let capture = experiment.capture().expect("capture");

        let config = experiment.config();
        let mut hierarchy = Hierarchy::new(config.hierarchy.clone(), replacement);
        hierarchy.l2_mut().set_check_bits(check_bits);
        let mut reference = WeighedRecorder {
            seed: hierarchy.l2().ones_seed(),
            bits: hierarchy.l2().stored_line_bits(),
            records: Vec::new(),
            weighed: 0,
            wrong_weights: 0,
        };
        let mut trace = workload.stream(seed);
        for a in trace.by_ref().take(warmup as usize) {
            hierarchy.access(a, &mut ());
        }
        hierarchy.l2_mut().reset_stats();
        let mut since_scrub = 0u64;
        for a in trace.take(measure as usize) {
            hierarchy.access(a, &mut reference);
            if scrub_period > 0 {
                since_scrub += 1;
                if since_scrub >= scrub_period {
                    hierarchy.l2_mut().scrub(&mut reference);
                    since_scrub = 0;
                }
            }
        }

        prop_assert_eq!(capture.ones_seed(), reference.seed);
        let mut stream = capture.iter().expect("open frames");
        let mut streamed = Vec::new();
        while let Some(record) = stream.next_record().expect("decode frame") {
            streamed.push(record);
        }
        prop_assert_eq!(&streamed, &reference.records);
        let whole = ExposureCapture::from_parts(
            reference.records.clone(),
            *capture.snapshot(),
            capture.line_bits(),
            capture.ones_seed(),
            config.hierarchy.clone(),
            replacement,
            warmup,
            measure,
            scrub_period,
        ).expect("scoped entry");
        let fed = std::fs::read(capture.entry_path()).expect("read entry");
        let want = std::fs::read(whole.entry_path()).expect("read entry");
        prop_assert!(fed == want, "entries depend on how records were fed");
        prop_assert_eq!(capture.events(), reference.records.as_slice());
        prop_assert_eq!(*capture.snapshot(), HierarchySnapshot::of(&hierarchy));
        prop_assert!(reference.weighed >= reference.records.len() as u64);
        prop_assert_eq!(reference.wrong_weights, 0);
    }

    /// The batched multi-point kernel is a pure optimisation: scoring a
    /// capture at N analysis points in one pass over the exposure stream
    /// ([`Simulator::replay_batch`]) is bit-identical to N single-pass
    /// runs — failure sums per scheme, writeback exposure and every
    /// histogram bin — for arbitrary workloads, seeds, replacement
    /// policies, scrub periods and MTJ operating points, with the points
    /// deliberately mixing distinct stored widths (ECC strengths) and
    /// distinct `P_rd` values at equal width (read currents).
    #[test]
    fn batched_replay_is_bit_identical_to_single_pass(
        workload_index in 0usize..21,
        seed in any::<u64>(),
        read_current_ua in 45.0f64..75.0,
        replacement in prop_oneof![
            Just(Replacement::Lru),
            Just(Replacement::TreePlru),
            Just(Replacement::Fifo),
            Just(Replacement::Srrip),
        ],
        scrub_period in prop_oneof![Just(0u64), Just(700u64)],
    ) {
        let workload = SpecWorkload::ALL[workload_index];
        let base = Experiment::paper_hierarchy()
            .workload(workload)
            .replacement(replacement)
            .budgets(500, 4_000)
            .scrub(scrub_period)
            .seed(seed);
        let capture = base.clone().capture().expect("capture");
        // Six heterogeneous points: every ECC width at two MTJ cards.
        let cards = [
            reap_mtj::MtjParams::default(),
            reap_mtj::MtjParams::default()
                .with_read_current(read_current_ua * 1e-6)
                .expect("valid read current"),
        ];
        let mut points = Vec::new();
        for ecc in EccStrength::ALL {
            for card in &cards {
                let e = base.clone().ecc(ecc).mtj(*card);
                points.push(Simulator::new(e.config().clone()).expect("simulator"));
            }
        }
        let batched = Simulator::replay_batch(&points, &capture).expect("batch");
        prop_assert_eq!(batched.len(), points.len());
        for (sim, got) in points.iter().zip(&batched) {
            let want = sim
                .run_single_pass(workload.stream(seed))
                .expect("single pass");
            for scheme in ProtectionScheme::ALL {
                prop_assert_eq!(
                    got.expected_failures(scheme).to_bits(),
                    want.expected_failures(scheme).to_bits(),
                    "{} failures diverged from the single pass (scrub {})",
                    scheme, scrub_period
                );
            }
            prop_assert_eq!(
                got.writeback_exposure().to_bits(),
                want.writeback_exposure().to_bits()
            );
            prop_assert_eq!(got.histogram(), want.histogram());
        }
    }

    /// A replay kernel reused across captures
    /// ([`Simulator::replay_batch_into`] on one aggregator) is
    /// bit-identical to a fresh kernel per capture
    /// ([`Simulator::replay_batch`]): every scheme sum, writeback
    /// exposure, histogram bin and energy total agrees, at 1, 3, 5 and 21
    /// analysis points (remainder lanes alone and beside full 4-wide
    /// chunks), with scrubbing off and on (dirty scrubs beside dirty
    /// evictions).
    #[test]
    fn a_reused_replay_kernel_matches_a_fresh_one_per_capture(
        first in 0usize..21,
        seed in any::<u64>(),
        scrub_period in prop_oneof![Just(0u64), Just(700u64)],
        num_points in prop_oneof![Just(1usize), Just(3), Just(5), Just(21)],
    ) {
        let base = Experiment::paper_hierarchy()
            .budgets(500, 4_000)
            .scrub(scrub_period)
            .seed(seed);
        let captures: Vec<_> = (0..3)
            .map(|k| {
                base.clone()
                    .workload(SpecWorkload::ALL[(first + 7 * k) % 21])
                    .capture()
                    .expect("capture")
            })
            .collect();
        // ECC strengths cycle fastest, read currents step every three
        // points: the explorer's ecc × read-current layout.
        let points: Vec<Simulator> = (0..num_points)
            .map(|i| {
                let card = reap_mtj::MtjParams::default()
                    .with_read_current((0.7 + 0.05 * (i / 3) as f64) * 70e-6)
                    .expect("valid read current");
                let e = base.clone().ecc(EccStrength::ALL[i % 3]).mtj(card);
                Simulator::new(e.config().clone()).expect("simulator")
            })
            .collect();
        let mut kernel =
            MultiReplayAggregator::new(Simulator::batch_kernel_points(&points, &captures[0]));
        for capture in &captures {
            let reused = Simulator::replay_batch_into(&points, capture, &mut kernel)
                .expect("reused replay");
            let fresh = Simulator::replay_batch(&points, capture).expect("fresh");
            prop_assert_eq!(reused.len(), num_points);
            for (got, want) in reused.iter().zip(&fresh) {
                for scheme in ProtectionScheme::ALL {
                    prop_assert_eq!(
                        got.expected_failures(scheme).to_bits(),
                        want.expected_failures(scheme).to_bits()
                    );
                    prop_assert_eq!(
                        got.energy(scheme).total().to_bits(),
                        want.energy(scheme).total().to_bits()
                    );
                }
                prop_assert_eq!(
                    got.writeback_exposure().to_bits(),
                    want.writeback_exposure().to_bits()
                );
                prop_assert_eq!(got.histogram(), want.histogram());
            }
        }
    }

    /// The vectorized batched kernel is pinned bit-identical to
    /// independent per-point [`ReplayAggregator`]s for arbitrary record
    /// streams, fed record by record and in blocks: every failure sum,
    /// event count and histogram bin agrees to the bit across
    /// adversarial point counts (full 4-wide chunks plus remainders),
    /// stored widths, disturb probabilities (including the
    /// certain-failure corner), out-of-range ones counts and read counts
    /// spanning the memo boundary up to `u64::MAX`.
    #[test]
    fn vectorized_kernel_is_bit_identical_to_per_point_aggregators(
        num_points in 1usize..10,
        seed in any::<u64>(),
        certain in any::<bool>(),
        records in kernel_record_strategy(),
    ) {
        let points = kernel_points(num_points, seed, certain);
        let mut vectorized = MultiReplayAggregator::new(points.clone());
        let mut blocked = MultiReplayAggregator::new(points.clone());
        let mut solo: Vec<ReplayAggregator> = points
            .iter()
            .map(|&(model, width)| ReplayAggregator::new(model, width))
            .collect();
        let (mut block, mut block_ones) = (Vec::new(), Vec::new());
        feed_kernel(&records, &points, |kind, ones, n| {
            vectorized.record(kind, ones, n);
            for (agg, &o) in solo.iter_mut().zip(ones) {
                agg.record(kind, o, n);
            }
            block.push((kind, n));
            block_ones.extend_from_slice(ones);
            if block.len() == 64 {
                blocked.record_block(&block, &block_ones);
                block.clear();
                block_ones.clear();
            }
        });
        blocked.record_block(&block, &block_ones);
        for batch in [vectorized.finish(), blocked.finish()] {
            for (got, want) in batch.iter().zip(&solo) {
                prop_assert_eq!(
                    got.conventional().expected_failures().to_bits(),
                    want.conventional().expected_failures().to_bits()
                );
                prop_assert_eq!(got.conventional().events(), want.conventional().events());
                prop_assert_eq!(
                    got.reap().expected_failures().to_bits(),
                    want.reap().expected_failures().to_bits()
                );
                prop_assert_eq!(got.reap().events(), want.reap().events());
                prop_assert_eq!(
                    got.serial().expected_failures().to_bits(),
                    want.serial().expected_failures().to_bits()
                );
                prop_assert_eq!(got.serial().events(), want.serial().events());
                prop_assert_eq!(
                    got.writeback_exposure().to_bits(),
                    want.writeback_exposure().to_bits()
                );
                prop_assert_eq!(got.histogram(), want.histogram());
            }
        }
    }

    /// The width-grouped kernel is pinned bit-identical to independent
    /// per-point [`ReplayAggregator`]s when points share stored widths:
    /// widths come from a pool of two or three values in interleaved
    /// order, groups reach 40 lanes (so the group loop splits them into
    /// blocks of at most 8), and the same records are fed through the
    /// per-width entry and through the per-point `record_block`. Weights
    /// are drawn per width, occasionally one past the width to exercise
    /// the clamp; every failure sum, event count and histogram bin must
    /// agree to the bit.
    #[test]
    fn grouped_kernel_is_bit_identical_to_per_point_aggregators(
        num_points in 1usize..=40,
        pool in 2usize..=3,
        seed in any::<u64>(),
        certain in any::<bool>(),
        records in kernel_record_strategy(),
    ) {
        let points = grouped_kernel_points(num_points, pool, seed, certain);
        let mut by_width = MultiReplayAggregator::new(points.clone());
        let mut by_point = MultiReplayAggregator::new(points.clone());
        let widths = by_width.stored_widths().to_vec();
        let slot: Vec<usize> = points
            .iter()
            .map(|&(_, w)| widths.binary_search(&(w as usize)).expect("width present"))
            .collect();
        let mut solo: Vec<ReplayAggregator> = points
            .iter()
            .map(|&(model, width)| ReplayAggregator::new(model, width))
            .collect();
        let (mut block, mut width_ones, mut point_ones) = (Vec::new(), Vec::new(), Vec::new());
        for (i, &(tag, ones_seed, n)) in records.iter().enumerate() {
            let kind = match tag {
                0 => ExposureKind::Demand,
                1 => ExposureKind::DirtyScrub,
                _ => ExposureKind::DirtyEviction,
            };
            let n = if kind == ExposureKind::Demand { n.max(1) } else { n };
            let ones: Vec<u32> = widths
                .iter()
                .enumerate()
                .map(|(g, &w)| (mix(ones_seed, g as u64) % (w as u64 + 2)) as u32)
                .collect();
            for (agg, &s) in solo.iter_mut().zip(&slot) {
                agg.record(kind, ones[s], n);
            }
            block.push((kind, n));
            width_ones.extend_from_slice(&ones);
            point_ones.extend(slot.iter().map(|&s| ones[s]));
            if block.len() == 64 || i + 1 == records.len() {
                by_width.record_block_by_width(&block, &width_ones);
                by_point.record_block(&block, &point_ones);
                block.clear();
                width_ones.clear();
                point_ones.clear();
            }
        }
        for batch in [by_width.finish(), by_point.finish()] {
            prop_assert_eq!(batch.len(), solo.len());
            for (got, want) in batch.iter().zip(&solo) {
                prop_assert_eq!(
                    got.conventional().expected_failures().to_bits(),
                    want.conventional().expected_failures().to_bits()
                );
                prop_assert_eq!(got.conventional().events(), want.conventional().events());
                prop_assert_eq!(
                    got.reap().expected_failures().to_bits(),
                    want.reap().expected_failures().to_bits()
                );
                prop_assert_eq!(got.reap().events(), want.reap().events());
                prop_assert_eq!(
                    got.serial().expected_failures().to_bits(),
                    want.serial().expected_failures().to_bits()
                );
                prop_assert_eq!(got.serial().events(), want.serial().events());
                prop_assert_eq!(
                    got.writeback_exposure().to_bits(),
                    want.writeback_exposure().to_bits()
                );
                prop_assert_eq!(got.histogram(), want.histogram());
            }
        }
    }

    /// Checkpoint rows survive a write/load cycle bit-exactly for
    /// arbitrary payloads — including NaNs, infinities and subnormals,
    /// which a decimal float round-trip would mangle.
    #[test]
    fn checkpoint_round_trips_arbitrary_rows_bit_exactly(
        bits in proptest::collection::vec(any::<u64>(), 4..40),
    ) {
        let rows: Vec<SweepRow> = bits
            .chunks_exact(4)
            .map(|c| SweepRow {
                ecc: match c[0] % 4 {
                    0 => None,
                    1 => Some(EccStrength::Sec),
                    2 => Some(EccStrength::Dec),
                    _ => Some(EccStrength::Tec),
                },
                mttf_gain: f64::from_bits(c[1]),
                energy_overhead: f64::from_bits(c[2]),
                l2_hit_rate: f64::from_bits(c[3]),
                efail_conv: f64::from_bits(c[1] ^ c[2]),
                max_n: c[3],
            })
            .collect();
        let path = scratch("roundtrip");
        let meta = CheckpointMeta::new("standard", 1, 2, &["prop".to_owned()]);
        let mut writer = CheckpointWriter::create(&path, &meta).expect("create");
        let encoded: Vec<String> = rows.iter().map(checkpoint::row_to_json).collect();
        writer.record_json_rows("prop", &encoded).expect("record");
        drop(writer);

        let loaded = checkpoint::load(&path).expect("load");
        prop_assert_eq!(loaded.meta.fingerprint, meta.fingerprint);
        prop_assert!(loaded.truncated_tail.is_none());
        prop_assert_eq!(loaded.completed.len(), 1);
        let (key, got) = &loaded.completed[0];
        prop_assert_eq!(key.as_str(), "prop");
        prop_assert_eq!(got.len(), rows.len());
        for (a, b) in got.iter().zip(&rows) {
            prop_assert_eq!(a.ecc, b.ecc);
            prop_assert_eq!(a.mttf_gain.to_bits(), b.mttf_gain.to_bits());
            prop_assert_eq!(a.energy_overhead.to_bits(), b.energy_overhead.to_bits());
            prop_assert_eq!(a.l2_hit_rate.to_bits(), b.l2_hit_rate.to_bits());
            prop_assert_eq!(a.efail_conv.to_bits(), b.efail_conv.to_bits());
            prop_assert_eq!(a.max_n, b.max_n);
        }
        std::fs::remove_file(path).ok();
    }

    /// Chopping an arbitrary number of bytes off the checkpoint tail (a
    /// kill mid-write) never corrupts what load returns: the surviving
    /// records are an exact prefix of what was written.
    #[test]
    fn killed_checkpoint_loads_an_exact_prefix(
        seeds in proptest::collection::vec(any::<u64>(), 1..6),
        chop in 1u64..80,
    ) {
        let keys: Vec<String> = (0..seeds.len()).map(|i| format!("k{i}")).collect();
        let path = scratch("chop");
        let meta = CheckpointMeta::new("standard", 7, 8, &keys);
        let mut writer = CheckpointWriter::create(&path, &meta).expect("create");
        let mut written = Vec::new();
        for (key, &s) in keys.iter().zip(&seeds) {
            let row = SweepRow {
                ecc: None,
                mttf_gain: f64::from_bits(mix(s, 0)),
                energy_overhead: f64::from_bits(mix(s, 1)),
                l2_hit_rate: f64::from_bits(mix(s, 2)),
                efail_conv: f64::from_bits(mix(s, 3)),
                max_n: mix(s, 4),
            };
            let encoded = [checkpoint::row_to_json(&row)];
            writer.record_json_rows(key, &encoded).expect("record");
            written.push((key.clone(), row));
        }
        drop(writer);

        // Never cut into the meta line itself — that is unrecoverable by
        // design (there is nothing to resume from).
        let len = std::fs::metadata(&path).expect("meta").len();
        let text = std::fs::read_to_string(&path).expect("read");
        let meta_end = text.find('\n').expect("meta line") as u64 + 1;
        let keep = len.saturating_sub(chop).max(meta_end);
        reap_fault::truncate_file(&path, keep).expect("truncate");

        let loaded = checkpoint::load(&path).expect("a chopped tail still loads");
        prop_assert!(loaded.completed.len() <= written.len());
        for ((got_key, got_rows), (want_key, want_row)) in
            loaded.completed.iter().zip(&written)
        {
            prop_assert_eq!(got_key, want_key, "records load in written order");
            prop_assert_eq!(got_rows.len(), 1);
            prop_assert_eq!(got_rows[0].mttf_gain.to_bits(), want_row.mttf_gain.to_bits());
            prop_assert_eq!(got_rows[0].max_n, want_row.max_n);
        }
        if keep < len {
            prop_assert!(
                loaded.truncated_tail.is_some() || loaded.completed.len() < written.len()
                    || keep == len - 1,
                "a real cut is either a partial line or lost whole lines"
            );
        }
        std::fs::remove_file(path).ok();
    }

    /// Injected panics, delays and retries never change a surviving job's
    /// result: supervision is invisible to jobs that complete.
    #[test]
    fn injected_faults_never_corrupt_surviving_results(
        seed in any::<u64>(),
        panic_rate in 0.0f64..0.6,
        delay_rate in 0.0f64..0.3,
        retries in 0u32..5,
    ) {
        let plan = FaultPlan {
            seed,
            panic_rate,
            delay_rate,
            delay: std::time::Duration::from_millis(1),
            ..FaultPlan::default()
        };
        let config = SupervisorConfig {
            max_retries: retries,
            fault_plan: Some(plan),
            ..SupervisorConfig::default()
        };
        let jobs: Vec<u64> = (0..24).collect();
        let job_seed = seed;
        let out = pool_map_supervised(
            jobs,
            4,
            "prop_pool",
            &config,
            || (),
            move |_, j| mix(job_seed, j),
            |_, _| ControlFlow::Continue(()),
        );
        prop_assert_eq!(out.len(), 24);
        for (i, o) in out.iter().enumerate() {
            if let Ok(v) = &o.result {
                prop_assert_eq!(*v, mix(seed, i as u64), "job {} corrupted", i);
            }
            prop_assert!(o.attempts <= retries + 1);
        }
    }

    /// The tentpole recovery guarantee, across arbitrary seeds and kill
    /// points: checkpoint → kill → resume produces rows bit-identical to
    /// the campaign that was never interrupted.
    #[test]
    fn campaign_kill_resume_is_bit_identical_across_seeds(
        seed in any::<u64>(),
        kill_after in 1u64..8,
    ) {
        let base = CampaignConfig::new(1_000, seed, SweepMode::Standard, 4);
        let clean = run_sweep_campaign(&base, |_| ControlFlow::Continue(())).expect("clean campaign");

        let path = scratch("resume");
        let mut cfg = base.clone();
        cfg.checkpoint = Some(path.clone());
        cfg.supervisor.fault_plan = Some(FaultPlan {
            interrupt_after: Some(kill_after),
            ..FaultPlan::default()
        });
        let err = run_sweep_campaign(&cfg, |_| ControlFlow::Continue(())).expect_err("must interrupt");
        prop_assert!(matches!(err, CampaignError::Interrupted { .. }));

        let mut cfg = base.clone();
        cfg.checkpoint = Some(path.clone());
        cfg.resume = true;
        let resumed = run_sweep_campaign(&cfg, |_| ControlFlow::Continue(())).expect("resumed campaign");
        prop_assert!(resumed.resumed >= kill_after as usize);
        prop_assert_eq!(resumed.failed, 0);
        prop_assert_eq!(campaign_bits(&clean), campaign_bits(&resumed));
        std::fs::remove_file(path).ok();
    }

    /// The closed-form numeric example scales correctly in each parameter.
    #[test]
    fn numeric_example_monotonicity(
        n_ones in 10u32..500,
        n_reads in 2u64..10_000,
    ) {
        let e = NumericExample::with_parameters(1e-8, n_ones, n_reads);
        prop_assert!(e.p_err_accumulated >= e.p_err_reap);
        prop_assert!(e.p_err_reap >= e.p_err_single);
        let e2 = NumericExample::with_parameters(1e-8, n_ones, n_reads * 2);
        prop_assert!(e2.p_err_accumulated >= e.p_err_accumulated);
    }
}
