//! Property-based tests for the reliability mathematics.

use proptest::prelude::*;
use reap_reliability::{
    pareto_front_indices, uncorrectable_probability, AccumulationModel, ExposureKind,
    FailureAggregator, LogHistogram, Mttf, MultiReplayAggregator, ParetoPoint, ReplayAggregator,
    ReplayScore,
};

/// Stored widths the random points draw from: few enough that points
/// share widths, so the kernel's width groups hold several lanes.
const WIDTHS: [u32; 3] = [130, 522, 542];

/// `npts` random analysis points over [`WIDTHS`].
fn random_points(npts: usize, seed: u64) -> Vec<(AccumulationModel, u32)> {
    let mut state = seed;
    (0..npts)
        .map(|_| {
            state = step(state);
            let p_rd = 10f64.powi(-(2 + (state % 8) as i32));
            let t = 1 + (state >> 8) as usize % 3;
            (
                AccumulationModel::new(p_rd, t),
                WIDTHS[(state >> 16) as usize % 3],
            )
        })
        .collect()
}

fn step(state: u64) -> u64 {
    state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

/// A random stream of `len` records with one weight per width of
/// [`WIDTHS`]: every kind, `N` mostly small but sometimes far past the
/// dense region, and a weight now and then past its width.
fn random_stream(len: usize, seed: u64) -> Vec<(ExposureKind, u64, [u32; 3])> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = step(state);
            let kind = match state % 6 {
                0 => ExposureKind::DirtyScrub,
                1 => ExposureKind::DirtyEviction,
                _ => ExposureKind::Demand,
            };
            let reads = match (state >> 4) % 10 {
                0 => 65 + (state >> 20) % 100_000,
                1 => 60 + (state >> 20) % 8,
                _ => 1 + (state >> 20) % 6,
            };
            let ones = std::array::from_fn(|g| {
                let spread = (state >> (24 + 8 * g)) as u32 % 64;
                (WIDTHS[g] / 2 + spread).saturating_sub(32) + u32::from((state >> 60) == 0) * 600
            });
            (kind, reads, ones)
        })
        .collect()
}

/// The weight a point of stored width `width` sees among a record's weights.
fn weight_at(ones: &[u32; 3], width: u32) -> u32 {
    ones[WIDTHS.iter().position(|&w| w == width).unwrap()]
}

/// Every observable of a score, as bits.
fn score_bits(s: &ReplayScore) -> Vec<u64> {
    let mut bits = vec![
        s.conventional().expected_failures().to_bits(),
        s.conventional().events(),
        s.reap().expected_failures().to_bits(),
        s.reap().events(),
        s.serial().expected_failures().to_bits(),
        s.serial().events(),
        s.writeback_exposure().to_bits(),
        s.histogram().max_n(),
    ];
    for bin in s.histogram().bins() {
        bits.extend([bin.count, bin.failure_probability.to_bits()]);
    }
    bits
}

/// Cuts `len` items into consecutive runs of 1 to `max` items.
fn random_splits(len: usize, max: usize, seed: u64) -> Vec<std::ops::Range<usize>> {
    let (mut state, mut at, mut runs) = (seed, 0, Vec::new());
    while at < len {
        state = step(state);
        let n = (1 + state as usize % max).min(len - at);
        runs.push(at..at + n);
        at += n;
    }
    runs
}

/// Neumaier's compensated sum.
fn compensated_sum(terms: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut carry) = (0.0f64, 0.0f64);
    for t in terms {
        let next = sum + t;
        carry += if sum.abs() >= t.abs() {
            (sum - next) + t
        } else {
            (t - next) + sum
        };
        sum = next;
    }
    sum + carry
}

proptest! {
    /// The uncorrectable probability is always a probability and is
    /// monotone in trials and p, antitone in t.
    #[test]
    fn tail_bounds_and_monotonicity(
        trials in 1u64..1_000_000,
        p_exp in -12.0f64..-1.0,
        t in 1usize..4,
    ) {
        let p = 10f64.powf(p_exp);
        let u = uncorrectable_probability(trials, p, t);
        prop_assert!((0.0..=1.0).contains(&u));
        let u_more_trials = uncorrectable_probability(trials * 2, p, t);
        prop_assert!(u_more_trials >= u);
        let u_higher_p = uncorrectable_probability(trials, (p * 2.0).min(1.0), t);
        prop_assert!(u_higher_p >= u);
        let u_stronger = uncorrectable_probability(trials, p, t + 1);
        prop_assert!(u_stronger <= u);
    }

    /// Eq. (3) >= Eq. (6) >= single read, for all parameters: the paper's
    /// central inequality chain.
    #[test]
    fn accumulation_dominates_reap_dominates_single(
        n_ones in 1u32..600,
        n_reads in 1u64..100_000,
        p_exp in -10.0f64..-3.0,
    ) {
        let model = AccumulationModel::sec(10f64.powf(p_exp));
        let conv = model.fail_conventional(n_ones, n_reads);
        let reap = model.fail_reap(n_ones, n_reads);
        let single = model.fail_single(n_ones);
        prop_assert!(conv >= reap - 1e-300, "conv {conv} < reap {reap}");
        prop_assert!(reap >= single - 1e-300, "reap {reap} < single {single}");
    }

    /// For SEC in the light regime the REAP gain is ≈ N (within 20 % when
    /// N·n·p < 0.1) — the asymptotic law behind Fig. 5.
    #[test]
    fn sec_gain_approximates_n(n_reads in 2u64..10_000) {
        let model = AccumulationModel::sec(1e-9);
        let n_ones = 256u32;
        prop_assume!((n_reads as f64) * 256.0 * 1e-9 < 0.1);
        let gain = model.improvement(n_ones, n_reads);
        prop_assert!(
            (gain / n_reads as f64 - 1.0).abs() < 0.2,
            "N = {n_reads}, gain {gain}"
        );
    }

    /// For light-tail SEC the closed form C(m,2)p² approximates the tail.
    #[test]
    fn light_tail_matches_pair_count(trials in 2u64..10_000) {
        let p = 1e-9;
        let u = uncorrectable_probability(trials, p, 1);
        let pairs = trials as f64 * (trials - 1) as f64 / 2.0 * p * p;
        prop_assert!((u / pairs - 1.0).abs() < 0.01, "u {u}, pairs {pairs}");
    }

    /// Aggregator totals equal the sum of recorded probabilities.
    #[test]
    fn aggregator_is_a_sum(ps in proptest::collection::vec(0.0f64..1.0, 1..100)) {
        let mut agg = FailureAggregator::new();
        for &p in &ps {
            agg.record(p);
        }
        let expected: f64 = ps.iter().sum();
        prop_assert!((agg.expected_failures() - expected).abs() < 1e-9);
        prop_assert_eq!(agg.events(), ps.len() as u64);
    }

    /// Histogram: total counts and failure mass are preserved under
    /// arbitrary record sequences, and merging two histograms equals
    /// recording their union.
    #[test]
    fn histogram_merge_is_union(
        a in proptest::collection::vec((1u64..100_000, 0.0f64..0.01), 0..50),
        b in proptest::collection::vec((1u64..100_000, 0.0f64..0.01), 0..50),
    ) {
        let mut ha = LogHistogram::new();
        for &(n, p) in &a {
            ha.record(n, p);
        }
        let mut hb = LogHistogram::new();
        for &(n, p) in &b {
            hb.record(n, p);
        }
        let mut merged = ha.clone();
        merged.merge(&hb);
        let mut direct = LogHistogram::new();
        for &(n, p) in a.iter().chain(b.iter()) {
            direct.record(n, p);
        }
        prop_assert_eq!(merged.total_count(), direct.total_count());
        prop_assert!(
            (merged.total_failure_probability() - direct.total_failure_probability()).abs()
                < 1e-12
        );
        prop_assert_eq!(merged.max_n(), direct.max_n());
    }

    /// The extracted Pareto front is exactly the non-dominated subset:
    /// every front member is undominated, every non-member is dominated
    /// by someone. Values are drawn from small pools rich in ties, zeros
    /// and infinite MTTFs (the zero-expected-failure corner the
    /// `normalized_to` fix makes safe to rank).
    #[test]
    fn pareto_front_is_exactly_the_nondominated_subset(
        raw in proptest::collection::vec((0usize..4, 0usize..4, 0usize..3), 1..40),
    ) {
        const MTTFS: [f64; 4] = [1.0, 1e6, 1e12, f64::INFINITY];
        const ENERGIES: [f64; 4] = [0.0, 1.0, 2.0, 3.0];
        const AREAS: [f64; 3] = [1.0, 2.0, 4.0];
        let points: Vec<ParetoPoint> = raw
            .iter()
            .map(|&(m, e, a)| {
                ParetoPoint::new(Mttf::from_seconds(MTTFS[m]), ENERGIES[e], AREAS[a])
            })
            .collect();
        let front = pareto_front_indices(&points);
        for i in 0..points.len() {
            let dominated = points.iter().any(|o| o.dominates(&points[i]));
            prop_assert_eq!(
                front.contains(&i),
                !dominated,
                "point {} front membership must equal non-domination",
                i
            );
        }
        // The front is never empty and indices come back sorted.
        prop_assert!(!front.is_empty());
        prop_assert!(front.windows(2).all(|w| w[0] < w[1]));
    }

    /// The kernel's result is bit-identical however the stream is split
    /// into calls and blocks: per record, per-point blocks, per-width
    /// blocks of random sizes, and independent per-point aggregators.
    #[test]
    fn scores_do_not_depend_on_how_the_stream_is_fed(
        npts in 1usize..9,
        len in 0usize..400,
        seed in any::<u64>(),
    ) {
        let points = random_points(npts, seed);
        let stream = random_stream(len, seed ^ 0x5eed);
        let mut solo: Vec<ReplayAggregator> =
            points.iter().map(|&(m, w)| ReplayAggregator::new(m, w)).collect();
        let mut by_record = MultiReplayAggregator::new(points.clone());
        let mut by_point = MultiReplayAggregator::new(points.clone());
        let mut by_width = MultiReplayAggregator::new(points.clone());
        let widths: Vec<u32> = by_width.stored_widths().iter().map(|&w| w as u32).collect();
        for (kind, reads, ones) in &stream {
            let row: Vec<u32> = points.iter().map(|&(_, w)| weight_at(ones, w)).collect();
            by_record.record(*kind, &row, *reads);
            for (agg, &o) in solo.iter_mut().zip(&row) {
                agg.record(*kind, o, *reads);
            }
        }
        for run in random_splits(len, 70, seed) {
            let records: Vec<(ExposureKind, u64)> =
                stream[run.clone()].iter().map(|&(k, n, _)| (k, n)).collect();
            let per_point: Vec<u32> = stream[run.clone()]
                .iter()
                .flat_map(|(_, _, ones)| points.iter().map(move |&(_, w)| weight_at(ones, w)))
                .collect();
            by_point.record_block(&records, &per_point);
        }
        for run in random_splits(len, 130, !seed) {
            let records: Vec<(ExposureKind, u64)> =
                stream[run.clone()].iter().map(|&(k, n, _)| (k, n)).collect();
            let per_width: Vec<u32> = stream[run]
                .iter()
                .flat_map(|(_, _, ones)| widths.iter().map(move |&w| weight_at(ones, w)))
                .collect();
            by_width.record_block_by_width(&records, &per_width);
        }
        let want: Vec<Vec<u64>> = solo.iter().map(|a| score_bits(a.score())).collect();
        for kernel in [by_record, by_point, by_width] {
            let got: Vec<Vec<u64>> = kernel.finish().iter().map(score_bits).collect();
            prop_assert_eq!(&got, &want);
        }
    }

    /// Every sum agrees within 1e-12, relative, with a compensated sum of
    /// the same per-record terms taken straight from the model: the
    /// independent check on the tally and its fold.
    #[test]
    fn sums_match_a_compensated_sum_of_per_record_terms(
        npts in 1usize..6,
        len in 0usize..500,
        seed in any::<u64>(),
    ) {
        let points = random_points(npts, seed);
        let stream = random_stream(len, seed ^ 0x0c1e);
        let mut kernel = MultiReplayAggregator::new(points.clone());
        let widths: Vec<u32> = kernel.stored_widths().iter().map(|&w| w as u32).collect();
        let records: Vec<(ExposureKind, u64)> = stream.iter().map(|&(k, n, _)| (k, n)).collect();
        let per_width: Vec<u32> = stream
            .iter()
            .flat_map(|(_, _, ones)| widths.iter().map(move |&w| weight_at(ones, w)))
            .collect();
        kernel.record_block_by_width(&records, &per_width);
        for (score, &(model, width)) in kernel.finish().iter().zip(&points) {
            let terms = |want: ExposureKind, term: &dyn Fn(u32, u64) -> f64| {
                compensated_sum(stream.iter().filter(|r| r.0 == want).map(|(_, n, ones)| {
                    term(weight_at(ones, width), *n)
                }))
            };
            let conv = |o, n| model.fail_conventional(o, n);
            let oracle = [
                (
                    score.conventional().expected_failures(),
                    terms(ExposureKind::Demand, &conv) + terms(ExposureKind::DirtyScrub, &conv),
                ),
                (
                    score.reap().expected_failures(),
                    terms(ExposureKind::Demand, &|o, n| model.fail_reap(o.min(width), n)),
                ),
                (
                    score.serial().expected_failures(),
                    terms(ExposureKind::Demand, &|o, _| model.fail_single(o.min(width))),
                ),
                (score.writeback_exposure(), terms(ExposureKind::DirtyEviction, &conv)),
            ];
            for (got, want) in oracle {
                prop_assert!(
                    (got - want).abs() <= 1e-12 * want.abs(),
                    "folded {:e}, compensated {:e}",
                    got,
                    want
                );
            }
        }
    }
}
