//! MTTF/FIT aggregation of per-event failure probabilities.

use std::fmt;

/// Accumulates expected failures over a simulation.
///
/// Each ECC-check event contributes its uncorrectable probability; for the
/// tiny per-event probabilities of the STT-MRAM regime, the failure
/// process is Poisson with rate `Σp / T`, giving `MTTF = T / Σp`.
///
/// # Examples
///
/// ```
/// use reap_reliability::FailureAggregator;
///
/// let mut agg = FailureAggregator::new();
/// for _ in 0..1_000 {
///     agg.record(1e-12);
/// }
/// assert!((agg.expected_failures() / 1e-9 - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FailureAggregator {
    expected_failures: f64,
    events: u64,
}

impl FailureAggregator {
    /// Creates an empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one check event with the given uncorrectable probability.
    ///
    /// # Panics
    ///
    /// Panics if `p_fail` is not in `[0, 1]`.
    pub fn record(&mut self, p_fail: f64) {
        assert!(
            (0.0..=1.0).contains(&p_fail),
            "probability out of range: {p_fail}"
        );
        self.expected_failures += p_fail;
        self.events += 1;
    }

    /// Reassembles an aggregator from an externally accumulated sum and
    /// event count — the hand-off point for the cell fold, which sums
    /// every point of a width at once and only then materializes
    /// `FailureAggregator`s.
    pub(crate) fn from_parts(expected_failures: f64, events: u64) -> Self {
        Self {
            expected_failures,
            events,
        }
    }

    /// Sum of recorded failure probabilities (expected failure count).
    pub fn expected_failures(&self) -> f64 {
        self.expected_failures
    }

    /// Number of recorded events.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Merges another aggregator into this one.
    pub fn merge(&mut self, other: &FailureAggregator) {
        self.expected_failures += other.expected_failures;
        self.events += other.events;
    }

    /// Converts to an MTTF given the wall-clock duration the recorded
    /// events span.
    ///
    /// # Panics
    ///
    /// Panics if `duration_seconds` is not positive and finite.
    pub fn mttf(&self, duration_seconds: f64) -> Mttf {
        assert!(
            duration_seconds.is_finite() && duration_seconds > 0.0,
            "duration must be positive"
        );
        Mttf {
            seconds: duration_seconds / self.expected_failures,
        }
    }
}

/// Mean Time To Failure.
///
/// # Examples
///
/// ```
/// use reap_reliability::Mttf;
///
/// let m = Mttf::from_seconds(3.6e12);
/// assert!((m.fit_rate() - 1.0).abs() < 1e-9, "3.6e12 s MTTF = 1 FIT");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Mttf {
    seconds: f64,
}

impl Mttf {
    /// Wraps a raw MTTF in seconds.
    pub fn from_seconds(seconds: f64) -> Self {
        Self { seconds }
    }

    /// MTTF in seconds (may be `inf` when no failures were expected).
    pub fn as_seconds(&self) -> f64 {
        self.seconds
    }

    /// MTTF in hours.
    pub fn as_hours(&self) -> f64 {
        self.seconds / 3600.0
    }

    /// MTTF in years.
    pub fn as_years(&self) -> f64 {
        self.seconds / (365.25 * 86_400.0)
    }

    /// Failures In Time: expected failures per 10⁹ device-hours.
    pub fn fit_rate(&self) -> f64 {
        1e9 / self.as_hours()
    }

    /// This MTTF normalized to a `baseline` (the paper's Fig. 5 metric).
    ///
    /// When both sides are infinite — routine at zero expected failures,
    /// see [`FailureAggregator::mttf`] — the two points are equally
    /// failure-free and the ratio is defined as `1.0`, never NaN. A finite
    /// MTTF against an infinite baseline is `0.0`, and an infinite MTTF
    /// against a finite baseline stays `inf`, both of which IEEE division
    /// already yields.
    pub fn normalized_to(&self, baseline: Mttf) -> f64 {
        if self.seconds.is_infinite() && baseline.seconds.is_infinite() {
            return 1.0;
        }
        self.seconds / baseline.seconds
    }

    /// Total ordering over MTTFs for sorting and Pareto comparisons.
    ///
    /// `Mttf` only derives [`PartialOrd`] because its seconds are an `f64`;
    /// this helper makes comparisons total via [`f64::total_cmp`]: every
    /// finite value orders by magnitude, `inf` (zero expected failures)
    /// sorts above all finite values, and NaN — which the hardened metrics
    /// no longer produce, but defensively — sorts above `inf` rather than
    /// poisoning the sort.
    pub fn total_cmp(&self, other: &Mttf) -> std::cmp::Ordering {
        self.seconds.total_cmp(&other.seconds)
    }
}

impl fmt::Display for Mttf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.as_years() >= 1.0 {
            write!(f, "{:.2} years", self.as_years())
        } else if self.as_hours() >= 1.0 {
            write!(f, "{:.2} hours", self.as_hours())
        } else {
            write!(f, "{:.3e} s", self.seconds)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregator_sums_probabilities() {
        let mut a = FailureAggregator::new();
        a.record(0.25);
        a.record(0.5);
        assert_eq!(a.expected_failures(), 0.75);
        assert_eq!(a.events(), 2);
    }

    #[test]
    fn merge_combines() {
        let mut a = FailureAggregator::new();
        a.record(0.1);
        let mut b = FailureAggregator::new();
        b.record(0.2);
        b.record(0.3);
        a.merge(&b);
        assert!((a.expected_failures() - 0.6).abs() < 1e-12);
        assert_eq!(a.events(), 3);
    }

    #[test]
    fn mttf_is_duration_over_expectation() {
        let mut a = FailureAggregator::new();
        a.record(0.5);
        a.record(0.5);
        let m = a.mttf(10.0);
        assert!((m.as_seconds() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn zero_failures_give_infinite_mttf() {
        let a = FailureAggregator::new();
        assert!(a.mttf(1.0).as_seconds().is_infinite());
    }

    #[test]
    fn fit_conversion() {
        // 1 FIT = one failure per 1e9 hours.
        let m = Mttf::from_seconds(1e9 * 3600.0);
        assert!((m.fit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalization_ratio() {
        let a = Mttf::from_seconds(1000.0);
        let b = Mttf::from_seconds(10.0);
        assert!((a.normalized_to(b) - 100.0).abs() < 1e-12);
    }

    #[test]
    fn normalization_of_two_failure_free_points_is_one() {
        // Regression: inf/inf was NaN, silently mis-sorting any Pareto
        // comparison over a pair of zero-expected-failure points.
        let a = FailureAggregator::new().mttf(1.0);
        let b = FailureAggregator::new().mttf(2.0);
        assert!(a.as_seconds().is_infinite());
        assert_eq!(a.normalized_to(b), 1.0);

        // The one-sided infinities keep their IEEE meaning.
        let finite = Mttf::from_seconds(100.0);
        assert_eq!(finite.normalized_to(a), 0.0);
        assert_eq!(a.normalized_to(finite), f64::INFINITY);
    }

    #[test]
    fn total_cmp_orders_inf_and_nan() {
        use std::cmp::Ordering;
        let small = Mttf::from_seconds(1.0);
        let big = Mttf::from_seconds(1e12);
        let inf = Mttf::from_seconds(f64::INFINITY);
        let nan = Mttf::from_seconds(f64::NAN);
        assert_eq!(small.total_cmp(&big), Ordering::Less);
        assert_eq!(big.total_cmp(&inf), Ordering::Less);
        assert_eq!(inf.total_cmp(&inf), Ordering::Equal);
        // NaN compares as greater-than-inf instead of breaking the sort.
        assert_eq!(inf.total_cmp(&nan), Ordering::Less);
        assert_eq!(nan.total_cmp(&nan), Ordering::Equal);

        let mut v = [inf, small, nan, big];
        v.sort_by(Mttf::total_cmp);
        assert_eq!(v[0].as_seconds(), 1.0);
        assert_eq!(v[1].as_seconds(), 1e12);
        assert!(v[2].as_seconds().is_infinite());
        assert!(v[3].as_seconds().is_nan());
    }

    #[test]
    fn unit_conversions() {
        let m = Mttf::from_seconds(365.25 * 86_400.0);
        assert!((m.as_years() - 1.0).abs() < 1e-12);
        assert!((m.as_hours() - 8766.0).abs() < 1e-9);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert!(Mttf::from_seconds(1e9).to_string().contains("years"));
        assert!(Mttf::from_seconds(10_000.0).to_string().contains("hours"));
        assert!(Mttf::from_seconds(0.5).to_string().contains("s"));
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn record_rejects_bad_probability() {
        FailureAggregator::new().record(2.0);
    }

    #[test]
    #[should_panic(expected = "duration must be positive")]
    fn mttf_rejects_bad_duration() {
        let _ = FailureAggregator::new().mttf(0.0);
    }
}
