//! Log-binned concealed-read histograms (the data behind Fig. 3).
//!
//! Fig. 3 of the paper plots, per workload:
//!
//! * the *frequency* of demand reads grouped by their accumulated read
//!   count `N`, normalized so the `N = 1` (no concealed reads) bin equals
//!   100;
//! * the *failure contribution* of each group — frequency × per-event
//!   uncorrectable probability — showing that rare large-`N` events
//!   dominate the cache failure rate.
//!
//! `N` spans five decades, so bins are powers of two.

use std::fmt;

/// A histogram over `N` (reads accumulated between ECC checks) with a
/// failure-probability accumulator per bin.
///
/// Bin `i` covers `N ∈ [2^i, 2^(i+1))`; bin 0 is exactly the
/// "no concealed reads" population of the paper's normalization.
///
/// # Examples
///
/// ```
/// use reap_reliability::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// h.record(1, 1e-13);
/// h.record(1, 1e-13);
/// h.record(1000, 1e-7);
/// let bins: Vec<_> = h.bins().collect();
/// assert_eq!(bins[0].count, 2);
/// // The single large-N event dominates total failure probability.
/// assert!(h.total_failure_probability() > 0.99e-7);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    failure: Vec<f64>,
    max_n: u64,
}

/// One bin of a [`LogHistogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bin {
    /// Inclusive lower edge (a power of two).
    pub lo: u64,
    /// Exclusive upper edge.
    pub hi: u64,
    /// Number of events recorded in the bin.
    pub count: u64,
    /// Sum of per-event failure probabilities in the bin.
    pub failure_probability: f64,
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reassembles a histogram from externally accumulated bins — the
    /// hand-off point for the cell fold, which shares one count vector
    /// across the points of a width (bin membership depends only on `N`)
    /// and sums each point's per-bin failure separately. `counts` and
    /// `failure` must be the same length, grown exactly as `record`
    /// would have grown them (highest touched bin + 1).
    pub(crate) fn from_parts(counts: Vec<u64>, failure: Vec<f64>, max_n: u64) -> Self {
        debug_assert_eq!(counts.len(), failure.len());
        Self {
            counts,
            failure,
            max_n,
        }
    }

    /// Records a demand-check event with accumulated read count `n` and
    /// per-event failure probability `p_fail`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` (every demand read counts itself, so `N ≥ 1`) or
    /// `p_fail` is outside `[0, 1]`.
    pub fn record(&mut self, n: u64, p_fail: f64) {
        assert!(n >= 1, "N counts the demand read itself, so N >= 1");
        assert!(
            (0.0..=1.0).contains(&p_fail),
            "probability out of range: {p_fail}"
        );
        let bin = (63 - n.leading_zeros()) as usize;
        if bin >= self.counts.len() {
            self.counts.resize(bin + 1, 0);
            self.failure.resize(bin + 1, 0.0);
        }
        self.counts[bin] += 1;
        self.failure[bin] += p_fail;
        self.max_n = self.max_n.max(n);
    }

    /// Total events recorded.
    pub fn total_count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of all recorded failure probabilities.
    pub fn total_failure_probability(&self) -> f64 {
        self.failure.iter().sum()
    }

    /// The largest `N` observed.
    pub fn max_n(&self) -> u64 {
        self.max_n
    }

    /// Iterates every allocated bin low to high, empty or not. The last
    /// bin (index 63, covering `N ≥ 2^63`) has no representable exclusive
    /// upper edge, so its `hi` saturates to `u64::MAX`.
    pub fn bins(&self) -> impl Iterator<Item = Bin> + '_ {
        self.counts
            .iter()
            .zip(self.failure.iter())
            .enumerate()
            .map(|(i, (&count, &fail))| Bin {
                lo: 1u64 << i,
                hi: 1u64.checked_shl(i as u32 + 1).unwrap_or(u64::MAX),
                count,
                failure_probability: fail,
            })
    }

    /// Frequency of a bin normalized so the `N = 1` bin reads 100, as in
    /// Fig. 3's primary axis. Returns 0 for empty bins; `None` when the
    /// `N = 1` bin itself is empty (normalization undefined).
    pub fn normalized_frequency(&self, bin_index: usize) -> Option<f64> {
        let base = *self.counts.first()? as f64;
        if base == 0.0 {
            return None;
        }
        let c = self.counts.get(bin_index).copied().unwrap_or(0);
        Some(c as f64 / base * 100.0)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
            self.failure.resize(other.failure.len(), 0.0);
        }
        for (i, (&c, &f)) in other.counts.iter().zip(other.failure.iter()).enumerate() {
            self.counts[i] += c;
            self.failure[i] += f;
        }
        self.max_n = self.max_n.max(other.max_n);
    }
}

impl fmt::Display for LogHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:>12} {:>12} {:>14}", "N range", "count", "P(fail) sum")?;
        for b in self.bins() {
            if b.count > 0 {
                writeln!(
                    f,
                    "{:>5}..{:<5} {:>12} {:>14.3e}",
                    b.lo, b.hi, b.count, b.failure_probability
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_are_powers_of_two() {
        let mut h = LogHistogram::new();
        h.record(1, 0.0);
        h.record(2, 0.0);
        h.record(3, 0.0);
        h.record(4, 0.0);
        h.record(1023, 0.0);
        let bins: Vec<Bin> = h.bins().collect();
        assert_eq!(bins[0].count, 1); // N = 1
        assert_eq!(bins[1].count, 2); // N in [2,4)
        assert_eq!(bins[2].count, 1); // N in [4,8)
        assert_eq!(bins[9].count, 1); // N in [512,1024)
        assert_eq!(h.max_n(), 1023);
    }

    #[test]
    fn totals_accumulate() {
        let mut h = LogHistogram::new();
        h.record(1, 0.1);
        h.record(10, 0.2);
        assert_eq!(h.total_count(), 2);
        assert!((h.total_failure_probability() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn normalized_frequency_scales_to_100() {
        let mut h = LogHistogram::new();
        for _ in 0..200 {
            h.record(1, 0.0);
        }
        for _ in 0..50 {
            h.record(16, 0.0);
        }
        assert_eq!(h.normalized_frequency(0), Some(100.0));
        assert_eq!(h.normalized_frequency(4), Some(25.0));
        assert_eq!(h.normalized_frequency(10), Some(0.0));
    }

    #[test]
    fn normalization_undefined_without_base_bin() {
        let mut h = LogHistogram::new();
        h.record(100, 0.0);
        assert_eq!(h.normalized_frequency(6), None);
        assert_eq!(LogHistogram::new().normalized_frequency(0), None);
    }

    #[test]
    fn merge_adds_bins() {
        let mut a = LogHistogram::new();
        a.record(1, 0.1);
        let mut b = LogHistogram::new();
        b.record(1, 0.1);
        b.record(5000, 0.4);
        a.merge(&b);
        assert_eq!(a.total_count(), 3);
        assert!((a.total_failure_probability() - 0.6).abs() < 1e-12);
        assert_eq!(a.max_n(), 5000);
    }

    #[test]
    fn display_lists_nonempty_bins() {
        let mut h = LogHistogram::new();
        h.record(1, 1e-13);
        h.record(300, 1e-9);
        let text = h.to_string();
        assert!(text.contains("256"));
        assert!(!text.contains("1024"));
    }

    #[test]
    #[should_panic(expected = "N >= 1")]
    fn rejects_n_zero() {
        LogHistogram::new().record(0, 0.0);
    }

    #[test]
    fn top_bin_saturates_instead_of_overflowing() {
        let mut h = LogHistogram::new();
        h.record(u64::MAX, 0.0);
        let bins: Vec<Bin> = h.bins().collect();
        assert_eq!(bins.len(), 64);
        let top = bins[63];
        assert_eq!(top.lo, 1u64 << 63);
        assert_eq!(top.hi, u64::MAX);
        assert_eq!(top.count, 1);
        assert_eq!(h.max_n(), u64::MAX);
        // Display walks every bin; it must not panic on bin 63.
        let text = h.to_string();
        assert!(text.contains(&(1u64 << 63).to_string()));
    }

    #[test]
    fn bins_yields_empty_bins_too() {
        let mut h = LogHistogram::new();
        h.record(1, 0.0);
        h.record(8, 0.0);
        let bins: Vec<Bin> = h.bins().collect();
        assert_eq!(bins.len(), 4);
        assert_eq!(bins[1].count, 0);
        assert_eq!(bins[2].count, 0);
    }
}
