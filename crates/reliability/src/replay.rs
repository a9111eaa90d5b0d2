//! Analysis-point evaluation of a captured exposure stream.
//!
//! The two-phase simulation splits a run into *capture* (drive the trace
//! through the cache once, recording each exposure event's accumulated
//! read count `N` and content-version key) and *replay* (evaluate the
//! recorded stream under any ECC strength / MTJ operating point). This
//! module holds the one-point scorer: [`ReplayAggregator`] tallies
//! `(kind, line weight, N)` records into cells (`tally.rs`) and
//! folds them into a [`ReplayScore`], the Eq. (3)/(6) failure sums a
//! live `ReliabilityObserver` reports. It is the one-point case of the
//! batched kernel (`MultiReplayAggregator`): the same tally and the same
//! fold, so a single pass, a per-point replay and a batched replay agree
//! bit for bit by construction.

use std::sync::OnceLock;

use crate::histogram::LogHistogram;
use crate::model::AccumulationModel;
use crate::mttf::FailureAggregator;
use crate::tally::{CellTally, Lanes};

/// The three exposure-event classes that reach the reliability laws.
///
/// The capture phase filters cache events down to these: demand checks
/// are always scored; scrub checks matter only for dirty lines (a clean
/// line failing a scrub is invalidated and refetched); evictions matter
/// only for dirty lines with accumulated unchecked reads (the write-back
/// path consumes the possibly-corrupt content). Events outside these
/// classes contribute exactly `0.0` to every sum, so dropping them at
/// capture time preserves bit-identical results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExposureKind {
    /// A demand read hit: the conventional scheme's one ECC check, scored
    /// under all three laws and binned into the histogram.
    Demand,
    /// A scrub sweep checked a dirty line; scored under the conventional
    /// law only (REAP never accumulates, serial never conceals).
    DirtyScrub,
    /// A dirty line with unchecked reads left the cache; its accumulated
    /// failure probability is charged to the write-back exposure metric.
    DirtyEviction,
}

/// One analysis point's scored failure sums: what a fold of a stream's
/// cells yields, and what report assembly reads.
///
/// * **conventional** — `P_unc(N·n, p, t)` (Eq. (3)): the `N` reads since
///   the last check accumulate into one big binomial experiment;
/// * **REAP** — `1 − (1 − P_unc(n, p, t))^N` (Eq. (6)): each of the `N`
///   reads was individually checked and corrected;
/// * **serial / restore** — `P_unc(n, p, t)`: each demand read faces
///   exactly one read's disturbance.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayScore {
    model: AccumulationModel,
    conventional: FailureAggregator,
    reap: FailureAggregator,
    serial: FailureAggregator,
    histogram: LogHistogram,
    /// Failure probability that left the cache unchecked in dirty victims
    /// (consumed by the write-back path) — the paper ignores this; we
    /// track it as an extension metric.
    writeback_exposure: f64,
}

impl ReplayScore {
    /// Assembles a score from folded sums.
    pub(crate) fn from_parts(
        model: AccumulationModel,
        conventional: FailureAggregator,
        reap: FailureAggregator,
        serial: FailureAggregator,
        histogram: LogHistogram,
        writeback_exposure: f64,
    ) -> Self {
        Self {
            model,
            conventional,
            reap,
            serial,
            histogram,
            writeback_exposure,
        }
    }

    /// The accumulation model in force.
    pub fn model(&self) -> &AccumulationModel {
        &self.model
    }

    /// Expected failures under the conventional scheme.
    pub fn conventional(&self) -> &FailureAggregator {
        &self.conventional
    }

    /// Expected failures under REAP.
    pub fn reap(&self) -> &FailureAggregator {
        &self.reap
    }

    /// Expected failures under the serial tag-first scheme and the
    /// disruptive-restore baseline (one read's disturbance per demand).
    pub fn serial(&self) -> &FailureAggregator {
        &self.serial
    }

    /// The concealed-read histogram with per-bin conventional failure
    /// contribution (Fig. 3 data).
    pub fn histogram(&self) -> &LogHistogram {
        &self.histogram
    }

    /// Unchecked failure probability carried out by dirty evictions.
    pub fn writeback_exposure(&self) -> f64 {
        self.writeback_exposure
    }
}

/// Scores exposure records at one analysis point: a tally of their
/// `(kind, ones, N)` cells, folded into a [`ReplayScore`] when a sum is
/// read (and again only after more records arrive).
///
/// Per-read probabilities come from a table over the line weight `n`
/// (0 ..= stored bits); a weight past the width reads the widest entry
/// for the single-read and REAP terms.
///
/// # Examples
///
/// ```
/// use reap_reliability::{AccumulationModel, ExposureKind, ReplayAggregator};
///
/// let mut agg = ReplayAggregator::new(AccumulationModel::sec(1e-8), 576);
/// agg.record(ExposureKind::Demand, 288, 100);
/// assert!(agg.conventional().expected_failures() > agg.reap().expected_failures());
/// ```
#[derive(Debug, Clone)]
pub struct ReplayAggregator {
    model: AccumulationModel,
    width: u32,
    tally: CellTally,
    /// The fold of `tally`, once a sum has been read.
    score: OnceLock<ReplayScore>,
}

impl ReplayAggregator {
    /// Creates an aggregator for lines of at most `max_ones` stored `1`s
    /// (i.e. the stored line width in bits).
    ///
    /// # Panics
    ///
    /// Panics if `max_ones == 0`.
    pub fn new(model: AccumulationModel, max_ones: u32) -> Self {
        assert!(max_ones > 0, "line width must be positive");
        Self {
            model,
            width: max_ones,
            tally: CellTally::new(max_ones, false),
            score: OnceLock::new(),
        }
    }

    /// Scores one exposure record. The result does not depend on the
    /// order records arrive in: they are counted, and the fold visits
    /// their cells in one canonical order.
    ///
    /// # Panics
    ///
    /// Panics on a demand record with `unchecked_reads == 0` (every
    /// demand read counts itself, so `N ≥ 1`).
    pub fn record(&mut self, kind: ExposureKind, line_ones: u32, unchecked_reads: u64) {
        self.tally.add(kind, line_ones, unchecked_reads);
        self.score.take();
    }

    /// Scores a whole stream of `(kind, line_ones, unchecked_reads)`
    /// records. Exactly equivalent to calling [`record`](Self::record)
    /// per item.
    pub fn record_all<I>(&mut self, records: I)
    where
        I: IntoIterator<Item = (ExposureKind, u32, u64)>,
    {
        for (kind, line_ones, unchecked_reads) in records {
            self.record(kind, line_ones, unchecked_reads);
        }
    }

    /// The folded sums of every record so far.
    pub fn score(&self) -> &ReplayScore {
        self.score.get_or_init(|| {
            let lanes = Lanes::new(self.width, vec![self.model]);
            let mut scores = lanes.fold(0..1, &self.tally.cells(), None);
            scores.pop().expect("one lane in, one score out")
        })
    }

    /// Consumes the aggregator, yielding its folded sums.
    pub fn into_score(self) -> ReplayScore {
        self.score();
        self.score.into_inner().expect("just folded")
    }

    /// The accumulation model in force.
    pub fn model(&self) -> &AccumulationModel {
        &self.model
    }

    /// Expected failures under the conventional scheme.
    pub fn conventional(&self) -> &FailureAggregator {
        self.score().conventional()
    }

    /// Expected failures under REAP.
    pub fn reap(&self) -> &FailureAggregator {
        self.score().reap()
    }

    /// Expected failures under the serial tag-first scheme and the
    /// disruptive-restore baseline (one read's disturbance per demand).
    pub fn serial(&self) -> &FailureAggregator {
        self.score().serial()
    }

    /// The concealed-read histogram with per-bin conventional failure
    /// contribution (Fig. 3 data).
    pub fn histogram(&self) -> &LogHistogram {
        self.score().histogram()
    }

    /// Unchecked failure probability carried out by dirty evictions.
    pub fn writeback_exposure(&self) -> f64 {
        self.score().writeback_exposure()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aggregator() -> ReplayAggregator {
        ReplayAggregator::new(AccumulationModel::sec(1e-6), 576)
    }

    #[test]
    fn serial_term_matches_direct_model() {
        for n in [0u32, 1, 100, 288, 576] {
            let mut agg = aggregator();
            agg.record(ExposureKind::Demand, n, 1);
            assert_eq!(
                agg.serial().expected_failures(),
                agg.model().fail_single(n),
                "n = {n}"
            );
        }
    }

    #[test]
    fn demand_scores_all_three_schemes() {
        let mut agg = aggregator();
        agg.record(ExposureKind::Demand, 288, 1000);
        let conv = agg.conventional().expected_failures();
        let reap = agg.reap().expected_failures();
        let gain = conv / reap;
        assert!(gain > 500.0 && gain <= 1000.5, "gain = {gain}");
        assert_eq!(agg.serial().events(), 1);
        assert_eq!(agg.histogram().total_count(), 1);
    }

    #[test]
    fn reap_matches_eq_six_closed_form() {
        let mut agg = aggregator();
        agg.record(ExposureKind::Demand, 300, 77);
        let expected = agg.model().fail_reap(300, 77);
        assert!(
            (agg.reap().expected_failures() / expected - 1.0).abs() < 1e-12,
            "aggregator must reproduce Eq. (6)"
        );
    }

    #[test]
    fn dirty_scrub_feeds_conventional_only() {
        let mut agg = aggregator();
        agg.record(ExposureKind::DirtyScrub, 288, 40);
        assert_eq!(
            agg.conventional().expected_failures(),
            agg.model().fail_conventional(288, 40)
        );
        assert_eq!(agg.reap().events(), 0);
        assert_eq!(agg.histogram().total_count(), 0);
    }

    #[test]
    fn dirty_eviction_feeds_writeback_exposure_only() {
        let mut agg = aggregator();
        agg.record(ExposureKind::DirtyEviction, 288, 500);
        assert!(agg.writeback_exposure() > 0.0);
        assert_eq!(agg.conventional().events(), 0);
    }

    #[test]
    fn record_all_matches_per_record_feeding() {
        let stream = [
            (ExposureKind::Demand, 288u32, 1000u64),
            (ExposureKind::DirtyScrub, 300, 40),
            (ExposureKind::Demand, 100, 3),
            (ExposureKind::DirtyEviction, 288, 500),
        ];
        let mut fed = aggregator();
        fed.record_all(stream);
        let mut reference = aggregator();
        for (kind, ones, n) in stream {
            reference.record(kind, ones, n);
        }
        assert_eq!(
            fed.conventional().expected_failures().to_bits(),
            reference.conventional().expected_failures().to_bits()
        );
        assert_eq!(
            fed.reap().expected_failures().to_bits(),
            reference.reap().expected_failures().to_bits()
        );
        assert_eq!(
            fed.writeback_exposure().to_bits(),
            reference.writeback_exposure().to_bits()
        );
    }

    #[test]
    fn out_of_range_ones_clamp_to_widest_entry() {
        let (mut wide, mut widest) = (aggregator(), aggregator());
        wide.record(ExposureKind::Demand, 10_000, 3);
        widest.record(ExposureKind::Demand, 576, 3);
        assert_eq!(wide.serial(), widest.serial());
        assert_eq!(wide.reap(), widest.reap());
        // The conventional law sees the raw weight.
        assert_eq!(
            wide.conventional().expected_failures(),
            wide.model().fail_conventional(10_000, 3)
        );
    }

    #[test]
    fn the_score_follows_later_records() {
        let mut agg = aggregator();
        agg.record(ExposureKind::Demand, 288, 2);
        let first = agg.reap().expected_failures();
        agg.record(ExposureKind::Demand, 288, 2);
        assert_eq!(agg.reap().events(), 2);
        assert_eq!(agg.reap().expected_failures(), 2.0 * first);
        assert_eq!(agg.clone().into_score(), *agg.score());
    }

    #[test]
    fn record_order_does_not_move_a_bit() {
        let stream = [
            (ExposureKind::Demand, 288u32, 1000u64),
            (ExposureKind::DirtyScrub, 300, 40),
            (ExposureKind::Demand, 100, 3),
            (ExposureKind::DirtyEviction, 288, 500),
            (ExposureKind::Demand, 101, 3),
        ];
        let mut forward = aggregator();
        forward.record_all(stream);
        let mut backward = aggregator();
        backward.record_all(stream.into_iter().rev());
        assert_eq!(forward.score(), backward.score());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_rejected() {
        let _ = ReplayAggregator::new(AccumulationModel::sec(1e-8), 0);
    }
}
