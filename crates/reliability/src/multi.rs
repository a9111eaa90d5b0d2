//! Batched multi-point replay: score every sweep point from one tally.
//!
//! An ECC sweep (`Experiment::run_at`, `reap sweep --ecc-sweep`) evaluates
//! the same captured exposure stream under several analysis points — one
//! per `EccStrength` × MTJ operating point. [`MultiReplayAggregator`] is
//! the one batched kernel, organised around *width groups*: every point
//! with the same stored line width (say, the seven read currents of one
//! ECC strength) sees the same line weight `ones` and the same `N` in a
//! record. So the kernel keeps **one cell tally per stored width**
//! (`tally.rs`): a record costs one counter increment per width,
//! whatever the number of points.
//!
//! Scoring folds each width's cells once for all of its points, in the
//! canonical cell order, adding `count × term` to every point's sums.
//! Conventional (Eq. (3)) terms are memoized per `(ones, N ≤ 64)` key in
//! one table shared by all widths and kept across captures, so a kernel
//! reused over many captures of a sweep computes each term once. The
//! Eq. (6) REAP term is one `exp_m1` per cell and point.
//!
//! * points may come in any order; a point → `(group, lane)` map returns
//!   scores in construction order;
//! * the kernel has one feed, [`record_block_by_width`]: one weight per
//!   record per *width* (exactly the layout `sample_ones_multi_batch`
//!   writes), so the replay feeder never scatters weights to points. The
//!   per-point entries ([`record`], [`record_block`]) gather each width's
//!   weight from its first point into that layout. A line has one
//!   stored-`1` count at a given width, so they reject a row whose
//!   same-width points disagree;
//! * [`take_cells`] hands out a stream's cells per width, and
//!   [`score_cells`] folds any kernel's points over them — how `reap
//!   explore` scores refined points without decoding a capture again;
//! * [`twin`] is a tally-only copy of the kernel's per-width tallies: a
//!   part of a stream counted into it elsewhere merges with the kernel's
//!   own cells into the whole stream's ([`TalliedCells::merge`]).
//!
//! # Bit-identity contract
//!
//! Every result is a function of the multiset of `(kind, ones, N)` cells
//! a point saw, folded in one fixed order: so the kernel is
//! **bit-identical** to independent per-point [`ReplayAggregator`]s (the
//! one-point case of the same tally and fold), however the stream was
//! split into calls and blocks, and at any thread count. Memoized terms
//! are outputs of the same pure function on the same inputs. The unit
//! tests below, `tests/proptests.rs` and `crates/core/tests/proptests.rs`
//! pin this contract.
//!
//! [`record`]: MultiReplayAggregator::record
//! [`record_block`]: MultiReplayAggregator::record_block
//! [`record_block_by_width`]: MultiReplayAggregator::record_block_by_width
//! [`take_cells`]: MultiReplayAggregator::take_cells
//! [`score_cells`]: MultiReplayAggregator::score_cells
//! [`twin`]: MultiReplayAggregator::twin

use crate::model::AccumulationModel;
use crate::replay::{ExposureKind, ReplayScore};
use crate::tally::{Lanes, Memo, TalliedCells, WidthTallies};

#[cfg(doc)]
use crate::replay::ReplayAggregator;

/// The points that share one stored width: their fold lanes and their
/// offset in the memo's rows.
#[derive(Debug, Clone)]
struct WidthGroup {
    lanes: Lanes,
    memo_at: usize,
}

/// Scores a captured exposure stream against many analysis points from
/// one tally per stored width, bit-identical to independent per-point
/// [`ReplayAggregator`]s.
///
/// # Examples
///
/// ```
/// use reap_reliability::{
///     AccumulationModel, ExposureKind, MultiReplayAggregator, ReplayAggregator,
/// };
///
/// let points = vec![
///     (AccumulationModel::new(1e-8, 1), 522),
///     (AccumulationModel::new(1e-8, 2), 532),
/// ];
/// let mut multi = MultiReplayAggregator::new(points.clone());
/// let mut solo: Vec<_> = points
///     .iter()
///     .map(|&(m, w)| ReplayAggregator::new(m, w))
///     .collect();
/// multi.record(ExposureKind::Demand, &[260, 265], 40);
/// solo[0].record(ExposureKind::Demand, 260, 40);
/// solo[1].record(ExposureKind::Demand, 265, 40);
/// for (got, want) in multi.finish().iter().zip(&solo) {
///     assert_eq!(got, want.score());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct MultiReplayAggregator {
    /// Per-point accumulation models, in construction order.
    models: Vec<AccumulationModel>,
    /// Per-point stored line widths (`max_ones`), in construction order.
    widths: Vec<u32>,
    /// Per-point `(group, lane)`.
    slots: Vec<(usize, usize)>,
    /// Per group, the point of its first lane: where the per-point
    /// entries read the group's weight.
    firsts: Vec<usize>,
    /// `(point, first point of its group)` for every other lane: the
    /// pairs whose weights the per-point entries require to agree.
    twins: Vec<(usize, usize)>,
    /// One group per distinct width, ascending.
    groups: Vec<WidthGroup>,
    /// One cell tally per group.
    tallies: WidthTallies,
    /// The groups' shared conventional-term memo.
    memo: Memo,
    /// The groups' widths, ascending — the per-width feed's row layout.
    group_widths: Vec<usize>,
    /// Per-width weights the per-point entries gather a block into.
    gathered: Vec<u32>,
}

impl MultiReplayAggregator {
    /// Creates a batched aggregator for the given `(model, max_ones)`
    /// analysis points, in any order. `max_ones` is the stored line
    /// width in bits for that point (data + check bits), exactly as
    /// passed to [`ReplayAggregator::new`].
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or any `max_ones == 0`.
    pub fn new(points: Vec<(AccumulationModel, u32)>) -> Self {
        assert!(!points.is_empty(), "need at least one analysis point");
        let mut group_widths: Vec<u32> = points
            .iter()
            .map(|&(_, w)| {
                assert!(w > 0, "line width must be positive");
                w
            })
            .collect();
        group_widths.sort_unstable();
        group_widths.dedup();
        let mut members: Vec<Vec<AccumulationModel>> = vec![Vec::new(); group_widths.len()];
        let mut firsts = vec![0; group_widths.len()];
        let mut twins = Vec::new();
        let slots = points
            .iter()
            .enumerate()
            .map(|(p, &(model, w))| {
                let g = group_widths.binary_search(&w).expect("width present");
                if members[g].is_empty() {
                    firsts[g] = p;
                } else {
                    twins.push((p, firsts[g]));
                }
                members[g].push(model);
                (g, members[g].len() - 1)
            })
            .collect();
        let mut memo_at = 0;
        let groups = group_widths
            .iter()
            .zip(members)
            .map(|(&width, models)| {
                let at = memo_at;
                memo_at += models.len();
                WidthGroup {
                    lanes: Lanes::new(width, models),
                    memo_at: at,
                }
            })
            .collect();
        let memo = Memo::new(&group_widths, points.len());
        let (models, widths) = points.into_iter().unzip();
        Self {
            models,
            widths,
            slots,
            firsts,
            twins,
            groups,
            tallies: WidthTallies::new(&group_widths),
            memo,
            group_widths: group_widths.into_iter().map(|w| w as usize).collect(),
            gathered: Vec::new(),
        }
    }

    /// Number of analysis points being scored.
    pub fn num_points(&self) -> usize {
        self.models.len()
    }

    /// The distinct stored widths among the points, ascending: the row
    /// layout [`record_block_by_width`](Self::record_block_by_width)
    /// takes, and the `widths` argument `sample_ones_multi_batch` fills
    /// that layout from.
    pub fn stored_widths(&self) -> &[usize] {
        &self.group_widths
    }

    /// Scores one exposure record against every point. `line_ones[p]` is
    /// the stored-`1` count of the line *as sampled for point `p`'s
    /// stored width*, so points of one width carry one weight.
    ///
    /// # Panics
    ///
    /// Panics if `line_ones.len() != self.num_points()`, if two points of
    /// one stored width carry different weights, or on a demand record
    /// with `unchecked_reads == 0` (every demand read counts itself, so
    /// `N ≥ 1`).
    pub fn record(&mut self, kind: ExposureKind, line_ones: &[u32], unchecked_reads: u64) {
        assert_eq!(
            line_ones.len(),
            self.models.len(),
            "one ones-count per analysis point"
        );
        self.record_block(&[(kind, unchecked_reads)], line_ones);
    }

    /// Scores a block of exposure records at once: `records[r]` is
    /// `(kind, unchecked_reads)` and `ones[r * points .. (r+1) * points]`
    /// its per-point stored-`1` counts, exactly as [`record`](Self::record)
    /// would take them. Bit-identical to calling `record` per item.
    ///
    /// Each width's weight is gathered from its first point, and the
    /// block runs through
    /// [`record_block_by_width`](Self::record_block_by_width).
    ///
    /// # Panics
    ///
    /// Panics if `ones.len() != records.len() * self.num_points()`, if a
    /// row gives two points of one stored width different weights, or on
    /// a demand record with `unchecked_reads == 0`.
    pub fn record_block(&mut self, records: &[(ExposureKind, u64)], ones: &[u32]) {
        let npts = self.models.len();
        assert_eq!(
            ones.len(),
            records.len() * npts,
            "one ones-count per record per analysis point"
        );
        let mut gathered = std::mem::take(&mut self.gathered);
        gathered.clear();
        for row in ones.chunks_exact(npts) {
            assert!(
                self.twins.iter().all(|&(p, first)| row[p] == row[first]),
                "points of one stored width need one ones-count"
            );
            gathered.extend(self.firsts.iter().map(|&first| row[first]));
        }
        self.record_block_by_width(records, &gathered);
        self.gathered = gathered;
    }

    /// Scores a block of exposure records with one weight per stored
    /// width: `records[r]` is `(kind, unchecked_reads)` and `ones[r *
    /// widths + g]` the record's stored-`1` count at
    /// [`stored_widths`](Self::stored_widths)`()[g]` — every point of
    /// that width scores that weight. This is the replay feeder's entry:
    /// `sample_ones_multi_batch` writes exactly this layout. Each record
    /// is one count in each width's tally.
    ///
    /// # Panics
    ///
    /// Panics if `ones.len() != records.len() * self.stored_widths().len()`,
    /// or on a demand record with `unchecked_reads == 0`.
    pub fn record_block_by_width(&mut self, records: &[(ExposureKind, u64)], ones: &[u32]) {
        self.tallies.record_block_by_width(records, ones);
    }

    /// Empty tallies at this kernel's stored widths, without its fold
    /// tables or memo: what counts a part of a stream apart from the
    /// kernel. Its [`take_cells`](WidthTallies::take_cells) merged with
    /// this kernel's ([`TalliedCells::merge`]) are the cells of both
    /// parts' records.
    pub fn twin(&self) -> WidthTallies {
        let widths: Vec<u32> = self.groups.iter().map(|g| g.lanes.width()).collect();
        WidthTallies::twin(&widths)
    }

    /// Whether this aggregator scores exactly `points`, in order — the
    /// check a caller makes before reusing it on another stream.
    pub fn matches_points(&self, points: &[(AccumulationModel, u32)]) -> bool {
        points.len() == self.models.len()
            && points
                .iter()
                .zip(self.models.iter().zip(&self.widths))
                .all(|(&(model, width), (&m, &w))| model == m && width == w)
    }

    /// Tears the batch apart into one [`ReplayScore`] per point, in
    /// construction order, each identical to an independent
    /// [`ReplayAggregator`]'s over the stream.
    pub fn finish(mut self) -> Vec<ReplayScore> {
        self.take_reports()
    }

    /// [`finish`](Self::finish) without giving up the kernel: returns
    /// the per-point scores of every record fed so far and empties the
    /// tallies, so the next stream starts from scratch. The fold tables
    /// and the memo survive. Memo cells cache a pure function of
    /// `(model, ones, N)`, so a reused aggregator is bit-identical to a
    /// fresh one; it only skips rebuilding the tables and re-deriving
    /// terms an earlier stream already computed.
    pub fn take_reports(&mut self) -> Vec<ReplayScore> {
        let cells = self.take_cells();
        self.score_cells(&cells)
    }

    /// Hands out the cells of every record fed so far, one list per
    /// stored width, and empties the tallies.
    pub fn take_cells(&mut self) -> TalliedCells {
        self.tallies.take_cells()
    }

    /// Whether `cells` hold every stored width this kernel's points need.
    pub fn covers(&self, cells: &TalliedCells) -> bool {
        self.groups
            .iter()
            .all(|group| cells.at(group.lanes.width()).is_some())
    }

    /// Scores this kernel's points over `cells`, one [`ReplayScore`] per
    /// point in construction order: each width's points fold that
    /// width's cells. Identical to the scores of the stream the cells
    /// were tallied from. The kernel's own tallies are untouched.
    ///
    /// # Panics
    ///
    /// Panics if `cells` lack a stored width of the points
    /// (see [`covers`](Self::covers)).
    pub fn score_cells(&mut self, cells: &TalliedCells) -> Vec<ReplayScore> {
        let mut by_group: Vec<std::vec::IntoIter<ReplayScore>> = self
            .groups
            .iter()
            .map(|group| {
                let width = group.lanes.width();
                let list = cells
                    .at(width)
                    .unwrap_or_else(|| panic!("no cells tallied at stored width {width}"));
                let memo = Some((&mut self.memo, group.memo_at));
                group
                    .lanes
                    .fold(0..group.lanes.len(), list, memo)
                    .into_iter()
            })
            .collect();
        // Lanes are numbered in construction order within a group, so
        // each group's scores are handed out in order.
        self.slots
            .iter()
            .map(|&(g, _)| by_group[g].next().expect("one score per lane"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::ReplayAggregator;

    fn points() -> Vec<(AccumulationModel, u32)> {
        vec![
            (AccumulationModel::new(1e-6, 1), 522),
            (AccumulationModel::new(1e-6, 2), 532),
            (AccumulationModel::new(1e-5, 3), 542),
        ]
    }

    /// Seven distinct widths: seven one-lane groups.
    fn seven_points() -> Vec<(AccumulationModel, u32)> {
        vec![
            (AccumulationModel::new(1e-6, 1), 522),
            (AccumulationModel::new(1e-6, 2), 532),
            (AccumulationModel::new(1e-5, 3), 542),
            (AccumulationModel::new(1e-7, 1), 288),
            (AccumulationModel::new(1e-8, 2), 576),
            (AccumulationModel::new(1e-5, 1), 130),
            (AccumulationModel::new(1e-4, 3), 600),
        ]
    }

    fn assert_bit_equal(got: &ReplayScore, want: &ReplayScore) {
        assert_eq!(
            got.conventional().expected_failures().to_bits(),
            want.conventional().expected_failures().to_bits()
        );
        assert_eq!(got.conventional().events(), want.conventional().events());
        assert_eq!(
            got.reap().expected_failures().to_bits(),
            want.reap().expected_failures().to_bits()
        );
        assert_eq!(got.reap().events(), want.reap().events());
        assert_eq!(
            got.serial().expected_failures().to_bits(),
            want.serial().expected_failures().to_bits()
        );
        assert_eq!(got.serial().events(), want.serial().events());
        assert_eq!(
            got.writeback_exposure().to_bits(),
            want.writeback_exposure().to_bits()
        );
        assert_eq!(got.histogram(), want.histogram());
    }

    /// Feeds the same records to the batched kernel (per record and per
    /// block) and to independent per-point aggregators, asserting
    /// bit-equality of every observable.
    fn assert_matches_solo_at(
        pts: Vec<(AccumulationModel, u32)>,
        records: &[(ExposureKind, Vec<u32>, u64)],
    ) {
        let mut multi = MultiReplayAggregator::new(pts.clone());
        let mut solo: Vec<ReplayAggregator> = pts
            .iter()
            .map(|&(m, w)| ReplayAggregator::new(m, w))
            .collect();
        for (kind, ones, n) in records {
            multi.record(*kind, ones, *n);
            for (p, agg) in solo.iter_mut().enumerate() {
                agg.record(*kind, ones[p], *n);
            }
        }
        // The block entry point must be indistinguishable from the
        // per-record one; 7-record blocks straddle demand runs and the
        // feeder's block boundaries alike.
        let mut blocked = MultiReplayAggregator::new(pts.clone());
        for chunk in records.chunks(7) {
            let recs: Vec<(ExposureKind, u64)> = chunk.iter().map(|&(k, _, n)| (k, n)).collect();
            let flat: Vec<u32> = chunk
                .iter()
                .flat_map(|(_, o, _)| o.iter().copied())
                .collect();
            blocked.record_block(&recs, &flat);
        }
        for (got, want) in multi.finish().iter().zip(&solo) {
            assert_bit_equal(got, want.score());
        }
        for (got, want) in blocked.finish().iter().zip(&solo) {
            assert_bit_equal(got, want.score());
        }
    }

    fn assert_matches_solo(records: &[(ExposureKind, Vec<u32>, u64)]) {
        assert_matches_solo_at(points(), records);
    }

    fn pseudo_records(widths: &[u32], count: u64) -> Vec<(ExposureKind, Vec<u32>, u64)> {
        seeded_records(widths, count, 0x9e37, true)
    }

    /// A pseudo-random stream of every record kind; without `scrub` the
    /// dirty-scrub slots become demand reads, as in a capture taken with
    /// scrubbing off. Points of one width get one weight, as a line has
    /// one stored-`1` count at a given width.
    fn seeded_records(
        widths: &[u32],
        count: u64,
        seed: u64,
        scrub: bool,
    ) -> Vec<(ExposureKind, Vec<u32>, u64)> {
        let mut records = Vec::new();
        let mut state = seed;
        for i in 0..count {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let kind = match state % 5 {
                0 if scrub => ExposureKind::DirtyScrub,
                1 => ExposureKind::DirtyEviction,
                _ => ExposureKind::Demand,
            };
            let ones = widths
                .iter()
                .map(|&w| {
                    let p = widths.iter().position(|&x| x == w).expect("own width");
                    ((state >> (8 + 4 * (p % 8))) as u32) % (w + 1)
                })
                .collect();
            // Mix of memoized small N and direct-computed large N.
            let n = 1 + (state >> 40) % if i % 7 == 0 { 100_000 } else { 8 };
            records.push((kind, ones, n));
        }
        records
    }

    #[test]
    fn matches_independent_aggregators_bitwise() {
        let mut records = Vec::new();
        let mut state = 0x9e37u64;
        for i in 0..500u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let kind = match state % 5 {
                0 => ExposureKind::DirtyScrub,
                1 => ExposureKind::DirtyEviction,
                _ => ExposureKind::Demand,
            };
            let ones = vec![
                (state >> 16) as u32 % 523,
                (state >> 24) as u32 % 533,
                (state >> 32) as u32 % 543,
            ];
            // Mix of memoized small N and direct-computed large N.
            let n = 1 + (state >> 40) % if i % 7 == 0 { 100_000 } else { 8 };
            records.push((kind, ones, n));
        }
        assert_matches_solo(&records);
    }

    #[test]
    fn one_lane_groups_match_solo_bitwise() {
        let pts = seven_points();
        let widths: Vec<u32> = pts.iter().map(|&(_, w)| w).collect();
        let records = pseudo_records(&widths, 500);
        assert_matches_solo_at(pts, &records);
    }

    #[test]
    fn certain_failure_corner_stays_bit_identical_and_finite() {
        // fail_single == 1.0 for every point: the u == 1 corner that used
        // to ride on exp_m1(-inf). Both kernels must agree with solo and
        // produce exactly 1.0 per demand event, never NaN.
        let pts = vec![
            (AccumulationModel::new(1.0, 1), 8),
            (AccumulationModel::new(1.0, 2), 16),
            (AccumulationModel::new(1.0, 1), 32),
        ];
        let records = vec![
            (ExposureKind::Demand, vec![8, 16, 32], 1),
            (ExposureKind::Demand, vec![8, 16, 32], 1000),
            (ExposureKind::DirtyScrub, vec![8, 16, 32], 3),
        ];
        let mut multi = MultiReplayAggregator::new(pts.clone());
        for (kind, ones, n) in &records {
            multi.record(*kind, ones, *n);
        }
        for agg in multi.finish() {
            assert_eq!(agg.reap().expected_failures(), 2.0);
            assert!(agg.reap().expected_failures().is_finite());
        }
        assert_matches_solo_at(pts, &records);
    }

    #[test]
    fn memo_hits_and_misses_agree() {
        // Repeat the exact same key so the second call is a memo hit;
        // N = 64 is the memo's last column, 65 past it.
        let records = vec![
            (ExposureKind::Demand, vec![260, 260, 260], 3),
            (ExposureKind::Demand, vec![260, 260, 260], 3),
            (ExposureKind::Demand, vec![260, 260, 260], 64),
            (ExposureKind::Demand, vec![260, 260, 260], 65),
        ];
        assert_matches_solo(&records);
    }

    #[test]
    fn weights_outside_the_memo_window_are_scored_uncached() {
        // The memo holds `width / 2 ± 6σ` rows; these weights fall outside
        // it at every width, with N inside its columns, twice each so the
        // second would be a hit if it were cached.
        let mut records = Vec::new();
        for ones in [0, 3, 150, 400, 522] {
            for n in [1, 64, 1] {
                records.push((ExposureKind::Demand, vec![ones, ones + 5, ones + 10], n));
                records.push((ExposureKind::DirtyScrub, vec![ones, ones, ones], n));
            }
        }
        assert_matches_solo(&records);
    }

    #[test]
    fn out_of_range_ones_clamp_like_each_point() {
        // 10_000 exceeds every width; each point clamps to its own max.
        let records = vec![(ExposureKind::Demand, vec![10_000, 10_000, 10_000], 5)];
        assert_matches_solo(&records);
        // Same across seven one-lane groups.
        let pts = seven_points();
        let records = vec![(ExposureKind::Demand, vec![10_000; 7], 5)];
        assert_matches_solo_at(pts, &records);
    }

    #[test]
    fn finish_preserves_point_order() {
        let pts = points();
        let multi = MultiReplayAggregator::new(pts.clone());
        let finished = multi.finish();
        assert_eq!(finished.len(), pts.len());
        for (agg, (model, _)) in finished.iter().zip(&pts) {
            assert_eq!(agg.model(), model);
        }
    }

    /// `n` heterogeneous points: widths, disturb probabilities and
    /// correction strengths all vary, so every lane differs.
    fn n_points(n: usize) -> Vec<(AccumulationModel, u32)> {
        (0..n)
            .map(|p| {
                let p_rd = 10f64.powi(-(3 + (p % 6) as i32));
                let t = 1 + p % 3;
                (AccumulationModel::new(p_rd, t), 130 + 23 * (p as u32 % 20))
            })
            .collect()
    }

    #[test]
    fn a_reused_aggregator_matches_a_fresh_one_per_stream() {
        // 1, 3 and 5 points form one-lane groups; at 21 points the
        // first and last share a width, and one weight.
        for n in [1, 3, 5, 21] {
            let pts = n_points(n);
            let widths: Vec<u32> = pts.iter().map(|&(_, w)| w).collect();
            // Scrub and no-scrub streams, a long-N stream followed by a
            // one-record stream (the histogram must shrink back), and a
            // repeat of the first stream (all memo hits).
            let streams = [
                seeded_records(&widths, 400, 0x5eed, true),
                seeded_records(&widths, 300, 0xface, false),
                vec![(
                    ExposureKind::Demand,
                    widths.iter().map(|w| w / 2).collect(),
                    2,
                )],
                seeded_records(&widths, 400, 0x5eed, true),
            ];
            let mut reused = MultiReplayAggregator::new(pts.clone());
            for (i, records) in streams.iter().enumerate() {
                let mut fresh = MultiReplayAggregator::new(pts.clone());
                // Stream 1 goes through the block entry, the others
                // record by record.
                if i == 1 {
                    let recs: Vec<(ExposureKind, u64)> =
                        records.iter().map(|&(k, _, n)| (k, n)).collect();
                    let flat: Vec<u32> = records.iter().flat_map(|(_, o, _)| o.clone()).collect();
                    reused.record_block(&recs, &flat);
                } else {
                    for (kind, ones, n) in records {
                        reused.record(*kind, ones, *n);
                    }
                }
                for (kind, ones, n) in records {
                    fresh.record(*kind, ones, *n);
                }
                let got = reused.take_reports();
                let want = fresh.finish();
                assert_eq!(got.len(), want.len());
                for (got, want) in got.iter().zip(&want) {
                    assert_bit_equal(got, want);
                }
            }
        }
    }

    #[test]
    fn take_reports_leaves_an_empty_aggregator() {
        let pts = seven_points();
        let widths: Vec<u32> = pts.iter().map(|&(_, w)| w).collect();
        let mut multi = MultiReplayAggregator::new(pts.clone());
        for (kind, ones, n) in seeded_records(&widths, 200, 3, true) {
            multi.record(kind, &ones, n);
        }
        let _ = multi.take_reports();
        let empty = MultiReplayAggregator::new(pts);
        for (got, want) in multi.take_reports().iter().zip(&empty.finish()) {
            assert_bit_equal(got, want);
        }
    }

    #[test]
    fn matches_points_requires_the_same_points_in_order() {
        let pts = n_points(5);
        let multi = MultiReplayAggregator::new(pts.clone());
        assert!(multi.matches_points(&pts));
        assert!(!multi.matches_points(&pts[..4]));
        let mut swapped = pts.clone();
        swapped.swap(0, 1);
        assert!(!multi.matches_points(&swapped));
        let mut wider = pts.clone();
        wider[2].1 += 1;
        assert!(!multi.matches_points(&wider));
        let mut hotter = pts;
        hotter[4].0 = AccumulationModel::new(0.5, 1);
        assert!(!multi.matches_points(&hotter));
    }

    /// `n` points whose widths cycle through three values, so the groups
    /// interleave in construction order.
    fn grouped_points(n: usize) -> Vec<(AccumulationModel, u32)> {
        const WIDTHS: [u32; 3] = [542, 130, 522];
        (0..n)
            .map(|p| {
                let p_rd = 10f64.powi(-(2 + (p % 7) as i32));
                (AccumulationModel::new(p_rd, 1 + p % 3), WIDTHS[p % 3])
            })
            .collect()
    }

    /// Feeds a stream with one weight per record per stored width to the
    /// per-width entry, to the per-point entries (each point given its
    /// width's weight) and to per-point aggregators, and asserts all
    /// three agree bit for bit.
    fn assert_grouped_matches_solo(pts: Vec<(AccumulationModel, u32)>, count: u64) {
        let mut by_width = MultiReplayAggregator::new(pts.clone());
        let widths: Vec<u32> = by_width.stored_widths().iter().map(|&w| w as u32).collect();
        let slot: Vec<usize> = pts
            .iter()
            .map(|&(_, w)| widths.binary_search(&w).expect("width present"))
            .collect();
        let records = seeded_records(&widths, count, 0xbeef, true);
        let mut by_point = MultiReplayAggregator::new(pts.clone());
        let mut solo: Vec<ReplayAggregator> = pts
            .iter()
            .map(|&(m, w)| ReplayAggregator::new(m, w))
            .collect();
        for chunk in records.chunks(64) {
            let recs: Vec<(ExposureKind, u64)> = chunk.iter().map(|&(k, _, n)| (k, n)).collect();
            let flat: Vec<u32> = chunk.iter().flat_map(|(_, o, _)| o.clone()).collect();
            by_width.record_block_by_width(&recs, &flat);
            let scattered: Vec<u32> = chunk
                .iter()
                .flat_map(|(_, o, _)| slot.iter().map(|&s| o[s]))
                .collect();
            by_point.record_block(&recs, &scattered);
        }
        for (kind, ones, n) in &records {
            for (agg, &s) in solo.iter_mut().zip(&slot) {
                agg.record(*kind, ones[s], *n);
            }
        }
        for batch in [by_width.finish(), by_point.finish()] {
            assert_eq!(batch.len(), solo.len());
            for (got, want) in batch.iter().zip(&solo) {
                assert_bit_equal(got, want.score());
            }
        }
    }

    #[test]
    fn width_groups_match_solo_bitwise() {
        // 3 groups of 1, of 7 (the explorer's grid), and of 9 and 14
        // lanes.
        for n in [3, 21, 27, 40] {
            assert_grouped_matches_solo(grouped_points(n), 600);
        }
    }

    #[test]
    fn stored_widths_are_distinct_and_ascending() {
        let multi = MultiReplayAggregator::new(grouped_points(21));
        assert_eq!(multi.stored_widths(), &[130, 522, 542]);
    }

    #[test]
    #[should_panic(expected = "points of one stored width need one ones-count")]
    fn record_block_rejects_a_row_whose_same_width_points_disagree() {
        // Two groups of three (widths 542, 130, 522 cycling); the second
        // row gives the two points of width 542 different weights.
        let mut multi = MultiReplayAggregator::new(grouped_points(6));
        let rows = [[100, 7, 200, 100, 7, 200], [100, 7, 200, 101, 7, 200]];
        multi.record_block(
            &[(ExposureKind::Demand, 3), (ExposureKind::Demand, 4)],
            rows.as_flattened(),
        );
    }

    #[test]
    #[should_panic(expected = "one ones-count per record per stored width")]
    fn rejects_mismatched_width_block() {
        let mut multi = MultiReplayAggregator::new(grouped_points(6));
        multi.record_block_by_width(&[(ExposureKind::Demand, 1)], &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn rejects_empty_point_set() {
        let _ = MultiReplayAggregator::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "one ones-count per analysis point")]
    fn rejects_mismatched_ones_slice() {
        let mut multi = MultiReplayAggregator::new(points());
        multi.record(ExposureKind::Demand, &[1], 1);
    }

    #[test]
    fn cells_score_other_points_of_the_same_widths() {
        // Tally at one set of points, score the cells at another that
        // shares the widths: the same as replaying the stream there.
        let (tallied_at, scored_at) = (grouped_points(6), grouped_points(21));
        let records = seeded_records(&[130, 522, 542], 500, 0xce11, true);
        let mut tally = MultiReplayAggregator::new(tallied_at);
        let mut direct = MultiReplayAggregator::new(scored_at.clone());
        for (kind, ones, n) in &records {
            let at = |pts: &[(AccumulationModel, u32)]| -> Vec<u32> {
                pts.iter()
                    .map(|&(_, w)| ones[[130, 522, 542].binary_search(&w).unwrap()])
                    .collect()
            };
            tally.record(*kind, &at(&grouped_points(6)), *n);
            direct.record(*kind, &at(&scored_at), *n);
        }
        let cells = tally.take_cells();
        assert_eq!(cells.widths(), &[130, 522, 542]);
        assert!(cells.cell_count() > 0);
        let mut other = MultiReplayAggregator::new(scored_at);
        assert!(other.covers(&cells));
        let from_cells = other.score_cells(&cells);
        for (got, want) in from_cells.iter().zip(&direct.finish()) {
            assert_bit_equal(got, want);
        }
        // The tallies were emptied.
        assert_eq!(tally.take_cells().cell_count(), 0);
        let narrow = MultiReplayAggregator::new(vec![(AccumulationModel::new(1e-6, 1), 288)]);
        assert!(!narrow.covers(&cells));
    }
}
