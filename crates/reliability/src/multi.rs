//! Batched multi-point replay: score every sweep point in one pass.
//!
//! An ECC sweep (`Experiment::run_at`, `reap sweep --ecc-sweep`) evaluates
//! the same captured exposure stream under several analysis points — one
//! per `EccStrength` × MTJ operating point. Walking the stream once per
//! point repeats all the per-record bookkeeping (and the stream itself
//! falls out of cache between walks). [`MultiReplayAggregator`] instead
//! carries the state of *all* points and scores each record against every
//! point before moving to the next record, so the stream is traversed
//! exactly once.
//!
//! [`MultiReplayAggregator`] is the one batched kernel. It is organised
//! around *width groups*: every point with the same stored line width
//! (say, the seven read currents of one ECC strength) sees the same line
//! weight `ones` and the same `N` in a record, so a group reads one
//! weight, computes one table index and one memo row per record, and
//! runs its lanes through one const-generic loop. Both the Eq. (3)
//! conventional tail *and* the Eq. (6) REAP term are memoized over the
//! dense small-`N` region, so the `exp_m1` transcendental runs once per
//! distinct `(point, ones, N)` key instead of once per record.
//!
//! Data-layout tricks:
//!
//! * points are grouped by stored width, ascending, with a point →
//!   `(group, lane)` map so reports still come back in construction
//!   order. Each group owns its tables, sums and histogram lanes;
//! * a group's `single_read_table`s are stacked lane-innermost as
//!   `[ones][lane]` for `ones ∈ 0..=width`, so one record's gather is
//!   one contiguous run of lanes; a parallel table caches `ln(1 − u)` so
//!   the Eq. (6) REAP term needs one `exp_m1` per key instead of `ln_1p`
//!   + `exp_m1`;
//! * the memo covers `N ≤ 64` — the `N` distribution is heavily
//!   concentrated at small values (most demand reads conceal nothing).
//!   It is one table with a row per `(ones, N)` key, and each row holds
//!   every group's `[conv lanes | reap lanes]` segment, so a record
//!   touches one contiguous segment per group and one NaN test per lane
//!   block says whether any of its cells is still uncomputed;
//! * the hot loop is `demand_block::<K>` for `K ∈ 1..=8` lanes, with the
//!   running sums in registers across a whole run of demand records.
//!   Groups wider than eight lanes run as several blocks. Memo misses
//!   and keys outside the memo (`N > 64`, or a weight past the width)
//!   leave the loop for cold helpers;
//! * [`record_block_by_width`] takes one weight per record per *width*
//!   (exactly the layout `sample_ones_multi_batch` writes), so the
//!   replay feeder never scatters weights to points. The per-point
//!   entries ([`record`], [`record_block`]) gather each group's weight
//!   from its first lane; a record whose same-width points carry
//!   *different* weights (only a hand-fed stream can) is scored point by
//!   point on the one-lane path, in its place in the stream;
//! * histogram bin membership and event counts depend only on the record
//!   (`N` and kind), not on the point, so the kernel keeps *one* shared
//!   count vector and per-lane failure sums, rebuilding per-point
//!   [`LogHistogram`]s only at [`finish`].
//!
//! # Bit-identity contract
//!
//! The kernel is **bit-identical** to running `points.len()` independent
//! [`ReplayAggregator`]s over the stream in capture order: each point's
//! floating-point sums see the same values in the same order (records
//! outer, points inner preserves per-point record order), the stacked
//! rows reproduce the per-point clamp semantics exactly, and every
//! memoized value is the output of the same pure function on the same
//! inputs. The unit tests below and `crates/core/tests/proptests.rs` pin
//! this contract against per-point [`ReplayAggregator`]s.
//!
//! [`finish`]: MultiReplayAggregator::finish
//! [`record`]: MultiReplayAggregator::record
//! [`record_block`]: MultiReplayAggregator::record_block
//! [`record_block_by_width`]: MultiReplayAggregator::record_block_by_width

use std::ops::Range;

use crate::histogram::LogHistogram;
use crate::model::AccumulationModel;
use crate::mttf::FailureAggregator;
use crate::replay::{ExposureKind, ReplayAggregator};

/// Largest `N` covered by the dense `fail_conventional`/`fail_reap`
/// memos. Beyond this the terms are computed directly (still
/// bit-identical — the memos only cache, never approximate).
const MEMO_MAX_READS: u64 = 64;

/// Memo rows per `ones` value: one per `N ∈ 0..=MEMO_MAX_READS`.
const MEMO_W: usize = MEMO_MAX_READS as usize + 1;

/// Most lanes one pass of the group loop keeps in registers; wider
/// groups run as several blocks.
const MAX_LANES: usize = 8;

/// XOR mask for memo cells: a cell stores `bits(value) ^ MEMO_XOR`, so
/// the zero cells a freshly zero-allocated memo starts with decode to a
/// quiet NaN (the "not computed" sentinel). Zeroed allocation is backed
/// by copy-on-write zero pages, so building the memos costs nothing
/// until cells are actually probed — the kernel's fixed setup cost no
/// longer scales with `points × width` on short captures. A computed
/// term whose bits happened to equal the mask would re-encode to zero
/// and merely be recomputed on the next probe; terms are finite
/// probabilities, never NaN, so that cannot occur.
const MEMO_XOR: u64 = 0x7ff8_0000_0000_0000;

/// Decodes a memo cell (NaN = not computed).
#[inline(always)]
fn memo_get(cell: u64) -> f64 {
    f64::from_bits(cell ^ MEMO_XOR)
}

/// Encodes a computed term into its memo-cell representation.
#[inline(always)]
fn memo_put(value: f64) -> u64 {
    value.to_bits() ^ MEMO_XOR
}

/// Number of log₂ histogram bins a `u64` read count can land in.
const HIST_BINS: usize = 64;

/// Log₂ histogram bin of a demand read count (`n ≥ 1`).
#[inline(always)]
fn bin_of(n: u64) -> usize {
    (63 - n.leading_zeros()) as usize
}

/// Eq. (6) REAP term `1 − (1 − u)^N` from the precomputed `ln(1 − u)`,
/// with the degenerate corners pinned exactly as in
/// [`AccumulationModel::fail_reap`]: zero reads can't fail, and a
/// certainly-failing read (`u = 1`, where `ln(1 − u) = −inf`) fails for
/// any `N ≥ 1`. Without the guards `0 × −inf` goes NaN.
#[inline]
fn reap_term(u: f64, ln1m_u: f64, n_reads: u64) -> f64 {
    if u == 0.0 || n_reads == 0 {
        0.0
    } else if u == 1.0 {
        1.0
    } else {
        -(n_reads as f64 * ln1m_u).exp_m1()
    }
}

/// Dense memo of `fail_conventional(ones, N)` and the Eq. (6) REAP term
/// for `N ∈ 0..=MEMO_MAX_READS`, shared by all groups. The row of key
/// `(ones, N)` starts at `(ones * MEMO_W + N) * row_len` and holds, for
/// each group in turn, its conventional lanes and then its REAP lanes,
/// so one record touches one contiguous segment per group. A row holds
/// two cells per point, whatever the grouping, so the kernel touches as
/// many pages as one point-innermost table would: per-group memos, or
/// `N`-major rows, commit more pages on the same stream. Cells hold
/// `bits(value) ^ MEMO_XOR`, so the all-zero state a fresh zeroed
/// allocation starts in decodes to NaN — the "not yet computed"
/// sentinel — without a fill pass, and untouched pages are never
/// committed. See [`memo_get`]/[`memo_put`].
#[derive(Debug, Clone)]
struct Memo {
    cells: Vec<u64>,
    /// Cells per row: two per point.
    row_len: usize,
}

/// The points that share one stored width, as the lanes of one loop.
#[derive(Debug, Clone)]
struct WidthGroup {
    /// The stored line width every lane shares.
    width: u32,
    /// Per-lane accumulation models.
    models: Vec<AccumulationModel>,
    /// Lane-innermost `[ones][lane]` for `ones ∈ 0..=width`:
    /// `fail_single(ones)` of each lane's model.
    single: Vec<f64>,
    /// `ln(1 − single[..])` for the Eq. (6) closed form, same layout.
    ln1m_single: Vec<f64>,
    /// Offset of this group's `[conv lanes | reap lanes]` segment in
    /// every row of the shared memo.
    memo_at: usize,
    /// Per-lane running sums.
    conv_sum: Vec<f64>,
    reap_sum: Vec<f64>,
    serial_sum: Vec<f64>,
    wb_sum: Vec<f64>,
    /// Lane-innermost `[bin][lane]` per-bin conventional failure sums.
    hist_fail: Vec<f64>,
}

impl WidthGroup {
    fn new(width: u32, models: Vec<AccumulationModel>, memo_at: usize) -> Self {
        let lanes = models.len();
        let mut single = Vec::with_capacity((width as usize + 1) * lanes);
        let mut ln1m_single = Vec::with_capacity(single.capacity());
        for ones in 0..=width {
            for model in &models {
                let u = model.fail_single(ones);
                single.push(u);
                ln1m_single.push((-u).ln_1p());
            }
        }
        Self {
            width,
            models,
            single,
            ln1m_single,
            memo_at,
            conv_sum: vec![0.0; lanes],
            reap_sum: vec![0.0; lanes],
            serial_sum: vec![0.0; lanes],
            wb_sum: vec![0.0; lanes],
            hist_fail: vec![0.0; HIST_BINS * lanes],
        }
    }

    fn lanes(&self) -> usize {
        self.models.len()
    }

    /// Start of this group's segment in the memo row of `(ones, n)`,
    /// or `None` outside the memoized region.
    #[inline(always)]
    fn memo_row(&self, memo: &Memo, ones: u32, n: u64) -> Option<usize> {
        (n <= MEMO_MAX_READS && ones <= self.width)
            .then(|| (ones as usize * MEMO_W + n as usize) * memo.row_len + self.memo_at)
    }

    /// Scores a run of demand records on every lane: `ones[r * stride +
    /// at]` is record `r`'s weight at this group's width.
    fn demand_run(
        &mut self,
        memo: &mut Memo,
        run: &[(ExposureKind, u64)],
        ones: &[u32],
        stride: usize,
        at: usize,
    ) {
        let lanes = self.lanes();
        let mut lane0 = 0;
        while lane0 < lanes {
            let k = (lanes - lane0).min(MAX_LANES);
            let block = lane0..lane0 + k;
            match k {
                1 => self.demand_block::<1>(memo, block, run, ones, stride, at),
                2 => self.demand_block::<2>(memo, block, run, ones, stride, at),
                3 => self.demand_block::<3>(memo, block, run, ones, stride, at),
                4 => self.demand_block::<4>(memo, block, run, ones, stride, at),
                5 => self.demand_block::<5>(memo, block, run, ones, stride, at),
                6 => self.demand_block::<6>(memo, block, run, ones, stride, at),
                7 => self.demand_block::<7>(memo, block, run, ones, stride, at),
                _ => self.demand_block::<MAX_LANES>(memo, block, run, ones, stride, at),
            }
            lane0 += k;
        }
    }

    /// The hot loop: `K` lanes of a run of demand records, their running
    /// sums held in registers across the run. Per lane the additions
    /// still happen in record order, so the float sums are those of a
    /// per-record, per-point walk.
    fn demand_block<const K: usize>(
        &mut self,
        memo: &mut Memo,
        block: Range<usize>,
        run: &[(ExposureKind, u64)],
        ones: &[u32],
        stride: usize,
        at: usize,
    ) {
        debug_assert_eq!(block.len(), K);
        let lanes = self.lanes();
        let lane0 = block.start;
        let mut cs: [f64; K] = self.conv_sum[block.clone()].try_into().expect("K lanes");
        let mut rs: [f64; K] = self.reap_sum[block.clone()].try_into().expect("K lanes");
        let mut ss: [f64; K] = self.serial_sum[block.clone()].try_into().expect("K lanes");
        for (r, &(_, n)) in run.iter().enumerate() {
            let o = ones[r * stride + at];
            let ti = (o.min(self.width) as usize) * lanes + lane0;
            let u: [f64; K] = self.single[ti..ti + K].try_into().expect("K lanes");
            let (pc, pr) = match self.memo_row(memo, o, n) {
                Some(row) => {
                    // Straight-line: test the cells, fill any still
                    // uncomputed in place, then read them. Returning the
                    // filled terms instead would merge them with the hit
                    // path's through a stack slot, a store-forwarding
                    // stall on every record.
                    let mi = row + lane0;
                    if Self::uncomputed::<K>(&memo.cells[mi..mi + lanes + K], lanes) {
                        self.fill_memo::<K>(memo, mi, lane0, o, n, ti);
                    }
                    let cells = &memo.cells[mi..mi + lanes + K];
                    (
                        std::array::from_fn::<f64, K, _>(|l| memo_get(cells[l])),
                        std::array::from_fn::<f64, K, _>(|l| memo_get(cells[lanes + l])),
                    )
                }
                None => self.terms::<K>(lane0, o, n, ti),
            };
            let hi = bin_of(n) * lanes + lane0;
            let hist = &mut self.hist_fail[hi..hi + K];
            for l in 0..K {
                cs[l] += pc[l];
                rs[l] += pr[l];
                ss[l] += u[l];
                hist[l] += pc[l];
            }
        }
        self.conv_sum[block.clone()].copy_from_slice(&cs);
        self.reap_sum[block.clone()].copy_from_slice(&rs);
        self.serial_sum[block].copy_from_slice(&ss);
    }

    /// The `K` lanes' `(conventional, REAP)` terms of key `(ones, n)`,
    /// computed directly; `ti` indexes the lanes' `single` entries.
    #[cold]
    #[inline(never)]
    fn terms<const K: usize>(
        &self,
        lane0: usize,
        ones: u32,
        n: u64,
        ti: usize,
    ) -> ([f64; K], [f64; K]) {
        (
            std::array::from_fn(|l| self.models[lane0 + l].fail_conventional(ones, n)),
            std::array::from_fn(|l| reap_term(self.single[ti + l], self.ln1m_single[ti + l], n)),
        )
    }

    /// Whether any of `K` lanes' conventional cells (`cells[..K]`) or
    /// REAP cells (`cells[lanes..lanes + K]`) is still uncomputed. Cached
    /// cells are finite probabilities and NaN marks "not computed", so
    /// one NaN test of their sum covers the block.
    #[inline(always)]
    fn uncomputed<const K: usize>(cells: &[u64], lanes: usize) -> bool {
        let mut probe = 0.0;
        for l in 0..K {
            probe += memo_get(cells[l]) + memo_get(cells[lanes + l]);
        }
        probe.is_nan()
    }

    /// Computes and stores the memo row segment at `mi`'s cells still
    /// uncomputed: [`terms`](Self::terms) written into the memo, which
    /// the caller then reads.
    #[cold]
    #[inline(never)]
    fn fill_memo<const K: usize>(
        &self,
        memo: &mut Memo,
        mi: usize,
        lane0: usize,
        ones: u32,
        n: u64,
        ti: usize,
    ) {
        let lanes = self.lanes();
        for l in 0..K {
            if memo_get(memo.cells[mi + l]).is_nan() {
                let value = self.models[lane0 + l].fail_conventional(ones, n);
                memo.cells[mi + l] = memo_put(value);
            }
            if memo_get(memo.cells[mi + lanes + l]).is_nan() {
                let value = reap_term(self.single[ti + l], self.ln1m_single[ti + l], n);
                memo.cells[mi + lanes + l] = memo_put(value);
            }
        }
    }

    /// Scores one dirty-scrub or dirty-eviction record on `block`'s
    /// lanes: the conventional tail only, into the conventional or the
    /// write-back sums.
    fn dirty(
        &mut self,
        memo: &mut Memo,
        block: Range<usize>,
        kind: ExposureKind,
        ones: u32,
        n: u64,
    ) {
        let row = self.memo_row(memo, ones, n);
        for l in block {
            let p_conv = match row {
                Some(row) => {
                    let cached = memo_get(memo.cells[row + l]);
                    if cached.is_nan() {
                        let value = self.models[l].fail_conventional(ones, n);
                        memo.cells[row + l] = memo_put(value);
                        value
                    } else {
                        cached
                    }
                }
                None => self.models[l].fail_conventional(ones, n),
            };
            match kind {
                ExposureKind::DirtyScrub => self.conv_sum[l] += p_conv,
                ExposureKind::DirtyEviction => self.wb_sum[l] += p_conv,
                ExposureKind::Demand => unreachable!("demand records take the run path"),
            }
        }
    }

    /// Zeroes the sums and histogram lanes; tables and memo survive.
    fn reset(&mut self) {
        for sums in [
            &mut self.conv_sum,
            &mut self.reap_sum,
            &mut self.serial_sum,
            &mut self.wb_sum,
            &mut self.hist_fail,
        ] {
            sums.fill(0.0);
        }
    }
}

/// Scores a captured exposure stream against many analysis points in a
/// single pass — the width-grouped kernel, bit-identical to independent
/// per-point [`ReplayAggregator`]s.
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
///     assert_eq!(
///         got.conventional().expected_failures(),
///         want.conventional().expected_failures(),
///     );
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
    /// pairs whose weights must agree for a record to take the group
    /// loop.
    twins: Vec<(usize, usize)>,
    /// One group per distinct width, ascending.
    groups: Vec<WidthGroup>,
    /// The groups' shared term memo.
    memo: Memo,
    /// The groups' widths, ascending — the per-width feed's row layout.
    group_widths: Vec<usize>,
    /// Per-width weights the per-point entries gather a block into.
    gathered: Vec<u32>,
    /// Shared per-bin demand counts (bin membership depends only on `N`,
    /// so every point's count vector is identical).
    hist_counts: Vec<u64>,
    /// Allocated-bin watermark, mirroring `LogHistogram`'s growth:
    /// highest touched bin + 1.
    hist_len: usize,
    /// Largest demand `N` observed (shared across points).
    hist_max_n: u64,
    /// Demand records seen (= per-point reap/serial event counts).
    demand_events: u64,
    /// Dirty-scrub records seen (demand + scrub = conventional events).
    scrub_events: u64,
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
            .map(|(&w, models)| {
                let at = memo_at;
                memo_at += 2 * models.len();
                WidthGroup::new(w, models, at)
            })
            .collect();
        let max_width = *group_widths.last().expect("non-empty") as usize;
        let memo = Memo {
            cells: vec![0; (max_width + 1) * MEMO_W * 2 * points.len()],
            row_len: 2 * points.len(),
        };
        let (models, widths) = points.into_iter().unzip();
        Self {
            models,
            widths,
            slots,
            firsts,
            twins,
            groups,
            memo,
            group_widths: group_widths.into_iter().map(|w| w as usize).collect(),
            gathered: Vec::new(),
            hist_counts: vec![0; HIST_BINS],
            hist_len: 0,
            hist_max_n: 0,
            demand_events: 0,
            scrub_events: 0,
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
    /// stored width*.
    ///
    /// Records must be fed in capture order (the bit-identity contract).
    ///
    /// # Panics
    ///
    /// Panics if `line_ones.len() != self.num_points()`, or on a demand
    /// record with `unchecked_reads == 0` (every demand read counts
    /// itself, so `N ≥ 1`).
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
    /// would take them. Bit-identical to calling `record` per item in
    /// order.
    ///
    /// Each group's weight is read from its first lane, and the block
    /// runs through [`record_block_by_width`](Self::record_block_by_width);
    /// a record whose same-width points carry different weights is
    /// scored point by point instead, in its place in the stream.
    ///
    /// # Panics
    ///
    /// Panics if `ones.len() != records.len() * self.num_points()`, or
    /// on a demand record with `unchecked_reads == 0`.
    pub fn record_block(&mut self, records: &[(ExposureKind, u64)], ones: &[u32]) {
        let npts = self.models.len();
        assert_eq!(
            ones.len(),
            records.len() * npts,
            "one ones-count per record per analysis point"
        );
        let mut gathered = std::mem::take(&mut self.gathered);
        gathered.clear();
        let mut start = 0;
        for (r, row) in ones.chunks_exact(npts).enumerate() {
            if self.twins.iter().all(|&(p, first)| row[p] == row[first]) {
                gathered.extend(self.firsts.iter().map(|&first| row[first]));
            } else {
                self.record_block_by_width(&records[start..r], &gathered);
                gathered.clear();
                self.record_per_point(records[r], row);
                start = r + 1;
            }
        }
        self.record_block_by_width(&records[start..], &gathered);
        self.gathered = gathered;
    }

    /// Scores a block of exposure records with one weight per stored
    /// width: `records[r]` is `(kind, unchecked_reads)` and `ones[r *
    /// widths + g]` the record's stored-`1` count at
    /// [`stored_widths`](Self::stored_widths)`()[g]` — every point of
    /// that width scores that weight. This is the replay feeder's entry:
    /// `sample_ones_multi_batch` writes exactly this layout. Runs of
    /// consecutive demand records go through the group loop, which
    /// keeps each lane's running sums in registers across the run.
    ///
    /// # Panics
    ///
    /// Panics if `ones.len() != records.len() * self.stored_widths().len()`,
    /// or on a demand record with `unchecked_reads == 0`.
    pub fn record_block_by_width(&mut self, records: &[(ExposureKind, u64)], ones: &[u32]) {
        let nw = self.groups.len();
        assert_eq!(
            ones.len(),
            records.len() * nw,
            "one ones-count per record per stored width"
        );
        let mut i = 0;
        while i < records.len() {
            let (kind, reads) = records[i];
            if kind == ExposureKind::Demand {
                let mut j = i + 1;
                while j < records.len() && records[j].0 == ExposureKind::Demand {
                    j += 1;
                }
                let run = &records[i..j];
                self.count_demand_run(run);
                for (g, group) in self.groups.iter_mut().enumerate() {
                    group.demand_run(&mut self.memo, run, &ones[i * nw..j * nw], nw, g);
                }
                i = j;
            } else {
                if kind == ExposureKind::DirtyScrub {
                    self.scrub_events += 1;
                }
                for (g, group) in self.groups.iter_mut().enumerate() {
                    let lanes = 0..group.lanes();
                    group.dirty(&mut self.memo, lanes, kind, ones[i * nw + g], reads);
                }
                i += 1;
            }
        }
    }

    /// Scores one record whose same-width points carry different
    /// weights: each point on its own one-lane path.
    fn record_per_point(&mut self, (kind, reads): (ExposureKind, u64), line_ones: &[u32]) {
        match kind {
            ExposureKind::Demand => self.count_demand_run(&[(kind, reads)]),
            ExposureKind::DirtyScrub => self.scrub_events += 1,
            ExposureKind::DirtyEviction => {}
        }
        for (&(g, lane), ones) in self.slots.iter().zip(line_ones) {
            let group = &mut self.groups[g];
            match kind {
                ExposureKind::Demand => group.demand_block::<1>(
                    &mut self.memo,
                    lane..lane + 1,
                    &[(kind, reads)],
                    &[*ones],
                    1,
                    0,
                ),
                _ => group.dirty(&mut self.memo, lane..lane + 1, kind, *ones, reads),
            }
        }
    }

    /// Record-level bookkeeping of a run of demand records: the shared
    /// histogram counts and the demand event count.
    fn count_demand_run(&mut self, run: &[(ExposureKind, u64)]) {
        for &(_, n) in run {
            assert!(n >= 1, "N counts the demand read itself, so N >= 1");
            let bin = bin_of(n);
            if bin >= self.hist_len {
                self.hist_len = bin + 1;
            }
            self.hist_counts[bin] += 1;
            if n > self.hist_max_n {
                self.hist_max_n = n;
            }
        }
        self.demand_events += run.len() as u64;
    }

    /// Scores a whole stream of `(kind, line_ones, unchecked_reads)`
    /// records, in iteration order — the streaming-feeder counterpart of
    /// [`record`](Self::record), for callers that pull records off a
    /// bounded-memory iterator instead of holding a slice. Exactly
    /// equivalent to calling `record` per item.
    ///
    /// # Panics
    ///
    /// Panics if any item's `line_ones.len() != self.num_points()`.
    pub fn record_all<'a, I>(&mut self, records: I)
    where
        I: IntoIterator<Item = (ExposureKind, &'a [u32], u64)>,
    {
        for (kind, line_ones, unchecked_reads) in records {
            self.record(kind, line_ones, unchecked_reads);
        }
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

    /// Tears the batch apart into one [`ReplayAggregator`] per point, in
    /// construction order, each indistinguishable from an independent
    /// replay of the stream.
    pub fn finish(mut self) -> Vec<ReplayAggregator> {
        self.take_reports()
    }

    /// [`finish`](Self::finish) without giving up the kernel tables:
    /// returns the per-point reports of every record fed so far and
    /// zeroes the sums, histogram and event counts, so the next stream
    /// starts from scratch. The stacked `single`/`ln(1 − u)` tables and
    /// the memos survive. Memo cells cache a pure function of
    /// `(model, ones, N)`, so a reused aggregator is bit-identical to a
    /// fresh one — it only skips rebuilding the tables and re-deriving
    /// the terms a previous stream already computed, and keeps one memo
    /// allocation alive instead of one per stream.
    pub fn take_reports(&mut self) -> Vec<ReplayAggregator> {
        let conv_events = self.demand_events + self.scrub_events;
        let shared_counts = &self.hist_counts[..self.hist_len];
        let reports = self
            .models
            .iter()
            .zip(&self.widths)
            .zip(&self.slots)
            .map(|((&model, &width), &(g, lane))| {
                let group = &self.groups[g];
                let lanes = group.lanes();
                let histogram = LogHistogram::from_parts(
                    shared_counts.to_vec(),
                    (0..self.hist_len)
                        .map(|bin| group.hist_fail[bin * lanes + lane])
                        .collect(),
                    self.hist_max_n,
                );
                ReplayAggregator::from_parts(
                    model,
                    width,
                    FailureAggregator::from_parts(group.conv_sum[lane], conv_events),
                    FailureAggregator::from_parts(group.reap_sum[lane], self.demand_events),
                    FailureAggregator::from_parts(group.serial_sum[lane], self.demand_events),
                    histogram,
                    group.wb_sum[lane],
                )
            })
            .collect();
        for group in &mut self.groups {
            group.reset();
        }
        self.hist_counts.fill(0);
        self.hist_len = 0;
        self.hist_max_n = 0;
        self.demand_events = 0;
        self.scrub_events = 0;
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn assert_bit_equal(got: &ReplayAggregator, want: &ReplayAggregator) {
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
            assert_bit_equal(got, want);
        }
        for (got, want) in blocked.finish().iter().zip(&solo) {
            assert_bit_equal(got, want);
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
    /// scrubbing off.
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
                .enumerate()
                .map(|(p, &w)| ((state >> (8 + 4 * (p % 8))) as u32) % (w + 1))
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
    fn record_all_matches_per_record_feeding() {
        let records = [
            (ExposureKind::Demand, [288u32, 300, 310], 1000u64),
            (ExposureKind::DirtyScrub, [100, 110, 120], 40),
            (ExposureKind::DirtyEviction, [288, 300, 310], 500),
        ];
        let mut fed = MultiReplayAggregator::new(points());
        fed.record_all(records.iter().map(|(k, ones, n)| (*k, &ones[..], *n)));
        let mut reference = MultiReplayAggregator::new(points());
        for (kind, ones, n) in &records {
            reference.record(*kind, ones, *n);
        }
        for (got, want) in fed.finish().iter().zip(reference.finish().iter()) {
            assert_eq!(
                got.conventional().expected_failures().to_bits(),
                want.conventional().expected_failures().to_bits()
            );
            assert_eq!(
                got.writeback_exposure().to_bits(),
                want.writeback_exposure().to_bits()
            );
        }
    }

    #[test]
    fn memo_hits_and_misses_agree() {
        // Repeat the exact same key so the second call is a memo hit.
        let records = vec![
            (ExposureKind::Demand, vec![260, 260, 260], 3),
            (ExposureKind::Demand, vec![260, 260, 260], 3),
            (ExposureKind::Demand, vec![260, 260, 260], MEMO_MAX_READS),
            (
                ExposureKind::Demand,
                vec![260, 260, 260],
                MEMO_MAX_READS + 1,
            ),
        ];
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
        // first and last share a width, and the per-point streams give
        // them different weights, so the per-point fallback runs too.
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
                assert_bit_equal(got, want);
            }
        }
    }

    #[test]
    fn width_groups_match_solo_bitwise() {
        // 3 groups of 1, of 7 (the explorer's grid), and of 9 and 14
        // lanes, which the group loop splits into blocks of at most 8.
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
    fn same_width_points_with_different_weights_fall_back_per_point() {
        // Two groups of three; every third record gives one group's
        // points three different weights, the rest one weight per group.
        let pts = grouped_points(6);
        let mut records = Vec::new();
        for (i, (kind, ones, n)) in seeded_records(&[542, 130, 522], 300, 0xf00d, true)
            .into_iter()
            .enumerate()
        {
            let mut per_point: Vec<u32> = (0..6).map(|p| ones[p % 3]).collect();
            if i % 3 == 0 {
                per_point[3] /= 2;
                per_point[4] = (per_point[4] + 7).min(130);
            }
            records.push((kind, per_point, n));
        }
        assert_matches_solo_at(pts, &records);
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
}
