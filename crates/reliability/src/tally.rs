//! Cell tallies: exposure records counted per `(kind, ones, N)` cell,
//! and the one fold that scores analysis points over those counts.
//!
//! Every failure law of the paper (Eqs. (3) and (6), and the single-read
//! term) sees a record only through its event kind, its line's stored-`1`
//! count `ones` and its accumulated read count `N`. So a stream is fully
//! described, for scoring, by how many records fall into each
//! `(kind, ones, N)` cell. A capture of millions of records has only a
//! few thousand distinct cells per stored width.
//!
//! * [`CellTally`] counts one stored width's records: densely for
//!   `N ≤ 64` and `ones ≤ width` (almost every record), sorted and sparse
//!   outside that region. Counting is an integer increment, so a tally
//!   does not depend on the order, the blocks or the calls it was fed in.
//! * [`CellList`] is a tally packed into its non-empty cells in canonical
//!   order, a few bytes a cell. [`TalliedCells`] holds one list per
//!   stored width: everything a fold needs, with no record left.
//! * [`Lanes::fold`] scores the points of one width over a list: per
//!   cell, `count × term` is added to each point's sums. Cells are
//!   visited in the **canonical order** — kind (demand, dirty scrub,
//!   dirty eviction), then `ones` ascending, then `N` ascending — so
//!   each float sum sees the same additions in the same order whatever
//!   stream, block size, thread count or feeding entry produced the
//!   tally. Conventional terms are memoized per `(ones, N ≤ 64)` key
//!   across captures ([`Memo`]); a memo only caches a pure function, so
//!   it never changes a bit.

use std::ops::Range;

use crate::histogram::LogHistogram;
use crate::model::AccumulationModel;
use crate::mttf::FailureAggregator;
use crate::replay::{ExposureKind, ReplayScore};

/// Largest `N` counted in a tally's dense region and covered by the
/// conventional-term memo.
const DENSE_MAX_READS: u64 = 64;

/// Dense columns per `ones` row: one per `N ∈ 0..=DENSE_MAX_READS`.
const DENSE_W: usize = DENSE_MAX_READS as usize + 1;

/// Event kinds in canonical order; a cell's kind is its index here.
const KINDS: usize = 3;

/// Number of log₂ histogram bins a `u64` read count can land in.
const HIST_BINS: usize = 64;

/// Canonical position of an event kind.
#[inline(always)]
fn kind_index(kind: ExposureKind) -> u8 {
    match kind {
        ExposureKind::Demand => 0,
        ExposureKind::DirtyScrub => 1,
        ExposureKind::DirtyEviction => 2,
    }
}

/// A cell's key, `(kind index, ones, N)`: its derived order is the
/// canonical fold order.
type Key = (u8, u32, u64);

/// One non-empty cell: its key and how many records fell into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cell {
    key: Key,
    count: u64,
}

/// Records counted per `(kind, ones, N)` cell for one stored width.
#[derive(Debug, Clone)]
pub(crate) struct CellTally {
    width: u32,
    /// `[kind][ones ∈ 0..=width][N ∈ 0..=64]` counts modulo 2¹⁶: a count
    /// that wraps carries 2¹⁶ into the sparse side. Zero-allocated, so
    /// only the pages of rows that records touch are ever committed, and
    /// 16-bit cells keep those pages few.
    dense: Vec<u16>,
    /// Per kind, the `ones` rows touched so far (`lo..hi`): the rows
    /// packing scans and clearing zeroes.
    touched: [Range<u32>; KINDS],
    /// Cells outside the dense region, and dense carries, sorted by key,
    /// counts merged.
    sparse: Vec<Cell>,
    /// Cells not yet merged into `sparse`.
    pending: Vec<Cell>,
}

/// The `touched` range of a kind no record has reached: empty, and
/// widened to `ones..ones + 1` by the first `min`/`max` update.
const UNTOUCHED: Range<u32> = Range {
    start: u32::MAX,
    end: 0,
};

/// Pending sparse cells are merged once they outnumber this or the
/// merged cells, so the sparse side stays within about twice its
/// distinct cells.
const PENDING_MIN: usize = 1024;

impl CellTally {
    /// An empty tally for lines of `width` stored bits.
    pub(crate) fn new(width: u32) -> Self {
        Self {
            width,
            dense: vec![0; KINDS * (width as usize + 1) * DENSE_W],
            touched: std::array::from_fn(|_| UNTOUCHED),
            sparse: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Counts one record.
    ///
    /// # Panics
    ///
    /// Panics on a demand record with `reads == 0` (every demand read
    /// counts itself, so `N ≥ 1`).
    #[inline]
    pub(crate) fn add(&mut self, kind: ExposureKind, ones: u32, reads: u64) {
        assert!(
            reads >= 1 || kind != ExposureKind::Demand,
            "N counts the demand read itself, so N >= 1"
        );
        let k = kind_index(kind);
        if reads <= DENSE_MAX_READS && ones <= self.width {
            let row = k as usize * (self.width as usize + 1) + ones as usize;
            let count = &mut self.dense[row * DENSE_W + reads as usize];
            *count = count.wrapping_add(1);
            if *count == 0 {
                self.add_sparse((k, ones, reads), 1 << 16);
            }
            let rows = &mut self.touched[k as usize];
            rows.start = rows.start.min(ones);
            rows.end = rows.end.max(ones + 1);
        } else {
            self.add_sparse((k, ones, reads), 1);
        }
    }

    #[cold]
    #[inline(never)]
    fn add_sparse(&mut self, key: Key, count: u64) {
        self.pending.push(Cell { key, count });
        if self.pending.len() >= self.sparse.len().max(PENDING_MIN) {
            self.sparse = merge_pending(&self.sparse, &mut self.pending);
            self.pending.clear();
        }
    }

    /// The non-empty cells, packed in canonical order.
    pub(crate) fn cells(&self) -> CellList {
        let mut list = CellWriter::default();
        let sparse = merge_pending(&self.sparse, &mut self.pending.clone());
        merge_cells(self.dense_cells(), sparse.into_iter(), |cell| {
            list.push(cell)
        });
        list.finish()
    }

    /// The dense region's non-empty cells in canonical order.
    fn dense_cells(&self) -> impl Iterator<Item = Cell> + '_ {
        let rows_per_kind = self.width as usize + 1;
        (0..KINDS as u8).flat_map(move |k| {
            self.touched[k as usize].clone().flat_map(move |ones| {
                let at = (k as usize * rows_per_kind + ones as usize) * DENSE_W;
                self.dense[at..at + DENSE_W]
                    .iter()
                    .enumerate()
                    .filter(|&(_, &count)| count > 0)
                    .map(move |(reads, &count)| Cell {
                        key: (k, ones, reads as u64),
                        count: u64::from(count),
                    })
            })
        })
    }

    /// Empties the tally, keeping its dense allocation.
    pub(crate) fn clear(&mut self) {
        let rows_per_kind = self.width as usize + 1;
        for (k, rows) in self.touched.iter_mut().enumerate() {
            if rows.start < rows.end {
                let lo = (k * rows_per_kind + rows.start as usize) * DENSE_W;
                let hi = (k * rows_per_kind + rows.end as usize) * DENSE_W;
                self.dense[lo..hi].fill(0);
            }
            *rows = UNTOUCHED;
        }
        self.sparse = Vec::new();
        self.pending = Vec::new();
    }
}

/// `sparse` with the `pending` cells counted in, sorted; sorts `pending`.
fn merge_pending(sparse: &[Cell], pending: &mut [Cell]) -> Vec<Cell> {
    pending.sort_unstable_by_key(|cell| cell.key);
    let runs = pending.chunk_by(|a, b| a.key == b.key).map(|run| Cell {
        key: run[0].key,
        count: run.iter().map(|cell| cell.count).sum(),
    });
    let mut merged = Vec::with_capacity(sparse.len() + pending.len());
    merge_cells(sparse.iter().copied(), runs, |cell| merged.push(cell));
    merged
}

/// Merges two key-sorted cell sequences into `emit`, in key order,
/// adding the counts of a key present in both.
fn merge_cells(
    a: impl Iterator<Item = Cell>,
    b: impl Iterator<Item = Cell>,
    mut emit: impl FnMut(Cell),
) {
    let mut b = b.peekable();
    for mut cell in a {
        while let Some(other) = b.next_if(|other| other.key <= cell.key) {
            if other.key == cell.key {
                cell.count += other.count;
            } else {
                emit(other);
            }
        }
        emit(cell);
    }
    b.for_each(emit);
}

/// A tally's non-empty cells, packed in canonical order as LEB128
/// varints: a cell in the same `(kind, ones)` row as the one before it
/// is `ΔN, count` (`ΔN ≥ 1`), and a cell that starts a row is
/// `0, kind, ones, N, count`. Most cells take two or three bytes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct CellList {
    bytes: Vec<u8>,
    len: usize,
}

impl CellList {
    /// The cells, in canonical order.
    fn iter(&self) -> impl Iterator<Item = Cell> + '_ {
        let mut at = 0;
        let mut key: Key = (0, 0, 0);
        std::iter::from_fn(move || {
            if at == self.bytes.len() {
                return None;
            }
            let mut next = || get_varint(&self.bytes, &mut at);
            match next() {
                0 => key = (next() as u8, next() as u32, next()),
                step => key.2 += step,
            }
            Some(Cell { key, count: next() })
        })
    }

    /// `a` and `b` as one list: the cells of both, counts of a shared key
    /// added — the list of the two tallies' records together.
    pub(crate) fn merge(a: &CellList, b: &CellList) -> CellList {
        let mut list = CellWriter::default();
        merge_cells(a.iter(), b.iter(), |cell| list.push(cell));
        list.finish()
    }
}

/// Packs cells, given in canonical order, into a [`CellList`].
#[derive(Default)]
struct CellWriter {
    list: CellList,
    last: Option<Key>,
}

impl CellWriter {
    fn push(&mut self, cell: Cell) {
        let (kind, ones, reads) = cell.key;
        let bytes = &mut self.list.bytes;
        match self.last {
            Some((k, o, n)) if (k, o) == (kind, ones) => {
                debug_assert!(reads > n, "cells must come in canonical order");
                put_varint(bytes, reads - n);
            }
            _ => {
                for field in [0, u64::from(kind), u64::from(ones), reads] {
                    put_varint(bytes, field);
                }
            }
        }
        put_varint(bytes, cell.count);
        self.last = Some(cell.key);
        self.list.len += 1;
    }

    fn finish(mut self) -> CellList {
        self.list.bytes.shrink_to_fit();
        self.list
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn get_varint(bytes: &[u8], at: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let b = bytes[*at];
        *at += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// A stream's records reduced to their cells, one packed cell list per
/// stored width: what scoring any analysis point at one of those widths
/// reads, without the records.
///
/// Built by [`MultiReplayAggregator::take_cells`] and scored by
/// [`MultiReplayAggregator::score_cells`] — at the points the cells were
/// tallied for, or at any others of the same widths.
///
/// [`MultiReplayAggregator::take_cells`]: crate::MultiReplayAggregator::take_cells
/// [`MultiReplayAggregator::score_cells`]: crate::MultiReplayAggregator::score_cells
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TalliedCells {
    /// Stored widths, ascending.
    widths: Vec<u32>,
    /// One list per width.
    lists: Vec<CellList>,
}

impl TalliedCells {
    pub(crate) fn new(widths: Vec<u32>, lists: Vec<CellList>) -> Self {
        debug_assert_eq!(widths.len(), lists.len());
        Self { widths, lists }
    }

    /// The stored widths the cells were tallied at, ascending.
    pub fn widths(&self) -> &[u32] {
        &self.widths
    }

    /// Non-empty cells over all widths.
    pub fn cell_count(&self) -> usize {
        self.lists.iter().map(|list| list.len).sum()
    }

    /// The cells at `width`, if tallied.
    pub(crate) fn at(&self, width: u32) -> Option<&CellList> {
        let g = self.widths.binary_search(&width).ok()?;
        Some(&self.lists[g])
    }
}

/// XOR mask for memo cells: a cell stores `bits(value) ^ MEMO_XOR`, so
/// the zero cells a freshly zero-allocated memo starts with decode to a
/// quiet NaN (the "not computed" sentinel), and untouched pages are
/// never committed. Terms are finite probabilities, never NaN, so a
/// computed term never reads as uncomputed.
const MEMO_XOR: u64 = 0x7ff8_0000_0000_0000;

/// Memo of `fail_conventional(ones, N)` for `N ≤ 64`, shared by every
/// width of a kernel and kept across captures. The row of key
/// `(ones, N)` starts at `(ones · 65 + N) · row_len` and holds one cell
/// per point, each width's points side by side.
#[derive(Debug, Clone)]
pub(crate) struct Memo {
    cells: Vec<u64>,
    row_len: usize,
}

impl Memo {
    /// A memo for `points` points of stored widths up to `max_width`.
    pub(crate) fn new(max_width: u32, points: usize) -> Self {
        Self {
            cells: vec![0; (max_width as usize + 1) * DENSE_W * points],
            row_len: points,
        }
    }
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

/// The analysis points that share one stored width, scored as the lanes
/// of one fold over that width's cells.
#[derive(Debug, Clone)]
pub(crate) struct Lanes {
    width: u32,
    models: Vec<AccumulationModel>,
    /// Lane-innermost `[ones][lane]` for `ones ∈ 0..=width`:
    /// `fail_single(ones)` of each lane's model. A weight past the width
    /// reads the last row, as a per-point table lookup clamps.
    single: Vec<f64>,
    /// `ln(1 − single[..])` for the Eq. (6) closed form, same layout.
    ln1m_single: Vec<f64>,
}

impl Lanes {
    pub(crate) fn new(width: u32, models: Vec<AccumulationModel>) -> Self {
        let size = (width as usize + 1) * models.len();
        let mut single = Vec::with_capacity(size);
        let mut ln1m_single = Vec::with_capacity(size);
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
        }
    }

    /// The stored width every lane shares.
    pub(crate) fn width(&self) -> u32 {
        self.width
    }

    /// Number of lanes.
    pub(crate) fn len(&self) -> usize {
        self.models.len()
    }

    /// Scores `cells` at lanes `lanes`, one [`ReplayScore`] each: every
    /// sum adds `count × term` per cell in the list's canonical order.
    /// `memo` is the kernel's conventional-term memo with this width's
    /// offset in its rows, or `None` to compute every term.
    pub(crate) fn fold(
        &self,
        lanes: Range<usize>,
        cells: &CellList,
        mut memo: Option<(&mut Memo, usize)>,
    ) -> Vec<ReplayScore> {
        let (l0, k, nl) = (lanes.start, lanes.len(), self.len());
        let (mut conv, mut reap) = (vec![0.0f64; k], vec![0.0f64; k]);
        let (mut serial, mut wb) = (vec![0.0f64; k], vec![0.0f64; k]);
        let mut bin_fail = vec![0.0f64; HIST_BINS * k];
        let mut hist_counts = [0u64; HIST_BINS];
        let (mut hist_len, mut max_n) = (0usize, 0u64);
        let (mut demand_events, mut scrub_events) = (0u64, 0u64);
        let mut p_conv = vec![0.0f64; k];
        for Cell {
            key: (kind, ones, reads),
            count,
        } in cells.iter()
        {
            self.conv_terms(l0, ones, reads, memo.as_mut(), &mut p_conv);
            let c = count as f64;
            match kind {
                0 => {
                    let bin = (63 - reads.leading_zeros()) as usize;
                    hist_counts[bin] += count;
                    hist_len = hist_len.max(bin + 1);
                    max_n = max_n.max(reads);
                    demand_events += count;
                    let ti = ones.min(self.width) as usize * nl + l0;
                    let hist = &mut bin_fail[bin * k..(bin + 1) * k];
                    for l in 0..k {
                        let u = self.single[ti + l];
                        let pr = reap_term(u, self.ln1m_single[ti + l], reads);
                        conv[l] += c * p_conv[l];
                        reap[l] += c * pr;
                        serial[l] += c * u;
                        hist[l] += c * p_conv[l];
                    }
                }
                1 => {
                    scrub_events += count;
                    for l in 0..k {
                        conv[l] += c * p_conv[l];
                    }
                }
                _ => {
                    for l in 0..k {
                        wb[l] += c * p_conv[l];
                    }
                }
            }
        }
        let conv_events = demand_events + scrub_events;
        (0..k)
            .map(|l| {
                let histogram = LogHistogram::from_parts(
                    hist_counts[..hist_len].to_vec(),
                    (0..hist_len).map(|bin| bin_fail[bin * k + l]).collect(),
                    max_n,
                );
                ReplayScore::from_parts(
                    self.models[l0 + l],
                    FailureAggregator::from_parts(conv[l], conv_events),
                    FailureAggregator::from_parts(reap[l], demand_events),
                    FailureAggregator::from_parts(serial[l], demand_events),
                    histogram,
                    wb[l],
                )
            })
            .collect()
    }

    /// Writes each lane's `fail_conventional(ones, reads)` into `out`,
    /// through the memo where it covers the key.
    #[inline]
    fn conv_terms(
        &self,
        l0: usize,
        ones: u32,
        reads: u64,
        memo: Option<&mut (&mut Memo, usize)>,
        out: &mut [f64],
    ) {
        let models = &self.models[l0..l0 + out.len()];
        match memo {
            Some((memo, at)) if reads <= DENSE_MAX_READS && ones <= self.width => {
                let row = (ones as usize * DENSE_W + reads as usize) * memo.row_len + *at + l0;
                let cells = &mut memo.cells[row..row + out.len()];
                for ((term, cell), model) in out.iter_mut().zip(cells).zip(models) {
                    let cached = f64::from_bits(*cell ^ MEMO_XOR);
                    *term = if cached.is_nan() {
                        let value = model.fail_conventional(ones, reads);
                        *cell = value.to_bits() ^ MEMO_XOR;
                        value
                    } else {
                        cached
                    };
                }
            }
            _ => {
                for (term, model) in out.iter_mut().zip(models) {
                    *term = model.fail_conventional(ones, reads);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list_of(tally: &CellTally) -> Vec<(Key, u64)> {
        tally.cells().iter().map(|c| (c.key, c.count)).collect()
    }

    #[test]
    fn cells_come_out_in_canonical_order_with_counts() {
        let mut tally = CellTally::new(16);
        let records = [
            (ExposureKind::DirtyEviction, 3, 9),
            (ExposureKind::Demand, 5, 1),
            (ExposureKind::Demand, 5, 1_000),
            (ExposureKind::Demand, 20, 2),
            (ExposureKind::Demand, 5, 1),
            (ExposureKind::DirtyScrub, 0, 0),
            (ExposureKind::Demand, 4, 64),
            (ExposureKind::Demand, 5, 65),
        ];
        for (kind, ones, n) in records {
            tally.add(kind, ones, n);
        }
        assert_eq!(
            list_of(&tally),
            vec![
                ((0, 4, 64), 1),
                ((0, 5, 1), 2),
                ((0, 5, 65), 1),
                ((0, 5, 1_000), 1),
                ((0, 20, 2), 1),
                ((1, 0, 0), 1),
                ((2, 3, 9), 1),
            ]
        );
    }

    #[test]
    fn sparse_merges_keep_counts() {
        let mut tally = CellTally::new(8);
        for i in 0..3 * PENDING_MIN as u64 {
            tally.add(ExposureKind::Demand, 3, 100 + i % 7);
        }
        let cells = list_of(&tally);
        assert_eq!(cells.len(), 7);
        assert_eq!(
            cells.iter().map(|c| c.1).sum::<u64>(),
            3 * PENDING_MIN as u64
        );
        assert!(cells.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn a_wrapped_dense_count_carries_into_the_sparse_side() {
        let mut tally = CellTally::new(8);
        for _ in 0..(1 << 16) + 3 {
            tally.add(ExposureKind::Demand, 4, 2);
        }
        for _ in 0..1 << 16 {
            tally.add(ExposureKind::Demand, 4, 3);
        }
        assert_eq!(
            list_of(&tally),
            vec![((0, 4, 2), (1 << 16) + 3), ((0, 4, 3), 1 << 16)]
        );
    }

    #[test]
    fn clear_empties_every_region() {
        let mut tally = CellTally::new(8);
        tally.add(ExposureKind::Demand, 3, 2);
        tally.add(ExposureKind::Demand, 30, 2);
        tally.add(ExposureKind::DirtyEviction, 3, 200);
        tally.clear();
        assert!(list_of(&tally).is_empty());
        tally.add(ExposureKind::Demand, 1, 1);
        assert_eq!(list_of(&tally), vec![((0, 1, 1), 1)]);
    }

    #[test]
    fn merged_lists_add_shared_cells() {
        let (mut a, mut b) = (CellTally::new(8), CellTally::new(8));
        a.add(ExposureKind::Demand, 2, 3);
        a.add(ExposureKind::Demand, 2, 90);
        b.add(ExposureKind::Demand, 2, 3);
        b.add(ExposureKind::DirtyScrub, 1, 1);
        let merged: Vec<_> = CellList::merge(&a.cells(), &b.cells())
            .iter()
            .map(|c| (c.key, c.count))
            .collect();
        assert_eq!(
            merged,
            vec![((0, 2, 3), 2), ((0, 2, 90), 1), ((1, 1, 1), 1)]
        );
    }

    #[test]
    fn varints_round_trip_extremes() {
        let mut tally = CellTally::new(4);
        tally.add(ExposureKind::Demand, u32::MAX, u64::MAX);
        tally.add(ExposureKind::DirtyEviction, 4, 1 << 40);
        assert_eq!(
            list_of(&tally),
            vec![((0, u32::MAX, u64::MAX), 1), ((2, 4, 1 << 40), 1)]
        );
    }
}
