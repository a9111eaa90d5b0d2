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
//!   `N ≤ 64` and `ones` in a window around `width / 2` (almost every
//!   record), sorted and sparse outside that region. Counting is an
//!   integer increment, so a tally does not depend on the order, the
//!   blocks or the calls it was fed in.
//! * [`WidthTallies`] holds one tally per stored width: the counting
//!   half of a replay kernel, without its fold tables or memo.
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

/// The `ones` rows a table starts with for lines of `width` stored bits:
/// `width / 2 ± 6σ`, clamped to `0..=width`. Content weights are
/// Binomial(width, ½), so σ = √width / 2 and the window is `3·√width`
/// rows either side of the mean (about ±70 at 522 bits); a weight
/// outside it turns up about once in 10⁹ records.
fn ones_window(width: u32) -> Range<u32> {
    let reach = window_reach(width);
    let mid = width / 2;
    mid.saturating_sub(reach)..(mid + reach + 1).min(width + 1)
}

/// Rows [`ones_window`] reaches either side of `width / 2`: 6σ.
fn window_reach(width: u32) -> u32 {
    (3.0 * f64::from(width).sqrt()).ceil() as u32 + 1
}

/// Records counted per `(kind, ones, N)` cell for one stored width.
#[derive(Debug, Clone)]
pub(crate) struct CellTally {
    width: u32,
    /// The `ones` rows the dense table holds: [`ones_window`] at first,
    /// widened on demand by a record that falls outside it.
    window: Range<u32>,
    /// Per kind, `[ones - window.start][N ∈ 0..=64]` counts modulo 2¹⁶:
    /// a count that wraps carries 2¹⁶ into the sparse side. A kind's
    /// table is allocated by its first record, and holds only the
    /// window's rows: a zero-allocation is committed in full once the
    /// allocator serves it from reused heap, which it zero-fills. 16-bit
    /// cells keep the tables small.
    dense: [Vec<u16>; KINDS],
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

/// Cells a reserved tally's sparse side has room for, merging included:
/// that of a capture of millions of records fits (about 1 600 distinct
/// cells in a 2M-access window).
const SPARSE_ROOM: usize = 4096;

impl CellTally {
    /// An empty tally for lines of `width` stored bits. A `reserved`
    /// tally allocates now what counting a capture's records needs (every
    /// kind's table, and room for the sparse side of a capture of millions
    /// of records), so counting allocates nothing; otherwise a kind's
    /// table is allocated by its first record.
    pub(crate) fn new(width: u32, reserved: bool) -> Self {
        let window = ones_window(width);
        let (table, room) = if reserved {
            (window.len() * DENSE_W, SPARSE_ROOM)
        } else {
            (0, 0)
        };
        Self {
            width,
            dense: std::array::from_fn(|_| vec![0; table]),
            window,
            touched: std::array::from_fn(|_| UNTOUCHED),
            sparse: Vec::with_capacity(room),
            pending: Vec::with_capacity(room / 2),
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
        // One unsigned compare tests both ends of the window, and a
        // kind's table is empty until its first record.
        let row = ones.wrapping_sub(self.window.start);
        let rows = self.window.end - self.window.start;
        let count = if reads <= DENSE_MAX_READS && row < rows {
            self.dense[k as usize].get_mut(row as usize * DENSE_W + reads as usize)
        } else {
            None
        };
        let Some(count) = count else {
            self.add_outside(kind, ones, reads);
            return;
        };
        *count = count.wrapping_add(1);
        if *count == 0 {
            self.add_sparse((k, ones, reads), 1 << 16);
        }
        let touched = &mut self.touched[k as usize];
        touched.start = touched.start.min(ones);
        touched.end = touched.end.max(ones + 1);
    }

    /// Counts a record outside the dense tables: into the sparse side,
    /// or, for a weight within the width and `N ≤ 64`, into its kind's
    /// table, allocated or widened to hold it.
    #[cold]
    #[inline(never)]
    fn add_outside(&mut self, kind: ExposureKind, ones: u32, reads: u64) {
        if reads > DENSE_MAX_READS || ones > self.width {
            self.add_sparse((kind_index(kind), ones, reads), 1);
            return;
        }
        if !self.window.contains(&ones) {
            self.widen(ones);
        }
        let table = &mut self.dense[kind_index(kind) as usize];
        if table.is_empty() {
            *table = vec![0; self.window.len() * DENSE_W];
        }
        self.add(kind, ones, reads);
    }

    /// Widens the dense window to hold row `ones` (`≤ width`) and the
    /// initial window's reach past it, and moves the touched rows across.
    #[cold]
    #[inline(never)]
    fn widen(&mut self, ones: u32) {
        let reach = window_reach(self.width);
        let window = self.window.start.min(ones.saturating_sub(reach))
            ..self.window.end.max((ones + reach + 1).min(self.width + 1));
        for (table, touched) in self.dense.iter_mut().zip(&self.touched) {
            if table.is_empty() {
                continue;
            }
            let mut wider = vec![0; window.len() * DENSE_W];
            for ones in touched.clone() {
                let from = (ones - self.window.start) as usize * DENSE_W;
                let to = (ones - window.start) as usize * DENSE_W;
                wider[to..to + DENSE_W].copy_from_slice(&table[from..from + DENSE_W]);
            }
            *table = wider;
        }
        self.window = window;
    }

    #[cold]
    #[inline(never)]
    fn add_sparse(&mut self, key: Key, count: u64) {
        self.pending.push(Cell { key, count });
        if self.pending.len() >= self.sparse.len().max(PENDING_MIN) {
            merge_pending(&mut self.sparse, &mut self.pending);
        }
    }

    /// The non-empty cells, packed in canonical order.
    pub(crate) fn cells(&self) -> CellList {
        let mut list = CellWriter::default();
        let mut sparse = self.sparse.clone();
        merge_pending(&mut sparse, &mut self.pending.clone());
        merge_cells(self.dense_cells(), sparse.into_iter(), |cell| {
            list.push(cell)
        });
        list.finish()
    }

    /// The dense region's non-empty cells in canonical order.
    fn dense_cells(&self) -> impl Iterator<Item = Cell> + '_ {
        (0..KINDS as u8).flat_map(move |k| {
            self.touched[k as usize].clone().flat_map(move |ones| {
                let at = (ones - self.window.start) as usize * DENSE_W;
                self.dense[k as usize][at..at + DENSE_W]
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

    /// Empties the tally, keeping its dense tables and window.
    pub(crate) fn clear(&mut self) {
        for (table, touched) in self.dense.iter_mut().zip(&mut self.touched) {
            if touched.start < touched.end {
                let lo = (touched.start - self.window.start) as usize * DENSE_W;
                let hi = (touched.end - self.window.start) as usize * DENSE_W;
                table[lo..hi].fill(0);
            }
            *touched = UNTOUCHED;
        }
        self.sparse = Vec::new();
        self.pending = Vec::new();
    }
}

/// Counts the `pending` cells into the key-sorted `sparse` cells, in
/// place, and empties `pending`. Allocates only if `sparse` lacks room
/// for both.
fn merge_pending(sparse: &mut Vec<Cell>, pending: &mut Vec<Cell>) {
    pending.sort_unstable_by_key(|cell| cell.key);
    pending.dedup_by(|cell, run| {
        let same = cell.key == run.key;
        if same {
            run.count += cell.count;
        }
        same
    });
    // Merge from the back into the room past the merged cells. `out`
    // stays at or past `i`, the end of the merged cells not yet moved,
    // by one more per key found on both sides.
    let (mut i, mut j) = (sparse.len(), pending.len());
    sparse.resize(
        i + j,
        Cell {
            key: (0, 0, 0),
            count: 0,
        },
    );
    let mut out = sparse.len();
    while j > 0 {
        out -= 1;
        let next = pending[j - 1];
        sparse[out] = match sparse[..i].last() {
            Some(&cell) if cell.key > next.key => {
                i -= 1;
                cell
            }
            Some(&cell) if cell.key == next.key => {
                (i, j) = (i - 1, j - 1);
                Cell {
                    key: cell.key,
                    count: cell.count + next.count,
                }
            }
            _ => {
                j -= 1;
                next
            }
        };
    }
    sparse.copy_within(out.., i);
    sparse.truncate(sparse.len() - (out - i));
    pending.clear();
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

    /// The cells of `self`'s records and `other`'s together: per width,
    /// the two lists merged, counts of a shared cell added. Scores of the
    /// merge are bit-identical to those of one stream holding both
    /// streams' records, since a fold reads only the counts.
    ///
    /// # Panics
    ///
    /// Panics if the two were tallied at different stored widths.
    pub fn merge(&self, other: &TalliedCells) -> TalliedCells {
        assert_eq!(self.widths, other.widths, "cells of other stored widths");
        let lists = self
            .lists
            .iter()
            .zip(&other.lists)
            .map(|(a, b)| CellList::merge(a, b))
            .collect();
        Self::new(self.widths.clone(), lists)
    }
}

/// Records counted per `(kind, ones, N)` cell, one tally per stored
/// width: the counting half of a
/// [`MultiReplayAggregator`](crate::MultiReplayAggregator), without its
/// fold tables or memo.
///
/// A kernel's [`twin`](crate::MultiReplayAggregator::twin) counts part of
/// a stream apart from the kernel, on another thread say; the two parts'
/// [`TalliedCells`] then [`merge`](TalliedCells::merge) into the cells of
/// the whole stream.
#[derive(Debug, Clone)]
pub struct WidthTallies {
    /// Stored widths, ascending.
    widths: Vec<u32>,
    /// One tally per width.
    tallies: Vec<CellTally>,
}

impl WidthTallies {
    /// Empty tallies for the distinct, ascending stored `widths`.
    pub(crate) fn new(widths: &[u32]) -> Self {
        Self::with(widths, false)
    }

    /// [`new`](Self::new) with everything counting needs allocated now:
    /// tallies that count a replay part on a helper thread, which must
    /// not allocate.
    pub(crate) fn twin(widths: &[u32]) -> Self {
        Self::with(widths, true)
    }

    fn with(widths: &[u32], reserved: bool) -> Self {
        debug_assert!(widths.windows(2).all(|w| w[0] < w[1]));
        Self {
            widths: widths.to_vec(),
            tallies: widths
                .iter()
                .map(|&w| CellTally::new(w, reserved))
                .collect(),
        }
    }

    /// Counts a block of records with one weight per stored width:
    /// `records[r]` is `(kind, unchecked_reads)` and `ones[r * widths +
    /// g]` the record's stored-`1` count at the `g`-th width — the layout
    /// `sample_ones_multi_batch` writes. Allocates nothing unless a
    /// record falls outside the dense region.
    ///
    /// # Panics
    ///
    /// Panics if `ones.len()` is not `records.len()` times the number of
    /// widths, or on a demand record with `unchecked_reads == 0`.
    pub fn record_block_by_width(&mut self, records: &[(ExposureKind, u64)], ones: &[u32]) {
        let nw = self.tallies.len();
        assert_eq!(
            ones.len(),
            records.len() * nw,
            "one ones-count per record per stored width"
        );
        for (g, tally) in self.tallies.iter_mut().enumerate() {
            for (&(kind, reads), row) in records.iter().zip(ones.chunks_exact(nw)) {
                tally.add(kind, row[g], reads);
            }
        }
    }

    /// Hands out the cells of every record counted so far, one list per
    /// stored width, and empties the tallies, keeping their tables.
    pub fn take_cells(&mut self) -> TalliedCells {
        let lists = self.tallies.iter().map(CellTally::cells).collect();
        self.tallies.iter_mut().for_each(CellTally::clear);
        TalliedCells::new(self.widths.clone(), lists)
    }
}

/// XOR mask for memo cells: a cell stores `bits(value) ^ MEMO_XOR`, so
/// the zero cells a freshly zero-allocated memo starts with decode to a
/// quiet NaN (the "not computed" sentinel). Terms are finite
/// probabilities, never NaN, so a computed term never reads as
/// uncomputed.
const MEMO_XOR: u64 = 0x7ff8_0000_0000_0000;

/// Memo of `fail_conventional(ones, N)` for `N ≤ 64` and `ones` in the
/// union of the kernel's widths' [`ones_window`]s, shared by every width
/// of a kernel and kept across captures. The row of key `(ones, N)`
/// starts at `((ones − window.start) · 65 + N) · row_len` and holds one
/// cell per point, each width's points side by side. A key outside the
/// window is computed uncached. The table holds only the window's rows:
/// a zero-allocation is committed in full once the allocator serves it
/// from reused heap, which it zero-fills. It is allocated by the first
/// fold, not with the kernel, so a replay's decode buffers are freed by
/// then.
#[derive(Debug, Clone)]
pub(crate) struct Memo {
    /// Empty until the first fold.
    cells: Vec<u64>,
    window: Range<u32>,
    row_len: usize,
}

impl Memo {
    /// A memo for `points` points of the stored `widths`.
    pub(crate) fn new(widths: &[u32], points: usize) -> Self {
        let window = widths
            .iter()
            .map(|&w| ones_window(w))
            .reduce(|a, b| a.start.min(b.start)..a.end.max(b.end))
            .unwrap_or(0..0);
        Self {
            cells: Vec::new(),
            window,
            row_len: points,
        }
    }

    /// Allocates the table, if not yet done.
    fn commit(&mut self) {
        if self.cells.is_empty() {
            self.cells = vec![0; self.window.len() * DENSE_W * self.row_len];
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
        if let Some((memo, _)) = memo.as_mut() {
            memo.commit();
        }
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
            Some((memo, at))
                if reads <= DENSE_MAX_READS
                    && ones <= self.width
                    && memo.window.contains(&ones) =>
            {
                let key = (ones - memo.window.start) as usize * DENSE_W + reads as usize;
                let row = key * memo.row_len + *at + l0;
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
        let mut tally = CellTally::new(16, false);
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
        let mut tally = CellTally::new(8, false);
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
        let mut tally = CellTally::new(8, false);
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
        let mut tally = CellTally::new(8, false);
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
        let (mut a, mut b) = (CellTally::new(8, false), CellTally::new(8, false));
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
    fn weights_outside_the_initial_window_widen_it_and_keep_their_cells() {
        let width = 522;
        let window = ones_window(width);
        assert!(0 < window.start && window.end <= width, "{window:?}");
        let kinds = [
            ExposureKind::Demand,
            ExposureKind::DirtyScrub,
            ExposureKind::DirtyEviction,
        ];
        let weights = [
            width / 2,
            window.start - 1,
            0,
            width,
            window.end,
            1,
            window.start,
        ];
        let mut tally = CellTally::new(width, false);
        for round in 0..2 {
            let mut want = std::collections::BTreeMap::new();
            for &ones in &weights {
                for kind in kinds {
                    for reads in [1, 64, 65] {
                        tally.add(kind, ones, reads);
                        *want.entry((kind_index(kind), ones, reads)).or_insert(0) += 1;
                    }
                }
            }
            assert_eq!(
                list_of(&tally),
                want.into_iter().collect::<Vec<_>>(),
                "round {round}"
            );
            assert!(tally.window.start == 0 && tally.window.end == width + 1);
            tally.clear();
            assert!(list_of(&tally).is_empty());
        }
    }

    #[test]
    fn varints_round_trip_extremes() {
        let mut tally = CellTally::new(4, false);
        tally.add(ExposureKind::Demand, u32::MAX, u64::MAX);
        tally.add(ExposureKind::DirtyEviction, 4, 1 << 40);
        assert_eq!(
            list_of(&tally),
            vec![((0, u32::MAX, u64::MAX), 1), ((2, 4, 1 << 40), 1)]
        );
    }
}
