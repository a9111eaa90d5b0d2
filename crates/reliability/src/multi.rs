//! Batched multi-point replay: score every sweep point in one pass.
//!
//! An ECC sweep (`replay_ecc_sweep`, `reap sweep --ecc-sweep`) evaluates
//! the same captured exposure stream under several analysis points — one
//! per `EccStrength` × MTJ operating point. Walking the stream once per
//! point repeats all the per-record bookkeeping (and the stream itself
//! falls out of cache between walks). [`MultiReplayAggregator`] instead
//! carries the state of *all* points and scores each record against every
//! point before moving to the next record, so the stream is traversed
//! exactly once.
//!
//! [`MultiReplayAggregator`] is the one batched kernel. All per-point
//! state lives in flat structure-of-arrays lanes (`conv_sum[p]`,
//! `reap_sum[p]`, …), the per-record hot path walks points in explicit
//! 4-wide chunks (table gathers, dense memo probes and the three scheme
//! accumulations are all straight-line array arithmetic the compiler can
//! vectorize), and both the Eq. (3) conventional tail *and* the Eq. (6)
//! REAP term are memoized over the dense small-`N` region, so the
//! `exp_m1` transcendental runs once per distinct `(point, ones, N)` key
//! instead of once per record.
//!
//! Data-layout tricks:
//!
//! * the per-point `single_read_table`s are stacked into one
//!   point-innermost `stride × points` matrix (`stride = global
//!   max_ones + 1`, each column pre-clamped to its own point's width),
//!   so one record's per-point gather — a handful of distinct `ones`
//!   values across adjacent `p` — touches a couple of cache lines
//!   inside a single contiguous allocation; a parallel matrix caches
//!   `ln(1 − u)` so the Eq. (6) REAP term needs one `exp_m1` per key
//!   instead of `ln_1p` + `exp_m1`;
//! * the conventional tail `fail_conventional(ones, N)` is memoized in a
//!   dense `(point, ones, N)` table for `N ≤ 64` — the `N` distribution
//!   is heavily concentrated at small values (most demand reads conceal
//!   nothing), so the binomial tail series runs once per distinct key
//!   instead of once per record;
//! * histogram bin membership and event counts depend only on the record
//!   (`N` and kind), not on the point, so the kernel keeps *one* shared
//!   count vector and per-point failure lanes, rebuilding per-point
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

use crate::histogram::LogHistogram;
use crate::model::AccumulationModel;
use crate::mttf::FailureAggregator;
use crate::replay::{ExposureKind, ReplayAggregator};

/// Largest `N` covered by the dense `fail_conventional`/`fail_reap`
/// memos. Beyond this the terms are computed directly (still
/// bit-identical — the memos only cache, never approximate).
const MEMO_MAX_READS: u64 = 64;

/// Lane width of the explicit point-chunking in the vectorized kernel.
const LANES: usize = 4;

/// XOR mask for memo cells: a cell stores `bits(value) ^ MEMO_XOR`, so
/// the zero cells a freshly zero-allocated memo starts with decode to a
/// quiet NaN (the "not computed" sentinel). Zeroed allocation is backed
/// by copy-on-write zero pages, so building the memos costs nothing
/// until cells are actually probed — the kernel's fixed setup cost no
/// longer scales with `points × stride` on short captures. A computed
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

/// Scores a captured exposure stream against many analysis points in a
/// single pass — the vectorized structure-of-arrays kernel,
/// bit-identical to independent per-point [`ReplayAggregator`]s.
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
    /// Per-point accumulation models, indexed like every lane array.
    models: Vec<AccumulationModel>,
    /// Per-point stored line widths (`max_ones`).
    widths: Vec<u32>,
    /// Row length of the stacked tables: global `max_ones + 1`.
    stride: usize,
    /// Point-innermost `stride × points`: `single[n * points + p] =
    /// fail_single(min(n, max_ones_p))`, reproducing each point's own
    /// clamp-to-last-entry lookup semantics. Points are innermost so one
    /// record's per-point gather (few distinct `ones` values, adjacent
    /// `p`) touches a couple of cache lines, not one row per point.
    single: Vec<f64>,
    /// `ln(1 − single[..])` for the Eq. (6) closed form, same layout.
    ln1m_single: Vec<f64>,
    /// Dense memo of `fail_conventional(ones, N)` and the Eq. (6) REAP
    /// term for `N ∈ [0, MEMO_MAX_READS]`. The two are always probed
    /// together for the same `(ones, N, p)` key, so they interleave in
    /// one table: the conventional value at
    /// `((ones * 65 + N) * points + p) * 2` and the REAP term right
    /// after it — a 4-lane probe's eight loads then land in one
    /// 64-byte line instead of two. Point-innermost for the same
    /// gather locality as the stacked tables. Cells hold
    /// `bits(value) ^ MEMO_XOR`, so the all-zero state a fresh zeroed
    /// allocation starts in decodes to NaN — the "not yet computed"
    /// sentinel — without a multi-megabyte fill pass, and untouched
    /// pages are never committed. See [`memo_get`]/[`memo_put`].
    /// Caching the (pure) terms keeps `exp_m1` off the per-record
    /// path.
    memo: Vec<u64>,
    /// Per-point running sums — the lanes the hot loop writes.
    conv_sum: Vec<f64>,
    reap_sum: Vec<f64>,
    serial_sum: Vec<f64>,
    wb_sum: Vec<f64>,
    /// Point-innermost `HIST_BINS × points` per-bin conventional
    /// failure sums (one record hits one bin across all points).
    hist_fail: Vec<f64>,
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
    /// analysis points. `max_ones` is the stored line width in bits for
    /// that point (data + check bits), exactly as passed to
    /// [`ReplayAggregator::new`].
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or any `max_ones == 0`.
    pub fn new(points: Vec<(AccumulationModel, u32)>) -> Self {
        assert!(!points.is_empty(), "need at least one analysis point");
        let stride = points
            .iter()
            .map(|&(_, w)| {
                assert!(w > 0, "line width must be positive");
                w as usize + 1
            })
            .max()
            .expect("non-empty");
        let npts = points.len();
        let mut single = Vec::with_capacity(npts * stride);
        let mut ln1m_single = Vec::with_capacity(npts * stride);
        for n in 0..stride {
            for &(model, max_ones) in &points {
                let u = model.fail_single((n as u32).min(max_ones));
                single.push(u);
                ln1m_single.push((-u).ln_1p());
            }
        }
        let memo_cells = npts * stride * (MEMO_MAX_READS as usize + 1);
        let (models, widths) = points.into_iter().unzip();
        Self {
            models,
            widths,
            stride,
            single,
            ln1m_single,
            memo: vec![0; memo_cells * 2],
            conv_sum: vec![0.0; npts],
            reap_sum: vec![0.0; npts],
            serial_sum: vec![0.0; npts],
            wb_sum: vec![0.0; npts],
            hist_fail: vec![0.0; npts * HIST_BINS],
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

    /// Scores one exposure record against every point. `line_ones[p]` is
    /// the stored-`1` count of the line *as sampled for point `p`'s
    /// stored width* — widths differ across ECC strengths, so the caller
    /// samples once per distinct width and scatters.
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
        match kind {
            ExposureKind::Demand => {
                self.record_demand_run(&[(ExposureKind::Demand, unchecked_reads)], line_ones)
            }
            ExposureKind::DirtyScrub => {
                self.scrub_events += 1;
                for (p, &ones) in line_ones.iter().enumerate() {
                    let p_conv = self.conventional_tail(p, ones, unchecked_reads);
                    self.conv_sum[p] += p_conv;
                }
            }
            ExposureKind::DirtyEviction => {
                for (p, &ones) in line_ones.iter().enumerate() {
                    let p_conv = self.conventional_tail(p, ones, unchecked_reads);
                    self.wb_sum[p] += p_conv;
                }
            }
        }
    }

    /// Scores a block of exposure records at once: `records[r]` is
    /// `(kind, unchecked_reads)` and `ones[r * points .. (r+1) * points]`
    /// its per-point stored-`1` counts, exactly as [`record`](Self::record)
    /// would take them. Bit-identical to calling `record` per item in
    /// order — runs of consecutive demand records are handed to the
    /// run-blocked hot loop, which keeps each lane's running sums in
    /// registers across the run instead of a load/add/store round trip
    /// per record (per point the additions still happen in record
    /// order, so the float sums are unchanged).
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
        let mut i = 0;
        while i < records.len() {
            let (kind, reads) = records[i];
            match kind {
                ExposureKind::Demand => {
                    let mut j = i + 1;
                    while j < records.len() && records[j].0 == ExposureKind::Demand {
                        j += 1;
                    }
                    self.record_demand_run(&records[i..j], &ones[i * npts..j * npts]);
                    i = j;
                }
                _ => {
                    self.record(kind, &ones[i * npts..(i + 1) * npts], reads);
                    i += 1;
                }
            }
        }
    }

    /// The demand hot path: record-level bookkeeping for the whole run
    /// first, then the per-point work in explicit 4-wide lanes with the
    /// running sums register-blocked across the run. Every record in
    /// `run` is a demand record; `ones` is record-major,
    /// `run.len() * points` wide.
    fn record_demand_run(&mut self, run: &[(ExposureKind, u64)], ones: &[u32]) {
        for &(_, n) in run {
            assert!(n >= 1, "N counts the demand read itself, so N >= 1");
            let bin = (63 - n.leading_zeros()) as usize;
            if bin >= self.hist_len {
                self.hist_len = bin + 1;
            }
            self.hist_counts[bin] += 1;
            if n > self.hist_max_n {
                self.hist_max_n = n;
            }
        }
        self.demand_events += run.len() as u64;

        let stride = self.stride;
        let memo_w = MEMO_MAX_READS as usize + 1;
        let npts = self.models.len();

        let mut p = 0;
        while p + LANES <= npts {
            // The four lanes' sums live in registers for the whole run;
            // per point the additions still happen in record order, so
            // this is the same float sum the per-record path produces.
            let mut cs = [0.0f64; LANES];
            let mut rs = [0.0f64; LANES];
            let mut ss = [0.0f64; LANES];
            cs.copy_from_slice(&self.conv_sum[p..p + LANES]);
            rs.copy_from_slice(&self.reap_sum[p..p + LANES]);
            ss.copy_from_slice(&self.serial_sum[p..p + LANES]);
            for (r, &(_, n)) in run.iter().enumerate() {
                let row = &ones[r * npts..(r + 1) * npts];
                let bin = (63 - n.leading_zeros()) as usize;
                let memoable = n <= MEMO_MAX_READS;
                // 4-wide gather from the stacked single table. ln(1-u)
                // is only needed to *compute* a REAP term, so it stays
                // out of the steady-state loop and is loaded on memo
                // misses only.
                let mut u = [0.0f64; LANES];
                let mut ti = [0usize; LANES];
                for l in 0..LANES {
                    ti[l] = (row[p + l] as usize).min(stride - 1) * npts + p + l;
                    u[l] = self.single[ti[l]];
                }
                let mut pc = [0.0f64; LANES];
                let mut pr = [0.0f64; LANES];
                // 4-wide dense memo probe. Sampled ones-counts are
                // always within each point's width, so the
                // all-lanes-in-range test only fails on out-of-contract
                // callers (who still get the per-lane clamp semantics
                // via the slow path).
                let in_range = memoable && (0..LANES).all(|l| (row[p + l] as usize) < stride);
                if in_range {
                    let mut mi = [0usize; LANES];
                    for l in 0..LANES {
                        mi[l] = ((row[p + l] as usize * memo_w + n as usize) * npts + p + l) * 2;
                    }
                    for l in 0..LANES {
                        pc[l] = memo_get(self.memo[mi[l]]);
                        pr[l] = memo_get(self.memo[mi[l] + 1]);
                    }
                    // Cached cells are finite probabilities and NaN
                    // marks "not computed", so one NaN-sum test covers
                    // all lanes.
                    let probe = pc[0] + pc[1] + pc[2] + pc[3] + pr[0] + pr[1] + pr[2] + pr[3];
                    if probe.is_nan() {
                        for l in 0..LANES {
                            if pc[l].is_nan() {
                                let v = self.models[p + l].fail_conventional(row[p + l], n);
                                self.memo[mi[l]] = memo_put(v);
                                pc[l] = v;
                            }
                            if pr[l].is_nan() {
                                let v = reap_term(u[l], self.ln1m_single[ti[l]], n);
                                self.memo[mi[l] + 1] = memo_put(v);
                                pr[l] = v;
                            }
                        }
                    }
                } else {
                    for l in 0..LANES {
                        let (c, rr) = self.demand_terms(p + l, row[p + l], n, u[l]);
                        pc[l] = c;
                        pr[l] = rr;
                    }
                }
                // Straight-line lane accumulation into the register
                // sums; only the histogram (whose bin varies by record)
                // writes through to memory here.
                for l in 0..LANES {
                    cs[l] += pc[l];
                    rs[l] += pr[l];
                    ss[l] += u[l];
                    self.hist_fail[bin * npts + p + l] += pc[l];
                }
            }
            self.conv_sum[p..p + LANES].copy_from_slice(&cs);
            self.reap_sum[p..p + LANES].copy_from_slice(&rs);
            self.serial_sum[p..p + LANES].copy_from_slice(&ss);
            p += LANES;
        }
        // Remainder points, one lane at a time, same register blocking.
        while p < npts {
            let mut c = self.conv_sum[p];
            let mut rsum = self.reap_sum[p];
            let mut s = self.serial_sum[p];
            for (r, &(_, n)) in run.iter().enumerate() {
                let ones_p = ones[r * npts + p];
                let bin = (63 - n.leading_zeros()) as usize;
                let idx = (ones_p as usize).min(stride - 1) * npts + p;
                let u = self.single[idx];
                let (pc, pr) = self.demand_terms(p, ones_p, n, u);
                c += pc;
                rsum += pr;
                s += u;
                self.hist_fail[bin * npts + p] += pc;
            }
            self.conv_sum[p] = c;
            self.reap_sum[p] = rsum;
            self.serial_sum[p] = s;
            p += 1;
        }
    }

    /// Memoized `(fail_conventional, reap_term)` for one point — the
    /// scalar fallback shared by the remainder loop and the mixed
    /// in-range/out-of-range lane path. Loads `ln(1-u)` itself, and
    /// only when it actually has to evaluate the REAP term.
    #[inline]
    fn demand_terms(&mut self, p: usize, ones: u32, n: u64, u: f64) -> (f64, f64) {
        let npts = self.models.len();
        let l1m_at = (ones as usize).min(self.stride - 1) * npts + p;
        if n <= MEMO_MAX_READS && (ones as usize) < self.stride {
            let mi = ((ones as usize * (MEMO_MAX_READS as usize + 1) + n as usize) * npts + p) * 2;
            let mut pc = memo_get(self.memo[mi]);
            if pc.is_nan() {
                pc = self.models[p].fail_conventional(ones, n);
                self.memo[mi] = memo_put(pc);
            }
            let mut pr = memo_get(self.memo[mi + 1]);
            if pr.is_nan() {
                pr = reap_term(u, self.ln1m_single[l1m_at], n);
                self.memo[mi + 1] = memo_put(pr);
            }
            (pc, pr)
        } else {
            (
                self.models[p].fail_conventional(ones, n),
                reap_term(u, self.ln1m_single[l1m_at], n),
            )
        }
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
    /// the memo survive. Memo cells cache a pure function of
    /// `(model, ones, N)`, so a reused aggregator is bit-identical to a
    /// fresh one — it only skips rebuilding the tables and re-deriving
    /// the terms a previous stream already computed, and keeps one memo
    /// allocation alive instead of one per stream.
    pub fn take_reports(&mut self) -> Vec<ReplayAggregator> {
        let conv_events = self.demand_events + self.scrub_events;
        let shared_counts = self.hist_counts[..self.hist_len].to_vec();
        let npts = self.models.len();
        let reports = self
            .models
            .iter()
            .zip(&self.widths)
            .enumerate()
            .map(|(p, (&model, &width))| {
                let histogram = LogHistogram::from_parts(
                    shared_counts.clone(),
                    (0..self.hist_len)
                        .map(|bin| self.hist_fail[bin * npts + p])
                        .collect(),
                    self.hist_max_n,
                );
                ReplayAggregator::from_parts(
                    model,
                    width,
                    FailureAggregator::from_parts(self.conv_sum[p], conv_events),
                    FailureAggregator::from_parts(self.reap_sum[p], self.demand_events),
                    FailureAggregator::from_parts(self.serial_sum[p], self.demand_events),
                    histogram,
                    self.wb_sum[p],
                )
            })
            .collect();
        for sums in [
            &mut self.conv_sum,
            &mut self.reap_sum,
            &mut self.serial_sum,
            &mut self.wb_sum,
        ] {
            sums.fill(0.0);
        }
        self.hist_fail.fill(0.0);
        self.hist_counts.fill(0);
        self.hist_len = 0;
        self.hist_max_n = 0;
        self.demand_events = 0;
        self.scrub_events = 0;
        reports
    }

    /// `fail_conventional(ones, n_reads)` for point `p`, memoized over
    /// the dense small-`N` region. The memo stores exact outputs of the
    /// pure model function, so hits and misses are bit-identical.
    fn conventional_tail(&mut self, p: usize, ones: u32, n_reads: u64) -> f64 {
        if n_reads <= MEMO_MAX_READS && (ones as usize) < self.stride {
            let idx = ((ones as usize * (MEMO_MAX_READS as usize + 1) + n_reads as usize)
                * self.models.len()
                + p)
                * 2;
            let cached = memo_get(self.memo[idx]);
            if !cached.is_nan() {
                return cached;
            }
            let value = self.models[p].fail_conventional(ones, n_reads);
            self.memo[idx] = memo_put(value);
            value
        } else {
            self.models[p].fail_conventional(ones, n_reads)
        }
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

    /// Wider point set so the 4-wide main loop and the remainder loop
    /// both run (7 = one full chunk + 3 remainder lanes).
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
    fn full_and_remainder_lanes_match_solo_bitwise() {
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
        // Same through the 4-wide main loop.
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
        // 1 and 3 points run only remainder lanes, 5 and 21 a mix of
        // full 4-wide chunks and remainders.
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
