//! Primitive address-stream generators.
//!
//! Each generator is an infinite, seeded, deterministic
//! `Iterator<Item = MemoryAccess>` modeling one locality archetype:
//!
//! * [`StridedStream`] — array streaming (the `lbm`/`libquantum` archetype);
//! * [`ZipfHotSet`] — skewed reuse over a hot footprint (`namd`, `dealII`);
//! * [`PointerChase`] — dependent random walks (`mcf`, `omnetpp`);
//! * [`LoopNest`] — 2-D stencil sweeps (`cactusADM`, `GemsFDTD`);
//! * [`UniformRandom`] — uniform background noise.
//!
//! All addresses are line-granular multiples of [`LINE_BYTES`] offset by a
//! per-generator `base`, so composed generators occupy disjoint regions.

use crate::record::{AccessKind, MemoryAccess};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Line granularity of generated addresses (64 B, matching Table I).
pub const LINE_BYTES: u64 = 64;

/// How a generator labels its accesses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KindModel {
    /// All accesses are instruction fetches.
    Instr,
    /// Data accesses; each is a load with this probability, else a store.
    Data {
        /// Probability that an access is a load (the rest are stores).
        read_fraction: f64,
    },
}

impl KindModel {
    fn pick(&self, rng: &mut StdRng) -> AccessKind {
        match *self {
            KindModel::Instr => AccessKind::InstrFetch,
            KindModel::Data { read_fraction } => {
                if rng.gen::<f64>() < read_fraction {
                    AccessKind::Load
                } else {
                    AccessKind::Store
                }
            }
        }
    }
}

fn validate_common(lines: usize, kind: &KindModel) {
    assert!(lines > 0, "footprint must cover at least one line");
    if let KindModel::Data { read_fraction } = kind {
        assert!(
            (0.0..=1.0).contains(read_fraction),
            "read fraction must be a probability"
        );
    }
}

/// Sequentially streams over a fixed footprint with a fixed stride,
/// wrapping around forever.
///
/// # Examples
///
/// ```
/// use reap_trace::generators::{KindModel, StridedStream};
///
/// let mut s = StridedStream::new(0x1000, 4, 1, KindModel::Data { read_fraction: 1.0 }, 7);
/// let addrs: Vec<u64> = s.by_ref().take(5).map(|a| a.address).collect();
/// assert_eq!(addrs, vec![0x1000, 0x1040, 0x1080, 0x10C0, 0x1000]);
/// ```
#[derive(Debug, Clone)]
pub struct StridedStream {
    base: u64,
    lines: usize,
    stride_lines: usize,
    cursor: usize,
    kind: KindModel,
    rng: StdRng,
}

impl StridedStream {
    /// Creates a stream over `lines` cache lines starting at `base`,
    /// advancing `stride_lines` lines per access.
    ///
    /// # Panics
    ///
    /// Panics if `lines == 0`, `stride_lines == 0`, or the kind model is
    /// invalid.
    pub fn new(base: u64, lines: usize, stride_lines: usize, kind: KindModel, seed: u64) -> Self {
        validate_common(lines, &kind);
        assert!(stride_lines > 0, "stride must be at least one line");
        Self {
            base,
            lines,
            stride_lines,
            cursor: 0,
            kind,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Iterator for StridedStream {
    type Item = MemoryAccess;

    fn next(&mut self) -> Option<MemoryAccess> {
        let addr = self.base + self.cursor as u64 * LINE_BYTES;
        // The cursor stays below `lines`, so a stride that does not wrap
        // needs no division.
        self.cursor += self.stride_lines;
        if self.cursor >= self.lines {
            self.cursor %= self.lines;
        }
        Some(MemoryAccess {
            address: addr,
            kind: self.kind.pick(&mut self.rng),
        })
    }
}

/// Zipf-distributed reuse over a footprint: rank `r` (1-based) is accessed
/// with probability proportional to `r^-s`.
///
/// Ranks are scattered over the footprint through a seeded permutation so
/// hot lines spread across cache sets, as real data structures do.
///
/// # Examples
///
/// ```
/// use reap_trace::generators::{KindModel, ZipfHotSet};
///
/// let mut z = ZipfHotSet::new(0, 1024, 1.2, KindModel::Data { read_fraction: 0.8 }, 3);
/// let a = z.next().unwrap();
/// assert!(a.address < 1024 * 64);
/// ```
#[derive(Debug, Clone)]
pub struct ZipfHotSet {
    base: u64,
    cdf: Vec<f64>,
    /// Cutpoint (guide) table over `cdf`: `guide[k]` is the first rank
    /// whose CDF reaches `k / guide.len()`. Its length is a power of two,
    /// so a draw's bucket and every bucket edge are exact in `f64`.
    guide: Vec<u32>,
    permutation: Vec<u32>,
    kind: KindModel,
    rng: StdRng,
}

impl ZipfHotSet {
    /// Creates a Zipf(s) generator over `lines` cache lines at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `lines == 0`, `lines > 2^22` (CDF table bound), `s` is not
    /// finite and positive, or the kind model is invalid.
    pub fn new(base: u64, lines: usize, s: f64, kind: KindModel, seed: u64) -> Self {
        validate_common(lines, &kind);
        assert!(lines <= 1 << 22, "Zipf footprint capped at 2^22 lines");
        assert!(s.is_finite() && s > 0.0, "Zipf exponent must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cdf = Vec::with_capacity(lines);
        let mut acc = 0.0;
        for r in 1..=lines {
            acc += (r as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        let buckets = lines.next_power_of_two();
        let mut rank = 0;
        let guide = (0..buckets)
            .map(|k| {
                let edge = k as f64 / buckets as f64;
                while rank < lines - 1 && cdf[rank] < edge {
                    rank += 1;
                }
                rank as u32
            })
            .collect();
        let mut permutation: Vec<u32> = (0..lines as u32).collect();
        // Fisher-Yates with the generator's own RNG.
        for i in (1..lines).rev() {
            let j = rng.gen_range(0..=i);
            permutation.swap(i, j);
        }
        Self {
            base,
            cdf,
            guide,
            permutation,
            kind,
            rng,
        }
    }

    fn sample_rank(&mut self) -> usize {
        let u: f64 = self.rng.gen();
        self.rank_of(u)
    }

    /// The rank a uniform draw `u` in `[0, 1)` selects:
    /// `cdf.partition_point(|&c| c < u)`, capped at the last rank.
    ///
    /// `u` lies in guide bucket `k = floor(u * len)`, whose lower edge
    /// `k / len` is at most `u`, so the answer is at or after `guide[k]`;
    /// the walk steps forward from there to it. A bucket holds about one
    /// rank on average, so the walk is short.
    fn rank_of(&self, u: f64) -> usize {
        let last = self.cdf.len() - 1;
        let mut rank = self.guide[(u * self.guide.len() as f64) as usize] as usize;
        while rank < last && self.cdf[rank] < u {
            rank += 1;
        }
        rank
    }
}

impl Iterator for ZipfHotSet {
    type Item = MemoryAccess;

    fn next(&mut self) -> Option<MemoryAccess> {
        let rank = self.sample_rank();
        let line = self.permutation[rank] as u64;
        Some(MemoryAccess {
            address: self.base + line * LINE_BYTES,
            kind: self.kind.pick(&mut self.rng),
        })
    }
}

/// A dependent pointer chase: a random cyclic permutation over the
/// footprint, followed link by link (the `mcf` archetype — negligible
/// spatial locality, reuse interval ≈ footprint size).
#[derive(Debug, Clone)]
pub struct PointerChase {
    base: u64,
    next_line: Vec<u32>,
    current: usize,
    kind: KindModel,
    rng: StdRng,
}

impl PointerChase {
    /// Creates a pointer chase over `lines` cache lines at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `lines == 0`, `lines > 2^24`, or the kind model is invalid.
    pub fn new(base: u64, lines: usize, kind: KindModel, seed: u64) -> Self {
        validate_common(lines, &kind);
        assert!(
            lines <= 1 << 24,
            "pointer-chase footprint capped at 2^24 lines"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        // Sattolo's algorithm: a single cycle visiting every line.
        let mut next_line: Vec<u32> = (0..lines as u32).collect();
        for i in (1..lines).rev() {
            let j = rng.gen_range(0..i);
            next_line.swap(i, j);
        }
        Self {
            base,
            next_line,
            current: 0,
            kind,
            rng,
        }
    }
}

impl Iterator for PointerChase {
    type Item = MemoryAccess;

    fn next(&mut self) -> Option<MemoryAccess> {
        self.current = self.next_line[self.current] as usize;
        Some(MemoryAccess {
            address: self.base + self.current as u64 * LINE_BYTES,
            kind: self.kind.pick(&mut self.rng),
        })
    }
}

/// A 2-D five-point-stencil sweep: for each interior grid point, read the
/// four neighbours and the point, then write the point. The `cactusADM` /
/// `GemsFDTD` archetype — highly read-dominated, row-strided reuse.
#[derive(Debug, Clone)]
pub struct LoopNest {
    base: u64,
    rows: usize,
    cols_lines: usize,
    row: usize,
    col: usize,
    step: u8,
    rng: StdRng,
    write_point: bool,
}

impl LoopNest {
    /// Creates a stencil sweep over a `rows × cols_lines` grid of cache
    /// lines at `base`. When `write_point` is false the sweep is read-only.
    ///
    /// # Panics
    ///
    /// Panics if `rows < 3` or `cols_lines < 3` (a stencil needs interior
    /// points).
    pub fn new(base: u64, rows: usize, cols_lines: usize, write_point: bool, seed: u64) -> Self {
        assert!(
            rows >= 3 && cols_lines >= 3,
            "stencil grid needs at least 3x3 lines"
        );
        Self {
            base,
            rows,
            cols_lines,
            row: 1,
            col: 1,
            step: 0,
            rng: StdRng::seed_from_u64(seed),
            write_point,
        }
    }

    fn addr(&self, r: usize, c: usize) -> u64 {
        self.base + (r * self.cols_lines + c) as u64 * LINE_BYTES
    }

    fn advance_point(&mut self) {
        self.col += 1;
        if self.col >= self.cols_lines - 1 {
            self.col = 1;
            self.row += 1;
            if self.row >= self.rows - 1 {
                self.row = 1;
            }
        }
    }
}

impl Iterator for LoopNest {
    type Item = MemoryAccess;

    fn next(&mut self) -> Option<MemoryAccess> {
        let (r, c) = (self.row, self.col);
        let accesses_per_point = if self.write_point { 6 } else { 5 };
        let access = match self.step {
            0 => MemoryAccess::load(self.addr(r - 1, c)),
            1 => MemoryAccess::load(self.addr(r + 1, c)),
            2 => MemoryAccess::load(self.addr(r, c - 1)),
            3 => MemoryAccess::load(self.addr(r, c + 1)),
            4 => MemoryAccess::load(self.addr(r, c)),
            _ => MemoryAccess::store(self.addr(r, c)),
        };
        self.step += 1;
        if self.step as usize >= accesses_per_point {
            self.step = 0;
            self.advance_point();
        }
        // Touch the RNG so clones with different seeds stay distinct even
        // though the walk itself is deterministic.
        let _ = self.rng.gen::<u32>();
        Some(access)
    }
}

/// Uniformly random line accesses over a footprint — background noise /
/// worst-case locality.
#[derive(Debug, Clone)]
pub struct UniformRandom {
    base: u64,
    lines: usize,
    kind: KindModel,
    rng: StdRng,
}

impl UniformRandom {
    /// Creates a uniform generator over `lines` cache lines at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `lines == 0` or the kind model is invalid.
    pub fn new(base: u64, lines: usize, kind: KindModel, seed: u64) -> Self {
        validate_common(lines, &kind);
        Self {
            base,
            lines,
            kind,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Iterator for UniformRandom {
    type Item = MemoryAccess;

    fn next(&mut self) -> Option<MemoryAccess> {
        let line = self.rng.gen_range(0..self.lines) as u64;
        Some(MemoryAccess {
            address: self.base + line * LINE_BYTES,
            kind: self.kind.pick(&mut self.rng),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DATA: KindModel = KindModel::Data { read_fraction: 0.7 };

    #[test]
    fn strided_wraps_around() {
        let s = StridedStream::new(0, 8, 3, DATA, 1);
        let lines: Vec<u64> = s.take(8).map(|a| a.address / LINE_BYTES).collect();
        assert_eq!(lines, vec![0, 3, 6, 1, 4, 7, 2, 5]);
    }

    #[test]
    fn strided_read_fraction_is_respected() {
        let s = StridedStream::new(0, 64, 1, KindModel::Data { read_fraction: 0.7 }, 2);
        let n = 100_000;
        let reads = s.take(n).filter(|a| a.kind == AccessKind::Load).count();
        let frac = reads as f64 / n as f64;
        assert!((frac - 0.7).abs() < 0.01, "frac = {frac}");
    }

    #[test]
    fn zipf_is_skewed_toward_hot_lines() {
        let z = ZipfHotSet::new(0, 4096, 1.2, DATA, 3);
        let mut counts = std::collections::HashMap::new();
        for a in z.take(200_000) {
            *counts.entry(a.address).or_insert(0usize) += 1;
        }
        let mut freqs: Vec<usize> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        // The hottest line should be far hotter than the median line.
        let median = freqs[freqs.len() / 2];
        assert!(
            freqs[0] > 50 * median.max(1),
            "top = {}, median = {median}",
            freqs[0]
        );
    }

    proptest::proptest! {
        /// The guide-table draw is the CDF binary search it replaces, at
        /// the draws most likely to split them: zero, every CDF value and
        /// its neighbours on either side, and the largest draw below one.
        #[test]
        fn zipf_guide_table_equals_binary_search(
            lines in proptest::prop_oneof![1usize..=64, 65usize..=8000],
            s in 0.5f64..1.5,
            seed in 0u64..1 << 20,
        ) {
            let z = ZipfHotSet::new(0, lines, s, DATA, seed);
            let last = z.cdf.len() - 1;
            let edges = z.cdf.iter().flat_map(|&c| [c.next_down(), c, c.next_up()]);
            for u in [0.0, 1.0f64.next_down()].into_iter().chain(edges) {
                if !(0.0..1.0).contains(&u) {
                    continue;
                }
                let expected = z.cdf.partition_point(|&c| c < u).min(last);
                proptest::prop_assert_eq!(z.rank_of(u), expected, "u = {u:e}");
            }
        }
    }

    #[test]
    fn zipf_addresses_stay_in_footprint() {
        let z = ZipfHotSet::new(0x4000, 128, 0.9, DATA, 4);
        for a in z.take(10_000) {
            assert!(a.address >= 0x4000 && a.address < 0x4000 + 128 * LINE_BYTES);
        }
    }

    #[test]
    fn pointer_chase_visits_every_line_once_per_cycle() {
        let lines = 257;
        let p = PointerChase::new(0, lines, DATA, 5);
        let visited: std::collections::HashSet<u64> =
            p.take(lines).map(|a| a.address / LINE_BYTES).collect();
        assert_eq!(visited.len(), lines, "Sattolo cycle covers the footprint");
    }

    #[test]
    fn pointer_chase_reuse_interval_equals_footprint() {
        let lines = 100;
        let p = PointerChase::new(0, lines, DATA, 6);
        let seq: Vec<u64> = p.take(300).map(|a| a.address).collect();
        assert_eq!(
            seq[0], seq[lines],
            "cycle repeats after exactly `lines` steps"
        );
        assert_eq!(seq[1], seq[lines + 1]);
    }

    #[test]
    fn stencil_emits_five_reads_then_a_write() {
        let l = LoopNest::new(0, 8, 8, true, 7);
        let kinds: Vec<AccessKind> = l.take(6).map(|a| a.kind).collect();
        assert_eq!(kinds[..5], [AccessKind::Load; 5]);
        assert_eq!(kinds[5], AccessKind::Store);
    }

    #[test]
    fn read_only_stencil_never_stores() {
        let l = LoopNest::new(0, 8, 8, false, 7);
        assert!(l.take(1_000).all(|a| a.kind == AccessKind::Load));
    }

    #[test]
    fn stencil_neighbours_are_adjacent_lines() {
        let mut l = LoopNest::new(0, 8, 8, true, 7);
        let north = l.next().unwrap().address / LINE_BYTES;
        let south = l.next().unwrap().address / LINE_BYTES;
        assert_eq!(south - north, 16, "two rows apart in an 8-line-wide grid");
    }

    #[test]
    fn uniform_covers_footprint() {
        let u = UniformRandom::new(0, 64, DATA, 8);
        let visited: std::collections::HashSet<u64> =
            u.take(10_000).map(|a| a.address / LINE_BYTES).collect();
        assert!(
            visited.len() > 60,
            "uniform sampling covers nearly all lines"
        );
    }

    #[test]
    fn determinism_per_seed() {
        let a: Vec<MemoryAccess> = ZipfHotSet::new(0, 512, 1.1, DATA, 9).take(100).collect();
        let b: Vec<MemoryAccess> = ZipfHotSet::new(0, 512, 1.1, DATA, 9).take(100).collect();
        assert_eq!(a, b);
        let c: Vec<MemoryAccess> = ZipfHotSet::new(0, 512, 1.1, DATA, 10).take(100).collect();
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn zero_footprint_rejected() {
        let _ = UniformRandom::new(0, 0, DATA, 0);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_read_fraction_rejected() {
        let _ = UniformRandom::new(0, 4, KindModel::Data { read_fraction: 1.5 }, 0);
    }

    #[test]
    #[should_panic(expected = "3x3")]
    fn tiny_stencil_rejected() {
        let _ = LoopNest::new(0, 2, 8, true, 0);
    }

    #[test]
    fn instr_kind_produces_fetches() {
        let s = StridedStream::new(0, 16, 1, KindModel::Instr, 11);
        assert!(s.take(100).all(|a| a.kind == AccessKind::InstrFetch));
    }
}
