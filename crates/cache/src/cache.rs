//! The single-level set-associative cache engine.

use crate::config::{AccessMode, CacheConfig};
use crate::observer::{AccessObserver, LineKey};
use crate::replacement::{PolicyState, Replacement, ReplacementPolicy};
use crate::stats::CacheStats;

/// The tag an empty way holds. A real tag is all ones only when it spans
/// the whole address (1-byte blocks in a single set); the tag match asks
/// the state row about that one value ([`find_way`]).
const EMPTY: u64 = u64::MAX;
/// State-row bit: the way holds data.
const VALID: u64 = 1 << 63;
/// State-row bit: the line differs from memory.
const DIRTY: u64 = 1 << 62;
/// State-row bits of the content version, which every rewrite bumps so
/// resampled contents differ. Its 62 bits outlast any simulation.
const VERSION: u64 = DIRTY - 1;

/// One set's line metadata: three rows of `ways` words, way `w` at index
/// `w` of each.
///
/// Fills take the first empty way and nothing empties a way, so the valid
/// ways of a set are always a prefix of its rows.
struct SetRows<'a> {
    set: usize,
    /// The tag of each valid way, [`EMPTY`] in the others.
    tags: &'a mut [u64],
    /// Reads (concealed) since the last ECC check or rewrite. A demand
    /// read reports `unchecked + 1` and resets this to zero.
    unchecked: &'a mut [u64],
    /// [`VALID`] and [`DIRTY`] above the content version.
    state: &'a mut [u64],
}

impl<'a> SetRows<'a> {
    /// The rows of `set` in `meta`, which stores each set's tag,
    /// unchecked and state rows back to back.
    #[inline]
    fn of(meta: &'a mut [u64], ways: usize, set: usize) -> Self {
        let (tags, rest) = meta[set * 3 * ways..(set + 1) * 3 * ways].split_at_mut(ways);
        let (unchecked, state) = rest.split_at_mut(ways);
        Self {
            set,
            tags,
            unchecked,
            state,
        }
    }

    /// Number of valid ways. A full set, the usual case, is told by its
    /// last tag alone: empty ways hold [`EMPTY`], so a last tag that is not
    /// `EMPTY` is a valid way, and the valid prefix spans the row.
    #[inline]
    fn valid(&self) -> usize {
        let ways = self.tags.len();
        if self.tags[ways - 1] != EMPTY {
            ways
        } else {
            valid_ways(self.state)
        }
    }

    #[inline]
    fn find(&self, tag: u64) -> Option<usize> {
        find_way(self.tags, self.state, tag)
    }

    fn dirty(&self, way: usize) -> bool {
        self.state[way] & DIRTY != 0
    }

    /// The content key of the line in `way`.
    #[inline]
    fn key(&self, way: usize) -> LineKey {
        LineKey {
            tag: self.tags[way],
            set: self.set as u64,
            version: self.state[way] & VERSION,
        }
    }

    /// Rewrites the content of `way`: a new version, marked valid and
    /// dirty as given, with no unchecked reads.
    #[inline]
    fn rewrite(&mut self, way: usize, dirty: bool) {
        let flags = if dirty { VALID | DIRTY } else { VALID };
        self.state[way] = flags | (((self.state[way] & VERSION) + 1) & VERSION);
        self.unchecked[way] = 0;
    }
}

/// Number of valid ways in a set with this state row: the length of its
/// valid prefix.
#[inline]
fn valid_ways(state: &[u64]) -> usize {
    state.partition_point(|&s| s & VALID != 0)
}

/// The way of a set with these tag and state rows that holds `tag`, if
/// any. One branch-free pass keeps the first matching way. Valid ways hold
/// distinct tags and precede the empty ones, so the first match is the
/// valid holder whenever there is one; only a tag equal to [`EMPTY`] can
/// match an empty way, and the state row settles that case.
#[inline]
fn find_way(tags: &[u64], state: &[u64], tag: u64) -> Option<usize> {
    let ways = tags.len();
    let mut hit = ways;
    for (w, &t) in tags.iter().enumerate().rev() {
        hit = if t == tag { w } else { hit };
    }
    (hit < ways && (tag != EMPTY || state[hit] & VALID != 0)).then_some(hit)
}

/// The `line_ones` argument `O`'s hooks receive for the content `key`:
/// its [`sample_ones`] weight at `bits` stored bits, or `0` when `O`
/// does not read weights.
#[inline]
fn hook_ones<O: AccessObserver>(seed: u64, bits: usize, key: LineKey) -> u32 {
    if O::NEEDS_WEIGHTS {
        sample_ones(seed, key.tag, key.set, key.version, bits)
    } else {
        0
    }
}

/// Information about a line evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictionInfo {
    /// Byte address of the first byte of the evicted line.
    pub address: u64,
    /// Whether the victim was dirty (requires a write-back below).
    pub dirty: bool,
    /// Unchecked (concealed) reads the victim had accumulated.
    pub unchecked_reads: u64,
}

/// Result of one demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the access hit.
    pub hit: bool,
    /// The victim displaced by the fill, if the access missed and the set
    /// was full.
    pub evicted: Option<EvictionInfo>,
}

/// A single-level, write-back, write-allocate, set-associative cache.
///
/// The cache models the read path of §III-A: in
/// [`AccessMode::Parallel`] every demand read (hit *or* miss) physically
/// reads all valid ways of the target set; the non-requested ways receive
/// concealed reads. Event hooks are delivered to an
/// [`AccessObserver`].
///
/// Line contents are not stored; instead each line's content has a
/// deterministic pseudo-random `ones` weight (`n` of the paper's
/// equations), a hash of its [`LineKey`] that changes whenever the line
/// is rewritten. The expected weight is half the line width, matching
/// random data. The weight is sampled when a hook passes it, and only
/// for observers that declare [`AccessObserver::NEEDS_WEIGHTS`].
///
/// # Examples
///
/// ```
/// use reap_cache::{Cache, CacheConfig, Replacement};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = CacheConfig::builder()
///     .name("L2")
///     .size_bytes(64 * 1024)
///     .associativity(8)
///     .block_bytes(64)
///     .build()?;
/// let mut cache = Cache::new(config, Replacement::Lru);
/// assert!(!cache.read(0x1000, &mut ()).hit); // cold miss
/// assert!(cache.read(0x1000, &mut ()).hit);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Cache {
    config: CacheConfig,
    /// Enum-dispatched: the policy hooks run once or more per access, and
    /// static dispatch lets them inline into the access loop.
    policy: PolicyState,
    /// Line metadata, 24 bytes per line in one [`SetRows`] block per set:
    /// a 1 MB L2 of 64 B blocks keeps 384 KiB of it.
    meta: Vec<u64>,
    stats: CacheStats,
    ones_seed: u64,
    /// Extra check bits per line (e.g. 64 for 8x (72,64) SEC-DED),
    /// included in the sampled weight.
    check_bits: usize,
}

impl Cache {
    /// Creates a cache with the default content-weight seed.
    pub fn new(config: CacheConfig, replacement: Replacement) -> Self {
        Self::with_ones_seed(config, replacement, 0x0DDB_1A5E_5BAD_5EED)
    }

    /// Creates a cache whose line-content weights derive from `ones_seed`.
    pub fn with_ones_seed(config: CacheConfig, replacement: Replacement, ones_seed: u64) -> Self {
        let sets = config.num_sets();
        let ways = config.associativity();
        let policy = replacement.build_state(sets, ways);
        let mut meta = vec![0; sets * 3 * ways];
        for block in meta.chunks_exact_mut(3 * ways) {
            block[..ways].fill(EMPTY);
        }
        Self {
            config,
            policy,
            meta,
            stats: CacheStats::default(),
            ones_seed,
            check_bits: 0,
        }
    }

    /// Declares that each stored line carries `check_bits` additional ECC
    /// bits, included in the sampled content weight (disturbance strikes
    /// check bits too).
    ///
    /// Call it before the first access: weights are sampled at the hook
    /// from the current width, so resident lines would change weight.
    pub fn set_check_bits(&mut self, check_bits: usize) {
        debug_assert!(
            self.valid_lines() == 0,
            "check bits must be set before any line is filled"
        );
        self.check_bits = check_bits;
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The seed the content-weight hash ([`sample_ones`]) derives line
    /// weights from. Replay needs it to resample a captured
    /// [`LineKey`] at a different stored width.
    pub fn ones_seed(&self) -> u64 {
        self.ones_seed
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets the counters (not the cache contents).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Total stored bits per line (data + check bits).
    pub fn stored_line_bits(&self) -> usize {
        self.config.line_bits() + self.check_bits
    }

    /// Performs a demand read of the line containing `address`.
    ///
    /// Observer events: `line_read` for every physically read valid way;
    /// `demand_read` on a hit; `eviction`/`line_write` when a miss fills.
    pub fn read<O: AccessObserver>(&mut self, address: u64, observer: &mut O) -> AccessResult {
        self.stats.reads += 1;
        let (tag, set) = self.config.split_address(address);
        let parallel = self.config.access_mode() == AccessMode::Parallel;
        let (seed, bits) = (self.ones_seed, self.stored_line_bits());
        let ways = self.config.associativity();
        let rows = SetRows::of(&mut self.meta, ways, set);
        let hit_way = rows.find(tag);

        if parallel {
            // Every valid way in the set is physically read. The requested
            // way's read is counted in the row too and reported below.
            let valid = rows.valid();
            self.stats.line_reads += valid as u64;
            for w in 0..valid {
                observer.line_read(hook_ones::<O>(seed, bits, rows.key(w)));
            }
            for unchecked in &mut rows.unchecked[..valid] {
                *unchecked += 1;
            }
            self.stats.concealed_reads += (valid - usize::from(hit_way.is_some())) as u64;
            self.policy.on_concealed_reads(set, valid, hit_way);
        } else if let Some(w) = hit_way {
            // Serial mode: only the matching way is read.
            self.stats.line_reads += 1;
            observer.line_read(hook_ones::<O>(seed, bits, rows.key(w)));
        }

        match hit_way {
            Some(w) => {
                let n = rows.unchecked[w] + u64::from(!parallel);
                rows.unchecked[w] = 0;
                self.stats.read_hits += 1;
                self.stats.demand_checks += 1;
                let key = rows.key(w);
                observer.demand_read_keyed(key, hook_ones::<O>(seed, bits, key), n);
                self.policy.on_access(set, w);
                AccessResult {
                    hit: true,
                    evicted: None,
                }
            }
            None => {
                let evicted = self.fill(tag, set, false, observer);
                AccessResult {
                    hit: false,
                    evicted,
                }
            }
        }
    }

    /// Performs a demand write (store or write-back from an upper level)
    /// to the line containing `address`. Writes are tag-first (no
    /// concealed reads) and rewrite the line, healing accumulated
    /// disturbance.
    pub fn write<O: AccessObserver>(&mut self, address: u64, observer: &mut O) -> AccessResult {
        self.stats.writes += 1;
        let (tag, set) = self.config.split_address(address);
        let (seed, bits) = (self.ones_seed, self.stored_line_bits());
        let ways = self.config.associativity();
        let mut rows = SetRows::of(&mut self.meta, ways, set);
        match rows.find(tag) {
            Some(w) => {
                self.stats.write_hits += 1;
                rows.rewrite(w, true);
                observer.line_write(hook_ones::<O>(seed, bits, rows.key(w)));
                self.policy.on_access(set, w);
                AccessResult {
                    hit: true,
                    evicted: None,
                }
            }
            None => {
                // Write-allocate: fill, then mark dirty.
                let evicted = self.fill(tag, set, true, observer);
                AccessResult {
                    hit: false,
                    evicted,
                }
            }
        }
    }

    /// Installs a full-line write-back from an upper level into the line
    /// containing `address`.
    ///
    /// Bookkeeping is identical to [`Cache::write`] — same counters,
    /// observer events and allocate-on-miss — but the call marks the
    /// write as carrying a *complete* line: on a miss the allocation
    /// needs no backing-store fetch, which the hierarchy uses to avoid
    /// charging a memory read (demand stores, by contrast, must fetch
    /// the rest of the line before merging). Misses are additionally
    /// counted in [`CacheStats::writeback_installs`].
    pub fn install_writeback<O: AccessObserver>(
        &mut self,
        address: u64,
        observer: &mut O,
    ) -> AccessResult {
        let result = self.write(address, observer);
        if !result.hit {
            self.stats.writeback_installs += 1;
        }
        result
    }

    /// Installs `tag` into `set`, evicting a victim if the set is full.
    fn fill<O: AccessObserver>(
        &mut self,
        tag: u64,
        set: usize,
        dirty: bool,
        observer: &mut O,
    ) -> Option<EvictionInfo> {
        let ways = self.config.associativity();
        let (seed, bits) = (self.ones_seed, self.stored_line_bits());
        let mut rows = SetRows::of(&mut self.meta, ways, set);
        let valid = rows.valid();
        let (way, evicted) = if valid < ways {
            (valid, None)
        } else {
            let w = self.policy.victim(set);
            debug_assert!(w < ways, "victim way out of range");
            let (victim_dirty, unchecked) = (rows.dirty(w), rows.unchecked[w]);
            let info = EvictionInfo {
                address: self.config.join_address(rows.tags[w], set),
                dirty: victim_dirty,
                unchecked_reads: unchecked,
            };
            self.stats.evictions += 1;
            if victim_dirty {
                self.stats.dirty_evictions += 1;
            }
            let key = rows.key(w);
            let ones = hook_ones::<O>(seed, bits, key);
            observer.eviction_keyed(key, victim_dirty, ones, unchecked);
            (w, Some(info))
        };
        self.stats.fills += 1;
        rows.tags[way] = tag;
        rows.rewrite(way, dirty);
        observer.line_write(hook_ones::<O>(seed, bits, rows.key(way)));
        self.policy.on_fill(set, way);
        evicted
    }

    /// Scrubs the whole cache: reads, ECC-checks and (conceptually)
    /// rewrites every valid line, resetting its accumulation counter.
    ///
    /// This is the classic alternative mitigation to REAP: instead of
    /// checking on every read, sweep the array periodically. Each scrubbed
    /// line is one more physical read (the scrub read itself disturbs, so
    /// the check covers `unchecked + 1` reads) reported through
    /// [`AccessObserver::scrub_check`], and the rewrite heals the line.
    /// Returns the number of lines scrubbed.
    pub fn scrub<O: AccessObserver>(&mut self, observer: &mut O) -> u64 {
        let (seed, bits) = (self.ones_seed, self.stored_line_bits());
        let ways = self.config.associativity();
        let mut scrubbed = 0;
        for set in 0..self.config.num_sets() {
            let rows = SetRows::of(&mut self.meta, ways, set);
            for w in 0..rows.valid() {
                let key = rows.key(w);
                let ones = hook_ones::<O>(seed, bits, key);
                observer.line_read(ones);
                observer.scrub_check_keyed(key, rows.dirty(w), ones, rows.unchecked[w] + 1);
                rows.unchecked[w] = 0;
                scrubbed += 1;
            }
        }
        self.stats.line_reads += scrubbed;
        self.stats.scrub_checks += scrubbed;
        scrubbed
    }

    /// Whether the line containing `address` is currently resident.
    pub fn contains(&self, address: u64) -> bool {
        let (tag, set) = self.config.split_address(address);
        let ways = self.config.associativity();
        let (tags, rest) = self.meta[set * 3 * ways..(set + 1) * 3 * ways].split_at(ways);
        find_way(tags, &rest[ways..], tag).is_some()
    }

    /// Number of currently valid lines.
    pub fn valid_lines(&self) -> usize {
        let ways = self.config.associativity();
        self.meta
            .chunks_exact(3 * ways)
            .map(|block| valid_ways(&block[2 * ways..]))
            .sum()
    }
}

/// Deterministic content weight: the popcount of `bits` hashed bits —
/// exactly Binomial(bits, 1/2) distributed, like random data.
///
/// Public so replay can re-derive the weight a captured
/// [`LineKey`] had at capture time — or would have at a *different*
/// stored width — without re-simulating the cache: the `(seed, tag, set,
/// version)` inputs fully determine the hash stream, and `bits` only
/// selects how much of it is popcounted.
pub fn sample_ones(seed: u64, tag: u64, set: u64, version: u64, bits: usize) -> u32 {
    let mut state = seed
        ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ set.rotate_left(32)
        ^ version.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let mut remaining = bits;
    let mut ones = 0u32;
    while remaining > 0 {
        state = splitmix64(&mut state);
        let take = remaining.min(64);
        let mask = if take == 64 {
            u64::MAX
        } else {
            (1u64 << take) - 1
        };
        ones += (state & mask).count_ones();
        remaining -= take;
    }
    ones
}

/// [`sample_ones`] for several stored widths of the *same* line in one
/// pass: `out[i] = sample_ones(seed, tag, set, version, widths[i])`,
/// bit-for-bit. The per-width streams share their prefix (the word at
/// position `k` is the `k`-th splitmix output regardless of width), so
/// the hash stream runs once to the largest width instead of once per
/// width — the batched replay feeder's per-record win.
///
/// `widths` must be ascending; `out` must match its length.
pub fn sample_ones_multi(
    seed: u64,
    tag: u64,
    set: u64,
    version: u64,
    widths: &[usize],
    out: &mut [u32],
) {
    debug_assert_eq!(widths.len(), out.len());
    debug_assert!(widths.windows(2).all(|w| w[0] <= w[1]));
    let mut state = seed
        ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ set.rotate_left(32)
        ^ version.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    // Bits fully popcounted into `full`, and the not-yet-consumed word
    // covering `[covered, covered + 64)` if a partial take produced it.
    let mut covered = 0usize;
    let mut full = 0u32;
    let mut pending: Option<u64> = None;
    // `sample_ones` feeds each output back in as the next state, so the
    // stream is `z_{k+1} = splitmix(z_k)`; reproduce that exactly.
    let mut next_word = move || {
        let z = splitmix64(&mut state);
        state = z;
        z
    };
    for (&w, slot) in widths.iter().zip(out.iter_mut()) {
        while w >= covered + 64 {
            let word = pending.take().unwrap_or_else(&mut next_word);
            full += word.count_ones();
            covered += 64;
        }
        let rem = w - covered;
        *slot = if rem == 0 {
            full
        } else {
            let word = *pending.get_or_insert_with(&mut next_word);
            full + (word & ((1u64 << rem) - 1)).count_ones()
        };
    }
}

/// [`sample_ones_multi`] for a block of *different* lines in one call:
/// `out[r * widths.len() + i] = sample_ones(seed, keys[r].0, keys[r].1,
/// keys[r].2, widths[i])`, bit-for-bit, record-major. One line's hash
/// stream is a serial feedback chain (`z_{k+1} = splitmix(z_k)`), so a
/// single walk is latency-bound — every word waits on the one before
/// it. Different lines' chains are independent, though, and stepping
/// eight of them in lockstep hides that latency (and the software
/// popcount the baseline x86-64 target compiles `count_ones` to) behind
/// instruction-level parallelism: the batched replay feeder's
/// per-*block* win on top of [`sample_ones_multi`]'s per-record one.
/// A block's last `keys.len() % 8` lines take [`sample_ones_multi`].
///
/// `keys` are `(tag, set, version)` triples; `widths` must be ascending;
/// `out` must hold `keys.len() * widths.len()` slots.
pub fn sample_ones_multi_batch(
    seed: u64,
    keys: &[(u64, u64, u64)],
    widths: &[usize],
    out: &mut [u32],
) {
    const R: usize = 8;
    let nw = widths.len();
    debug_assert_eq!(keys.len() * nw, out.len());
    debug_assert!(widths.windows(2).all(|w| w[0] <= w[1]));
    if nw == 0 {
        return;
    }
    let mut key_rows = keys.chunks_exact(R);
    let mut out_rows = out.chunks_exact_mut(R * nw);
    for (krow, orow) in (&mut key_rows).zip(&mut out_rows) {
        let mut state = [0u64; R];
        for r in 0..R {
            let (tag, set, version) = krow[r];
            state[r] = seed
                ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ set.rotate_left(32)
                ^ version.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        }
        // Same cursor as `sample_ones_multi` — bits fully popcounted
        // into `full`, plus the not-yet-consumed word for `[covered,
        // covered + 64)` if a partial take produced it — but widened to
        // eight records, so each `z_{k+1} = splitmix(z_k)` feedback step
        // runs once per chain back to back and the chains overlap in
        // the pipeline.
        let mut covered = 0usize;
        let mut full = [0u32; R];
        let mut pending = [0u64; R];
        let mut have_pending = false;
        for (i, &w) in widths.iter().enumerate() {
            while w >= covered + 64 {
                if !have_pending {
                    for r in 0..R {
                        let z = splitmix64(&mut state[r]);
                        state[r] = z;
                        pending[r] = z;
                    }
                }
                have_pending = false;
                for r in 0..R {
                    full[r] += pending[r].count_ones();
                }
                covered += 64;
            }
            let rem = w - covered;
            if rem == 0 {
                for r in 0..R {
                    orow[r * nw + i] = full[r];
                }
            } else {
                if !have_pending {
                    for r in 0..R {
                        let z = splitmix64(&mut state[r]);
                        state[r] = z;
                        pending[r] = z;
                    }
                    have_pending = true;
                }
                let mask = (1u64 << rem) - 1;
                for r in 0..R {
                    orow[r * nw + i] = full[r] + (pending[r] & mask).count_ones();
                }
            }
        }
    }
    let tail_out = out_rows.into_remainder();
    for ((tag, set, version), orow) in key_rows
        .remainder()
        .iter()
        .zip(tail_out.chunks_exact_mut(nw))
    {
        sample_ones_multi(seed, *tag, *set, *version, widths, orow);
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AccessMode;

    fn small(mode: AccessMode) -> Cache {
        let config = CacheConfig::builder()
            .name("T")
            .size_bytes(4 * 64 * 2) // 2 sets, 4 ways
            .associativity(4)
            .block_bytes(64)
            .access_mode(mode)
            .build()
            .unwrap();
        Cache::new(config, Replacement::Lru)
    }

    /// Observer that records demand-read N values.
    #[derive(Default)]
    struct NRecorder(Vec<u64>);

    impl AccessObserver for NRecorder {
        fn demand_read(&mut self, _ones: u32, n: u64) {
            self.0.push(n);
        }
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small(AccessMode::Parallel);
        assert!(!c.read(0, &mut ()).hit);
        assert!(c.read(0, &mut ()).hit);
        assert_eq!(c.stats().reads, 2);
        assert_eq!(c.stats().read_hits, 1);
        assert_eq!(c.stats().fills, 1);
    }

    #[test]
    fn concealed_reads_accumulate_on_set_siblings() {
        let mut c = small(AccessMode::Parallel);
        // Two lines in set 0 (set stride = 2 blocks = 128 bytes).
        c.read(0, &mut ()); // line A fill
        c.read(128, &mut ()); // line B fill; A gets 1 concealed read
        let mut rec = NRecorder::default();
        c.read(128, &mut rec); // B demand hit (N = 1); A gets another concealed
        c.read(0, &mut rec); // A demand hit: N = 2 concealed + 1 = 3
        assert_eq!(rec.0, vec![1, 3]);
        assert_eq!(c.stats().concealed_reads, 3, "A twice, B once");
    }

    #[test]
    fn misses_also_impose_concealed_reads() {
        let mut c = small(AccessMode::Parallel);
        c.read(0, &mut ()); // A resident
        c.read(128, &mut ()); // miss fill B; A concealed
        c.read(256, &mut ()); // miss fill C; A and B concealed
        assert_eq!(c.stats().concealed_reads, 3);
    }

    #[test]
    fn serial_mode_has_no_concealed_reads() {
        let mut c = small(AccessMode::Serial);
        c.read(0, &mut ());
        c.read(128, &mut ());
        c.read(0, &mut ());
        c.read(128, &mut ());
        assert_eq!(c.stats().concealed_reads, 0);
        let mut rec = NRecorder::default();
        c.read(0, &mut rec);
        assert_eq!(rec.0, vec![1], "every demand read has N = 1 in serial mode");
    }

    #[test]
    fn write_resets_accumulation() {
        let mut c = small(AccessMode::Parallel);
        c.read(0, &mut ());
        c.read(128, &mut ()); // A concealed
        c.read(128, &mut ()); // A concealed again
        c.write(0, &mut ()); // rewrite heals A
        let mut rec = NRecorder::default();
        c.read(0, &mut rec);
        assert_eq!(rec.0, vec![1], "write must reset the unchecked counter");
    }

    #[test]
    fn demand_read_resets_accumulation() {
        let mut c = small(AccessMode::Parallel);
        c.read(0, &mut ());
        c.read(128, &mut ()); // A: 1 concealed
        let mut rec = NRecorder::default();
        c.read(0, &mut rec); // N = 2, then reset
        c.read(0, &mut rec); // N = 1
        assert_eq!(rec.0, vec![2, 1]);
    }

    #[test]
    fn lru_eviction_and_writeback_flag() {
        let mut c = small(AccessMode::Parallel);
        // Fill set 0 (4 ways): lines at 0, 128, 256, 384 all map to set 0
        // (stride = 2 blocks).
        for i in 0..4u64 {
            c.read(i * 128, &mut ());
        }
        c.write(0, &mut ()); // make line 0 dirty and most recent
                             // Fifth line in set 0 forces an eviction of the LRU line (128).
        let r = c.read(4 * 128, &mut ());
        let ev = r.evicted.expect("set was full");
        assert_eq!(ev.address, 128);
        assert!(!ev.dirty);
        // Now evict again; victim should be 256.
        let r2 = c.read(5 * 128, &mut ());
        assert_eq!(r2.evicted.unwrap().address, 256);
    }

    #[test]
    fn dirty_eviction_reports_dirty() {
        let mut c = small(AccessMode::Parallel);
        c.write(0, &mut ());
        for i in 1..4u64 {
            c.read(i * 128, &mut ());
        }
        // Access others to make line 0 LRU.
        for i in 1..4u64 {
            c.read(i * 128, &mut ());
        }
        let r = c.read(4 * 128, &mut ());
        let ev = r.evicted.unwrap();
        assert_eq!(ev.address, 0);
        assert!(ev.dirty);
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn eviction_reports_accumulated_unchecked_reads() {
        let mut c = small(AccessMode::Parallel);
        c.read(0, &mut ()); // A
                            // Three sibling accesses: A accumulates 3 concealed reads.
        for i in 1..4u64 {
            c.read(i * 128, &mut ());
        }
        // Make A the LRU victim (it already is) and evict.
        let r = c.read(4 * 128, &mut ());
        let ev = r.evicted.unwrap();
        assert_eq!(ev.address, 0);
        // A was concealed-read 3 times by sibling fills + 1 by this access.
        assert_eq!(ev.unchecked_reads, 4);
    }

    #[test]
    fn ones_weight_is_near_half_width() {
        let mut c = small(AccessMode::Parallel);
        #[derive(Default)]
        struct Ones(Vec<u32>);
        impl AccessObserver for Ones {
            fn line_write(&mut self, ones: u32) {
                self.0.push(ones);
            }
        }
        let mut obs = Ones::default();
        for i in 0..100u64 {
            c.read(i * 64, &mut obs);
        }
        let mean = obs.0.iter().map(|&o| f64::from(o)).sum::<f64>() / obs.0.len() as f64;
        assert!(
            (mean - 256.0).abs() < 15.0,
            "mean ones = {mean} for 512-bit lines"
        );
    }

    #[test]
    fn check_bits_extend_sampled_width() {
        let mut c = small(AccessMode::Parallel);
        c.set_check_bits(64);
        assert_eq!(c.stored_line_bits(), 576);
        #[derive(Default)]
        struct MaxOnes(u32);
        impl AccessObserver for MaxOnes {
            fn line_write(&mut self, ones: u32) {
                self.0 = self.0.max(ones);
            }
        }
        let mut obs = MaxOnes::default();
        for i in 0..200u64 {
            c.read(i * 64, &mut obs);
        }
        assert!(
            obs.0 > 256,
            "576-bit lines should sometimes exceed 256 ones"
        );
    }

    #[test]
    fn rewrite_resamples_content_weight() {
        let config = CacheConfig::builder()
            .name("T")
            .size_bytes(64)
            .associativity(1)
            .block_bytes(64)
            .build()
            .unwrap();
        let mut c = Cache::new(config, Replacement::Lru);
        #[derive(Default)]
        struct AllOnes(Vec<u32>);
        impl AccessObserver for AllOnes {
            fn line_write(&mut self, ones: u32) {
                self.0.push(ones);
            }
        }
        let mut obs = AllOnes::default();
        c.read(0, &mut obs);
        for _ in 0..20 {
            c.write(0, &mut obs);
        }
        let distinct: std::collections::HashSet<u32> = obs.0.iter().copied().collect();
        assert!(distinct.len() > 5, "rewrites should resample the weight");
    }

    /// Records every weight a hook hands over, keyed where the hook is.
    #[derive(Default)]
    struct WeightLog {
        reads: Vec<u32>,
        writes: Vec<u32>,
        keyed: Vec<(LineKey, u32)>,
    }

    impl AccessObserver for WeightLog {
        fn line_read(&mut self, ones: u32) {
            self.reads.push(ones);
        }

        fn line_write(&mut self, ones: u32) {
            self.writes.push(ones);
        }

        fn demand_read_keyed(&mut self, key: LineKey, ones: u32, _n: u64) {
            self.keyed.push((key, ones));
        }

        fn eviction_keyed(&mut self, key: LineKey, _dirty: bool, ones: u32, _n: u64) {
            self.keyed.push((key, ones));
        }

        fn scrub_check_keyed(&mut self, key: LineKey, _dirty: bool, ones: u32, _n: u64) {
            self.keyed.push((key, ones));
        }
    }

    /// Keys of the valid lines of `set`, in way order.
    fn resident(c: &mut Cache, set: usize) -> Vec<LineKey> {
        let rows = SetRows::of(&mut c.meta, c.config.associativity(), set);
        (0..rows.valid()).map(|w| rows.key(w)).collect()
    }

    #[test]
    fn hooks_see_key_weights_after_a_weightless_warm_up() {
        for mode in [AccessMode::Parallel, AccessMode::Serial] {
            let mut c = small(mode);
            c.set_check_bits(8);
            let (seed, bits) = (c.ones_seed(), c.stored_line_bits());
            let weight = move |k: &LineKey| sample_ones(seed, k.tag, k.set, k.version, bits);
            // The warm-up samples nothing; fills, rewrites and evictions
            // still move every slot's version on.
            for i in 0..24u64 {
                c.write((i * 5 % 14) * 64, &mut ());
                c.read((i * 3 % 11) * 64, &mut ());
            }
            let mut keyed_events = 0;
            for step in 0..60u64 {
                let address = (step * 7 % 13) * 64;
                let (tag, set) = c.config.split_address(address);
                let before = resident(&mut c, set);
                let mut log = WeightLog::default();
                let is_write = step % 3 == 0;
                if is_write {
                    c.write(address, &mut log);
                } else {
                    c.read(address, &mut log);
                }
                let after = resident(&mut c, set);

                for (key, ones) in &log.keyed {
                    assert_eq!(*ones, weight(key), "step {step}: keyed hook on {key:?}");
                }
                keyed_events += log.keyed.len();
                let read: Vec<u32> = match (is_write, mode) {
                    (true, _) => Vec::new(),
                    (false, AccessMode::Parallel) => before.iter().map(weight).collect(),
                    (false, AccessMode::Serial) => {
                        before.iter().filter(|k| k.tag == tag).map(weight).collect()
                    }
                };
                assert_eq!(log.reads, read, "step {step}: line reads");
                // A fill or rewrite leaves exactly one content the set did
                // not hold before; a read hit leaves none.
                let written: Vec<u32> = after
                    .iter()
                    .filter(|k| !before.contains(k))
                    .map(weight)
                    .collect();
                assert_eq!(log.writes, written, "step {step}: line writes");
            }
            assert!(keyed_events > 20, "demands and evictions were exercised");

            let valid: Vec<u32> = (0..c.config.num_sets())
                .flat_map(|set| resident(&mut c, set))
                .map(|k| weight(&k))
                .collect();
            let mut log = WeightLog::default();
            c.scrub(&mut log);
            assert_eq!(log.reads, valid, "scrub reads every valid line");
            let scrubbed: Vec<u32> = log.keyed.iter().map(|(_, ones)| *ones).collect();
            assert_eq!(scrubbed, valid, "scrub checks carry the same weights");
        }
    }

    #[test]
    fn weightless_observers_get_zero_weights() {
        struct KeysOnly(Vec<u32>);
        impl AccessObserver for KeysOnly {
            const NEEDS_WEIGHTS: bool = false;
            fn line_read(&mut self, ones: u32) {
                self.0.push(ones);
            }
            fn line_write(&mut self, ones: u32) {
                self.0.push(ones);
            }
        }
        let mut c = small(AccessMode::Parallel);
        let mut obs = KeysOnly(Vec::new());
        for i in 0..10u64 {
            c.read(i * 128, &mut obs);
        }
        c.scrub(&mut obs);
        assert!(obs.0.len() > 10);
        assert!(obs.0.iter().all(|&ones| ones == 0));
    }

    /// Observer that records scrub events.
    #[derive(Default)]
    struct ScrubRecorder(Vec<(bool, u64)>);

    impl AccessObserver for ScrubRecorder {
        fn scrub_check(&mut self, dirty: bool, _ones: u32, n: u64) {
            self.0.push((dirty, n));
        }
    }

    #[test]
    fn scrub_checks_every_valid_line_and_resets_accumulation() {
        let mut c = small(AccessMode::Parallel);
        c.read(0, &mut ());
        c.write(128, &mut ()); // dirty sibling; writes impose no concealed reads
        c.read(256, &mut ()); // lines 0 and 128 each get one concealed read
        let mut rec = ScrubRecorder::default();
        let scrubbed = c.scrub(&mut rec);
        assert_eq!(scrubbed, 3);
        let mut events = rec.0.clone();
        events.sort_unstable();
        assert_eq!(
            events,
            vec![(false, 1), (false, 2), (true, 2)],
            "fresh line 256 (N=1); clean line 0 and dirty line 128 accumulated (N=2)"
        );
        assert_eq!(c.stats().scrub_checks, 3);
        // After the scrub, a demand read starts from a clean slate.
        let mut rec2 = NRecorder::default();
        c.read(0, &mut rec2);
        assert_eq!(rec2.0, vec![1]);
    }

    #[test]
    fn scrub_of_empty_cache_is_a_noop() {
        let mut c = small(AccessMode::Parallel);
        assert_eq!(c.scrub(&mut ()), 0);
        assert_eq!(c.stats().scrub_checks, 0);
    }

    #[test]
    fn ler_policy_prefers_exposed_victims_end_to_end() {
        let config = CacheConfig::builder()
            .name("T")
            .size_bytes(2 * 64) // 1 set, 2 ways
            .associativity(2)
            .block_bytes(64)
            .build()
            .unwrap();
        let mut c = Cache::new(config, Replacement::LeastErrorRate);
        c.read(0, &mut ()); // way 0: line 0
        c.read(64, &mut ()); // way 1: line 64; line 0 concealed-read once
        c.read(64, &mut ()); // line 0 concealed again (exposure 2), 64 checked
                             // Fill forces an eviction: LER must pick the exposed line 0 even
                             // though line 0 is *not* the LRU choice... (it is here) — make 64
                             // the stale one instead:
        c.read(0, &mut ()); // 64 exposed once, 0 checked
        c.read(0, &mut ()); // 64 exposed twice
        let r = c.read(128, &mut ());
        assert_eq!(
            r.evicted.unwrap().address,
            64,
            "LER evicts the most-exposed way"
        );
    }

    #[test]
    fn contains_and_valid_lines() {
        let mut c = small(AccessMode::Parallel);
        assert!(!c.contains(0));
        c.read(0, &mut ());
        assert!(c.contains(0));
        assert!(c.contains(32), "same line");
        assert_eq!(c.valid_lines(), 1);
    }

    #[test]
    fn stats_reset_keeps_contents() {
        let mut c = small(AccessMode::Parallel);
        c.read(0, &mut ());
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0);
        assert!(c.read(0, &mut ()).hit, "contents survive a stats reset");
    }
}
