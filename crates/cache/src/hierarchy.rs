//! The two-level hierarchy of Table I: split SRAM L1 in front of a shared
//! STT-MRAM L2.

use crate::cache::Cache;
use crate::config::{CacheConfig, ConfigError};
use crate::observer::AccessObserver;
use crate::replacement::Replacement;
use reap_trace::{AccessKind, MemoryAccess};

/// Identifies a level/slice of the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// L1 instruction cache.
    L1I,
    /// L1 data cache.
    L1D,
    /// Shared L2.
    L2,
}

/// Configurations for all three caches.
///
/// [`HierarchyConfig::paper`] reproduces Table I: 32 KB 4-way L1I/L1D and
/// a 1 MB 8-way L2, all with 64 B blocks, write-back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Shared L2 geometry.
    pub l2: CacheConfig,
}

impl HierarchyConfig {
    /// The exact configuration of Table I of the paper.
    ///
    /// # Examples
    ///
    /// ```
    /// let c = reap_cache::HierarchyConfig::paper();
    /// assert_eq!(c.l2.num_sets(), 2048);
    /// assert_eq!(c.l1d.associativity(), 4);
    /// ```
    pub fn paper() -> Self {
        Self::paper_with_l2_ways(8).expect("Table I geometry is valid")
    }

    /// Table I with a different L2 associativity (for the associativity
    /// ablation).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `l2_ways` does not divide the 1 MB
    /// capacity into a power-of-two number of sets.
    pub fn paper_with_l2_ways(l2_ways: usize) -> Result<Self, ConfigError> {
        Ok(Self {
            l1i: CacheConfig::builder()
                .name("L1I")
                .size_bytes(32 * 1024)
                .associativity(4)
                .block_bytes(64)
                .build()?,
            l1d: CacheConfig::builder()
                .name("L1D")
                .size_bytes(32 * 1024)
                .associativity(4)
                .block_bytes(64)
                .build()?,
            l2: CacheConfig::builder()
                .name("L2")
                .size_bytes(1024 * 1024)
                .associativity(l2_ways)
                .block_bytes(64)
                .build()?,
        })
    }
}

/// A request the SRAM L1s send down to the L2: what the front half of
/// [`Hierarchy::access`] ([`L1Filter`]) produces and its back half
/// ([`L2Level`]) applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L2Op {
    /// A demand read, or a store miss's write-allocate fetch, of the line
    /// holding this address.
    Read(u64),
    /// A dirty L1 victim's full-line write-back to this address.
    Writeback(u64),
}

/// The split SRAM L1s: the front half of a [`Hierarchy`].
///
/// The hierarchy is non-inclusive, so nothing the L2 does reaches back
/// into the L1s: the stream of [`L2Op`]s they emit depends only on the
/// trace. A consumer may therefore run the L1s and the L2 on different
/// threads and get exactly the hierarchy's behaviour.
#[derive(Debug)]
pub struct L1Filter {
    l1i: Cache,
    l1d: Cache,
}

impl L1Filter {
    /// Drives one access through the L1s, handing each request it sends
    /// to the L2 to `emit` in the order the L2 must see them: at most one
    /// read, then at most one write-back.
    #[inline]
    pub fn access(&mut self, access: MemoryAccess, mut emit: impl FnMut(L2Op)) {
        let r = match access.kind {
            // Instruction lines are never dirty; no write-back.
            AccessKind::InstrFetch => self.l1i.read(access.address, &mut ()),
            AccessKind::Load => self.l1d.read(access.address, &mut ()),
            // Write-allocate: a store miss fetches the line from L2 first.
            AccessKind::Store => self.l1d.write(access.address, &mut ()),
        };
        if !r.hit {
            emit(L2Op::Read(access.address));
            if let Some(ev) = r.evicted.filter(|e| e.dirty) {
                emit(L2Op::Writeback(ev.address));
            }
        }
    }
}

/// The shared STT-MRAM L2 and the memory traffic below it: the back half
/// of a [`Hierarchy`], driven by the [`L2Op`]s of an [`L1Filter`].
#[derive(Debug)]
pub struct L2Level {
    l2: Cache,
    memory_reads: u64,
    memory_writes: u64,
}

impl L2Level {
    /// Mutable access to the L2 (e.g. to reset its counters or scrub it).
    pub fn l2_mut(&mut self) -> &mut Cache {
        &mut self.l2
    }

    /// Applies one L1 request; L2 events are delivered to `observer`.
    #[inline]
    pub fn apply<O: AccessObserver>(&mut self, op: L2Op, observer: &mut O) {
        let r = match op {
            L2Op::Read(address) => {
                let r = self.l2.read(address, observer);
                if !r.hit {
                    self.memory_reads += 1;
                }
                r
            }
            // The dirty L1 victim carries the complete line, so a miss
            // allocates without fetching from memory — unlike a
            // demand-store write-allocate, no `memory_reads` is charged.
            L2Op::Writeback(address) => self.l2.install_writeback(address, observer),
        };
        if r.evicted.is_some_and(|e| e.dirty) {
            self.memory_writes += 1;
        }
    }
}

/// A split-L1 + shared-L2 hierarchy driven access by access.
///
/// Policies (matching gem5's classic memory system, which the paper used):
/// write-back write-allocate everywhere, non-inclusive (an L2 eviction
/// does not back-invalidate L1), dirty L1 victims written back into L2,
/// dirty L2 victims counted as memory writes.
///
/// The [`AccessObserver`] passed to [`access`](Self::access) receives
/// events from the **L2 only** — the STT-MRAM level whose reliability the
/// study analyses. The SRAM L1s are immune to read disturbance.
///
/// An access runs front then back: the [`L1Filter`] turns it into
/// [`L2Op`]s and the [`L2Level`] applies them.
/// [`into_parts`](Self::into_parts) hands the two halves out separately,
/// so a caller can run them apart.
///
/// # Examples
///
/// ```
/// use reap_cache::{Hierarchy, HierarchyConfig, Replacement};
/// use reap_trace::MemoryAccess;
///
/// let mut h = Hierarchy::new(HierarchyConfig::paper(), Replacement::Lru);
/// h.access(MemoryAccess::load(0x1234), &mut ());
/// assert_eq!(h.l1d().stats().reads, 1);
/// assert_eq!(h.l2().stats().reads, 1); // cold L1 miss propagated
/// ```
#[derive(Debug)]
pub struct Hierarchy {
    front: L1Filter,
    back: L2Level,
}

impl Hierarchy {
    /// Builds the hierarchy; all levels share the same replacement policy
    /// kind (instantiated separately per level).
    pub fn new(config: HierarchyConfig, replacement: Replacement) -> Self {
        Self {
            front: L1Filter {
                l1i: Cache::new(config.l1i, replacement),
                l1d: Cache::new(config.l1d, replacement),
            },
            back: L2Level {
                l2: Cache::new(config.l2, replacement),
                memory_reads: 0,
                memory_writes: 0,
            },
        }
    }

    /// The cache at `level`.
    ///
    /// # Examples
    ///
    /// ```
    /// use reap_cache::{Hierarchy, HierarchyConfig, Level, Replacement};
    ///
    /// let h = Hierarchy::new(HierarchyConfig::paper(), Replacement::Lru);
    /// assert_eq!(h.cache(Level::L2).config().name(), "L2");
    /// ```
    pub fn cache(&self, level: Level) -> &Cache {
        match level {
            Level::L1I => self.l1i(),
            Level::L1D => self.l1d(),
            Level::L2 => self.l2(),
        }
    }

    /// The L1 instruction cache.
    pub fn l1i(&self) -> &Cache {
        &self.front.l1i
    }

    /// The L1 data cache.
    pub fn l1d(&self) -> &Cache {
        &self.front.l1d
    }

    /// The shared L2.
    pub fn l2(&self) -> &Cache {
        &self.back.l2
    }

    /// Mutable access to the L2 (e.g. to declare ECC check bits).
    pub fn l2_mut(&mut self) -> &mut Cache {
        &mut self.back.l2
    }

    /// Reads that reached main memory (L2 misses).
    pub fn memory_reads(&self) -> u64 {
        self.back.memory_reads
    }

    /// Writes that reached main memory (dirty L2 evictions).
    pub fn memory_writes(&self) -> u64 {
        self.back.memory_writes
    }

    /// Takes the hierarchy apart into its front half (the L1s) and its
    /// back half (the L2), e.g. to drive them on different threads.
    pub fn into_parts(self) -> (L1Filter, L2Level) {
        (self.front, self.back)
    }

    /// Puts a hierarchy back together from [`into_parts`](Self::into_parts).
    pub fn from_parts(front: L1Filter, back: L2Level) -> Self {
        Self { front, back }
    }

    /// Publishes per-level stats into `registry` as `cache.l1i.*`,
    /// `cache.l1d.*`, `cache.l2.*` plus `cache.memory.reads`/`.writes`,
    /// accumulating onto prior emissions (see [`CacheStats::emit`]). Call
    /// once per completed simulation pass.
    pub fn emit_metrics(&self, registry: &reap_obs::Registry) {
        self.l1i().stats().emit(registry, "l1i");
        self.l1d().stats().emit(registry, "l1d");
        self.l2().stats().emit(registry, "l2");
        registry
            .counter("cache.memory.reads")
            .add(self.memory_reads());
        registry
            .counter("cache.memory.writes")
            .add(self.memory_writes());
    }

    /// Drives one access through the hierarchy: the L1s, then the L2
    /// requests they send. L2 events are delivered to `observer`.
    pub fn access<O: AccessObserver>(&mut self, access: MemoryAccess, observer: &mut O) {
        let back = &mut self.back;
        self.front.access(access, |op| back.apply(op, observer));
    }

    /// Drives a whole trace; returns the number of accesses simulated.
    pub fn run<O, I>(&mut self, trace: I, observer: &mut O) -> u64
    where
        O: AccessObserver,
        I: IntoIterator<Item = MemoryAccess>,
    {
        let mut n = 0;
        for a in trace {
            self.access(a, observer);
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> Hierarchy {
        Hierarchy::new(HierarchyConfig::paper(), Replacement::Lru)
    }

    #[test]
    fn paper_config_matches_table_one() {
        let c = HierarchyConfig::paper();
        assert_eq!(c.l1i.size_bytes(), 32 * 1024);
        assert_eq!(c.l1i.associativity(), 4);
        assert_eq!(c.l1d.size_bytes(), 32 * 1024);
        assert_eq!(c.l2.size_bytes(), 1024 * 1024);
        assert_eq!(c.l2.associativity(), 8);
        assert_eq!(c.l2.block_bytes(), 64);
    }

    #[test]
    fn l1_hit_does_not_touch_l2() {
        let mut h = hierarchy();
        h.access(MemoryAccess::load(0), &mut ());
        h.access(MemoryAccess::load(0), &mut ());
        assert_eq!(h.l1d().stats().reads, 2);
        assert_eq!(h.l2().stats().reads, 1);
    }

    #[test]
    fn fetches_route_to_l1i() {
        let mut h = hierarchy();
        h.access(MemoryAccess::fetch(0), &mut ());
        assert_eq!(h.l1i().stats().reads, 1);
        assert_eq!(h.l1d().stats().reads, 0);
    }

    #[test]
    fn store_miss_write_allocates_through_l2() {
        let mut h = hierarchy();
        h.access(MemoryAccess::store(0), &mut ());
        assert_eq!(h.l1d().stats().writes, 1);
        assert_eq!(h.l2().stats().reads, 1, "write-allocate fetch");
        assert_eq!(h.memory_reads(), 1);
    }

    #[test]
    fn dirty_l1_victim_writes_back_to_l2() {
        let mut h = hierarchy();
        // L1D: 32 KB, 4-way, 64 B => 128 sets; set stride = 128 * 64 = 8192.
        h.access(MemoryAccess::store(0), &mut ());
        // Evict line 0 from L1D by filling its set with 4 more lines.
        for i in 1..=4u64 {
            h.access(MemoryAccess::load(i * 8192), &mut ());
        }
        assert!(
            h.l2().stats().writes >= 1,
            "dirty victim must write back to L2"
        );
    }

    #[test]
    fn writeback_miss_does_not_charge_memory_read() {
        // Small 1-way L2 so we can evict a line from L2 while its (dirty)
        // copy stays resident in L1D, then force the dirty L1 victim's
        // write-back to *miss* in L2.
        let config = HierarchyConfig {
            l2: CacheConfig::builder()
                .name("L2")
                .size_bytes(4 * 1024) // 64 sets, 1-way: set stride 4096
                .associativity(1)
                .block_bytes(64)
                .build()
                .unwrap(),
            ..HierarchyConfig::paper()
        };
        let mut h = Hierarchy::new(config, Replacement::Lru);
        // Store to line 0: L1D write-allocate fetches through L2 (memory
        // read 1); line 0 is dirty in L1D, clean in L2.
        h.access(MemoryAccess::store(0), &mut ());
        // Conflict line 0 out of L2 set 0 (clean eviction, memory read 2).
        h.access(MemoryAccess::load(4096), &mut ());
        // Four loads that land in L1D set 0 (stride 8192) *and* L2 set 0:
        // memory reads 3..=6. The last one evicts the dirty line 0 from
        // L1D, whose write-back misses in L2.
        for i in 1..=4u64 {
            h.access(MemoryAccess::load(i * 8192), &mut ());
        }
        assert_eq!(h.l2().stats().writes, 1, "exactly one write-back");
        assert_eq!(h.l2().stats().write_hits, 0, "the write-back missed");
        assert_eq!(h.l2().stats().writeback_installs, 1);
        assert_eq!(
            h.memory_reads(),
            6,
            "a full-line write-back miss allocates without a fetch"
        );
        assert_eq!(h.memory_writes(), 0, "the displaced L2 line was clean");
    }

    #[test]
    fn l2_miss_counts_memory_read() {
        let mut h = hierarchy();
        h.access(MemoryAccess::load(0), &mut ());
        assert_eq!(h.memory_reads(), 1);
        h.access(MemoryAccess::load(64), &mut ());
        assert_eq!(h.memory_reads(), 2);
    }

    #[test]
    fn l2_observer_sees_only_l2_events() {
        #[derive(Default)]
        struct CountReads(u64);
        impl AccessObserver for CountReads {
            fn line_read(&mut self, _ones: u32) {
                self.0 += 1;
            }
        }
        let mut h = hierarchy();
        let mut obs = CountReads::default();
        h.access(MemoryAccess::load(0), &mut obs); // L2 cold miss: no valid ways yet
        assert_eq!(obs.0, 0);
        h.access(MemoryAccess::load(64), &mut obs); // L2 read of set 1: set empty
        h.access(MemoryAccess::load(2048 * 64), &mut obs); // same L2 set as line 0
        assert_eq!(obs.0, 1, "the resident line 0 was concealed-read");
    }

    #[test]
    fn halves_driven_apart_match_the_hierarchy() {
        #[derive(Default, PartialEq, Debug)]
        struct Keys(Vec<(u64, u64, u64, u64)>);
        impl AccessObserver for Keys {
            const NEEDS_WEIGHTS: bool = false;
            fn demand_read_keyed(&mut self, k: crate::LineKey, _: u32, n: u64) {
                self.0.push((k.tag, k.set, k.version, n));
            }
            fn eviction_keyed(&mut self, k: crate::LineKey, dirty: bool, _: u32, n: u64) {
                self.0
                    .push((k.tag, k.set, k.version, n | u64::from(dirty) << 63));
            }
        }
        // Loads and stores over 96 KB thrash the L1D with dirty victims;
        // fetches over a 40 KB loop exercise the L1I.
        let trace: Vec<MemoryAccess> = (0..20_000u64)
            .map(|i| {
                let a = i.wrapping_mul(0x9e37_79b9) % (96 * 1024);
                match i % 5 {
                    0 => MemoryAccess::store(a),
                    1 => MemoryAccess::fetch((1 << 30) | ((i * 64) % (40 * 1024))),
                    _ => MemoryAccess::load(a),
                }
            })
            .collect();
        let mut whole = hierarchy();
        let mut whole_keys = Keys::default();
        for &a in &trace {
            whole.access(a, &mut whole_keys);
        }

        let (mut front, mut back) = hierarchy().into_parts();
        let mut ops = Vec::new();
        for &a in &trace {
            front.access(a, |op| ops.push(op));
        }
        assert!(ops.iter().any(|op| matches!(op, L2Op::Writeback(_))));
        let mut keys = Keys::default();
        for op in ops {
            back.apply(op, &mut keys);
        }
        let apart = Hierarchy::from_parts(front, back);

        assert_eq!(keys, whole_keys);
        for level in [Level::L1I, Level::L1D, Level::L2] {
            assert_eq!(apart.cache(level).stats(), whole.cache(level).stats());
        }
        assert_eq!(apart.memory_reads(), whole.memory_reads());
        assert_eq!(apart.memory_writes(), whole.memory_writes());
    }

    #[test]
    fn run_consumes_trace() {
        let mut h = hierarchy();
        let trace = (0..100u64).map(|i| MemoryAccess::load(i * 64));
        let n = h.run(trace, &mut ());
        assert_eq!(n, 100);
        assert_eq!(h.l1d().stats().reads, 100);
    }

    #[test]
    fn l2_sees_filtered_traffic_under_locality() {
        let mut h = hierarchy();
        // 16 hot lines hammered repeatedly: only cold misses reach L2.
        for round in 0..50u64 {
            for line in 0..16u64 {
                let _ = round;
                h.access(MemoryAccess::load(line * 64), &mut ());
            }
        }
        assert_eq!(h.l1d().stats().reads, 800);
        assert_eq!(h.l2().stats().reads, 16);
    }
}
