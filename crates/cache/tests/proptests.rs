//! Property-based tests for the cache simulator.

use proptest::prelude::*;
use reap_cache::{AccessMode, AccessObserver, Cache, CacheConfig, Replacement};

fn small_cache(ways: usize, sets_pow: u32, mode: AccessMode, policy: Replacement) -> Cache {
    let sets = 1usize << sets_pow;
    let config = CacheConfig::builder()
        .name("T")
        .size_bytes(sets * ways * 64)
        .associativity(ways)
        .block_bytes(64)
        .access_mode(mode)
        .build()
        .unwrap();
    Cache::new(config, policy)
}

fn policies() -> impl Strategy<Value = Replacement> {
    prop_oneof![
        Just(Replacement::Lru),
        Just(Replacement::TreePlru),
        Just(Replacement::Fifo),
        any::<u64>().prop_map(Replacement::Random),
        Just(Replacement::Srrip),
    ]
}

/// Records every demand-read N and every eviction.
#[derive(Default)]
struct Audit {
    demand_n: Vec<u64>,
    line_reads: u64,
    evictions: u64,
}

impl AccessObserver for Audit {
    fn demand_read(&mut self, _ones: u32, n: u64) {
        self.demand_n.push(n);
    }

    fn line_read(&mut self, _ones: u32) {
        self.line_reads += 1;
    }

    fn eviction(&mut self, _dirty: bool, _ones: u32, _unchecked: u64) {
        self.evictions += 1;
    }
}

proptest! {
    /// An immediate re-read of any address is always a hit, under every
    /// replacement policy and geometry.
    #[test]
    fn reread_is_always_a_hit(
        ways in 1usize..9,
        sets_pow in 0u32..5,
        policy in policies(),
        addr in any::<u32>(),
    ) {
        let mut c = small_cache(ways, sets_pow, AccessMode::Parallel, policy);
        c.read(u64::from(addr), &mut ());
        prop_assert!(c.read(u64::from(addr), &mut ()).hit);
    }

    /// The number of valid lines never exceeds capacity, and fills =
    /// valid lines + evictions.
    #[test]
    fn occupancy_accounting(
        ways in 1usize..5,
        sets_pow in 0u32..4,
        policy in policies(),
        addrs in proptest::collection::vec(any::<u16>(), 1..300),
    ) {
        let mut c = small_cache(ways, sets_pow, AccessMode::Parallel, policy);
        let capacity = c.config().num_lines();
        for &a in &addrs {
            c.read(u64::from(a) * 64, &mut ());
        }
        prop_assert!(c.valid_lines() <= capacity);
        prop_assert_eq!(
            c.stats().fills,
            c.valid_lines() as u64 + c.stats().evictions
        );
    }

    /// In parallel mode, every read access concealed-reads exactly the
    /// *other* valid ways: line_reads = read_hits + concealed_reads, and
    /// concealed reads per access < ways.
    #[test]
    fn concealed_read_arithmetic(
        ways in 1usize..9,
        policy in policies(),
        addrs in proptest::collection::vec(any::<u16>(), 1..400),
    ) {
        let mut c = small_cache(ways, 2, AccessMode::Parallel, policy);
        let mut audit = Audit::default();
        for &a in &addrs {
            c.read(u64::from(a) * 64, &mut audit);
        }
        let s = c.stats();
        prop_assert_eq!(s.line_reads, s.read_hits + s.concealed_reads);
        prop_assert_eq!(audit.line_reads, s.line_reads);
        // A hit conceals at most k-1 ways; a miss conceals up to all k
        // valid ways (the parallel read happens before tags resolve).
        prop_assert!(
            s.concealed_reads
                <= (ways as u64 - 1) * s.read_hits + ways as u64 * (s.reads - s.read_hits)
        );
    }

    /// Serial mode never produces concealed reads for any access pattern.
    #[test]
    fn serial_mode_never_conceals(
        ways in 1usize..9,
        addrs in proptest::collection::vec(any::<u16>(), 1..300),
    ) {
        let mut c = small_cache(ways, 2, AccessMode::Serial, Replacement::Lru);
        let mut audit = Audit::default();
        for &a in &addrs {
            c.read(u64::from(a) * 64, &mut audit);
        }
        prop_assert_eq!(c.stats().concealed_reads, 0);
        prop_assert!(audit.demand_n.iter().all(|&n| n == 1));
    }

    /// Total demand-read N sums to at most the total physical reads of
    /// demand lines: Σ(N) = read_hits + concealed reads that were later
    /// checked ≤ read_hits + concealed_reads.
    #[test]
    fn accumulated_n_is_bounded_by_physical_reads(
        addrs in proptest::collection::vec(any::<u8>(), 1..500),
    ) {
        let mut c = small_cache(4, 2, AccessMode::Parallel, Replacement::Lru);
        let mut audit = Audit::default();
        for &a in &addrs {
            c.read(u64::from(a) * 64, &mut audit);
        }
        let s = c.stats();
        let total_n: u64 = audit.demand_n.iter().sum();
        prop_assert!(total_n <= s.read_hits + s.concealed_reads);
        prop_assert!(audit.demand_n.iter().all(|&n| n >= 1));
    }

    /// Writes always heal: a write followed by a demand read gives N = 1.
    #[test]
    fn write_then_read_has_no_accumulation(
        noise in proptest::collection::vec(any::<u8>(), 0..100),
        target in any::<u8>(),
    ) {
        let mut c = small_cache(4, 2, AccessMode::Parallel, Replacement::Lru);
        for &a in &noise {
            c.read(u64::from(a) * 64, &mut ());
        }
        c.write(u64::from(target) * 64, &mut ());
        let mut audit = Audit::default();
        c.read(u64::from(target) * 64, &mut audit);
        prop_assert_eq!(audit.demand_n.as_slice(), &[1u64]);
    }

    /// LRU with a working set no larger than one set's ways never evicts
    /// on re-traversal (classic LRU stack property).
    #[test]
    fn lru_retains_fitting_working_set(rounds in 1usize..10) {
        let ways = 4;
        let mut c = small_cache(ways, 0, AccessMode::Parallel, Replacement::Lru);
        for _ in 0..rounds {
            for line in 0..ways as u64 {
                c.read(line * 64, &mut ());
            }
        }
        prop_assert_eq!(c.stats().evictions, 0);
        prop_assert_eq!(c.stats().read_hits, (rounds as u64 - 1) * ways as u64);
    }
}

proptest! {
    /// The multi-width sampler is defined as `sample_ones` evaluated at
    /// each width; the shared-prefix stream walk must be invisible.
    #[test]
    fn multi_width_sampling_matches_single_width(
        seed in any::<u64>(),
        tag in any::<u64>(),
        set in any::<u64>(),
        version in any::<u64>(),
        raw in proptest::collection::vec(0usize..600, 1..6),
    ) {
        let mut widths = raw;
        widths.sort_unstable();
        let mut got = vec![0u32; widths.len()];
        reap_cache::sample_ones_multi(seed, tag, set, version, &widths, &mut got);
        for (&w, &ones) in widths.iter().zip(&got) {
            prop_assert_eq!(ones, reap_cache::sample_ones(seed, tag, set, version, w));
        }
    }

    /// The block sampler is defined as `sample_ones` evaluated per
    /// (record, width); the eight-chain interleave must be invisible.
    /// Key counts (1–20) straddle the 8-record lockstep boundary twice,
    /// so blocks with no full row, one or two rows, and every tail
    /// length are exercised.
    #[test]
    fn block_sampling_matches_single_width(
        seed in any::<u64>(),
        keys in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..21),
        raw in proptest::collection::vec(0usize..600, 1..6),
    ) {
        let mut widths = raw;
        widths.sort_unstable();
        let nw = widths.len();
        let mut got = vec![0u32; keys.len() * nw];
        reap_cache::sample_ones_multi_batch(seed, &keys, &widths, &mut got);
        for (r, &(tag, set, version)) in keys.iter().enumerate() {
            for (i, &w) in widths.iter().enumerate() {
                prop_assert_eq!(
                    got[r * nw + i],
                    reap_cache::sample_ones(seed, tag, set, version, w),
                    "record {} width {}", r, w
                );
            }
        }
    }
}

proptest! {
    /// Shift-and-mask indexing is the division arithmetic it replaces,
    /// and splitting then joining keeps the line address, for any block
    /// size, any power-of-two set count and any way count, including
    /// ones that are not powers of two.
    #[test]
    fn address_split_matches_division(
        block_pow in 0u32..=12,
        sets_pow in 0u32..=12,
        ways in prop_oneof![Just(12usize), Just(24), 1usize..=16],
        address in any::<u64>(),
    ) {
        let (block, sets) = (1usize << block_pow, 1usize << sets_pow);
        let config = CacheConfig::builder()
            .name("T")
            .size_bytes(sets * ways * block)
            .associativity(ways)
            .block_bytes(block)
            .build()
            .unwrap();
        prop_assert_eq!(config.num_sets(), sets);
        let (block, sets) = (block as u64, sets as u64);
        let line = address / block;
        let (tag, set) = config.split_address(address);
        prop_assert_eq!((tag, set as u64), (line / sets, line % sets));
        let joined = config.join_address(tag, set);
        prop_assert_eq!(joined, (tag * sets + set as u64) * block);
        prop_assert_eq!(joined, address - address % block);
        prop_assert_eq!(config.split_address(joined), (tag, set));
    }

    /// With 1-byte blocks in a single set the tag is the whole address,
    /// so the all-ones tag that marks an empty way is also a real one.
    /// Driven over the top eight addresses, the cache must still match a
    /// plain LRU list: no empty way passes for the line at `u64::MAX`.
    #[test]
    fn empty_way_marker_never_aliases_a_real_tag(
        ways in 1usize..=4,
        serial in any::<bool>(),
        ops in proptest::collection::vec(((u64::MAX - 7)..=u64::MAX, any::<bool>()), 1..40),
    ) {
        let mode = if serial { AccessMode::Serial } else { AccessMode::Parallel };
        let config = CacheConfig::builder()
            .name("T")
            .size_bytes(ways)
            .associativity(ways)
            .block_bytes(1)
            .access_mode(mode)
            .build()
            .unwrap();
        let mut c = Cache::new(config, Replacement::Lru);
        prop_assert!(!c.contains(u64::MAX), "an empty cache holds nothing");
        // Most recent last.
        let mut lru: Vec<u64> = Vec::new();
        for (address, write) in ops {
            let r = if write { c.write(address, &mut ()) } else { c.read(address, &mut ()) };
            let held = lru.iter().position(|&a| a == address);
            prop_assert_eq!(r.hit, held.is_some(), "address {:#x}", address);
            let evicted = match held {
                Some(i) => {
                    lru.remove(i);
                    None
                }
                None if lru.len() == ways => Some(lru.remove(0)),
                None => None,
            };
            lru.push(address);
            prop_assert_eq!(r.evicted.map(|e| e.address), evicted);
            prop_assert_eq!(c.valid_lines(), lru.len());
            for a in (u64::MAX - 7)..=u64::MAX {
                prop_assert_eq!(c.contains(a), lru.contains(&a), "contains {:#x}", a);
            }
        }
    }
}
