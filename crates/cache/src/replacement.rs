//! Pluggable replacement policies.
//!
//! Policies track recency/insertion state per set and pick a victim way
//! when a set is full. The cache itself prefers invalid ways, so
//! [`ReplacementPolicy::victim`] is only consulted for full sets.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Policy selector; [`build`](Replacement::build) instantiates the state
/// for a given geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replacement {
    /// True least-recently-used (per-set recency stack).
    Lru,
    /// Tree pseudo-LRU (the common hardware approximation).
    TreePlru,
    /// First-in-first-out (insertion order).
    Fifo,
    /// Uniform random victim from the given seed.
    Random(u64),
    /// Static re-reference interval prediction with 2-bit RRPV counters.
    Srrip,
    /// Least Error Rate (Monazzah et al., the paper's ref ref. 13 of the paper): victimize
    /// the way with the most accumulated unchecked reads, bounding the
    /// error probability of resident lines at some hit-rate cost.
    LeastErrorRate,
}

impl Replacement {
    /// Instantiates the policy state for `sets × ways` as a trait object.
    ///
    /// Kept for callers that want dynamic dispatch over heterogeneous
    /// policies; the cache's hot path uses
    /// [`build_state`](Replacement::build_state) instead.
    ///
    /// # Panics
    ///
    /// Panics if `sets == 0` or `ways == 0`.
    pub fn build(self, sets: usize, ways: usize) -> Box<dyn ReplacementPolicy> {
        Box::new(self.build_state(sets, ways))
    }

    /// Instantiates the policy state for `sets × ways` with static (enum)
    /// dispatch — no per-call vtable indirection, and the policy methods
    /// inline into the cache's access loop.
    ///
    /// # Panics
    ///
    /// Panics if `sets == 0` or `ways == 0`.
    pub fn build_state(self, sets: usize, ways: usize) -> PolicyState {
        assert!(sets > 0 && ways > 0, "geometry must be non-empty");
        let inner = match self {
            Replacement::Lru => PolicyInner::Lru(Lru::new(sets, ways)),
            Replacement::TreePlru => PolicyInner::TreePlru(TreePlru::new(sets, ways)),
            Replacement::Fifo => PolicyInner::Fifo(Fifo::new(sets, ways)),
            Replacement::Random(seed) => PolicyInner::Random(RandomVictim::new(sets, ways, seed)),
            Replacement::Srrip => PolicyInner::Srrip(Srrip::new(sets, ways)),
            Replacement::LeastErrorRate => {
                PolicyInner::LeastErrorRate(LeastErrorRate::new(sets, ways))
            }
        };
        PolicyState { inner }
    }
}

impl fmt::Display for Replacement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Replacement::Lru => f.write_str("LRU"),
            Replacement::TreePlru => f.write_str("tree-PLRU"),
            Replacement::Fifo => f.write_str("FIFO"),
            Replacement::Random(_) => f.write_str("random"),
            Replacement::Srrip => f.write_str("SRRIP"),
            Replacement::LeastErrorRate => f.write_str("LER"),
        }
    }
}

/// Per-set replacement state machine.
pub trait ReplacementPolicy: fmt::Debug + Send {
    /// Records a hit on `way` of `set`.
    fn on_access(&mut self, set: usize, way: usize);

    /// Records a fill into `way` of `set`.
    fn on_fill(&mut self, set: usize, way: usize);

    /// Records a concealed (parallel-path) read of `way` of `set`.
    /// Recency policies ignore this; reliability-aware policies (LER) use
    /// it to track accumulated disturbance exposure.
    fn on_concealed_read(&mut self, set: usize, way: usize) {
        let _ = (set, way);
    }

    /// Picks the victim way in a full `set`.
    fn victim(&mut self, set: usize) -> usize;
}

/// Instantiated replacement-policy state with enum (static) dispatch.
///
/// Built by [`Replacement::build_state`]; implements
/// [`ReplacementPolicy`] by matching on the concrete policy, which lets
/// the compiler inline the per-access bookkeeping the cache calls once or
/// more per simulated access.
#[derive(Debug)]
pub struct PolicyState {
    inner: PolicyInner,
}

#[derive(Debug)]
enum PolicyInner {
    Lru(Lru),
    TreePlru(TreePlru),
    Fifo(Fifo),
    Random(RandomVictim),
    Srrip(Srrip),
    LeastErrorRate(LeastErrorRate),
}

impl PolicyState {
    /// [`on_concealed_read`](ReplacementPolicy::on_concealed_read) for
    /// every way in `0..valid` of `set` but `requested`, in way order. It
    /// dispatches once per access rather than once per way, so a policy
    /// that ignores concealed reads does no per-way work for them.
    #[inline]
    pub(crate) fn on_concealed_reads(
        &mut self,
        set: usize,
        valid: usize,
        requested: Option<usize>,
    ) {
        fn each<P: ReplacementPolicy>(
            p: &mut P,
            set: usize,
            valid: usize,
            requested: Option<usize>,
        ) {
            for way in (0..valid).filter(|&w| Some(w) != requested) {
                p.on_concealed_read(set, way);
            }
        }
        match &mut self.inner {
            PolicyInner::Lru(p) => each(p, set, valid, requested),
            PolicyInner::TreePlru(p) => each(p, set, valid, requested),
            PolicyInner::Fifo(p) => each(p, set, valid, requested),
            PolicyInner::Random(p) => each(p, set, valid, requested),
            PolicyInner::Srrip(p) => each(p, set, valid, requested),
            PolicyInner::LeastErrorRate(p) => each(p, set, valid, requested),
        }
    }
}

impl ReplacementPolicy for PolicyState {
    fn on_access(&mut self, set: usize, way: usize) {
        match &mut self.inner {
            PolicyInner::Lru(p) => p.on_access(set, way),
            PolicyInner::TreePlru(p) => p.on_access(set, way),
            PolicyInner::Fifo(p) => p.on_access(set, way),
            PolicyInner::Random(p) => p.on_access(set, way),
            PolicyInner::Srrip(p) => p.on_access(set, way),
            PolicyInner::LeastErrorRate(p) => p.on_access(set, way),
        }
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        match &mut self.inner {
            PolicyInner::Lru(p) => p.on_fill(set, way),
            PolicyInner::TreePlru(p) => p.on_fill(set, way),
            PolicyInner::Fifo(p) => p.on_fill(set, way),
            PolicyInner::Random(p) => p.on_fill(set, way),
            PolicyInner::Srrip(p) => p.on_fill(set, way),
            PolicyInner::LeastErrorRate(p) => p.on_fill(set, way),
        }
    }

    fn on_concealed_read(&mut self, set: usize, way: usize) {
        match &mut self.inner {
            PolicyInner::Lru(p) => p.on_concealed_read(set, way),
            PolicyInner::TreePlru(p) => p.on_concealed_read(set, way),
            PolicyInner::Fifo(p) => p.on_concealed_read(set, way),
            PolicyInner::Random(p) => p.on_concealed_read(set, way),
            PolicyInner::Srrip(p) => p.on_concealed_read(set, way),
            PolicyInner::LeastErrorRate(p) => p.on_concealed_read(set, way),
        }
    }

    fn victim(&mut self, set: usize) -> usize {
        match &mut self.inner {
            PolicyInner::Lru(p) => p.victim(set),
            PolicyInner::TreePlru(p) => p.victim(set),
            PolicyInner::Fifo(p) => p.victim(set),
            PolicyInner::Random(p) => p.victim(set),
            PolicyInner::Srrip(p) => p.victim(set),
            PolicyInner::LeastErrorRate(p) => p.victim(set),
        }
    }
}

/// True LRU via per-set monotone timestamps.
#[derive(Debug)]
struct Lru {
    ways: usize,
    stamp: u64,
    last_use: Vec<u64>,
}

impl Lru {
    fn new(sets: usize, ways: usize) -> Self {
        Self {
            ways,
            stamp: 0,
            last_use: vec![0; sets * ways],
        }
    }

    fn touch(&mut self, set: usize, way: usize) {
        self.stamp += 1;
        self.last_use[set * self.ways + way] = self.stamp;
    }
}

impl ReplacementPolicy for Lru {
    fn on_access(&mut self, set: usize, way: usize) {
        self.touch(set, way);
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        self.touch(set, way);
    }

    fn victim(&mut self, set: usize) -> usize {
        let base = set * self.ways;
        (0..self.ways)
            .min_by_key(|&w| self.last_use[base + w])
            .expect("ways > 0")
    }
}

/// Tree pseudo-LRU over a power-of-two (or padded) way count.
#[derive(Debug)]
struct TreePlru {
    ways: usize,
    nodes: usize,
    bits: Vec<bool>,
}

impl TreePlru {
    fn new(sets: usize, ways: usize) -> Self {
        let padded = ways.next_power_of_two();
        let nodes = padded.max(2) - 1;
        Self {
            ways,
            nodes,
            bits: vec![false; sets * nodes],
        }
    }

    fn promote(&mut self, set: usize, way: usize) {
        let padded = (self.nodes + 1).max(2);
        let base = set * self.nodes;
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = padded;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let go_right = way >= mid;
            // Point away from the accessed half.
            self.bits[base + node] = !go_right;
            node = 2 * node + if go_right { 2 } else { 1 };
            if go_right {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }
}

impl ReplacementPolicy for TreePlru {
    fn on_access(&mut self, set: usize, way: usize) {
        self.promote(set, way);
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        self.promote(set, way);
    }

    fn victim(&mut self, set: usize) -> usize {
        let padded = (self.nodes + 1).max(2);
        let base = set * self.nodes;
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = padded;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let go_right = self.bits[base + node];
            node = 2 * node + if go_right { 2 } else { 1 };
            if go_right {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        // Clamp into the real way range for padded (non-power-of-two) ways.
        lo.min(self.ways - 1)
    }
}

/// FIFO: victim is the oldest fill.
#[derive(Debug)]
struct Fifo {
    ways: usize,
    next: Vec<usize>,
}

impl Fifo {
    fn new(sets: usize, ways: usize) -> Self {
        Self {
            ways,
            next: vec![0; sets],
        }
    }
}

impl ReplacementPolicy for Fifo {
    fn on_access(&mut self, _set: usize, _way: usize) {}

    fn on_fill(&mut self, _set: usize, _way: usize) {}

    fn victim(&mut self, set: usize) -> usize {
        let v = self.next[set];
        self.next[set] = (v + 1) % self.ways;
        v
    }
}

/// Uniform random victim.
#[derive(Debug)]
struct RandomVictim {
    ways: usize,
    rng: StdRng,
}

impl RandomVictim {
    fn new(_sets: usize, ways: usize, seed: u64) -> Self {
        Self {
            ways,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl ReplacementPolicy for RandomVictim {
    fn on_access(&mut self, _set: usize, _way: usize) {}

    fn on_fill(&mut self, _set: usize, _way: usize) {}

    fn victim(&mut self, set: usize) -> usize {
        let _ = set;
        self.rng.gen_range(0..self.ways)
    }
}

/// SRRIP-HP with 2-bit re-reference prediction values.
#[derive(Debug)]
struct Srrip {
    ways: usize,
    rrpv: Vec<u8>,
}

const RRPV_MAX: u8 = 3;

impl Srrip {
    fn new(sets: usize, ways: usize) -> Self {
        Self {
            ways,
            rrpv: vec![RRPV_MAX; sets * ways],
        }
    }
}

impl ReplacementPolicy for Srrip {
    fn on_access(&mut self, set: usize, way: usize) {
        self.rrpv[set * self.ways + way] = 0; // hit promotion
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        self.rrpv[set * self.ways + way] = RRPV_MAX - 1; // long re-reference
    }

    fn victim(&mut self, set: usize) -> usize {
        let base = set * self.ways;
        loop {
            if let Some(w) = (0..self.ways).find(|&w| self.rrpv[base + w] == RRPV_MAX) {
                return w;
            }
            for w in 0..self.ways {
                self.rrpv[base + w] += 1;
            }
        }
    }
}

/// Least Error Rate: victim is the way with the most unchecked reads.
#[derive(Debug)]
struct LeastErrorRate {
    ways: usize,
    unchecked: Vec<u64>,
}

impl LeastErrorRate {
    fn new(sets: usize, ways: usize) -> Self {
        Self {
            ways,
            unchecked: vec![0; sets * ways],
        }
    }
}

impl ReplacementPolicy for LeastErrorRate {
    fn on_access(&mut self, set: usize, way: usize) {
        // A demand read checks (and heals) the line.
        self.unchecked[set * self.ways + way] = 0;
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        self.unchecked[set * self.ways + way] = 0;
    }

    fn on_concealed_read(&mut self, set: usize, way: usize) {
        self.unchecked[set * self.ways + way] += 1;
    }

    fn victim(&mut self, set: usize) -> usize {
        let base = set * self.ways;
        (0..self.ways)
            .max_by_key(|&w| self.unchecked[base + w])
            .expect("ways > 0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_victimizes_least_recent() {
        let mut p = Replacement::Lru.build(1, 4);
        for w in 0..4 {
            p.on_fill(0, w);
        }
        p.on_access(0, 0); // 1 is now the least recent
        assert_eq!(p.victim(0), 1);
        p.on_access(0, 1);
        p.on_access(0, 2);
        p.on_access(0, 3);
        assert_eq!(p.victim(0), 0);
    }

    #[test]
    fn lru_state_is_per_set() {
        let mut p = Replacement::Lru.build(2, 2);
        p.on_fill(0, 0);
        p.on_fill(0, 1);
        p.on_fill(1, 1);
        p.on_fill(1, 0);
        assert_eq!(p.victim(0), 0);
        assert_eq!(p.victim(1), 1);
    }

    #[test]
    fn fifo_cycles_in_insertion_order() {
        let mut p = Replacement::Fifo.build(1, 3);
        assert_eq!(p.victim(0), 0);
        assert_eq!(p.victim(0), 1);
        assert_eq!(p.victim(0), 2);
        assert_eq!(p.victim(0), 0);
    }

    #[test]
    fn fifo_ignores_accesses() {
        let mut p = Replacement::Fifo.build(1, 2);
        p.on_access(0, 1);
        assert_eq!(p.victim(0), 0);
    }

    #[test]
    fn tree_plru_avoids_most_recent() {
        let mut p = Replacement::TreePlru.build(1, 8);
        for w in 0..8 {
            p.on_fill(0, w);
        }
        p.on_access(0, 5);
        let v = p.victim(0);
        assert_ne!(v, 5, "PLRU must not victimize the most recently used way");
        assert!(v < 8);
    }

    #[test]
    fn tree_plru_victim_in_range_for_odd_ways() {
        let mut p = Replacement::TreePlru.build(4, 6);
        for s in 0..4 {
            for w in 0..6 {
                p.on_fill(s, w);
            }
            assert!(p.victim(s) < 6);
        }
    }

    #[test]
    fn random_victims_cover_all_ways() {
        let mut p = Replacement::Random(7).build(1, 8);
        let seen: std::collections::HashSet<usize> = (0..200).map(|_| p.victim(0)).collect();
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn srrip_victimizes_distant_rereference() {
        let mut p = Replacement::Srrip.build(1, 4);
        for w in 0..4 {
            p.on_fill(0, w);
        }
        p.on_access(0, 2); // RRPV 0
        let v = p.victim(0);
        assert_ne!(v, 2);
    }

    #[test]
    fn srrip_ages_until_a_victim_exists() {
        let mut p = Replacement::Srrip.build(1, 2);
        p.on_fill(0, 0);
        p.on_access(0, 0);
        p.on_fill(0, 1);
        p.on_access(0, 1);
        // All RRPVs are 0; aging must still terminate with a victim.
        let v = p.victim(0);
        assert!(v < 2);
    }

    #[test]
    fn ler_victimizes_most_exposed_way() {
        let mut p = Replacement::LeastErrorRate.build(1, 4);
        for w in 0..4 {
            p.on_fill(0, w);
        }
        for _ in 0..5 {
            p.on_concealed_read(0, 2);
        }
        p.on_concealed_read(0, 1);
        assert_eq!(p.victim(0), 2);
    }

    #[test]
    fn ler_demand_access_heals_exposure() {
        let mut p = Replacement::LeastErrorRate.build(1, 2);
        p.on_fill(0, 0);
        p.on_fill(0, 1);
        for _ in 0..3 {
            p.on_concealed_read(0, 0);
        }
        p.on_concealed_read(0, 1);
        p.on_access(0, 0); // checked => exposure reset
        assert_eq!(p.victim(0), 1);
    }

    #[test]
    fn recency_policies_ignore_concealed_reads() {
        let mut p = Replacement::Lru.build(1, 2);
        p.on_fill(0, 0);
        p.on_fill(0, 1);
        for _ in 0..10 {
            p.on_concealed_read(0, 0);
        }
        assert_eq!(p.victim(0), 0, "LRU order unchanged by concealed reads");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_geometry_rejected() {
        let _ = Replacement::Lru.build(0, 4);
    }

    #[test]
    fn display_names() {
        assert_eq!(Replacement::Lru.to_string(), "LRU");
        assert_eq!(Replacement::Srrip.to_string(), "SRRIP");
        assert_eq!(Replacement::Random(1).to_string(), "random");
    }
}
