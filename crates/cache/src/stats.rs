//! Per-cache event counters.

use std::fmt;
use std::ops::AddAssign;
use std::sync::{Mutex, PoisonError};

/// Counters accumulated by one [`Cache`](crate::Cache) over a simulation.
///
/// # Examples
///
/// ```
/// use reap_cache::CacheStats;
///
/// let s = CacheStats::default();
/// assert_eq!(s.accesses(), 0);
/// assert_eq!(s.hit_rate(), 0.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read accesses (demand).
    pub reads: u64,
    /// Write accesses (stores and write-backs from above).
    pub writes: u64,
    /// Read hits.
    pub read_hits: u64,
    /// Write hits.
    pub write_hits: u64,
    /// Lines filled on misses.
    pub fills: u64,
    /// Valid lines evicted.
    pub evictions: u64,
    /// Evictions that required a write-back (dirty victim).
    pub dirty_evictions: u64,
    /// Concealed reads imposed on non-requested ways (parallel mode only).
    pub concealed_reads: u64,
    /// Physical line reads (demand + concealed) of valid lines.
    pub line_reads: u64,
    /// Demand-read ECC-check events (read hits).
    pub demand_checks: u64,
    /// Lines checked by explicit scrub sweeps.
    pub scrub_checks: u64,
    /// Full-line write-back installs that missed and allocated without a
    /// backing-store fetch (see `Cache::install_writeback`).
    pub writeback_installs: u64,
}

impl CacheStats {
    /// Total demand accesses.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total hits.
    pub fn hits(&self) -> u64 {
        self.read_hits + self.write_hits
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.accesses() - self.hits()
    }

    /// Hit rate over all accesses (0.0 when no accesses were made).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            return 0.0;
        }
        self.hits() as f64 / self.accesses() as f64
    }

    /// Miss rate over all accesses (0.0 when no accesses were made).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses() == 0 {
            return 0.0;
        }
        1.0 - self.hit_rate()
    }

    /// Mean concealed reads imposed per demand access.
    pub fn concealed_per_access(&self) -> f64 {
        if self.accesses() == 0 {
            return 0.0;
        }
        self.concealed_reads as f64 / self.accesses() as f64
    }

    /// Publishes these counters into `registry` under `cache.{prefix}.*`,
    /// *accumulating* onto whatever is already there — a sweep over many
    /// workloads sums to deterministic totals no matter which parallel
    /// worker emits last. Call once per completed simulation pass.
    ///
    /// The `cache.{prefix}.hit_rate` gauge is recomputed from the
    /// registry's accumulated hit/access counters, so it stays the
    /// aggregate rate (not the last emitter's) under that summation.
    /// Emits are serialized: two passes emitting at once could otherwise
    /// finish in an order where the last `set` used stale totals.
    pub fn emit(&self, registry: &reap_obs::Registry, prefix: &str) {
        static EMIT: Mutex<()> = Mutex::new(());
        let _emitting = EMIT.lock().unwrap_or_else(PoisonError::into_inner);
        let add = |name: &str, v: u64| {
            let c = registry.counter(&format!("cache.{prefix}.{name}"));
            c.add(v);
            c.get()
        };
        let reads = add("reads", self.reads);
        let writes = add("writes", self.writes);
        let read_hits = add("read_hits", self.read_hits);
        let write_hits = add("write_hits", self.write_hits);
        add("misses", self.misses());
        add("fills", self.fills);
        add("evictions", self.evictions);
        add("dirty_evictions", self.dirty_evictions);
        add("concealed_reads", self.concealed_reads);
        add("line_reads", self.line_reads);
        add("demand_checks", self.demand_checks);
        add("scrub_checks", self.scrub_checks);
        add("writeback_installs", self.writeback_installs);
        let accesses = reads + writes;
        let rate = if accesses == 0 {
            0.0
        } else {
            (read_hits + write_hits) as f64 / accesses as f64
        };
        registry
            .gauge(&format!("cache.{prefix}.hit_rate"))
            .set(rate);
    }
}

impl AddAssign for CacheStats {
    fn add_assign(&mut self, rhs: Self) {
        self.reads += rhs.reads;
        self.writes += rhs.writes;
        self.read_hits += rhs.read_hits;
        self.write_hits += rhs.write_hits;
        self.fills += rhs.fills;
        self.evictions += rhs.evictions;
        self.dirty_evictions += rhs.dirty_evictions;
        self.concealed_reads += rhs.concealed_reads;
        self.line_reads += rhs.line_reads;
        self.demand_checks += rhs.demand_checks;
        self.scrub_checks += rhs.scrub_checks;
        self.writeback_installs += rhs.writeback_installs;
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses ({} rd / {} wr), {:.1}% hits, {} fills, {} evictions \
             ({} dirty), {} concealed reads",
            self.accesses(),
            self.reads,
            self.writes,
            100.0 * self.hit_rate(),
            self.fills,
            self.evictions,
            self.dirty_evictions,
            self.concealed_reads
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_emits_leave_the_aggregate_hit_rate() {
        // Two passes emitting into one registry at once: the gauge must
        // end at the rate of the summed counters, whichever finishes
        // last. A stale gauge shows up as one pass's own rate.
        let passes = [
            CacheStats {
                reads: 10,
                read_hits: 1,
                ..CacheStats::default()
            },
            CacheStats {
                reads: 10,
                read_hits: 9,
                ..CacheStats::default()
            },
        ];
        let mut stale = 0;
        for _ in 0..2000 {
            let registry = reap_obs::Registry::new();
            let start = std::sync::Barrier::new(passes.len());
            std::thread::scope(|scope| {
                for pass in &passes {
                    let (registry, start) = (&registry, &start);
                    scope.spawn(move || {
                        start.wait();
                        pass.emit(registry, "l2");
                    });
                }
            });
            let hits = registry.counter("cache.l2.read_hits").get();
            let reads = registry.counter("cache.l2.reads").get();
            assert_eq!((hits, reads), (10, 20));
            if registry.gauge("cache.l2.hit_rate").get() != 0.5 {
                stale += 1;
            }
        }
        assert_eq!(stale, 0, "stale hit-rate gauges in 2000 trials");
    }

    #[test]
    fn derived_rates() {
        let s = CacheStats {
            reads: 80,
            writes: 20,
            read_hits: 60,
            write_hits: 10,
            ..CacheStats::default()
        };
        assert_eq!(s.accesses(), 100);
        assert_eq!(s.hits(), 70);
        assert_eq!(s.misses(), 30);
        assert!((s.hit_rate() - 0.7).abs() < 1e-12);
        assert!((s.miss_rate() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = CacheStats {
            reads: 1,
            concealed_reads: 7,
            ..CacheStats::default()
        };
        let b = CacheStats {
            reads: 2,
            concealed_reads: 3,
            ..CacheStats::default()
        };
        a += b;
        assert_eq!(a.reads, 3);
        assert_eq!(a.concealed_reads, 10);
    }

    #[test]
    fn concealed_per_access() {
        let s = CacheStats {
            reads: 10,
            concealed_reads: 70,
            ..CacheStats::default()
        };
        assert!((s.concealed_per_access() - 7.0).abs() < 1e-12);
        assert_eq!(CacheStats::default().concealed_per_access(), 0.0);
    }

    #[test]
    fn zero_access_rates_are_zero_not_nan() {
        let s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.miss_rate(), 0.0);
        let text = s.to_string();
        assert!(text.contains("0.0% hits"), "got: {text}");
        assert!(!text.contains("NaN"), "got: {text}");
    }

    #[test]
    fn emit_publishes_counters_and_hit_rate() {
        let r = reap_obs::Registry::new();
        let s = CacheStats {
            reads: 80,
            writes: 20,
            read_hits: 60,
            write_hits: 10,
            fills: 30,
            ..CacheStats::default()
        };
        s.emit(&r, "l2");
        s.emit(&r, "l2"); // accumulates: two passes sum, rate stays aggregate
        let snap = r.snapshot();
        let get = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(get("cache.l2.reads"), 160);
        assert_eq!(get("cache.l2.misses"), 60);
        assert_eq!(get("cache.l2.fills"), 60);
        let (_, hr) = snap
            .gauges
            .iter()
            .find(|(n, _)| n == "cache.l2.hit_rate")
            .unwrap();
        assert!((hr - 0.7).abs() < 1e-12);
    }

    #[test]
    fn display_contains_key_numbers() {
        let s = CacheStats {
            reads: 5,
            read_hits: 5,
            ..CacheStats::default()
        };
        let text = s.to_string();
        assert!(text.contains("5 accesses"));
        assert!(text.contains("100.0% hits"));
    }
}
