//! A bounded, single-flight, in-memory LRU of exposure captures.
//!
//! The on-disk [`reap_core::CaptureStore`] already amortizes trace
//! passes across processes; the hot cache sits above it and amortizes
//! the *decode* across concurrent jobs inside the daemon. Keys are the
//! capture store's content fingerprint
//! ([`reap_core::capture_store::CaptureKey::fingerprint`]), so the two
//! layers agree about identity by construction.
//!
//! Two disciplines keep it daemon-safe:
//!
//! * **bounded**: at most `capacity` entries, least-recently-used
//!   evicted first — a long-lived daemon must not grow without bound;
//! * **single-flight**: when several jobs ask for the same missing key
//!   at once, exactly one runs the producer; the rest block until the
//!   value lands and then share it. A failed producer wakes the
//!   waiters to retry rather than caching the failure.
//!
//! The mechanics are value-agnostic ([`HotCache`]); the daemon uses the
//! [`HotCaptureCache`] instantiation over [`reap_core::ExposureCapture`].
//!
//! Telemetry (when enabled): `serve.cache.{hit,miss,coalesced,evict}`
//! counters and a `serve.cache.entries` gauge.

use reap_core::ExposureCapture;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// Bump a `serve.*` counter when telemetry is enabled.
pub(crate) fn bump(name: &str) {
    if reap_obs::enabled() {
        reap_obs::global().counter(name).add(1);
    }
}

enum Slot<V> {
    /// A producer is computing this entry; waiters sleep on the condvar.
    InFlight,
    /// The value is resident; `last_used` orders eviction.
    Ready { value: Arc<V>, last_used: u64 },
}

struct Inner<V> {
    map: HashMap<u64, Slot<V>>,
    /// Logical clock for LRU ordering (bumped on every touch).
    tick: u64,
}

/// A bounded single-flight LRU keyed by `u64` fingerprints. See the
/// module docs.
pub struct HotCache<V> {
    inner: Mutex<Inner<V>>,
    cond: Condvar,
    capacity: usize,
}

/// The daemon's instantiation: capture-store fingerprints to shared
/// exposure captures.
pub type HotCaptureCache = HotCache<ExposureCapture>;

impl<V> HotCache<V> {
    /// Creates a cache holding at most `capacity` values. A capacity of
    /// 0 disables caching: every call runs its own producer.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
            }),
            cond: Condvar::new(),
            capacity,
        }
    }

    /// Resident entries (ready, not in-flight).
    pub fn len(&self) -> usize {
        let inner = self.inner.lock().expect("cache poisoned");
        inner
            .map
            .values()
            .filter(|s| matches!(s, Slot::Ready { .. }))
            .count()
    }

    /// Whether the cache holds no resident entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the value under `fingerprint`, producing it with
    /// `produce` on a miss. Concurrent callers for the same missing key
    /// coalesce onto one producer run.
    ///
    /// # Errors
    ///
    /// Propagates the producer's error to the caller that ran it;
    /// coalesced waiters retry production themselves (one becomes the
    /// next producer) rather than inheriting a stranger's failure.
    pub fn get_or_capture<E>(
        &self,
        fingerprint: u64,
        produce: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        if self.capacity == 0 {
            bump("serve.cache.miss");
            return produce().map(Arc::new);
        }
        let mut inner = self.inner.lock().expect("cache poisoned");
        loop {
            match inner.map.get(&fingerprint) {
                Some(Slot::Ready { value, .. }) => {
                    let value = Arc::clone(value);
                    inner.tick += 1;
                    let tick = inner.tick;
                    if let Some(Slot::Ready { last_used, .. }) = inner.map.get_mut(&fingerprint) {
                        *last_used = tick;
                    }
                    bump("serve.cache.hit");
                    return Ok(value);
                }
                Some(Slot::InFlight) => {
                    bump("serve.cache.coalesced");
                    inner = self.cond.wait(inner).expect("cache poisoned");
                    // Loop: the slot is now Ready (use it), gone (the
                    // producer failed — become the producer), or
                    // InFlight again (another waiter beat us to it).
                }
                None => break,
            }
        }
        // Miss: this caller is the producer. Drop the lock while the
        // (expensive) capture runs.
        inner.map.insert(fingerprint, Slot::InFlight);
        drop(inner);
        bump("serve.cache.miss");
        let produced = produce();
        let mut inner = self.inner.lock().expect("cache poisoned");
        match produced {
            Ok(value) => {
                let value = Arc::new(value);
                inner.tick += 1;
                let tick = inner.tick;
                inner.map.insert(
                    fingerprint,
                    Slot::Ready {
                        value: Arc::clone(&value),
                        last_used: tick,
                    },
                );
                self.evict_over_capacity(&mut inner);
                self.publish_len(&inner);
                drop(inner);
                self.cond.notify_all();
                Ok(value)
            }
            Err(e) => {
                inner.map.remove(&fingerprint);
                drop(inner);
                // Wake everyone: one waiter becomes the new producer.
                self.cond.notify_all();
                Err(e)
            }
        }
    }

    /// Drops the entry under `fingerprint`, if resident (used when a
    /// cached store-backed capture turns out to have rotted on disk).
    pub fn evict(&self, fingerprint: u64) {
        let mut inner = self.inner.lock().expect("cache poisoned");
        if matches!(inner.map.get(&fingerprint), Some(Slot::Ready { .. })) {
            inner.map.remove(&fingerprint);
            bump("serve.cache.evict");
            self.publish_len(&inner);
        }
    }

    /// Evicts least-recently-used Ready entries until within capacity.
    /// In-flight slots are never evicted (their producers own them).
    fn evict_over_capacity(&self, inner: &mut Inner<V>) {
        loop {
            let resident = inner
                .map
                .values()
                .filter(|s| matches!(s, Slot::Ready { .. }))
                .count();
            if resident <= self.capacity {
                return;
            }
            let victim = inner
                .map
                .iter()
                .filter_map(|(k, s)| match s {
                    Slot::Ready { last_used, .. } => Some((*last_used, *k)),
                    Slot::InFlight => None,
                })
                .min()
                .map(|(_, k)| k);
            if let Some(key) = victim {
                inner.map.remove(&key);
                bump("serve.cache.evict");
            } else {
                return;
            }
        }
    }

    fn publish_len(&self, inner: &Inner<V>) {
        if reap_obs::enabled() {
            let resident = inner
                .map
                .values()
                .filter(|s| matches!(s, Slot::Ready { .. }))
                .count();
            reap_obs::global()
                .gauge("serve.cache.entries")
                .set(resident as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn hit_returns_the_same_arc() {
        let cache: HotCache<String> = HotCache::new(4);
        let a = cache.get_or_capture::<()>(1, || Ok("v".into())).unwrap();
        let b = cache
            .get_or_capture::<()>(1, || panic!("must not produce on a hit"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_eviction_prefers_the_coldest_entry() {
        let cache: HotCache<u64> = HotCache::new(2);
        cache.get_or_capture::<()>(1, || Ok(1)).unwrap();
        cache.get_or_capture::<()>(2, || Ok(2)).unwrap();
        // Touch 1 so 2 becomes the LRU victim.
        cache.get_or_capture::<()>(1, || Ok(1)).unwrap();
        cache.get_or_capture::<()>(3, || Ok(3)).unwrap();
        assert_eq!(cache.len(), 2);
        let calls = AtomicUsize::new(0);
        cache
            .get_or_capture::<()>(1, || {
                calls.fetch_add(1, Ordering::Relaxed);
                Ok(1)
            })
            .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 0, "1 stayed resident");
        cache
            .get_or_capture::<()>(2, || {
                calls.fetch_add(1, Ordering::Relaxed);
                Ok(2)
            })
            .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 1, "2 was evicted");
    }

    #[test]
    fn explicit_evict_drops_only_the_named_entry() {
        let cache: HotCache<u64> = HotCache::new(4);
        cache.get_or_capture::<()>(1, || Ok(1)).unwrap();
        cache.get_or_capture::<()>(2, || Ok(2)).unwrap();
        cache.evict(1);
        cache.evict(99); // absent: no-op
        assert_eq!(cache.len(), 1);
        let calls = AtomicUsize::new(0);
        cache
            .get_or_capture::<()>(1, || {
                calls.fetch_add(1, Ordering::Relaxed);
                Ok(1)
            })
            .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache: HotCache<u64> = HotCache::new(0);
        let calls = AtomicUsize::new(0);
        for _ in 0..3 {
            cache
                .get_or_capture::<()>(7, || {
                    calls.fetch_add(1, Ordering::Relaxed);
                    Ok(1)
                })
                .unwrap();
        }
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        assert!(cache.is_empty());
    }

    #[test]
    fn concurrent_misses_coalesce_onto_one_producer() {
        let cache: Arc<HotCache<u64>> = Arc::new(HotCache::new(4));
        let produced = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let produced = Arc::clone(&produced);
            handles.push(std::thread::spawn(move || {
                cache
                    .get_or_capture::<()>(42, || {
                        produced.fetch_add(1, Ordering::Relaxed);
                        // Hold the flight long enough for others to pile up.
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        Ok(5)
                    })
                    .unwrap()
            }));
        }
        let values: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(produced.load(Ordering::Relaxed), 1, "single flight");
        for v in &values[1..] {
            assert!(Arc::ptr_eq(&values[0], v), "all callers share one Arc");
        }
    }

    #[test]
    fn failed_producer_releases_waiters_to_retry() {
        let cache: Arc<HotCache<u64>> = Arc::new(HotCache::new(4));
        let attempts = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let cache = Arc::clone(&cache);
            let attempts = Arc::clone(&attempts);
            handles.push(std::thread::spawn(move || {
                cache.get_or_capture(9, || {
                    let n = attempts.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    // First producer fails; a released waiter succeeds.
                    if n == 0 {
                        Err("boom")
                    } else {
                        Ok(2)
                    }
                })
            }));
        }
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let failures = results.iter().filter(|r| r.is_err()).count();
        let successes = results.iter().filter(|r| r.is_ok()).count();
        assert_eq!(failures, 1, "only the failing producer sees the error");
        assert_eq!(successes, 3);
        assert_eq!(cache.len(), 1);
    }
}
