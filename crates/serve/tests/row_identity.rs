//! Property: every capture path the daemon can take — cold trace pass,
//! on-disk capture store, hot in-memory cache — yields bit-identical
//! sweep rows for the same `(mode, workload, accesses, seed)` point.
//!
//! Bit-identity is asserted through the checkpoint row codec
//! (`row_to_json` stores every `f64` as its IEEE-754 bit pattern), so
//! string equality is exactly bit equality.

use proptest::prelude::*;
use reap_core::capture_store::{CapturePolicy, CaptureStore};
use reap_core::checkpoint::row_to_json;
use reap_core::{SweepMode, SweepRow};
use reap_serve::{compute_rows, HotCaptureCache, JobSpec};
use reap_trace::SpecWorkload;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "reap-serve-prop-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

fn any_mode() -> impl Strategy<Value = SweepMode> {
    prop_oneof![Just(SweepMode::Standard), Just(SweepMode::EccSweep)]
}

fn encode(rows: &[SweepRow]) -> String {
    rows.iter().map(row_to_json).collect::<Vec<_>>().join("\n")
}

proptest! {
    #[test]
    fn all_capture_paths_yield_bit_identical_rows(
        mode in any_mode(),
        workload_index in 0usize..SpecWorkload::ALL.len(),
        accesses in 500u64..2500,
        seed in 0u64..512,
    ) {
        let workload = SpecWorkload::ALL[workload_index];
        let spec = JobSpec {
            mode,
            accesses,
            seed,
            max_retries: None,
            deadline_ms: None,
        };

        // The reference: a cold capture, no store, no cache — exactly
        // what an offline `reap sweep` computes.
        let want = encode(&compute_rows(workload, &spec, None, None, &mut None).unwrap());

        // On-disk store: first call populates, second call replays the
        // stored capture.
        let dir = scratch("store");
        let store = CaptureStore::new(&dir, CapturePolicy::ReadWrite);
        let populating = encode(&compute_rows(workload, &spec, None, Some(&store), &mut None).unwrap());
        let disk_hit = encode(&compute_rows(workload, &spec, None, Some(&store), &mut None).unwrap());

        // Hot cache: first call fills it (here via the disk store),
        // second call replays the resident capture with no store at all.
        let cache = HotCaptureCache::new(2);
        let cache_cold = encode(&compute_rows(workload, &spec, Some(&cache), Some(&store), &mut None).unwrap());
        let cache_hot = encode(&compute_rows(workload, &spec, Some(&cache), None, &mut None).unwrap());
        prop_assert!(!cache.is_empty(), "capture must be resident after a miss");

        std::fs::remove_dir_all(&dir).ok();

        prop_assert_eq!(&populating, &want, "store-populating pass diverged");
        prop_assert_eq!(&disk_hit, &want, "disk-store hit diverged");
        prop_assert_eq!(&cache_cold, &want, "cache-filling pass diverged");
        prop_assert_eq!(&cache_hot, &want, "hot-cache hit diverged");
    }
}
