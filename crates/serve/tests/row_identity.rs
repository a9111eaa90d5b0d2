//! Property: every capture path the daemon can take — cold trace pass,
//! store-populating pass, store hit — yields bit-identical sweep rows
//! for the same `(mode, workload, accesses, seed)` point.
//!
//! Bit-identity is asserted through the checkpoint row codec
//! (`row_to_json` stores every `f64` as its IEEE-754 bit pattern), so
//! string equality is exactly bit equality.

use proptest::prelude::*;
use reap_core::capture_store::{CapturePolicy, CaptureStore};
use reap_core::checkpoint::row_to_json;
use reap_core::{SweepJob, SweepMode, SweepRow};
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
        let job = SweepJob {
            workload: SpecWorkload::ALL[workload_index],
            accesses,
            seed,
            mode,
        };

        // The reference: a cold capture, no store — exactly what an
        // offline `reap sweep` computes.
        let want = encode(&job.rows(None, &mut None).unwrap());

        // On-disk store: first call populates, second call replays the
        // stored capture.
        let dir = scratch("store");
        let store = CaptureStore::new(&dir, CapturePolicy::ReadWrite);
        let populating = encode(&job.rows(Some(&store), &mut None).unwrap());
        let disk_hit = encode(&job.rows(Some(&store), &mut None).unwrap());

        std::fs::remove_dir_all(&dir).ok();

        prop_assert_eq!(&populating, &want, "store-populating pass diverged");
        prop_assert_eq!(&disk_hit, &want, "disk-store hit diverged");
    }
}
