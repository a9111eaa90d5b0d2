//! Single flight in the capture store: threads of one process that miss
//! the same entry at once run one trace pass between them.
//!
//! Its own test binary, with one test, so the global `capture_store.*`
//! counter deltas it asserts are exact.

use reap_core::capture_store::{CaptureKey, CapturePolicy, CaptureStore};
use reap_core::{Experiment, ProtectionScheme, Report};
use reap_trace::SpecWorkload;

fn counter(name: &str) -> u64 {
    reap_obs::global().counter(name).get()
}

/// The full per-scheme failure signature of a report, as raw bits.
fn report_bits(r: &Report) -> [u64; 4] {
    [
        r.expected_failures(ProtectionScheme::Conventional)
            .to_bits(),
        r.expected_failures(ProtectionScheme::Reap).to_bits(),
        r.expected_failures(ProtectionScheme::SerialTagFirst)
            .to_bits(),
        r.writeback_exposure().to_bits(),
    ]
}

#[test]
fn concurrent_misses_on_one_entry_capture_it_once() {
    reap_obs::set_enabled(true);
    let experiment = Experiment::paper_hierarchy()
        .workload(SpecWorkload::Gcc)
        .budgets(1_000, 40_000)
        .seed(17);
    let want = report_bits(&experiment.clone().run().unwrap());
    let dir = std::env::temp_dir().join(format!("reap-single-flight-{}", std::process::id()));
    let store = CaptureStore::new(&dir, CapturePolicy::ReadWrite);
    let key = CaptureKey::new(SpecWorkload::Gcc, 17, experiment.config());

    let (miss0, hit0, write0) = (
        counter("capture_store.miss"),
        counter("capture_store.hit"),
        counter("capture_store.write"),
    );
    let threads = 4;
    let barrier = std::sync::Barrier::new(threads);
    let reports: Vec<[u64; 4]> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    report_bits(&experiment.clone().run_with(Some(&store)).unwrap())
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    for got in reports {
        assert_eq!(got, want);
    }
    // One thread missed and wrote the entry; the rest waited and hit it.
    assert_eq!(counter("capture_store.miss") - miss0, 1);
    assert_eq!(counter("capture_store.write") - write0, 1);
    assert_eq!(counter("capture_store.hit") - hit0, threads as u64 - 1);
    assert!(store.entry_path(&key).exists());
    std::fs::remove_dir_all(dir).ok();
}
