//! Recovery from a rotted capture store: a corrupt entry costs a
//! recapture, never a wrong result, and the recapture heals the entry.
//!
//! Runs in its own test binary because it enables the global telemetry
//! registry and asserts exact `capture_store.*` counter deltas; its tests
//! hold [`serial`], so no other test moves the counters meanwhile.

use proptest::prelude::*;
use reap_core::capture_store::{write_capture_v2, CaptureKey, CapturePolicy, CaptureStore};
use reap_core::{EccStrength, Experiment, ProtectionScheme, SimulationConfig, Simulator};
use reap_trace::SpecWorkload;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Bytes of a `reap-capture/2` entry header: the fixed fields and their
/// checksum. Damage inside it is caught when the entry loads; damage past
/// it when replay reads the frame it hits.
const ENTRY_HEADER_BYTES: u64 = 353;

/// Serializes the tests of this binary: they share the global registry,
/// and exact counter deltas hold only while no other test runs.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A fresh store directory per test case (cases run in one process).
fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "reap-caprecovery-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn counter(name: &str) -> u64 {
    reap_obs::global().counter(name).get()
}

/// Trace passes run so far: one `capture` span each.
fn trace_passes() -> u64 {
    reap_obs::global().span_count("capture")
}

/// The full per-scheme failure signature of a report, as raw bits.
fn report_bits(r: &reap_core::Report) -> [u64; 4] {
    [
        r.expected_failures(ProtectionScheme::Conventional)
            .to_bits(),
        r.expected_failures(ProtectionScheme::Reap).to_bits(),
        r.expected_failures(ProtectionScheme::SerialTagFirst)
            .to_bits(),
        r.writeback_exposure().to_bits(),
    ]
}

proptest! {
    /// Any corruption of a store entry — truncation, a chopped tail, or
    /// a silent byte flip anywhere in the file — costs a recapture, never
    /// a wrong report. Damage inside the header misses at load; damage
    /// past it loads as a hit and is caught as replay reads the frame.
    /// Either way the recovered sweep counts a `capture_store.invalid`,
    /// its reports are bit-identical to an uncorrupted run's, and it
    /// heals the entry: the next sweep is a clean hit with no trace pass.
    #[test]
    fn corruption_always_falls_back_to_an_identical_recapture(
        workload_index in 0usize..21,
        seed in any::<u64>(),
        corruption in 0usize..3,
        damage in any::<u64>(),
    ) {
        let _serial = serial();
        reap_obs::set_enabled(true);
        let workload = SpecWorkload::ALL[workload_index];
        let experiment = Experiment::paper_hierarchy()
            .workload(workload)
            .budgets(500, 4_000)
            .seed(seed);
        let dir = scratch("corrupt");
        let store = CaptureStore::new(&dir, CapturePolicy::ReadWrite);

        // Reference sweep and a populated store entry.
        let points = experiment.simulators_at(&EccStrength::ALL).expect("valid points");
        let sweep = || experiment.run_at(&points, Some(&store), &mut None);
        let clean = sweep().expect("cold sweep");
        let key = CaptureKey::new(workload, seed, experiment.config());
        let path = store.entry_path(&key);
        let entry = std::fs::read(&path).expect("entry exists");
        let len = entry.len() as u64;

        // Damage the entry with one of the reap-fault corruption tools,
        // at a position derived from the arbitrary `damage` value.
        let header_damaged = match corruption {
            0 => {
                reap_fault::truncate_file(&path, damage % len).expect("truncate");
                damage % len < ENTRY_HEADER_BYTES
            }
            1 => {
                reap_fault::chop_tail(&path, 1 + damage % len).expect("chop");
                len - (1 + damage % len) < ENTRY_HEADER_BYTES
            }
            _ => {
                let mask = 1u8 << (damage % 8);
                reap_fault::flip_byte(&path, damage % len, mask).expect("flip");
                damage % len < ENTRY_HEADER_BYTES
            }
        };

        // Loads read the header only: damage there misses, damage past it
        // is a hit whose replay finds the defect.
        let invalid0 = counter("capture_store.invalid");
        prop_assert_eq!(
            store.load(&key).is_none(),
            header_damaged,
            "only header damage may fail the load"
        );

        // The store-backed sweep must silently recapture to the same bits
        // as the clean run, counting the defect.
        let recovered = sweep().expect("warm sweep");
        prop_assert_eq!(clean.len(), recovered.len());
        for (a, b) in clean.iter().zip(&recovered) {
            prop_assert_eq!(report_bits(a), report_bits(b));
        }
        prop_assert!(
            counter("capture_store.invalid") > invalid0,
            "the fallback must be counted"
        );

        // The recovered sweep healed the entry, so the next one is a
        // clean hit: no defect and no trace pass.
        prop_assert!(std::fs::read(&path).expect("entry healed") == entry);
        let (invalid1, hits1, passes1) = (
            counter("capture_store.invalid"),
            counter("capture_store.hit"),
            trace_passes(),
        );
        let healed = sweep().expect("healed sweep");
        for (a, b) in clean.iter().zip(&healed) {
            prop_assert_eq!(report_bits(a), report_bits(b));
        }
        prop_assert_eq!(counter("capture_store.invalid"), invalid1);
        prop_assert_eq!(counter("capture_store.hit"), hits1 + 1);
        prop_assert_eq!(trace_passes(), passes1);
        std::fs::remove_dir_all(dir).ok();
    }
}

/// How a test rots a store entry after it has loaded.
#[derive(Debug, Clone, Copy)]
enum Rot {
    /// One payload byte in the middle of the file changes.
    FlipPayload,
    /// The file loses its last third.
    Truncate,
    /// The file is gone.
    Delete,
}

impl Rot {
    fn apply(self, path: &std::path::Path) {
        let len = std::fs::metadata(path).unwrap().len();
        match self {
            Rot::FlipPayload => {
                reap_fault::flip_byte(path, len / 2, 0x40).unwrap();
            }
            Rot::Truncate => {
                reap_fault::truncate_file(path, len * 2 / 3).unwrap();
            }
            Rot::Delete => std::fs::remove_file(path).unwrap(),
        }
    }
}

/// `Experiment::score` is the one recovery body for a store-backed
/// capture whose entry rots after it loaded. At one point and at three,
/// and again through the same reused kernel, it returns the reports of a
/// clean replay. The first defect counts one `capture_store.invalid`. A
/// `ReadWrite` store heals the entry to the bytes a fresh write leaves,
/// so the second score is clean; a `Read` store leaves the damage as it
/// is, and the second score recovers again.
#[test]
fn score_recovers_a_rotted_entry_and_heals_it_only_under_readwrite() {
    let _serial = serial();
    reap_obs::set_enabled(true);
    let experiment = Experiment::paper_hierarchy()
        .workload(SpecWorkload::Gcc)
        .budgets(1_000, 60_000)
        .scrub(2_500)
        .seed(8);
    let key = CaptureKey::new(SpecWorkload::Gcc, 8, experiment.config());
    let at = |ecc| {
        Simulator::new(SimulationConfig {
            ecc,
            ..experiment.config().clone()
        })
        .unwrap()
    };
    let one = vec![at(experiment.config().ecc)];
    let three: Vec<Simulator> = EccStrength::ALL.into_iter().map(at).collect();

    let fresh = experiment.capture().unwrap();
    assert!(fresh.event_count() > 2 * 4096, "the entry must span frames");
    let mut clean_entry = Vec::new();
    write_capture_v2(&mut clean_entry, key.fingerprint(), &fresh).unwrap();

    for policy in [CapturePolicy::ReadWrite, CapturePolicy::Read] {
        for rot in [Rot::FlipPayload, Rot::Truncate, Rot::Delete] {
            for points in [&one, &three] {
                let want: Vec<[u64; 4]> = Simulator::replay_batch(points, &fresh)
                    .unwrap()
                    .iter()
                    .map(report_bits)
                    .collect();
                let dir = scratch("heal");
                std::fs::create_dir_all(&dir).unwrap();
                let store = CaptureStore::new(&dir, policy);
                let path = store.entry_path(&key);
                std::fs::write(&path, &clean_entry).unwrap();
                let loaded = store.load(&key).expect("a clean entry loads");
                rot.apply(&path);
                let damaged = std::fs::read(&path).ok();

                let invalid0 = counter("capture_store.invalid");
                let mut kernel = None;
                for pass in 0..2 {
                    let got = experiment
                        .score(points, &loaded, Some(&store), &mut kernel)
                        .unwrap();
                    let got: Vec<[u64; 4]> = got.iter().map(report_bits).collect();
                    assert_eq!(got, want, "{policy} {rot:?} pass {pass}");
                    if pass == 0 {
                        assert_eq!(counter("capture_store.invalid"), invalid0 + 1);
                    }
                }
                let recoveries = match policy {
                    CapturePolicy::ReadWrite => {
                        assert!(
                            std::fs::read(&path).unwrap() == clean_entry,
                            "{rot:?}: the entry must be healed"
                        );
                        1
                    }
                    _ => {
                        assert!(
                            std::fs::read(&path).ok() == damaged,
                            "{rot:?}: a read-only store must not write"
                        );
                        2
                    }
                };
                assert_eq!(
                    counter("capture_store.invalid"),
                    invalid0 + recoveries,
                    "{policy} {rot:?}"
                );
                std::fs::remove_dir_all(dir).ok();
            }
        }
    }
}
