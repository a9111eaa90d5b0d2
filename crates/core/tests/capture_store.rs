//! Capture-store integration properties: round-trips are bit-identical,
//! and stale or short entries miss at load. How a rotted entry is
//! recovered and healed is pinned in `capture_recovery.rs`.
//!
//! Runs in its own test binary because it enables the global telemetry
//! registry to observe the `capture_store.*` counters; counter
//! assertions are delta-based (`>=`) since tests in this binary share
//! the registry across threads.

use proptest::prelude::*;
use reap_cache::{CacheStats, HierarchyConfig, LineKey, Replacement};
use reap_core::capture_store::{
    read_capture_v2, write_capture_v2, CaptureKey, CapturePolicy, CaptureStore, CaptureStoreError,
};
use reap_core::{
    EccStrength, Experiment, ExposureCapture, ExposureRecord, HierarchySnapshot, ProtectionScheme,
    Simulator,
};
use reap_reliability::ExposureKind;
use reap_trace::SpecWorkload;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// An arbitrary exposure record: any kind, any key, any read count.
fn any_record() -> impl Strategy<Value = ExposureRecord> {
    (
        prop_oneof![
            Just(ExposureKind::Demand),
            Just(ExposureKind::DirtyScrub),
            Just(ExposureKind::DirtyEviction),
        ],
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            |(kind, tag, set, version, unchecked_reads)| ExposureRecord {
                kind,
                key: LineKey { tag, set, version },
                unchecked_reads,
            },
        )
}

/// A fresh store directory per test case (cases run in one process).
fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "reap-capstore-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn counter(name: &str) -> u64 {
    reap_obs::global().counter(name).get()
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
    /// A store round-trip preserves the capture exactly — the loaded
    /// entry's events, metadata and every replayed report are
    /// bit-identical to the fresh original, for arbitrary workloads,
    /// seeds and replacement policies.
    #[test]
    fn store_round_trip_is_bit_identical(
        workload_index in 0usize..21,
        seed in any::<u64>(),
        replacement in prop_oneof![
            Just(Replacement::Lru),
            Just(Replacement::TreePlru),
            Just(Replacement::Fifo),
            Just(Replacement::Srrip),
        ],
    ) {
        let workload = SpecWorkload::ALL[workload_index];
        let experiment = Experiment::paper_hierarchy()
            .workload(workload)
            .replacement(replacement)
            .budgets(500, 4_000)
            .seed(seed);
        let dir = scratch("roundtrip");
        let store = CaptureStore::new(&dir, CapturePolicy::ReadWrite);

        let original = experiment.capture().expect("capture");
        let key = CaptureKey::new(workload, seed, experiment.config());
        store.store(&key, &original).expect("store");
        let loaded = store.load(&key).expect("entry just written");

        prop_assert_eq!(loaded.events(), original.events());
        prop_assert_eq!(loaded.snapshot(), original.snapshot());
        prop_assert_eq!(loaded.line_bits(), original.line_bits());
        prop_assert_eq!(loaded.ones_seed(), original.ones_seed());

        let from_memory = experiment.clone().replay(&original).expect("replay");
        let from_disk = experiment.clone().replay(&loaded).expect("replay");
        prop_assert_eq!(report_bits(&from_memory), report_bits(&from_disk));
        std::fs::remove_dir_all(dir).ok();
    }
}

proptest! {
    /// The `reap-capture/2` codec round-trips arbitrary record streams
    /// bit-identically: any sequence of kinds, keys and read counts —
    /// including adversarial u64 extremes that stress the zigzag/varint
    /// delta coding and multi-frame captures — encodes and stream-decodes
    /// back to exactly the input.
    #[test]
    fn v2_codec_round_trips_arbitrary_record_streams(
        events in proptest::collection::vec(any_record(), 0..200),
        fingerprint in any::<u64>(),
        line_bits in 1usize..4096,
        ones_seed in any::<u64>(),
    ) {
        let capture = ExposureCapture::from_parts(
            events.clone(),
            HierarchySnapshot {
                l1i: CacheStats::default(),
                l1d: CacheStats::default(),
                l2: CacheStats::default(),
                memory_reads: 0,
                memory_writes: 0,
            },
            line_bits,
            ones_seed,
            HierarchyConfig::paper(),
            Replacement::Lru,
            0,
            0,
            0,
        ).expect("scoped entry");
        let mut encoded = Vec::new();
        let bytes = write_capture_v2(&mut encoded, fingerprint, &capture).expect("encode");
        prop_assert_eq!(bytes, encoded.len() as u64);

        let payload = read_capture_v2(encoded.as_slice(), fingerprint).expect("decode");
        prop_assert_eq!(payload.events, events);
        prop_assert_eq!(payload.line_bits, line_bits);
        prop_assert_eq!(payload.ones_seed, ones_seed);
        prop_assert_eq!(payload.snapshot, *capture.snapshot());
    }
}

/// A warm sweep from the store and a sweep with no store at all agree
/// bit-for-bit: the on-disk encoding never leaks into results.
#[test]
fn warm_sweeps_agree_with_fresh_capture() {
    let experiment = Experiment::paper_hierarchy()
        .workload(SpecWorkload::Soplex)
        .budgets(500, 6_000)
        .seed(77);
    let points = experiment.simulators_at(&EccStrength::ALL).unwrap();
    let sweep = |store| experiment.run_at(&points, store, &mut None);
    let fresh = sweep(None).expect("fresh sweep");

    let dir = scratch("warm");
    let store = CaptureStore::new(&dir, CapturePolicy::ReadWrite);
    sweep(Some(&store)).expect("cold sweep");
    let warm = sweep(Some(&store)).expect("warm sweep");
    std::fs::remove_dir_all(dir).ok();

    assert_eq!(warm.len(), fresh.len());
    for (a, b) in fresh.iter().zip(&warm) {
        assert_eq!(report_bits(a), report_bits(b));
    }
}

/// Streaming FNV-1a, the checksum of the retired fixed-width format.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `capture` encoded as a `reap-capture/1` entry — the fixed-width
/// layout older builds wrote: magic, version 1, fingerprint, line bits,
/// ones seed, the 38 snapshot words, the record count, 33-byte records
/// (kind, tag, set, version, unchecked reads) and an FNV-1a trailer
/// over everything before it.
fn v1_entry(fingerprint: u64, capture: &ExposureCapture) -> Vec<u8> {
    let snapshot = capture.snapshot();
    let mut words = vec![fingerprint, capture.line_bits() as u64, capture.ones_seed()];
    for s in [&snapshot.l1i, &snapshot.l1d, &snapshot.l2] {
        words.extend([
            s.reads,
            s.writes,
            s.read_hits,
            s.write_hits,
            s.fills,
            s.evictions,
            s.dirty_evictions,
            s.concealed_reads,
            s.line_reads,
            s.demand_checks,
            s.scrub_checks,
            s.writeback_installs,
        ]);
    }
    words.extend([
        snapshot.memory_reads,
        snapshot.memory_writes,
        capture.event_count(),
    ]);
    let mut bytes = b"RCAP\x01".to_vec();
    for w in words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    for r in capture.events() {
        bytes.push(match r.kind {
            ExposureKind::Demand => 0,
            ExposureKind::DirtyScrub => 1,
            ExposureKind::DirtyEviction => 2,
        });
        for w in [r.key.tag, r.key.set, r.key.version, r.unchecked_reads] {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
    }
    let checksum = fnv1a(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

/// An entry an older build wrote in `reap-capture/1` is a fail-open
/// miss: it is counted invalid, recaptured bit-identically, overwritten
/// as version 2 and served as a hit from then on.
#[test]
fn a_stale_v1_entry_is_recaptured_once_and_rewritten() {
    reap_obs::set_enabled(true);
    let dir = scratch("stale");
    let store = CaptureStore::new(&dir, CapturePolicy::ReadWrite);
    let experiment = Experiment::paper_hierarchy()
        .workload(SpecWorkload::Gcc)
        .budgets(500, 6_000)
        .seed(21);
    let sim = Simulator::new(experiment.config().clone()).unwrap();
    let fresh = sim.capture(SpecWorkload::Gcc.stream(21)).unwrap();
    let key = CaptureKey::new(SpecWorkload::Gcc, 21, experiment.config());
    let stale = v1_entry(key.fingerprint(), &fresh);
    assert_eq!(stale.len() as u64, 33 * fresh.event_count() + 349);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(store.entry_path(&key), &stale).unwrap();

    let invalid0 = counter("capture_store.invalid");
    assert!(store.load(&key).is_none(), "a v1 entry must not load");
    assert!(counter("capture_store.invalid") > invalid0);
    assert!(matches!(
        read_capture_v2(&stale[..], key.fingerprint()),
        Err(CaptureStoreError::UnsupportedVersion { found: 1 })
    ));

    let recaptured = store.load_or_capture(&sim, SpecWorkload::Gcc, 21).unwrap();
    assert_eq!(recaptured.events(), fresh.events());
    assert_eq!(recaptured.snapshot(), fresh.snapshot());
    assert_eq!(recaptured.line_bits(), fresh.line_bits());
    assert_eq!(recaptured.ones_seed(), fresh.ones_seed());

    let rewritten = std::fs::read(store.entry_path(&key)).unwrap();
    assert_eq!(rewritten[4], 2, "the entry is rewritten as version 2");
    let hit0 = counter("capture_store.hit");
    let warm = store.load(&key).expect("the rewritten entry is a hit");
    assert!(counter("capture_store.hit") > hit0);
    assert_eq!(warm.events(), fresh.events());
    std::fs::remove_dir_all(dir).ok();
}

/// Entries too short to hold a header — empty, or the magic alone — are
/// typed truncations at byte 0, and the store treats them as misses.
#[test]
fn empty_and_magic_only_entries_are_typed_truncations() {
    reap_obs::set_enabled(true);
    let dir = scratch("short");
    let store = CaptureStore::new(&dir, CapturePolicy::ReadWrite);
    let experiment = Experiment::paper_hierarchy()
        .workload(SpecWorkload::Mcf)
        .budgets(500, 6_000)
        .seed(8);
    let key = CaptureKey::new(SpecWorkload::Mcf, 8, experiment.config());
    std::fs::create_dir_all(&dir).unwrap();
    for prefix in [&b""[..], &b"RCAP"[..]] {
        let err = read_capture_v2(prefix, key.fingerprint()).unwrap_err();
        assert!(
            matches!(
                err,
                CaptureStoreError::Truncated {
                    offset: 0,
                    record: None
                }
            ),
            "{} bytes: {err}",
            prefix.len()
        );
        assert!(err.to_string().contains("at byte 0"), "{err}");

        std::fs::write(store.entry_path(&key), prefix).unwrap();
        let invalid0 = counter("capture_store.invalid");
        assert!(store.load(&key).is_none());
        assert!(counter("capture_store.invalid") > invalid0);
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn load_or_capture_hits_after_a_cold_miss_and_counts_both() {
    reap_obs::set_enabled(true);
    let dir = scratch("counters");
    let store = CaptureStore::new(&dir, CapturePolicy::ReadWrite);
    let experiment = Experiment::paper_hierarchy()
        .workload(SpecWorkload::Libquantum)
        .budgets(500, 6_000)
        .seed(11);
    let sim = Simulator::new(experiment.config().clone()).unwrap();

    let (miss0, hit0, write0) = (
        counter("capture_store.miss"),
        counter("capture_store.hit"),
        counter("capture_store.write"),
    );
    let cold = store
        .load_or_capture(&sim, SpecWorkload::Libquantum, 11)
        .unwrap();
    assert!(counter("capture_store.miss") > miss0, "cold run misses");
    assert!(counter("capture_store.write") > write0, "cold run persists");

    let warm = store
        .load_or_capture(&sim, SpecWorkload::Libquantum, 11)
        .unwrap();
    assert!(counter("capture_store.hit") > hit0, "warm run hits");
    assert_eq!(warm.events(), cold.events());
    assert_eq!(warm.snapshot(), cold.snapshot());
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn read_policy_never_writes_but_serves_existing_entries() {
    let dir = scratch("readonly");
    let experiment = Experiment::paper_hierarchy()
        .workload(SpecWorkload::Mcf)
        .budgets(500, 6_000)
        .seed(4);
    let key = CaptureKey::new(SpecWorkload::Mcf, 4, experiment.config());

    // A read-only store never populates the directory…
    let reader = CaptureStore::new(&dir, CapturePolicy::Read);
    let capture = experiment.capture_with(Some(&reader)).unwrap();
    assert!(reader.load(&key).is_none(), "nothing was persisted");

    // …but serves entries someone else wrote.
    CaptureStore::new(&dir, CapturePolicy::ReadWrite)
        .store(&key, &capture)
        .unwrap();
    let loaded = reader.load(&key).expect("entry now exists");
    assert_eq!(loaded.events(), capture.events());
    std::fs::remove_dir_all(dir).ok();
}

/// Two threads of one process asking for the same key at once (two
/// serve jobs sharing a workload can) both get the store-less report:
/// one streams the entry, the other hits it, and the entry is byte for
/// byte the one a solo write leaves. That they run one trace pass is
/// pinned in `capture_single_flight.rs`.
#[test]
fn concurrent_captures_of_one_key_agree_and_leave_one_whole_entry() {
    reap_obs::set_enabled(true);
    let experiment = Experiment::paper_hierarchy()
        .workload(SpecWorkload::Gcc)
        .budgets(1_000, 40_000)
        .seed(13);
    let key = CaptureKey::new(SpecWorkload::Gcc, 13, experiment.config());
    let want = report_bits(&experiment.clone().run().unwrap());

    let solo_dir = scratch("solo");
    let solo = CaptureStore::new(&solo_dir, CapturePolicy::ReadWrite);
    experiment.clone().run_with(Some(&solo)).unwrap();
    let solo_entry = std::fs::read(solo.entry_path(&key)).unwrap();

    let dir = scratch("concurrent");
    let store = CaptureStore::new(&dir, CapturePolicy::ReadWrite);
    let settled0 = counter("capture_store.write") + counter("capture_store.hit");
    let written0 = counter("capture_store.bytes_written");
    let barrier = std::sync::Barrier::new(2);
    let reports: Vec<[u64; 4]> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
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
    // Each thread either committed the entry or hit it; a write that
    // lost its temp file would count neither.
    assert!(counter("capture_store.write") + counter("capture_store.hit") >= settled0 + 2);
    assert!(counter("capture_store.bytes_written") >= written0 + solo_entry.len() as u64);
    assert!(std::fs::read(store.entry_path(&key)).unwrap() == solo_entry);
    let leftovers: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.contains(".tmp."))
        .collect();
    assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
    std::fs::remove_dir_all(dir).ok();
    std::fs::remove_dir_all(solo_dir).ok();
}
