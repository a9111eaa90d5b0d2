//! A fresh capture is a `reap-capture/2` entry from the start.
//! `Simulator::capture` codes its records into frames access by access
//! while it runs, writing each into its scoped entry; these tests pin
//! that the entry's bytes are byte for byte what encoding the whole
//! record vector at once yields. Every frame is cut after exactly 4096
//! records, wherever the cut falls: exactly on a frame boundary, one
//! record either side of it, or in the middle of a scrub burst.

use reap_cache::Hierarchy;
use reap_core::capture_store::write_capture_v2;
use reap_core::{
    CaptureKey, CaptureObserver, CapturePolicy, CaptureStore, Experiment, ExposureCapture,
    ExposureRecord, ExposureStream, Simulator,
};
use reap_reliability::ExposureKind;
use reap_trace::{MemoryAccess, SpecWorkload};

/// Records per full frame, as the format fixes it.
const FRAME: usize = 4096;
/// Bytes of an entry's header, before its first frame.
const ENTRY_HEADER_BYTES: usize = 353;

/// The frame region of a v2 entry, coded straight from the format
/// description in the `capture_store` module docs: an oracle that shares
/// no code with the library's encoder.
fn spec_frames(records: &[ExposureRecord]) -> Vec<u8> {
    fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }
    fn varint(out: &mut Vec<u8>, mut v: u64) {
        while v >= 0x80 {
            out.push((v as u8) | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }
    let mut out = Vec::new();
    for frame in records.chunks(FRAME) {
        let mut payload = Vec::new();
        let mut prev = [0u64; 4];
        for r in frame {
            payload.push(match r.kind {
                ExposureKind::Demand => 0,
                ExposureKind::DirtyScrub => 1,
                ExposureKind::DirtyEviction => 2,
            });
            let cur = [r.key.tag, r.key.set, r.key.version, r.unchecked_reads];
            for (p, c) in prev.iter_mut().zip(cur) {
                let d = c.wrapping_sub(*p) as i64;
                varint(&mut payload, ((d << 1) ^ (d >> 63)) as u64);
                *p = c;
            }
        }
        let mut head = Vec::new();
        head.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        head.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let checksum = fnv1a(fnv1a(0xcbf2_9ce4_8422_2325, &head), &payload);
        out.extend_from_slice(&head);
        out.extend_from_slice(&payload);
        out.extend_from_slice(&checksum.to_le_bytes());
    }
    out
}

/// The record vector of the capture loop, kept whole: the same drive as
/// `Simulator::capture` into one observer that is never drained.
fn record_vector(experiment: &Experiment, trace: &[MemoryAccess]) -> Vec<ExposureRecord> {
    let config = experiment.config();
    let mut hierarchy = Hierarchy::new(config.hierarchy.clone(), config.replacement);
    let mut observer = CaptureObserver::new();
    let (warmup, measured) = trace.split_at(config.warmup_accesses as usize);
    for &a in warmup {
        hierarchy.access(a, &mut ());
    }
    hierarchy.l2_mut().reset_stats();
    let mut since_scrub = 0;
    for &a in measured {
        hierarchy.access(a, &mut observer);
        since_scrub += 1;
        if since_scrub == config.scrub_period {
            hierarchy.l2_mut().scrub(&mut observer);
            since_scrub = 0;
        }
    }
    observer.into_records()
}

/// Captures `trace` fresh and checks it against the record vector: the
/// frames of its entry file match the spec encoding, the whole file
/// matches the entry of a capture assembled from the vector, the stored
/// entry matches `write_capture_v2` over that capture, and both a
/// streamed pass and `events()` give back the vector. Returns it.
fn check_fresh_capture(experiment: &Experiment, trace: &[MemoryAccess]) -> Vec<ExposureRecord> {
    let config = experiment.config();
    let budget = (config.warmup_accesses + config.measure_accesses) as usize;
    assert_eq!(trace.len(), budget, "the trace is exactly the budget");
    let capture = Simulator::new(config.clone())
        .expect("simulator")
        .capture(trace.iter().copied())
        .expect("capture");
    let records = record_vector(experiment, trace);

    let entry = std::fs::read(capture.entry_path()).expect("read the entry");
    assert!(
        entry[ENTRY_HEADER_BYTES..] == spec_frames(&records),
        "frames differ from the spec encoding"
    );

    let key = CaptureKey::new(SpecWorkload::Hmmer, 1, config);
    let from_vector = ExposureCapture::from_parts(
        records.clone(),
        *capture.snapshot(),
        capture.line_bits(),
        capture.ones_seed(),
        config.behaviour(),
    )
    .expect("scoped entry");
    assert!(
        entry == std::fs::read(from_vector.entry_path()).expect("read the entry"),
        "the entry differs from that of the vector"
    );
    let mut want = Vec::new();
    write_capture_v2(&mut want, key.fingerprint(), &from_vector).expect("encode");
    let dir = std::env::temp_dir().join(format!(
        "reap-capture-frames-{}-{}-{}",
        std::process::id(),
        records.len(),
        config.scrub_period
    ));
    let path = CaptureStore::new(&dir, CapturePolicy::ReadWrite)
        .store(&key, &capture)
        .expect("store");
    let stored = std::fs::read(&path).expect("read entry");
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        stored == want,
        "stored entry differs from the vector's encoding"
    );

    let mut stream = capture.iter().expect("open");
    let mut streamed = Vec::new();
    while let Some(record) = stream.next_record().expect("pull") {
        streamed.push(record);
    }
    assert_eq!(streamed, records);
    assert_eq!(capture.events(), records.as_slice());
    assert_eq!(capture.event_count(), records.len() as u64);
    records
}

/// Loads cycling over five lines of one 4-way L1D set: after the five
/// warm-up fills, every cycled load misses the L1 and hits the L2, which
/// is exactly one demand event. A final reload of the last line hits the
/// L1, so a window of `events + 1` accesses records `events` events.
fn conflict_loads(events: usize) -> Vec<MemoryAccess> {
    let line = |i: usize| MemoryAccess::load((i % 5) as u64 * 8192);
    let mut trace: Vec<MemoryAccess> = (0..5 + events).map(line).collect();
    trace.push(line(4 + events));
    trace
}

#[test]
fn frames_are_cut_every_4096_records_at_any_count() {
    for events in [0, 1, FRAME - 1, FRAME, FRAME + 1, 2 * FRAME + 1] {
        let experiment = Experiment::paper_hierarchy().budgets(5, events as u64 + 1);
        let records = check_fresh_capture(&experiment, &conflict_loads(events));
        assert_eq!(records.len(), events, "one demand event per cycled load");
    }
}

/// Index of a frame cut with a dirty scrub on both sides of it, if any.
fn cut_inside_scrub_burst(records: &[ExposureRecord]) -> Option<usize> {
    (FRAME..records.len()).step_by(FRAME).find(|&cut| {
        records[cut - 1].kind == ExposureKind::DirtyScrub
            && records[cut].kind == ExposureKind::DirtyScrub
    })
}

#[test]
fn frames_match_the_record_vector_at_every_scrub_period() {
    for (scrub, measure) in [(0u64, 40_000u64), (1, 40), (700, 40_000)] {
        let experiment = Experiment::paper_hierarchy()
            .workload(SpecWorkload::Lbm)
            .budgets(4_000, measure)
            .scrub(scrub)
            .seed(11);
        let trace: Vec<MemoryAccess> = SpecWorkload::Lbm
            .stream(11)
            .take((4_000 + measure) as usize)
            .collect();
        let records = check_fresh_capture(&experiment, &trace);
        assert!(
            records.len() > 2 * FRAME,
            "period {scrub}: {} records make fewer than three frames",
            records.len()
        );
        if scrub > 0 {
            let cut = cut_inside_scrub_burst(&records);
            assert!(
                cut.is_some(),
                "period {scrub}: no frame cut falls inside a scrub burst"
            );
        }
    }
}
