//! The workload traces, pinned: a change to a generator, the sampling it
//! draws on, or a workload's parameters that moves any access fails here,
//! at the trace layer, before it shows up as a changed digest downstream.

use reap_trace::{AccessKind, MemoryAccess, SpecWorkload};

/// FNV-1a over each access's address (8 bytes, little-endian) and a kind
/// byte (0 fetch, 1 load, 2 store).
fn digest(accesses: impl Iterator<Item = MemoryAccess>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for access in accesses {
        let kind = match access.kind {
            AccessKind::InstrFetch => 0u8,
            AccessKind::Load => 1,
            AccessKind::Store => 2,
        };
        for byte in access.address.to_le_bytes().into_iter().chain([kind]) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Digests of the first 100 000 accesses of every workload at seed 2019.
const PINNED: [(&str, u64); 21] = [
    ("perlbench", 0x4ef99987cbef8f92),
    ("bzip2", 0xcb21b4cc21047ca4),
    ("gcc", 0xaa0f2c6a2d561801),
    ("mcf", 0xc647194b401348d6),
    ("milc", 0x141740ecd109b191),
    ("namd", 0x15c71876c8b8f3c4),
    ("gobmk", 0xd2b9fc9412116410),
    ("dealII", 0x47e492a8e739dc62),
    ("soplex", 0x0a39b45274121c21),
    ("povray", 0xcadd576be0344988),
    ("calculix", 0x4d73ed2f96dba95c),
    ("hmmer", 0x45d1110403dad700),
    ("sjeng", 0x8ccd7374e6f8f827),
    ("GemsFDTD", 0x5823fa3862ec426d),
    ("libquantum", 0xbc86eec068b78478),
    ("h264ref", 0x77159019f558c616),
    ("lbm", 0x83421207719dd90a),
    ("omnetpp", 0xcc7405afd36454c6),
    ("astar", 0xfd75edcebee37a43),
    ("xalancbmk", 0xb2fc5c06155094d2),
    ("cactusADM", 0x1df44ad5a305bf9e),
];

#[test]
fn every_workload_trace_is_pinned() {
    let names: Vec<&str> = SpecWorkload::ALL.iter().map(|w| w.name()).collect();
    let pinned: Vec<&str> = PINNED.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, pinned, "one pin per workload, in listing order");
    for (workload, (name, expected)) in SpecWorkload::ALL.into_iter().zip(PINNED) {
        let got = digest(workload.stream(2019).take(100_000));
        assert_eq!(got, expected, "{name}: trace digest {got:#018x}");
    }
}
