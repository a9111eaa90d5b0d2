//! Property-based tests for the trace generators.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reap_trace::generators::{
    KindModel, LoopNest, PointerChase, StridedStream, UniformRandom, ZipfHotSet, LINE_BYTES,
};
use reap_trace::{MemoryAccess, Mixture, SpecWorkload, TraceStats};

type Stream = Box<dyn Iterator<Item = MemoryAccess> + Send>;

/// One mixture component: generator (strided, uniform, Zipf, stencil),
/// weight, and the length of a finite stream.
type ComponentSpec = (u8, f64, Option<usize>);

/// Component `index` of a mixture, in a region of its own.
fn component((generator, _, len): ComponentSpec, index: usize, seed: u64) -> Stream {
    let base = (index as u64 + 1) << 32;
    let data = KindModel::Data { read_fraction: 0.6 };
    let seed = seed ^ index as u64;
    let stream: Stream = match generator {
        0 => Box::new(StridedStream::new(base, 96, 3, data, seed)),
        1 => Box::new(UniformRandom::new(base, 200, data, seed)),
        2 => Box::new(ZipfHotSet::new(base, 300, 1.1, data, seed)),
        _ => Box::new(LoopNest::new(base, 6, 9, true, seed)),
    };
    match len {
        Some(len) => Box::new(stream.take(len)),
        None => stream,
    }
}

/// The per-access mixture that the block-drawn [`Mixture`] replaced, kept
/// as its oracle: one draw and one component call per access.
struct PerAccess {
    components: Vec<Stream>,
    cumulative: Vec<f64>,
    rng: StdRng,
}

impl PerAccess {
    fn new(seed: u64, specs: &[ComponentSpec]) -> Self {
        let total: f64 = specs.iter().map(|s| s.1).sum();
        let mut acc = 0.0;
        Self {
            components: specs
                .iter()
                .enumerate()
                .map(|(i, &s)| component(s, i, seed))
                .collect(),
            cumulative: specs
                .iter()
                .map(|s| {
                    acc += s.1 / total;
                    acc
                })
                .collect(),
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Iterator for PerAccess {
    type Item = MemoryAccess;

    fn next(&mut self) -> Option<MemoryAccess> {
        let u: f64 = self.rng.gen();
        let idx = self
            .cumulative
            .partition_point(|&c| c < u)
            .min(self.components.len() - 1);
        self.components[idx].next()
    }
}

proptest! {
    /// Every generator keeps its addresses inside `[base, base + lines*64)`.
    #[test]
    fn generators_respect_their_region(
        base_block in 0u64..1_000_000,
        lines in 1usize..2_000,
        seed in any::<u64>(),
    ) {
        let base = base_block * LINE_BYTES;
        let hi = base + lines as u64 * LINE_BYTES;
        let data = KindModel::Data { read_fraction: 0.5 };
        let streams: Vec<Box<dyn Iterator<Item = reap_trace::MemoryAccess>>> = vec![
            Box::new(StridedStream::new(base, lines, 1, data, seed)),
            Box::new(UniformRandom::new(base, lines, data, seed)),
            Box::new(PointerChase::new(base, lines, data, seed)),
            Box::new(ZipfHotSet::new(base, lines, 1.1, data, seed)),
        ];
        for s in streams {
            for a in s.take(200) {
                prop_assert!(a.address >= base && a.address < hi);
                prop_assert_eq!(a.address % LINE_BYTES, 0, "line-granular addresses");
            }
        }
    }

    /// A pointer chase is a single cycle: within `lines` steps every line
    /// is visited exactly once, for any footprint and seed.
    #[test]
    fn pointer_chase_is_a_permutation_cycle(
        lines in 2usize..500,
        seed in any::<u64>(),
    ) {
        let data = KindModel::Data { read_fraction: 1.0 };
        let visited: std::collections::HashSet<u64> = PointerChase::new(0, lines, data, seed)
            .take(lines)
            .map(|a| a.address / LINE_BYTES)
            .collect();
        prop_assert_eq!(visited.len(), lines);
    }

    /// The empirical read fraction converges to the configured one.
    #[test]
    fn read_fraction_converges(frac_pct in 5u32..95, seed in any::<u64>()) {
        let frac = f64::from(frac_pct) / 100.0;
        let s = UniformRandom::new(0, 64, KindModel::Data { read_fraction: frac }, seed);
        let n = 20_000;
        let reads = s.take(n).filter(|a| a.kind.is_read()).count();
        let got = reads as f64 / n as f64;
        prop_assert!((got - frac).abs() < 0.02, "configured {frac}, got {got}");
    }

    /// Mixture weights are honoured for any two-component split.
    #[test]
    fn mixture_weight_fractions(w1 in 1.0f64..10.0, w2 in 1.0f64..10.0, seed in any::<u64>()) {
        let data = KindModel::Data { read_fraction: 1.0 };
        let m = Mixture::builder(seed)
            .component(w1, StridedStream::new(0, 16, 1, data, 1))
            .component(w2, StridedStream::new(0x1000_0000, 16, 1, data, 2))
            .build();
        let n = 30_000;
        let first = m.take(n).filter(|a| a.address < 0x1000_0000).count() as f64 / n as f64;
        let expected = w1 / (w1 + w2);
        prop_assert!((first - expected).abs() < 0.03, "expected {expected}, got {first}");
    }

    /// The block-drawn mixture emits the per-access oracle's stream, for
    /// any component count, weights down to the 1e-6 floor of a workload's
    /// instruction weight, and lengths on either side of a block edge. A
    /// finite component ends both streams at the same access, and the
    /// mixture stays ended.
    #[test]
    fn block_drawn_mixture_matches_per_access_picks(
        specs in proptest::collection::vec(
            (
                0u8..4,
                prop_oneof![Just(1e-6), 1e-6f64..1e-3, 0.05f64..20.0],
                prop_oneof![Just(None), Just(None), (0usize..3000).prop_map(Some)],
            ),
            1..21,
        ),
        seed in any::<u64>(),
        len in prop_oneof![Just(0usize), Just(1), Just(1023), Just(1024), Just(1025), Just(5000)],
    ) {
        let mut builder = Mixture::builder(seed);
        for (i, &spec) in specs.iter().enumerate() {
            builder = builder.component(spec.1, component(spec, i, seed));
        }
        let mut mixture = builder.build();
        let want: Vec<_> = PerAccess::new(seed, &specs).take(len).collect();
        let got: Vec<_> = mixture.by_ref().take(len).collect();
        prop_assert_eq!(got.len(), want.len());
        prop_assert!(got == want, "streams diverge");
        if got.len() < len {
            prop_assert!(mixture.next().is_none() && mixture.next().is_none());
        }
    }

    /// Workload streams are pure functions of the seed.
    #[test]
    fn spec_streams_deterministic(seed in any::<u64>(), which in 0usize..21) {
        let w = SpecWorkload::ALL[which];
        let a: Vec<_> = w.stream(seed).take(300).collect();
        let b: Vec<_> = w.stream(seed).take(300).collect();
        prop_assert_eq!(a, b);
    }

    /// TraceStats footprint is bounded by the number of accesses and the
    /// reuse intervals never exceed the trace length.
    #[test]
    fn stats_invariants(which in 0usize..21, seed in any::<u64>()) {
        let w = SpecWorkload::ALL[which];
        let n = 5_000;
        let stats = TraceStats::collect(w.stream(seed).take(n), 64);
        prop_assert_eq!(stats.accesses, n);
        prop_assert!(stats.footprint_lines <= n);
        prop_assert!(stats.max_reuse_interval < n);
        prop_assert_eq!(stats.fetches + stats.loads + stats.stores, n);
        prop_assert!((0.0..=1.0).contains(&stats.data_read_fraction()));
    }
}
