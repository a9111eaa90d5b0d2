//! Composition of primitive generators into full workloads.
//!
//! [`Mixture`] interleaves several component streams by weighted random
//! choice per access; [`Phased`] runs a schedule of mixtures to model
//! program phases.

use crate::record::MemoryAccess;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Accesses a [`Mixture`] draws per refill: it picks the components of
/// this many accesses at once, then each component fills its share of the
/// block in one call.
const BLOCK: usize = 1024;

// Block positions are stored as `u16`.
const _: () = assert!(BLOCK <= 1 << 16);

/// A component stream that fills its share of a block.
trait Fill: Send {
    /// Writes the stream's next accesses to `block` at `positions`, in
    /// order, and returns how many it wrote: fewer than `positions.len()`
    /// only when the stream ended.
    fn fill(&mut self, positions: &[u16], block: &mut [MemoryAccess]) -> usize;
}

/// The one [`Fill`]: monomorphized per component type, so the component's
/// `next` inlines into the fill loop instead of being a virtual call per
/// access.
struct Component<I>(I);

impl<I: Iterator<Item = MemoryAccess> + Send> Fill for Component<I> {
    fn fill(&mut self, positions: &[u16], block: &mut [MemoryAccess]) -> usize {
        for (filled, &position) in positions.iter().enumerate() {
            match self.0.next() {
                Some(access) => block[usize::from(position)] = access,
                None => return filled,
            }
        }
        positions.len()
    }
}

/// A weighted interleaving of component streams.
///
/// Every access comes from one component, picked with probability
/// proportional to its weight. This models a program whose instruction mix
/// interleaves several data structures.
///
/// The mixture draws a block of 1024 picks at a time from its own RNG, one
/// uniform draw per access, and each component then fills its share of the
/// block in one call. A component's accesses therefore depend only on how
/// many it is asked for, and the stream equals the one picked access by
/// access. That needs components that share no state: one must not read
/// what another advanced. The stream ends at the first access whose
/// component is exhausted, and stays ended.
///
/// # Examples
///
/// ```
/// use reap_trace::generators::{KindModel, StridedStream, ZipfHotSet};
/// use reap_trace::Mixture;
///
/// let data = KindModel::Data { read_fraction: 0.8 };
/// let mut workload = Mixture::builder(7)
///     .component(3.0, ZipfHotSet::new(0, 1024, 1.2, data, 1))
///     .component(1.0, StridedStream::new(0x100_0000, 4096, 1, data, 2))
///     .build();
/// assert!(workload.next().is_some());
/// ```
pub struct Mixture {
    components: Vec<Box<dyn Fill>>,
    cumulative: Vec<f64>,
    rng: StdRng,
    /// The current block; `block[cursor..]` is still to be emitted. It is
    /// cut short only at the access where the stream ended.
    block: Vec<MemoryAccess>,
    cursor: usize,
    /// Block positions grouped by component, ascending within each group.
    positions: Vec<u16>,
    /// Per-component scratch of the counting sort.
    ends: Vec<usize>,
}

impl std::fmt::Debug for Mixture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mixture")
            .field("components", &self.components.len())
            .finish()
    }
}

impl Mixture {
    /// Starts building a mixture whose per-access choices use `seed`.
    pub fn builder(seed: u64) -> MixtureBuilder {
        MixtureBuilder {
            components: Vec::new(),
            seed,
        }
    }
}

/// Builder for [`Mixture`].
///
/// Components must not share state (see [`Mixture`]): the mixture asks
/// each for up to 1024 accesses ahead of the one it emits.
pub struct MixtureBuilder {
    components: Vec<(f64, Box<dyn Fill>)>,
    seed: u64,
}

impl std::fmt::Debug for MixtureBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MixtureBuilder")
            .field("components", &self.components.len())
            .finish()
    }
}

impl MixtureBuilder {
    /// Adds a component stream with the given positive weight.
    ///
    /// A finite stream ends the mixture at the first access picked from it
    /// after its last one, and the mixture stays ended.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not finite and positive.
    pub fn component(
        mut self,
        weight: f64,
        stream: impl Iterator<Item = MemoryAccess> + Send + 'static,
    ) -> Self {
        assert!(
            weight.is_finite() && weight > 0.0,
            "component weight must be positive"
        );
        self.components.push((weight, Box::new(Component(stream))));
        self
    }

    /// Finalizes the mixture.
    ///
    /// # Panics
    ///
    /// Panics if no component was added.
    pub fn build(self) -> Mixture {
        assert!(
            !self.components.is_empty(),
            "mixture needs at least one component"
        );
        let total: f64 = self.components.iter().map(|(w, _)| w).sum();
        let mut acc = 0.0;
        let (cumulative, components): (Vec<f64>, Vec<_>) = self
            .components
            .into_iter()
            .map(|(w, stream)| {
                acc += w / total;
                (acc, stream)
            })
            .unzip();
        Mixture {
            ends: vec![0; components.len()],
            components,
            cumulative,
            rng: StdRng::seed_from_u64(self.seed),
            block: vec![MemoryAccess::fetch(0); BLOCK],
            cursor: BLOCK,
            positions: vec![0; BLOCK],
        }
    }
}

impl Mixture {
    /// Draws the next block of accesses. Only called on a full block.
    fn refill(&mut self) {
        let last = self.components.len() - 1;
        self.ends.fill(0);
        // One draw per access, mapped to the component the per-access
        // `cumulative.partition_point(|&c| c < u)` finds: the table is
        // sorted, so that is the count of entries below `u`, capped at the
        // last component. Each pick waits in its slot's address until the
        // component overwrites it.
        for slot in &mut self.block {
            let u: f64 = self.rng.gen();
            let below: usize = self.cumulative.iter().map(|&c| usize::from(c < u)).sum();
            let pick = below.min(last);
            slot.address = pick as u64;
            self.ends[pick] += 1;
        }
        // Counting sort of the positions by pick, stable: `ends` holds each
        // group's start, then advances to its end.
        let mut start = 0;
        for end in &mut self.ends {
            let count = *end;
            *end = start;
            start += count;
        }
        for (position, slot) in self.block.iter().enumerate() {
            let end = &mut self.ends[slot.address as usize];
            self.positions[*end] = position as u16;
            *end += 1;
        }
        // Each component fills its group. One that runs out ends the
        // stream at its first unfilled position.
        let mut len = BLOCK;
        let mut start = 0;
        for (component, &end) in self.components.iter_mut().zip(&self.ends) {
            let group = &self.positions[start..end];
            let filled = component.fill(group, &mut self.block);
            if let Some(&position) = group.get(filled) {
                len = len.min(usize::from(position));
            }
            start = end;
        }
        self.block.truncate(len);
        self.cursor = 0;
    }
}

impl Iterator for Mixture {
    type Item = MemoryAccess;

    fn next(&mut self) -> Option<MemoryAccess> {
        if self.cursor == self.block.len() {
            if self.block.len() < BLOCK {
                return None;
            }
            self.refill();
        }
        let access = *self.block.get(self.cursor)?;
        self.cursor += 1;
        Some(access)
    }
}

/// A cyclic schedule of phases, each a stream run for a fixed number of
/// accesses — models alternating program phases (e.g. build vs. traverse).
///
/// # Examples
///
/// ```
/// use reap_trace::generators::{KindModel, StridedStream, UniformRandom};
/// use reap_trace::Phased;
///
/// let data = KindModel::Data { read_fraction: 0.9 };
/// let mut phased = Phased::new(vec![
///     (1_000, Box::new(StridedStream::new(0, 128, 1, data, 1))),
///     (500, Box::new(UniformRandom::new(0x100_0000, 4096, data, 2))),
/// ]);
/// let first_phase: Vec<_> = phased.by_ref().take(1_000).collect();
/// assert!(first_phase.iter().all(|a| a.address < 128 * 64));
/// ```
pub struct Phased {
    phases: Vec<(usize, Box<dyn Iterator<Item = MemoryAccess> + Send>)>,
    current: usize,
    emitted_in_phase: usize,
}

impl std::fmt::Debug for Phased {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Phased")
            .field("phases", &self.phases.len())
            .field("current", &self.current)
            .finish()
    }
}

impl Phased {
    /// Creates a cyclic phase schedule.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or any phase length is zero.
    pub fn new(phases: Vec<(usize, Box<dyn Iterator<Item = MemoryAccess> + Send>)>) -> Self {
        assert!(!phases.is_empty(), "schedule needs at least one phase");
        assert!(
            phases.iter().all(|(n, _)| *n > 0),
            "phase lengths must be positive"
        );
        Self {
            phases,
            current: 0,
            emitted_in_phase: 0,
        }
    }
}

impl Iterator for Phased {
    type Item = MemoryAccess;

    fn next(&mut self) -> Option<MemoryAccess> {
        if self.emitted_in_phase >= self.phases[self.current].0 {
            self.emitted_in_phase = 0;
            self.current = (self.current + 1) % self.phases.len();
        }
        self.emitted_in_phase += 1;
        self.phases[self.current].1.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{KindModel, StridedStream, UniformRandom};

    const DATA: KindModel = KindModel::Data { read_fraction: 1.0 };

    #[test]
    fn mixture_respects_weights() {
        let m = Mixture::builder(1)
            .component(9.0, StridedStream::new(0, 16, 1, DATA, 1))
            .component(1.0, StridedStream::new(0x100_0000, 16, 1, DATA, 2))
            .build();
        let n = 100_000;
        let low = m.take(n).filter(|a| a.address < 0x100_0000).count();
        let frac = low as f64 / n as f64;
        assert!((frac - 0.9).abs() < 0.01, "frac = {frac}");
    }

    #[test]
    fn mixture_is_deterministic() {
        let build = || {
            Mixture::builder(3)
                .component(1.0, StridedStream::new(0, 16, 1, DATA, 1))
                .component(1.0, UniformRandom::new(0x100_0000, 64, DATA, 2))
                .build()
        };
        let a: Vec<_> = build().take(200).collect();
        let b: Vec<_> = build().take(200).collect();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn empty_mixture_rejected() {
        let _ = Mixture::builder(0).build();
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn non_positive_weight_rejected() {
        let _ = Mixture::builder(0).component(0.0, StridedStream::new(0, 4, 1, DATA, 1));
    }

    #[test]
    fn phased_switches_then_cycles() {
        let mut p = Phased::new(vec![
            (3, Box::new(StridedStream::new(0, 4, 1, DATA, 1))),
            (2, Box::new(StridedStream::new(0x100_0000, 4, 1, DATA, 2))),
        ]);
        let regions: Vec<bool> = p
            .by_ref()
            .take(10)
            .map(|a| a.address < 0x100_0000)
            .collect();
        assert_eq!(
            regions,
            vec![true, true, true, false, false, true, true, true, false, false]
        );
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_schedule_rejected() {
        let _ = Phased::new(vec![]);
    }
}
