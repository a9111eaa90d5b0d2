//! The event hook between the cache simulator and the reliability layer.

/// Identity of one line's *content* at event time: the `(tag, set,
/// version)` triple that seeds the deterministic content-weight hash
/// ([`crate::sample_ones`]).
///
/// The version is bumped on every rewrite of the slot, so the key pins
/// down exactly which sampled content a read, scrub or eviction touched.
/// Because cache behaviour never consumes the sampled weight, the key is
/// **analysis-independent**: a capture of keys taken at one ECC/MTJ
/// configuration can be re-evaluated at any other by resampling the
/// weight at that configuration's stored width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LineKey {
    /// The line's address tag.
    pub tag: u64,
    /// The set index holding the line.
    pub set: u64,
    /// The slot's rewrite counter at event time.
    pub version: u64,
}

/// Receives the per-line events the reliability analysis consumes.
///
/// The cache calls these hooks inline during simulation; implementations
/// accumulate whatever statistics they need (failure probabilities,
/// concealed-read histograms, energy event counts). The unit type `()`
/// implements the trait as a no-op observer.
///
/// `line_ones` is the number of `1` bits (`n` in Eqs. (2)–(6) of the
/// paper) currently stored in the touched line, including check bits.
/// The cache samples it at the hook from the line's [`LineKey`], and
/// only for observers that declare [`NEEDS_WEIGHTS`](Self::NEEDS_WEIGHTS).
///
/// # Examples
///
/// ```
/// use reap_cache::AccessObserver;
///
/// #[derive(Default)]
/// struct CountChecks(u64);
///
/// impl AccessObserver for CountChecks {
///     fn demand_read(&mut self, _line_ones: u32, _unchecked_reads: u64) {
///         self.0 += 1;
///     }
/// }
/// ```
pub trait AccessObserver {
    /// Whether any hook reads its `line_ones` argument. Sampling a weight
    /// costs several hash rounds per line, so the cache does it only for
    /// observers that need it; when this is `false`, every `line_ones`
    /// argument is `0`. Override it to `false` only if no hook of the
    /// implementation looks at `line_ones`.
    const NEEDS_WEIGHTS: bool = true;

    /// A demand read hit: the one moment the *conventional* cache checks
    /// ECC. `unchecked_reads` is `N` of Eq. (3): the concealed reads
    /// accumulated since the line was last checked or rewritten, **plus
    /// one** for this demand read itself.
    fn demand_read(&mut self, line_ones: u32, unchecked_reads: u64) {
        let _ = (line_ones, unchecked_reads);
    }

    /// Any physical read of a valid line — demand or concealed. In the
    /// REAP scheme every such read is an ECC check of a single read's
    /// disturbance (Eq. (6)).
    fn line_read(&mut self, line_ones: u32) {
        let _ = line_ones;
    }

    /// A valid line leaves the cache. `unchecked_reads` disturbance
    /// opportunities were accumulated and never checked; if `dirty`, the
    /// line's content is consumed by the write-back path.
    fn eviction(&mut self, dirty: bool, line_ones: u32, unchecked_reads: u64) {
        let _ = (dirty, line_ones, unchecked_reads);
    }

    /// A line is (re)written — by a fill or a store — which heals any
    /// accumulated disturbance. `line_ones` is the weight of the *new*
    /// content.
    fn line_write(&mut self, line_ones: u32) {
        let _ = line_ones;
    }

    /// A scrub sweep checked this line after `unchecked_reads` accumulated
    /// reads (including the scrub read itself). Unlike a demand read, a
    /// scrub that detects an uncorrectable error on a *clean* line is
    /// recoverable (invalidate and refetch); only a `dirty` line is lost.
    fn scrub_check(&mut self, dirty: bool, line_ones: u32, unchecked_reads: u64) {
        let _ = (dirty, line_ones, unchecked_reads);
    }

    /// Keyed variant of [`demand_read`](Self::demand_read) carrying the
    /// line's content-version [`LineKey`]. The cache always calls this
    /// variant; the default forwards to the unkeyed hook, so observers
    /// that don't need the key implement only `demand_read`.
    fn demand_read_keyed(&mut self, key: LineKey, line_ones: u32, unchecked_reads: u64) {
        let _ = key;
        self.demand_read(line_ones, unchecked_reads);
    }

    /// Keyed variant of [`eviction`](Self::eviction); same forwarding
    /// contract as [`demand_read_keyed`](Self::demand_read_keyed).
    fn eviction_keyed(&mut self, key: LineKey, dirty: bool, line_ones: u32, unchecked_reads: u64) {
        let _ = key;
        self.eviction(dirty, line_ones, unchecked_reads);
    }

    /// Keyed variant of [`scrub_check`](Self::scrub_check); same
    /// forwarding contract as [`demand_read_keyed`](Self::demand_read_keyed).
    fn scrub_check_keyed(
        &mut self,
        key: LineKey,
        dirty: bool,
        line_ones: u32,
        unchecked_reads: u64,
    ) {
        let _ = key;
        self.scrub_check(dirty, line_ones, unchecked_reads);
    }
}

impl AccessObserver for () {
    const NEEDS_WEIGHTS: bool = false;
}

impl<T: AccessObserver + ?Sized> AccessObserver for &mut T {
    const NEEDS_WEIGHTS: bool = T::NEEDS_WEIGHTS;

    fn demand_read(&mut self, line_ones: u32, unchecked_reads: u64) {
        (**self).demand_read(line_ones, unchecked_reads);
    }

    fn line_read(&mut self, line_ones: u32) {
        (**self).line_read(line_ones);
    }

    fn eviction(&mut self, dirty: bool, line_ones: u32, unchecked_reads: u64) {
        (**self).eviction(dirty, line_ones, unchecked_reads);
    }

    fn line_write(&mut self, line_ones: u32) {
        (**self).line_write(line_ones);
    }

    fn scrub_check(&mut self, dirty: bool, line_ones: u32, unchecked_reads: u64) {
        (**self).scrub_check(dirty, line_ones, unchecked_reads);
    }

    fn demand_read_keyed(&mut self, key: LineKey, line_ones: u32, unchecked_reads: u64) {
        (**self).demand_read_keyed(key, line_ones, unchecked_reads);
    }

    fn eviction_keyed(&mut self, key: LineKey, dirty: bool, line_ones: u32, unchecked_reads: u64) {
        (**self).eviction_keyed(key, dirty, line_ones, unchecked_reads);
    }

    fn scrub_check_keyed(
        &mut self,
        key: LineKey,
        dirty: bool,
        line_ones: u32,
        unchecked_reads: u64,
    ) {
        (**self).scrub_check_keyed(key, dirty, line_ones, unchecked_reads);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default, Debug, PartialEq)]
    struct Recorder {
        demands: Vec<(u32, u64)>,
        reads: usize,
        evictions: usize,
        writes: usize,
    }

    impl AccessObserver for Recorder {
        fn demand_read(&mut self, line_ones: u32, unchecked_reads: u64) {
            self.demands.push((line_ones, unchecked_reads));
        }

        fn line_read(&mut self, _line_ones: u32) {
            self.reads += 1;
        }

        fn eviction(&mut self, _dirty: bool, _line_ones: u32, _unchecked_reads: u64) {
            self.evictions += 1;
        }

        fn line_write(&mut self, _line_ones: u32) {
            self.writes += 1;
        }
    }

    #[test]
    fn unit_observer_is_a_noop() {
        let mut obs = ();
        obs.demand_read(1, 2);
        obs.line_read(3);
        obs.eviction(true, 4, 5);
        obs.line_write(6);
    }

    fn needs_weights<O: AccessObserver>() -> bool {
        O::NEEDS_WEIGHTS
    }

    #[test]
    fn weight_need_forwards_through_mut_ref() {
        struct KeysOnly;
        impl AccessObserver for KeysOnly {
            const NEEDS_WEIGHTS: bool = false;
        }
        assert!(!needs_weights::<()>());
        assert!(!needs_weights::<&mut KeysOnly>());
        assert!(needs_weights::<Recorder>());
        assert!(needs_weights::<&mut &mut Recorder>());
    }

    #[test]
    fn mut_ref_forwards() {
        let mut rec = Recorder::default();
        {
            fn forward(mut fwd: impl AccessObserver) {
                fwd.demand_read(10, 3);
                fwd.line_read(10);
                fwd.eviction(false, 10, 0);
                fwd.line_write(10);
            }
            forward(&mut rec);
        }
        assert_eq!(rec.demands, vec![(10, 3)]);
        assert_eq!(rec.reads, 1);
        assert_eq!(rec.evictions, 1);
        assert_eq!(rec.writes, 1);
    }
}
