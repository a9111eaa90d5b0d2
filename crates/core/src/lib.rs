//! REAP-cache: Read Error Accumulation Preventer cache.
//!
//! The paper's contribution and its evaluation harness:
//!
//! * [`ProtectionScheme`] — the four architectures compared: the
//!   conventional parallel-access cache (checks only the requested way),
//!   **REAP** (swaps the MUX and the ECC decoders so all `k` ways are
//!   checked on every read), the serial tag-first baseline (§IV approach
//!   1), and disruptive-read-and-restore (related work refs. 14/15 of the paper);
//! * [`readpath`] — the structural access-time model behind the §V-B claim
//!   that REAP never lengthens the read path;
//! * [`energy`] — dynamic-energy accounting per scheme on top of
//!   [`reap_nvarray`] estimates and [`reap_ecc::DecoderCost`];
//! * [`observer`] — the [`reap_cache::AccessObserver`] implementation that
//!   converts cache events into Eq. (3)/(6) failure probabilities, one
//!   simulation pass scoring *all* schemes simultaneously (their cache
//!   behaviour is identical; only checking differs);
//! * [`capture`] — the two-phase simulation split: one trace pass records
//!   an analysis-independent exposure stream ([`ExposureCapture`]) that
//!   replays at any ECC/MTJ analysis point in O(events), bit-identical to
//!   a single-pass run;
//! * [`simulator`] / [`experiment`] — end-to-end runs producing
//!   [`report::Report`]s with MTTF, energy and performance comparisons.
//!
//! # Examples
//!
//! ```
//! use reap_core::{Experiment, ProtectionScheme};
//! use reap_trace::SpecWorkload;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let report = Experiment::paper_hierarchy()
//!     .workload(SpecWorkload::Namd)
//!     .accesses(100_000)
//!     .seed(7)
//!     .run()?;
//! assert!(report.mttf_improvement(ProtectionScheme::Reap) > 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod campaign;
pub mod capture;
pub mod capture_store;
pub mod checkpoint;
pub mod energy;
pub mod experiment;
pub mod explore;
pub mod observer;
pub mod readpath;
pub mod report;
pub mod scheme;
pub mod simulator;
mod stages;
pub mod supervise;

pub use campaign::{
    CampaignConfig, CampaignError, CampaignOutcome, SweepJob, SweepMode, WorkloadOutcome,
};
pub use capture::{
    CaptureObserver, EventBlock, ExposureCapture, ExposureEvents, ExposureRecord, ExposureStream,
    HierarchySnapshot, StreamDefect,
};
pub use capture_store::{CaptureKey, CapturePolicy, CaptureStore, CaptureStoreError};
pub use checkpoint::{CheckpointError, SweepRow};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use experiment::{Experiment, ExperimentError};
pub use explore::{
    explore, parse_grid, ExploreConfig, ExploreError, ExploreGrid, ExploreOutcome, ExploreRow,
};
pub use observer::ReliabilityObserver;
pub use readpath::ReadPathModel;
pub use report::Report;
pub use scheme::ProtectionScheme;
pub use simulator::{EccStrength, SimulationConfig, Simulator};
pub use supervise::{pool_map_supervised, JobError, JobOutcome, RetryBackoff, SupervisorConfig};
