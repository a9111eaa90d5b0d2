//! Reliability mathematics for read-disturbance accumulation.
//!
//! Implements the analytical core of the paper:
//!
//! * [`model`] — Eqs. (2), (3) and (6), generalized from single-error
//!   correction to any `t`-error-correcting code, computed in log space so
//!   probabilities down to 1e-300 stay exact;
//! * [`mttf`] — aggregation of per-event failure probabilities into Mean
//!   Time To Failure and FIT rates;
//! * [`histogram`] — the log-binned concealed-read histograms of Fig. 3,
//!   tracking both event frequency and failure contribution per bin;
//! * [`montecarlo`] — bit-level fault injection against real ECC codecs
//!   (from [`reap_ecc`]) that validates the analytical model end to end;
//! * [`replay`] — the scoring engine of the two-phase capture/replay
//!   simulation: evaluates a captured exposure stream under any ECC/MTJ
//!   analysis point, bit-identical to a live single-pass observer;
//! * [`multi`] — the batched sweep kernel: scores *all* analysis points
//!   in one pass over the stream, bit-identical to independent per-point
//!   replays;
//! * [`pareto`] — dominance and front extraction over (MTTF, energy,
//!   area) for the design-space explorer, total-ordered so degenerate
//!   points can never mis-sort the front.
//!
//! # Examples
//!
//! The paper's numeric example (§III-B): 100 stored `1`s, `P_rd = 1e-8`:
//!
//! ```
//! use reap_reliability::AccumulationModel;
//!
//! let m = AccumulationModel::sec(1e-8);
//! // Eq. (4): one read, no concealed reads.
//! let p1 = m.fail_conventional(100, 1);
//! assert!((p1 / 4.95e-13 - 1.0).abs() < 0.02);
//! // Eq. (5): 50 accumulated reads — three orders of magnitude worse.
//! let p50 = m.fail_conventional(100, 50);
//! assert!((p50 / 1.25e-9 - 1.0).abs() < 0.02);
//! // Eq. (6): REAP checks every read — 50x better than accumulating.
//! let reap = m.fail_reap(100, 50);
//! assert!((p50 / reap - 50.0).abs() < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod model;
pub mod montecarlo;
pub mod mttf;
pub mod multi;
pub mod pareto;
pub mod replay;

pub use histogram::LogHistogram;
pub use model::{uncorrectable_probability, AccumulationModel};
pub use montecarlo::{McLineResult, MonteCarloLine};
pub use mttf::{FailureAggregator, Mttf};
pub use multi::MultiReplayAggregator;
pub use pareto::{pareto_front_indices, ParetoPoint};
pub use replay::{ExposureKind, ReplayAggregator};
