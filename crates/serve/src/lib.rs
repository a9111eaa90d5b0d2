//! `reap serve`: a fault-tolerant, long-lived sweep service.
//!
//! `reap sweep` pays one trace capture per workload and then answers
//! replay queries cheaply; this crate turns that economy into a daemon
//! that runs the same job body (`reap_core::SweepJob`) on the same
//! supervised pool, opening its journals with the same
//! `reap_core::checkpoint::open_journal`. [`server::serve`] listens
//! on a Unix-domain socket for newline-delimited JSON requests
//! ([`protocol`]) and streams result rows back as JSONL, while staying
//! correct through the failure modes a long-lived process actually
//! meets:
//!
//! * **admission control** — a bounded queue over a fixed runner pool;
//!   a saturated daemon answers a structured `busy` response with a
//!   retry-after hint instead of queueing unboundedly or hanging;
//! * **cancellation** — clients cancel by job id, and a client that
//!   disconnects mid-stream cancels its own job and releases workers;
//! * **graceful drain and crash-safe resume** — SIGTERM/SIGINT stops
//!   admissions and drains in-flight jobs to per-job
//!   `reap-checkpoint/1` journals; a restarted daemon serves the
//!   journaled rows byte-identically and computes only the remainder;
//! * **a bounded hot capture cache** ([`cache::HotCaptureCache`]) — an
//!   LRU keyed by the capture store's content fingerprint, with
//!   single-flight deduplication so concurrent jobs over the same
//!   configuration trigger exactly one capture;
//! * **fault-injectable connection paths** — a [`reap_fault::FaultPlan`]
//!   with `refuse=`/`drop=`/`stall-ms=` specs exercises refused
//!   accepts, dropped streams and stalled reads in chaos tests.
//!
//! The row codec is shared with the checkpoint module
//! (`reap_core::checkpoint::row_to_json`), which is what makes a row
//! served hot, from disk, from a journal, or freshly computed
//! bit-identical to an offline `reap sweep`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod jobs;
pub mod protocol;
pub mod server;
pub mod signal;

pub use cache::HotCaptureCache;
pub use client::{fetch_raw, request_one, submit, ClientConfig, SubmitError, SubmitOutcome};
pub use jobs::{compute_rows, JobSpec};
pub use protocol::{Request, Response};
pub use server::{serve, ServeConfig};
