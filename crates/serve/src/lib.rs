//! `reap serve`: a fault-tolerant, long-lived sweep service.
//!
//! `reap sweep` pays one trace capture per workload and then answers
//! replay queries cheaply; this crate turns that economy into a daemon
//! that runs each job through the offline sweep itself
//! (`reap_core::campaign::run_sweep_campaign`): the same job body, the
//! same supervised pool, the same journal. [`server::serve`] listens
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
//! * **cross-job capture reuse through the store** — a daemon started
//!   with `--capture-dir` serves every job's captures from the on-disk
//!   `reap_core::CaptureStore`, exactly as offline sweeps do, and
//!   concurrent jobs at one point trace each workload once (the store
//!   is single-flight within a process); there is no in-memory tier;
//! * **fault-injectable connection paths** — a [`reap_fault::FaultPlan`]
//!   with `refuse=`/`drop=`/`stall-ms=` specs exercises refused
//!   accepts, dropped streams and stalled reads in chaos tests.
//!
//! The row codec is shared with the checkpoint module
//! (`reap_core::checkpoint::row_to_json`), which is what makes a row
//! served from a journal or freshly computed bit-identical to an
//! offline `reap sweep`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod jobs;
pub mod protocol;
pub mod server;
pub mod signal;

pub use client::{fetch_raw, request_one, submit, ClientConfig, SubmitError, SubmitOutcome};
pub use jobs::JobSpec;
pub use protocol::{Request, Response};
pub use server::{serve, ServeConfig};
