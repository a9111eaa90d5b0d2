//! Trace-driven set-associative cache simulation with concealed-read
//! bookkeeping.
//!
//! This crate replaces gem5 for the REAP-cache study. It models what the
//! study actually depends on:
//!
//! * a multi-level hierarchy ([`Hierarchy`]): split SRAM L1I/L1D in front
//!   of a shared STT-MRAM L2, write-back/write-allocate (Table I of the
//!   paper);
//! * the *parallel* (fast) read path of modern caches: every read of a set
//!   reads **all** `k` ways; the `k − 1` non-requested ways suffer
//!   *concealed reads* (§III-A) tracked per line in
//!   [`Cache`];
//! * pluggable [`replacement`] policies (LRU, tree-PLRU, FIFO, random,
//!   SRRIP);
//! * an [`AccessObserver`] hook through which the reliability layer
//!   receives every check/read/eviction event without the cache knowing
//!   any probability math.
//!
//! # Examples
//!
//! ```
//! use reap_cache::{AccessMode, Cache, CacheConfig, Replacement};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = CacheConfig::builder()
//!     .name("L2")
//!     .size_bytes(1 << 20)
//!     .associativity(8)
//!     .block_bytes(64)
//!     .access_mode(AccessMode::Parallel)
//!     .build()?;
//! let mut l2 = Cache::new(config, Replacement::Lru);
//! l2.read(0x4000, &mut ());
//! l2.read(0x4000, &mut ());
//! assert_eq!(l2.stats().hits(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod hierarchy;
pub mod observer;
pub mod replacement;
pub mod stats;
pub mod timing;

pub use cache::{sample_ones, sample_ones_multi, sample_ones_multi_batch, Cache, EvictionInfo};
pub use config::{AccessMode, CacheConfig, CacheConfigBuilder, ConfigError};
pub use hierarchy::{Hierarchy, HierarchyConfig, L1Filter, L2Level, L2Op, Level};
pub use observer::{AccessObserver, LineKey};
pub use replacement::{PolicyState, Replacement, ReplacementPolicy};
pub use stats::CacheStats;
