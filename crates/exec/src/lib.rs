#![warn(missing_docs)]

//! # rcarb-exec — parallel execution substrate for the rcarb workspace
//!
//! The workspace's hot paths (characterization sweeps, multi-partition
//! simulation, design-rule analysis) are embarrassingly parallel but were
//! historically single-threaded. This crate provides the three pieces
//! needed to fix that without taking any external dependency:
//!
//! - [`pool`] — a std-only **work-stealing thread pool** ([`ThreadPool`])
//!   with a deterministic, order-preserving [`ThreadPool::parallel_map`],
//!   plus scheduling metrics (jobs scheduled, executed, stolen);
//! - [`cache`] — a generic, thread-safe, **content-addressed cache**
//!   ([`Cache`]) with hit/miss accounting, used by `rcarb-core` to memoize
//!   arbiter synthesis keyed by the synthesized circuit;
//! - [`perf`] — a [`PerfReport`] aggregating pool stats, cache stats and
//!   per-stage wall times, rendered as aligned text or rcarb-json.
//!
//! Determinism is a design constraint, not an afterthought: every parallel
//! entry point in the workspace returns results in submission order, so
//! parallel and sequential paths produce byte-identical artefacts (the
//! repository's determinism tests enforce this).

pub mod cache;
pub mod perf;
pub mod pool;

pub use cache::{Cache, CacheStats};
pub use perf::{PerfReport, StageTimer};
pub use pool::{global_pool, PoolStats, ThreadPool};
