//! # rcarb-fuzz — coverage-guided scenario fuzzing for the arbitration
//! stack
//!
//! Every test generator in the repo — board presets, random task
//! graphs, seeded fault plans, watchdog configs, the full policy
//! list — composed into one replayable [`Scenario`] value, run under
//! both simulation kernels and both synthesis tool models, with
//! the obs deterministic-metrics snapshot as the coverage signal.
//!
//! The pipeline:
//!
//! 1. [`Scenario::generate`] / [`Scenario::mutate`] — a pure function
//!    of the seed; [`encode()`]/[`decode`] give every scenario a stable
//!    `rcfz1:` one-liner for bug reports and the checked-in corpus.
//! 2. [`run_scenario`] — the differential-oracle fleet: cross-kernel
//!    byte equality, prefix-RR vs linear-scan policy equality,
//!    parallel-vs-sequential tool-model sweeps, certified-clean
//!    watchdog silence, panic capture and hang budgets.
//! 3. [`CoverageMap`] — keeps a scenario when it touches a new metric
//!    series/bucket, violation kind, or report shape.
//! 4. [`shrink()`] — delta-debugs a finding to a locally minimal
//!    scenario that still fails the same way.
//! 5. [`Fuzzer`] / [`fuzz_fleet`] — the seeded loop and its sharded
//!    fleet mode over the `rcarb-exec` pool.
//!
//! See `fuzz/corpus/` in the repo root for the regression corpus and
//! the `rcarb-fuzz` bin in `crates/bench` for the CLI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod coverage;
pub mod encode;
pub mod fuzzer;
pub mod run;
pub mod scenario;
pub mod shrink;

pub use corpus::{load_corpus, save_entry, CorpusEntry, CorpusError};
pub use coverage::{keys_of, CoverageMap};
pub use encode::{decode, encode, DecodeError};
pub use fuzzer::{fuzz_fleet, FuzzConfig, FuzzStats, Fuzzer, ShardResult};
pub use run::{
    observe_kernel, run_scenario, Finding, FindingKind, Observation, RunConfig, RunOutcome, KERNELS,
};
pub use scenario::{BoardPreset, FaultSpec, Scenario, TaskSpec, WatchdogSpec};
pub use shrink::{shrink, ShrinkStats};

#[cfg(feature = "plant-divergence")]
pub use run::run_scenario_with_hook;
