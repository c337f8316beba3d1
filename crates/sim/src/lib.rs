#![warn(missing_docs)]

//! Cycle-accurate simulation of arbitrated multi-FPGA designs.
//!
//! The paper validates its arbitration mechanism on real hardware (the
//! Wildforce board). This crate substitutes a discrete, cycle-accurate
//! simulator that makes the same phenomena observable:
//!
//! - [`value`] — four-valued logic (`0/1/Z/X`) and tri-state/wired-OR/
//!   wired-AND bus resolution (the paper's Fig. 4 line disciplines);
//! - [`compile`] — flattening of taskgraph programs into an executable
//!   instruction stream (loops and branches become jumps);
//! - [`memory`] — single-ported bank models that detect simultaneous-
//!   access conflicts (the hazard of Fig. 2);
//! - [`channel`] — receiving-end channel registers (Fig. 3 / Table 1),
//!   with a deliberately wrong source-register mode to demonstrate *why*
//!   the registers must sit at the receivers;
//! - [`arbiter`] — behavioural arbiters with optional synthesized-netlist
//!   co-simulation (every grant cross-checked against the mapped
//!   hardware);
//! - [`monitor`] — mutual-exclusion, protocol and starvation monitors,
//!   plus the runtime watchdogs (grant timeout, fairness cross-check,
//!   no-progress detection);
//! - [`fault`] — deterministic seeded fault injection
//!   ([`FaultPlan`]), detection accounting ([`FaultReport`]) and the
//!   [`RecoveryPolicy`] knobs (scrub/retry/quarantine/re-route);
//! - [`component`] — the kernel's component layer: tasks, arbiters,
//!   banks, routes, monitor and tracer as self-contained units with an
//!   explicit wake/skip contract, plus the batched kernel's
//!   structure-of-arrays state (bitset request matrix, word-level
//!   arbiter FSM lanes, reused traffic arenas, flat lookup tables);
//! - [`scheduler`] — the batched kernel's wake-list/dirty-set
//!   scheduler and its cycle-accounting [`KernelStats`];
//! - [`engine`] — the simulation kernel: orchestrates the components
//!   through the shared per-cycle phase order, skipping provably inert
//!   cycles. [`KernelKind`] selects between the batched SoA default,
//!   the one production kernel, and the legacy always-execute
//!   differential oracle — the two held to identical reports, VCD and
//!   memory by `tests/kernel_equivalence.rs`;
//! - [`stats`] — fairness and utilization summaries;
//! - [`vcd`] — a small VCD waveform writer for request/grant traces.
//!
//! # Protocol timing
//!
//! One instruction issues per task per cycle, except `AwaitGrant`, which
//! falls through for free on the cycle its grant is visible. A request
//! asserted in cycle `t` reaches the arbiter in cycle `t+1` (the
//! register between task and arbiter). An uncontended arbitrated batch of
//! `M` accesses therefore costs `M + 2` cycles — the paper's "two extra
//! clock cycles due to the arbitration protocol".

pub mod arbiter;
pub mod channel;
pub mod compile;
pub mod component;
pub mod config;
pub mod engine;
pub mod fault;
pub mod memory;
pub mod monitor;
pub mod scheduler;
pub mod stats;
pub mod value;
pub mod vcd;

pub use config::{KernelKind, SimConfig, WatchdogConfig};
pub use engine::{RunReport, System, SystemBuilder};
pub use fault::{FaultKind, FaultPlan, FaultReport, FaultTrace, FaultWindow, RecoveryPolicy};
pub use monitor::Violation;
pub use scheduler::{KernelStats, Scheduler};
